"""Benchmark a git revision against the working tree in alternating pairs of
perfbench runs, and write the result as BENCH_<label>.json.

    python tools/bench_pairs.py REV --label L [--pairs 10] [--first-seed 41]
        [--workloads train-c7,analyze-10x] [--claim WORKLOAD:METRIC]
        [--trace-seed S] --change TEXT

REV's files (the parent) are written with `git archive` into a temporary
directory, removed again afterwards; the working tree (the
change), uncommitted files included, is copied next to it. Both sides get the
working tree's `perfbench/` and `BENCHMARK.json`, so only the program differs.

For each workload, the pair with seed s runs the parent first when s is odd
and the change first when s is even. Each run is
`perfbench/run.py --workload W --seed s --trace 0 --seconds 25` in its side's
directory; the tool reads the last line of its output (one JSON object) and
the `digests` line. A run that exits nonzero, prints no JSON or reports
`correct: false` stops the tool with exit 1. A missing or blank `--change`
is refused (exit 2) before anything runs, since the file records it.
`--trace-seed S` adds one `--trace 1` run per side and workload at seed S,
the parent first, whose per-layer figures are listed as points.

Every end-to-end metric in BENCHMARK.json gets both sides' medians,
quartiles and runs, the change's wins, its median change in percent and
whether it is within the metric's bound. The file holds one digest shape:
`digests[side][seed]` with `params_digests_equal` and
`predictions_digests_equal`. One line per metric is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SECONDS = 25
CLAIM_RULE = (
    "a claim is met when the change is better than the parent in at least 90% of the pairs (rounded up), "
    "and its median beats the parent's by more than the parent's IQR (quartiles by statistics.quantiles, "
    "method exclusive)"
)
WITHIN_BOUND_RULE = "a metric is within its bound when the change's median is worse than the parent's by at most bound x the parent's median"


class BenchError(Exception):
    """A run that failed or was not correct: the comparison stops."""


def load_benchmark(path: Path = REPO / "BENCHMARK.json") -> dict:
    return json.loads(path.read_text())


def first_side(seed: int) -> str:
    return "parent" if seed % 2 else "change"


def run_order(seeds: list[int]) -> list[tuple[str, int]]:
    """(side, seed) in the order the runs are made."""
    order = []
    for seed in seeds:
        first = first_side(seed)
        order += [(first, seed), (SIDES[1 - SIDES.index(first)], seed)]
    return order


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def better(a: float, b: float, direction: str) -> bool:
    """Whether a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def within_bound(parent: float, change: float, direction: str, bound: float) -> bool:
    worse_by = (parent - change) if direction == "higher" else (change - parent)
    return worse_by <= bound * abs(parent)


def claim_met(block: dict) -> bool:
    """CLAIM_RULE."""
    gain = block["change_median"] - block["parent_median"]
    if block["better"] == "lower":
        gain = -gain
    return block["change_wins"] >= math.ceil(0.9 * block["pairs"]) and gain > block["parent_iqr"]


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def metric_block(spec: dict, parent_runs: list[float], change_runs: list[float]) -> dict:
    p, c = quartiles(parent_runs), quartiles(change_runs)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": {k: _sig(v) for k, v in p.items()},
        "change": {k: _sig(v) for k, v in c.items()},
        "change_wins": sum(better(y, x, spec["better"]) for x, y in zip(parent_runs, change_runs)),
        "median_change_pct": round(100.0 * (c["median"] - p["median"]) / p["median"], 2) if p["median"] else None,
        "within_bound": within_bound(p["median"], c["median"], spec["better"], spec["bound"]),
        "parent_runs": [_sig(v) for v in parent_runs],
        "change_runs": [_sig(v) for v in change_runs],
    }


def digests_equal(digests: dict, kind: str) -> bool:
    parent, change = digests["parent"], digests["change"]
    return parent.keys() == change.keys() and all(parent[s][kind] == change[s][kind] for s in parent)


def workload_block(records: dict, seeds: list[int], bench: dict) -> dict:
    """records[side][seed] -> the run record; the block of one workload."""
    block = {
        "pairs": len(seeds),
        "seeds": seeds,
        "first_side": [first_side(s) for s in seeds],
        "correct": {side: all(records[side][s]["correct"] for s in seeds) for side in SIDES},
        "failed": {side: sum(records[side][s]["failed"] for s in seeds) for side in SIDES},
        "attempted": {side: sum(records[side][s]["attempted"] for s in seeds) for side in SIDES},
        "metrics": {},
        "digests": {side: {str(s): records[side][s]["digests"] for s in seeds} for side in SIDES},
    }
    for spec in bench["end_to_end"]:
        name = spec["name"]
        runs = {side: [records[side][s]["metrics"][name]["value"] for s in seeds] for side in SIDES}
        block["metrics"][name] = metric_block(spec, runs["parent"], runs["change"])
    for kind in ("params", "predictions"):
        block[f"{kind}_digests_equal"] = digests_equal(block["digests"], kind)
    return block


def claim_block(workloads: dict, workload: str, metric: str) -> dict:
    m = workloads[workload]["metrics"][metric]
    block = {
        "metric": metric,
        "workload": workload,
        "better": m["better"],
        "parent_median": m["parent"]["median"],
        "change_median": m["change"]["median"],
        "parent_iqr": m["parent"]["iqr"],
        "change_wins": m["change_wins"],
        "pairs": workloads[workload]["pairs"],
        "ratio": round(m["change"]["median"] / m["parent"]["median"], 4),
        "median_change_pct": m["median_change_pct"],
    }
    block["met"] = claim_met(block)
    return block


def summary_lines(workloads: dict) -> list[str]:
    lines = []
    for w, block in workloads.items():
        for name, m in block["metrics"].items():
            lines.append(
                f"{w} {name}: parent {m['parent']['median']:g}, change {m['change']['median']:g} "
                f"({m['median_change_pct']:+.2f}%), wins {m['change_wins']}/{block['pairs']}, "
                f"parent IQR {m['parent']['iqr']:g}, {'within' if m['within_bound'] else 'OUTSIDE'} bound {m['bound']:g}"
            )
    return lines


# --- running ------------------------------------------------------------------------

DIGEST_LINE = re.compile(r"^digests params=(\w+) predictions=(\w+)", re.MULTILINE)


def parse_run(stdout: str) -> dict:
    """The last JSON line of a perfbench run, plus its output digests."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("the run printed no JSON record") from None
    found = DIGEST_LINE.search(stdout)
    record["digests"] = {"params": found.group(1), "predictions": found.group(2)} if found else None
    return record


def perfbench_run(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise BenchError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def checked(record: dict, side: str, workload: str, seed: int) -> dict:
    """The record of a correct run; any other stops the comparison."""
    if not record.get("correct"):
        raise BenchError(f"{side} run of {workload} seed {seed} is not correct: "
                         f"{record.get('failed')} of {record.get('attempted')} operations failed")
    print(f"  {workload} seed {seed} {side}: done", file=sys.stderr, flush=True)
    return record


def collect(workload: str, seeds: list[int], run) -> dict:
    """records[side][seed], made by `run(side, workload, seed)` in pair order."""
    records = {side: {} for side in SIDES}
    for side, seed in run_order(seeds):
        records[side][seed] = checked(run(side, workload, seed), side, workload, seed)
    return records


def traced_block(workload: str, seed: int, run) -> dict:
    """One traced run per side, the parent first, read as points."""
    records = {side: checked(run(side, workload, seed), side, workload, seed) for side in SIDES}
    names = sorted(set(records["parent"]["metrics"]) | set(records["change"]["metrics"]))
    return {
        "seed": seed,
        "first_side": "parent",
        "digests": {side: records[side]["digests"] for side in SIDES},
        "metrics": {n: {side: _sig(records[side]["metrics"][n]["value"]) if n in records[side]["metrics"] else None
                        for side in SIDES} for n in names},
    }


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": 1, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _copy_working_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "-C", str(REPO), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            check=True, capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = REPO / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def _share_benchmark(tree: Path) -> None:
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(REPO / "perfbench", tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(REPO / "BENCHMARK.json", tree / "BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision of the parent")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repo root")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=41)
    parser.add_argument("--workloads", default="train-c7,analyze-10x", help="comma-separated, run in this order")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per side and workload at this seed")
    parser.add_argument("--change", required=True, help="one paragraph on what the change does")
    args = parser.parse_args(argv)
    if not args.change.strip():
        parser.error("--change: say in one paragraph what the change does")

    bench = load_benchmark()
    workload_names = args.workloads.split(",")
    claim = args.claim.split(":", 1) if args.claim else None
    if claim and (claim[0] not in workload_names or claim[1] not in {m["name"] for m in bench["end_to_end"]}):
        parser.error(f"--claim {args.claim}: not a benchmarked workload and end-to-end metric")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    parent_commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", args.rev], check=True,
                                   capture_output=True, text=True).stdout.strip()

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": work / "parent", "change": work / "change"}
    try:
        from outputs_rule import export_tree  # the script next to this one

        export_tree(args.rev, trees["parent"])
        _copy_working_tree(trees["change"])
        for tree in trees.values():
            _share_benchmark(tree)

        def run(side, workload, seed, trace=0):
            try:
                return perfbench_run(trees[side], workload, seed, trace)
            except BenchError as exc:
                raise BenchError(f"{side} run of {workload} seed {seed}: {exc}") from None

        workloads, traced = {}, {}
        for w in workload_names:
            workloads[w] = workload_block(collect(w, seeds, run), seeds, bench)
        if args.trace_seed is not None:
            for w in workload_names:
                traced[w] = traced_block(w, args.trace_seed, lambda side, wl, s: run(side, wl, s, trace=1))
    except BenchError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    order = ", then ".join(f"{w} seeds {seeds[0]}-{seeds[-1]}" for w in workload_names)
    traced_note = (f"; then one --trace 1 run per side and workload at seed {args.trace_seed}, the parent first"
                   if traced else "")
    doc = {
        "label": args.label,
        "change": args.change,
        "parent_commit": parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "method": (f"tools/bench_pairs.py: alternating pairs, the parent in a git archive of {args.rev} and the "
                   "change in a copy of the working tree, both with the working tree's perfbench/ and "
                   "BENCHMARK.json; the pair with seed s runs the parent first when s is odd and the change "
                   f"first when s is even; {order}{traced_note}; {WITHIN_BOUND_RULE}; {CLAIM_RULE}"),
        "machine": machine(),
        "claim": claim_block(workloads, claim[0], claim[1]) if claim else None,
        "workloads": workloads,
    }
    if traced:
        doc["traced"] = traced
    out = REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print("\n".join(summary_lines(workloads)))
    if doc["claim"]:
        c = doc["claim"]
        print(f"claim {c['workload']} {c['metric']}: {c['median_change_pct']:+.2f}%, wins {c['change_wins']}/{c['pairs']}, "
              f"parent IQR {c['parent_iqr']:g}: {'met' if c['met'] else 'NOT met'}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
