"""pertgraph benchmark.

    python3 perfbench/run.py --workload train-c7 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. `--trace 0` measures the end-to-end metrics;
`--trace 1` runs the same workload with span tracing and prints the per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Each run also appends its environment, metrics and output digests to
.perfbench/results.jsonl in the checkout. See perfbench/README.md.
"""

import os

# One BLAS / OpenMP thread, fixed before numpy loads: results taken with other
# thread counts differ in their last bits and are not comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mib": "MiB",
    "train_samples_per_s": "1/s",
    "predict_perts_per_s": "1/s",
    "eval_perts_per_s": "1/s",
    "coverage_perts_per_s": "1/s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ms") or "step_ms" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_per_step"):
        return "B"
    if name.endswith("_flops_per_step"):
        return "flop"
    if name.startswith("quality."):
        return "1"
    return "count"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def import_pertgraph():
    """Import pertgraph from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pertgraph

    if Path(pertgraph.__file__).resolve().parent != src / "pertgraph":
        raise ImportError(f"pertgraph resolved to {pertgraph.__file__}, not under {src}")
    return pertgraph


def previous_digests(workload: str, seed: int):
    path = STATE_DIR / "results.jsonl"
    if not path.exists():
        return None
    last = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if row.get("workload") == workload and row.get("seed") == seed:
                last = row.get("digests")
    return last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_pertgraph()
    except ImportError as exc:
        print(f"perfbench: cannot import pertgraph from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    w = workloads.WORKLOADS[args.workload]
    if args.make_inputs:
        workloads.make_input_files(Path(args.make_inputs), w.n_genes, w.n_perts, args.seed)
        return 0

    env = environment()
    work_dir = STATE_DIR / f"work-{os.getpid()}"
    runner = workloads.Runner(w, args.seed, work_dir, Tracer() if args.trace else None)
    try:
        values = runner.run(args.seconds)
        if not args.trace:
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workloads.cleanup(work_dir)
    rec = runner.rec
    rec.check(env["blas_threads"] in (1, None), f"BLAS runs {env['blas_threads']} threads, not 1")
    digests = runner.digests
    before = previous_digests(w.name, args.seed)
    if before is None:
        digest_note = "first run of this workload and seed here"
    elif before == digests:
        digest_note = "identical to the previous run of this workload and seed"
    else:
        digest_note = "CHANGED since the previous run of this workload and seed"

    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in values}
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in sorted(units)}
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: {w.why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    done = Counter(u.stage for u in rec.units)
    print("work units " + " ".join(f"{k}={v}" for k, v in done.items())
          + f" epochs_run={rec.epochs_run} steps={rec.steps} samples={rec.samples}"
          + f" quality.test_pearson_delta={runner.quality:.6f}")
    raw = runner.raw
    print(f"calibration unit {1e3 * runner.drift * workloads.CALIBRATION[w.name][1]:.3f} ms "
          f"(machine at {1 / runner.drift:.3f}x the reference speed)")
    for name, m in metrics.items():
        wall = f"   wall-clock {raw[name]:.6f}" if name in raw else ""
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}{wall}")
    print(f"digests params={digests['params'][:16]} predictions={digests['predictions'][:16]} ({digest_note})")
    for failure in rec.failures:
        print(f"FAILED: {failure}")
    row = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env,
           "units": done, "epochs_run": rec.epochs_run, "steps": rec.steps, "samples": rec.samples,
           "quality": runner.quality, "digests": digests, "metrics": metrics, "wall_clock": raw,
           "calibration_drift": runner.drift,
           "attempted": rec.attempted, "failed": rec.failed}
    STATE_DIR.mkdir(exist_ok=True)
    with open(STATE_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
