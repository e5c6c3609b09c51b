import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BENCH = bench_pairs.load_benchmark()


def record(values: dict, correct=True, params="p0", predictions="q0"):
    """A canned perfbench run record, as parse_run returns it."""
    metrics = {spec["name"]: {"value": values.get(spec["name"], 1.0), "unit": spec["unit"]} for spec in BENCH["end_to_end"]}
    return {"correct": correct, "attempted": 100, "failed": 0 if correct else 3, "metrics": metrics,
            "digests": {"params": params, "predictions": predictions}}


def test_quartiles_match_hand_computed_values():
    # exclusive method, n = 10: positions (n + 1) / 4 = 2.75 and 3 (n + 1) / 4 = 8.25
    q = bench_pairs.quartiles([float(v) for v in (7, 1, 9, 3, 5, 10, 2, 8, 4, 6)])
    assert q == {"median": 5.5, "q1": 2.75, "q3": 8.25, "iqr": 5.5}
    q = bench_pairs.quartiles([1.0, 2.0, 4.0, 8.0, 16.0])  # positions 1.5 and 4.5
    assert q == {"median": 4.0, "q1": 1.5, "q3": 12.0, "iqr": 10.5}
    assert bench_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0}


def test_odd_seeds_run_the_parent_first():
    assert bench_pairs.run_order([41, 42, 43]) == [
        ("parent", 41), ("change", 41), ("change", 42), ("parent", 42), ("parent", 43), ("change", 43),
    ]
    made = []
    bench_pairs.collect("train-c7", [8, 9], lambda side, w, seed: made.append((side, w, seed)) or record({}))
    assert made == [("change", "train-c7", 8), ("parent", "train-c7", 8),
                    ("parent", "train-c7", 9), ("change", "train-c7", 9)]


def _block(parent_values, change_values, name):
    seeds = list(range(1, len(parent_values) + 1))
    records = {
        "parent": {s: record({name: v}) for s, v in zip(seeds, parent_values)},
        "change": {s: record({name: v}) for s, v in zip(seeds, change_values)},
    }
    return bench_pairs.workload_block(records, seeds, BENCH)


def test_within_bound_uses_the_bounds_of_benchmark_json():
    bounds = {spec["name"]: spec["bound"] for spec in BENCH["end_to_end"]}
    assert bounds["predict_perts_per_s"] == 0.2 and bounds["total_s"] == 0.2
    # higher is better: the change may fall to (1 - bound) of the parent's median
    m = _block([100.0, 100.0, 100.0], [81.0, 80.5, 82.0], "predict_perts_per_s")["metrics"]["predict_perts_per_s"]
    assert m["parent"]["median"] == 100.0 and m["change"]["median"] == 81.0 and m["within_bound"]
    m = _block([100.0, 100.0, 100.0], [79.0, 78.0, 79.5], "predict_perts_per_s")["metrics"]["predict_perts_per_s"]
    assert not m["within_bound"] and m["change_wins"] == 0 and m["median_change_pct"] == -21.0
    # lower is better: the change may rise to (1 + bound) of the parent's median
    m = _block([2.0, 2.0, 2.0], [2.39, 2.38, 2.4], "total_s")["metrics"]["total_s"]
    assert m["within_bound"]
    m = _block([2.0, 2.0, 2.0], [2.41, 2.5, 2.6], "total_s")["metrics"]["total_s"]
    assert not m["within_bound"]


def test_claim_needs_nine_of_ten_wins_and_a_gain_past_the_parent_iqr():
    parent = [100.0 + v for v in range(10)]  # q1 101.75, median 104.5, q3 107.25, IQR 5.5
    change = [v + 10.0 for v in parent]
    workloads = {"analyze-10x": _block(parent, change, "predict_perts_per_s")}
    claim = bench_pairs.claim_block(workloads, "analyze-10x", "predict_perts_per_s")
    assert claim["parent_iqr"] == 5.5 and claim["change_wins"] == 10 and claim["met"]
    change[0], change[1] = 90.0, 90.0  # two losses: 8 of 10
    workloads = {"analyze-10x": _block(parent, change, "predict_perts_per_s")}
    assert not bench_pairs.claim_block(workloads, "analyze-10x", "predict_perts_per_s")["met"]
    small = [v + 4.0 for v in parent]  # wins every pair, but by less than the IQR
    workloads = {"analyze-10x": _block(parent, small, "predict_perts_per_s")}
    assert not bench_pairs.claim_block(workloads, "analyze-10x", "predict_perts_per_s")["met"]
    assert bench_pairs.CLAIM_RULE.startswith("a claim is met when")


def test_digests_are_compared_per_seed():
    seeds = [1, 2]
    records = {side: {s: record({}, params=f"p{s}", predictions=f"q{s}") for s in seeds} for side in ("parent", "change")}
    block = bench_pairs.workload_block(records, seeds, BENCH)
    assert block["digests"]["change"]["2"] == {"params": "p2", "predictions": "q2"}
    assert block["params_digests_equal"] and block["predictions_digests_equal"]
    records["change"][2] = record({}, params="p2", predictions="moved")
    block = bench_pairs.workload_block(records, seeds, BENCH)
    assert block["params_digests_equal"] and not block["predictions_digests_equal"]


def test_an_incorrect_run_stops_the_comparison():
    made = []

    def run(side, workload, seed):
        made.append((side, seed))
        return record({}, correct=not (side == "change" and seed == 3))

    with pytest.raises(bench_pairs.BenchError, match="change run of analyze-10x seed 3 is not correct: 3 of 100"):
        bench_pairs.collect("analyze-10x", [3, 4, 5], run)
    assert made == [("parent", 3), ("change", 3)]


def test_parse_run_reads_the_last_json_line_and_the_digests():
    out = "perfbench train-c7 seed=1\ndigests params=e49f4210314f2f60 predictions=e8a2b80267711b96 (identical)\n"
    out += json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {}}) + "\n"
    rec = bench_pairs.parse_run(out)
    assert rec["correct"] and rec["digests"] == {"params": "e49f4210314f2f60", "predictions": "e8a2b80267711b96"}
    with pytest.raises(bench_pairs.BenchError):
        bench_pairs.parse_run("Traceback (most recent call last):\n")


def test_traced_runs_go_parent_first_and_keep_their_digests():
    made = []

    def run(side, workload, seed):
        made.append(side)
        rec = record({"total_s": 2.0 if side == "parent" else 1.5}, params=f"{side}-p")
        rec["metrics"]["model.aggregation_s"] = {"value": 0.02, "unit": "s"}
        return rec

    block = bench_pairs.traced_block("analyze-10x", 1, run)
    assert made == ["parent", "change"] and block["first_side"] == "parent"
    assert block["digests"]["change"] == {"params": "change-p", "predictions": "q0"}
    assert block["metrics"]["total_s"] == {"parent": 2.0, "change": 1.5}
    assert block["metrics"]["model.aggregation_s"] == {"parent": 0.02, "change": 0.02}


@pytest.mark.parametrize("change", [None, "", "  \n"], ids=["missing", "empty", "blank"])
def test_a_missing_or_empty_change_is_refused_before_anything_runs(monkeypatch, capsys, change):
    monkeypatch.setattr(bench_pairs, "load_benchmark", lambda: pytest.fail("the benchmark was read"))
    argv = ["HEAD", "--label", "x"] + ([] if change is None else ["--change", change])
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert "--change" in capsys.readouterr().err
