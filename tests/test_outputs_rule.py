import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "outputs_rule", Path(__file__).resolve().parents[1] / "tools" / "outputs_rule.py"
)
outputs_rule = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs_rule)


@pytest.fixture
def runs(tmp_path):
    """Two identical run directories, as two trees' chains would leave them."""
    files = {
        "commands.log": b"$ pertgraph synth\nexit 0\nsynth: wrote\n",
        "s1/metrics.json": json.dumps({"overall": {"pds": {"mean": 0.75, "n": 4}}, "per": [1.5, 2.5]}).encode(),
        "s1/predictions.csv": b"perturbation,G0,G1\r\nG0,0.5,1.25\r\n",
        "s1/checkpoint.bin": np.array([1.0, 2.0, 3.0]).astype("<f8").tobytes(),
    }
    dirs = []
    for side in ("rev", "change"):
        for name, data in files.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        dirs.append(tmp_path / side)
    return dirs


def test_identical_runs(runs):
    lines, summary, same = outputs_rule.compare(*runs)
    assert same and lines == []
    assert summary == "outputs rule: 4 files, 4 identical, 0 differ, 0 missing, 0 extra (identical)"


def test_one_changed_byte(runs):
    (runs[1] / "commands.log").write_bytes(b"$ pertgraph synth\nexit 1\nsynth: wrote\n")
    lines, summary, same = outputs_rule.compare(*runs)
    assert not same
    assert lines == ["differs: commands.log: first differing byte at offset 23 (sizes 38 and 38)"]
    assert summary == "outputs rule: 4 files, 3 identical, 1 differ, 0 missing, 0 extra"


def test_one_changed_json_number(runs):
    path = runs[1] / "s1" / "metrics.json"
    path.write_text(json.dumps({"overall": {"pds": {"mean": 0.75, "n": 4}}, "per": [1.5, 2.25]}))
    lines, _, same = outputs_rule.compare(*runs)
    assert not same
    assert lines == ["differs: s1/metrics.json: 1 differences, first at per[1]: 2.5 vs 2.25; largest |difference| 0.25"]


def test_json_key_and_csv_cell_and_float64_value(runs):
    (runs[1] / "s1" / "metrics.json").write_text(json.dumps({"overall": {"pds": {"n": 4}}, "per": [1.5, 2.5]}))
    (runs[1] / "s1" / "predictions.csv").write_bytes(b"perturbation,G0,G1\r\nG0,0.5,1.0\r\n")
    (runs[1] / "s1" / "checkpoint.bin").write_bytes(np.array([1.0, 2.5, 2.0]).astype("<f8").tobytes())
    lines, _, _ = outputs_rule.compare(*runs)
    assert lines == [
        "differs: s1/checkpoint.bin: 2 differences, first at float64 value 1: 2.0 vs 2.5; largest |difference| 1",
        "differs: s1/metrics.json: 1 differences, first at overall.pds.mean only in REV",
        "differs: s1/predictions.csv: 1 differences, first at row 2, column G1: 1.25 vs 1.0; largest |difference| 0.25",
    ]


def test_extra_and_missing_files(runs):
    (runs[1] / "s1" / "predictions.csv").unlink()
    (runs[1] / "s1" / "selections.json").write_text("{}")
    lines, summary, same = outputs_rule.compare(*runs)
    assert not same
    assert lines == ["missing in the change: s1/predictions.csv", "extra in the change: s1/selections.json"]
    assert summary == "outputs rule: 5 files, 3 identical, 0 differ, 1 missing, 1 extra"


def test_chain_covers_every_command_and_mode():
    steps = outputs_rule.chain()
    commands = [args[0] for args in steps]
    assert commands.count("synth") == 5 and commands.count("train") == 16
    assert commands.count("eval") == 20 and commands.count("predict") == 15
    assert commands.count("graph-stats") == 3 and commands.count("deg-coverage") == 4
    assert sum("--oracle" in args for args in steps) == 4
    configs = outputs_rule.configs()
    assert {args[args.index("--config") + 1] for args in steps} == set(configs)
    assert "[model]\nselection_mode = top_m\n" in configs["s1_top_m.ini"] and "top_k = 5" in configs["s1_top_m.ini"]
    assert configs["s2_threshold.ini"] == configs["s2.ini"]
    assert "[training]\nablation = no_context\n" in configs["s3_no_context.ini"]
    assert configs["s1_bh.ini"].endswith("[data]\ndeg_correction = benjamini-hochberg\n")
    assert configs["s2_des_k_past_genes.ini"].endswith("[metrics]\ndes_k = 1,10,199,200,500\n")
    assert "n_genes = 200\n" in configs["s2_des_k_past_genes.ini"]
    assert configs["s1_modules_50.ini"] == configs["s1.ini"].replace("[synth]\n", "[synth]\nmodules = 50\n")
    assert ["synth", "--config", "s1_modules_50.ini", "--seed", "1", "--out", "data1_modules_50"] in steps
    few = configs["s1_cells_8.ini"]
    assert few == configs["s1.ini"].replace("data1/", "data1_cells_8/").replace("cells_per_condition = 20", "cells_per_condition = 8")
    assert "cells_per_condition = 8\n" in few and few.count("data1_cells_8/") == 3
    assert ["synth", "--config", "s1_cells_8.ini", "--seed", "1", "--out", "data1_cells_8"] in steps
    assert ["eval", "--config", "s1_cells_8.ini", "--seed", "1", "--out", "s1_cells_8/oracle", "--oracle"] in steps
