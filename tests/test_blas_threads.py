"""CLI outputs do not depend on the BLAS thread count: the package pins BLAS
to one thread before numpy loads, so `OPENBLAS_NUM_THREADS` set to 2 gives the
bytes of 1 in `train`, `eval` and `predict`. At about 1,000 genes a threaded
matmul over the genes rounds differently, so an unpinned run would write other
bytes."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = """\
[synth]
n_genes = 1000
n_perturbations = 64
cells_per_condition = 4
embed_dim = 8
[data]
split_fractions = 0.5,0.25,0.25
[training]
max_epochs = 2
batch_size = 16
patience = 2
"""


def run_cli(args: list[str], threads: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pertgraph.cli", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: BLAS runs one thread whatever the setting")
def test_train_and_predict_bytes_do_not_depend_on_blas_threads(tmp_path):
    data_dir = tmp_path / "data"
    config = tmp_path / "run.ini"
    paths = f"[paths]\nexpression = {data_dir / 'expression.csv'}\ngraph = {data_dir / 'graph.tsv'}\nembeddings = {data_dir / 'embeddings.csv'}\n"
    config.write_text(paths + CONFIG)
    run_cli(["synth", "--config", str(config), "--seed", "3", "--out", str(data_dir)], "1")
    reference = tmp_path / "reference"  # one checkpoint, so eval and predict are compared on their own
    run_cli(["train", "--config", str(config), "--seed", "3", "--out", str(reference)], "1")
    out, outputs = tmp_path / "run", {}  # one out path, which the effective config names
    for threads in ("1", "2"):
        run_cli(["train", "--config", str(config), "--seed", "3", "--out", str(out)], threads)
        for command in ("eval", "predict"):
            run_cli([command, "--config", str(config), "--seed", "3", "--out", str(out), "--checkpoint", str(reference / "checkpoint.json")], threads)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
    assert {"checkpoint.bin", "history.json", "metrics.json", "predictions.csv"} <= set(outputs["1"])
    assert any(name.startswith("scatter_") for name in outputs["1"])
    assert sorted(outputs["1"]) == sorted(outputs["2"])
    differ = [name for name in outputs["1"] if outputs["1"][name] != outputs["2"][name]]
    assert not differ, f"bytes differ between 1 and 2 BLAS threads: {differ}"
