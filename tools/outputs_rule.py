"""Check the outputs rule: run one fixed CLI chain on a git revision and on the
working tree, and compare every output byte for byte.

    python tools/outputs_rule.py REV [--keep DIR]

REV's files are written with `git archive` into a temporary directory,
removed again afterwards; only local git is used, and the repository's
checkout and worktrees are left alone. The working
tree is the checkout this script sits in, uncommitted changes included. Each
tree runs the chain below in a run directory of its own, with its own `src/`
on PYTHONPATH. Every path in the chain is relative to the run directory, so
no output holds that directory's name.

The chain, for synth seeds 1-3 at the criterion-7 settings (200 genes, 40
perturbations) with `top_k = 5`:

- `synth`, and at seed 1 a second `synth` with `[synth] modules = 50`,
  whose 4-gene modules send every perturbation's planted set down the fill
  path;
- `train` for 15 epochs in each of five modes, then `eval` and `predict` on
  each checkpoint: threshold, top_m, no_context, Benjamini-Hochberg DEG
  tables, and `des_k` values up to and past the gene count;
- `eval --oracle`, `graph-stats` and `deg-coverage`;
- at seed 1, a second `synth` at `cells_per_condition = 8`, where the
  closed-form DEG decisions are at their least certain, with `train`,
  `eval`, `eval --oracle` and `deg-coverage` on it;
- at seed 1, a third `synth` at 1,200 genes with a 2-epoch `train` at
  `weight_decay = 0.01` and an `eval`. Its parameters average 37,861
  values, past `data.SPLIT_STEP_VALUES` = 32,768 (1,000 genes give
  32,248), so each optimizer step updates its two halves on two threads
  where the machine has two cores.

Each command's exit code, stdout and stderr (with the tree's path replaced)
go into `commands.log`, which is compared like the other files. For a JSON,
CSV or `.bin` (float64) file that differs, the report gives the first
differing key, cell or value and the largest absolute numeric difference.
The last line is the summary. Exit 0 when everything is identical, 1
otherwise. `--keep DIR` keeps both run directories under DIR.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
MODES = {  # training mode -> the INI section it changes and the line it adds there
    "threshold": None,
    "top_m": ("[model]", "selection_mode = top_m"),
    "no_context": ("[training]", "ablation = no_context"),
    "bh": ("[data]", "deg_correction = benjamini-hochberg"),
    "des_k_past_genes": ("[metrics]", "des_k = 1,10,199,200,500"),
}
SMALL_MODULES = "s1_modules_50.ini"  # the extra synth's config: seed 1 with 4-gene modules
FEW_CELLS = "s1_cells_8.ini"  # seed 1 with 8 cells per condition, its data in data1_cells_8
SPLIT_ADAM = "s1_genes_1200.ini"  # seed 1 at 1,200 genes with weight decay, its data in data1_genes_1200
BASE_CONFIG = """\
[paths]
expression = data{seed}/expression.csv
graph = data{seed}/graph.tsv
embeddings = data{seed}/embeddings.csv
[graph]
top_k = 5
[synth]
n_genes = 200
n_perturbations = 40
cells_per_condition = 20
effect_magnitude = 1.0
noise_sigma = 0.2
embed_dim = 16
[model]
layers = 1
d_struct = 64
d_latent = 128
d_score = 32
tau = 0.5
[loss]
lambda_non = 1.0
lambda_align = 0.1
[training]
max_epochs = 15
patience = 15
batch_size = 16
learning_rate = 0.01
"""


def configs() -> dict[str, str]:
    """INI file name -> text: one per seed, one per seed and training mode,
    the small-module synth's, the 8-cell synth's and the 1,200-gene one's."""
    out = {}
    for seed in SEEDS:
        base = out[f"s{seed}.ini"] = BASE_CONFIG.format(seed=seed)
        for mode, extra in MODES.items():
            text = base
            if extra:  # a section named twice is a config error, so the line joins its section
                section, line = extra
                if section in base:
                    text = base.replace(f"{section}\n", f"{section}\n{line}\n", 1)
                else:
                    text = f"{base}{section}\n{line}\n"
            out[f"s{seed}_{mode}.ini"] = text
    out[SMALL_MODULES] = out["s1.ini"].replace("[synth]\n", "[synth]\nmodules = 50\n", 1)
    out[FEW_CELLS] = out["s1.ini"].replace("data1/", "data1_cells_8/").replace("cells_per_condition = 20", "cells_per_condition = 8")
    out[SPLIT_ADAM] = (
        out["s1.ini"].replace("data1/", "data1_genes_1200/").replace("n_genes = 200", "n_genes = 1200")
        .replace("max_epochs = 15\npatience = 15", "max_epochs = 2\npatience = 2\nweight_decay = 0.01")
    )
    return out


def chain() -> list[list[str]]:
    """CLI arguments of every command, in run order."""
    steps = []
    for seed in SEEDS:
        common = ["--config", f"s{seed}.ini", "--seed", str(seed)]
        steps.append(["synth", *common, "--out", f"data{seed}"])
        if seed == 1:
            steps.append(["synth", "--config", SMALL_MODULES, "--seed", "1", "--out", "data1_modules_50"])
        for mode in MODES:
            run, mode_common = f"s{seed}_{mode}", ["--config", f"s{seed}_{mode}.ini", "--seed", str(seed)]
            checkpoint = ["--checkpoint", f"{run}/train/checkpoint.json"]
            steps.append(["train", *mode_common, "--out", f"{run}/train"])
            steps.append(["eval", *mode_common, "--out", f"{run}/eval", *checkpoint])
            steps.append(["predict", *mode_common, "--out", f"{run}/predict", *checkpoint])
        steps.append(["eval", *common, "--out", f"s{seed}/oracle", "--oracle"])
        steps.append(["graph-stats", *common, "--out", f"s{seed}/graph-stats"])
        steps.append(["deg-coverage", *common, "--out", f"s{seed}/deg-coverage"])
        if seed == 1:
            few = ["--config", FEW_CELLS, "--seed", "1"]
            steps.append(["synth", *few, "--out", "data1_cells_8"])
            steps.append(["train", *few, "--out", "s1_cells_8/train"])
            steps.append(["eval", *few, "--out", "s1_cells_8/eval", "--checkpoint", "s1_cells_8/train/checkpoint.json"])
            steps.append(["eval", *few, "--out", "s1_cells_8/oracle", "--oracle"])
            steps.append(["deg-coverage", *few, "--out", "s1_cells_8/deg-coverage"])
            wide = ["--config", SPLIT_ADAM, "--seed", "1"]
            steps.append(["synth", *wide, "--out", "data1_genes_1200"])
            steps.append(["train", *wide, "--out", "s1_genes_1200/train"])
            steps.append(["eval", *wide, "--out", "s1_genes_1200/eval", "--checkpoint", "s1_genes_1200/train/checkpoint.json"])
    return steps


def export_tree(rev: str, dest: Path) -> None:
    """Write the files of git revision `rev` into the new directory `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_chain(tree: Path, run_dir: Path) -> None:
    """Run the chain with `tree`'s src/ in `run_dir`, logging every command."""
    run_dir.mkdir(parents=True)
    for name, text in configs().items():
        (run_dir / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    log = []
    for args in chain():
        proc = subprocess.run(
            [sys.executable, "-m", "pertgraph.cli", *args], cwd=run_dir, env=env, capture_output=True, text=True
        )
        err = proc.stderr.replace(str(tree), "<tree>")
        log.append(f"$ pertgraph {' '.join(args)}\nexit {proc.returncode}\n{proc.stdout}{err}")
    (run_dir / "commands.log").write_text("".join(log))


# --- comparison ----------------------------------------------------------------


def _number(x) -> float | None:
    """x as a float when it is a JSON number or a CSV cell that reads as one."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        return float(x)
    except ValueError:
        return None


def _walk(a, b, path: str, diffs: list[str], gaps: list[float]) -> None:
    """Add the path of every difference between two parsed JSON values to
    `diffs`, and the absolute difference of two differing numbers to `gaps`."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{key}" if path else str(key)
            if key in a and key in b:
                _walk(a[key], b[key], sub, diffs, gaps)
            else:
                diffs.append(f"{sub} only in {'REV' if key in a else 'the change'}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path} has {len(a)} entries in REV, {len(b)} in the change")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", diffs, gaps)
    elif a != b or type(a) is not type(b):
        x, y = (None, None) if isinstance(a, str) or isinstance(b, str) else (_number(a), _number(b))
        if x is not None and y is not None:
            gaps.append(abs(x - y))
        diffs.append(f"{path}: {a!r} vs {b!r}")


def _csv_diffs(a: bytes, b: bytes, diffs: list[str], gaps: list[float]) -> None:
    ra, rb = (list(csv.reader(io.StringIO(x.decode("utf-8")))) for x in (a, b))
    header = ra[0] if ra else []
    if len(ra) != len(rb):
        diffs.append(f"{len(ra)} rows in REV, {len(rb)} in the change")
    for i, (row_a, row_b) in enumerate(zip(ra, rb)):
        if len(row_a) != len(row_b):
            diffs.append(f"row {i + 1} has {len(row_a)} cells in REV, {len(row_b)} in the change")
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x != y:
                fx, fy = _number(x), _number(y)
                if fx is not None and fy is not None:
                    gaps.append(abs(fx - fy))
                diffs.append(f"row {i + 1}, column {header[j] if j < len(header) else j}: {x} vs {y}")


def describe(name: str, a: bytes, b: bytes) -> str:
    """One line on how two different versions of file `name` differ."""
    diffs: list[str] = []
    gaps: list[float] = []
    if name.endswith(".json"):
        _walk(json.loads(a), json.loads(b), "", diffs, gaps)
    elif name.endswith(".csv"):
        _csv_diffs(a, b, diffs, gaps)
    elif name.endswith(".bin") and len(a) == len(b) and len(a) % 8 == 0:
        x, y = np.frombuffer(a, dtype="<f8"), np.frombuffer(b, dtype="<f8")
        at = np.flatnonzero(x != y)
        if at.size:
            return (f"{at.size} differences, first at float64 value {at[0]}: {float(x[at[0]])!r} vs {float(y[at[0]])!r}; "
                    f"largest |difference| {np.abs(x - y).max():.3g}")
    if not diffs:  # a text file, or parsed values that agree where the bytes do not
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"first differing byte at offset {at} (sizes {len(a)} and {len(b)})"
    largest = f"; largest |difference| {max(gaps):.3g}" if gaps else ""
    return f"{len(diffs)} differences, first at {diffs[0]}{largest}"


def compare(rev_dir: Path, new_dir: Path) -> tuple[list[str], str, bool]:
    """(report lines, summary line, identical) for two run directories."""
    files_a = {p.relative_to(rev_dir).as_posix() for p in rev_dir.rglob("*") if p.is_file()}
    files_b = {p.relative_to(new_dir).as_posix() for p in new_dir.rglob("*") if p.is_file()}
    lines, counts = [], {"identical": 0, "differ": 0, "missing": 0, "extra": 0}
    for name in sorted(files_a | files_b):
        if name not in files_b:
            counts["missing"] += 1
            lines.append(f"missing in the change: {name}")
        elif name not in files_a:
            counts["extra"] += 1
            lines.append(f"extra in the change: {name}")
        else:
            a, b = (rev_dir / name).read_bytes(), (new_dir / name).read_bytes()
            if a == b:
                counts["identical"] += 1
            else:
                counts["differ"] += 1
                lines.append(f"differs: {name}: {describe(name, a, b)}")
    same = counts["identical"] == len(files_a | files_b)
    summary = f"outputs rule: {len(files_a | files_b)} files, " + ", ".join(f"{v} {k}" for k, v in counts.items())
    return lines, summary + (" (identical)" if same else ""), same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--keep", help="directory to keep both run directories in")
    args = parser.parse_args(argv)
    work = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="outputs-rule-"))
    work.mkdir(parents=True, exist_ok=True)
    tree = work / "rev-tree"
    try:
        export_tree(args.rev, tree)
        run_chain(tree, work / "rev")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    run_chain(REPO, work / "change")
    lines, summary, same = compare(work / "rev", work / "change")
    print("\n".join([*lines, f"{summary} against {args.rev}"]))
    if not args.keep:
        shutil.rmtree(work)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
