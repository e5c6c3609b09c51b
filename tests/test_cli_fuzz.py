"""Seeded fuzz of the CLI's input handling: mutated copies of the c7 synth
seed-1 files, a 3-epoch checkpoint and its splits.json go through in-process
`cli.main`. Whatever the input, a command exits 0, 1, 2 or 3, a failure
prints exactly one stderr line, and no traceback reaches the user."""

import json
import shutil

import numpy as np
import pytest

from pertgraph.cli import main

CONFIG = """\
[paths]
expression = {expression}
graph = {graph}
embeddings = {embeddings}
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
[training]
max_epochs = 3
patience = 3
batch_size = 16
learning_rate = 0.01
"""
INPUTS = ("expression.csv", "graph.tsv", "embeddings.csv")
# the commands that read each file; eval's and predict's checkpoint and splits come from flags
READERS = {
    "expression.csv": ("train", "eval", "eval --oracle", "predict", "graph-stats", "deg-coverage"),
    "graph.tsv": ("train", "eval", "eval --oracle", "predict", "graph-stats", "deg-coverage"),
    "embeddings.csv": ("train", "eval", "eval --oracle", "predict"),
    "checkpoint.json": ("eval", "predict"),
    "checkpoint.bin": ("eval", "predict"),
    "splits.json": ("eval", "eval --oracle", "predict"),
}
LINE_KINDS = ("truncate", "flip", "token", "repeat", "delete", "swap", "cr", "crlf")
KINDS = {name: LINE_KINDS for name in INPUTS} | {
    "checkpoint.json": (*LINE_KINDS, "json"),
    "splits.json": (*LINE_KINDS, "json"),
    "checkpoint.bin": ("truncate", "flip"),
}
ODD_TOKENS = ("", "nan", "-inf", "1e999", "-0", "0x1F", "１", "é", "\x00", "null", '"', "#", "9" * 400)
ODD_VALUES = (None, -1, 0, 1e308, "x", [], {}, True, 2**70, [1, 2], "G0001")
N_CASES = 50


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True) or [b""]


def mutate(data: bytes, kind: str, rng: np.random.Generator) -> bytes:
    lines = _lines(data)
    i, j = (int(k) for k in rng.integers(len(lines), size=2))
    if kind == "truncate":
        return data[: int(rng.integers(len(data)))]
    if kind == "flip":
        out = bytearray(data)
        for at in rng.integers(len(out), size=int(rng.integers(1, 4))):
            out[at] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if kind == "token":
        sep = b"\t" if b"\t" in lines[i] else b","
        fields = lines[i].rstrip(b"\r\n").split(sep)
        fields[int(rng.integers(len(fields)))] = ODD_TOKENS[int(rng.integers(len(ODD_TOKENS)))].encode()
        lines[i] = sep.join(fields) + lines[i][len(lines[i].rstrip(b"\r\n")):]
    elif kind == "repeat":
        lines.insert(j, lines[i])
    elif kind == "delete":
        del lines[i]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind in ("cr", "crlf"):
        return data.replace(b"\n", b"\r" if kind == "cr" else b"\r\n")
    elif kind == "json":
        return _edit_json(json.loads(data), rng)
    return b"".join(lines)


def _edit_json(doc, rng: np.random.Generator) -> bytes:
    """Replace one value, found by a random walk from the top, with an odd one."""
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, keys[int(rng.integers(len(keys)))]
        node = node[key]
    value = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
    if parent is None:
        doc = value
    else:
        parent[key] = value
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The synth files, a 3-epoch checkpoint and its splits.json in one directory."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "run.ini"
    config.write_text(CONFIG.format(**{name.split(".")[0]: root / name for name in INPUTS}))
    assert main(["synth", "--config", str(config), "--seed", "1", "--out", str(root / "synth")]) == 0
    for name in INPUTS:
        shutil.move(root / "synth" / name, root / name)
    assert main(["train", "--config", str(config), "--seed", "1", "--out", str(root / "train")]) == 0
    for name in ("checkpoint.json", "checkpoint.bin", "splits.json"):
        shutil.move(root / "train" / name, root / name)
    return root


def _cases():
    rng = np.random.default_rng(20261019)
    pairs = [(name, kind) for name in KINDS for kind in KINDS[name]]
    order = [*rng.permutation(len(pairs)), *rng.integers(len(pairs), size=N_CASES - len(pairs))]
    for case, at in enumerate(order):
        name, kind = pairs[at]
        yield case, name, kind, READERS[name][int(rng.integers(len(READERS[name])))]


def _argv(pristine, case_dir, mutated: str, command: str) -> list[str]:
    def path(name):
        return case_dir / name if name == mutated else pristine / name

    if mutated == "checkpoint.json":  # the blob is found next to the manifest
        shutil.copy(pristine / "checkpoint.bin", case_dir / "checkpoint.bin")
    elif mutated == "checkpoint.bin":
        shutil.copy(pristine / "checkpoint.json", case_dir / "checkpoint.json")
    config = case_dir / "run.ini"
    config.write_text(CONFIG.format(**{name.split(".")[0]: path(name) for name in INPUTS}))
    words = command.split()
    argv = [words[0], "--config", str(config), "--seed", "1", "--out", str(case_dir / "out"), *words[1:]]
    if words[0] in ("eval", "predict"):
        checkpoint = case_dir if mutated.startswith("checkpoint") else pristine
        argv += ["--checkpoint", str(checkpoint / "checkpoint.json"), "--splits", str(path("splits.json"))]
    return argv


def test_mutated_inputs_fail_cleanly(pristine, tmp_path, capsys):
    seen = []
    for case, name, kind, command in _cases():
        case_dir = tmp_path / f"case{case}"
        case_dir.mkdir()
        rng = np.random.default_rng([20261019, case])
        (case_dir / name).write_bytes(mutate((pristine / name).read_bytes(), kind, rng))
        code = main(_argv(pristine, case_dir, name, command))
        out, err = capsys.readouterr()
        what = f"case {case}: {kind} of {name}, {command}: exit {code}, stderr {err!r}"
        assert code in (0, 1, 2, 3), what
        assert "Traceback" not in out + err, what
        if code:
            assert len(err.splitlines()) == 1 and err.endswith("\n"), what
        seen.append((name, kind, command, code))
    assert len(seen) == N_CASES
    assert {c for *_, c, _ in seen} == {c for readers in READERS.values() for c in readers}
    assert {(n, k) for n, k, *_ in seen} == {(n, k) for n in KINDS for k in KINDS[n]}
