"""Rewrites of the input files that carry the same data leave every output
byte of `train`, `eval`, `predict`, `graph-stats` and `deg-coverage` as it
was, apart from the `[paths]` section of each `effective_config.ini`, which
names the rewritten files: edge lines in another order, embedding rows in
another order, two labels' expression rows interleaved (each label's rows in
their own order), and the expression file's label blocks in another order.
The data is a criterion-7 synth (200 genes, 40 perturbations) with
`top_k = 5`, trained for 20 epochs.

The gene columns of the expression file in another order, with a model's
gene-indexed parameters permuted to match and the graph and embeddings files
as they were, move no eval-mode prediction or metric by more than 1e-12 and
no truth DEG mask at all."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from pertgraph.cli import main
from pertgraph.data import SynthConfig, load_embeddings, load_expression, save_embeddings, save_expression, synth_generate
from pertgraph.graph import load_edge_list, save_edge_list, topk_filter
from pertgraph.metrics import evaluate_predictions
from pertgraph.model import ModelConfig, init_params
from pertgraph.training import predict_profiles

SETTINGS = """\
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
max_epochs = 20
patience = 20
batch_size = 16
learning_rate = 0.01
"""
FILES = ("expression.csv", "graph.tsv", "embeddings.csv")


def write_config(path: Path, data: Path) -> Path:
    paths = "".join(f"{name.split('.')[0]} = {data / name}\n" for name in FILES)
    path.write_text("[paths]\n" + paths + SETTINGS)
    return path


def outputs(data: Path, run: Path) -> dict[str, bytes]:
    """Every file that the five commands write from the inputs in `data`,
    by its path under `run`; each effective config without its `[paths]`."""
    run.mkdir()
    config = write_config(run / "run.ini", data)
    common = ["--config", str(config), "--seed", "1", "--out"]
    checkpoint = ["--checkpoint", str(run / "train" / "checkpoint.json")]
    for command, extra in (("train", []), ("eval", checkpoint), ("predict", checkpoint), ("graph-stats", []), ("deg-coverage", [])):
        assert main([command, *common, str(run / command), *extra]) == 0, command
    got = {}
    for path in sorted(run.glob("*/*")):
        content = path.read_bytes()
        if path.name == "effective_config.ini":
            head, _, rest = content.partition(b"[paths]\n")
            content = head + rest[rest.index(b"\n[") + 1 :]
        got[str(path.relative_to(run))] = content
    return got


def lines_of(path: Path) -> tuple[bytes, list[bytes]]:
    """The file's first line and its other lines, each with its line end."""
    head, *rest = path.read_bytes().splitlines(keepends=True)
    return head, rest


def label(line: bytes) -> bytes:
    return line.split(b",", 2)[1]


def label_blocks(rows: list[bytes]) -> list[list[bytes]]:
    """The expression rows as runs of one label each, in file order."""
    blocks: list[list[bytes]] = []
    for row in rows:
        if blocks and label(blocks[-1][0]) == label(row):
            blocks[-1].append(row)
        else:
            blocks.append([row])
    return blocks


def shuffle_edges(data: Path, rng: np.random.Generator) -> None:
    path = data / "graph.tsv"
    head, rest = lines_of(path)
    assert head.startswith(b"#") and len(rest) > 100
    path.write_bytes(head + b"".join(rest[i] for i in rng.permutation(len(rest))))


def shuffle_embedding_rows(data: Path, rng: np.random.Generator) -> None:
    path = data / "embeddings.csv"
    head, rest = lines_of(path)
    assert len(rest) == 200
    path.write_bytes(head + b"".join(rest[i] for i in rng.permutation(len(rest))))


def interleave_two_labels(data: Path, rng: np.random.Generator) -> None:
    # the control rows and the last perturbation's, merged where the control rows stood
    path = data / "expression.csv"
    head, rest = lines_of(path)
    blocks = label_blocks(rest)
    assert len(blocks) == 41 and label(blocks[0][0]) == b"control"
    a, b = iter(blocks[0]), iter(blocks[-1])
    picks = rng.permutation([0] * len(blocks[0]) + [1] * len(blocks[-1]))
    merged = [next(b if pick else a) for pick in picks]
    assert len(label_blocks(merged)) > 10  # the two labels' rows alternate often
    path.write_bytes(head + b"".join(merged + [row for block in blocks[1:-1] for row in block]))


def shuffle_label_blocks(data: Path, rng: np.random.Generator) -> None:
    path = data / "expression.csv"
    head, rest = lines_of(path)
    blocks = label_blocks(rest)
    assert len(blocks) == 41
    path.write_bytes(head + b"".join(row for i in rng.permutation(len(blocks)) for row in blocks[i]))


REWRITES = {
    "edge-lines-shuffled": shuffle_edges,
    "embedding-rows-shuffled": shuffle_embedding_rows,
    "two-labels-interleaved": interleave_two_labels,
    "label-blocks-shuffled": shuffle_label_blocks,
}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The synth's directory and the outputs of its files as written."""
    root = tmp_path_factory.mktemp("metamorphic")
    data = root / "data"
    assert main(["synth", "--config", str(write_config(root / "synth.ini", data)), "--seed", "1", "--out", str(data)]) == 0
    return data, outputs(data, root / "run")


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_a_rewrite_of_the_same_data_writes_the_same_bytes(reference, tmp_path, rewrite):
    data, expected = reference
    rewritten = tmp_path / "data"
    rewritten.mkdir()
    for name in FILES:
        (rewritten / name).write_bytes((data / name).read_bytes())
    REWRITES[rewrite](rewritten, np.random.default_rng(0))
    assert any((rewritten / name).read_bytes() != (data / name).read_bytes() for name in FILES)
    got = outputs(rewritten, tmp_path / "run")
    assert sorted(got) == sorted(expected) and len(got) > 10
    differ = [name for name in expected if got[name] != expected[name]]
    assert not differ, f"{rewrite}: these outputs differ: {differ}"


# --- gene order --------------------------------------------------------------

# the gene-indexed parameters: node rows of the GNN table (the graph's nodes
# are the expression file's genes), and the encoder's, decoder's and
# alignment's gene rows or columns
GENE_ROWS = ("gnn.table", "enc.w1", "align.proj")
GENE_COLUMNS = ("dec.w2", "dec.b2")


@pytest.fixture(scope="module")
def c7_files(tmp_path_factory):
    """The criterion-7 synth (seed 0) written out, and a copy whose expression
    file holds the gene columns in another order; the permutation, column j
    of the copy being gene perm[j] of the original."""
    synth = synth_generate(SynthConfig(n_genes=200, n_perturbations=40, cells_per_condition=20, noise_sigma=0.2, embed_dim=16), seed=0)
    root = tmp_path_factory.mktemp("gene-order")
    data, permuted = root / "data", root / "permuted"
    for d in (data, permuted):
        d.mkdir()
        save_edge_list(synth.graph, d / "graph.tsv")
        save_embeddings(synth.embeddings, d / "embeddings.csv", genes=synth.dataset.vocab.names)
    save_expression(synth.dataset, data / "expression.csv")
    perm = np.random.default_rng(0).permutation(synth.dataset.n_genes)
    order = [0, 1, *(perm + 2).tolist()]  # sample id and label first
    lines = (data / "expression.csv").read_bytes().splitlines(keepends=True)
    (permuted / "expression.csv").write_bytes(b"".join(b",".join(line.rstrip(b"\r\n").split(b",")[i] for i in order) + b"\r\n" for line in lines))
    return data, permuted, perm


def evaluated(data: Path, top_k: int, params):
    """Eval-mode predictions of every perturbation in `data`, their metrics and truth DEG table."""
    dataset = load_expression(data / "expression.csv")
    graph, _ = load_edge_list(data / "graph.tsv", dataset.vocab)
    graph = topk_filter(graph, top_k) if top_k else graph
    embeddings = load_embeddings(data / "embeddings.csv", dataset.vocab)
    perts = dataset.pert_names()
    predictions = predict_profiles(params, dataset.control.mean(axis=0), perts, graph, embeddings)
    report, truth = evaluate_predictions(dataset, predictions, perts)
    return predictions, report, truth


@pytest.mark.parametrize("top_k", [0, 5])
def test_gene_order_moves_no_prediction_metric_or_truth_mask(c7_files, top_k):
    data, permuted, perm = c7_files
    config = ModelConfig(n_layers=1, d_struct=64, d_latent=128, d_score=32, tau=0.5)
    params = init_params(200, 200, 16, config, seed=3)  # untrained, for the file's gene order
    predictions, report, truth = evaluated(data, top_k, params)
    moved = params.copy()
    for name in GENE_ROWS:
        moved.values[name] = params.values[name][perm]
    for name in GENE_COLUMNS:
        moved.values[name] = params.values[name][:, perm]
    got_predictions, got_report, got_truth = evaluated(permuted, top_k, moved)
    assert sorted(got_predictions) == sorted(predictions)
    for p, prediction in predictions.items():
        back = np.empty_like(prediction)
        back[perm] = got_predictions[p]  # column j of the permuted file is gene perm[j]
        assert np.max(np.abs(back - prediction)) <= 1e-12, p
        mask = np.empty_like(truth.masks[p])
        mask[perm] = got_truth.masks[p]
        assert mask.tobytes() == truth.masks[p].tobytes(), p
    rows, got_rows = report.per_perturbation, got_report.per_perturbation
    assert sorted(got_rows) == sorted(rows)
    for p, row in rows.items():
        assert sorted(got_rows[p]) == sorted(row)
        for metric, value in row.items():
            got = got_rows[p][metric]
            assert (got is None) == (value is None), (p, metric)
            assert value is None or abs(got - value) <= 1e-12, (p, metric, got, value)
    assert any(truth.masks[p].any() for p in truth.masks) and report.overall["pearson_delta"]["n"] > 0
