"""The benchmark's tracer wraps pertgraph functions by "module:attribute" name;
every name it lists must exist, or a traced run dies on a missing attribute."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pertgraph.numerics import Tape
from pertgraph.training import evaluate_batch

from conftest import build_toy_problem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("key", sorted(set(tracing.SPANS) | set(tracing.COUNTS)))
def test_traced_attribute_resolves(key):
    mod_name, attr = key.split(":")
    owner = importlib.import_module(f"pertgraph.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tape_stats_reads_a_backward_tape(monkeypatch):
    # the tracer walks every node's value and gradient after each backward
    tapes = []
    original = Tape.backward

    def recording_backward(self, loss_id):
        tapes.append(self)
        return original(self, loss_id)

    monkeypatch.setattr(Tape, "backward", recording_backward)
    t = build_toy_problem()
    evaluate_batch(
        t.params, t.perts, t.xbar_c, t.targets, t.graph, t.embeddings,
        t.deg_table, t.weights, huber_delta=t.weights.huber_delta, mode="train",
    )
    (tape,) = tapes
    nodes, flops, nbytes = tracing._tape_stats(tape)
    assert nodes == len(tape.nodes)
    assert flops > 0
    assert nbytes > sum(node.value.nbytes for node in tape.nodes)



def test_traced_counts_one_bfs_per_coverage_and_one_welch_per_tested_chunk():
    # graph.bfs_calls and data.welch_calls are read per sweep; they keep their
    # meaning while each coverage runs one BFS and each chunk of blocks, true
    # or predicted, with a gene left open makes one Welch call
    from pertgraph import data, graph, metrics

    synth = data.synth_generate(data.SynthConfig(n_genes=60, n_perturbations=6, cells_per_condition=6), seed=2)
    names, perts = synth.dataset.vocab.names, synth.dataset.pert_names()
    # gene 0 constant in every group: every block and prediction tested leaves it open
    control = synth.dataset.control.copy()
    blocks = {p: synth.dataset.block(p).copy() for p in perts}
    for block in [control, *blocks.values()]:
        block[:, 0] = 1.0
    ds = data.PerturbationDataset(synth.dataset.vocab, control, blocks)
    preds = {p: ds.block(p).mean(axis=0) + 0.01 for p in perts}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = tracer.counts
        table = data.compute_degs(ds, perturbations=perts[:4])
        assert counts[("", "data.welch_calls")] == 1
        deg_sets = {p: [names[i] for i in table.deg_indices(p) if names[i] != p] for p in table.pert_names()}
        deg_sets = {p: genes for p, genes in deg_sets.items() if genes}
        assert deg_sets
        for p, genes in deg_sets.items():
            graph.deg_coverage(synth.graph, p, genes, 4)
        assert counts[("", "graph.bfs_calls")] == len(deg_sets)

        metrics.predicted_deg_set(ds.control, preds[perts[0]] - ds.control.mean(axis=0))
        assert counts[("", "data.welch_calls")] == 2
        _, truth = metrics.evaluate_predictions(ds, preds, perts)
        assert any(truth.deg_indices(p).size > 0 for p in perts)
        assert counts[("", "data.welch_calls")] == 4  # one chunk: its true blocks, then its predictions
    finally:
        tracer.uninstall()
