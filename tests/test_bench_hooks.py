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
