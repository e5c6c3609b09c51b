"""Shared fixtures: a 10-gene toy problem with a 6-node connected subgraph,
planted effects, and a small model — the workhorse for gradient checks."""

import contextlib
import os
from pathlib import Path
from types import SimpleNamespace

# before numpy loads, so this process runs under the package's one-thread BLAS
# pin, as CLI runs do: one OS thread, so the CSV reader forks its range workers
from pertgraph import data

import numpy as np
import pytest

from pertgraph.data import (
    GroupStats,
    PerturbationDataset,
    SemanticEmbeddings,
    compute_degs,
    hash_embedding,
    welch_pvalues,
)
from pertgraph.graph import GeneVocab, KnowledgeGraph
from pertgraph.loss import LossWeights
from pertgraph.model import ModelConfig, init_params, register_params
from pertgraph.numerics import Tape

# pytest's pythonpath setting covers this process only; tests that run the CLI
# in a child process need the source tree on PYTHONPATH as well
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def counting_welch(monkeypatch):
    """Replace `data.welch_pvalues` with a wrapper; returns the list of its
    calls: `("stats", values)` for one with `GroupStats` on both sides, else
    the (rows, columns) shape of its perturbation block."""
    calls = []

    def welch(control, block):
        both = isinstance(control, GroupStats) and isinstance(block, GroupStats)
        calls.append(("stats", block.mean.size) if both else np.shape(block))
        return welch_pvalues(control, block)

    monkeypatch.setattr(data, "welch_pvalues", welch)
    return calls


@contextlib.contextmanager
def two_threads():
    """Within it, `data.in_halves` runs the second half of every loop of two
    or more steps on its helper thread, whatever the loop's size and the
    number of cores."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "SPLIT_STEP_VALUES", 0)
        m.setattr(data, "_cores", lambda: 2)
        yield


def run_builder(params, build):
    """Value of `build(tape, pids)` on a fresh tape holding every parameter."""
    tape = Tape()
    pids = register_params(tape, params)
    return tape.value(build(tape, pids)).copy()


def build_toy_problem(seed=0, no_context=False, **model_options):
    rng = np.random.default_rng(seed)
    names = [f"G{i}" for i in range(10)]
    vocab = GeneVocab(names)
    # edges among the first 6 nodes only; genes 6-9 stay isolated
    edges = [
        (0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (3, 4, 0.6), (4, 5, 0.5),
        (0, 2, 0.4), (1, 3, 0.3),
    ]
    graph = KnowledgeGraph.from_edges(vocab, edges)
    perts = ["G1", "G4"]
    effects = {"G1": {1: -1.5, 2: 1.2, 3: -0.9}, "G4": {4: -1.4, 5: 1.1, 7: 0.8}}
    baseline = rng.uniform(0.5, 2.0, size=10)
    control = np.maximum(baseline + rng.normal(0, 0.05, size=(6, 10)), 0.0)
    blocks = {}
    for p, eff in effects.items():
        shift = np.zeros(10)
        for g, e in eff.items():
            shift[g] = e
        blocks[p] = np.maximum(baseline + shift + rng.normal(0, 0.05, size=(6, 10)), 0.0)
    dataset = PerturbationDataset(vocab, control, blocks)
    deg_table = compute_degs(dataset)
    embeddings = SemanticEmbeddings(dim=3, vectors={g: hash_embedding(g, 3) for g in names})
    config = ModelConfig(
        n_layers=2, d_struct=4, d_latent=5, d_score=4, tau=1.0, no_context=no_context, **model_options
    )
    params = init_params(10, 10, 3, config, seed=seed + 1, train_perts=perts)
    weights = LossWeights(lambda_non=0.05, lambda_align=0.2, huber_delta=0.5)
    xbar_c = dataset.control.mean(axis=0)
    targets = {p: dataset.block(p).mean(axis=0) for p in perts}
    return SimpleNamespace(
        vocab=vocab,
        graph=graph,
        dataset=dataset,
        deg_table=deg_table,
        embeddings=embeddings,
        config=config,
        params=params,
        weights=weights,
        perts=perts,
        xbar_c=xbar_c,
        targets=targets,
    )


@pytest.fixture
def toy_problem():
    return build_toy_problem()
