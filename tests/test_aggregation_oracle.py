"""The aggregation oracle: `aggregation_matrix` as it was first written, through
COO triples, scipy's COO -> CSR conversion and `sort_indices`. The direct CSR
build must give byte-identical `indptr`, `indices` and `data`, so every `spmm`
product, gradient and output stays the same."""

import numpy as np
import pytest
import scipy.sparse

from pertgraph import data
from pertgraph.graph import GeneVocab, KnowledgeGraph, topk_filter
from pertgraph.model import aggregation_matrix


def aggregation_matrix_coo(graph: KnowledgeGraph, weighted: bool = False) -> scipy.sparse.csr_array:
    n = graph.n_nodes
    rows = np.concatenate([graph.rows(), np.arange(n)])
    cols = np.concatenate([graph.indices, np.arange(n)])
    ws = np.concatenate([graph.weights if weighted else np.ones(graph.indices.size), np.ones(n)])
    totals = np.bincount(rows, weights=ws, minlength=n)
    a = scipy.sparse.csr_array((ws / totals[rows], (rows, cols)), shape=(n, n))
    a.sort_indices()
    return a


def _graph(n, edges):
    return KnowledgeGraph.from_edges(GeneVocab([f"G{i}" for i in range(n)]), edges)


def _synth_graph(n_genes, n_perts):
    config = data.SynthConfig(
        n_genes=n_genes, n_perturbations=n_perts, cells_per_condition=20,
        effect_magnitude=1.0, noise_sigma=0.2, embed_dim=16,
    )
    return data.synth_generate(config, seed=1).graph


GRAPHS = {
    "no_edges": lambda: _graph(4, []),
    "isolated_node": lambda: _graph(5, [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 2.0), (3, 1, 1.0)]),
    # node 0's neighbours are all higher (self-loop first), node 4's all lower (self-loop last)
    "self_loop_first_and_last": lambda: _graph(5, [(0, 1, 0.3), (0, 2, 0.7), (0, 3, 1.1), (4, 1, 0.9), (4, 2, 0.1)]),
    "zero_weight_edges": lambda: _graph(4, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.6), (0, 3, 0.0)]),
    "c7_synth": lambda: _synth_graph(200, 40),
    "c7_synth_top5": lambda: topk_filter(_synth_graph(200, 40), 5),
    "synth_2000_top30": lambda: topk_filter(_synth_graph(2000, 200), 30),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_aggregation_matrix_matches_the_coo_build(graph, weighted):
    got, want = aggregation_matrix(graph, weighted), aggregation_matrix_coo(graph, weighted)
    assert isinstance(got, scipy.sparse.csr_array) and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_canonical_format
    x = np.random.default_rng(graph.n_nodes).normal(size=(graph.n_nodes, 3))
    assert (got @ x).tobytes() == (want @ x).tobytes()
    assert (got.T @ x).tobytes() == (want.T @ x).tobytes()


def test_self_loop_slot_follows_the_lower_neighbours():
    a = aggregation_matrix(GRAPHS["self_loop_first_and_last"]())
    assert a.indices[a.indptr[0]:a.indptr[1]].tolist() == [0, 1, 2, 3]
    assert a.indices[a.indptr[4]:a.indptr[5]].tolist() == [1, 2, 4]
    assert a.data[a.indptr[0]:a.indptr[1]].tolist() == [0.25] * 4
