import re

import numpy as np
import pytest

from pertgraph.errors import DataError, ParseError, UsageError
from pertgraph.graph import (
    GeneVocab,
    KnowledgeGraph,
    deg_coverage,
    degree_stats,
    hop_distances,
    load_edge_list,
    nominations,
    save_edge_list,
    topk_filter,
)


def build(names, edges):
    vocab = GeneVocab(names)
    return KnowledgeGraph.from_edges(vocab, edges)


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    vocab = GeneVocab([f"G{i}" for i in range(n)])
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, float(rng.uniform(0.01, 1.0))))
    return KnowledgeGraph.from_edges(vocab, edges)


# --- loading -----------------------------------------------------------------


def test_load_symmetrizes_duplicate_lines(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("A\tB\t0.9\nB\tA\t0.9\n")
    g, dropped = load_edge_list(p, GeneVocab(["A", "B"]))
    assert g.n_edges == 1 and dropped == 0
    assert g.edge_weight_map() == {(0, 1): 0.9}


def test_load_empty_file(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("")
    g, dropped = load_edge_list(p, GeneVocab(["A", "B"]))
    assert g.n_edges == 0 and dropped == 0


def test_load_drops_out_of_vocab(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text(
        "# comment line\n"
        "A\tB\t0.5\nA\tC\t0.4\nB\tC\t0.3\nA\tD\t0.2\nB\tZZZ\t0.1\n"
    )
    g, dropped = load_edge_list(p, GeneVocab(["A", "B", "C", "D"]))
    assert g.n_edges == 4
    assert dropped == 1


def test_load_malformed_line_reports_lineno(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("A\tB\t0.5\nA\tB\n")
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list(p, GeneVocab(["A", "B"]))


def test_load_negative_weight(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("A\tB\t-0.5\n")
    with pytest.raises(DataError):
        load_edge_list(p, GeneVocab(["A", "B"]))


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN"])
def test_load_non_finite_weight_reports_lineno(tmp_path, weight):
    p = tmp_path / "edges.tsv"
    p.write_text(f"A\tB\t0.5\nA\tB\t{weight}\n")
    with pytest.raises(DataError, match="line 2"):
        load_edge_list(p, GeneVocab(["A", "B"]))


@pytest.mark.parametrize("weight", ["1_0", "\u0661", "0.\u0665", "0.5\u00a0", "\uff11"], ids=["underscore", "arabic-indic", "arabic-indic-fraction", "nbsp", "fullwidth"])
def test_load_weight_holding_an_underscore_or_non_ascii_is_a_bad_weight(tmp_path, weight):
    # float() reads each of these; the CSV reader's number rule refuses them
    p = tmp_path / "edges.tsv"
    p.write_text(f"A\tB\t0.5\nA\tB\t{weight}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 2: bad weight {re.escape(repr(weight))}"):
        load_edge_list(p, GeneVocab(["A", "B"]))


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -0.5])
def test_from_edges_rejects_bad_weights(weight):
    with pytest.raises(DataError):
        build(["A", "B", "C"], [(0, 1, 1.0), (1, 2, weight)])


def test_from_edges_rejects_self_loops_and_foreign_ids():
    with pytest.raises(UsageError):
        build(["A", "B"], [(1, 1, 1.0)])
    with pytest.raises(UsageError):
        build(["A", "B"], [(0, 2, 1.0)])


def test_save_load_round_trip(tmp_path):
    g = random_graph(12, 0.4, seed=3)
    path = tmp_path / "g.tsv"
    save_edge_list(g, path)
    g2, dropped = load_edge_list(path, g.vocab)
    assert dropped == 0
    assert g.edge_weight_map() == g2.edge_weight_map()


def test_save_load_round_trip_keeps_an_edge_whose_first_name_starts_with_hash(tmp_path):
    # '#A' sorts first, so the edge '#A'-'B' is written the other way round
    g = build(["#A", "B", "C"], [(0, 1, 0.5), (1, 2, 0.25)])
    path = tmp_path / "g.tsv"
    save_edge_list(g, path)
    g2, dropped = load_edge_list(path, g.vocab)
    assert dropped == 0
    assert g2.edge_weight_map() == {(0, 1): 0.5, (1, 2): 0.25}


def test_save_edge_between_two_hash_names_is_a_data_error(tmp_path):
    g = build(["#A", "#B", "C"], [(0, 1, 0.5), (1, 2, 0.25)])
    path = tmp_path / "g.tsv"
    with pytest.raises(DataError, match="^edge '#A'-'#B' cannot be saved: both gene names start with '#'"):
        save_edge_list(g, path)
    assert not path.exists()


def test_duplicate_vocab_rejected():
    with pytest.raises(DataError):
        GeneVocab(["A", "A"])


# --- top-k filtering ----------------------------------------------------------


def test_topk_star_union_keeps_leaf_nominations():
    # center C with 5 leaves, weights 1..5: at k=2 the center nominates the two
    # heaviest, but every leaf's top-2 includes the center, so union keeps all 5.
    names = ["C", "L1", "L2", "L3", "L4", "L5"]
    edges = [(0, i, float(i)) for i in range(1, 6)]
    g = build(names, edges)
    f = topk_filter(g, 2)
    assert f.n_edges == 5
    # mutual mode keeps only the center's own nominations
    m = topk_filter(g, 2, mode="mutual")
    assert m.edge_set() == {(0, 4), (0, 5)}


def test_topk_noop_when_k_covers_max_degree():
    g = random_graph(20, 0.3, seed=1)
    max_deg = int(np.diff(g.indptr).max())
    f = topk_filter(g, max_deg)
    assert f.edge_weight_map() == g.edge_weight_map()


def test_topk_complete_graph_tie_rule():
    # K4 with equal weights, k=1: every node nominates its lowest-index neighbor
    names = ["A", "B", "C", "D"]
    edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
    g = build(names, edges)
    f = topk_filter(g, 1)
    assert f.edge_set() == {(0, 1), (0, 2), (0, 3)}
    assert f.n_edges <= 4


def test_topk_properties_random_graphs():
    # subgraph inclusion, idempotence, and the nominated-edge bound
    for seed in range(10):
        g = random_graph(30, 0.3, seed=seed)
        k = 3
        f = topk_filter(g, k)
        assert f.edge_set() <= g.edge_set()
        f2 = topk_filter(f, k)
        assert f2.edge_weight_map() == f.edge_weight_map()
        # each node's own nominations in the original graph number <= k
        noms = nominations(g, k)
        assert all(len(s) <= k for s in noms)
        # every kept edge is nominated by at least one endpoint
        for (u, v) in f.edge_set():
            assert v in noms[u] or u in noms[v]


def test_topk_requires_positive_k():
    g = random_graph(5, 0.5, seed=0)
    with pytest.raises(UsageError):
        topk_filter(g, 0)


# --- statistics ----------------------------------------------------------------


def test_degree_stats_path_graph():
    g = build(["A", "B", "C"], [(0, 1, 1.0), (1, 2, 1.0)])
    s = degree_stats(g)
    assert s.n_nodes == 3 and s.n_edges == 2
    assert s.mean_degree == pytest.approx(4.0 / 3.0)
    assert s.median_degree == 1.0


def test_degree_stats_empty_graph():
    g = build(["A", "B", "C"], [])
    s = degree_stats(g)
    assert s.mean_degree == 0.0 and s.median_degree == 0.0


def test_mean_degree_bounded_after_topk():
    for seed in range(5):
        g = random_graph(100, 0.3, seed=seed)
        k = 10
        f = topk_filter(g, k)
        s = degree_stats(f)
        assert s.mean_degree <= 2 * k + 1e-12


# --- hops and coverage -----------------------------------------------------------


def test_hop_distances_path():
    g = build(["A", "B", "C", "X"], [(0, 1, 1.0), (1, 2, 1.0)])
    d = hop_distances(g, "A")
    assert d[0] == 0.0 and d[1] == 1.0 and d[2] == 2.0
    assert np.isinf(d[3])


def test_hop_distance_unknown_source():
    g = build(["A"], [])
    with pytest.raises(UsageError):
        hop_distances(g, "ZZ")


def test_deg_coverage_unknown_deg_gene():
    g = build(["P", "A"], [(0, 1, 1.0)])
    with pytest.raises(UsageError, match="'ZZ'"):
        deg_coverage(g, "P", ["A", "ZZ"], max_hops=2)


def test_deg_coverage_direct_neighbors():
    g = build(["P", "A", "B", "C"], [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    cov = deg_coverage(g, "P", ["A", "B"], max_hops=2)
    assert cov[0] == 1.0 and cov[1] == 1.0


def test_deg_coverage_unreachable():
    g = build(["P", "A", "B"], [])
    cov = deg_coverage(g, "P", ["A", "B"], max_hops=3)
    assert cov == [0.0, 0.0, 0.0]


def test_deg_coverage_star_with_isolated():
    # two selected leaves plus one isolated gene: h=1 coverage 2/3
    g = build(["P", "L1", "L2", "ISO"], [(0, 1, 1.0), (0, 2, 1.0)])
    cov = deg_coverage(g, "P", ["L1", "L2", "ISO"], max_hops=2)
    assert cov[0] == pytest.approx(2.0 / 3.0)
    assert cov[1] == pytest.approx(2.0 / 3.0)


def test_deg_coverage_monotone():
    for seed in range(5):
        g = random_graph(40, 0.08, seed=seed)
        rng = np.random.default_rng(seed + 100)
        degs = [f"G{i}" for i in rng.choice(40, size=8, replace=False)]
        cov = deg_coverage(g, "G0", degs, max_hops=6)
        assert all(b >= a for a, b in zip(cov, cov[1:]))
        assert all(0.0 <= c <= 1.0 for c in cov)


def test_deg_coverage_empty_set_rejected():
    g = build(["A", "B"], [(0, 1, 1.0)])
    with pytest.raises(UsageError):
        deg_coverage(g, "A", [], max_hops=2)


# --- dense brute-force oracles -------------------------------------------------------


def messy_edges(seed):
    """Random edges on n nodes, with duplicates in both directions, tied weights,
    and isolated nodes (only the first two thirds of the ids take part)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    touched = max(2, 2 * n // 3)
    levels = np.array([0.0, 0.25, 0.5, 1.0]) if seed % 2 else rng.uniform(0.0, 1.0, size=8)
    edges = []
    for _ in range(int(rng.integers(0, 3 * n))):
        u, v = (int(x) for x in rng.choice(touched, size=2, replace=False))
        edges.append((u, v, float(rng.choice(levels))))
        if rng.random() < 0.4:
            edges.append((v, u, float(rng.choice(levels))))
    return n, edges


def dense_weights(n, edges):
    """Dense symmetric weights, duplicates keeping the maximum; NaN marks no edge."""
    w = np.full((n, n), np.nan)
    for u, v, x in edges:
        best = x if np.isnan(w[u, v]) else max(w[u, v], x)
        w[u, v] = w[v, u] = best
    return w


def dense_nominations(w, k):
    """nom[u, v]: fewer than k neighbors of u beat v (higher weight, or equal
    weight and lower index)."""
    n = w.shape[0]
    nom = np.zeros((n, n), dtype=bool)
    ids = np.arange(n)
    for u in range(n):
        present = ~np.isnan(w[u])
        for v in np.flatnonzero(present):
            beats = present & ((w[u] > w[u, v]) | ((w[u] == w[u, v]) & (ids < v)))
            nom[u, v] = beats.sum() < k
    return nom


def assert_csr_matches_dense(g, w):
    present = ~np.isnan(w)
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64 and g.weights.dtype == np.float64
    assert np.array_equal(g.indptr, np.concatenate([[0], np.cumsum(present.sum(axis=1))]))
    rows, cols = np.nonzero(present)  # row-major, so columns ascend within each row
    assert np.array_equal(g.indices, cols)
    assert g.weights.tobytes() == w[rows, cols].tobytes()


@pytest.mark.parametrize("seed", range(40))
def test_from_edges_matches_dense_oracle(seed):
    n, edges = messy_edges(seed)
    g = build([f"G{i}" for i in range(n)], edges)
    w = dense_weights(n, edges)
    assert_csr_matches_dense(g, w)
    upper = np.triu(~np.isnan(w))
    assert g.edge_weight_map() == {(int(u), int(v)): float(w[u, v]) for u, v in zip(*np.nonzero(upper))}
    assert g.edge_set() == set(g.edge_weight_map())


@pytest.mark.parametrize("seed", range(40))
def test_nominations_and_topk_match_dense_oracle(seed):
    n, edges = messy_edges(seed)
    g = build([f"G{i}" for i in range(n)], edges)
    w = dense_weights(n, edges)
    present = ~np.isnan(w)
    for k in (1, 2, 3, 6):
        nom = dense_nominations(w, k)
        assert nominations(g, k) == [set(np.flatnonzero(row).tolist()) for row in nom]
        for mode, keep in (("union", nom | nom.T), ("mutual", nom & nom.T)):
            assert_csr_matches_dense(topk_filter(g, k, mode), np.where(present & keep, w, np.nan))


@pytest.mark.parametrize("seed", range(40))
def test_hop_distances_match_boolean_matrix_powers(seed):
    n, edges = messy_edges(seed)
    g = build([f"G{i}" for i in range(n)], edges)
    adj = ~np.isnan(dense_weights(n, edges))
    for s in range(n):
        for max_hops in (0, 1, 2, 3, 6, None):
            expected = np.full(n, np.inf)
            reach = np.zeros(n, dtype=bool)
            reach[s] = True
            for h in range(n if max_hops is None else max_hops + 1):
                # reach = nodes within h hops: row s of (I + A)^h
                expected[reach & np.isinf(expected)] = h
                reach = reach | (reach.astype(int) @ adj.astype(int) > 0)
            assert hop_distances(g, f"G{s}", max_hops).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(40))
def test_deg_coverage_matches_unbounded_distances(seed):
    n, edges = messy_edges(seed)
    g = build([f"G{i}" for i in range(n)], edges)
    rng = np.random.default_rng(seed + 1000)
    for s in range(n):
        genes = [f"G{i}" for i in rng.choice(n, size=int(rng.integers(1, n + 1)))]
        full = hop_distances(g, f"G{s}")
        dvals = [full[int(name[1:])] for name in genes]
        expected = [sum(d <= h for d in dvals) / len(genes) for h in range(1, 7)]
        assert deg_coverage(g, f"G{s}", genes, max_hops=6) == expected


def test_negative_max_hops_rejected():
    g = build(["A", "B"], [(0, 1, 1.0)])
    with pytest.raises(UsageError):
        hop_distances(g, "A", max_hops=-1)
    with pytest.raises(UsageError):
        deg_coverage(g, "A", ["B"], max_hops=-1)
