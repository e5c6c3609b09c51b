import csv
import re

import numpy as np
import pytest
from scipy import special, stats

from pertgraph import data, metrics
from pertgraph.data import PerturbationDataset, SynthConfig, compute_degs, deg_rule, group_stats, synth_generate, welch_pvalues
from pertgraph.errors import DegenerateError, NumericalError, ShapeError, UsageError
from pertgraph.graph import GeneVocab
from pertgraph.metrics import (
    de_spearman_lfc,
    de_spearman_sig,
    des_at_k,
    des_fdr,
    direction_match,
    evaluate_predictions,
    pds,
    pearson_delta,
    predicted_deg_set,
    rank_rows,
    report,
    write_scatter_csv,
)

from conftest import counting_welch, two_threads


# --- pearson ------------------------------------------------------------------


def test_pearson_identity_and_negation():
    x = np.array([1.0, 2.0, 3.0, 5.0])
    assert pearson_delta(x, x) == pytest.approx(1.0)
    assert pearson_delta(-x, x) == pytest.approx(-1.0)


def test_pearson_constant_vector_rejected():
    with pytest.raises(DegenerateError):
        pearson_delta(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))


def test_pearson_matches_scipy():
    assert pearson_delta([1, 2, 3, 4], [1, 2, 3, 5]) == pytest.approx(
        stats.pearsonr([1, 2, 3, 4], [1, 2, 3, 5]).statistic, abs=1e-10
    )


def test_pearson_oracle_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(5, 51)
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert pearson_delta(x, y) == pytest.approx(stats.pearsonr(x, y).statistic, abs=1e-10)


# --- spearman -----------------------------------------------------------------


def test_spearman_hand_cases():
    assert de_spearman_sig([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)
    assert de_spearman_sig([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == pytest.approx(-1.0)
    assert de_spearman_sig([3.0, 1.0, 2.0], [2.0, 1.0, 3.0]) == pytest.approx(0.5)


def test_spearman_oracle_random_instances_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(5, 51))
        x = rng.integers(0, 6, size=n).astype(float)  # ties on purpose
        y = rng.normal(size=n)
        if np.all(x == x[0]):
            continue
        assert de_spearman_sig(x, y) == pytest.approx(
            stats.spearmanr(x, y).statistic, abs=1e-10
        )


def test_rank_average_ties():
    x = np.array([10.0, 20.0, 20.0, 30.0])
    assert np.array_equal(rank_rows(x, [x.size]), [1.0, 2.5, 2.5, 4.0])


def loop_ranks(x):
    """Reference: walk the stably sorted values, one tie group at a time."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_rank_average_ties_matches_loop_reference():
    rng = np.random.default_rng(5)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, 5e-324])
    for size in list(range(0, 12)) + [50, 240]:
        for x in (rng.choice(values, size=size), rng.normal(size=size), rng.integers(-2, 3, size=size) * 1.0):
            assert rank_rows(x, [x.size]).tobytes() == loop_ranks(x).tobytes()


def ragged_rows(rng, n_rows):
    """Rows of 0-12 values with ties, signed zeros, infinities and NaNs, and
    their lengths; every third row holds a single value."""
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, 5e-324])
    rows = []
    for i in range(n_rows):
        size = 1 if i % 3 == 0 else int(rng.integers(0, 13))
        rows.append(rng.choice(values, size) if i % 2 else np.round(rng.normal(size=size), 1))
    return rows, np.array([row.size for row in rows])


def test_rank_rows_matches_the_loop_reference_row_by_row():
    rng = np.random.default_rng(25)
    for n_rows in (0, 1, 2, 7, 40):
        rows, lengths = ragged_rows(rng, n_rows)
        got = rank_rows(np.concatenate([np.empty(0), *rows]), lengths)
        assert got.tobytes() == np.concatenate([np.empty(0), *map(loop_ranks, rows)]).tobytes()
    # NaNs rank last, each value alone; -0.0 and 0.0 tie
    assert rank_rows([np.nan, 1.0, np.nan, 0.0, -0.0, 7.0], [3, 3]).tolist() == [2.0, 1.0, 3.0, 1.5, 1.5, 3.0]


def weighted_spearman_reference(x, y, w):
    """The one-row formula: ranks by the loop reference, each sum by numpy's
    `.sum()` of the row alone; None where the one-row metric is undefined,
    with ranks constant over the positive weights among them."""
    if x.size < 2 or not np.any(w > 0):
        return None
    rx, ry = loop_ranks(x), loop_ranks(y)
    if len(set(rx[w > 0])) < 2 or len(set(ry[w > 0])) < 2:
        return None
    wsum = w.sum()
    mx, my = (w * rx).sum() / wsum, (w * ry).sum() / wsum
    cov = (w * (rx - mx) * (ry - my)).sum() / wsum
    vx, vy = (w * (rx - mx) ** 2).sum() / wsum, (w * (ry - my) ** 2).sum() / wsum
    return None if vx == 0.0 or vy == 0.0 else float(cov / np.sqrt(vx * vy))


def one_row_or_none(metric, *args):
    try:
        return metric(*args)
    except DegenerateError:
        return None


def test_block_spearman_equals_the_one_row_calls():
    rng = np.random.default_rng(26)
    n_genes = 30
    dp = np.round(rng.normal(size=(60, n_genes)), 1)  # rounded, so ranks tie
    dt = np.round(rng.normal(size=(60, n_genes)), 1)
    deg = rng.random((60, n_genes)) < rng.uniform(0.0, 0.8, (60, 1))
    deg[:3] = False  # no DEG
    for i, k in [(3, 1), (4, 1), (5, 2), (6, 2), (7, 2)]:  # one DEG, two DEGs
        deg[i] = False
        deg[i, rng.choice(n_genes, k, replace=False)] = True
    deg[8:10] = True
    dp[8] = 4.0  # constant predicted ranks
    dt[9] = dt[9, 0]  # constant true ranks (and all-equal weights)
    deg[10:12] = True
    dt[10:12] = 0.0  # all-zero |true delta|: no weight, but the plain metric is defined only if ranks vary
    dt[11, :5] = -0.0
    undefined = {"sig": set(), "lfc": set()}
    for name, metric in (("sig", de_spearman_sig), ("lfc", de_spearman_lfc)):
        got = metric(dp, dt, deg)
        assert len(got) == len(dp)
        for i, (x, y, d) in enumerate(zip(dp, dt, deg)):
            alone = one_row_or_none(metric, x[d], y[d])
            w = np.ones(d.sum()) if name == "sig" else np.abs(y[d])
            assert alone == weighted_spearman_reference(x[d], y[d], w)
            assert (got[i] is None) == (alone is None), (name, i)
            assert got[i] == alone, (name, i)  # equal floats, bit for bit
            if alone is None:
                undefined[name].add(i)
    # constant ranks are undefined under any weights, though under |true
    # delta| their weighted mean can round and leave a tiny nonzero variance
    assert {0, 1, 2, 3, 4, 8, 9, 10, 11} <= undefined["sig"] and {0, 1, 2, 3, 4, 8, 9, 10, 11} <= undefined["lfc"]
    for name in ("sig", "lfc"):
        assert not {5, 6, 7} <= undefined[name] and len(undefined[name]) < len(dp) // 2


def test_spearman_of_ranks_constant_over_the_weighted_degs_is_undefined_in_both_forms():
    # the weighted mean of equal ranks rounds here, leaving a variance of about 1e-17
    for metric in (de_spearman_sig, de_spearman_lfc):
        with pytest.raises(DegenerateError, match="constant ranks"):
            metric([0.3, 0.3], [-0.2, 1.7])
        assert metric(np.array([[0.3, 0.3], [0.3, 0.5]]), np.array([[-0.2, 1.7], [-0.2, 1.7]])) == [None, 1.0]
    # a DEG of zero weight does not make the ranks vary
    with pytest.raises(DegenerateError, match="constant ranks"):
        de_spearman_lfc([0.3, 0.3, 0.9], [-0.2, 1.7, 0.4], weights=[1.0, 2.0, 0.0])
    assert de_spearman_lfc([[0.3, 0.3, 0.9]], [[-0.2, 1.7, 0.4]], weights=[[1.0, 2.0, 0.0]]) == [None]
    assert de_spearman_lfc([0.3, 0.3, 0.9], [-0.2, 1.7, 0.4], weights=[1.0, 2.0, 0.5]) is not None


def test_weighted_spearman_uniform_equals_plain_bit_for_bit():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert de_spearman_lfc(x, y, weights=np.ones(n)) == de_spearman_sig(x, y)


def test_weighted_spearman_identical_orders_any_weights():
    rng = np.random.default_rng(3)
    x = np.array([0.1, 0.5, 2.0, 3.5])
    w = rng.uniform(0.1, 2.0, size=4)
    assert de_spearman_lfc(x, 2 * x, weights=w) == pytest.approx(1.0)


def weighted_spearman_bruteforce(x, y, w):
    rx = stats.rankdata(x, method="average")
    ry = stats.rankdata(y, method="average")
    wsum = w.sum()
    mx, my = (w * rx).sum() / wsum, (w * ry).sum() / wsum
    cov = (w * (rx - mx) * (ry - my)).sum() / wsum
    vx = (w * (rx - mx) ** 2).sum() / wsum
    vy = (w * (ry - my) ** 2).sum() / wsum
    return cov / np.sqrt(vx * vy)


def test_weighted_spearman_four_element_oracle():
    x = np.array([0.3, -1.0, 2.0, 0.7])
    y = np.array([1.0, -0.5, 0.9, 2.0])
    w = np.abs(y)
    assert de_spearman_lfc(x, y) == pytest.approx(weighted_spearman_bruteforce(x, y, w), abs=1e-10)


def test_weighted_spearman_oracle_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(5, 51))
        x, y = rng.normal(size=n), rng.normal(size=n)
        w = np.abs(rng.normal(size=n)) + 0.01
        assert de_spearman_lfc(x, y, weights=w) == pytest.approx(
            weighted_spearman_bruteforce(x, y, w), abs=1e-10
        )


def test_weighted_spearman_rejects_nan_inf_and_negative_weights():
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(UsageError, match=f"weights must be finite and >= 0, got {bad}"):
            de_spearman_lfc([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], weights=[1, bad, 1])


def test_weighted_spearman_zero_weights_rejected():
    with pytest.raises(DegenerateError):
        de_spearman_lfc([1.0, 2.0], [1.0, 2.0], weights=np.zeros(2))
    with pytest.raises(DegenerateError):
        de_spearman_lfc([1.0], [1.0])


# --- direction match --------------------------------------------------------------


def test_direction_match_cases():
    assert direction_match([1.0, -1.0, 2.0], [3.0, -0.5, 0.1]) == pytest.approx(1.0)
    assert direction_match([1.0, -1.0], [-1.0, 1.0]) == pytest.approx(0.0)
    assert direction_match([1.0, 1.0, -1.0, 1.0], [2.0, 3.0, -4.0, -5.0]) == pytest.approx(0.75)
    # sign(0) = 0: a zero prediction only matches a zero truth
    assert direction_match([0.0], [0.0]) == pytest.approx(1.0)
    assert direction_match([0.0], [1.0]) == pytest.approx(0.0)


# --- PDS ------------------------------------------------------------------------------


def test_pds_single_perturbation():
    scores, mean = pds({"P": np.array([1.0, 2.0])}, {"P": np.array([9.0, 9.0])})
    assert scores["P"] == 1.0 and mean == 1.0


def test_pds_hand_fixture():
    truths = {"P0": np.array([0.0, 0.0]), "P1": np.array([3.0, 0.0]), "P2": np.array([0.0, 3.0])}
    preds = {"P0": np.array([1.0, 0.0]), "P1": np.array([4.0, 0.0]), "P2": np.array([2.0, 0.0])}
    scores, mean = pds(preds, truths)
    # hand computation: d(P2) = {P0: 2, P1: 1, P2: 5} so rank 3
    assert scores["P0"] == pytest.approx(1.0)
    assert scores["P1"] == pytest.approx(1.0)
    assert scores["P2"] == pytest.approx(1.0 / 3.0)
    assert mean == pytest.approx((1.0 + 1.0 + 1.0 / 3.0) / 3.0)


def test_pds_perfect_predictions():
    rng = np.random.default_rng(5)
    truths = {f"P{i}": rng.normal(size=8) for i in range(6)}
    scores, mean = pds(dict(truths), truths)
    assert all(v == 1.0 for v in scores.values()) and mean == 1.0


def test_pds_worst_case_rank():
    # P0's prediction is far from its own truth but exactly on P1's
    truths = {"P0": np.array([0.0]), "P1": np.array([10.0])}
    preds = {"P0": np.array([10.0]), "P1": np.array([0.0])}
    scores, _ = pds(preds, truths)
    assert scores["P0"] == pytest.approx(1.0 / 2.0)  # rank 2 of |T| = 2


def test_pds_invariant_to_relabeling():
    rng = np.random.default_rng(6)
    truths = {f"P{i}": rng.normal(size=5) for i in range(5)}
    preds = {k: v + rng.normal(0, 0.3, size=5) for k, v in truths.items()}
    s1, m1 = pds(preds, truths)
    relabel = {k: f"Q{i}" for i, k in enumerate(sorted(preds))}
    s2, m2 = pds(
        {relabel[k]: v for k, v in preds.items()},
        {relabel[k]: v for k, v in truths.items()},
    )
    assert m1 == pytest.approx(m2, abs=1e-15)
    for k in preds:
        assert s1[k] == pytest.approx(s2[relabel[k]], abs=1e-15)


def pds_loop(pred_deltas, true_deltas):
    """Reference: every pairwise distance in its own Python-level sum."""
    names = sorted(pred_deltas)
    scores = {}
    for p in names:
        d = {t: float(np.abs(pred_deltas[p] - true_deltas[t]).sum()) for t in names}
        rank = 1 + sum(1 for t in names if t != p and d[t] < d[p])
        scores[p] = 1.0 - (rank - 1) / len(names)
    return scores, float(np.mean(list(scores.values())))


def test_pds_matches_pairwise_loop_on_random_sets():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n_perts, n_genes = int(rng.integers(1, 51)), int(rng.integers(1, 301))
        truths = {f"P{i}": rng.normal(size=n_genes) for i in range(n_perts)}
        preds = {p: 0.5 * v + rng.normal(size=n_genes) for p, v in truths.items()}
        assert pds(preds, truths) == pds_loop(preds, truths)


def test_pds_matches_pairwise_loop_with_exact_ties():
    # small integers: every distance is exact, and many foreign distances equal
    # the own one, which is not strictly closer
    rng = np.random.default_rng(11)
    tied = 0
    for _ in range(60):
        n_perts, n_genes = int(rng.integers(2, 20)), int(rng.integers(1, 12))
        truths = {f"P{i}": rng.integers(-2, 3, size=n_genes).astype(float) for i in range(n_perts)}
        preds = {f"P{i}": rng.integers(-2, 3, size=n_genes).astype(float) for i in range(n_perts)}
        assert pds(preds, truths) == pds_loop(preds, truths)
        with two_threads():  # the gene halves summed on two threads
            assert pds(preds, truths) == pds_loop(preds, truths)
        tied += sum(
            np.abs(preds[p] - truths[t]).sum() == np.abs(preds[p] - truths[p]).sum()
            for p in preds for t in truths if t != p
        )
    assert tied > 100


def test_pds_sums_again_where_distances_differ_in_the_last_bits():
    # every truth is a permutation of one vector and every prediction is zero,
    # so all distances are the same sum added in another order; the matrix
    # and the pairwise sums round differently, and only the pairwise sums decide
    rng = np.random.default_rng(12)
    v = rng.lognormal(0.0, 3.0, size=300)
    truths = {f"P{i:02d}": rng.permutation(v) for i in range(30)}
    preds = {p: np.zeros(300) for p in truths}
    names = sorted(truths)
    dist = metrics._l1_distances(np.stack([preds[p] for p in names]), np.stack([truths[p] for p in names]))
    loop = np.array([[float(np.abs(preds[p] - truths[t]).sum()) for t in names] for p in names])
    off = ~np.eye(len(names), dtype=bool)
    own = np.diag(loop)[:, None]
    assert len(np.unique(loop)) > 1
    assert np.any(((dist < own) != (loop < own))[off])
    scores, mean = pds(preds, truths)
    assert (scores, mean) == pds_loop(preds, truths)
    assert min(scores.values()) < 1.0
    with two_threads():  # the gene halves summed on two threads: the same matrix, the same scores
        assert metrics._l1_distances(*(np.stack([d[p] for p in names]) for d in (preds, truths))).tobytes() == dist.tobytes()
        assert pds(preds, truths) == (scores, mean)


# --- DES ------------------------------------------------------------------------------


def mask(genes, n):
    """The (n,) bool mask of the gene indices `genes`."""
    m = np.zeros(n, dtype=bool)
    m[list(genes)] = True
    return m


def test_des_fdr_cases():
    assert des_fdr(mask({1, 2}, 4), mask({1, 2, 3}, 4)) == pytest.approx(1.0)
    assert des_fdr(mask({1, 2}, 5), mask({3, 4}, 5)) == pytest.approx(0.0)
    assert des_fdr(mask({0, 1, 2, 3}, 10), mask({2, 3, 9}, 10)) == pytest.approx(0.5)
    with pytest.raises(DegenerateError):
        des_fdr(mask(set(), 2), mask({1}, 2))


def test_des_at_k_cases():
    delta = np.array([5.0, 4.0, 3.0, 0.1, 0.1, 0.2])
    assert des_at_k(delta, mask({0, 1, 2}, 6), k=3) == pytest.approx(1.0)
    assert des_at_k(delta, mask({3, 4}, 6), k=2) == pytest.approx(0.0)
    # top-2 by |delta| is {0, 5} for this vector; denominator min(2, 3) = 2
    delta2 = np.array([5.0, 0.5, 0.4, 0.1, 0.0, 4.0])
    assert des_at_k(delta2, mask({0, 1, 2}, 6), k=2) == pytest.approx(0.5)


def test_des_at_k_tie_break_by_lower_index():
    delta = np.array([1.0, 1.0, 1.0])
    assert des_at_k(delta, mask({0}, 3), k=1) == pytest.approx(1.0)
    assert des_at_k(delta, mask({2}, 3), k=1) == pytest.approx(0.0)


def test_des_at_k_monotone_beyond_true_set_size():
    rng = np.random.default_rng(7)
    delta = rng.normal(size=30)
    g_true = mask(rng.choice(30, size=5, replace=False), 30)
    values = [des_at_k(delta, g_true, k) for k in range(5, 31)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def des_at_k_lexsort(pred_delta, g_true, k):
    """Reference: a full sort by (-|x|, index), then the first k."""
    x = np.asarray(pred_delta, dtype=np.float64)
    order = np.lexsort((np.arange(x.size), -np.abs(x)))
    return g_true[order[:k]].sum() / min(k, g_true.sum())


def test_des_at_k_matches_lexsort_with_ties_and_non_finite_values():
    rng = np.random.default_rng(13)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for _ in range(400):
        n = int(rng.integers(1, 40))
        x = np.round(rng.normal(size=n), int(rng.integers(0, 2)))  # heavy magnitude ties
        hit = rng.random(n) < 0.2
        x[hit] = rng.choice(specials, size=int(hit.sum()))
        g_true = mask(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False), n)
        for k in range(1, n + 3):
            assert des_at_k(x, g_true, k) == des_at_k_lexsort(x, g_true, k)


# --- DEG mask shapes -----------------------------------------------------------------

MASK_DELTAS = np.array([[0.5, -1.0, 2.0, 0.0], [1.5, 0.25, -2.0, 3.0], [-0.5, 1.0, 0.75, -3.0]])


def mask_shape_error(mask_shape, shape):
    return pytest.raises(ShapeError, match=re.escape(f"DEG mask shape {mask_shape} does not fit rows of shape {shape}"))


def test_des_at_k_refuses_a_mask_of_another_shape():
    with mask_shape_error((1, 4), (3, 4)):
        des_at_k(MASK_DELTAS, np.ones((1, 4), dtype=bool), k=2)
    with mask_shape_error((3, 5), (3, 4)):
        des_at_k(MASK_DELTAS, np.ones((3, 5), dtype=bool), k=2)
    assert des_at_k(MASK_DELTAS[:1], np.array([[True, True, False, False]]), k=2) == [0.5]


def test_des_fdr_refuses_masks_of_two_shapes():
    with mask_shape_error((1, 4), (3, 4)):
        des_fdr(np.ones((3, 4), dtype=bool), np.ones((1, 4), dtype=bool))
    with mask_shape_error((3, 4), (1, 4)):
        des_fdr(np.ones((1, 4), dtype=bool), np.ones((3, 4), dtype=bool))
    assert des_fdr(np.array([[True, True, False]]), np.array([[True, False, True]])) == [0.5]


def test_des_fdr_scores_two_one_row_masks_as_their_one_row_block():
    true, pred = np.array([False, True, True, False]), np.array([True, True, False, False])
    assert des_fdr(true, pred) == 0.5
    assert des_fdr(true[None], pred[None]) == [0.5]


@pytest.mark.parametrize("not_a_mask", [{0, 1}, [0, 1], np.array([1, 1, 0, 0])], ids=["set", "list", "0/1 ints"])
@pytest.mark.parametrize("metric", ["des_fdr", "des_at_k", "direction_match", "de_spearman_sig", "de_spearman_lfc"])
def test_a_deg_set_that_is_not_a_bool_mask_is_refused(metric, not_a_mask):
    x, y = MASK_DELTAS[0], MASK_DELTAS[1]
    calls = {
        "des_fdr": lambda: des_fdr(not_a_mask, np.ones(4, dtype=bool)),
        "des_at_k": lambda: des_at_k(x, not_a_mask, k=2),
        "direction_match": lambda: direction_match(x, y, not_a_mask),
        "de_spearman_sig": lambda: de_spearman_sig(x, y, not_a_mask),
        "de_spearman_lfc": lambda: de_spearman_lfc(x, y, not_a_mask),
    }
    with pytest.raises(UsageError, match=f"^a DEG mask must be a bool array, got dtype {np.asarray(not_a_mask).dtype}$"):
        calls[metric]()
    if metric == "des_fdr":  # on either side
        with pytest.raises(UsageError, match="^a DEG mask must be a bool array"):
            des_fdr(np.ones(4, dtype=bool), not_a_mask)


@pytest.mark.parametrize("metric", [direction_match, de_spearman_sig, de_spearman_lfc])
def test_a_deg_mask_must_have_the_deltas_shape(metric):
    true = MASK_DELTAS[::-1] + 0.125
    with mask_shape_error((2, 6), (3, 4)):
        metric(MASK_DELTAS, true, np.ones((2, 6), dtype=bool))
    with mask_shape_error((1, 4), (3, 4)):
        metric(MASK_DELTAS, true, np.ones((1, 4), dtype=bool))
    with mask_shape_error((5,), (1, 4)):
        metric(MASK_DELTAS[0], true[0], np.ones(5, dtype=bool))
    # one row's mask may be (G,) or (1, G), whether the deltas are (G,) or (1, G)
    one = metric(MASK_DELTAS[0], true[0])
    for deltas in ((MASK_DELTAS[0], true[0]), (MASK_DELTAS[:1], true[:1])):
        for mask in (np.ones(4, dtype=bool), np.ones((1, 4), dtype=bool)):
            got = metric(*deltas, mask)
            assert (got if deltas[0].ndim == 1 else got[0]) == one


def test_des_at_k_ranks_nan_last():
    x = np.array([np.nan, 0.0, np.nan, -np.inf])
    assert des_at_k(x, mask({3}, 4), k=1) == 1.0
    assert des_at_k(x, mask({1}, 4), k=2) == 1.0
    assert des_at_k(x, mask({0}, 4), k=3) == 1.0
    assert des_at_k(x, mask({2}, 4), k=3) == 0.0


def test_predicted_deg_set_recovers_strong_shifts():
    rng = np.random.default_rng(8)
    control = rng.normal(1.0, 0.05, size=(20, 12))
    delta = np.zeros(12)
    delta[[2, 7]] = 1.0
    found = predicted_deg_set(control, delta, alpha=0.05)
    assert found.dtype == bool and found.shape == (12,)
    assert found[[2, 7]].all()
    weak = predicted_deg_set(control, np.zeros(12), alpha=0.05)
    assert not weak.any()


def predicted_deg_set_materialised(control_block, pred_delta, alpha=0.05, correction="none", control_stats=None):
    """The reference: the control cells shifted by the delta, Welch-tested whole."""
    p = welch_pvalues(control_block, control_block + np.asarray(pred_delta, dtype=np.float64))
    return deg_rule(alpha, correction)(p)


def prediction_calls_fit(calls, n, g):
    """Whether prediction Welch calls hold the control's n cells by 1 to g
    columns each, so at most n x g values."""
    return all(rows == n and 0 < cols <= g for rows, cols in calls)


def test_predicted_deg_set_matches_the_materialised_test(monkeypatch):
    calls = counting_welch(monkeypatch)
    rng = np.random.default_rng(15)
    eps = np.finfo(np.float64).eps
    retested = 0
    for n, g in [(2, 30), (3, 30), (20, 30), (20, 1), (6, 2)]:
        control = rng.uniform(0.5, 3.0, g) + rng.normal(0.0, 0.2, (n, g))
        if g > 8:
            control[:, :4] = [0.0, 1.7, 1e6, -3.0]  # zero variance
            control[:, 4:8] = 1e6 + 1e-10 * rng.normal(size=(n, 4))  # a spread the shift can round away
            control[:, 8:16] = 1e6 + 0.01 * rng.normal(size=(n, 8))  # rounding near 1e-8 of the spread
        c = group_stats(control)
        for alpha in (0.05, 1.0, 1e-6, 1e-320):
            se = np.sqrt(2 * c.var / n)
            t_crit = -special.stdtrit(2 * (n - 1), max(alpha, 1e-100) / 2)  # stdtrit fails in far tails
            sign = rng.choice([-1.0, 1.0], g)
            on_crit = se * t_crit * (1 + rng.integers(-8, 9, g) * eps) * sign
            near_crit = se * t_crit * (1 + rng.integers(-50, 51, g) * 1e-9) * sign
            one_on_crit = rng.normal(0.0, 0.3, g)
            one_on_crit[g // 2] = on_crit[g // 2]
            tiny = se * rng.integers(-3, 4, g) * 1e-16
            deltas = np.array([rng.normal(0.0, 0.3, g), np.zeros(g), on_crit, near_crit, one_on_crit, tiny])
            for d in deltas if g > 8 else ():
                d[:4] = rng.choice([0.0, 1e-17, 1.0, -2.5], 4)
                d[4:8] = rng.choice([0.0, 1e9, -1e9, 1e-3], 4)
            for correction in ("none", "benjamini-hochberg"):
                expected = [predicted_deg_set_materialised(control, d, alpha, correction) for d in deltas]
                for d, want in zip(deltas, expected):
                    calls.clear()
                    assert np.array_equal(predicted_deg_set(control, d, alpha, correction, c), want)
                    assert len(calls) <= 1 and prediction_calls_fit(calls, n, g)  # no call when no gene is open
                    assert len(calls) == 1 or correction == "none"
                    retested += sum(w for _, w in calls) if correction == "none" else 0
                calls.clear()  # the block of all six: the genes the rows leave open, g of them a call
                got = predicted_deg_set(control, deltas, alpha, correction, c)
                assert np.array_equal(got, expected)
                assert prediction_calls_fit(calls, n, g) and all(cols == g for _, cols in calls[:-1])
                assert len(calls) == len(deltas) or correction == "none"
    assert retested > 0  # the window and the degenerate columns were exercised


def test_predicted_deg_set_of_one_gene_predictions_matches_the_materialised_test_row_by_row(monkeypatch):
    # a one-column block is summed pairwise, in another order than a wider
    # block's columns, and so is each piece of a block of one-gene predictions
    calls = counting_welch(monkeypatch)
    rng = np.random.default_rng(26)
    control = 2.0 + 0.2 * rng.standard_normal((20, 1))
    c = group_stats(control)
    t_crit = -special.stdtrit(38, 0.025)
    deltas = np.sqrt(2 * c.var / 20) * t_crit * (1 + rng.integers(-8, 9, (60, 1)) * np.finfo(np.float64).eps)
    for correction in ("none", "benjamini-hochberg"):
        calls.clear()
        got = predicted_deg_set(control, deltas, 0.05, correction, c)
        want = [predicted_deg_set_materialised(control, d, 0.05, correction) for d in deltas]
        assert np.array_equal(got, want)
        assert set(calls) == {(20, 1)}  # one column a call, never taken twice
        assert len(calls) == len(deltas) or correction == "none"
        assert 0 < np.sum(want) < len(want)


def test_predicted_deg_set_retests_a_lone_column_in_the_whole_block_order():
    # a column within eps of t_crit is decided by the last bits of its sums,
    # which numpy adds in another order for a lone column than for a block
    rng = np.random.default_rng(17)
    t_crit = -special.stdtrit(38, 0.025)
    for _ in range(300):
        control = rng.uniform(0.5, 3.0, 2) + rng.normal(0.0, 0.2, (20, 2))
        c = group_stats(control)
        d = np.array([0.01, np.sqrt(c.var[1] / 10) * t_crit * (1 + rng.integers(-8, 9) * np.finfo(np.float64).eps)])
        assert np.array_equal(predicted_deg_set(control, d, control_stats=c), predicted_deg_set_materialised(control, d))


def test_predicted_deg_set_retests_no_column_of_an_ordinary_prediction(monkeypatch):
    calls = counting_welch(monkeypatch)
    rng = np.random.default_rng(16)
    control = rng.uniform(0.5, 3.0, 500) + rng.normal(0.0, 0.2, (20, 500))
    d = rng.normal(0.0, 0.3, 500)
    assert np.array_equal(predicted_deg_set(control, d), predicted_deg_set_materialised(control, d))
    assert calls == []


def test_a_welch_call_holds_at_most_one_block_under_benjamini_hochberg(monkeypatch):
    # every gene is re-tested under BH, so the cuts of a chunk's rows must
    # not all go into one call: that would hold rows x the control block
    calls = counting_welch(monkeypatch)
    rng = np.random.default_rng(19)
    control = rng.uniform(3.0, 4.0, 50) + rng.normal(0.0, 0.2, (300, 50))
    deltas = rng.normal(0.0, 0.3, (40, 50))
    got = predicted_deg_set(control, deltas, correction="benjamini-hochberg")
    assert np.array_equal(got, [predicted_deg_set_materialised(control, d, correction="benjamini-hochberg") for d in deltas])
    assert calls == [control.shape] * len(deltas)
    blocks = {f"P{i:02d}": control[:30] + d for i, d in enumerate(deltas)}
    calls.clear()  # true blocks are re-tested on their statistics, never on their cells
    compute_degs(PerturbationDataset(GeneVocab([f"G{i}" for i in range(50)]), control, blocks), correction="benjamini-hochberg")
    assert calls == [("stats", deltas.size)]


# --- reporting -----------------------------------------------------------------------


def test_report_single_perturbation_zero_std():
    rep = report({"P": {"pearson_delta": 0.8}})
    agg = rep.overall["pearson_delta"]
    assert agg["mean"] == pytest.approx(0.8) and agg["std"] == 0.0 and agg["n"] == 1


def test_report_mean_and_population_std():
    rep = report({"A": {"m": 0.0}, "B": {"m": 1.0}})
    agg = rep.overall["m"]
    assert agg["mean"] == pytest.approx(0.5) and agg["std"] == pytest.approx(0.5)


def test_report_strata_and_exclusions():
    per = {
        "A": {"m": 0.2, "x": None},
        "B": {"m": 0.4, "x": 1.0},
        "C": {"m": 0.9, "x": 0.5},
    }
    strata = {"A": "small", "B": "small", "C": "large"}
    rep = report(per, strata)
    assert rep.strata["small"]["m"]["mean"] == pytest.approx(0.3)
    assert rep.strata["large"]["m"]["mean"] == pytest.approx(0.9)
    assert rep.overall["x"]["n"] == 2  # the None entry is excluded
    assert rep.strata["small"]["x"]["n"] == 1
    # aggregate mean recomputable from per-perturbation values
    vals = [per[p]["m"] for p in per]
    assert rep.overall["m"]["mean"] == pytest.approx(np.mean(vals), abs=1e-12)


def test_report_rejects_unknown_strata():
    with pytest.raises(UsageError):
        report({"A": {"m": 1.0}}, {"ZZ": "small"})


def test_scatter_csv_round_trip(tmp_path):
    path = tmp_path / "scatter_P.csv"
    genes = ["G0", "G1"]
    write_scatter_csv(path, genes, np.array([0.5, -1.0]), np.array([0.4, -0.8]), np.array([True, False]))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gene", "delta_true", "delta_pred", "is_deg"]
    assert rows[1] == ["G0", "0.5", "0.4", "1"]
    assert rows[2] == ["G1", "-1.0", "-0.8", "0"]


def test_metrics_invariant_to_common_profile_shift():
    rng = np.random.default_rng(9)
    xbar_c = rng.uniform(0.5, 2.0, size=20)
    x_hat = xbar_c + rng.normal(0, 0.5, size=20)
    xbar_p = xbar_c + rng.normal(0, 0.5, size=20)
    c = 3.7
    base = pearson_delta(x_hat - xbar_c, xbar_p - xbar_c)
    shifted = pearson_delta((x_hat + c) - (xbar_c + c), (xbar_p + c) - (xbar_c + c))
    assert shifted == pytest.approx(base, abs=1e-12)


# --- evaluate_predictions --------------------------------------------------------------


def test_evaluate_predictions_matches_loop_and_lexsort_oracles(monkeypatch):
    cfg = SynthConfig(
        n_genes=200, n_perturbations=40, cells_per_condition=20,
        effect_magnitude=1.0, noise_sigma=0.2, embed_dim=16,
    )
    synth = synth_generate(cfg, seed=1)
    ds = synth.dataset
    xbar_c = ds.control.mean(axis=0)
    rng = np.random.default_rng(14)
    perts = ds.pert_names()
    # informative deltas rounded to 0.1, so |delta| ties reach the top-k cut
    preds = {
        p: xbar_c + np.round(ds.block(p).mean(axis=0) - xbar_c + rng.normal(0, 0.3, ds.n_genes), 1)
        for p in perts
    }
    fast, _ = evaluate_predictions(ds, preds, perts)
    reached = []

    # the per-row oracles, looped over the rows of the (P, G) blocks the metrics take
    def des_at_k_rows(delta, true, k):
        reached.append("des_at_k")
        return [des_at_k_lexsort(d, t, k) if t.any() else None for d, t in zip(delta, true)]

    def predicted_deg_set_rows(control, delta, alpha, correction, control_stats=None):
        reached.append("predicted_deg_set")
        return np.array([predicted_deg_set_materialised(control, d, alpha, correction) for d in delta], dtype=bool).reshape(delta.shape)

    monkeypatch.setattr(metrics, "pds", lambda *args: reached.append("pds") or pds_loop(*args))
    monkeypatch.setattr(metrics, "des_at_k", des_at_k_rows)
    monkeypatch.setattr(metrics, "predicted_deg_set", predicted_deg_set_rows)
    slow, _ = evaluate_predictions(ds, preds, perts)
    assert fast.to_json_dict() == slow.to_json_dict()
    assert fast.overall["pds"]["mean"] < 1.0
    assert set(reached) == {"pds", "des_at_k", "predicted_deg_set"}


def evaluate_predictions_loop(dataset, predictions, perts, alpha=0.05, correction="none", des_k=(10, 50, 100)):
    """The reference: each perturbation scored alone, by the one-row metrics."""
    perts = sorted(perts)
    control = group_stats(dataset.control)
    pred_deltas = metrics.prediction_deltas(predictions, perts, control.mean)
    truth = compute_degs(dataset, alpha=alpha, correction=correction, perturbations=perts)
    pds_scores, _ = pds(pred_deltas, {p: truth.deltas[p] for p in perts})
    undefined = one_row_or_none
    per = {}
    for p in perts:
        dp, dt, deg = pred_deltas[p], truth.deltas[p], truth.deg_mask(p)
        g_pred = predicted_deg_set(dataset.control, dp, alpha, correction, control) if deg.any() else np.zeros_like(deg)
        per[p] = {
            "pds": pds_scores[p],
            "pearson_delta": undefined(pearson_delta, dp, dt),
            "des_fdr": undefined(des_fdr, deg, g_pred),
            **{f"des_at_{k}": undefined(des_at_k, dp, deg, k) for k in des_k},
            "de_spearman_sig": undefined(de_spearman_sig, dp[deg], dt[deg]),
            "de_spearman_lfc": undefined(de_spearman_lfc, dp[deg], dt[deg]),
            "direction_match": undefined(direction_match, dp[deg], dt[deg]),
        }
    return report(per, data.effect_size_strata(truth))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_evaluate_predictions_matches_the_one_row_metrics_looped(seed):
    cfg = SynthConfig(n_genes=200, n_perturbations=40, cells_per_condition=20, noise_sigma=0.2, embed_dim=16)
    ds = synth_generate(cfg, seed=seed).dataset
    xbar_c = ds.control.mean(axis=0)
    rng = np.random.default_rng(seed)
    perts = ds.pert_names()
    # rounded to 0.1, so |delta| ties reach the top-k cut; one prediction is the control mean itself
    preds = {p: xbar_c + np.round(ds.block(p).mean(axis=0) - xbar_c + rng.normal(0, 0.3, ds.n_genes), 1) for p in perts}
    preds[perts[0]] = xbar_c.copy()
    for correction in ("none", "benjamini-hochberg"):
        kwargs = {"correction": correction, "des_k": (1, 10, 199, 200, 500)}
        batched, _ = evaluate_predictions(ds, preds, perts[::-1], **kwargs)
        assert batched.to_json_dict() == evaluate_predictions_loop(ds, preds, perts, **kwargs).to_json_dict()


def test_evaluate_predictions_rejects_a_repeated_perturbation():
    ds, preds = small_eval_inputs()
    names = sorted(preds)
    with pytest.raises(UsageError, match=f"perturbation '{names[2]}' is listed twice"):
        evaluate_predictions(ds, preds, [names[3], names[2], names[1], names[2], names[3]])


@pytest.mark.parametrize("rows_per_chunk", [None, 5], ids=["one-chunk", "chunks-of-5"])
def test_evaluate_predictions_makes_one_welch_call_per_chunk(monkeypatch, rows_per_chunk):
    cfg = SynthConfig(n_genes=100, n_perturbations=12, cells_per_condition=10, embed_dim=8)
    synth = synth_generate(cfg, seed=3).dataset
    blocks = {p: synth.block(p) for p in synth.pert_names()}
    blocks["NULL"] = synth.control.copy()  # no DEG, so no Welch test of its prediction
    ds = PerturbationDataset(synth.vocab, synth.control, blocks)
    if rows_per_chunk:
        monkeypatch.setattr(data, "ROW_CHUNK_VALUES", ds.n_genes * rows_per_chunk)
    n_chunks = len(data.row_chunks(len(blocks), ds.n_genes))
    rng = np.random.default_rng(18)
    preds = {p: ds.block(p).mean(axis=0) + rng.normal(0.0, 0.2, ds.n_genes) for p in ds.pert_names()}
    c = group_stats(ds.control)
    for v in preds.values():  # gene 0 on the critical value, so every prediction tested leaves it open
        v[0] = c.mean[0] + np.sqrt(2 * c.var[0] / c.n) * -special.stdtrit(2 * (c.n - 1), 0.025)
    calls = counting_welch(monkeypatch)
    calls_true = []

    def degs(*args, **kwargs):  # counts the calls made for the true DEG table
        start = len(calls)
        table = compute_degs(*args, **kwargs)
        calls_true.append(len(calls) - start)
        return table

    monkeypatch.setattr(metrics, "compute_degs", degs)
    ranked = []
    monkeypatch.setattr(metrics, "rank_rows", lambda *args: ranked.append(len(args[1])) or rank_rows(*args))
    report_, truth = evaluate_predictions(ds, preds, ds.pert_names())
    with_degs = sum(truth.deg_indices(p).size > 0 for p in ds.pert_names())
    assert 0 < with_degs < len(preds)  # both kinds of perturbation occur
    # every block has 10 cells: one call a chunk at most for the true table,
    # one for the predictions of each chunk that has DEGs, and none that tests no gene
    chunks = [ds.pert_names()[rows] for rows in data.row_chunks(len(preds), ds.n_genes)]
    assert len(calls_true) == 1 and calls_true[0] <= n_chunks and all(0 < w <= ds.n_genes for _, w in calls)
    assert len(calls) - calls_true[0] == sum(any(truth.deg_indices(p).size for p in chunk) for chunk in chunks) > 0
    # each Spearman metric ranks both deltas of every row of a chunk in one pass
    assert ranked == [2 * len(chunk) for chunk in chunks for _ in range(2)]
    assert report_.per_perturbation["NULL"]["de_spearman_sig"] is None


def test_evaluate_predictions_takes_the_control_statistics_once(monkeypatch):
    ds, preds = small_eval_inputs()
    preds = {p: v + 0.05 for p, v in preds.items()}
    expected = evaluate_predictions(ds, preds, ds.pert_names())[0].to_json_dict()
    of_control = []

    def stats(block):
        of_control.append(block is ds.control)
        return group_stats(block)

    monkeypatch.setattr(data, "group_stats", stats)
    monkeypatch.setattr(metrics, "group_stats", stats)
    assert evaluate_predictions(ds, preds, ds.pert_names())[0].to_json_dict() == expected
    assert sum(of_control) == 1 and len(of_control) > 1
    given = compute_degs(ds, control_stats=group_stats(ds.control))
    alone = compute_degs(ds)
    for p in ds.pert_names():
        assert np.array_equal(given.masks[p], alone.masks[p]) and np.array_equal(given.deltas[p], alone.deltas[p])


def small_eval_inputs():
    synth = synth_generate(SynthConfig(n_genes=60, n_perturbations=6, cells_per_condition=6), seed=2)
    ds = synth.dataset
    return ds, {p: ds.block(p).mean(axis=0) for p in ds.pert_names()}


def test_evaluate_predictions_rejects_non_finite_prediction():
    ds, preds = small_eval_inputs()
    bad = sorted(preds)[2]
    preds[bad][7] = np.nan
    with pytest.raises(NumericalError, match=bad):
        evaluate_predictions(ds, preds, sorted(preds))


def test_evaluate_predictions_rejects_wrong_width_prediction():
    ds, preds = small_eval_inputs()
    bad = sorted(preds)[1]
    preds[bad] = preds[bad][:59]
    with pytest.raises(ShapeError, match=f"{bad} has 59 genes, the dataset has 60"):
        evaluate_predictions(ds, preds, sorted(preds))


def test_evaluate_predictions_gives_none_exactly_where_a_metric_is_undefined():
    # P0 has no DEG, P1 exactly one, P2 five and a constant (zero) predicted delta
    rng = np.random.default_rng(6)
    control = rng.uniform(2.0, 4.0, size=(30, 20))
    ramp = 0.01 * np.arange(20) / 20  # far too small to be a DEG
    one, five = np.zeros(20), np.zeros(20)
    one[3], five[:5] = 10.0, 10.0
    blocks = {"P0": control + ramp, "P1": control + ramp + one, "P2": control + five}
    ds = PerturbationDataset(GeneVocab([f"G{i}" for i in range(20)]), control, blocks)
    xbar_c = ds.control.mean(axis=0)
    preds = {"P0": xbar_c + rng.normal(0, 0.1, 20), "P1": xbar_c + rng.normal(0, 0.1, 20) + one, "P2": xbar_c.copy()}
    rep, truth = evaluate_predictions(ds, preds, sorted(preds), des_k=(5,))
    assert [truth.deg_indices(p).tolist() for p in sorted(preds)] == [[], [3], [0, 1, 2, 3, 4]]
    rows = rep.per_perturbation
    assert all(
        list(row) == ["pds", "pearson_delta", "des_fdr", "des_at_5", "de_spearman_sig", "de_spearman_lfc", "direction_match"]
        for row in rows.values()
    )
    assert {p: sorted(m for m, v in row.items() if v is None) for p, row in rows.items()} == {
        "P0": ["de_spearman_lfc", "de_spearman_sig", "des_at_5", "des_fdr", "direction_match"],
        "P1": ["de_spearman_lfc", "de_spearman_sig"],
        "P2": ["de_spearman_lfc", "de_spearman_sig", "pearson_delta"],
    }
    pds_scores, _ = pds({p: preds[p] - xbar_c for p in preds}, truth.deltas)
    for p, row in rows.items():
        dp, dt, deg = preds[p] - xbar_c, truth.deltas[p], truth.deg_mask(p)
        assert row["pds"] == pds_scores[p]
        if p != "P2":
            assert row["pearson_delta"] == pearson_delta(dp, dt)
        if p != "P0":
            assert row["des_fdr"] == des_fdr(deg, predicted_deg_set(ds.control, dp))
            assert row["des_at_5"] == des_at_k(dp, deg, 5)
            assert row["direction_match"] == direction_match(dp[deg], dt[deg])
    assert (rows["P2"]["des_fdr"], rows["P2"]["des_at_5"], rows["P2"]["direction_match"]) == (0.0, 1.0, 0.0)
    assert rep.overall["de_spearman_sig"] == {"mean": None, "std": None, "n": 0}
    assert rep.overall["direction_match"]["n"] == 2 and rep.overall["pearson_delta"]["n"] == 2
