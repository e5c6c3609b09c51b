"""Evaluation suite for predicted perturbation effects.

All metrics operate on pseudobulk deltas (profile minus control mean):
delta correlation, a rank-based discrimination score across the test set,
DEG recovery (both top-k ranking and significance-set overlap), Spearman
agreement on DEGs (plain and effect-size-weighted), direction match, and
stratified mean/std reporting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import GroupStats, compute_degs, deg_rule, effect_size_strata, group_stats, welch_pvalues
from .errors import DegenerateError, NumericalError, ShapeError, UsageError, check_range, write_csv, write_json


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(a, dtype=np.float64).reshape(-1)
    y = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise ShapeError(f"vector lengths differ: {x.size} vs {y.size}")
    return x, y


def pearson_delta(pred_delta, true_delta) -> float:
    """Pearson correlation of predicted vs true expression deltas."""
    x, y = _pair(pred_delta, true_delta)
    if x.size < 2:
        raise DegenerateError("need at least 2 genes")
    xc = x - x.mean()
    yc = y - y.mean()
    nx = np.sqrt((xc * xc).sum())
    ny = np.sqrt((yc * yc).sum())
    if nx == 0.0 or ny == 0.0:
        raise DegenerateError("correlation undefined for a constant vector")
    return float((xc * yc).sum() / (nx * ny))


def rank_average_ties(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions.
    NaNs rank last, each in a group of its own."""
    x = np.asarray(x, dtype=np.float64)
    # the tie group at sorted positions i..j (0-based) gets (i + j) / 2 + 1
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[group]


def _weighted_pearson(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    wsum = w.sum()
    mx = (w * x).sum() / wsum
    my = (w * y).sum() / wsum
    cov = (w * (x - mx) * (y - my)).sum() / wsum
    vx = (w * (x - mx) ** 2).sum() / wsum
    vy = (w * (y - my) ** 2).sum() / wsum
    if vx == 0.0 or vy == 0.0:
        raise DegenerateError("weighted correlation undefined for constant ranks")
    return float(cov / np.sqrt(vx * vy))


def de_spearman_lfc(pred_delta_deg, true_delta_deg, weights=None) -> float:
    """Weighted Spearman over DEGs: weighted Pearson on average-tie ranks,
    weighted by |true delta| unless explicit weights are given."""
    x, y = _pair(pred_delta_deg, true_delta_deg)
    if x.size < 2:
        raise DegenerateError("need at least 2 DEGs")
    w = np.abs(y) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size != x.size:
        raise ShapeError("weights length mismatch")
    if np.any(w < 0):
        raise UsageError("weights must be nonnegative")
    if not np.any(w > 0):
        raise DegenerateError("all-zero weights")
    return _weighted_pearson(rank_average_ties(x), rank_average_ties(y), w)


def de_spearman_sig(pred_delta_deg, true_delta_deg) -> float:
    """Plain Spearman over DEGs (the uniform-weight case of the weighted variant)."""
    x, y = _pair(pred_delta_deg, true_delta_deg)
    return de_spearman_lfc(x, y, weights=np.ones(x.size))


def direction_match(pred_delta_deg, true_delta_deg) -> float:
    """Fraction of DEGs whose predicted and true signs agree (sign(0) = 0)."""
    x, y = _pair(pred_delta_deg, true_delta_deg)
    if x.size < 1:
        raise DegenerateError("need at least 1 DEG")
    return float(np.mean(np.sign(x) == np.sign(y)))


def _l1_distances(pred: np.ndarray, true: np.ndarray) -> np.ndarray:
    """(P, P) matrix of sum_g |pred[p, g] - true[t, g]|, added one gene at a time.

    A gene's (P, P) block of differences is the rank-2 product
    [pred[:, g], 1] @ [1; -true[:, g]]. Both products are exact, so every
    entry is the correctly rounded pred - true, the term the pairwise form
    sums; the product runs about three times faster than numpy's broadcast
    subtraction.
    """
    n = pred.shape[0]
    lhs, rhs = np.ones((n, 2)), np.ones((2, n))
    diff, dist = np.empty((n, n)), np.zeros((n, n))
    for p_col, neg_t_col in zip(pred.T, -true.T):
        lhs[:, 0], rhs[1] = p_col, neg_t_col
        np.matmul(lhs, rhs, out=diff)
        dist += np.abs(diff, out=diff)
    return dist


def pds(
    pred_deltas: dict[str, np.ndarray],
    true_deltas: dict[str, np.ndarray],
) -> tuple[dict[str, float], float]:
    """Discrimination score: is a prediction L1-closest to its own true effect?

    rank r_p counts strictly closer foreign effects; the score is
    1 - (r_p - 1)/|T| per perturbation, averaged over the test set.

    d(p, t) is float(np.abs(pred_p - true_t).sum()). The distance matrix sums
    in another order, off by less than a relative (G - 1) * eps/2 from the
    exact sum, so a foreign distance within a relative 2 * G * eps of the own
    one is summed again the pairwise way; the ranks are exactly the loop's.
    """
    names = sorted(pred_deltas)
    if not names:
        raise UsageError("need at least one perturbation")
    if set(names) != set(true_deltas):
        raise UsageError("prediction and truth keys differ")
    t_count = len(names)
    pred = np.stack([np.asarray(pred_deltas[p], dtype=np.float64).reshape(-1) for p in names])
    true = np.stack([np.asarray(true_deltas[p], dtype=np.float64).reshape(-1) for p in names])

    def distance(i: int, j: int) -> float:
        return float(np.abs(pred[i] - true[j]).sum())

    own = np.array([distance(i, i) for i in range(t_count)])[:, None]
    dist = _l1_distances(pred, true)
    closer = dist < own
    # NaN or inf distances fail the comparison, so they are summed again too
    near = ~(np.abs(dist - own) > 2 * pred.shape[1] * np.finfo(np.float64).eps * np.maximum(dist, own))
    np.fill_diagonal(near, False)
    np.fill_diagonal(closer, False)
    for i, j in zip(*np.nonzero(near)):
        closer[i, j] = distance(i, j) < own[i, 0]
    ranks = 1 + closer.sum(axis=1)
    scores = {p: 1.0 - (int(rank) - 1) / t_count for p, rank in zip(names, ranks)}
    return scores, float(np.mean(list(scores.values())))


def des_fdr(g_true: set[int], g_pred: set[int]) -> float:
    """Fraction of true DEGs recovered in the predicted significant set."""
    if not g_true:
        raise DegenerateError("true DEG set is empty")
    return len(set(g_true) & set(g_pred)) / len(g_true)


def predicted_deg_set(
    control_block: np.ndarray,
    pred_delta: np.ndarray,
    alpha: float = 0.05,
    correction: str = "none",
    control_stats: GroupStats | None = None,
) -> set[int]:
    """Significant genes of a predicted profile, by Welch against control.

    The predicted condition is materialized as the control samples shifted by
    the predicted delta, so a single predicted profile is testable against the
    control variance with the same settings used for the ground truth.
    `control_stats`, when given, is `group_stats(control_block)`, computed
    once for many predictions.
    """
    is_deg = deg_rule(alpha, correction)
    shifted = control_block + np.asarray(pred_delta, dtype=np.float64).reshape(1, -1)
    p = welch_pvalues(control_block if control_stats is None else control_stats, shifted)
    return set(np.flatnonzero(is_deg(p)).tolist())


def des_at_k(pred_delta: np.ndarray, g_true: set[int], k: int) -> float:
    """Fraction of true DEGs in the k genes with the largest |predicted delta|.

    Magnitude ties break toward the lower gene index and NaN ranks last; the
    denominator is min(k, |g_true|) so a perfect ranker scores 1 even when
    k < |g_true|. The top k are the magnitudes above the k-th largest, v,
    plus the lowest-index genes at v, found with one partition.
    """
    check_range("k", k, 1)
    if not g_true:
        raise DegenerateError("true DEG set is empty")
    mag = np.abs(np.asarray(pred_delta, dtype=np.float64).reshape(-1))
    mag[np.isnan(mag)] = -1.0
    if k >= mag.size:
        top = np.arange(mag.size)
    else:
        v = np.partition(mag, mag.size - k)[mag.size - k]
        above = np.flatnonzero(mag > v)
        top = np.concatenate([above, np.flatnonzero(mag == v)[: k - above.size]])
    return len(set(g_true).intersection(top.tolist())) / min(k, len(g_true))


# --- reporting -----------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-perturbation metric values plus overall and stratum aggregates."""

    overall: dict[str, dict[str, float]]
    strata: dict[str, dict[str, dict[str, float]]]
    per_perturbation: dict[str, dict[str, float | None]]

    def to_json_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_json(self.to_json_dict(), path)


def _aggregate(values: list[float | None]) -> dict[str, float | None]:
    """Mean, population std and count of the values that are not None."""
    arr = np.array([v for v in values if v is not None], dtype=np.float64)
    if not arr.size:
        return {"mean": None, "std": None, "n": 0}
    return {"mean": float(arr.mean()), "std": float(arr.std()), "n": int(arr.size)}


def report(
    per_perturbation: dict[str, dict[str, float | None]],
    strata: dict[str, str] | None = None,
) -> MetricsReport:
    """Aggregate per-perturbation metrics: mean with population std, overall and
    per stratum; None entries (undefined metrics) are excluded from the counts."""
    strata = strata or {}
    missing = set(strata) - set(per_perturbation)
    if missing:
        raise UsageError(f"strata reference unknown perturbations: {sorted(missing)}")
    metric_names = sorted({m for row in per_perturbation.values() for m in row})

    def collect(names):
        return {m: _aggregate([per_perturbation[p].get(m) for p in names]) for m in metric_names}

    return MetricsReport(
        overall=collect(sorted(per_perturbation)),
        strata={s: collect(sorted(p for p in strata if strata[p] == s)) for s in sorted(set(strata.values()))},
        per_perturbation={p: dict(per_perturbation[p]) for p in sorted(per_perturbation)},
    )


def write_scatter_csv(path, genes: list[str], delta_true: np.ndarray, delta_pred: np.ndarray, deg_mask: np.ndarray) -> None:
    """Per-gene true/predicted delta pairs with the DEG flag, for scatter plotting."""
    rows = zip(genes, delta_true.tolist(), delta_pred.tolist(), deg_mask.astype(int).tolist())
    write_csv(path, ["gene", "delta_true", "delta_pred", "is_deg"], rows)


def evaluate_predictions(
    dataset,
    predictions: dict[str, np.ndarray],
    perts: list[str],
    alpha: float = 0.05,
    correction: str = "none",
    des_k: tuple[int, ...] = (10, 50, 100),
):
    """Score predicted absolute profiles against the dataset's ground truth.

    Returns (MetricsReport, truth DegTable). A metric that raises
    DegenerateError for a perturbation (no true DEGs, fewer than 2 DEGs, a
    constant delta) is undefined there: it comes back as None and is excluded
    from the aggregates and their counts.
    """
    perts = sorted(perts)
    if not perts:
        raise UsageError("no perturbations to evaluate")
    missing = [p for p in perts if p not in predictions]
    if missing:
        raise UsageError(f"missing predictions for {missing}")
    profiles = {p: np.asarray(predictions[p], dtype=np.float64).reshape(-1) for p in perts}
    for p, x in profiles.items():
        if x.size != dataset.n_genes:
            raise ShapeError(f"prediction for {p} has {x.size} genes, the dataset has {dataset.n_genes}")
        if not np.isfinite(x).all():
            raise NumericalError(f"prediction for {p} holds non-finite values")
    truth = compute_degs(dataset, alpha=alpha, correction=correction, perturbations=perts)
    control = group_stats(dataset.control)
    xbar_c = control.mean
    pred_deltas = {p: x - xbar_c for p, x in profiles.items()}
    true_deltas = {p: truth.deltas[p] for p in perts}
    pds_scores, _ = pds(pred_deltas, true_deltas)

    per: dict[str, dict[str, float | None]] = {}
    for p in perts:
        dp, dt = pred_deltas[p], true_deltas[p]
        deg_idx = truth.deg_indices(p)
        dp_deg, dt_deg = dp[deg_idx], dt[deg_idx]
        g_true = set(deg_idx.tolist())
        # the Welch test of a prediction runs only where there are DEGs to recover
        g_pred = predicted_deg_set(dataset.control, dp, alpha, correction, control) if g_true else set()
        per[p] = {
            "pds": pds_scores[p],
            "pearson_delta": _unless_degenerate(pearson_delta, dp, dt),
            "des_fdr": _unless_degenerate(des_fdr, g_true, g_pred),
            **{f"des_at_{k}": _unless_degenerate(des_at_k, dp, g_true, k) for k in des_k},
            "de_spearman_sig": _unless_degenerate(de_spearman_sig, dp_deg, dt_deg),
            "de_spearman_lfc": _unless_degenerate(de_spearman_lfc, dp_deg, dt_deg),
            "direction_match": _unless_degenerate(direction_match, dp_deg, dt_deg),
        }
    return report(per, effect_size_strata(truth)), truth


def _unless_degenerate(metric, *args) -> float | None:
    """`metric(*args)`, or None where the metric is undefined."""
    try:
        return metric(*args)
    except DegenerateError:
        return None
