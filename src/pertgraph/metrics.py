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

from .data import GroupStats, compute_degs, deg_rule, effect_size_strata, group_stats, in_halves, row_chunks, shifted_pvalues, t_thresholds
from .errors import DegenerateError, NumericalError, ShapeError, UsageError, check_range, first_repeat, write_csv, write_json

# A metric given (P, G) blocks, one perturbation a row, scores each row and
# returns a list with None where the row's metric is undefined. Any other
# argument is one row: its value comes back as a float, or DegenerateError is
# raised where it is undefined. Rows are reduced along their own axis, so a
# row's value is bit for bit the one it gets alone.


def _rows(a) -> np.ndarray:
    """`a` as float64 rows: a 2-D argument as it is, anything else as one row."""
    x = np.asarray(a, dtype=np.float64)
    return x if x.ndim == 2 else x.reshape(1, -1)


def _row_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x, y = _rows(a), _rows(b)
    if x.shape != y.shape:
        raise ShapeError(f"shapes differ: {np.shape(a)} vs {np.shape(b)}")
    return x, y


def _per_row(values: np.ndarray, undefined: np.ndarray, why: str, block: bool):
    """The values of a block's rows, None where undefined; or one row's
    value, or DegenerateError(why) where it is undefined."""
    if block:
        return [None if u else v for v, u in zip(values.tolist(), undefined.tolist())]
    if undefined[0]:
        raise DegenerateError(why)
    return float(values[0])


def pearson_delta(pred_delta, true_delta):
    """Pearson correlation of predicted vs true expression deltas."""
    x, y = _row_pair(pred_delta, true_delta)
    block = np.ndim(pred_delta) == 2
    if x.shape[1] < 2:
        return _per_row(np.zeros(len(x)), np.ones(len(x), dtype=bool), "need at least 2 genes", block)
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    nx = np.sqrt((xc * xc).sum(axis=1))
    ny = np.sqrt((yc * yc).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (xc * yc).sum(axis=1) / (nx * ny)
    return _per_row(r, (nx == 0.0) | (ny == 0.0), "correlation undefined for a constant vector", block)


def rank_rows(values, lengths) -> np.ndarray:
    """1-based ranks of `values` within each of its consecutive segments,
    `lengths` values long; tied values share the average of their positions,
    and NaNs rank last, each in a group of its own, in the order they come.
    One sort by value, then one by (segment, place in that sort), ranks
    every segment. The order within a tie group does not change its ranks,
    so neither sort need be stable, but the NaNs at each segment's end are
    put back in their own order."""
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    seg = np.repeat(np.arange(lengths.size), lengths)
    place = np.empty(values.size, dtype=np.int64)
    place[np.argsort(values)] = np.arange(values.size)
    order = np.argsort(seg * values.size + place)  # distinct keys
    v = values[order]  # seg is sorted already, so seg[order] == seg
    nan = np.isnan(v)
    if nan.any():
        order[nan] = np.sort(order[nan])
    first = np.ones(v.size, dtype=bool)
    first[1:] = (seg[1:] != seg[:-1]) | ~(v[1:] == v[:-1])  # NaN equals nothing
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], v.size)
    # the tie group at sorted positions i..j (0-based within its segment) gets (i + j) / 2 + 1
    offset = (np.cumsum(lengths) - lengths)[seg[starts]]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) - offset + 1.0, ends - starts)
    return ranks


def _weighted_pearson_rows(x: np.ndarray, y: np.ndarray, w: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weighted Pearson correlation of each consecutive segment of x and
    y, `lengths` values long, under the weights w >= 0, and the segments
    where it is undefined: x or y takes one value over the positive weights
    (found exactly: equal values can leave a variance that rounds above 0),
    or a variance underflows to 0. The elementwise work runs on the whole
    arrays; each segment's sums are numpy's `.sum()` of its own values, the
    sums it gets alone (np.add.reduceat adds in another order)."""
    ends = np.cumsum(lengths)
    bounds = list(zip((ends - lengths).tolist(), ends.tolist()))

    def sums(*terms):  # each term's sum over each segment, one column a term
        stacked = np.stack(terms)
        return np.array([stacked[:, lo:hi].sum(axis=1) for lo, hi in bounds]).reshape(len(bounds), len(terms)).T

    seg = np.repeat(np.arange(lengths.size), lengths)[w > 0]

    def varies(v):  # whether each segment's values at positive weight differ
        v = v[w > 0]
        return np.bincount(seg[1:][(seg[1:] == seg[:-1]) & (v[1:] != v[:-1])], minlength=lengths.size) > 0

    with np.errstate(divide="ignore", invalid="ignore"):
        wsum, wx, wy = sums(w, w * x, w * y)
        dx, dy = x - np.repeat(wx / wsum, lengths), y - np.repeat(wy / wsum, lengths)
        cov, vx, vy = sums(w * dx * dy, w * dx**2, w * dy**2) / wsum
        return cov / np.sqrt(vx * vy), ~(varies(x) & varies(y)) | (vx == 0.0) | (vy == 0.0)


def _deg_rows(deg, shape: tuple[int, int]) -> np.ndarray:
    """The bool mask `deg` as (P, G) rows of `shape`, all True when `deg` is None.
    One row's mask may also be (G,); any other shape is a ShapeError naming both.
    A mask of another dtype (a set, a list of indices, 0/1 integers) is a UsageError."""
    mask = np.ones(shape, dtype=bool) if deg is None else np.asarray(deg)
    if mask.dtype != bool:
        raise UsageError(f"a DEG mask must be a bool array, got dtype {mask.dtype}")
    if mask.shape != shape and not (shape[0] == 1 and mask.shape == shape[1:]):
        raise ShapeError(f"DEG mask shape {mask.shape} does not fit rows of shape {shape}")
    return mask.reshape(shape)


def de_spearman_lfc(pred_delta_deg, true_delta_deg, deg=None, *, weights=None):
    """Weighted Spearman over DEGs: weighted Pearson on average-tie ranks,
    weighted by |true delta| unless explicit weights are given. `deg`, when
    given, is a bool mask of the arguments' shape that picks the DEGs out of
    whole deltas; explicit weights have the arguments' shape too. A row is
    undefined with fewer than 2 DEGs, all-zero weights or ranks constant
    over the DEGs of positive weight.
    One `rank_rows` call ranks both deltas of every row."""
    x, y = _row_pair(pred_delta_deg, true_delta_deg)
    block = np.ndim(pred_delta_deg) == 2
    where = _deg_rows(deg, x.shape)
    lengths = where.sum(axis=1)
    if not block and lengths[0] < 2:
        raise DegenerateError("need at least 2 DEGs")
    w = None if weights is None else _rows(weights)
    if w is not None and w.shape != x.shape:
        raise ShapeError(f"weights shape {np.shape(weights)} differs from the deltas' {x.shape}")
    at = np.flatnonzero(where)  # the DEGs, row after row
    xs, ys = np.take(x, at), np.take(y, at)
    w = np.abs(ys) if w is None else np.take(w, at)
    bad = w[~(np.isfinite(w) & (w >= 0))]
    if bad.size:
        raise UsageError(f"weights must be finite and >= 0, got {bad[0]}")
    if not block and not np.any(w > 0):
        raise DegenerateError("all-zero weights")
    ranks = rank_rows(np.concatenate([xs, ys]), np.concatenate([lengths, lengths]))
    r, undefined = _weighted_pearson_rows(ranks[: at.size], ranks[at.size :], w, lengths)
    return _per_row(r, undefined, "weighted correlation undefined for constant ranks", block)


def de_spearman_sig(pred_delta_deg, true_delta_deg, deg=None):
    """Plain Spearman over DEGs (the uniform-weight case of the weighted variant)."""
    return de_spearman_lfc(pred_delta_deg, true_delta_deg, deg, weights=np.ones(np.shape(pred_delta_deg)))


def direction_match(pred_delta_deg, true_delta_deg, deg=None):
    """Fraction of DEGs whose predicted and true signs agree (sign(0) = 0).
    `deg`, when given, is a bool mask of the arguments' shape that picks the
    DEGs out of whole deltas."""
    x, y = _row_pair(pred_delta_deg, true_delta_deg)
    where = _deg_rows(deg, x.shape)
    n = where.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = ((np.sign(x) == np.sign(y)) & where).sum(axis=1) / n
    return _per_row(share, n < 1, "need at least 1 DEG", np.ndim(pred_delta_deg) == 2)


def _l1_distances(pred: np.ndarray, true: np.ndarray) -> np.ndarray:
    """(P, P) matrix of sum_g |pred[p, g] - true[t, g]|: each of two fixed
    gene halves added one gene at a time, then the two halves' sums.

    A gene's (P, P) block of differences is the rank-2 product
    [pred[:, g], 1] @ [1; -true[:, g]]. Both products are exact, so every
    entry is the correctly rounded pred - true, the term the pairwise form
    sums; the product runs about three times faster than numpy's broadcast
    subtraction. The two running sums and their sum round G - 1 times in
    all, as one running sum does, so each entry stays within a relative
    (G - 1) * eps/2 of the exact sum, inside the 2 * G * eps band in which
    `pds` sums a near pair again. The halves run as `data.in_halves` says:
    the second on a helper thread once each product holds SPLIT_STEP_VALUES
    entries (182 perturbations and up), each half on buffers of its own.
    """
    n = pred.shape[0]
    neg_true = -true.T

    def half(lo: int, hi: int) -> np.ndarray:
        lhs, rhs = np.ones((n, 2)), np.ones((2, n))
        diff, dist = np.empty((n, n)), np.zeros((n, n))
        for p_col, neg_t_col in zip(pred.T[lo:hi], neg_true[lo:hi]):
            lhs[:, 0], rhs[1] = p_col, neg_t_col
            np.matmul(lhs, rhs, out=diff)
            dist += np.abs(diff, out=diff)
        return dist

    first, second = in_halves(half, pred.shape[1], n * n)
    return np.add(first, second, out=first)


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


def des_fdr(g_true, g_pred):
    """Fraction of true DEGs recovered in the predicted significant set; the two
    are bool masks of one shape, (G,) or (P, G) with one perturbation a row."""
    block = np.ndim(g_true) == 2
    true = _deg_rows(g_true, np.shape(g_true) if block else (1, np.size(g_true)))
    pred = _deg_rows(g_pred, true.shape)
    n_true = true.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = (true & pred).sum(axis=1) / n_true
    return _per_row(share, n_true == 0, "true DEG set is empty", block)


SPREAD_RTOL = 1e-6  # the largest rounding-to-spread ratio w decided in closed form


def predicted_deg_set(
    control_block: np.ndarray,
    pred_delta: np.ndarray,
    alpha: float = 0.05,
    correction: str = "none",
    control_stats: GroupStats | None = None,
):
    """Significant genes of a predicted profile, by Welch against control.

    The predicted condition is the control samples shifted by the predicted
    delta, so a single predicted profile is testable against the control
    variance with the same settings used for the ground truth.
    `control_stats`, when given, is `group_stats(control_block)`, computed
    once for many predictions. The set is a bool mask of the delta's shape:
    (G,) for one prediction, (P, G) for a block, one prediction a row. The
    genes tested take `data.shifted_pvalues`: one Welch call per G of them,
    whatever rows they are in (one per row under "benjamini-hochberg", where
    BH adjusts each row on its own), none when there are none.

    Under correction "none" no shifted copy is built. It has the control's n
    and, up to rounding, std s, so its t is d / (s sqrt(2/n)) with df 2(n - 1).
    Its values and sums are within about n eps M of exact, M = max |c| + |d|
    in the column; with w = (n + 3) eps M / s, |t| is off by less than
    2 w (sqrt(n) + 2|t|) and df falls by a relative 8 w^2 at most. Genes with
    w < SPREAD_RTOL and |t| that far clear of the thresholds are decided by
    |t|; the rest (zero spread, a spread the shift can round away, |t| near a
    threshold) take the materialised test, as every gene does under
    "benjamini-hochberg".
    """
    is_deg = deg_rule(alpha, correction)
    d = _rows(pred_delta)
    c = group_stats(control_block) if control_stats is None else control_stats
    if correction != "none":
        sig = is_deg(shifted_pvalues(control_block, c, d, np.arange(d.size)).reshape(d.shape))
    else:
        n = c.n
        t_lo, t_hi = t_thresholds(2 * (n - 1) * (1 - 8 * SPREAD_RTOL**2), 2 * (n - 1), alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sqrt(c.var)
            t = np.abs(d) / (s * np.sqrt(2 / n))
            w = (n + 3) * np.finfo(np.float64).eps * (np.maximum(np.abs(c.max), np.abs(c.min)) + np.abs(d)) / s
            tol = 2 * w * (np.sqrt(n) + 2 * t)
            known = w < SPREAD_RTOL
            sig = known & (t - tol > t_hi)
            retest = ~(sig | known & (t + tol < t_lo))
        sig[retest] = is_deg(shifted_pvalues(control_block, c, d, np.flatnonzero(retest)))
    return sig if np.ndim(pred_delta) == 2 else sig[0]


def des_at_k(pred_delta: np.ndarray, g_true, k: int):
    """Fraction of true DEGs in the k genes with the largest |predicted delta|.

    `g_true` is the bool mask of the true DEGs, of the deltas' shape: (G,)
    for one delta, or (P, G) for a block, one row each. Magnitude ties break
    toward the lower gene index and NaN ranks last; the denominator is
    min(k, |g_true|) so a perfect ranker scores 1 even when k < |g_true|. The
    top k are the magnitudes above the k-th largest, v, plus the
    lowest-index genes at v, found with one partition.
    """
    check_range("k", k, 1)
    mag = np.abs(_rows(pred_delta))
    true = _deg_rows(g_true, mag.shape)
    mag[np.isnan(mag)] = -1.0
    n_genes = mag.shape[1]
    if k >= n_genes:
        top = np.ones(mag.shape, dtype=bool)
    else:
        v = np.partition(mag, n_genes - k, axis=1)[:, n_genes - k, None]
        above = mag > v
        at = mag == v
        top = above | at & (np.cumsum(at, axis=1) <= k - above.sum(axis=1, keepdims=True))
    n_true = true.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = (top & true).sum(axis=1) / np.minimum(k, n_true)
    return _per_row(share, n_true == 0, "true DEG set is empty", np.ndim(pred_delta) == 2)


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


def prediction_deltas(predictions: dict[str, np.ndarray], perts: list[str], xbar_c: np.ndarray) -> dict[str, np.ndarray]:
    """Each perturbation's predicted profile minus the control mean `xbar_c`.

    A prediction of the wrong width is a ShapeError; one holding NaN or inf,
    or one whose delta exceeds sqrt(max float / (4 G)) for G genes, where the
    metrics' sums of squares would overflow, is a NumericalError. Each names
    its perturbation.
    """
    n_genes = xbar_c.size
    bound = np.sqrt(np.finfo(np.float64).max / (4 * n_genes))
    deltas = {}
    for p in perts:
        x = np.asarray(predictions[p], dtype=np.float64).reshape(-1)
        if x.size != n_genes:
            raise ShapeError(f"prediction for {p} has {x.size} genes, the dataset has {n_genes}")
        if not np.isfinite(x).all():
            raise NumericalError(f"prediction for {p} holds non-finite values")
        deltas[p] = x - xbar_c
        largest = np.abs(deltas[p]).max()
        if not largest <= bound:
            raise NumericalError(
                f"prediction for {p} is too large to score: |delta| reaches {largest:.3g}, above {bound:.3g}"
            )
    return deltas


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
    from the aggregates and their counts. Every prediction must first pass
    `prediction_deltas`, and no perturbation may be listed twice.

    Every metric but PDS takes `row_chunks` of the perturbations at a time,
    their predicted and true deltas and DEG masks stacked into (rows, G)
    blocks; PDS takes all of them at once.
    """
    twice = first_repeat(perts)
    if twice is not None:
        raise UsageError(f"perturbation {twice!r} is listed twice")
    perts = sorted(perts)
    if not perts:
        raise UsageError("no perturbations to evaluate")
    missing = [p for p in perts if p not in predictions]
    if missing:
        raise UsageError(f"missing predictions for {missing}")
    control = group_stats(dataset.control)
    pred_deltas = prediction_deltas(predictions, perts, control.mean)
    truth = compute_degs(dataset, alpha=alpha, correction=correction, perturbations=perts, control_stats=control)
    true_deltas = {p: truth.deltas[p] for p in perts}
    pds_scores, _ = pds(pred_deltas, true_deltas)

    per: dict[str, dict[str, float | None]] = {}
    for rows in row_chunks(len(perts), dataset.n_genes):
        names = perts[rows]
        dp = np.stack([pred_deltas[p] for p in names])
        dt = np.stack([true_deltas[p] for p in names])
        deg = np.stack([truth.masks[p] for p in names])
        # the Welch test of a prediction runs only where there are DEGs to recover
        pred_deg = np.zeros(deg.shape, dtype=bool)
        tested = deg.any(axis=1)
        pred_deg[tested] = predicted_deg_set(dataset.control, dp[tested], alpha, correction, control)
        recall = des_fdr(deg, pred_deg)
        pearson = pearson_delta(dp, dt)
        top_k = {k: des_at_k(dp, deg, k) for k in des_k}
        direction = direction_match(dp, dt, deg)
        sig = de_spearman_sig(dp, dt, deg)
        lfc = de_spearman_lfc(dp, dt, deg)
        for i, p in enumerate(names):
            per[p] = {
                "pds": pds_scores[p],
                "pearson_delta": pearson[i],
                "des_fdr": recall[i],
                **{f"des_at_{k}": top_k[k][i] for k in des_k},
                "de_spearman_sig": sig[i],
                "de_spearman_lfc": lfc[i],
                "direction_match": direction[i],
            }
    return report(per, effect_size_strata(truth)), truth

