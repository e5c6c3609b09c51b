import numpy as np
import pytest

from pertgraph.data import DegTable, SynthConfig, compute_degs, synth_generate
from pertgraph.errors import DegenerateError, ShapeError, UsageError
from pertgraph.loss import (
    LossWeights,
    build_align_loss,
    build_non_deg_loss,
    build_recon_loss,
    build_total_loss,
    estimate_huber_delta,
    masked_response,
)
from pertgraph.numerics import NORM_EPS, Tape, grad_check, huber_value
from pertgraph.training import evaluate_batch

from conftest import build_toy_problem


# --- per-perturbation references ---------------------------------------------------
# Plain numpy evaluators of each term for one perturbation; the batched tape
# builders must equal the mean of these over the rows.


def recon_loss(x_hat: np.ndarray, xbar_p: np.ndarray) -> float:
    """Mean squared error over genes between prediction and perturbed pseudobulk."""
    a = np.asarray(x_hat, dtype=np.float64).reshape(-1)
    b = np.asarray(xbar_p, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ShapeError(f"profile lengths differ: {a.size} vs {b.size}")
    d = a - b
    return float((d * d).mean())


def non_deg_loss(x_hat: np.ndarray, xbar_c: np.ndarray, non_deg_mask: np.ndarray, delta: float) -> float:
    """Mean Huber penalty of the predicted change on non-DEG genes (0 when the set is empty)."""
    if delta <= 0:
        raise UsageError("huber delta must be positive")
    mask = np.asarray(non_deg_mask, dtype=bool).reshape(-1)
    if not mask.any():
        return 0.0
    r = (np.asarray(x_hat, dtype=np.float64) - np.asarray(xbar_c, dtype=np.float64)).reshape(-1)
    return float(huber_value(r[mask], delta).mean())


def align_loss(z_context: np.ndarray, delta: np.ndarray, deg_mask: np.ndarray, head: np.ndarray) -> float:
    """Squared distance between the unit context vector and the unit projected
    response target; 0 when either vector is (numerically) zero."""
    z = np.asarray(z_context, dtype=np.float64).reshape(-1)
    y = masked_response(delta, deg_mask).reshape(-1)
    if head.shape[0] != y.size or head.shape[1] != z.size:
        raise ShapeError(f"alignment head {head.shape} does not map {y.size} -> {z.size}")
    t = y @ head
    nz, nt = np.linalg.norm(z), np.linalg.norm(t)
    if nz <= NORM_EPS or nt <= NORM_EPS:
        return 0.0
    u = z / nz - t / nt
    return float(u @ u)


def total_loss(recon: float, non: float, align: float, weights: LossWeights) -> float:
    weights.validate()
    return recon + weights.lambda_non * non + weights.lambda_align * align


# --- reconstruction ---------------------------------------------------------------


def test_recon_zero_at_target():
    x = np.array([1.0, 2.0, 3.0])
    assert recon_loss(x, x) == 0.0


def test_recon_hand_value():
    assert recon_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_recon_matches_naive_loop():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=50), rng.normal(size=50)
    naive = sum((float(a[i]) - float(b[i])) ** 2 for i in range(50)) / 50
    assert abs(recon_loss(a, b) - naive) < 1e-12


def test_recon_dimension_error():
    with pytest.raises(ShapeError):
        recon_loss(np.ones(3), np.ones(4))


def test_recon_sum_decomposition():
    # squared residuals over DEGs plus non-DEGs equals the total, per batch
    rng = np.random.default_rng(6)
    for _ in range(10):
        resid = rng.normal(size=30)
        mask = rng.random(30) < 0.3
        total = float((resid**2).sum())
        parts = float((resid[mask] ** 2).sum()) + float((resid[~mask] ** 2).sum())
        assert abs(total - parts) <= 1e-12 * max(1.0, abs(total))


# --- huber threshold estimation ------------------------------------------------------


def table_with_deltas(deltas, mask):
    n = len(deltas)
    t = DegTable(alpha=0.05, correction="none", genes=[f"G{i}" for i in range(n)])
    t.pvalues["P"] = np.where(mask, 0.0, 1.0)
    t.masks["P"] = np.asarray(mask, dtype=bool)
    t.deltas["P"] = np.asarray(deltas, dtype=np.float64)
    return t


def test_estimate_huber_delta_population_std():
    t = table_with_deltas([-1.0, 1.0, 5.0], [False, False, True])
    assert estimate_huber_delta(t) == pytest.approx(1.0)
    assert estimate_huber_delta(t, scale=2.0) == pytest.approx(2.0)


def test_estimate_huber_delta_degenerate():
    t = table_with_deltas([0.0, 0.0, 3.0], [False, False, True])
    with pytest.raises(DegenerateError):
        estimate_huber_delta(t)
    all_deg = table_with_deltas([1.0, 2.0], [True, True])
    with pytest.raises(DegenerateError):
        estimate_huber_delta(all_deg)


def test_estimate_huber_delta_monte_carlo_scale():
    # non-DEG deltas are differences of two noisy group means:
    # std = sigma * sqrt(2 / cells)
    sigma, cells = 0.1, 20
    cfg = SynthConfig(
        n_genes=400, n_perturbations=4, cells_per_condition=cells,
        effect_magnitude=3.0, noise_sigma=sigma, embed_dim=4,
    )
    synth = synth_generate(cfg, seed=21)
    table = compute_degs(synth.dataset)
    est = estimate_huber_delta(table)
    expected = sigma * np.sqrt(2.0 / cells)
    assert abs(est - expected) / expected < 0.2


# --- non-DEG suppression ----------------------------------------------------------------


def test_non_deg_loss_branch_values():
    xbar_c = np.zeros(2)
    mask = np.array([True, False])
    assert non_deg_loss(np.array([0.5, 9.0]), xbar_c, mask, delta=1.0) == pytest.approx(0.125)
    assert non_deg_loss(np.array([2.0, 9.0]), xbar_c, mask, delta=1.0) == pytest.approx(1.5)


def test_non_deg_loss_empty_set_is_zero():
    assert non_deg_loss(np.ones(3), np.zeros(3), np.zeros(3, dtype=bool), delta=1.0) == 0.0


def test_non_deg_loss_zero_at_control():
    xbar_c = np.array([0.5, 1.5, 0.2])
    assert non_deg_loss(xbar_c.copy(), xbar_c, np.ones(3, dtype=bool), delta=1.0) == 0.0


def test_huber_continuity_at_kink():
    for delta in (0.5, 1.0, 2.0):
        eps = 1e-9
        below = huber_value(np.array(delta - eps), delta)
        above = huber_value(np.array(delta + eps), delta)
        assert abs(below - above) < 1e-8
        assert huber_value(np.array(delta), delta) == pytest.approx(0.5 * delta * delta)


# --- alignment -------------------------------------------------------------------------


def identity_head(n):
    return np.eye(n)


def test_align_loss_parallel_vectors_zero():
    delta = np.array([1.0, -2.0, 0.5])
    mask = np.ones(3, dtype=bool)
    z = 2.0 * delta  # parallel with positive scale
    assert align_loss(z, delta, mask, identity_head(3)) == pytest.approx(0.0, abs=1e-15)


def test_align_loss_antipodal_is_four():
    delta = np.array([1.0, -2.0, 0.5])
    mask = np.ones(3, dtype=bool)
    assert align_loss(-delta, delta, mask, identity_head(3)) == pytest.approx(4.0)


def test_align_loss_orthogonal_is_two():
    delta = np.array([1.0, 0.0])
    mask = np.ones(2, dtype=bool)
    z = np.array([0.0, 3.0])
    assert align_loss(z, delta, mask, identity_head(2)) == pytest.approx(2.0)


def test_align_loss_degenerate_norms_zero():
    delta = np.array([1.0, 1.0])
    mask = np.zeros(2, dtype=bool)  # masked response is all zero -> zero target
    assert align_loss(np.array([1.0, 0.0]), delta, mask, identity_head(2)) == 0.0
    assert align_loss(np.zeros(2), delta, np.ones(2, dtype=bool), identity_head(2)) == 0.0


def test_masked_response_zeroes_non_degs():
    y = masked_response(np.array([1.0, -2.0, 3.0]), np.array([True, False, True]))
    assert np.array_equal(y, [1.0, 0.0, 3.0])


# --- total -----------------------------------------------------------------------------


def test_total_loss_weighted_sum():
    w = LossWeights(lambda_non=0.5, lambda_align=0.5)
    assert total_loss(1.0, 2.0, 3.0, w) == pytest.approx(3.5)
    recon_only = LossWeights(lambda_non=0.0, lambda_align=0.0)
    assert total_loss(1.7, 9.0, 9.0, recon_only) == pytest.approx(1.7)


def test_total_loss_composition_oracle(toy_problem):
    t = toy_problem
    parts, _, sels = evaluate_batch(
        t.params, t.perts, t.xbar_c, t.targets, t.graph, t.embeddings,
        t.deg_table, t.weights, huber_delta=t.weights.huber_delta, mode="eval",
    )
    # recompose from the numpy-level ops per perturbation
    from pertgraph.model import forward

    recon_vals, non_vals, align_vals = [], [], []
    for p in t.perts:
        r = forward(t.xbar_c, p, t.graph, t.embeddings, t.params, mode="eval")
        recon_vals.append(recon_loss(r.x_hat, t.targets[p]))
        non_vals.append(
            non_deg_loss(r.x_hat, t.xbar_c, t.deg_table.non_deg_mask(p), t.weights.huber_delta)
        )
        align_vals.append(
            align_loss(r.z_context, t.deg_table.deltas[p], t.deg_table.deg_mask(p), t.params.values["align.proj"])
        )
    assert parts.recon == pytest.approx(np.mean(recon_vals), abs=1e-12)
    assert parts.non == pytest.approx(np.mean(non_vals), abs=1e-12)
    assert parts.align == pytest.approx(np.mean(align_vals), abs=1e-12)
    assert parts.total == pytest.approx(
        np.mean([total_loss(r, n, a, t.weights) for r, n, a in zip(recon_vals, non_vals, align_vals)]),
        abs=1e-12,
    )
    assert all(v >= 0.0 for v in (parts.recon, parts.non, parts.align, parts.total))


def batch_case(b, seed=0, n=7, d=3):
    """Random blocks for b perturbations; with b >= 3, row 1 is all DEGs (no
    non-DEG gene) and row 2 has no DEGs (a zero alignment target)."""
    rng = np.random.default_rng(seed)
    deg = rng.uniform(size=(b, n)) < 0.4
    deg[:, 0] = True
    if b >= 3:
        deg[1], deg[2] = True, False
    blocks = {
        "x_hat": rng.normal(size=(b, n)), "z": rng.normal(size=(b, d)), "head": rng.normal(size=(n, d)),
        "targets": rng.normal(size=(b, n)), "deltas": rng.normal(size=(b, n)), "xbar_c": rng.normal(size=n),
    }
    return blocks, deg


def build_batch_terms(blocks, deg, weights, delta):
    tape = Tape()
    x_hat, z, head = (tape.param(blocks[k], k) for k in ("x_hat", "z", "head"))
    recon = build_recon_loss(tape, x_hat, blocks["targets"])
    non = build_non_deg_loss(tape, x_hat, blocks["xbar_c"], ~deg, delta)
    align = build_align_loss(tape, z, blocks["deltas"], deg, head)
    ids = (recon, non, align, build_total_loss(tape, recon, non, align, weights))
    return tape, ids


@pytest.mark.parametrize("b", [1, 4])
def test_batch_loss_builders_match_mean_of_row_oracles(b):
    blocks, deg = batch_case(b)
    weights, delta = LossWeights(lambda_non=0.7, lambda_align=0.3), 0.8
    tape, ids = build_batch_terms(blocks, deg, weights, delta)
    rows = [
        (
            recon_loss(blocks["x_hat"][i], blocks["targets"][i]),
            non_deg_loss(blocks["x_hat"][i], blocks["xbar_c"], ~deg[i], delta),
            align_loss(blocks["z"][i], blocks["deltas"][i], deg[i], blocks["head"]),
        )
        for i in range(b)
    ]
    if b >= 3:
        assert rows[1][1] == 0.0 and rows[2][2] == 0.0
    expected = [*np.mean(rows, axis=0), np.mean([total_loss(*row, weights) for row in rows])]
    for nid, want in zip(ids, expected):
        assert tape.value(nid)[0, 0] == pytest.approx(want, abs=1e-12)


def test_batch_loss_gradients_with_empty_rows_match_finite_differences():
    blocks, deg = batch_case(4, seed=1)
    weights = LossWeights(lambda_non=0.7, lambda_align=0.3)

    def fn(values):
        tape, ids = build_batch_terms({**blocks, **values}, deg, weights, 0.8)
        tape.backward(ids[-1])
        return tape.value(ids[-1])[0, 0], tape.grads_by_name()

    params = {k: blocks[k].copy() for k in ("x_hat", "z", "head")}
    assert grad_check(fn, params, eps=1e-5) < 1e-4


def test_loss_weights_validation():
    with pytest.raises(UsageError):
        LossWeights(lambda_non=-0.1).validate()
    with pytest.raises(UsageError):
        LossWeights(huber_delta=0.0).validate()


# --- gradient fidelity -------------------------------------------------------------------


def make_objective_fn(problem, objective, mode):
    """Capture the selection at the base point, then freeze it for FD probes."""
    seeds = {p: 1000 + i for i, p in enumerate(problem.perts)} if mode == "train" else None
    _, _, frozen = evaluate_batch(
        problem.params, problem.perts, problem.xbar_c, problem.targets,
        problem.graph, problem.embeddings, problem.deg_table, problem.weights,
        huber_delta=problem.weights.huber_delta, mode=mode, gumbel_seeds=seeds,
    )

    def fn(_values):
        parts, grads, _ = evaluate_batch(
            problem.params, problem.perts, problem.xbar_c, problem.targets,
            problem.graph, problem.embeddings, problem.deg_table, problem.weights,
            huber_delta=problem.weights.huber_delta, mode=mode,
            gumbel_seeds=seeds, frozen_selections=frozen, objective=objective,
        )
        return getattr(parts, objective), grads

    return fn


@pytest.mark.parametrize("objective", ["recon", "non", "align", "total"])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_loss_gradients_match_finite_differences(objective, mode):
    problem = build_toy_problem(seed=3)
    fn = make_objective_fn(problem, objective, mode)
    assert grad_check(fn, problem.params.values, eps=1e-5) < 1e-4


@pytest.mark.parametrize(
    "option",
    [{"weighted_aggregation": True}, {"selection_mode": "top_m", "select_top_m": 3}],
    ids=["weighted_aggregation", "top_m"],
)
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_model_option_gradients_match_finite_differences(option, mode):
    problem = build_toy_problem(seed=3, **option)
    fn = make_objective_fn(problem, "total", mode)
    assert grad_check(fn, problem.params.values, eps=1e-5) < 1e-4


def test_no_context_gradients_match_finite_differences():
    problem = build_toy_problem(seed=4, no_context=True)
    fn = make_objective_fn(problem, "total", "eval")
    assert grad_check(fn, problem.params.values, eps=1e-5) < 1e-4
