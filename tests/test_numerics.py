import contextlib
import threading

import numpy as np
import pytest
import scipy.sparse

from pertgraph import data
from pertgraph.errors import ShapeError, UsageError
from pertgraph.model import ModelConfig, init_params
from pertgraph.numerics import (
    ADAM_BLOCK_VALUES,
    OP_KINDS,
    AdamState,
    Tape,
    adam_step,
    as_matrix,
    grad_check,
    huber_value,
    sgd_step,
)

from conftest import two_threads


def tape_eval(kind, *arrays, **attrs):
    t = Tape()
    ids = [t.constant(a) for a in arrays]
    return t.value(t.apply(kind, *ids, **attrs))


# --- forward values ----------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(tape_eval("matmul", a, np.eye(2)), a)


def test_relu_definition():
    out = tape_eval("relu", [-1.0, 0.0, 2.0])
    assert np.array_equal(out, [[0.0, 0.0, 2.0]])


def test_cosine_distance_identical_vectors_is_zero():
    v = np.array([[0.3, -1.2, 0.7]])
    assert tape_eval("cosine-distance", v, v)[0, 0] == 0.0


def test_cosine_distance_degenerate_norm_returns_zero():
    v = np.zeros((1, 3))
    u = np.array([[1.0, 0.0, 0.0]])
    assert tape_eval("cosine-distance", v, u)[0, 0] == 0.0


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = rng.uniform(-5, 5, size=(6, 9))
    s = tape_eval("row-softmax", x)
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)


def test_huber_branch_values():
    assert huber_value(np.array(0.5), 1.0) == pytest.approx(0.125)
    assert huber_value(np.array(2.0), 1.0) == pytest.approx(1.5)
    # both branches meet at |r| = delta with value delta^2 / 2
    for delta in (0.3, 1.0, 2.5):
        lo = 0.5 * delta * delta
        hi = delta * (delta - 0.5 * delta)
        assert lo == pytest.approx(hi)
        assert huber_value(np.array(delta), delta) == pytest.approx(lo)


def test_mean_all_and_sum_rows():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert tape_eval("mean-all", a)[0, 0] == pytest.approx(2.5)


def test_shape_and_kind_errors():
    t = Tape()
    a = t.constant(np.ones((2, 3)))
    b = t.constant(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        t.apply("matmul", a, b)
    with pytest.raises(ShapeError):
        t.apply("add", a, b)
    with pytest.raises(UsageError):
        t.apply("frobnicate", a)


# --- backward ----------------------------------------------------------------


def test_backward_mse_scalar():
    # loss = mse(x, 0) at x = 3 -> d/dx = 2 * 3 = 6
    t = Tape()
    x = t.param(np.array([[3.0]]), "x")
    loss = t.apply("mse", x, t.constant(np.array([[0.0]])))
    grads = t.backward(loss)
    assert grads[x][0, 0] == pytest.approx(6.0)


def test_backward_unreachable_param_is_zero():
    t = Tape()
    x = t.param(np.array([[2.0]]), "x")
    y = t.param(np.array([[5.0]]), "y")
    loss = t.apply("mse", x, t.constant(np.array([[0.0]])))
    grads = t.backward(loss)
    assert np.array_equal(grads[y], np.zeros((1, 1)))
    assert grads[x][0, 0] != 0.0


def test_backward_keeps_only_parameter_gradients():
    rng = np.random.default_rng(3)
    t = Tape()
    w = t.param(rng.uniform(-1, 1, size=(4, 3)), "w")
    unused = t.param(rng.uniform(-1, 1, size=(2, 2)), "unused")
    x = t.constant(rng.uniform(-1, 1, size=(5, 4)))
    h = t.apply("relu", t.apply("add", t.apply("matmul", x, w), t.constant(np.ones((5, 3)))))
    loss = t.apply("mse", h, t.constant(np.zeros((5, 3))))
    grads = t.backward(loss)
    holders = {nid for nid, node in enumerate(t.nodes) if node.grad.nbytes > 0}
    assert holders == {w, unused}
    assert np.array_equal(grads[unused], np.zeros((2, 2)))
    assert np.any(grads[w] != 0.0)


def test_backward_requires_scalar_loss():
    t = Tape()
    x = t.param(np.ones((2, 2)), "x")
    with pytest.raises(UsageError):
        t.backward(x)


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(7)
    t = Tape()
    w = t.param(rng.uniform(-1, 1, size=(4, 4)), "w")
    x = t.constant(rng.uniform(-1, 1, size=(1, 4)))
    h = t.apply("relu", t.apply("matmul", x, w))
    loss = t.apply("mse", h, t.constant(np.zeros((1, 4))))
    g1 = t.backward(loss)
    g2 = t.backward(loss)
    assert np.array_equal(g1[w], g2[w])


# --- finite-difference property over every op --------------------------------


def _scalarize(tape, nid):
    """Reduce any node to a scalar through a mean square (mse against zeros) so FD probes see curvature."""
    return tape.apply("mse", nid, tape.constant(np.zeros(tape.value(nid).shape)))


def make_op_fn(kind, shapes, attrs, seed):
    rng = np.random.default_rng(seed)
    base = {f"p{i}": rng.uniform(-1.0, 1.0, size=s) for i, s in enumerate(shapes)}

    def fn(params):
        t = Tape()
        ids = [t.param(params[f"p{i}"], f"p{i}") for i in range(len(shapes))]
        out = t.apply(kind, *ids, **attrs)
        loss = out if t.value(out).shape == (1, 1) else _scalarize(t, out)
        val = t.value(loss)[0, 0]
        t.backward(loss)
        return val, t.grads_by_name()

    return base, fn


OP_CASES = {
    "matmul": ([(3, 4), (4, 2)], {}),
    "add": ([(3, 4), (3, 4)], {}),
    "scale": ([(3, 4)], {"c": -1.7}),
    "concat-cols": ([(3, 2), (3, 4)], {}),
    "spmm": ([(3, 2)], {"op": scipy.sparse.csr_array(np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.2, 0.3, 0.0], [0.0, 0.0, 0.0]]))}),
    "broadcast-add": ([(3, 2), (4, 2)], {}),
    "reshape": ([(3, 4)], {"shape": (2, 6)}),
    "relu": ([(3, 4)], {}),
    "relu-score": ([(5, 3), (4, 3), (3, 1)], {}),
    "relu-score/one-row": ([(5, 3), (1, 3), (3, 1)], {}),
    "row-softmax": ([(3, 4)], {}),
    "mean-all": ([(3, 4)], {}),
    "huber": ([(3, 4)], {"delta": 0.5}),
    "cosine-distance": ([(1, 5), (1, 5)], {}),
    "cosine-distance/rows": ([(3, 5), (3, 5)], {}),
    "mse": ([(2, 5), (2, 5)], {}),
}


def test_all_op_kinds_have_fd_cases():
    # a key is an op kind, or "<kind>/<variant>" for a further case of it
    assert {case.split("/")[0] for case in OP_CASES} == set(OP_KINDS)


@pytest.mark.parametrize("kind", sorted(OP_CASES))
def test_gradients_match_finite_differences(kind):
    shapes, attrs = OP_CASES[kind]
    for seed in range(20):
        params, fn = make_op_fn(kind.split("/")[0], shapes, attrs, seed)
        assert grad_check(fn, params, eps=1e-5) < 1e-4


def _scorer_grads(a, b, v, weights, fused):
    """Scores and gradients of sum(weights * scores) through `relu-score`, or
    through the chain it replaces: broadcast-add, relu, matmul and reshape."""
    t = Tape()
    ia, ib, iv = t.param(a, "a"), t.param(b, "b"), t.param(v, "v")
    if fused:
        scores = t.apply("relu-score", ia, ib, iv)
    else:
        hidden = t.apply("relu", t.apply("broadcast-add", ia, ib))
        scores = t.apply("reshape", t.apply("matmul", hidden, iv), shape=weights.shape)
    flat = t.apply("reshape", scores, shape=(1, weights.size))
    t.backward(t.apply("matmul", flat, t.constant(weights.reshape(-1, 1))))
    return t.nodes[scores], t.grads_by_name()


@pytest.mark.parametrize("n_nodes", [200, 2000])
def test_relu_score_matches_the_unfused_chain(n_nodes):
    # the scorer's shapes: (n, d_score) node part, (B, d_score) perturbation
    # part, and the upstream gradient of a mean over the (B, n) scores
    rng = np.random.default_rng(n_nodes)
    rows, width = 16, 32
    a, b = rng.normal(size=(n_nodes, width)), rng.normal(size=(rows, width))
    v = rng.normal(size=(width, 1)) / np.sqrt(width)
    weights = rng.normal(size=(rows, n_nodes)) / (rows * n_nodes)
    node, grads = _scorer_grads(a, b, v, weights, fused=True)
    ref_node, ref = _scorer_grads(a, b, v, weights, fused=False)
    assert np.array_equal(node.value, ref_node.value)
    assert np.array_equal(grads["a"], ref["a"]) and np.array_equal(grads["b"], ref["b"])
    # only v's sum runs in another order: per row, then over the rows
    assert np.allclose(grads["v"], ref["v"], rtol=0.0, atol=1e-12)
    # the tape keeps the (B, n) scores and nothing of the (B*n, d_score) block
    assert node.value.shape == (rows, n_nodes) and node.aux is None


def test_relu_score_shape_errors():
    t = Tape()
    a, b = t.constant(np.ones((5, 3))), t.constant(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        t.apply("relu-score", a, t.constant(np.ones((2, 4))), t.constant(np.ones((3, 1))))
    with pytest.raises(ShapeError):
        t.apply("relu-score", a, b, t.constant(np.ones((3, 2))))


def test_cosine_distance_rows_average_single_rows():
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1, 1, size=(2, 3, 5))
    b[1] = 0.0
    rows = [tape_eval("cosine-distance", a[i : i + 1], b[i : i + 1])[0, 0] for i in range(3)]
    assert rows[1] == 0.0
    assert tape_eval("cosine-distance", a, b)[0, 0] == pytest.approx(np.mean(rows), abs=1e-15)


def test_cosine_distance_zero_row_gradients():
    # the target's middle row is zero for every head, as an alignment target is
    # for a perturbation without DEGs: that row adds nothing, value or gradient
    y = np.random.default_rng(6).uniform(-1, 1, size=(3, 4))
    y[1] = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = {"a": rng.uniform(-1, 1, size=(3, 5)), "head": rng.uniform(-1, 1, size=(4, 5))}

        def fn(p):
            t = Tape()
            a, head = t.param(p["a"], "a"), t.param(p["head"], "head")
            loss = t.apply("cosine-distance", a, t.apply("matmul", t.constant(y), head))
            t.backward(loss)
            return t.value(loss)[0, 0], t.grads_by_name()

        assert grad_check(fn, params, eps=1e-5) < 1e-4
        assert np.array_equal(fn(params)[1]["a"][1], np.zeros(5))


def test_three_layer_mlp_gradients():
    rng = np.random.default_rng(11)
    params = {
        "w1": rng.uniform(-1, 1, size=(5, 6)),
        "b1": rng.uniform(-1, 1, size=(1, 6)),
        "w2": rng.uniform(-1, 1, size=(6, 6)),
        "b2": rng.uniform(-1, 1, size=(1, 6)),
        "w3": rng.uniform(-1, 1, size=(6, 3)),
        "b3": rng.uniform(-1, 1, size=(1, 3)),
    }
    x = rng.uniform(-1, 1, size=(1, 5))
    target = rng.uniform(-1, 1, size=(1, 3))

    def fn(p):
        t = Tape()
        ids = {k: t.param(v, k) for k, v in p.items()}
        h = t.apply("relu", t.apply("add", t.apply("matmul", t.constant(x), ids["w1"]), ids["b1"]))
        h = t.apply("relu", t.apply("add", t.apply("matmul", h, ids["w2"]), ids["b2"]))
        out = t.apply("add", t.apply("matmul", h, ids["w3"]), ids["b3"])
        loss = t.apply("mse", out, t.constant(target))
        val = t.value(loss)[0, 0]
        t.backward(loss)
        return val, t.grads_by_name()

    assert grad_check(fn, params, eps=1e-5) < 1e-4


# --- grad_check contract ------------------------------------------------------


def test_grad_check_exact_quadratic():
    params = {"w": np.array([[2.0]])}

    def fn(p):
        w = p["w"][0, 0]
        return w * w, {"w": np.array([[2.0 * w]])}

    assert grad_check(fn, params, eps=1e-5) < 1e-8


def test_grad_check_huber_at_kink():
    # r sits exactly at |r| = delta; the central difference smooths the kink
    delta = 1.0
    params = {"r": np.array([[delta]])}

    def fn(p):
        t = Tape()
        r = t.param(p["r"], "r")
        loss = t.apply("mean-all", t.apply("huber", r, delta=delta))
        val = t.value(loss)[0, 0]
        t.backward(loss)
        return val, t.grads_by_name()

    assert grad_check(fn, params, eps=1e-5) < 1e-3


def test_grad_check_rejects_nondeterministic_fn():
    state = {"n": 0}

    def fn(p):
        state["n"] += 1
        return float(state["n"]), {"w": np.zeros((1, 1))}

    with pytest.raises(UsageError):
        grad_check(fn, {"w": np.zeros((1, 1))}, eps=1e-5)


def test_grad_check_rejects_nan_eps():
    # with eps = nan every difference is nan, and max(0.0, nan) would report 0.0
    def wrong(p):
        return float(np.sum(p["w"] ** 2)), {"w": np.zeros((1, 2))}

    with pytest.raises(UsageError, match="^eps must be finite and > 0, got nan$"):
        grad_check(wrong, {"w": np.ones((1, 2))}, eps=float("nan"))


# --- adam ---------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([[1.0, -2.0]])}
    grads = {"w": np.zeros((1, 2))}
    state = AdamState.for_params(params)
    adam_step(params, grads, state, lr=0.1)
    assert np.array_equal(params["w"], [[1.0, -2.0]])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    params = {"w": np.array([[0.0]])}
    grads = {"w": np.array([[0.5]])}
    state = AdamState.for_params(params)
    adam_step(params, grads, state, lr=0.01)
    # bias correction makes m_hat = g, v_hat = g^2, so the step is ~lr * sign(g)
    assert abs(params["w"][0, 0] + 0.01) < 1e-6


def test_adam_converges_on_quadratic():
    params = {"w": np.array([[0.0]])}
    state = AdamState.for_params(params)
    for _ in range(100):
        w = params["w"][0, 0]
        grads = {"w": np.array([[2.0 * (w - 3.0)]])}
        adam_step(params, grads, state, lr=0.1)
    assert abs(params["w"][0, 0] - 3.0) < 0.1
    assert state.step == 100


def test_adam_shape_mismatch():
    params = {"w": np.zeros((2, 2))}
    state = AdamState.for_params(params)
    with pytest.raises(ShapeError):
        adam_step(params, {"w": np.zeros((1, 2))}, state)
    with pytest.raises(UsageError):
        adam_step(params, {"w": np.zeros((2, 2))}, state, lr=0.0)


def test_sgd_step_basic():
    params = {"w": np.array([[1.0]])}
    sgd_step(params, {"w": np.array([[0.5]])}, lr=0.2)
    assert params["w"][0, 0] == pytest.approx(0.9)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_optimizer_step_rejects_a_bad_learning_rate_and_keeps_params(optimizer, lr):
    params = {"w": np.array([[1.0, -2.0]])}
    grads = {"w": np.array([[0.5, 0.5]])}
    with pytest.raises(UsageError, match=f"^lr must be finite and > 0, got {lr}$"):
        if optimizer == "adam":
            adam_step(params, grads, AdamState.for_params(params), lr=lr)
        else:
            sgd_step(params, grads, lr=lr)
    assert np.array_equal(params["w"], [[1.0, -2.0]])


def thread_starts(monkeypatch) -> list[str]:
    """The names of the threads started from now on, in order."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name) or start(thread))
    return started


def optimizer_snapshot(params, state=None) -> tuple:
    """Every parameter's and moment's bytes, and the step count."""
    arrays = [*params.values(), *(state.m.values() if state else ()), *(state.v.values() if state else ())]
    return [a.tobytes() for a in arrays], state and state.step


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_an_optimizer_checks_every_gradient_before_it_moves_a_value(optimizer):
    params = {"a": np.array([[1.0, 2.0]]), "b": np.array([[0.5, -0.5], [0.25, 2.0]])}
    state = AdamState.for_params(params)
    if optimizer == "adam":
        adam_step(params, {"a": np.ones((1, 2)), "b": np.ones((2, 2))}, state, lr=0.1)
        step = lambda grads, lr=0.1: adam_step(params, grads, state, lr=lr, weight_decay=0.01)
    else:
        state = None
        step = lambda grads, lr=0.1: sgd_step(params, grads, lr=lr, weight_decay=0.01)
    before = optimizer_snapshot(params, state)
    refusals = {  # gradients -> the error and its message
        "b's shape": ({"a": np.ones((1, 2)), "b": np.ones((1, 2))},
                      "gradient shape (1, 2) != param shape (2, 2) for b"),
        "no b": ({"a": np.ones((1, 2))}, "no gradient for b"),
        "no a": ({"b": np.ones((2, 2))}, "no gradient for a"),
    }
    for what, (grads, message) in refusals.items():
        with pytest.raises(ShapeError) as refused:
            step(grads)
        assert str(refused.value) == message, what
        assert optimizer_snapshot(params, state) == before, what
    with pytest.raises(UsageError):
        step({"a": np.ones((1, 2))}, lr=0.0)  # lr is checked before the gradients
    assert optimizer_snapshot(params, state) == before


# a parameter larger than one block (w1), one across the cut between the
# halves of the 85,009-value run (w2, values 40,007..85,007, cut at 42,504)
# and tiny biases
SPLIT_LAYOUT = {"w1": (40, 1000), "b1": (1, 7), "w2": (90, 500), "b2": (1, 2)}


def adam_run(layout, steps, weight_decay, order="C"):
    rng = np.random.default_rng(4)
    params = {k: np.asarray(rng.normal(size=shape), order=order) for k, shape in layout.items()}
    state = AdamState.for_params(params)
    for _ in range(steps):
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        adam_step(params, grads, state, lr=0.01, weight_decay=weight_decay)
    return params, state


def textbook_adam(layout, steps, weight_decay):
    """The same updates with whole-array numpy expressions."""
    rng = np.random.default_rng(4)
    params = {k: rng.normal(size=shape) for k, shape in layout.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t in range(1, steps + 1):
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        for k, p in params.items():
            g = grads[k] + weight_decay * p if weight_decay else grads[k]
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
            p -= 0.01 * (m[k] / (1.0 - 0.9 ** t)) / (np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8)
    return params, m, v


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_on_two_threads_writes_the_one_thread_bytes(weight_decay, monkeypatch):
    sizes = [int(np.prod(shape)) for shape in SPLIT_LAYOUT.values()]
    cut = sum(sizes) // 2
    assert sizes[0] > ADAM_BLOCK_VALUES and sum(sizes[:2]) < cut < sum(sizes[:3])
    alone, alone_state = adam_run(SPLIT_LAYOUT, 3, weight_decay)
    started = thread_starts(monkeypatch)
    with two_threads():
        split, split_state = adam_run(SPLIT_LAYOUT, 3, weight_decay)
    assert started == ["pertgraph-half"] * 3
    assert split_state.step == alone_state.step == 3
    for a, b in ((alone, split), (alone_state.m, split_state.m), (alone_state.v, split_state.v)):
        assert all(a[k].tobytes() == b[k].tobytes() for k in SPLIT_LAYOUT)
    textbook = textbook_adam(SPLIT_LAYOUT, 3, weight_decay)
    for a, b in zip((alone, alone_state.m, alone_state.v), textbook):
        assert all(a[k].tobytes() == b[k].tobytes() for k in SPLIT_LAYOUT)


def test_adam_updates_a_parameter_with_no_flat_view_in_place():
    # Fortran-ordered arrays have no C-order view of their values: such a
    # parameter, one block or larger, is updated whole, on one thread or two
    layout = {"w": (250, 200), "b": (1, 3)}
    for threads in (contextlib.nullcontext, two_threads):
        with threads():
            params, state = adam_run(layout, 3, 0.01, order="F")
        textbook = textbook_adam(layout, 3, 0.01)
        for a, b in zip((params, state.m, state.v), textbook):
            assert all(np.array_equal(a[k], b[k]) and a[k].flags.f_contiguous for k in layout)


def test_adam_splits_at_10x_model_sizes_only(monkeypatch):
    monkeypatch.setattr(data, "_cores", lambda: 2)
    config = ModelConfig(n_layers=1, d_struct=64, d_latent=128, d_score=32, tau=0.5)  # criterion 7's model
    started = thread_starts(monkeypatch)
    for genes, helpers in ((200, []), (2000, ["pertgraph-half"])):
        params = init_params(genes, genes, 16, config, seed=0).values
        values = sum(p.size for p in params.values())
        assert (genes, values, len(params)) in ((200, 156_776, 16), (2000, 964_976, 16))
        adam_step(params, {k: np.ones_like(p) for k, p in params.items()}, AdamState.for_params(params))
        assert started == helpers, genes
        started.clear()


def test_an_error_in_either_half_of_adam_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    excepthook = []  # an exception that escaped a thread would land here
    monkeypatch.setattr(threading, "excepthook", excepthook.append)
    threads = threading.active_count()
    started = thread_starts(monkeypatch)

    def failing(halves):
        """The split layout's parameters and gradients, failing in the named halves:
        w1's complex gradient in the first, read-only b2 in the second."""
        params = {k: np.zeros(shape) for k, shape in SPLIT_LAYOUT.items()}
        grads = {k: np.ones(shape) for k, shape in SPLIT_LAYOUT.items()}
        if "first" in halves:
            grads["w1"] = grads["w1"] + 1j
        if "second" in halves:
            params["b2"].setflags(write=False)
        return params, grads

    for halves in (("second",), ("first",), ("first", "second")):
        params, grads = failing(halves)
        with pytest.raises(Exception) as one_thread:
            adam_step(params, grads, AdamState.for_params(params))
        params, grads = failing(halves)
        with two_threads(), pytest.raises(Exception) as split:
            adam_step(params, grads, AdamState.for_params(params))
        assert (type(split.value), str(split.value)) == (type(one_thread.value), str(one_thread.value)), halves
        assert isinstance(split.value, TypeError if "first" in halves else ValueError), halves
        assert threading.active_count() == threads
    assert started == ["pertgraph-half"] * 3
    assert excepthook == []


def test_as_matrix_coercion():
    assert as_matrix(3.0).shape == (1, 1)
    assert as_matrix([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 2, 2)))
