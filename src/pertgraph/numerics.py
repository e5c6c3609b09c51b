"""Dense float64 linear algebra on a small reverse-mode autodiff tape.

Values are 2-D numpy arrays (vectors are 1xN or Nx1). The tape is rebuilt
per training step (define-by-run); backward accumulates gradients in
reverse topological order, so two backward passes over the same tape are
bit-identical. Backward computes no gradient for a constant operand and
keeps only the parameters' gradients, so a tape that is only evaluated
allocates no gradient buffer at all. Everything is float64: the
finite-difference verification tolerances leave no headroom for float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ShapeError, UsageError, check_range

NORM_EPS = 1e-12  # vectors at or below this norm normalize to zero


def as_matrix(x) -> np.ndarray:
    """Coerce scalars / 1-D / 2-D input to a 2-D float64 array (1-D becomes a row)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got {a.ndim}")
    return a


def huber_value(r: np.ndarray, delta: float) -> np.ndarray:
    """Elementwise robust penalty: quadratic r^2/2 inside |r| <= delta, linear outside."""
    r = np.asarray(r, dtype=np.float64)
    absr = np.abs(r)
    return np.where(absr <= delta, 0.5 * r * r, delta * (absr - 0.5 * delta))


def huber_grad(r: np.ndarray, delta: float) -> np.ndarray:
    """Exact piecewise derivative: r inside, delta*sign(r) outside (they agree at the kink)."""
    r = np.asarray(r, dtype=np.float64)
    return np.where(np.abs(r) <= delta, r, delta * np.sign(r))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# --- op registry -----------------------------------------------------------
# forward(values, attrs) -> (result, aux); backward(g, values, result, aux, attrs,
# needs) -> list of gradients aligned with the parents. needs[i] is False for a
# constant parent, whose entry may then be None.


def _fw_matmul(vals, attrs):
    a, b = vals
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    return a @ b, None


def _bw_matmul(g, vals, out, aux, attrs, needs):
    a, b = vals
    return [g @ b.T if needs[0] else None, a.T @ g if needs[1] else None]


def _fw_add(vals, attrs):
    a, b = vals
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return a + b, None


def _fw_scale(vals, attrs):
    return vals[0] * attrs["c"], None


def _fw_concat_cols(vals, attrs):
    a, b = vals
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat-cols: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1), a.shape[1]


def _bw_concat_cols(g, vals, out, aux, attrs, needs):
    return [g[:, :aux], g[:, aux:]]


def _fw_spmm(vals, attrs):
    op, x = attrs["op"], vals[0]
    if op.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm: {op.shape} @ {x.shape}")
    return np.asarray(op @ x), None


def _bw_spmm(g, vals, out, aux, attrs, needs):
    return [np.asarray(attrs["op"].T @ g)]


def _fw_broadcast_add(vals, attrs):
    # (n, m) + (B, m) -> (B*n, m); row k*n + v holds a[v] + b[k]
    a, b = vals
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"broadcast-add: {a.shape} vs {b.shape}")
    return (b[:, None, :] + a[None, :, :]).reshape(-1, a.shape[1]), None


def _bw_broadcast_add(g, vals, out, aux, attrs, needs):
    a, b = vals
    g3 = g.reshape(b.shape[0], a.shape[0], a.shape[1])
    return [g3.sum(axis=0), g3.sum(axis=1)]


def _fw_reshape(vals, attrs):
    a, shape = vals[0], tuple(attrs["shape"])
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: {a.shape} to {shape}")
    return a.reshape(shape), None


def _fw_row_softmax(vals, attrs):
    s = _softmax_rows(vals[0])
    return s, None


def _bw_row_softmax(g, vals, out, aux, attrs, needs):
    s = out
    inner = (g * s).sum(axis=1, keepdims=True)
    return [s * (g - inner)]


def _fw_mean_all(vals, attrs):
    return np.array([[vals[0].mean()]]), None


def _bw_mean_all(g, vals, out, aux, attrs, needs):
    a = vals[0]
    return [np.full_like(a, g[0, 0] / a.size)]


def _fw_huber(vals, attrs):
    return huber_value(vals[0], attrs["delta"]), None


def _bw_huber(g, vals, out, aux, attrs, needs):
    return [g * huber_grad(vals[0], attrs["delta"])]


def _fw_cosine_distance(vals, attrs):
    # mean over rows of |a_i/|a_i| - b_i/|b_i||^2; a row where either norm is
    # at most NORM_EPS contributes 0
    a, b = vals
    if a.shape != b.shape:
        raise ShapeError(f"cosine-distance: {a.shape} vs {b.shape}")
    na = np.sqrt((a * a).sum(axis=1, keepdims=True))
    nb = np.sqrt((b * b).sum(axis=1, keepdims=True))
    ok = (na > NORM_EPS) & (nb > NORM_EPS)
    na, nb = np.where(ok, na, 1.0), np.where(ok, nb, 1.0)
    ah, bh = a / na, b / nb
    d = ah - bh
    rows = np.where(ok[:, 0], (d * d).sum(axis=1), 0.0)
    return np.array([[rows.mean()]]), (ok, na, nb, ah, bh)


def _bw_cosine_distance(g, vals, out, aux, attrs, needs):
    ok, na, nb, ah, bh = aux
    gs = (g[0, 0] / ok.shape[0]) * ok
    cos = (ah * bh).sum(axis=1, keepdims=True)
    # d/da of 2 - 2*cos through the normalization of a (and symmetrically for b)
    da = gs * (-2.0 / na) * (bh - ah * cos)
    db = gs * (-2.0 / nb) * (ah - bh * cos)
    return [da, db]


def _fw_mse(vals, attrs):
    a, b = vals
    if a.shape != b.shape:
        raise ShapeError(f"mse: {a.shape} vs {b.shape}")
    d = a - b
    return np.array([[(d * d).mean()]]), d


def _bw_mse(g, vals, out, aux, attrs, needs):
    d = aux
    scale = 2.0 * g[0, 0] / d.size
    return [scale * d if needs[0] else None, -scale * d if needs[1] else None]


def _fw_relu(vals, attrs):
    return np.maximum(vals[0], 0.0), None


def _bw_relu(g, vals, out, aux, attrs, needs):
    return [g * (vals[0] > 0.0)]


_OPS: dict[str, tuple[int, Callable, Callable]] = {
    "matmul": (2, _fw_matmul, _bw_matmul),
    "add": (2, _fw_add, lambda g, *_: [g, g]),
    "scale": (1, _fw_scale, lambda g, v, o, x, attrs, needs: [g * attrs["c"]]),
    "spmm": (1, _fw_spmm, _bw_spmm),
    "concat-cols": (2, _fw_concat_cols, _bw_concat_cols),
    "broadcast-add": (2, _fw_broadcast_add, _bw_broadcast_add),
    "reshape": (1, _fw_reshape, lambda g, vals, o, x, attrs, needs: [g.reshape(vals[0].shape)]),
    "relu": (1, _fw_relu, _bw_relu),
    "row-softmax": (1, _fw_row_softmax, _bw_row_softmax),
    "mean-all": (1, _fw_mean_all, _bw_mean_all),
    "huber": (1, _fw_huber, _bw_huber),
    "cosine-distance": (2, _fw_cosine_distance, _bw_cosine_distance),
    "mse": (2, _fw_mse, _bw_mse),
}

OP_KINDS = tuple(sorted(_OPS))

# shared read-only stand-in for a gradient buffer that backward has not allocated
_NO_GRAD = np.empty((0, 0))
_NO_GRAD.flags.writeable = False


@dataclass
class TapeNode:
    kind: str                 # "leaf" for constants/parameters
    parents: tuple[int, ...]
    value: np.ndarray
    attrs: dict = field(default_factory=dict)
    aux: object = None
    grad: np.ndarray = field(default_factory=lambda: _NO_GRAD)


class Tape:
    """Append-only computation record; parents always precede children."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.param_ids: list[int] = []

    def _push(self, node: TapeNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def constant(self, value) -> int:
        v = as_matrix(value)
        if not np.all(np.isfinite(v)):
            raise UsageError("non-finite constant on tape")
        return self._push(TapeNode("leaf", (), v))

    def param(self, value, name: str | None = None) -> int:
        """Leaf whose gradient is reported by backward()."""
        nid = self.constant(value)
        if name is not None:
            self.nodes[nid].attrs["name"] = name
        self.param_ids.append(nid)
        return nid

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def apply(self, kind: str, *parents: int, **attrs) -> int:
        if kind not in _OPS:
            raise UsageError(f"unknown op kind {kind!r}")
        arity, fw, _ = _OPS[kind]
        if len(parents) != arity:
            raise UsageError(f"{kind} takes {arity} inputs, got {len(parents)}")
        vals = [self.nodes[p].value for p in parents]
        out, aux = fw(vals, attrs)
        node = TapeNode(kind, tuple(parents), out, attrs, aux)
        return self._push(node)

    def backward(self, loss_id: int) -> dict[int, np.ndarray]:
        """Reverse accumulation from a scalar loss node.

        Returns gradients keyed by parameter node id; parameters not
        reachable from the loss get a zero gradient. Only parameters and op
        nodes receive gradients: the first one to reach a node is assigned
        and later ones are added out of place, so the ops may pass their
        incoming gradient on uncopied. An op node's gradient is dropped once
        its parents have theirs, so after the pass only the parameters hold
        buffers, fresh on every call, and gradients returned by an earlier
        call stay valid.
        """
        loss = self.nodes[loss_id]
        if loss.value.shape != (1, 1):
            raise UsageError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        for node in self.nodes:
            node.grad = _NO_GRAD
        params = set(self.param_ids)
        loss.grad = np.ones((1, 1))
        # parents precede children, so one reverse sweep reaches every node
        # after all of its children; a node no gradient reached is skipped
        for node in reversed(self.nodes[: loss_id + 1]):
            if node.kind == "leaf" or node.grad is _NO_GRAD:
                continue
            _, _, bw = _OPS[node.kind]
            parents = [self.nodes[p] for p in node.parents]
            needs = [p in params or parent.kind != "leaf" for p, parent in zip(node.parents, parents)]
            pgrads = bw(node.grad, [parent.value for parent in parents], node.value, node.aux, node.attrs, needs)
            node.grad = _NO_GRAD
            for parent, need, pg in zip(parents, needs, pgrads):
                if need:
                    parent.grad = pg if parent.grad is _NO_GRAD else parent.grad + pg
        for pid in self.param_ids:
            if self.nodes[pid].grad is _NO_GRAD:
                self.nodes[pid].grad = np.zeros_like(self.nodes[pid].value)
        return {pid: self.nodes[pid].grad for pid in self.param_ids}

    def grads_by_name(self) -> dict[str, np.ndarray]:
        out = {}
        for pid in self.param_ids:
            name = self.nodes[pid].attrs.get("name")
            if name is not None:
                out[name] = self.nodes[pid].grad
        return out


# --- gradient verification --------------------------------------------------


def grad_check(fn, params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn(params) -> (scalar value, {name: grad array})` must be deterministic;
    it is re-evaluated with each scalar entry of `params` nudged by +/- eps.
    Relative error is |analytic - fd| / max(1, |analytic|).
    """
    check_range("eps", eps, 0, low_open=True)
    v0, grads = fn(params)
    v1, _ = fn(params)
    if v0 != v1:
        raise UsageError("function is not deterministic; gradient check invalid")
    if grads is None:
        raise UsageError("fn must return analytic gradients")
    worst = 0.0
    for name, arr in params.items():
        g = np.asarray(grads[name], dtype=np.float64).ravel()
        flat = arr.ravel()  # view: in-place nudges propagate to fn
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp, _ = fn(params)
            flat[i] = orig - eps
            fm, _ = fn(params)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * eps)
            rel = abs(g[i] - fd) / max(1.0, abs(g[i]))
            worst = max(worst, rel)
    return worst


# --- optimizers --------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One bias-corrected adaptive-moment update, in place.

    The temporaries live in two scratch buffers sized for the largest
    parameter and shared by all of them.
    """
    check_range("lr", lr, 0, low_open=True)
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    size = max((p.size for p in params.values()), default=0)
    buf1, buf2 = np.empty(size), np.empty(size)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if weight_decay:
            g = g + weight_decay * p
        m = state.m[name]
        v = state.v[name]
        s1 = buf1[: p.size].reshape(p.shape)
        s2 = buf2[: p.size].reshape(p.shape)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=s1)
        v *= beta2
        np.multiply(g, g, out=s1)
        v += np.multiply(1.0 - beta2, s1, out=s1)
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order
        np.multiply(lr, np.divide(m, c1, out=s1), out=s1)
        np.add(np.sqrt(np.divide(v, c2, out=s2), out=s2), eps, out=s2)
        p -= np.divide(s1, s2, out=s1)


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    check_range("lr", lr, 0, low_open=True)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if weight_decay:
            g = g + weight_decay * p
        p -= lr * g
