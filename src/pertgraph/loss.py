"""Three-term training objective: global reconstruction, robust suppression
of predicted changes on non-DEG genes, and alignment of the graph context
with the masked response signature.

Each term is a tape builder over the whole batch, one row per perturbation,
that returns the mean of the per-perturbation term over the rows. The
builders compose only ops whose gradients are verified against finite
differences; tests/test_loss.py holds per-perturbation numpy references
that they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DegTable
from .errors import DegenerateError, UsageError, check_range
from .numerics import Tape


@dataclass
class LossWeights:
    """Term weights; huber_delta of None means estimate it from training non-DEG deltas."""

    lambda_non: float = 0.01
    lambda_align: float = 0.1
    huber_delta: float | None = None
    huber_scale: float = 1.0  # delta = scale * std of pooled non-DEG deltas

    def validate(self) -> None:
        check_range("lambda_non", self.lambda_non, 0)
        check_range("lambda_align", self.lambda_align, 0)
        if self.huber_delta is not None:
            check_range("huber_delta", self.huber_delta, 0, low_open=True)
        check_range("huber_scale", self.huber_scale, 0, low_open=True)


def estimate_huber_delta(table: DegTable, train_perts: list[str] | None = None, scale: float = 1.0) -> float:
    """delta = scale x population std of non-DEG deltas pooled over training perturbations.

    Raises DegenerateError when the pool is empty or has zero spread; callers
    typically fall back to delta = 1.0.
    """
    names = table.pert_names() if train_perts is None else sorted(train_perts)
    if not names:
        raise UsageError("training DEG table is empty")
    pool = []
    for name in names:
        mask = table.non_deg_mask(name)
        pool.append(table.deltas[name][mask])
    pooled = np.concatenate(pool) if pool else np.array([])
    if pooled.size == 0:
        raise DegenerateError("no non-DEG deltas to estimate the huber threshold")
    std = float(pooled.std())
    if std == 0.0:
        raise DegenerateError("non-DEG deltas have zero spread")
    return scale * std


def masked_response(delta: np.ndarray, deg_mask: np.ndarray) -> np.ndarray:
    """Signed effect sizes on DEGs, zero elsewhere (same shape as delta)."""
    return np.where(np.asarray(deg_mask, dtype=bool), np.asarray(delta, dtype=np.float64), 0.0)


def build_recon_loss(tape: Tape, x_hat_id: int, xbar_p: np.ndarray) -> int:
    return tape.apply("mse", x_hat_id, tape.constant(xbar_p))


def build_non_deg_loss(
    tape: Tape,
    x_hat_id: int,
    xbar_c: np.ndarray,
    non_deg_masks: np.ndarray,
    delta: float,
) -> int:
    shape = tape.value(x_hat_id).shape
    masks = np.asarray(non_deg_masks, dtype=bool).reshape(shape)
    diff = tape.apply("add", x_hat_id, tape.constant(np.broadcast_to(-np.asarray(xbar_c), shape)))
    rho = tape.apply("reshape", tape.apply("huber", diff, delta=delta), shape=(1, masks.size))
    # row i weighs its non-DEG genes by 1/|non-DEG_i|/B, so the matmul is the
    # mean over rows of each row's mean; a row without non-DEG genes adds 0
    counts = masks.sum(axis=1, keepdims=True)
    weights = np.divide(masks, counts * len(masks), out=np.zeros(masks.shape), where=counts > 0)
    return tape.apply("matmul", rho, tape.constant(weights.reshape(-1, 1)))


def build_align_loss(
    tape: Tape,
    z_context_id: int,
    delta: np.ndarray,
    deg_mask: np.ndarray,
    head_id: int,
) -> int:
    target = tape.apply("matmul", tape.constant(masked_response(delta, deg_mask)), head_id)
    return tape.apply("cosine-distance", z_context_id, target)


def build_total_loss(
    tape: Tape,
    recon_id: int,
    non_id: int,
    align_id: int,
    weights: LossWeights,
) -> int:
    weights.validate()
    weighted = tape.apply(
        "add",
        tape.apply("scale", non_id, c=weights.lambda_non),
        tape.apply("scale", align_id, c=weights.lambda_align),
    )
    return tape.apply("add", recon_id, weighted)
