"""Seeded training loop with validation-monitored early stopping.

One batch is a set of perturbations, each contributing a (control mean,
perturbed mean) pair; the whole batch is one batched forward on a single
tape, so the node embeddings are computed once per step. The DEG table and
Huber threshold come from the training split only; validation is monitored
with the delta correlation in eval mode and the best-epoch parameters are
returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import DegTable, PerturbationDataset, SemanticEmbeddings, SplitSpec, compute_degs, deg_rule
from .errors import DegenerateError, NumericalError, UsageError, check_range, write_json
from .graph import KnowledgeGraph
from .loss import (
    LossWeights,
    build_align_loss,
    build_non_deg_loss,
    build_recon_loss,
    build_total_loss,
    estimate_huber_delta,
)
from .metrics import pearson_delta
from .model import (
    ModelConfig,
    ModelParams,
    SubgraphSelection,
    aggregation_matrix,
    build_forward,
    init_params,
    register_params,
)
from .numerics import AdamState, Tape, adam_step, sgd_step

ABLATIONS = ("full", "no_context", "no_non_deg")
FALLBACK_HUBER_DELTA = 1.0


def derive_seed(root: int, *parts) -> int:
    """Stable child seed from the run seed and a label path (epoch, batch, ...)."""
    key = ":".join([str(root), *map(str, parts)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


@dataclass
class TrainConfig:
    max_epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    patience: int = 30
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    ablation: str = "full"
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: str = "adam"
    alpha: float = 0.05
    deg_correction: str = "none"

    def validate(self) -> None:
        check_range("max_epochs", self.max_epochs, 1)
        check_range("batch_size", self.batch_size, 1)
        check_range("patience", self.patience, 1, self.max_epochs, high_open=False)
        check_range("learning_rate", self.learning_rate, 0, low_open=True)
        check_range("weight_decay", self.weight_decay, 0)
        if self.ablation not in ABLATIONS:
            raise UsageError(f"ablation must be one of {ABLATIONS}")
        if self.optimizer not in ("adam", "sgd"):
            raise UsageError("optimizer must be adam or sgd")
        deg_rule(self.alpha, self.deg_correction)  # raises on a bad alpha or correction
        self.model.validate()
        self.weights.validate()


def apply_ablation(config: TrainConfig) -> tuple[ModelConfig, LossWeights]:
    """Resolve the ablation mode into an effective model config and loss weights."""
    model_cfg, weights = config.model, config.weights
    if config.ablation == "no_context":
        model_cfg = replace(model_cfg, no_context=True)
    elif config.ablation == "no_non_deg":
        weights = replace(weights, lambda_non=0.0)
    return model_cfg, weights


@dataclass
class LossParts:
    recon: float
    non: float
    align: float
    total: float


def evaluate_batch(
    params: ModelParams,
    perts: list[str],
    xbar_c: np.ndarray,
    targets: dict[str, np.ndarray],
    graph: KnowledgeGraph | None,
    embeddings: SemanticEmbeddings | None,
    deg_table: DegTable,
    weights: LossWeights,
    huber_delta: float,
    mode: str = "train",
    gumbel_seeds: dict[str, int] | None = None,
    frozen_selections: dict[str, SubgraphSelection] | None = None,
    objective: str = "total",
    agg=None,
) -> tuple[LossParts, dict[str, np.ndarray], dict[str, SubgraphSelection]]:
    """Build one tape over the batch, average the loss terms, and differentiate
    the requested objective ("total", "recon", "non", or "align").

    `frozen_selections` replays captured node selections (noise, mask, and the
    straight-through base), which is what gradient checks rely on. `agg` is
    passed on to `build_forward`.
    """
    tape = Tape()
    pids = register_params(tape, params)
    built = build_forward(
        tape, pids, params, xbar_c, perts, graph, embeddings,
        mode=mode,
        gumbel_seeds=[(gumbel_seeds or {}).get(p) for p in perts],
        frozen_selections=[(frozen_selections or {}).get(p) for p in perts],
        agg=agg,
    )
    selections = dict(zip(perts, built.selections)) if built.selections is not None else {}
    deg_masks = np.stack([deg_table.deg_mask(p) for p in perts])
    recon = build_recon_loss(tape, built.x_hat, np.stack([targets[p] for p in perts]))
    non = build_non_deg_loss(tape, built.x_hat, xbar_c, ~deg_masks, huber_delta)
    align = build_align_loss(
        tape, built.z_context, np.stack([deg_table.deltas[p] for p in perts]), deg_masks, pids["align.proj"]
    )
    means = {"recon": recon, "non": non, "align": align, "total": build_total_loss(tape, recon, non, align, weights)}
    if objective not in means:
        raise UsageError(f"unknown objective {objective!r}")
    tape.backward(means[objective])
    parts = LossParts(**{name: float(tape.value(nid)[0, 0]) for name, nid in means.items()})
    return parts, tape.grads_by_name(), selections


@dataclass
class TrainHistory:
    """Per-epoch loss components and validation monitor, plus the winning epoch."""

    epochs: list[dict]
    best_epoch: int
    huber_delta: float
    config: dict
    checkpoint_ref: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_json(self.to_json_dict(), path)


def predict_profiles(
    params: ModelParams,
    xbar_c: np.ndarray,
    perts: list[str],
    graph: KnowledgeGraph | None,
    embeddings: SemanticEmbeddings | None,
    agg=None,
) -> dict[str, np.ndarray]:
    """Deterministic eval-mode predictions, one absolute profile per perturbation.

    All perturbations are one batched forward on one tape; no backward runs,
    so the tape holds no gradient buffers. The aggregation operator is `agg`
    or, when None, built once per call by `build_forward`.
    """
    tape = Tape()
    pids = register_params(tape, params)
    x_hat = tape.value(build_forward(tape, pids, params, xbar_c, perts, graph, embeddings, agg=agg).x_hat)
    return {p: x_hat[i].copy() for i, p in enumerate(perts)}


def _validation_pearson(
    params: ModelParams,
    xbar_c: np.ndarray,
    val_truth_deltas: dict[str, np.ndarray],
    graph: KnowledgeGraph | None,
    embeddings: SemanticEmbeddings | None,
    agg=None,
) -> float:
    perts = sorted(val_truth_deltas)
    preds = predict_profiles(params, xbar_c, perts, graph, embeddings, agg)
    scores = pearson_delta(np.stack([preds[p] - xbar_c for p in perts]), np.stack([val_truth_deltas[p] for p in perts]))
    return float(np.mean([0.0 if r is None else r for r in scores]))


def train(
    dataset: PerturbationDataset,
    splits: SplitSpec,
    graph: KnowledgeGraph,
    embeddings: SemanticEmbeddings,
    config: TrainConfig,
) -> tuple[ModelParams, TrainHistory]:
    """Optimize on the train split; return the best-validation-epoch parameters.

    Only train-split perturbation blocks are read: the DEG table and the Huber
    threshold are computed from them alone, and validation consumes val-split
    pseudobulk. Test blocks are never touched here.
    """
    config.validate()
    model_cfg, weights = apply_ablation(config)
    train_perts = sorted(splits.train)
    val_perts = sorted(splits.val)
    if not train_perts:
        raise UsageError("train split is empty")

    deg_table = compute_degs(
        dataset, alpha=config.alpha, correction=config.deg_correction, perturbations=train_perts
    )
    if weights.huber_delta is not None:
        huber_delta = weights.huber_delta
    else:
        try:
            huber_delta = estimate_huber_delta(deg_table, train_perts, weights.huber_scale)
        except DegenerateError:
            huber_delta = FALLBACK_HUBER_DELTA

    xbar_c = dataset.control.mean(axis=0)
    targets = {p: dataset.block(p).mean(axis=0) for p in train_perts}
    val_truth = {p: dataset.block(p).mean(axis=0) - xbar_c for p in val_perts}

    params = init_params(
        graph.n_nodes, dataset.n_genes, embeddings.dim, model_cfg,
        seed=derive_seed(config.seed, "init"), train_perts=train_perts,
    )
    opt_state = AdamState.for_params(params.values)
    agg = None if model_cfg.no_context else aggregation_matrix(graph, model_cfg.weighted_aggregation)

    best_params = params.copy()
    best_monitor = -np.inf
    best_epoch = 0
    stale = 0
    rows: list[dict] = []
    for epoch in range(config.max_epochs):
        shuffle_rng = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch))
        order = [train_perts[i] for i in shuffle_rng.permutation(len(train_perts))]
        sums = np.zeros(4)
        seen = 0
        for batch_idx, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start : start + config.batch_size]
            gumbel_seeds = {
                p: derive_seed(config.seed, "gumbel", epoch, batch_idx, slot)
                for slot, p in enumerate(batch)
            }
            try:
                parts, grads, _ = evaluate_batch(
                    params, batch, xbar_c, targets, graph, embeddings,
                    deg_table, weights, huber_delta,
                    mode="train", gumbel_seeds=gumbel_seeds, agg=agg,
                )
            except NumericalError as exc:
                raise NumericalError(
                    f"divergence at epoch {epoch}, batch {batch_idx} (perturbations {batch}): {exc}"
                ) from exc
            grads_finite = all(np.all(np.isfinite(g)) for g in grads.values())
            if not np.isfinite(parts.total) or not grads_finite:
                raise NumericalError(
                    f"non-finite loss or gradient at epoch {epoch}, batch {batch_idx} "
                    f"(perturbations {batch})"
                )
            if config.optimizer == "adam":
                adam_step(
                    params.values, grads, opt_state,
                    lr=config.learning_rate, weight_decay=config.weight_decay,
                )
            else:
                sgd_step(params.values, grads, lr=config.learning_rate, weight_decay=config.weight_decay)
            sums += np.array([parts.recon, parts.non, parts.align, parts.total]) * len(batch)
            seen += len(batch)
        recon_m, non_m, align_m, total_m = (sums / seen).tolist()
        try:
            val_pd = (
                _validation_pearson(params, xbar_c, val_truth, graph, embeddings, agg) if val_perts else None
            )
        except NumericalError as exc:
            raise NumericalError(f"divergence during validation after epoch {epoch}: {exc}") from exc
        rows.append(
            {
                "epoch": epoch,
                "recon": recon_m,
                "non": non_m,
                "align": align_m,
                "total": total_m,
                "val_pearson_delta": val_pd,
            }
        )
        monitor = val_pd if val_pd is not None else -total_m
        if monitor > best_monitor:
            best_monitor = monitor
            best_params = params.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
        if stale >= config.patience:
            break

    history = TrainHistory(
        epochs=rows,
        best_epoch=best_epoch,
        huber_delta=huber_delta,
        config={
            "seed": config.seed,
            "ablation": config.ablation,
            "lambda_non": weights.lambda_non,
            "lambda_align": weights.lambda_align,
            "learning_rate": config.learning_rate,
            "weight_decay": config.weight_decay,
            "batch_size": config.batch_size,
            "max_epochs": config.max_epochs,
            "patience": config.patience,
            "optimizer": config.optimizer,
            "alpha": config.alpha,
            "deg_correction": config.deg_correction,
            "model": asdict(model_cfg),
        },
    )
    return best_params, history
