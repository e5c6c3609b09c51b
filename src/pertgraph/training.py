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
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import DegTable, PerturbationDataset, SemanticEmbeddings, SplitSpec, compute_degs
from .errors import DegenerateError, NumericalError, UsageError
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
    build_forward,
    init_params,
    register_params,
)
from .numerics import AdamState, Tape, adam_step, sgd_step

ABLATIONS = ("full", "no_context", "no_non_deg")
FALLBACK_HUBER_DELTA = 1.0
# perturbations per prediction tape; bounds the (rows * n_nodes, d_score)
# scorer intermediate
PREDICT_CHUNK = 32


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
        if self.max_epochs < 1 or self.batch_size < 1:
            raise UsageError("max_epochs and batch_size must be >= 1")
        if self.patience < 1 or self.patience > self.max_epochs:
            raise UsageError("patience must lie in [1, max_epochs]")
        if self.learning_rate <= 0:
            raise UsageError("learning rate must be positive")
        if self.weight_decay < 0:
            raise UsageError("weight decay must be nonnegative")
        if self.ablation not in ABLATIONS:
            raise UsageError(f"ablation must be one of {ABLATIONS}")
        if self.optimizer not in ("adam", "sgd"):
            raise UsageError("optimizer must be adam or sgd")
        self.weights.validate()


def apply_ablation(config: TrainConfig) -> tuple[ModelConfig, LossWeights]:
    """Resolve the ablation mode into an effective model config and loss weights."""
    model_cfg = ModelConfig(**asdict(config.model))
    weights = LossWeights(**asdict(config.weights))
    if config.ablation == "no_context":
        model_cfg.no_context = True
    elif config.ablation == "no_non_deg":
        weights.lambda_non = 0.0
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
) -> tuple[LossParts, dict[str, np.ndarray], dict[str, SubgraphSelection]]:
    """Build one tape over the batch, average the loss terms, and differentiate
    the requested objective ("total", "recon", "non", or "align").

    `frozen_selections` replays captured node selections (noise, mask, and the
    straight-through base), which is what gradient checks rely on.
    """
    if not perts:
        raise UsageError("batch is empty")
    tape = Tape()
    pids = register_params(tape, params)
    built = build_forward(
        tape, pids, params, xbar_c, perts, graph, embeddings,
        mode=mode,
        gumbel_seeds=[(gumbel_seeds or {}).get(p) for p in perts],
        frozen_selections=[(frozen_selections or {}).get(p) for p in perts],
    )
    selections = dict(zip(perts, built.selections)) if built.selections is not None else {}
    part_ids: dict[str, list[int]] = {"recon": [], "non": [], "align": [], "total": []}
    for i, pert in enumerate(perts):
        x_hat = tape.apply("slice-rows", built.x_hat, start=i, stop=i + 1)
        z_context = tape.apply("slice-rows", built.z_context, start=i, stop=i + 1)
        recon = build_recon_loss(tape, x_hat, targets[pert])
        non = build_non_deg_loss(tape, x_hat, xbar_c, deg_table.non_deg_mask(pert), huber_delta)
        align = build_align_loss(
            tape, z_context, deg_table.deltas[pert], deg_table.deg_mask(pert), pids["align.proj"]
        )
        part_ids["recon"].append(recon)
        part_ids["non"].append(non)
        part_ids["align"].append(align)
        part_ids["total"].append(build_total_loss(tape, recon, non, align, weights))

    def mean_node(ids: list[int]) -> int:
        acc = ids[0]
        for nid in ids[1:]:
            acc = tape.apply("add", acc, nid)
        return tape.apply("scale", acc, c=1.0 / len(ids))

    means = {name: mean_node(ids) for name, ids in part_ids.items()}
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
        return {
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "huber_delta": self.huber_delta,
            "config": self.config,
            "checkpoint_ref": self.checkpoint_ref,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def predict_profiles(
    params: ModelParams,
    xbar_c: np.ndarray,
    perts: list[str],
    graph: KnowledgeGraph | None,
    embeddings: SemanticEmbeddings | None,
) -> dict[str, np.ndarray]:
    """Deterministic eval-mode predictions, one absolute profile per perturbation.

    Each chunk of up to PREDICT_CHUNK perturbations is one batched forward on
    its own tape; no backward runs, so the tapes hold no gradient buffers.
    """
    out: dict[str, np.ndarray] = {}
    for start in range(0, len(perts), PREDICT_CHUNK):
        chunk = perts[start : start + PREDICT_CHUNK]
        tape = Tape()
        pids = register_params(tape, params)
        x_hat = tape.value(build_forward(tape, pids, params, xbar_c, chunk, graph, embeddings).x_hat)
        out.update((p, x_hat[i].copy()) for i, p in enumerate(chunk))
    return out


def _validation_pearson(
    params: ModelParams,
    xbar_c: np.ndarray,
    val_truth_deltas: dict[str, np.ndarray],
    graph: KnowledgeGraph | None,
    embeddings: SemanticEmbeddings | None,
) -> float:
    preds = predict_profiles(params, xbar_c, sorted(val_truth_deltas), graph, embeddings)
    scores = []
    for pert, true_delta in sorted(val_truth_deltas.items()):
        try:
            scores.append(pearson_delta(preds[pert] - xbar_c, true_delta))
        except DegenerateError:
            scores.append(0.0)
    return float(np.mean(scores))


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
                    mode="train", gumbel_seeds=gumbel_seeds,
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
                _validation_pearson(params, xbar_c, val_truth, graph, embeddings) if val_perts else None
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
