"""Run configuration: sectioned INI file, overridden by CLI flags, on top of
defaults. Every command writes the fully resolved config into its run
directory so outputs are self-describing."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .data import SynthConfig
from .errors import UsageError, atomic_write
from .loss import LossWeights
from .model import ModelConfig
from .training import TrainConfig

_SECTIONS = {
    "paths": ("expression", "graph", "embeddings", "out"),
    "data": ("alpha", "deg_correction", "split_fractions"),
    "graph": ("top_k", "topk_mode", "weighted_aggregation", "coverage_max_hops"),
    "model": (
        "layers", "d_struct", "d_latent", "d_score", "tau",
        "threshold", "selection_mode", "select_top_m",
    ),
    "loss": ("lambda_non", "lambda_align", "huber_delta", "huber_scale"),
    "training": (
        "max_epochs", "batch_size", "learning_rate", "weight_decay",
        "patience", "optimizer", "ablation",
    ),
    "metrics": ("des_k",),
    "synth": (
        "n_genes", "n_perturbations", "cells_per_condition", "deg_fracs",
        "effect_magnitude", "noise_sigma", "embed_dim", "modules",
    ),
    "run": ("seed",),
}


@dataclass
class RunConfig:
    # paths
    expression: str | None = None
    graph: str | None = None
    embeddings: str | None = None
    out: str = "run"
    # data
    alpha: float = 0.05
    deg_correction: str = "none"
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    # graph
    top_k: int = 0              # 0 disables confidence filtering
    topk_mode: str = "union"
    weighted_aggregation: bool = False
    coverage_max_hops: int = 4
    # model
    layers: int = 2
    d_struct: int = 64
    d_latent: int = 128
    d_score: int = 64
    tau: float = 1.0
    threshold: float | None = None      # None: 1 / n_nodes
    selection_mode: str = "threshold"
    select_top_m: int = 10
    # loss
    lambda_non: float = 0.01
    lambda_align: float = 0.1
    huber_delta: float | None = None    # None: estimated from training data
    huber_scale: float = 1.0
    # training
    max_epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    patience: int = 30
    optimizer: str = "adam"
    ablation: str = "full"
    # metrics
    des_k: tuple[int, ...] = (10, 50, 100)
    # synth
    n_genes: int = 200
    n_perturbations: int = 40
    cells_per_condition: int = 20
    deg_fracs: tuple[float, float, float] = (0.03, 0.07, 0.12)
    effect_magnitude: float = 1.0
    noise_sigma: float = 0.1
    embed_dim: int = 16
    modules: int | None = None
    # run ([run] seed; --seed overrides it)
    seed: int = 0

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_layers=self.layers,
            d_struct=self.d_struct,
            d_latent=self.d_latent,
            d_score=self.d_score,
            tau=self.tau,
            threshold=self.threshold,
            selection_mode=self.selection_mode,
            select_top_m=self.select_top_m,
            weighted_aggregation=self.weighted_aggregation,
        )

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            lambda_non=self.lambda_non,
            lambda_align=self.lambda_align,
            huber_delta=self.huber_delta,
            huber_scale=self.huber_scale,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            max_epochs=self.max_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            patience=self.patience,
            seed=self.seed,
            weights=self.loss_weights(),
            ablation=self.ablation,
            model=self.model_config(),
            optimizer=self.optimizer,
            alpha=self.alpha,
            deg_correction=self.deg_correction,
        )

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            n_genes=self.n_genes,
            n_perturbations=self.n_perturbations,
            cells_per_condition=self.cells_per_condition,
            deg_fracs=self.deg_fracs,
            effect_magnitude=self.effect_magnitude,
            noise_sigma=self.noise_sigma,
            embed_dim=self.embed_dim,
            n_modules=self.modules,
        )


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("expression", "graph", "embeddings", "out", "deg_correction",
               "topk_mode", "selection_mode", "optimizer", "ablation"):
        return raw
    if key in ("weighted_aggregation",):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {raw!r}")
    if key in ("threshold", "huber_delta"):
        return None if raw.lower() in ("auto", "none") else float(raw)
    if key == "modules":
        return None if raw.lower() in ("auto", "none") else int(raw)
    if key in ("split_fractions", "deg_fracs"):
        parts = [float(x) for x in raw.split(",")]
        if len(parts) != 3:
            raise UsageError(f"config key {key}: expected 3 comma-separated values")
        return tuple(parts)
    if key == "des_k":
        return tuple(int(x) for x in raw.split(","))
    if key in ("alpha", "tau", "lambda_non", "lambda_align", "huber_scale",
               "learning_rate", "weight_decay", "effect_magnitude", "noise_sigma"):
        return float(raw)
    return int(raw)


def load_config(path) -> RunConfig:
    """Parse an INI run config; unknown sections or keys are usage errors."""
    # values are literal on both sides, so a path may hold a '%'
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # a line without '=', a repeated key or section
        raise UsageError(f"malformed config file: {' '.join(str(exc).split())}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc.reason}") from None
    if not read:
        raise UsageError(f"config file not found: {path}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise UsageError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
            try:
                setattr(cfg, key, _parse_value(key, raw))
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
    return cfg


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_effective_config(cfg: RunConfig, out_dir) -> Path:
    """Write the fully resolved configuration (defaults included) to the run dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser[section] = {}
        for key in keys:
            value = getattr(cfg, key)
            if section == "paths" and value is None:
                continue
            parser[section][key] = _format_value(value)
    path = out_dir / "effective_config.ini"
    with atomic_write(path) as fh:
        parser.write(fh)
    return path
