"""Run configuration: sectioned INI file, overridden by CLI flags, on top of
defaults. Every command writes the fully resolved config into its run
directory so outputs are self-describing.

Each setting is declared once, as a field of the dataclass that uses it.
`KEYS` maps every INI `[section] key` to that field's path from `RunConfig`,
and the field's annotation decides how the value is parsed and written."""

from __future__ import annotations

import configparser
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .data import SynthConfig, check_split_fractions
from .errors import UsageError, atomic_write, check_range
from .graph import check_topk_mode
from .training import TrainConfig


@dataclass
class RunConfig:
    """The settings the CLI reads itself, plus the training and synth configs."""

    expression: str | None = None
    graph: str | None = None
    embeddings: str | None = None
    out: str = "run"
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    top_k: int = 0              # 0 disables confidence filtering
    topk_mode: str = "union"
    coverage_max_hops: int = 4
    des_k: tuple[int, ...] = (10, 50, 100)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self) -> None:
        """Check the CLI's own settings and the training and synth configs, so a
        bad one fails before any command runs, whether the command reads it or not."""
        self.train.validate()
        self.synth.validate()
        check_split_fractions(self.split_fractions)
        check_topk_mode(self.topk_mode)
        check_range("top_k", self.top_k, 0)
        for k in self.des_k:
            check_range("des_k", k, 1)
        check_range("coverage_max_hops", self.coverage_max_hops, 1)


def _under(prefix: str, *names: str) -> dict[str, str]:
    return {name: prefix + name for name in names}


# [section] -> key -> field path; the order is the effective config's order
KEYS: dict[str, dict[str, str]] = {
    "paths": _under("", "expression", "graph", "embeddings", "out"),
    "data": {**_under("train.", "alpha", "deg_correction"), "split_fractions": "split_fractions"},
    "graph": {
        **_under("", "top_k", "topk_mode"),
        "weighted_aggregation": "train.model.weighted_aggregation",
        "coverage_max_hops": "coverage_max_hops",
    },
    "model": {
        "layers": "train.model.n_layers",
        **_under("train.model.", "d_struct", "d_latent", "d_score", "tau",
                 "threshold", "selection_mode", "select_top_m"),
    },
    "loss": _under("train.weights.", "lambda_non", "lambda_align", "huber_delta", "huber_scale"),
    "training": _under("train.", "max_epochs", "batch_size", "learning_rate", "weight_decay",
                       "patience", "optimizer", "ablation"),
    "metrics": _under("", "des_k"),
    "synth": {
        **_under("synth.", "n_genes", "n_perturbations", "cells_per_condition", "deg_fracs",
                 "effect_magnitude", "noise_sigma", "embed_dim"),
        "modules": "synth.n_modules",
    },
    "run": _under("train.", "seed"),
}


def owner(cfg: RunConfig, path: str) -> tuple[object, str]:
    """The dataclass holding the field at `path`, and the field's name."""
    *parents, name = path.split(".")
    for parent in parents:
        cfg = getattr(cfg, parent)
    return cfg, name


def _parse(tp, raw: str):
    """Parse `raw` as a value of type `tp`; a bad value is a plain ValueError."""
    raw = raw.strip()
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        inner = next(a for a in args if a is not type(None))
        return None if raw.lower() in ("auto", "none") else _parse(inner, raw)
    if typing.get_origin(tp) is tuple:
        parts = raw.split(",")
        if args[-1] is Ellipsis:
            return tuple(_parse(args[0], part) for part in parts)
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} comma-separated values")
        return tuple(_parse(a, part) for a, part in zip(args, parts))
    if tp is bool:
        low = raw.lower()
        if low not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"expected a boolean, got {raw!r}")
        return low in ("true", "1", "yes")
    return tp(raw)  # int, float or str


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
        if section not in KEYS:
            raise UsageError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in KEYS[section]:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
            obj, name = owner(cfg, KEYS[section][key])
            try:
                setattr(obj, name, _parse(typing.get_type_hints(type(obj))[name], raw))
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
    for section, keys in KEYS.items():
        parser[section] = {}
        for key, path in keys.items():
            value = getattr(*owner(cfg, path))
            if section == "paths" and value is None:
                continue
            parser[section][key] = _format_value(value)
    path = out_dir / "effective_config.ini"
    with atomic_write(path) as fh:
        parser.write(fh)
    return path
