import dataclasses
import typing
from pathlib import Path

import pytest

from pertgraph.cli import build_parser, resolve_config
from pertgraph.config import KEYS, RunConfig, load_config, owner, write_effective_config
from pertgraph.data import SynthConfig
from pertgraph.loss import LossWeights
from pertgraph.model import ModelConfig
from pertgraph.training import TrainConfig


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(),
        RunConfig(
            expression="data/expression.csv",
            graph="data/graph.tsv",
            embeddings="data/embeddings.csv",
            out="runs/replay",
            split_fractions=(0.7, 0.2, 0.1),
            top_k=5,
            topk_mode="mutual",
            des_k=(5, 20),
            seed=11,
            train=TrainConfig(
                alpha=0.01,
                deg_correction="benjamini-hochberg",
                learning_rate=3e-4,
                optimizer="sgd",
                ablation="no_non_deg",
                weights=LossWeights(lambda_align=1e-7, huber_delta=0.3),
                model=ModelConfig(
                    weighted_aggregation=True,
                    tau=0.1 + 0.2,
                    threshold=1.0 / 3.0,
                    selection_mode="top_m",
                ),
            ),
            synth=SynthConfig(deg_fracs=(0.05, 0.1, 0.25), n_modules=4),
        ),
        RunConfig(expression="data/50%_expr.csv", out="runs/100%", seed=3),
    ],
    ids=["defaults", "non-defaults", "percent-paths"],
)
def test_effective_config_round_trips(tmp_path, cfg):
    assert load_config(write_effective_config(cfg, tmp_path)) == cfg


def test_effective_config_seed_is_overridden_by_flag(tmp_path):
    path = str(write_effective_config(RunConfig(seed=7), tmp_path))
    assert resolve_config(build_parser().parse_args(["train", "--config", path])).seed == 7
    assert resolve_config(build_parser().parse_args(["train", "--config", path, "--seed", "9"])).seed == 9


DEFAULT_EFFECTIVE_CONFIG = """\
[paths]
out = run

[data]
alpha = 0.05
deg_correction = none
split_fractions = 0.8,0.1,0.1

[graph]
top_k = 0
topk_mode = union
weighted_aggregation = false
coverage_max_hops = 4

[model]
layers = 2
d_struct = 64
d_latent = 128
d_score = 64
tau = 1.0
threshold = auto
selection_mode = threshold
select_top_m = 10

[loss]
lambda_non = 0.01
lambda_align = 0.1
huber_delta = auto
huber_scale = 1.0

[training]
max_epochs = 200
batch_size = 32
learning_rate = 0.001
weight_decay = 0.0
patience = 30
optimizer = adam
ablation = full

[metrics]
des_k = 10,50,100

[synth]
n_genes = 200
n_perturbations = 40
cells_per_condition = 20
deg_fracs = 0.03,0.07,0.12
effect_magnitude = 1.0
noise_sigma = 0.1
embed_dim = 16
modules = auto

[run]
seed = 0

"""


def test_default_effective_config_text(tmp_path):
    # section order, key order and value spelling are an artifact format
    assert write_effective_config(RunConfig(), tmp_path).read_text() == DEFAULT_EFFECTIVE_CONFIG


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    ini = tmp_path / "readme.ini"
    ini.write_text(readme.split("minimal config:\n\n```ini\n")[1].split("```")[0])
    cfg = load_config(ini)
    assert cfg.top_k == 10 and cfg.train.model.tau == 1.0 and cfg.synth.n_modules is None


def _leaf_paths(cls, prefix=""):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _leaf_paths(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_every_setting_has_exactly_one_key():
    # TrainConfig.seed comes from [run] seed, ModelConfig.no_context from the ablation
    paths = [path for keys in KEYS.values() for path in keys.values()]
    assert len(paths) == len(set(paths))
    assert sorted(paths) == sorted(set(_leaf_paths(RunConfig)) - {"train.seed", "train.model.no_context"})


# key -> (the value as written in the effective config, the parsed value)
NON_DEFAULT = {
    "expression": ("data/expr.csv", "data/expr.csv"),
    "graph": ("data/graph.tsv", "data/graph.tsv"),
    "embeddings": ("data/emb.csv", "data/emb.csv"),
    "out": ("runs/other", "runs/other"),
    "alpha": ("0.01", 0.01),
    "deg_correction": ("benjamini-hochberg", "benjamini-hochberg"),
    "split_fractions": ("0.7,0.2,0.1", (0.7, 0.2, 0.1)),
    "top_k": ("5", 5),
    "topk_mode": ("mutual", "mutual"),
    "weighted_aggregation": ("true", True),
    "coverage_max_hops": ("6", 6),
    "layers": ("3", 3),
    "d_struct": ("16", 16),
    "d_latent": ("32", 32),
    "d_score": ("8", 8),
    "tau": ("0.5", 0.5),
    "threshold": ("0.25", 0.25),
    "selection_mode": ("top_m", "top_m"),
    "select_top_m": ("4", 4),
    "lambda_non": ("0.5", 0.5),
    "lambda_align": ("1e-07", 1e-7),
    "huber_delta": ("0.3", 0.3),
    "huber_scale": ("2.0", 2.0),
    "max_epochs": ("50", 50),
    "batch_size": ("8", 8),
    "learning_rate": ("0.0003", 3e-4),
    "weight_decay": ("0.01", 0.01),
    "patience": ("5", 5),
    "optimizer": ("sgd", "sgd"),
    "ablation": ("no_context", "no_context"),
    "des_k": ("5,20", (5, 20)),
    "n_genes": ("100", 100),
    "n_perturbations": ("12", 12),
    "cells_per_condition": ("8", 8),
    "deg_fracs": ("0.05,0.1,0.25", (0.05, 0.1, 0.25)),
    "effect_magnitude": ("2.0", 2.0),
    "noise_sigma": ("0.5", 0.5),
    "embed_dim": ("4", 4),
    "modules": ("4", 4),
    "seed": ("11", 11),
}


@pytest.mark.parametrize(
    "section,key", [(s, k) for s, keys in KEYS.items() for k in keys], ids=lambda x: x
)
def test_each_key_sets_its_field_and_is_written_back(tmp_path, section, key):
    raw, value = NON_DEFAULT[key]
    path = KEYS[section][key]
    assert getattr(*owner(RunConfig(), path)) != value
    ini = tmp_path / "in.ini"
    ini.write_text(f"[{section}]\n{key} = {raw}\n")
    cfg = load_config(ini)
    expected = RunConfig()
    setattr(*owner(expected, path), value)
    assert cfg == expected  # the value reached its field and nothing else moved
    first = write_effective_config(cfg, tmp_path / "a").read_text()
    assert f"\n{key} = {raw}\n" in first
    again = write_effective_config(load_config(tmp_path / "a" / "effective_config.ini"), tmp_path / "b")
    assert again.read_text() == first
