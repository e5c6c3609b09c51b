import pytest

from pertgraph.cli import build_parser, resolve_config
from pertgraph.config import RunConfig, load_config, write_effective_config


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(),
        RunConfig(
            expression="data/expression.csv",
            graph="data/graph.tsv",
            embeddings="data/embeddings.csv",
            out="runs/replay",
            alpha=0.01,
            deg_correction="benjamini-hochberg",
            split_fractions=(0.7, 0.2, 0.1),
            top_k=5,
            topk_mode="mutual",
            weighted_aggregation=True,
            tau=0.1 + 0.2,
            threshold=1.0 / 3.0,
            selection_mode="top_m",
            lambda_align=1e-7,
            huber_delta=0.3,
            learning_rate=3e-4,
            optimizer="sgd",
            ablation="no_non_deg",
            des_k=(5, 20),
            deg_fracs=(0.05, 0.1, 0.25),
            modules=4,
            seed=11,
        ),
    ],
    ids=["defaults", "non-defaults"],
)
def test_effective_config_round_trips(tmp_path, cfg):
    assert load_config(write_effective_config(cfg, tmp_path)) == cfg


def test_effective_config_seed_is_overridden_by_flag(tmp_path):
    path = str(write_effective_config(RunConfig(seed=7), tmp_path))
    assert resolve_config(build_parser().parse_args(["train", "--config", path])).seed == 7
    assert resolve_config(build_parser().parse_args(["train", "--config", path, "--seed", "9"])).seed == 9
