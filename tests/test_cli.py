import json
from pathlib import Path

import pytest

from pertgraph.cli import main
from pertgraph.data import compute_degs, load_expression
from pertgraph.graph import load_edge_list
from pertgraph.model import load_checkpoint


def write_config(path: Path, synth_dir: Path, out_dir: Path, **training):
    lines = [
        "[paths]",
        f"expression = {synth_dir / 'expression.csv'}",
        f"graph = {synth_dir / 'graph.tsv'}",
        f"embeddings = {synth_dir / 'embeddings.csv'}",
        f"out = {out_dir}",
        "",
        "[synth]",
        "n_genes = 40",
        "n_perturbations = 8",
        "cells_per_condition = 6",
        "deg_fracs = 0.06,0.1,0.2",
        "effect_magnitude = 1.0",
        "noise_sigma = 0.0",
        "embed_dim = 8",
        "",
        "[data]",
        "split_fractions = 0.5,0.25,0.25",
        "",
        "[model]",
        "layers = 1",
        "d_struct = 8",
        "d_latent = 8",
        "d_score = 8",
        "",
        "[metrics]",
        "des_k = 5,10",
        "",
        "[training]",
    ]
    defaults = {"max_epochs": 1, "batch_size": 8, "patience": 1}
    defaults.update(training)
    lines += [f"{k} = {v}" for k, v in defaults.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def synth_run(tmp_path):
    synth_dir = tmp_path / "data"
    cfg = write_config(tmp_path / "run.ini", synth_dir, tmp_path / "out")
    assert main(["synth", "--config", str(cfg), "--seed", "3", "--out", str(synth_dir)]) == 0
    return cfg, synth_dir, tmp_path


# --- synth ----------------------------------------------------------------------


def test_synth_outputs_parse_back(synth_run):
    cfg, synth_dir, _ = synth_run
    ds = load_expression(synth_dir / "expression.csv")
    assert ds.n_genes == 40
    graph, dropped = load_edge_list(synth_dir / "graph.tsv", ds.vocab)
    assert dropped == 0 and graph.n_edges > 0
    assert (synth_dir / "effective_config.ini").exists()


def test_synth_byte_identical_under_seed(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path / "run.ini", d1, tmp_path / "out")
    assert main(["synth", "--config", str(cfg), "--seed", "9", "--out", str(d1)]) == 0
    assert main(["synth", "--config", str(cfg), "--seed", "9", "--out", str(d2)]) == 0
    for name in ("expression.csv", "graph.tsv", "embeddings.csv", "truth.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_synth_manifest_matches_computed_degs_at_zero_noise(synth_run):
    _, synth_dir, _ = synth_run
    ds = load_expression(synth_dir / "expression.csv")
    table = compute_degs(ds)
    manifest = json.loads((synth_dir / "truth.json").read_text())
    for pert, genes in manifest["deg_sets"].items():
        found = {ds.vocab.names[i] for i in table.deg_indices(pert)}
        assert found == set(genes)


def test_synth_out_path_with_percent(tmp_path):
    out = tmp_path / "100%"
    cfg = write_config(tmp_path / "run.ini", out, tmp_path / "out")
    assert main(["synth", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    assert main(["synth", "--config", str(out / "effective_config.ini"), "--out", str(tmp_path / "again")]) == 0


# --- train ---------------------------------------------------------------------


def test_train_smoke_and_checkpoint_readable(synth_run):
    cfg, _, tmp = synth_run
    out = tmp / "out"
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    params = load_checkpoint(out / "checkpoint.json", out / "checkpoint.bin")
    assert params.n_genes == 40
    history = json.loads((out / "history.json").read_text())
    assert len(history["epochs"]) == 1
    # zero-noise data has zero-spread non-DEG deltas, so the delta estimate
    # degenerates and training falls back to 1.0
    assert history["huber_delta"] == 1.0
    assert (out / "splits.json").exists()
    assert (out / "effective_config.ini").exists()


def test_train_missing_graph_exits_2(synth_run, capsys):
    cfg, synth_dir, _ = synth_run
    (synth_dir / "graph.tsv").unlink()
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "graph.tsv" in err


def test_train_ablation_flag_recorded(synth_run):
    cfg, _, tmp = synth_run
    out2 = tmp / "ablation_out"
    assert main(["train", "--config", str(cfg), "--seed", "3", "--out", str(out2), "--ablation", "no_non_deg"]) == 0
    history = json.loads((out2 / "history.json").read_text())
    assert history["config"]["ablation"] == "no_non_deg"
    assert history["config"]["lambda_non"] == 0.0


def test_bad_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[training]\nmax_epoch = 5\n")
    assert main(["train", "--config", str(bad)]) == 1


# --- eval -----------------------------------------------------------------------


def test_eval_oracle_mode_perfect_metrics(synth_run):
    cfg, _, tmp = synth_run
    out = tmp / "oracle_out"
    assert main(["eval", "--config", str(cfg), "--seed", "3", "--out", str(out), "--oracle"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    for name in ("pearson_delta", "pds", "des_fdr", "des_at_5", "des_at_10", "direction_match"):
        agg = metrics["overall"][name]
        assert agg["mean"] == pytest.approx(1.0), name
    scatters = list(out.glob("scatter_*.csv"))
    assert len(scatters) == len(metrics["per_perturbation"])


def test_eval_deterministic_and_strata_consistent(synth_run):
    cfg, synth_dir, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    e1, e2 = tmp / "e1", tmp / "e2"
    ckpt = str(tmp / "out" / "checkpoint.json")
    assert main(["eval", "--config", str(cfg), "--seed", "3", "--out", str(e1), "--checkpoint", ckpt]) == 0
    assert main(["eval", "--config", str(cfg), "--seed", "3", "--out", str(e2), "--checkpoint", ckpt]) == 0
    assert (e1 / "metrics.json").read_bytes() == (e2 / "metrics.json").read_bytes()

    # stratum labels in the report agree with effect_size_strata on the truth
    from pertgraph.data import effect_size_strata

    metrics = json.loads((e1 / "metrics.json").read_text())
    ds = load_expression(synth_dir / "expression.csv")
    test_perts = json.loads((tmp / "out" / "splits.json").read_text())["test"]
    table = compute_degs(ds, perturbations=test_perts)
    strata = effect_size_strata(table)
    for stratum, block in metrics["strata"].items():
        n_in_stratum = sum(1 for p in test_perts if strata[p] == stratum)
        assert block["pds"]["n"] == n_in_stratum


def test_eval_missing_checkpoint_exits_2(synth_run):
    cfg, _, tmp = synth_run
    assert main(["eval", "--config", str(cfg), "--out", str(tmp / "nope")]) == 2


def _rewrite_manifest(ckpt: Path, **fields):
    manifest = json.loads(ckpt.read_text())
    manifest.update(fields)
    ckpt.write_text(json.dumps(manifest))


def _drop_manifest_key(ckpt: Path, key: str):
    manifest = json.loads(ckpt.read_text())
    del manifest[key]
    ckpt.write_text(json.dumps(manifest))


CHECKPOINT_DEFECTS = {
    "truncated-blob": lambda c: c.with_suffix(".bin").write_bytes(c.with_suffix(".bin").read_bytes()[:-12]),
    "oversized-blob": lambda c: c.with_suffix(".bin").write_bytes(c.with_suffix(".bin").read_bytes() + bytes(8)),
    "malformed-manifest": lambda c: c.write_text(c.read_text()[:-30]),
    "manifest-missing-params": lambda c: _drop_manifest_key(c, "params"),
    "manifest-missing-n-genes": lambda c: _drop_manifest_key(c, "n_genes"),
    "gene-count-mismatch": lambda c: _rewrite_manifest(c, n_genes=41),
    "node-count-mismatch": lambda c: _rewrite_manifest(c, n_nodes=41),
}


@pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
def test_bad_checkpoint_is_a_one_line_data_error(synth_run, capsys, defect):
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    ckpt = tmp / "out" / "checkpoint.json"
    CHECKPOINT_DEFECTS[defect](ckpt)
    capsys.readouterr()
    for command in ("eval", "predict"):
        assert main([command, "--config", str(cfg), "--out", str(tmp / command), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


# --- predict --------------------------------------------------------------------


def test_predict_writes_profiles(synth_run):
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    out = tmp / "pred_out"
    ckpt = str(tmp / "out" / "checkpoint.json")
    assert main(["predict", "--config", str(cfg), "--seed", "3", "--out", str(out), "--checkpoint", ckpt]) == 0
    lines = (out / "predictions.csv").read_text().strip().splitlines()
    test_perts = json.loads((tmp / "out" / "splits.json").read_text())["test"]
    assert len(lines) == 1 + len(test_perts)
    assert lines[0].split(",")[0] == "perturbation"


# --- graph-stats / deg-coverage ----------------------------------------------------


def test_graph_stats_hand_counts(tmp_path):
    expr = tmp_path / "expr.csv"
    expr.write_text(
        "sample_id,perturbation,A,B,C\n"
        "s1,control,1.0,1.0,1.0\ns2,control,1.0,1.0,1.0\n"
        "s3,B,2.0,0.0,1.0\ns4,B,2.0,0.0,1.0\n"
    )
    gpath = tmp_path / "g.tsv"
    gpath.write_text("A\tB\t0.5\nB\tC\t0.9\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[paths]\nexpression = {expr}\ngraph = {gpath}\nout = {tmp_path / 'gs'}\n")
    assert main(["graph-stats", "--config", str(cfg)]) == 0
    stats = json.loads((tmp_path / "gs" / "graph_stats.json").read_text())
    assert stats["nodes"] == 3 and stats["edges"] == 2
    assert stats["mean_degree"] == pytest.approx(4.0 / 3.0)
    assert stats["median_degree"] == 1.0
    assert stats["dropped_edges"] == 0


def test_graph_stats_topk_bound_reported(synth_run):
    cfg, synth_dir, tmp = synth_run
    out = tmp / "gs_out"
    ini = (tmp / "topk.ini")
    ini.write_text(
        f"[paths]\nexpression = {synth_dir / 'expression.csv'}\n"
        f"graph = {synth_dir / 'graph.tsv'}\nout = {out}\n"
        "[graph]\ntop_k = 2\n"
    )
    assert main(["graph-stats", "--config", str(ini)]) == 0
    stats = json.loads((out / "graph_stats.json").read_text())
    assert stats["nominated_bound_ok"] is True
    assert stats["top_k"] == 2


def test_deg_coverage_monotone_and_nonempty(synth_run):
    cfg, _, tmp = synth_run
    out = tmp / "cov_out"
    assert main(["deg-coverage", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads((out / "deg_coverage.json").read_text())
    assert payload["per_perturbation"]
    for cov in payload["per_perturbation"].values():
        assert all(b >= a for a, b in zip(cov, cov[1:]))
        assert 0.0 <= cov[0] and cov[-1] <= 1.0
    # planted DEG sets live in the perturbed gene's module, so hop-1 sees most of them
    assert payload["mean_coverage"][0] > 0.5
