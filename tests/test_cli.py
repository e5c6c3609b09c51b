import configparser
import csv
import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from pertgraph import data, errors
from pertgraph.cli import main
from pertgraph.config import RunConfig, load_config, write_effective_config
from pertgraph.data import (
    PerturbationDataset,
    SemanticEmbeddings,
    compute_degs,
    load_embeddings,
    load_expression,
    save_embeddings,
    save_expression,
)
from pertgraph.errors import DataError, atomic_write, write_json
from pertgraph.graph import GeneVocab, KnowledgeGraph, load_edge_list, save_edge_list
from pertgraph.metrics import report, write_scatter_csv
from pertgraph.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from pertgraph.training import TrainHistory


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


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("training", "optimizer", "sgd"),
        ("data", "deg_correction", "benjamini-hochberg"),
        ("training", "weight_decay", 0.01),
        ("loss", "huber_delta", 0.25),
    ],
    ids=["sgd", "benjamini-hochberg", "weight-decay", "huber-delta"],
)
def test_train_option_smoke(synth_run, section, key, value):
    cfg, _, tmp = synth_run
    text = cfg.read_text().replace("max_epochs = 1\n", "max_epochs = 2\n").replace("patience = 1\n", "patience = 2\n")
    option = f"[{section}]\n{key} = {value}\n"
    cfg.write_text(text.replace(f"[{section}]\n", option) if f"[{section}]\n" in text else text + option)
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    out = tmp / "out"
    history = json.loads((out / "history.json").read_text())
    assert (history["huber_delta"] if key == "huber_delta" else history["config"][key]) == value
    assert len(history["epochs"]) == 2
    assert all(math.isfinite(row[term]) for row in history["epochs"] for term in ("recon", "non", "align", "total"))
    params = load_checkpoint(out / "checkpoint.json", out / "checkpoint.bin")
    assert all(np.all(np.isfinite(v)) for v in params.values.values())


def test_bad_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[training]\nmax_epoch = 5\n")
    assert main(["train", "--config", str(bad)]) == 1


def assert_one_line(err: str, prefix: str) -> None:
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ["[training]\nmax_epochs\n", "[training]\nmax_epochs = 1\nmax_epochs = 2\n"],
    ids=["no-equals", "duplicate-key"],
)
def test_malformed_config_exits_1(tmp_path, capsys, text):
    # a line without '=' is a configparser ParsingError, a repeated key a DuplicateOptionError
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["train", "--config", str(bad)]) == 1
    assert_one_line(capsys.readouterr().err, "error: malformed config file")


@pytest.mark.parametrize(
    "setting",
    [
        "tau = 0", "tau = -1", "threshold = 1.5", "threshold = 0",
        "selection_mode = topm", "select_top_m = 0", "select_top_m = -3",
    ],
)
def test_bad_model_hyperparameter_exits_1(synth_run, capsys, setting):
    cfg, _, _ = synth_run
    cfg.write_text(cfg.read_text().replace("d_score = 8\n", f"d_score = 8\n{setting}\n"))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert_one_line(err, "error: ")
    assert setting.split()[0] in err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("model", "d_latent", "-1"), ("model", "d_score", "0"), ("model", "d_struct", "0"),
        ("model", "layers", "-1"), ("training", "learning_rate", "nan"), ("training", "weight_decay", "nan"),
        ("loss", "huber_scale", "nan"), ("loss", "lambda_non", "nan"), ("data", "alpha", "2.0"), ("data", "alpha", "0"),
        ("graph", "weighted_aggregation", "maybe"), ("data", "split_fractions", "0.5,0.5"),
        ("synth", "deg_fracs", "0.1,0.2,0.3,0.4"), ("model", "layers", "2.5"), ("metrics", "des_k", "5,x"),
        ("graph", "top_k", "-3"), ("metrics", "des_k", "0,5"), ("graph", "coverage_max_hops", "0"),
        ("synth", "deg_fracs", "nan,0.1,0.1"), ("synth", "deg_fracs", "0.1,inf,0.1"),
        ("synth", "noise_sigma", "nan"), ("synth", "noise_sigma", "inf"), ("synth", "effect_magnitude", "nan"),
        ("synth", "modules", "-3"), ("synth", "modules", "1"),
        ("data", "split_fractions", "nan,0.5,0.5"), ("graph", "topk_mode", "bogus"),
    ],
)
def test_bad_setting_exits_1(synth_run, capsys, section, key, value):
    # the bad value replaces the key's line, or is added to its section
    cfg, _, _ = synth_run
    lines = [line for line in cfg.read_text().splitlines() if not line.startswith(f"{key} =")]
    if f"[{section}]" not in lines:
        lines += ["", f"[{section}]"]
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    cfg.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert_one_line(err, "error: ")
    assert key in err and "malformed" not in err
    assert err.count("config key") <= 1


@pytest.mark.parametrize(
    "line,bad,message",
    [("batch_size = 8", "batch_size = 0", "batch_size must be >= 1, got 0"),
     ("[data]", "[data]\nalpha = 2.0", "alpha must lie in (0, 1], got 2.0")],
    ids=["batch_size", "alpha"],
)
def test_bad_training_setting_fails_synth_without_effective_config(tmp_path, capsys, line, bad, message):
    # synth reads no training setting, but writes them all into its effective config
    cfg = write_config(tmp_path / "run.ini", tmp_path / "data", tmp_path / "data")
    cfg.write_text(cfg.read_text().replace(f"{line}\n", f"{bad}\n"))
    assert main(["synth", "--config", str(cfg)]) == 1
    assert_one_line(capsys.readouterr().err, f"error: {message}")
    assert not (tmp_path / "data" / "effective_config.ini").exists()


@pytest.mark.parametrize(
    "settings,message",
    [({"n_genes": "20", "n_perturbations": "25"}, "n_perturbations must be <= n_genes = 20, got 25"),
     ({"modules": "11"}, "n_modules must be <= n_genes // 4 = 10 (n_genes = 40), got 11")],
    ids=["more-perturbations-than-genes", "modules-of-fewer-than-4-genes"],
)
def test_synth_settings_it_cannot_honour_exit_1(tmp_path, capsys, settings, message):
    # both once failed late (exit 4) or were silently changed (modules clamped to n_genes // 4)
    cfg = write_config(tmp_path / "run.ini", tmp_path / "data", tmp_path / "data")
    lines = [line for line in cfg.read_text().splitlines() if line.split(" = ")[0] not in settings]
    at = lines.index("[synth]") + 1
    lines[at:at] = [f"{key} = {value}" for key, value in settings.items()]
    cfg.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["synth", "--config", str(cfg), "--seed", "3"]) == 1
    assert_one_line(capsys.readouterr().err, f"error: {message}\n")
    assert not (tmp_path / "data" / "expression.csv").exists()


def test_unexpected_exception_exits_4_with_one_line(monkeypatch, tmp_path, capsys):
    from pertgraph import cli

    def broken(cfg, args, out):
        raise KeyError("boom")

    monkeypatch.setitem(cli.COMMANDS, "graph-stats", broken)
    assert main(["graph-stats", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_non_finite_edge_weight_is_a_one_line_data_error(synth_run, capsys, weight):
    cfg, synth_dir, _ = synth_run
    cfg.write_text(cfg.read_text().replace("[metrics]", "[graph]\nweighted_aggregation = true\n\n[metrics]"))
    graph = synth_dir / "graph.tsv"
    header, first, *rest = graph.read_text().splitlines()
    graph.write_text("\n".join([header, first.rsplit("\t", 1)[0] + f"\t{weight}", *rest]) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert_one_line(err, f"data error: {graph}: line 2: ")


@pytest.mark.parametrize("name", ["expression.csv", "embeddings.csv", "graph.tsv"])
def test_non_finite_value_on_line_3_names_its_file(synth_run, capsys, name):
    cfg, synth_dir, _ = synth_run
    path = synth_dir / name
    sep = "\t" if name.endswith(".tsv") else ","
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(sep, 1)[0] + sep + "nan"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 2
    assert_one_line(capsys.readouterr().err, f"data error: {path}: line 3: ")


@pytest.mark.parametrize("command", ["train", "deg-coverage"])
def test_perturbation_label_that_is_no_gene_column_is_a_data_error(synth_run, capsys, command):
    # the first two labels of the file become two that name no gene; the one
    # met first is named, though the other sorts before it
    cfg, synth_dir, _ = synth_run
    path = synth_dir / "expression.csv"
    rows = [line.split(",", 2) for line in path.read_text().splitlines()]
    labels = list(dict.fromkeys(label for _, label, _ in rows[1:] if label != "control"))
    stray = {labels[0]: "non-targeting", labels[1]: "SCRAMBLE"}
    path.write_text("".join(f"{sid},{stray.get(label, label)},{rest}\n" for sid, label, rest in rows))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--seed", "3"]) == 2
    assert_one_line(capsys.readouterr().err, f"data error: {path}: perturbation 'non-targeting' is not a gene column\n")


def test_a_repeated_sample_id_is_a_one_line_data_error(synth_run, capsys):
    # a blank line (skipped on reading) lies between the two rows, so a row's index is not its line
    cfg, synth_dir, _ = synth_run
    path = synth_dir / "expression.csv"
    lines = path.read_text().splitlines()
    sample_id = lines[2].split(",", 1)[0]
    lines[6] = f"{sample_id},{lines[6].split(',', 1)[1]}"
    lines.insert(4, "")
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["deg-coverage", "--config", str(cfg), "--seed", "3"]) == 2
    assert_one_line(capsys.readouterr().err, f"data error: {path}: sample_id {sample_id!r} is listed twice, on lines 3 and 8\n")


def test_a_repeated_embedding_row_is_a_one_line_data_error(synth_run, capsys):
    cfg, synth_dir, _ = synth_run
    path = synth_dir / "embeddings.csv"
    lines = path.read_text().splitlines()
    width = lines[0].count(",")
    lines.append("NOT_A_GENE," + ",".join(["0.5"] * width))  # a gene outside the vocabulary stays legal
    path.write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    gene = lines[5].split(",", 1)[0]
    lines += ["", f"{gene}," + ",".join(["0.25"] * width)]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 2
    assert_one_line(capsys.readouterr().err, f"data error: {path}: gene {gene!r} is listed twice, on lines 6 and {len(lines)}\n")


def _append_non_utf8_line(path: Path):
    path.write_bytes(path.read_bytes() + b"\xff\n")


@pytest.mark.parametrize(
    "name,command",
    [("expression.csv", "deg-coverage"), ("embeddings.csv", "train"), ("graph.tsv", "deg-coverage")],
    ids=["expression", "embeddings", "edge-list"],
)
def test_non_utf8_input_file_is_a_one_line_data_error(synth_run, capsys, name, command):
    cfg, synth_dir, _ = synth_run
    _append_non_utf8_line(synth_dir / name)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert_one_line(err, "data error: ")
    assert name in err and "UTF-8" in err


def test_non_utf8_config_is_a_one_line_usage_error(synth_run, capsys):
    cfg, _, _ = synth_run
    cfg.write_bytes(b"\xff\xfe" + cfg.read_bytes())
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert_one_line(err, "error: config file ")
    assert "UTF-8" in err


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


@pytest.mark.parametrize("name", ["sub/G0000", "G0000\0x", "G" * 300], ids=["separator", "nul", "too-long"])
def test_a_perturbation_that_cannot_name_a_scatter_file_is_refused_before_eval_writes(synth_run, capsys, name):
    # the first perturbation is renamed in all three input files, and the splits file tests it
    cfg, synth_dir, tmp = synth_run
    expression = synth_dir / "expression.csv"
    perts = [p for p in dict.fromkeys(line.split(",")[1] for line in expression.read_text().splitlines()[1:]) if p != "control"]
    for path in (expression, synth_dir / "graph.tsv", synth_dir / "embeddings.csv"):
        path.write_text(path.read_text().replace(perts[0], name))
    splits = tmp / "splits.json"
    splits.write_text(json.dumps({"test": [name, perts[1]]}))
    out = tmp / "eval"
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--seed", "3", "--out", str(out), "--oracle", "--splits", str(splits)]) == 2
    assert_one_line(capsys.readouterr().err, f"data error: perturbation {name!r} cannot name a scatter file: ")
    assert not (out / "metrics.json").exists() and not list(out.glob("scatter_*"))


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


def test_eval_of_a_prediction_too_large_to_score_exits_3(synth_run, capsys):
    # finite weights load, but their predictions would overflow the metrics'
    # sums of squares into NaN; warnings are errors here, so a warning would exit 4
    cfg, _, tmp = synth_run
    out = tmp / "out"
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    paths = (out / "checkpoint.json", out / "checkpoint.bin")
    params = load_checkpoint(*paths)
    params.values["dec.w2"][:] = 1e306
    save_checkpoint(params, *paths)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--seed", "3"]) == 3
    first = sorted(json.loads((out / "splits.json").read_text())["test"])[0]
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: prediction for {first} is too large to score")
    assert err.count("\n") == 1
    assert not (out / "metrics.json").exists()


def test_predict_of_a_prediction_too_large_to_score_exits_3(synth_run, capsys):
    # predict holds its profiles to the rule eval scores them by
    cfg, _, tmp = synth_run
    out = tmp / "out"
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    paths = (out / "checkpoint.json", out / "checkpoint.bin")
    params = load_checkpoint(*paths)
    params.values["dec.w2"][:] = 1e306
    save_checkpoint(params, *paths)
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg), "--seed", "3"]) == 3
    first = sorted(json.loads((out / "splits.json").read_text())["test"])[0]
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: prediction for {first} is too large to score")
    assert err.count("\n") == 1
    assert not (out / "predictions.csv").exists()


def test_write_json_rejects_nan_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "metrics.json"
    write_json({"pearson_delta": 0.5}, path)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json({"pearson_delta": bad}, path)
    assert json.loads(path.read_text()) == {"pearson_delta": 0.5}
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def test_eval_missing_checkpoint_exits_2(synth_run):
    cfg, _, tmp = synth_run
    assert main(["eval", "--config", str(cfg), "--out", str(tmp / "nope")]) == 2


def _rewrite_manifest(ckpt: Path, **fields):
    manifest = json.loads(ckpt.read_text())
    manifest.update(fields)
    ckpt.write_text(json.dumps(manifest))


def _rewrite_model_config(ckpt: Path, **fields):
    config = json.loads(ckpt.read_text())["config"]
    _rewrite_manifest(ckpt, config={**config, **fields})


def _drop_model_config_field(ckpt: Path, name: str):
    config = json.loads(ckpt.read_text())["config"]
    del config[name]
    _rewrite_manifest(ckpt, config=config)


def _drop_manifest_key(ckpt: Path, key: str):
    manifest = json.loads(ckpt.read_text())
    del manifest[key]
    ckpt.write_text(json.dumps(manifest))


def _blob_from_another_checkpoint(ckpt: Path):
    params = load_checkpoint(ckpt, ckpt.with_suffix(".bin"))
    other = ckpt.with_name("other.json")
    values = {k: v + 1.0 for k, v in params.values.items()}
    save_checkpoint(dataclasses.replace(params, values=values), other, other.with_suffix(".bin"))
    ckpt.with_suffix(".bin").write_bytes(other.with_suffix(".bin").read_bytes())


def _drop_param(ckpt: Path, name: str):
    """Remove one parameter from the manifest and its bytes from the blob, keeping the pair consistent."""
    manifest = json.loads(ckpt.read_text())
    blob = ckpt.with_suffix(".bin").read_bytes()
    offset, kept = 0, b""
    for entry in manifest["params"]:
        size = 8 * math.prod(entry["shape"])
        if entry["name"] != name:
            kept += blob[offset : offset + size]
        offset += size
    manifest["params"] = [entry for entry in manifest["params"] if entry["name"] != name]
    manifest["blob_sha256"] = hashlib.sha256(kept).hexdigest()
    ckpt.with_suffix(".bin").write_bytes(kept)
    ckpt.write_text(json.dumps(manifest))


def _transpose_param(ckpt: Path, name: str):
    manifest = json.loads(ckpt.read_text())
    for entry in manifest["params"]:
        if entry["name"] == name:
            entry["shape"] = entry["shape"][::-1]
    ckpt.write_text(json.dumps(manifest))


def _resave_resized(ckpt: Path, **sizes):
    """Replace the checkpoint with a self-consistent one of other sizes, saved by save_checkpoint."""
    params = load_checkpoint(ckpt, ckpt.with_suffix(".bin"))
    sizes = {"n_nodes": params.n_nodes, "n_genes": params.n_genes, "d_embed": params.d_embed, **sizes}
    save_checkpoint(init_params(**sizes, config=params.config, seed=params.seed), ckpt, ckpt.with_suffix(".bin"))


CHECKPOINT_DEFECTS = {
    "blob-from-another-checkpoint": _blob_from_another_checkpoint,
    "truncated-blob": lambda c: c.with_suffix(".bin").write_bytes(c.with_suffix(".bin").read_bytes()[:-12]),
    "oversized-blob": lambda c: c.with_suffix(".bin").write_bytes(c.with_suffix(".bin").read_bytes() + bytes(8)),
    "malformed-manifest": lambda c: c.write_text(c.read_text()[:-30]),
    "manifest-missing-params": lambda c: _drop_manifest_key(c, "params"),
    "manifest-missing-n-genes": lambda c: _drop_manifest_key(c, "n_genes"),
    "gene-count-mismatch": lambda c: _rewrite_manifest(c, n_genes=41),
    "node-count-mismatch": lambda c: _rewrite_manifest(c, n_nodes=41),
    "one-gene-more": lambda c: _resave_resized(c, n_genes=41),
    "one-node-more": lambda c: _resave_resized(c, n_nodes=41),
    "config-tau-zero": lambda c: _rewrite_model_config(c, tau=0.0),
    "config-threshold-above-one": lambda c: _rewrite_model_config(c, threshold=1.5),
    "config-top-m-zero": lambda c: _rewrite_model_config(c, select_top_m=0),
    "config-without-tau": lambda c: _drop_model_config_field(c, "tau"),
    "config-flag-a-string": lambda c: _rewrite_model_config(c, weighted_aggregation="false"),
    "config-top-m-a-fraction": lambda c: _rewrite_model_config(c, selection_mode="top_m", select_top_m=2.5),
    "gene-count-a-fraction": lambda c: _rewrite_manifest(c, n_genes=40.9),
    "shape-entry-a-float": lambda c: _rewrite_manifest(
        c, params=[{**e, "shape": [float(d) for d in e["shape"]]} for e in json.loads(c.read_text())["params"]]
    ),
    "not-a-checkpoint": lambda c: c.write_text('{"epochs": [], "best_epoch": 0}\n'),
    "manifest-missing-enc-b2": lambda c: _drop_param(c, "enc.b2"),
    # the config's ctx.proj is square (d_struct = d_latent = 8), so transpose a
    # parameter that is not; test_model covers a transposed ctx.proj
    "transposed-dec-w1": lambda c: _transpose_param(c, "dec.w1"),
    "non-finite-blob": lambda c: c.with_suffix(".bin").write_bytes(
        np.full(c.with_suffix(".bin").stat().st_size // 8, np.nan).tobytes()
    ),
}

# defects the message must name the parameter of
NAMED_PARAMETER = {"manifest-missing-enc-b2": "enc.b2", "transposed-dec-w1": "dec.w1"}
# defects whose message must name both counts
NAMED_COUNTS = {
    "one-gene-more": "checkpoint has 41 genes, the expression data has 40",
    "one-node-more": "checkpoint has 41 graph nodes, the graph has 40",
}
# defects whose message must name the model config field
NAMED_FIELD = {
    "config-without-tau": "model config field 'tau' is missing",
    "config-flag-a-string": "model config field 'weighted_aggregation' must be a boolean, got 'false'",
    "config-top-m-a-fraction": "model config field 'select_top_m' must be an integer, got 2.5",
    "gene-count-a-fraction": "n_genes must be an integer, got 40.9",
    "shape-entry-a-float": "shape must be an integer, got ",
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
        assert_one_line(err, "data error: ")
        if defect in NAMED_PARAMETER:
            assert f"parameter {NAMED_PARAMETER[defect]} is " in err
        assert NAMED_COUNTS.get(defect, "") in err
        assert NAMED_FIELD.get(defect, "") in err


def _edit_pert_index(ckpt: Path, edit):
    manifest = json.loads(ckpt.read_text())
    first, second = sorted(manifest["pert_index"])[:2]
    edit(manifest["pert_index"], first, second)
    ckpt.write_text(json.dumps(manifest))


PERT_INDEX_DEFECTS = {
    "out-of-range": lambda index, first, _: index.update({first: len(index)}),
    "negative": lambda index, first, _: index.update({first: -1}),
    "repeated": lambda index, first, second: index.update({first: index[second]}),
    "non-integer": lambda index, first, _: index.update({first: float(index[first])}),
    "bool": lambda index, first, _: index.update({first: True}),
}


@pytest.mark.parametrize("defect", sorted(PERT_INDEX_DEFECTS))
def test_malformed_pert_index_is_a_one_line_data_error(synth_run, capsys, defect):
    # the blob's sha256 does not cover the manifest, so only this check stands
    # between an edited row map and a row read out of range or from another name
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3", "--ablation", "no_context"]) == 0
    ckpt = tmp / "out" / "checkpoint.json"
    _edit_pert_index(ckpt, PERT_INDEX_DEFECTS[defect])
    capsys.readouterr()
    for command in ("eval", "predict"):
        assert main([command, "--config", str(cfg), "--out", str(tmp / command), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert_one_line(err, "data error: ")
        assert "checkpoint.json: pert_index must give each of the rows 0.." in err


def _to_single_score_w(ckpt: Path):
    """Rewrite a manifest in the layout that stored the scorer's W as one
    (2 d_struct, d_score) `score.w`; the blob's bytes are the same."""
    manifest = json.loads(ckpt.read_text())
    params = manifest["params"]
    at = [entry["name"] for entry in params].index("score.wh")
    (rows, cols), (rows_s, _) = params[at]["shape"], params[at + 1]["shape"]
    params[at : at + 2] = [{"name": "score.w", "shape": [rows + rows_s, cols]}]
    ckpt.write_text(json.dumps(manifest, indent=2) + "\n")


def test_checkpoint_with_one_score_w_predicts_the_same_bytes(synth_run):
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    old = tmp / "old" / "checkpoint.json"
    old.parent.mkdir()
    for name in ("checkpoint.json", "checkpoint.bin", "splits.json"):
        (old.parent / name).write_bytes((tmp / "out" / name).read_bytes())
    _to_single_score_w(old)
    assert "score.w" in old.read_text() and "score.wh" not in old.read_text()
    for ckpt, side in ((tmp / "out" / "checkpoint.json", "new"), (old, "old")):
        for command in ("eval", "predict"):
            argv = [command, "--config", str(cfg), "--out", str(tmp / f"{command}-{side}"), "--checkpoint", str(ckpt)]
            assert main(argv) == 0
    assert (tmp / "eval-old" / "metrics.json").read_bytes() == (tmp / "eval-new" / "metrics.json").read_bytes()
    assert (tmp / "predict-old" / "predictions.csv").read_bytes() == (tmp / "predict-new" / "predictions.csv").read_bytes()


@pytest.mark.parametrize(
    "content",
    [b"{", b'{"train": []}', b"\xff", b'{"test": "G0003"}', b'{"test": ["NOPE"]}'],
    ids=["not-json", "no-test-list", "not-utf8", "test-is-a-string", "unknown-perturbation"],
)
def test_bad_splits_file_is_a_one_line_data_error(synth_run, capsys, content):
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    (tmp / "out" / "splits.json").write_bytes(content)
    ckpt = str(tmp / "out" / "checkpoint.json")
    capsys.readouterr()
    for command in ("eval", "predict"):
        assert main([command, "--config", str(cfg), "--out", str(tmp / command), "--checkpoint", ckpt]) == 2
        assert_one_line(capsys.readouterr().err, "data error: splits file ")


def test_a_test_split_that_repeats_a_name_is_a_one_line_data_error(synth_run, capsys):
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    test = json.loads((tmp / "out" / "splits.json").read_text())["test"]
    repeat = tmp / "repeat.json"
    repeat.write_text(json.dumps({"test": [*test, test[-1], test[0]]}))
    ckpt = ["--checkpoint", str(tmp / "out" / "checkpoint.json")]
    capsys.readouterr()
    for command in (["eval", *ckpt], ["eval", "--oracle"], ["predict", *ckpt]):
        argv = [*command, "--config", str(cfg), "--out", str(tmp / "repeat-run"), "--splits", str(repeat)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert_one_line(err, f"data error: splits file {repeat}: ")
        assert f"{test[-1]!r} twice" in err
    assert not (tmp / "repeat-run" / "metrics.json").exists()


def test_a_test_split_that_shares_a_name_with_train_or_val_is_a_one_line_data_error(synth_run, capsys):
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    splits = json.loads((tmp / "out" / "splits.json").read_text())
    cases = {  # each file and a piece of its one-line error
        "train": {**splits, "test": [*splits["test"], *splits["train"]]},
        "val": {**splits, "test": [*splits["test"], *reversed(splits["val"])]},
        "not-a-list": {**splits, "val": splits["val"][0]},
        "not-names": {**splits, "train": [*splits["train"], 3]},
    }
    wanted = {
        "train": f"'test' shares {splits['train'][0]!r} with 'train'",
        "val": f"'test' shares {splits['val'][-1]!r} with 'val'",
        "not-a-list": "'train' and 'val' must be lists of names",
        "not-names": "'train' and 'val' must be lists of names",
    }
    ckpt = ["--checkpoint", str(tmp / "out" / "checkpoint.json")]
    capsys.readouterr()
    for case, content in cases.items():
        leaky = tmp / f"{case}.json"
        leaky.write_text(json.dumps(content))
        for command in (["eval", *ckpt], ["eval", "--oracle"], ["predict", *ckpt]):
            argv = [*command, "--config", str(cfg), "--out", str(tmp / "leak-run"), "--splits", str(leaky)]
            assert main(argv) == 2, (case, command)
            err = capsys.readouterr().err
            assert_one_line(err, f"data error: splits file {leaky}: ")
            assert wanted[case] in err, (case, err)
    assert not (tmp / "leak-run" / "metrics.json").exists()


def _narrow_embeddings(src: Path, dst: Path, width: int) -> Path:
    dst.write_text("".join(",".join(line.split(",")[: width + 1]) + "\n" for line in src.read_text().splitlines()))
    return dst


@pytest.mark.parametrize("ablation", ["full", "no_context"])
def test_embeddings_of_another_width(synth_run, capsys, ablation):
    # the synth embeddings are 8 wide; a 4-wide file fails unless the model ignores it
    cfg, synth_dir, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3", "--ablation", ablation]) == 0
    narrow = _narrow_embeddings(synth_dir / "embeddings.csv", tmp / "narrow.csv", 4)
    cfg.write_text(cfg.read_text().replace(str(synth_dir / "embeddings.csv"), str(narrow)))
    ckpt = str(tmp / "out" / "checkpoint.json")
    capsys.readouterr()
    for command in ("eval", "predict"):
        code = main([command, "--config", str(cfg), "--out", str(tmp / command), "--checkpoint", ckpt])
        if ablation == "no_context":
            assert code == 0
            continue
        assert code == 2
        err = capsys.readouterr().err
        assert_one_line(err, "data error: embeddings in ")
        assert "narrow.csv" in err and " 4 wide" in err and " 8" in err


def _empty_test_split_args(cfg: Path, tmp: Path, command: str) -> list[str]:
    if command == "oracle":  # no checkpoint: the split comes from split_fractions
        cfg.write_text(cfg.read_text().replace("split_fractions = 0.5,0.25,0.25", "split_fractions = 0.5,0.5,0"))
        return ["eval", "--oracle"]
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    (tmp / "out" / "splits.json").write_text('{"test": []}\n')
    return [command, "--checkpoint", str(tmp / "out" / "checkpoint.json")]


@pytest.mark.parametrize("command", ["eval", "oracle", "predict"])
def test_empty_test_split_exits_1_without_effective_config(synth_run, capsys, command):
    cfg, _, tmp = synth_run
    argv = _empty_test_split_args(cfg, tmp, command)
    out = tmp / "fresh"
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--seed", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: test split is empty\n"
    assert not (out / "effective_config.ini").exists()


def test_effective_config_chains_through_every_command(tmp_path):
    # each command's effective config, passed as the next one's --config, loads
    # to the settings that command ran with
    data = tmp_path / "data"
    previous = write_config(tmp_path / "run.ini", data, tmp_path / "unused")
    expected = load_config(previous)
    expected.train.seed = 3
    ckpt = str(tmp_path / "train" / "checkpoint.json")
    for command in ("synth", "train", "eval", "predict", "graph-stats", "deg-coverage"):
        out = data if command == "synth" else tmp_path / command
        extra = {"synth": ["--seed", "3"], "eval": ["--checkpoint", ckpt], "predict": ["--checkpoint", ckpt]}
        assert main([command, "--config", str(previous), "--out", str(out), *extra.get(command, [])]) == 0
        previous = out / "effective_config.ini"
        assert load_config(previous) == dataclasses.replace(expected, out=str(out))


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


def test_predict_quotes_names_holding_a_comma_and_a_quote(synth_run):
    cfg, synth_dir, tmp = synth_run
    # every gene, the perturbed ones too, gets a name holding a comma and a double quote
    ds = load_expression(synth_dir / "expression.csv")
    graph, _ = load_edge_list(synth_dir / "graph.tsv", ds.vocab)
    embeddings = load_embeddings(synth_dir / "embeddings.csv", ds.vocab)
    renamed = {g: f'{g},"q"' for g in ds.vocab.names}
    vocab = GeneVocab([renamed[g] for g in ds.vocab.names])
    blocks = {renamed[p]: ds.block(p) for p in ds.pert_names()}
    save_expression(PerturbationDataset(vocab, ds.control, blocks), synth_dir / "expression.csv")
    save_edge_list(KnowledgeGraph(vocab, graph.indptr, graph.indices, graph.weights), synth_dir / "graph.tsv")
    vectors = {renamed[g]: v for g, v in embeddings.vectors.items()}
    save_embeddings(SemanticEmbeddings(embeddings.dim, vectors), synth_dir / "embeddings.csv", genes=vocab.names)
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    out = tmp / "pred_out"
    ckpt = str(tmp / "out" / "checkpoint.json")
    assert main(["predict", "--config", str(cfg), "--seed", "3", "--out", str(out), "--checkpoint", ckpt]) == 0
    with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["perturbation"] + vocab.names
    assert all(len(row) == 1 + ds.n_genes for row in rows)
    test_perts = json.loads((tmp / "out" / "splits.json").read_text())["test"]
    assert [row[0] for row in rows] == sorted(test_perts) and all('"' in p for p in test_perts)


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


def test_deg_coverage_records_dropped_edges(synth_run):
    cfg, synth_dir, tmp = synth_run
    assert main(["deg-coverage", "--config", str(cfg), "--out", str(tmp / "before")]) == 0
    gene = load_expression(synth_dir / "expression.csv").vocab.names[0]
    with open(synth_dir / "graph.tsv", "a", encoding="utf-8") as fh:
        fh.write(f"NOT_A_GENE\t{gene}\t0.5\n{gene}\tALSO_NOT\t1.0\n{gene}\t{gene}\t0.3\n")
    assert main(["deg-coverage", "--config", str(cfg), "--out", str(tmp / "after")]) == 0
    before = json.loads((tmp / "before" / "deg_coverage.json").read_text())
    after = json.loads((tmp / "after" / "deg_coverage.json").read_text())
    assert before["dropped_edges"] == 0 and after["dropped_edges"] == 3
    assert after["per_perturbation"] == before["per_perturbation"]


# --- artifacts are replaced atomically --------------------------------------------------


def failing_json_dump(obj, fh, **kwargs):
    fh.write('{"half": ')
    raise RuntimeError("serializer failed")


def failing_config_write(self, fh, *args, **kwargs):
    fh.write("[half\n")
    raise RuntimeError("serializer failed")


def write_history(path):
    TrainHistory(epochs=[], best_epoch=0, huber_delta=1.0, config={}).save(path)


def write_metrics(path):
    report({"P": {"pearson_delta": 0.5}}).save(path)


@pytest.mark.parametrize(
    "name, write, target, replacement",
    [
        ("out.json", lambda p: write_json({"new": 1}, p), json, failing_json_dump),
        ("history.json", write_history, json, failing_json_dump),
        ("metrics.json", write_metrics, json, failing_json_dump),
        (
            "effective_config.ini",
            lambda p: write_effective_config(RunConfig(), p.parent),
            configparser.ConfigParser,
            failing_config_write,
        ),
    ],
)
def test_failed_artifact_write_keeps_the_old_file(tmp_path, monkeypatch, name, write, target, replacement):
    path = tmp_path / name
    path.write_text("old contents\n")
    attr = "dump" if target is json else "write"
    monkeypatch.setattr(target, attr, replacement)
    with pytest.raises(RuntimeError, match="serializer failed"):
        write(path)
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


class DiskFullAfterOneWrite:
    """A text file whose second write fails, as on a full disk."""

    def __init__(self, *args, **kwargs):
        self.fh = open(*args, **kwargs)
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


DATA_WRITERS = {
    "expression.csv": lambda t, p: save_expression(t.dataset, p),
    "embeddings.csv": lambda t, p: save_embeddings(t.embeddings, p),
    "graph.tsv": lambda t, p: save_edge_list(t.graph, p),
    "scatter_G1.csv": lambda t, p: write_scatter_csv(p, t.vocab.names, np.ones(10), np.zeros(10), np.ones(10, bool)),
}


@pytest.mark.parametrize("name", sorted(DATA_WRITERS))
def test_data_file_write_failing_midway_keeps_the_old_file(tmp_path, monkeypatch, toy_problem, name):
    path = tmp_path / name
    DATA_WRITERS[name](toy_problem, path)
    written = path.read_bytes()
    # csv writes \r\n line ends, the edge list \n
    assert written.count(b"\n") > 2
    assert written.count(b"\r\n") == (written.count(b"\n") if name.endswith(".csv") else 0)
    monkeypatch.setattr(errors, "open", DiskFullAfterOneWrite, raising=False)
    with pytest.raises(OSError, match="No space left"):
        DATA_WRITERS[name](toy_problem, path)
    assert path.read_bytes() == written
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_checkpoint_manifest_is_written_after_its_blob(tmp_path, monkeypatch):
    params = init_params(6, 6, 4, ModelConfig(n_layers=1, d_struct=4, d_latent=4, d_score=4), seed=0)
    monkeypatch.setattr(json, "dump", failing_json_dump)
    with pytest.raises(RuntimeError, match="serializer failed"):
        save_checkpoint(params, tmp_path / "checkpoint.json", tmp_path / "checkpoint.bin")
    # the blob is complete; no manifest names it yet and no temporary file is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]
    monkeypatch.undo()
    save_checkpoint(params, tmp_path / "checkpoint.json", tmp_path / "checkpoint.bin")
    loaded = load_checkpoint(tmp_path / "checkpoint.json", tmp_path / "checkpoint.bin")
    assert all(np.array_equal(loaded.values[k], v) for k, v in params.values.items())


def test_manifest_left_beside_a_newer_blob_is_a_data_error(tmp_path, monkeypatch):
    config = ModelConfig(n_layers=1, d_struct=4, d_latent=4, d_score=4)
    paths = tmp_path / "checkpoint.json", tmp_path / "checkpoint.bin"
    save_checkpoint(init_params(6, 6, 4, config, seed=0), *paths)
    # the seed-1 blob replaces the seed-0 one, then its manifest write fails
    monkeypatch.setattr(json, "dump", failing_json_dump)
    with pytest.raises(RuntimeError, match="serializer failed"):
        save_checkpoint(init_params(6, 6, 4, config, seed=1), *paths)
    monkeypatch.undo()
    with pytest.raises(DataError, match="blob_sha256"):
        load_checkpoint(*paths)


def test_manifest_without_blob_hash_still_loads(tmp_path):
    params = init_params(6, 6, 4, ModelConfig(n_layers=1, d_struct=4, d_latent=4, d_score=4), seed=0)
    paths = tmp_path / "checkpoint.json", tmp_path / "checkpoint.bin"
    save_checkpoint(params, *paths)
    _drop_manifest_key(paths[0], "blob_sha256")
    loaded = load_checkpoint(*paths)
    assert all(np.array_equal(loaded.values[k], v) for k, v in params.values.items())


def test_atomic_write_failing_midway_leaves_no_partial_file(tmp_path):
    path = tmp_path / "predictions.csv"
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("perturbation,G0\n")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


def test_eval_and_deg_coverage_read_in_two_ranges_write_the_same_bytes(synth_run, monkeypatch):
    cfg, _, tmp = synth_run
    assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
    ckpt = str(tmp / "out" / "checkpoint.json")
    cuts, counts, fork, forks = data._range_cuts, [], os.fork, []

    def counted(fd, start):
        got = cuts(fd, start)
        counts.append(len(got) + 1)
        return got

    def counted_fork():
        pid = fork()
        if pid:  # in this process, not the worker
            forks.append(pid)
        return pid

    monkeypatch.setattr(data, "_range_cuts", counted)
    monkeypatch.setattr(os, "fork", counted_fork)
    outputs = {}
    for n in (1, 2):
        counts.clear()
        monkeypatch.setattr(data, "LOAD_RANGE_BYTES", 4096 if n == 2 else 8 << 20)
        monkeypatch.setattr(data, "_cores", lambda: n)
        out = tmp / f"ranges{n}"
        assert main(["eval", "--config", str(cfg), "--seed", "3", "--out", str(out / "eval"), "--checkpoint", ckpt]) == 0
        assert main(["deg-coverage", "--config", str(cfg), "--seed", "3", "--out", str(out / "cov")]) == 0
        outputs[n] = ((out / "eval" / "metrics.json").read_bytes(), (out / "cov" / "deg_coverage.json").read_bytes())
        assert max(counts) == n  # the expression file's ranges
    assert outputs[2] == outputs[1] and forks  # a worker really parsed a range
    with pytest.raises(ChildProcessError):  # no worker is left
        os.waitpid(-1, os.WNOHANG)
