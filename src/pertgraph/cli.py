"""Command-line front end: synth, train, eval, predict, graph-stats, and
deg-coverage subcommands, driven by an INI config with flag overrides
(flags > file > defaults). All randomness derives from the single --seed.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure, 4 internal error (any other exception; one stderr line naming its
type, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, write_effective_config
from .data import (
    compute_degs,
    load_embeddings,
    load_expression,
    save_embeddings,
    save_expression,
    split_by_perturbation,
    synth_generate,
)
from .errors import DataError, NumericalError, UsageError, write_csv, write_json
from .graph import deg_coverage, degree_stats, load_edge_list, nominations, save_edge_list, topk_filter
from .metrics import evaluate_predictions, write_scatter_csv
from .model import load_checkpoint, save_checkpoint
from .training import derive_seed, predict_profiles, train

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC, EXIT_INTERNAL = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); route to exit code 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="pertgraph", description="perturbation response prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="INI run config")
        sp.add_argument("--seed", type=int, help="root seed; submodule seeds derive from it")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--ablation", choices=("full", "no_context", "no_non_deg"))

    add_common(sub.add_parser("synth", help="generate a planted synthetic dataset"))
    add_common(sub.add_parser("train", help="train a model"))
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", help="checkpoint manifest (default <out>/checkpoint.json)")
    p_eval.add_argument("--splits", help="splits JSON (default: next to the checkpoint)")
    p_eval.add_argument("--oracle", action="store_true", help="score the truth as its own prediction")
    p_pred = sub.add_parser("predict", help="write predicted profiles for the test split")
    add_common(p_pred)
    p_pred.add_argument("--checkpoint", help="checkpoint manifest (default <out>/checkpoint.json)")
    p_pred.add_argument("--splits", help="splits JSON (default: next to the checkpoint)")
    add_common(sub.add_parser("graph-stats", help="topology statistics after optional top-k filtering"))
    add_common(sub.add_parser("deg-coverage", help="DEG coverage by hop distance from each perturbed gene"))
    return parser


def resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for obj, flag in ((cfg.train, "seed"), (cfg, "out"), (cfg.train, "ablation")):
        value = getattr(args, flag)
        if value is not None:
            setattr(obj, flag, value)
    cfg.validate()
    return cfg


def _require_paths(cfg: RunConfig, names: tuple[str, ...]) -> None:
    for name in names:
        path = getattr(cfg, name)
        if path is None:
            raise UsageError(f"[paths] {name} is required for this command")
        if not Path(path).exists():
            raise DataError(f"missing {name} file: {path}")


def _load_graph(cfg: RunConfig, paths: tuple[str, ...] = ("expression", "graph")):
    """Check `paths`, then load the expression data, whose perturbation labels
    must be gene columns, and the edge list, both as read and top-k filtered
    (the same graph when top_k is 0)."""
    _require_paths(cfg, paths)
    dataset = load_expression(cfg.expression)
    stray = next((label for label in dataset.perturbations if label not in dataset.vocab), None)
    if stray is not None:
        raise DataError(f"{cfg.expression}: perturbation {stray!r} is not a gene column")
    raw, dropped = load_edge_list(cfg.graph, dataset.vocab)
    graph = topk_filter(raw, cfg.top_k, cfg.topk_mode) if cfg.top_k >= 1 else raw
    return dataset, raw, graph, dropped


def _load_inputs(cfg: RunConfig):
    dataset, _, graph, _ = _load_graph(cfg, ("expression", "graph", "embeddings"))
    return dataset, graph, load_embeddings(cfg.embeddings, dataset.vocab)


def cmd_synth(cfg: RunConfig, args, out: Path) -> str:
    synth = synth_generate(cfg.synth, derive_seed(cfg.train.seed, "synth"))
    save_expression(synth.dataset, out / "expression.csv")
    save_edge_list(synth.graph, out / "graph.tsv")
    save_embeddings(synth.embeddings, out / "embeddings.csv", genes=synth.dataset.vocab.names)
    manifest = {
        "seed": cfg.train.seed,
        "n_genes": cfg.synth.n_genes,
        "n_perturbations": cfg.synth.n_perturbations,
        "deg_sets": synth.truth_degs,
        "strata": synth.strata,
        "effects": {p: eff.tolist() for p, eff in sorted(synth.effects.items())},
    }
    write_json(manifest, out / "truth.json")
    return f"synth: wrote expression/graph/embeddings/truth under {out}"


def cmd_train(cfg: RunConfig, args, out: Path) -> str:
    dataset, graph, embeddings = _load_inputs(cfg)
    splits = split_by_perturbation(dataset, cfg.split_fractions, derive_seed(cfg.train.seed, "split"))
    params, history = train(dataset, splits, graph, embeddings, cfg.train)
    save_checkpoint(params, out / "checkpoint.json", out / "checkpoint.bin")
    history.checkpoint_ref = "checkpoint.json"
    history.save(out / "history.json")
    write_json(asdict(splits), out / "splits.json")
    best = history.epochs[history.best_epoch]
    return (
        f"train: {len(history.epochs)} epochs, best epoch {history.best_epoch} "
        f"(val_pearson_delta={best['val_pearson_delta']})"
    )


def _resolve_checkpoint_paths(cfg: RunConfig, args) -> tuple[Path, Path]:
    manifest = Path(args.checkpoint) if args.checkpoint else Path(cfg.out) / "checkpoint.json"
    if not manifest.exists():
        raise DataError(f"missing checkpoint manifest: {manifest}")
    blob = manifest.with_suffix(".bin")
    if not blob.exists():
        raise DataError(f"missing checkpoint blob: {blob}")
    return manifest, blob


def _resolve_test_split(cfg: RunConfig, args, dataset, manifest: Path | None) -> list[str]:
    split_path = None
    if getattr(args, "splits", None):
        split_path = Path(args.splits)
        if not split_path.exists():
            raise DataError(f"missing splits file: {split_path}")
    elif manifest is not None and (manifest.parent / "splits.json").exists():
        split_path = manifest.parent / "splits.json"
    if split_path is None:
        test = list(split_by_perturbation(dataset, cfg.split_fractions, derive_seed(cfg.train.seed, "split")).test)
    else:
        try:
            with open(split_path, "r", encoding="utf-8") as fh:
                test = json.load(fh)["test"]
        except (KeyError, TypeError, ValueError) as exc:  # not UTF-8, not JSON, or no "test" list
            raise DataError(f"splits file {split_path} is malformed: {exc!r}") from None
        if not isinstance(test, list) or not all(isinstance(p, str) and p in dataset.perturbations for p in test):
            raise DataError(f"splits file {split_path}: 'test' must list perturbations of the expression file")
    if not test:
        raise UsageError("test split is empty")
    return test


def _checkpoint_predictions(cfg: RunConfig, args, dataset, graph, embeddings) -> tuple[list[str], dict]:
    """Load the checkpoint, check that it fits the inputs, and predict the test split."""
    manifest, blob = _resolve_checkpoint_paths(cfg, args)
    params = load_checkpoint(manifest, blob)
    if params.n_genes != dataset.n_genes:
        raise DataError(f"checkpoint has {params.n_genes} genes, the expression data has {dataset.n_genes}")
    if params.n_nodes != graph.n_nodes:
        raise DataError(f"checkpoint has {params.n_nodes} graph nodes, the graph has {graph.n_nodes}")
    if not params.config.no_context and params.d_embed != embeddings.dim:
        raise DataError(f"embeddings in {cfg.embeddings} are {embeddings.dim} wide, the checkpoint's are {params.d_embed}")
    test_perts = _resolve_test_split(cfg, args, dataset, manifest)
    xbar_c = dataset.control.mean(axis=0)
    return test_perts, predict_profiles(params, xbar_c, test_perts, graph, embeddings)


def cmd_eval(cfg: RunConfig, args, out: Path) -> str:
    dataset, graph, embeddings = _load_inputs(cfg)
    xbar_c = dataset.control.mean(axis=0)
    if args.oracle:
        test_perts = _resolve_test_split(cfg, args, dataset, None)
        predictions = {p: dataset.block(p).mean(axis=0) for p in test_perts}
    else:
        test_perts, predictions = _checkpoint_predictions(cfg, args, dataset, graph, embeddings)
    rep, truth = evaluate_predictions(
        dataset, predictions, test_perts,
        alpha=cfg.train.alpha, correction=cfg.train.deg_correction, des_k=cfg.des_k,
    )
    rep.save(out / "metrics.json")
    for p in sorted(test_perts):
        scatter = out / f"scatter_{p}.csv"
        write_scatter_csv(scatter, dataset.vocab.names, truth.deltas[p], predictions[p] - xbar_c, truth.deg_mask(p))
    pd = rep.overall.get("pearson_delta", {})
    return f"eval: {len(test_perts)} test perturbations, pearson_delta mean={pd.get('mean')}"


def cmd_predict(cfg: RunConfig, args, out: Path) -> str:
    dataset, graph, embeddings = _load_inputs(cfg)
    _, predictions = _checkpoint_predictions(cfg, args, dataset, graph, embeddings)
    rows = ([p, *predictions[p].tolist()] for p in sorted(predictions))
    write_csv(out / "predictions.csv", ["perturbation"] + dataset.vocab.names, rows)
    return f"predict: wrote {len(predictions)} profiles to {out / 'predictions.csv'}"


def cmd_graph_stats(cfg: RunConfig, args, out: Path) -> str:
    _, raw, filtered, dropped = _load_graph(cfg)
    stats = degree_stats(filtered)
    payload = {
        "nodes": stats.n_nodes,
        "edges": stats.n_edges,
        "mean_degree": stats.mean_degree,
        "median_degree": stats.median_degree,
        "dropped_edges": dropped,
        "top_k": cfg.top_k,
        "topk_mode": cfg.topk_mode,
    }
    if cfg.top_k >= 1:
        noms = nominations(raw, cfg.top_k)
        kept = filtered.edge_set()
        payload["nominated_bound_ok"] = bool(
            all(len(s) <= cfg.top_k for s in noms)
            and all(v in noms[u] or u in noms[v] for (u, v) in kept)
        )
    write_json(payload, out / "graph_stats.json")
    return f"graph-stats: {stats.n_nodes} nodes, {stats.n_edges} edges -> {out / 'graph_stats.json'}"


def cmd_deg_coverage(cfg: RunConfig, args, out: Path) -> str:
    dataset, _, graph, dropped = _load_graph(cfg)
    table = compute_degs(dataset, alpha=cfg.train.alpha, correction=cfg.train.deg_correction)
    per: dict[str, list[float]] = {}
    skipped = 0
    for pert in table.pert_names():
        deg_idx = table.deg_indices(pert)
        genes = [dataset.vocab.names[i] for i in deg_idx if dataset.vocab.names[i] != pert]
        if not genes:
            skipped += 1
            continue
        per[pert] = deg_coverage(graph, pert, genes, cfg.coverage_max_hops)
    mean_cov = (
        [float(np.mean([v[h] for v in per.values()])) for h in range(cfg.coverage_max_hops)]
        if per
        else []
    )
    write_json(
        {
            "max_hops": cfg.coverage_max_hops,
            "per_perturbation": per,
            "mean_coverage": mean_cov,
            "skipped_empty_deg_sets": skipped,
            "dropped_edges": dropped,
        },
        out / "deg_coverage.json",
    )
    return f"deg-coverage: {len(per)} perturbations -> {out / 'deg_coverage.json'}"


# each command writes its artifacts under `out` and returns its summary line
COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "graph-stats": cmd_graph_stats,
    "deg-coverage": cmd_deg_coverage,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        summary = COMMANDS[args.command](cfg, args, out)
        write_effective_config(cfg, out)  # only once the command's own artifacts are written
        print(summary)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # a defect, not bad input: keep it apart from the codes above
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
