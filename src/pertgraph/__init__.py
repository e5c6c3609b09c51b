"""Knowledge-graph-conditioned perturbation response prediction at desk scale."""

from .data import (
    DegTable,
    PerturbationDataset,
    SemanticEmbeddings,
    SplitSpec,
    SynthConfig,
    compute_degs,
    effect_size_strata,
    load_expression,
    split_by_perturbation,
    synth_generate,
)
from .graph import GeneVocab, KnowledgeGraph, deg_coverage, degree_stats, hop_distances, load_edge_list, topk_filter
from .loss import LossWeights, align_loss, estimate_huber_delta, non_deg_loss, recon_loss, total_loss
from .metrics import MetricsReport, evaluate_predictions, pds, pearson_delta
from .model import ModelConfig, ModelParams, forward, gumbel_select, init_params, load_checkpoint, save_checkpoint
from .training import TrainConfig, TrainHistory, train

__version__ = "0.1.0"

__all__ = [
    "DegTable",
    "GeneVocab",
    "KnowledgeGraph",
    "LossWeights",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "PerturbationDataset",
    "SemanticEmbeddings",
    "SplitSpec",
    "SynthConfig",
    "TrainConfig",
    "TrainHistory",
    "align_loss",
    "compute_degs",
    "deg_coverage",
    "degree_stats",
    "effect_size_strata",
    "estimate_huber_delta",
    "evaluate_predictions",
    "forward",
    "gumbel_select",
    "hop_distances",
    "init_params",
    "load_checkpoint",
    "load_edge_list",
    "load_expression",
    "non_deg_loss",
    "pds",
    "pearson_delta",
    "recon_loss",
    "save_checkpoint",
    "split_by_perturbation",
    "synth_generate",
    "topk_filter",
    "total_loss",
    "train",
]
