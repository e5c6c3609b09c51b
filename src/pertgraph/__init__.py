"""Knowledge-graph-conditioned perturbation response prediction at desk scale."""

import os

# One BLAS thread, set before numpy loads: a threaded matmul over a long inner
# dimension rounds by thread count, so outputs would depend on the core count.
# A caller that loaded numpy first keeps its BLAS threads, and its CSV reads do not fork.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

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
from .loss import LossWeights, estimate_huber_delta
from .metrics import MetricsReport, evaluate_predictions, pds, pearson_delta
from .model import ModelConfig, ModelParams, init_params, load_checkpoint, save_checkpoint
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
    "compute_degs",
    "deg_coverage",
    "degree_stats",
    "effect_size_strata",
    "estimate_huber_delta",
    "evaluate_predictions",
    "hop_distances",
    "init_params",
    "load_checkpoint",
    "load_edge_list",
    "load_expression",
    "pds",
    "pearson_delta",
    "save_checkpoint",
    "split_by_perturbation",
    "synth_generate",
    "topk_filter",
    "train",
]
