"""Conditional perturbation-response model.

Graph message passing produces structural node embeddings; each
perturbation's semantic vector is projected into the same space and drives a
per-node relevance score; Gumbel-perturbed softmax scores select a sparse
node subset (the perturbed gene is always force-included); the selected
embeddings are summed into a context vector that is fused with the encoded
control profile to decode the predicted expression.

A forward pass handles a batch of perturbations as rows. The message
passing, the control encoding and the node half of the scorer do not depend
on the perturbation, so they run once per batch; scores, selection, context
and decoding run once on the (B, ...) rows.

Node selection is discrete, so training uses a straight-through sum: the
forward value is the plain sum over hard-selected nodes, while gradients
flow through the soft selection weights. The stop-gradient buffers (hard
mask, base soft weights) are materialized as tape constants; freezing them
across evaluations makes the surrogate an honest differentiable function,
which is how the gradient checks run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse

from .data import SemanticEmbeddings
from .errors import DataError, NumericalError, ShapeError, UsageError
from .graph import KnowledgeGraph
from .numerics import Tape

ALPHA_FLOOR = 1e-12


@dataclass
class ModelConfig:
    """Architecture hyperparameters (defaults follow the desk-scale setup)."""

    n_layers: int = 2           # message-passing rounds
    d_struct: int = 64          # structural embedding width
    d_latent: int = 128         # encoder/decoder latent width
    d_score: int = 64           # scorer hidden width
    tau: float = 1.0            # Gumbel-softmax temperature
    threshold: float | None = None  # selection cutoff; None means 1/n_nodes
    selection_mode: str = "threshold"   # "threshold" | "top_m"
    select_top_m: int = 10
    weighted_aggregation: bool = False  # use edge confidences in the neighbor mean
    no_context: bool = False    # ablation: learned per-perturbation rows replace the graph context

    def resolve_threshold(self, n_nodes: int) -> float:
        return 1.0 / n_nodes if self.threshold is None else self.threshold


@dataclass
class ModelParams:
    """All learnable weights, addressable by stable name."""

    config: ModelConfig
    n_nodes: int
    n_genes: int
    d_embed: int
    seed: int
    values: dict[str, np.ndarray]
    pert_index: dict[str, int] = field(default_factory=dict)  # no_context row map

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            n_nodes=self.n_nodes,
            n_genes=self.n_genes,
            d_embed=self.d_embed,
            seed=self.seed,
            values={k: v.copy() for k, v in self.values.items()},
            pert_index=dict(self.pert_index),
        )


def init_params(
    n_nodes: int,
    n_genes: int,
    d_embed: int,
    config: ModelConfig,
    seed: int,
    train_perts: list[str] | None = None,
) -> ModelParams:
    """Seeded Gaussian init, std 1/sqrt(fan_in); biases start at zero."""
    rng = np.random.default_rng(seed)
    ds, d, m = config.d_struct, config.d_latent, config.d_score

    def w(fan_in, shape):
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)

    values: dict[str, np.ndarray] = {}
    values["gnn.table"] = w(ds, (n_nodes, ds))
    for layer in range(config.n_layers):
        values[f"gnn.w{layer}"] = w(ds, (ds, ds))
    values["sem.proj"] = w(d_embed, (d_embed, ds))
    values["score.w"] = w(2 * ds, (2 * ds, m))
    values["score.v"] = w(m, (m, 1))
    values["enc.w1"] = w(n_genes, (n_genes, d))
    values["enc.b1"] = np.zeros((1, d))
    values["enc.w2"] = w(d, (d, d))
    values["enc.b2"] = np.zeros((1, d))
    values["ctx.proj"] = w(ds, (ds, d))
    values["dec.w1"] = w(2 * d, (2 * d, d))
    values["dec.b1"] = np.zeros((1, d))
    values["dec.w2"] = w(d, (d, n_genes))
    values["dec.b2"] = np.zeros((1, n_genes))
    values["align.proj"] = w(n_genes, (n_genes, d))
    pert_index: dict[str, int] = {}
    if config.no_context:
        if not train_perts:
            raise UsageError("no_context mode needs the training perturbation list")
        pert_index = {p: i for i, p in enumerate(sorted(train_perts))}
        values["pert.table"] = w(d, (len(pert_index), d))
    return ModelParams(
        config=config,
        n_nodes=n_nodes,
        n_genes=n_genes,
        d_embed=d_embed,
        seed=seed,
        values=values,
        pert_index=pert_index,
    )


# --- selection ---------------------------------------------------------------


@dataclass
class SubgraphSelection:
    """Normalized scores, Gumbel-perturbed scores, and the hard node choice."""

    alpha: np.ndarray          # (n,) softmax-normalized relevance
    alpha_tilde: np.ndarray    # (n,) Gumbel-softmax weights
    selected: np.ndarray       # sorted node indices
    gumbel_seed: int | None    # None means eval mode (zero noise)
    forced: int | None = None

    def mask(self) -> np.ndarray:
        m = np.zeros(self.alpha.shape[0])
        m[self.selected] = 1.0
        return m


def _select_indices(
    alpha_tilde: np.ndarray,
    threshold: float,
    forced: int | None,
    mode: str,
    top_m: int,
) -> np.ndarray:
    if mode == "threshold":
        chosen = set(np.flatnonzero(alpha_tilde > threshold).tolist())
    elif mode == "top_m":
        order = np.lexsort((np.arange(alpha_tilde.size), -alpha_tilde))
        chosen = set(order[:top_m].tolist())
    else:
        raise UsageError(f"unknown selection mode {mode!r}")
    if forced is not None:
        chosen.add(int(forced))
    return np.array(sorted(chosen), dtype=np.int64)


def gumbel_select(
    alpha: np.ndarray,
    tau: float,
    threshold: float,
    seed: int | None = None,
    forced: int | None = None,
    mode: str = "threshold",
    top_m: int = 10,
) -> SubgraphSelection:
    """Sample a sparse node set from normalized scores.

    `seed=None` is eval mode: the Gumbel noise is identically zero and the
    outcome is deterministic. alpha is floored at 1e-12 before the log.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if tau <= 0:
        raise UsageError("tau must be positive")
    if not (0.0 < threshold < 1.0):
        raise UsageError("threshold must lie in (0, 1)")
    if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-6:
        raise UsageError("alpha must be a probability vector")
    noise = np.zeros_like(alpha) if seed is None else np.random.default_rng(seed).gumbel(size=alpha.size)
    logits = (np.log(np.maximum(alpha, ALPHA_FLOOR)) + noise) / tau
    z = logits - logits.max()
    e = np.exp(z)
    alpha_tilde = e / e.sum()
    selected = _select_indices(alpha_tilde, threshold, forced, mode, top_m)
    return SubgraphSelection(
        alpha=alpha,
        alpha_tilde=alpha_tilde,
        selected=selected,
        gumbel_seed=seed,
        forced=forced,
    )


def aggregation_matrix(graph: KnowledgeGraph, weighted: bool = False) -> scipy.sparse.csr_array:
    """Sparse (CSR) neighbor-mean operator with self-loops, so isolated nodes are defined.

    Unweighted rows average uniformly over N(v) plus v itself; weighted rows
    normalize by edge confidence with the self-loop carrying weight 1.
    """
    n = graph.n_nodes
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(graph.indptr)), np.arange(n)])
    cols = np.concatenate([graph.indices, np.arange(n)])
    ws = np.concatenate([graph.weights if weighted else np.ones(graph.indices.size), np.ones(n)])
    totals = np.bincount(rows, weights=ws, minlength=n)
    a = scipy.sparse.csr_array((ws / totals[rows], (rows, cols)), shape=(n, n))
    a.sort_indices()
    return a


# --- tape builders -----------------------------------------------------------


def register_params(tape: Tape, params: ModelParams) -> dict[str, int]:
    return {name: tape.param(arr, name) for name, arr in params.values.items()}


def build_gnn(tape: Tape, pids: dict[str, int], params: ModelParams, agg) -> int:
    """L rounds of (aggregate, transform); layer 0's input is the embedding table.

    `agg` is the sparse operator from `aggregation_matrix`.
    """
    h = pids["gnn.table"]
    for layer in range(params.config.n_layers):
        h = tape.apply("matmul", tape.apply("spmm", h, op=agg), pids[f"gnn.w{layer}"])
    return h


def build_semantic_projection(tape: Tape, pids: dict[str, int], s_p: np.ndarray) -> int:
    """Project the semantic vectors, one per row (a 1-D vector is one row)."""
    return tape.apply("matmul", tape.constant(s_p), pids["sem.proj"])


def build_scores(tape: Tape, pids: dict[str, int], h_id: int, s_tilde_id: int) -> int:
    """Per-node relevance a_v = v' relu(W [h_v || s~_p]) as a (B, n) block, one row per s~_p.

    W [h_v || s~_p] = W_h h_v + W_s s~_p, so the node half runs once for all rows.
    """
    half = tape.value(pids["score.w"]).shape[0] // 2
    w_h = tape.apply("slice-rows", pids["score.w"], start=0, stop=half)
    w_s = tape.apply("slice-rows", pids["score.w"], start=half, stop=2 * half)
    node_part = tape.apply("matmul", h_id, w_h)
    pert_part = tape.apply("matmul", s_tilde_id, w_s)
    hidden = tape.apply("relu", tape.apply("broadcast-add", node_part, pert_part))
    scores = tape.apply("matmul", hidden, pids["score.v"])
    n_rows, n_nodes = tape.value(pert_part).shape[0], tape.value(node_part).shape[0]
    return tape.apply("reshape", scores, shape=(n_rows, n_nodes))


def build_alpha(tape: Tape, scores_row_id: int) -> int:
    return tape.apply("row-softmax", scores_row_id)


def build_alpha_tilde(tape: Tape, scores_row_id: int, noise: np.ndarray, tau: float) -> int:
    # softmax((log alpha + g)/tau) == softmax((a + g)/tau): the log-sum-exp
    # shift is constant across nodes and cancels in the softmax
    shifted = tape.apply("add", scores_row_id, tape.constant(noise))
    return tape.apply("row-softmax", tape.apply("scale", shifted, c=1.0 / tau))


def build_context(
    tape: Tape,
    pids: dict[str, int],
    h_id: int,
    alpha_tilde_id: int,
    selections: list[SubgraphSelection],
) -> int:
    """Straight-through sums of the selected node embeddings, projected to the latent width.

    Row i of the coefficients evaluates to selection i's hard mask (its
    constant part is mask - alpha_tilde at the captured base point), so the
    forward value is the plain sum over selected nodes while the backward
    pass routes gradients through the soft weights.
    """
    offset = np.stack([sel.mask() - sel.alpha_tilde for sel in selections])
    coeff = tape.apply("add", tape.constant(offset), alpha_tilde_id)
    z_pre = tape.apply("matmul", coeff, h_id)
    return tape.apply("matmul", z_pre, pids["ctx.proj"])


def build_encoder(tape: Tape, pids: dict[str, int], x_id: int) -> int:
    h = tape.apply("relu", tape.apply("add", tape.apply("matmul", x_id, pids["enc.w1"]), pids["enc.b1"]))
    return tape.apply("add", tape.apply("matmul", h, pids["enc.w2"]), pids["enc.b2"])


def build_decoder(tape: Tape, pids: dict[str, int], z_c_id: int, z_p_id: int) -> int:
    """Decode [z_c || z_p] for each row of z_p; the one control row z_c is repeated."""
    rows = tape.value(z_p_id).shape[0]
    tile = tape.apply("matmul", tape.constant(np.ones((rows, 1))), z_c_id)
    pre = tape.apply("matmul", tape.apply("concat-cols", tile, z_p_id), pids["dec.w1"])
    h = tape.apply("relu", tape.apply("broadcast-add", pids["dec.b1"], pre))
    return tape.apply("broadcast-add", pids["dec.b2"], tape.apply("matmul", h, pids["dec.w2"]))


def build_no_context_embedding(tape: Tape, pids: dict[str, int], params: ModelParams, perts: list[str]) -> int:
    """Learned per-perturbation rows; unseen perturbations fall back to the row mean."""
    n_rows = params.values["pert.table"].shape[0]
    rows = np.full((len(perts), n_rows), 1.0 / n_rows)
    for i, pert in enumerate(perts):
        if pert in params.pert_index:
            rows[i] = 0.0
            rows[i, params.pert_index[pert]] = 1.0
    return tape.apply("matmul", tape.constant(rows), pids["pert.table"])


@dataclass
class ForwardBuild:
    """Node ids of interest on a shared tape, plus the realized selections.

    `x_hat` and `z_context` have one row per perturbation; `selections` is
    None in no_context mode.
    """

    x_hat: int
    z_context: int
    selections: list[SubgraphSelection] | None


def build_forward(
    tape: Tape,
    pids: dict[str, int],
    params: ModelParams,
    xbar_c: np.ndarray,
    perts: list[str],
    graph: KnowledgeGraph | None,
    embeddings: SemanticEmbeddings | None,
    mode: str = "eval",
    gumbel_seeds: list[int | None] | None = None,
    frozen_selections: list[SubgraphSelection | None] | None = None,
) -> ForwardBuild:
    """Compose the full forward pass for a batch of perturbations on `tape`, one row each.

    `mode="train"` draws row i's Gumbel noise from `gumbel_seeds[i]`; eval
    mode uses zero noise. A non-None `frozen_selections[i]` reuses a
    previously captured selection (noise, hard mask, and straight-through
    base), which keeps the surrogate fixed across gradient-check probes.
    """
    if mode not in ("train", "eval"):
        raise UsageError(f"unknown mode {mode!r}")
    if not perts:
        raise UsageError("no perturbations to forward")
    x_id = tape.constant(np.asarray(xbar_c, dtype=np.float64).reshape(1, -1))
    if tape.value(x_id).shape[1] != params.n_genes:
        raise ShapeError("control profile width does not match the model")
    z_c = build_encoder(tape, pids, x_id)

    if params.config.no_context:
        # the learned rows stand in for the graph context everywhere downstream
        z_p = build_no_context_embedding(tape, pids, params, perts)
        x_hat = build_decoder(tape, pids, z_c, z_p)
        return ForwardBuild(x_hat=x_hat, z_context=z_p, selections=None)

    if graph is None or embeddings is None:
        raise UsageError("graph and embeddings are required unless no_context is set")
    cfg = params.config
    forced = [graph.vocab.index(p) for p in perts]
    h_id = build_gnn(tape, pids, params, aggregation_matrix(graph, cfg.weighted_aggregation))
    s_tilde = build_semantic_projection(tape, pids, np.stack([embeddings.vector(p) for p in perts]))
    scores = build_scores(tape, pids, h_id, s_tilde)
    alpha_id = build_alpha(tape, scores)

    frozen = frozen_selections or [None] * len(perts)
    seeds = gumbel_seeds if gumbel_seeds is not None and mode == "train" else [None] * len(perts)
    noise_seeds = [seed if sel is None else sel.gumbel_seed for seed, sel in zip(seeds, frozen)]
    noise = np.stack([
        np.zeros(params.n_nodes) if seed is None else np.random.default_rng(seed).gumbel(size=params.n_nodes)
        for seed in noise_seeds
    ])
    at_id = build_alpha_tilde(tape, scores, noise, cfg.tau)
    alpha, alpha_tilde = tape.value(alpha_id), tape.value(at_id)
    if not np.all(np.isfinite(alpha_tilde)):
        raise NumericalError("non-finite node selection scores (model diverged)")
    threshold = cfg.resolve_threshold(params.n_nodes)
    selections = [
        sel if sel is not None else SubgraphSelection(
            alpha=alpha[i].copy(),
            alpha_tilde=alpha_tilde[i].copy(),
            selected=_select_indices(alpha_tilde[i], threshold, forced[i], cfg.selection_mode, cfg.select_top_m),
            gumbel_seed=noise_seeds[i],
            forced=forced[i],
        )
        for i, sel in enumerate(frozen)
    ]
    z_ctx = build_context(tape, pids, h_id, at_id, selections)
    x_hat = build_decoder(tape, pids, z_c, z_ctx)
    return ForwardBuild(x_hat=x_hat, z_context=z_ctx, selections=selections)


# --- value-level wrappers ------------------------------------------------------


@dataclass
class ForwardResult:
    x_hat: np.ndarray
    z_context: np.ndarray
    selection: SubgraphSelection | None


def forward(
    xbar_c: np.ndarray,
    pert: str,
    graph: KnowledgeGraph | None,
    embeddings: SemanticEmbeddings | None,
    params: ModelParams,
    mode: str = "eval",
    gumbel_seed: int | None = None,
    frozen_selection: SubgraphSelection | None = None,
) -> ForwardResult:
    tape = Tape()
    pids = register_params(tape, params)
    built = build_forward(
        tape, pids, params, xbar_c, [pert], graph, embeddings,
        mode=mode, gumbel_seeds=[gumbel_seed], frozen_selections=[frozen_selection],
    )
    return ForwardResult(
        x_hat=tape.value(built.x_hat)[0].copy(),
        z_context=tape.value(built.z_context)[0].copy(),
        selection=None if built.selections is None else built.selections[0],
    )


# --- checkpoints -----------------------------------------------------------------


def save_checkpoint(params: ModelParams, json_path, bin_path) -> None:
    """JSON manifest (shapes, hyperparameters, seed) + little-endian f64 blob in manifest order."""
    manifest = {
        "format": "pertgraph-checkpoint-v1",
        "seed": params.seed,
        "n_nodes": params.n_nodes,
        "n_genes": params.n_genes,
        "d_embed": params.d_embed,
        "config": asdict(params.config),
        "pert_index": params.pert_index,
        "params": [{"name": k, "shape": list(v.shape)} for k, v in params.values.items()],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    with open(bin_path, "wb") as fh:
        for v in params.values.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(json_path, bin_path) -> ModelParams:
    """Read a checkpoint; a malformed manifest, or a blob whose size does not
    match the manifest's shapes, is a DataError."""
    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise DataError(f"checkpoint manifest {json_path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "pertgraph-checkpoint-v1":
        raise UsageError("not a model checkpoint manifest")
    try:
        config = ModelConfig(**manifest["config"])
        sizes = {k: int(manifest[k]) for k in ("n_nodes", "n_genes", "d_embed", "seed")}
        shapes = [(entry["name"], tuple(int(d) for d in entry["shape"])) for entry in manifest["params"]]
        if any(d < 0 for _, shape in shapes for d in shape):
            raise ValueError("negative dimension")
        pert_index = dict(manifest.get("pert_index") or {})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint manifest {json_path} has missing or malformed fields: {exc!r}") from None
    with open(bin_path, "rb") as fh:
        blob = fh.read()
    counts = [int(np.prod(shape)) for _, shape in shapes]
    if 8 * sum(counts) != len(blob):
        raise DataError(f"checkpoint blob {bin_path} holds {len(blob)} bytes, its manifest needs {8 * sum(counts)}")
    values: dict[str, np.ndarray] = {}
    offset = 0
    for (name, shape), count in zip(shapes, counts):
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        values[name] = arr.astype(np.float64)
        offset += count * 8
    return ModelParams(config=config, values=values, pert_index=pert_index, **sizes)
