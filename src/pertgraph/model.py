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

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import scipy.sparse

from .data import SemanticEmbeddings
from .errors import DataError, NumericalError, ShapeError, UsageError, atomic_write, check_range, write_json
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

    def validate(self) -> None:
        for name in ("d_struct", "d_latent", "d_score", "select_top_m"):
            check_range(name, getattr(self, name), 1)
        check_range("n_layers", self.n_layers, 0)
        check_range("tau", self.tau, 0, low_open=True)
        if self.threshold is not None:
            check_range("threshold", self.threshold, 0, 1, low_open=True)
        if self.selection_mode not in ("threshold", "top_m"):
            raise UsageError(f"selection_mode must be 'threshold' or 'top_m', got {self.selection_mode!r}")


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
        return replace(self, values={k: v.copy() for k, v in self.values.items()}, pert_index=dict(self.pert_index))


def param_layout(n_nodes: int, n_genes: int, d_embed: int, config: ModelConfig, n_perts: int = 0) -> dict:
    """name -> (shape, init fan-in) of every parameter, in checkpoint order; fan-in 0
    starts at zero. The scorer's W is stored as its two row blocks W_h and W_s, each
    drawn with the fan-in of the whole W. `n_perts` sizes the no_context row table."""
    ds, d, m = config.d_struct, config.d_latent, config.d_score
    layout = {"gnn.table": ((n_nodes, ds), ds)}
    for layer in range(config.n_layers):
        layout[f"gnn.w{layer}"] = ((ds, ds), ds)
    layout.update({
        "sem.proj": ((d_embed, ds), d_embed),
        "score.wh": ((ds, m), 2 * ds),
        "score.ws": ((ds, m), 2 * ds),
        "score.v": ((m, 1), m),
        "enc.w1": ((n_genes, d), n_genes),
        "enc.b1": ((1, d), 0),
        "enc.w2": ((d, d), d),
        "enc.b2": ((1, d), 0),
        "ctx.proj": ((ds, d), ds),
        "dec.w1": ((2 * d, d), 2 * d),
        "dec.b1": ((1, d), 0),
        "dec.w2": ((d, n_genes), d),
        "dec.b2": ((1, n_genes), 0),
        "align.proj": ((n_genes, d), n_genes),
    })
    if config.no_context:
        layout["pert.table"] = ((n_perts, d), d)
    return layout


def init_params(
    n_nodes: int,
    n_genes: int,
    d_embed: int,
    config: ModelConfig,
    seed: int,
    train_perts: list[str] | None = None,
) -> ModelParams:
    """Seeded Gaussian init in `param_layout` order, std 1/sqrt(fan_in); biases start at zero."""
    pert_index: dict[str, int] = {}
    if config.no_context:
        if not train_perts:
            raise UsageError("no_context mode needs the training perturbation list")
        pert_index = {p: i for i, p in enumerate(sorted(train_perts))}
    rng = np.random.default_rng(seed)
    layout = param_layout(n_nodes, n_genes, d_embed, config, len(pert_index))
    values = {
        name: rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape) if fan_in else np.zeros(shape)
        for name, (shape, fan_in) in layout.items()
    }
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
    """One row of a forward's selection blocks: normalized scores, Gumbel-perturbed
    scores, and the hard node mask (views, not copies)."""

    alpha: np.ndarray          # (n,) softmax-normalized relevance
    alpha_tilde: np.ndarray    # (n,) Gumbel-softmax weights
    mask: np.ndarray           # (n,) bool, the hard node choice
    gumbel_seed: int | None    # None means eval mode (zero noise)
    forced: int | None = None

    @property
    def selected(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def _gumbel_noise(seeds: list[int | None], n: int) -> np.ndarray:
    """One row of Gumbel noise per seed; a None seed is eval mode (zero noise)."""
    return np.array([np.zeros(n) if seed is None else np.random.default_rng(seed).gumbel(size=n) for seed in seeds])


def _select_indices(
    alpha_tilde: np.ndarray,
    forced: list[int] | None,
    mode: str,
    threshold: float,
    top_m: int,
) -> np.ndarray:
    """(B, n) boolean mask of the chosen nodes of each row; forced[i] is always in row i.

    top_m keeps the m largest weights, the lower node index first on ties.
    """
    if mode == "threshold":
        mask = alpha_tilde > threshold
    elif mode == "top_m":
        mask = np.zeros(alpha_tilde.shape, dtype=bool)
        order = np.argsort(-alpha_tilde, axis=1, kind="stable")[:, :top_m]
        np.put_along_axis(mask, order, True, axis=1)
    else:
        raise UsageError(f"unknown selection mode {mode!r}")
    if forced is not None:
        mask[np.arange(len(forced)), forced] = True
    return mask


def gumbel_select(
    alpha: np.ndarray,
    tau: float,
    threshold: float,
    seed: int | None = None,
    forced: int | None = None,
    mode: str = "threshold",
    top_m: int = 10,
) -> SubgraphSelection:
    """Sample a sparse node set from normalized scores: the forward's own
    `build_alpha_tilde` and `_select_indices` on one row, log(alpha) as its scores.

    `seed=None` is eval mode: no Gumbel noise is added and the outcome is
    deterministic. alpha is floored at ALPHA_FLOOR before the log.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    ModelConfig(tau=tau, threshold=threshold, selection_mode=mode, select_top_m=top_m).validate()
    if not (np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= 1e-6):
        raise UsageError("alpha must be a probability vector")
    tape = Tape()
    scores = tape.constant(np.log(np.maximum(alpha, ALPHA_FLOOR)).reshape(1, -1))
    noise = None if seed is None else _gumbel_noise([seed], alpha.size)
    alpha_tilde = tape.value(build_alpha_tilde(tape, scores, noise, tau))
    mask = _select_indices(alpha_tilde, None if forced is None else [forced], mode, threshold, top_m)
    return SubgraphSelection(alpha=alpha, alpha_tilde=alpha_tilde[0], mask=mask[0], gumbel_seed=seed, forced=forced)


def aggregation_matrix(graph: KnowledgeGraph, weighted: bool = False) -> scipy.sparse.csr_array:
    """Sparse (CSR) neighbor-mean operator with self-loops, so isolated nodes are defined.

    Unweighted rows average uniformly over N(v) plus v itself; weighted rows
    normalize by edge confidence with the self-loop carrying weight 1. The
    arrays are written straight from the graph's: row v keeps its neighbours
    in order with the self-loop at its sorted slot, and its total adds the
    neighbour weights in that order, then the self-loop's 1.0.
    """
    n = graph.n_nodes
    rows, nodes = graph.rows(), np.arange(n)
    # the graph's (row, column) keys are sorted, so v's self-loop goes in before the first key past (v, v)
    before = np.searchsorted(rows * n + graph.indices, nodes * (n + 1))
    indices = np.insert(graph.indices, before, nodes)
    if weighted:
        totals = np.bincount(rows, weights=graph.weights, minlength=n) + 1.0
        data = np.insert(graph.weights / totals[rows], before, 1.0 / totals)
    else:  # every entry of row v is 1 / (deg v + 1)
        counts = np.diff(graph.indptr) + 1
        data = np.repeat(1.0 / counts, counts)
    return scipy.sparse.csr_array((data, indices, graph.indptr + np.arange(n + 1)), shape=(n, n))


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

    W [h_v || s~_p] = W_h h_v + W_s s~_p, so the node half runs once for all
    rows, and `relu-score` keeps no (B*n, d_score) block on the tape.
    """
    node_part = tape.apply("matmul", h_id, pids["score.wh"])
    pert_part = tape.apply("matmul", s_tilde_id, pids["score.ws"])
    return tape.apply("relu-score", node_part, pert_part, pids["score.v"])


def build_alpha(tape: Tape, scores_row_id: int) -> int:
    return tape.apply("row-softmax", scores_row_id)


def build_alpha_tilde(tape: Tape, scores_row_id: int, noise: np.ndarray | None, tau: float) -> int:
    # softmax((log alpha + g)/tau) == softmax((a + g)/tau): the log-sum-exp
    # shift is constant across nodes and cancels in the softmax. Eval mode
    # passes no noise: a zero block would only turn -0.0 into +0.0, which no
    # softmax value sees
    if noise is not None:
        scores_row_id = tape.apply("add", scores_row_id, tape.constant(noise))
    return tape.apply("row-softmax", tape.apply("scale", scores_row_id, c=1.0 / tau))


def build_context(
    tape: Tape,
    pids: dict[str, int],
    h_id: int,
    alpha_tilde_id: int,
    mask: np.ndarray,
    base: np.ndarray,
) -> int:
    """Straight-through sums of the selected node embeddings, projected to the latent width.

    The coefficients evaluate to the (B, n) hard `mask` (their constant part
    is mask - base, where `base` is alpha_tilde at the captured point), so the
    forward value is the plain sum over selected nodes while the backward
    pass routes gradients through the soft weights.
    """
    coeff = tape.apply("add", tape.constant(mask - base), alpha_tilde_id)
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
    agg=None,
) -> ForwardBuild:
    """Compose the full forward pass for a batch of perturbations on `tape`, one row each.

    `mode="train"` draws row i's Gumbel noise from `gumbel_seeds[i]`; eval
    mode adds no noise. A non-None `frozen_selections[i]` reuses a
    previously captured selection (noise, hard mask, and straight-through
    base), which keeps the surrogate fixed across gradient-check probes.
    `agg` is the graph's `aggregation_matrix`, built here when None.
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
    if agg is None:
        agg = aggregation_matrix(graph, cfg.weighted_aggregation)
    h_id = build_gnn(tape, pids, params, agg)
    s_tilde = build_semantic_projection(tape, pids, np.stack([embeddings.vector(p) for p in perts]))
    scores = build_scores(tape, pids, h_id, s_tilde)
    alpha_id = build_alpha(tape, scores)

    frozen = frozen_selections or [None] * len(perts)
    seeds = gumbel_seeds if gumbel_seeds is not None and mode == "train" else [None] * len(perts)
    noise_seeds = [seed if sel is None else sel.gumbel_seed for seed, sel in zip(seeds, frozen)]
    noisy = any(seed is not None for seed in noise_seeds)
    at_id = build_alpha_tilde(tape, scores, _gumbel_noise(noise_seeds, params.n_nodes) if noisy else None, cfg.tau)
    alpha, base = tape.value(alpha_id), tape.value(at_id)
    if not np.all(np.isfinite(base)):
        raise NumericalError("non-finite node selection scores (model diverged)")
    mask = _select_indices(base, forced, cfg.selection_mode, cfg.resolve_threshold(params.n_nodes), cfg.select_top_m)
    held = [i for i, sel in enumerate(frozen) if sel is not None]
    if held:  # a frozen row replays its captured mask and straight-through base
        base = base.copy()
        mask[held] = [frozen[i].mask for i in held]
        base[held] = [frozen[i].alpha_tilde for i in held]
    selections = [
        SubgraphSelection(alpha[i], base[i], mask[i], noise_seeds[i], forced[i]) for i in range(len(perts))
    ]
    z_ctx = build_context(tape, pids, h_id, at_id, mask, base)
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
    # blob first: a manifest on disk never names a blob that is not written yet,
    # and its hash catches a manifest left from an earlier save beside this blob
    digest = hashlib.sha256()
    with atomic_write(bin_path, "wb") as fh:
        for v in params.values.values():
            chunk = np.ascontiguousarray(v, dtype="<f8").tobytes()
            digest.update(chunk)
            fh.write(chunk)
    manifest["blob_sha256"] = digest.hexdigest()
    write_json(manifest, json_path)


_JSON_TYPES = {  # the JSON values each `ModelConfig` annotation allows, and their name; true and false are no numbers
    "int": ((int,), "an integer"), "float": ((int, float), "a number"), "float | None": ((int, float, type(None)), "a number or null"),
    "str": ((str,), "a string"), "bool": ((bool,), "a boolean"),
}


def _typed(json_path, what: str, value, annotation: str = "int"):
    """`value` from the manifest `json_path`, or a DataError naming `what` if it is no JSON `annotation`."""
    types, kind = _JSON_TYPES[annotation]
    if type(value) not in types:
        raise DataError(f"checkpoint manifest {json_path}: {what} must be {kind}, got {value!r}")
    return value


def load_checkpoint(json_path, bin_path) -> ModelParams:
    """Read a checkpoint; a malformed manifest (a model config without every
    `ModelConfig` field included, each of its type; a size, the seed or a
    shape entry that is not a JSON integer), parameters other than the
    `param_layout` of its sizes and config, a `pert_index` that does not give
    each row of `pert.table` to one perturbation name, a blob whose size or
    sha256 does not match the manifest, or a NaN or inf in the blob is a
    DataError. A manifest without `blob_sha256`, or with the scorer's W as
    one `score.w` (both written by earlier versions), loads."""
    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise DataError(f"checkpoint manifest {json_path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "pertgraph-checkpoint-v1":
        raise DataError(f"checkpoint manifest {json_path} is not a pertgraph-checkpoint-v1 manifest")
    if isinstance(manifest.get("config"), dict):  # a field left out would take its default, a mistyped one be coerced
        for f in fields(ModelConfig):
            if f.name not in manifest["config"]:
                raise DataError(f"checkpoint manifest {json_path}: model config field {f.name!r} is missing")
            _typed(json_path, f"model config field {f.name!r}", manifest["config"][f.name], f.type)
    try:
        config = ModelConfig(**manifest["config"])
        config.validate()  # a UsageError is a ValueError: bad hyperparameters are data errors here
        sizes = {k: _typed(json_path, k, manifest[k]) for k in ("n_nodes", "n_genes", "d_embed", "seed")}
        shapes = [(e["name"], tuple(_typed(json_path, f"parameter {e['name']}'s shape", d) for d in e["shape"])) for e in manifest["params"]]
        if any(d < 0 for _, shape in shapes for d in shape):
            raise ValueError("negative dimension")
        pert_index = dict(manifest.get("pert_index") or {})
        names = [name for name, _ in shapes]
        if "score.w" in names:  # written before the scorer's W was stored as its two row blocks
            at = names.index("score.w")
            rows, cols = shapes[at][1]
            shapes[at : at + 1] = [("score.wh", (rows // 2, cols)), ("score.ws", (rows - rows // 2, cols))]
    except DataError:  # a mistyped value, named above
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint manifest {json_path} has missing or malformed fields: {exc!r}") from None
    rows = sorted(v for v in pert_index.values() if type(v) is int)  # JSON's true is no row
    if not all(isinstance(k, str) for k in pert_index) or rows != list(range(len(pert_index))):
        raise DataError(f"checkpoint manifest {json_path}: pert_index must give each of the rows 0..{len(pert_index) - 1} to one name")
    layout = param_layout(sizes["n_nodes"], sizes["n_genes"], sizes["d_embed"], config, len(pert_index))
    found = dict(shapes)
    if len(found) != len(shapes):
        raise DataError(f"checkpoint manifest {json_path} lists a parameter twice")
    for name in [*layout, *found]:
        need, got = layout.get(name, (None,))[0], found.get(name)
        if got != need:
            got, need = ("missing" if got is None else got), ("none" if need is None else need)
            raise DataError(f"checkpoint manifest {json_path}: parameter {name} is {got}, its sizes and config need {need}")
    with open(bin_path, "rb") as fh:
        blob = fh.read()
    counts = [int(np.prod(shape)) for _, shape in shapes]
    if 8 * sum(counts) != len(blob):
        raise DataError(f"checkpoint blob {bin_path} holds {len(blob)} bytes, its manifest needs {8 * sum(counts)}")
    if "blob_sha256" in manifest and hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise DataError(f"checkpoint blob {bin_path} does not match the blob_sha256 of its manifest {json_path}")
    if not np.isfinite(np.frombuffer(blob, dtype="<f8")).all():
        raise DataError(f"checkpoint blob {bin_path} holds non-finite values")
    values: dict[str, np.ndarray] = {}
    offset = 0
    for (name, shape), count in zip(shapes, counts):
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        values[name] = arr.astype(np.float64)
        offset += count * 8
    return ModelParams(config=config, values=values, pert_index=pert_index, **sizes)
