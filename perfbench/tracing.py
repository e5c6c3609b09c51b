"""Span tracing of pertgraph, done from outside the package.

`Tracer.install()` replaces selected pertgraph functions with wrappers in every
pertgraph module namespace that holds them (training imports model's builders by
name, so patching `model` alone would miss those calls). Each wrapped call
records a span: name, start, end, parent span and run id. Spans stay in memory
until the run ends; `layer_metrics` then turns them into per-layer self times,
where a span's self time is its duration minus the time its direct children
cover. `uninstall()` puts the original functions back.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

# wrapped function -> the layer metric its self time adds to. Keys are
# "module:attribute"; "Class.method" patches the class attribute.
SPANS = {
    "numerics:Tape.backward": "numerics.backward_s",
    "numerics:Tape.constant": "numerics.leaf_s",
    "numerics:adam_step": "numerics.optimizer_s",
    "model:aggregation_matrix": "model.aggregation_s",
    "model:build_gnn": "model.gnn_s",
    "model:build_semantic_projection": "model.score_s",
    "model:build_scores": "model.score_s",
    "model:build_alpha": "model.select_s",
    "model:build_alpha_tilde": "model.select_s",
    "model:_select_indices": "model.select_s",
    "model:build_context": "model.context_s",
    "model:build_encoder": "model.encoder_s",
    "model:build_decoder": "model.decoder_s",
    "model:build_forward": "model.other_s",
    "model:forward": "model.other_s",
    "model:register_params": "model.other_s",
    "model:init_params": "model.other_s",
    "model:load_checkpoint": "model.checkpoint_s",
    "loss:build_recon_loss": "loss.recon_s",
    "loss:build_non_deg_loss": "loss.non_s",
    "loss:build_align_loss": "loss.align_s",
    "loss:build_total_loss": "loss.total_s",
    "training:train": "training.other_s",
    "training:evaluate_batch": "training.other_s",
    "training:_validation_pearson": "training.other_s",
    "training:predict_profiles": "training.other_s",
    "data:synth_generate": "data.synth_s",
    "data:split_by_perturbation": "data.split_s",
    "data:load_expression": "data.load_expression_s",
    "graph:load_edge_list": "data.load_edge_list_s",
    "data:load_embeddings": "data.load_embeddings_s",
    "data:compute_degs": "data.compute_degs_s",
    "graph:topk_filter": "graph.topk_filter_s",
    "graph:deg_coverage": "graph.deg_coverage_s",
    "metrics:evaluate_predictions": "metrics.other_s",
    "metrics:pds": "metrics.pds_s",
    "metrics:predicted_deg_set": "metrics.des_fdr_s",
    "metrics:des_fdr": "metrics.des_fdr_s",
    "metrics:de_spearman_sig": "metrics.spearman_s",
    "metrics:de_spearman_lfc": "metrics.spearman_s",
}

# wrapped function -> call counter; these record no span, so their time stays
# in the caller's self time
COUNTS = {
    "data:welch_pvalues": "data.welch_calls",
    "graph:hop_distances": "graph.bfs_calls",
}

# span name -> call counter
CALL_COUNTS = {
    "model:aggregation_matrix": "model.aggregation_calls",
    "model:build_gnn": "model.gnn_calls",
    "model:build_encoder": "model.encoder_calls",
    "model:forward": "model.forward_calls",
    "numerics:adam_step": "numerics.optimizer_calls",
    "training:evaluate_batch": "training.steps",
}

NAME, START, END, PARENT, RUN = range(5)


def _tape_stats(tape) -> tuple[int, int, int]:
    """(nodes, matmul flops, value+grad bytes) of a built tape.

    Each matmul node of shapes (m, k) @ (k, n) costs 2mkn flops forward and
    twice that backward (one product per input), so 6mkn in a step.
    """
    flops = 0
    nbytes = 0
    for node in tape.nodes:
        nbytes += node.value.nbytes + node.grad.nbytes
        if node.kind == "matmul":
            a = tape.nodes[node.parents[0]].value
            b = tape.nodes[node.parents[1]].value
            flops += 6 * a.shape[0] * a.shape[1] * b.shape[1]
    return len(tape.nodes), flops, nbytes


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self.tape_steps: list[tuple[int, int, int]] = []
        self._tape_cache: dict[int, tuple[int, int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.run_id, counter)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _backward_wrapper(self, fn):
        timed = self._span_wrapper("numerics:Tape.backward", fn)
        cache = self._tape_cache

        def backward(tape, loss_id):
            out = timed(tape, loss_id)
            # the node count identifies the tape layout of a batch size, so the
            # shape walk runs once per layout, not once per step
            n = len(tape.nodes)
            if n not in cache:
                cache[n] = _tape_stats(tape)
            self.tape_steps.append(cache[n])
            return out

        return backward

    def _pds_wrapper(self, fn):
        timed = self._span_wrapper("metrics:pds", fn)

        def pds(pred_deltas, true_deltas):
            self.counts[(self.run_id, "metrics.pds_distance_evals")] += len(pred_deltas) ** 2
            return timed(pred_deltas, true_deltas)

        return pds

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for name, m in sys.modules.items() if name == "pertgraph" or name.startswith("pertgraph.")]
        for key in list(SPANS) + list(COUNTS):
            mod_name, attr = key.split(":")
            owner = sys.modules[f"pertgraph.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                wrapper = self._backward_wrapper(original) if key == "numerics:Tape.backward" else self._span_wrapper(key, original)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapper)
                continue
            original = getattr(owner, attr)
            if key in COUNTS:
                wrapper = self._count_wrapper(COUNTS[key], original)
            elif key == "metrics:pds":
                wrapper = self._pds_wrapper(original)
            else:
                wrapper = self._span_wrapper(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # --- derived metrics -------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer_metrics(self, weight: dict[str, float], walls: dict[str, float]) -> dict[str, float]:
        """Per-layer figures from the traced units.

        `weight` maps each traced unit's run id to the factor that turns its
        spans into a figure per set-up or per sweep of its stage; `walls` holds
        each unit's wall time, for the time no span covers.
        """
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for metric in set(SPANS.values()) | set(COUNTS.values()) | set(CALL_COUNTS.values()):
            out[metric] = 0.0
        out["metrics.pds_distance_evals"] = 0.0
        roots: dict[str, float] = defaultdict(float)
        step_ms: list[float] = []
        forward_s = validation_s = 0.0
        pending: dict[int, float] = {}  # parent span -> batch evaluation awaiting its update
        for i, s in enumerate(self.spans):
            w = weight.get(s[RUN])
            if w is None:
                continue
            name = s[NAME]
            out[SPANS[name]] += selfs[i] * w
            if name in CALL_COUNTS:
                out[CALL_COUNTS[name]] += w
            dur = s[END] - s[START]
            if s[PARENT] < 0:
                roots[s[RUN]] += dur
            if name == "training:evaluate_batch":
                forward_s += dur * w
                pending[s[PARENT]] = dur
            elif name == "numerics:adam_step" and s[PARENT] in pending:
                # a step is the batch evaluation plus the optimizer update after it
                step_ms.append(1e3 * (pending.pop(s[PARENT]) + dur))
            elif name == "numerics:Tape.backward":
                forward_s -= dur * w
            elif name == "training:_validation_pearson":
                validation_s += dur * w
        for (run, counter), n in self.counts.items():
            if run in weight:
                out[counter] += n * weight[run]
        out["training.forward_s"] = forward_s
        out["training.validation_s"] = validation_s
        steps = sorted(step_ms)
        out["training.step_ms_p50"] = statistics.median(steps) if steps else 0.0
        out["training.step_ms_p99"] = steps[min(len(steps) - 1, int(0.99 * len(steps)))] if steps else 0.0
        if self.tape_steps:
            out["numerics.tape_nodes_per_step"] = statistics.median(t[0] for t in self.tape_steps)
            out["numerics.matmul_flops_per_step"] = statistics.median(t[1] for t in self.tape_steps)
            out["numerics.tape_bytes_per_step"] = statistics.median(t[2] for t in self.tape_steps)
        else:
            for name in ("tape_nodes_per_step", "matmul_flops_per_step", "tape_bytes_per_step"):
                out[f"numerics.{name}"] = 0.0
        out["trace.unattributed_s"] = sum((walls[r] - roots[r]) * w for r, w in weight.items())
        return dict(out)
