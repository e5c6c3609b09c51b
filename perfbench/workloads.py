"""The benchmark's workloads: inputs, set-up, timed stages and correctness checks.

Every workload uses the criterion-7 data settings and model. Its work is cut
into units of fixed size: one set-up, one `train` call, one chunk of predicted
perturbations, one `evaluate_predictions` call, one chunk of deg coverage.
The machine's speed drifts over tens of seconds, so a run does not measure
its stages one after another: a scheduler interleaves their units over the
time budget, always picking the stage furthest behind its share of the time. Each stage's
throughput is its summed work over its summed time. The pertgraph
layers are reached through their module attributes, so a traced run sees
every call.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pertgraph import data, graph, metrics, model, numerics, training
from pertgraph.loss import LossWeights, estimate_huber_delta

SPLIT = (0.8, 0.1, 0.1)
BATCH = 16
LEARNING_RATE = 1e-2
TOP_K = 30          # confidence filter applied to the ingested graph for the model
MAX_HOPS = 4        # deg-coverage depth, the CLI default
PREDICT_CHUNK = 20  # perturbations per predict unit
COVERAGE_CHUNK = 2  # perturbations per deg-coverage unit
EVAL_MINIMUM = 3    # evaluate_predictions calls per run, at least
GATE_EPOCHS = 50    # length of the training run behind the learning check
MICRO_BATCHES = (1, 4, 16)
MIB = 2.0 ** 20
# Per workload: the size of the calibration's dense part (0: none), and the wall
# time of one calibration unit on the reference machine. Reported times are wall
# times divided by this run's calibration time over that reference, so they read
# as seconds on the reference machine (see README.md).
CALIBRATION = {"train-c7": (0, 0.0086), "analyze-10x": (2000, 0.035)}
# share of the time budget each stage is scheduled to get
SHARES = {"setup": 0.05, "train": 0.3, "predict": 0.1, "evaluate": 0.2, "coverage": 0.2, "calibrate": 0.15}


class Calibration:
    """Fixed reference work that uses no pertgraph code. Its speed, sampled
    between the workload's units, tracks the machine's drifting speed.

    The tape part is interpreter-bound like a c7 train step: small matmuls,
    elementwise ops, a Python object per node. The dense part, for
    analyze-10x, is memory- and BLAS-bound like its forward: an n x n zero
    matrix filled row by row in a Python loop, checked for finiteness and
    multiplied into an n x 64 block.
    """

    def __init__(self, dense_n: int):
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(16, 64))
        self.weight = rng.normal(size=(64, 64))
        self.dense_n = dense_n
        self.block = rng.normal(size=(dense_n, 64)) if dense_n else None

    def __call__(self) -> float:
        acc = 0.0
        nodes = []
        for i in range(400):
            x = np.maximum(self.small @ self.weight, 0.0)
            g = x.T @ self.small
            nodes.append({"kind": "matmul", "value": x, "grad": np.zeros_like(x), "parents": (i, i + 1)})
            acc += float(x[0, i % 64]) + float(g[0, 0])
        n = self.dense_n
        if n:
            a = np.zeros((n, n))
            cols = np.arange(0, n, n // 16)
            for v in range(n):
                a[v, v] = 0.5
                a[v, cols] = 0.5 / cols.size
            acc += float(np.all(np.isfinite(a))) + float((a @ self.block).sum())
        return acc + len(nodes)


def synth_config(n_genes: int, n_perts: int) -> data.SynthConfig:
    return data.SynthConfig(
        n_genes=n_genes, n_perturbations=n_perts, cells_per_condition=20,
        effect_magnitude=1.0, noise_sigma=0.2, embed_dim=16,
    )


def model_config() -> model.ModelConfig:
    return model.ModelConfig(n_layers=1, d_struct=64, d_latent=128, d_score=32, tau=0.5)


def loss_weights() -> LossWeights:
    return LossWeights(lambda_non=1.0, lambda_align=0.1)


def train_config(seed: int, epochs: int) -> training.TrainConfig:
    # patience == max_epochs: early stopping never ends a run before its epoch count
    return training.TrainConfig(
        max_epochs=epochs, batch_size=BATCH, learning_rate=LEARNING_RATE, patience=epochs,
        seed=seed, weights=loss_weights(), model=model_config(),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    n_genes: int
    n_perts: int
    epochs: int          # epochs per train unit
    setups: int          # set-ups per run, at least; setup_s is their median
    from_files: bool     # ingest CSV/TSV inputs instead of keeping synth output in memory
    learning_gate: bool  # also train GATE_EPOCHS epochs, untimed, and check that it learns
    micro_repeats: int   # repeats of each traced-run micro-benchmark
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-c7", 200, 40, epochs=10, setups=11, from_files=False, learning_gate=True,
                 micro_repeats=11,
                 why="criterion-7 config; small matrices, so per-op tape overhead dominates a step"),
        Workload("analyze-10x", 2000, 200, epochs=1, setups=3, from_files=True, learning_gate=False,
                 micro_repeats=1,
                 why="10x files: CSV ingest, eval-mode forward for all 200, evaluation and deg coverage"),
    )
}


# --- inputs -------------------------------------------------------------------


def dataset_digest(ds: data.PerturbationDataset) -> str:
    h = hashlib.sha256("\n".join(ds.vocab.names).encode("utf-8"))
    h.update(np.ascontiguousarray(ds.control, dtype="<f8").tobytes())
    for name in ds.pert_names():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(ds.block(name), dtype="<f8").tobytes())
    return h.hexdigest()


def arrays_digest(values: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(values):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(values[name], dtype="<f8").tobytes())
    return h.hexdigest()


def checkpoint_params(n_genes: int, d_embed: int, seed: int) -> model.ModelParams:
    return model.init_params(n_genes, n_genes, d_embed, model_config(), seed=seed)


def make_input_files(out_dir: Path, n_genes: int, n_perts: int, seed: int) -> None:
    """Write the dataset the CLI way (expression CSV, edge TSV, embeddings CSV)
    plus a checkpoint of seeded initial weights, and the dataset's digest."""
    synth = data.synth_generate(synth_config(n_genes, n_perts), seed=seed)
    data.save_expression(synth.dataset, out_dir / "expression.csv")
    graph.save_edge_list(synth.graph, out_dir / "graph.tsv")
    data.save_embeddings(synth.embeddings, out_dir / "embeddings.csv", genes=synth.dataset.vocab.names)
    params = checkpoint_params(n_genes, synth.embeddings.dim, seed)
    model.save_checkpoint(params, out_dir / "checkpoint.json", out_dir / "checkpoint.bin")
    (out_dir / "expression.sha256").write_text(dataset_digest(synth.dataset) + "\n")


def strided_chunks(items: list[str], size: int) -> list[list[str]]:
    """Chunks that each take every n-th item, so that a run which gets through
    only some chunks still samples the whole list."""
    n = -(-len(items) // size)
    return [items[k::n] for k in range(n)]


@dataclass
class Inputs:
    dataset: data.PerturbationDataset
    graph: graph.KnowledgeGraph          # what the model sees
    full_graph: graph.KnowledgeGraph     # what deg coverage walks: never top-k filtered
    embeddings: data.SemanticEmbeddings
    splits: data.SplitSpec
    checkpoint: model.ModelParams | None = None
    xbar_c: np.ndarray = field(init=False)

    def __post_init__(self):
        self.xbar_c = self.dataset.control.mean(axis=0)


# --- bookkeeping ------------------------------------------------------------------


@dataclass
class Unit:
    stage: str
    traced: bool
    items: int       # training samples, perturbations or set-ups
    seconds: float
    run_id: str


@dataclass
class Record:
    """Operation counts, check failures and unit timings of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    units: list[Unit] = field(default_factory=list)
    sweep_items: dict[str, int] = field(default_factory=dict)  # stage -> items in one sweep
    epochs_run: int = 0
    steps: int = 0
    samples: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def stage_units(self, stage: str, traced: bool) -> list[Unit]:
        return [u for u in self.units if u.stage == stage and u.traced == traced]

    def seconds_per_item(self, stage: str, traced: bool) -> float:
        units = self.stage_units(stage, traced)
        return sum(u.seconds for u in units) / sum(u.items for u in units)

    def sweep_seconds(self, traced: bool) -> float:
        """Seconds for one sweep of every work stage at its measured speed."""
        return sum(n * self.seconds_per_item(stage, traced) for stage, n in self.sweep_items.items())


@dataclass
class Stage:
    """A kind of unit: `next_unit()` returns a timed call and an untimed check
    of its result, which returns the work done (samples or perturbations)."""

    name: str
    next_unit: Callable[[], tuple[Callable, Callable]]
    ready: Callable[[], bool]
    minimum: int
    spent: float = 0.0
    done: int = 0


class Runner:
    """Runs one workload for one seed; `tracer` is set for a traced run."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, tracer=None):
        self.w = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.rec = Record()
        self.inputs: Inputs | None = None
        self.params: model.ModelParams | None = None     # from the first train unit
        self.preds: dict[str, np.ndarray] = {}
        self.expected_dataset: str | None = None
        self.digests: dict[str, str] = {}
        self.quality: float | None = None
        self.raw: dict[str, float] = {}  # end-to-end figures in wall-clock seconds
        self.drift = 1.0                 # calibration time over its reference
        self.predict_cursor = 0
        self.coverage_cursor = 0
        self.calibration = Calibration(CALIBRATION[workload.name][0])

    # --- set-up ---------------------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: write the input files of a file-based workload in a child
        process, so the generator's memory stays out of this process's peak."""
        if not self.w.from_files:
            return
        self.work_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--make-inputs", str(self.work_dir),
               "--workload", self.w.name, "--seed", str(self.seed)]
        subprocess.run(cmd, check=True, timeout=600)
        self.expected_dataset = (self.work_dir / "expression.sha256").read_text().strip()

    def setup(self) -> Inputs:
        w, seed = self.w, self.seed
        if not w.from_files:
            synth = data.synth_generate(synth_config(w.n_genes, w.n_perts), seed=seed)
            splits = data.split_by_perturbation(synth.dataset, SPLIT, seed=seed)
            return Inputs(synth.dataset, synth.graph, synth.graph, synth.embeddings, splits)
        d = self.work_dir
        dataset = data.load_expression(d / "expression.csv")
        full, _ = graph.load_edge_list(d / "graph.tsv", dataset.vocab)
        kg = graph.topk_filter(full, TOP_K)
        embeddings = data.load_embeddings(d / "embeddings.csv", dataset.vocab)
        params = model.load_checkpoint(d / "checkpoint.json", d / "checkpoint.bin")
        splits = data.split_by_perturbation(dataset, SPLIT, seed=seed)
        return Inputs(dataset, kg, full, embeddings, splits, params)

    def check_inputs(self) -> None:
        """File round trips: the ingested dataset and checkpoint are bit-exact."""
        if not self.w.from_files:
            return
        inp = self.inputs
        self.rec.check(dataset_digest(inp.dataset) == self.expected_dataset,
                       "expression CSV round trip is not bit-exact")
        expected = checkpoint_params(self.w.n_genes, inp.embeddings.dim, self.seed)
        self.rec.check(arrays_digest(inp.checkpoint.values) == arrays_digest(expected.values),
                       "loaded checkpoint differs from the saved initial weights")
        again_json, again_bin = self.work_dir / "again.json", self.work_dir / "again.bin"
        model.save_checkpoint(inp.checkpoint, again_json, again_bin)
        again = model.load_checkpoint(again_json, again_bin)
        self.rec.check(arrays_digest(again.values) == arrays_digest(inp.checkpoint.values),
                       "checkpoint save -> load round trip is not bit-exact")

    def targets(self) -> list[str]:
        """Perturbations predicted, evaluated and covered: all of them. Work per
        perturbation depends on its DEG stratum, and a split's stratum mix
        changes with the seed; the full set's mix does not."""
        return sorted(self.inputs.dataset.pert_names())

    # --- units ------------------------------------------------------------------------

    def unit_setup(self):
        first = self.inputs is None

        def call():
            self.inputs = None  # free the previous copy before building the next
            self.inputs = self.setup()

        def check(_):
            if first:
                self.check_inputs()
            return 1

        return call, check

    def unit_train(self):
        inp, w = self.inputs, self.w
        cfg = train_config(self.seed, w.epochs)
        n_train = len(inp.splits.train)

        def check(result):
            params, history = result
            epochs = len(history.epochs)
            self.rec.epochs_run += epochs
            self.rec.steps += epochs * -(-n_train // BATCH)
            self.rec.samples += epochs * n_train
            self.rec.check(epochs == w.epochs, f"train stopped after {epochs} of {w.epochs} epochs")
            finite = all(np.isfinite(row[k]) for row in history.epochs for k in ("recon", "non", "align", "total"))
            self.rec.check(finite, "non-finite loss term in an epoch")
            digest = arrays_digest(params.values)
            if self.params is None:
                self.params = params
                self.digests["params"] = digest
            else:
                self.rec.check(digest == self.digests["params"], "a repeated train unit gave different bytes")
            return epochs * n_train

        self.rec.sweep_items["train"] = n_train * w.epochs
        return lambda: training.train(inp.dataset, inp.splits, inp.graph, inp.embeddings, cfg), check

    def unit_predict(self):
        inp = self.inputs
        targets = self.targets()
        chunks = strided_chunks(targets, PREDICT_CHUNK)
        chunk = chunks[self.predict_cursor % len(chunks)]
        self.predict_cursor += 1
        params = inp.checkpoint if self.w.from_files else self.params

        def check(out):
            ok = set(out) == set(chunk) and all(
                v.shape == (inp.dataset.n_genes,) and np.all(np.isfinite(v)) for v in out.values()
            )
            self.rec.check(ok, "predictions not finite or not n_genes wide")
            for p, v in out.items():
                if p in self.preds:
                    self.rec.check(v.tobytes() == self.preds[p].tobytes(), "a repeated prediction gave different bytes")
                else:
                    self.preds[p] = v
            if len(self.preds) == len(targets) and "predictions" not in self.digests:
                self.digests["predictions"] = arrays_digest(self.preds)
            return len(chunk)

        self.rec.sweep_items["predict"] = len(targets)
        return lambda: training.predict_profiles(params, inp.xbar_c, chunk, inp.graph, inp.embeddings), check

    def unit_evaluate(self):
        inp = self.inputs
        targets = self.targets()
        preds = dict(self.preds)

        def check(result):
            report, _ = result
            pearson = report.overall["pearson_delta"]["mean"]
            self.rec.check(pearson is not None and np.isfinite(pearson), "pearson_delta mean is not finite")
            return len(targets)

        self.rec.sweep_items["evaluate"] = len(targets)
        return lambda: metrics.evaluate_predictions(inp.dataset, preds, targets), check

    def unit_coverage(self):
        """The deg-coverage command's work on a chunk of perturbations: the
        Welch DEG table, then hop coverage of each DEG set. It walks the
        unfiltered graph, as the command does at its default top_k = 0: a
        top-k graph splits into components whose sizes, and so BFS work,
        change with the seed."""
        inp = self.inputs
        names = inp.dataset.vocab.names
        targets = self.targets()
        chunks = strided_chunks(targets, COVERAGE_CHUNK)
        chunk = chunks[self.coverage_cursor % len(chunks)]
        self.coverage_cursor += 1

        def call():
            table = data.compute_degs(inp.dataset, perturbations=chunk)
            out = []
            for pert in table.pert_names():
                genes = [names[i] for i in table.deg_indices(pert) if names[i] != pert]
                if genes:
                    out.append(graph.deg_coverage(inp.full_graph, pert, genes, MAX_HOPS))
            return out

        def check(out):
            ok = bool(out) and all(
                len(c) == MAX_HOPS and all(0.0 <= x <= 1.0 for x in c) and c == sorted(c) for c in out
            )
            self.rec.check(ok, "deg coverage not a non-decreasing fraction per hop")
            return len(chunk)

        self.rec.sweep_items["coverage"] = len(targets)
        return call, check

    def unit_calibrate(self):
        return self.calibration, lambda _: 1

    # --- the schedule -------------------------------------------------------------------

    def work_stages(self) -> list[Stage]:
        # a traced run needs a traced and an untraced unit of every work stage
        at_least = 2 if self.tracer is not None else 1
        return [
            Stage("train", self.unit_train, lambda: True, at_least),
            # evaluation needs one prediction of every target first
            Stage("predict", self.unit_predict, lambda: self.w.from_files or self.params is not None,
                  max(at_least, -(-self.w.n_perts // PREDICT_CHUNK))),
            Stage("evaluate", self.unit_evaluate, lambda: "predictions" in self.digests, EVAL_MINIMUM),
            Stage("coverage", self.unit_coverage, lambda: True, at_least),
        ]

    def run_window(self, seconds: float) -> None:
        """Set up, then run work units until the budget is spent and every
        stage met its minimum. Calibration units run between set-ups and among
        the work units; the in-memory set-ups of train-c7 are work units too.

        The next unit comes from the ready stage furthest behind its share of
        the elapsed time; past the budget only stages short of their minimum run.
        Until every target has a prediction, only predict and calibrate run, so
        that the evaluations, which need them all, spread over the window too.
        """
        calibrate = Stage("calibrate", self.unit_calibrate, lambda: True, 1)
        setup = Stage("setup", self.unit_setup, lambda: True, self.w.setups)
        # file inputs are all set up first: ingests spread among other work
        # would leave the heap fragmented and raise the process's peak
        while setup.done < (setup.minimum if self.w.from_files else 1):
            self.run_unit(calibrate)
            self.run_unit(setup)
        self.run_unit(calibrate)
        stages = [*self.work_stages(), calibrate]
        if not self.w.from_files:
            stages.append(setup)
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            over = elapsed >= seconds
            ready = [s for s in stages if s.ready() and (not over or s.done < s.minimum)]
            if not ready:
                break
            if "predictions" not in self.digests and any(s.name == "predict" for s in ready):
                # calibrate only while behind its share, predict otherwise
                behind = SHARES["calibrate"] * elapsed > calibrate.spent
                ready = [s for s in ready if s.name == ("calibrate" if behind else "predict")]
            self.run_unit(max(ready, key=lambda s: SHARES[s.name] * elapsed - s.spent))

    def run_unit(self, stage: Stage) -> None:
        # set-ups of a traced run are all traced, calibration never, the rest alternate
        traced = self.tracer is not None and stage.name != "calibrate" and (
            stage.name == "setup" or stage.done % 2 == 1)
        run_id = f"{stage.name}-{stage.done}"
        call, check = stage.next_unit()
        if traced:
            self.tracer.run_id = run_id
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        items = check(result)
        stage.spent += dt
        stage.done += 1
        self.rec.units.append(Unit(stage.name, traced, items, dt, run_id))

    def check_learning(self) -> None:
        """The quality guard, untimed: GATE_EPOCHS of training must cut the loss
        tenfold and beat the model's own initialization on the test split."""
        inp = self.inputs
        test = list(inp.splits.test)
        params, history = training.train(inp.dataset, inp.splits, inp.graph, inp.embeddings,
                                         train_config(self.seed, GATE_EPOCHS))
        first, last = history.epochs[0]["total"], history.epochs[-1]["total"]
        self.rec.check(len(history.epochs) == GATE_EPOCHS, "learning-check run stopped early")
        self.rec.check(last <= 0.1 * first, f"loss fell only from {first:.4g} to {last:.4g}")
        untrained = model.init_params(
            inp.graph.n_nodes, inp.dataset.n_genes, inp.embeddings.dim, model_config(),
            seed=training.derive_seed(self.seed, "init"),
        )
        scores = []
        for p in (params, untrained):
            preds = training.predict_profiles(p, inp.xbar_c, test, inp.graph, inp.embeddings)
            report, _ = metrics.evaluate_predictions(inp.dataset, preds, test)
            scores.append(report.overall["pearson_delta"]["mean"])
        self.quality = scores[0]
        self.rec.check(scores[0] > scores[1], f"trained test pearson {scores[0]:.4f} <= untrained {scores[1]:.4f}")

    # --- whole runs -------------------------------------------------------------------

    def run(self, seconds: float) -> dict[str, float]:
        """Untraced: the end-to-end figures in reference seconds. Traced: the
        per-layer figures. `self.raw` keeps the wall-clock figures."""
        self.prepare()
        self.run_window(seconds)
        if self.w.learning_gate:
            self.check_learning()
        else:
            self.test_quality()
        rec = self.rec
        self.drift = rec.seconds_per_item("calibrate", False) / CALIBRATION[self.w.name][1]
        if self.tracer is not None:
            return self.traced_metrics()
        setup_s = statistics.median(u.seconds for u in rec.units if u.stage == "setup")
        self.raw = {
            "setup_s": setup_s,
            # one pipeline pass: a set-up, then one sweep of every stage
            "total_s": setup_s + rec.sweep_seconds(traced=False),
            "train_samples_per_s": 1.0 / rec.seconds_per_item("train", False),
            "predict_perts_per_s": 1.0 / rec.seconds_per_item("predict", False),
            "eval_perts_per_s": 1.0 / rec.seconds_per_item("evaluate", False),
            "coverage_perts_per_s": 1.0 / rec.seconds_per_item("coverage", False),
        }
        return {k: v * self.drift if k.endswith("_per_s") else v / self.drift for k, v in self.raw.items()}

    def test_quality(self) -> None:
        """Untimed: delta Pearson of the predicting model on the test split."""
        test = list(self.inputs.splits.test)
        report, _ = metrics.evaluate_predictions(self.inputs.dataset, {p: self.preds[p] for p in test}, test)
        self.quality = report.overall["pearson_delta"]["mean"]

    def traced_metrics(self) -> dict[str, float]:
        """Per-layer figures per set-up and per sweep of each stage, then the
        micro-benchmarks and a tracemalloc pass."""
        rec = self.rec
        weights, walls = {}, {}
        for stage in ("setup", *rec.sweep_items):
            units = rec.stage_units(stage, traced=True)
            scale = 1.0 / len(units) if stage == "setup" else rec.sweep_items[stage] / sum(u.items for u in units)
            for u in units:
                weights[u.run_id] = scale
                walls[u.run_id] = u.seconds
        out = self.tracer.layer_metrics(weights, walls)
        out["trace.overhead_pct"] = 100.0 * (rec.sweep_seconds(traced=True) / rec.sweep_seconds(traced=False) - 1.0)
        out["quality.test_pearson_delta"] = self.quality
        out["calib.unit_ms"] = 1e3 * rec.seconds_per_item("calibrate", False)
        out.update(self.micro())
        out.update(self.memory())
        return out

    def micro(self) -> dict[str, float]:
        """Single train steps (batch evaluation + Adam update) at B in {1, 4, 16},
        and predict_profiles on 40 perturbations, untraced."""
        inp, reps = self.inputs, self.w.micro_repeats
        train_perts = sorted(inp.splits.train)
        deg_table = data.compute_degs(inp.dataset, perturbations=train_perts)
        huber = estimate_huber_delta(deg_table, train_perts)
        targets = {p: inp.dataset.block(p).mean(axis=0) for p in train_perts}
        params = model.init_params(inp.graph.n_nodes, inp.dataset.n_genes, inp.embeddings.dim,
                                   model_config(), seed=self.seed)
        state = numerics.AdamState.for_params(params.values)
        out = {}
        for b in MICRO_BATCHES:
            batch = train_perts[:b]
            times = []
            for r in range(reps):
                seeds = {p: training.derive_seed(self.seed, "micro", b, r, k) for k, p in enumerate(batch)}
                t0 = time.perf_counter()
                _, grads, _ = training.evaluate_batch(
                    params, batch, inp.xbar_c, targets, inp.graph, inp.embeddings, deg_table,
                    loss_weights(), huber, mode="train", gumbel_seeds=seeds,
                )
                numerics.adam_step(params.values, grads, state, lr=LEARNING_RATE)
                times.append(time.perf_counter() - t0)
            out[f"training.step_ms_b{b}"] = 1e3 * statistics.median(times)
        perts = sorted(inp.dataset.pert_names())[:40]
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            training.predict_profiles(params, inp.xbar_c, perts, inp.graph, inp.embeddings)
            times.append(time.perf_counter() - t0)
        out["training.predict_40_ms"] = 1e3 * statistics.median(times)
        return out

    def memory(self) -> dict[str, float]:
        """tracemalloc peaks above the level at each phase's start, in a pass of
        their own: one set-up, one 1-epoch train, one predict chunk."""
        out = {}

        def peak(fn):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, (tracemalloc.get_traced_memory()[1] - base) / MIB

        self.inputs = None
        tracemalloc.start()
        try:
            self.inputs, out["mem.load_peak_mib"] = peak(self.setup)
            inp = self.inputs
            cfg = train_config(self.seed, 1)
            (params, _), out["mem.train_peak_mib"] = peak(
                lambda: training.train(inp.dataset, inp.splits, inp.graph, inp.embeddings, cfg))
            if self.w.from_files:
                params = inp.checkpoint
            chunk = self.targets()[:PREDICT_CHUNK]
            _, out["mem.predict_peak_mib"] = peak(
                lambda: training.predict_profiles(params, inp.xbar_c, chunk, inp.graph, inp.embeddings))
        finally:
            tracemalloc.stop()
        return out


def cleanup(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
