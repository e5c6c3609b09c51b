"""Expression data model: control/perturbation sample blocks, pseudobulk
profiles, per-gene Welch testing, DEG tables, effect-size strata,
perturbation-level splits, semantic embeddings, and a synthetic generator
with planted sparse effects.

Expression values are log1p-normalized (nonnegative) throughout; the model
and all metrics operate on pseudobulk mean profiles.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import stdtr

from .errors import DataError, ParseError, UsageError, check_range, open_utf8, write_csv
from .graph import GeneVocab, KnowledgeGraph

CONTROL_LABEL = "control"


class PerturbationDataset:
    """Control samples plus per-perturbation sample blocks over one gene vocabulary.

    All perturbation reads go through `block()` so tests can instrument
    which conditions a computation touched.
    """

    def __init__(self, vocab: GeneVocab, control: np.ndarray, perturbations: dict[str, np.ndarray]):
        control = np.asarray(control, dtype=np.float64)
        n = len(vocab)
        if control.ndim != 2 or control.shape[1] != n:
            raise DataError(f"control block must be samples x {n}")
        if control.shape[0] < 2:
            raise DataError("need at least 2 control samples")
        self._check_values(control, CONTROL_LABEL)
        blocks = {}
        for name, block in perturbations.items():
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2 or block.shape[1] != n:
                raise DataError(f"perturbation {name!r} block must be samples x {n}")
            if block.shape[0] < 2:
                raise DataError(f"perturbation {name!r} needs at least 2 samples")
            self._check_values(block, name)
            blocks[name] = block
        self.vocab = vocab
        self.control = control
        self.perturbations = blocks

    @staticmethod
    def _check_values(block: np.ndarray, label: str) -> None:
        if not np.all(np.isfinite(block)):
            raise DataError(f"non-finite expression value in {label!r}")
        if np.any(block < 0):
            raise DataError(f"negative expression value in {label!r} (expected log1p counts)")

    @property
    def n_genes(self) -> int:
        return len(self.vocab)

    def pert_names(self) -> list[str]:
        return sorted(self.perturbations)

    def block(self, name: str) -> np.ndarray:
        try:
            return self.perturbations[name]
        except KeyError:
            raise UsageError(f"unknown perturbation {name!r}") from None


LOAD_CHUNK_ROWS = 256  # data lines parsed per np.loadtxt call; bounds the line text held at once


def load_expression(path) -> PerturbationDataset:
    """Read `sample_id,perturbation,<genes...>` CSV; rows labeled `control` form the control block."""
    genes, lead, values = _read_numeric_csv(path, ("sample_id", "perturbation"))
    rows_by_label: dict[str, list[int]] = {}
    for i, (_, label) in enumerate(lead):
        rows_by_label.setdefault(label, []).append(i)
    if CONTROL_LABEL not in rows_by_label:
        raise DataError("no control rows in expression file")
    blocks = {label: values[rows] for label, rows in rows_by_label.items()}
    control = blocks.pop(CONTROL_LABEL)
    return PerturbationDataset(GeneVocab(genes), control, blocks)


def _read_numeric_csv(path, labels: tuple[str, ...]) -> tuple[list[str], list[list[str]], np.ndarray]:
    """Read a CSV whose header starts with the `labels` columns, then names the
    numeric columns; return those names, each data line's label fields and a
    float64 array of its numbers, one row per data line.

    Data lines are streamed and their numbers parsed by numpy, LOAD_CHUNK_ROWS
    lines at a time, so no Python float or per-cell list is made. A line that
    holds a double quote is split by the csv module, so quoted labels work (a
    quoted field may not span lines). Blank lines are skipped. A malformed
    line is a ParseError, and a NaN or inf a DataError, naming its line.
    """
    k = len(labels)
    lead: list[list[str]] = []
    chunks: list[np.ndarray] = []
    with open_utf8(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError("empty file", 1) from None
        if len(header) <= k or tuple(header[:k]) != labels:
            raise ParseError(f"header must start with {','.join(labels)},<columns>", 1)
        names = header[k:]
        if len(set(names)) != len(names):
            raise ParseError("duplicate column in header", 1)
        texts: list[str] = []
        linenos: list[int] = []
        for lineno, line in enumerate(fh, start=2):  # the csv reader holds no line back
            line = line.rstrip("\r\n")
            if not line:
                continue
            if '"' in line:
                row = next(csv.reader([line]))
                n_fields, text = len(row), ",".join(row[k:])
            else:
                row = line.split(",", k)
                text = row[-1]
                n_fields = len(row) + text.count(",")
            if n_fields != len(header):
                raise ParseError(f"expected {len(header)} fields, got {n_fields}", lineno)
            lead.append(row[:k])
            texts.append(text)
            linenos.append(lineno)
            if len(texts) == LOAD_CHUNK_ROWS:
                chunks.append(_parse_numeric_lines(texts, linenos, len(names)))
                texts, linenos = [], []
        if texts:
            chunks.append(_parse_numeric_lines(texts, linenos, len(names)))
    # the chunks are freed on return, before the caller copies blocks out of
    # the array, so at most two copies are alive
    return names, lead, np.concatenate(chunks) if chunks else np.empty((0, len(names)))


def _parse_numeric_lines(texts: list[str], linenos: list[int], n_values: int) -> np.ndarray:
    """Parse comma-separated numbers into one float64 row per text.

    numpy's parser is stricter than `float()`: `1_0` and non-ASCII digits are
    errors. A text that fails, or does not give exactly `n_values` numbers,
    is a ParseError naming its line; a NaN or inf is a DataError naming it.
    """
    values = None
    if "" not in texts:  # np.loadtxt skips an empty text, with a warning, instead of failing
        try:
            values = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (len(texts), n_values):
        for text, lineno in zip(texts, linenos):  # error path: find the first bad line
            try:
                row = np.loadtxt([text], delimiter=",", comments=None) if text else np.empty(0)
            except ValueError as exc:
                raise ParseError(str(exc).split(" at row ")[0], lineno) from None
            if row.size != n_values:  # an empty cell, or a quoted cell holding a comma
                raise ParseError(f"expected {n_values} numeric fields, got {row.size}", lineno)
        raise AssertionError("a chunk failed to parse but each of its lines parses")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError("non-finite value", linenos[int(finite.argmin())])
    return values


def save_expression(dataset: PerturbationDataset, path) -> None:
    """Write the dataset back out, control block first, then each perturbation's."""
    blocks = [(CONTROL_LABEL, dataset.control)] + [(name, dataset.block(name)) for name in dataset.pert_names()]
    rows = ([f"{name}_{i:04d}", name, *row.tolist()] for name, block in blocks for i, row in enumerate(block))
    write_csv(path, ["sample_id", "perturbation"] + dataset.vocab.names, rows)


# --- differential expression ---------------------------------------------------


class GroupStats(NamedTuple):
    """Per-gene reductions of one sample block, as the Welch test reads them."""

    n: int
    mean: np.ndarray
    var: np.ndarray  # ddof=1
    max: np.ndarray
    min: np.ndarray


def group_stats(block: np.ndarray) -> GroupStats:
    a = np.asarray(block, dtype=np.float64)
    if a.shape[0] < 2:
        raise UsageError("need at least 2 samples per group")
    return GroupStats(a.shape[0], a.mean(axis=0), a.var(axis=0, ddof=1), a.max(axis=0), a.min(axis=0))


def welch_pvalues(control: np.ndarray | GroupStats, pert_block: np.ndarray) -> np.ndarray:
    """Two-sided Welch t-test per gene column (unequal variances).

    `control` is the control block, or its `group_stats` when many blocks are
    tested against it. Degenerate columns where both groups have zero
    variance give p = 1 when the means agree and p = 0 when they differ.
    """
    a = control if isinstance(control, GroupStats) else group_stats(control)
    b = group_stats(pert_block)
    # a column constant in both groups has zero pooled variance; detect it from
    # the data, not from the float variance (the mean of n identical values rounds)
    degenerate = (a.max == a.min) & (b.max == b.min)
    ta, tb = a.var / a.n, b.var / b.n
    se2 = np.where(degenerate, 1.0, ta + tb)
    t = (b.mean - a.mean) / np.sqrt(se2)
    with np.errstate(divide="ignore", invalid="ignore"):
        df = se2**2 / (ta**2 / (a.n - 1) + tb**2 / (b.n - 1))
    p = 2.0 * stdtr(df, -np.abs(t))
    return np.where(degenerate, np.where(a.max == b.max, 1.0, 0.0), p)


def bh_adjust(pvalues: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values (monotone step-up)."""
    p = np.asarray(pvalues, dtype=np.float64)
    n = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * n / np.arange(1, n + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(n)
    out[order] = np.minimum(adjusted, 1.0)
    return out


def deg_rule(alpha: float, correction: str) -> Callable[[np.ndarray], np.ndarray]:
    """p-values -> DEG mask, its settings checked before any test runs: a gene is a
    DEG when its p-value, BH-adjusted under "benjamini-hochberg", is strictly below alpha."""
    if correction not in ("none", "benjamini-hochberg"):
        raise UsageError(f"unknown correction {correction!r}")
    check_range("alpha", alpha, 0, 1, low_open=True, high_open=False)
    adjust = bh_adjust if correction == "benjamini-hochberg" else np.asarray
    return lambda p: adjust(p) < alpha


@dataclass
class DegTable:
    """Per-perturbation p-values, DEG masks, and signed pseudobulk deltas."""

    alpha: float
    correction: str            # "none" | "benjamini-hochberg"
    genes: list[str]
    pvalues: dict[str, np.ndarray] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)    # bool per gene
    deltas: dict[str, np.ndarray] = field(default_factory=dict)

    def pert_names(self) -> list[str]:
        return sorted(self.pvalues)

    def deg_mask(self, pert: str) -> np.ndarray:
        return self.masks[pert]

    def non_deg_mask(self, pert: str) -> np.ndarray:
        return ~self.masks[pert]

    def deg_indices(self, pert: str) -> np.ndarray:
        return np.flatnonzero(self.masks[pert])

    def deg_fraction(self, pert: str) -> float:
        return float(self.masks[pert].sum()) / len(self.genes)


def compute_degs(
    dataset: PerturbationDataset,
    alpha: float = 0.05,
    correction: str = "none",
    perturbations: list[str] | None = None,
) -> DegTable:
    """Welch-test every gene of every (requested) perturbation against control.

    Masks threshold the (optionally BH-adjusted) p-values strictly below alpha;
    deltas are pseudobulk differences against the control mean.
    """
    is_deg = deg_rule(alpha, correction)
    names = dataset.pert_names() if perturbations is None else sorted(perturbations)
    table = DegTable(alpha=alpha, correction=correction, genes=list(dataset.vocab.names))
    control = group_stats(dataset.control)

    for name in names:
        block = dataset.block(name)
        p = welch_pvalues(control, block)
        table.pvalues[name] = p
        table.masks[name] = is_deg(p)
        table.deltas[name] = block.mean(axis=0) - control.mean
    return table


STRATA = ("small", "medium", "large")


def effect_size_strata(table: DegTable) -> dict[str, str]:
    """Classify each perturbation by its DEG fraction: <5% small, 5-10% medium, >10% large."""
    out = {}
    for name in table.pert_names():
        frac = table.deg_fraction(name)
        if frac < 0.05:
            out[name] = "small"
        elif frac <= 0.10:
            out[name] = "medium"
        else:
            out[name] = "large"
    return out


# --- splits ---------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint perturbation-level train/val/test assignment."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


def check_split_fractions(fractions) -> np.ndarray:
    """The train/val/test fractions as an array: three nonnegative values summing to 1."""
    fr = np.asarray(fractions, dtype=np.float64)
    for f in fr.flat:
        check_range("split_fractions", f, 0)
    if fr.size != 3 or abs(fr.sum() - 1.0) > 1e-9:
        raise UsageError("split_fractions must be three nonnegative values summing to 1")
    return fr


def split_by_perturbation(
    dataset: PerturbationDataset,
    fractions: tuple[float, float, float],
    seed: int,
) -> SplitSpec:
    """Seeded shuffle, then floor-sized splits with the remainder going to the
    largest fractional parts. Control cells are shared by every split."""
    fr = check_split_fractions(fractions)
    names = sorted(dataset.pert_names())
    n = len(names)
    nonzero = int((fr > 0).sum())
    if n < nonzero:
        raise UsageError(f"{n} perturbations cannot fill {nonzero} nonempty splits")
    rng = np.random.default_rng(seed)
    order = [names[i] for i in rng.permutation(n)]
    sizes = np.floor(fr * n).astype(int)
    remainder = n - sizes.sum()
    frac_part = fr * n - sizes
    for i in np.argsort(-frac_part, kind="stable")[:remainder]:
        sizes[i] += 1
    # a nonzero-fraction split must not come out empty when avoidable
    for i in range(3):
        if fr[i] > 0 and sizes[i] == 0:
            donor = int(np.argmax(sizes))
            sizes[donor] -= 1
            sizes[i] += 1
    train = tuple(sorted(order[: sizes[0]]))
    val = tuple(sorted(order[sizes[0] : sizes[0] + sizes[1]]))
    test = tuple(sorted(order[sizes[0] + sizes[1] :]))
    return SplitSpec(train=train, val=val, test=test, seed=seed)


# --- semantic embeddings ----------------------------------------------------------


@dataclass
class SemanticEmbeddings:
    """Fixed-dimension vector per gene, complete over the vocabulary it was built for."""

    dim: int
    vectors: dict[str, np.ndarray]

    def vector(self, gene: str) -> np.ndarray:
        try:
            return self.vectors[gene]
        except KeyError:
            raise UsageError(f"no embedding for gene {gene!r}") from None


def hash_embedding(name: str, dim: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector derived from the gene name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    v = np.random.default_rng(seed).standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v[0] = 1.0
        norm = 1.0
    return v / norm


def load_embeddings(path, vocab: GeneVocab) -> SemanticEmbeddings:
    """Read `gene,v0,...,v{d-1}` CSV; vocabulary genes absent from the file get
    the deterministic hash fallback at the same dimension."""
    columns, lead, values = _read_numeric_csv(path, ("gene",))
    dim = len(columns)
    vectors = {gene: row for (gene,), row in zip(lead, values)}
    return SemanticEmbeddings(dim, {g: vectors[g] if g in vectors else hash_embedding(g, dim) for g in vocab.names})


def save_embeddings(embeddings: SemanticEmbeddings, path, genes: list[str] | None = None) -> None:
    names = genes if genes is not None else sorted(embeddings.vectors)
    rows = ([g, *embeddings.vectors[g].tolist()] for g in names)
    write_csv(path, ["gene"] + [f"v{i}" for i in range(embeddings.dim)], rows)


# --- synthetic data ----------------------------------------------------------------


@dataclass
class SynthConfig:
    n_genes: int = 200
    n_perturbations: int = 40
    cells_per_condition: int = 20
    deg_fracs: tuple[float, float, float] = (0.03, 0.07, 0.12)  # small/medium/large
    effect_magnitude: float = 1.0
    noise_sigma: float = 0.1
    embed_dim: int = 16
    n_modules: int | None = None  # derived from gene count when unset

    def validate(self) -> None:
        check_range("n_genes", self.n_genes, 20)
        check_range("n_perturbations", self.n_perturbations, 4)
        check_range("cells_per_condition", self.cells_per_condition, 4)
        if len(self.deg_fracs) != 3:
            raise UsageError(f"deg_fracs must be three values, got {self.deg_fracs!r}")
        for f in self.deg_fracs:
            check_range("deg_fracs", f, 0, 1, low_open=True)
        check_range("effect_magnitude", self.effect_magnitude, 0)
        check_range("noise_sigma", self.noise_sigma, 0)
        check_range("embed_dim", self.embed_dim, 2)
        if self.n_modules is not None:
            check_range("n_modules", self.n_modules, 2)


@dataclass
class SynthData:
    dataset: PerturbationDataset
    truth_degs: dict[str, list[str]]      # planted DEG gene names per perturbation
    graph: KnowledgeGraph
    embeddings: SemanticEmbeddings
    effects: dict[str, np.ndarray]        # planted signed deltas per perturbation
    strata: dict[str, str]                # planted stratum per perturbation


def synth_generate(config: SynthConfig, seed: int) -> SynthData:
    """Plant sparse module-structured effects on a synthetic expression dataset.

    Genes are partitioned into modules, and each module carries a shared
    response program: a fixed gene order plus signed per-gene magnitudes.
    A perturbation targeting module m responds on {itself} + a prefix of m's
    program (prefix length set by its stratum), so same-module perturbations
    have nested, strongly overlapping DEG sets. The graph wires each module's
    backbone plus direct edges from every perturbed gene to its planted DEG
    genes, so true responders sit within a hop of the perturbation. Semantic
    embeddings mix a module flavor with the mean hash of the planted set,
    giving perturbations with shared response genes similar vectors.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n, p_count, cells = config.n_genes, config.n_perturbations, config.cells_per_condition
    names = [f"G{i:04d}" for i in range(n)]
    vocab = GeneVocab(names)

    max_count = max(2, round(max(config.deg_fracs) * n))
    n_modules = config.n_modules or max(2, min(p_count, n // (2 * max_count)))
    n_modules = min(n_modules, n // 4)  # n_genes >= 20, so at least 5
    member_order = rng.permutation(n)
    modules = np.array_split(member_order, n_modules)
    module_of = np.empty(n, dtype=np.int64)
    for m, members in enumerate(modules):
        module_of[members] = m
    # response program per module: a fixed gene order and signed magnitudes
    programs = [list(rng.permutation(members)) for members in modules]
    response = np.zeros(n)
    for members in modules:
        signs = rng.choice([-1.0, 1.0], size=len(members))
        mags = config.effect_magnitude * rng.uniform(0.8, 1.2, size=len(members))
        response[members] = signs * mags

    # perturbation genes round-robin over modules
    used: set[int] = set()
    pert_gene_idx: list[int] = []
    for i in range(p_count):
        pool = [g for g in modules[i % n_modules] if g not in used]
        if not pool:
            pool = [g for g in range(n) if g not in used]
        g = int(rng.choice(pool))
        used.add(g)
        pert_gene_idx.append(g)

    truth_degs: dict[str, list[str]] = {}
    effects: dict[str, np.ndarray] = {}
    strata: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    baseline = rng.uniform(0.5, 3.0, size=n)
    control = np.maximum(baseline + rng.normal(0.0, config.noise_sigma, size=(cells, n)), 0.0)

    for i, gidx in enumerate(pert_gene_idx):
        pname = names[gidx]
        stratum = STRATA[i % 3]
        frac = config.deg_fracs[i % 3]
        count = max(1, round(frac * n))
        program = [int(g) for g in programs[module_of[gidx]] if g != gidx]
        chosen = program[: count - 1]
        if len(chosen) + 1 < count:  # module exhausted: fill from the rest of the genome
            rest = [g for g in range(n) if g != gidx and g not in chosen]
            fill = rng.choice(rest, size=count - 1 - len(chosen), replace=False)
            chosen.extend(int(x) for x in fill)
        deg_idx = np.array(sorted([gidx] + chosen), dtype=np.int64)
        effect = np.zeros(n)
        effect[deg_idx] = response[deg_idx]
        effect[gidx] = -config.effect_magnitude  # knockdown suppresses the target itself
        noise = rng.normal(0.0, config.noise_sigma, size=(cells, n))
        blocks[pname] = np.maximum(baseline + effect + noise, 0.0)
        truth_degs[pname] = [names[j] for j in deg_idx]
        effects[pname] = effect
        strata[pname] = stratum

    # graph: module chain backbones and weak cross links for connectivity, plus
    # direct edges from each perturbed gene to its planted DEG genes so that
    # true responders lie in the perturbation's immediate neighborhood
    edges: list[tuple[int, int, float]] = []
    for members in modules:
        mem = list(members)
        for a, b in zip(mem, mem[1:]):
            edges.append((int(a), int(b), float(rng.uniform(0.4, 0.7))))
    for m in range(n_modules):
        a = int(rng.choice(modules[m]))
        b = int(rng.choice(modules[(m + 1) % n_modules]))
        if a != b:
            edges.append((a, b, float(rng.uniform(0.05, 0.3))))
    for gidx in pert_gene_idx:
        for g in truth_degs[names[gidx]]:
            tgt = vocab.index(g)
            if tgt != gidx:
                edges.append((gidx, tgt, float(rng.uniform(0.7, 1.0))))
    graph = KnowledgeGraph.from_edges(vocab, edges)

    dataset = PerturbationDataset(vocab, control, blocks)

    # semantic vectors: every gene mixes its module flavor with its own hash;
    # perturbation genes lean on the mean hash of their planted DEG set, so
    # perturbations with shared response genes get similar embeddings (the
    # planted analog of functionally related gene descriptions)
    vectors = {}
    for g in range(n):
        mod_part = hash_embedding(f"module-{module_of[g]}", config.embed_dim)
        gene_part = hash_embedding(names[g], config.embed_dim)
        v = 0.8 * mod_part + 0.2 * gene_part
        vectors[names[g]] = v / np.linalg.norm(v)
    for pname, genes in truth_degs.items():
        set_part = np.sum([hash_embedding(g, config.embed_dim) for g in genes], axis=0)
        set_part /= np.linalg.norm(set_part)
        mod_part = hash_embedding(f"module-{module_of[vocab.index(pname)]}", config.embed_dim)
        v = 0.6 * set_part + 0.4 * mod_part
        vectors[pname] = v / np.linalg.norm(v)
    embeddings = SemanticEmbeddings(dim=config.embed_dim, vectors=vectors)

    return SynthData(
        dataset=dataset,
        truth_degs=truth_degs,
        graph=graph,
        embeddings=embeddings,
        effects=effects,
        strata=strata,
    )
