"""Weighted gene-gene interaction graph: ingestion, top-k confidence
filtering, topology statistics, and hop-distance coverage of DEG sets.

Graphs are undirected, stored in CSR form (each edge once per endpoint,
neighbor ids sorted per row), carry no self-loops, and are immutable once
built. Every operation works on whole `indptr`/`indices`/`weights` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParseError, UsageError, atomic_write, check_range, open_utf8


class GeneVocab:
    """Ordered gene names with the inverse name -> index map."""

    def __init__(self, names: Sequence[str]):
        names = list(names)
        if len(set(names)) != len(names):
            raise DataError("gene names must be unique")
        self.names: list[str] = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UsageError(f"gene {name!r} not in vocabulary") from None

    def indices(self, names: Iterable[str]) -> np.ndarray:
        """Index of each name, in order, as an int64 array."""
        try:
            return np.array([self._index[n] for n in names], dtype=np.int64)
        except KeyError as exc:
            raise UsageError(f"gene {exc.args[0]!r} not in vocabulary") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneVocab) and self.names == other.names


def _row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


@dataclass(frozen=True)
class KnowledgeGraph:
    """Undirected weighted graph over a gene vocabulary, CSR layout."""

    vocab: GeneVocab
    indptr: np.ndarray   # int64, len(vocab) + 1
    indices: np.ndarray  # int64, neighbor ids sorted per node
    weights: np.ndarray  # float64, finite confidence >= 0, aligned with indices

    @classmethod
    def from_edges(cls, vocab: GeneVocab, edges: Iterable[tuple[int, int, float]]) -> "KnowledgeGraph":
        """Build from (u, v, weight) index triples; duplicates keep the max weight."""
        n = len(vocab)
        edges = list(edges)
        triples = np.array(edges, dtype=np.float64).reshape(len(edges), 3)
        u, v, w = triples[:, 0].astype(np.int64), triples[:, 1].astype(np.int64), triples[:, 2]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if np.any((lo == hi) | (lo < 0) | (hi >= n)):
            raise UsageError(f"edges need two distinct endpoints in 0..{n - 1} (self-loops are not stored)")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise DataError("edge weights must be finite and >= 0")
        # a stable sort puts the heaviest duplicate of each pair first; keep that one
        pair = lo * n + hi
        order = np.lexsort((-w, pair))
        keep = order[np.unique(pair[order], return_index=True)[1]]
        lo, hi, w = lo[keep], hi[keep], w[keep]
        rows, cols, ws = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.concatenate([w, w])
        order = np.argsort(rows * n + cols)
        return cls(vocab=vocab, indptr=_row_pointers(rows, n), indices=cols[order], weights=ws[order])

    @property
    def n_nodes(self) -> int:
        return len(self.vocab)

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def rows(self) -> np.ndarray:
        """Source node of every CSR entry, aligned with `indices` and `weights`."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edge_weight_map())

    def edge_weight_map(self) -> dict[tuple[int, int], float]:
        """{(u, v): weight} with u < v, in CSR order."""
        rows = self.rows()
        upper = rows < self.indices
        pairs = zip(rows[upper].tolist(), self.indices[upper].tolist())
        return dict(zip(pairs, self.weights[upper].tolist()))


def load_edge_list(path, vocab: GeneVocab) -> tuple[KnowledgeGraph, int]:
    """Read a tab-separated `geneA geneB weight` file restricted to the vocabulary.

    Lines starting with `#` and blank lines are ignored. Edges touching a gene
    outside the vocabulary, and self-loop lines, are dropped but counted; the
    count is returned next to the graph. Duplicate edges keep the maximum
    weight; a negative or non-finite weight is a DataError.
    """
    edges: list[tuple[int, int, float]] = []
    dropped = 0
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
            a, b, wtxt = parts
            try:
                w = float(wtxt)
            except ValueError:
                raise ParseError(f"bad weight {wtxt!r}", lineno) from None
            if not (np.isfinite(w) and w >= 0):
                raise DataError(f"edge weight must be finite and >= 0, got {wtxt!r}", lineno)
            if a not in vocab or b not in vocab or a == b:
                dropped += 1
                continue
            edges.append((vocab.index(a), vocab.index(b), w))
    return KnowledgeGraph.from_edges(vocab, edges), dropped


def save_edge_list(graph: KnowledgeGraph, path) -> None:
    """Write one undirected edge per line (u < v order), tab-separated. An
    edge whose first name starts with `#` is written the other way round, so
    it is not read as a comment; one whose two names do is a DataError."""
    names = graph.vocab.names
    with atomic_write(path) as fh:
        fh.write("# geneA\tgeneB\tweight\n")
        for (u, v), w in sorted(graph.edge_weight_map().items()):
            a, b = names[u], names[v]
            if a.startswith("#"):
                if b.startswith("#"):
                    raise DataError(f"edge {a!r}-{b!r} cannot be saved: both gene names start with '#', which marks a comment")
                a, b = b, a
            fh.write(f"{a}\t{b}\t{w!r}\n")


def _nominated(graph: KnowledgeGraph, k: int) -> np.ndarray:
    """Mask over CSR entries: the entry is among its row's k heaviest (ties: lower index)."""
    check_range("k", k, 1)
    rows = graph.rows()
    order = np.lexsort((graph.indices, -graph.weights, rows))
    # rows is sorted, so sorting by row first keeps every row's block in place
    rank = np.empty(rows.size, dtype=np.int64)
    rank[order] = np.arange(rows.size) - graph.indptr[rows]
    return rank < k


def nominations(graph: KnowledgeGraph, k: int) -> list[set[int]]:
    """Per node, the <= k neighbors with the highest confidence (ties: lower index)."""
    mask = _nominated(graph, k)
    ptr = _row_pointers(graph.rows()[mask], graph.n_nodes).tolist()
    nominated = graph.indices[mask].tolist()
    return [set(nominated[a:b]) for a, b in zip(ptr, ptr[1:])]


def check_topk_mode(mode: str) -> None:
    if mode not in ("union", "mutual"):
        raise UsageError(f"topk_mode must be union or mutual, got {mode!r}")


def topk_filter(graph: KnowledgeGraph, k: int, mode: str = "union") -> KnowledgeGraph:
    """Keep an edge iff an endpoint nominates it among its top-k weights.

    `union` keeps the edge when either endpoint nominates it; `mutual`
    requires both. The result stays symmetric and is a subgraph of the input.
    """
    check_topk_mode(mode)
    hit = _nominated(graph, k)
    rows = graph.rows()
    # the CSR is symmetric and sorted by (row, col), so sorting by (col, row)
    # lists entry e's mirror (col, row) at position e
    mirror = np.lexsort((rows, graph.indices))
    keep = (hit | hit[mirror]) if mode == "union" else (hit & hit[mirror])
    indptr = _row_pointers(rows[keep], graph.n_nodes)
    return KnowledgeGraph(graph.vocab, indptr, graph.indices[keep], graph.weights[keep])


@dataclass(frozen=True)
class GraphStats:
    n_nodes: int
    n_edges: int
    mean_degree: float
    median_degree: float


def degree_stats(graph: KnowledgeGraph) -> GraphStats:
    """Undirected degree convention; median uses the lower middle element."""
    n = graph.n_nodes
    degs = np.diff(graph.indptr)
    if n == 0:
        return GraphStats(0, 0, 0.0, 0.0)
    mean = float(degs.sum()) / n
    median = float(np.sort(degs)[(n - 1) // 2])
    return GraphStats(n, graph.n_edges, mean, median)


def hop_distances(graph: KnowledgeGraph, source: str, max_hops: int | None = None) -> np.ndarray:
    """Breadth-first hop counts from `source`; unreachable nodes get inf.

    The search stops after level `max_hops`, so nodes farther away get inf
    too; None searches the whole component.
    """
    if max_hops is not None:
        check_range("max_hops", max_hops, 0)
    n, indptr = graph.n_nodes, graph.indptr
    dist = np.full(n, np.inf)
    frontier = np.array([graph.vocab.index(source)])
    hops = 0.0
    while frontier.size:
        dist[frontier] = hops
        if hops == max_hops:
            break
        hops += 1.0
        # gather only the frontier's CSR rows, so a level costs its own edges, not nnz
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        entries = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
        reached = np.zeros(n, dtype=bool)
        reached[graph.indices[entries]] = True
        frontier = np.flatnonzero(reached & np.isinf(dist))
    return dist


def deg_coverage(
    graph: KnowledgeGraph,
    pert_gene: str,
    deg_set: Iterable[str],
    max_hops: int,
) -> list[float]:
    """Fraction of the DEG set within h hops of the perturbed gene, h = 1..max_hops."""
    genes = list(deg_set)
    if not genes:
        raise UsageError("deg_set must be nonempty")
    check_range("max_hops", max_hops, 1)
    dist = hop_distances(graph, pert_gene, max_hops)
    dvals = dist[graph.vocab.indices(genes)]
    return [float(np.mean(dvals <= h)) for h in range(1, max_hops + 1)]
