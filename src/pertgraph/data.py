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
import io
import os
import pickle
import signal
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import stdtr, stdtrit

from .errors import DataError, ParseError, UsageError, check_range, first_repeat, input_errors, write_csv
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


LOAD_CHUNK_ROWS = 256  # data lines parsed per _parse_numeric_lines call; bounds the line text held at once
LOAD_RANGE_BYTES = 8 << 20  # least bytes of data lines one process parses; a smaller file is read in one


def load_expression(path) -> PerturbationDataset:
    """Read `sample_id,perturbation,<genes...>` CSV; rows labeled `control` form the control block."""
    genes, lead, values = _read_numeric_csv(path, ("sample_id", "perturbation"))
    rows_by_label: dict[str, list[int]] = {}
    for i, (_, label) in enumerate(lead):
        rows_by_label.setdefault(label, []).append(i)
    if CONTROL_LABEL not in rows_by_label:
        raise DataError("no control rows in expression file")
    values.flags.writeable = False  # a label whose rows run together gets a view of them, not a copy
    blocks = {
        label: values[rows[0] : rows[-1] + 1] if rows[-1] - rows[0] == len(rows) - 1 else values[rows]
        for label, rows in rows_by_label.items()
    }
    control = blocks.pop(CONTROL_LABEL)
    return PerturbationDataset(GeneVocab(genes), control, blocks)


def _read_numeric_csv(path, labels: tuple[str, ...]) -> tuple[list[str], list[list[str]], np.ndarray]:
    """Read a CSV whose header starts with the `labels` columns, then names the
    numeric columns; return those names, each data line's label fields and a
    float64 array of its numbers, one row per data line.

    A file with enough data for more than one range (`_range_cuts`) is cut
    into line-aligned byte ranges, one `_RangeWorker` each: a forked worker
    parses each range but the first, all at once, while this process parses
    the first, and each worker's rows are read from its pipe straight into
    the result. Lines are split as text mode with newline="" splits them, and
    parsed as `_parse_range` says; the error raised is that of the first bad
    line in the file, with its line number, whatever the ranges. Once every
    range is read, a value of the first label column listed twice is a
    DataError naming the first such value and its first two rows' lines,
    which the parse recorded.
    """
    k = len(labels)
    with input_errors(path), open(path, "rb") as fh:
        head = fh.readline()
        if not head:
            raise ParseError("empty file", 1)
        header_line = next(_lines([head]))  # data lines may follow it in `head`, after a lone \r
        header = next(csv.reader([header_line.decode("utf-8")]))
        if len(header) <= k or tuple(header[:k]) != labels:
            raise ParseError(f"header must start with {','.join(labels)},<columns>", 1)
        names = header[k:]
        if len(set(names)) != len(names):
            raise ParseError("duplicate column in header", 1)
        cuts = _range_cuts(fh.fileno(), len(head))
        workers: list[_RangeWorker] = []
        try:
            for start, end in zip([len(header_line), *cuts], [*cuts, None]):
                workers.append(_RangeWorker(path, start, end, k, len(header), fork=bool(workers)))
            lead, linenos, first = [], [], 2
            for worker in workers:  # in file order, so the first bad line wins
                got_lead, got_linenos, n_lines = worker.receive_head(first)
                lead += got_lead
                linenos += got_linenos
                first += n_lines
            values = np.empty((len(lead), len(names)))
            rows = 0
            for worker in workers:
                rows = worker.receive_rows(values, rows)
        finally:
            for worker in workers:
                worker.reap()
    keys = [row[0] for row in lead]
    if (twice := first_repeat(keys)) is not None:
        at = keys.index(twice)
        raise DataError(f"{path}: {labels[0]} {twice!r} is listed twice, on lines {linenos[at]} and {linenos[keys.index(twice, at + 1)]}")
    return names, lead, values


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0))


SPLIT_STEP_VALUES = 1 << 15  # least values each numpy call of a step touches, for a loop to use a second core
JOINED_THREAD_WAIT_S = 0.02  # longest a read waits for a joined thread's OS thread to exit before it forks


def in_halves(run: Callable[[int, int], object], n: int, step_values: int) -> tuple:
    """`(run(0, n // 2), run(n // 2, n))`: the two fixed halves of a loop of
    n steps. Where this process has two cores and each step's numpy calls
    touch at least SPLIT_STEP_VALUES values, the second half runs on one
    helper thread while the caller runs the first; smaller calls would spend
    the time passing the GIL back and forth. The halves are the same either
    way, so no result depends on where they ran. The helper is joined before
    this returns or raises; the caller's own exception wins, and otherwise
    the helper's is raised here, as the one-thread order would."""
    h = n // 2
    if n < 2 or step_values < SPLIT_STEP_VALUES or _cores() < 2:
        return run(0, h), run(h, n)
    second: list = []
    error: list[BaseException] = []

    def run_second() -> None:
        try:
            second.append(run(h, n))
        except BaseException as exc:
            error.append(exc)

    helper = threading.Thread(target=run_second, name="pertgraph-half")
    helper.start()
    try:
        first = run(0, h)
    finally:
        helper.join()
    if error:
        raise error[0]
    return first, second[0]


def _range_cuts(fd: int, start: int) -> list[int]:
    """Byte offsets that cut the data lines of the file `fd`, which start at
    byte `start`, into ranges: one range per usable core, none smaller than
    LOAD_RANGE_BYTES, each offset just after a \\n (a range starts a line
    however the file ends its lines). No cuts unless /proc/self/task lists one
    thread, the caller: a forked copy of a process that runs other threads,
    Python's or a native pool's, could find their locks held. A thread that
    `threading` has joined stays listed while its OS thread exits (some
    20 us, at most 0.3 ms in 3,000 tries on a 2-core machine), so where
    `threading` runs no thread but the caller, the list is read again for
    up to JOINED_THREAD_WAIT_S; a native pool's threads outlast the wait."""
    task = "/proc/self/task"
    if not os.path.isdir(task):
        return []
    deadline = time.monotonic() + JOINED_THREAD_WAIT_S
    while len(os.listdir(task)) != 1:
        if threading.active_count() > 1 or time.monotonic() > deadline:
            return []
        os.sched_yield()
    size = os.fstat(fd).st_size
    n = min(_cores(), (size - start) // LOAD_RANGE_BYTES)
    cuts: list[int] = []
    for i in range(1, n):
        least = (cuts[-1] if cuts else start) + LOAD_RANGE_BYTES
        cut = _line_end(fd, max(start + (size - start) * i // n, least))
        if cut is None or size - cut < LOAD_RANGE_BYTES:
            break
        cuts.append(cut)
    return cuts


def _line_end(fd: int, pos: int) -> int | None:
    """The offset just after the first \\n at or after byte `pos` of the file `fd`, or None."""
    while block := os.pread(fd, 1 << 16, pos):
        if (i := block.find(b"\n")) >= 0:
            return pos + i + 1
        pos += len(block)
    return None


def _lines(raw_lines: Iterable[bytes], size: int | None = None) -> Iterator[bytes]:
    """The lines in `raw_lines`, binary lines that each end at a \\n, with their
    line ends: like text mode with newline="", a line ends at \\n, \\r\\n or a
    lone \\r, so only a binary line with a \\r before its last byte, other than
    that of a closing \\r\\n, is split. With `size`, stop after the binary line that reaches `size` bytes."""
    for raw in raw_lines:
        yield from raw.splitlines(keepends=True) if raw.find(b"\r", 0, len(raw) - 1 - raw.endswith(b"\r\n")) >= 0 else (raw,)
        if size is not None:
            size -= len(raw)
            if size <= 0:
                return


def _parse_range(lines: Iterable[bytes], first: int, k: int, n_fields: int) -> tuple[list[list[str]], list[np.ndarray], list[int], int]:
    """Parse data lines, numbered from `first`, of `n_fields` fields each, the
    first `k` of them labels; return each line's label fields, float64 blocks
    of its numbers, each such line's number and the number of lines read.

    Numbers are parsed by `_parse_numeric_lines`, LOAD_CHUNK_ROWS lines at a
    time, so no Python float or per-cell list is made. A line that holds a
    double quote is split by the csv module, so quoted labels work (a quoted
    field may not span lines). Blank lines are skipped. A line that does not
    decode as UTF-8, or that is malformed, raises UnicodeDecodeError or
    ParseError and a NaN or inf a DataError; the error raised is that of the
    first bad line, whatever the chunks.
    """
    lead: list[list[str]] = []
    chunks: list[np.ndarray] = []
    texts: list[str] = []
    linenos: list[int] = []
    quoted: list[bool] = []
    bad = None
    lineno = first - 1
    for lineno, raw in enumerate(lines, start=first):
        try:
            line = raw.decode("utf-8").rstrip("\r\n")
            if not line:
                continue
            quote = '"' in line
            row = next(csv.reader([line])) if quote else line.split(",", k)
            # an unquoted line's commas among its numbers are counted only if its chunk fails
            if len(row) <= k or quote and len(row) != n_fields:
                raise ParseError(f"expected {n_fields} fields, got {len(row)}", lineno)
        except (UnicodeDecodeError, ParseError) as exc:
            bad = exc  # raised once the lines before it are parsed
            break
        lead.append(row[:k])
        texts.append(",".join(row[k:]) if quote else row[-1])
        linenos.append(lineno)
        quoted.append(quote)
        if len(texts) == LOAD_CHUNK_ROWS:
            chunks.append(_parse_numeric_lines(texts, linenos[-len(texts) :], quoted, k, n_fields - k))
            texts, quoted = [], []
    if texts:
        chunks.append(_parse_numeric_lines(texts, linenos[-len(texts) :], quoted, k, n_fields - k))
    if bad is not None:
        raise bad
    return lead, chunks, linenos, lineno - first + 1


def _parse_numeric_lines(texts: list[str], linenos: list[int], quoted: list[bool], k: int, n_values: int) -> np.ndarray:
    """Parse comma-separated numbers into one float64 row per text.

    The texts are read together by `_read_plain_numbers` where it can prove
    that it gives np.loadtxt's bits. Otherwise each text is read by
    np.loadtxt alone and checked in turn: the field count of its line (`k`
    labels, then its commas; a quoted line's was checked on reading), its
    numbers, then their finiteness. numpy's parser is stricter than
    `float()`: `1_0` and non-ASCII digits are errors. A malformed text is a
    ParseError naming its line, and a NaN or inf a DataError naming it.
    """
    values = _read_plain_numbers(texts, n_values)
    if values is not None and np.isfinite(values).all():
        return values
    values = np.empty((len(texts), n_values))
    for i, (text, lineno, was_quoted) in enumerate(zip(texts, linenos, quoted)):
        if not was_quoted and text.count(",") != n_values - 1:
            raise ParseError(f"expected {k + n_values} fields, got {k + 1 + text.count(',')}", lineno)
        try:
            row = np.loadtxt([text], delimiter=",", comments=None) if text else np.empty(0)
        except ValueError as exc:
            raise ParseError(str(exc).split(" at row ")[0], lineno) from None
        if row.size != n_values:  # an empty cell, or a quoted cell holding a comma
            raise ParseError(f"expected {n_values} numeric fields, got {row.size}", lineno)
        if not np.isfinite(row).all():
            raise DataError("non-finite value", lineno)
        values[i] = row
    return values


def _read_plain_numbers(texts: list[str], n_values: int) -> np.ndarray | None:
    """The texts' numbers, `n_values` a text, read by scipy's Matrix Market
    reader (fast_float, which rounds correctly, as np.loadtxt does); None
    unless that is proven to be np.loadtxt's result, bit for bit.

    Each number goes on a line of its own as the real part of a complex entry
    whose imaginary part is the sentinel `nan`. The reader takes the longest
    number at the start of a line and skips what follows the imaginary part,
    so text after a field's number becomes that imaginary part. The texts
    must hold only the ASCII bytes `0-9 . e E + - ,`, no empty field and
    `n_values - 1` commas each, so such leftover text starts with `.`, `e`,
    `E`, `+` or `-`: it fails to parse, or reads as a number, never as NaN.
    The reader reads `-0` as +0.0, so a field that starts with `-` must read
    with its sign bit set.
    """
    data = ",".join(texts).encode()
    if data.translate(None, b"0123456789.eE+-,"):
        return None
    chars = np.frombuffer(data, np.uint8)
    commas = np.flatnonzero(chars == ord(","))
    joins = np.cumsum([len(text) + 1 for text in texts[:-1]]) - 1  # the commas between texts
    if (
        commas.size != len(texts) * n_values - 1
        or not (commas[n_values - 1 :: n_values] == joins).all()  # so each text has n_values - 1 commas
        or not (np.diff(commas, prepend=-1, append=len(data)) > 1).all()  # no field is empty
    ):
        return None
    import scipy.io  # here, not at the top: a run that reads no file pays none of its import

    head = f"%%MatrixMarket matrix array complex general\n{n_values} {len(texts)}\n".encode("ascii")
    try:
        entries = scipy.io.mmread(io.BytesIO((head + data + b",").replace(b",", b" nan\n")))
    except ValueError:
        return None
    if not np.isnan(entries.imag).all():
        return None
    values = np.ascontiguousarray(entries.real.T)
    signed = chars[np.append(0, commas + 1)] == ord("-")  # the fields that start with `-`, in row order
    return values if np.signbit(values.reshape(-1)[signed]).all() else None


class _RangeWorker:
    """The data lines in bytes [start, end) of a CSV (end None: to the end of
    the file). With `fork`, a forked process parses them and sends back
    through a pipe a pickle of their label fields, their lines' numbers
    (counted from 1 at the range's first line) and the range's line count,
    then the rows' float64 bytes; whatever goes wrong, it sends nothing more.
    A range with no result from a worker (none was forked, or the worker
    died or met a bad line) is parsed here, in file order, which raises the
    first bad line's error with its line number in the file."""

    def __init__(self, path, start: int, end: int | None, k: int, n_fields: int, fork: bool):
        self.path, self.start, self.end, self.k, self.n_fields = path, start, end, k, n_fields
        self.first = 1  # the file's line number of the range's first line, once known
        self.chunks: list[np.ndarray] | None = None  # the range's rows when parsed here
        read, write = os.pipe()
        try:
            self.pid = os.fork() if fork else None
        except OSError:  # no worker: its pipe ends at once, so its range is parsed here
            self.pid = None
        if self.pid == 0:  # the worker: it never returns
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    self._send(pipe)
            finally:
                os._exit(0)
        os.close(write)  # only the worker holds it, so a dead worker's pipe ends
        self.pipe = open(read, "rb")

    def _parse(self):
        with open(self.path, "rb") as fh:
            fh.seek(self.start)
            return _parse_range(_lines(fh, None if self.end is None else self.end - self.start), self.first, self.k, self.n_fields)

    def _send(self, pipe) -> None:
        lead, chunks, linenos, n_lines = self._parse()
        pickle.dump((lead, linenos, n_lines), pipe)
        for chunk in chunks:
            pipe.write(chunk)

    def receive_head(self, first: int) -> tuple[list[list[str]], list[int], int]:
        """The range's label fields, their lines' numbers in the file and the
        range's line count; `first` is the file's line number of its first line."""
        self.first = first
        try:
            lead, linenos, n_lines = pickle.load(self.pipe)
            linenos = [lineno + first - 1 for lineno in linenos]
        except (EOFError, pickle.UnpicklingError):  # no worker, or it died or met a bad line
            lead, self.chunks, linenos, n_lines = self._parse()
        self.n_rows = len(lead)
        return lead, linenos, n_lines

    def receive_rows(self, values: np.ndarray, row: int) -> int:
        """Put the range's rows into `values` from `row` on; return the row after them."""
        rows = values[row : row + self.n_rows]
        if self.chunks is None:
            out = memoryview(rows).cast("B")
            while out and (n := self.pipe.readinto(out)):
                out = out[n:]
            if not out:
                return row + self.n_rows
            self.chunks = self._parse()[1]  # the worker died sending its rows
        chunks, self.chunks = self.chunks, []  # freed before the next range's rows arrive
        if chunks:
            np.concatenate(chunks, out=rows)
        return row + self.n_rows

    def reap(self) -> None:
        """Stop the worker, whose result is read or no longer wanted, and wait for it."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


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
    """The block's statistics per column, bit for bit those of `mean(axis=0)` and
    `var(axis=0, ddof=1)`: the same sums and divisions, with the mean summed once."""
    a = np.asarray(block, dtype=np.float64)
    n = a.shape[0]
    if n < 2:
        raise UsageError("need at least 2 samples per group")
    mean = a.sum(axis=0) / n
    dev = a - mean
    np.multiply(dev, dev, out=dev)
    return GroupStats(n, mean, dev.sum(axis=0) / (n - 1), a.max(axis=0), a.min(axis=0))


def _welch_t(a: GroupStats, b: GroupStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gene Welch t of b against a, its Welch-Satterthwaite df, and the
    degenerate columns, constant in both groups, where neither means anything.
    b may hold a (P, G) stack of blocks' statistics, n a (P, 1) column, or
    columns gathered from many blocks, n an array with a count per column.

    Where the df's squares under- or overflow (variances near 1e-170 or
    1e170), it is taken again from ta and tb scaled by their maximum, which
    leaves it unchanged in exact arithmetic; every other df is as computed."""
    # a column constant in both groups has zero pooled variance; detect it from
    # the data, not from the float variance (the mean of n identical values rounds)
    degenerate = (a.max == a.min) & (b.max == b.min)
    ta, tb = a.var / a.n, b.var / b.n
    se2 = np.where(degenerate, 1.0, ta + tb)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (b.mean - a.mean) / np.sqrt(se2)  # a variance that underflows to 0 gives a NaN p-value
        df = se2**2 / (ta**2 / (a.n - 1) + tb**2 / (b.n - 1))
        redo = ~np.isfinite(df) & ~degenerate
        if redo.any():
            top = np.maximum(ta, tb)
            ra, rb = ta / top, tb / top
            df = np.where(redo, (ra + rb) ** 2 / (ra**2 / (a.n - 1) + rb**2 / (b.n - 1)), df)
    return t, df, degenerate


def welch_pvalues(control: np.ndarray | GroupStats, pert_block: np.ndarray | GroupStats) -> np.ndarray:
    """Two-sided Welch t-test per gene column (unequal variances).

    Either side is a sample block or its `group_stats`. Statistics may be
    columns gathered from many blocks, with n an array of each column's
    sample count: each p-value is bit for bit the one its blocks give whole.
    Degenerate columns where both groups have zero variance give p = 1 when
    the means agree and p = 0 when they differ.
    """
    a, b = (s if isinstance(s, GroupStats) else group_stats(s) for s in (control, pert_block))
    t, df, degenerate = _welch_t(a, b)
    p = 2.0 * stdtr(df, -np.abs(t))
    return np.where(degenerate, np.where(a.max == b.max, 1.0, 0.0), p)


def shifted_pvalues(control_block: np.ndarray, control: GroupStats, deltas: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The p-values of `welch_pvalues(control_block, control_block + deltas[i])`
    at the flat positions `at` of the (P, G) `deltas`, in their order, bit for
    bit; `control` is `group_stats(control_block)`.

    The positions are tested G at a time, one `welch_pvalues` call each, on
    `np.take(control_block, cols, axis=1) + deltas[rows, cols]`. numpy sums
    each column of such a piece row by row, as it sums a whole block of more
    than one column, but a lone column pairwise, so a piece of width 1 from a
    wider block is taken twice; a one-column block is summed pairwise whole,
    as its pieces are. When every position is open, each piece is one
    prediction's whole shifted block.
    """
    g = deltas.shape[1]
    out = [np.empty(0)]
    for lo in range(0, at.size, g):
        rows, cols = np.divmod(at[lo : lo + g], g)
        width = cols.size
        if width == 1 < g:
            rows, cols = np.repeat(rows, 2), np.repeat(cols, 2)
        piece = np.take(control_block, cols, axis=1) + deltas[rows, cols]
        out.append(welch_pvalues(GroupStats(control.n, *(x[cols] for x in control[1:])), piece)[:width])
    return np.concatenate(out)


TAIL_RTOL = 1e-9  # relative error allowed for stdtr's tail probabilities (they reach 3e-14)


def t_thresholds(df_low: float, df_high: float, alpha: float) -> tuple[float, float]:
    """(t_lo, t_hi): for any df in [df_low, df_high], a Welch |t| below t_lo
    gives p >= alpha and one above t_hi gives p < alpha, since the p-value of
    a |t| falls as df rises. t_lo comes from stdtrit at df_high and t_hi at
    df_low, each a relative TAIL_RTOL in tail probability to its side of
    alpha/2, and stdtr, as the test uses it, confirms each within half that
    margin (the round trip moves a tail by about 1e-15, and stdtr errs by
    3e-14 at most); one it does not (far or near-1/2 tails) becomes
    infinite, and so do both for a subnormal tail, where the TAIL_RTOL
    margin rounds away."""
    q_lo, q_hi = alpha / 2 * (1 + TAIL_RTOL), alpha / 2 * (1 - TAIL_RTOL)
    if q_hi < np.finfo(np.float64).tiny:
        return -np.inf, np.inf
    t_lo, t_hi = -stdtrit(df_high, q_lo), -stdtrit(df_low, q_hi)
    lo_ok = stdtr(df_high, -t_lo) >= alpha / 2 * (1 + TAIL_RTOL / 2)
    hi_ok = stdtr(df_low, -t_hi) <= alpha / 2 * (1 - TAIL_RTOL / 2)
    return (t_lo if lo_ok else -np.inf), (t_hi if hi_ok else np.inf)


def bh_adjust(pvalues: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values (monotone step-up) of each row on its own."""
    p = np.asarray(pvalues, dtype=np.float64)
    n = p.shape[-1]
    order = np.argsort(p, axis=-1, kind="stable")
    ranked = np.take_along_axis(p, order, -1) * n / np.arange(1, n + 1)
    adjusted = np.fmin.accumulate(ranked[..., ::-1], axis=-1)[..., ::-1]  # a NaN p-value stays NaN and bounds no other
    out = np.empty(p.shape)
    np.put_along_axis(out, order, np.minimum(adjusted, 1.0), -1)
    return out


def deg_rule(alpha: float, correction: str) -> Callable[[np.ndarray], np.ndarray]:
    """p-values -> DEG mask, its settings checked before any test runs: a gene is a
    DEG when its p-value, BH-adjusted row by row under "benjamini-hochberg", is strictly below alpha."""
    if correction not in ("none", "benjamini-hochberg"):
        raise UsageError(f"unknown correction {correction!r}")
    check_range("alpha", alpha, 0, 1, low_open=True, high_open=False)
    adjust = bh_adjust if correction == "benjamini-hochberg" else np.asarray
    return lambda p: adjust(p) < alpha


@dataclass
class DegTable:
    """Per-perturbation DEG masks and signed pseudobulk deltas, plus the
    p-values, which are filled only under "benjamini-hochberg": under "none"
    the masks are decided without most of them."""

    alpha: float
    correction: str            # "none" | "benjamini-hochberg"
    genes: list[str]
    pvalues: dict[str, np.ndarray] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)    # bool per gene
    deltas: dict[str, np.ndarray] = field(default_factory=dict)

    def pert_names(self) -> list[str]:
        return sorted(self.masks)

    def deg_mask(self, pert: str) -> np.ndarray:
        return self.masks[pert]

    def non_deg_mask(self, pert: str) -> np.ndarray:
        return ~self.masks[pert]

    def deg_indices(self, pert: str) -> np.ndarray:
        return np.flatnonzero(self.masks[pert])

    def deg_fraction(self, pert: str) -> float:
        return float(self.masks[pert].sum()) / len(self.genes)


ROW_CHUNK_VALUES = 1 << 16  # values per (rows, genes) temporary of a stacked kernel; bounds its memory


def row_chunks(n_rows: int, n_genes: int) -> list[slice]:
    """Consecutive slices of `n_rows` rows, each of at most ROW_CHUNK_VALUES
    values (one row at least) over `n_genes` columns."""
    step = max(1, ROW_CHUNK_VALUES // max(n_genes, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _column(values: list) -> float | np.ndarray:
    """Per-row values as a (rows, 1) float64 column, or as one scalar where
    they are all equal: numpy broadcasts a scalar faster than a column."""
    return values[0] if len(set(values)) == 1 else np.array(values, dtype=np.float64)[:, None]


def compute_degs(
    dataset: PerturbationDataset,
    alpha: float = 0.05,
    correction: str = "none",
    perturbations: list[str] | None = None,
    control_stats: GroupStats | None = None,
) -> DegTable:
    """Welch-test every gene of every (requested) perturbation against control.

    Masks threshold the (optionally BH-adjusted) p-values strictly below alpha;
    deltas are pseudobulk differences against the control mean.
    `control_stats`, when given, is `group_stats(dataset.control)`, computed
    once by a caller that needs it too.

    Under correction "none" most genes are decided from their Welch t alone:
    the df of a block of n_b samples against n_a lies in [min(n_a, n_b) - 1,
    n_a + n_b - 2], so a gene with its df in that bracket is a DEG when |t|
    is above `t_thresholds`' t_hi and is not one when |t| is below t_lo.
    The t, df and decisions of the blocks are taken on their stacked
    statistics, `row_chunks` rows at a time, with one `t_thresholds` call per
    distinct block size. The rest (|t| between the two, a df outside the
    bracket or NaN, a degenerate column) take the test itself; under
    "benjamini-hochberg" every gene does. A chunk's open (block, gene)
    positions take one `welch_pvalues` call on the statistics already taken,
    the blocks' and the control's gathered at those positions, so no sample
    is read again; a chunk with no open position makes none.
    """
    is_deg = deg_rule(alpha, correction)
    names = dataset.pert_names() if perturbations is None else sorted(perturbations)
    table = DegTable(alpha=alpha, correction=correction, genes=list(dataset.vocab.names))
    control = group_stats(dataset.control) if control_stats is None else control_stats
    thresholds: dict[int, tuple[float, float]] = {}  # block size -> (t_lo, t_hi)

    for rows in row_chunks(len(names), dataset.n_genes):
        chunk = names[rows]
        stats = [group_stats(dataset.block(name)) for name in chunk]
        ns = [s.n for s in stats]
        b = GroupStats(_column(ns), *map(np.array, list(zip(*stats))[1:]))
        if correction == "none":
            t, df, degenerate = _welch_t(control, b)
            t = np.abs(t)
            for n in set(ns) - thresholds.keys():
                thresholds[n] = t_thresholds(min(control.n, n) - 1, control.n + n - 2, alpha)
            t_lo, t_hi = (_column([thresholds[n][i] for n in ns]) for i in (0, 1))
            known = ~degenerate & (df >= np.minimum(control.n, b.n) - 1) & (df <= control.n + b.n - 2)
            masks = known & (t > t_hi)
            retest = ~(masks | known & (t < t_lo))
        else:
            masks = retest = np.ones(b.mean.shape, dtype=bool)
        at = np.flatnonzero(retest)
        if at.size:
            block_of, cols = np.divmod(at, dataset.n_genes)
            gathered = GroupStats(np.take(ns, block_of), *(np.take(x, at) for x in b[1:]))
            p = welch_pvalues(GroupStats(control.n, *(x[cols] for x in control[1:])), gathered)
            if correction == "none":
                masks[retest] = is_deg(p)
            else:  # every position is open
                table.pvalues.update(zip(chunk, p.reshape(masks.shape)))
                masks = is_deg(p.reshape(masks.shape))
        table.masks.update(zip(chunk, masks))
        table.deltas.update(zip(chunk, b.mean - control.mean))
    return table


STRATA = ("small", "medium", "large")


def effect_size_strata(table: DegTable) -> dict[str, str]:
    """Classify each perturbation by its DEG fraction: <5% small, 5-10% medium, >10% large."""
    fractions = {name: table.deg_fraction(name) for name in table.pert_names()}
    return {name: STRATA[(frac >= 0.05) + (frac > 0.10)] for name, frac in fractions.items()}


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
        if self.n_perturbations > self.n_genes:  # each perturbation targets a gene of its own
            raise UsageError(f"n_perturbations must be <= n_genes = {self.n_genes}, got {self.n_perturbations}")
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
            if self.n_modules > self.n_genes // 4:  # modules of 4 genes at least
                raise UsageError(f"n_modules must be <= n_genes // 4 = {self.n_genes // 4} (n_genes = {self.n_genes}), got {self.n_modules}")


@dataclass
class SynthData:
    dataset: PerturbationDataset
    truth_degs: dict[str, list[str]]      # planted DEG gene names per perturbation
    graph: KnowledgeGraph
    embeddings: SemanticEmbeddings
    effects: dict[str, np.ndarray]        # planted signed deltas per perturbation
    strata: dict[str, str]                # planted stratum per perturbation


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Each row of `m` over its norm, bit for bit `row / np.linalg.norm(row)`:
    a stacked (1, d) @ (d, 1) matmul takes each row's dot product as `norm` does."""
    return m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]


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
    giving perturbations with shared response genes similar vectors; each
    gene's and each module's `hash_embedding` is taken once.

    The data is byte for byte a function of the config and of the draws
    from `default_rng(seed)`, so their order is the contract:
    1. the member permutation;
    2. each module's program permutation;
    3. per module, its signs, then its magnitudes;
    4. the perturbed genes, one bounded integer per perturbation;
    5. the baseline;
    6. the control noise;
    7. per perturbation, the fill choice of one whose set outgrows its
       module, then its noise;
    8. the backbone weights;
    9. per module, the cross link's two genes, one in it and one in the
       next module, then its weight;
    10. the perturbation-edge weights.
    Scalar draws of one kind that follow each other (4, 8 and 10) are one
    sized draw, which numpy's Generator fills value by value as it would
    the scalar draws.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n, p_count, cells, sigma = config.n_genes, config.n_perturbations, config.cells_per_condition, config.noise_sigma
    names = [f"G{i:04d}" for i in range(n)]
    vocab = GeneVocab(names)

    max_count = max(2, round(max(config.deg_fracs) * n))
    n_modules = config.n_modules or max(2, min(p_count, n // (2 * max_count)))  # at most n // 4
    member_order = rng.permutation(n)
    modules = np.array_split(member_order, n_modules)  # the first modules are the larger ones
    sizes = np.array([len(members) for members in modules])
    module_of = np.empty(n, dtype=np.int64)
    module_of[member_order] = np.repeat(np.arange(n_modules), sizes)
    # response program per module: a fixed gene order and signed magnitudes
    programs = [rng.permutation(members) for members in modules]
    response = np.zeros(n)
    for members in modules:
        signs = rng.choice([-1.0, 1.0], size=len(members))
        mags = config.effect_magnitude * rng.uniform(0.8, 1.2, size=len(members))
        response[members] = signs * mags

    # perturbation genes round-robin over modules, each drawn from its module's
    # unused members: perturbation i's pool holds sizes[m] - i // n_modules of
    # them, which p_count <= n_genes keeps nonempty
    turn = np.arange(p_count)
    picks = rng.integers(0, sizes[turn % n_modules] - turn // n_modules)
    pools = [members.tolist() for members in modules]
    pert_genes = [pools[i % n_modules].pop(k) for i, k in enumerate(picks.tolist())]
    perts = [names[g] for g in pert_genes]

    baseline = rng.uniform(0.5, 3.0, size=n)
    control = np.maximum(baseline + rng.normal(0.0, sigma, size=(cells, n)), 0.0)
    counts = [max(1, round(frac * n)) for frac in config.deg_fracs]
    deg_sets: list[np.ndarray] = []
    effects: dict[str, np.ndarray] = {}
    blocks: dict[str, np.ndarray] = {}
    for i, (g, pname) in enumerate(zip(pert_genes, perts)):
        program = programs[module_of[g]]
        chosen = program[program != g][: counts[i % 3] - 1]
        if chosen.size + 1 < counts[i % 3]:  # module exhausted: fill from the rest of the genome
            rest = np.delete(np.arange(n), np.append(chosen, g))
            chosen = np.append(chosen, rng.choice(rest, size=counts[i % 3] - 1 - chosen.size, replace=False))
        deg_sets.append(np.sort(np.append(chosen, g)))
        effect = effects[pname] = np.zeros(n)
        effect[deg_sets[-1]] = response[deg_sets[-1]]
        effect[g] = -config.effect_magnitude  # knockdown suppresses the target itself
        blocks[pname] = np.maximum(baseline + effect + rng.normal(0.0, sigma, size=(cells, n)), 0.0)

    # graph: module chain backbones and weak cross links for connectivity, plus
    # direct edges from each perturbed gene to its planted DEG genes so that
    # true responders lie in the perturbation's immediate neighborhood
    chains = [np.concatenate([members[:-1] for members in modules]), np.concatenate([members[1:] for members in modules])]
    edges = [np.column_stack([*chains, rng.uniform(0.4, 0.7, size=n - n_modules)])]
    for m in range(n_modules):  # two distinct modules (n_modules >= 2), so never a self-loop
        a, b = rng.choice(modules[m]), rng.choice(modules[(m + 1) % n_modules])
        edges.append(np.array([[a, b, rng.uniform(0.05, 0.3)]]))
    targets = [genes[genes != g] for g, genes in zip(pert_genes, deg_sets)]
    sources = np.repeat(pert_genes, [t.size for t in targets])
    edges.append(np.column_stack([sources, np.concatenate(targets), rng.uniform(0.7, 1.0, size=sources.size)]))
    graph = KnowledgeGraph.from_edges(vocab, np.concatenate(edges))

    # semantic vectors: every gene mixes its module flavor with its own hash;
    # perturbation genes lean on the mean hash of their planted DEG set, so
    # perturbations with shared response genes get similar embeddings (the
    # planted analog of functionally related gene descriptions)
    gene_part = np.array([hash_embedding(name, config.embed_dim) for name in names])
    mod_part = np.array([hash_embedding(f"module-{m}", config.embed_dim) for m in range(n_modules)])[module_of]
    vectors = dict(zip(names, _unit_rows(0.8 * mod_part + 0.2 * gene_part)))
    set_part = _unit_rows(np.array([gene_part[genes].sum(axis=0) for genes in deg_sets]))
    vectors.update(zip(perts, _unit_rows(0.6 * set_part + 0.4 * mod_part[pert_genes])))

    gene_names = np.array(names)
    return SynthData(
        dataset=PerturbationDataset(vocab, control, blocks),
        truth_degs={pname: gene_names[genes].tolist() for pname, genes in zip(perts, deg_sets)},
        graph=graph,
        embeddings=SemanticEmbeddings(dim=config.embed_dim, vectors=vectors),
        effects=effects,
        strata={pname: STRATA[i % 3] for i, pname in enumerate(perts)},
    )
