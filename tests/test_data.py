import io
import itertools
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

from pertgraph import data
from pertgraph.data import (
    LOAD_CHUNK_ROWS,
    DegTable,
    GroupStats,
    PerturbationDataset,
    SemanticEmbeddings,
    SynthConfig,
    bh_adjust,
    compute_degs,
    deg_rule,
    effect_size_strata,
    group_stats,
    hash_embedding,
    load_embeddings,
    load_expression,
    save_embeddings,
    save_expression,
    split_by_perturbation,
    synth_generate,
    t_thresholds,
    welch_pvalues,
)
from pertgraph.errors import DataError, ParseError, UsageError
from pertgraph.graph import GeneVocab
from pertgraph.metrics import evaluate_predictions, predicted_deg_set

from conftest import counting_welch, two_threads


def tiny_dataset(n_genes=4, perts=("PA", "PB"), seed=0):
    rng = np.random.default_rng(seed)
    vocab = GeneVocab([f"G{i}" for i in range(n_genes)])
    control = rng.uniform(0.1, 2.0, size=(5, n_genes))
    blocks = {p: rng.uniform(0.1, 2.0, size=(3, n_genes)) for p in perts}
    return PerturbationDataset(vocab, control, blocks)


# --- loading / saving -----------------------------------------------------------


def test_load_expression_groups_rows(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text(
        "sample_id,perturbation,G0,G1\n"
        "s1,control,1.0,2.0\n"
        "s2,control,3.0,0.0\n"
        "s3,control,1.0,1.0\n"
        "s4,GENE_A,0.5,0.5\n"
        "s5,GENE_A,0.7,0.1\n"
    )
    ds = load_expression(p)
    assert ds.control.shape == (3, 2)
    assert ds.block("GENE_A").shape == (2, 2)
    assert ds.pert_names() == ["GENE_A"]


def test_load_expression_duplicate_gene_column(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text("sample_id,perturbation,G0,G0\ns1,control,1,2\n")
    with pytest.raises(ParseError):
        load_expression(p)


def test_load_expression_repeated_sample_id_names_both_lines(tmp_path):
    # a quoted id holding a comma, a blank line and a line ending in a lone CR:
    # the lines are counted as the reader counts them
    path = tmp_path / "expr.csv"
    path.write_bytes(b'sample_id,perturbation,A,B\r\n"s,1",control,1,2\r\n\r\ns2,control,1,2\r"s,1",P,1,2\ns3,P,2,3\n')
    with pytest.raises(DataError) as info:
        load_expression(path)
    assert str(info.value) == f"{path}: sample_id 's,1' is listed twice, on lines 2 and 5"


def test_load_expression_ragged_row(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text("sample_id,perturbation,G0,G1\ns1,control,1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_expression(p)


def test_load_expression_missing_control(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text("sample_id,perturbation,G0,G1\ns1,PA,1.0,2.0\ns2,PA,1.0,2.0\n")
    with pytest.raises(DataError):
        load_expression(p)


def test_expression_round_trip_bit_exact(tmp_path):
    # the second dataset has 600 rows, more than two parse chunks, and values
    # across many magnitudes, zeros and subnormals included
    rng = np.random.default_rng(1)
    spread = rng.uniform(0.0, 1.0, size=(600, 7)) * 10.0 ** rng.integers(-320, 300, size=(600, 7))
    spread[::5, 0] = 0.0
    blocks = {f"P{i}": spread[200 + 50 * i : 250 + 50 * i] for i in range(8)}
    wide = PerturbationDataset(GeneVocab([f"G{i}" for i in range(7)]), spread[:200], blocks)
    for ds in (tiny_dataset(seed=42), wide):
        path = tmp_path / "expr.csv"
        save_expression(ds, path)
        ds2 = load_expression(path)
        assert ds2.vocab.names == ds.vocab.names
        assert ds2.control.tobytes() == ds.control.tobytes() and ds2.control.flags.c_contiguous
        assert ds2.pert_names() == ds.pert_names()
        for name in ds.pert_names():
            assert ds2.block(name).tobytes() == ds.block(name).tobytes() and ds2.block(name).flags.c_contiguous
        save_expression(ds2, tmp_path / "expr2.csv")
        assert (tmp_path / "expr.csv").read_bytes() == (tmp_path / "expr2.csv").read_bytes()


def test_load_expression_keeps_file_order_within_labels(tmp_path):
    # interleaved labels, a quoted label holding a comma, a quoted id,
    # CRLF line endings and blank lines
    p = tmp_path / "expr.csv"
    p.write_bytes(
        b"sample_id,perturbation,G0,G1\r\n"
        b"s1,control,1.0,2.0\r\n"
        b"s2,PA,0.5,0.25\r\n"
        b"\r\n"
        b's3,"P,B",3.0,4.0\r\n'
        b"s4,control,5.0,6.0\r\n"
        b'"s,5",PA,0.75,0.125\r\n'
        b"\r\n"
        b's6,"P,B",7.0,8.0\r\n'
    )
    ds = load_expression(p)
    assert list(ds.perturbations) == ["PA", "P,B"]
    assert ds.control.tolist() == [[1.0, 2.0], [5.0, 6.0]]
    assert ds.block("PA").tolist() == [[0.5, 0.25], [0.75, 0.125]]
    assert ds.block("P,B").tolist() == [[3.0, 4.0], [7.0, 8.0]]


def _expression_lines(n_rows, n_genes=2):
    lines = ["sample_id,perturbation," + ",".join(f"G{i}" for i in range(n_genes))]
    labels = ("control", "PA")
    lines += [f"s{i},{labels[i % 2]}," + ",".join(["1.5"] * n_genes) for i in range(n_rows)]
    return lines


@pytest.mark.parametrize(
    "n_genes,bad_row,cell",
    [
        (2, LOAD_CHUNK_ROWS + 3, "abc"),  # a data row in the second chunk
        (1, 2, ""),  # np.loadtxt would skip the empty line and shift the labels
        (2, 0, "1_0"),  # float() accepts it, numpy does not
        (2, 1, "\uff11.5"),  # a fullwidth (non-ASCII) digit
        (2, 5, '"1,5"'),  # a quoted cell holding a comma
    ],
    ids=["second-chunk", "one-gene-empty-cell", "underscore", "fullwidth-digit", "quoted-comma-cell"],
)
def test_load_expression_bad_cell_names_its_line(tmp_path, n_genes, bad_row, cell):
    lines = _expression_lines(2 * LOAD_CHUNK_ROWS + 10, n_genes)
    head, _, _ = lines[1 + bad_row].rpartition(",")
    lines[1 + bad_row] = f"{head},{cell}"
    lines.insert(1, "")  # a blank line 2 is skipped but still counted
    p = tmp_path / "expr.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    line = bad_row + 3
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: line {line}: ") as info:
        load_expression(p)
    assert info.value.line == line


def test_load_expression_peak_memory_within_three_times_the_arrays(tmp_path):
    rng = np.random.default_rng(0)
    vocab = GeneVocab([f"G{i:03d}" for i in range(200)])
    blocks = {f"P{i:02d}": rng.uniform(0.0, 3.0, size=(40, 200)) for i in range(50)}
    ds = PerturbationDataset(vocab, rng.uniform(0.0, 3.0, size=(20, 200)), blocks)
    path = tmp_path / "expr.csv"
    save_expression(ds, path)
    tracemalloc.start()
    try:
        loaded = load_expression(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = loaded.control.nbytes + sum(b.nbytes for b in loaded.perturbations.values())
    assert nbytes == 2020 * 200 * 8
    assert peak <= 3 * nbytes, f"peak {peak} B for {nbytes} B of arrays"


# --- ingest in byte ranges ------------------------------------------------------

EXPRESSION_LABELS, EMBEDDING_LABELS = ("sample_id", "perturbation"), ("gene",)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def ranges(monkeypatch):
    """`ranges(n)` makes the reader cut any file of a few kB into n ranges
    (1: read in-process) and returns a list that collects each read's count
    of the processes that parsed it: this one, and each worker really forked."""
    counts = []
    cuts, fork = data._range_cuts, os.fork

    def counted(fd, start):
        counts.append(1)
        return cuts(fd, start)

    def counted_fork():
        pid = fork()
        if pid:  # in this process, not the worker
            counts[-1] += 1
        return pid

    def set_ranges(n):
        monkeypatch.setattr(data, "LOAD_RANGE_BYTES", 64 if n > 1 else 8 << 20)
        monkeypatch.setattr(data, "_cores", lambda: n)
        return counts

    monkeypatch.setattr(data, "_range_cuts", counted)
    monkeypatch.setattr(os, "fork", counted_fork)
    return set_ranges


def read_in_ranges(set_ranges, path, labels, n):
    counts = set_ranges(n)
    try:
        return data._read_numeric_csv(path, labels)
    finally:
        assert counts[-1] == n
        assert_no_child_left()


def raised_in_ranges(set_ranges, path, labels, n):
    with pytest.raises(DataError) as info:
        read_in_ranges(set_ranges, path, labels, n)
    return type(info.value), str(info.value), info.value.line


def csv_bytes(labels, n_rows, n_values, newline="\n", final=True, blank_every=0, quote_every=0, label="s"):
    """A CSV of `n_rows` data lines; every `blank_every`-th line is followed
    by a blank one and every `quote_every`-th label is quoted and holds a comma."""
    rng = np.random.default_rng(n_rows)
    lines = [",".join([*labels, *(f"G{j}" for j in range(n_values))])]
    for i in range(n_rows):
        names = [f"{label}{i}", ("control", "PA", "PB")[i % 3]][: len(labels)]
        if quote_every and i % quote_every == 0:
            names[0] = f'"{names[0]},x"'
        lines.append(",".join([*names, *(repr(float(x)) for x in rng.uniform(0, 3, n_values))]))
        if blank_every and i % blank_every == 0:
            lines.append("")
    return (newline.join(lines) + (newline if final else "")).encode("utf-8")


READER_FILES = {
    "crlf": dict(newline="\r\n"),
    "blank-and-quoted-at-cuts": dict(blank_every=1, quote_every=1),
    "utf8-labels": dict(label="gène-λ-"),
    "no-final-newline": dict(final=False, blank_every=3, quote_every=4),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(READER_FILES))
@pytest.mark.parametrize("labels", [EXPRESSION_LABELS, EMBEDDING_LABELS], ids=["expression", "embeddings"])
def test_reader_in_ranges_equals_one_range(tmp_path, ranges, labels, case, n):
    path = tmp_path / "data.csv"
    path.write_bytes(csv_bytes(labels, 60, 5, **READER_FILES[case]))
    names, lead, values = read_in_ranges(ranges, path, labels, 1)
    assert values.shape == (60, 5) and len(lead) == 60
    got_names, got_lead, got = read_in_ranges(ranges, path, labels, n)
    assert (got_names, got_lead) == (names, lead)
    assert got.tobytes() == values.tobytes() and got.flags.c_contiguous


def test_reader_keeps_a_lone_cr_file_in_one_range(tmp_path, ranges):
    path = tmp_path / "data.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5, newline="\r"))
    counts = ranges(4)
    got = data._read_numeric_csv(path, EXPRESSION_LABELS)
    assert counts[-1] == 1
    assert_no_child_left()
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5))
    names, lead, values = data._read_numeric_csv(path, EXPRESSION_LABELS)
    assert got[:2] == (names, lead) and got[2].tobytes() == values.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reader_cuts_lines_longer_than_a_probe(tmp_path, ranges, n):
    path = tmp_path / "data.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 6, 5000))  # about 90 kB a line, over one 64 KiB probe
    names, lead, values = read_in_ranges(ranges, path, EXPRESSION_LABELS, 1)
    got_names, got_lead, got = read_in_ranges(ranges, path, EXPRESSION_LABELS, n)
    assert (got_names, got_lead) == (names, lead) and got.tobytes() == values.tobytes()


def test_reader_keeps_data_lines_ending_in_a_lone_cr_in_one_range(tmp_path, ranges):
    path = tmp_path / "data.csv"
    twin = csv_bytes(EXPRESSION_LABELS, 60, 5)
    path.write_bytes(twin.replace(b"\n", b"\r").replace(b"\r", b"\n", 1))  # the header ends in \n
    counts = ranges(4)
    got = data._read_numeric_csv(path, EXPRESSION_LABELS)
    assert counts[-1] == 1
    assert_no_child_left()
    path.write_bytes(twin)
    names, lead, values = read_in_ranges(ranges, path, EXPRESSION_LABELS, 1)
    assert got[:2] == (names, lead) and got[2].tobytes() == values.tobytes()


BAD_LINES = {  # what replaces a data line's last value, and the error it gives
    "bad-cell": ("abc", ParseError),
    "nan": ("nan", DataError),
    "ragged-row": ("1.0,2.0", ParseError),
    "not-utf8": ("1\udcff", DataError),  # written as the lone byte 0xff
}


def with_bad_lines(content: bytes, bad: dict[int, str]) -> bytes:
    """`content` with the last value of data line i replaced by bad[i]."""
    lines = content.split(b"\n")
    for i, cell in bad.items():
        head, _, _ = lines[1 + i].rpartition(b",")
        lines[1 + i] = head + b"," + cell.encode("utf-8", "surrogateescape")
    return b"\n".join(lines)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(BAD_LINES))
@pytest.mark.parametrize("labels", [EXPRESSION_LABELS, EMBEDDING_LABELS], ids=["expression", "embeddings"])
def test_bad_line_in_a_worker_range_raises_as_in_one_range(tmp_path, ranges, labels, case, n):
    cell, error = BAD_LINES[case]
    path = tmp_path / "data.csv"
    path.write_bytes(with_bad_lines(csv_bytes(labels, 60, 5, blank_every=7), {55: cell}))
    expected = raised_in_ranges(ranges, path, labels, 1)
    assert expected[0] is error and (expected[2] is None) == (case == "not-utf8")
    assert raised_in_ranges(ranges, path, labels, n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "bad,line,error",
    [
        ({1: "nan", 3: "abc"}, 3, DataError),  # a NaN before a bad cell in one chunk
        ({1: "x", 3: "1.0,2.0"}, 3, ParseError),  # a bad cell before a ragged row
        ({1: "1.0,2.0", 3: "nan"}, 3, ParseError),
        ({30: "nan", 31: "\udcff", 58: "x"}, 32, DataError),
        ({31: "\udcff", 58: "x"}, None, DataError),  # a byte that does not decode is no line's error
        ({40: "1.0,2.0", 58: "abc"}, 42, ParseError),
    ],
    ids=["nan-then-cell", "cell-then-ragged", "ragged-then-nan", "nan-then-utf8", "utf8-then-cell", "ragged-then-cell"],
)
def test_first_bad_line_in_the_file_wins(tmp_path, ranges, n, bad, line, error):
    path = tmp_path / "data.csv"
    path.write_bytes(with_bad_lines(csv_bytes(EXPRESSION_LABELS, 60, 5), bad))
    got = raised_in_ranges(ranges, path, EXPRESSION_LABELS, n)
    assert got[0] is error and got[2] == line
    if line is not None:
        assert got[1].startswith(f"{path}: line {line}: ")


def test_first_bad_line_wins_whatever_the_chunk_size(tmp_path, ranges, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(with_bad_lines(csv_bytes(EXPRESSION_LABELS, 60, 5), {20: "nan", 21: "1,2"}))
    for rows in (1, 2, 7, 256):
        monkeypatch.setattr(data, "LOAD_CHUNK_ROWS", rows)
        assert raised_in_ranges(ranges, path, EXPRESSION_LABELS, 1)[2] == 22


def send_nothing(self, pipe):
    raise RuntimeError("the worker dies")


def send_head_only(self, pipe):
    lead, _, linenos, n_lines = self._parse()
    pickle.dump((lead, linenos, n_lines), pipe)


@pytest.mark.parametrize("send", [send_nothing, send_head_only], ids=["before-its-head", "before-its-rows"])
def test_range_of_a_worker_that_dies_is_parsed_in_process(tmp_path, ranges, monkeypatch, send):
    path = tmp_path / "data.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5, blank_every=4))
    expected = read_in_ranges(ranges, path, EXPRESSION_LABELS, 1)
    monkeypatch.setattr(data._RangeWorker, "_send", send)
    names, lead, values = read_in_ranges(ranges, path, EXPRESSION_LABELS, 3)
    assert (names, lead) == expected[:2] and values.tobytes() == expected[2].tobytes()
    path.write_bytes(with_bad_lines(path.read_bytes(), {50: "abc"}))  # and its error is numbered in the file
    assert raised_in_ranges(ranges, path, EXPRESSION_LABELS, 3) == raised_in_ranges(ranges, path, EXPRESSION_LABELS, 1)


LOADERS = {
    "expression": (EXPRESSION_LABELS, load_expression),
    "embeddings": (EMBEDDING_LABELS, lambda path: load_embeddings(path, GeneVocab(["G0"]))),
}


def loader_error(set_ranges, load, path, n):
    """The message of the DataError that `load(path)` raises when the reader cuts the file into n ranges."""
    counts = set_ranges(n)
    with pytest.raises(DataError) as info:
        load(path)
    assert counts[-1] == n
    assert_no_child_left()
    return str(info.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_a_key_repeated_in_the_first_and_last_range_names_both_lines(tmp_path, ranges, monkeypatch, kind, n):
    # the key is quoted and holds a comma, and blank lines sit between the rows,
    # so neither a row's index nor a split at the first comma gives its line
    labels, load = LOADERS[kind]
    lines = csv_bytes(labels, 60, 5, blank_every=7, quote_every=4).split(b"\n")
    last = max(i for i, line in enumerate(lines) if line)
    assert lines[1].startswith(b'"s0,x",') and lines[last].startswith(b"s59,")
    lines[last] = b'"s0,x"' + lines[last].removeprefix(b"s59")
    path = tmp_path / "data.csv"
    path.write_bytes(b"\n".join(lines))
    expected = f"{path}: {labels[0]} 's0,x' is listed twice, on lines 2 and {last + 1}"
    assert loader_error(ranges, load, path, n) == expected
    for send in (send_nothing, send_head_only):  # line numbers from a dead worker's range, and from its head
        monkeypatch.setattr(data._RangeWorker, "_send", send)
        assert loader_error(ranges, load, path, n) == expected


def test_range_whose_fork_fails_is_parsed_in_process(tmp_path, ranges, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(with_bad_lines(csv_bytes(EXPRESSION_LABELS, 60, 5), {50: "abc"}))
    expected = raised_in_ranges(ranges, path, EXPRESSION_LABELS, 1)
    tries = []

    def no_fork():
        tries.append(None)
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    counts = ranges(3)
    with pytest.raises(DataError) as info:
        data._read_numeric_csv(path, EXPRESSION_LABELS)
    assert (type(info.value), str(info.value), info.value.line) == expected
    assert len(tries) == 2 and counts[-1] == 1  # two ranges' forks failed, so this process parsed all three
    assert_no_child_left()


def test_interrupted_read_reaps_its_workers(tmp_path, ranges, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5))
    parse = data._parse_range

    def interrupted(lines, first, k, n_fields):
        if first == 2:  # this process's own range
            raise KeyboardInterrupt
        return parse(lines, first, k, n_fields)

    monkeypatch.setattr(data, "_parse_range", interrupted)
    with pytest.raises(KeyboardInterrupt):
        read_in_ranges(ranges, path, EXPRESSION_LABELS, 4)


def test_reader_stays_in_one_range_while_other_threads_run(tmp_path, ranges):
    path = tmp_path / "data.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5))
    ranges(4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        data._read_numeric_csv(path, EXPRESSION_LABELS)
    finally:
        release.set()
        thread.join()
    assert ranges(4)[-1] == 1
    data._read_numeric_csv(path, EXPRESSION_LABELS)
    assert ranges(4)[-1] == 4
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task lists this process's threads")
def test_reader_waits_out_a_joined_threads_exit_but_not_a_running_thread(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5))
    monkeypatch.setattr(data, "LOAD_RANGE_BYTES", 64)
    monkeypatch.setattr(data, "_cores", lambda: 2)
    listdir, listings = os.listdir, []

    def one_more_thread_for(n):  # /proc/self/task lists one more thread in its first n listings
        def listed(path):
            listings.append(path)
            return listdir(path) + ["0"] * (len(listings) <= n)

        return listed

    release = threading.Event()
    running = threading.Thread(target=release.wait)
    with open(path, "rb") as fh:
        for extra, cuts, reads in ((3, 1, 4), (10**9, 0, None)):  # a joined thread still exiting; a native pool's
            listings.clear()
            monkeypatch.setattr(os, "listdir", one_more_thread_for(extra))
            assert len(data._range_cuts(fh.fileno(), 0)) == cuts
            assert reads is None or len(listings) == reads
        monkeypatch.setattr(os, "listdir", listdir)
        running.start()
        try:
            listings.clear()
            monkeypatch.setattr(os, "listdir", one_more_thread_for(10**9))
            assert data._range_cuts(fh.fileno(), 0) == [] and len(listings) == 1  # no wait for a running thread
        finally:
            monkeypatch.setattr(os, "listdir", listdir)
            release.set()
            running.join()


def test_dataset_rejects_negative_values():
    vocab = GeneVocab(["G0", "G1"])
    with pytest.raises(DataError):
        PerturbationDataset(vocab, np.array([[1.0, -0.1], [1.0, 0.2]]), {})


def test_lines_splits_a_binary_line_as_splitlines_does():
    # every string of up to 7 bytes over a, \r and \n, cut as binary readline cuts it
    texts = [bytes(t) for n in range(1, 8) for t in itertools.product(b"a\r\n", repeat=n)]
    assert len(texts) == 3279
    for text in texts:
        raw = list(io.BytesIO(text))
        assert list(data._lines(raw)) == [line for r in raw for line in r.splitlines(keepends=True)], text


TASK = "/proc/self/task"  # this process's OS threads, one entry each, on Linux


def running_threads() -> tuple[int, set[str]]:
    """This process's Python thread count, and its OS thread ids where /proc/self/task lists them."""
    return threading.active_count(), set(os.listdir(TASK)) if os.path.isdir(TASK) else set()


def test_no_thread_outlives_a_read_so_a_later_load_can_fork(tmp_path, ranges):
    # the Matrix Market reader runs on all cores: a pool it kept would make a later fork unsafe
    threads = running_threads()
    assert data._read_plain_numbers(["1.5,-2", "3e1,4"], 2) is not None
    assert running_threads() == threads
    path = tmp_path / "expression.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5))
    counts = ranges(2)
    assert load_expression(path).n_genes == 5
    assert counts[-1] == 2  # a worker was forked
    assert_no_child_left()
    assert running_threads() == threads


def threads_once_settled(expected: tuple[int, set[str]]) -> tuple[int, set[str]]:
    """`running_threads()` once it reads `expected`, or after a second:
    /proc/self/task lists a thread that `threading` has joined until its OS
    thread exits, a moment later."""
    deadline = time.monotonic() + 1
    while (threads := running_threads()) != expected and time.monotonic() < deadline:
        os.sched_yield()
    return threads


def test_a_loop_runs_on_two_threads_only_where_its_numpy_calls_are_large(monkeypatch):
    monkeypatch.setattr(data, "_cores", lambda: 2)
    sizes = {
        "pds at 10x: 200 x 200 products, 2,000 genes": (2000, 200 * 200, True),
        "pds of 182 perturbations": (2000, 182 * 182, True),
        "pds of 181 perturbations": (2000, 181 * 181, False),
        "pds at c7: 40 x 40 products": (200, 40 * 40, False),
        "pds of 40 perturbations at 2,000 genes": (2000, 40 * 40, False),
        "pds of one gene": (1, 200 * 200, False),
    }
    main = threading.main_thread()
    for what, (n, step_values, split) in sizes.items():
        ran_on = {}
        halves = data.in_halves(lambda lo, hi: ran_on.update({(lo, hi): threading.current_thread()}) or (lo, hi), n, step_values)
        assert halves == ((0, n // 2), (n // 2, n)), what
        assert ran_on[0, n // 2] is main and (ran_on[n // 2, n] is not main) == split, what
    monkeypatch.setattr(data, "_cores", lambda: 1)
    ran_on = {}
    data.in_halves(lambda lo, hi: ran_on.update({(lo, hi): threading.current_thread()}), 2000, 200 * 200)
    assert ran_on == {(0, 1000): main, (1000, 2000): main}


def test_no_thread_outlives_a_split_evaluation_so_a_later_load_can_fork(tmp_path, ranges, monkeypatch):
    ds = synth_generate(SynthConfig(n_genes=30, n_perturbations=6, cells_per_condition=4), seed=2).dataset
    perts = ds.pert_names()
    predictions = {p: ds.block(p).mean(axis=0) + 0.01 for p in perts}
    alone = evaluate_predictions(ds, predictions, perts)[0].to_json_dict()
    path = tmp_path / "expression.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5))
    counts = ranges(2)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name) or start(thread))
    threads = running_threads()
    with two_threads():  # PDS's gene halves on two threads
        report = evaluate_predictions(ds, predictions, perts)[0].to_json_dict()
    # read at once, while the helper's OS thread may still be exiting
    assert load_expression(path).n_genes == 5
    assert counts[-1] == 2  # a worker was forked: this process ran one thread again
    assert_no_child_left()
    assert started == ["pertgraph-half"]
    assert threads_once_settled(threads) == threads
    assert report == alone


def test_a_split_loop_raises_its_first_error_in_the_caller_and_leaves_no_thread(monkeypatch):
    excepthook = []  # an exception that escaped a thread would land here
    monkeypatch.setattr(threading, "excepthook", excepthook.append)
    threads = running_threads()

    def failing_at(first_steps):
        def run(lo, hi):
            if lo:
                time.sleep(0.05)  # the helper's half ends last: only a join waits for it
            if lo in first_steps:
                raise ValueError(f"no sum of steps {lo} to {hi}")
            return lo, hi

        return run

    with two_threads():
        assert data.in_halves(failing_at(set()), 1000, 0) == ((0, 500), (500, 1000))
    assert threading.active_count() == threads[0]
    for first_steps in ({500}, {0}, {0, 500}):  # the helper's half; the caller's; both
        with pytest.raises(ValueError) as one_thread:
            data.in_halves(failing_at(first_steps), 1000, 0)
        with two_threads(), pytest.raises(ValueError) as split:
            data.in_halves(failing_at(first_steps), 1000, 0)
        assert threading.active_count() == threads[0]
        assert (type(split.value), str(split.value)) == (type(one_thread.value), str(one_thread.value))
        assert str(split.value) == f"no sum of steps {min(first_steps)} to {min(first_steps) + 500}"
        assert threads_once_settled(threads) == threads
    assert excepthook == []


@pytest.mark.skipif(not os.path.isdir(TASK), reason="no /proc/self/task lists this process's threads")
def test_the_suites_process_runs_one_os_thread_so_its_range_tests_fork():
    # conftest loads the package before numpy, whose BLAS is then pinned to one thread:
    # a matmul this large would start a threaded BLAS's pool again after a fork stopped it
    assert (np.ones((256, 256)) @ np.ones((256, 256)))[0, 0] == 256
    assert len(os.listdir(TASK)) == 1


NUMPY_FIRST = """
import os, pickle, sys
import numpy  # before the package, so BLAS starts its pool
threads = len(os.listdir("/proc/self/task"))
from pertgraph import data
fork, forks = os.fork, []
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted_fork
data.LOAD_RANGE_BYTES, data._cores = 64, lambda: 2
got = data._read_numeric_csv(sys.argv[1], ("sample_id", "perturbation")) if threads > 1 else None
sys.stdout.buffer.write(pickle.dumps((threads, len(forks), got)))
"""


@pytest.mark.skipif(not os.path.isdir(TASK), reason="no /proc/self/task lists this process's threads")
def test_a_caller_that_loads_numpy_first_reads_in_one_range_and_forks_nothing(tmp_path, ranges):
    path = tmp_path / "expression.csv"
    path.write_bytes(csv_bytes(EXPRESSION_LABELS, 60, 5))  # two ranges, were this process's one thread the caller
    names, lead, values = read_in_ranges(ranges, path, EXPRESSION_LABELS, 1)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", NUMPY_FIRST, str(path)], capture_output=True, env=env, check=True)
    threads, forks, got = pickle.loads(proc.stdout)
    if threads < 2:
        pytest.skip("numpy started no second thread")
    assert forks == 0
    assert got[:2] == (names, lead) and got[2].tobytes() == values.tobytes()


# --- welch ------------------------------------------------------------------------


def column(samples):
    """One gene's samples as a one-column block."""
    return np.reshape(np.asarray(samples, dtype=np.float64), (-1, 1))


def test_welch_identical_groups():
    assert welch_pvalues(column([1.0, 2.0, 3.0]), column([1.0, 2.0, 3.0]))[0] == 1.0


def test_welch_degenerate_separation():
    assert welch_pvalues(column([0.0, 0.0, 0.0]), column([5.0, 5.0, 5.0]))[0] == 0.0


def test_welch_matches_reference_oracle():
    # frozen from scipy.stats.ttest_ind(equal_var=False) on the same samples
    p = welch_pvalues(column([1.1, 0.9, 1.0, 1.2]), column([2.0, 2.2, 1.9, 2.1]))[0]
    assert abs(p - 3.4364028076121673e-05) < 1e-6


def test_welch_random_blocks_vs_scipy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.normal(0, 1, size=rng.integers(2, 9))
        b = rng.normal(0.3, 1.4, size=rng.integers(2, 9))
        ours = welch_pvalues(column(a), column(b))[0]
        ref = stats.ttest_ind(b, a, equal_var=False).pvalue
        assert abs(ours - ref) < 1e-10
    # the vectorized per-column form agrees with scipy along the gene axis
    a = rng.normal(0, 1, size=(6, 10))
    b = rng.normal(0.2, 1.3, size=(4, 10))
    ref = stats.ttest_ind(b, a, equal_var=False, axis=0).pvalue
    assert np.allclose(welch_pvalues(a, b), ref, atol=1e-12)


def test_welch_requires_two_samples():
    with pytest.raises(UsageError):
        welch_pvalues(column([1.0]), column([1.0, 2.0]))


UNDERFLOWING = ([1e-200, 2e-200, 1e-200], [1e-200, 2e-200, 2e-200])  # neither constant, both variances 0.0


def test_welch_of_variances_that_underflow_is_nan_and_no_deg():
    p = welch_pvalues(column(UNDERFLOWING[0]), column(UNDERFLOWING[1]))
    assert np.isnan(p).all() and not deg_rule(0.05, "none")(p).any()


@pytest.mark.parametrize("scale", [1e-85, 1e85], ids=["df-underflow", "df-overflow"])
def test_welch_df_of_tiny_and_huge_columns_is_finite(scale):
    # the squares in the Welch-Satterthwaite df under- or overflow at these
    # scales; the p-value is that of the same samples at scale 1, to rounding
    a, b = column([1.0, 1.3, 0.8]), column([20.0, 20.4, 19.7])
    p = welch_pvalues(a * scale, b * scale)
    assert np.isfinite(p).all()
    assert abs(p[0] - welch_pvalues(a, b)[0]) < 1e-12 * welch_pvalues(a, b)[0]
    names = ["G0", "G1"]
    control, block = np.hstack([a * scale, a]), np.hstack([b * scale, b])
    ds = PerturbationDataset(GeneVocab(names), control, {"PA": block})
    table = compute_degs(ds, alpha=0.05)
    assert table.masks["PA"].tolist() == [True, True]
    assert table.masks["PA"].tobytes() == deg_rule(0.05, "none")(welch_pvalues(control, block)).tobytes()


def test_welch_df_of_ordinary_columns_is_the_plain_formula():
    rng = np.random.default_rng(5)
    a, b = group_stats(rng.uniform(0, 3, size=(7, 50))), group_stats(rng.uniform(0, 3, size=(4, 50)))
    _, df, _ = data._welch_t(a, b)
    ta, tb = a.var / a.n, b.var / b.n
    assert df.tobytes() == ((ta + tb) ** 2 / (ta**2 / (a.n - 1) + tb**2 / (b.n - 1))).tobytes()


# --- DEG tables --------------------------------------------------------------------


def test_compute_degs_identical_block_is_empty():
    vocab = GeneVocab(["G0", "G1", "G2"])
    control = np.array([[1.0, 2.0, 0.5], [1.2, 1.8, 0.7], [0.8, 2.2, 0.6]])
    ds = PerturbationDataset(vocab, control, {"PA": control.copy()})
    table = compute_degs(ds)
    assert table.deg_indices("PA").size == 0


def test_compute_degs_alpha_one_sanity():
    ds = tiny_dataset(seed=5)
    table = compute_degs(ds, alpha=1.0)
    for name in ds.pert_names():
        assert np.array_equal(table.masks[name], welch_pvalues(ds.control, ds.block(name)) < 1.0)


def test_compute_degs_row_permutation_invariant():
    ds = tiny_dataset(n_genes=6, seed=9)
    table1 = compute_degs(ds)
    rng = np.random.default_rng(0)
    perm_blocks = {p: ds.block(p)[rng.permutation(ds.block(p).shape[0])] for p in ds.pert_names()}
    ds2 = PerturbationDataset(ds.vocab, ds.control[rng.permutation(ds.control.shape[0])], perm_blocks)
    table2 = compute_degs(ds2)
    for name in ds.pert_names():
        p1, p2 = welch_pvalues(ds.control, ds.block(name)), welch_pvalues(ds2.control, ds2.block(name))
        assert np.allclose(p1, p2, atol=1e-12)
        assert np.array_equal(table1.masks[name], table2.masks[name])


def test_deg_mask_partitions_genes():
    ds = tiny_dataset(seed=11)
    table = compute_degs(ds)
    for name in ds.pert_names():
        assert np.array_equal(table.deg_mask(name) | table.non_deg_mask(name), np.ones(4, dtype=bool))
        assert not np.any(table.deg_mask(name) & table.non_deg_mask(name))


def planted_degenerate_dataset():
    """2,000-gene synth data with planted zero-variance columns: gene 0 is the
    same constant in every condition, gene 1 a constant that differs between
    control and perturbations, gene 2 constant in control only and gene 3
    constant in the perturbations only."""
    cfg = SynthConfig(n_genes=2000, n_perturbations=6, cells_per_condition=8, noise_sigma=0.2)
    ds = synth_generate(cfg, seed=4).dataset
    control = ds.control.copy()
    control[:, [0, 1, 2]] = 1.5
    blocks = {}
    for p in ds.pert_names():
        block = ds.block(p).copy()
        block[:, 0], block[:, 1], block[:, 3] = 1.5, 2.5, 0.75
        blocks[p] = block
    return PerturbationDataset(ds.vocab, control, blocks)


@pytest.mark.parametrize("correction", ["none", "benjamini-hochberg"])
def test_compute_degs_bit_identical_to_per_block_welch(correction):
    ds = planted_degenerate_dataset()
    table = compute_degs(ds, alpha=0.05, correction=correction)
    xbar_c = ds.control.mean(axis=0)
    for p in ds.pert_names():
        ref = welch_pvalues(ds.control, ds.block(p))
        assert ref[0] == 1.0 and ref[1] == 0.0 and 0.0 < ref[2] < 1.0 and 0.0 < ref[3] < 1.0
        if correction == "benjamini-hochberg":
            assert table.pvalues[p].tobytes() == ref.tobytes()
            effective = bh_adjust(ref)
        else:  # the p-values are kept only where BH needs them all
            assert p not in table.pvalues
            effective = ref
        assert table.masks[p].tobytes() == (effective < 0.05).tobytes()
        assert table.deltas[p].tobytes() == (ds.block(p).mean(axis=0) - xbar_c).tobytes()


def adversarial_columns(rng, na, nb, alpha):
    """(control, perturbation) blocks of na and nb samples whose columns probe
    each way `compute_degs` decides a gene under correction "none"."""
    eps = np.finfo(np.float64).eps
    pairs = []
    # zero variance in one group or in both, with equal or different constants
    # (constants near 2e16 whose means round, so their float variance is not 0)
    big = 2.526953887134058e16
    for ca, cb in [(1.5, 1.5), (1.5, 2.5), (0.0, 0.0), (0.0, 1e-300), (big, big), (big, np.nextafter(big, np.inf))]:
        pairs.append((np.full(na, ca), np.full(nb, cb)))
    pairs.append((np.full(na, 1.5), 2.0 + 0.1 * rng.standard_normal(nb)))
    pairs.append((2.0 + 0.1 * rng.standard_normal(na), np.full(nb, 1.5)))
    # a spread that the mean rounds away
    pairs.append((1e6 + 1e-10 * rng.standard_normal(na), 1e6 + 1e-10 * rng.standard_normal(nb)))
    pairs.append((np.full(na, 1e6), 1e6 + 1e-10 * rng.standard_normal(nb)))
    # spreads whose squares underflow: a NaN df, and a p-value of NaN
    pairs.append((1e-85 * np.abs(1 + 0.3 * rng.standard_normal(na)), 1e-85 * (20 + 0.3 * rng.standard_normal(nb))))
    # squared standard errors over their df within a unit or two of the
    # subnormal range, which rounding can halve or zero, so that the df lands
    # off the bracket, with |t| just past the critical value at the near end:
    # - the smaller group's spread dominates, its term rounds up: a df below;
    # - both terms round to 0: an infinite df
    unit = 2.0**-1074
    ns, nl = min(na, nb), na + nb - 2
    t_low = -special.stdtrit(ns - 1, max(alpha, 1e-12) / 2)
    t_high = -special.stdtrit(nl, max(alpha, 1e-12) / 2)
    for units, factors in [(1.2, (1.01, 1.1)), (1.5, (1.01, 1.03, 1.1, 1.2)), (1.8, (1.01, 1.1)), (0.3, (0.95, 0.99))]:
        for t in np.array(factors) * (t_low if units > 1 else t_high):
            a, b = rng.standard_normal(na), rng.standard_normal(nb)
            a, b = (a - a.mean()) / a.std(ddof=1), (b - b.mean()) / b.std(ddof=1)
            if units > 1:
                ta = np.sqrt(units * (ns - 1) * unit)
                a, b = (np.sqrt(ta * ns) * a, 1e-3 * np.sqrt(ta * ns) * b) if na <= nb else (1e-3 * np.sqrt(ta * ns) * a, np.sqrt(ta * ns) * b)
                se = np.sqrt(ta)
            else:
                ta, tb = np.sqrt(units * (na - 1) * unit), np.sqrt(units * (nb - 1) * unit)
                a, b = np.sqrt(ta * na) * a, np.sqrt(tb * nb) * b
                se = np.sqrt(ta + tb)
            pairs.append((1e-70 + a, 1e-70 + b + t * se))
    # |t| on the critical value, within a few eps and within 1e-9, at the low
    # end of the df bracket (the smaller group's spread dominates, or the other
    # group is constant) and at the high end (var_a / var_b = na (na - 1) / (nb (nb - 1)))
    rels = [k * eps for k in range(-4, 5)] + [-1e-9, -5e-10, 5e-10, 1e-9]
    for end, scale in [("low", 1e-4), ("low", 0.0), ("high", None)]:
        for rel in rels:
            a, b = rng.standard_normal(na), rng.standard_normal(nb)
            if end == "low":
                if na > nb or na == nb and rng.random() < 0.5:
                    a *= scale
                else:
                    b *= scale
            else:
                a = (a - a.mean()) / a.std(ddof=1) * np.sqrt(na * (na - 1) / (nb * (nb - 1)))
                b = (b - b.mean()) / b.std(ddof=1)
            a, b = 30.0 + a, 30.0 + b
            ta, tb = a.var(ddof=1) / na, b.var(ddof=1) / nb
            df = (ta + tb) ** 2 / (ta**2 / (na - 1) + tb**2 / (nb - 1))
            # below 1e-12 the shift at df = 1 would round the spread away
            t_crit = -special.stdtrit(df, max(alpha, 1e-12) / 2)
            gap = rng.choice([-1.0, 1.0]) * t_crit * (1 + rel) * np.sqrt(ta + tb) - (b.mean() - a.mean())
            if gap >= 0:
                b += gap
            else:
                a -= gap
            pairs.append((a, b))
    pairs.extend((rng.uniform(1.0, 3.0) + 0.2 * rng.standard_normal(na), rng.uniform(1.0, 3.0) + 0.2 * rng.standard_normal(nb)) for _ in range(20))
    return np.column_stack([a for a, _ in pairs]), np.column_stack([b for _, b in pairs])


def test_compute_degs_matches_the_materialised_test(monkeypatch):
    calls = counting_welch(monkeypatch)
    rng = np.random.default_rng(21)
    retested = 0
    for na, nb in [(2, 2), (2, 9), (20, 20), (20, 7), (6, 30)]:
        for alpha in (0.05, 1.0, 1e-6, 1e-320):
            control, block = adversarial_columns(rng, na, nb, alpha)
            other = block[rng.permutation(nb)] + 0.05 * rng.standard_normal(block.shape)
            ds = PerturbationDataset(GeneVocab([f"G{i}" for i in range(control.shape[1])]), control, {"PA": block, "PB": np.abs(other)})
            calls.clear()
            table = compute_degs(ds, alpha=alpha)
            # one call on statistics for both blocks' open genes, none if there are none
            assert len(calls) <= 1 and all(kind == "stats" and 0 < n <= 2 * ds.n_genes for kind, n in calls)
            retested += sum(n for _, n in calls)
            for name in ("PA", "PB"):
                expected = deg_rule(alpha, "none")(welch_pvalues(ds.control, ds.block(name)))
                assert table.masks[name].tobytes() == expected.tobytes(), (na, nb, alpha, name)
    assert retested > 0


def test_compute_degs_retests_a_lone_column_in_the_whole_block_order():
    # a column within eps of t_crit is decided by the last bits of its sums,
    # which numpy adds in another order for a lone column than for a block
    rng = np.random.default_rng(22)
    t_crit = -special.stdtrit(38, 0.025)
    vocab = GeneVocab(["G0", "G1"])
    for _ in range(300):
        control = rng.uniform(1.0, 3.0, 2) + 0.2 * rng.standard_normal((20, 2))
        block = control[rng.permutation(20)].copy()
        block[:, 0] += 1.0  # decided from its t
        block[:, 1] += np.sqrt(control[:, 1].var(ddof=1) / 10) * t_crit * (1 + rng.integers(-8, 9) * np.finfo(np.float64).eps)
        ds = PerturbationDataset(vocab, control, {"PA": block})
        expected = welch_pvalues(control, block) < 0.05
        assert compute_degs(ds).masks["PA"].tobytes() == expected.tobytes()


def mixed_size_dataset(rng, alpha):
    """12 control cells and blocks of 2, 3, 7, 7, 20 and 31 cells. Genes 0
    and 1 are constant in every block (equal to control and not), gene 2 in
    control only, genes 3-4 have variances that underflow to 0, and genes
    5-17 take |t| within a few eps or 1e-9 of the critical value at their
    own df in each block."""
    n_genes, rels = 30, [k * np.finfo(np.float64).eps for k in range(-4, 5)] + [-1e-9, -5e-10, 5e-10, 1e-9]
    control = 30.0 + rng.standard_normal((12, n_genes))
    control[:, :3] = 1.5
    control[:, 3:5] = 1e-200 * rng.choice([1.0, 2.0], (12, 2))
    blocks = {}
    for i, nb in enumerate((2, 3, 7, 7, 20, 31)):
        block = 30.0 + rng.uniform(0.0, 2.0, n_genes) + rng.standard_normal((nb, n_genes))
        block[:, :2] = [1.5, 2.5]
        block[:, 3:5] = 1e-200 * rng.choice([1.0, 2.0], (nb, 2))
        for j, rel in enumerate(rels, start=5):
            a, b = control[:, j], block[:, j]
            ta, tb = a.var(ddof=1) / a.size, b.var(ddof=1) / nb
            df = (ta + tb) ** 2 / (ta**2 / (a.size - 1) + tb**2 / (nb - 1))
            b += -special.stdtrit(df, alpha / 2) * (1 + rel) * np.sqrt(ta + tb) - (b.mean() - a.mean())
        blocks[f"P{i}"] = block
    return PerturbationDataset(GeneVocab([f"G{i}" for i in range(n_genes)]), control, blocks)


@pytest.mark.parametrize("rows_per_chunk", [None, 2], ids=["one-chunk", "chunks-of-2"])
def test_compute_degs_of_blocks_of_mixed_sizes_matches_each_block_tested_alone(monkeypatch, rows_per_chunk):
    if rows_per_chunk:
        monkeypatch.setattr(data, "ROW_CHUNK_VALUES", 30 * rows_per_chunk)
    welch_calls, threshold_calls = counting_welch(monkeypatch), []
    monkeypatch.setattr(data, "t_thresholds", lambda *args: threshold_calls.append(args) or t_thresholds(*args))
    rng = np.random.default_rng(23)
    for alpha in (0.05, 1e-6):
        ds = mixed_size_dataset(rng, alpha)
        welch_calls.clear()
        threshold_calls.clear()
        table = compute_degs(ds, alpha=alpha)
        sizes = [ds.block(p).shape[0] for p in ds.pert_names()]
        step = rows_per_chunk or len(sizes)
        # every block leaves genes open: one Welch call on statistics per
        # chunk, whatever the block sizes in it
        assert len(welch_calls) == len(range(0, len(sizes), step))
        assert all(kind == "stats" and 0 < n <= step * ds.n_genes for kind, n in welch_calls)
        assert len(threshold_calls) == len(set(sizes))
        control = group_stats(ds.control)
        for p in ds.pert_names():
            block = ds.block(p)
            assert table.masks[p].tobytes() == deg_rule(alpha, "none")(welch_pvalues(ds.control, block)).tobytes()
            assert table.deltas[p].tobytes() == (group_stats(block).mean - control.mean).tobytes()
            assert table.masks[p][:2].tolist() == [False, True] and not table.masks[p][3:5].any()


def test_welch_of_statistics_gathered_from_blocks_of_mixed_sizes_matches_each_blocks_own_test():
    # columns of many blocks' statistics, n given per column, test bit for bit
    # as each block does whole: degenerate, underflowing and near-critical genes
    rng = np.random.default_rng(25)
    for alpha in (0.05, 1e-6):
        ds = mixed_size_dataset(rng, alpha)
        names = ds.pert_names()
        stats = [group_stats(ds.block(p)) for p in names]
        block_of, cols = rng.integers(0, len(names), 300), rng.integers(0, ds.n_genes, 300)
        gathered = GroupStats(
            np.array([stats[i].n for i in block_of]),
            *(np.array([stats[i][k][g] for i, g in zip(block_of, cols)]) for k in range(1, 5)),
        )
        control = group_stats(ds.control)
        p = welch_pvalues(GroupStats(control.n, *(x[cols] for x in control[1:])), gathered)
        own = [welch_pvalues(ds.control, ds.block(name)) for name in names]
        assert p.tobytes() == np.array([own[i][g] for i, g in zip(block_of, cols)]).tobytes()
        assert len({stats[i].n for i in block_of}) == len({s.n for s in stats}) > 1


def test_compute_degs_of_one_gene_blocks_matches_each_block_tested_alone(monkeypatch):
    # a one-column block is summed pairwise, in another order than a wider
    # block's columns; its re-test takes the statistics as they were summed
    welch_calls = counting_welch(monkeypatch)
    rng = np.random.default_rng(24)
    t_crit = -special.stdtrit(38, 0.025)
    control = 2.0 + 0.2 * rng.standard_normal((20, 1))
    shift = np.sqrt(control.var(ddof=1) / 10) * t_crit
    blocks = {f"P{i:02d}": control[rng.permutation(20)] + shift * (1 + rng.integers(-40, 1) * np.finfo(np.float64).eps) for i in range(60)}
    ds = PerturbationDataset(GeneVocab(["G0"]), control, blocks)
    for correction in ("none", "benjamini-hochberg"):
        welch_calls.clear()
        table = compute_degs(ds, correction=correction)
        assert len(welch_calls) == 1 and welch_calls[0][0] == "stats"  # one chunk: one call for its open blocks
        assert welch_calls[0][1] == len(blocks) or correction == "none"
        masks = [table.masks[p][0] for p in ds.pert_names()]
        assert masks == [bool(welch_pvalues(control, ds.block(p))[0] < 0.05) for p in ds.pert_names()]
        assert 0 < sum(masks) < len(masks)


@pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-6])
def test_t_thresholds_hold_across_the_df_bracket(alpha):
    # for each group size n, both thresholds are finite, every |t| on a dense
    # grid below t_lo gives p >= alpha and every one above t_hi gives p < alpha,
    # at both ends of the df bracket [n - 1, 2n - 2] and within it
    eps = np.finfo(np.float64).eps
    steps = np.concatenate([eps * np.arange(1, 2001), np.logspace(-13, -2, 400)])
    for n in range(2, 41):
        df = np.linspace(n - 1, 2 * n - 2, 5)[:, None]
        t_lo, t_hi = t_thresholds(n - 1, 2 * n - 2, alpha)
        assert np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi, n
        assert np.all(2.0 * special.stdtr(df, -t_lo * (1 - steps)) >= alpha), n
        assert np.all(2.0 * special.stdtr(df, -t_hi * (1 + steps)) < alpha), n
    assert t_thresholds(1, 2, 1e-320) == (-np.inf, np.inf)


def test_compute_degs_at_8_cells_retests_few_genes(monkeypatch):
    calls = counting_welch(monkeypatch)
    cfg = SynthConfig(n_genes=200, n_perturbations=40, cells_per_condition=8, noise_sigma=0.2, embed_dim=16)
    ds = synth_generate(cfg, seed=1).dataset
    table = compute_degs(ds)
    assert len(calls) == 1 and calls[0][0] == "stats" and 0 < calls[0][1] < 0.05 * ds.n_genes * len(ds.perturbations)
    for p in ds.pert_names():
        assert table.masks[p].tobytes() == (welch_pvalues(ds.control, ds.block(p)) < 0.05).tobytes()


@pytest.mark.parametrize("correction", ["none", "benjamini-hochberg"])
def test_predicted_deg_set_with_control_stats_bit_identical(correction):
    ds = planted_degenerate_dataset()
    control = ds.control
    stats = group_stats(control)
    rng = np.random.default_rng(6)
    for p in ds.pert_names():
        delta = ds.block(p).mean(axis=0) - control.mean(axis=0) + rng.normal(0.0, 0.02, ds.n_genes)
        delta[0], delta[1] = 0.0, 1.0  # gene 0 stays equal to control, gene 1 moves
        ref = welch_pvalues(control, control + delta)
        effective = bh_adjust(ref) if correction == "benjamini-hochberg" else ref
        expected = effective < 0.05
        assert expected[1] and not expected[0]
        assert np.array_equal(predicted_deg_set(control, delta, 0.05, correction), expected)
        assert np.array_equal(predicted_deg_set(control, delta, 0.05, correction, stats), expected)


def test_unknown_correction_is_rejected_before_any_welch_test(monkeypatch):
    calls = []
    monkeypatch.setattr(data, "welch_pvalues", lambda *args: calls.append(args))
    ds = tiny_dataset()
    with pytest.raises(UsageError, match="unknown correction"):
        predicted_deg_set(ds.control, np.zeros(ds.n_genes), 0.05, "bonferroni")
    with pytest.raises(UsageError, match="unknown correction"):
        compute_degs(ds, correction="bonferroni")
    assert calls == []


def test_bh_adjust_of_rows_equals_each_row_adjusted_alone():
    rng = np.random.default_rng(18)
    p = rng.uniform(0, 1, size=(7, 40)) ** 3
    p[1, ::4], p[2, :5], p[3] = np.nan, p[2, 5], 0.5  # NaNs, ties, one value
    assert bh_adjust(p).tobytes() == np.array([bh_adjust(row) for row in p]).tobytes()
    assert bh_adjust(p[0]).tobytes() == bh_adjust(p[:1])[0].tobytes()


def test_bh_adjust_monotone_and_bounded():
    rng = np.random.default_rng(17)
    p = rng.uniform(0, 1, size=40)
    q = bh_adjust(p)
    assert np.all(q >= p - 1e-15) and np.all(q <= 1.0)
    order = np.argsort(p)
    assert np.all(np.diff(q[order]) >= -1e-15)


def test_a_nan_pvalue_leaves_the_other_genes_degs_under_bh():
    rng = np.random.default_rng(5)
    control, block = rng.uniform(1.0, 1.2, size=(3, 5)), rng.uniform(1.0, 1.2, size=(3, 5))
    control[:, 0], block[:, 0] = UNDERFLOWING
    block[:, 1:3] += 3.0
    ds = PerturbationDataset(GeneVocab([f"G{i}" for i in range(5)]), control, {"PA": block})
    for correction in ("none", "benjamini-hochberg"):
        assert compute_degs(ds, correction=correction).deg_indices("PA").tolist() == [1, 2]
    # the NaN counts among the 5 tests but bounds no other adjusted value
    np.testing.assert_allclose(bh_adjust(np.array([np.nan, 0.004, 0.5, 0.002, 0.9])), [np.nan, 0.01, 2.5 / 3, 0.01, 1.0], rtol=1e-15)


def reference_against_planted(sigma: float, correction: str) -> tuple[int, int, int, int, int]:
    """`compute_degs` at alpha 0.05 against the synth's planted DEG sets,
    pooled over the criterion-7 synth at seeds 0-4 and `noise_sigma` sigma:
    (calls, false calls, null genes, planted genes, planted genes called)."""
    counts = np.zeros(5, dtype=np.int64)
    for seed in range(5):
        config = SynthConfig(n_genes=200, n_perturbations=40, cells_per_condition=20, noise_sigma=sigma, embed_dim=16)
        synth = synth_generate(config, seed)
        table = compute_degs(synth.dataset, alpha=0.05, correction=correction)
        for p in synth.dataset.pert_names():
            planted = np.zeros(synth.dataset.n_genes, dtype=bool)
            planted[synth.dataset.vocab.indices(synth.truth_degs[p])] = True
            called = table.masks[p]
            counts += [called.sum(), (called & ~planted).sum(), (~planted).sum(), planted.sum(), (called & planted).sum()]
    return tuple(counts.tolist())


@pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0])
def test_the_deg_reference_holds_to_the_planted_truth(sigma):
    # every null gene is tested against one shared control block, so its
    # calls are not independent: the bounds are one-sided, not a binomial band
    alpha = 0.05
    calls, false, null, planted, found = reference_against_planted(sigma, "benjamini-hochberg")
    assert null == 37110 and calls > 0
    assert false / calls <= alpha  # BH holds the pooled false share of calls to alpha
    calls, false, null, planted, found = reference_against_planted(sigma, "none")
    assert alpha / 2 <= false / null <= alpha  # no correction calls null genes at about alpha
    if sigma < 1.0:
        assert found == planted


# --- strata -------------------------------------------------------------------------


def make_table_with_fraction(frac, n=100):
    table = DegTable(alpha=0.05, correction="none", genes=[f"G{i}" for i in range(n)])
    k = round(frac * n)
    mask = np.zeros(n, dtype=bool)
    mask[:k] = True
    table.pvalues["P"] = np.where(mask, 0.0, 1.0)
    table.masks["P"] = mask
    table.deltas["P"] = np.zeros(n)
    return table


@pytest.mark.parametrize(
    "frac,expected",
    [(0.03, "small"), (0.07, "medium"), (0.11, "large"), (0.05, "medium"), (0.10, "medium")],
)
def test_effect_size_strata_boundaries(frac, expected):
    table = make_table_with_fraction(frac)
    assert effect_size_strata(table)["P"] == expected


# --- splits --------------------------------------------------------------------------


def ten_pert_dataset():
    rng = np.random.default_rng(0)
    vocab = GeneVocab([f"G{i}" for i in range(4)])
    control = rng.uniform(0.1, 1.0, size=(3, 4))
    blocks = {f"P{i:02d}": rng.uniform(0.1, 1.0, size=(2, 4)) for i in range(10)}
    return PerturbationDataset(vocab, control, blocks)


def test_split_sizes_floor_then_distribute():
    ds = ten_pert_dataset()
    spec = split_by_perturbation(ds, (0.8, 0.1, 0.1), seed=1)
    assert (len(spec.train), len(spec.val), len(spec.test)) == (8, 1, 1)
    assert set(spec.train) | set(spec.val) | set(spec.test) == set(ds.pert_names())
    assert not (set(spec.train) & set(spec.val)) and not (set(spec.val) & set(spec.test))


def test_split_deterministic_and_seed_sensitive():
    ds = ten_pert_dataset()
    a = split_by_perturbation(ds, (0.8, 0.1, 0.1), seed=5)
    b = split_by_perturbation(ds, (0.8, 0.1, 0.1), seed=5)
    assert a == b
    different = any(
        split_by_perturbation(ds, (0.8, 0.1, 0.1), seed=s) != a for s in range(6, 16)
    )
    assert different


@pytest.mark.parametrize("fractions", [(float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5), (0.8, 0.1, 0.2)])
def test_split_rejects_nan_or_unbalanced_fractions_without_warnings(fractions):
    # a NaN fails the per-value range before the sum is looked at
    rule = "must be finite and >= 0, got nan" if np.isnan(fractions).any() else "must be three nonnegative values summing to 1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=f"^split_fractions {re.escape(rule)}$"):
            split_by_perturbation(ten_pert_dataset(), fractions, seed=0)


def test_split_rejects_too_few_perturbations():
    rng = np.random.default_rng(0)
    vocab = GeneVocab(["G0", "G1"])
    ds = PerturbationDataset(
        vocab,
        rng.uniform(0.1, 1.0, size=(2, 2)),
        {"PA": rng.uniform(0.1, 1.0, size=(2, 2)), "PB": rng.uniform(0.1, 1.0, size=(2, 2))},
    )
    with pytest.raises(UsageError):
        split_by_perturbation(ds, (0.4, 0.3, 0.3), seed=0)
    # 2 perturbations over 2 nonzero splits is fine
    spec = split_by_perturbation(ds, (0.5, 0.0, 0.5), seed=0)
    assert len(spec.train) == 1 and len(spec.val) == 0 and len(spec.test) == 1


# --- synthetic generator ---------------------------------------------------------------


def small_synth_config(**kw):
    defaults = dict(
        n_genes=30,
        n_perturbations=6,
        cells_per_condition=6,
        deg_fracs=(0.05, 0.1, 0.2),
        effect_magnitude=1.0,
        noise_sigma=0.1,
        embed_dim=8,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


def test_synth_zero_noise_exact_recovery():
    synth = synth_generate(small_synth_config(noise_sigma=0.0), seed=3)
    table = compute_degs(synth.dataset)
    for pert, genes in synth.truth_degs.items():
        found = {synth.dataset.vocab.names[i] for i in table.deg_indices(pert)}
        assert found == set(genes)
        # degenerate rules: planted p = 0, everything else p = 1
        planted = np.isin(np.arange(30), [synth.dataset.vocab.index(g) for g in genes])
        p = welch_pvalues(synth.dataset.control, synth.dataset.block(pert))
        assert np.array_equal(p == 0.0, planted)
        assert np.array_equal(table.deg_mask(pert), planted)


def test_synth_zero_effect_false_positive_rate():
    n = 500
    counts = []
    for seed in range(5):
        cfg = SynthConfig(
            n_genes=n,
            n_perturbations=4,
            cells_per_condition=20,
            effect_magnitude=0.0,
            noise_sigma=0.2,
            embed_dim=4,
        )
        synth = synth_generate(cfg, seed=seed)
        table = compute_degs(synth.dataset)
        counts.extend(table.deg_indices(p).size for p in synth.dataset.pert_names())
    mean_fp = np.mean(counts)
    assert 0.5 * 0.05 * n <= mean_fp <= 1.5 * 0.05 * n


def test_synth_deterministic_bit_identical():
    a = synth_generate(small_synth_config(), seed=11)
    b = synth_generate(small_synth_config(), seed=11)
    assert np.array_equal(a.dataset.control, b.dataset.control)
    for name in a.dataset.pert_names():
        assert np.array_equal(a.dataset.block(name), b.dataset.block(name))
    assert a.truth_degs == b.truth_degs
    assert a.graph.edge_weight_map() == b.graph.edge_weight_map()
    for g in a.embeddings.vectors:
        assert np.array_equal(a.embeddings.vectors[g], b.embeddings.vectors[g])


def test_synth_degs_near_perturbed_gene():
    synth = synth_generate(small_synth_config(noise_sigma=0.0), seed=5)
    from pertgraph.graph import deg_coverage

    for pert, genes in synth.truth_degs.items():
        others = [g for g in genes if g != pert]
        if not others:
            continue
        cov = deg_coverage(synth.graph, pert, others, max_hops=4)
        assert cov[-1] > 0.5  # planted sets live in the perturbed gene's module


def test_synth_module_mates_have_similar_embeddings():
    synth = synth_generate(small_synth_config(), seed=7)
    perts = list(synth.truth_degs)
    sims = {}
    for i, a in enumerate(perts):
        for b in perts[i + 1 :]:
            shared = len(set(synth.truth_degs[a]) & set(synth.truth_degs[b]))
            sim = float(synth.embeddings.vector(a) @ synth.embeddings.vector(b))
            sims.setdefault(shared > 0, []).append(sim)
    assert np.mean(sims[True]) > np.mean(sims[False])


def test_synth_validates_config():
    with pytest.raises(UsageError):
        synth_generate(SynthConfig(n_genes=5), seed=0)


# --- embeddings ---------------------------------------------------------------------


def test_hash_embedding_unit_norm_and_deterministic():
    v1 = hash_embedding("GENE_X", 16)
    v2 = hash_embedding("GENE_X", 16)
    assert np.array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-9
    assert not np.array_equal(v1, hash_embedding("GENE_Y", 16))


def test_load_embeddings_file_and_fallback(tmp_path):
    vocab = GeneVocab(["A", "B", "C"])
    path = tmp_path / "emb.csv"
    path.write_text("gene,v0,v1,v2\nA,1.0,0.0,0.5\nB,0.25,0.5,-1.0\n")
    emb = load_embeddings(path, vocab)
    assert emb.dim == 3
    assert np.array_equal(emb.vector("A"), [1.0, 0.0, 0.5])
    assert np.array_equal(emb.vector("C"), hash_embedding("C", 3))
    assert abs(np.linalg.norm(emb.vector("C")) - 1.0) < 1e-9


def test_load_embeddings_inconsistent_length(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("gene,v0,v1\nA,1.0,2.0\nB,1.0\n")
    with pytest.raises(DataError):
        load_embeddings(path, GeneVocab(["A", "B"]))


def write_embeddings(tmp_path, lines: list[str]):
    path = tmp_path / "emb.csv"
    path.write_text("\n".join(["gene,v0,v1", *lines]) + "\n", encoding="utf-8")
    return path


def test_load_embeddings_quoted_gene_and_blank_lines(tmp_path):
    path = write_embeddings(tmp_path, ["", '"A,1",1.0,2.0', "", "B,3.0,4.0", ""])
    emb = load_embeddings(path, GeneVocab(["A,1", "B"]))
    assert emb.vector("A,1").tolist() == [1.0, 2.0]
    assert emb.vector("B").tolist() == [3.0, 4.0]


@pytest.mark.parametrize(
    "bad_row,cell,error,message",
    [
        (0, "1.0,2.0", ParseError, "expected 3 fields, got 4"),  # a wrong field count
        (LOAD_CHUNK_ROWS + 3, "nan", DataError, "non-finite value"),  # a data row in the second chunk
        (5, "-inf", DataError, "non-finite value"),
        (1, "1_0", ParseError, ""),  # float() accepts it, numpy does not
    ],
    ids=["field-count", "nan-second-chunk", "inf", "underscore"],
)
def test_load_embeddings_bad_line_names_it(tmp_path, bad_row, cell, error, message):
    lines = [f"G{i},0.5,0.25" for i in range(2 * LOAD_CHUNK_ROWS)]
    lines[bad_row] = f"G{bad_row},0.5,{cell}"
    lines.insert(0, "")  # a blank line 2 is skipped but still counted
    path = write_embeddings(tmp_path, lines)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line {bad_row + 3}: {message}") as info:
        load_embeddings(path, GeneVocab(["G0"]))
    assert type(info.value) is error


def test_load_embeddings_values_equal_float_of_each_cell(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((300, 2)) * 10.0 ** rng.integers(-320, 300, size=(300, 2))
    cells = [[repr(float(x)) for x in row] for row in values]
    vocab = GeneVocab([f"G{i}" for i in range(300)])
    emb = load_embeddings(write_embeddings(tmp_path, [f"G{i},{a},{b}" for i, (a, b) in enumerate(cells)]), vocab)
    for i, row in enumerate(cells):
        assert emb.vector(f"G{i}").tolist() == [float(c) for c in row]


def test_embeddings_round_trip(tmp_path):
    vocab = GeneVocab(["A", "B"])
    emb = SemanticEmbeddings(dim=4, vectors={g: hash_embedding(g, 4) for g in vocab.names})
    path = tmp_path / "emb.csv"
    save_embeddings(emb, path)
    emb2 = load_embeddings(path, vocab)
    for g in vocab.names:
        assert np.array_equal(emb.vector(g), emb2.vector(g))
