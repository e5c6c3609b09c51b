"""The CSV reader's fast number path (`data._read_plain_numbers`, scipy's
Matrix Market reader behind a NaN sentinel) against np.loadtxt alone: the same
bits, or the same error with the same line; and the label blocks that
`load_expression` hands out as views of the parsed rows."""

from __future__ import annotations

import numpy as np
import pytest

from pertgraph import data
from pertgraph.data import PerturbationDataset, SemanticEmbeddings, load_embeddings, load_expression, save_embeddings, save_expression
from pertgraph.errors import DataError
from pertgraph.graph import GeneVocab

K = 2  # label fields before the numbers, as in an expression file
CORPUS = [
    "1.5.3", "1e", "1e5e5", "1e5.3", "1e+", "1_0", "-0", "-0.0", "+1", " 1", "1 ", "0x10",
    ".5", "5.", "5.e3", ".", "e5", "1-2", "nan", "inf", "1nan", "1inf", "", "１.5",
    "7." + "7" * 999, "7" * 1000 + "e-990", "5e-324", "2.4703282292062327e-324", "1e400", "1e-400",
    "-1.5", "-.5", "-1e-5", "-5e-324", "--1", "-+1", "+-1", "-e5", "-", "1e-5-2",
]
# corpus entries the fast path must read: np.loadtxt reads them too (`1e400` as inf, a data error on both paths)
FAST = {".5", "5.", "5.e3", "7." + "7" * 999, "7" * 1000 + "e-990", "5e-324", "2.4703282292062327e-324", "1e400", "1e-400"}
FAST |= {"-1.5", "-.5", "-1e-5", "-5e-324"}


def outcome(texts: list[str], n_values: int):
    """What `_parse_numeric_lines` makes of the texts, on lines 2, 3, ...: the
    rows' bits, or the error's type, message and line."""
    linenos = list(range(2, 2 + len(texts)))
    try:
        rows = data._parse_numeric_lines(texts, linenos, [False] * len(texts), K, n_values)
    except DataError as exc:
        return type(exc), str(exc), exc.line
    return rows.shape, rows.dtype.str, rows.flags.c_contiguous, rows.tobytes()


def loadtxt_outcome(texts: list[str], n_values: int, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(data, "_read_plain_numbers", lambda texts, n_values: None)
        return outcome(texts, n_values)


def chunk_with(token: str, row: int, col: int, n_rows: int = 4, n_values: int = 3) -> list[str]:
    fields = [[f"{0.125 * (r * n_values + c + 1)!r}" for c in range(n_values)] for r in range(n_rows)]
    fields[row][col] = token
    return [",".join(f) for f in fields]


@pytest.mark.parametrize("token", CORPUS, ids=[repr(t[:24]) for t in CORPUS])
def test_corpus_reads_as_np_loadtxt_reads_it(token, monkeypatch):
    for row in (0, 3):  # the first and last row of the chunk
        for col in (0, 1, 2):  # the first, middle and last field of the row
            texts = chunk_with(token, row, col)
            assert outcome(texts, 3) == loadtxt_outcome(texts, 3, monkeypatch), (row, col)
            taken = data._read_plain_numbers(texts, 3) is not None
            assert taken == (token in FAST), (row, col)


@pytest.mark.parametrize("texts", [["1,2,3,4", "5,6"], ["1,2", "3,4,5,6"], ["1,2,3", "4,5,6,7", "8,9"]])
def test_ragged_rows_whose_field_total_fits_are_np_loadtxt_errors(texts, monkeypatch):
    assert data._read_plain_numbers(texts, 3) is None
    assert outcome(texts, 3) == loadtxt_outcome(texts, 3, monkeypatch)


def test_fast_path_gives_np_loadtxt_bits_on_hard_numbers():
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.uniform(0.0, 10.0, 40),
        np.exp(rng.uniform(-700.0, 700.0, 40)),  # every exponent range
        rng.integers(1, 1 << 53, 40) * 2.0**-1074,  # subnormals
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3],
    ]).reshape(-1, 2)
    for fmt in ("{!r}", "{:.17g}", "{:.25e}", "{:.4f}", "{:.30f}"):
        texts = [",".join(fmt.format(v) for v in row) for row in values.tolist()]
        got = data._read_plain_numbers(texts, 2)
        assert got is not None, fmt
        assert got.tobytes() == np.loadtxt(texts, delimiter=",", comments=None, ndmin=2).tobytes(), fmt


def random_token(rng: np.random.Generator) -> str:
    alphabet = "0123456789.eE+-"
    if rng.random() < 0.05:  # now and then a byte the fast path refuses, or a comma that shifts fields
        alphabet += " ,nx_"
    weights = np.array([4.0 if c.isdigit() else 1.0 for c in alphabet])
    return "".join(rng.choice(list(alphabet), size=rng.integers(0, 7), p=weights / weights.sum()))


def test_random_tokens_read_as_np_loadtxt_reads_them(monkeypatch):
    rng = np.random.default_rng(2026)
    taken = 0
    for _ in range(3000):
        n_rows, n_values = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        texts = chunk_with(random_token(rng), int(rng.integers(n_rows)), int(rng.integers(n_values)), n_rows, n_values)
        assert outcome(texts, n_values) == loadtxt_outcome(texts, n_values, monkeypatch), texts
        taken += data._read_plain_numbers(texts, n_values) is not None
    assert taken >= 1000  # the fuzz reaches the fast path, not only its refusals


def test_signed_tokens_read_as_np_loadtxt_reads_them(monkeypatch):
    rng = np.random.default_rng(2027)
    taken = 0
    for _ in range(3000):
        n_rows, n_values = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        fields = [[f"{rng.choice(['', '-'])}{0.125 * (r * n_values + c + 1)!r}" for c in range(n_values)] for r in range(n_rows)]
        token = rng.choice(["", "-"]) + random_token(rng)
        fields[int(rng.integers(n_rows))][int(rng.integers(n_values))] = token
        texts = [",".join(f) for f in fields]
        assert outcome(texts, n_values) == loadtxt_outcome(texts, n_values, monkeypatch), texts
        taken += token.startswith("-") and data._read_plain_numbers(texts, n_values) is not None
    assert taken >= 800  # signed tokens reach the fast path, not only its refusals


def test_saved_expression_loads_without_np_loadtxt(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    vocab = GeneVocab([f"G{i:03d}" for i in range(300)])
    blocks = {f"P{i}": rng.uniform(0.0, 3.0, size=(rng.integers(2, 6), 300)) for i in range(70)}
    ds = PerturbationDataset(vocab, rng.uniform(0.0, 3.0, size=(9, 300)), blocks)
    path = tmp_path / "expr.csv"
    save_expression(ds, path)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    loaded = load_expression(path)
    assert loaded.control.tobytes() == ds.control.tobytes()
    assert loaded.pert_names() == ds.pert_names()
    for name in ds.pert_names():
        assert loaded.block(name).tobytes() == ds.block(name).tobytes()

    signed = SemanticEmbeddings(16, {g: rng.normal(size=16) for g in vocab.names})  # components of either sign
    save_embeddings(signed, tmp_path / "emb.csv")
    got = load_embeddings(tmp_path / "emb.csv", vocab)
    assert all(got.vector(g).tobytes() == signed.vector(g).tobytes() for g in vocab.names)


def write_expression(path, labels: list[str], n_genes: int = 3) -> None:
    lines = ["sample_id,perturbation," + ",".join(f"G{i}" for i in range(n_genes))]
    lines += [f"s{i},{label}," + ",".join(f"{0.25 * (i + g)}" for g in range(n_genes)) for i, label in enumerate(labels)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "labels,views",
    [
        (["control"] * 3 + ["PA"] * 2 + ["PB"] * 4, {"control", "PA", "PB"}),  # grouped, as synth writes it
        (["control", "PA"] * 3, set()),  # scattered
        (["control"] * 2 + ["PA", "PB", "PA", "PB"], {"control"}),
    ],
    ids=["grouped", "scattered", "mixed"],
)
def test_contiguous_label_blocks_are_views_of_the_parsed_rows(tmp_path, monkeypatch, labels, views):
    read, got = data._read_numeric_csv, {}

    def recorded(path, columns):
        got["names"], got["lead"], got["values"] = read(path, columns)
        return got["names"], got["lead"], got["values"]

    monkeypatch.setattr(data, "_read_numeric_csv", recorded)
    path = tmp_path / "expr.csv"
    write_expression(path, labels)
    ds = load_expression(path)
    values = got["values"]
    assert not values.flags.writeable
    for label in {*labels}:
        block = ds.control if label == "control" else ds.block(label)
        copy = values[[i for i, (_, lab) in enumerate(got["lead"]) if lab == label]]
        assert block.flags.c_contiguous
        assert block.tobytes() == copy.tobytes()
        assert np.shares_memory(block, values) == (label in views), label
        if label in views:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
