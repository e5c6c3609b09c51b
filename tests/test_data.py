import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from pertgraph import data, metrics
from pertgraph.data import (
    LOAD_CHUNK_ROWS,
    DegTable,
    PerturbationDataset,
    SemanticEmbeddings,
    SynthConfig,
    bh_adjust,
    compute_degs,
    effect_size_strata,
    group_stats,
    hash_embedding,
    load_embeddings,
    load_expression,
    save_embeddings,
    save_expression,
    split_by_perturbation,
    synth_generate,
    welch_pvalues,
)
from pertgraph.errors import DataError, ParseError, UsageError
from pertgraph.graph import GeneVocab
from pertgraph.metrics import predicted_deg_set


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


def test_dataset_rejects_negative_values():
    vocab = GeneVocab(["G0", "G1"])
    with pytest.raises(DataError):
        PerturbationDataset(vocab, np.array([[1.0, -0.1], [1.0, 0.2]]), {})


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
        assert np.array_equal(table.masks[name], table.pvalues[name] < 1.0)


def test_compute_degs_row_permutation_invariant():
    ds = tiny_dataset(n_genes=6, seed=9)
    table1 = compute_degs(ds)
    rng = np.random.default_rng(0)
    perm_blocks = {p: ds.block(p)[rng.permutation(ds.block(p).shape[0])] for p in ds.pert_names()}
    ds2 = PerturbationDataset(ds.vocab, ds.control[rng.permutation(ds.control.shape[0])], perm_blocks)
    table2 = compute_degs(ds2)
    for name in ds.pert_names():
        assert np.allclose(table1.pvalues[name], table2.pvalues[name], atol=1e-12)


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
        effective = bh_adjust(ref) if correction == "benjamini-hochberg" else ref
        assert table.pvalues[p].tobytes() == ref.tobytes()
        assert table.masks[p].tobytes() == (effective < 0.05).tobytes()
        assert table.deltas[p].tobytes() == (ds.block(p).mean(axis=0) - xbar_c).tobytes()


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
        expected = set(np.flatnonzero(effective < 0.05).tolist())
        assert 1 in expected and 0 not in expected
        assert predicted_deg_set(control, delta, 0.05, correction) == expected
        assert predicted_deg_set(control, delta, 0.05, correction, stats) == expected


def test_unknown_correction_is_rejected_before_any_welch_test(monkeypatch):
    calls = []
    for module in (data, metrics):
        monkeypatch.setattr(module, "welch_pvalues", lambda *args: calls.append(args))
    ds = tiny_dataset()
    with pytest.raises(UsageError, match="unknown correction"):
        predicted_deg_set(ds.control, np.zeros(ds.n_genes), 0.05, "bonferroni")
    with pytest.raises(UsageError, match="unknown correction"):
        compute_degs(ds, correction="bonferroni")
    assert calls == []


def test_bh_adjust_monotone_and_bounded():
    rng = np.random.default_rng(17)
    p = rng.uniform(0, 1, size=40)
    q = bh_adjust(p)
    assert np.all(q >= p - 1e-15) and np.all(q <= 1.0)
    order = np.argsort(p)
    assert np.all(np.diff(q[order]) >= -1e-15)


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
        assert np.array_equal(table.pvalues[pert] == 0.0, planted)


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
