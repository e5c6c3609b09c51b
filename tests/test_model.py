import numpy as np
import pytest

from pertgraph.errors import ShapeError, UsageError
from pertgraph.graph import GeneVocab, KnowledgeGraph
from pertgraph.model import (
    ModelConfig,
    SubgraphSelection,
    aggregation_matrix,
    build_alpha,
    build_context,
    build_decoder,
    build_encoder,
    build_gnn,
    build_scores,
    build_semantic_projection,
    forward,
    gumbel_select,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from conftest import build_toy_problem, run_builder


def small_params(n_nodes, n_genes=None, d_embed=3, seed=0, **cfg_kw):
    config = ModelConfig(**{"n_layers": 1, "d_struct": 3, "d_latent": 3, "d_score": 3, **cfg_kw})
    return init_params(n_nodes, n_genes or n_nodes, d_embed, config, seed=seed)


def gnn_builder(graph, params):
    return lambda t, pids: build_gnn(t, pids, params, aggregation_matrix(graph))


# --- gnn ----------------------------------------------------------------------


def test_gnn_zero_layers_returns_table():
    vocab = GeneVocab(["A", "B", "C"])
    g = KnowledgeGraph.from_edges(vocab, [(0, 1, 1.0)])
    params = small_params(3, n_layers=0)
    assert np.array_equal(run_builder(params, gnn_builder(g, params)), params.values["gnn.table"])


def test_gnn_isolated_nodes_self_mean_identity():
    vocab = GeneVocab(["A", "B"])
    g = KnowledgeGraph.from_edges(vocab, [])
    params = small_params(2, n_layers=1, d_struct=3)
    params.values["gnn.w0"] = np.eye(3)
    assert np.allclose(run_builder(params, gnn_builder(g, params)), params.values["gnn.table"], atol=1e-12)


def test_gnn_triangle_one_hot_mean():
    vocab = GeneVocab(["A", "B", "C"])
    g = KnowledgeGraph.from_edges(vocab, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    params = small_params(3, n_layers=1, d_struct=3)
    params.values["gnn.table"] = np.eye(3)
    params.values["gnn.w0"] = np.eye(3)
    h = run_builder(params, gnn_builder(g, params))
    assert np.allclose(h, np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_aggregation_matrix_weighted_mode():
    vocab = GeneVocab(["A", "B"])
    g = KnowledgeGraph.from_edges(vocab, [(0, 1, 3.0)])
    a = aggregation_matrix(g, weighted=True).toarray()
    assert np.allclose(a[0], [1.0 / 4.0, 3.0 / 4.0])
    rows = aggregation_matrix(g, weighted=False).toarray()
    assert np.allclose(rows.sum(axis=1), 1.0)


# --- semantic projection ---------------------------------------------------------


def test_project_semantic_zero_and_identity():
    params = small_params(4, d_embed=3, d_struct=3)
    s = [1.0, 2.0, 3.0]
    params.values["sem.proj"] = np.zeros((3, 3))
    assert np.array_equal(run_builder(params, lambda t, pids: build_semantic_projection(t, pids, s)), [[0.0] * 3])
    params.values["sem.proj"] = np.eye(3)
    assert np.array_equal(run_builder(params, lambda t, pids: build_semantic_projection(t, pids, s)), [s])


def test_project_semantic_matches_matvec_oracle():
    rng = np.random.default_rng(5)
    params = small_params(4, d_embed=6, d_struct=3)
    params.values["sem.proj"] = rng.normal(size=(6, 3))
    s = rng.normal(size=6)
    expected = np.array([sum(s[i] * params.values["sem.proj"][i, j] for i in range(6)) for j in range(3)])
    projected = run_builder(params, lambda t, pids: build_semantic_projection(t, pids, s))
    assert np.allclose(projected, [expected], atol=1e-12)


def test_project_semantic_dimension_error():
    params = small_params(4, d_embed=3)
    with pytest.raises(ShapeError):
        run_builder(params, lambda t, pids: build_semantic_projection(t, pids, [1.0, 2.0]))


# --- scoring -----------------------------------------------------------------------


def test_score_nodes_uniform_when_readout_zero():
    rng = np.random.default_rng(2)
    params = small_params(5, d_struct=3)
    params.values["score.v"] = np.zeros((3, 1))
    h = rng.normal(size=(5, 3))
    s_tilde = rng.normal(size=3)
    alpha = run_builder(
        params, lambda t, pids: build_alpha(t, build_scores(t, pids, t.constant(h), t.constant(s_tilde)))
    )[0]
    assert np.allclose(alpha, 0.2, atol=1e-12)
    assert abs(alpha.sum() - 1.0) < 1e-9


def test_softmax_shift_invariance_at_alpha_level():
    from pertgraph.numerics import Tape

    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(1, 7))
    t = Tape()
    s1 = t.value(t.apply("row-softmax", t.constant(a)))
    s2 = t.value(t.apply("row-softmax", t.constant(a + 1.37)))
    assert np.allclose(s1, s2, atol=1e-15)


def test_closed_form_softmax():
    from pertgraph.numerics import Tape

    t = Tape()
    a = np.array([[0.0, np.log(2.0), np.log(3.0)]])
    s = t.value(t.apply("row-softmax", t.constant(a)))
    assert np.allclose(s, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


# --- gumbel selection ------------------------------------------------------------


def test_gumbel_eval_uniform_threshold_behavior():
    alpha = np.full(5, 0.2)
    low = gumbel_select(alpha, tau=1.0, threshold=0.19, forced=0)
    assert np.array_equal(low.selected, np.arange(5))
    high = gumbel_select(alpha, tau=1.0, threshold=0.21, forced=0)
    assert np.array_equal(high.selected, [0])
    assert np.allclose(high.alpha_tilde, 0.2, atol=1e-12)


def test_gumbel_low_temperature_concentrates():
    alpha = np.array([0.5, 0.3, 0.2])
    sel = gumbel_select(alpha, tau=1e-3, threshold=0.5, seed=42)
    g = np.random.default_rng(42).gumbel(size=3)
    winner = np.argmax(np.log(alpha) + g)
    assert sel.alpha_tilde[winner] > 0.999
    assert sel.alpha_tilde.sum() == pytest.approx(1.0, abs=1e-9)


def test_gumbel_argmax_frequencies_follow_alpha():
    alpha = np.array([0.7, 0.2, 0.1])
    counts = np.zeros(3)
    n = 4000
    for i in range(n):
        sel = gumbel_select(alpha, tau=1.0, threshold=0.99, seed=i)
        counts[np.argmax(sel.alpha_tilde)] += 1
    assert np.all(np.abs(counts / n - alpha) < 0.03)


def test_gumbel_seed_determinism_and_sum():
    alpha = np.array([0.4, 0.3, 0.2, 0.1])
    a = gumbel_select(alpha, tau=0.7, threshold=0.25, seed=9, forced=3)
    b = gumbel_select(alpha, tau=0.7, threshold=0.25, seed=9, forced=3)
    assert np.array_equal(a.alpha_tilde, b.alpha_tilde)
    assert np.array_equal(a.selected, b.selected)
    assert 3 in a.selected
    assert a.alpha_tilde.sum() == pytest.approx(1.0, abs=1e-9)
    assert a.alpha.sum() == pytest.approx(1.0, abs=1e-9)


def test_gumbel_floors_zero_probabilities():
    alpha = np.array([1.0, 0.0, 0.0])
    sel = gumbel_select(alpha, tau=1.0, threshold=0.5)
    assert np.isfinite(sel.alpha_tilde).all()
    assert sel.alpha_tilde[0] > 0.99


def test_gumbel_top_m_mode():
    alpha = np.array([0.4, 0.3, 0.2, 0.1])
    sel = gumbel_select(alpha, tau=1.0, threshold=0.5, mode="top_m", top_m=2, forced=3)
    assert np.array_equal(sel.selected, [0, 1, 3])


def test_gumbel_validates_inputs():
    with pytest.raises(UsageError):
        gumbel_select(np.array([0.5, 0.5]), tau=0.0, threshold=0.5)
    with pytest.raises(UsageError):
        gumbel_select(np.array([0.5, 0.5]), tau=1.0, threshold=1.5)
    with pytest.raises(UsageError):
        gumbel_select(np.array([0.9, 0.4]), tau=1.0, threshold=0.5)


# --- context aggregation -----------------------------------------------------------


def make_selection(n, selected, alpha_tilde=None):
    at = np.full(n, 1.0 / n) if alpha_tilde is None else alpha_tilde
    return SubgraphSelection(
        alpha=np.full(n, 1.0 / n),
        alpha_tilde=at,
        selected=np.asarray(selected, dtype=np.int64),
        gumbel_seed=None,
    )


def context_builder(h, selection):
    return lambda t, pids: build_context(t, pids, t.constant(h), t.constant(selection.alpha_tilde), [selection])


def test_context_single_node_identity_projection():
    rng = np.random.default_rng(1)
    params = small_params(4, d_struct=3, d_latent=3)
    params.values["ctx.proj"] = np.eye(3)
    h = rng.normal(size=(4, 3))
    z = run_builder(params, context_builder(h, make_selection(4, [2])))
    assert np.allclose(z, [h[2]], atol=1e-12)


def test_context_opposite_rows_cancel():
    params = small_params(4, d_struct=3, d_latent=3)
    params.values["ctx.proj"] = np.eye(3)
    u = np.array([0.3, -0.7, 1.1])
    h = np.vstack([u, -u, np.ones(3), np.zeros(3)])
    z = run_builder(params, context_builder(h, make_selection(4, [0, 1])))
    assert np.allclose(z, 0.0, atol=1e-12)


def test_context_matches_naive_sum_oracle():
    rng = np.random.default_rng(8)
    params = small_params(9, d_struct=3, d_latent=5)
    h = rng.normal(size=(9, 3))
    chosen = [1, 3, 4, 6, 8]
    z = run_builder(params, context_builder(h, make_selection(9, chosen)))
    naive = np.zeros(3)
    for v in chosen:
        naive += h[v]
    assert np.allclose(z, [naive @ params.values["ctx.proj"]], atol=1e-12)


# --- encoder / decoder ----------------------------------------------------------------


def encoder_builder(x):
    return lambda t, pids: build_encoder(t, pids, t.constant(x))


def decoder_builder(z_c, z_p):
    return lambda t, pids: build_decoder(t, pids, t.constant(z_c), t.constant(z_p))


def test_encoder_zero_weights():
    params = small_params(4, n_genes=6, d_latent=3)
    for k in ("enc.w1", "enc.w2"):
        params.values[k] = np.zeros_like(params.values[k])
    assert np.array_equal(run_builder(params, encoder_builder(np.ones(6))), np.zeros((1, 3)))


def test_encoder_identity_configuration():
    params = small_params(4, n_genes=3, d_latent=3)
    params.values["enc.w1"] = np.eye(3)
    params.values["enc.w2"] = np.eye(3)
    x = np.array([0.5, 1.5, 0.0])  # log1p values are nonnegative, relu passes them
    assert np.allclose(run_builder(params, encoder_builder(x)), [x], atol=1e-12)


def test_encoder_matches_naive_oracle():
    rng = np.random.default_rng(12)
    params = small_params(4, n_genes=5, d_latent=3, seed=12)
    x = rng.uniform(0, 2, size=5)
    v = params.values
    naive = np.maximum(x @ v["enc.w1"] + v["enc.b1"][0], 0.0) @ v["enc.w2"] + v["enc.b2"][0]
    assert np.allclose(run_builder(params, encoder_builder(x)), [naive], atol=1e-12)


def test_decoder_zero_weights():
    params = small_params(4, n_genes=6, d_latent=3)
    for k in ("dec.w1", "dec.w2"):
        params.values[k] = np.zeros_like(params.values[k])
    assert np.array_equal(run_builder(params, decoder_builder(np.ones(3), np.ones(3))), np.zeros((1, 6)))


def test_decoder_copy_pathway_reproduces_control():
    # encoder = identity, decoder copies z_c through: x_hat == xbar_c when z_p = 0
    params = small_params(4, n_genes=3, d_latent=3)
    v = params.values
    v["enc.w1"] = np.eye(3)
    v["enc.w2"] = np.eye(3)
    v["dec.w1"] = np.vstack([np.eye(3), np.zeros((3, 3))])
    v["dec.w2"] = np.eye(3)
    xbar_c = np.array([0.2, 1.0, 2.5])
    x_hat = run_builder(
        params,
        lambda t, pids: build_decoder(t, pids, build_encoder(t, pids, t.constant(xbar_c)), t.constant(np.zeros(3))),
    )
    assert np.allclose(x_hat, [xbar_c], atol=1e-12)


def test_decoder_matches_naive_oracle():
    rng = np.random.default_rng(13)
    params = small_params(4, n_genes=5, d_latent=3, seed=13)
    zc, zp = rng.normal(size=3), rng.normal(size=3)
    v = params.values
    fused = np.concatenate([zc, zp])
    naive = np.maximum(fused @ v["dec.w1"] + v["dec.b1"][0], 0.0) @ v["dec.w2"] + v["dec.b2"][0]
    assert np.allclose(run_builder(params, decoder_builder(zc, zp)), [naive], atol=1e-12)


def test_decoder_dimension_error():
    params = small_params(4, n_genes=5, d_latent=3)
    with pytest.raises(ShapeError):
        run_builder(params, decoder_builder(np.ones(2), np.ones(3)))


# --- full forward -----------------------------------------------------------------------


def test_forward_eval_deterministic(toy_problem):
    t = toy_problem
    r1 = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params, mode="eval")
    r2 = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params, mode="eval")
    assert np.array_equal(r1.x_hat, r2.x_hat)
    assert np.array_equal(r1.selection.alpha_tilde, r2.selection.alpha_tilde)
    assert np.array_equal(r1.selection.selected, r2.selection.selected)


def test_forward_train_deterministic_given_seed(toy_problem):
    t = toy_problem
    r1 = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params, mode="train", gumbel_seed=77)
    r2 = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params, mode="train", gumbel_seed=77)
    assert np.array_equal(r1.x_hat, r2.x_hat)
    r3 = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params, mode="train", gumbel_seed=78)
    assert not np.array_equal(r1.selection.alpha_tilde, r3.selection.alpha_tilde)


def test_forward_distinct_perturbations_distinct_selections(toy_problem):
    t = toy_problem
    r1 = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params, mode="eval")
    r4 = forward(t.xbar_c, "G4", t.graph, t.embeddings, t.params, mode="eval")
    assert not np.array_equal(r1.selection.alpha, r4.selection.alpha)
    assert not np.array_equal(r1.selection.selected, r4.selection.selected)


def test_forward_forces_perturbed_gene_node(toy_problem):
    t = toy_problem
    for pert in t.perts:
        for seed in range(5):
            r = forward(t.xbar_c, pert, t.graph, t.embeddings, t.params, mode="train", gumbel_seed=seed)
            assert t.vocab.index(pert) in r.selection.selected
    probs = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params).selection
    assert probs.alpha.sum() == pytest.approx(1.0, abs=1e-9)
    assert probs.alpha_tilde.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_no_context_mode():
    t = build_toy_problem(no_context=True)
    r = forward(t.xbar_c, "G1", None, None, t.params, mode="eval")
    assert r.selection is None
    assert r.x_hat.shape == (10,)
    assert np.array_equal(r.z_context, t.params.values["pert.table"][t.params.pert_index["G1"]])
    # unseen perturbation falls back to the mean of the learned rows
    r_unseen = forward(t.xbar_c, "G7", None, None, t.params, mode="eval")
    assert np.allclose(r_unseen.z_context, t.params.values["pert.table"].mean(axis=0), atol=1e-12)
    assert np.all(np.isfinite(r_unseen.x_hat))


def test_forward_unknown_pert_raises(toy_problem):
    t = toy_problem
    with pytest.raises(UsageError):
        forward(t.xbar_c, "NOPE", t.graph, t.embeddings, t.params, mode="eval")


def test_model_selection_paths_agree(toy_problem):
    # the tape computes alpha_tilde from raw scores; gumbel_select from alpha —
    # the two parameterizations must agree
    t = toy_problem
    r = forward(t.xbar_c, "G1", t.graph, t.embeddings, t.params, mode="train", gumbel_seed=5)
    sel = r.selection
    replay = gumbel_select(
        sel.alpha,
        tau=t.params.config.tau,
        threshold=t.params.config.resolve_threshold(10),
        seed=5,
        forced=t.vocab.index("G1"),
    )
    assert np.allclose(replay.alpha_tilde, sel.alpha_tilde, atol=1e-12)
    assert np.array_equal(replay.selected, sel.selected)


# --- checkpoints ------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, toy_problem):
    t = toy_problem
    jp, bp = tmp_path / "ckpt.json", tmp_path / "ckpt.bin"
    save_checkpoint(t.params, jp, bp)
    loaded = load_checkpoint(jp, bp)
    assert loaded.config == t.params.config
    assert loaded.n_nodes == t.params.n_nodes
    for name, arr in t.params.values.items():
        assert np.array_equal(loaded.values[name], arr)
    # byte determinism: saving again produces identical files
    jp2, bp2 = tmp_path / "c2.json", tmp_path / "c2.bin"
    save_checkpoint(loaded, jp2, bp2)
    assert jp.read_bytes() == jp2.read_bytes()
    assert bp.read_bytes() == bp2.read_bytes()
