import json

import numpy as np
import pytest

from pertgraph import training
from pertgraph.data import (
    PerturbationDataset,
    SynthConfig,
    split_by_perturbation,
    synth_generate,
)
from pertgraph.errors import NumericalError, UsageError
from pertgraph.loss import LossWeights
from pertgraph.model import ModelConfig, forward, init_params, save_checkpoint
from pertgraph.numerics import Tape
from pertgraph.training import (
    PREDICT_CHUNK,
    TrainConfig,
    apply_ablation,
    derive_seed,
    evaluate_batch,
    predict_profiles,
    train,
)


def synth_setup(seed=0, n_genes=60, n_perts=12, cells=10, effect=1.0, sigma=0.2):
    cfg = SynthConfig(
        n_genes=n_genes,
        n_perturbations=n_perts,
        cells_per_condition=cells,
        effect_magnitude=effect,
        noise_sigma=sigma,
        embed_dim=8,
    )
    synth = synth_generate(cfg, seed=seed)
    splits = split_by_perturbation(synth.dataset, (0.7, 0.15, 0.15), seed=seed)
    return synth, splits


def quick_config(**kw):
    defaults = dict(
        max_epochs=3,
        batch_size=8,
        learning_rate=1e-3,
        patience=3,
        seed=0,
        model=ModelConfig(n_layers=2, d_struct=8, d_latent=16, d_score=8),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# --- seeds and config -------------------------------------------------------------


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "gumbel", 0, 1) == derive_seed(7, "gumbel", 0, 1)
    assert derive_seed(7, "gumbel", 0, 1) != derive_seed(7, "gumbel", 0, 2)
    assert derive_seed(7, "init") != derive_seed(8, "init")


def test_config_validation():
    with pytest.raises(UsageError):
        quick_config(patience=10, max_epochs=3).validate()
    with pytest.raises(UsageError):
        quick_config(learning_rate=0.0).validate()
    with pytest.raises(UsageError):
        quick_config(ablation="bogus").validate()


def test_apply_ablation_modes():
    cfg = quick_config(ablation="no_non_deg", weights=LossWeights(lambda_non=0.05))
    model_cfg, weights = apply_ablation(cfg)
    assert weights.lambda_non == 0.0 and not model_cfg.no_context
    cfg2 = quick_config(ablation="no_context")
    model_cfg2, weights2 = apply_ablation(cfg2)
    assert model_cfg2.no_context and weights2.lambda_non == cfg2.weights.lambda_non
    model_cfg3, _ = apply_ablation(quick_config())
    assert not model_cfg3.no_context


def test_no_non_deg_zeroes_gradient_contribution(toy_problem):
    t = toy_problem
    zeroed = LossWeights(lambda_non=0.0, lambda_align=0.2, huber_delta=0.5)
    parts_a, grads_a, _ = evaluate_batch(
        t.params, t.perts, t.xbar_c, t.targets, t.graph, t.embeddings,
        t.deg_table, zeroed, huber_delta=0.5, mode="eval",
    )
    # raising the huber delta changes the non term but must not move any gradient
    parts_b, grads_b, _ = evaluate_batch(
        t.params, t.perts, t.xbar_c, t.targets, t.graph, t.embeddings,
        t.deg_table, zeroed, huber_delta=2.0, mode="eval",
    )
    assert parts_a.non != parts_b.non
    assert parts_a.total == parts_b.total
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name])


# --- training loop -----------------------------------------------------------------


def test_train_single_epoch_history():
    synth, splits = synth_setup()
    params, history = train(synth.dataset, splits, synth.graph, synth.embeddings, quick_config(max_epochs=1, patience=1))
    assert len(history.epochs) == 1
    assert history.epochs[0]["epoch"] == 0
    assert history.best_epoch == 0
    assert params.n_genes == 60


def test_train_deterministic_bit_identical(tmp_path):
    synth, splits = synth_setup(seed=1)
    cfg = quick_config(max_epochs=2, patience=2, seed=5)
    p1, h1 = train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)
    p2, h2 = train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)
    assert json.dumps(h1.to_json_dict()) == json.dumps(h2.to_json_dict())
    for name in p1.values:
        assert np.array_equal(p1.values[name], p2.values[name])
    a_json, a_bin = tmp_path / "a.json", tmp_path / "a.bin"
    b_json, b_bin = tmp_path / "b.json", tmp_path / "b.bin"
    save_checkpoint(p1, a_json, a_bin)
    save_checkpoint(p2, b_json, b_bin)
    assert a_bin.read_bytes() == b_bin.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()


def test_train_loss_descends_on_planted_data():
    synth, splits = synth_setup(seed=2, n_genes=60, n_perts=12, effect=1.0, sigma=0.2)
    cfg = quick_config(max_epochs=80, patience=80, batch_size=16, learning_rate=3e-3, seed=3)
    _, history = train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)
    first = history.epochs[0]["recon"]
    last = history.epochs[-1]["recon"]
    assert last < first / 10.0


def test_train_returns_best_epoch_params():
    synth, splits = synth_setup(seed=4)
    cfg = quick_config(max_epochs=12, patience=12, seed=6)
    params, history = train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)
    vals = [row["val_pearson_delta"] for row in history.epochs]
    assert history.best_epoch == int(np.argmax(vals))
    assert vals[history.best_epoch] == max(vals)
    # the returned parameters reproduce the best epoch's validation score
    from pertgraph.training import _validation_pearson

    xbar_c = synth.dataset.control.mean(axis=0)
    val_truth = {p: synth.dataset.block(p).mean(axis=0) - xbar_c for p in splits.val}
    score = _validation_pearson(params, xbar_c, val_truth, synth.graph, synth.embeddings)
    assert score == pytest.approx(vals[history.best_epoch], abs=1e-12)


def test_train_early_stopping_truncates():
    # an oversized learning rate makes the validation monitor oscillate, so
    # patience ends the run long before max_epochs
    synth, splits = synth_setup(seed=5)
    cfg = quick_config(max_epochs=40, patience=3, seed=7, learning_rate=0.1)
    _, history = train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)
    assert len(history.epochs) < 40
    assert history.best_epoch < len(history.epochs) - 1  # best is not the last epoch


def test_train_never_reads_test_blocks(monkeypatch):
    synth, splits = synth_setup(seed=6)
    touched: list[str] = []
    original = PerturbationDataset.block

    def counting_block(self, name):
        touched.append(name)
        return original(self, name)

    monkeypatch.setattr(PerturbationDataset, "block", counting_block)
    train(synth.dataset, splits, synth.graph, synth.embeddings, quick_config(max_epochs=2, patience=2))
    assert touched, "instrumentation saw no accesses"
    assert not (set(touched) & set(splits.test))
    assert set(touched) <= set(splits.train) | set(splits.val)


def test_train_empty_train_split_rejected():
    synth, splits = synth_setup(seed=7)
    from pertgraph.data import SplitSpec

    bad = SplitSpec(train=(), val=splits.val, test=splits.test, seed=0)
    with pytest.raises(UsageError):
        train(synth.dataset, bad, synth.graph, synth.embeddings, quick_config())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_nan_aborts_with_diagnostic():
    synth, splits = synth_setup(seed=8)
    cfg = quick_config(max_epochs=50, patience=50, optimizer="sgd", learning_rate=1e14)
    with pytest.raises(NumericalError, match="epoch"):
        train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)


def test_train_ablations_run_end_to_end():
    synth, splits = synth_setup(seed=9)
    for ablation in ("no_context", "no_non_deg"):
        cfg = quick_config(max_epochs=2, patience=2, ablation=ablation)
        params, history = train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)
        assert history.config["ablation"] == ablation
        if ablation == "no_non_deg":
            assert history.config["lambda_non"] == 0.0
        if ablation == "no_context":
            assert "pert.table" in params.values
            # unseen test perturbations still produce well-formed output
            xbar_c = synth.dataset.control.mean(axis=0)
            preds = predict_profiles(params, xbar_c, list(splits.test), None, None)
            for x in preds.values():
                assert np.all(np.isfinite(x))


@pytest.mark.parametrize(
    "option",
    [{"weighted_aggregation": True}, {"selection_mode": "top_m", "select_top_m": 3}],
    ids=["weighted_aggregation", "top_m"],
)
def test_train_model_options_run_end_to_end(option):
    synth, splits = synth_setup(seed=11)
    model = ModelConfig(n_layers=2, d_struct=8, d_latent=16, d_score=8, **option)
    cfg = quick_config(max_epochs=2, patience=2, model=model)
    _, history = train(synth.dataset, splits, synth.graph, synth.embeddings, cfg)
    for key, value in option.items():
        assert history.config["model"][key] == value
    assert all(np.isfinite(row["total"]) for row in history.epochs)


# --- batched prediction ----------------------------------------------------------------


@pytest.mark.parametrize("no_context", [False, True], ids=["context", "no_context"])
def test_predict_profiles_matches_per_perturbation_forward(no_context):
    synth, _ = synth_setup(seed=12, n_genes=PREDICT_CHUNK + 8)
    perts = synth.dataset.vocab.names[: PREDICT_CHUNK + 5]
    config = ModelConfig(n_layers=2, d_struct=8, d_latent=16, d_score=8, no_context=no_context)
    params = init_params(
        synth.graph.n_nodes, synth.dataset.n_genes, synth.embeddings.dim, config, seed=4,
        train_perts=synth.dataset.pert_names(),
    )
    xbar_c = synth.dataset.control.mean(axis=0)
    graph, emb = (None, None) if no_context else (synth.graph, synth.embeddings)
    preds = predict_profiles(params, xbar_c, perts, graph, emb)
    assert list(preds) == perts
    for p in perts:
        single = forward(xbar_c, p, graph, emb, params, mode="eval").x_hat
        assert np.allclose(preds[p], single, rtol=0.0, atol=1e-12)


def test_predict_profiles_allocates_no_gradient_buffers(monkeypatch, toy_problem):
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(training, "Tape", RecordingTape)
    t = toy_problem
    predict_profiles(t.params, t.xbar_c, t.perts, t.graph, t.embeddings)
    assert tapes
    assert all(node.grad.nbytes == 0 for tape in tapes for node in tape.nodes)


def test_history_json_round_trip(tmp_path):
    synth, splits = synth_setup(seed=10)
    _, history = train(synth.dataset, splits, synth.graph, synth.embeddings, quick_config(max_epochs=1, patience=1))
    path = tmp_path / "history.json"
    history.save(path)
    loaded = json.loads(path.read_text())
    assert loaded["best_epoch"] == history.best_epoch
    assert loaded["epochs"][0]["recon"] == history.epochs[0]["recon"]
    assert loaded["config"]["lambda_non"] == history.config["lambda_non"]
