"""Rotation-circuit mask trainer: probabilities, gradients, clamping, training."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
from conftest import make_planted_task
from qns import edgepopup, masknet, qsim
from qns.edgepopup import (
    THETA_CLAMP,
    PopupTrainConfig,
    ResampleRule,
    masked_loss,
    popup_train,
    popup_update,
    prob_one,
    straight_through_grads,
    threshold_mask,
    topk_mask,
)
from qns.masknet import Activation, LayerSpec, network_from_weights

POPUP_LAYERS = ((2, 8, "relu"), (8, 1, "identity"))


def test_prob_one_values():
    assert prob_one(0.0) == 0.5
    assert prob_one(math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert prob_one(-math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        prob_one(2.0)


def test_prob_one_matches_single_qubit_circuit():
    """The analytic (1+sin)/2 equals the simulated H then Ry measurement."""
    for theta in np.linspace(-math.pi / 2, math.pi / 2, 9):
        state = qsim.StateVector(1)
        reference.apply_h(state, 0)
        reference.apply_ry(state, 0, float(theta))
        assert abs(state.probabilities()[1] - prob_one(float(theta))) < 1e-12


def test_prob_one_is_strictly_increasing():
    thetas = np.linspace(-THETA_CLAMP, THETA_CLAMP, 101)
    probs = prob_one(thetas)
    assert np.all(np.diff(probs) > 0)


def _zero_thetas(net):
    return np.zeros(sum(w.size for w in net.weights))


def _step(net, thetas, masks, x, y, alpha):
    """popup_update under per-layer ``masks``, drawn into a training's buffers."""
    work = edgepopup._StepBuffers(net)
    work.mask_bits[:] = np.concatenate([np.ravel(m) for m in masks])
    return popup_update(net, thetas, x, y, alpha, work)


def _recorded_draws(monkeypatch, net, data, cfg):
    """(angles before the step, flat mask) of every per-sample step of a training."""
    steps = []

    def recording_update(net, thetas, x, y, alpha, work):
        steps.append((thetas.copy(), work.mask_bits.copy()))
        return popup_update(net, thetas, x, y, alpha, work)

    monkeypatch.setattr(edgepopup, "popup_update", recording_update)
    popup_train(net, data, cfg)
    return steps


def test_sample_mask_extremes_and_frequency(monkeypatch):
    """Per-sample masks keep an edge with probability prob_one(theta): always
    at pi/2, never at -pi/2, half the time at 0."""
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=2, n_samples=16)
    steps = _recorded_draws(monkeypatch, net, data,
                            PopupTrainConfig(alpha=100.0, epochs=4, seed=1))
    thetas = np.stack([t for t, _ in steps])
    masks = np.stack([m for _, m in steps])
    assert np.any(thetas == THETA_CLAMP) and np.any(thetas == -THETA_CLAMP)
    np.testing.assert_array_equal(masks[thetas == THETA_CLAMP], 1.0)
    np.testing.assert_array_equal(masks[thetas == -THETA_CLAMP], 0.0)

    monkeypatch.undo()
    steps = _recorded_draws(monkeypatch, net, data,
                            PopupTrainConfig(alpha=0.0, epochs=40, seed=1))
    draws = np.concatenate([m for _, m in steps])  # 40 * 16 * 16 draws at theta 0
    assert abs(np.mean(draws) - 0.5) < 0.015  # binomial 3 sigma


def test_sample_mask_is_seed_deterministic(monkeypatch):
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=2, n_samples=6)
    a, b, c = (_recorded_draws(monkeypatch, net, data,
                               PopupTrainConfig(alpha=0.1, epochs=2, seed=seed))
               for seed in (3, 3, 4))
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b, strict=True))
    assert not all(np.array_equal(x[1], y[1]) for x, y in zip(a, c, strict=True))


def test_scalar_update_matches_hand_derivation():
    """1x1 identity layer, w=1, x=1, y=0, mask 1: delta theta = -alpha."""
    net = network_from_weights([LayerSpec(1, 1, Activation.IDENTITY)], [[[1.0]]])
    thetas = _zero_thetas(net)
    loss = _step(net, thetas, [np.ones((1, 1))], np.array([1.0]), np.array([0.0]), 0.25)
    assert loss == 1.0
    assert thetas[0] == -0.25


def test_zero_alpha_is_a_no_op():
    net = masknet.init_network(POPUP_LAYERS, seed=1)
    thetas = _zero_thetas(net)
    masks = [(np.random.default_rng(0).random(w.shape) < 0.5).astype(float)
             for w in net.weights]
    _step(net, thetas, masks, np.array([0.5, -0.5]), np.array([0.1]), 0.0)
    np.testing.assert_array_equal(thetas, 0.0)


def test_update_equals_the_reference_step():
    """Drawn single steps, zero-loss samples and angles at the clamp included."""
    rng = np.random.default_rng(5)
    layer_sets = ([(2, 3, "relu"), (3, 1, "identity")],
                  [(3, 4, "relu"), (4, 4, "identity"), (4, 2, "identity")],
                  [(4, 1, "identity")])
    for case in range(60):
        layers = layer_sets[case % len(layer_sets)]
        net = masknet.init_network(layers, seed=case)
        thetas = rng.choice([-THETA_CLAMP, 0.3, THETA_CLAMP, -1.0],
                            size=sum(w.size for w in net.weights))
        before = [t.copy() for t in masknet.layer_views(thetas, net)]
        masks = [(rng.random(w.shape) < 0.6).astype(float) for w in net.weights]
        x = rng.normal(size=layers[0][0])
        y = rng.normal(size=layers[-1][1])
        if case % 4 == 0:
            y = masknet.masked_layers(net, x, masks)[-1][1]  # a zero loss
        alpha = float(rng.choice([0.0, 0.05, 0.5, 100.0]))
        loss = _step(net, thetas, masks, x, y, alpha)
        assert loss == float(np.linalg.norm(masknet.masked_layers(net, x, masks)[-1][1] - y))
        assert (loss == 0.0) == (case % 4 == 0)
        expected = reference._update(net, before, masks, x, y, alpha)
        for ours, theirs in zip(masknet.layer_views(thetas, net), expected, strict=True):
            assert np.array_equal(ours, theirs)


def test_angle_j_and_mask_bit_j_address_the_same_weight():
    """The angle vector and a flat mask share one order: keeping only angle
    j's edge keeps the weight that mask bit j alone keeps."""
    net = masknet.init_network([(2, 3, "relu"), (3, 2, "identity")], seed=8)
    n_angles = sum(w.size for w in net.weights)
    for j in range(n_angles):
        thetas = np.full(n_angles, -0.3)
        thetas[j] = 0.3
        bits = np.zeros(net.total_maskable(), dtype=np.uint8)
        bits[j] = 1
        view = masknet.apply_flat_mask(net, bits)
        kept = [threshold_mask(t) for t in masknet.layer_views(thetas, net)]
        for ours, theirs in zip(kept, view.masks, strict=True):
            assert np.array_equal(ours, theirs)


def test_per_sample_training_takes_one_popup_update_per_sample(monkeypatch):
    """The per-sample rule steps through popup_update, once per sample per epoch."""
    calls = []

    def counting_update(*args, **kwargs):
        calls.append(1)
        return popup_update(*args, **kwargs)

    monkeypatch.setattr(edgepopup, "popup_update", counting_update)
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=2, n_samples=9)
    popup_train(net, data, PopupTrainConfig(alpha=0.2, epochs=4, seed=1))
    assert len(calls) == 4 * 9


def test_config_checks_resample_and_topk_at_construction():
    assert PopupTrainConfig(resample="per_epoch").resample is ResampleRule.PER_EPOCH
    with pytest.raises(ValueError, match="resample"):
        PopupTrainConfig(resample="bogus")
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="topk_fraction"):
            PopupTrainConfig(topk_fraction=bad)
    assert PopupTrainConfig(topk_fraction=1.0).topk_fraction == 1.0


def test_straight_through_matches_finite_differences():
    """Central differences on pre-activation injections, identity network."""
    net = masknet.init_network([(2, 3, "identity"), (3, 1, "identity")], seed=11)
    x = np.array([0.7, -0.4])
    y = np.array([0.3])
    masks = [np.ones_like(w) for w in net.weights]
    _, grads, _ = straight_through_grads(net, masks, x, y)

    def loss_with_offset(layer, neuron, h):
        z = x
        for i in range(net.depth):
            a = z @ net.weights[i] + net.biases[i]
            if i == layer:
                a = a.copy()
                a[neuron] += h
            z = a
        return np.linalg.norm(z - y)

    h = 1e-6
    for layer in range(net.depth):
        for v in range(net.specs[layer].fan_out):
            fd = (loss_with_offset(layer, v, h) - loss_with_offset(layer, v, -h)) / (2 * h)
            assert abs(fd - grads[layer][v]) <= 1e-5 * max(abs(fd), 1e-9)


def test_straight_through_equals_standard_backprop_with_full_masks():
    """With every mask entry 1 the two backward passes are the same floats."""
    net = masknet.init_network([(3, 4, "identity"), (4, 2, "identity")], seed=3)
    x = np.array([0.2, -1.0, 0.4])
    y = np.array([0.5, 0.1])
    masks = [np.ones_like(w) for w in net.weights]
    loss, grads, acts = straight_through_grads(net, masks, x, y)

    # reference: ordinary backprop through the masked weights
    pre = []
    z = x
    for i in range(net.depth):
        z = z @ (masks[i] * net.weights[i]) + net.biases[i]
        pre.append(z)
    diff = pre[-1] - y
    g = diff / np.linalg.norm(diff)
    ref = [None, None]
    for i in reversed(range(net.depth)):
        ref[i] = g
        g = g @ (masks[i] * net.weights[i]).T
    for mine, theirs in zip(grads, ref):
        np.testing.assert_array_equal(mine, theirs)


def test_train_clamp_invariant_and_weight_immutability():
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=2, n_samples=16)
    snapshot = [w.copy() for w in net.weights]
    cfg = PopupTrainConfig(alpha=0.5, epochs=20, seed=4)
    result = popup_train(net, data, cfg)
    for thetas in result.thetas:
        assert np.all(np.abs(thetas) <= THETA_CLAMP)
    for w, snap in zip(net.weights, snapshot):
        np.testing.assert_array_equal(w, snap)


def test_train_contract_epochs_and_curve():
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=3, n_samples=8)
    none = popup_train(net, data, PopupTrainConfig(alpha=0.1, epochs=0, seed=0))
    assert none.loss_curve == []
    for thetas in none.thetas:
        np.testing.assert_array_equal(thetas, 0.0)

    result = popup_train(net, data, PopupTrainConfig(alpha=0.1, epochs=7, seed=0))
    assert len(result.loss_curve) == 7


def test_threshold_and_topk_masks():
    thetas = np.array([[0.5, -0.2], [0.0, 0.3]])
    np.testing.assert_array_equal(threshold_mask(thetas),
                                  [[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(topk_mask(thetas, 0.5),
                                  [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        topk_mask(thetas, 0.0)


def test_final_mask_uses_threshold_rule():
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=5, n_samples=8)
    result = popup_train(net, data, PopupTrainConfig(alpha=0.2, epochs=3, seed=1))
    for mask, thetas in zip(result.final_masks, result.thetas):
        np.testing.assert_array_equal(mask, threshold_mask(thetas))
    loss = masked_loss(net, result.final_masks, data)
    assert loss == result.loss_curve[-1]


def _assert_same_training(a, b):
    assert a.loss_curve == b.loss_curve
    for x, y in zip(a.thetas, b.thetas, strict=True):
        assert np.array_equal(x, y)
    for x, y in zip(a.final_masks, b.final_masks, strict=True):
        assert np.array_equal(x, y)


def test_per_epoch_resampling_is_available():
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=6, n_samples=8)
    cfg = PopupTrainConfig(alpha=0.1, epochs=3, seed=2, resample="per_epoch")
    result = popup_train(net, data, cfg)
    assert len(result.loss_curve) == 3
    _assert_same_training(result, reference.popup_train(net, data, cfg))
    per_sample = reference.popup_train(
        net, data, PopupTrainConfig(alpha=0.1, epochs=3, seed=2, resample="per_sample"))
    assert not all(np.array_equal(x, y)
                   for x, y in zip(result.thetas, per_sample.thetas))


@st.composite
def _popup_cases(draw):
    depth = draw(st.integers(1, 3))
    widths = [draw(st.integers(1, 4)) for _ in range(depth + 1)]
    layers = [(widths[i], widths[i + 1],
               "identity" if i == depth - 1 else draw(st.sampled_from(["relu", "identity"])))
              for i in range(depth)]
    cfg = PopupTrainConfig(
        alpha=draw(st.sampled_from([0.0, 0.05, 0.5, 100.0])),
        epochs=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 2**16)),
        resample=draw(st.sampled_from(list(ResampleRule))),
        topk_fraction=draw(st.sampled_from([None, 0.5])))
    return layers, draw(st.integers(0, 2**16)), draw(st.integers(1, 9)), cfg


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_popup_cases())
@example(([(2, 3, "relu"), (3, 1, "identity")], 1, 8,
          PopupTrainConfig(alpha=100.0, epochs=3, seed=1, resample="per_epoch")))
@example(([(2, 3, "relu"), (3, 1, "identity")], 1, 8,
          PopupTrainConfig(alpha=100.0, epochs=3, seed=1, resample="per_sample")))
def test_popup_train_matches_the_per_sample_loop(case):
    """Angles, loss curve and final masks equal the plain loop's bit for bit."""
    layers, task_seed, n_samples, cfg = case
    net, data, _ = make_planted_task(layers, task_seed, n_samples=n_samples)
    _assert_same_training(popup_train(net, data, cfg),
                          reference.popup_train(net, data, cfg))


@pytest.mark.parametrize("resample", list(ResampleRule))
def test_clamped_training_matches_the_per_sample_loop(resample):
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=5, n_samples=12)
    cfg = PopupTrainConfig(alpha=100.0, epochs=4, seed=3, resample=resample,
                           topk_fraction=0.5)
    result = popup_train(net, data, cfg)
    assert any(np.any(np.abs(t) == THETA_CLAMP) for t in result.thetas)
    _assert_same_training(result, reference.popup_train(net, data, cfg))


@pytest.mark.parametrize("alpha", [0.05, 100.0])
@pytest.mark.parametrize("resample", list(ResampleRule))
def test_popup_train_matches_the_per_sample_loop_at_benchmark_widths(resample, alpha):
    """Width 16 and 128 samples, the benchmark's shape: its matrix-vector
    products take BLAS paths that the drawn widths of at most 4 do not."""
    net, data, _ = make_planted_task(((4, 16, "relu"), (16, 16, "relu"),
                                      (16, 1, "identity")), seed=7, n_samples=128)
    cfg = PopupTrainConfig(alpha=alpha, epochs=3, seed=2, resample=resample)
    result = popup_train(net, data, cfg)
    clamped = any(np.any(np.abs(t) == THETA_CLAMP) for t in result.thetas)
    assert clamped == (alpha == 100.0)
    _assert_same_training(result, reference.popup_train(net, data, cfg))


def test_popup_update_names_a_bad_input():
    """popup_train refuses data of the wrong width before any step."""
    net = masknet.init_network([(2, 3, "relu"), (3, 1, "identity")], seed=1)
    narrow = masknet.Dataset(np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="inputs have width 1, the network takes 2"):
        popup_train(net, narrow, PopupTrainConfig(epochs=1))


@pytest.mark.parametrize("resample", list(ResampleRule))
def test_non_finite_loss_names_the_first_sample_in_shuffled_order(resample):
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=4, n_samples=10)
    bad = {2, 7}
    data.targets[sorted(bad)] = np.inf
    cfg = PopupTrainConfig(alpha=0.1, epochs=2, seed=6, resample=resample)
    order = np.random.default_rng(cfg.seed).permutation(len(data))
    first = next(idx for idx in order if idx in bad)
    with pytest.raises(FloatingPointError) as ours:
        popup_train(net, data, cfg)
    with pytest.raises(FloatingPointError) as loop:
        reference.popup_train(net, data, cfg)
    assert str(ours.value).startswith(f"sample {first}: non-finite loss")
    assert str(ours.value) == str(loop.value)


@pytest.mark.parametrize("resample", list(ResampleRule))
def test_empty_dataset_fails_as_the_per_sample_loop_does(resample):
    net = masknet.init_network(POPUP_LAYERS, seed=1)
    empty = masknet.Dataset(np.empty((0, 2)), np.empty((0, 1)))
    cfg = PopupTrainConfig(epochs=1, resample=resample)
    with pytest.raises(ValueError, match="dataset is empty"):
        reference.popup_train(net, empty, cfg)
    with pytest.raises(ValueError, match="dataset is empty"):
        popup_train(net, empty, cfg)


def test_stacked_straight_through_rows_equal_single_calls():
    net = masknet.init_network([(3, 5, "relu"), (5, 4, "relu"), (4, 2, "identity")],
                               seed=8)
    rng = np.random.default_rng(0)
    xs, ys = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    masks = [(rng.random(w.shape) < 0.5).astype(float) for w in net.weights]
    ys[4] = masknet.masked_layers(net, xs[4], masks)[-1][1]  # a zero loss
    losses, grads, acts = straight_through_grads(net, masks, xs[:, None, :],
                                                 ys[:, None, :])
    assert losses.shape == (6, 1) and losses[4, 0] == 0.0
    for k in range(6):
        loss, g1, a1 = straight_through_grads(net, masks, xs[k], ys[k])
        assert losses[k, 0] == loss
        for stacked, single in zip(grads + acts, g1 + a1, strict=True):
            assert np.array_equal(stacked[k, 0], single)
