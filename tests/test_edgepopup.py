"""Rotation-circuit mask trainer: probabilities, gradients, clamping, training."""
import math

import numpy as np
import pytest

from conftest import make_planted_task
from qns import masknet, qsim
from qns.edgepopup import (
    THETA_CLAMP,
    PopupLayerCircuit,
    PopupTrainConfig,
    init_circuits,
    masked_loss,
    popup_train,
    popup_update,
    prob_one,
    sample_mask,
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
        qsim.apply_h(state, 0)
        qsim.apply_ry(state, 0, float(theta))
        assert abs(state.probabilities()[1] - prob_one(float(theta))) < 1e-12


def test_prob_one_is_strictly_increasing():
    thetas = np.linspace(-THETA_CLAMP, THETA_CLAMP, 101)
    probs = prob_one(thetas)
    assert np.all(np.diff(probs) > 0)


def test_sample_mask_extremes_and_frequency():
    rng = np.random.default_rng(0)
    ones = PopupLayerCircuit(np.full((3, 3), math.pi / 2))
    np.testing.assert_array_equal(sample_mask(ones, rng), 1.0)
    zeros = PopupLayerCircuit(np.full((3, 3), -math.pi / 2))
    np.testing.assert_array_equal(sample_mask(zeros, rng), 0.0)

    half = PopupLayerCircuit(np.zeros((1, 1)))
    draws = [sample_mask(half, rng)[0, 0] for _ in range(10000)]
    assert abs(np.mean(draws) - 0.5) < 0.015  # binomial 3 sigma


def test_sample_mask_is_seed_deterministic():
    circ = PopupLayerCircuit(np.zeros((4, 2)))
    a = sample_mask(circ, np.random.default_rng(3))
    b = sample_mask(circ, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_clamp_enforced_on_construction():
    with pytest.raises(ValueError):
        PopupLayerCircuit(np.array([[2.0]]))


def test_scalar_update_matches_hand_derivation():
    """1x1 identity layer, w=1, x=1, y=0, mask 1: delta theta = -alpha."""
    net = network_from_weights([LayerSpec(1, 1, Activation.IDENTITY)], [[[1.0]]])
    circs = init_circuits(net)
    cfg = PopupTrainConfig(alpha=0.25, epochs=1, seed=0)
    loss = popup_update(net, circs, np.array([1.0]), np.array([0.0]), cfg,
                        masks=[np.ones((1, 1))])
    assert loss == 1.0
    assert circs[0].thetas[0, 0] == -0.25


def test_zero_alpha_is_a_no_op():
    net = masknet.init_network(POPUP_LAYERS, seed=1)
    circs = init_circuits(net)
    cfg = PopupTrainConfig(alpha=0.0, epochs=1, seed=0)
    popup_update(net, circs, np.array([0.5, -0.5]), np.array([0.1]), cfg)
    for circ in circs:
        np.testing.assert_array_equal(circ.thetas, 0.0)


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
    for circ in result.circuits:
        assert np.all(np.abs(circ.thetas) <= THETA_CLAMP)
    for w, snap in zip(net.weights, snapshot):
        np.testing.assert_array_equal(w, snap)


def test_train_contract_epochs_and_curve():
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=3, n_samples=8)
    none = popup_train(net, data, PopupTrainConfig(alpha=0.1, epochs=0, seed=0))
    assert none.loss_curve == []
    for circ in none.circuits:
        np.testing.assert_array_equal(circ.thetas, 0.0)

    result = popup_train(net, data, PopupTrainConfig(alpha=0.1, epochs=7, seed=0))
    assert len(result.loss_curve) == 7


def test_threshold_and_topk_masks():
    circ = PopupLayerCircuit(np.array([[0.5, -0.2], [0.0, 0.3]]))
    np.testing.assert_array_equal(threshold_mask(circ),
                                  [[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(topk_mask(circ, 0.5),
                                  [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        topk_mask(circ, 0.0)


def test_final_mask_uses_threshold_rule():
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=5, n_samples=8)
    result = popup_train(net, data, PopupTrainConfig(alpha=0.2, epochs=3, seed=1))
    for mask, circ in zip(result.final_masks, result.circuits):
        np.testing.assert_array_equal(mask, threshold_mask(circ))
    loss = masked_loss(net, result.final_masks, data)
    assert loss == result.loss_curve[-1]


def test_per_epoch_resampling_is_available():
    net, data, _ = make_planted_task(POPUP_LAYERS, seed=6, n_samples=8)
    cfg = PopupTrainConfig(alpha=0.1, epochs=3, seed=2, resample="per_epoch")
    result = popup_train(net, data, cfg)
    assert len(result.loss_curve) == 3
