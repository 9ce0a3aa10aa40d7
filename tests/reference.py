"""Slow, obviously-correct references that the tests hold faster code to.

``popup_train`` is the edge-popup trainer as a plain per-sample loop: every
sample draws its masks layer by layer (or reuses the epoch's), runs one
forward and straight-through backward on its own, and moves and clamps each
layer's angles separately. ``qns.edgepopup.popup_train`` must give the same
angles, loss curve and final masks bit for bit.

``flat_mask_from_index`` decodes one table index into a mask, and
``fit_identity_teacher`` fits a least-squares teacher layer.
"""
from __future__ import annotations

import numpy as np

from qns import masknet
from qns.bitstrings import index_to_bits
from qns.edgepopup import (
    THETA_CLAMP,
    PopupTrainResult,
    PopupLayerCircuit,
    ResampleRule,
    masked_loss,
    threshold_mask,
    topk_mask,
)
from qns.masknet import Activation, LayerSpec


def _sample_mask(thetas, rng):
    return (rng.random(thetas.shape) < (1.0 + np.sin(thetas)) / 2.0).astype(np.float64)


def _update(net, thetas, masks, x, y, alpha):
    """One sample's straight-through step; returns the new per-layer angles."""
    layers = masknet.masked_layers(net, x, masks)
    diff = layers[-1][1] - y
    loss = float(np.linalg.norm(diff))
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss in popup update (input {x!r})")
    g = diff / loss if loss > 0 else np.zeros_like(diff)
    grads = [None] * net.depth
    for i in reversed(range(net.depth)):
        if net.specs[i].activation is Activation.RELU:
            g = g * (layers[i][0] > 0)
        grads[i] = g
        g = g @ net.weights[i].T
    acts = [x] + [z for _, z in layers[:-1]]
    return [np.clip(t - alpha * (np.outer(a, gr) * w), -THETA_CLAMP, THETA_CLAMP)
            for t, a, gr, w in zip(thetas, acts, grads, net.weights)]


def _final_masks(thetas, topk_fraction):
    circs = [PopupLayerCircuit(t) for t in thetas]
    if topk_fraction is not None:
        return [topk_mask(c, topk_fraction) for c in circs]
    return [threshold_mask(c) for c in circs]


def popup_train(net, data, cfg) -> PopupTrainResult:
    rng = np.random.default_rng(cfg.seed)
    thetas = [np.zeros((s.fan_in, s.fan_out)) for s in net.specs]
    loss_curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        epoch_masks = None
        if cfg.resample is ResampleRule.PER_EPOCH:
            epoch_masks = [_sample_mask(t, rng) for t in thetas]
        for idx in order:
            masks = epoch_masks or [_sample_mask(t, rng) for t in thetas]
            try:
                thetas = _update(net, thetas, masks, data.inputs[idx],
                                 data.targets[idx], cfg.alpha)
            except FloatingPointError as err:
                raise FloatingPointError(f"sample {idx}: {err}") from err
        loss_curve.append(masked_loss(net, _final_masks(thetas, cfg.topk_fraction), data))
    circs = [PopupLayerCircuit(t) for t in thetas]
    return PopupTrainResult(circs, loss_curve, _final_masks(thetas, cfg.topk_fraction))


def flat_mask_from_index(net, index):
    return masknet.flat_mask(net, index_to_bits(index, net.total_maskable()))


def fit_identity_teacher(data):
    """A single identity layer fit to ``data`` by least squares, with a bias."""
    x = np.hstack([data.inputs, np.ones((len(data), 1))])
    coef, *_ = np.linalg.lstsq(x, data.targets, rcond=None)
    weights, bias = coef[:-1], coef[-1]
    spec = LayerSpec(weights.shape[0], weights.shape[1], Activation.IDENTITY)
    return masknet.network_from_weights([spec], [weights], [bias])
