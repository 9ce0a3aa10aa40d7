"""Hybrid rotation-circuit trainer for mask selection.

Every weight gets one qubit prepared as H then Ry(theta), so it survives
masking with probability (1 + sin theta)/2. Sampled masks drive the forward
pass; a straight-through backward pass (masks treated as all-ones) updates
the rotation angles, which stay clamped to [-pi/2, pi/2]. The circuits are
product states, so sampling is done per qubit analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import masknet
from .masknet import Activation, Dataset, MaskedNetwork

THETA_CLAMP = math.pi / 2.0


class ResampleRule(str, Enum):
    PER_SAMPLE = "per_sample"
    PER_EPOCH = "per_epoch"


@dataclass
class PopupLayerCircuit:
    """One rotation angle per weight of a layer; |theta| <= pi/2 always."""

    thetas: np.ndarray

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=np.float64)
        if np.any(np.abs(self.thetas) > THETA_CLAMP):
            raise ValueError("thetas outside the clamp range [-pi/2, pi/2]")


@dataclass
class PopupTrainConfig:
    alpha: float = 0.05
    epochs: int = 20
    seed: int = 0
    resample: ResampleRule = ResampleRule.PER_SAMPLE
    topk_fraction: float | None = None  # per-layer top-k% rule instead of threshold

    def __post_init__(self):
        # alpha 0 is allowed as a degenerate probe: updates become no-ops.
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def prob_one(theta):
    """P(measure 1) after H then Ry(theta) on |0>: (1 + sin theta)/2."""
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(np.abs(theta) > THETA_CLAMP + 1e-12):
        raise ValueError("theta outside the clamp range [-pi/2, pi/2]")
    value = (1.0 + np.sin(theta)) / 2.0
    return float(value) if value.ndim == 0 else value


def init_circuits(net: MaskedNetwork) -> list[PopupLayerCircuit]:
    """All angles zero: every weight starts with keep-probability 1/2."""
    return [PopupLayerCircuit(np.zeros((s.fan_in, s.fan_out))) for s in net.specs]


def sample_mask(circ: PopupLayerCircuit, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draw per entry with probability prob_one(theta)."""
    return (rng.random(circ.thetas.shape) < prob_one(circ.thetas)).astype(np.float64)


def threshold_mask(circ: PopupLayerCircuit) -> np.ndarray:
    """Deterministic rule: keep an edge iff prob_one(theta) >= 1/2 (theta >= 0)."""
    return (circ.thetas >= 0.0).astype(np.float64)


def topk_mask(circ: PopupLayerCircuit, fraction: float) -> np.ndarray:
    """Keep the top fraction of this layer's edges ranked by keep-probability."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    flat = circ.thetas.ravel()
    k = max(1, int(round(fraction * flat.size)))
    order = np.argsort(-flat, kind="stable")[:k]
    mask = np.zeros(flat.size)
    mask[order] = 1.0
    return mask.reshape(circ.thetas.shape)


def _deterministic_masks(circs, cfg: PopupTrainConfig) -> list[np.ndarray]:
    if cfg.topk_fraction is not None:
        return [topk_mask(c, cfg.topk_fraction) for c in circs]
    return [threshold_mask(c) for c in circs]


def straight_through_grads(net: MaskedNetwork, masks, x: np.ndarray,
                           y: np.ndarray):
    """Forward with the given masks, backward as if every mask entry were 1.

    Returns (loss, per-layer dL/dI arrays, per-layer input activations).
    dL/dI[i][v] is the loss gradient with respect to the pre-activation of
    neuron v in layer i; activations[i][u] is the masked-forward output
    feeding layer i.
    """
    x = np.asarray(x, dtype=np.float64)
    layers = masknet.masked_layers(net, x, masks)

    diff = layers[-1][1] - np.asarray(y, dtype=np.float64)
    loss = float(np.linalg.norm(diff))
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss in popup update")
    grad_out = diff / loss if loss > 0 else np.zeros_like(diff)

    grads = [None] * net.depth
    g = grad_out
    for i in reversed(range(net.depth)):
        if net.specs[i].activation is Activation.RELU:
            g = g * (layers[i][0] > 0)
        grads[i] = g
        g = g @ net.weights[i].T  # full weights: the straight-through pass
    return loss, grads, [x] + [z for _, z in layers[:-1]]


def popup_update(net: MaskedNetwork, circs, x, y, cfg: PopupTrainConfig,
                 masks=None, rng: np.random.Generator | None = None) -> float:
    """One sample step: sample masks, forward, straight-through update, clamp."""
    if masks is None:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        masks = [sample_mask(c, rng) for c in circs]
    try:
        loss, grads, acts = straight_through_grads(net, masks, x, y)
    except FloatingPointError as err:
        raise FloatingPointError(f"{err} (input {np.asarray(x)!r})") from err
    for i, circ in enumerate(circs):
        step = np.outer(acts[i], grads[i]) * net.weights[i]
        circ.thetas = np.clip(circ.thetas - cfg.alpha * step,
                              -THETA_CLAMP, THETA_CLAMP)
    return loss


@dataclass
class PopupTrainResult:
    circuits: list[PopupLayerCircuit]
    loss_curve: list[float]
    final_masks: list[np.ndarray]


def popup_train(net: MaskedNetwork, data: Dataset,
                cfg: PopupTrainConfig) -> PopupTrainResult:
    """Iterate sample updates over shuffled epochs.

    The loss curve records the dataset loss under the deterministic
    threshold mask after every epoch; the final mask uses the same rule
    (or the per-layer top-k rule when configured).
    """
    rng = np.random.default_rng(cfg.seed)
    circs = init_circuits(net)
    loss_curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        epoch_masks = None
        if cfg.resample is ResampleRule.PER_EPOCH:
            epoch_masks = [sample_mask(c, rng) for c in circs]
        for idx in order:
            masks = epoch_masks or [sample_mask(c, rng) for c in circs]
            try:
                popup_update(net, circs, data.inputs[idx], data.targets[idx],
                             cfg, masks=masks)
            except FloatingPointError as err:
                raise FloatingPointError(f"sample {idx}: {err}") from err
        eval_masks = _deterministic_masks(circs, cfg)
        loss_curve.append(masked_loss(net, eval_masks, data))
    return PopupTrainResult(circs, loss_curve, _deterministic_masks(circs, cfg))


def masked_loss(net: MaskedNetwork, masks, data: Dataset) -> float:
    """Dataset loss of ``net`` under explicit per-layer masks."""
    return masknet.dataset_loss(masknet._view(net, masks), data)
