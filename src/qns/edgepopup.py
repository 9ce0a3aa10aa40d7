"""Hybrid rotation-circuit trainer for mask selection.

Every weight gets one qubit prepared as H then Ry(theta), so it survives
masking with probability (1 + sin theta)/2. Sampled masks drive the forward
pass; a straight-through backward pass (masks treated as all-ones) updates
the rotation angles, which stay clamped to [-pi/2, pi/2]. The circuits are
product states, so sampling is done per qubit analytically.

The angles of all layers live in one flat vector, in the weight order of
:func:`qns.masknet.layer_views`: angle j rotates the qubit of the weight
that mask bit j gates. A step is laid out as that vector, so it is scaled
once, subtracted once and clamped once, with the bare ufuncs
``np.maximum`` and ``np.minimum`` (what ``np.clip`` computes, without its
wrapper).

With per-epoch resampling the masks are fixed for the whole epoch and the
backward pass uses the full weights, so no sample's step depends on the
angles the earlier samples moved. ``popup_train`` therefore computes the
epoch's steps with one forward and one backward pass over the shuffled
samples, and only the clamped subtraction stays sequential. The stack is fed
as (samples, 1, fan_in), so NumPy runs one vector-matrix product per sample,
the same one a single sample runs, and each loss is the 2-norm of one 1-D
row: the batched epoch is bit-identical to the per-sample loop. (A
(samples, fan_in) matrix product rounds differently.) With per-sample
resampling every mask depends on the previous step, so that loop stays
sequential, one ``popup_update`` per sample. Its masks are drawn into one
flat buffer, allocated once per training, whose layer views are passed as
the masks, and its loss is sqrt(diff . diff), what ``np.linalg.norm`` takes
of a 1-D row.
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
        try:
            self.resample = ResampleRule(self.resample)
        except ValueError:
            raise ValueError(f"resample must be one of {[r.value for r in ResampleRule]}, "
                             f"got {self.resample!r}") from None
        if self.topk_fraction is not None and not 0 < self.topk_fraction <= 1:
            raise ValueError(f"topk_fraction must be in (0, 1], got {self.topk_fraction}")


class NonFiniteLoss(FloatingPointError):
    """A sample's loss is not finite; ``row`` is its position in the stack."""

    def __init__(self, row: int):
        super().__init__("non-finite loss in popup update")
        self.row = row


def _keep_prob(theta):
    return (1.0 + np.sin(theta)) / 2.0


def prob_one(theta):
    """P(measure 1) after H then Ry(theta) on |0>: (1 + sin theta)/2."""
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(np.abs(theta) > THETA_CLAMP + 1e-12):
        raise ValueError("theta outside the clamp range [-pi/2, pi/2]")
    value = _keep_prob(theta)
    return float(value) if value.ndim == 0 else value


def _clamp(thetas: np.ndarray) -> None:
    """Clamp to [-pi/2, pi/2] in place, as ``np.clip`` does, without its wrapper."""
    np.maximum(thetas, -THETA_CLAMP, out=thetas)
    np.minimum(thetas, THETA_CLAMP, out=thetas)


def threshold_mask(thetas: np.ndarray) -> np.ndarray:
    """Deterministic rule: keep an edge iff prob_one(theta) >= 1/2 (theta >= 0)."""
    return (thetas >= 0.0).astype(np.float64)


def topk_mask(thetas: np.ndarray, fraction: float) -> np.ndarray:
    """Keep the top fraction of one layer's edges ranked by keep-probability."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    flat = thetas.ravel()
    k = max(1, int(round(fraction * flat.size)))
    order = np.argsort(-flat, kind="stable")[:k]
    mask = np.zeros(flat.size)
    mask[order] = 1.0
    return mask.reshape(thetas.shape)


def _deterministic_masks(layer_thetas, cfg: PopupTrainConfig) -> list[np.ndarray]:
    if cfg.topk_fraction is not None:
        return [topk_mask(t, cfg.topk_fraction) for t in layer_thetas]
    return [threshold_mask(t) for t in layer_thetas]


def straight_through_grads(net: MaskedNetwork, masks, x: np.ndarray,
                           y: np.ndarray):
    """Forward with the given masks, backward as if every mask entry were 1.

    Returns (loss, per-layer dL/dI arrays, per-layer input activations).
    dL/dI[i][v] is the loss gradient with respect to the pre-activation of
    neuron v in layer i; activations[i][u] is the masked-forward output
    feeding layer i.

    ``x`` is one input (fan_in,) with target (fan_out,), or a stack
    (S, 1, fan_in) with targets (S, 1, fan_out): then the loss and every
    other array carry the leading (S, 1) axes, and each row equals its own
    single-input call bit for bit. A non-finite loss raises
    :class:`NonFiniteLoss` naming the first such row.
    """
    x = np.asarray(x, dtype=np.float64)
    layers = masknet.masked_layers(net, x, masks)

    diff = layers[-1][1] - np.asarray(y, dtype=np.float64)
    # the 2-norm of each 1-D row, what np.linalg.norm takes of a real row
    norms = [math.sqrt(row.dot(row)) for row in diff.reshape(-1, diff.shape[-1])]
    for row, value in enumerate(norms):
        if not math.isfinite(value):
            raise NonFiniteLoss(row)
    loss = np.array(norms).reshape(diff.shape[:-1] + (1,))
    grad_out = np.divide(diff, loss, out=np.zeros(diff.shape), where=loss > 0)
    loss = loss[..., 0]
    acts = [x] + [z for _, z in layers[:-1]]
    return (float(loss) if loss.ndim == 0 else loss), _backward(net, layers, grad_out), acts


def _backward(net: MaskedNetwork, layers, g: np.ndarray) -> list[np.ndarray]:
    """Per-layer dL/dI from the output gradient ``g``, through the full weights."""
    grads = [None] * net.depth
    for i in reversed(range(net.depth)):
        if net.specs[i].activation is Activation.RELU:
            g = g * (layers[i][0] > 0)
        grads[i] = g
        if i:
            g = g @ net.weights[i].T  # full weights: the straight-through pass
    return grads


def _steps(net: MaskedNetwork, acts, grads, alpha: float, n_angles: int) -> np.ndarray:
    """alpha times each layer's step outer(activation, gradient) * W, laid out
    as the flat angle vector, per leading index: (..., n_angles)."""
    steps = np.empty(acts[0].shape[:-1] + (n_angles,))
    for view, a, g, w in zip(masknet.layer_views(steps, net), acts, grads, net.weights):
        np.multiply(a[..., :, None], g[..., None, :], out=view)
        view *= w
    steps *= alpha
    return steps


def popup_update(net: MaskedNetwork, thetas: np.ndarray, masks, x, y,
                 alpha: float) -> float:
    """One sample step under per-layer ``masks``: forward, straight-through
    update, clamp.

    ``thetas`` is the flat angle vector; it moves in place by one step laid
    out as that vector. Loss and gradients are :func:`straight_through_grads`'s
    for the one sample, without its handling of stacked rows: calling it
    here made per-sample training about 8% slower.
    """
    x64 = np.asarray(x, dtype=np.float64)
    layers = masknet.masked_layers(net, x64, masks)
    diff = layers[-1][1] - np.asarray(y, dtype=np.float64)
    loss = math.sqrt(diff.dot(diff))  # what np.linalg.norm takes of a 1-D real row
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite loss in popup update (input {np.asarray(x)!r})")
    grads = _backward(net, layers, diff / loss if loss > 0 else np.zeros(diff.shape))
    acts = [x64] + [z for _, z in layers[:-1]]
    thetas -= _steps(net, acts, grads, alpha, thetas.size)
    _clamp(thetas)
    return loss


def _epoch_steps(net: MaskedNetwork, masks, data: Dataset, order,
                 alpha: float, n_angles: int) -> np.ndarray:
    """alpha times every sample's step under fixed masks, in ``order``:
    (samples, n_angles), row k equal to ``popup_update``'s step for order[k]."""
    try:
        _, grads, acts = straight_through_grads(
            net, masks, data.inputs[order][:, None, :], data.targets[order][:, None, :])
    except NonFiniteLoss as err:
        idx = order[err.row]
        raise FloatingPointError(
            f"sample {idx}: {err} (input {data.inputs[idx]!r})") from err
    return _steps(net, acts, grads, alpha, n_angles).reshape(len(order), n_angles)


@dataclass
class PopupTrainResult:
    thetas: list[np.ndarray]  # per layer, (fan_in, fan_out)
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
    # all angles zero: every weight starts with keep-probability 1/2
    thetas = np.zeros(sum(s.fan_in * s.fan_out for s in net.specs))
    layer_thetas = masknet.layer_views(thetas, net)
    # the step's masks: entry j is 1.0 iff its draw < prob_one(thetas[j])
    mask_bits = np.empty(thetas.size)
    masks = masknet.layer_views(mask_bits, net)
    loss_curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        if cfg.resample is ResampleRule.PER_EPOCH:
            np.less(rng.random(thetas.size), _keep_prob(thetas), out=mask_bits)
            for step in _epoch_steps(net, masks, data, order, cfg.alpha, thetas.size):
                thetas -= step
                _clamp(thetas)
        else:
            # the same stream as one draw per layer per sample
            draws = rng.random((len(order), thetas.size))
            for idx, draw in zip(order, draws):
                np.less(draw, _keep_prob(thetas), out=mask_bits)
                try:
                    popup_update(net, thetas, masks, data.inputs[idx],
                                 data.targets[idx], cfg.alpha)
                except FloatingPointError as err:
                    raise FloatingPointError(f"sample {idx}: {err}") from err
        eval_masks = _deterministic_masks(layer_thetas, cfg)
        loss_curve.append(masked_loss(net, eval_masks, data))
    return PopupTrainResult(layer_thetas, loss_curve,
                            _deterministic_masks(layer_thetas, cfg))


def masked_loss(net: MaskedNetwork, masks, data: Dataset) -> float:
    """Dataset loss of ``net`` under explicit per-layer masks."""
    return masknet.dataset_loss(masknet._view(net, masks), data)
