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
sequential, one ``popup_update`` per sample, on work vectors that
``popup_train`` allocates once per training. The masks are drawn into one
flat bool vector whose layer views are passed as the masks, and the masked
weights are one ``mask * W`` multiply over all layers. Each layer's
pre-activation and gradient is written by ``ndarray.dot(..., out=)``, the
vector-matrix product that ``@`` runs, and the outer products
outer(activation, gradient) of every layer are gathered from the flat
activation and gradient vectors by ``take`` into one vector, scaled by W and
alpha once. The loss is sqrt(diff . diff), what ``np.linalg.norm`` takes of
a 1-D row. These are the stacked path's floats in the same order, so both
rules stay bit-identical to the plain per-sample loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import masknet
from .masknet import Activation, Dataset, MaskedNetwork

THETA_CLAMP = math.pi / 2.0


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 array: a ufunc takes one faster than it
    converts a Python float, and computes the same result."""
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


_ZERO, _ONE, _TWO = _constant(0.0), _constant(1.0), _constant(2.0)
_LOW, _HIGH = _constant(-THETA_CLAMP), _constant(THETA_CLAMP)


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


def _keep_prob(theta, out=None):
    """(1 + sin theta)/2, in place in ``out`` when given."""
    keep = np.sin(theta, out=out)
    keep += _ONE
    keep /= _TWO
    return keep


def prob_one(theta):
    """P(measure 1) after H then Ry(theta) on |0>: (1 + sin theta)/2."""
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(np.abs(theta) > THETA_CLAMP + 1e-12):
        raise ValueError("theta outside the clamp range [-pi/2, pi/2]")
    value = _keep_prob(theta)
    return float(value) if value.ndim == 0 else value


def _clamp(thetas: np.ndarray) -> None:
    """Clamp to [-pi/2, pi/2] in place, as ``np.clip`` does, without its wrapper."""
    np.maximum(thetas, _LOW, out=thetas)
    np.minimum(thetas, _HIGH, out=thetas)


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


class _StepBuffers:
    """Work vectors of the per-sample step, allocated once per training.

    ``mask_bits`` is the step's flat mask in angle order, as bools, and
    ``masks`` its layer views. ``acts`` holds the input and every hidden
    layer's output, layer i's input at its own offset, and ``grads`` every
    layer's dL/dI; ``rows`` and ``cols`` gather angle j's activation and
    gradient from them, so one multiply lays out every layer's outer
    product.
    """

    def __init__(self, net: MaskedNetwork):
        specs = net.specs
        n_angles = net.total_maskable()
        self.keep = np.empty(n_angles)  # (1 + sin theta)/2
        self.mask_bits = np.empty(n_angles, dtype=bool)
        self.masks = masknet.layer_views(self.mask_bits, net)
        self.weights = np.concatenate([w.ravel() for w in net.weights])
        self.masked = np.empty(n_angles)  # mask * W
        self.step = np.empty(n_angles)
        self.gathered = np.empty(n_angles)
        self.acts = np.empty(sum(s.fan_in for s in specs))
        self.grads = np.empty(sum(s.fan_out for s in specs))
        self.rows = np.empty(n_angles, dtype=np.intp)
        self.cols = np.empty(n_angles, dtype=np.intp)
        a_off = np.cumsum([0] + [s.fan_in for s in specs])
        g_off = np.cumsum([0] + [s.fan_out for s in specs])
        acts = [self.acts[a:b] for a, b in zip(a_off, a_off[1:])]
        grads = [self.grads[a:b] for a, b in zip(g_off, g_off[1:])]
        outs = acts[1:] + [np.empty(specs[-1].fan_out)]
        self.x, self.output, self.loss_grad = acts[0], outs[-1], grads[-1]
        self.layers, self.backward = [], []
        for i, (spec, rows, cols, masked) in enumerate(zip(
                specs, masknet.layer_views(self.rows, net),
                masknet.layer_views(self.cols, net),
                masknet.layer_views(self.masked, net))):
            rows[...] = a_off[i] + np.arange(spec.fan_in)[:, None]
            cols[...] = g_off[i] + np.arange(spec.fan_out)
            relu = spec.activation is Activation.RELU
            pre = np.empty(spec.fan_out) if relu else outs[i]
            # (bound dot of the layer's input, mask * W, pre-activation, bias,
            # ReLU output or None)
            self.layers.append((acts[i].dot, masked, pre, net.biases[i],
                                outs[i] if relu else None))
            # (ReLU pre-activation or None, its > 0 flags, dL/dI, bound dot
            # of dL/dI, W^T, the previous layer's dL/dI or None)
            self.backward.append((pre if relu else None, np.empty(spec.fan_out, dtype=bool),
                                  grads[i], grads[i].dot, net.weights[i].T,
                                  grads[i - 1] if i else None))
        self.backward.reverse()


def _check_step(net: MaskedNetwork, thetas, masks, x) -> None:
    n_angles = net.total_maskable()
    if np.shape(thetas) != (n_angles,):
        raise ValueError(f"thetas has shape {np.shape(thetas)}, not ({n_angles},): "
                         f"one angle per weight of the network")
    if len(masks) != net.depth:
        raise ValueError(f"masks has {len(masks)} entries, not one per layer ({net.depth})")
    for i, (mask, spec) in enumerate(zip(masks, net.specs)):
        if np.shape(mask) != (spec.fan_in, spec.fan_out):
            raise ValueError(f"masks[{i}] has shape {np.shape(mask)}, layer {i} "
                             f"has ({spec.fan_in}, {spec.fan_out})")
    if x.shape != (net.input_dim,):
        raise ValueError(f"x has shape {x.shape}, the network takes ({net.input_dim},)")


def popup_update(net: MaskedNetwork, thetas: np.ndarray, masks, x, y,
                 alpha: float, work: _StepBuffers | None = None) -> float:
    """One sample step under per-layer ``masks``: forward, straight-through
    update, clamp; returns the sample's loss.

    ``thetas`` is the flat angle vector; it moves in place by one step laid
    out as that vector. The floats are :func:`straight_through_grads`'s and
    :func:`_steps`'s for the one sample, in the same order, computed in the
    vectors of ``work``: :func:`popup_train` passes the buffers it allocated
    for the training, with their ``masks``. Without ``work`` the call checks
    its inputs, raising ``ValueError`` naming ``thetas``, ``masks`` or ``x``,
    and allocates buffers for the one step.
    """
    if work is None:
        x = np.asarray(x, dtype=np.float64)
        _check_step(net, thetas, masks, x)
        work = _StepBuffers(net)
    if masks is work.masks:
        np.multiply(work.mask_bits, work.weights, out=work.masked)
    else:
        for (_, masked, *_), mask, w in zip(work.layers, masks, net.weights):
            np.multiply(mask, w, out=masked)
    work.x[...] = x
    for dot, masked, pre, bias, out in work.layers:
        dot(masked, pre)
        pre += bias
        if out is not None:
            np.maximum(pre, _ZERO, out=out)
    diff = work.loss_grad
    np.subtract(work.output, y, out=diff)
    loss = math.sqrt(diff.dot(diff))  # what np.linalg.norm takes of a 1-D real row
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite loss in popup update (input {np.asarray(x)!r})")
    if loss > 0:
        diff /= loss
    else:
        diff.fill(0.0)
    for pre, positive, g, dot, w_t, prev in work.backward:
        if pre is not None:
            np.greater(pre, _ZERO, out=positive)
            g *= positive
        if prev is not None:
            dot(w_t, prev)  # full weights: the straight-through pass
    step = work.step
    # every index is in range; "clip" writes into ``out`` where "raise" copies
    work.acts.take(work.rows, out=step, mode="clip")
    work.grads.take(work.cols, out=work.gathered, mode="clip")
    step *= work.gathered
    step *= work.weights
    step *= alpha
    thetas -= step
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
    if data.inputs.shape[1] != net.input_dim:
        raise ValueError(f"inputs have width {data.inputs.shape[1]}, "
                         f"the network takes {net.input_dim}")
    # all angles zero: every weight starts with keep-probability 1/2
    thetas = np.zeros(net.total_maskable())
    layer_thetas = masknet.layer_views(thetas, net)
    work = _StepBuffers(net)
    alpha = np.array(cfg.alpha, dtype=np.float64)  # 0-d: see _constant
    # the step's masks: entry j is True iff its draw < prob_one(thetas[j]);
    # a bool multiplies a weight as 1.0 or 0.0 does
    mask_bits, masks = work.mask_bits, work.masks
    loss_curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        if cfg.resample is ResampleRule.PER_EPOCH:
            np.less(rng.random(thetas.size), _keep_prob(thetas, work.keep), out=mask_bits)
            for step in _epoch_steps(net, masks, data, order, cfg.alpha, thetas.size):
                thetas -= step
                _clamp(thetas)
        else:
            # the same stream as one draw per layer per sample
            draws = rng.random((len(order), thetas.size))
            for idx, draw in zip(order, draws):
                np.less(draw, _keep_prob(thetas, work.keep), out=mask_bits)
                try:
                    popup_update(net, thetas, masks, data.inputs[idx],
                                 data.targets[idx], alpha, work)
                except FloatingPointError as err:
                    raise FloatingPointError(f"sample {idx}: {err}") from err
        eval_masks = _deterministic_masks(layer_thetas, cfg)
        loss_curve.append(masked_loss(net, eval_masks, data))
    return PopupTrainResult(layer_thetas, loss_curve,
                            _deterministic_masks(layer_thetas, cfg))


def masked_loss(net: MaskedNetwork, masks, data: Dataset) -> float:
    """Dataset loss of ``net`` under explicit per-layer masks."""
    return masknet.dataset_loss(masknet._view(net, masks), data)
