"""Fixed-random-weight feed-forward networks with binary masks.

The weights of a :class:`MaskedNetwork` are drawn once and never tuned;
training means choosing which weights stay active, via per-layer binary
masks or one flat 0/1 vector that other modules search over. The flat
order is :func:`layer_views`'s: every layer's weights, row-major, layer by
layer. Masks gate weights only; biases always enter unmasked.

:func:`enumerate_table` reduces the outputs of every one of the 2^n masks
to a cost table. Layer l's output depends only on the bits of layers <= l,
so the kernel computes each hidden layer once per pattern of the bits
before it: the layer's own patterns become a new leading axis, ``z[None] @
(m * W)[:, None] + b``. Unit o of the last layer reads only column o of
its mask, so the last layer is priced once per pattern of one column: under
representative masks whose columns all take the same pattern. A cost that
sums over units (the L2 loss, an average pool) adds the units' terms on the
layer's bit grid by broadcasting, and any other cost reads the outputs
assembled from the units. Its tables equal the mask-by-mask ones bit for
bit, because

- every product is NumPy's per-slice matmul on the same (samples, fan_in)
  @ (fan_in, fan_out) shapes as :func:`masked_layers` (one concatenated
  gemm over all patterns sums in another order), and column o of a product
  depends only on column o of the masked weights;
- :func:`sum_columns` adds the units in NumPy's own order: in turn from 0.0
  below ``PAIRWISE_MIN`` of them, pairwise from there on.
"""
from __future__ import annotations

import copy
import csv
import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

ENUMERATION_CHUNK = 1024  # mask patterns per kernel step: bounds its largest temporary
PAIRWISE_MIN = 8  # NumPy sums a last axis this long or longer pairwise
# layer outputs with this many rows of fan_out units or more take their bias
# over whole rows of samples x fan_out: NumPy's inner loop is then that long
BIAS_ROWS_MIN = 256


class Activation(str, Enum):
    RELU = "relu"
    IDENTITY = "identity"


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: Activation = Activation.RELU

    def __post_init__(self):
        if self.fan_in < 1 or self.fan_out < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.fan_in}x{self.fan_out}")
        object.__setattr__(self, "activation", Activation(self.activation))


@dataclass
class Dataset:
    """Paired input/target rows; both are 2-d float arrays."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        if len(self.inputs) != len(self.targets):
            raise ValueError(
                f"{len(self.inputs)} inputs vs {len(self.targets)} targets"
            )

    def __len__(self) -> int:
        return len(self.inputs)


class MaskedNetwork:
    """Immutable random weights plus mutable per-layer binary masks."""

    def __init__(self, specs, weights, biases, masks, seed=None):
        self.specs = tuple(specs)
        self.weights = list(weights)
        self.biases = list(biases)
        self.masks = list(masks)
        self.seed = seed
        self._validate()
        for w in self.weights:
            w.setflags(write=False)

    def _validate(self):
        if not self.specs:
            raise ValueError("network needs at least one layer")
        for i in range(len(self.specs) - 1):
            if self.specs[i].fan_out != self.specs[i + 1].fan_in:
                raise ValueError(
                    f"layer {i} fan_out {self.specs[i].fan_out} does not feed "
                    f"layer {i + 1} fan_in {self.specs[i + 1].fan_in}"
                )
        if self.specs[-1].activation is not Activation.IDENTITY:
            raise ValueError("final layer must use the identity activation")
        for i, spec in enumerate(self.specs):
            shape = (spec.fan_in, spec.fan_out)
            if self.weights[i].shape != shape:
                raise ValueError(f"layer {i} weight shape {self.weights[i].shape} != {shape}")
            if self.masks[i].shape != shape:
                raise ValueError(f"layer {i} mask shape {self.masks[i].shape} != {shape}")
            if self.biases[i].shape != (spec.fan_out,):
                raise ValueError(f"layer {i} bias shape {self.biases[i].shape}")
            if not np.all((self.masks[i] == 0) | (self.masks[i] == 1)):
                raise ValueError(f"layer {i} mask has entries outside {{0, 1}}")

    @property
    def depth(self) -> int:
        return len(self.specs)

    @property
    def input_dim(self) -> int:
        return self.specs[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.specs[-1].fan_out

    def total_maskable(self) -> int:
        return sum(s.fan_in * s.fan_out for s in self.specs)


def init_network(specs, seed) -> MaskedNetwork:
    """Fresh network: weights uniform in +-1/sqrt(fan_in), zero biases, all-ones masks."""
    specs = tuple(s if isinstance(s, LayerSpec) else LayerSpec(*s) for s in specs)
    rng = np.random.default_rng(seed)
    weights, biases, masks = [], [], []
    for spec in specs:
        bound = 1.0 / math.sqrt(spec.fan_in)
        weights.append(rng.uniform(-bound, bound, size=(spec.fan_in, spec.fan_out)))
        biases.append(np.zeros(spec.fan_out))
        masks.append(np.ones((spec.fan_in, spec.fan_out)))
    return MaskedNetwork(specs, weights, biases, masks, seed=seed)


def network_from_weights(specs, weights, biases=None, seed=None) -> MaskedNetwork:
    """Wrap explicit weight matrices (e.g. a trained teacher) as a MaskedNetwork."""
    specs = tuple(s if isinstance(s, LayerSpec) else LayerSpec(*s) for s in specs)
    weights = [np.array(w, dtype=np.float64) for w in weights]
    if biases is None:
        biases = [np.zeros(s.fan_out) for s in specs]
    else:
        biases = [np.array(b, dtype=np.float64) for b in biases]
    masks = [np.ones_like(w) for w in weights]
    return MaskedNetwork(specs, weights, biases, masks, seed=seed)


def forward_batch(net: MaskedNetwork, xs: np.ndarray) -> np.ndarray:
    """Evaluate a (samples, fan_in) batch; returns (samples, fan_out)."""
    if xs.shape[1] != net.input_dim:
        raise ValueError(f"input dim {xs.shape[1]} != network fan_in {net.input_dim}")
    return masked_layers(net, xs)[-1][1]


def masked_layers(net: MaskedNetwork, z: np.ndarray,
                  masks=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(pre-activation, output) of every layer, each ``z @ (m * W) + b``.

    Without ``masks``, the network's own masks apply. Masks may carry a
    leading axis of M masks, giving outputs of shape (M, samples, fan_out).
    """
    if masks is None:
        masks = net.masks
    layers = []
    for i in range(net.depth):
        a, z = _masked_layer(net, i, z, masks[i])
        layers.append((a, z))
    return layers


def _masked_layer(net: MaskedNetwork, i: int, z: np.ndarray,
                  mask) -> tuple[np.ndarray, np.ndarray]:
    """(pre-activation, output) of layer i, ``z @ (mask * W) + b`` bit for bit.

    The bias is added in place. On at least ``BIAS_ROWS_MIN`` rows of two or
    more units, with more than one sample, it is added over whole rows of
    samples x fan_out against the bias row tiled to that length, not in
    loops fan_out wide. Either way each element gets the same ``a + b``.
    """
    a = z @ (mask * net.weights[i])
    b = net.biases[i]
    # the rows must be a view of a, hence C order
    if (a.ndim > 1 and a.shape[-2] > 1 and len(b) > 1
            and a.size >= BIAS_ROWS_MIN * len(b) and a.flags.c_contiguous):
        row = np.empty(a.shape[-2:])
        row[...] = b
        rows = a.reshape(-1, row.size)
        rows += row.reshape(-1)
    else:
        a += b
    return a, (np.maximum(a, 0.0) if net.specs[i].activation is Activation.RELU else a)


def dataset_loss(net: MaskedNetwork, data: Dataset) -> float:
    """Mean L2 distance between predictions and targets."""
    return float(mean_l2(unstack(forward_batch(net, data.inputs)), data.targets))


def batch_losses(net: MaskedNetwork, data: Dataset, rows) -> np.ndarray:
    """Dataset loss of ``net`` under each row of an (M, n) 0/1 matrix.

    Rows are in :func:`layer_views` order; returns M losses, each equal to
    ``dataset_loss(apply_flat_mask(net, row), data)``.
    """
    return mean_l2(unstack(batch_forward(net, rows, data.inputs)), data.targets)


def batch_forward(net: MaskedNetwork, rows, xs: np.ndarray) -> np.ndarray:
    """Outputs (M, samples, fan_out) of ``net`` under each row of an (M, n) 0/1
    matrix in :func:`layer_views` order."""
    return masked_layers(net, xs, _layout_masks(net, rows))[-1][1]


def enumerate_losses(net: MaskedNetwork, data: Dataset) -> np.ndarray:
    """Dataset loss of every mask 0..2^n-1: ``batch_losses`` of all rows at once."""
    return enumerate_table(net, data.inputs,
                           functools.partial(mean_l2, targets=data.targets))


def enumerate_table(net: MaskedNetwork, xs: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of the outputs of ``net`` under every mask 0..2^n-1.

    ``reduce`` maps output columns to costs: fan_out arrays that broadcast
    together to (..., samples), column o holding unit o's outputs, give the
    costs (...). Entry x of the table is ``reduce(unstack(batch_forward(net,
    [bits of x], xs)))[0]`` bit for bit.

    Hidden layers are computed depth first, each once per pattern of the
    bits before it, in blocks that keep at most ``ENUMERATION_CHUNK``
    patterns in flight. The last layer is priced once per pattern of one
    unit's own bits (its weight column), under representative masks whose
    columns all take that pattern: unit o of such a product is unit o of
    every mask whose column o has that pattern.
    Each unit's column spans only the axes of its own bits on the layer's
    bit grid, so a cost that sums over units adds their terms by
    broadcasting. The grid's axes, and the table's, come from
    :func:`layer_views`; this bookkeeping depends only on the network's
    shapes and the chunk, and is built once for each.
    """
    plan = _table_plan(net.specs, ENUMERATION_CHUNK)
    sizes, n_last = plan.sizes, plan.sizes[-1]
    # last-layer bits (highest first), then the hidden layers' patterns as one
    # prefix index, the latest layer outermost
    table = np.empty((2,) * n_last + (1 << sum(sizes[:-1]),))

    def descend(i, z, start):
        # z: outputs of layer i - 1 under prefix patterns start, start + 1, ...
        if i == net.depth - 1:
            price_last(z, start)
            return
        n_patterns, n_prefix = 1 << sizes[i], 1 << sum(sizes[:i])
        # a power of two, so that every block of prefix patterns is contiguous
        step = 1 << (max(1, ENUMERATION_CHUNK // len(z)).bit_length() - 1)
        for lo in range(0, n_patterns, step):
            patterns = np.arange(lo, min(lo + step, n_patterns))
            # (this layer's patterns, earlier patterns, samples, fan_out)
            out = _layer_under_bits(net, i, z, (patterns[:, None, None] >> plan.ranks[i]) & 1)
            descend(i + 1, out.reshape(-1, *out.shape[2:]), lo * n_prefix + start)

    def price_last(z, start):
        rows, m = plan.rows, plan.m
        for lo in range(0, 1 << n_last, 1 << m):
            bits = (np.where(plan.free, plan.reps, lo) >> plan.shift) & 1
            fixed = tuple((lo >> k) & 1 for k in range(n_last - 1, m - 1, -1))
            for a in range(0, len(z), rows):
                out = _layer_under_bits(net, net.depth - 1, z[a:a + rows], bits)
                columns = [out[:1 << f, ..., o].reshape(shape + out.shape[1:3])
                           for o, (f, shape) in enumerate(zip(plan.n_free, plan.shapes))]
                table[fixed + (..., slice(start + a, start + a + out.shape[1]))] = reduce(columns)

    descend(0, xs[None], 0)
    return table.reshape((2,) * len(plan.axes)).transpose(plan.axes).reshape(-1)


class _TablePlan(NamedTuple):
    """:func:`enumerate_table`'s bit bookkeeping for one network shape and
    chunk. Its arrays are read-only."""

    ranks: tuple  # per layer: bit k of the layer's pattern gates its k-th lowest flat bit
    sizes: tuple  # per layer: its number of bits
    m: int  # last-layer grid bits free in a block
    rows: int  # prefix patterns per last-layer product
    n_free: tuple  # per unit: its free bits in a block
    shapes: tuple  # per unit: its outputs' axes on a block's grid
    free: np.ndarray  # representative mask r of block lo: (where(free, r, lo) >> shift) & 1
    reps: np.ndarray
    shift: np.ndarray
    axes: np.ndarray  # the table's transpose into flat bit order


@functools.lru_cache(maxsize=64)
def _table_plan(specs, chunk: int) -> _TablePlan:
    """The :class:`_TablePlan` of networks with these layer specs, at
    ``chunk`` patterns per kernel step: the chunk is part of the key, since
    ``ENUMERATION_CHUNK`` can be patched."""
    # per layer, the flat bit of each weight: column o holds unit o's bits by row
    net = init_network(specs, 0)  # layer_views reads only the shapes
    units = layer_views(np.arange(net.total_maskable()), net)
    # bit k of a layer's pattern gates the layer's k-th lowest flat bit
    sorted_bits = [np.sort(u, axis=None) for u in units]
    ranks = [np.searchsorted(s, u) for s, u in zip(sorted_bits, units)]
    n_last = units[-1].size

    # The last layer's bit grid has one axis per bit, highest first. A block
    # fixes its n_last - m highest bits and holds at most ENUMERATION_CHUNK
    # patterns (grid x prefix). A unit's bits rise with its row, so its free
    # bits in a block are its lowest n_free; representative mask r takes
    # them from r's bits and the fixed ones from the block.
    rank = ranks[-1]
    m = min(n_last, chunk.bit_length() - 1)
    rows = max(1, chunk >> n_last)
    free = rank < m
    n_free = free.sum(axis=0)
    owner = np.empty(n_last, dtype=int)
    owner[rank] = np.arange(rank.shape[1])
    # unit o's outputs span the grid axes of its own free bits
    shapes = tuple(tuple(2 if owner[k] == o else 1 for k in range(m - 1, -1, -1))
                   for o in range(rank.shape[1]))
    reps = np.arange(1 << n_free.max())[:, None, None]
    shift = np.where(free, np.arange(rank.shape[0])[:, None], rank)
    # kernel bit k gates flat bit order[k]: move every axis to its flat place
    order = np.concatenate(sorted_bits)
    axes = len(order) - 1 - np.argsort(order)[::-1]
    for array in ranks + [free, reps, shift, axes]:
        array.flags.writeable = False
    return _TablePlan(tuple(ranks), tuple(u.size for u in units), m, rows,
                      tuple(n_free.tolist()), shapes, free, reps, shift, axes)


def _layer_under_bits(net: MaskedNetwork, i: int, z: np.ndarray, bits) -> np.ndarray:
    """Outputs (patterns, prefix, samples, fan_out) of layer i on z (prefix,
    samples, fan_in) under each pattern of ``bits`` (patterns, fan_in, fan_out)."""
    return _masked_layer(net, i, z[None], bits[:, None])[1]


def unstack(x: np.ndarray) -> list[np.ndarray]:
    """The columns ``x[..., 0], x[..., 1], ...`` of an array's last axis."""
    return [x[..., k] for k in range(x.shape[-1])]


def sum_columns(columns) -> np.ndarray:
    """``np.add.reduce`` of the broadcast ``columns`` stacked on a last axis,
    bit for bit, signed zeros included.

    Below ``PAIRWISE_MIN`` columns NumPy adds them in turn, starting from
    0.0; this adds them in that order without the stack, each partial sum
    as wide as its columns broadcast to.
    """
    if len(columns) >= PAIRWISE_MIN:
        return np.add.reduce(np.stack(np.broadcast_arrays(*columns), axis=-1), axis=-1)
    total = columns[0] + 0.0
    for column in columns[1:]:
        if np.broadcast_shapes(total.shape, column.shape) == total.shape:
            total += column
        else:
            total = total + column
    return total


def mean_l2(columns, targets: np.ndarray) -> np.ndarray:
    """Mean over samples of the L2 distance from each prediction row to its
    target row, from the prediction columns (see :func:`enumerate_table`):
    ``np.mean(np.linalg.norm(preds - targets, axis=-1), axis=-1)``."""
    return _mean_l2_of_differences(
        [column - target for column, target in zip(columns, unstack(targets), strict=True)],
        targets.shape[-2])


def _mean_l2_of_differences(diffs, n_samples: int) -> np.ndarray:
    """:func:`mean_l2` from the prediction-minus-target columns ``diffs``,
    which it squares and roots in place: the caller's own arrays."""
    if n_samples == 0:
        raise ValueError("dataset is empty")
    for d in diffs:
        d *= d
    # a square is never -0.0, so one needs no 0.0 added to match NumPy's sum
    total = diffs[0] if len(diffs) == 1 else sum_columns(diffs)
    np.sqrt(total, out=total)
    return np.add.reduce(total, axis=-1) / n_samples  # np.mean's steps


# ---------------------------------------------------------------------------
# Flat masks: one 0/1 vector covering every weight.

def layer_views(flat: np.ndarray, net: MaskedNetwork) -> list[np.ndarray]:
    """Per-layer (..., fan_in, fan_out) views of ``flat``'s last axis: entry
    ``off_l + row * fan_out + col`` addresses weight (row, col) of layer l,
    where ``off_l`` counts the weights of the layers before it.
    """
    views, start = [], 0
    for spec in net.specs:
        stop = start + spec.fan_in * spec.fan_out
        views.append(flat[..., start:stop].reshape(flat.shape[:-1]
                                                   + (spec.fan_in, spec.fan_out)))
        start = stop
    return views


def apply_flat_mask(net: MaskedNetwork, bits) -> MaskedNetwork:
    """Masked view of ``net`` under one 0/1 vector in :func:`layer_views`
    order: shares the frozen weights, owns fresh masks."""
    return _view(net, [w[0] for w in _layout_masks(net, np.asarray(bits)[None])])


def _layout_masks(net: MaskedNetwork, rows) -> list[np.ndarray]:
    """Per-layer weight masks (M, fan_in, fan_out) of an (M, n) 0/1 matrix in
    :func:`layer_views` order."""
    n = net.total_maskable()
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"mask of shape {rows.shape[1:]} is not one bit for each "
                         f"of the network's {n} maskable parameters")
    if not np.all((rows == 0) | (rows == 1)):
        raise ValueError("mask bits must be 0 or 1")
    return [w.astype(np.float64, order="C") for w in layer_views(rows, net)]


def _view(net: MaskedNetwork, masks) -> MaskedNetwork:
    """``net`` under new masks, sharing its frozen weights."""
    view = copy.copy(net)
    view.masks = list(masks)
    return view


# ---------------------------------------------------------------------------
# Persistence.

def network_to_json(net: MaskedNetwork) -> dict:
    return {
        "specs": [
            {"fan_in": s.fan_in, "fan_out": s.fan_out, "activation": s.activation.value}
            for s in net.specs
        ],
        "seed": net.seed,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "masks": [m.tolist() for m in net.masks],
    }


def network_from_json(doc: dict) -> MaskedNetwork:
    """The network of a :func:`network_to_json` document. Masks gate weights
    only: a stored bias-mask rule must be false, and stored bias masks are
    ignored. A non-finite weight or bias raises ``ValueError`` naming its
    layer."""
    specs = tuple(
        LayerSpec(s["fan_in"], s["fan_out"], Activation(s["activation"]))
        for s in doc["specs"]
    )
    if doc.get("mask_biases", False):
        raise ValueError("mask_biases: masks gate weights only, biases cannot be masked")
    if "weights" in doc:
        net = network_from_weights(specs, doc["weights"], doc.get("biases"),
                                   seed=doc.get("seed"))
        if "masks" in doc:
            net.masks = [np.array(m, dtype=np.float64) for m in doc["masks"]]
        net._validate()
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has a non-finite weight or bias")
        return net
    if doc.get("seed") is None:
        raise ValueError("network document needs explicit weights or a seed")
    return init_network(specs, doc["seed"])


def save_network(net: MaskedNetwork, path) -> None:
    Path(path).write_text(json.dumps(network_to_json(net), indent=2))


def load_network(path) -> MaskedNetwork:
    return network_from_json(json.loads(Path(path).read_text()))


def load_dataset_csv(path, n_inputs: int) -> Dataset:
    """One row = input values then target values; split after ``n_inputs`` columns.

    A non-numeric or non-finite cell, or a row whose length differs from the
    first row's, raises ``ValueError`` naming its line.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"line {reader.line_num} has {len(row)} cells, "
                                 f"the first row has {len(rows[0])}")
            try:
                values = [float(v) for v in row]
            except ValueError as err:
                raise ValueError(f"line {reader.line_num}: {err}") from None
            for cell, value in zip(row, values):
                if not math.isfinite(value):
                    raise ValueError(f"line {reader.line_num}: non-finite value {cell!r}")
            rows.append(values)
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] <= n_inputs:
        raise ValueError(
            f"csv rows have {arr.shape[-1]} columns, need more than {n_inputs}"
        )
    return Dataset(arr[:, :n_inputs], arr[:, n_inputs:])


def save_dataset_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(data.inputs, data.targets):
            writer.writerow([*x, *y])


# ---------------------------------------------------------------------------
# Synthetic benchmark: targets generated by a hidden mask, so the search
# space always contains at least one zero-loss solution.

def make_planted_dataset(net: MaskedNetwork, hidden, n_samples: int,
                         seed, input_range: float = 1.0) -> Dataset:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-input_range, input_range, size=(n_samples, net.input_dim))
    planted = apply_flat_mask(net, hidden)
    ys = forward_batch(planted, xs)
    return Dataset(xs, ys)
