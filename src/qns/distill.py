"""Layerwise teacher-student mask selection.

A trained teacher of depth l guides a random student of depth 2l: for each
teacher layer, the matching two-layer student block is mask-optimized to
reproduce the teacher's recorded activations, then its (masked, compressed)
output feeds the next block. Each block's search is one
:func:`qns.search.select` on the block's cost table, with any of its
methods but VQE as the backend; every backend reports its gap to the
exhaustive optimum.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import masknet, search
from .masknet import Activation, Dataset, LayerSpec, MaskedNetwork
from .qsim import DiagonalCostHamiltonian, max_qubits


class CompressMode(str, Enum):
    AVERAGE_POOL = "average_pool"
    MAGNITUDE_TOP_K = "magnitude_top_k"


class Backend(str, Enum):
    GROVER = "grover"
    QAOA = "qaoa"
    ANNEAL = "anneal"
    EXHAUSTIVE = "exhaustive"


class Chaining(str, Enum):
    STUDENT = "student"  # blocks see the assembled student's own outputs
    TEACHER = "teacher"  # blocks see the teacher's recorded activations


@dataclass
class TeacherStudentPair:
    """Teacher network plus a student stored as one two-layer block per teacher layer.

    Block i maps the teacher's layer-i input width to ``width_factor`` times
    its output width (ReLU hidden, identity output); compression brings the
    block output back down to the teacher width for both the loss and the
    chained input of the next block.
    """

    teacher: MaskedNetwork
    blocks: list[MaskedNetwork]
    width_factor: int

    def __post_init__(self):
        if len(self.blocks) != self.teacher.depth:
            raise ValueError(
                f"{len(self.blocks)} student blocks for a depth-{self.teacher.depth} teacher"
            )
        for i, (block, spec) in enumerate(zip(self.blocks, self.teacher.specs)):
            if block.depth != 2:
                raise ValueError(f"student block {i} must have exactly two layers")
            if block.input_dim != spec.fan_in:
                raise ValueError(
                    f"block {i} input {block.input_dim} != teacher fan_in {spec.fan_in}"
                )
            if block.output_dim < spec.fan_out:
                raise ValueError(
                    f"block {i} output {block.output_dim} narrower than teacher "
                    f"fan_out {spec.fan_out}"
                )

    @property
    def student_depth(self) -> int:
        return 2 * self.teacher.depth


def make_student(teacher: MaskedNetwork, width_factor: int, seed) -> TeacherStudentPair:
    """Random student blocks sized width_factor x the teacher widths."""
    if width_factor < 1:
        raise ValueError(f"width_factor must be >= 1, got {width_factor}")
    block_seeds = np.random.SeedSequence(seed).generate_state(teacher.depth)
    blocks = []
    for spec, block_seed in zip(teacher.specs, block_seeds):
        wide = width_factor * spec.fan_out
        blocks.append(masknet.init_network(
            [LayerSpec(spec.fan_in, wide, Activation.RELU),
             LayerSpec(wide, wide, Activation.IDENTITY)],
            int(block_seed),
        ))
    return TeacherStudentPair(teacher, blocks, width_factor)


@dataclass
class ActivationTrace:
    """Per-layer post-activation outputs over a dataset's samples."""

    layers: list[np.ndarray]

    def __post_init__(self):
        counts = {len(a) for a in self.layers}
        if len(counts) > 1:
            raise ValueError(f"inconsistent sample counts across layers: {counts}")


def record_activations(net: MaskedNetwork, data: Dataset) -> ActivationTrace:
    """Exact post-activation outputs of every layer for every sample."""
    return ActivationTrace([z for _, z in masknet.masked_layers(net, data.inputs)])


def compress(vector: np.ndarray, target_dim: int,
             mode: CompressMode = CompressMode.AVERAGE_POOL) -> np.ndarray:
    """Shrink the last axis of an activation array to ``target_dim`` entries.

    AVERAGE_POOL means contiguous group means (the source dimension must be
    divisible); MAGNITUDE_TOP_K keeps the largest-|value| entries in their
    original order. Leading axes index independent vectors.
    """
    vector = np.asarray(vector, dtype=np.float64)
    return np.stack(compress_columns(masknet.unstack(vector), target_dim, mode), axis=-1)


def compress_columns(columns, target_dim: int,
                     mode: CompressMode = CompressMode.AVERAGE_POOL) -> list[np.ndarray]:
    """:func:`compress` on the columns of the last axis, which may broadcast
    (see ``masknet.enumerate_table``): an average pool adds each group's
    columns on the axes they span."""
    dim = len(columns)
    if dim < target_dim:
        raise ValueError(f"cannot compress {dim} values up to {target_dim}")
    mode = CompressMode(mode)
    if mode is CompressMode.AVERAGE_POOL:
        if dim % target_dim != 0:
            raise ValueError(
                f"average pooling needs {target_dim} to divide {dim}"
            )
        group = dim // target_dim
        pooled = []
        for g in range(0, dim, group):
            total = masknet.sum_columns(columns[g:g + group])
            total /= group
            pooled.append(total)
        return pooled
    vector = np.stack(np.broadcast_arrays(*columns), axis=-1)
    rows = vector.reshape(-1, dim)  # few axes keep take_along_axis's index cheap
    order = np.argsort(-np.abs(rows), axis=-1, kind="stable")[:, :target_dim]
    kept = np.take_along_axis(rows, np.sort(order, axis=-1), axis=-1)
    return masknet.unstack(kept.reshape(vector.shape[:-1] + (target_dim,)))


def block_loss(teacher_acts: np.ndarray, block: MaskedNetwork, bits,
               block_inputs: np.ndarray,
               mode: CompressMode = CompressMode.AVERAGE_POOL):
    """Mean L2 distance between teacher activations and the compressed
    masked block output, over the given block inputs: a float for one mask,
    M losses for an (M, n) matrix of masks in ``masknet.layer_views`` order."""
    bits = np.asarray(bits)
    out = masknet.batch_forward(block, np.atleast_2d(bits), block_inputs)
    losses = _compressed_losses(masknet.unstack(out), teacher_acts, mode)
    return float(losses[0]) if bits.ndim == 1 else losses


def block_table(teacher_acts: np.ndarray, block: MaskedNetwork,
                block_inputs: np.ndarray,
                mode: CompressMode = CompressMode.AVERAGE_POOL) -> np.ndarray:
    """:func:`block_loss` of every mask 0..2^n-1 of ``block``, bit for bit,
    from one run of the enumeration kernel."""
    return masknet.enumerate_table(block, block_inputs, functools.partial(
        _compressed_losses, teacher_acts=teacher_acts, mode=mode))


def _compressed_losses(columns, teacher_acts: np.ndarray,
                       mode: CompressMode) -> np.ndarray:
    """``masknet.mean_l2`` of the compressed columns. An average pool's
    columns are fresh sums that nothing else holds, so the loss is finished
    in them: the same ufuncs in the same order, without a second array of
    differences per table block."""
    pooled = compress_columns(columns, teacher_acts.shape[1], mode)
    if CompressMode(mode) is CompressMode.MAGNITUDE_TOP_K:
        return masknet.mean_l2(pooled, teacher_acts)
    for column, target in zip(pooled, masknet.unstack(teacher_acts), strict=True):
        column -= target
    return masknet._mean_l2_of_differences(pooled, len(teacher_acts))


# ---------------------------------------------------------------------------
# Block-by-block selection.

@dataclass
class BlockReport:
    index: int
    bits: np.ndarray
    loss: float
    exhaustive_min: float | None = None
    gap: float | None = None
    oracle_calls: int = 0
    epsilon: float | None = None


@dataclass
class DistillResult:
    reports: list[BlockReport]

    @property
    def total_loss(self) -> float:
        return float(sum(r.loss for r in self.reports))


def _block_epsilon(costs: np.ndarray, n_bits: int, rng: np.random.Generator,
                   n_probe: int = 16, scale: float = 1.1) -> float:
    """``scale`` times the least cost of ``n_probe`` random masks, read from
    the block's table ``costs`` (bit j of an index is flat bit j); the
    table equals :func:`block_loss` of every mask bit for bit."""
    probes = rng.integers(0, 2, size=(n_probe, n_bits))
    best = costs[probes @ (1 << np.arange(n_bits))].min()
    return float(best * scale) if best > 0 else 1e-12


def distill_select(pair: TeacherStudentPair, data: Dataset,
                   backend: Backend = Backend.EXHAUSTIVE,
                   per_block_bit_budget: int = 12,
                   mode: CompressMode = CompressMode.AVERAGE_POOL,
                   chaining: Chaining = Chaining.STUDENT,
                   epsilons=None, seed: int = 0) -> DistillResult:
    """Select one mask per student block, feeding blocks forward in order.

    Every backend enumerates the block's cost table, so each block's maskable
    parameter count must fit the qubit ceiling. QAOA and annealing take the
    ``qns run`` defaults and measure their final state once, with the
    block's seed, which is drawn after the block's epsilon probes. Grover's
    probes read their losses from the block's table, and a block's reported
    loss is :func:`block_loss` of its chosen mask: both equal the forward
    passes bit for bit.
    """
    backend = Backend(backend)
    teacher_trace = record_activations(pair.teacher, data)
    rng = np.random.default_rng(seed)

    reports: list[BlockReport] = []
    block_inputs = data.inputs
    for i, block in enumerate(pair.blocks):
        n_bits = block.total_maskable()
        if n_bits > per_block_bit_budget:
            raise ValueError(
                f"block {i} has {n_bits} maskable parameters, budget is "
                f"{per_block_bit_budget}"
            )
        if n_bits > max_qubits():
            raise ValueError(
                f"block {i} needs {n_bits} qubits, ceiling is {max_qubits()}"
            )
        teacher_acts = teacher_trace.layers[i]
        h = DiagonalCostHamiltonian(n_bits, block_table(teacher_acts, block,
                                                        block_inputs, mode))
        eps, params = 0.0, {}
        if backend is Backend.GROVER:
            eps = (epsilons[i] if epsilons is not None
                   else _block_epsilon(h.costs, n_bits, rng))
            params = {"max_restarts": search.LOCAL_MAX_RESTARTS}
        chosen = search.select(backend.value, h, eps, params, int(rng.integers(2 ** 31)))
        if backend is Backend.GROVER and not chosen.success:
            raise RuntimeError(
                f"block {i}: no mask below epsilon {eps} within "
                f"{search.LOCAL_MAX_RESTARTS} restarts"
            )
        report = BlockReport(i, chosen.bits,
                             block_loss(teacher_acts, block, chosen.bits, block_inputs, mode),
                             float(h.costs.min()))
        report.gap = report.loss - report.exhaustive_min
        if backend is Backend.GROVER:  # a threshold search reports its threshold and queries
            report.oracle_calls = chosen.oracle_calls
            report.epsilon = eps
        reports.append(report)
        if i + 1 == len(pair.blocks):
            break  # nothing reads the last block's chained output

        # Chain: next block sees this block's compressed masked output (or
        # the teacher's own activations in the comparison variant).
        if chaining is Chaining.STUDENT:
            view = masknet.apply_flat_mask(block, report.bits)
            out = masknet.forward_batch(view, block_inputs)
            block_inputs = compress(out, teacher_acts.shape[1], mode)
        else:
            block_inputs = teacher_acts
    return DistillResult(reports)

