"""Dense statevector simulation for small qubit registers.

Everything a register-level search needs: uniform superposition, tensor
products of single-qubit gates over the whole register, diagonal cost
Hamiltonians and their phases, mixer operators and their exponential (the
one kernel shared by annealing and QAOA: the transverse field as one tensor
product, the bit-flip mixer, always on the ring of :func:`ring_graph`, as a
Chebyshev expansion over a sparse matrix on its exact spectral interval),
Trotterized annealing evolution, expectation values, and non-destructive
Born-rule sampling.

A tensor product of single-qubit gates (a transverse-field layer of
:func:`apply_layers`, an Ry layer of ``qns.variational.ansatz_state``) takes
one matrix product per block of up to four qubits (:func:`_apply_block`),
with the block's 2^k x 2^k Kronecker matrix, instead of one pass over the
state per qubit. The bit-flip mixer's sparse operator and Chebyshev loop
live in :mod:`qns.bitflip`.

This module imports no scipy. The first bit-flip apply of a process
imports :mod:`qns.bitflip`, and with it ``scipy.sparse``,
``scipy.sparse.linalg``, ``scipy.special`` and ``scipy.linalg.blas``;
Grover search, the transverse-field anneal and every caller that applies
no bit-flip mixer run on numpy alone.

The anneal and QAOA share one loop, :func:`apply_layers`: a cost phase
exp(-i*gamma*H_C), then the mixer. The cost phase takes cos and sin once
per distinct cost (:attr:`DiagonalCostHamiltonian.levels`) and gathers
them to the 2^n states, as a masked network's loss table repeats itself.
Each state's phase is the cos and sin of the same -gamma*cost, so the
amplitudes are the full-table ones bit for bit.
The layers go in chunks of 16: a chunk's phases take one cos and one sin
over a (layers, levels) array, and its transverse-field blocks one
Kronecker broadcast over the layers' gates, so a 400-step anneal at
n = 12 builds 25 of each instead of 400.

The anneal and QAOA run on complex128 amplitudes; the VQE ansatz
(``qns.variational``) runs on float64, since Ry gates and CZ signs are
real. Its amplitudes are bit for bit the real part of the complex128 run
(see :func:`_apply_block`). Its first layer, on |0...0>, is the product
state of its blocks' first columns, with no matrix product.

Convention: qubit ``j`` is bit ``j`` of a basis-state index, so the index
``6 = 0b110`` has qubit 0 clear and qubits 1 and 2 set. Gate functions
mutate the state in place and return it so calls can be chained. A state
must not be shared mutably between threads; independent states are safe to
process in parallel.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial

import numpy as np

DEFAULT_MAX_QUBITS = 16
DEFAULT_TROTTER_STEPS = 400

NORM_ATOL = 1e-9

# Qubits per Kronecker block of a tensor product of gates (_product_blocks,
# _shared_blocks): n/k passes over the state at 2^k multiply-adds per
# amplitude each. Blocks of 2, 3 and 4 ran within noise of each other at
# n = 10..16; 4 takes the fewest passes.
_KRON_BLOCK = 4


def max_qubits() -> int:
    """Register-size ceiling; the QNS_MAX_QUBITS env var overrides the default."""
    raw = os.environ.get("QNS_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        limit = int(raw)
    except ValueError:
        limit = 0  # rejected below, with the raw value in the message
    if limit < 1:
        raise ValueError(
            f"QNS_MAX_QUBITS must be a positive integer, got {raw!r}"
        )
    return limit


class StateVector:
    """Amplitudes of an ``n_qubits`` register: 2**n float64 or complex128.

    Real amplitudes given to the constructor stay float64, as the VQE
    ansatz's do; the default |0...0> is complex128. Real operations keep a
    real state real, and the first complex factor converts it in place
    (:func:`_complex`), so every result is what the state stored complex
    from the start would give.
    """

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes=None):
        limit = max_qubits()
        if not 1 <= n_qubits <= limit:
            raise ValueError(f"n_qubits must be in 1..{limit}, got {n_qubits}")
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if amplitudes is None:
            amp = np.zeros(dim, dtype=np.complex128)
            amp[0] = 1.0
        else:
            dtype = np.complex128 if np.iscomplexobj(amplitudes) else np.float64
            amp = np.array(amplitudes, dtype=dtype)
            if amp.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got shape {amp.shape}")
            total = float(np.vdot(amp, amp).real)
            if not abs(total - 1.0) <= NORM_ATOL:  # NaN fails this test
                raise ValueError(f"amplitudes are not normalized: sum |a|^2 = {total}")
        self.amplitudes = amp

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_error(self) -> float:
        """|sum of probabilities - 1|, the drift accumulated by fp arithmetic."""
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0)


def _complex(state: StateVector) -> np.ndarray:
    """``state``'s amplitudes as complex128, converting a real state in place.

    The one place a real state becomes complex: every operation with a
    complex factor calls it first. a + 0j holds the same values as a, so the
    operation gives what it gives on the state stored complex from the start.
    """
    if state.amplitudes.dtype != np.complex128:
        state.amplitudes = state.amplitudes.astype(np.complex128)
    return state.amplitudes


@dataclass(frozen=True, eq=False)
class DiagonalCostHamiltonian:
    """Diagonal operator whose eigenvalue on basis state x is the cost of x.

    Its phases take cos and sin once per distinct cost, :attr:`levels`,
    built on the first phase (:func:`apply_layers`). ``costs`` is a
    read-only copy of the table given, so a caller that changes its own
    array changes neither the costs nor the levels. Equality is identity,
    so a Hamiltonian can key a dict.
    """

    n_qubits: int
    costs: np.ndarray

    def __post_init__(self):
        costs = np.array(self.costs, dtype=np.float64)
        if costs.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} costs, got shape {costs.shape}"
            )
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must all be finite")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct costs, each basis state's index into them), built on first use.

        Distinct by bit pattern, so -0.0 and 0.0 are two levels and
        ``levels[index]`` is ``costs`` bit for bit. A masked network's table
        repeats itself (a masked outgoing weight makes its neuron's incoming
        bits irrelevant): the transverse-variational benchmark tables hold
        512 levels in 4,096 entries, the bit-flip ones 484 in 1,024.
        """
        distinct, index = np.unique(self.costs.view(np.uint64), return_inverse=True)
        distinct = distinct.view(np.float64)
        for part in (distinct, index):
            part.flags.writeable = False  # shared by every phase
        return distinct, index

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


class Mixer(str, Enum):
    TRANSVERSE_FIELD = "transverse_field"
    BIT_FLIP_RING = "bit_flip_ring"


@dataclass(frozen=True)
class MixerSpec:
    """Exploration Hamiltonian for annealing and QAOA blocks.

    TRANSVERSE_FIELD is -sum_v X_v, whose ground state is the uniform
    superposition. BIT_FLIP_RING flips qubit v only when every neighbour
    of v on the ring (:func:`ring_graph`) sits in the ``target_bit`` state;
    the ring is the only bit-flip graph. ``kind`` may be given by value.
    """

    kind: Mixer = Mixer.TRANSVERSE_FIELD
    target_bit: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", Mixer(self.kind))
        if self.target_bit not in (0, 1):
            raise ValueError(f"target_bit must be 0 or 1, got {self.target_bit}")


def ring_graph(n: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency list of the cycle over vertices 0..n-1 (a path for n=2)."""
    if n < 1:
        raise ValueError("ring graph needs at least one vertex")
    if n == 1:
        return ((),)
    if n == 2:
        return ((1,), (0,))
    return tuple(((v - 1) % n, (v + 1) % n) for v in range(n))


def _kron(gates) -> np.ndarray:
    """Kronecker matrix of 2x2 ``gates``, ``gates[0]`` acting on the lowest bit.

    Each ``gates[j]`` may carry the same leading axes, (..., 2, 2), giving
    one (..., 2^k, 2^k) matrix per leading index; every entry is the
    product g_(k-1) * (... * (g_1 * g_0)) whatever the leading axes.
    """
    block = gates[0]
    for gate in gates[1:]:
        d = block.shape[-1]
        prod = gate[..., :, None, :, None] * block[..., None, :, None, :]
        block = prod.reshape(prod.shape[:-4] + (2 * d, 2 * d))
    return block


def _product_blocks(gates: np.ndarray) -> list[np.ndarray]:
    """Kronecker matrices of the tensor product of ``gates``, block by block
    from the lowest qubits up, the order :func:`_apply_block` takes them.

    ``gates`` is (n, ..., 2, 2): ``gates[q]`` acts on qubit q, and the axes
    in between (a layer axis, say) carry through, each block coming back as
    (..., 2^k, 2^k). All full blocks of _KRON_BLOCK qubits are built in one
    broadcast, a last partial block in a second.
    """
    n = len(gates)
    full = n - n % _KRON_BLOCK
    grouped = gates[:full].reshape((full // _KRON_BLOCK, _KRON_BLOCK) + gates.shape[1:])
    blocks = list(_kron(grouped.swapaxes(0, 1)))
    if full < n:
        blocks.append(_kron(gates[full:]))
    return blocks


def _shared_blocks(gate: np.ndarray, n: int) -> list[np.ndarray]:
    """:func:`_product_blocks` of one 2x2 ``gate`` on each of n qubits,
    every full block one matrix built once (a broadcast would repeat it).

    ``gate`` may carry leading axes, (..., 2, 2), one gate per leading
    index (a layer, say); each block is then (..., 2^k, 2^k), and its slice
    at a leading index is that gate's block bit for bit (:func:`_kron`).
    """
    full, rest = divmod(n, _KRON_BLOCK)
    blocks = [_kron([gate] * _KRON_BLOCK)] * full
    if rest:
        blocks.append(_kron([gate] * rest))
    return blocks


def _transverse_gates(betas) -> np.ndarray:
    """(len(betas), 2, 2) stack of exp(-i*beta*(-X)) = cos(beta) I + i sin(beta) X.

    The one builder of transverse-field gates, for :func:`apply_layers`.
    Its entries are ``math.cos(beta)`` and ``1j * math.sin(beta)``, the same
    values whichever SIMD loops NumPy's own cos and sin would run.
    """
    gates = np.empty((len(betas), 2, 2), dtype=np.complex128)
    gates[:, 0, 0] = gates[:, 1, 1] = [math.cos(beta) for beta in betas]
    gates[:, 0, 1] = gates[:, 1, 0] = [1j * math.sin(beta) for beta in betas]
    return gates


def _apply_block(amp: np.ndarray, block: np.ndarray) -> np.ndarray:
    """One matrix product applying ``block`` to the lowest qubits of ``amp``.

    With the block's k qubits as the fastest axis of a (2^(n-k), 2^k) view,
    the product leaves them as the slowest axis, so the next block's qubits
    are the fastest; after the last block of :func:`_product_blocks` the
    qubit order is back where it started. A real block on a real state gives
    the real part of the complex product bit for bit, except on a single
    column, where BLAS's real and complex matrix-vector kernels sum in
    different orders: that case goes through complex128. An exact zero can
    still differ in sign, since the complex real part subtracts +-0
    imaginary terms; its square, and so every probability, is the same.
    """
    cols = amp.reshape(-1, block.shape[-1]).T
    if cols.shape[1] == 1 and amp.dtype == np.float64:
        return (block @ cols.astype(np.complex128)).real.reshape(-1)
    return (block @ cols).reshape(-1)


def uniform_superposition(n_qubits: int) -> StateVector:
    """|s>: every basis amplitude equal to 1/sqrt(2^n)."""
    state = StateVector(n_qubits)
    state.amplitudes[:] = 1.0 / math.sqrt(state.dim)
    return state


def measure(state: StateVector, rng: np.random.Generator) -> int:
    """Draw one basis index with Born-rule probability |a_i|^2.

    Non-destructive: the state is left untouched so one prepared state can
    be sampled repeatedly. Each call takes one ``rng.random()`` draw, so a
    fixed seed reproduces the exact sample sequence.
    """
    p = state.probabilities()
    cum = np.cumsum(p / p.sum())
    return int(min(np.searchsorted(cum, rng.random(), side="right"), state.dim - 1))


def cost_phase(costs: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """exp(-i*angle*costs), the diagonal of exp(-i*angle*H_C).

    Written as cos and sin of the real phases -angle*costs, the values the
    complex exponential of those imaginary arguments takes, at about half
    its cost. ``angle`` may be an array that broadcasts against ``costs``:
    a column of k angles gives k rows of phases in one cos and one sin.
    """
    phases = -angle * costs
    out = np.empty(phases.shape, dtype=np.complex128)
    np.cos(phases, out=out.real)
    np.sin(phases, out=out.imag)
    return out


def expectation(state: StateVector, h: DiagonalCostHamiltonian) -> float:
    """<psi|H|psi> for a diagonal H: sum_i |a_i|^2 * cost_i."""
    if h.n_qubits != state.n_qubits:
        raise ValueError(
            f"hamiltonian acts on {h.n_qubits} qubits, state has {state.n_qubits}"
        )
    return float(np.dot(state.probabilities(), h.costs))


def within_table(value: float, h: DiagonalCostHamiltonian) -> float:
    """``value`` kept inside [min, max] of ``h``'s costs, where every
    expectation lies: rounding can carry a reported one an ulp outside."""
    return min(max(value, float(h.costs.min())), float(h.costs.max()))


# one ring entry holds about 5.5 MB at 16 qubits and 109 MB at 20, so two
# entries pin at most 218 MB
@lru_cache(maxsize=2)
def _bit_flip_propagator(mixer: MixerSpec, n_qubits: int):
    """(v, beta) -> exp(-i*beta*B) @ v for a bit-flip mixer B, built once per
    (mixer, size). The first call of a process imports :mod:`qns.bitflip`,
    and scipy with it; an apply then costs one cache lookup."""
    from .bitflip import chebyshev_operator, chebyshev_propagate
    return partial(chebyshev_propagate, *chebyshev_operator(mixer, n_qubits))


# Layers per chunk of apply_layers: a chunk's cost phases and transverse
# blocks are built in one broadcast each. A chunk holds at most
# _CHUNK_PHASES phases, so an all-distinct 16-qubit table takes one layer
# at a time.
_LAYER_CHUNK = 16
_CHUNK_PHASES = 1 << 16


def apply_layers(state: StateVector, h_c: DiagonalCostHamiltonian,
                 mixer: MixerSpec, gammas, betas) -> StateVector:
    """Apply exp(-i*gamma_k*H_C) then exp(-i*beta_k*H_mixer) for each k, in place.

    The one loop of the anneal and QAOA. ``gammas`` and ``betas`` are 1-d
    and of equal length. The layers go in chunks of up to _LAYER_CHUNK
    layers and _CHUNK_PHASES phases. For each chunk, :func:`cost_phase`
    takes cos and sin once per distinct cost
    (:attr:`DiagonalCostHamiltonian.levels`) and layer, in one call each on
    a (chunk, levels) array; a transverse field's Kronecker blocks of every
    layer in the chunk come from one :func:`_shared_blocks` broadcast over
    the chunk's gates. A layer then gathers its phases to
    the 2^n states in one buffer, allocated once per call, multiplies them
    in, and applies its blocks; a bit-flip mixer takes one cached
    Chebyshev propagator per layer. Each state's phase is the cos and sin
    of the same -gamma*cost as over the whole table, and each block slice
    is bit for bit the block :func:`_shared_blocks` builds from that layer's
    gate alone (:func:`_kron`), so the amplitudes are those of the per-layer
    loop bit for bit. ``ndarray.take`` with ``mode="clip"`` writes straight
    into the buffer (the indices come from ``np.unique``, so none is
    clipped), where ``mode="raise"`` fills a copy first.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if gammas.ndim != 1 or gammas.shape != betas.shape:
        raise ValueError(f"gammas {gammas.shape} and betas {betas.shape} "
                         "must be 1-d sequences of equal length")
    n = state.n_qubits
    if h_c.n_qubits != n:
        raise ValueError(f"h_c acts on {h_c.n_qubits} qubits, state has {n}")
    distinct, index = h_c.levels
    transverse = mixer.kind is Mixer.TRANSVERSE_FIELD
    propagate = None if transverse else _bit_flip_propagator(mixer, n)
    chunk = max(1, min(_LAYER_CHUNK, _CHUNK_PHASES // distinct.size))
    phase = np.empty(h_c.dim, dtype=np.complex128)
    amp = _complex(state)  # the cost phases are complex
    for start in range(0, len(gammas), chunk):
        layers = slice(start, start + chunk)
        phases = cost_phase(distinct, gammas[layers, None])
        if transverse:
            blocks = _shared_blocks(_transverse_gates(betas[layers]), n)
        for k, beta in enumerate(betas[layers]):
            amp *= phases[k].take(index, out=phase, mode="clip")
            if transverse:
                for block in blocks:
                    amp = _apply_block(amp, block[k])
            else:
                amp = propagate(amp, beta)
    state.amplitudes = amp
    return state


def evolve(
    state: StateVector,
    h_c: DiagonalCostHamiltonian,
    mixer: MixerSpec,
    total_time: float,
    steps: int = DEFAULT_TROTTER_STEPS,
) -> StateVector:
    """First-order Trotterized evolution under (1 - t/T)*H_mixer + (t/T)*H_C.

    Each step applies the cost phase then the mixer, both sampled at the
    midpoint of the step's time interval (:func:`midpoint_ramp`), so the
    result equals a QAOA state with the linear-ramp angles of ``steps``
    blocks. The steps run in :func:`apply_layers`, in chunks of 16 whose
    cost phases (once per distinct cost) and transverse blocks are each
    built in one broadcast.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not total_time > 0:
        raise ValueError(f"total_time must be positive, got {total_time}")
    return apply_layers(state, h_c, mixer, *midpoint_ramp(total_time, steps))


def midpoint_ramp(total_time: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The linear ramp's angles at the midpoint s = (k + 1/2)/steps of each of
    ``steps`` steps of length dt = T/steps: cost dt * s, mixer dt * (1 - s)."""
    dt = total_time / steps
    s = (np.arange(steps) + 0.5) / steps
    return dt * s, dt * (1.0 - s)
