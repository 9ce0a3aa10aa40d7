"""Dense statevector simulation for small qubit registers.

Everything a register-level search needs: uniform superposition, the handful
of gates used elsewhere in this package (H, X, Z, Ry, CZ), tensor products
of single-qubit gates over the whole register, diagonal phase oracles,
mean-inversion diffusion, diagonal cost Hamiltonians and their phases,
mixer operators and their exponential (the one kernel shared by annealing
and QAOA: the transverse field as one tensor product, the bit-flip mixer as
a Chebyshev expansion over a sparse matrix on its exact spectral interval),
Trotterized annealing evolution, expectation values, and non-destructive
Born-rule sampling.

A tensor product of gates (:func:`apply_product`) takes one matrix product
per block of up to four qubits, with the block's 2^k x 2^k Kronecker matrix,
instead of one pass over the state per qubit.

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
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg.blas import zaxpy
from scipy.sparse.linalg import eigsh
from scipy.special import jv

DEFAULT_MAX_QUBITS = 16
DEFAULT_TROTTER_STEPS = 400

NORM_ATOL = 1e-9

# Qubits per Kronecker block in apply_product: n/k passes over the state at
# 2^k multiply-adds per amplitude each. Blocks of 2, 3 and 4 ran within
# noise of each other at n = 10..16; 4 takes the fewest passes.
_KRON_BLOCK = 4

# Bessel coefficients below this size end the Chebyshev expansion; each
# dropped term moves a unit-norm state by at most twice its coefficient.
_BESSEL_CUTOFF = 1e-17

# Relative padding of the bit-flip mixer's largest eigenvalue, the half-width
# of the Chebyshev interval. ARPACK returns lambda_max to ~1e-15 relative;
# the padding keeps the spectrum inside the interval and costs no term.
_SPECTRAL_MARGIN = 1e-6


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
    """Amplitudes of an ``n_qubits`` register, stored as 2**n complex128."""

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
            amp = np.array(amplitudes, dtype=np.complex128)
            if amp.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got shape {amp.shape}")
            total = float(np.vdot(amp, amp).real)
            if abs(total - 1.0) > NORM_ATOL:
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

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.n_qubits = self.n_qubits
        out.amplitudes = self.amplitudes.copy()
        return out

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        state = cls(n_qubits)
        if not 0 <= index < state.dim:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        state.amplitudes[0] = 0.0
        state.amplitudes[index] = 1.0
        return state


@dataclass(frozen=True)
class DiagonalCostHamiltonian:
    """Diagonal operator whose eigenvalue on basis state x is the cost of x."""

    n_qubits: int
    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} costs, got shape {costs.shape}"
            )
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must all be finite")
        object.__setattr__(self, "costs", costs)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


class MixerKind(Enum):
    TRANSVERSE_FIELD = "transverse_field"
    BIT_FLIP_GRAPH = "bit_flip_graph"


@dataclass(frozen=True)
class MixerSpec:
    """Exploration Hamiltonian for annealing and QAOA blocks.

    TRANSVERSE_FIELD is -sum_v X_v, whose ground state is the uniform
    superposition. BIT_FLIP_GRAPH flips vertex v only when every neighbor
    of v (in ``graph``) sits in the ``target_bit`` state.
    """

    kind: MixerKind
    graph: tuple[tuple[int, ...], ...] | None = None
    target_bit: int = 0

    @staticmethod
    def transverse_field() -> "MixerSpec":
        return MixerSpec(MixerKind.TRANSVERSE_FIELD)

    @staticmethod
    def bit_flip(graph, target_bit: int = 0) -> "MixerSpec":
        adj = tuple(tuple(int(w) for w in nbrs) for nbrs in graph)
        for v, nbrs in enumerate(adj):
            if v in nbrs:
                raise ValueError(f"vertex {v} has a self-loop")
        if target_bit not in (0, 1):
            raise ValueError(f"target_bit must be 0 or 1, got {target_bit}")
        return MixerSpec(MixerKind.BIT_FLIP_GRAPH, adj, target_bit)


def ring_graph(n: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency list of the cycle over vertices 0..n-1 (a path for n=2)."""
    if n < 1:
        raise ValueError("ring graph needs at least one vertex")
    if n == 1:
        return ((),)
    if n == 2:
        return ((1,), (0,))
    return tuple(((v - 1) % n, (v + 1) % n) for v in range(n))


def _mixer_sparse(mixer: MixerSpec, n_qubits: int) -> sparse.csr_matrix:
    """CSR matrix B of a bit-flip mixer, 1.0 wherever a flip is allowed."""
    if mixer.graph is None or len(mixer.graph) != n_qubits:
        raise ValueError(f"bit-flip mixer graph must have exactly {n_qubits} vertices")
    dim = 1 << n_qubits
    idx = np.arange(dim)
    b = mixer.target_bit
    flips = []
    for v in range(n_qubits):
        # The 1/2^d(v) prefactor cancels against the neighbor projectors,
        # leaving matrix element 1 exactly when every neighbor equals b.
        allowed = np.ones(dim, dtype=bool)
        for w in mixer.graph[v]:
            allowed &= ((idx >> w) & 1) == b
        src = idx[allowed]
        flips.append((src ^ (1 << v), src))
    rows, cols = (np.concatenate(part) for part in zip(*flips))
    return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))


@lru_cache(maxsize=4)  # one 16-qubit ring entry holds about 5.5 MB
def _chebyshev_operator(mixer: MixerSpec, n_qubits: int) -> tuple[sparse.csr_matrix, float]:
    """(2B/r as a complex CSR matrix, r) for a bit-flip mixer B, built once per (mixer, size).

    B is symmetric and nonnegative, so its largest eigenvalue is its spectral
    radius; every flip changes the parity of the Hamming weight, so the
    spectrum is symmetric and lies in [-r, r] with r = lambda_max padded by
    _SPECTRAL_MARGIN. ARPACK starts from the all-ones vector: a fixed start
    gives the same r on every run, and it overlaps a nonnegative eigenvector
    of lambda_max, so the iteration cannot miss it.
    The matrix is stored complex so that a matvec with a complex state does
    not convert its data on every call (the products are the same).
    """
    b = _mixer_sparse(mixer, n_qubits)
    lam = eigsh(b, k=1, which="LA", v0=np.ones(b.shape[0]), return_eigenvectors=False)[0]
    r = float(lam) * (1.0 + _SPECTRAL_MARGIN)
    scaled = b.astype(np.complex128)
    scaled.data *= 2.0 / r
    for part in (scaled.data, scaled.indices, scaled.indptr):
        part.flags.writeable = False  # shared by every later call
    return scaled, r


def mixer_dense(mixer: MixerSpec, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the mixer Hamiltonian."""
    if mixer.kind is MixerKind.TRANSVERSE_FIELD:
        dim = 1 << n_qubits
        idx = np.arange(dim)
        h = np.zeros((dim, dim), dtype=np.float64)
        for v in range(n_qubits):
            h[idx ^ (1 << v), idx] += -1.0
        return h
    return _mixer_sparse(mixer, n_qubits).toarray()


def _apply_single_qubit(state: StateVector, qubit: int, u00, u01, u10, u11) -> StateVector:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {state.n_qubits} qubits")
    a = state.amplitudes.reshape(-1, 2, 1 << qubit)
    lo = a[:, 0, :]
    hi = a[:, 1, :]
    new_lo = u00 * lo + u01 * hi
    new_hi = u10 * lo + u11 * hi
    a[:, 0, :] = new_lo
    a[:, 1, :] = new_hi
    return state


def _kron(gates) -> np.ndarray:
    """Kronecker matrix of 2x2 ``gates``, ``gates[0]`` acting on the lowest bit."""
    block = gates[0]
    for gate in gates[1:]:
        d = block.shape[0]
        block = (gate[:, None, :, None] * block[None, :, None, :]).reshape(2 * d, 2 * d)
    return block


def apply_product(state: StateVector, gates) -> StateVector:
    """Apply a tensor product of single-qubit gates, ``gates[q]`` on qubit q.

    ``gates`` is an (n, 2, 2) stack, or one 2x2 matrix for every qubit; row
    index = output bit, as in :func:`_apply_single_qubit`. The qubits go in
    blocks of up to _KRON_BLOCK. With a block's k qubits as the fastest axis
    of a (2^(n-k), 2^k) view, one matrix product applies the block's
    Kronecker matrix and leaves them as the slowest axis, so the next
    block's qubits are the fastest; after the last block the qubit order is
    back where it started. A shared gate has its block matrix built once per
    block size. The result replaces ``state.amplitudes`` (a new array).
    """
    n = state.n_qubits
    gates = np.asarray(gates)
    shared = gates.shape == (2, 2)
    if not shared and gates.shape != (n, 2, 2):
        raise ValueError(f"expected one 2x2 gate or {n} of them, got shape {gates.shape}")
    shared_blocks = {}
    amp = state.amplitudes
    for lo in range(0, n, _KRON_BLOCK):
        k = min(_KRON_BLOCK, n - lo)
        if not shared:
            block = _kron(gates[lo:lo + k])
        elif k in shared_blocks:
            block = shared_blocks[k]
        else:
            block = shared_blocks[k] = _kron([gates] * k)
        amp = (block @ amp.reshape(-1, 1 << k).T).reshape(-1)
    state.amplitudes = amp
    return state


def uniform_superposition(n_qubits: int) -> StateVector:
    """|s>: every basis amplitude equal to 1/sqrt(2^n)."""
    state = StateVector(n_qubits)
    state.amplitudes[:] = 1.0 / math.sqrt(state.dim)
    return state


def apply_ry(state: StateVector, qubit: int, theta: float) -> StateVector:
    """Single-qubit Y rotation by ``theta`` radians."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return _apply_single_qubit(state, qubit, c, -s, s, c)


def apply_h(state: StateVector, qubit: int) -> StateVector:
    r = 1.0 / math.sqrt(2.0)
    return _apply_single_qubit(state, qubit, r, r, r, -r)


def apply_x(state: StateVector, qubit: int) -> StateVector:
    return _apply_single_qubit(state, qubit, 0.0, 1.0, 1.0, 0.0)


def apply_z(state: StateVector, qubit: int) -> StateVector:
    return _apply_single_qubit(state, qubit, 1.0, 0.0, 0.0, -1.0)


def apply_cz(state: StateVector, qubit_a: int, qubit_b: int) -> StateVector:
    """Controlled-Z: negate amplitudes where both qubits are 1."""
    n = state.n_qubits
    if qubit_a == qubit_b:
        raise ValueError("controlled-Z needs two distinct qubits")
    for q in (qubit_a, qubit_b):
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    idx = np.arange(state.dim)
    both = (((idx >> qubit_a) & 1) & ((idx >> qubit_b) & 1)).astype(bool)
    state.amplitudes[both] *= -1.0
    return state


def apply_phase_oracle(state: StateVector, marked) -> StateVector:
    """Negate the amplitude of every marked basis state.

    ``marked`` is either a predicate over basis indices 0..2^n-1 or a boolean
    array of length 2^n. Unmarked amplitudes are untouched, so the norm is
    preserved exactly.
    """
    dim = state.dim
    if callable(marked):
        flips = np.fromiter((bool(marked(i)) for i in range(dim)), dtype=bool, count=dim)
    else:
        flips = np.asarray(marked, dtype=bool)
        if flips.shape != (dim,):
            raise ValueError(f"expected {dim} mark flags, got shape {flips.shape}")
    state.amplitudes[flips] *= -1.0
    return state


def apply_diffusion(state: StateVector) -> StateVector:
    """Reflect about the uniform state: a_i -> 2*mean(a) - a_i."""
    mean = state.amplitudes.mean()
    state.amplitudes[:] = 2.0 * mean - state.amplitudes
    return state


def measure(state: StateVector, rng: np.random.Generator) -> int:
    """Draw one basis index with Born-rule probability |a_i|^2.

    Non-destructive: the state is left untouched so one prepared state can
    be sampled repeatedly. Draws come from ``rng`` sequentially, so a fixed
    seed reproduces the exact sample sequence.
    """
    return int(sample(state, rng, 1)[0])


def sample(state: StateVector, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized variant of :func:`measure` returning ``size`` indices."""
    p = state.probabilities()
    cum = np.cumsum(p / p.sum())
    draws = rng.random(size)
    return np.minimum(np.searchsorted(cum, draws, side="right"), state.dim - 1)


def cost_phase(costs: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i*angle*costs), the diagonal of exp(-i*angle*H_C).

    Written as cos and sin of the real phases -angle*costs, the values the
    complex exponential of those imaginary arguments takes, at about half
    its cost.
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


def _chebyshev_propagate(m: sparse.csr_matrix, r: float, v: np.ndarray,
                         beta: float) -> np.ndarray:
    """exp(-i*beta*h) @ v, given m = 2h/r for a real symmetric h with spectrum in [-r, r].

    exp(-i*x*t) = sum_k (2 - delta_k0) (-i)^k J_k(x) T_k(t) with x = beta*r
    and t = h/r (Tal-Ezer & Kosloff 1984). The T_k(h/r) v follow the
    three-term recurrence T_1 = (m/2) v, T_k = m T_(k-1) - T_(k-2): one
    sparse matvec and one subtraction per term, and the term is added to
    the sum in place. Past k = |x|, J_k(x) falls faster than geometrically
    after a zone of width ~|x|^(1/3); the sum stops at the last k with
    |J_k(x)| >= _BESSEL_CUTOFF, which lies well inside the
    |x| + 16|x|^(1/3) + 25 coefficients computed.
    """
    x = beta * r
    j = jv(np.arange(int(abs(x) + 16.0 * abs(x) ** (1.0 / 3.0)) + 25), x)
    degree = int(np.flatnonzero(np.abs(j) >= _BESSEL_CUTOFF)[-1])
    powers_of_minus_i = np.array([1, -1j, -1, 1j])[np.arange(degree + 1) % 4]
    coef = 2.0 * j[: degree + 1] * powers_of_minus_i
    out = j[0] * v
    prev, cur = v, v
    for k in range(1, degree + 1):
        nxt = m @ cur
        if k == 1:
            nxt *= 0.5
        else:
            nxt -= prev
        out = zaxpy(nxt, out, a=coef[k])
        prev, cur = cur, nxt
    return out


def apply_mixer(state: StateVector, mixer: MixerSpec, beta: float) -> StateVector:
    """Apply exp(-i*beta*H_mixer) in place.

    The transverse field factorizes into one rotation per qubit, applied as
    one tensor product by :func:`apply_product`: n/4 matrix products with a
    single 16 x 16 block matrix. A bit-flip mixer is built once per (mixer,
    size) as a sparse matrix together with its largest eigenvalue
    lambda_max, and applied by a Chebyshev expansion with Bessel
    coefficients on the exact spectral interval [-lambda_max, lambda_max]:
    the degree grows with |beta| * lambda_max (about 0.6n on a ring) and
    stops once the coefficients fall below 1e-17 (see
    :func:`_chebyshev_propagate`).
    Neither forms a dense 2^n x 2^n matrix, so both run up to
    :func:`max_qubits`.
    """
    n = state.n_qubits
    if mixer.kind is MixerKind.TRANSVERSE_FIELD:
        # exp(-i * beta * (-X)) = cos(beta) I + i sin(beta) X per qubit
        cos_b = math.cos(beta)
        isin_b = 1j * math.sin(beta)
        return apply_product(state, np.array([[cos_b, isin_b], [isin_b, cos_b]]))
    state.amplitudes = _chebyshev_propagate(*_chebyshev_operator(mixer, n),
                                            state.amplitudes, beta)
    return state


def evolve(
    state: StateVector,
    h_c: DiagonalCostHamiltonian,
    mixer: MixerSpec,
    total_time: float,
    steps: int = DEFAULT_TROTTER_STEPS,
) -> StateVector:
    """First-order Trotterized evolution under (1 - t/T)*H_mixer + (t/T)*H_C.

    Each step applies the cost phase then :func:`apply_mixer`, both sampled
    at the midpoint of the step's time interval, so the result equals a
    QAOA state with the linear-ramp angles of ``steps`` blocks.
    """
    n = state.n_qubits
    if h_c.n_qubits != n:
        raise ValueError(
            f"hamiltonian acts on {h_c.n_qubits} qubits, state has {n}"
        )
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not total_time > 0:
        raise ValueError(f"total_time must be positive, got {total_time}")

    dt = total_time / steps
    for step in range(steps):
        s = (step + 0.5) / steps
        state.amplitudes *= cost_phase(h_c.costs, dt * s)
        apply_mixer(state, mixer, dt * (1.0 - s))
    return state
