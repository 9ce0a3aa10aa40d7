"""Hybrid quantum-classical loops: QAOA blocks and a hardware-efficient VQE.

QAOA alternates exact diagonal cost phases exp(-i*gamma*H_C) with mixer
exponentials exp(-i*beta*H_0), on complex128 amplitudes; the VQE ansatz
stacks per-qubit Ry layers with a ring of controlled-Z entanglers, each Ry
layer applied as one tensor product (the first, on |0...0>, as a product
state) and the CZ ring as one cached +-1 diagonal, on float64 amplitudes
(see :func:`ansatz_state`). Both are driven by a seeded, derivative-free
simplex optimizer with random restarts.

The optimizer is Nelder-Mead (Nelder & Mead, Comput. J. 7, 308, 1965),
an in-repo copy of the unbounded path of scipy's, which a test holds to
scipy's point for point; the module needs numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qsim import (
    DiagonalCostHamiltonian,
    MixerSpec,
    StateVector,
    _apply_block,
    _product_blocks,
    apply_layers,
    expectation,
    midpoint_ramp,
    ring_graph,
    uniform_superposition,
)


@dataclass
class QaoaParams:
    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        self.gammas = np.atleast_1d(np.asarray(self.gammas, dtype=np.float64))
        self.betas = np.atleast_1d(np.asarray(self.betas, dtype=np.float64))
        if self.gammas.shape != self.betas.shape or self.gammas.ndim != 1:
            raise ValueError(
                f"gammas {self.gammas.shape} and betas {self.betas.shape} "
                "must be 1-d sequences of equal length"
            )
        if self.p < 1:
            raise ValueError("at least one block is required")

    @property
    def p(self) -> int:
        return len(self.gammas)

    @staticmethod
    def from_vector(vec: np.ndarray) -> "QaoaParams":
        vec = np.asarray(vec, dtype=np.float64)
        p = vec.size // 2
        return QaoaParams(vec[:p], vec[p:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.gammas, self.betas])


class Entangler(Enum):
    RING_CZ = "ring_cz"
    NONE = "none"


@dataclass
class VqeAnsatz:
    """L layers of per-qubit Ry rotations, each followed by the entangler."""

    layers: int
    thetas: np.ndarray
    entangler: Entangler = Entangler.RING_CZ

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=np.float64)
        if self.layers < 1:
            raise ValueError("at least one ansatz layer is required")
        if self.thetas.ndim != 2 or self.thetas.shape[0] != self.layers:
            raise ValueError(
                f"thetas shape {self.thetas.shape} != ({self.layers}, n_qubits)"
            )

    @property
    def n_qubits(self) -> int:
        return self.thetas.shape[1]


def make_ansatz(n_qubits: int, layers: int, seed,
                entangler: Entangler = Entangler.RING_CZ,
                init_scale: float = 0.5) -> VqeAnsatz:
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-init_scale, init_scale, size=(layers, n_qubits))
    return VqeAnsatz(layers, thetas, entangler)


@lru_cache(maxsize=4)  # one 16-qubit entry holds 512 kB
def _ring_cz_signs(n: int) -> np.ndarray:
    """Diagonal of the CZ ring: -1 where an odd number of ring edges have both bits set."""
    idx = np.arange(1 << n)
    odd = np.zeros(1 << n, dtype=np.int64)
    for a, neighbours in enumerate(ring_graph(n)):
        for b in neighbours:
            if a < b:  # each edge once
                odd ^= (idx >> a) & (idx >> b) & 1
    signs = 1.0 - 2.0 * odd
    signs.flags.writeable = False  # shared by every caller
    return signs


def ansatz_state(ansatz: VqeAnsatz) -> StateVector:
    """The ansatz applied to |0...0>, in float64.

    Ry gates and CZ signs are real. The block matrices of all layers come
    from one broadcast. Layer 1 acts on |0...0>, where each sum of a block
    product has one nonzero term, so it is built as the product state of
    the blocks' first columns, one outer product per block in
    ``qsim._apply_block``'s order: the same products, with no matrix
    product. A 2-layer ansatz at n = 12 takes 41 us, where a matrix product
    per block took 47 us (one BLAS thread, 2-core x86). The state is bit
    for bit the real part of the complex128 simulation, whose imaginary
    part is exactly zero, but for the sign of an exact zero (see
    ``qsim._apply_block``).
    """
    state = StateVector(ansatz.n_qubits)  # checks n before any 2^n array
    n = state.n_qubits
    half = ansatz.thetas.T / 2.0
    # Ry(theta) = [[cos, -sin], [sin, cos]] of theta/2, one per (qubit, layer)
    gates = np.empty(half.shape + (2, 2))
    gates[..., 0, 0] = gates[..., 1, 1] = np.cos(half)
    gates[..., 1, 0] = np.sin(half)
    gates[..., 0, 1] = -gates[..., 1, 0]
    blocks = _product_blocks(gates)
    signs = _ring_cz_signs(n) if ansatz.entangler is Entangler.RING_CZ else None
    amp = np.ones(1)
    for block in blocks:  # layer 1 on |0...0>: its first columns' product
        amp = np.multiply.outer(block[0, :, 0], amp).reshape(-1)
    for layer in range(ansatz.layers):
        if layer:
            for block in blocks:
                amp = _apply_block(amp, block[layer])
        if signs is not None:
            amp *= signs
    state.amplitudes = amp
    return state


def qaoa_state(h_c: DiagonalCostHamiltonian, params: QaoaParams,
               mixer: MixerSpec | None = None) -> StateVector:
    """Apply p blocks of U(gamma_j) then U(beta_j) to the uniform state."""
    mixer = mixer or MixerSpec.transverse_field()
    return apply_layers(uniform_superposition(h_c.n_qubits), h_c, mixer,
                        params.gammas, params.betas)


def qaoa_expectation(h_c: DiagonalCostHamiltonian, params: QaoaParams,
                     mixer: MixerSpec | None = None) -> float:
    return expectation(qaoa_state(h_c, params, mixer), h_c)


# ---------------------------------------------------------------------------
# Classical optimizer: seeded Nelder-Mead with uniform random restarts.
#
# _nelder_mead is the path scipy 1.17's _minimize_neldermead takes with no
# bounds, adaptive=False and no initial_simplex, operation for operation, so
# every evaluated point and value equals scipy's bit for bit
# (tests/test_variational.py compares the traces).

@dataclass
class OptimizeResult:
    """The best point found, its value, and every (point, value) evaluated.
    QAOA gives ``best_params`` as :class:`QaoaParams`, VQE as a thetas matrix."""

    best_params: np.ndarray | QaoaParams
    best_value: float
    trace: list[tuple[np.ndarray, float]]


class _BudgetExhausted(Exception):
    pass


def _nelder_mead(f, x0, xatol: float, fatol: float) -> None:
    """Simplex descent from ``x0`` until the simplex spans at most ``xatol``
    in every coordinate and its values at most ``fatol``; it stops early
    only when ``f`` raises. ``f`` may be handed a row of the simplex
    itself, so it must not write to its argument."""
    x0 = np.asarray(x0, dtype=np.float64).flatten()
    n = len(x0)
    # the first simplex: x0, and x0 with one coordinate scaled by 1.05 (or
    # set to 0.00025 where it is zero)
    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = f(sim[k])
    # argsort is not stable, and scipy sorts the first simplex twice
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    while not (np.max(np.abs(sim[1:] - sim[0])) <= xatol
               and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]  # reflect the worst vertex through xbar
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expand
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink every vertex halfway towards the best
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)


def optimize_variational(objective, init, budget: int, seed) -> OptimizeResult:
    """Derivative-free simplex descent; every evaluation lands in the trace.

    The initial point is evaluated first, so the result is never worse than
    ``objective(init)``. When a simplex run converges with budget to spare,
    the search restarts from a fresh uniform draw in [-pi, pi]^d.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    x0 = np.atleast_1d(np.asarray(init, dtype=np.float64))
    trace: list[tuple[np.ndarray, float]] = []
    best_x = x0.copy()
    best_v = math.inf

    def wrapped(x):
        nonlocal best_x, best_v
        if len(trace) >= budget:
            raise _BudgetExhausted
        # a copy, as scipy hands out: an objective that writes over its
        # argument must not move the simplex
        x = np.array(x, dtype=np.float64)
        v = float(objective(x))
        trace.append((x.copy(), v))
        if v < best_v:
            best_v = v
            best_x = x.copy()
        return v

    start = x0
    while len(trace) < budget:
        try:
            _nelder_mead(wrapped, start, xatol=1e-8, fatol=1e-12)
        except _BudgetExhausted:
            break
        start = rng.uniform(-math.pi, math.pi, size=x0.shape)
    return OptimizeResult(best_x, best_v, trace)


# ---------------------------------------------------------------------------
# Method entry points.

def qaoa_optimize(h_c: DiagonalCostHamiltonian, p: int, budget: int, seed,
                  mixer: MixerSpec | None = None,
                  memo: dict[bytes, float] | None = None) -> OptimizeResult:
    """Optimize the 2p block angles against the cost expectation.

    ``memo`` maps the bytes of an angle vector to its objective value. Calls
    on the same Hamiltonian, mixer and p may share one: a point met before
    is looked up, not simulated again. A looked-up value is the one a fresh
    evaluation gives, so the result does not depend on the memo.
    """
    mixer = mixer or MixerSpec.transverse_field()
    memo = {} if memo is None else memo

    def objective(vec):
        key = vec.tobytes()
        if key not in memo:
            memo[key] = qaoa_expectation(h_c, QaoaParams.from_vector(vec), mixer)
        return memo[key]

    result = optimize_variational(objective, np.zeros(2 * p), budget, seed)
    result.best_params = QaoaParams.from_vector(result.best_params)
    return result


def vqe_run(h_c: DiagonalCostHamiltonian, ansatz: VqeAnsatz, budget: int,
            seed) -> OptimizeResult:
    """Minimize the ansatz expectation of the cost Hamiltonian over thetas;
    ``best_params`` has the shape of ``ansatz.thetas``."""
    if ansatz.n_qubits != h_c.n_qubits:
        raise ValueError(
            f"ansatz acts on {ansatz.n_qubits} qubits, hamiltonian on {h_c.n_qubits}"
        )
    shape = ansatz.thetas.shape

    def objective(vec):
        trial = VqeAnsatz(ansatz.layers, vec.reshape(shape), ansatz.entangler)
        return expectation(ansatz_state(trial), h_c)

    result = optimize_variational(objective, ansatz.thetas.ravel(), budget, seed)
    result.best_params = result.best_params.reshape(shape)
    return result


def linear_ramp_params(p: int, total_time: float) -> QaoaParams:
    """Annealing-style schedule: gamma ramps up, beta ramps down, step dt = T/p."""
    return QaoaParams(*midpoint_ramp(total_time, p))
