"""Hybrid quantum-classical loops: QAOA blocks and a hardware-efficient VQE.

QAOA alternates exact diagonal cost phases exp(-i*gamma*H_C) with mixer
exponentials exp(-i*beta*H_0), on complex128 amplitudes; the VQE ansatz
stacks per-qubit Ry layers, each followed by the ring of controlled-Z
gates, its one entangler. Each Ry layer is applied as one tensor product
(the first, on |0...0>, as a product state) and the CZ ring as one cached
+-1 diagonal, on float64 amplitudes (see :func:`ansatz_state`). Both are
driven by a seeded, derivative-free simplex optimizer with random restarts.
The angles are plain float64 arrays: QAOA's p gammas and p betas, searched
as one [gamma..., beta...] vector, and the VQE's (layers, n_qubits) thetas.

The optimizer is Nelder-Mead (Nelder & Mead, Comput. J. 7, 308, 1965),
an in-repo copy of the unbounded path of scipy's, which a test holds to
scipy's point for point; the module needs numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    ring_graph,
    uniform_superposition,
)


def make_ansatz(n_qubits: int, layers: int, seed) -> np.ndarray:
    """The (layers, n_qubits) thetas, each drawn uniformly from [-0.5, 0.5]."""
    return np.random.default_rng(seed).uniform(-0.5, 0.5, size=(layers, n_qubits))


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


def ansatz_state(thetas: np.ndarray) -> StateVector:
    """The ansatz of (layers, n_qubits) ``thetas`` applied to |0...0>, in float64.

    Row l holds layer l's Ry angles, one per qubit. Ry gates and CZ signs
    are real. The block matrices of all layers come from one broadcast.
    Layer 1 acts on |0...0>, where each sum of a block product has one
    nonzero term, so it is built as the product state of the blocks' first
    columns, one outer product per block in ``qsim._apply_block``'s order:
    the same products, with no matrix product. The state is bit for bit the
    real part of the complex128 simulation, whose imaginary part is exactly
    zero, but for the sign of an exact zero (see ``qsim._apply_block``).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[0] < 1:
        raise ValueError(f"thetas shape {thetas.shape} is not (layers >= 1, n_qubits)")
    layers, n = thetas.shape
    state = StateVector(n)  # checks n before any 2^n array
    half = thetas.T / 2.0
    # Ry(theta) = [[cos, -sin], [sin, cos]] of theta/2, one per (qubit, layer)
    gates = np.empty(half.shape + (2, 2))
    gates[..., 0, 0] = gates[..., 1, 1] = np.cos(half)
    gates[..., 1, 0] = np.sin(half)
    gates[..., 0, 1] = -gates[..., 1, 0]
    blocks = _product_blocks(gates)
    signs = _ring_cz_signs(n)
    amp = np.ones(1)
    for block in blocks:  # layer 1 on |0...0>: its first columns' product
        amp = np.multiply.outer(block[0, :, 0], amp).reshape(-1)
    for layer in range(layers):
        if layer:
            for block in blocks:
                amp = _apply_block(amp, block[layer])
        amp *= signs
    state.amplitudes = amp
    return state


def qaoa_state(h_c: DiagonalCostHamiltonian, gammas, betas,
               mixer: MixerSpec = MixerSpec()) -> StateVector:
    """Apply p blocks of U(gamma_j) then U(beta_j) to the uniform state;
    ``gammas`` and ``betas`` are 1-d of length p (see ``qsim.apply_layers``)."""
    return apply_layers(uniform_superposition(h_c.n_qubits), h_c, mixer, gammas, betas)


def qaoa_expectation(h_c: DiagonalCostHamiltonian, gammas, betas,
                     mixer: MixerSpec = MixerSpec()) -> float:
    return expectation(qaoa_state(h_c, gammas, betas, mixer), h_c)


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
    QAOA gives ``best_params`` as its [gamma..., beta...] vector, VQE as a
    thetas matrix and its ansatz state at that point as ``best_state``."""

    best_params: np.ndarray
    best_value: float
    trace: list[tuple[np.ndarray, float]]
    best_state: StateVector | None = None


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
                  mixer: MixerSpec = MixerSpec(),
                  memo: dict[bytes, float] | None = None) -> OptimizeResult:
    """Optimize the 2p block angles against the cost expectation;
    ``best_params`` is the searched vector, p gammas then p betas.

    ``memo`` maps the bytes of an angle vector to its objective value. Calls
    on the same Hamiltonian, mixer and p may share one: a point met before
    is looked up, not simulated again. A looked-up value is the one a fresh
    evaluation gives, so the result does not depend on the memo.
    """
    if p < 1:
        raise ValueError(f"at least one block is required, got p={p}")
    memo = {} if memo is None else memo

    def objective(vec):
        key = vec.tobytes()
        if key not in memo:
            memo[key] = qaoa_expectation(h_c, vec[:p], vec[p:], mixer)
        return memo[key]

    return optimize_variational(objective, np.zeros(2 * p), budget, seed)


def vqe_run(h_c: DiagonalCostHamiltonian, thetas: np.ndarray, budget: int,
            seed) -> OptimizeResult:
    """Minimize the ansatz expectation of the cost Hamiltonian over thetas,
    starting from the (layers, n_qubits) ``thetas``; ``best_params`` has
    their shape, and ``best_state`` is the state the search evaluated there."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape[1:] != (h_c.n_qubits,):
        raise ValueError(f"thetas shape {thetas.shape} != (layers, {h_c.n_qubits}), "
                         "the hamiltonian's qubits")
    shape = thetas.shape
    best_value, best_state = math.inf, None

    def objective(vec):
        nonlocal best_value, best_state
        state = ansatz_state(vec.reshape(shape))
        value = expectation(state, h_c)
        if value < best_value:  # optimize_variational's best-so-far rule
            best_value, best_state = value, state
        return value

    result = optimize_variational(objective, thetas.ravel(), budget, seed)
    result.best_params = result.best_params.reshape(shape)
    result.best_state = best_state
    return result

