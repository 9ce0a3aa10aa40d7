"""Amplitude-amplification search over a cost table.

A search marks the table entries below epsilon once, then builds each
attempt's oracle+diffusion rounds from their closed form's two amplitudes
(:func:`amplified_state`) into a verified search: the measured index is
always checked against the marks before it is accepted, so a returned
success is never a sampling fluke. Oracle-call accounting is at the query
level: one call per oracle round plus one per classical verification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstrings import index_to_bits
from .qsim import StateVector, measure, uniform_superposition

UNKNOWN_K_GROWTH = 6.0 / 5.0


@dataclass
class GroverConfig:
    iterations: int | None = None  # None = derive from known_k or the marked count
    known_k: int | None = None
    max_restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.iterations is not None and self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {self.max_restarts}")
        if self.known_k is not None and self.known_k < 1:
            raise ValueError(f"known_k must be >= 1, got {self.known_k}")


@dataclass
class GroverResult:
    bits: np.ndarray
    measured_good: bool
    oracle_calls: int
    iterations: int
    restarts: int


def optimal_iterations(n_states: int, k: int) -> int:
    """floor(pi/4 * sqrt(N/k)), clamped to at least one iteration."""
    if k < 1 or k > n_states:
        raise ValueError(f"solution count k={k} must satisfy 1 <= k <= {n_states}")
    return max(1, math.floor(math.pi / 4.0 * math.sqrt(n_states / k)))


def _amplified_angle(n_states: int, k: int, t: int) -> float:
    """(2t+1) asin(sqrt(k/N)), the angle of the state after t rounds from the
    uniform one (Boyer, Brassard, Hoyer & Tapp, Fortschr. Phys. 46, 493, 1998)."""
    return (2 * t + 1) * math.asin(math.sqrt(k / n_states))


def success_probability(n_states: int, k: int, t: int) -> float:
    """Closed form sin^2((2t+1) asin(sqrt(k/N))) for t oracle+diffusion rounds."""
    return math.sin(_amplified_angle(n_states, k, t)) ** 2


def amplified_state(marked: np.ndarray, n_qubits: int, iterations: int) -> StateVector:
    """Uniform state with ``iterations`` oracle+diffusion rounds applied.

    The rounds leave sin(a)/sqrt(k) on each of the k states flagged in
    ``marked`` and cos(a)/sqrt(N - k) on the rest, a = :func:`_amplified_angle`;
    no round, no mark or every mark leaves the uniform state.
    """
    state = uniform_superposition(n_qubits)
    marked = np.asarray(marked, dtype=bool)
    if marked.shape != (state.dim,):
        raise ValueError(f"expected {state.dim} mark flags, got shape {marked.shape}")
    k = int(np.count_nonzero(marked))
    if iterations and 0 < k < state.dim:
        a = _amplified_angle(state.dim, k, iterations)
        state.amplitudes[:] = np.where(marked, math.sin(a) / math.sqrt(k),
                                       math.cos(a) / math.sqrt(state.dim - k))
    return state


def _resolve_iterations(cfg: GroverConfig, n_states: int, k_marked: int) -> int:
    if cfg.iterations is not None:
        return cfg.iterations
    k = cfg.known_k if cfg.known_k is not None else k_marked
    if k < 1:
        return 1  # nothing to amplify; a single round keeps the run cheap
    t = optimal_iterations(n_states, k)
    # when most states are marked the clamped single iteration can rotate
    # far past the target (near zero success around k/N = 3/4); verified
    # plain sampling wins there, so use it
    if success_probability(n_states, k, t) < k / n_states:
        return 0
    return t


def _marked(costs, epsilon: float) -> np.ndarray:
    """The entries of ``costs`` below ``epsilon``: the predicate every attempt
    checks. The table must be 1-d with 2^n entries, n >= 1."""
    costs = np.asarray(costs)
    if costs.ndim != 1 or costs.size < 2 or costs.size & (costs.size - 1):
        raise ValueError(f"cost table must be 1-d with 2^n entries, n >= 1, "
                         f"got shape {costs.shape}")
    # epsilon 0 is allowed as a degenerate probe: no cost is below 0.
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return costs < epsilon


def _verified_search(marked: np.ndarray, next_t, budget: int,
                     rng: np.random.Generator) -> GroverResult:
    """Verified attempts until one measures a marked index or the oracle
    calls reach ``budget``.

    Each attempt takes t = ``next_t()`` oracle+diffusion rounds
    (:func:`amplified_state`), measures once and checks the measured index
    against ``marked``: t + 1 oracle calls including the verification.
    ``restarts`` counts the attempts and ``iterations`` is the last one's t.
    """
    n_bits = marked.size.bit_length() - 1
    calls = attempts = t = index = 0
    good = False
    while not good and calls < budget:
        attempts += 1
        t = next_t()
        index = measure(amplified_state(marked, n_bits, t), rng)
        calls += t + 1
        good = bool(marked[index])
    return GroverResult(index_to_bits(index, n_bits).astype(np.uint8), good,
                        calls, t, attempts)


def grover_search(costs, epsilon: float, cfg: GroverConfig) -> GroverResult:
    """Search the table ``costs`` (entry x the cost of pattern x) for a
    pattern with cost below ``epsilon``.

    Up to ``cfg.max_restarts`` verified attempts of the configured t rounds:
    a budget of max_restarts * (t + 1) calls, so ``oracle_calls`` is exactly
    (t + 1) * restarts. The register has log2 of the table's length in
    qubits, refused past the qubit ceiling before any state is built.
    """
    marked = _marked(costs, epsilon)
    t = _resolve_iterations(cfg, marked.size, int(marked.sum()))
    return _verified_search(marked, lambda: t, cfg.max_restarts * (t + 1),
                            np.random.default_rng(cfg.seed))


def search_unknown_k(costs, epsilon: float, seed: int = 0) -> GroverResult:
    """Exponentially-growing random-iteration schedule for an unknown solution count.

    Searches ``costs`` for an entry below ``epsilon``, as :func:`grover_search`
    does. Round r draws t uniformly from [0, min(ceil(m), ceil(pi/4 sqrt(N)))]
    with m growing by 6/5 per round, runs t iterations, and verifies the
    measurement. Stops on success or when the call budget
    3 * sqrt(N) * log2(N) is exhausted.
    """
    marked = _marked(costs, epsilon)
    n_states = marked.size
    t_cap = math.ceil(math.pi / 4.0 * math.sqrt(n_states))
    rng = np.random.default_rng(seed)

    def draws():
        m = 1.0
        while True:
            yield int(rng.integers(0, min(math.ceil(m), t_cap) + 1))
            m *= UNKNOWN_K_GROWTH

    budget = int(3 * math.sqrt(n_states) * math.log2(n_states))
    return _verified_search(marked, draws().__next__, budget, rng)
