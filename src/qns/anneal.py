"""Simulated annealing of a diagonal cost Hamiltonian.

Starts from the uniform superposition (the transverse-field ground state)
and Trotter-evolves under the mixer/cost interpolation; slow schedules end
with most probability mass on the minimum-cost basis states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import (
    DEFAULT_TROTTER_STEPS,
    DiagonalCostHamiltonian,
    MixerSpec,
    StateVector,
    evolve,
    expectation,
    uniform_superposition,
    within_table,
)

GROUND_ATOL = 1e-12


@dataclass
class AnnealResult:
    final_state: StateVector
    p_ground: float
    final_expectation: float


def ground_states(h_c: DiagonalCostHamiltonian) -> np.ndarray:
    """Indices of every basis state within GROUND_ATOL of the minimum cost."""
    return np.flatnonzero(h_c.costs <= h_c.costs.min() + GROUND_ATOL)


def anneal(h_c: DiagonalCostHamiltonian, total_time: float,
           steps: int = DEFAULT_TROTTER_STEPS, mixer: MixerSpec | None = None) -> AnnealResult:
    """Evolve the uniform state for ``total_time`` in ``steps`` Trotter steps
    (:func:`qns.qsim.evolve`, which checks both) under ``mixer``, the
    transverse field by default."""
    state = uniform_superposition(h_c.n_qubits)
    evolve(state, h_c, MixerSpec() if mixer is None else mixer, total_time, steps)
    # rounding can carry a normalized state's probabilities past 1 in sum
    p_ground = min(float(state.probabilities()[ground_states(h_c)].sum()), 1.0)
    return AnnealResult(state, p_ground, within_table(expectation(state, h_c), h_c))
