"""Simulated annealing of a diagonal cost Hamiltonian.

Starts from the uniform superposition (the transverse-field ground state)
and Trotter-evolves under the mixer/cost interpolation; slow schedules end
with most probability mass on the minimum-cost basis states.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
class AnnealSchedule:
    total_time: float
    steps: int = DEFAULT_TROTTER_STEPS
    mixer: MixerSpec = field(default_factory=MixerSpec)

    def __post_init__(self):
        if not self.total_time > 0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass
class AnnealResult:
    final_state: StateVector
    p_ground: float
    ground: np.ndarray
    final_expectation: float


def ground_states(h_c: DiagonalCostHamiltonian) -> np.ndarray:
    """Indices of every basis state within GROUND_ATOL of the minimum cost."""
    return np.flatnonzero(h_c.costs <= h_c.costs.min() + GROUND_ATOL)


def anneal(h_c: DiagonalCostHamiltonian, sched: AnnealSchedule) -> AnnealResult:
    state = uniform_superposition(h_c.n_qubits)
    evolve(state, h_c, sched.mixer, sched.total_time, sched.steps)
    ground = ground_states(h_c)
    # rounding can carry a normalized state's probabilities past 1 in sum
    p_ground = min(float(state.probabilities()[ground].sum()), 1.0)
    return AnnealResult(state, p_ground, ground,
                        within_table(expectation(state, h_c), h_c))

