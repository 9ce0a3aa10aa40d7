"""Annealing schedules and ground-state diagnostics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cost_tables
from reference import mixer_dense
from qns.anneal import (
    GROUND_ATOL,
    anneal,
    ground_states,
)
from qns.qsim import DiagonalCostHamiltonian, Mixer, MixerSpec


def gapped_instance(seed, n=3, floor=0.3):
    """Unique planted minimum with every other cost at least ``floor`` above it."""
    rng = np.random.default_rng(seed)
    costs = floor + rng.uniform(0, 1.0 - floor, 1 << n)
    costs[rng.integers(1 << n)] = 0.0
    return DiagonalCostHamiltonian(n, costs)


def test_ground_states_examples():
    assert list(ground_states(DiagonalCostHamiltonian(2, [3.0, 1.0, 1.0, 2.0]))) == [1, 2]
    assert list(ground_states(DiagonalCostHamiltonian(2, [0.0, 1.0, 2.0, 3.0]))) == [0]


def test_ground_states_match_brute_force_scan():
    rng = np.random.default_rng(3)
    for _ in range(20):
        costs = rng.uniform(0, 1, 16)
        h = DiagonalCostHamiltonian(4, costs)
        expected = [i for i in range(16) if costs[i] <= costs.min() + 1e-12]
        assert list(ground_states(h)) == expected


def test_constant_costs_make_every_state_ground():
    h = DiagonalCostHamiltonian(2, np.full(4, 1.3))
    result = anneal(h, 5.0, steps=100)
    assert result.p_ground == pytest.approx(1.0, abs=1e-9)


def test_p_ground_increases_with_total_time():
    h = gapped_instance(seed=1)
    probs = [anneal(h, T, steps=2000).p_ground for T in (1, 10, 100)]
    assert probs[0] < probs[1] < probs[2]


def test_long_schedule_reaches_ground_state():
    h = gapped_instance(seed=2)
    result = anneal(h, 200.0, steps=2000)
    assert result.p_ground > 0.9
    assert result.final_state.norm_error() < 1e-6


def test_trotter_evolution_matches_ode_integration():
    """Independent oracle: integrate dpsi/dt = -i H(t) psi with solve_ivp."""
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(17)
    costs = rng.uniform(0, 1, 8)
    h = DiagonalCostHamiltonian(3, costs)
    mixer = MixerSpec()
    total_time = 3.0

    hm = mixer_dense(mixer, 3)
    hc = np.diag(costs)

    def rhs(t, y):
        psi = y[:8] + 1j * y[8:]
        s = t / total_time
        dpsi = -1j * ((1 - s) * (hm @ psi) + s * (hc @ psi))
        return np.concatenate([dpsi.real, dpsi.imag])

    start = np.full(8, 1 / np.sqrt(8))
    sol = solve_ivp(rhs, (0.0, total_time),
                    np.concatenate([start, np.zeros(8)]),
                    rtol=1e-10, atol=1e-12, dense_output=False)
    reference = sol.y[:8, -1] + 1j * sol.y[8:, -1]

    from qns.qsim import evolve, uniform_superposition
    state = uniform_superposition(3)
    evolve(state, h, mixer, total_time, steps=4000)
    assert np.linalg.norm(state.amplitudes - reference) < 2e-3
    state_fine = uniform_superposition(3)
    evolve(state_fine, h, mixer, total_time, steps=16000)
    err_fine = np.linalg.norm(state_fine.amplitudes - reference)
    err_coarse = np.linalg.norm(state.amplitudes - reference)
    assert err_fine < err_coarse / 2  # first-order convergence toward the truth


@settings(max_examples=60, deadline=None)
@given(
    table=cost_tables(max_bits=5),
    transverse=st.booleans(),
    total_time=st.floats(0.01, 20.0),
    steps=st.integers(1, 40),
)
def test_anneal_result_is_a_distribution_over_the_table(table, transverse,
                                                        total_time, steps):
    n, costs, _ = table
    h = DiagonalCostHamiltonian(n, costs)
    mixer = MixerSpec() if transverse else MixerSpec(Mixer.BIT_FLIP_RING)
    result = anneal(h, total_time, steps, mixer)
    assert result.final_state.norm_error() <= 1e-12
    probs = result.final_state.probabilities()
    ground = [x for x in range(1 << n) if costs[x] <= costs.min() + GROUND_ATOL]
    assert ground_states(h).tolist() == ground
    assert 0.0 <= result.p_ground <= 1.0
    assert result.p_ground == pytest.approx(sum(probs[x] for x in ground), abs=1e-12)
    assert costs.min() <= result.final_expectation <= costs.max()


def test_bit_flip_mixer_anneal_preserves_norm():
    h = gapped_instance(seed=5)
    result = anneal(h, 20.0, steps=400, mixer=MixerSpec(Mixer.BIT_FLIP_RING))
    assert result.final_state.norm_error() < 1e-6


def test_schedule_validation():
    h = DiagonalCostHamiltonian(2, [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="total_time must be positive, got 0.0"):
        anneal(h, 0.0)
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        anneal(h, 1.0, steps=0)

