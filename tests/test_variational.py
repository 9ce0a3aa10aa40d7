"""QAOA blocks, the VQE ansatz, and the simplex optimizer."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import reference
from conftest import make_planted_task, phase_tables
from reference import apply_cz, apply_ry, mixer_dense
from qns import anneal, oracle
from qns.qsim import (
    DiagonalCostHamiltonian,
    Mixer,
    MixerSpec,
    StateVector,
    evolve,
    expectation,
    measure,
    midpoint_ramp,
    uniform_superposition,
)
from qns.variational import (
    _ring_cz_signs,
    ansatz_state,
    make_ansatz,
    optimize_variational,
    qaoa_expectation,
    qaoa_optimize,
    qaoa_state,
    vqe_run,
)


def random_instance(n, seed):
    rng = np.random.default_rng(seed)
    return DiagonalCostHamiltonian(n, rng.uniform(0, 1, 1 << n))


def test_qaoa_params_validation():
    """The angles are 1-d gammas and betas of one length, p >= 1 of each."""
    h = random_instance(2, 0)
    with pytest.raises(ValueError, match=r"gammas \(2,\) and betas \(1,\)"):
        qaoa_state(h, [0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match=r"gammas \(1, 2\) and betas \(1, 2\)"):
        qaoa_state(h, [[0.1, 0.2]], [[0.3, 0.4]])
    with pytest.raises(ValueError, match="p=0"):
        qaoa_optimize(h, p=0, budget=10, seed=0)


def test_zero_angles_leave_uniform_state():
    h = random_instance(3, 0)
    state = qaoa_state(h, [0.0, 0.0], [0.0, 0.0])
    np.testing.assert_allclose(state.amplitudes, uniform_superposition(3).amplitudes)
    assert qaoa_expectation(h, [0.0], [0.0]) == pytest.approx(
        h.costs.mean(), abs=1e-12)


def test_beta_zero_keeps_distribution_uniform_exactly():
    h = random_instance(2, 1)
    state = qaoa_state(h, [1.234], [0.0])
    np.testing.assert_array_equal(state.probabilities(), np.full(4, 0.25))


@pytest.mark.parametrize("mixer_name", ["transverse", "bit_flip"])
def test_single_block_matches_dense_exponentials(mixer_name):
    """Independent oracle: multiply the two dense matrix exponentials."""
    h = random_instance(2, 2)
    mixer = MixerSpec() if mixer_name == "transverse" else MixerSpec(Mixer.BIT_FLIP_RING)
    gamma, beta = 0.7, 0.4
    state = qaoa_state(h, [gamma], [beta], mixer)
    u = expm(-1j * beta * mixer_dense(mixer, 2)) @ expm(-1j * gamma * np.diag(h.costs))
    expected = u @ (np.ones(4) / 2.0)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-9)


def test_qaoa_expectation_equals_brute_force_weighted_mean():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        for p in (1, 2, 3):
            h = random_instance(n, n * 10 + p)
            angles = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
            state = qaoa_state(h, *angles)
            brute = float(np.sum(np.abs(state.amplitudes) ** 2 * h.costs))
            assert abs(qaoa_expectation(h, *angles) - brute) < 1e-9


def test_variational_bound_holds_for_qaoa():
    rng = np.random.default_rng(9)
    for trial in range(20):
        h = random_instance(3, trial)
        angles = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        assert qaoa_expectation(h, *angles) >= h.costs.min() - 1e-9


def test_linear_ramp_qaoa_approaches_annealing():
    h = random_instance(3, 7)
    total_time = 12.0
    p = 48
    state = qaoa_state(h, *midpoint_ramp(total_time, p))
    ground = anneal.ground_states(h)
    p_qaoa = float(state.probabilities()[ground].sum())
    p_anneal = anneal.anneal(h, total_time, steps=p).p_ground
    assert abs(p_qaoa - p_anneal) < 0.1


@pytest.mark.parametrize("mixer_name", ["transverse", "bit_flip"])
def test_annealing_is_linear_ramp_qaoa_bit_for_bit(mixer_name):
    h = random_instance(4, 11)
    mixer = MixerSpec() if mixer_name == "transverse" else MixerSpec(Mixer.BIT_FLIP_RING)
    total_time, steps = 7.5, 30
    annealed = evolve(uniform_superposition(4), h, mixer, total_time, steps)
    ramped = qaoa_state(h, *midpoint_ramp(total_time, steps), mixer)
    assert np.array_equal(annealed.amplitudes, ramped.amplitudes)


@settings(max_examples=150, deadline=None)
@given(
    table=phase_tables(),
    transverse=st.booleans(),
    angles=st.lists(st.tuples(st.just(0.0) | st.floats(-4.0, 4.0),
                              st.just(0.0) | st.floats(-4.0, 4.0)),
                    min_size=1, max_size=3),
)
def test_qaoa_state_equals_the_full_table_phase_loop_bit_for_bit(
        table, transverse, angles):
    n, costs = table
    h = DiagonalCostHamiltonian(n, costs)
    mixer = MixerSpec() if transverse else MixerSpec(Mixer.BIT_FLIP_RING)
    gammas, betas = (np.array(column) for column in zip(*angles))
    got = qaoa_state(h, gammas, betas, mixer)
    want = reference.qaoa_state(h, gammas, betas, mixer)
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


# ---------------------------------------------------------------------------
# Optimizer.

def test_optimizer_on_constant_objective():
    result = optimize_variational(lambda x: 4.2, np.zeros(2), budget=25, seed=0)
    assert result.best_value == 4.2
    assert len(result.trace) <= 25


def test_optimizer_finds_quadratic_minimum():
    result = optimize_variational(lambda x: (x[0] - 0.3) ** 2, np.array([2.0]),
                                  budget=200, seed=1)
    assert abs(result.best_params[0] - 0.3) < 1e-3


def test_optimizer_never_beats_budget_or_init():
    calls = []

    def objective(x):
        calls.append(x.copy())
        return float(np.sum(x ** 2))

    init = np.array([1.5, -2.0])
    result = optimize_variational(objective, init, budget=40, seed=2)
    assert len(calls) == len(result.trace) <= 40
    assert result.best_value <= float(np.sum(init ** 2))


def test_optimizer_trace_is_seed_deterministic():
    def objective(x):
        return float(np.cos(x[0]) + 0.1 * x[0] ** 2)

    a = optimize_variational(objective, np.array([3.0]), budget=120, seed=5)
    b = optimize_variational(objective, np.array([3.0]), budget=120, seed=5)
    assert len(a.trace) == len(b.trace)
    for (xa, va), (xb, vb) in zip(a.trace, b.trace):
        np.testing.assert_array_equal(xa, xb)
        assert va == vb


def _smooth(x):
    return float(np.sum(np.cos(3.0 * x) + 0.1 * (x - 0.4) ** 2) + 0.3 * x[0] * x[-1])


# smooth; rounded to 3 decimals, so that values tie in argsort and
# contractions fail into shrinks; constant, so that every run ends in a
# shrink to convergence and the loop restarts
_OBJECTIVES = {
    "smooth": _smooth,
    "rounded": lambda x: round(_smooth(x), 3),
    "constant": lambda x: 0.75,
}


def _assert_same_run(got, want):
    assert len(got.trace) == len(want.trace)
    for (xg, vg), (xw, vw) in zip(got.trace, want.trace):
        assert xg.tobytes() == xw.tobytes()
        assert vg == vw
    assert got.best_params.tobytes() == want.best_params.tobytes()
    assert got.best_value == want.best_value


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from([1, 2, 3, 4, 5, 6, 24]),  # 24: the VQE shape 2 x 12
    budget=st.just(1) | st.integers(1, 400),
    kind=st.sampled_from(sorted(_OBJECTIVES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimizer_evaluates_the_points_of_scipys_nelder_mead(
        data, dim, budget, kind, seed):
    # all-zero, all-non-zero and mixed inits: zero coordinates take the
    # first simplex's absolute step, the others its relative one
    init = data.draw(arrays(np.float64, dim,
                            elements=st.just(0.0) | st.floats(-4.0, 4.0)))
    objective = _OBJECTIVES[kind]
    got = optimize_variational(objective, init, budget, seed)
    _assert_same_run(got, reference.optimize_variational(objective, init, budget, seed))

    # an objective that writes over its argument leaves the search as it was
    seen = []

    def scribbler(x):
        seen.append(x.copy())
        value = objective(x)
        x[...] = 1e6
        return value

    optimize_variational(scribbler, init, budget, seed)
    assert [x.tobytes() for x in seen] == [x.tobytes() for x, _ in got.trace]


@pytest.mark.parametrize("p, budget, seed", [(1, 150, 0), (2, 300, 7)])
def test_qaoa_optimizer_evaluates_the_points_of_scipys_nelder_mead(p, budget, seed):
    net, data, _ = make_planted_task([[2, 3, "identity"]], seed=3)
    h = oracle.build_cost_hamiltonian(net, data)
    assert h.n_qubits == 6

    def objective(vec):
        return qaoa_expectation(h, vec[:p], vec[p:])

    got = qaoa_optimize(h, p, budget, seed)
    want = reference.optimize_variational(objective, np.zeros(2 * p), budget, seed)
    _assert_same_run(got, want)  # best_params is the searched [gammas, betas] vector


# ---------------------------------------------------------------------------
# VQE.

def test_ansatz_validation():
    """The thetas are a (layers >= 1, n_qubits) matrix."""
    with pytest.raises(ValueError, match=r"thetas shape \(3,\)"):
        ansatz_state(np.zeros(3))
    with pytest.raises(ValueError, match=r"thetas shape \(0, 2\)"):
        ansatz_state(np.zeros((0, 2)))
    thetas = make_ansatz(3, layers=2, seed=0)
    assert thetas.shape == (2, 3)
    assert ansatz_state(thetas).n_qubits == 3


def test_ansatz_state_is_normalized():
    assert ansatz_state(make_ansatz(3, 2, seed=1)).norm_error() < 1e-9


def _ring_edges(n):
    """The CZ ring's edges, written out: (q, q + 1 mod n), one edge for n = 2."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    return [(q, (q + 1) % n) for q in range(n)]


@pytest.mark.parametrize("n", range(1, 13))
def test_ring_cz_signs_equal_apply_cz_loop(n):
    state = uniform_superposition(n)
    for a, b in _ring_edges(n):
        apply_cz(state, a, b)
    assert len(_ring_edges(n)) == {1: 0, 2: 1}.get(n, n)
    assert np.array_equal(state.amplitudes * np.sqrt(1 << n), _ring_cz_signs(n))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_ansatz_state_matches_gate_loop(n):
    # angles up to 3 rad, past make_ansatz's 0.5
    thetas = np.random.default_rng(n).uniform(-3.0, 3.0, size=(3, n))
    expected = StateVector(n)
    for layer in thetas:
        for q, theta in enumerate(layer):
            apply_ry(expected, q, float(theta))
        for a, b in _ring_edges(n):
            apply_cz(expected, a, b)
    np.testing.assert_allclose(ansatz_state(thetas).amplitudes, expected.amplitudes,
                               rtol=0, atol=1e-13)


@settings(max_examples=100, deadline=None)
@given(thetas=st.tuples(st.integers(1, 3), st.integers(1, 10)).flatmap(
           lambda shape: arrays(np.float64, shape,
                                elements=st.floats(-2 * math.pi, 2 * math.pi))),
       seed=st.integers(0, 2**32 - 1))
# the benchmark's size: 2 layers at n = 12
@example(thetas=make_ansatz(12, 2, 0), seed=0)
def test_ansatz_state_is_the_real_part_of_the_complex_path(thetas, seed):
    n = thetas.shape[1]
    state = ansatz_state(thetas)
    stored_complex = reference.ansatz_state(thetas)
    assert state.amplitudes.dtype == np.float64
    # bit for bit but for the sign of an exact zero: the complex product's
    # real part subtracts +-0 imaginary terms, which can flip it (seen when
    # products underflow, thetas ~1e-70); + 0.0 maps -0.0 to 0.0 and leaves
    # every other value as it is, and no probability tells the two apart
    assert ((state.amplitudes + 0.0).tobytes()
            == (stored_complex.amplitudes.real + 0.0).tobytes())
    assert state.probabilities().tobytes() == stored_complex.probabilities().tobytes()
    assert np.all(stored_complex.amplitudes.imag == 0)
    h = random_instance(n, seed)
    assert expectation(state, h) == expectation(stored_complex, h)
    assert (measure(state, np.random.default_rng(seed))
            == measure(stored_complex, np.random.default_rng(seed)))


def test_vqe_on_constant_hamiltonian():
    h = DiagonalCostHamiltonian(2, np.full(4, 2.0))
    result = vqe_run(h, make_ansatz(2, 2, seed=0), budget=50, seed=0)
    assert result.best_value == pytest.approx(2.0, abs=1e-12)


def test_vqe_respects_variational_bound_over_seeds():
    for seed in range(20):
        h = random_instance(2, 200 + seed)
        result = vqe_run(h, make_ansatz(2, 2, seed), budget=60, seed=seed)
        assert result.best_value >= h.costs.min() - 1e-9


def test_vqe_gets_close_to_minimum_on_most_seeds():
    hits = 0
    for seed in range(10):
        h = random_instance(2, 100 + seed)
        result = vqe_run(h, make_ansatz(2, 2, seed), budget=600, seed=seed)
        spread = h.costs.max() - h.costs.min()
        hits += result.best_value - h.costs.min() <= 0.05 * spread
    assert hits >= 8


@pytest.mark.parametrize("n, layers, budget", [(2, 2, 60), (3, 1, 40), (4, 2, 7)])
def test_vqe_best_state_is_the_ansatz_state_at_the_best_point(n, layers, budget):
    """The state vqe_run keeps is the one a fresh ``ansatz_state`` gives at
    ``best_params``, bit for bit, and the best value is its expectation."""
    h = random_instance(n, 30 + n)
    thetas = make_ansatz(n, layers, seed=n)
    result = vqe_run(h, thetas, budget=budget, seed=n)
    assert result.best_params.shape == thetas.shape
    fresh = ansatz_state(result.best_params)
    assert np.array_equal(result.best_state.amplitudes, fresh.amplitudes)
    assert result.best_value == expectation(fresh, h)
    assert result.best_value == min(value for _, value in result.trace)


def test_vqe_rejects_mismatched_sizes():
    h = random_instance(3, 0)
    with pytest.raises(ValueError, match=r"thetas shape \(2, 2\) != \(layers, 3\)"):
        vqe_run(h, make_ansatz(2, 2, seed=0), budget=10, seed=0)
    with pytest.raises(ValueError, match=r"thetas shape \(3,\)"):
        vqe_run(h, np.zeros(3), budget=10, seed=0)


def test_deeper_qaoa_does_not_lose_to_shallow():
    """p=2 matches or beats p=1 on a planted 4-qubit instance, same budget."""
    rng = np.random.default_rng(31)
    costs = 0.2 + rng.uniform(0, 0.8, 16)
    costs[11] = 0.0
    h = DiagonalCostHamiltonian(4, costs)
    r1 = qaoa_optimize(h, p=1, budget=400, seed=3)
    r2 = qaoa_optimize(h, p=2, budget=400, seed=3)
    assert r2.best_value <= r1.best_value + 1e-9
