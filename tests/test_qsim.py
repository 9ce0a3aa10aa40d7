"""Statevector simulator: gates, oracle, diffusion, sampling, evolution."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

import reference
from conftest import phase_tables
from reference import (
    apply_single_qubit, apply_cz, apply_h, apply_ry, apply_x, apply_z,
    chebyshev_propagate, mixer_dense,
)
from qns import bitflip, qsim
from qns.bitstrings import all_patterns, bits_to_index, bits_to_string, index_to_bits
from qns.qsim import (
    DiagonalCostHamiltonian,
    MixerSpec,
    StateVector,
    apply_diffusion,
    apply_phase_oracle,
    apply_product,
    cost_phase,
    evolve,
    expectation,
    measure,
    ring_graph,
    sample,
    uniform_superposition,
)
from qns.variational import _ring_cz_signs

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    return StateVector(n, amp)


def random_gates(n, seed):
    """n random 2x2 unitaries: the Q factors of complex Gaussian draws."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    return q


def apply_per_qubit(state, gates):
    """Reference for apply_product: one single-qubit pass per gate."""
    for q, gate in enumerate(gates):
        apply_single_qubit(state, q, *gate.ravel())
    return state


def kron_on(op, qubit, n):
    """Dense operator acting with ``op`` on one qubit (bit j = qubit j)."""
    out = np.array([[1.0]])
    for q in range(n):  # later factors take higher bits, so qubit 0 is lowest
        out = np.kron(op if q == qubit else I2, out)
    return out


# ---------------------------------------------------------------------------
# Bit convention: bit j of an index is qubit and mask position j.

@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_bit_convention_round_trips(data, n):
    i = data.draw(st.integers(0, (1 << n) - 1))
    bits = index_to_bits(i, n)
    assert bits_to_index(bits) == i
    assert np.array_equal(bits, [(i >> j) & 1 for j in range(n)])
    assert np.array_equal(all_patterns(n)[i], bits)
    assert bits_to_string(bits) == "".join(str((i >> j) & 1) for j in range(n))


# ---------------------------------------------------------------------------
# StateVector basics.

def test_statevector_starts_in_zero():
    s = StateVector(3)
    assert s.amplitudes[0] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_statevector_rejects_bad_inputs():
    with pytest.raises(ValueError):
        StateVector(0)
    with pytest.raises(ValueError):
        StateVector(qsim.max_qubits() + 1)
    with pytest.raises(ValueError):
        StateVector(2, np.ones(3))
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized


def test_qubit_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("QNS_MAX_QUBITS", "3")
    assert qsim.max_qubits() == 3
    with pytest.raises(ValueError):
        StateVector(4)


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_qubit_ceiling_env_override_is_validated(monkeypatch, raw):
    monkeypatch.setenv("QNS_MAX_QUBITS", raw)
    with pytest.raises(ValueError, match=f"QNS_MAX_QUBITS .*'{raw}'"):
        qsim.max_qubits()
    with pytest.raises(ValueError, match="QNS_MAX_QUBITS"):
        StateVector(2)


@pytest.mark.parametrize("n,amp", [(1, 1 / math.sqrt(2)), (2, 0.5)])
def test_uniform_superposition_amplitudes(n, amp):
    s = uniform_superposition(n)
    np.testing.assert_allclose(s.amplitudes, amp)


def test_uniform_superposition_probabilities_n3():
    s = uniform_superposition(3)
    p = s.probabilities()
    np.testing.assert_allclose(p, 1.0 / 8.0)
    assert abs(p.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Gates.

def test_ry_zero_is_identity():
    s = random_state(3, 1)
    before = s.amplitudes.copy()
    apply_ry(s, 1, 0.0)
    np.testing.assert_allclose(s.amplitudes, before)


def test_ry_pi_flips_zero_to_one():
    s = StateVector(1)
    apply_ry(s, 0, math.pi)
    np.testing.assert_allclose(s.amplitudes, [0.0, 1.0], atol=1e-15)


def test_h_then_ry_half_pi_measures_one():
    s = StateVector(1)
    apply_h(s, 0)
    apply_ry(s, 0, math.pi / 2)
    np.testing.assert_allclose(s.probabilities(), [0.0, 1.0], atol=1e-15)


def test_ry_angles_add():
    s1 = random_state(2, 7)
    s2 = s1.copy()
    apply_ry(s1, 0, 0.3)
    apply_ry(s1, 0, 1.1)
    apply_ry(s2, 0, 1.4)
    np.testing.assert_allclose(s1.amplitudes, s2.amplitudes, atol=1e-9)


def test_ry_matches_dense_matrix():
    theta = 0.77
    s = random_state(3, 5)
    expected = kron_on(
        np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                  [math.sin(theta / 2), math.cos(theta / 2)]]), 2, 3
    ) @ s.amplitudes
    apply_ry(s, 2, theta)
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)


def test_ry_rejects_bad_qubit_and_theta():
    s = StateVector(2)
    with pytest.raises(ValueError):
        apply_ry(s, 2, 0.1)
    with pytest.raises(ValueError):
        apply_ry(s, 0, math.inf)


def test_cz_negates_both_ones():
    s = uniform_superposition(2)
    apply_cz(s, 0, 1)
    np.testing.assert_allclose(s.amplitudes, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        apply_cz(s, 1, 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), shared=st.booleans())
def test_apply_product_matches_per_qubit_loop(n, seed, shared):
    gates = random_gates(1 if shared else n, seed)
    start = random_state(n, seed)
    out = apply_product(start.copy(), gates[0] if shared else gates)
    expected = apply_per_qubit(start.copy(), np.broadcast_to(gates, (n, 2, 2)))
    np.testing.assert_allclose(out.amplitudes, expected.amplitudes, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), shared=st.booleans())
def test_real_gates_keep_a_real_state_real(n, seed, shared):
    # the float64 result is bit for bit the real part of the complex128 one
    rng = np.random.default_rng(seed)
    gates, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)))
    gates = gates[0] if shared else gates
    amp = rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    real = apply_product(StateVector(n, amp), gates)
    stored_complex = apply_product(StateVector(n, amp + 0j), gates)
    assert real.amplitudes.dtype == np.float64
    assert real.amplitudes.tobytes() == stored_complex.amplitudes.real.tobytes()
    assert np.all(stored_complex.amplitudes.imag == 0)


@pytest.mark.parametrize("mixer", [MixerSpec.transverse_field(),
                                   MixerSpec.bit_flip(ring_graph(6))])
def test_real_state_promoted_to_complex_gives_the_complex_states_bytes(mixer):
    n = 6
    rng = np.random.default_rng(41)
    amp = rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    h = DiagonalCostHamiltonian(n, rng.uniform(0.0, 1.0, 1 << n))
    for step in (lambda s: qsim.apply_mixer(s, mixer, 0.7),
                 lambda s: evolve(s, h, mixer, 1.3, steps=5)):
        real, stored_complex = StateVector(n, amp), StateVector(n, amp + 0j)
        assert real.amplitudes.dtype == np.float64
        step(real)
        step(stored_complex)
        assert real.amplitudes.dtype == np.complex128
        assert real.amplitudes.tobytes() == stored_complex.amplitudes.tobytes()


def test_apply_product_rejects_wrong_gate_count():
    with pytest.raises(ValueError, match="2x2"):
        apply_product(uniform_superposition(3), random_gates(2, 0))


def test_sixteen_qubit_layers_match_per_qubit_loop():
    n = 16
    start = random_state(n, 3)
    beta = 0.83
    tf = qsim.apply_mixer(start.copy(), MixerSpec.transverse_field(), beta)
    u = np.array([[math.cos(beta), 1j * math.sin(beta)],
                  [1j * math.sin(beta), math.cos(beta)]])
    expected = apply_per_qubit(start.copy(), [u] * n)
    np.testing.assert_allclose(tf.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)

    thetas = np.random.default_rng(4).uniform(-math.pi, math.pi, n)
    c, s = np.cos(thetas / 2), np.sin(thetas / 2)
    ry = apply_product(start.copy(), np.stack([np.stack([c, -s], -1),
                                               np.stack([s, c], -1)], -2))
    expected = start.copy()
    for q, theta in enumerate(thetas):
        apply_ry(expected, q, float(theta))
    np.testing.assert_allclose(ry.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)


def test_x_flips_and_z_signs_basis_states():
    s = StateVector.basis_state(2, 0)
    apply_x(s, 1)
    np.testing.assert_array_equal(s.amplitudes, [0, 0, 1, 0])
    apply_z(s, 1)
    np.testing.assert_array_equal(s.amplitudes, [0, 0, -1, 0])
    apply_z(s, 0)  # qubit 0 is clear: no sign change
    np.testing.assert_array_equal(s.amplitudes, [0, 0, -1, 0])


# ---------------------------------------------------------------------------
# Phase oracle.

def test_oracle_no_marks_is_identity():
    s = random_state(3, 2)
    before = s.amplitudes.copy()
    apply_phase_oracle(s, np.zeros(8, dtype=bool))
    np.testing.assert_allclose(s.amplitudes, before)


def test_oracle_all_marked_is_global_phase():
    s = random_state(3, 3)
    before = s.amplitudes.copy()
    probs = s.probabilities()
    apply_phase_oracle(s, np.ones(8, dtype=bool))
    np.testing.assert_allclose(s.probabilities(), probs)
    assert np.array_equal(s.amplitudes, -before)


def test_oracle_flips_single_index():
    s = uniform_superposition(2)
    apply_phase_oracle(s, np.arange(4) == 3)
    np.testing.assert_allclose(s.amplitudes, [0.5, 0.5, 0.5, -0.5])


@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_oracle_matches_predicate_brute_force(n):
    rng = np.random.default_rng(n)
    marked = rng.random(1 << n) < 0.3
    s = random_state(n, n + 20)
    before = s.amplitudes.copy()
    apply_phase_oracle(s, marked)
    signs = np.where(marked, -1.0, 1.0)
    np.testing.assert_allclose(s.amplitudes, signs * before)
    assert s.norm_error() < 1e-12


# ---------------------------------------------------------------------------
# Diffusion.

def test_diffusion_fixes_uniform_state():
    s = uniform_superposition(3)
    apply_diffusion(s)
    np.testing.assert_allclose(s.amplitudes, 1 / math.sqrt(8))


def test_diffusion_on_basis_state_single_qubit():
    s = StateVector(1)  # amplitudes (1, 0); mean 0.5 -> (0, 1)
    apply_diffusion(s)
    np.testing.assert_allclose(s.amplitudes, [0.0, 1.0])


def test_one_grover_iteration_on_four_states_is_exact():
    s = uniform_superposition(2)
    apply_phase_oracle(s, np.arange(4) == 3)
    apply_diffusion(s)
    np.testing.assert_allclose(s.probabilities(), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_diffusion_is_an_involution():
    s = random_state(4, 9)
    before = s.amplitudes.copy()
    apply_diffusion(s)
    apply_diffusion(s)
    np.testing.assert_allclose(s.amplitudes, before, atol=1e-9)


# ---------------------------------------------------------------------------
# Measurement.

def test_measure_basis_state_is_deterministic():
    s = StateVector.basis_state(2, 1)
    rng = np.random.default_rng(0)
    assert all(measure(s, rng) == 1 for _ in range(20))


def test_measure_uniform_frequencies():
    s = uniform_superposition(2)
    rng = np.random.default_rng(42)
    draws = sample(s, rng, 10000)
    freqs = np.bincount(draws, minlength=4) / 10000
    np.testing.assert_allclose(freqs, 0.25, atol=0.03)  # binomial 3 sigma


def test_measure_is_seed_deterministic_and_non_destructive():
    s = uniform_superposition(3)
    before = s.amplitudes.copy()
    a = [measure(s, np.random.default_rng(7)) for _ in range(5)]
    b = [measure(s, np.random.default_rng(7)) for _ in range(5)]
    assert a == b
    seq1 = sample(s, np.random.default_rng(9), 50)
    seq2 = sample(s, np.random.default_rng(9), 50)
    np.testing.assert_array_equal(seq1, seq2)
    np.testing.assert_array_equal(s.amplitudes, before)


# ---------------------------------------------------------------------------
# Expectation.

def test_expectation_uniform_is_mean_cost():
    rng = np.random.default_rng(11)
    costs = rng.uniform(0, 5, 16)
    h = DiagonalCostHamiltonian(4, costs)
    s = uniform_superposition(4)
    assert abs(expectation(s, h) - costs.mean()) < 1e-12


def test_expectation_on_basis_state_is_that_cost():
    h = DiagonalCostHamiltonian(2, [3.0, 1.0, 4.0, 1.5])
    for x in range(4):
        s = StateVector.basis_state(2, x)
        assert expectation(s, h) == h.costs[x]


def test_expectation_weighted_sum_example():
    h = DiagonalCostHamiltonian(2, [0.0, 1.0, 2.0, 3.0])
    amp = np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0])
    s = StateVector(2, amp)
    assert abs(expectation(s, h) - 0.5) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(uniform_superposition(2), DiagonalCostHamiltonian(3, np.zeros(8)))


def test_hamiltonian_rejects_nonfinite_costs():
    with pytest.raises(ValueError):
        DiagonalCostHamiltonian(2, [0.0, 1.0, np.inf, 2.0])
    with pytest.raises(ValueError):
        DiagonalCostHamiltonian(2, [0.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(angle=st.floats(-50.0, 50.0), seed=st.integers(0, 2**32 - 1))
def test_cost_phase_matches_complex_exponential(angle, seed):
    costs = np.random.default_rng(seed).uniform(-10.0, 10.0, 256)
    np.testing.assert_allclose(cost_phase(costs, angle), np.exp(-1j * angle * costs),
                               rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Mixers.

def test_ring_graph_shapes():
    assert ring_graph(1) == ((),)
    assert ring_graph(2) == ((1,), (0,))
    assert ring_graph(4) == ((3, 1), (0, 2), (1, 3), (2, 0))


def test_bit_flip_rejects_self_loops():
    with pytest.raises(ValueError):
        MixerSpec.bit_flip(((0,), (0,)))
    with pytest.raises(ValueError):
        MixerSpec.bit_flip(((1,), (0,)), target_bit=2)


def test_bit_flip_rejects_wrong_vertex_count():
    mixer = MixerSpec.bit_flip(ring_graph(3))
    with pytest.raises(ValueError, match="4 vertices"):
        qsim.apply_mixer(uniform_superposition(4), mixer, 1.0)


def test_transverse_field_dense_matches_kron():
    n = 3
    expected = -sum(kron_on(X, q, n) for q in range(n))
    np.testing.assert_allclose(
        mixer_dense(MixerSpec.transverse_field(), n), expected)


@pytest.mark.parametrize("n,b", [(2, 0), (4, 0), (6, 1)])
def test_bit_flip_dense_matches_product_formula(n, b):
    """Entrywise check against a literal kron build of the flip operator."""
    graph = ring_graph(n)
    dim = 1 << n
    expected = np.zeros((dim, dim))
    for v in range(n):
        term = kron_on(X, v, n) / (2 ** len(graph[v]))
        for w in graph[v]:
            term = term @ (np.eye(dim) + ((-1) ** b) * kron_on(Z, w, n))
        expected += term
    got = mixer_dense(MixerSpec.bit_flip(graph, b), n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_bit_flip_only_reaches_allowed_flips():
    """Applying the mixer once never populates states whose flip precondition fails."""
    n = 5
    graph = ring_graph(n)
    b = 0
    h = mixer_dense(MixerSpec.bit_flip(graph, b), n)
    for x in range(1 << n):
        reached = np.flatnonzero(h[:, x])
        allowed = set()
        for v in range(n):
            if all(((x >> w) & 1) == b for w in graph[v]):
                allowed.add(x ^ (1 << v))
        assert set(reached.tolist()) <= allowed


# ---------------------------------------------------------------------------
# Evolution.

def test_evolve_constant_costs_keeps_uniform():
    h = DiagonalCostHamiltonian(3, np.full(8, 2.5))
    s = uniform_superposition(3)
    evolve(s, h, MixerSpec.transverse_field(), total_time=10.0, steps=200)
    np.testing.assert_allclose(s.probabilities(), 1 / 8, atol=1e-9)


def test_evolve_concentrates_on_planted_minimum():
    rng = np.random.default_rng(5)
    costs = 0.3 + rng.uniform(0, 0.7, 8)
    costs[5] = 0.0
    h = DiagonalCostHamiltonian(3, costs)
    s = uniform_superposition(3)
    evolve(s, h, MixerSpec.transverse_field(), total_time=100.0, steps=2000)
    probs = s.probabilities()
    assert np.argmax(probs) == 5
    assert all(probs[5] > probs[i] for i in range(8) if i != 5)


def test_evolve_trotter_refinement_converges():
    rng = np.random.default_rng(12)
    h = DiagonalCostHamiltonian(3, rng.uniform(0, 1, 8))
    mixer = MixerSpec.transverse_field()
    s400 = uniform_superposition(3)
    evolve(s400, h, mixer, total_time=1.0, steps=400)
    s800 = uniform_superposition(3)
    evolve(s800, h, mixer, total_time=1.0, steps=800)
    assert np.linalg.norm(s400.amplitudes - s800.amplitudes) < 1e-3


def test_evolve_norm_preserved_over_full_schedule():
    rng = np.random.default_rng(8)
    h = DiagonalCostHamiltonian(4, rng.uniform(0, 2, 16))
    s = uniform_superposition(4)
    evolve(s, h, MixerSpec.bit_flip(ring_graph(4)), total_time=50.0, steps=800)
    assert s.norm_error() < 1e-6


def test_evolve_validates_arguments():
    h = DiagonalCostHamiltonian(2, np.zeros(4))
    s = uniform_superposition(2)
    with pytest.raises(ValueError):
        evolve(s, h, MixerSpec.transverse_field(), total_time=0.0, steps=10)
    with pytest.raises(ValueError):
        evolve(s, h, MixerSpec.transverse_field(), total_time=1.0, steps=0)
    with pytest.raises(ValueError):
        evolve(s, DiagonalCostHamiltonian(3, np.zeros(8)), MixerSpec.transverse_field(), 1.0)


def test_hamiltonian_holds_a_read_only_copy_of_its_costs():
    costs = np.linspace(-1.0, 1.0, 8)
    h = DiagonalCostHamiltonian(3, costs)
    mixer = MixerSpec.transverse_field()
    with pytest.raises(ValueError):
        h.costs[0] = 5.0
    first = evolve(uniform_superposition(3), h, mixer, 1.0, steps=4).amplitudes
    costs[:] = 7.0  # after the first phase has built the levels
    np.testing.assert_array_equal(h.costs, np.linspace(-1.0, 1.0, 8))
    again = evolve(uniform_superposition(3), h, mixer, 1.0, steps=4).amplitudes
    assert again.tobytes() == first.tobytes()


def test_hamiltonian_equality_is_identity():
    h = DiagonalCostHamiltonian(2, np.array([0.5, 0.25, 1.0, 0.0]))
    assert h == h
    assert h != DiagonalCostHamiltonian(h.n_qubits, h.costs)
    assert {h: "memo"}[h] == "memo"


def signed_zero_state(n, seed):
    """A random state whose real and imaginary parts are each +0.0 or -0.0
    at about half the entries: a zero's sign follows a phase's."""
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(2, 1 << n))
    zeros = rng.random(parts.shape) < 0.5
    parts[zeros] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[zeros]
    if not parts.any():
        parts[0, 0] = 1.0
    parts /= np.linalg.norm(parts)
    amp = np.empty(1 << n, dtype=np.complex128)  # a + 1j * b loses a's -0.0
    amp.real, amp.imag = parts
    return StateVector(n, amp)


@settings(max_examples=150, deadline=None)
@given(table=phase_tables())
def test_levels_hold_the_full_table_bit_for_bit(table):
    n, costs = table
    distinct, index = DiagonalCostHamiltonian(n, costs).levels
    assert distinct[index].tobytes() == costs.tobytes()
    assert distinct.size == len({c.tobytes() for c in costs})


@settings(max_examples=150, deadline=None)
@given(
    table=phase_tables(),
    transverse=st.booleans(),
    # often so short that the bit-flip expansion is one term, 1.0 * v,
    # which keeps most zero amplitudes' signs, and so the phase's zero signs
    total_time=st.just(1e-20) | st.floats(1e-20, 5.0),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
# a state whose zero signs show a phase's on either level order of +-0.0
@example(table=(2, np.array([-0.0, 0.0, 0.0, -0.0])), transverse=False,
         total_time=1e-20, steps=1, seed=2)
def test_evolve_equals_the_full_table_phase_loop_bit_for_bit(
        table, transverse, total_time, steps, seed):
    n, costs = table
    h = DiagonalCostHamiltonian(n, costs)
    mixer = MixerSpec.transverse_field() if transverse else MixerSpec.bit_flip(ring_graph(n))
    start = signed_zero_state(n, seed)
    got = evolve(start.copy(), h, mixer, total_time, steps)
    want = reference.evolve(start.copy(), h, mixer, total_time, steps)
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


# (2, k) arrays of k gammas over k betas, up to two chunks of apply_layers
# and one layer more
LAYER_ANGLES = st.integers(1, 2 * qsim._LAYER_CHUNK + 1).flatmap(lambda k: arrays(
    np.float64, (2, k), elements=st.just(0.0) | st.floats(-4.0, 4.0)))


# a 12-bit table of 512 levels, as a masked network's repeats itself
BENCH_TABLE = (12, np.random.default_rng(12).integers(0, 512, 1 << 12) / 64.0)


@settings(max_examples=100, deadline=None)
@given(
    table=phase_tables(max_bits=9),
    transverse=st.booleans(),
    angles=LAYER_ANGLES,
    # a chunk bounded by its phase count: one layer at a time, a few, or 16
    chunk_phases=st.sampled_from([1, 100, qsim._CHUNK_PHASES]),
    seed=st.integers(0, 2**32 - 1),
)
@example(table=BENCH_TABLE, transverse=True, angles=np.stack(qsim.midpoint_ramp(50.0, 400)),
         chunk_phases=qsim._CHUNK_PHASES, seed=0)
def test_apply_layers_equals_the_full_table_per_layer_loop_bit_for_bit(
        table, transverse, angles, chunk_phases, seed):
    n, costs = table
    h = DiagonalCostHamiltonian(n, costs)
    mixer = MixerSpec.transverse_field() if transverse else MixerSpec.bit_flip(ring_graph(n))
    start = signed_zero_state(n, seed)
    with mock.patch.object(qsim, "_CHUNK_PHASES", chunk_phases):
        got = qsim.apply_layers(start.copy(), h, mixer, *angles)
    want = reference.apply_layers(start.copy(), h, mixer, *angles)
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_apply_layers_rejects_unequal_angles_and_a_foreign_hamiltonian():
    h = DiagonalCostHamiltonian(3, np.zeros(8))
    tf = MixerSpec.transverse_field()
    with pytest.raises(ValueError, match="gammas .* and betas .* equal length"):
        qsim.apply_layers(uniform_superposition(3), h, tf, [0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match="gammas .* 1-d"):
        qsim.apply_layers(uniform_superposition(3), h, tf, [[0.1]], [[0.3]])
    with pytest.raises(ValueError, match="h_c acts on 3 qubits, state has 4"):
        qsim.apply_layers(uniform_superposition(4), h, tf, [0.1], [0.3])


def test_bit_flip_evolve_has_no_dense_limit(monkeypatch):
    monkeypatch.setenv("QNS_MAX_QUBITS", "16")
    n = 13
    h = DiagonalCostHamiltonian(n, np.random.default_rng(3).uniform(0, 1, 1 << n))
    s = evolve(uniform_superposition(n), h, MixerSpec.bit_flip(ring_graph(n)), 2.0, steps=3)
    assert s.norm_error() < 1e-9


def test_transverse_field_evolve_has_no_dense_limit(monkeypatch):
    monkeypatch.setenv("QNS_MAX_QUBITS", "16")
    n = 13
    h = DiagonalCostHamiltonian(n, np.random.default_rng(3).uniform(0, 1, 1 << n))
    s = evolve(uniform_superposition(n), h, MixerSpec.transverse_field(), 2.0, steps=3)
    assert s.norm_error() < 1e-9


def graph_from_draws(n, edge_draws):
    """Adjacency list over n vertices from (a, b) draws taken mod n, loops dropped."""
    graph = [set() for _ in range(n)]
    for a, b in edge_draws:
        a, b = a % n, b % n
        if a != b:
            graph[a].add(b)
            graph[b].add(a)
    return [sorted(nbrs) for nbrs in graph]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    edge_draws=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16),
    transverse=st.booleans(),
    target_bit=st.integers(0, 1),
    beta=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_mixer_matches_dense_exponential(n, edge_draws, transverse,
                                               target_bit, beta, seed):
    if transverse:
        mixer = MixerSpec.transverse_field()
    else:
        mixer = MixerSpec.bit_flip(graph_from_draws(n, edge_draws), target_bit)
    s = random_state(n, seed)
    expected = expm(-1j * beta * mixer_dense(mixer, n)) @ s.amplitudes
    qsim.apply_mixer(s, mixer, beta)
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-10)


def test_sparse_bit_flip_mixer_matches_dense_exponential_on_ring():
    n = 10
    mixer = MixerSpec.bit_flip(ring_graph(n))
    h = mixer_dense(mixer, n)
    start = random_state(n, 17)
    for beta in (0.0, 0.05, 1.0, math.pi, -3.0):
        s = start.copy()
        qsim.apply_mixer(s, mixer, beta)
        expected = expm(-1j * beta * h) @ start.amplitudes
        np.testing.assert_allclose(s.amplitudes, expected, rtol=0, atol=1e-12)
        if beta == 0.0:
            np.testing.assert_array_equal(s.amplitudes, start.amplitudes)


@pytest.mark.parametrize("beta", [30.0, -30.0])
def test_bit_flip_mixer_matches_dense_exponential_at_large_beta(beta):
    # |beta| * R = 300 needs ~375 Chebyshev terms: the degree must grow with |beta|
    n = 10
    mixer = MixerSpec.bit_flip(ring_graph(n))
    start = random_state(n, 23)
    s = qsim.apply_mixer(start.copy(), mixer, beta)
    expected = expm(-1j * beta * mixer_dense(mixer, n)) @ start.amplitudes
    np.testing.assert_allclose(s.amplitudes, expected, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    edge_draws=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16),
    target_bit=st.integers(0, 1),
)
def test_bit_flip_row_count_bounds_spectral_radius(n, edge_draws, target_bit):
    # Gershgorin: the largest row count R bounds the spectrum (a looser
    # interval than the [-r, r] the Chebyshev expansion runs on)
    mixer = MixerSpec.bit_flip(graph_from_draws(n, edge_draws), target_bit)
    r = np.diff(bitflip.mixer_sparse(mixer, n).indptr).max()
    radius = np.abs(np.linalg.eigvalsh(mixer_dense(mixer, n))).max()
    assert r >= radius - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    edge_draws=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16),
    target_bit=st.integers(0, 1),
)
def test_bit_flip_chebyshev_interval_is_the_spectral_radius(n, edge_draws, target_bit):
    mixer = MixerSpec.bit_flip(graph_from_draws(n, edge_draws), target_bit)
    m, r = bitflip.chebyshev_operator(mixer, n)
    eig = np.linalg.eigvalsh(mixer_dense(mixer, n))
    radius = np.abs(eig).max()
    assert radius <= r <= (1.0 + 2.0 * bitflip._SPECTRAL_MARGIN) * radius
    # every flip changes the Hamming-weight parity: the spectrum is symmetric
    np.testing.assert_allclose(eig, -eig[::-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(m.toarray(), 2.0 / r * mixer_dense(mixer, n),
                               rtol=1e-15, atol=0)


def drawn_bit_flip_mixer(n, ring, edge_draws, target_bit):
    graph = ring_graph(n) if ring else graph_from_draws(n, edge_draws)
    return MixerSpec.bit_flip(graph, target_bit)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    ring=st.booleans(),
    edge_draws=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16),
    target_bit=st.integers(0, 1),
    # x = beta * r: zero, tiny (degrees 1 and 2 below |x| ~ 1e-5, fewer
    # terms than work vectors), negative and up to |x| = 50 (~90 terms)
    x=st.one_of(st.just(0.0), st.floats(-1e-5, 1e-5), st.floats(-50.0, 50.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_chebyshev_propagate_equals_public_matvec_loop_bit_for_bit(
        n, ring, edge_draws, target_bit, x, seed):
    # the CSR kernel into reused buffers must give the bits of ``m @ cur``
    m, r = bitflip.chebyshev_operator(drawn_bit_flip_mixer(n, ring, edge_draws, target_bit), n)
    v = random_state(n, seed).amplitudes
    before = v.tobytes()
    beta = x / r
    got = bitflip.chebyshev_propagate(m, r, v, beta)
    assert got.tobytes() == chebyshev_propagate(m, r, v, beta).tobytes()
    assert not np.shares_memory(got, v)
    assert v.tobytes() == before


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    ring=st.booleans(),
    edge_draws=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16),
    target_bit=st.integers(0, 1),
    angles=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                    min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bit_flip_mixer_and_cost_phase_keep_component_mass(
        n, ring, edge_draws, target_bit, angles, seed):
    # neither the bit-flip mixer nor a diagonal phase moves probability
    # between the connected components of the mixer's flip graph
    mixer = drawn_bit_flip_mixer(n, ring, edge_draws, target_bit)
    _, labels = connected_components(bitflip.mixer_sparse(mixer, n), directed=False)
    costs = np.random.default_rng(seed).uniform(0.0, 1.0, 1 << n)
    s = random_state(n, seed)

    def mass():
        return np.bincount(labels, weights=s.probabilities())

    start = mass()
    for gamma, beta in angles:
        s.amplitudes *= cost_phase(costs, gamma)
        np.testing.assert_allclose(mass(), start, rtol=0, atol=1e-12)
        qsim.apply_mixer(s, mixer, beta)
        np.testing.assert_allclose(mass(), start, rtol=0, atol=1e-12)


def test_bit_flip_operator_rebuilds_identically():
    # eigsh starts from a fixed vector, so a rebuilt cache gives the same r
    # and so the same amplitudes
    n = 10
    mixer = MixerSpec.bit_flip(ring_graph(n))
    start = random_state(n, 29)
    _, r = bitflip.chebyshev_operator(mixer, n)
    first = qsim.apply_mixer(start.copy(), mixer, 3.0).amplitudes
    qsim._bit_flip_propagator.cache_clear()
    assert bitflip.chebyshev_operator(mixer, n)[1] == r
    np.testing.assert_array_equal(qsim.apply_mixer(start.copy(), mixer, 3.0).amplitudes,
                                  first)


@pytest.mark.slow
def test_bit_flip_mixer_matches_expm_multiply_at_18_qubits(monkeypatch):
    monkeypatch.setenv("QNS_MAX_QUBITS", "18")
    n, beta = 18, 3.0
    mixer = MixerSpec.bit_flip(ring_graph(n))
    start = random_state(n, 31)
    expected = expm_multiply(-1j * beta * bitflip.mixer_sparse(mixer, n), start.amplitudes)
    s = qsim.apply_mixer(start.copy(), mixer, beta)
    np.testing.assert_allclose(s.amplitudes, expected, rtol=0, atol=1e-10)


def test_bit_flip_evolve_preserves_norm_at_14_qubits():
    n = 14
    h = DiagonalCostHamiltonian(n, np.random.default_rng(5).uniform(0, 1, 1 << n))
    s = evolve(uniform_superposition(n), h, MixerSpec.bit_flip(ring_graph(n)), 40.0,
               steps=400)
    assert s.norm_error() < 1e-9


# ---------------------------------------------------------------------------
# Norm preservation across operation mixes.

def test_norm_preserved_by_random_operation_sequences():
    rng = np.random.default_rng(21)
    for trial in range(10):
        n = int(rng.integers(1, 6))
        s = uniform_superposition(n)
        for _ in range(30):
            op = rng.integers(4)
            if op == 0:
                apply_ry(s, int(rng.integers(n)), float(rng.normal()))
            elif op == 1:
                apply_h(s, int(rng.integers(n)))
            elif op == 2:
                apply_phase_oracle(s, rng.random(1 << n) < 0.5)
            else:
                apply_diffusion(s)
            assert s.norm_error() < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    ops=st.lists(st.tuples(st.integers(0, 6), st.floats(-4.0, 4.0),
                           st.integers(0, 2**32 - 1)), min_size=1, max_size=30),
)
def test_norm_preserved_by_drawn_gate_sequences(n, ops):
    s = uniform_superposition(n)
    for op, angle, draw in ops:
        if op == 0:
            apply_ry(s, draw % n, angle)
        elif op == 1:
            apply_h(s, draw % n)
        elif op == 2:
            qsim.apply_mixer(s, MixerSpec.transverse_field(), angle)
        elif op == 3:
            apply_product(s, random_gates(n, draw))
        elif op == 4:
            s.amplitudes *= _ring_cz_signs(n)
        elif op == 5:
            apply_phase_oracle(s, np.random.default_rng(draw).random(1 << n) < 0.5)
        else:
            apply_diffusion(s)
        assert s.norm_error() < 1e-9
