"""Amplitude-amplification search: iteration formula, analytics, accounting."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import LAYERS_6BIT, cost_tables, planted_costs_with_k
from qns import grover, search
from qns.bitstrings import bits_to_index
from qns.grover import (
    GroverConfig,
    amplified_state,
    grover_search,
    optimal_iterations,
    search_unknown_k,
    success_probability,
)
from qns.qsim import DiagonalCostHamiltonian, measure


def counted(search_fn, *args):
    """``search_fn(*args)`` and its oracle calls, counted apart from the
    search's own tally: t + 1 for each attempt's ``amplified_state`` of t
    rounds, the rounds plus the classical verification."""
    calls = []
    real = grover.amplified_state

    def spy(marked, n_qubits, iterations):
        calls.append(iterations + 1)
        return real(marked, n_qubits, iterations)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grover, "amplified_state", spy)
        result = search_fn(*args)
    return result, sum(calls)


def test_optimal_iterations_formula():
    assert optimal_iterations(64, 1) == 6   # floor(pi/4 * 8)
    assert optimal_iterations(4, 1) == 1    # floor(pi/4 * 2)
    assert optimal_iterations(16, 16) == 1  # clamped from floor(pi/4)=0
    with pytest.raises(ValueError):
        optimal_iterations(8, 0)
    with pytest.raises(ValueError):
        optimal_iterations(8, 9)


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3, 5, 8) for n in (2, 4, 6, 8)
                                  if k <= 1 << n])
def test_statevector_success_matches_closed_form(k, n):
    """Master analytic check: the dense oracle+diffusion loop's success
    probability vs sin^2((2t+1) theta)."""
    n_states = 1 << n
    rng = np.random.default_rng(n * 100 + k)
    marked = np.zeros(n_states, dtype=bool)
    marked[rng.choice(n_states, size=k, replace=False)] = True
    for t in range(0, optimal_iterations(n_states, k) + 2):
        state = reference.amplified_state(marked, n, t)
        simulated = float(state.probabilities()[marked].sum())
        assert abs(simulated - success_probability(n_states, k, t)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), t=st.integers(0, 59), data=st.data())
def test_closed_form_state_matches_the_dense_loop(n, t, data):
    """The two-amplitude state gives the dense loop's probabilities within
    1e-12 and the same measured index, for any marked set, empty and full
    included."""
    n_states = 1 << n
    kind = data.draw(st.sampled_from(["empty", "full", "random"]))
    marked = np.full(n_states, kind == "full")
    if kind == "random":
        fraction = data.draw(st.floats(0.0, 1.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        marked = np.random.default_rng(seed).random(n_states) < fraction
    ours = amplified_state(marked, n, t)
    dense = reference.amplified_state(marked, n, t)
    assert np.max(np.abs(ours.probabilities() - dense.probabilities())) < 1e-12
    for seed in range(5):
        assert (measure(ours, np.random.default_rng(seed))
                == measure(dense, np.random.default_rng(seed)))


def test_amplified_state_rejects_a_marked_table_of_the_wrong_size():
    with pytest.raises(ValueError, match="expected 8 mark flags"):
        amplified_state(np.zeros(4, dtype=bool), 3, 1)


def test_over_rotation_hurts():
    """N=4, k=1: a second iteration overshoots the marked amplitude."""
    marked = np.array([False, False, True, False])
    p1 = amplified_state(marked, 2, 1).probabilities()[2]
    p2 = amplified_state(marked, 2, 2).probabilities()[2]
    assert p2 < p1
    assert abs(p1 - 1.0) < 1e-12


def test_search_finds_unique_solution_with_certainty():
    """n=2, k=1, t=1: success probability is exactly 1, every seed."""
    costs = np.array([1.0, 1.0, 0.0, 1.0])
    for seed in range(10):
        result = grover_search(costs, 0.5, GroverConfig(seed=seed))
        assert result.measured_good
        assert result.iterations == 1
        assert result.restarts == 1
        assert bits_to_index(result.bits) == 2


def test_single_shot_frequency_matches_analytic_probability():
    """n=6, k=1, t=6: 1000 seeded runs land within 3 sigma of sin^2(13 asin(1/8))."""
    costs = np.ones(64)
    costs[37] = 0.0
    p = success_probability(64, 1, 6)
    hits = 0
    for seed in range(1000):
        result = grover_search(costs, 0.5, GroverConfig(iterations=6, max_restarts=1,
                                                        seed=seed))
        hits += result.measured_good
    sigma = math.sqrt(p * (1 - p) / 1000)
    assert abs(hits / 1000 - p) <= 3 * sigma


def test_oracle_call_accounting_is_exact():
    """Reported calls are t*restarts + restarts and match the attempts counted."""
    costs = np.linspace(0, 1, 8)  # single solution below 0.1 at index 0
    for seed in range(30):
        cfg = GroverConfig(iterations=1, max_restarts=6, seed=seed)
        result, calls = counted(grover_search, costs, 0.1, cfg)
        assert result.oracle_calls == result.iterations * result.restarts + result.restarts
        assert calls == result.oracle_calls


def test_search_reports_failure_when_nothing_is_marked():
    costs = np.ones(8)
    result = grover_search(costs, 0.5, GroverConfig(max_restarts=4, seed=0))
    assert not result.measured_good
    assert result.restarts == 4


def test_auto_mode_falls_back_to_sampling_when_amplification_overshoots():
    """k/N near 3/4 puts one iteration at ~zero success; sampling wins."""
    costs = np.ones(64)
    costs[:49] = 0.0  # k = 49 of 64: sin^2(3 asin(sqrt(49/64))) ~ 0.003
    wins = 0
    for seed in range(50):
        result = grover_search(costs, 0.5, GroverConfig(max_restarts=5, seed=seed))
        assert result.iterations == 0
        assert result.oracle_calls == result.restarts  # verification only
        wins += result.measured_good
    assert wins >= 45  # per-restart success 49/64, five restarts


def test_auto_iterations_uses_known_k_then_marked_count():
    costs = np.zeros(16)
    costs[5:] = 1.0  # k = 5 marked below 0.5
    r = grover_search(costs, 0.5, GroverConfig(seed=1))
    assert r.iterations == optimal_iterations(16, 5)
    r2 = grover_search(costs, 0.5, GroverConfig(known_k=1, seed=1))
    assert r2.iterations == optimal_iterations(16, 1)


def test_result_record_serialization():
    """The record fields of a Grover search, as ``search.select`` writes them."""
    costs = np.array([1.0, 0.0, 1.0, 1.0])
    result = grover_search(costs, 0.5, GroverConfig(seed=3))
    rec = search.select("grover", DiagonalCostHamiltonian(2, costs), 0.5, {}, 3).metrics()
    assert rec == {"loss": 0.0, "success": True, "oracle_calls": result.oracle_calls,
                   "epsilon": 0.5, "seed": 3, "t": result.iterations,
                   "restarts": result.restarts, "bits_hex": "1", "bits": "10"}
    assert result.measured_good and bits_to_index(result.bits) == 1


def test_unknown_k_succeeds_fast_with_half_space_marked():
    """k = N/2: a verified hit lands within the first two rounds for most seeds."""
    costs = np.zeros(16)
    costs[8:] = 1.0
    within_two = 0
    for seed in range(100):
        result = search_unknown_k(costs, 0.5, seed)
        assert result.measured_good
        within_two += result.restarts <= 2
    assert within_two >= 60  # expected ~75, 3 sigma ~ 62


def test_unknown_k_beats_exhaustive_scan_for_single_solution():
    costs, _ = planted_costs_with_k(LAYERS_6BIT, k_target=1, epsilon=1e-9)
    calls = []
    for s in range(50):
        result, counted_calls = counted(search_unknown_k, costs, 1e-9, s)
        assert result.measured_good
        assert counted_calls == result.oracle_calls
        calls.append(result.oracle_calls)
    assert np.mean(calls) < 64


def test_unknown_k_exhausts_budget_when_no_solution_exists():
    costs = np.ones(16)
    result = search_unknown_k(costs, 0.5, 2)
    assert not result.measured_good
    budget = int(3 * math.sqrt(16) * math.log2(16))
    assert result.oracle_calls >= budget


def test_search_validates_sizes(monkeypatch):
    """The register is log2 of the table's length: beyond the qubit ceiling
    the state refuses it. Epsilon and the config are checked too."""
    monkeypatch.setenv("QNS_MAX_QUBITS", "2")
    with pytest.raises(ValueError, match="n_qubits must be in 1..2, got 3"):
        grover_search(np.ones(8), 0.5, GroverConfig(seed=0))
    with pytest.raises(ValueError, match="n_qubits must be in 1..2, got 3"):
        search_unknown_k(np.ones(8), 0.5, 0)
    # a table that is not 1-d with 2^n entries, n >= 1, is refused by name
    for costs, shape in ((np.ones(6), r"\(6,\)"), (np.zeros(1), r"\(1,\)"),
                         (np.ones((2, 2)), r"\(2, 2\)")):
        with pytest.raises(ValueError, match=rf"cost table .* got shape {shape}"):
            grover_search(costs, 0.5, GroverConfig(seed=0))
        with pytest.raises(ValueError, match=rf"cost table .* got shape {shape}"):
            search_unknown_k(costs, 0.5, 0)
    for epsilon in (-1e-12, math.nan):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            grover_search(np.ones(4), epsilon, GroverConfig(seed=0))
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            search_unknown_k(np.ones(4), epsilon, 0)
    with pytest.raises(ValueError):
        GroverConfig(iterations=-1)
    with pytest.raises(ValueError):
        GroverConfig(max_restarts=0)
    for known_k in (0, -3):
        with pytest.raises(ValueError, match=f"known_k must be >= 1, got {known_k}"):
            GroverConfig(known_k=known_k)


@settings(max_examples=60, deadline=None)
@given(drawn=cost_tables(), iterations=st.none() | st.integers(0, 4),
       max_restarts=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1))
def test_search_accounting_and_verification_on_any_table(drawn, iterations,
                                                         max_restarts, seed):
    n, costs, eps = drawn
    result, calls = counted(grover_search, costs, eps, GroverConfig(
        iterations=iterations, max_restarts=max_restarts, seed=seed))
    assert result.oracle_calls == result.iterations * result.restarts + result.restarts
    assert calls == result.oracle_calls
    assert result.bits.size == n
    assert result.measured_good == (costs[bits_to_index(result.bits)] < eps)


@settings(max_examples=60, deadline=None)
@given(drawn=cost_tables(), seed=st.integers(0, 2 ** 31 - 1))
def test_unknown_k_verification_on_any_table(drawn, seed):
    n, costs, eps = drawn
    result, calls = counted(search_unknown_k, costs, eps, seed)
    assert calls == result.oracle_calls
    assert result.bits.size == n
    assert result.measured_good == (costs[bits_to_index(result.bits)] < eps)


@settings(max_examples=150, deadline=None)
@given(drawn=cost_tables(), iterations=st.none() | st.integers(0, 4),
       known_k=st.none() | st.integers(1, 2), max_restarts=st.integers(1, 4),
       seed=st.integers(0, 2 ** 31 - 1))
@example(drawn=(2, np.array([1.0, 2.0, 3.0, 4.0]), 0.0), iterations=None, known_k=None,
         max_restarts=3, seed=0)  # nothing marked: both searches fail
def test_both_schedules_return_what_their_plain_loops_return(drawn, iterations, known_k,
                                                             max_restarts, seed):
    """The one verified-attempt loop behind both schedules returns each
    schedule's plain loop's result, failed searches included."""
    _, costs, eps = drawn
    cfg = GroverConfig(iterations=iterations, known_k=known_k,
                       max_restarts=max_restarts, seed=seed)
    for ours, theirs in ((grover_search(costs, eps, cfg),
                          reference.known_k_search(costs, eps, cfg)),
                         (search_unknown_k(costs, eps, seed),
                          reference.unknown_k_search(costs, eps, seed))):
        assert ours.bits.dtype == theirs.bits.dtype
        assert np.array_equal(ours.bits, theirs.bits)
        assert (ours.measured_good, ours.oracle_calls, ours.iterations, ours.restarts) == (
            theirs.measured_good, theirs.oracle_calls, theirs.iterations, theirs.restarts)
