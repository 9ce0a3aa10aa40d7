"""Threshold oracle and cost Hamiltonians."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAYERS_6BIT, cost_tables, make_planted_task, planted_oracle
from qns import masknet, oracle
from qns.bitstrings import index_to_bits
from qns.oracle import (
    CostOracle,
    SubnetworkOracle,
    build_cost_hamiltonian,
    count_solutions,
    default_epsilon,
)


def test_huge_epsilon_accepts_everything():
    o = planted_oracle(LAYERS_6BIT, seed=1, epsilon=1e9)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert o.is_good(rng.integers(0, 2, o.n_bits))


def test_zero_epsilon_accepts_nothing():
    o = planted_oracle(LAYERS_6BIT, seed=1, epsilon=0.0)
    rng = np.random.default_rng(0)
    assert not any(o.is_good(rng.integers(0, 2, o.n_bits)) for _ in range(10))


def test_planted_mask_is_accepted_at_tight_epsilon():
    net, data, hidden = make_planted_task(LAYERS_6BIT, seed=3)
    o = SubnetworkOracle(net, data, epsilon=1e-6)
    assert o.is_good(hidden)
    assert o.cost(hidden) == 0.0


def test_call_counter_counts_predicate_queries_only():
    o = planted_oracle(LAYERS_6BIT, seed=2, epsilon=0.1)
    assert o.call_counter == 0
    bits = np.ones(o.n_bits, dtype=np.uint8)
    o.is_good(bits)
    o.is_good(bits)
    assert o.call_counter == 2
    o.cost(bits)
    o.enumerate_costs()
    assert o.call_counter == 2


def test_is_good_rejects_wrong_length():
    o = planted_oracle(LAYERS_6BIT, seed=2, epsilon=0.1)
    with pytest.raises(ValueError):
        o.is_good(np.ones(o.n_bits + 1, dtype=np.uint8))


def test_cost_rejects_bits_outside_zero_one():
    net, data, _ = make_planted_task(LAYERS_6BIT, seed=2)
    o = SubnetworkOracle(net, data, epsilon=0.1)
    bits = np.ones(o.n_bits, dtype=np.uint8)
    bits[0] = 2  # would double a weight if it reached the forward pass
    with pytest.raises(ValueError, match="0 or 1"):
        o.cost(bits)
    with pytest.raises(ValueError, match="0 or 1"):
        masknet.batch_losses(net, data, bits[None, :])
    with pytest.raises(ValueError, match="maskable"):
        masknet.batch_losses(net, data, np.ones((3, o.n_bits + 1), dtype=np.uint8))


def test_build_cost_hamiltonian_single_bit_network():
    net = masknet.init_network([(1, 1, "identity")], seed=5)
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(4, 1))
    data = masknet.Dataset(xs, rng.normal(size=(4, 1)))
    h = build_cost_hamiltonian(net, data)
    assert h.costs.shape == (2,)
    for x in range(2):
        view = masknet.apply_flat_mask(net, index_to_bits(x, net.total_maskable()))
        assert h.costs[x] == masknet.dataset_loss(view, data)


def test_degenerate_task_gives_constant_costs():
    net = masknet.init_network([(2, 1, "identity")], seed=5)
    data = masknet.Dataset(np.zeros((3, 2)), np.zeros((3, 1)))
    h = build_cost_hamiltonian(net, data)
    np.testing.assert_array_equal(h.costs, 0.0)


def test_hamiltonian_argmin_matches_exhaustive_loop():
    net, data, _ = make_planted_task(LAYERS_6BIT, seed=7)
    h = build_cost_hamiltonian(net, data)
    best_loop, best_cost = None, np.inf
    for x in range(h.dim):
        view = masknet.apply_flat_mask(net, index_to_bits(x, h.n_qubits))
        c = masknet.dataset_loss(view, data)
        if c < best_cost:
            best_loop, best_cost = x, c
    assert int(np.argmin(h.costs)) == best_loop
    assert h.costs[best_loop] == best_cost


def test_enumeration_refuses_beyond_ceiling(monkeypatch):
    monkeypatch.setenv("QNS_MAX_QUBITS", "4")
    net, data, _ = make_planted_task(LAYERS_6BIT, seed=7)
    with pytest.raises(ValueError):
        build_cost_hamiltonian(net, data)


def test_count_solutions_examples():
    h = oracle.DiagonalCostHamiltonian(2, [0.1, 0.5, 0.2, 0.9])
    assert count_solutions(h, 0.3) == 2
    assert count_solutions(h, 0.05) == 0
    assert count_solutions(h, 10.0) == 4


def test_is_good_iff_enumerated_cost_below_epsilon():
    for seed in range(5):
        o = planted_oracle(LAYERS_6BIT, seed=seed, epsilon=0.05)
        costs = o.enumerate_costs()
        for x in range(1 << o.n_bits):
            bits = index_to_bits(x, o.n_bits)
            assert o.is_good(bits) == (costs[x] < o.epsilon)


def test_default_epsilon_recipe_is_half_random_median():
    net, data, _ = make_planted_task(LAYERS_6BIT, seed=4)
    eps = default_epsilon(functools.partial(masknet.batch_losses, net, data),
                          net.total_maskable(), seed=0)
    rng = np.random.default_rng(0)
    losses = []
    for _ in range(64):
        bits = rng.integers(0, 2, size=net.total_maskable()).astype(np.uint8)
        view = masknet.apply_flat_mask(net, bits)
        losses.append(masknet.dataset_loss(view, data))
    assert eps == np.median(losses) * 0.5
    assert eps > 0
    costs = build_cost_hamiltonian(net, data).costs
    from_table = default_epsilon(lambda rows: costs[rows @ (1 << np.arange(6))], 6, seed=0)
    assert from_table == eps


@st.composite
def median_inputs(draw):
    """float64 arrays of length 1..129 drawn from a small pool of values, so
    that ties, +-0.0, +-inf and NaN land anywhere, odd and even lengths alike."""
    n = draw(st.integers(1, 129))
    pool = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                         | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                         min_size=1, max_size=8))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                    dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(median_inputs())
def test_median_is_numpys_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, huge sums
        got = oracle._median(values.copy())
        want = np.median(values)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert type(got) is type(want)


@settings(max_examples=60, deadline=None)
@given(cost_tables(max_bits=8), st.integers(0, 2 ** 31 - 1),
       st.integers(1, 80), st.floats(0.1, 2.0))
def test_default_epsilon_is_half_numpys_median(table, seed, n_probe, scale):
    """The value of the ``np.median`` recipe, bit for bit, on random tables."""
    n_bits, costs, _ = table
    losses_of = lambda rows: costs[rows @ (1 << np.arange(n_bits))]  # noqa: E731
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(n_probe, n_bits)).astype(np.uint8)
    want = float(np.median(losses_of(rows)) * scale)
    got = default_epsilon(losses_of, n_bits, seed, n_probe=n_probe, scale=scale)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_function_oracle_wraps_arbitrary_costs():
    column = np.array([0.5, 0.1, 0.9, 0.3])
    o = CostOracle(lambda: column, 2, 0.2)
    assert o.is_good(np.array([1, 0]))
    assert not o.is_good(np.array([0, 0]))
    np.testing.assert_array_equal(o.enumerate_costs(), column)


def _counted(costs):
    """A table function that records each call."""
    calls = []

    def table():
        calls.append(1)
        return costs
    return table, calls


@settings(max_examples=100, deadline=None)
@given(drawn=cost_tables(), data=st.data())
def test_oracle_prices_and_judges_by_its_table(drawn, data):
    n, costs, eps = drawn
    table, calls = _counted(costs)
    o = CostOracle(table, n, eps)
    index = data.draw(st.integers(0, (1 << n) - 1))
    bits = index_to_bits(index, n)
    assert o.cost(bits) == costs[index]
    assert o.call_counter == 0
    assert o.is_good(bits) == (costs[index] < eps)
    assert o.call_counter == 1
    np.testing.assert_array_equal(o.marked_table(), costs < eps)
    assert o.enumerate_costs() is o.enumerate_costs()
    assert o.call_counter == 1
    assert len(calls) == 1  # enumerated once, on first use


@settings(max_examples=50, deadline=None)
@given(drawn=cost_tables(), data=st.data())
def test_malformed_pattern_raises_before_the_table_is_built(drawn, data):
    n, costs, eps = drawn
    table, calls = _counted(costs)
    o = CostOracle(table, n, eps)
    length = data.draw(st.integers(0, n + 2).filter(lambda m: m != n))
    with pytest.raises(ValueError, match="bits"):
        o.cost(np.zeros(length, dtype=np.uint8))
    bad = np.zeros(n, dtype=np.int64)
    bad[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([-1, 2, 3]))
    with pytest.raises(ValueError, match="0 or 1"):
        o.is_good(bad)
    assert calls == []
