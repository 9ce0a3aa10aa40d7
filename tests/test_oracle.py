"""Cost Hamiltonians, the default epsilon, and Grover's threshold check on them."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAYERS_6BIT, cost_tables, make_planted_task, planted_costs
from qns import masknet, oracle
from qns.bitstrings import bits_to_index, index_to_bits
from qns.grover import GroverConfig, grover_search, search_unknown_k
from qns.oracle import (
    build_cost_hamiltonian,
    count_solutions,
    default_epsilon,
)


def test_huge_epsilon_accepts_everything():
    costs = planted_costs(LAYERS_6BIT, seed=1)
    for seed in range(10):
        result = grover_search(costs, 1e9, GroverConfig(seed=seed))
        assert result.measured_good and result.restarts == 1


def test_zero_epsilon_accepts_nothing():
    costs = planted_costs(LAYERS_6BIT, seed=1)
    for seed in range(10):
        assert not grover_search(costs, 0.0, GroverConfig(seed=seed)).measured_good
        assert not search_unknown_k(costs, 0.0, seed).measured_good


def test_planted_mask_is_accepted_at_tight_epsilon():
    net, data, hidden = make_planted_task(LAYERS_6BIT, seed=3)
    h = build_cost_hamiltonian(net, data)
    assert h.costs[bits_to_index(hidden)] == 0.0
    result = grover_search(h.costs, 1e-6, GroverConfig(seed=0))
    assert result.measured_good
    assert h.costs[bits_to_index(result.bits)] < 1e-6


def test_cost_rejects_bits_outside_zero_one():
    """The batched cost evaluator refuses a bit outside 0/1 and a row of the
    wrong width."""
    net, data, _ = make_planted_task(LAYERS_6BIT, seed=2)
    bits = np.ones(net.total_maskable(), dtype=np.uint8)
    bits[0] = 2  # would double a weight if it reached the forward pass
    with pytest.raises(ValueError, match="0 or 1"):
        masknet.batch_losses(net, data, bits[None, :])
    with pytest.raises(ValueError, match="maskable"):
        masknet.batch_losses(net, data, np.ones((3, bits.size + 1), dtype=np.uint8))


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
    with pytest.raises(ValueError, match="6 bits is too large to enumerate"):
        build_cost_hamiltonian(net, data)


def test_count_solutions_examples():
    h = oracle.DiagonalCostHamiltonian(2, [0.1, 0.5, 0.2, 0.9])
    assert count_solutions(h, 0.3) == 2
    assert count_solutions(h, 0.05) == 0
    assert count_solutions(h, 10.0) == 4


def test_is_good_iff_enumerated_cost_below_epsilon():
    """A search's verification accepts the measured index iff its table
    entry is below epsilon; without rounds it samples indices uniformly."""
    for task_seed in range(5):
        costs = planted_costs(LAYERS_6BIT, seed=task_seed)
        for iterations in (0, None):
            for seed in range(20):
                result = grover_search(costs, 0.05, GroverConfig(
                    iterations=iterations, max_restarts=1, seed=seed))
                assert result.measured_good == (costs[bits_to_index(result.bits)] < 0.05)


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
    """A search reads any table: here a single entry, index 1, is below 0.2."""
    column = np.array([0.5, 0.1, 0.9, 0.3])
    for seed in range(5):
        result = grover_search(column, 0.2, GroverConfig(seed=seed))
        assert result.measured_good and bits_to_index(result.bits) == 1
        assert result.oracle_calls == 2  # one round finds it with certainty
    assert not grover_search(column, 0.1, GroverConfig(seed=0)).measured_good


@settings(max_examples=100, deadline=None)
@given(drawn=cost_tables(), seed=st.integers(0, 2 ** 31 - 1))
def test_oracle_prices_and_judges_by_its_table(drawn, seed):
    """build_cost_hamiltonian enumerates the table once and keeps it bit for
    bit; a search over it accepts exactly the entries below epsilon."""
    n, costs, eps = drawn
    net = masknet.init_network([(n, 1, "identity")], seed=0)
    data = masknet.Dataset(np.zeros((1, n)), np.zeros((1, 1)))
    calls = []

    def table(*args):
        calls.append(args)
        return costs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masknet, "enumerate_losses", table)
        h = build_cost_hamiltonian(net, data)
    ((got_net, got_data),) = calls
    assert got_net is net and got_data is data
    assert h.costs.tobytes() == costs.tobytes()
    for result in (grover_search(h.costs, eps, GroverConfig(seed=seed)),
                   search_unknown_k(h.costs, eps, seed)):
        assert result.measured_good == (costs[bits_to_index(result.bits)] < eps)
