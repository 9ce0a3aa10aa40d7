"""One register search: every table method on random tiny tables."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qns import search, variational
from qns.qsim import DiagonalCostHamiltonian, Mixer

MIXERS = st.sampled_from(list(Mixer))

# small settings per method, so that one example stays in the milliseconds
_PARAMS = {
    "exhaustive": st.just({}),
    "grover": st.one_of(
        st.fixed_dictionaries({"max_restarts": st.integers(1, 8)}),
        st.fixed_dictionaries({"known_k": st.integers(1, 2), "iterations": st.none()}),
        st.just({"unknown_k": True})),
    "anneal": st.fixed_dictionaries({"total_time": st.sampled_from([1.0, 5.0]),
                                     "steps": st.integers(1, 8), "mixer": MIXERS}),
    "qaoa": st.fixed_dictionaries({"p": st.integers(1, 2), "budget": st.integers(1, 12),
                                   "mixer": MIXERS}),
    "vqe": st.fixed_dictionaries({"layers": st.integers(1, 2),
                                  "budget": st.integers(1, 12)}),
}


@st.composite
def tiny_tables(draw):
    """(n, costs) with n <= 4: uniform costs, a few repeated levels, or one
    constant, where an expectation has no room to round."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "levels", "constant"]))
    if kind == "uniform":
        return n, rng.uniform(0.0, 1.0, 1 << n)
    return n, rng.choice(rng.uniform(0.0, 1.0, 3 if kind == "levels" else 1), size=1 << n)


@pytest.mark.parametrize("method", sorted(search.DEFAULTS))
def test_select_scores_its_index_on_the_table(method):
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=tiny_tables(), params=_PARAMS[method], seed=st.integers(0, 2 ** 31 - 1),
           quantile=st.floats(0.0, 1.0))
    def check(table, params, seed, quantile):
        n, costs = table
        h = DiagonalCostHamiltonian(n, costs)
        eps = float(np.quantile(costs, quantile))
        if params.get("known_k", 0) > np.count_nonzero(costs < eps):
            params = {}
        chosen = search.select(method, h, eps, params, seed)
        assert 0 <= chosen.index < 1 << n
        metrics = chosen.metrics()
        assert metrics["loss"] == costs[chosen.index]
        assert metrics["success"] == (metrics["loss"] < eps)
        assert metrics["epsilon"] == eps
        assert int(chosen.bits @ (1 << np.arange(n))) == chosen.index
        for key in ("final_expectation", "best_expectation"):
            if key in metrics:
                assert costs.min() <= metrics[key] <= costs.max()
        if method == "exhaustive":
            assert chosen.index == int(np.argmin(costs))
            assert chosen.oracle_calls == 1 << n
        elif method == "grover" and not params.get("unknown_k"):
            t, restarts = chosen.fields["t"], chosen.fields["restarts"]
            assert chosen.oracle_calls == t * restarts + restarts
        elif method == "grover":
            assert chosen.oracle_calls >= chosen.fields["restarts"]
        else:
            assert chosen.oracle_calls == 1 << n

    check()


def test_shared_work_counts_evolutions_and_lookups():
    h = DiagonalCostHamiltonian(2, np.array([0.4, 0.1, 0.3, 0.2]))
    shared = {}
    for seed in (1, 2):
        search.select("anneal", h, 0.2, {"steps": 3}, seed, shared)
        search.select("qaoa", h, 0.2, {"p": 1, "budget": 5}, seed, shared)
    assert search.shared_work(shared) == {"anneal_evolutions": 1,
                                          "qaoa_objective_evaluations": 5,
                                          "qaoa_objective_lookups": 5}


def test_seeds_with_one_best_point_simulate_its_final_state_once(monkeypatch):
    h = DiagonalCostHamiltonian(3, np.array([0.4, 0.1, 0.3, 0.2, 0.7, 0.0, 0.5, 0.6]))
    params = {"p": 1, "budget": 6}  # no restart: both seeds take one simplex path
    separate = [search.select("qaoa", h, 0.2, params, seed, {}).metrics()
                for seed in (1, 2)]
    simulated, qaoa_state = [], variational.qaoa_state

    def counting_state(h_c, gammas, betas, mixer=None):
        simulated.append(np.concatenate([gammas, betas]).tobytes())
        return qaoa_state(h_c, gammas, betas, mixer)

    monkeypatch.setattr(variational, "qaoa_state", counting_state)
    shared = {}
    together = [search.select("qaoa", h, 0.2, params, seed, shared).metrics()
                for seed in (1, 2)]
    assert together == separate
    (state,) = shared["qaoa_state"].values()
    assert not state.amplitudes.flags.writeable
    # the simplex's own points, then the one best point's final state
    assert len(simulated) == search.shared_work(shared)["qaoa_objective_evaluations"] + 1
    assert simulated.count(simulated[-1]) == 2  # evaluated, then its final state
