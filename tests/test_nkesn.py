"""Reservoirs, probe filters, NK tables, and their optimizers."""
import concurrent.futures
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import grover_table_select, nkesn_output, per_output_losses
from qns import harness, nkesn, search
from qns.bitstrings import all_patterns, bits_to_index, index_to_bits
from qns.nkesn import (
    NKLandscape,
    Reservoir,
    TABLE_BLOCK_ENTRIES,
    Topology,
    build_table,
    combine_per_output,
    dp_optimize,
    estimate_spectral_radius,
    exhaustive_optimize,
    make_landscape,
    make_nkesn,
    make_reservoir,
    mean_loss_from_table,
    reservoir_step,
    run_reservoir,
    scale_to_spectral_radius,
    select_per_output,
)
from qns.qsim import DiagonalCostHamiltonian


def sequence_data(length=120, seed=3):
    return harness.make_sequence_task(length, seed)


def demo_model(seed=5, n=8, k=2, size=40):
    return make_nkesn(n_outputs=n, k=k, reservoir_size=size, seed=seed)


# ---------------------------------------------------------------------------
# Reservoir dynamics.

def test_reservoir_step_zero_in_zero_out():
    r = make_reservoir(10, 1, seed=0)
    np.testing.assert_array_equal(reservoir_step(r, np.zeros(10), np.zeros(1)), 0.0)


def test_reservoir_step_without_recurrence_is_input_projection():
    r = make_reservoir(10, 2, seed=0)
    frozen = Reservoir(np.zeros((10, 10)), r.w_in, 0.9, 0.1)
    x = np.array([0.5, -1.0])
    np.testing.assert_array_equal(reservoir_step(frozen, np.ones(10), x), r.w_in @ x)


def test_reservoir_state_decays_without_input():
    r = make_reservoir(40, 1, spectral_radius=0.9, seed=1)
    z = np.random.default_rng(0).normal(size=40)
    z0 = np.linalg.norm(z)
    for _ in range(50):
        z = reservoir_step(r, z, np.zeros(1))
    assert np.linalg.norm(z) < 1e-2 * z0


def test_run_reservoir_shapes_and_zero_start():
    r = make_reservoir(12, 1, seed=2)
    inputs = np.linspace(-1, 1, 30)[:, None]
    states = run_reservoir(r, inputs)
    assert states.shape == (30, 12)
    # z starts at zero, so the first state is the first input's drive alone
    np.testing.assert_array_equal(states[0], r.w_in @ inputs[0])


def test_reservoir_step_validates_shapes():
    r = make_reservoir(10, 1, seed=0)
    with pytest.raises(ValueError):
        reservoir_step(r, np.zeros(9), np.zeros(1))
    with pytest.raises(ValueError):
        reservoir_step(r, np.zeros(10), np.zeros(2))


def stepped_states(r, inputs):
    """Reference roll from z = 0: one reservoir_step per input row."""
    z = np.zeros(r.size)
    states = []
    for x in inputs:
        z = reservoir_step(r, z, x)
        states.append(z)
    return np.array(states)


def test_run_reservoir_equals_step_loop_bit_for_bit():
    r = make_reservoir(30, 1, seed=3)
    inputs = sequence_data(400).inputs
    np.testing.assert_array_equal(run_reservoir(r, inputs), stepped_states(r, inputs))


def test_run_reservoir_equals_step_loop_at_benchmark_size():
    """Size 40 over 8,000 steps, the benchmark's NK reservoirs."""
    r = make_reservoir(40, 1, seed=6)
    inputs = sequence_data(8000).inputs
    np.testing.assert_array_equal(run_reservoir(r, inputs), stepped_states(r, inputs))


def test_run_reservoir_wide_input_matches_step_loop():
    """The drive is one matrix product for the whole series; its dot products
    may round differently from per-step ones when input_dim > 1."""
    r = make_reservoir(30, 3, seed=4)
    inputs = np.random.default_rng(2).normal(size=(400, 3))
    np.testing.assert_allclose(run_reservoir(r, inputs), stepped_states(r, inputs),
                               rtol=1e-13, atol=1e-13)


def test_run_reservoir_validates_shapes():
    r = make_reservoir(10, 1, seed=0)
    with pytest.raises(ValueError, match=r"input shape \(2,\) != \(1,\)"):
        run_reservoir(r, np.zeros((5, 2)))


def test_nilpotent_reservoir_draw_is_a_method_failure():
    """Seed 578 draws a 20x20 matrix with spectral radius 0: a seed-dependent
    failure, not a bad argument."""
    with pytest.raises(RuntimeError, match=r"seed 578 .*20x20.*connectivity 0\.1"):
        make_reservoir(20, 1, 0.9, 0.1, seed=578)
    # an empty reservoir or zero connectivity fails on every seed: bad arguments
    for size, connectivity in ((0, 0.1), (20, 0.0)):
        with pytest.raises(ValueError, match="connectivity"):
            make_reservoir(size, 1, 0.9, connectivity, seed=578)


# ---------------------------------------------------------------------------
# Spectral radius.

def test_scale_identity_matrix():
    scaled = scale_to_spectral_radius(np.eye(4), 0.9)
    np.testing.assert_allclose(scaled, 0.9 * np.eye(4))


def test_rescaled_matrix_hits_target():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (30, 30)) * (rng.random((30, 30)) < 0.2)
    scaled = scale_to_spectral_radius(w, 0.9)
    assert abs(estimate_spectral_radius(scaled) - 0.9) < 1e-6
    # independent check against dense eigenvalues
    assert abs(np.max(np.abs(np.linalg.eigvals(scaled))) - 0.9) < 1e-6


def test_scaling_is_idempotent():
    rng = np.random.default_rng(8)
    w = rng.uniform(-1, 1, (25, 25)) * (rng.random((25, 25)) < 0.3)
    once = scale_to_spectral_radius(w, 0.8)
    twice = scale_to_spectral_radius(once, 0.8)
    assert np.max(np.abs(once - twice)) < 1e-6


def test_estimator_handles_complex_dominant_pair():
    angle = 1.1
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    assert abs(estimate_spectral_radius(0.7 * rot) - 0.7) < 1e-9


def test_estimator_reports_non_convergence():
    with pytest.raises(ValueError):
        estimate_spectral_radius(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Landscapes.

def test_adjacent_landscape_windows():
    land = make_landscape(5, 3)
    np.testing.assert_array_equal(land.neighborhoods[0], [0, 1, 2])
    np.testing.assert_array_equal(land.neighborhoods[4], [4, 0, 1])


def test_random_landscape_has_distinct_members():
    land = make_landscape(10, 4, Topology.RANDOM, seed=0)
    for row in land.neighborhoods:
        assert len(set(row.tolist())) == 4


def test_landscape_validation():
    with pytest.raises(ValueError):
        NKLandscape(4, 2, [[0, 0]] * 4, Topology.RANDOM)
    with pytest.raises(ValueError):
        NKLandscape(4, 2, [[0, 9]] * 4, Topology.RANDOM)
    with pytest.raises(ValueError):
        NKLandscape(4, 2, [[1, 2]] * 4, Topology.ADJACENT)  # not the windows
    with pytest.raises(ValueError):
        make_landscape(4, 5)


# ---------------------------------------------------------------------------
# Outputs and tables.

def test_all_zero_mask_gives_phi_of_zero():
    model = demo_model()
    z = np.random.default_rng(0).normal(size=model.reservoir.size)
    out = nkesn_output(z, model.probe, model.landscape, model.w_out,
                       np.zeros(8), activation="tanh")
    np.testing.assert_array_equal(out, np.tanh(0.0))


def test_full_neighborhood_equals_full_dot_product():
    model = make_nkesn(n_outputs=4, k=4, reservoir_size=20, seed=1)
    z = np.random.default_rng(1).normal(size=20)
    bits = np.ones(4)
    out = nkesn_output(z, model.probe, model.landscape, model.w_out, bits,
                       activation="identity")
    signals = model.probe.w_pf @ z
    for i in range(4):
        nb = model.landscape.neighborhoods[i]
        assert out[i] == pytest.approx(
            float(np.dot(model.w_out[nb, i], signals[nb])), abs=1e-12)


def test_flipping_outside_bits_never_changes_an_output():
    """K-boundedness over 1000 randomized flips of non-neighborhood bits."""
    model = demo_model()
    data = sequence_data()
    land = model.landscape
    signals, targets = nkesn.probe_signal_series(model, data)

    def output_loss(i, bits):
        nb = land.neighborhoods[i]
        series = np.tanh((signals[:, nb] * bits[nb]) @ model.w_out[nb, i])
        return float(np.mean((series - targets) ** 2))

    # pin the local evaluator to the public one once, then run the trials
    probe_bits = np.ones(land.n)
    np.testing.assert_array_equal(
        [output_loss(i, probe_bits) for i in range(land.n)],
        per_output_losses(model, data, probe_bits))

    rng = np.random.default_rng(4)
    for _ in range(1000):
        i = int(rng.integers(land.n))
        bits = rng.integers(0, 2, land.n)
        base = output_loss(i, bits)
        outside = np.setdiff1d(np.arange(land.n), land.neighborhoods[i])
        flip = bits.copy()
        flip[rng.choice(outside)] ^= 1
        assert output_loss(i, flip) == base


def test_table_shape_for_k1():
    model = make_nkesn(n_outputs=5, k=1, reservoir_size=20, seed=4)
    table = build_table(model, sequence_data())
    assert table.shape == (2, 5)


def test_table_entries_match_direct_evaluation_with_fillers():
    model = demo_model()
    data = sequence_data()
    table = build_table(model, data)
    rng = np.random.default_rng(5)
    for _ in range(30):
        i = int(rng.integers(8))
        p = int(rng.integers(4))
        bits = rng.integers(0, 2, 8)  # random filler outside the neighborhood
        bits[model.landscape.neighborhoods[i]] = index_to_bits(p, 2)
        direct = per_output_losses(model, data, bits)[i]
        assert direct == pytest.approx(table[p, i], abs=1e-12)


def unblocked_table(model, data, washout=nkesn.DEFAULT_WASHOUT):
    """Reference table: each output's whole (T, 2^K) error array and its mean."""
    signals, targets = nkesn.probe_signal_series(model, data, washout)
    land = model.landscape
    patterns = all_patterns(land.k).astype(np.float64)
    table = np.empty((1 << land.k, land.n))
    for i in range(land.n):
        nb = land.neighborhoods[i]
        series = signals[:, nb] @ (patterns * model.w_out[nb, i]).T
        if model.activation == "tanh":
            series = np.tanh(series)
        table[:, i] = np.mean((series - targets[:, None]) ** 2, axis=0)
    return table


BLOCK_AT_K8 = TABLE_BLOCK_ENTRIES >> 8  # time steps per block at K = 8


@pytest.mark.parametrize("steps", [7, BLOCK_AT_K8, 2 * BLOCK_AT_K8, 2 * BLOCK_AT_K8 + 1,
                                   3 * BLOCK_AT_K8 - 5])
@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_blocked_table_equals_unblocked_reference(steps, activation):
    data = harness.make_sequence_task(steps + nkesn.DEFAULT_WASHOUT, seed=steps)
    for k in range(1, 9):
        for topology in (Topology.ADJACENT, Topology.RANDOM):
            model = make_nkesn(n_outputs=k + 1, k=k, reservoir_size=16, topology=topology,
                               activation=activation, seed=k)
            np.testing.assert_array_equal(build_table(model, data),
                                          unblocked_table(model, data))
    # blocks of 128 and 32 time steps, on a series short enough for the reference
    short = harness.make_sequence_task(min(steps, 300) + nkesn.DEFAULT_WASHOUT, seed=steps)
    for k in (10, 12):
        model = make_nkesn(n_outputs=k + 1, k=k, reservoir_size=16, topology=Topology.RANDOM,
                           activation=activation, seed=k)
        np.testing.assert_array_equal(build_table(model, short),
                                      unblocked_table(model, short))


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_table_block_size_does_not_change_the_bits(monkeypatch, rows):
    """A one-row request still takes blocks of 2 rows, off the matrix-vector path."""
    data = harness.make_sequence_task(40 + nkesn.DEFAULT_WASHOUT, seed=rows)
    for k in (1, 4, 6):
        monkeypatch.setattr(nkesn, "TABLE_BLOCK_ENTRIES", rows << k)
        model = make_nkesn(n_outputs=7, k=k, reservoir_size=16, topology=Topology.RANDOM,
                           seed=k)
        np.testing.assert_array_equal(build_table(model, data),
                                      unblocked_table(model, data))


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
@pytest.mark.parametrize("topology", list(Topology))
def test_table_is_the_same_on_any_number_of_cpus(monkeypatch, cpus, topology):
    """Columns are split over min(cpus, N, TABLE_MAX_THREADS) threads; N = 7
    divides by none of them."""
    monkeypatch.setattr(nkesn, "_usable_cpus", lambda: cpus)
    data = harness.make_sequence_task(3 * BLOCK_AT_K8 + nkesn.DEFAULT_WASHOUT, seed=2)
    for k in (1, 3, 7):
        model = make_nkesn(n_outputs=7, k=k, reservoir_size=16, topology=topology,
                           activation="tanh", seed=k)
        np.testing.assert_array_equal(build_table(model, data),
                                      unblocked_table(model, data))


def test_table_threads_are_capped(monkeypatch):
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    for cpus, n_outputs in ((64, 12), (64, 2), (3, 12)):
        monkeypatch.setattr(nkesn, "_usable_cpus", lambda: cpus)
        model = make_nkesn(n_outputs=n_outputs, k=2, reservoir_size=16, seed=1)
        build_table(model, sequence_data())
    assert sizes == [nkesn.TABLE_MAX_THREADS, 2, 3]


def test_usable_cpus_is_the_affinity_mask_or_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert nkesn._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert nkesn._usable_cpus() == (os.cpu_count() or 1)


def test_table_working_memory_is_bounded_at_large_k(monkeypatch):
    """K = 14 on two threads: about 1 MiB of block buffer each, where blocks of
    512 time steps took 61 MiB."""
    monkeypatch.setattr(nkesn, "_usable_cpus", lambda: 2)
    model = make_nkesn(n_outputs=14, k=14, reservoir_size=16, topology=Topology.RANDOM,
                       seed=3)
    data = harness.make_sequence_task(450, seed=3)
    tracemalloc.start()
    try:
        table = build_table(model, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1 << 14, 14)
    # the table, the 2^K x K patterns and each thread's patterns x w_out take
    # 1.75 MiB each, the two block buffers 2.25 MiB
    assert peak < 12 * 2**20, peak / 2**20


def test_worker_exception_reaches_the_caller_unchanged(monkeypatch):
    error = ArithmeticError("raised in a worker thread")
    phi = nkesn._phi

    def phi_failing_off_the_calling_thread(values, activation):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return phi(values, activation)

    monkeypatch.setattr(nkesn, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(nkesn, "_phi", phi_failing_off_the_calling_thread)
    with pytest.raises(ArithmeticError) as raised:
        build_table(demo_model(), sequence_data())
    assert raised.value is error


def test_table_rejects_unknown_activation(monkeypatch):
    model = make_nkesn(n_outputs=4, k=2, reservoir_size=16, activation="relu", seed=1)
    for cpus in (1, 2, 3):  # raised in one worker thread or in several
        monkeypatch.setattr(nkesn, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValueError, match="unknown activation"):
            build_table(model, sequence_data())


def test_constant_zero_input_gives_constant_table_columns():
    model = demo_model()
    data = harness.make_sequence_task(60, seed=0)
    zero = type(data)(np.zeros_like(data.inputs), data.targets)
    table = build_table(model, zero)
    for i in range(8):
        assert np.ptp(table[:, i]) == 0.0


# ---------------------------------------------------------------------------
# Optimizers.

def test_dp_k1_is_independent_argmin():
    land = make_landscape(6, 1)
    rng = np.random.default_rng(6)
    table = rng.uniform(0, 1, (2, 6))
    bits, value = dp_optimize(land, table)
    np.testing.assert_array_equal(bits, np.argmin(table, axis=0))
    assert value == pytest.approx(float(np.mean(table.min(axis=0))), abs=1e-12)


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (9, 4), (6, 6), (4, 3)])
def test_dp_equals_exhaustive(n, k):
    rng = np.random.default_rng(n * 10 + k)
    land = make_landscape(n, k)
    table = rng.uniform(0, 1, (1 << k, n))
    bits_dp, v_dp = dp_optimize(land, table)
    _, v_ex = exhaustive_optimize(land, table)
    assert v_dp == pytest.approx(v_ex, abs=1e-12)
    assert mean_loss_from_table(table, land, bits_dp) == pytest.approx(v_dp, abs=1e-12)


def test_dp_wide_boundary_states_reconstruct_correctly():
    """K > 9 exercises boundary states wider than one byte."""
    rng = np.random.default_rng(99)
    land = make_landscape(12, 9)
    table = rng.uniform(0, 1, (1 << 9, 12))
    bits_dp, v_dp = dp_optimize(land, table)
    _, v_ex = exhaustive_optimize(land, table)
    assert v_dp == pytest.approx(v_ex, abs=1e-12)
    assert mean_loss_from_table(table, land, bits_dp) == pytest.approx(v_dp, abs=1e-12)


def test_dp_with_tied_entries_returns_an_optimal_value():
    land = make_landscape(6, 2)
    table = np.full((4, 6), 0.37)
    _, value = dp_optimize(land, table)
    assert value == pytest.approx(0.37, abs=1e-12)


def per_prefix_dp(land, table):
    """Reference ring DP: one forward sweep per prefix, first strict minimum wins."""
    n, k = land.n, land.k
    if k == 1:
        bits = np.argmin(table, axis=0).astype(np.uint8)
        return bits, float(np.mean(table[bits, np.arange(n)]))
    s_bits = k - 1
    n_state = 1 << s_bits
    states = np.arange(n_state)
    x_t = states >> (s_bits - 1)
    pred_base = (states & ((1 << (s_bits - 1)) - 1)) << 1
    pattern0 = pred_base | (x_t << s_bits)
    pattern1 = (pred_base | 1) | (x_t << s_bits)
    best_value, best_bits = np.inf, None
    for prefix in range(n_state):
        value = np.full(n_state, np.inf)
        value[prefix] = 0.0
        choices = np.empty((n - s_bits, n_state), dtype=np.uint8)
        for t in range(s_bits, n):
            out = t - s_bits
            cand0 = value[pred_base] + table[pattern0, out]
            cand1 = value[pred_base | 1] + table[pattern1, out]
            take1 = cand1 < cand0
            choices[out] = take1
            value = np.where(take1, cand1, cand0)
        closure = np.zeros(n_state)
        for i in range(n - s_bits, n):
            pattern = np.zeros(n_state, dtype=np.int64)
            for j in range(k):
                idx = (i + j) % n
                if idx >= n - s_bits:
                    bit = (states >> (idx - (n - s_bits))) & 1
                else:
                    bit = np.full(n_state, (prefix >> idx) & 1)
                pattern |= bit << j
            closure += table[pattern, i]
        total = value + closure
        final = int(np.argmin(total))
        if total[final] < best_value:
            best_value = float(total[final])
            bits = np.empty(n, dtype=np.uint8)
            bits[:s_bits] = index_to_bits(prefix, s_bits)
            state = final
            for t in range(n - 1, s_bits - 1, -1):
                bits[t] = state >> (s_bits - 1)
                dropped = int(choices[t - s_bits, state])
                state = ((state & ((1 << (s_bits - 1)) - 1)) << 1) | dropped
            best_bits = bits
    return best_bits, best_value / n


@st.composite
def ring_tables(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        table = rng.uniform(0, 1, (1 << k, n))
    else:  # few distinct values: many tied optima
        table = rng.integers(0, 3, (1 << k, n)).astype(np.float64)
    return make_landscape(n, k), table


@settings(max_examples=150, deadline=None)
@given(drawn=ring_tables())
def test_dp_matches_per_prefix_reference_and_exhaustive(drawn):
    land, table = drawn
    bits, value = dp_optimize(land, table)
    ref_bits, ref_value = per_prefix_dp(land, table)
    np.testing.assert_array_equal(bits, ref_bits)
    assert value == ref_value
    assert value == pytest.approx(exhaustive_optimize(land, table)[1], abs=1e-12)


def test_dp_at_k12_spans_several_prefix_blocks():
    land = make_landscape(14, 12)
    assert 1 << (land.k - 1) > nkesn.DP_PREFIX_BLOCK
    table = np.random.default_rng(12).uniform(0, 1, (1 << 12, 14))
    bits, value = dp_optimize(land, table)
    assert value == pytest.approx(exhaustive_optimize(land, table)[1], abs=1e-12)
    assert mean_loss_from_table(table, land, bits) == pytest.approx(value, abs=1e-12)


def test_dp_refuses_random_topology():
    land = make_landscape(6, 2, Topology.RANDOM, seed=1)
    with pytest.raises(ValueError):
        dp_optimize(land, np.zeros((4, 6)))


def test_exhaustive_handles_random_topology():
    land = make_landscape(6, 2, Topology.RANDOM, seed=1)
    rng = np.random.default_rng(2)
    table = rng.uniform(0, 1, (4, 6))
    bits, value = exhaustive_optimize(land, table)
    assert value == pytest.approx(mean_loss_from_table(table, land, bits), abs=1e-12)


# ---------------------------------------------------------------------------
# Per-output search and stitching.

def column_select(column, epsilon, seed):
    """One output column's search as ``select_per_output`` runs it."""
    return search.select("grover", DiagonalCostHamiltonian(len(column).bit_length() - 1,
                                                           column),
                         epsilon, {"max_restarts": search.LOCAL_MAX_RESTARTS}, seed)


def test_grover_select_on_a_column_returns_argmin():
    rng = np.random.default_rng(7)
    column = rng.uniform(0, 1, 4)
    result = column_select(column, float(column.min()) + 1e-12, seed=0)
    assert result.success
    assert bits_to_index(result.bits) == int(np.argmin(column))


def test_grover_select_on_a_column_fails_below_minimum():
    column = np.array([0.4, 0.5, 0.6, 0.7])
    result = column_select(column, 0.1, seed=0)
    assert not result.success


def test_select_per_output_verifies_every_column():
    model = demo_model()
    table = build_table(model, sequence_data())
    patterns, results = select_per_output(table, model.landscape, seed=9)
    cap = int(np.ceil(np.pi / 4 * np.sqrt(table.shape[0])))
    for i, (pattern, result) in enumerate(zip(patterns, results)):
        assert result.success
        assert table[bits_to_index(pattern), i] < table[:, i].min() + 1e-12
        assert result.oracle_calls <= (cap + 1) * result.fields["restarts"]


@pytest.mark.parametrize("k", range(1, 7))
def test_select_per_output_equals_the_direct_grover_search(k):
    """Each column's search through ``search.select`` is the direct
    ``grover_search`` of the reference: same pattern, calls, restarts, hit."""
    rng = np.random.default_rng(100 + k)
    n = k + 3
    land = make_landscape(n, k)
    for seed in range(5):
        table = rng.uniform(0, 1, (1 << k, n))
        # some columns with tied minima, some with most entries under epsilon
        table[:, 0] = np.round(table[:, 0], 1)
        table[: (1 << k) - 1, 1] = table[:, 1].min()
        patterns, selections = select_per_output(table, land, seed=seed)
        run_seeds = np.random.SeedSequence(seed).generate_state(n)
        for i in range(n):
            ref = grover_table_select(table[:, i], float(table[:, i].min()) + 1e-12,
                                      seed=int(run_seeds[i]))
            np.testing.assert_array_equal(patterns[i], ref.bits)
            assert patterns[i].dtype == ref.bits.dtype
            sel = selections[i]
            assert (sel.oracle_calls, sel.fields["restarts"], sel.success) == (
                ref.oracle_calls, ref.restarts, ref.measured_good)


def test_combine_agreeing_patterns_has_no_conflicts():
    land = make_landscape(4, 2)
    patterns = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]), np.array([1, 1])]
    # assignment x = (1, 0, 1, 1): every neighborhood view agrees
    result = combine_per_output(patterns, land)
    np.testing.assert_array_equal(result.bits, [1, 0, 1, 1])
    assert result.conflicts == []


def test_combine_majority_and_tie_to_one():
    land = make_landscape(2, 2)  # both outputs read bits (0, 1) / (1, 0)
    patterns = [np.array([1, 0]), np.array([1, 1])]
    # bit 0: votes 1 (from p0[0]) and 1 (p1[1]) -> 1; bit 1: votes 0 and 1 -> tie -> 1
    result = combine_per_output(patterns, land)
    np.testing.assert_array_equal(result.bits, [1, 1])
    assert any(c["bit"] == 1 for c in result.conflicts)


def test_combine_blockwise_independent_groups():
    """Disjoint neighborhood blocks with identical in-block selections."""
    rows = [[0, 1], [0, 1], [2, 3], [2, 3]]
    land = NKLandscape(4, 2, rows, Topology.RANDOM)
    table = np.array([[0.9, 0.9, 0.1, 0.1],
                      [0.1, 0.1, 0.9, 0.9],
                      [0.5, 0.5, 0.5, 0.5],
                      [0.7, 0.7, 0.3, 0.3]])
    patterns, _ = select_per_output(table, land, seed=3)
    result = combine_per_output(patterns, land, table)
    assert result.conflicts == []
    expected = float(np.mean([table[:, i].min() for i in range(4)]))
    assert result.mean_loss == pytest.approx(expected, abs=1e-12)


def test_combined_loss_reported_against_dp():
    model = demo_model()
    table = build_table(model, sequence_data())
    patterns, _ = select_per_output(table, model.landscape, seed=11)
    result = combine_per_output(patterns, model.landscape, table)
    assert result.dp_loss is not None
    assert result.mean_loss >= result.dp_loss - 1e-12
    assert result.dp_gap == pytest.approx(result.mean_loss - result.dp_loss)

