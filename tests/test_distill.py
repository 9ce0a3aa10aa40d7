"""Layerwise teacher-student selection: recorded activations, compression, block search."""
import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import with_signed_zeros
from reference import fit_identity_teacher
from qns import distill, masknet, search
from qns.bitstrings import all_patterns, index_to_bits
from qns.distill import (
    Backend,
    Chaining,
    CompressMode,
    TeacherStudentPair,
    block_loss,
    compress,
    distill_select,
    make_student,
    record_activations,
)
from qns.masknet import Activation, Dataset, LayerSpec, init_network, network_from_weights
from qns.qsim import DiagonalCostHamiltonian


def small_teacher(seed=4):
    return init_network([(2, 2, "relu"), (2, 1, "identity")], seed=seed)


def teacher_io_data(teacher, n=20, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, (n, teacher.input_dim))
    return Dataset(xs, masknet.forward_batch(teacher, xs))


# ---------------------------------------------------------------------------
# Recorded activations.

def test_record_activations_identity_layer():
    net = network_from_weights([LayerSpec(2, 2, Activation.IDENTITY)],
                               [np.eye(2)])
    outputs = record_activations(net, Dataset([[1.0, 2.0]], [[0.0, 0.0]]))
    np.testing.assert_array_equal(outputs[0], [[1.0, 2.0]])


def test_trace_final_layer_equals_forward():
    net = small_teacher()
    data = teacher_io_data(net)
    outputs = record_activations(net, data)
    # one (samples, fan_out) array per layer
    assert [a.shape for a in outputs] == [(len(data.inputs), s.fan_out) for s in net.specs]
    np.testing.assert_allclose(outputs[-1],
                               masknet.forward_batch(net, data.inputs))


def test_relu_trace_zeroes_negative_preactivations():
    net = network_from_weights(
        [LayerSpec(1, 2, Activation.RELU), LayerSpec(2, 1, Activation.IDENTITY)],
        [np.array([[-1.0, -2.0]]), np.ones((2, 1))])
    outputs = record_activations(net, Dataset([[3.0]], [[0.0]]))
    np.testing.assert_array_equal(outputs[0], [[0.0, 0.0]])


# ---------------------------------------------------------------------------
# Compression.

def test_average_pool_group_means():
    np.testing.assert_array_equal(
        compress(np.array([1.0, 3.0, 2.0, 4.0]), 2, CompressMode.AVERAGE_POOL),
        [2.0, 3.0])


@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 4),
                                      st.integers(1, 10)),
                elements=st.floats(-1e3, 1e3) | st.just(-0.0)))
def test_average_pool_equals_numpy_group_mean(x):
    expected = x.mean(-1)
    pooled = compress(x.reshape(*x.shape[:-2], -1), x.shape[-2],
                      CompressMode.AVERAGE_POOL)
    assert np.array_equal(pooled, expected)
    assert np.array_equal(np.signbit(pooled), np.signbit(expected))


def test_magnitude_topk_keeps_order():
    np.testing.assert_array_equal(
        compress(np.array([5.0, -9.0, 1.0, 0.0]), 2, CompressMode.MAGNITUDE_TOP_K),
        [5.0, -9.0])


def test_compress_identity_when_dims_match():
    v = np.array([1.0, -2.0, 3.0])
    for mode in CompressMode:
        np.testing.assert_array_equal(compress(v, 3, mode), v)


def test_compress_errors():
    with pytest.raises(ValueError):
        compress(np.ones(2), 3, CompressMode.AVERAGE_POOL)
    with pytest.raises(ValueError):
        compress(np.ones(5), 2, CompressMode.AVERAGE_POOL)  # not divisible


def test_compress_batched_rows_are_independent():
    rows = np.array([[1.0, -5.0, 2.0, 0.5], [0.1, 0.2, -0.3, 4.0]])
    out = compress(rows, 2, CompressMode.MAGNITUDE_TOP_K)
    np.testing.assert_array_equal(out, [[-5.0, 2.0], [-0.3, 4.0]])


# ---------------------------------------------------------------------------
# Block loss.

def test_block_loss_zero_when_student_copies_teacher():
    """ReLU layer copied into the block, identity second layer, all-ones mask."""
    teacher_w = np.array([[0.6, -0.4], [0.2, 0.8]])
    block = network_from_weights(
        [LayerSpec(2, 2, Activation.RELU), LayerSpec(2, 2, Activation.IDENTITY)],
        [teacher_w, np.eye(2)])
    rng = np.random.default_rng(2)
    inputs = rng.uniform(-1, 1, (10, 2))
    teacher_acts = np.maximum(inputs @ teacher_w, 0.0)
    bits = np.ones(block.total_maskable(), dtype=np.uint8)
    assert block_loss(teacher_acts, block, bits, inputs) == 0.0


def test_block_loss_zero_mask_equals_teacher_activation_norm():
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    outputs = record_activations(teacher, data)
    bits = np.zeros(pair.blocks[0].total_maskable(), dtype=np.uint8)
    loss = block_loss(outputs[0], pair.blocks[0], bits, data.inputs)
    expected = float(np.mean(np.linalg.norm(outputs[0], axis=1)))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_block_loss_sample_order_invariant():
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    outputs = record_activations(teacher, data)
    bits = np.ones(pair.blocks[0].total_maskable(), dtype=np.uint8)
    perm = np.random.default_rng(0).permutation(len(data))
    a = block_loss(outputs[0], pair.blocks[0], bits, data.inputs)
    b = block_loss(outputs[0][perm], pair.blocks[0], bits, data.inputs[perm])
    assert a == pytest.approx(b, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(CompressMode), group=st.integers(1, 3),
       fan_in=st.integers(1, 4), fan_out=st.integers(1, 2),
       n_samples=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       zeros=st.sampled_from([0.0, 0.3, 1.0]))
def test_block_table_equals_block_loss_of_every_mask(mode, group, fan_in, fan_out,
                                                    n_samples, seed, zeros):
    """Inputs, teacher activations and biases hold a share ``zeros`` of 0.0
    and -0.0."""
    wide = group * fan_out
    assume(fan_in * wide + wide * wide <= 12)
    teacher = init_network([(fan_in, fan_out, "identity")], seed)
    block = make_student(teacher, group, seed).blocks[0]
    rng = np.random.default_rng(seed)
    block.biases = [with_signed_zeros(rng, rng.normal(size=b.shape), zeros)
                    for b in block.biases]
    inputs = with_signed_zeros(rng, rng.normal(size=(n_samples, fan_in)), zeros)
    acts = with_signed_zeros(rng, rng.normal(size=(n_samples, fan_out)), zeros)
    rows = all_patterns(block.total_maskable())
    assert np.array_equal(distill.block_table(acts, block, inputs, mode),
                          block_loss(acts, block, rows, inputs, mode))


def test_block_table_peak_memory_is_one_loss_array_per_chunk():
    """A 12-bit average-pool block table over 32 samples peaks at 2.9
    chunks, a chunk being ENUMERATION_CHUNK rows of 32 floats: the pooled
    column holds the loss. A second chunk-sized array of differences took
    it to 3.4."""
    teacher = init_network([(4, 1, "identity")], seed=0)
    block = make_student(teacher, 2, seed=1).blocks[0]
    rng = np.random.default_rng(0)
    inputs, acts = rng.normal(size=(32, 4)), rng.normal(size=(32, 1))
    distill.block_table(acts, block, inputs)  # fills the kernel's per-shape plan
    chunk_bytes = masknet.ENUMERATION_CHUNK * 32 * 8
    tracemalloc.start()
    try:
        table = distill.block_table(acts, block, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1 << 12,)
    assert peak <= 3.15 * chunk_bytes


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(CompressMode), chaining=st.sampled_from(Chaining),
       hidden=st.integers(1, 3), width=st.integers(1, 2),
       n_samples=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       zeros=st.sampled_from([0.0, 0.3, 1.0]))
def test_block_epsilon_read_from_the_table_equals_the_forward_pass_one(
        mode, chaining, hidden, width, n_samples, seed, zeros):
    """Each Grover block's epsilon, read from the block's table, is 1.1 times
    the least forward-pass block_loss of the same 16 probe masks, bit for
    bit, and leaves the run's generator where the probes left it. Inputs
    and the blocks' biases hold a share ``zeros`` of 0.0 and -0.0."""
    assume(hidden * width <= 3)  # block 0 within 12 bits
    teacher = init_network([(1, hidden, "relu"), (hidden, 1, "identity")], seed)
    pair = make_student(teacher, width, seed)
    rng = np.random.default_rng(seed)
    for block in pair.blocks:
        block.biases = [with_signed_zeros(rng, rng.normal(size=b.shape), zeros)
                        for b in block.biases]
    inputs = with_signed_zeros(rng, rng.normal(size=(n_samples, 1)), zeros)
    data = Dataset(inputs, masknet.forward_batch(teacher, inputs))
    block_table, block_epsilon = distill.block_table, distill._block_epsilon
    tables, epsilons = [], []

    def recording_table(teacher_acts, block, block_inputs, mode):
        tables.append((teacher_acts, block, block_inputs))
        return block_table(teacher_acts, block, block_inputs, mode)

    def checked_epsilon(costs, n_bits, rng):
        teacher_acts, block, block_inputs = tables[-1]
        twin = copy.deepcopy(rng)
        probes = twin.integers(0, 2, size=(16, n_bits)).astype(np.uint8)
        best = block_loss(teacher_acts, block, probes, block_inputs, mode).min()
        eps = block_epsilon(costs, n_bits, rng)
        assert eps == (float(best * 1.1) if best > 0 else 1e-12)
        assert rng.bit_generator.state == twin.bit_generator.state
        epsilons.append(eps)
        return eps

    with mock.patch.object(distill, "block_table", recording_table), \
            mock.patch.object(distill, "_block_epsilon", checked_epsilon):
        result = distill_select(pair, data, backend=Backend.GROVER,
                                per_block_bit_budget=12, mode=mode,
                                chaining=chaining, seed=seed)
    assert [r.epsilon for r in result] == epsilons
    assert len(epsilons) == 2


# ---------------------------------------------------------------------------
# Student construction.

def test_make_student_shapes_and_depth():
    teacher = small_teacher()
    pair = make_student(teacher, width_factor=3, seed=0)
    assert pair.student_depth == 2 * teacher.depth
    for block, spec in zip(pair.blocks, teacher.specs):
        assert block.input_dim == spec.fan_in
        assert block.output_dim == 3 * spec.fan_out
    with pytest.raises(ValueError):
        make_student(teacher, width_factor=0, seed=0)


def test_pair_validation_rejects_mismatched_blocks():
    teacher = small_teacher()
    good = make_student(teacher, width_factor=1, seed=0)
    with pytest.raises(ValueError):
        TeacherStudentPair(teacher, good.blocks[:1])


# ---------------------------------------------------------------------------
# Selection backends.

def test_exhaustive_selection_attains_independent_enumeration():
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    result = distill_select(pair, data, backend=Backend.EXHAUSTIVE,
                            per_block_bit_budget=12)

    outputs = record_activations(teacher, data)
    inputs = data.inputs
    for i, block in enumerate(pair.blocks):
        n_bits = block.total_maskable()
        best = min(block_loss(outputs[i], block, index_to_bits(x, n_bits), inputs)
                   for x in range(1 << n_bits))
        assert result[i].loss == best
        assert result[i].gap == 0.0
        view = masknet.apply_flat_mask(block, result[i].bits)
        out = masknet.forward_batch(view, inputs)
        inputs = compress(out, outputs[i].shape[1])


def test_grover_backend_succeeds_with_epsilon_above_minimum():
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    exact = distill_select(pair, data, backend=Backend.EXHAUSTIVE,
                           per_block_bit_budget=12)
    eps = [r.exhaustive_min + 1e-9 for r in exact]
    result = distill_select(pair, data, backend=Backend.GROVER,
                            per_block_bit_budget=12, epsilons=eps, seed=5)
    for report, eps_i in zip(result, eps):
        assert report.loss < eps_i
        assert report.oracle_calls > 0


def test_grover_backend_enumerates_each_block_once(monkeypatch):
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    tables = []
    block_table = distill.block_table

    def counting_block_table(teacher_acts, block, *args):
        tables.append(block)
        return block_table(teacher_acts, block, *args)

    monkeypatch.setattr(distill, "block_table", counting_block_table)
    result = distill_select(pair, data, backend=Backend.GROVER,
                            per_block_bit_budget=12, seed=5)
    assert len(result) == len(pair.blocks)
    assert [id(b) for b in tables] == [id(b) for b in pair.blocks]


def test_grover_backend_prices_only_the_chosen_masks_by_forward_pass(monkeypatch):
    """The epsilon probes read the block's table; ``block_loss`` runs once
    per block, on the chosen mask."""
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    calls = []

    def recording_loss(teacher_acts, block, bits, *args):
        calls.append((block, np.array(bits)))
        return block_loss(teacher_acts, block, bits, *args)

    monkeypatch.setattr(distill, "block_loss", recording_loss)
    result = distill_select(pair, data, backend=Backend.GROVER,
                            per_block_bit_budget=12, seed=5)
    assert [id(b) for b, _ in calls] == [id(b) for b in pair.blocks]
    for (_, bits), report in zip(calls, result, strict=True):
        assert bits.ndim == 1 and np.array_equal(bits, report.bits)


def test_hamiltonian_backends_report_gaps():
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    for backend in (Backend.QAOA, Backend.ANNEAL):
        result = distill_select(pair, data, backend=backend,
                                per_block_bit_budget=12, seed=2)
        for report in result:
            assert report.gap is not None and report.gap >= 0.0
            assert report.exhaustive_min is not None


def test_depth_one_teacher_optimizes_exactly_one_block():
    teacher = init_network([(2, 1, "identity")], seed=7)
    data = teacher_io_data(teacher, n=16)
    pair = make_student(teacher, width_factor=2, seed=2)
    result = distill_select(pair, data, backend=Backend.EXHAUSTIVE,
                            per_block_bit_budget=12)
    assert len(result) == 1


@pytest.mark.parametrize("layers, chained", [([(2, 1, "identity")], 0),
                                              ([(2, 2, "relu"), (2, 1, "identity")], 1)])
def test_student_chaining_stops_at_the_last_block(monkeypatch, layers, chained):
    """Only a block that feeds another is run forward and compressed, and the
    reports equal those of the loop that chained past the last block too."""
    teacher = init_network(layers, seed=7)
    data = teacher_io_data(teacher, n=16)
    pair = make_student(teacher, width_factor=1, seed=2)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return compress(*args, **kwargs)
    monkeypatch.setattr(distill, "compress", spy)
    result = distill_select(pair, data, backend=Backend.GROVER,
                            per_block_bit_budget=12, seed=3)
    assert len(calls) == chained

    # the reference loop: every block by the same per-block search, each
    # followed by the chaining step
    outputs = record_activations(teacher, data)
    rng = np.random.default_rng(3)
    inputs = data.inputs
    for i, (block, report) in enumerate(zip(pair.blocks, result, strict=True)):
        acts = outputs[i]
        h = DiagonalCostHamiltonian(block.total_maskable(),
                                    distill.block_table(acts, block, inputs))
        eps = distill._block_epsilon(h.costs, block.total_maskable(), rng)
        chosen = search.select("grover", h, eps,
                               {"max_restarts": search.LOCAL_MAX_RESTARTS},
                               int(rng.integers(2 ** 31)))
        np.testing.assert_array_equal(report.bits, chosen.bits)
        assert report.loss == block_loss(acts, block, chosen.bits, inputs)
        assert report.epsilon == eps and report.oracle_calls == chosen.oracle_calls
        view = masknet.apply_flat_mask(block, chosen.bits)
        inputs = compress(masknet.forward_batch(view, inputs), acts.shape[1])


def test_bit_budget_is_enforced():
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=2, seed=1)
    with pytest.raises(ValueError):
        distill_select(pair, data, backend=Backend.EXHAUSTIVE,
                       per_block_bit_budget=12)


def test_teacher_chaining_feeds_teacher_activations():
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=3)
    student = distill_select(pair, data, backend=Backend.EXHAUSTIVE,
                             per_block_bit_budget=12, chaining=Chaining.STUDENT)
    guided = distill_select(pair, data, backend=Backend.EXHAUSTIVE,
                            per_block_bit_budget=12, chaining=Chaining.TEACHER)
    assert guided[0].loss == student[0].loss  # same first block
    assert len(guided) == len(student)


def test_total_loss_not_worse_than_random_masks():
    """Greedy consistency: selection beats the best of 32 random masks."""
    teacher = small_teacher()
    data = teacher_io_data(teacher)
    pair = make_student(teacher, width_factor=1, seed=1)
    result = distill_select(pair, data, backend=Backend.EXHAUSTIVE,
                            per_block_bit_budget=12)

    rng = np.random.default_rng(9)
    outputs = record_activations(teacher, data)
    best_random = np.inf
    for _ in range(32):
        total, inputs = 0.0, data.inputs
        for i, block in enumerate(pair.blocks):
            bits = rng.integers(0, 2, block.total_maskable()).astype(np.uint8)
            total += block_loss(outputs[i], block, bits, inputs)
            view = masknet.apply_flat_mask(block, bits)
            inputs = compress(masknet.forward_batch(view, inputs),
                              outputs[i].shape[1])
        best_random = min(best_random, total)
    assert float(sum(r.loss for r in result)) <= best_random + 1e-12


def test_fit_identity_teacher_recovers_linear_map():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 2))
    xs = rng.normal(size=(40, 3))
    ys = xs @ w + 0.5
    teacher = fit_identity_teacher(Dataset(xs, ys))
    np.testing.assert_allclose(masknet.forward_batch(teacher, xs), ys, atol=1e-9)
