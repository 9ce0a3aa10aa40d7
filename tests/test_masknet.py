"""Masked networks: construction, evaluation, flat masks, network JSON and dataset CSV."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from conftest import with_signed_zeros
from qns import masknet
from qns.bitstrings import all_patterns, index_to_bits
from qns.masknet import (
    Activation,
    Dataset,
    LayerSpec,
    apply_flat_mask,
    dataset_loss,
    forward_batch,
    init_network,
    load_dataset_csv,
    load_network,
    layer_views,
    make_planted_dataset,
    network_from_weights,
    save_dataset_csv,
    save_network,
)

SPECS = [(2, 4, "relu"), (4, 1, "identity")]


def forward_row(net, x):
    """One input vector through ``forward_batch``, as a batch of one row."""
    return forward_batch(net, np.atleast_2d(x))[0]


def test_init_is_seed_deterministic():
    a = init_network(SPECS, seed=3)
    b = init_network(SPECS, seed=3)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_shapes_and_bounds():
    net = init_network(SPECS, seed=0)
    assert net.weights[0].shape == (2, 4)
    assert net.weights[1].shape == (4, 1)
    for spec, w, b, m in zip(net.specs, net.weights, net.biases, net.masks):
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(spec.fan_in))
        assert np.all(b == 0.0)
        assert np.all(m == 1.0)


def test_init_rejects_bad_specs():
    with pytest.raises(ValueError):
        init_network([], seed=0)
    with pytest.raises(ValueError):
        init_network([(2, 3, "relu"), (4, 1, "identity")], seed=0)  # broken chain
    with pytest.raises(ValueError):
        init_network([(2, 1, "relu")], seed=0)  # final layer must be identity
    with pytest.raises(ValueError):
        LayerSpec(0, 1)


def test_weights_are_frozen():
    net = init_network(SPECS, seed=1)
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 9.0


def test_forward_all_ones_mask_equals_plain_product():
    net = init_network(SPECS, seed=2)
    x = np.array([0.4, -1.2])
    z = np.maximum(x @ net.weights[0], 0.0) @ net.weights[1]
    np.testing.assert_allclose(forward_row(net, x), z)


def test_forward_all_zero_mask_gives_zero():
    net = init_network(SPECS, seed=2)
    for m in net.masks:
        m[:] = 0.0
    np.testing.assert_array_equal(forward_row(net, [1.0, 2.0]), [0.0])


def test_forward_scalar_relu_hand_case():
    net = network_from_weights([LayerSpec(1, 1, Activation.IDENTITY)], [[[0.5]]])
    assert forward_row(net, [2.0])[0] == 1.0


def test_forward_dimension_mismatch():
    net = init_network(SPECS, seed=0)
    with pytest.raises(ValueError):
        forward_row(net, [1.0, 2.0, 3.0])


def test_dataset_loss_examples():
    net = network_from_weights(
        [LayerSpec(2, 2, Activation.IDENTITY)], [np.zeros((2, 2))])
    data = Dataset([[1.0, 1.0]], [[3.0, 4.0]])
    assert dataset_loss(net, data) == 5.0  # 3-4-5 triangle

    perfect = Dataset([[1.0, 1.0]], [[0.0, 0.0]])
    assert dataset_loss(net, perfect) == 0.0

    two = Dataset([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [3.0, 0.0]])
    assert dataset_loss(net, two) == 2.0  # distances 1 and 3


def test_dataset_loss_rejects_empty():
    net = init_network(SPECS, seed=0)
    with pytest.raises(ValueError):
        dataset_loss(net, Dataset(np.zeros((0, 2)), np.zeros((0, 1))))


def test_dataset_loss_is_permutation_invariant():
    net = init_network(SPECS, seed=5)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(10, 2))
    ys = rng.normal(size=(10, 1))
    data = Dataset(xs, ys)
    perm = rng.permutation(10)
    shuffled = Dataset(xs[perm], ys[perm])
    assert abs(dataset_loss(net, data) - dataset_loss(net, shuffled)) < 1e-12


# ---------------------------------------------------------------------------
# Flat masks.

def _weight_bits(net):
    """(bit, layer, row, col) of every weight: bit ``off_l + row * fan_out + col``."""
    entries, off = [], 0
    for layer, spec in enumerate(net.specs):
        for row in range(spec.fan_in):
            for col in range(spec.fan_out):
                entries.append((off + row * spec.fan_out + col, layer, row, col))
        off += spec.fan_in * spec.fan_out
    return entries


def test_layout_is_a_bijection():
    """The layer views of 0..n-1 hold every weight bit once, in order."""
    net = init_network(SPECS, seed=0)
    views = layer_views(np.arange(net.total_maskable()), net)
    assert [v.shape for v in views] == [w.shape for w in net.weights]
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), np.arange(12))
    for bit, layer, row, col in _weight_bits(net):
        assert views[layer][row, col] == bit


def test_apply_all_ones_bits_matches_unmasked():
    net = init_network(SPECS, seed=4)
    view = apply_flat_mask(net, np.ones(12, dtype=np.uint8))
    x = np.array([0.3, 0.7])
    np.testing.assert_allclose(forward_row(view, x), forward_row(net, x))


def test_single_bit_controls_exactly_one_weight():
    net = init_network(SPECS, seed=4)
    x = np.array([1.0, -0.5])
    base = forward_row(apply_flat_mask(net, np.ones(12)), x)
    for j, layer, row, col in _weight_bits(net):
        bits = np.ones(12, dtype=np.uint8)
        bits[j] = 0
        view = apply_flat_mask(net, bits)
        np.testing.assert_allclose(forward_row(view, x), reference.forward(view, x),
                                   rtol=1e-12, atol=1e-15)
        for i, mask in enumerate(view.masks):
            expected = np.ones_like(mask)
            if i == layer:
                expected[row, col] = 0.0
            assert np.array_equal(mask, expected)
        # restoring the bit restores the output
        bits[j] = 1
        back = forward_row(apply_flat_mask(net, bits), x)
        np.testing.assert_allclose(back, base)


def test_flat_mask_round_trips_through_index():
    """index -> bits -> the view's masks, read back in bit order -> index."""
    net = init_network(SPECS, seed=0)
    for index in [0, 1, 2**12 - 1, 1234]:
        view = apply_flat_mask(net, index_to_bits(index, 12))
        bits = np.concatenate([m.ravel() for m in view.masks]).astype(np.int64)
        assert int(np.dot(bits, 1 << np.arange(12))) == index


def test_apply_flat_mask_rejects_wrong_length():
    net = init_network(SPECS, seed=0)
    with pytest.raises(ValueError):
        apply_flat_mask(net, np.ones(1))


def test_mask_views_share_weights_but_own_masks():
    net = init_network(SPECS, seed=4)
    bits = np.ones(12)
    v1 = apply_flat_mask(net, bits)
    v2 = apply_flat_mask(net, np.zeros(12))
    assert v1.weights[0] is net.weights[0]
    assert v1.masks[0] is not v2.masks[0]
    assert np.all(net.masks[0] == 1.0)
    bits[0] = 0.0  # the view copied its bits
    assert v1.masks[0][0, 0] == 1.0


def test_layer2_bit_only_touches_its_output_column():
    """Mask locality: cutting an output edge changes only that output."""
    net = init_network([(2, 3, "relu"), (3, 2, "identity")], seed=8)
    n = net.total_maskable()
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(6, 2))
    ones = np.ones(n, dtype=np.uint8)
    base = forward_batch(apply_flat_mask(net, ones), xs)
    for j, layer, row, col in _weight_bits(net):
        if layer != 1:
            continue
        bits = ones.copy()
        bits[j] = 0
        out = forward_batch(apply_flat_mask(net, bits), xs)
        other = [c for c in range(2) if c != col]
        np.testing.assert_array_equal(out[:, other], base[:, other])


def test_layer1_bit_blocked_by_downstream_zero_mask():
    """No path through a severed hidden unit: upstream flips cannot matter."""
    net = init_network([(2, 3, "relu"), (3, 2, "identity")], seed=8)
    n = net.total_maskable()
    bits = np.ones(n, dtype=np.uint8)
    # sever hidden unit 1 from both outputs (layer 1 rows are hidden units)
    for j, layer, row, col in _weight_bits(net):
        if layer == 1 and row == 1:
            bits[j] = 0
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(5, 2))
    base = forward_batch(apply_flat_mask(net, bits), xs)
    for j, layer, row, col in _weight_bits(net):
        if layer == 0 and col == 1:  # edges into the severed unit
            flipped = bits.copy()
            flipped[j] = 0
            out = forward_batch(apply_flat_mask(net, flipped), xs)
            np.testing.assert_array_equal(out, base)


# ---------------------------------------------------------------------------
# Persistence and planted tasks.

FINITE = st.floats(allow_nan=False, allow_infinity=False)
BITS = st.sampled_from([0.0, 1.0])
TMP_PATH_EXAMPLES = settings(max_examples=50, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def stored_networks(draw):
    """1-3 layer stacks with arbitrary finite weights and biases and random
    masks."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    hidden = draw(st.lists(st.sampled_from(list(Activation)),
                           min_size=len(widths) - 2, max_size=len(widths) - 2))
    specs = [LayerSpec(a, b, act) for a, b, act in
             zip(widths[:-1], widths[1:], [*hidden, Activation.IDENTITY])]
    return masknet.MaskedNetwork(
        specs,
        [draw(arrays(np.float64, (s.fan_in, s.fan_out), elements=FINITE)) for s in specs],
        [draw(arrays(np.float64, s.fan_out, elements=FINITE)) for s in specs],
        [draw(arrays(np.float64, (s.fan_in, s.fan_out), elements=BITS)) for s in specs],
        seed=draw(st.none() | st.integers(0, 2**63 - 1)),
    )


@TMP_PATH_EXAMPLES
@given(net=stored_networks())
def test_network_json_round_trip(tmp_path, net):
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.specs == net.specs
    assert loaded.seed == net.seed
    for name in ("weights", "biases", "masks"):
        stored, restored = getattr(net, name), getattr(loaded, name)
        assert len(restored) == len(stored)
        assert all(np.array_equal(a, b) for a, b in zip(stored, restored))


def test_network_json_accepts_unmasked_biases_and_refuses_masked_ones():
    """A document's bias-mask rule may be false, and its bias masks are
    ignored; masks gate weights only, so true is refused."""
    net = network_from_weights([(1, 1, "identity")], [[[1.0]]], [[1.0]])
    doc = masknet.network_to_json(net)
    loaded = masknet.network_from_json({**doc, "mask_biases": False,
                                        "bias_masks": [[0.0]]})
    assert forward_row(loaded, [0.0])[0] == 1.0  # the bias enters unmasked
    with pytest.raises(ValueError, match="^mask_biases: "):
        masknet.network_from_json({**doc, "mask_biases": True})


def test_network_json_seed_only_document():
    doc = {"specs": [{"fan_in": 2, "fan_out": 1, "activation": "identity"}],
           "seed": 11}
    net = masknet.network_from_json(doc)
    np.testing.assert_array_equal(net.weights[0],
                                  init_network([(2, 1, "identity")], 11).weights[0])
    with pytest.raises(ValueError):
        masknet.network_from_json({"specs": doc["specs"]})


@TMP_PATH_EXAMPLES
@given(draw=st.data(), n_rows=st.integers(1, 6), n_inputs=st.integers(1, 3),
       n_targets=st.integers(1, 3))
def test_dataset_csv_round_trip(tmp_path, draw, n_rows, n_inputs, n_targets):
    data = Dataset(draw.draw(arrays(np.float64, (n_rows, n_inputs), elements=FINITE)),
                   draw.draw(arrays(np.float64, (n_rows, n_targets), elements=FINITE)))
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    loaded = load_dataset_csv(path, n_inputs=n_inputs)
    assert np.array_equal(loaded.inputs, data.inputs)
    assert np.array_equal(loaded.targets, data.targets)


def test_dataset_csv_rejects_bad_split(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path, n_inputs=2)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_dataset_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "data.csv"
    path.write_text(f"1.0,2.0,3.0\n\n4.0,{cell},6.0\n")  # the blank line counts
    with pytest.raises(ValueError, match=f"^line 3: non-finite value '{cell}'$"):
        load_dataset_csv(path, n_inputs=2)


def test_network_json_rejects_non_finite_weights_and_biases():
    net = network_from_weights([(2, 2, "relu"), (2, 1, "identity")],
                               [[[1.0, 0.5], [0.5, 1.0]], [[1.0], [-1.0]]])
    doc = masknet.network_to_json(net)
    for key, layer, value in [("weights", 1, float("nan")), ("biases", 0, float("inf"))]:
        bad = {**doc, key: list(doc[key])}
        bad[key][layer] = np.full(np.shape(doc[key][layer]), value).tolist()
        with pytest.raises(ValueError, match=f"^layer {layer} has a non-finite weight or bias$"):
            masknet.network_from_json(bad)


def test_planted_dataset_has_zero_loss_solution():
    net = init_network(SPECS, seed=9)
    rng = np.random.default_rng(4)
    hidden = rng.integers(0, 2, net.total_maskable())
    data = make_planted_dataset(net, hidden, 20, seed=5)
    assert dataset_loss(apply_flat_mask(net, hidden), data) == 0.0


def test_weights_unchanged_by_full_optimization_pass():
    net = init_network(SPECS, seed=10)
    snapshot = [w.copy() for w in net.weights]
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = rng.integers(0, 2, net.total_maskable())
        view = apply_flat_mask(net, bits)
        forward_row(view, rng.normal(size=2))
    for w, snap in zip(net.weights, snapshot):
        np.testing.assert_array_equal(w, snap)


# ---------------------------------------------------------------------------
# Batched mask costs against the one-mask view.

@st.composite
def random_networks(draw):
    """1-3 layers of width 1-3 with random biases; at most 12 maskable bits."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    hidden = draw(st.lists(st.sampled_from(["relu", "identity"]),
                           min_size=len(widths) - 2, max_size=len(widths) - 2))
    specs = [(a, b, act) for a, b, act in
             zip(widths[:-1], widths[1:], [*hidden, "identity"])]
    seed = draw(st.integers(0, 2**32 - 1))
    net = init_network(specs, seed)
    assume(net.total_maskable() <= 12)
    rng = np.random.default_rng(seed)
    net.biases = [rng.normal(size=b.shape) for b in net.biases]
    return net, rng


@settings(max_examples=60, deadline=None)
@given(drawn=random_networks(), n_samples=st.integers(1, 5))
def test_batch_losses_equal_per_mask_losses(drawn, n_samples):
    net, rng = drawn
    data = Dataset(rng.normal(size=(n_samples, net.input_dim)),
                   rng.normal(size=(n_samples, net.output_dim)))
    rows = rng.integers(0, 2, size=(40, net.total_maskable())).astype(np.uint8)
    expected = [dataset_loss(apply_flat_mask(net, row), data) for row in rows]
    assert np.array_equal(masknet.batch_losses(net, data, rows), expected)


# ---------------------------------------------------------------------------
# The enumeration kernel against the batched evaluator.

@st.composite
def enumerable_networks(draw):
    """1-3 layers with hidden widths 1-3 and output width 1-9, random biases;
    at most 12 maskable bits."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    widths.append(draw(st.integers(1, 9)))
    hidden = draw(st.lists(st.sampled_from(["relu", "identity"]),
                           min_size=len(widths) - 2, max_size=len(widths) - 2))
    specs = [(a, b, act) for a, b, act in
             zip(widths[:-1], widths[1:], [*hidden, "identity"])]
    seed = draw(st.integers(0, 2**32 - 1))
    net = init_network(specs, seed)
    assume(net.total_maskable() <= 12)
    rng = np.random.default_rng(seed)
    net.biases = [rng.normal(size=b.shape) for b in net.biases]
    return net, rng


@settings(max_examples=80, deadline=None)
@given(drawn=enumerable_networks(), n_samples=st.integers(1, 12),
       chunk=st.sampled_from([1, 3, 64, masknet.ENUMERATION_CHUNK]),
       zeros=st.sampled_from([0.0, 0.3, 1.0]))
def test_enumerate_losses_equal_batch_losses(drawn, n_samples, chunk, zeros):
    """Inputs, targets and biases hold a share ``zeros`` of 0.0 and -0.0."""
    net, rng = drawn
    net.biases = [with_signed_zeros(rng, b, zeros) for b in net.biases]
    data = Dataset(with_signed_zeros(rng, rng.normal(size=(n_samples, net.input_dim)), zeros),
                   with_signed_zeros(rng, rng.normal(size=(n_samples, net.output_dim)),
                                     zeros))
    expected = masknet.batch_losses(net, data, all_patterns(net.total_maskable()))
    with mock.patch.object(masknet, "ENUMERATION_CHUNK", chunk):
        assert np.array_equal(masknet.enumerate_losses(net, data), expected)


def test_table_plan_is_shared_by_shape_and_chunk_and_read_only():
    """Networks of one shape share the kernel's bookkeeping at one chunk, a
    patched chunk gets its own, and no call can change it."""
    layers = [(2, 3, "relu"), (3, 2, "identity")]
    a, b = (init_network(layers, seed) for seed in (0, 1))
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
    masknet.enumerate_losses(a, data)
    plan = masknet._table_plan(a.specs, masknet.ENUMERATION_CHUNK)
    with mock.patch.object(masknet, "_table_plan", wraps=masknet._table_plan) as spy:
        masknet.enumerate_losses(b, data)
        with mock.patch.object(masknet, "ENUMERATION_CHUNK", 4):
            small = masknet.enumerate_losses(b, data)
    assert spy.call_args_list == [mock.call(b.specs, masknet.ENUMERATION_CHUNK),
                                  mock.call(b.specs, 4)]
    assert masknet._table_plan(b.specs, masknet.ENUMERATION_CHUNK) is plan
    assert masknet._table_plan(b.specs, 4).m == 2 != plan.m
    assert np.array_equal(small, masknet.enumerate_losses(b, data))
    for array in (*plan.ranks, plan.free, plan.reps, plan.shift, plan.axes):
        assert not array.flags.writeable


def test_table_prices_the_last_layer_once_per_column_pattern(monkeypatch):
    """On [[2,2,relu],[2,4,identity]] the last layer runs under the 4 patterns
    of one unit's 2 weight bits, once for each of the 16 hidden-layer
    patterns, not under all 256 patterns of its 8 bits."""
    net = init_network([(2, 2, "relu"), (2, 4, "identity")], seed=0)
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(16, 2)), rng.normal(size=(16, 4)))
    expected = masknet.batch_losses(net, data, all_patterns(12))
    batches = []
    masked_layer = masknet._masked_layer

    def spy(net, i, z, mask):
        layer = masked_layer(net, i, z, mask)
        if i == net.depth - 1:
            batches.append(layer[1].shape[:2])  # (mask patterns, prefix patterns)
        return layer

    monkeypatch.setattr(masknet, "_masked_layer", spy)
    assert np.array_equal(masknet.enumerate_losses(net, data), expected)
    assert {patterns for patterns, _ in batches} == {4}
    assert sum(prefix for _, prefix in batches) == 16


@settings(max_examples=200, deadline=None)
@given(layout=st.sampled_from(["vector", "samples", "stacks", "patterns"]),
       fan_in=st.integers(1, 3), fan_out=st.integers(1, 4),
       n_samples=st.integers(1, 40), n_prefix=st.integers(1, 8),
       n_patterns=st.integers(1, 8), relu=st.booleans(),
       rows_min=st.sampled_from([1, masknet.BIAS_ROWS_MIN]),
       seed=st.integers(0, 2**32 - 1))
def test_masked_layer_equals_product_plus_bias_bit_for_bit(
        layout, fan_in, fan_out, n_samples, n_prefix, n_patterns, relu, rows_min, seed):
    """Whether the bias goes in over rows of samples x fan_out or fan_out
    at a time, ``_masked_layer`` gives ``z @ (mask * W) + b`` bit for bit,
    signed zeros included, on every input layout the network passes it:
    one vector, (samples, fan_in), edge-popup's (samples, 1, fan_in)
    stacks and the table kernel's (1, prefix, samples, fan_in) under
    (patterns, 1, fan_in, fan_out) masks."""
    rng = np.random.default_rng(seed)
    # layer 0 is under test; a network must end in an identity layer
    specs = [(fan_in, fan_out, "relu" if relu else "identity"), (fan_out, 1, "identity")]
    net = network_from_weights(
        specs, [with_signed_zeros(rng, rng.normal(size=(i, o)), 0.2) for i, o, _ in specs],
        [with_signed_zeros(rng, rng.normal(size=o), 0.5) for _, o, _ in specs])
    z_shape, mask_shape = {
        "vector": ((fan_in,), (fan_in, fan_out)),
        "samples": ((n_samples, fan_in), (fan_in, fan_out)),
        "stacks": ((n_samples, 1, fan_in), (fan_in, fan_out)),
        "patterns": ((1, n_prefix, n_samples, fan_in), (n_patterns, 1, fan_in, fan_out)),
    }[layout]
    z = with_signed_zeros(rng, rng.normal(size=z_shape), 0.2)
    mask = rng.integers(0, 2, size=mask_shape)
    expected = z @ (mask * net.weights[0]) + net.biases[0]
    with mock.patch.object(masknet, "BIAS_ROWS_MIN", rows_min):
        a, out = masknet._masked_layer(net, 0, z, mask)
    assert a.shape == expected.shape
    assert np.array_equal(a, expected)
    assert np.array_equal(np.signbit(a), np.signbit(expected))
    expected_out = np.maximum(expected, 0.0) if relu else expected
    assert np.array_equal(out, expected_out)
    assert np.array_equal(np.signbit(out), np.signbit(expected_out))


@settings(max_examples=100, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 12),
                                      st.integers(1, 12)),
                elements=st.floats(-1e3, 1e3) | st.just(-0.0)),
       y=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_short_axis_reductions_match_numpy(x, y, seed):
    total = masknet.sum_columns(masknet.unstack(x))
    assert np.array_equal(total, np.add.reduce(x, axis=-1))
    assert np.array_equal(np.signbit(total), np.signbit(np.add.reduce(x, axis=-1)))
    # columns that broadcast: every other one spans only the first row
    columns = [c[:1] if k % 2 else c for k, c in enumerate(masknet.unstack(x))]
    stacked = np.add.reduce(np.stack(np.broadcast_arrays(*columns), axis=-1), axis=-1)
    total = masknet.sum_columns(columns)
    assert np.array_equal(total, stacked)
    assert np.array_equal(np.signbit(total), np.signbit(stacked))
    # noisy rows give sums that round differently when added in another order
    rng = np.random.default_rng(seed)
    for preds, targets in ((x, np.full(x.shape[1:], y)),
                           (x + rng.normal(size=x.shape), rng.normal(size=x.shape[1:]))):
        assert np.array_equal(masknet.mean_l2(masknet.unstack(preds), targets),
                              np.mean(np.linalg.norm(preds - targets, axis=-1), axis=-1))


def test_enumeration_peak_memory_is_a_few_chunks():
    """A 16-bit table allocates at most 6 chunks at its peak, a chunk being
    ENUMERATION_CHUNK rows of (samples, widest layer) floats; computing the
    whole table in one block takes about 70."""
    net = init_network([(3, 4, "relu"), (4, 1, "identity")], seed=0)
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(16, 3)), rng.normal(size=(16, 1)))
    chunk_bytes = masknet.ENUMERATION_CHUNK * 16 * 4 * 8
    tracemalloc.start()
    try:
        table = masknet.enumerate_losses(net, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1 << 16,)
    assert peak <= 6 * chunk_bytes


def test_wide_last_layer_table_peak_memory_is_a_few_chunks():
    """A 16-bit table whose last layer has 12 bits is priced in blocks of its
    bit grid, within the same 6 chunks (widest layer 6)."""
    net = init_network([(2, 2, "relu"), (2, 6, "identity")], seed=0)
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(16, 2)), rng.normal(size=(16, 6)))
    chunk_bytes = masknet.ENUMERATION_CHUNK * 16 * 6 * 8
    tracemalloc.start()
    try:
        table = masknet.enumerate_losses(net, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1 << 16,)
    assert peak <= 6 * chunk_bytes


@settings(max_examples=60, deadline=None)
@given(drawn=random_networks(), n_samples=st.integers(1, 5))
def test_slices_equal_the_layout_table_scatter(drawn, n_samples):
    """batch_forward and apply_flat_mask give the bytes of a scatter of each
    bit through a (layer, row, col) table."""
    net, rng = drawn
    xs = rng.normal(size=(n_samples, net.input_dim))
    rows = rng.integers(0, 2, size=(8, net.total_maskable())).astype(np.uint8)
    masks = reference.layout_masks(net, rows)
    expected = masknet.masked_layers(net, xs, masks)[-1][1]
    assert masknet.batch_forward(net, rows, xs).tobytes() == expected.tobytes()
    for k, row in enumerate(rows):
        view = apply_flat_mask(net, row)
        for ours, theirs in zip(view.masks, masks, strict=True):
            assert ours.tobytes() == theirs[k].tobytes()
