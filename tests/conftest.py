"""Shared helpers: planted-subnetwork tasks with controllable solution counts,
a reservoir's free run, and drawn cost tables."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qns import masknet, nkesn, oracle


def make_planted_task(layers, seed, n_samples=16, density=0.5, input_range=1.0):
    """Network + dataset whose targets come from a hidden mask (zero-loss plant)."""
    net_seed, mask_seed, data_seed = np.random.SeedSequence(seed).generate_state(3)
    net = masknet.init_network(layers, int(net_seed))
    rng = np.random.default_rng(int(mask_seed))
    hidden = (rng.random(net.total_maskable()) < density).astype(np.uint8)
    data = masknet.make_planted_dataset(net, hidden, n_samples, int(data_seed),
                                        input_range=input_range)
    return net, data, hidden


def planted_oracle(layers, seed, epsilon, n_samples=16):
    net, data, _ = make_planted_task(layers, seed, n_samples)
    return oracle.SubnetworkOracle(net, data, epsilon)


def planted_oracle_with_k(layers, k_target, epsilon, base_seed=0, n_samples=16):
    """First seed at or after ``base_seed`` whose task has exactly k solutions."""
    seed = base_seed
    while True:
        o = planted_oracle(layers, seed, epsilon, n_samples)
        if int(o.marked_table().sum()) == k_target:
            return o, seed
        seed += 1
        if seed - base_seed > 500:
            raise RuntimeError(f"no task with k={k_target} near seed {base_seed}")


def free_run(reservoir, z, steps):
    """The state ``steps`` steps of ``nkesn.run_reservoir`` after ``z``, with
    no input: an input weight column of ``z`` and a unit impulse make the
    first state ``z`` and each later one ``W_res`` times the one before."""
    kick = nkesn.Reservoir(reservoir.w_res, np.asarray(z, dtype=np.float64)[:, None],
                           reservoir.spectral_radius, reservoir.connectivity)
    impulse = np.zeros((steps + 1, 1))
    impulse[0] = 1.0
    return nkesn.run_reservoir(kick, impulse)[-1]


def with_signed_zeros(rng, x, share):
    """A copy of ``x`` with about ``share`` of its entries set to 0.0 or -0.0."""
    x = np.array(x, dtype=np.float64)
    hit = rng.random(x.shape) < share
    x[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return x


@st.composite
def cost_tables(draw, max_bits=6):
    """(n_bits, a table of 2^n_bits costs, epsilon); epsilon is often a table
    entry, so that ``cost < epsilon`` is tested at equality."""
    n_bits = draw(st.integers(1, max_bits))
    costs = draw(arrays(np.float64, 1 << n_bits, elements=st.floats(0.0, 10.0)))
    epsilon = draw(st.floats(0.0, 10.0) | st.sampled_from(costs.tolist()))
    return n_bits, costs, epsilon


# costs whose phases stress the per-level cos and sin: signed and unsigned
# zeros, subnormals and other tiny values, and large values
PHASE_COSTS = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
               | st.floats(-1e-300, 1e-300)
               | st.floats(-1e12, 1e12)
               | st.floats(-10.0, 10.0))


@st.composite
def phase_tables(draw, max_bits=8):
    """(n_bits, a table of 2^n_bits costs): a few levels repeated over the
    table, a few levels among both 0.0 and -0.0, or every entry distinct."""
    n_bits = draw(st.integers(1, max_bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["few", "signed_zeros", "distinct"]))
    if kind == "distinct":
        scale = draw(st.sampled_from([1e-300, 1.0, 1e12]))
        return n_bits, rng.uniform(-scale, scale, 1 << n_bits)
    levels = draw(st.lists(PHASE_COSTS, min_size=1, max_size=6))
    if kind == "signed_zeros":
        levels += [0.0, -0.0]
    return n_bits, np.array(levels)[rng.integers(len(levels), size=1 << n_bits)]


LAYERS_6BIT = ((2, 2, "relu"), (2, 1, "identity"))
LAYERS_8BIT = ((2, 2, "relu"), (2, 2, "identity"))
