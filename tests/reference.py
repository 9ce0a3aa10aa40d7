"""Slow, obviously-correct references that the tests hold faster code to.

``popup_train`` is the edge-popup trainer as a plain per-sample loop: every
sample draws its masks layer by layer (or reuses the epoch's), runs one
forward and straight-through backward on its own, and moves and clamps each
layer's angles separately. ``qns.edgepopup.popup_train`` must give the same
angles, loss curve and final masks bit for bit.

``mask_layout`` writes the flat bit order out as a (layer, row, col) table
of every weight, and ``layout_masks`` scatters a 0/1 matrix
through it; the slices of ``qns.masknet.layer_views`` must equal that
scatter bit for bit.
``forward`` runs one input vector through a network under its own masks, a
layer at a time and without ``qns.masknet.masked_layers``; the one-row batch
of ``qns.masknet.forward_batch`` must agree with it to rounding.
``fit_identity_teacher`` fits a least-squares teacher layer.

``basis_state`` is the computational basis state with amplitude 1 at one
index, and ``copy_state`` a copy of a state made by the ``StateVector``
constructor, so every copy a test starts from is checked for shape and norm.
The single-qubit gates (``apply_ry``, ``apply_h``, ``apply_x``, ``apply_z``)
take one pass over the state per gate, and ``apply_cz`` one pass per edge.
``apply_product`` is a tensor product of gates on ``qns.qsim``'s own block
kernels (``_shared_blocks``, ``_product_blocks``, ``_apply_block``), which
carry the transverse field of ``qns.qsim.apply_layers`` and the Ry layers of
``qns.variational.ansatz_state``; it and the cached CZ-ring diagonal must
agree with the one-pass gates. ``apply_phase_oracle`` and
``apply_diffusion`` are Grover's oracle and mean-inversion diffusion, one
pass over the state each, and
``amplified_state`` is the dense loop of t rounds of them from the uniform
state; ``qns.grover.amplified_state``, built from the two amplitudes of the
closed form, must give the same probabilities within rounding and the same
measured index.
``apply_mixer`` applies one mixer exponential through ``qns.qsim``'s
transverse-field gates (``_transverse_gates``, then ``apply_product``) and
its cached bit-flip propagator (``_bit_flip_propagator``), the kernels that
``qns.qsim.apply_layers`` runs; ``mixer_dense`` writes a mixer Hamiltonian
entry by entry from its definition, for the exponentials that
``apply_mixer`` must match.
``chebyshev_propagate`` is the Chebyshev loop on scipy's public sparse
``m @ v``, one new vector per term, that ``qns.bitflip.chebyshev_propagate``
must equal bit for bit.
``apply_layers``, ``evolve`` and ``qaoa_state`` are the layer, anneal and
QAOA loops one layer at a time, with the cos and sin of ``cost_phase`` over
the whole cost table at every step, which ``qns.qsim.apply_layers``,
``qns.qsim.evolve`` and ``qns.variational.qaoa_state``, taking them once per
distinct cost and building each chunk of layers in one broadcast, must
equal bit for bit.
``ansatz_state`` is the VQE ansatz on complex128 amplitudes, one
``apply_product`` per layer; ``qns.variational.ansatz_state`` must give its
real part bit for bit, in float64.
``optimize_variational`` is the seeded restart loop on scipy's own
Nelder-Mead (``scipy.optimize.minimize`` with ``maxfev`` set to the budget
left); ``qns.variational.optimize_variational``, on its in-repo simplex,
must evaluate the same points in the same order and keep the same best.
``reservoir_step`` is one step of the NK reservoir's linear recurrence; a
loop of it from z = 0 is what ``qns.nkesn.run_reservoir`` must equal, bit
for bit at input width 1 and to rounding at larger widths.
``nkesn_output`` and ``per_output_losses`` evaluate the NK echo-state
network's outputs one neighbourhood sum at a time, the definition that
``qns.nkesn.build_table`` tabulates. ``mean_loss_from_table`` reads an
assignment's table entries one output at a time, and ``majority_votes``
counts the stitch's votes one neighbourhood member at a time; the gather and
``np.bincount`` of ``qns.nkesn.mean_loss_from_table`` and of
``qns.nkesn.combine_per_output``'s vote must give the same values bit for
bit.
``grover_table_select`` is one NK
output's K-qubit search written directly on ``grover_search`` with 8
restarts, which ``qns.nkesn.select_per_output`` must reproduce through
``qns.search.select``.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import zaxpy
from scipy.optimize import minimize
from scipy.special import jv

from qns import masknet
from qns.nkesn import DEFAULT_WASHOUT, _phi, probe_signal_series
from qns.grover import GroverConfig, GroverResult, grover_search
from qns.edgepopup import (
    THETA_CLAMP,
    PopupTrainResult,
    ResampleRule,
    masked_loss,
    threshold_mask,
    topk_mask,
)
from qns.bitflip import _BESSEL_CUTOFF
from qns.masknet import Activation, LayerSpec
from qns.qsim import (
    Mixer,
    MixerSpec,
    StateVector,
    _apply_block,
    _bit_flip_propagator,
    _complex,
    _product_blocks,
    _shared_blocks,
    _transverse_gates,
    cost_phase,
    uniform_superposition,
)
from qns.variational import OptimizeResult, _ring_cz_signs


def _sample_mask(thetas, rng):
    return (rng.random(thetas.shape) < (1.0 + np.sin(thetas)) / 2.0).astype(np.float64)


def _update(net, thetas, masks, x, y, alpha):
    """One sample's straight-through step; returns the new per-layer angles."""
    layers = masknet.masked_layers(net, x, masks)
    diff = layers[-1][1] - y
    loss = float(np.linalg.norm(diff))
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss in popup update (input {x!r})")
    g = diff / loss if loss > 0 else np.zeros_like(diff)
    grads = [None] * net.depth
    for i in reversed(range(net.depth)):
        if net.specs[i].activation is Activation.RELU:
            g = g * (layers[i][0] > 0)
        grads[i] = g
        g = g @ net.weights[i].T
    acts = [x] + [z for _, z in layers[:-1]]
    return [np.clip(t - alpha * (np.outer(a, gr) * w), -THETA_CLAMP, THETA_CLAMP)
            for t, a, gr, w in zip(thetas, acts, grads, net.weights)]


def _final_masks(thetas, topk_fraction):
    if topk_fraction is not None:
        return [topk_mask(t, topk_fraction) for t in thetas]
    return [threshold_mask(t) for t in thetas]


def popup_train(net, data, cfg) -> PopupTrainResult:
    rng = np.random.default_rng(cfg.seed)
    thetas = [np.zeros((s.fan_in, s.fan_out)) for s in net.specs]
    loss_curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        epoch_masks = None
        if cfg.resample is ResampleRule.PER_EPOCH:
            epoch_masks = [_sample_mask(t, rng) for t in thetas]
        for idx in order:
            masks = epoch_masks or [_sample_mask(t, rng) for t in thetas]
            try:
                thetas = _update(net, thetas, masks, data.inputs[idx],
                                 data.targets[idx], cfg.alpha)
            except FloatingPointError as err:
                raise FloatingPointError(f"sample {idx}: {err}") from err
        loss_curve.append(masked_loss(net, _final_masks(thetas, cfg.topk_fraction), data))
    return PopupTrainResult(thetas, loss_curve, _final_masks(thetas, cfg.topk_fraction))


def mask_layout(net):
    """(layer, row, col) of every mask bit: layer by layer, weights row-major."""
    entries = []
    for layer, spec in enumerate(net.specs):
        for row in range(spec.fan_in):
            for col in range(spec.fan_out):
                entries.append((layer, row, col))
    return tuple(entries)


def layout_masks(net, rows):
    """Per-layer weight masks (M, fan_in, fan_out) of an (M, n) 0/1 matrix
    whose bit j masks weight ``mask_layout(net)[j]``."""
    rows = np.asarray(rows)
    layer, row, col = np.asarray(mask_layout(net), dtype=np.intp).reshape(-1, 3).T
    masks = []
    for i, spec in enumerate(net.specs):
        on_layer = layer == i
        w = np.ones((len(rows), spec.fan_in, spec.fan_out))
        w[:, row[on_layer], col[on_layer]] = rows[:, on_layer]
        masks.append(w)
    return masks


def forward(net, x):
    """One input vector through ``net`` under its own masks, a layer at a
    time: ``z @ (mask * W) + b``, then ReLU on a ReLU layer."""
    z = np.asarray(x, dtype=np.float64)
    for spec, w, b, m in zip(net.specs, net.weights, net.biases, net.masks):
        z = z @ (m * w) + b
        if spec.activation is Activation.RELU:
            z = np.maximum(z, 0.0)
    return z


def fit_identity_teacher(data):
    """A single identity layer fit to ``data`` by least squares, with a bias."""
    x = np.hstack([data.inputs, np.ones((len(data), 1))])
    coef, *_ = np.linalg.lstsq(x, data.targets, rcond=None)
    weights, bias = coef[:-1], coef[-1]
    spec = LayerSpec(weights.shape[0], weights.shape[1], Activation.IDENTITY)
    return masknet.network_from_weights([spec], [weights], [bias])


# ---------------------------------------------------------------------------
# Basis states, and gates taking one pass over the state each.

def basis_state(n_qubits: int, index: int) -> StateVector:
    state = StateVector(n_qubits)
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def copy_state(state) -> StateVector:
    """A new state with a copy of ``state``'s amplitudes, dtype and bytes
    kept, built (and so checked) by the ``StateVector`` constructor."""
    return StateVector(state.n_qubits, state.amplitudes)


def apply_single_qubit(state, qubit: int, u00, u01, u10, u11):
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {state.n_qubits} qubits")
    a = state.amplitudes.reshape(-1, 2, 1 << qubit)
    lo = a[:, 0, :]
    hi = a[:, 1, :]
    new_lo = u00 * lo + u01 * hi
    new_hi = u10 * lo + u11 * hi
    a[:, 0, :] = new_lo
    a[:, 1, :] = new_hi
    return state


def apply_ry(state, qubit: int, theta: float):
    """Single-qubit Y rotation by ``theta`` radians."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return apply_single_qubit(state, qubit, c, -s, s, c)


def apply_h(state, qubit: int):
    r = 1.0 / math.sqrt(2.0)
    return apply_single_qubit(state, qubit, r, r, r, -r)


def apply_x(state, qubit: int):
    return apply_single_qubit(state, qubit, 0.0, 1.0, 1.0, 0.0)


def apply_z(state, qubit: int):
    return apply_single_qubit(state, qubit, 1.0, 0.0, 0.0, -1.0)


def apply_cz(state, qubit_a: int, qubit_b: int):
    """Controlled-Z: negate amplitudes where both qubits are 1."""
    n = state.n_qubits
    if qubit_a == qubit_b:
        raise ValueError("controlled-Z needs two distinct qubits")
    for q in (qubit_a, qubit_b):
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    idx = np.arange(state.dim)
    both = (((idx >> qubit_a) & 1) & ((idx >> qubit_b) & 1)).astype(bool)
    state.amplitudes[both] *= -1.0
    return state


def apply_product(state, gates):
    """Apply a tensor product of single-qubit gates, ``gates[q]`` on qubit q.

    ``gates`` is an (n, 2, 2) stack, or one 2x2 matrix for every qubit; row
    index = output bit, column index = input bit. The blocks come from
    ``qns.qsim``'s own builders (``_shared_blocks``, ``_product_blocks``) and
    go through its one block product (``_apply_block``). Real gates keep a
    real state real; complex gates make it complex. The result replaces
    ``state.amplitudes`` (a new array).
    """
    n = state.n_qubits
    gates = np.asarray(gates)
    if gates.shape == (2, 2):
        blocks = _shared_blocks(gates, n)
    elif gates.shape == (n, 2, 2):
        blocks = _product_blocks(gates)
    else:
        raise ValueError(f"expected one 2x2 gate or {n} of them, got shape {gates.shape}")
    amp = _complex(state) if gates.dtype.kind == "c" else state.amplitudes
    for block in blocks:
        amp = _apply_block(amp, block)
    state.amplitudes = amp
    return state


# ---------------------------------------------------------------------------
# Grover's oracle and diffusion, and their dense loop.

def apply_phase_oracle(state, marked):
    """Negate the amplitude of every basis state flagged in ``marked``."""
    flips = np.asarray(marked, dtype=bool)
    if flips.shape != (state.dim,):
        raise ValueError(f"expected {state.dim} mark flags, got shape {flips.shape}")
    state.amplitudes[flips] *= -1.0
    return state


def apply_diffusion(state):
    """Reflect about the uniform state: a_i -> 2*mean(a) - a_i."""
    mean = state.amplitudes.mean()
    state.amplitudes[:] = 2.0 * mean - state.amplitudes
    return state


def amplified_state(marked, n_qubits: int, iterations: int):
    """The uniform state after ``iterations`` oracle+diffusion rounds."""
    state = uniform_superposition(n_qubits)
    for _ in range(iterations):
        apply_phase_oracle(state, marked)
        apply_diffusion(state)
    return state


# ---------------------------------------------------------------------------
# Mixer Hamiltonians, one matrix entry at a time.

def mixer_dense(mixer, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the mixer Hamiltonian.

    The transverse field -sum_v X_v has -1 between every two patterns one bit
    flip apart. The bit-flip mixer has 1 from x to x with bit v flipped
    exactly when every ring neighbour of v, v - 1 and v + 1 mod n other than
    v itself, holds the target bit in x.
    """
    dim = 1 << n_qubits
    h = np.zeros((dim, dim))
    if mixer.kind is Mixer.TRANSVERSE_FIELD:
        for x in range(dim):
            for v in range(n_qubits):
                h[x ^ (1 << v), x] = -1.0
        return h
    for x in range(dim):
        for v in range(n_qubits):
            neighbours = {(v - 1) % n_qubits, (v + 1) % n_qubits} - {v}
            if all((x >> w) & 1 == mixer.target_bit for w in neighbours):
                h[x ^ (1 << v), x] = 1.0
    return h


def apply_mixer(state, mixer, beta: float):
    """Apply exp(-i*beta*H_mixer) in place, one mixer at a time.

    The transverse field is one :func:`apply_product` of the gate
    ``qns.qsim._transverse_gates`` builds; a bit-flip mixer is one call of
    the cached Chebyshev propagator, ``qns.qsim._bit_flip_propagator``.
    """
    if mixer.kind is Mixer.TRANSVERSE_FIELD:
        return apply_product(state, _transverse_gates([beta])[0])
    state.amplitudes = _bit_flip_propagator(mixer, state.n_qubits)(_complex(state), beta)
    return state


def chebyshev_propagate(m, r: float, v: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i*beta*h) @ v for m = 2h/r: the same coefficients, recurrence and
    operation order as ``qns.bitflip.chebyshev_propagate``, each term through
    the public sparse ``m @ cur``."""
    x = beta * r
    j = jv(np.arange(int(abs(x) + 16.0 * abs(x) ** (1.0 / 3.0)) + 25), x)
    degree = int(np.flatnonzero(np.abs(j) >= _BESSEL_CUTOFF)[-1])
    powers_of_minus_i = np.array([1, -1j, -1, 1j])[np.arange(degree + 1) % 4]
    coef = 2.0 * j[: degree + 1] * powers_of_minus_i
    out = j[0] * v
    prev, cur = v, v
    for k in range(1, degree + 1):
        nxt = m @ cur
        if k == 1:
            nxt *= 0.5
        else:
            nxt -= prev
        out = zaxpy(nxt, out, a=coef[k])
        prev, cur = cur, nxt
    return out


def evolve(state, h_c, mixer, total_time: float, steps: int):
    """Trotterized anneal, each step's phase over the full cost table."""
    _complex(state)
    dt = total_time / steps
    for step in range(steps):
        s = (step + 0.5) / steps
        state.amplitudes *= cost_phase(h_c.costs, dt * s)
        apply_mixer(state, mixer, dt * (1.0 - s))
    return state


def apply_layers(state, h_c, mixer, gammas, betas):
    """The cost-then-mixer layers one at a time, each phase over the full
    cost table and each mixer one ``apply_mixer``."""
    _complex(state)
    for gamma, beta in zip(gammas, betas):
        state.amplitudes *= cost_phase(h_c.costs, gamma)
        apply_mixer(state, mixer, beta)
    return state


def qaoa_state(h_c, gammas, betas, mixer=None):
    """p QAOA blocks from the uniform state, each phase over the full cost table."""
    mixer = mixer or MixerSpec()
    return apply_layers(uniform_superposition(h_c.n_qubits), h_c, mixer, gammas, betas)


def ansatz_state(thetas):
    """The Ry+CZ ansatz of (layers, n) ``thetas`` on complex128 amplitudes
    from |0...0>: one ``apply_product`` per layer, then the CZ-ring signs."""
    n = thetas.shape[1]
    state = StateVector(n)  # |0...0>, complex128
    half = thetas / 2.0
    cos, sin = np.cos(half), np.sin(half)
    # Ry(theta) = [[cos, -sin], [sin, cos]] of theta/2, one per (layer, qubit)
    gates = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
    for layer in gates:
        apply_product(state, layer)
        state.amplitudes *= _ring_cz_signs(n)
    return state


def optimize_variational(objective, init, budget: int, seed) -> OptimizeResult:
    """Nelder-Mead runs by ``scipy.optimize.minimize`` from ``init``, then
    from uniform draws in [-pi, pi]^d, until ``budget`` evaluations."""
    rng = np.random.default_rng(seed)
    x0 = np.atleast_1d(np.asarray(init, dtype=np.float64))
    trace = []
    best_x, best_v = x0.copy(), math.inf

    def wrapped(x):
        nonlocal best_x, best_v
        v = float(objective(x))
        trace.append((x.copy(), v))
        if v < best_v:
            best_x, best_v = x.copy(), v
        return v

    start = x0
    while len(trace) < budget:
        minimize(wrapped, start, method="Nelder-Mead",
                 options={"maxfev": budget - len(trace),
                          "xatol": 1e-8, "fatol": 1e-12})
        start = rng.uniform(-math.pi, math.pi, size=x0.shape)
    return OptimizeResult(best_x, best_v, trace)


# ---------------------------------------------------------------------------
# NK echo-state network: one reservoir step, and outputs one neighbourhood
# sum at a time.

def reservoir_step(r, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear recurrence z' = W_res z + W_in x, with no squashing function."""
    z = np.asarray(z, dtype=np.float64)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if z.shape != (r.size,):
        raise ValueError(f"state shape {z.shape} != ({r.size},)")
    if x.shape != (r.input_dim,):
        raise ValueError(f"input shape {x.shape} != ({r.input_dim},)")
    return r.w_res @ z + r.w_in @ x


def nkesn_output(z, w_pf, land, w_out, bits, activation: str = "tanh"):
    """All N outputs for one reservoir state under the given probe mask.

    Output i sums only its K neighborhood terms: the probe signal, gated by
    the mask bit, weighted by w_out[probe, i], then the activation.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.shape != (land.n,):
        raise ValueError(f"mask has shape {bits.shape}, expected ({land.n},)")
    signals = w_pf @ np.asarray(z, dtype=np.float64)
    gated = signals * bits
    sums = np.array([
        np.dot(w_out[land.neighborhoods[i], i], gated[land.neighborhoods[i]])
        for i in range(land.n)
    ])
    return _phi(sums, activation)


def per_output_losses(model, data, bits, washout: int = DEFAULT_WASHOUT):
    """Mean squared error of each output's series under a full probe mask."""
    signals, targets = probe_signal_series(model, data, washout)
    bits = np.asarray(bits, dtype=np.float64)
    land = model.landscape
    losses = np.empty(land.n)
    for i in range(land.n):
        nb = land.neighborhoods[i]
        series = _phi((signals[:, nb] * bits[nb]) @ model.w_out[nb, i],
                      model.activation)
        losses[i] = np.mean((series - targets) ** 2)
    return losses


def mean_loss_from_table(table, land, bits) -> float:
    """(1/N) sum_i table[pattern_i(bits), i], each output's pattern index
    summed from its neighbourhood's bits."""
    bits = np.asarray(bits)
    losses = []
    for i in range(land.n):
        pattern = int(np.dot(bits[land.neighborhoods[i]], 1 << np.arange(land.k)))
        losses.append(table[pattern, i])
    return float(np.mean(losses))


def majority_votes(patterns, land):
    """(votes for 1, votes for 0) of every probe bit over the outputs' patterns."""
    votes_one = np.zeros(land.n, dtype=np.int64)
    votes_zero = np.zeros(land.n, dtype=np.int64)
    for i, pattern in enumerate(patterns):
        for j, member in enumerate(land.neighborhoods[i]):
            if pattern[j]:
                votes_one[member] += 1
            else:
                votes_zero[member] += 1
    return votes_one, votes_zero


def grover_table_select(column: np.ndarray, epsilon: float, seed: int = 0) -> GroverResult:
    """Search one output's 2^K column for a pattern with loss below epsilon."""
    column = np.asarray(column, dtype=np.float64)
    k = int(column.size).bit_length() - 1
    if 1 << k != column.size:
        raise ValueError(f"column length {column.size} is not a power of two")
    return grover_search(column, epsilon, GroverConfig(max_restarts=8, seed=seed))
