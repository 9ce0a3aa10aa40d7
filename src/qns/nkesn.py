"""Echo state networks with a K-bounded probe-filter selection layer.

A fixed random reservoir feeds a probe filter of N maskable neurons; each
of N ensemble outputs reads exactly K probe neurons, chosen by a
neighborhood table. Per-output losses therefore depend on only K bits,
which makes the full 2^N mask search collapse to a 2^K x N lookup table
that can be optimized exactly (dynamic programming on adjacent
neighborhoods, exhaustive scan otherwise) or per output with a K-qubit
amplitude-amplification search.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import search
from .bitstrings import all_patterns, index_to_bits
from .masknet import Dataset
from .qsim import DiagonalCostHamiltonian

DEFAULT_WASHOUT = 20
DP_MAX_N = 64
DP_MAX_K = 12
EXHAUSTIVE_MAX_N = 20
TABLE_BLOCK_ENTRIES = 1 << 17  # entries of one thread's table block: 1 MiB
TABLE_MAX_THREADS = 4  # bounds the per-thread buffers of build_table on many-CPU hosts
DP_PREFIX_BLOCK = 256


# ---------------------------------------------------------------------------
# Reservoir.

@dataclass
class Reservoir:
    w_res: np.ndarray
    w_in: np.ndarray
    spectral_radius: float
    connectivity: float
    seed: int | None = None

    @property
    def size(self) -> int:
        return self.w_res.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[1]


def estimate_spectral_radius(w: np.ndarray) -> float:
    """|largest eigenvalue|, from the full (dense) eigenvalue spectrum."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if not np.any(w):
        raise ValueError("matrix is identically zero")
    return float(np.abs(np.linalg.eigvals(w)).max())


def scale_to_spectral_radius(w: np.ndarray, rho_target: float) -> np.ndarray:
    """Rescale so the spectral radius equals ``rho_target``."""
    estimate = estimate_spectral_radius(w)
    if estimate == 0.0:
        raise ValueError("cannot rescale a matrix with zero spectral radius")
    return np.asarray(w, dtype=np.float64) * (rho_target / estimate)


def make_reservoir(size: int, input_dim: int, spectral_radius: float = 0.9,
                   connectivity: float = 0.1, seed: int = 0) -> Reservoir:
    """Draw a sparse random reservoir and rescale it to ``spectral_radius``.

    A draw whose spectral radius is 0 (a nilpotent or all-zero matrix) cannot
    be rescaled; that depends on the seed, so it raises ``RuntimeError``.
    """
    if not 0 < spectral_radius < 1:
        raise ValueError(f"spectral radius must be in (0, 1), got {spectral_radius}")
    if size < 1 or connectivity <= 0:
        raise ValueError(f"need size >= 1 and connectivity > 0, "
                         f"got size {size}, connectivity {connectivity}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(size, size))
    w *= rng.random((size, size)) < connectivity
    try:
        w_res = scale_to_spectral_radius(w, spectral_radius)
    except ValueError as err:
        raise RuntimeError(
            f"reservoir seed {seed} drew a {size}x{size} matrix at connectivity "
            f"{connectivity} with spectral radius 0; another seed is needed"
        ) from err
    w_in = rng.uniform(-1.0, 1.0, size=(size, input_dim))
    return Reservoir(w_res, w_in, spectral_radius, connectivity, seed)


def reservoir_step(r: Reservoir, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear recurrence z' = W_res z + W_in x, with no squashing function."""
    z = np.asarray(z, dtype=np.float64)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if z.shape != (r.size,):
        raise ValueError(f"state shape {z.shape} != ({r.size},)")
    if x.shape != (r.input_dim,):
        raise ValueError(f"input shape {x.shape} != ({r.input_dim},)")
    return r.w_res @ z + r.w_in @ x


def run_reservoir(r: Reservoir, inputs: np.ndarray) -> np.ndarray:
    """Roll the linear recurrence from z = 0 over a (T, input_dim) sequence;
    returns (T, size).

    The NK outputs' ``activation`` acts on the readout, never on the state.
    The input drive ``inputs @ W_in.T`` is computed once, into the returned
    array. Each step writes ``W_res z`` into one work vector through the
    bound ``W_res.dot`` (the matrix-vector product ``W_res @ z`` runs) and
    adds it to its row in place, so no step allocates a vector. At
    ``input_dim`` 1 the states equal a :func:`reservoir_step` loop bit for
    bit; at larger widths the drive's dot products may round differently in
    the last place.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if inputs.shape[1:] != (r.input_dim,):
        raise ValueError(f"input shape {inputs.shape[1:]} != ({r.input_dim},)")
    states = inputs @ r.w_in.T
    z = np.zeros(r.size)
    recurrent = np.empty(r.size)
    dot = r.w_res.dot
    for row in states:
        dot(z, recurrent)
        row += recurrent
        z = row
    return states


# ---------------------------------------------------------------------------
# Probe filter and NK landscape.

@dataclass
class ProbeFilter:
    w_pf: np.ndarray

    def __post_init__(self):
        self.w_pf = np.asarray(self.w_pf, dtype=np.float64)

    @property
    def size(self) -> int:
        return self.w_pf.shape[0]


def make_probe_filter(n_probe: int, reservoir_size: int, seed: int = 0) -> ProbeFilter:
    rng = np.random.default_rng(seed)
    return ProbeFilter(rng.uniform(-1.0, 1.0, size=(n_probe, reservoir_size)))


class Topology(str, Enum):
    ADJACENT = "adjacent"
    RANDOM = "random"


@dataclass
class NKLandscape:
    """Each output i reads the K probe neurons listed in neighborhoods[i]."""

    n: int
    k: int
    neighborhoods: np.ndarray
    topology: Topology

    def __post_init__(self):
        self.neighborhoods = np.asarray(self.neighborhoods, dtype=np.int64)
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= K <= N, got K={self.k}, N={self.n}")
        if self.neighborhoods.shape != (self.n, self.k):
            raise ValueError(
                f"neighborhood table shape {self.neighborhoods.shape} != ({self.n}, {self.k})"
            )
        for i, row in enumerate(self.neighborhoods):
            if len(set(row.tolist())) != self.k:
                raise ValueError(f"neighborhood {i} has repeated indices")
            if row.min() < 0 or row.max() >= self.n:
                raise ValueError(f"neighborhood {i} has out-of-range indices")
        if self.topology is Topology.ADJACENT:
            for i, row in enumerate(self.neighborhoods):
                expected = (i + np.arange(self.k)) % self.n
                if not np.array_equal(row, expected):
                    raise ValueError(
                        f"neighborhood {i} is not the adjacent window {expected}"
                    )


def make_landscape(n: int, k: int, topology: Topology = Topology.ADJACENT,
                   seed: int | None = None) -> NKLandscape:
    topology = Topology(topology)
    if topology is Topology.ADJACENT:
        rows = (np.arange(n)[:, None] + np.arange(k)[None, :]) % n
    else:
        rng = np.random.default_rng(seed)
        rows = np.stack([rng.choice(n, size=k, replace=False) for _ in range(n)])
    return NKLandscape(n, k, rows, topology)


@dataclass
class NkEsn:
    reservoir: Reservoir
    probe: ProbeFilter
    landscape: NKLandscape
    w_out: np.ndarray
    activation: str = "tanh"
    seed: int | None = None


def make_nkesn(n_outputs: int, k: int, reservoir_size: int, input_dim: int = 1,
               topology: Topology = Topology.ADJACENT,
               spectral_radius: float = 0.9, connectivity: float = 0.1,
               activation: str = "tanh", seed: int = 0) -> NkEsn:
    seeds = np.random.SeedSequence(seed).generate_state(4)
    reservoir = make_reservoir(reservoir_size, input_dim, spectral_radius,
                               connectivity, int(seeds[0]))
    probe = make_probe_filter(n_outputs, reservoir_size, int(seeds[1]))
    rng = np.random.default_rng(int(seeds[2]))
    w_out = rng.uniform(-1.0, 1.0, size=(n_outputs, n_outputs))
    landscape = make_landscape(n_outputs, k, topology, int(seeds[3]))
    return NkEsn(reservoir, probe, landscape, w_out, activation, seed)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _phi(values: np.ndarray, activation: str) -> np.ndarray:
    """Apply the output activation to ``values`` in place and return them."""
    if activation == "tanh":
        return np.tanh(values, out=values)
    if activation == "identity":
        return values
    raise ValueError(f"unknown activation {activation!r}")


def probe_signal_series(model: NkEsn, data: Dataset,
                        washout: int = DEFAULT_WASHOUT) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unmasked) probe outputs and targets after the washout prefix."""
    states = run_reservoir(model.reservoir, data.inputs)
    signals = states @ model.probe.w_pf.T
    targets = data.targets[:, 0]
    if washout >= len(signals):
        raise ValueError(f"washout {washout} consumes the whole series of {len(signals)}")
    return signals[washout:], targets[washout:]


def build_table(model: NkEsn, data: Dataset,
                washout: int = DEFAULT_WASHOUT) -> np.ndarray:
    """(2^K, N) table: entry [p, i] is output i's loss when its neighborhood
    bits are set to pattern p (bit j of p gates neighborhood member j).

    The N columns are split over one thread per CPU the process may run on
    (its affinity mask, which ``taskset`` restricts), at most
    ``TABLE_MAX_THREADS``. A column is computed by one thread with the same
    operations in the same order, so the table does not depend on the
    thread count. Each output walks the series in near-equal blocks of at
    most ``TABLE_BLOCK_ENTRIES >> K`` time steps, and at least 2, through
    its thread's (block + 1, 2^K) buffer: about 1 MiB per thread up to
    K = 16, whatever the series length, beside the thread's (2^K, K)
    patterns weighted by ``w_out`` and its (T, K) probe signals. Row 0 of
    the buffer carries the running sum of squared errors, so the sum over
    time is taken in sequential order, the order of a mean over the whole
    (T, 2^K) error array, and the table equals it bit for bit.
    """
    land = model.landscape
    if land.k > 20:
        raise ValueError(f"K={land.k} is beyond the practical 2^K table bound")
    signals, targets = probe_signal_series(model, data, washout)
    n_steps = len(targets)
    n_blocks = -(-n_steps // max(2, TABLE_BLOCK_ENTRIES >> land.k))
    # near-equal blocks: a one-row block would take numpy's matrix-vector path
    bounds = [n_steps * b // n_blocks for b in range(n_blocks + 1)]
    patterns = all_patterns(land.k)
    table = np.empty((1 << land.k, land.n))
    n_workers = min(_usable_cpus(), land.n, TABLE_MAX_THREADS)
    # every buffer is allocated here: each worker owns one slice of each
    bufs = np.empty((n_workers, -(-n_steps // n_blocks) + 1, 1 << land.k))
    weighted = np.empty((n_workers,) + patterns.shape)  # patterns x w_out
    probes = np.empty((n_workers, n_steps, land.k))

    def columns(w: int) -> None:
        # NumPy and _phi only: the columns of worker w, i = w, w + n_workers, ...
        buf = bufs[w]
        for i in range(w, land.n, n_workers):
            nb = land.neighborhoods[i]
            np.multiply(patterns, model.w_out[nb, i], out=weighted[w])
            # in range (NKLandscape checks it), so no clipping, and no buffer
            np.take(signals, nb, axis=1, out=probes[w], mode="clip")
            buf[0] = 0.0
            for lo, hi in zip(bounds, bounds[1:]):
                rows = buf[1:hi - lo + 1]
                np.matmul(probes[w, lo:hi], weighted[w].T, out=rows)
                _phi(rows, model.activation)
                np.subtract(rows, targets[lo:hi, None], out=rows)
                np.square(rows, out=rows)
                buf[0] = buf[:hi - lo + 1].sum(axis=0)
            np.divide(buf[0], n_steps, out=table[:, i])

    from concurrent.futures import ThreadPoolExecutor  # imported here: only NK runs load it
    with ThreadPoolExecutor(n_workers) as pool:
        list(pool.map(columns, range(n_workers)))  # re-raises a worker's exception
    return table


def pattern_of(bits, land: NKLandscape, output: int) -> int:
    """Pattern index of output ``output`` under a full N-bit assignment."""
    bits = np.asarray(bits)
    nb = land.neighborhoods[output]
    return int(np.dot(bits[nb], 1 << np.arange(land.k)))


def mean_loss_from_table(table: np.ndarray, land: NKLandscape, bits) -> float:
    """(1/N) sum_i table[pattern_i(bits), i]."""
    return float(np.mean([table[pattern_of(bits, land, i), i]
                          for i in range(land.n)]))


# ---------------------------------------------------------------------------
# Exact optimizers over the table.

def exhaustive_optimize(land: NKLandscape, table: np.ndarray) -> tuple[np.ndarray, float]:
    """Scan all 2^N assignments; the reference optimum for any topology."""
    if land.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"N={land.n} exceeds the exhaustive bound {EXHAUSTIVE_MAX_N}")
    assignments = all_patterns(land.n)
    powers = 1 << np.arange(land.k)
    total = np.zeros(len(assignments))
    for i in range(land.n):
        pattern_idx = assignments[:, land.neighborhoods[i]] @ powers
        total += table[pattern_idx, i]
    best = int(np.argmin(total))
    return index_to_bits(best, land.n).astype(np.uint8), float(total[best] / land.n)


def dp_optimize(land: NKLandscape, table: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer of the mean per-output loss for adjacent neighborhoods.

    Conditions on the first K-1 bits (the prefix), sweeps the ring
    propagating minimal partial sums over (K-1)-bit boundary states, then
    closes the ring with the wrap-around subfunctions. Cost O(2^(2K-2) * N)
    time. The sweep runs over all prefixes at once, as a (prefixes, states)
    array of at most ``DP_PREFIX_BLOCK`` rows (4 MiB per array at K = 12),
    and records no choices. Ties go to the first minimum in prefix order,
    then in final-state order. Only the winning prefix is swept again, to
    record its choices for the walk back.
    """
    if land.topology is not Topology.ADJACENT:
        raise ValueError("dynamic programming requires the adjacent topology")
    n, k = land.n, land.k
    if n > DP_MAX_N or k > DP_MAX_K:
        raise ValueError(f"N={n}, K={k} beyond the DP bounds ({DP_MAX_N}, {DP_MAX_K})")

    if k == 1:
        bits = np.argmin(table, axis=0).astype(np.uint8)
        return bits, float(np.mean(table[bits, np.arange(n)]))

    s_bits = k - 1
    n_state = 1 << s_bits
    states = np.arange(n_state)
    x_t = states >> (s_bits - 1)  # the bit appended when reaching each state
    pred_base = (states & ((1 << (s_bits - 1)) - 1)) << 1
    pattern0 = pred_base | (x_t << s_bits)      # predecessor with dropped bit 0
    pattern1 = (pred_base | 1) | (x_t << s_bits)

    def sweep(prefixes: np.ndarray, choices: np.ndarray | None = None) -> np.ndarray:
        """Ring totals, (prefixes, final states); the choices of row 0 if asked."""
        value = np.full((len(prefixes), n_state), np.inf)
        value[np.arange(len(prefixes)), prefixes] = 0.0
        for t in range(s_bits, n):
            out = t - s_bits  # the subfunction completed by choosing x_t
            cand0 = value[:, pred_base] + table[pattern0, out]
            cand1 = value[:, pred_base | 1] + table[pattern1, out]
            take1 = cand1 < cand0
            if choices is not None:
                choices[out] = take1[0]
            value = np.where(take1, cand1, cand0)

        closure = np.zeros(value.shape)
        for i in range(n - s_bits, n):
            from_state = np.zeros(n_state, dtype=np.int64)
            from_prefix = np.zeros(len(prefixes), dtype=np.int64)
            for j in range(k):
                idx = (i + j) % n
                if idx >= n - s_bits:
                    from_state |= ((states >> (idx - (n - s_bits))) & 1) << j
                else:
                    from_prefix |= ((prefixes >> idx) & 1) << j
            closure += table[from_prefix[:, None] | from_state, i]
        return value + closure

    best_value = np.inf
    best_prefix = best_final = None
    for lo in range(0, n_state, DP_PREFIX_BLOCK):
        prefixes = np.arange(lo, min(lo + DP_PREFIX_BLOCK, n_state))
        total = sweep(prefixes)
        finals = np.argmin(total, axis=1)
        row_best = total[np.arange(len(prefixes)), finals]
        # the first row beating every earlier one, as a strict-< scan would find
        p = int(np.argmin(np.where(row_best < best_value, row_best, np.inf)))
        if row_best[p] < best_value:
            best_value = float(row_best[p])
            best_prefix, best_final = int(prefixes[p]), int(finals[p])
    if best_prefix is None:
        return None, best_value / n

    choices = np.empty((n - s_bits, n_state), dtype=np.uint8)
    sweep(np.array([best_prefix]), choices)
    # walk the choices backwards to recover x_{N-1} .. x_{S}
    bits = np.empty(n, dtype=np.uint8)
    bits[:s_bits] = index_to_bits(best_prefix, s_bits)
    state = best_final
    for t in range(n - 1, s_bits - 1, -1):
        bits[t] = state >> (s_bits - 1)
        dropped = int(choices[t - s_bits, state])
        state = ((state & ((1 << (s_bits - 1)) - 1)) << 1) | dropped
    return bits, best_value / n


# ---------------------------------------------------------------------------
# Per-output amplitude amplification over K-bit patterns.

def select_per_output(table: np.ndarray, land: NKLandscape,
                      seed: int = 0) -> tuple[list[np.ndarray], list[search.Selection]]:
    """Run the K-qubit Grover search on every output column, 1e-12 above its minimum."""
    run_seeds = np.random.SeedSequence(seed).generate_state(land.n)
    selections = [
        search.select("grover", DiagonalCostHamiltonian(land.k, table[:, i]),
                      float(table[:, i].min()) + 1e-12,
                      {"max_restarts": search.LOCAL_MAX_RESTARTS}, int(run_seeds[i]))
        for i in range(land.n)]
    return [s.bits for s in selections], selections


@dataclass
class CombineResult:
    bits: np.ndarray
    conflicts: list[dict]
    mean_loss: float | None = None
    dp_loss: float | None = None
    dp_gap: float | None = None


def combine_per_output(patterns, land: NKLandscape,
                       table: np.ndarray | None = None) -> CombineResult:
    """Stitch per-output patterns into one probe mask by majority vote.

    Overlapping neighborhoods can disagree; every contested bit lands in
    the conflict report (ties resolve to 1). With a table, the stitched
    mask's mean loss is evaluated, and on adjacent topologies the gap to
    the dynamic-programming optimum is reported alongside.
    """
    votes_one = np.zeros(land.n, dtype=np.int64)
    votes_zero = np.zeros(land.n, dtype=np.int64)
    for i, pattern in enumerate(patterns):
        pattern = np.asarray(pattern)
        for j, member in enumerate(land.neighborhoods[i]):
            if pattern[j]:
                votes_one[member] += 1
            else:
                votes_zero[member] += 1
    bits = (votes_one >= votes_zero).astype(np.uint8)
    conflicts = [
        {"bit": int(b), "votes_one": int(votes_one[b]), "votes_zero": int(votes_zero[b])}
        for b in range(land.n)
        if votes_one[b] > 0 and votes_zero[b] > 0
    ]
    result = CombineResult(bits, conflicts)
    if table is not None:
        result.mean_loss = mean_loss_from_table(table, land, bits)
        if land.topology is Topology.ADJACENT:
            _, result.dp_loss = dp_optimize(land, table)
            result.dp_gap = result.mean_loss - result.dp_loss
    return result
