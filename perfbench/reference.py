"""Independent correctness checks for benchmark ops.

Loss tables are computed here with a plain numpy forward pass over every
mask at once; nothing in this file calls ``qns.masknet`` or ``qns.oracle``.
Tasks are rebuilt from the op's config with the harness task builders (or,
for distillation, from the teacher file and the student seed), so the
weights and data are the program's own inputs, while every loss is ours.

Each check returns a list of problem strings; an empty list means the op's
reported metrics agree with the reference.
"""
from __future__ import annotations

import json
import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
# default_epsilon: half the median loss of 64 random masks drawn from the run seed
EPSILON_PROBES = 64
EPSILON_SCALE = 0.5
CHUNK = 4096
# planted tasks up to this many bits get a full loss table; larger ones
# (edge-popup nets) only have their probe masks evaluated
TABLE_MAX_BITS = 16


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def masked_losses(layers, xs: np.ndarray, ys: np.ndarray, bits: np.ndarray,
                  pool_to: int | None = None) -> np.ndarray:
    """Mean L2 loss of each bit row's masked network over the dataset.

    ``layers`` is a list of (weights, bias, relu) triples; bit j gates weight
    j in layer-by-layer, row-major order. ``pool_to`` average-pools the
    output to that width before the loss, as distillation compares it.
    """
    out = np.empty(len(bits))
    for lo in range(0, len(bits), CHUNK):
        rows = bits[lo:lo + CHUNK].astype(np.float64)
        z = np.broadcast_to(xs, (len(rows), *xs.shape))
        offset = 0
        for w, b, relu in layers:
            m = rows[:, offset:offset + w.size].reshape(len(rows), *w.shape)
            offset += w.size
            z = np.matmul(z, m * w) + b
            if relu:
                z = np.maximum(z, 0.0)
        if pool_to is not None:
            z = z.reshape(*z.shape[:2], pool_to, -1).mean(axis=3)
        out[lo:lo + CHUNK] = np.linalg.norm(z - ys, axis=2).mean(axis=1)
    return out


def all_bits(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _net_layers(net) -> list:
    return [(np.asarray(w), np.asarray(b), spec.activation.value == "relu")
            for w, b, spec in zip(net.weights, net.biases, net.specs)]


def _probe_epsilon(loss_of_bits, n_bits: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    probes = np.stack([rng.integers(0, 2, size=n_bits).astype(np.uint8)
                       for _ in range(EPSILON_PROBES)])
    return float(np.median(loss_of_bits(probes)) * EPSILON_SCALE)


def _index(bits: np.ndarray) -> np.ndarray:
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[1], dtype=np.int64))


class PlantedReference:
    """Full 2^n loss table of one planted task, or just probe losses for big nets."""

    def __init__(self, net, data):
        self.layers = _net_layers(net)
        self.xs = np.asarray(data.inputs)
        self.ys = np.asarray(data.targets)
        self.n_bits = sum(w.size for w, _, _ in self.layers)
        self.table = None
        if self.n_bits <= TABLE_MAX_BITS:
            self.table = masked_losses(self.layers, self.xs, self.ys,
                                       all_bits(self.n_bits))

    def losses(self, bits: np.ndarray) -> np.ndarray:
        if self.table is not None:
            return self.table[_index(bits)]
        return masked_losses(self.layers, self.xs, self.ys, bits)

    def epsilon(self, seed: int) -> float:
        return _probe_epsilon(self.losses, self.n_bits, seed)


def check_planted(method: str, ref: PlantedReference, seed: int, m: dict) -> list[str]:
    problems = []
    eps = ref.epsilon(seed)
    if not _close(m["epsilon"], eps):
        problems.append(f"epsilon {m['epsilon']!r} != reference {eps!r}")
    loss = m["loss"]
    if not (math.isfinite(loss) and loss >= 0):
        return problems + [f"loss {loss!r} is not a finite nonnegative number"]
    if bool(m["success"]) != (loss < m["epsilon"]):
        problems.append(f"success {m['success']} disagrees with loss {loss!r} < "
                        f"epsilon {m['epsilon']!r}")
    if method == "edge_popup":
        if not m["loss_curve"] or m["loss_curve"][-1] != loss:
            problems.append("loss is not the last loss-curve entry")
        return problems

    table = ref.table
    tmin = float(table.min())
    floor = tmin - ATOL - RTOL * abs(tmin)
    hex_key = "best_bits_hex" if method == "exhaustive" else "bits_hex"
    at_bits = float(table[int(m[hex_key], 16)])
    if not _close(loss, at_bits):
        problems.append(f"loss {loss!r} != reference entry {at_bits!r} at bits "
                        f"{m[hex_key]}")
    if method == "exhaustive":
        if not _close(loss, tmin):
            problems.append(f"loss {loss!r} != reference minimum {tmin!r}")
        below = int(np.count_nonzero(table < m["epsilon"]))
        near = int(np.count_nonzero(
            np.abs(table - m["epsilon"]) <= ATOL + RTOL * abs(m["epsilon"])))
        if abs(m["k_solutions"] - below) > near:
            problems.append(f"k_solutions {m['k_solutions']} != reference {below}")
    for key in ("best_expectation", "final_expectation"):
        if key in m and m[key] < floor:
            problems.append(f"{key} {m[key]!r} below the reference minimum {tmin!r}")
    return problems


def check_distill(teacher_path: str, task: dict, block, backend: str,
                  m: dict) -> list[str]:
    """Reference table of the single student block of a one-layer teacher.

    ``block`` is the student block ``qns.distill.make_student`` built for the
    run seed; the teacher data and every block loss are computed here.
    """
    doc = json.loads(open(teacher_path).read())
    if len(doc["specs"]) != 1 or doc["specs"][0]["activation"] != "identity":
        return ["reference handles one-layer identity teachers only"]
    w_t = np.asarray(doc["weights"][0], dtype=np.float64)
    b_t = np.asarray(doc["biases"][0], dtype=np.float64)
    data_seed = int(np.random.SeedSequence(task.get("seed", 0)).generate_state(1)[0])
    xs = np.random.default_rng(data_seed).uniform(
        -1, 1, size=(task.get("n_samples", 32), w_t.shape[0]))
    ys = xs @ w_t + b_t
    layers = _net_layers(block)
    n_bits = sum(w.size for w, _, _ in layers)
    table = masked_losses(layers, xs, ys, all_bits(n_bits), pool_to=ys.shape[1])
    tmin = float(table.min())

    problems = []
    (loss,), (gap,) = m["block_losses"], m["block_gaps"]
    if gap < -ATOL:
        problems.append(f"negative gap {gap!r}")
    if not _close(loss - gap, tmin):
        problems.append(f"loss - gap {loss - gap!r} != reference minimum {tmin!r}")
    if not _close(m["loss"], loss):
        problems.append("total loss != sum of block losses")
    if backend == "exhaustive" and not _close(loss, tmin):
        problems.append(f"exhaustive block loss {loss!r} != reference minimum {tmin!r}")
    if backend == "grover" and not loss < m["block_epsilons"][0]:
        problems.append(f"grover block loss {loss!r} not below its epsilon")
    return problems


def check_nkesn(m: dict) -> list[str]:
    problems = []
    if not (math.isfinite(m["loss"]) and m["loss"] >= 0):
        problems.append(f"loss {m['loss']!r} is not a finite nonnegative number")
    if "dp_gap" in m:
        if m["dp_gap"] < -ATOL:
            problems.append(f"negative dp_gap {m['dp_gap']!r}")
        if not _close(m["loss"] - m["dp_gap"], m["dp_loss"]):
            problems.append("loss - dp_gap != dp_loss")
    return problems
