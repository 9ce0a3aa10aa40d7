"""Cost Hamiltonians over mask bitstrings, and the default loss threshold.

The bridge between subnetwork quality and the quantum modules: full
enumeration of a network's mask space yields the diagonal cost Hamiltonian
whose table every search reads (Grover marks the entries below epsilon;
annealing and the variational loops act on the Hamiltonian). The table comes
from :func:`qns.masknet.enumerate_losses`, the layer-prefix kernel, which
computes each layer once per pattern of the bits before it and equals the
pattern-by-pattern losses bit for bit.
"""
from __future__ import annotations

import numpy as np

from . import masknet
from .qsim import DiagonalCostHamiltonian, max_qubits


class CostOracle:
    """The enumeration of one network's cost table, bounded by the qubit ceiling.

    :func:`build_cost_hamiltonian` is its only user. The class remains
    because three benchmark workloads require the span
    ``CostOracle.enumerate_costs``, whose counter reads the instance
    (``self``) it is called on; once the span moves into
    :func:`build_cost_hamiltonian`, the class can go.
    """

    def __init__(self, net: masknet.MaskedNetwork, data: masknet.Dataset):
        self.net = net
        self.data = data

    def enumerate_costs(self) -> np.ndarray:
        """Dataset loss of every mask 0..2^n-1, bit j of the index being bit j of the mask."""
        n_bits = self.net.total_maskable()
        if n_bits > max_qubits():
            raise ValueError(f"{n_bits} bits is too large to enumerate "
                             f"(limit {max_qubits()})")
        return masknet.enumerate_losses(self.net, self.data)


def build_cost_hamiltonian(net: masknet.MaskedNetwork,
                           data: masknet.Dataset) -> DiagonalCostHamiltonian:
    """costs[x] = dataset loss of the network masked with bitstring x."""
    return DiagonalCostHamiltonian(net.total_maskable(),
                                   CostOracle(net, data).enumerate_costs())


def count_solutions(h: DiagonalCostHamiltonian, epsilon: float) -> int:
    """Number of basis states with cost strictly below epsilon."""
    return int(np.count_nonzero(h.costs < epsilon))


def _median(values) -> np.float64:
    """``np.median(values)`` of a float64 array, bit for bit, signed zeros
    and NaNs included, without the ``numpy.ma`` import of numpy's NaN check:
    the same partition, the same mean of the middle entries, and the last
    partitioned entry when it is NaN."""
    n = np.size(values)
    half = n // 2
    kth = [half, -1] if n % 2 else [half - 1, half, -1]
    part = np.partition(values, kth, axis=None)
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[half - 1 + n % 2:half + 1], axis=0)


def default_epsilon(losses_of, n_bits: int, seed, n_probe: int = 64,
                    scale: float = 0.5) -> float:
    """Half the median loss of ``n_probe`` random masks: a task-adaptive threshold.

    ``losses_of`` maps an (n_probe, n_bits) 0/1 row matrix to one loss per
    row: a lookup in the run's cost table when it has one, else forward
    passes. The two agree bit for bit, so either gives the same epsilon.
    The median is :func:`_median`, which equals ``np.median`` bit for bit.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(n_probe, n_bits)).astype(np.uint8)
    return float(_median(losses_of(rows)) * scale)
