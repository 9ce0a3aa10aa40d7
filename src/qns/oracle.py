"""Threshold predicates and cost Hamiltonians over mask bitstrings.

The bridge between subnetwork quality and the quantum modules: a
:class:`SubnetworkOracle` answers "does this mask beat the loss threshold?"
(the verification predicate), and full enumeration of a bitstring space
yields the diagonal cost Hamiltonian that annealing and the variational
loops act on.

An oracle is its cost table: every price it gives is an entry of the table,
enumerated once on first use, so an oracle is bounded by the qubit ceiling.
A subnetwork's table comes from :func:`qns.masknet.enumerate_losses`, the
layer-prefix kernel, which computes each layer once per pattern of the bits
before it and equals the pattern-by-pattern losses bit for bit.
"""
from __future__ import annotations

import functools

import numpy as np

from . import masknet
from .bitstrings import bits_to_index
from .qsim import DiagonalCostHamiltonian, max_qubits


class CostOracle:
    """Predicate `cost(bits) < epsilon` over n-bit patterns, with call accounting.

    ``table`` takes no arguments and returns the cost of every pattern
    0..2^n-1, bit j of the index being bit j of the pattern; :meth:`cost`
    reads that table. ``call_counter`` counts predicate-level queries only:
    one per :meth:`is_good` call and one per oracle application charged by a
    search (see :mod:`qns.grover`). ``cost`` itself is free so that searches
    can compile the phase oracle without distorting the accounting.
    """

    def __init__(self, table, n_bits: int, epsilon: float):
        self._table = table
        self.n_bits = n_bits
        self.epsilon = epsilon
        self.call_counter = 0
        self._enumerated: np.ndarray | None = None

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @epsilon.setter
    def epsilon(self, value: float) -> None:
        # epsilon 0 is allowed as a degenerate probe: no mask has loss < 0.
        if not value >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {value}")
        self._epsilon = float(value)

    def cost(self, bits) -> float:
        bits = np.asarray(bits)
        if bits.size != self.n_bits:
            raise ValueError(f"pattern has {bits.size} bits, oracle expects {self.n_bits}")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("pattern bits must be 0 or 1")
        return float(self.enumerate_costs()[bits_to_index(bits.ravel())])

    def is_good(self, bits) -> bool:
        self.call_counter += 1
        return self.cost(bits) < self.epsilon

    def enumerate_costs(self) -> np.ndarray:
        """Cost of every pattern 0..2^n-1 (cached; does not touch the counter)."""
        if self._enumerated is None:
            if self.n_bits > max_qubits():
                raise ValueError(
                    f"{self.n_bits} bits is too large to enumerate "
                    f"(limit {max_qubits()})"
                )
            costs = np.asarray(self._table(), dtype=np.float64)
            if costs.shape != (1 << self.n_bits,):
                raise ValueError(f"cost table has shape {costs.shape}, "
                                 f"{self.n_bits} bits need {1 << self.n_bits} entries")
            self._enumerated = costs
        return self._enumerated

    def marked_table(self) -> np.ndarray:
        return self.enumerate_costs() < self.epsilon


class SubnetworkOracle(CostOracle):
    """Accepts a flat mask iff the masked network's dataset loss is below epsilon."""

    def __init__(self, net: masknet.MaskedNetwork, data: masknet.Dataset,
                 epsilon: float):
        super().__init__(functools.partial(masknet.enumerate_losses, net, data),
                         net.total_maskable(), epsilon)


def build_cost_hamiltonian(net: masknet.MaskedNetwork,
                           data: masknet.Dataset) -> DiagonalCostHamiltonian:
    """costs[x] = dataset loss of the network masked with bitstring x."""
    # epsilon is irrelevant for enumeration; any positive value works.
    costs = SubnetworkOracle(net, data, epsilon=1.0).enumerate_costs()
    return DiagonalCostHamiltonian(net.total_maskable(), costs)


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
