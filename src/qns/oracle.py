"""Threshold predicates and cost Hamiltonians over mask bitstrings.

The bridge between subnetwork quality and the quantum modules: a
:class:`SubnetworkOracle` answers "does this mask beat the loss threshold?"
(the verification predicate), and full enumeration of a bitstring space
yields the diagonal cost Hamiltonian that annealing and the variational
loops act on.
"""
from __future__ import annotations

import functools

import numpy as np

from . import masknet
from .qsim import DiagonalCostHamiltonian, max_qubits

ENUMERATION_CHUNK = 1024  # rows per batched call: bounds the memory of a step


class CostOracle:
    """Predicate `cost(bits) < epsilon` over n-bit patterns, with call accounting.

    ``costs_of`` maps an (M, n) 0/1 row matrix to M costs; :meth:`cost` is
    its one-row case. ``call_counter`` counts predicate-level queries only:
    one per :meth:`is_good` call and one per oracle application charged by a
    search (see :mod:`qns.grover`). ``cost`` itself is free so that searches
    can compile the phase oracle without distorting the accounting.
    """

    def __init__(self, costs_of, n_bits: int, epsilon: float):
        self._costs_of = costs_of
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
        return float(self._costs_of(bits.reshape(1, -1).astype(np.uint8))[0])

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
            dim = 1 << self.n_bits
            costs = np.empty(dim)
            for start in range(0, dim, ENUMERATION_CHUNK):
                index = np.arange(start, min(start + ENUMERATION_CHUNK, dim))
                costs[index] = self._costs_of((index[:, None] >> np.arange(self.n_bits)) & 1)
            self._enumerated = costs
        return self._enumerated

    def marked_table(self) -> np.ndarray:
        return self.enumerate_costs() < self.epsilon


class SubnetworkOracle(CostOracle):
    """Accepts a flat mask iff the masked network's dataset loss is below epsilon."""

    def __init__(self, net: masknet.MaskedNetwork, data: masknet.Dataset,
                 epsilon: float):
        super().__init__(functools.partial(masknet.batch_losses, net, data),
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


def default_epsilon(net: masknet.MaskedNetwork, data: masknet.Dataset, seed,
                    n_probe: int = 64, scale: float = 0.5) -> float:
    """Half the median loss of ``n_probe`` random masks: a task-adaptive threshold."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(n_probe, net.total_maskable())).astype(np.uint8)
    return float(np.median(masknet.batch_losses(net, data, rows)) * scale)
