#!/usr/bin/env python3
"""Hybrid loops over the same cost operator: QAOA blocks and a VQE ansatz.

A classical simplex optimizer drives block angles (QAOA) or per-qubit
rotations (VQE) against the exact expectation of the enumerated cost
Hamiltonian. Every reported value respects the variational bound.
"""
import numpy as np

from qns import masknet, oracle, variational
from qns.qsim import DiagonalCostHamiltonian, midpoint_ramp

net_seed, mask_seed, data_seed = np.random.SeedSequence(38).generate_state(3)
net = masknet.init_network([(2, 2, "relu"), (2, 1, "identity")], int(net_seed))
rng = np.random.default_rng(int(mask_seed))
hidden = rng.integers(0, 2, net.total_maskable())
data = masknet.make_planted_dataset(net, hidden, n_samples=16, seed=int(data_seed))

h_raw = oracle.build_cost_hamiltonian(net, data)
scale = h_raw.n_qubits / (h_raw.costs.max() - h_raw.costs.min())
h = DiagonalCostHamiltonian(h_raw.n_qubits, h_raw.costs * scale)
print(f"cost range after normalization: [{h.costs.min():.3f}, "
      f"{h.costs.max():.3f}], mean {h.costs.mean():.3f}")

print("\nQAOA with an evaluation budget proportional to the parameter count")
for p in (1, 2, 3):
    result = variational.qaoa_optimize(h, p=p, budget=300 * p, seed=2)
    assert result.best_value >= h.costs.min() - 1e-9  # variational bound
    print(f"  p={p}: F_p = {result.best_value:.4f} "
          f"({len(result.trace)} evaluations)")

print("\nVQE: Ry layers + ring CZ entanglers")
for layers in (1, 2):
    thetas = variational.make_ansatz(h.n_qubits, layers, seed=5)
    result = variational.vqe_run(h, thetas, budget=500, seed=5)
    gap = result.best_value - h.costs.min()
    print(f"  L={layers}: <H> = {result.best_value:.4f} "
          f"(gap to optimum {gap:.4f})")

# A linear-ramp schedule with many shallow blocks mimics slow annealing.
state = variational.qaoa_state(h, *midpoint_ramp(30.0, 64))
best = int(np.argmin(h.costs))
print(f"\nlinear ramp, p=64, T=30: P(optimal mask) = "
      f"{state.probabilities()[best]:.4f}")
