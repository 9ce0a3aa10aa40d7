#!/usr/bin/env python3
"""Amplitude-amplified subnetwork search on a planted task.

Builds a tiny fixed-random network whose targets are generated by a hidden
mask, enumerates its cost table, searches the table for a mask whose loss
beats the threshold (each measured mask is verified against the table), and
compares the search's oracle-call count against the exhaustive scan.
"""
import numpy as np

from qns import masknet, oracle
from qns.grover import GroverConfig, grover_search, optimal_iterations, search_unknown_k

# A 6-parameter network: 2 -> 2 ReLU, 2 -> 1 identity. Its 2^6 = 64 masks
# form the search space. Task seed 30 plants a unique zero-loss mask.
net_seed, mask_seed, data_seed = np.random.SeedSequence(30).generate_state(3)
net = masknet.init_network([(2, 2, "relu"), (2, 1, "identity")], int(net_seed))
rng = np.random.default_rng(int(mask_seed))
hidden = rng.integers(0, 2, net.total_maskable())
data = masknet.make_planted_dataset(net, hidden, n_samples=16, seed=int(data_seed))
print(f"search space: 2^{net.total_maskable()} = {2 ** net.total_maskable()} masks")
print(f"hidden mask: {hidden} (loss 0 by construction)")

# A search accepts any mask whose dataset loss beats the threshold.
epsilon = 1e-9
h = oracle.build_cost_hamiltonian(net, data)
k = oracle.count_solutions(h, epsilon)
print(f"solutions below epsilon: k = {k}")
print(f"optimal iterations for N=64, k={k}: {optimal_iterations(64, k)}")

result = grover_search(h.costs, epsilon, GroverConfig(seed=3))
print(f"\nknown-k search: found {result.bits} verified={result.measured_good} "
      f"oracle_calls={result.oracle_calls}")

result = search_unknown_k(h.costs, epsilon, seed=3)
print(f"unknown-k schedule: found {result.bits} after {result.restarts} rounds, "
      f"oracle_calls={result.oracle_calls}")
print(f"exhaustive scan would cost {h.dim} evaluations")

# Success probability over many seeded runs approaches the closed form.
from qns.grover import success_probability

hits = sum(grover_search(h.costs, epsilon, GroverConfig(max_restarts=1, seed=s)).measured_good
           for s in range(200))
t = optimal_iterations(64, k)
print(f"\nsingle-shot success over 200 seeds: {hits / 200:.3f} "
      f"(closed form sin^2((2t+1) asin(sqrt(k/N))) = "
      f"{success_probability(64, k, t):.3f})")
