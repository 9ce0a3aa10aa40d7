#!/usr/bin/env python3
"""Probe-filter selection in an echo state network with K-bounded outputs.

Each of N ensemble outputs reads exactly K probe neurons, so its loss over
a time series depends on only K mask bits. The full 2^N search collapses
into a 2^K x N lookup table: dynamic programming solves the ring exactly,
and an independent K-qubit search per output gets stitched back together
by majority vote, with the quality gap measured rather than assumed.
"""
from qns import harness, nkesn

data = harness.make_sequence_task(200, seed=3)
model = nkesn.make_nkesn(n_outputs=10, k=3, reservoir_size=50, seed=5)
print(f"reservoir: {model.reservoir.size} neurons, target spectral radius "
      f"{model.reservoir.spectral_radius}")
print(f"measured radius: "
      f"{nkesn.estimate_spectral_radius(model.reservoir.w_res):.8f}")
print(f"probe filter: N={model.landscape.n} neurons, K={model.landscape.k} "
      f"per output ({model.landscape.topology.value} topology)")

table = nkesn.build_table(model, data)
print(f"\nlookup table: {table.shape[0]} patterns x {table.shape[1]} outputs "
      f"(2^K N = {table.size} entries vs 2^N = {2 ** model.landscape.n})")

bits_dp, loss_dp = nkesn.dp_optimize(model.landscape, table)
print(f"dynamic programming optimum: mask {''.join(map(str, bits_dp))} "
      f"mean loss {loss_dp:.5f}")

bits_ex, loss_ex = nkesn.exhaustive_optimize(model.landscape, table)
print(f"exhaustive 2^N scan agrees:  mask {''.join(map(str, bits_ex))} "
      f"mean loss {loss_ex:.5f}")

results = nkesn.select_per_output(table, model.landscape, seed=11)
calls = sum(r.oracle_calls for r in results)
print(f"\nper-output K-qubit search: {calls} oracle calls total "
      f"(table scan costs {table.size})")

bits, conflicts = nkesn.combine_per_output([r.bits for r in results], model.landscape)
loss = nkesn.mean_loss_from_table(table, model.landscape, bits)
print(f"majority-vote stitch: mask {''.join(map(str, bits))} "
      f"mean loss {loss:.5f}")
print(f"conflicting bits: {[c['bit'] for c in conflicts]}")
print(f"gap to the dynamic-programming optimum: {loss - loss_dp:.5f}")
