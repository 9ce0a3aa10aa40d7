#!/usr/bin/env python3
"""Layerwise mask selection against a trained teacher.

A random student twice as deep as the teacher is optimized two layers at a
time: each block's mask is chosen to reproduce the teacher's recorded
activations, the block output is pooled down to the teacher width, and the
result feeds the next block. Each block's search is one call of
``qns.search.select`` on the block's cost table, the search ``qns run``
uses for a whole network: ``grover`` with 8 restarts under a threshold of
1.1 times the best of 16 random masks, and ``qaoa`` and ``anneal`` with the
``qns run`` defaults (p = 2 with a budget of 300; T = 50 over 400 steps),
each measuring its final state once. Every backend reports its gap to the
exhaustive block optimum; a measured mask can sit above it.
"""
import numpy as np

from qns import distill, masknet

teacher = masknet.init_network([(2, 2, "relu"), (2, 1, "identity")], seed=4)
rng = np.random.default_rng(0)
xs = rng.uniform(-1, 1, (24, 2))
data = masknet.Dataset(xs, masknet.forward_batch(teacher, xs))

pair = distill.make_student(teacher, width_factor=1, seed=1)
print(f"teacher depth {teacher.depth}, student depth {pair.student_depth}")
print(f"block sizes (maskable bits): "
      f"{[b.total_maskable() for b in pair.blocks]}")

for backend in (distill.Backend.EXHAUSTIVE, distill.Backend.GROVER,
                distill.Backend.QAOA, distill.Backend.ANNEAL):
    reports = distill.distill_select(pair, data, backend=backend,
                                     per_block_bit_budget=12, seed=9)
    losses = ", ".join(f"{r.loss:.4f}" for r in reports)
    gaps = ", ".join(f"{r.gap:.4f}" for r in reports)
    calls = sum(r.oracle_calls for r in reports)
    extra = f", oracle calls {calls}" if calls else ""
    print(f"{backend.value:>10}: block losses [{losses}], "
          f"gaps to optimum [{gaps}]{extra}")

reports = distill.distill_select(pair, data, backend=distill.Backend.EXHAUSTIVE,
                                 per_block_bit_budget=12)
print(f"\nselected masks: "
      f"{[''.join(map(str, r.bits)) for r in reports]}")
