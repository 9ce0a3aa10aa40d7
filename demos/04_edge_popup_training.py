#!/usr/bin/env python3
"""Training rotation angles instead of weights.

Each weight owns one qubit prepared as H then Ry(theta); measuring samples
a mask. A straight-through gradient rule nudges every theta after each
sample, and the deterministic threshold mask is evaluated once per epoch.
The weights themselves never change.
"""
import numpy as np

from qns import edgepopup, masknet

ss = np.random.SeedSequence(7).generate_state(3)
net = masknet.init_network([(2, 8, "relu"), (8, 1, "identity")], int(ss[0]))
rng = np.random.default_rng(int(ss[1]))
bits = (rng.random(net.total_maskable()) < 0.25).astype(np.uint8)
data = masknet.make_planted_dataset(net, bits, 24, int(ss[2]), input_range=1.5)

print(f"network: 2 -> 8 -> 1, {net.total_maskable()} maskable weights")
print(f"hidden mask density: {bits.mean():.2f}")
print(f"all-ones mask loss: {masknet.dataset_loss(net, data):.4f}")

cfg = edgepopup.PopupTrainConfig(alpha=0.1, epochs=40, seed=7)
result = edgepopup.popup_train(net, data, cfg)

print("\nepoch  threshold-mask loss")
for epoch in (1, 5, 10, 20, 40):
    print(f"{epoch:5d}  {result.loss_curve[epoch - 1]:.4f}")

kept = sum(int(m.sum()) for m in result.final_masks)
total = net.total_maskable()
print(f"\nfinal mask keeps {kept}/{total} weights")
probs = [edgepopup.prob_one(t) for t in result.thetas]
print(f"keep-probabilities span [{min(p.min() for p in probs):.3f}, "
      f"{max(p.max() for p in probs):.3f}]")

ratio = result.loss_curve[-1] / result.loss_curve[0]
print(f"final/epoch-1 loss ratio: {ratio:.3f}")
