"""Train the fusion block with the margin contrastive loss.

Builds same-class / different-class clip pairs from a synthetic scene,
verifies one analytic gradient numerically, trains for a few hundred
steps, and reports the loss drop. Run with `python3 demos/04_training.py`.
"""

import numpy as np

from trajkit import (
    SynthConfig,
    TrainConfig,
    gen_scene,
    init_fusion_weights,
    loss_and_gradients,
    make_train_pairs,
    numeric_gradient,
    train_fusion,
)
from trajkit.train import pair_loss

d = 16
scene = gen_scene(SynthConfig(n_identities=8, n_frames=40, n_categories=2,
                              embed_dim=d, noise_sigma=0.05,
                              class_spread=0.1, seed=1))
pairs = make_train_pairs(scene, n_clip=5, seed=1, n_pairs=64)
pos = sum(p.label for p in pairs)
print(f"{len(pairs)} training pairs ({pos} same-class, {len(pairs) - pos} different-class)")

weights = init_fusion_weights(d, seed=1)
cfg = TrainConfig(steps=500, learning_rate=0.05, batch_size=8, seed=1)

# Spot-check one analytic gradient against central differences before
# trusting the optimizer with it (on a non-degenerate init: the default
# zeroed residual projections would zero this gradient exactly).
w_check = init_fusion_weights(d, seed=1, zero_residual=False)
_, grads = loss_and_gradients([pairs[0]], w_check, cfg)
w1 = w_check["mlp.w1"]
num = numeric_gradient(lambda _t: loss_and_gradients([pairs[0]], w_check, cfg)[0],
                       w1, eps=1e-5)
gap = np.abs(num - grads["mlp.w1"]).max()
print(f"mlp.w1 gradient check: max |analytic - numeric| = {gap:.2e}")

before = float(np.mean([pair_loss(p, weights, cfg) for p in pairs]))
trained, curve = train_fusion(pairs, weights, cfg)
after = float(np.mean([pair_loss(p, trained, cfg) for p in pairs]))

print(f"\nmean pair loss: {before:.4f} -> {after:.4f} "
      f"({100.0 * (1.0 - after / before):.0f}% lower)")
print("loss curve samples:",
      "  ".join(f"step {s}: {curve[s]:.4f}" for s in (0, 100, 250, 499)))
