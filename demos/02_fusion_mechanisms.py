"""Compare the five clip-fusion mechanisms on the same feature clip.

Shows the fused outputs, which mechanisms are order sensitive, and how a
freshly initialized residual block starts out as plain averaging. Run with
`python3 demos/02_fusion_mechanisms.py`.
"""

import numpy as np

from trajkit import (
    concat_score,
    fuse_attention,
    fuse_average,
    fuse_cross,
    fuse_self,
    init_fusion_weights,
)

rng = np.random.default_rng(0)
d = 8
clip = rng.normal(size=(5, d))  # five sampled observations of one track
lang = rng.normal(size=(3, d))  # three language rows for concat scoring

# zero_residual=True zeroes the output projections, so the residual block
# passes inputs straight through at step 0.
w0 = init_fusion_weights(d, seed=3)
w = init_fusion_weights(d, seed=3, zero_residual=False)

print("fused vectors (first four components):")
for name, fn in [("average", fuse_average),
                 ("attention", lambda c: fuse_attention(c, w)),
                 ("self", lambda c: fuse_self(c, w)),
                 ("cross", lambda c: fuse_cross(c, w))]:
    out = fn(clip)
    print(f"  {name:<9} {np.array2string(out[:4], precision=3)}")
# concat scores the clip against every language row in one batched pass;
# a single row gives the same score as its entry in the batch.
scores = concat_score(clip, lang, w)
print(f"  concat    scores vs 3 language rows: {np.array2string(scores, precision=4)}")
print(f"  concat    row 0 alone: {concat_score(clip, lang[0], w):.4f}")

# At zeroed residual projections, the self mechanism IS averaging.
gap = np.abs(fuse_self(clip, w0) - fuse_average(clip)).max()
print(f"\nfuse_self(w0) vs fuse_average, zeroed residuals: max gap {gap:.1e}")

# Average, attention and self fusion ignore clip order; cross fusion folds
# rows sequentially from the first one, so order changes the answer.
perm = rng.permutation(len(clip))
for name, fn in [("average", fuse_average),
                 ("attention", lambda c: fuse_attention(c, w)),
                 ("self", lambda c: fuse_self(c, w)),
                 ("cross", lambda c: fuse_cross(c, w))]:
    gap = np.abs(fn(clip) - fn(clip[perm])).max()
    tag = "invariant" if gap < 1e-9 else "order sensitive"
    print(f"  {name:<9} permutation gap {gap:.2e}  ({tag})")
