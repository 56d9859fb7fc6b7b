"""Clip fusion: numpy transformer primitives and the five fusion mechanisms.

A clip is an (n, d) matrix whose rows are per-frame appearance embeddings of
one trajectory. Each mechanism turns a clip into a single d-vector (or, for
the concatenation scorer, directly into an affinity against each of a set
of language vectors):

- ``fuse_average``: column mean.
- ``fuse_attention``: column mean of one self-attention layer.
- ``fuse_self``: pre-norm residual block, X + SA(LN(X)) then + MLP(LN(.)),
  followed by the column mean.
- ``fuse_cross``: cross-attention folded over the rows. A softmax over one
  key is 1, so it is computed as what the fold reduces to: the last row's
  ``cross`` value and output projections (a one-row clip comes back as is).
- ``concat_score``: stack the clip with a language vector, self-attend,
  mean-pool, project, and squash a linear score through a logistic. All
  after the softmax is linear, so it is scored in closed form: one vector
  ``u`` and one scalar ``c`` stand for ``wo``, ``pool_w`` and ``fc_w``, and
  no stack is ever formed. Given V language rows it scores them all at once.

There is no positional encoding and no masking: clips are unordered sets as
far as average/attention/self fusion are concerned. All math runs in float64.

``FUSION_TENSOR_SHAPES`` is the only statement of the ``.twb`` weight bundle:
the bundle names, the shape check and the trainable set of
:mod:`trajkit.train` are all read off it. ``FusionWeights`` is the bundle's
tensor dict itself, so the same object flows from ``io.load_weights``
through fusion, classification and training to ``io.write_weights``; each
layer reads its own group of names (``attn.*``, ``mlp.*``, ...).

This module holds the only forward pass of the residual block. Its layer
norm, attention and MLP forwards also return the intermediates that their
hand-written backward functions beside them read; both take any axes
before a clip's (n, d) as batch axes (a lone clip has none).
``fuse_self_backward`` turns the gradients at the fused vectors into the
gradient of every ``ln1``, ``ln2``, ``attn`` and ``mlp`` tensor, summed over
every clip of the stack.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy.special import erf, softmax

from .errors import DimMismatchError, MissingWeightsError

LN_EPS = 1e-5  # layer norm default epsilon

FUSION_MECHANISMS = ("average", "attention", "self", "cross", "concat")

# The .twb weight bundle: every tensor, in bundle order, with its shape in the
# letters d (embedding width), h (MLP width) and t (text width); "" is a scalar.
FUSION_TENSOR_SHAPES = {
    "ln1.gamma": "d", "ln1.beta": "d", "ln2.gamma": "d", "ln2.beta": "d",
    "attn.wq": "dd", "attn.wk": "dd", "attn.wv": "dd", "attn.wo": "dd",
    "attn.bq": "d", "attn.bk": "d", "attn.bv": "d", "attn.bo": "d",
    "mlp.w1": "dh", "mlp.b1": "h", "mlp.w2": "hd", "mlp.b2": "d",
    "cross.wq": "dd", "cross.wk": "dd", "cross.wv": "dd", "cross.wo": "dd",
    "cross.bq": "d", "cross.bk": "d", "cross.bv": "d", "cross.bo": "d",
    "concat.pool_w": "dd", "concat.pool_b": "d", "concat.fc_w": "d", "concat.fc_b": "",
    "lang_proj.w": "td",
}
FUSION_TENSOR_NAMES = tuple(FUSION_TENSOR_SHAPES)


class FusionWeights(dict):
    """Weights of every fusion mechanism and the language projection: the
    bundle's tensors keyed by name, in bundle order (see FUSION_TENSOR_SHAPES).

    ``FusionWeights(tensors)`` checks the shapes, stores each tensor as a
    float64 array and drops any key that is not a bundle name.
    """

    def __init__(self, tensors: Mapping[str, np.ndarray]):
        validate_fusion_shapes(tensors)
        super().__init__((name, np.asarray(tensors[name], dtype=np.float64))
                         for name in FUSION_TENSOR_NAMES)

    @property
    def d(self) -> int:
        return self["ln1.gamma"].shape[0]

    def copy(self) -> "FusionWeights":
        return FusionWeights({k: v.copy() for k, v in self.items()})


def validate_fusion_shapes(tensors: Mapping[str, np.ndarray]) -> int:
    """Check every tensor of :data:`FUSION_TENSOR_SHAPES` is present with its shape.

    d, h and t are read off ``ln1.gamma``, ``mlp.w1`` and ``lang_proj.w``;
    ``concat.fc_b`` may also have shape (1,). Returns d. Raises
    MissingWeightsError for absent tensors and DimMismatchError for bad shapes.
    """
    missing = [n for n in FUSION_TENSOR_NAMES if n not in tensors]
    if missing:
        raise MissingWeightsError(f"weight bundle lacks tensors: {', '.join(missing)}")
    shape = {n: np.shape(tensors[n]) for n in FUSION_TENSOR_NAMES}
    width = {}
    for letter, name in (("d", "ln1.gamma"), ("h", "mlp.w1"), ("t", "lang_proj.w")):
        letters = FUSION_TENSOR_SHAPES[name]
        if len(shape[name]) != len(letters):
            raise DimMismatchError(f"tensor {name} has shape {shape[name]}, "
                                   f"expected a rank-{len(letters)} tensor")
        width[letter] = shape[name][letters.index(letter)]
    for name, letters in FUSION_TENSOR_SHAPES.items():
        want = tuple(width[c] for c in letters)
        if shape[name] != want and not (name == "concat.fc_b" and shape[name] == (1,)):
            raise DimMismatchError(f"tensor {name} has shape {shape[name]}, expected {want}")
    return width["d"]


def _layer_norm_forward(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) / std
    return xhat * gamma + beta, (xhat, std, gamma)


def _rows(a):
    """Every row of every clip of ``a`` as one (rows, width) matrix."""
    return a.reshape(-1, a.shape[-1])


def _layer_norm_backward(dy, cache, grads, prefix):
    xhat, std, gamma = cache
    grads[f"{prefix}.gamma"] = _rows(dy * xhat).sum(axis=0)
    grads[f"{prefix}.beta"] = _rows(dy).sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) / std


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of float64 x, and the ``1 + erf(x / sqrt(2))`` that its gradient reuses."""
    one_plus_erf = 1.0 + erf(x / np.sqrt(2.0))
    return 0.5 * x * one_plus_erf, one_plus_erf


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf based) GELU."""
    return _gelu_forward(np.asarray(x, dtype=np.float64))[0]


def _gelu_grad(x, one_plus_erf):
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return 0.5 * one_plus_erf + x * phi


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    return x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads)


def _head_scale(d: int, heads: int) -> float:
    """The 1/sqrt(d/heads) score scale, once ``heads`` is checked to split width ``d``."""
    if heads < 1:
        raise DimMismatchError(f"heads must be at least 1, got {heads}")
    if d % heads:
        raise DimMismatchError(f"width {d} is not divisible by {heads} heads")
    return 1.0 / np.sqrt(d // heads)


def _attend(x: np.ndarray, w: FusionWeights, heads: int) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product self-attention over the rows of x with the ``attn`` tensors.

    Rows are the second-to-last axis; any axes before it are batch axes.
    Returns the output and the cache :func:`_self_attention_backward` reads.
    """
    scale = _head_scale(x.shape[-1], heads)
    qh, kh, vh = (_split_heads(x @ w[f"attn.w{key}"] + w[f"attn.b{key}"], heads) for key in "qkv")
    scores = np.einsum("...nhk,...mhk->...hnm", qh, kh) * scale
    attn = softmax(scores, axis=-1)
    mixed = np.einsum("...hnm,...mhk->...nhk", attn, vh).reshape(x.shape)
    return mixed @ w["attn.wo"] + w["attn.bo"], (x, qh, kh, vh, attn, mixed, scale, w)


def _self_attention_backward(dout, cache, grads):
    """Backward of :func:`_attend` into the ``attn.*`` gradients."""
    x, qh, kh, vh, attn, mixed, scale, w = cache
    grads["attn.wo"] = _rows(mixed).T @ _rows(dout)
    grads["attn.bo"] = _rows(dout).sum(axis=0)
    dmixed = (dout @ w["attn.wo"].T).reshape(qh.shape)
    dattn = np.einsum("...nhk,...mhk->...hnm", dmixed, vh)
    dvh = np.einsum("...hnm,...nhk->...mhk", attn, dmixed)
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = np.einsum("...hnm,...mhk->...nhk", dscores, kh) * scale
    dkh = np.einsum("...hnm,...nhk->...mhk", dscores, qh) * scale
    dq, dk, dv = (g.reshape(x.shape) for g in (dqh, dkh, dvh))
    for key, g in (("q", dq), ("k", dk), ("v", dv)):
        grads[f"attn.w{key}"] = _rows(x).T @ _rows(g)
        grads[f"attn.b{key}"] = _rows(g).sum(axis=0)
    return dq @ w["attn.wq"].T + dk @ w["attn.wk"].T + dv @ w["attn.wv"].T


def self_attention(x: np.ndarray, weights: FusionWeights, heads: int = 1) -> np.ndarray:
    """Multi-head self-attention over the rows of x with the ``attn`` tensors, no masking."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _attend(x, weights, heads)[0]


def _mlp_forward(x, w: FusionWeights):
    pre = x @ w["mlp.w1"] + w["mlp.b1"]
    act, one_plus_erf = _gelu_forward(pre)
    return act @ w["mlp.w2"] + w["mlp.b2"], (x, pre, act, one_plus_erf, w)


def _mlp_backward(dout, cache, grads):
    x, pre, act, one_plus_erf, w = cache
    grads["mlp.w2"] = _rows(act).T @ _rows(dout)
    grads["mlp.b2"] = _rows(dout).sum(axis=0)
    dpre = (dout @ w["mlp.w2"].T) * _gelu_grad(pre, one_plus_erf)
    grads["mlp.w1"] = _rows(x).T @ _rows(dpre)
    grads["mlp.b1"] = _rows(dpre).sum(axis=0)
    return dpre @ w["mlp.w1"].T


def fuse_average(clip: np.ndarray) -> np.ndarray:
    """Column mean of the clip (of each clip, for a stack of clips)."""
    clip = np.atleast_2d(np.asarray(clip, dtype=np.float64))
    return clip.mean(axis=-2)


def fuse_attention(clip: np.ndarray, weights: FusionWeights, heads: int = 1) -> np.ndarray:
    """Column mean of one self-attention layer over the clip."""
    return fuse_average(self_attention(clip, weights, heads))


def fuse_self(clip: np.ndarray, weights: FusionWeights, heads: int = 1) -> np.ndarray:
    """Pre-norm residual transformer block followed by the column mean.

    With zero attention output and MLP output projections the block is the
    identity, so the result degenerates to ``fuse_average``.
    """
    return fuse_self_forward(clip, weights, heads)[0]


def fuse_self_forward(clip: np.ndarray, weights: FusionWeights,
                      heads: int) -> tuple[np.ndarray, tuple]:
    """``fuse_self`` plus the cache :func:`fuse_self_backward` reads."""
    x = np.atleast_2d(np.asarray(clip, dtype=np.float64))
    h1, ln1_cache = _layer_norm_forward(x, weights["ln1.gamma"], weights["ln1.beta"], LN_EPS)
    s, attn_cache = _attend(h1, weights, heads)
    u = x + s
    h2, ln2_cache = _layer_norm_forward(u, weights["ln2.gamma"], weights["ln2.beta"], LN_EPS)
    m, mlp_cache = _mlp_forward(h2, weights)
    return fuse_average(u + m), (x.shape[-2], ln1_cache, attn_cache, ln2_cache, mlp_cache)


def fuse_self_backward(dfused: np.ndarray, cache: tuple) -> dict:
    """Reverse-mode pass of :func:`fuse_self_forward` from the gradients at its outputs.

    Returns the gradient of every ``ln1``, ``ln2``, ``attn`` and ``mlp``
    tensor, keyed by bundle name, summed over every clip of the stack.
    """
    n, ln1_cache, attn_cache, ln2_cache, mlp_cache = cache
    grads = {}
    dv = np.repeat((dfused / n)[..., None, :], n, axis=-2)
    du = dv + _layer_norm_backward(_mlp_backward(dv, mlp_cache, grads), ln2_cache, grads, "ln2")
    _layer_norm_backward(_self_attention_backward(du, attn_cache, grads), ln1_cache, grads, "ln1")
    return grads


def fuse_cross(clip: np.ndarray, weights: FusionWeights, heads: int = 1) -> np.ndarray:
    """Cross-attention folded over the clip rows, as the one projection it reduces to.

    Each fold step's only key/value is one further row, so every softmax
    weight is exactly 1: n >= 2 rows fuse, bit for bit, to
    ``(x[-1] @ cross.wv + cross.bv) @ cross.wo + cross.bo``, and the other
    rows and ``cross.wq/wk/bq/bk`` never reach the output. One row comes back as is.
    """
    x = np.atleast_2d(np.asarray(clip, dtype=np.float64))
    if x.shape[0] == 1:
        return x[0]
    _head_scale(x.shape[1], heads)  # the fold's check: heads must split the width
    w = weights
    return ((x[-1:] @ w["cross.wv"] + w["cross.bv"]) @ w["cross.wo"] + w["cross.bo"])[0]


def _clip_keys(scores, tc):
    """Per query row, the clip keys' largest score and their exp(score - largest)
    sums, plain and weighted by the clip rows' value scalars ``tc`` (h, n)."""
    top = scores.max(axis=-1, initial=-np.inf)
    e = np.exp(scores - top[..., None])
    return top, (e @ tc[..., None])[..., 0], e.sum(axis=-1)


def _plus_one_key(top, weighted, total, extra, t_extra):
    """The softmax-weighted value scalar over the keys :func:`_clip_keys` summed
    and one more key, which scores ``extra`` and carries ``t_extra``."""
    peak = np.maximum(top, extra)
    shrink, e = np.exp(top - peak), np.exp(extra - peak)
    return (shrink * weighted + e * t_extra) / (shrink * total + e)


def concat_score(clip: np.ndarray, lang: np.ndarray, weights: FusionWeights,
                 heads: int = 1) -> float | np.ndarray:
    """Affinity of a clip against language vectors via concatenation.

    Stacks the clip with a language row, self-attends, mean-pools, applies
    the pooling projection and a final linear layer, then squashes through a
    logistic so the result is comparable with the other channels. A (d,)
    ``lang`` gives a float; a (V, d) ``lang`` gives the (V,) scores of its rows.

    Everything after the softmax is linear, so no stack is formed:
      u = wo @ pool_w @ fc_w, c = (bo @ pool_w + pool_b) @ fc_w + fc_b, t[m,h] = v[m,h]·u[h];
      raw = mean_i(mixed_i) @ wo @ pool_w @ fc_w + c = Σ_h Σ_m w̄[h,m]·t[m,h] + c,
      with w̄[h,m] the softmax weight of key row m in head h averaged over the n+1 query rows.
    The clip query rows score the clip keys once for every language row.
    """
    clip = np.atleast_2d(np.asarray(clip, dtype=np.float64))
    lang = np.asarray(lang, dtype=np.float64)
    rows = np.atleast_2d(lang)
    n, d = clip.shape
    if rows.ndim != 2:
        raise DimMismatchError(
            f"language must be one vector or a matrix of rows, got shape {lang.shape}")
    if rows.shape[1] != d:
        raise DimMismatchError(f"language width {rows.shape[1]} != clip width {d}")
    scale = _head_scale(d, heads)
    w = weights
    u = _split_heads(w["attn.wo"] @ (w["concat.pool_w"] @ w["concat.fc_w"]), heads)
    c = (w["attn.bo"] @ w["concat.pool_w"] + w["concat.pool_b"]) @ w["concat.fc_w"] \
        + w["concat.fc_b"].reshape(())
    # Project the clip and language rows once, heads first: q and k (h, n + V, d/h),
    # and the value scalars t (h, n + V) through wv and u folded into one (d, h) matrix.
    both = np.concatenate([clip, rows])
    q, k = (_split_heads(both @ w[f"attn.w{x}"] + w[f"attn.b{x}"], heads).transpose(1, 0, 2)
            for x in "qk")
    wt, bt = ((_split_heads(w[f"attn.{x}"], heads) * u).sum(axis=-1) for x in ("wv", "bv"))
    t = (both @ wt + bt).T
    # Clip query rows (h, V, n): the clip keys, scored once, then each language key.
    clip_keys = _clip_keys(q[:, :n] @ k[:, :n].transpose(0, 2, 1) * scale, t[:, :n])
    clip_rows = _plus_one_key(*(x[:, None] for x in clip_keys),
                              k[:, n:] @ q[:, :n].transpose(0, 2, 1) * scale, t[:, n:, None])
    # Each language query row (h, V): the clip keys, then its own key.
    lang_row = _plus_one_key(*_clip_keys(q[:, n:] @ k[:, :n].transpose(0, 2, 1) * scale, t[:, :n]),
                             (q[:, n:] * k[:, n:]).sum(axis=-1) * scale, t[:, n:])
    raw = (clip_rows.sum(axis=-1) + lang_row).sum(axis=0) / (n + 1) + c
    scores = 1.0 / (1.0 + np.exp(-raw))
    return float(scores[0]) if lang.ndim == 1 else scores


def init_fusion_weights(d: int, hidden: int | None = None, d_text: int | None = None,
                        seed: int = 0, zero_residual: bool = True) -> FusionWeights:
    """Seeded initialization, tensor by tensor in bundle order.

    Every projection matrix (``w*`` and ``*_w``) is drawn symmetric-uniform
    with scale 1/sqrt(fan_in), fan_in being its first dimension; layer norm
    gammas are ones and biases zeros. ``lang_proj.w`` is the identity when
    ``d_text == d``. ``zero_residual=True`` zeroes the attention output and
    second MLP projections so an untrained ``fuse_self`` is exactly
    ``fuse_average``; the cross/concat groups keep full random projections so
    every mechanism produces non-degenerate output out of the box.
    """
    if hidden is not None and hidden < 1:
        raise ValueError("hidden must be at least 1")
    width = {"d": d, "h": 4 * d if hidden is None else hidden, "t": d if d_text is None else d_text}
    zeroed = ("attn.wo", "mlp.w2") if zero_residual else ()
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, letters in FUSION_TENSOR_SHAPES.items():
        shape = tuple(width[c] for c in letters)
        key = name.split(".")[1]
        if key == "gamma":
            tensors[name] = np.ones(shape)
        elif name == "lang_proj.w" and width["t"] == d:
            tensors[name] = np.eye(d)
        elif (key[0] == "w" or key.endswith("_w")) and name not in zeroed:
            lim = 1.0 / np.sqrt(shape[0])
            tensors[name] = rng.uniform(-lim, lim, size=shape)
        else:
            tensors[name] = np.zeros(shape)
    return FusionWeights(tensors)
