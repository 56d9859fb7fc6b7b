"""Clip fusion: numpy transformer primitives and the five fusion mechanisms.

A clip is an (n, d) matrix whose rows are per-frame appearance embeddings of
one trajectory. Each mechanism turns a clip into a single d-vector (or, for
the concatenation scorer, directly into an affinity against each of a set
of language vectors):

- ``fuse_average``: column mean.
- ``fuse_attention``: column mean of one self-attention layer.
- ``fuse_self``: pre-norm residual block, X + SA(LN(X)) then + MLP(LN(.)),
  followed by the column mean. ``residual=False`` gives the bare
  Avg(MLP(SA(X))) form instead.
- ``fuse_cross``: sequential cross-attention, the running fused vector is
  the query and the next row the key/value; order sensitive by design.
- ``concat_score``: stack the clip with a language vector, self-attend,
  mean-pool, project, and squash a linear score through a logistic. Given V
  language rows it attends all V stacks in one batched pass.

There is no positional encoding and no masking: clips are unordered sets as
far as average/attention/self fusion are concerned. All math runs in float64.

``FUSION_TENSOR_SHAPES`` is the only statement of the ``.twb`` weight bundle:
the bundle names, the shape check, ``FusionWeights.to_dict``/``from_dict``
and the trainable set of :mod:`trajkit.train` are all read off it.

This module holds the only forward pass of the residual block. Its layer
norm, attention and MLP forwards also return the intermediates that their
hand-written backward functions beside them read. ``fuse_self_forward``
returns the fused vector with the clip-level cache, and
``fuse_self_backward`` turns the gradient at the fused vector into
gradients of every ``ln1``, ``ln2``, ``attn`` and ``mlp`` tensor for
:mod:`trajkit.train`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import erf, softmax

from .errors import DimMismatchError, MissingWeightsError

LN_EPS = 1e-5  # layer norm default epsilon

FUSION_MECHANISMS = ("average", "attention", "self", "self_noresidual", "cross", "concat")

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


@dataclass
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = LN_EPS


@dataclass
class AttentionParams:
    """Projection weights for one attention layer, applied as x @ w + b."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray


@dataclass
class MlpParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class ConcatParams:
    pool_w: np.ndarray  # projection after mean pooling
    pool_b: np.ndarray
    fc_w: np.ndarray  # final linear score
    fc_b: np.ndarray


@dataclass
class FusionWeights:
    """Weights of every fusion mechanism and the language projection (see FUSION_TENSOR_SHAPES)."""

    ln1: LayerNormParams
    ln2: LayerNormParams
    attn: AttentionParams
    mlp: MlpParams
    cross: AttentionParams
    concat: ConcatParams
    lang_proj: np.ndarray  # bundle name lang_proj.w

    @property
    def d(self) -> int:
        return self.ln1.gamma.shape[0]

    def to_dict(self) -> dict[str, np.ndarray]:
        """The weights' own arrays (not copies) keyed by bundle name, in bundle order."""
        out = {}
        for name in FUSION_TENSOR_NAMES:
            group, key = name.split(".")
            part = getattr(self, group)
            out[name] = part if isinstance(part, np.ndarray) else getattr(part, key)
        return out

    def copy(self) -> "FusionWeights":
        return FusionWeights.from_dict({k: v.copy() for k, v in self.to_dict().items()})

    @classmethod
    def from_dict(cls, tensors: Mapping[str, np.ndarray]) -> "FusionWeights":
        validate_fusion_shapes(tensors)
        groups: dict[str, dict[str, np.ndarray]] = {}
        for name in FUSION_TENSOR_NAMES:
            group, key = name.split(".")
            groups.setdefault(group, {})[key] = np.asarray(tensors[name], dtype=np.float64)
        return cls(
            ln1=LayerNormParams(**groups["ln1"]), ln2=LayerNormParams(**groups["ln2"]),
            attn=AttentionParams(**groups["attn"]), mlp=MlpParams(**groups["mlp"]),
            cross=AttentionParams(**groups["cross"]), concat=ConcatParams(**groups["concat"]),
            lang_proj=groups["lang_proj"]["w"],
        )


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


def _layer_norm_backward(dy, cache, grads, prefix):
    xhat, std, gamma = cache
    grads[f"{prefix}.gamma"] += (dy * xhat).sum(axis=0)
    grads[f"{prefix}.beta"] += dy.sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) / std


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = LN_EPS) -> np.ndarray:
    """Per-row layer normalization with population (1/d) variance."""
    return _layer_norm_forward(np.asarray(x, dtype=np.float64), gamma, beta, eps)[0]


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf based) GELU."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _gelu_grad(x):
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    return x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, w: AttentionParams,
            heads: int) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product attention of query rows against key/value rows.

    Rows are the second-to-last axis; any axes before it are batch axes.
    Returns the output and the cache :func:`_self_attention_backward` reads.
    """
    d = q.shape[-1]
    if heads < 1 or d % heads:
        raise DimMismatchError(f"width {d} is not divisible by {heads} heads")
    qh = _split_heads(q @ w.wq + w.bq, heads)
    kh = _split_heads(k @ w.wk + w.bk, heads)
    vh = _split_heads(v @ w.wv + w.bv, heads)
    scale = 1.0 / np.sqrt(d // heads)
    scores = np.einsum("...nhk,...mhk->...hnm", qh, kh) * scale
    attn = softmax(scores, axis=-1)
    mixed = np.einsum("...hnm,...mhk->...nhk", attn, vh).reshape(q.shape)
    return mixed @ w.wo + w.bo, (q, qh, kh, vh, attn, mixed, scale, w)


def _self_attention_backward(dout, cache, grads):
    """Backward of ``_attend(x, x, x, ...)`` into the ``attn.*`` gradients."""
    x, qh, kh, vh, attn, mixed, scale, w = cache
    n, d = x.shape
    grads["attn.wo"] += mixed.T @ dout
    grads["attn.bo"] += dout.sum(axis=0)
    dmixed = (dout @ w.wo.T).reshape(qh.shape)
    dattn = np.einsum("nhk,mhk->hnm", dmixed, vh)
    dvh = np.einsum("hnm,nhk->mhk", attn, dmixed)
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = np.einsum("hnm,mhk->nhk", dscores, kh) * scale
    dkh = np.einsum("hnm,nhk->mhk", dscores, qh) * scale
    dq, dk, dv = (g.reshape(n, d) for g in (dqh, dkh, dvh))
    for key, g in (("q", dq), ("k", dk), ("v", dv)):
        grads[f"attn.w{key}"] += x.T @ g
        grads[f"attn.b{key}"] += g.sum(axis=0)
    return dq @ w.wq.T + dk @ w.wk.T + dv @ w.wv.T


def self_attention(x: np.ndarray, w: AttentionParams, heads: int = 1) -> np.ndarray:
    """Multi-head self-attention over the rows of x, no masking."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _attend(x, x, x, w, heads)[0]


def cross_attention(query: np.ndarray, keyvalue: np.ndarray, w: AttentionParams,
                    heads: int = 1) -> np.ndarray:
    """Attention of query rows against separate key/value rows."""
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    kv = np.atleast_2d(np.asarray(keyvalue, dtype=np.float64))
    if q.shape[1] != kv.shape[1]:
        raise DimMismatchError(f"query width {q.shape[1]} != key/value width {kv.shape[1]}")
    return _attend(q, kv, kv, w, heads)[0]


def _mlp_forward(x, w: MlpParams):
    pre = x @ w.w1 + w.b1
    act = gelu(pre)
    return act @ w.w2 + w.b2, (x, pre, act, w)


def _mlp_backward(dout, cache, grads):
    x, pre, act, w = cache
    grads["mlp.w2"] += act.T @ dout
    grads["mlp.b2"] += dout.sum(axis=0)
    dpre = (dout @ w.w2.T) * _gelu_grad(pre)
    grads["mlp.w1"] += x.T @ dpre
    grads["mlp.b1"] += dpre.sum(axis=0)
    return dpre @ w.w1.T


def mlp_block(x: np.ndarray, w: MlpParams) -> np.ndarray:
    """Two-layer GELU MLP applied per row."""
    return _mlp_forward(np.asarray(x, dtype=np.float64), w)[0]


def fuse_average(clip: np.ndarray) -> np.ndarray:
    """Column mean of the clip."""
    clip = np.atleast_2d(np.asarray(clip, dtype=np.float64))
    return clip.mean(axis=0)


def fuse_attention(clip: np.ndarray, weights: FusionWeights, heads: int = 1) -> np.ndarray:
    """Column mean of one self-attention layer over the clip."""
    return fuse_average(self_attention(clip, weights.attn, heads))


def fuse_self(clip: np.ndarray, weights: FusionWeights, heads: int = 1,
              residual: bool = True) -> np.ndarray:
    """Pre-norm residual transformer block followed by the column mean.

    With zero attention output and MLP output projections the block is the
    identity, so the result degenerates to ``fuse_average``. The
    ``residual=False`` variant drops the norms and skips entirely:
    Avg(MLP(SA(clip))).
    """
    if not residual:
        return fuse_average(mlp_block(self_attention(clip, weights.attn, heads), weights.mlp))
    return fuse_self_forward(clip, weights, heads)[0]


def fuse_self_forward(clip: np.ndarray, weights: FusionWeights,
                      heads: int) -> tuple[np.ndarray, tuple]:
    """The residual ``fuse_self`` plus the cache :func:`fuse_self_backward` reads."""
    x = np.atleast_2d(np.asarray(clip, dtype=np.float64))
    ln1, ln2 = weights.ln1, weights.ln2
    h1, ln1_cache = _layer_norm_forward(x, ln1.gamma, ln1.beta, ln1.eps)
    s, attn_cache = _attend(h1, h1, h1, weights.attn, heads)
    u = x + s
    h2, ln2_cache = _layer_norm_forward(u, ln2.gamma, ln2.beta, ln2.eps)
    m, mlp_cache = _mlp_forward(h2, weights.mlp)
    return fuse_average(u + m), (x.shape[0], ln1_cache, attn_cache, ln2_cache, mlp_cache)


def fuse_self_backward(dfused: np.ndarray, cache: tuple, grads: dict[str, np.ndarray]) -> None:
    """Reverse-mode pass of :func:`fuse_self_forward` from the gradient at its output.

    Adds the gradient of every ``ln1``, ``ln2``, ``attn`` and ``mlp`` tensor
    into ``grads``, keyed by bundle name; the entries must already exist.
    """
    n, ln1_cache, attn_cache, ln2_cache, mlp_cache = cache
    dv = np.tile(dfused / n, (n, 1))
    du = dv + _layer_norm_backward(_mlp_backward(dv, mlp_cache, grads), ln2_cache, grads, "ln2")
    _layer_norm_backward(_self_attention_backward(du, attn_cache, grads), ln1_cache, grads, "ln1")


def fuse_cross(clip: np.ndarray, weights: FusionWeights, heads: int = 1) -> np.ndarray:
    """Sequential cross-attention over the clip rows.

    The first row seeds the running fused vector; every further row is
    attended as key/value with the running vector as query. The result
    depends on row order.
    """
    x = np.atleast_2d(np.asarray(clip, dtype=np.float64))
    fused = x[0]
    for i in range(1, x.shape[0]):
        fused = cross_attention(fused, x[i], weights.cross, heads)[0]
    return np.asarray(fused, dtype=np.float64)


def concat_score(clip: np.ndarray, lang: np.ndarray, weights: FusionWeights,
                 heads: int = 1) -> float | np.ndarray:
    """Affinity of a clip against language vectors via concatenation.

    Stacks the clip with a language row, self-attends, mean-pools, applies
    the pooling projection and a final linear layer, then squashes through a
    logistic so the result is comparable with the other channels. A (d,)
    ``lang`` gives a float; a (V, d) ``lang`` gives the (V,) scores of its
    rows, with all V stacks attended in one batched pass.
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
    stacked = np.empty((rows.shape[0], n + 1, d))
    stacked[:, :n] = clip
    stacked[:, n] = rows
    # Pooled rows stay (V, 1, d), so the projections below are one 1 x d
    # product per stack and every score has the bits of a one-row call.
    pooled = _attend(stacked, stacked, stacked, weights.attn, heads)[0].mean(axis=-2, keepdims=True)
    projected = pooled @ weights.concat.pool_w + weights.concat.pool_b
    raw = projected @ weights.concat.fc_w + np.asarray(weights.concat.fc_b).reshape(())
    scores = 1.0 / (1.0 + np.exp(-raw[:, 0]))
    return float(scores[0]) if lang.ndim == 1 else scores


def init_fusion_weights(d: int, hidden: int | None = None, d_text: int | None = None,
                        seed: int = 0, zero_residual: bool = True) -> FusionWeights:
    """Seeded symmetric-uniform initialization, scale 1/sqrt(fan_in).

    ``zero_residual=True`` zeroes the attention output and second MLP
    projections so an untrained ``fuse_self`` is exactly ``fuse_average``;
    the cross/concat groups keep full random projections so every mechanism
    produces non-degenerate output out of the box.
    """
    hidden = 4 * d if hidden is None else hidden
    d_text = d if d_text is None else d_text
    rng = np.random.default_rng(seed)

    def uni(fan_in, *shape):
        lim = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-lim, lim, size=shape)

    def attn_group(zero_wo):
        return AttentionParams(
            wq=uni(d, d, d), wk=uni(d, d, d), wv=uni(d, d, d),
            wo=np.zeros((d, d)) if zero_wo else uni(d, d, d),
            bq=np.zeros(d), bk=np.zeros(d), bv=np.zeros(d), bo=np.zeros(d),
        )

    attn = attn_group(zero_residual)
    mlp = MlpParams(
        w1=uni(d, d, hidden), b1=np.zeros(hidden),
        w2=np.zeros((hidden, d)) if zero_residual else uni(hidden, hidden, d),
        b2=np.zeros(d),
    )
    cross = attn_group(False)
    concat = ConcatParams(pool_w=uni(d, d, d), pool_b=np.zeros(d),
                          fc_w=uni(d, d), fc_b=np.zeros(()))
    lang_proj = np.eye(d_text, d) if d_text == d else uni(d_text, d_text, d)
    return FusionWeights(
        ln1=LayerNormParams(np.ones(d), np.zeros(d)),
        ln2=LayerNormParams(np.ones(d), np.zeros(d)),
        attn=attn, mlp=mlp, cross=cross, concat=concat, lang_proj=lang_proj,
    )
