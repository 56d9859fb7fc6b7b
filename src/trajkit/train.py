"""Contrastive training of the residual fusion block.

The trainable path is ``fuse_self``: clip -> LN -> self-attention -> residual
-> LN -> MLP -> residual -> column mean. Two clips are fused with shared
weights, the L2-normalized outputs feed a margin contrastive loss, and
plain gradient descent updates the sixteen tensors on that path
(``TRAINABLE_TENSORS``: the ``ln1``, ``ln2``, ``attn`` and ``mlp`` groups of
:data:`trajkit.fusion.FUSION_TENSOR_SHAPES`, in bundle order).
Gradients are exact reverse-mode derivatives written out by hand; they are
checked against :func:`numeric_gradient` central differences in the tests.
The forward and backward of the ``fuse_self`` path live in
:mod:`trajkit.fusion` (``fuse_self_forward`` / ``fuse_self_backward``), so
training runs the very forward pass that classification runs; this module
holds the loss head, output normalization and the optimizer loop.

A step is one :func:`loss_and_gradients` call: its clips, stacked by row
count, take one forward and one backward per stack; the loss head runs per
pair. Each pair's gradients at its fused vectors are scaled by the pair's
draws, so one backward returns a stack's gradients summed over its clips,
and the step adds up the stacks' sums.

Loss for a pair with label y (1 = same category):

    L = 0.5 * (y * D^2 + (1 - y) * max(0, margin - D)^2)

with D either the euclidean distance or the cosine distance (1 - cosine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimMismatchError, DivergedError, TrajkitError, ZeroNormError
from .fusion import (FUSION_TENSOR_NAMES, FusionWeights, fuse_self, fuse_self_backward,
                     fuse_self_forward)

DISTANCES = ("euclidean", "cosine")

# Tensors updated by training: the groups on the fuse_self path, in bundle order.
TRAINABLE_TENSORS = tuple(name for name in FUSION_TENSOR_NAMES
                          if name.split(".")[0] in ("ln1", "ln2", "attn", "mlp"))


@dataclass
class TrainPair:
    clip_a: np.ndarray  # (n, d)
    clip_b: np.ndarray
    label: int  # 1 same category, 0 different


@dataclass
class TrainConfig:
    margin: float = 0.5
    distance: str = "euclidean"
    learning_rate: float = 0.05
    steps: int = 500
    batch_size: int = 8
    seed: int = 0
    heads: int = 1

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ValueError(f"distance must be one of {DISTANCES}, got {self.distance!r}")
        if self.margin < 0 or not np.isfinite(self.margin):
            raise ValueError("margin must be finite and non-negative")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")


def contrastive_loss(f_a: np.ndarray, f_b: np.ndarray, y: int,
                     margin: float = 0.5, distance: str = "euclidean") -> float:
    """Margin contrastive loss between two already-fused vectors."""
    return _loss_head(np.asarray(f_a, np.float64), np.asarray(f_b, np.float64),
                      y, margin, distance)[0]


def _loss_head(fa, fb, y, margin, distance):
    """Loss plus its gradients with respect to the two input vectors."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    if distance == "euclidean":
        diff = fa - fb
        dist = float(np.linalg.norm(diff))
        ddist_dfa = diff / dist if dist > 0 else np.zeros_like(fa)
    elif distance == "cosine":
        na, nb = np.linalg.norm(fa), np.linalg.norm(fb)
        if na == 0.0 or nb == 0.0:
            raise ZeroNormError("cosine distance undefined for zero-norm vector")
        cos = float(fa @ fb / (na * nb))
        dist = 1.0 - cos
        ddist_dfa = -(fb / (na * nb) - cos * fa / (na * na))
    else:
        raise ValueError(f"distance must be one of {DISTANCES}, got {distance!r}")
    hinge = max(0.0, margin - dist)
    loss = 0.5 * (y * dist * dist + (1 - y) * hinge * hinge)
    dloss_ddist = y * dist - (1 - y) * hinge
    dfa = dloss_ddist * ddist_dfa
    if distance == "euclidean":
        dfb = -dfa
    else:
        ddist_dfb = -(fa / (na * nb) - cos * fb / (nb * nb))
        dfb = dloss_ddist * ddist_dfb
    return loss, dfa, dfb


def _pair_head(fa, fb, y, cfg: TrainConfig):
    """A pair's loss from its L2-normalized fused vectors, and the loss gradients at the
    fused vectors."""
    na, nb = float(np.linalg.norm(fa)), float(np.linalg.norm(fb))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cannot normalize zero-norm fusion output")
    ua, ub = fa / na, fb / nb
    loss, dua, dub = _loss_head(ua, ub, y, cfg.margin, cfg.distance)
    return loss, (dua - (dua @ ua) * ua) / na, (dub - (dub @ ub) * ub) / nb


def pair_loss(pair: TrainPair, weights: FusionWeights, cfg: TrainConfig) -> float:
    """Forward pass of the training objective through the public fusion op."""
    fa, fb = (fuse_self(clip, weights, cfg.heads) for clip in (pair.clip_a, pair.clip_b))
    return _pair_head(fa, fb, pair.label, cfg)[0]


def _step_clips(pairs: Sequence[TrainPair], d: int) -> list[np.ndarray]:
    """Every pair's clip_a and clip_b as float64 (n, d) arrays, in pair order."""
    clips = [np.atleast_2d(np.asarray(c, dtype=np.float64)) for p in pairs for c in (p.clip_a, p.clip_b)]
    for k, clip in enumerate(clips):
        name = f"pair {k // 2} clip_{'ab'[k % 2]}"
        if clip.ndim != 2 or clip.shape[1] != d:
            raise DimMismatchError(f"{name} has shape {clip.shape}: width {clip.shape[-1]}, not {d}")
        if not len(clip):
            raise TrajkitError(f"{name} is an empty clip")
    return clips


def loss_and_gradients(pairs: Sequence[TrainPair], weights: FusionWeights, cfg: TrainConfig,
                       counts: Sequence[int] | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Count-weighted loss sum and gradient sums of a step's distinct pairs,
    ``pairs[i]`` drawn ``counts[i]`` times (once each by default)."""
    counts = [1] * len(pairs) if counts is None else counts
    clips = _step_clips(pairs, weights.d)  # pair p's clips are clips[2p] and clips[2p + 1]
    stacks = {}  # row count -> the indices of its clips
    for k, clip in enumerate(clips):
        stacks.setdefault(len(clip), []).append(k)
    fused, caches = np.empty((len(clips), weights.d)), {}
    for n, ks in stacks.items():
        fused[ks], caches[n] = fuse_self_forward(np.stack([clips[k] for k in ks]), weights, cfg.heads)
    dfused = np.empty_like(fused)
    total = 0.0
    for p, (pair, count) in enumerate(zip(pairs, counts)):
        loss, dfa, dfb = _pair_head(fused[2 * p], fused[2 * p + 1], pair.label, cfg)
        dfused[2 * p], dfused[2 * p + 1] = count * dfa, count * dfb
        total += count * loss
    grads = {name: np.zeros_like(weights[name]) for name in TRAINABLE_TENSORS}
    for n, ks in stacks.items():
        for name, g in fuse_self_backward(dfused[ks], caches[n]).items():
            grads[name] += g
    return total, grads


def numeric_gradient(f: Callable[[np.ndarray], float], theta: np.ndarray,
                     eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, in float64."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(theta)
        flat[i] = orig - eps
        fm = f(theta)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def train_fusion(pairs: Iterable[TrainPair], weights: FusionWeights,
                 cfg: TrainConfig) -> tuple[FusionWeights, list[float]]:
    """Plain gradient descent over the fuse_self path.

    Pairs are shuffled once with the config seed and cycled in fixed order,
    so the run is deterministic. A batch of ``batch_size`` draws from P pairs
    visits each distinct pair of the step once, weighted by how often the
    cycle draws it, in one :func:`loss_and_gradients` call per step. A bad
    clip raises before the first step, naming its index in ``pairs``.
    Returns fresh weights (the input object is untouched) and the per-step
    mean batch loss, recorded before each update. Raises DivergedError as soon
    as a batch loss turns non-finite.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("train_fusion needs at least one pair")
    _step_clips(pairs, weights.d)
    weights = weights.copy()  # updated in place below
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(pairs))
    size, n_pairs = cfg.batch_size, len(pairs)
    rounds, extra = divmod(size, n_pairs)
    counts = [rounds + (j < extra) for j in range(min(size, n_pairs))]  # a step's draws of each
    curve: list[float] = []
    cursor = 0
    for step in range(cfg.steps):
        batch = [pairs[order[(cursor + j) % n_pairs]] for j in range(len(counts))]
        total, grads = loss_and_gradients(batch, weights, cfg, counts)
        cursor = (cursor + size) % n_pairs
        mean_loss = total / size
        if not np.isfinite(mean_loss):
            raise DivergedError(step)
        for name in TRAINABLE_TENSORS:
            weights[name] -= cfg.learning_rate * grads[name] / size
        curve.append(mean_loss)
    return weights, curve
