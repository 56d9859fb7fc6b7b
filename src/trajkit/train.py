"""Contrastive training of the residual fusion block.

The trainable path is ``fuse_self``: clip -> LN -> self-attention -> residual
-> LN -> MLP -> residual -> column mean. Two clips are fused with shared
weights, the outputs (L2-normalized by default) feed a margin contrastive
loss, and plain gradient descent updates the sixteen tensors on that path
(``TRAINABLE_TENSORS``: the ``ln1``, ``ln2``, ``attn`` and ``mlp`` groups of
:data:`trajkit.fusion.FUSION_TENSOR_SHAPES`, in bundle order).
Gradients are exact reverse-mode derivatives written out by hand; they are
checked against :func:`numeric_gradient` central differences in the tests.
The forward and backward of the ``fuse_self`` path live in
:mod:`trajkit.fusion` (``fuse_self_forward`` / ``fuse_self_backward``), so
training runs the very forward pass that classification runs; this module
holds the loss head, output normalization and the optimizer loop.

Loss for a pair with label y (1 = same category):

    L = 0.5 * (y * D^2 + (1 - y) * max(0, margin - D)^2)

with D either the euclidean distance or the cosine distance (1 - cosine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DivergedError, ZeroNormError
from .fusion import FUSION_TENSOR_NAMES, FusionWeights, fuse_self, fuse_self_backward, fuse_self_forward

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
    normalize_outputs: bool = True  # L2-normalize fused vectors before the loss

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
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    loss, _, _ = _loss_head(np.asarray(f_a, np.float64), np.asarray(f_b, np.float64),
                            y, margin, distance)
    return loss


def _loss_head(fa, fb, y, margin, distance):
    """Loss plus its gradients with respect to the two input vectors."""
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


def _normalize_with_grad(f):
    n = float(np.linalg.norm(f))
    if n == 0.0:
        raise ZeroNormError("cannot normalize zero-norm fusion output")
    unit = f / n

    def backward(dunit):
        return (dunit - (dunit @ unit) * unit) / n

    return unit, backward


def pair_loss(pair: TrainPair, weights: FusionWeights, cfg: TrainConfig) -> float:
    """Forward pass of the training objective through the public fusion op."""
    fa = fuse_self(pair.clip_a, weights, cfg.heads)
    fb = fuse_self(pair.clip_b, weights, cfg.heads)
    if cfg.normalize_outputs:
        fa, _ = _normalize_with_grad(fa)
        fb, _ = _normalize_with_grad(fb)
    return contrastive_loss(fa, fb, pair.label, cfg.margin, cfg.distance)


def loss_and_gradients(pair: TrainPair, weights: FusionWeights,
                       cfg: TrainConfig) -> tuple[float, dict[str, np.ndarray]]:
    fa, cache_a = fuse_self_forward(pair.clip_a, weights, cfg.heads)
    fb, cache_b = fuse_self_forward(pair.clip_b, weights, cfg.heads)
    if cfg.normalize_outputs:
        fa_n, back_a = _normalize_with_grad(fa)
        fb_n, back_b = _normalize_with_grad(fb)
    else:
        fa_n, fb_n = fa, fb
        back_a = back_b = lambda g: g
    loss, dfa_n, dfb_n = _loss_head(fa_n, fb_n, pair.label, cfg.margin, cfg.distance)
    grads = {name: np.zeros_like(weights[name]) for name in TRAINABLE_TENSORS}
    fuse_self_backward(back_a(dfa_n), cache_a, grads)
    fuse_self_backward(back_b(dfb_n), cache_b, grads)
    return loss, grads


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
    cycle draws it, so a step costs at most min(batch_size, P) passes.
    Returns fresh weights (the input object is untouched) and the per-step
    mean batch loss, recorded before each update. Raises DivergedError as soon
    as a batch loss turns non-finite.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("train_fusion needs at least one pair")
    weights = weights.copy()  # updated in place below
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(pairs))
    size, n_pairs = cfg.batch_size, len(pairs)
    rounds, extra = divmod(size, n_pairs)
    curve: list[float] = []
    cursor = 0
    for step in range(cfg.steps):
        total = 0.0
        acc = {name: np.zeros_like(weights[name]) for name in TRAINABLE_TENSORS}
        for j in range(min(size, n_pairs)):
            count = rounds + (j < extra)  # draws of this pair in the step
            loss, grads = loss_and_gradients(pairs[order[(cursor + j) % n_pairs]], weights, cfg)
            total += count * loss
            for name in TRAINABLE_TENSORS:
                acc[name] += grads[name] if count == 1 else count * grads[name]
        cursor = (cursor + size) % n_pairs
        mean_loss = total / size
        if not np.isfinite(mean_loss):
            raise DivergedError(step)
        for name in TRAINABLE_TENSORS:
            weights[name] -= cfg.learning_rate * acc[name] / size
        curve.append(mean_loss)
    return weights, curve
