"""Deterministic synthetic scenes with known ground truth.

Every identity gets a unit prototype embedding; per-frame observations are
``normalize(prototype + sigma * gaussian)`` (exactly the prototype when
sigma is zero). Boxes follow linear motion with reflection at the scene
bounds. Corruption is opt-in: occlusion windows, random misses, false
positives with fresh random embeddings, and label flips.

Category prototypes double as the text-side vocabulary so classification is
well posed without any external embedding model: by default identity
prototypes are uniform on the sphere and a category prototype is the
normalized mean of its members. With ``class_spread`` set, category
prototypes are drawn first and identities scatter around them, which makes
same-category identities genuinely similar (useful for contrastive training
and for stress-testing association).

Everything is driven by one seeded generator in a fixed draw order, so a
given config always produces the identical scene, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroNormError
from .io import DetectionRecord, GroundTruthTrack, Vocabulary, VocabularyEntry
from .metrics import iou
from .train import TrainPair

_CONF_HIGH = 0.9  # floor for clean, correctly labeled detections
_CONF_ALPHA, _CONF_BETA = 8.0, 2.0  # Beta parameters of the confidence model


@dataclass
class SynthConfig:
    n_identities: int = 20
    n_frames: int = 100
    n_categories: int = 4
    embed_dim: int = 32
    noise_sigma: float = 0.0
    occlusion: list[tuple[int, int, int]] = field(default_factory=list)  # (identity, first, last)
    miss_rate: float = 0.0
    fp_rate: float = 0.0  # expected false positives per frame (Poisson)
    label_flip_prob: float = 0.0
    class_spread: float | None = None  # scatter of identities around their category
    scene_width: float = 1920.0
    scene_height: float = 1080.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_identities, self.n_frames, self.n_categories, self.embed_dim) < 1:
            raise ValueError("identities, frames, categories and embed_dim must be positive")
        if not all(math.isfinite(v) and v >= 0 for v in (self.noise_sigma, self.fp_rate)):
            raise ValueError("noise_sigma and fp_rate must be finite and non-negative")
        if self.class_spread is not None and not math.isfinite(self.class_spread):
            raise ValueError("class_spread must be finite")
        if not 0.0 <= self.miss_rate < 1.0 or not 0.0 <= self.label_flip_prob < 1.0:
            raise ValueError("miss_rate and label_flip_prob must lie in [0, 1)")
        for ident, lo, hi in self.occlusion:
            if not 0 <= ident < self.n_identities:
                raise ValueError(f"occlusion names identity {ident} outside range")
            if lo > hi:
                raise ValueError(f"occlusion window ({lo}, {hi}) is empty")


@dataclass(eq=False)
class SynthScene:
    config: SynthConfig
    detections: dict[int, list[DetectionRecord]]  # every frame, possibly empty
    gt_tracks: list[GroundTruthTrack]
    prototypes: dict[int, np.ndarray]  # identity -> unit float32 embedding
    category_prototypes: dict[int, np.ndarray]
    identity_category: dict[int, int]
    identity_observations: dict[int, list[tuple[int, np.ndarray]]]
    detection_identity: dict[int, list[int | None]]  # None marks a false positive
    vocabulary: Vocabulary


@dataclass
class Augmentations:
    """Embedding-space clip augmentations, all off by default."""

    rotate: bool = False  # shared random orthogonal transform per clip
    erase_fraction: float = 0.0  # fraction of coordinates zeroed per row
    scale_range: tuple[float, float] | None = None  # uniform factor, rows renormalized

    def __post_init__(self):
        if not 0.0 <= self.erase_fraction <= 1.0:
            raise ValueError("erase_fraction must lie in [0, 1]")
        if self.scale_range is not None:
            low, high = self.scale_range
            if not (0.0 < low <= high and math.isfinite(high)):  # false for NaN too
                raise ValueError(f"scale_range must be finite (low, high) with 0 < low <= high, "
                                 f"got ({low}, {high})")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _reflect(p: float, lim: float) -> float:
    """Position folded into [0, lim] by reflection."""
    if lim <= 0.0:
        return 0.0
    period = 2.0 * lim
    m = float(np.mod(p, period))
    return m if m <= lim else period - m


def gen_scene(cfg: SynthConfig) -> SynthScene:
    """Generate detections, ground truth and a matching vocabulary."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.embed_dim
    cats = {i: i % cfg.n_categories for i in range(cfg.n_identities)}

    if cfg.class_spread is None:
        protos64 = {i: _unit(rng.normal(size=d)) for i in range(cfg.n_identities)}
        cat_protos64 = {}
        for k in range(cfg.n_categories):
            members = [protos64[i] for i in range(cfg.n_identities) if cats[i] == k]
            mean = np.mean(members, axis=0) if members else rng.normal(size=d)
            if not mean.any():  # e.g. at embed_dim 1, one prototype +1 and one -1
                raise ZeroNormError(f"category {k}: its identities' prototypes average to zero, "
                                    "so it has no vocabulary row")
            cat_protos64[k] = _unit(mean)
    else:
        cat_protos64 = {k: _unit(rng.normal(size=d)) for k in range(cfg.n_categories)}
        protos64 = {i: _unit(cat_protos64[cats[i]] + cfg.class_spread * rng.normal(size=d))
                    for i in range(cfg.n_identities)}
    protos = {i: p.astype(np.float32) for i, p in protos64.items()}
    cat_protos = {k: p.astype(np.float32) for k, p in cat_protos64.items()}
    attr_protos = {k: _unit(cat_protos64[k] + 0.1 * rng.normal(size=d)).astype(np.float32)
                   for k in range(cfg.n_categories)}

    sizes = {i: (rng.uniform(40.0, 120.0), rng.uniform(40.0, 120.0))
             for i in range(cfg.n_identities)}
    starts = {}
    vels = {}
    for i in range(cfg.n_identities):
        w, h = sizes[i]
        lim_x = max(cfg.scene_width - w, 0.0)
        lim_y = max(cfg.scene_height - h, 0.0)
        starts[i] = (rng.uniform(0.0, lim_x), rng.uniform(0.0, lim_y))
        vels[i] = (rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))

    occluded: dict[int, set[int]] = {i: set() for i in range(cfg.n_identities)}
    for ident, lo, hi in cfg.occlusion:
        occluded[ident].update(range(lo, hi + 1))

    def box_at(i: int, f: int) -> tuple[float, float, float, float]:
        w, h = sizes[i]
        x = _reflect(starts[i][0] + vels[i][0] * f, max(cfg.scene_width - w, 0.0))
        y = _reflect(starts[i][1] + vels[i][1] * f, max(cfg.scene_height - h, 0.0))
        return (x, y, w, h)

    gt = [GroundTruthTrack(i, cats[i]) for i in range(cfg.n_identities)]
    detections: dict[int, list[DetectionRecord]] = {}
    det_identity: dict[int, list[int | None]] = {}
    ident_obs: dict[int, list[tuple[int, np.ndarray]]] = {i: [] for i in range(cfg.n_identities)}

    for f in range(cfg.n_frames):
        frame_dets: list[DetectionRecord] = []
        frame_ident: list[int | None] = []
        real_boxes: list[tuple[float, float, float, float]] = []
        for i in range(cfg.n_identities):
            if f in occluded[i]:
                continue
            bbox = box_at(i, f)
            gt[i].boxes[f] = bbox
            if cfg.miss_rate > 0 and rng.random() < cfg.miss_rate:
                continue
            if cfg.noise_sigma > 0:
                emb = _unit(protos64[i] + cfg.noise_sigma * rng.normal(size=d)).astype(np.float32)
            else:
                emb = protos[i]
            label = cats[i]
            if cfg.label_flip_prob > 0 and rng.random() < cfg.label_flip_prob and cfg.n_categories > 1:
                shift = int(rng.integers(1, cfg.n_categories))
                label = (label + shift) % cfg.n_categories
            base = float(rng.beta(_CONF_ALPHA, _CONF_BETA))
            if cfg.noise_sigma == 0 and label == cats[i]:
                conf = _CONF_HIGH + (1.0 - _CONF_HIGH) * base
            else:
                conf = base
            frame_dets.append(DetectionRecord(f, bbox, conf, label, conf, emb))
            frame_ident.append(i)
            real_boxes.append(bbox)
            ident_obs[i].append((f, emb))
        if cfg.fp_rate > 0:
            for _ in range(int(rng.poisson(cfg.fp_rate))):
                emb = _unit(rng.normal(size=d)).astype(np.float32)
                best = None
                for _attempt in range(8):  # prefer boxes clear of real objects
                    w = rng.uniform(30.0, 80.0)
                    h = rng.uniform(30.0, 80.0)
                    x = rng.uniform(0.0, max(cfg.scene_width - w, 1.0))
                    y = rng.uniform(0.0, max(cfg.scene_height - h, 1.0))
                    cand = (x, y, w, h)
                    overlap = max((iou(cand, b) for b in real_boxes), default=0.0)
                    if best is None or overlap < best[0]:
                        best = (overlap, cand)
                    if overlap == 0.0:
                        break
                label = int(rng.integers(cfg.n_categories))
                conf = float(rng.beta(2.0, 5.0))
                frame_dets.append(DetectionRecord(f, best[1], conf, label, conf, emb))
                frame_ident.append(None)
        detections[f] = frame_dets
        det_identity[f] = frame_ident

    entries = [
        VocabularyEntry(
            category_id=k,
            name=f"class_{k}",
            split="base" if k % 2 == 0 else "novel",
            description=f"synthetic object family {k}",
            cate_embedding=cat_protos[k],
            attr_embedding=attr_protos[k],
        )
        for k in range(cfg.n_categories)
    ]
    vocab = Vocabulary(entries, d)
    return SynthScene(
        config=cfg, detections=detections, gt_tracks=gt, prototypes=protos,
        category_prototypes=cat_protos, identity_category=cats,
        identity_observations=ident_obs, detection_identity=det_identity,
        vocabulary=vocab,
    )


def _random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _augment_clip(clip: np.ndarray, aug: Augmentations, rng: np.random.Generator) -> np.ndarray:
    clip = clip.copy()
    d = clip.shape[1]
    if aug.rotate:
        clip = clip @ _random_orthogonal(d, rng)
    k = int(round(aug.erase_fraction * d))
    if k > 0:
        for row in clip:
            row[rng.choice(d, size=k, replace=False)] = 0.0
    if aug.scale_range is not None:
        clip *= rng.uniform(aug.scale_range[0], aug.scale_range[1])
        norms = np.linalg.norm(clip, axis=1, keepdims=True)
        np.divide(clip, norms, out=clip, where=norms > 0)
    return clip


def _clip_rows(obs: list[tuple[int, np.ndarray]], n_clip: int,
               rng: np.random.Generator) -> np.ndarray:
    if len(obs) > n_clip:
        idx = np.sort(rng.choice(len(obs), size=n_clip, replace=False))
    else:
        idx = np.arange(len(obs))
    return np.stack([obs[j][1] for j in idx]).astype(np.float64)


def make_train_pairs(scene: SynthScene, n_clip: int = 5,
                     augmentations: Augmentations | None = None,
                     seed: int = 0, n_pairs: int = 64) -> list[TrainPair]:
    """Balanced positive/negative clip pairs from scene trajectories.

    Positives draw two trajectories of one category (the same trajectory
    twice, with different sampled frames, when a category has only one);
    negatives draw trajectories of two different categories. Augmentations
    are applied per clip.
    """
    if n_clip < 1:
        raise ValueError("n_clip must be at least 1")
    aug = augmentations or Augmentations()
    rng = np.random.default_rng(seed)
    by_cat: dict[int, list[int]] = {}
    for ident, obs in scene.identity_observations.items():
        if obs:
            by_cat.setdefault(scene.identity_category[ident], []).append(ident)
    cats = sorted(by_cat)
    if len(cats) < 2:
        raise ValueError("pair construction needs at least two categories with observations")
    pairs: list[TrainPair] = []
    for k in range(n_pairs):
        if k % 2 == 0:  # positive
            c = cats[int(rng.integers(len(cats)))]
            ids = by_cat[c]
            if len(ids) >= 2:
                pick = rng.choice(len(ids), size=2, replace=False)
                ia, ib = ids[int(pick[0])], ids[int(pick[1])]
            else:
                ia = ib = ids[0]
            y = 1
        else:
            pick = rng.choice(len(cats), size=2, replace=False)
            ia = by_cat[cats[int(pick[0])]][int(rng.integers(len(by_cat[cats[int(pick[0])]])))]
            ib = by_cat[cats[int(pick[1])]][int(rng.integers(len(by_cat[cats[int(pick[1])]])))]
            y = 0
        clip_a = _augment_clip(_clip_rows(scene.identity_observations[ia], n_clip, rng), aug, rng)
        clip_b = _augment_clip(_clip_rows(scene.identity_observations[ib], n_clip, rng), aug, rng)
        pairs.append(TrainPair(clip_a, clip_b, y))
    return pairs
