"""Trajectory-level open-vocabulary classification.

A finished track is classified by fusing a sampled clip of its appearance
embeddings into one vector and comparing that vector against projected
language embeddings of the vocabulary. Three candidate labels compete:

- ``cate``: best cosine against the category-name embeddings,
- ``attr``: best cosine against the attribute-description embeddings
  (texts of the ``"name: description"`` shape),
- ``det``: majority vote over the per-frame retained predictions, scored by
  the winning proportion.

The candidate with the highest score wins; ties prefer det, then cate,
then attr. The ``concat`` fusion mechanism scores each vocabulary entry
directly (clip and language vector stacked into one attention pass) instead
of producing a fused trajectory vector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, FormatError, MissingWeightsError, ZeroNormError
from .fusion import (
    FUSION_MECHANISMS,
    FusionWeights,
    concat_score,
    fuse_attention,
    fuse_average,
    fuse_cross,
    fuse_self,
)
from .io import DetectionRecord, TrackEntry, TrackRecord, Vocabulary
from .tracker import Observation, RetainedPred, Track, majority_vote


@dataclass
class ClassifyConfig:
    fusion: str = "average"
    n_clip: int = 5  # observations kept per clip
    heads: int = 1
    calibrate_scores: bool = False  # map cosines through (1 + cos) / 2

    def __post_init__(self):
        if self.fusion not in FUSION_MECHANISMS:
            raise ValueError(f"fusion must be one of {FUSION_MECHANISMS}, got {self.fusion!r}")
        if self.n_clip < 1:
            raise ValueError("n_clip must be at least 1")


@dataclass
class ClipSample:
    rows: np.ndarray  # (n, d) float64, chronological
    frames: list[int]


@dataclass
class TrajectoryClassification:
    cate_id: int
    cate_score: float
    attr_id: int
    attr_score: float
    det_id: int | None
    det_score: float
    final: int
    final_source: str  # "cate" | "attr" | "det"

    def score_dict(self) -> dict[str, float]:
        return {"cate": self.cate_score, "attr": self.attr_score, "det": self.det_score}


def sample_clip(track: Track, n_clip: int = 5) -> ClipSample:
    """Pick the clip fed to fusion: top n_clip observations by confidence.

    Short tracks are taken whole. Confidence ties prefer the earlier frame.
    Rows come back in chronological order regardless of how they were picked.
    """
    if not track.observations:
        raise ValueError(f"track {track.id} has no observations to sample")
    obs = sorted(track.observations, key=lambda o: o.frame)
    if len(obs) > n_clip:
        obs = sorted(obs, key=lambda o: (-o.confidence, o.frame))[:n_clip]
        obs.sort(key=lambda o: o.frame)
    rows = np.stack([track.embeddings[o.emb_index] for o in obs]).astype(np.float64)
    return ClipSample(rows, [o.frame for o in obs])


def build_attribute_text(name: str, description: str) -> str:
    """Attribute prompt of the fixed 'name: description' shape."""
    return f"{name}: {description}"


def project_language(vocab: Vocabulary, lang_proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project category and attribute embeddings into the visual space.

    ``lang_proj`` has shape (dim_text, d); rows of the returned matrices are
    per-category projected vectors, in vocabulary order.
    """
    lang_proj = np.asarray(lang_proj, dtype=np.float64)
    if lang_proj.ndim != 2 or lang_proj.shape[0] != vocab.dim_text:
        raise DimMismatchError(
            f"lang_proj shape {lang_proj.shape} incompatible with dim_text {vocab.dim_text}")
    return vocab.cate_matrix() @ lang_proj, vocab.attr_matrix() @ lang_proj


@dataclass
class LanguageRows:
    """Projected vocabulary rows and their L2 norms, computed once per command."""

    cate: np.ndarray
    attr: np.ndarray
    cate_norms: np.ndarray
    attr_norms: np.ndarray


def project_vocabulary(vocab: Vocabulary, weights: FusionWeights | None = None) -> LanguageRows:
    """Language rows for every track of a run; ``weights=None`` projects by identity."""
    lang_proj = np.eye(vocab.dim_text) if weights is None else weights.lang_proj
    f_cate, f_attr = project_language(vocab, lang_proj)
    return LanguageRows(f_cate, f_attr, _row_norms(f_cate), _row_norms(f_attr))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # Row by row, so each norm has the bits cosine() would compute for that row.
    return np.array([np.linalg.norm(row) for row in rows])


def affinity(f_traj: np.ndarray, lang_rows: np.ndarray,
             row_norms: np.ndarray | None = None) -> np.ndarray:
    """Cosine of the fused trajectory vector against each language row.

    ``row_norms`` are the rows' L2 norms, when the caller already has them.
    """
    f = np.asarray(f_traj, dtype=np.float64)
    lang_rows = np.atleast_2d(np.asarray(lang_rows, dtype=np.float64))
    if lang_rows.shape[1:] != f.shape:
        raise DimMismatchError(f"vectors disagree in shape: {f.shape} vs {lang_rows.shape[1:]}")
    if row_norms is None:
        row_norms = _row_norms(lang_rows)
    norm = np.linalg.norm(f)
    if norm == 0.0 or np.any(row_norms == 0.0):
        raise ZeroNormError("cosine undefined for zero-norm vector")
    return np.array([f @ row / (norm * n) for row, n in zip(lang_rows, row_norms)])


def _fuse(rows: np.ndarray, weights: FusionWeights | None, cfg: ClassifyConfig) -> np.ndarray:
    if cfg.fusion == "average":
        return fuse_average(rows)
    if cfg.fusion == "attention":
        return fuse_attention(rows, weights, cfg.heads)
    if cfg.fusion == "self":
        return fuse_self(rows, weights, cfg.heads)
    if cfg.fusion == "self_noresidual":
        return fuse_self(rows, weights, cfg.heads, residual=False)
    if cfg.fusion == "cross":
        return fuse_cross(rows, weights, cfg.heads)
    raise ValueError(f"unknown fusion {cfg.fusion!r}")


def classify_trajectory(track: Track, vocab: Vocabulary,
                        weights: FusionWeights | None = None,
                        cfg: ClassifyConfig | None = None,
                        lang: LanguageRows | None = None) -> TrajectoryClassification:
    """Assign a trajectory-level category to a finished track.

    ``weights=None`` is allowed for average fusion when the vocabulary lives
    in the visual space already (identity language projection). ``lang`` is
    ``project_vocabulary(vocab, weights)``; pass it when classifying many
    tracks so the vocabulary is projected once.
    """
    cfg = cfg or ClassifyConfig()
    clip = sample_clip(track, cfg.n_clip)
    d = clip.rows.shape[1]
    if weights is None:
        if cfg.fusion != "average":
            raise MissingWeightsError(f"fusion={cfg.fusion!r} needs a weight bundle")
        if vocab.dim_text != d:
            raise DimMismatchError(
                f"identity projection needs dim_text == d, got {vocab.dim_text} vs {d}")
    if lang is None:
        lang = project_vocabulary(vocab, weights)

    ids = vocab.ids
    if cfg.fusion == "concat":
        s_cate = np.array([concat_score(clip.rows, row, weights, cfg.heads) for row in lang.cate])
        s_attr = np.array([concat_score(clip.rows, row, weights, cfg.heads) for row in lang.attr])
    else:
        f_traj = _fuse(clip.rows, weights, cfg)
        s_cate = affinity(f_traj, lang.cate, lang.cate_norms)
        s_attr = affinity(f_traj, lang.attr, lang.attr_norms)
        if cfg.calibrate_scores:
            s_cate = (1.0 + s_cate) / 2.0
            s_attr = (1.0 + s_attr) / 2.0
    k_cate = int(np.argmax(s_cate))
    k_attr = int(np.argmax(s_attr))

    retained = [rp.category_id for rp in track.retained_preds]
    if retained:
        det_id, det_score = majority_vote(retained)
    else:
        det_id, det_score = None, float("-inf")

    candidates = [
        ("det", det_id, det_score),
        ("cate", ids[k_cate], float(s_cate[k_cate])),
        ("attr", ids[k_attr], float(s_attr[k_attr])),
    ]
    # max keeps the first of equals, so ties prefer det, then cate, then attr
    source, final, _ = max(candidates, key=lambda c: c[2])
    return TrajectoryClassification(
        cate_id=ids[k_cate], cate_score=float(s_cate[k_cate]),
        attr_id=ids[k_attr], attr_score=float(s_attr[k_attr]),
        det_id=det_id, det_score=float(det_score) if retained else 0.0,
        final=final, final_source=source,
    )


def to_track_record(track: Track,
                    classification: TrajectoryClassification | None = None) -> TrackRecord:
    """Flatten a live track (plus optional classification) for serialization."""
    entries = [
        TrackEntry(obs.frame, obs.bbox, obs.confidence, rp.category_id, obs.det_idx)
        for obs, rp in zip(track.observations, track.retained_preds)
    ]
    rec = TrackRecord(track.id, entries)
    if classification is not None:
        rec.label = classification.final
        rec.label_source = classification.final_source
        rec.scores = classification.score_dict()
    return rec


def track_from_record(record: TrackRecord,
                      dets_by_frame: dict[int, list[DetectionRecord]]) -> Track:
    """Rebuild a classify-ready track from tracks.jsonl plus its detections."""
    observations, embeddings, retained = [], [], []
    for i, e in enumerate(record.entries):
        frame_dets = dets_by_frame.get(e.frame)
        if frame_dets is None or not 0 <= e.det_idx < len(frame_dets):
            raise FormatError(
                f"track {record.track_id} references detection {e.det_idx} of frame {e.frame}, "
                f"which the detections file does not contain")
        observations.append(Observation(e.frame, e.bbox, e.confidence, e.det_idx, i))
        embeddings.append(frame_dets[e.det_idx].embedding)
        retained.append(RetainedPred(e.frame, e.category_id, e.confidence))
    memory = np.asarray(embeddings[-1], dtype=np.float64) if embeddings else np.zeros(1)
    return Track(id=record.track_id, memory=memory, feature_bank=np.zeros((0, memory.size)),
                 category_bank=deque(), observations=observations,
                 embeddings=embeddings, retained_preds=retained)
