"""Trajectory-level open-vocabulary classification.

A trajectory is a list of ``io.TrackEntry`` rows (``Track.observations`` or
a ``tracks.jsonl`` record) and the embedding of each row (``Track.embeddings``
or ``record_embeddings``). It is classified by fusing a sampled clip of its
embeddings into one vector and comparing that vector against projected
language embeddings of the vocabulary. Three candidate labels compete:

- ``cate``: best cosine against the category-name embeddings,
- ``attr``: best cosine against the attribute-description embeddings
  (texts of the ``"name: description"`` shape),
- ``det``: majority vote over the entries' retained categories, scored by
  the winning proportion.

The candidate with the highest score wins; ties prefer det, then cate,
then attr. The ``concat`` fusion mechanism scores every vocabulary entry
directly instead of producing a fused trajectory vector: the clip is stacked
with each projected language row and all the stacks of a channel are
attended in one batched pass (one ``concat_score`` call for the category
rows, one for the attribute rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
from .tracker import Track, majority_vote


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
    det_id: int
    det_score: float
    final: int
    final_source: str  # "cate" | "attr" | "det"

    def score_dict(self) -> dict[str, float]:
        return {"cate": self.cate_score, "attr": self.attr_score, "det": self.det_score}


def sample_clip(entries: Sequence[TrackEntry], embeddings: Sequence[np.ndarray],
                n_clip: int = 5) -> ClipSample:
    """Pick the clip fed to fusion: top n_clip entries by confidence.

    ``embeddings[i]`` belongs to ``entries[i]``. Short trajectories are taken
    whole. Confidence ties prefer the earlier frame. Rows come back in
    chronological order regardless of how they were picked.
    """
    if not entries:
        raise ValueError("a trajectory needs at least one entry to sample")
    picked = sorted(zip(entries, embeddings), key=lambda p: p[0].frame)
    if len(picked) > n_clip:
        picked = sorted(picked, key=lambda p: (-p[0].confidence, p[0].frame))[:n_clip]
        picked.sort(key=lambda p: p[0].frame)
    rows = np.stack([emb for _, emb in picked]).astype(np.float64)
    return ClipSample(rows, [e.frame for e, _ in picked])


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


# Every mechanism but concat. Each entry looks its fuse function up in this
# module when called, so a wrapper bound to the module's name (as the
# benchmark's tracer binds one) sees every call.
_FUSE = {
    "average": lambda rows, weights, heads: fuse_average(rows),
    "attention": lambda rows, weights, heads: fuse_attention(rows, weights, heads),
    "self": lambda rows, weights, heads: fuse_self(rows, weights, heads),
    "self_noresidual": lambda rows, weights, heads: fuse_self(rows, weights, heads, residual=False),
    "cross": lambda rows, weights, heads: fuse_cross(rows, weights, heads),
}


def classify_trajectory(entries: Sequence[TrackEntry], embeddings: Sequence[np.ndarray],
                        vocab: Vocabulary, weights: FusionWeights | None = None,
                        cfg: ClassifyConfig | None = None,
                        lang: LanguageRows | None = None) -> TrajectoryClassification:
    """Assign a trajectory-level category; ``embeddings[i]`` belongs to ``entries[i]``.

    ``weights=None`` is allowed for average fusion when the vocabulary lives
    in the visual space already (identity language projection). ``lang`` is
    ``project_vocabulary(vocab, weights)``; pass it when classifying many
    tracks so the vocabulary is projected once.
    """
    cfg = cfg or ClassifyConfig()
    clip = sample_clip(entries, embeddings, cfg.n_clip)
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
        s_cate = concat_score(clip.rows, lang.cate, weights, cfg.heads)
        s_attr = concat_score(clip.rows, lang.attr, weights, cfg.heads)
    else:
        f_traj = _FUSE[cfg.fusion](clip.rows, weights, cfg.heads)
        s_cate = affinity(f_traj, lang.cate, lang.cate_norms)
        s_attr = affinity(f_traj, lang.attr, lang.attr_norms)
        if cfg.calibrate_scores:
            s_cate = (1.0 + s_cate) / 2.0
            s_attr = (1.0 + s_attr) / 2.0
    k_cate = int(np.argmax(s_cate))
    k_attr = int(np.argmax(s_attr))

    det_id, det_score = majority_vote([e.category_id for e in entries])

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
        det_id=det_id, det_score=det_score,
        final=final, final_source=source,
    )


def to_track_record(track: Track,
                    classification: TrajectoryClassification | None = None) -> TrackRecord:
    """A live track's entries (plus optional classification) for serialization."""
    rec = TrackRecord(track.id, list(track.observations))
    return rec if classification is None else label_record(rec, classification)


def label_record(record: TrackRecord, classification: TrajectoryClassification) -> TrackRecord:
    """Set the record's trajectory label, its source and the channel scores."""
    record.label = classification.final
    record.label_source = classification.final_source
    record.scores = classification.score_dict()
    return record


def record_embeddings(record: TrackRecord,
                      dets_by_frame: dict[int, list[DetectionRecord]]) -> list[np.ndarray]:
    """The embedding of each of a tracks.jsonl record's entries, from its detections."""
    embeddings = []
    for e in record.entries:
        frame_dets = dets_by_frame.get(e.frame)
        if frame_dets is None or not 0 <= e.det_idx < len(frame_dets):
            raise FormatError(
                f"track {record.track_id} references detection {e.det_idx} of frame {e.frame}, "
                f"which the detections file does not contain")
        embeddings.append(frame_dets[e.det_idx].embedding)
    return embeddings
