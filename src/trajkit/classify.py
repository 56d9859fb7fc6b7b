"""Trajectory-level open-vocabulary classification.

A trajectory is a list of ``io.TrackEntry`` rows (``Track.observations`` or
a ``tracks.jsonl`` record) and the embedding of each row, which
``record_embeddings`` reads from the detection the row indexes. It is
classified by fusing a sampled clip of its embeddings into one vector and
comparing that vector against projected language embeddings of the
vocabulary. Three candidate labels compete:

- ``cate``: best cosine against the category-name embeddings,
- ``attr``: best cosine against the attribute-description embeddings
  (texts of the ``"name: description"`` shape),
- ``det``: majority vote over the entries' retained categories, scored by
  the winning proportion.

The candidate with the highest score wins; ties prefer det, then cate,
then attr. Without a vocabulary only the det channel competes.
``check_labelling`` decides whether a vocabulary, weights and embeddings can
label at all; ``project_vocabulary`` runs it once per run.
``label_record`` is the one place a ``TrackRecord`` (``to_track_record`` of
a live track, or a ``tracks.jsonl`` record) gets its label. The ``concat``
fusion mechanism scores every vocabulary entry directly instead of
producing a fused trajectory vector: the clip is scored as stacked with
each projected language row, every row of a channel at once and in closed
form (one ``concat_score`` call for the category rows, one for the
attribute rows).
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
from .io import DetectionFrame, DetectionRecord, TrackEntry, TrackRecord, Vocabulary
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
class TrajectoryClassification:
    cate_id: int | None  # cate and attr are None when no vocabulary competed
    cate_score: float | None
    attr_id: int | None
    attr_score: float | None
    det_id: int
    det_score: float
    final: int
    final_source: str  # "cate" | "attr" | "det"

    def score_dict(self) -> dict[str, float]:
        """The score of each channel that competed."""
        scores = {"cate": self.cate_score, "attr": self.attr_score, "det": self.det_score}
        return {name: score for name, score in scores.items() if score is not None}


def sample_clip(entries: Sequence[TrackEntry], embeddings: Sequence[np.ndarray],
                n_clip: int = 5) -> np.ndarray:
    """The (n, d) float64 clip fed to fusion: the rows of the top n_clip entries by confidence.

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
    return np.stack([emb for _, emb in picked]).astype(np.float64)


def project_language(vocab: Vocabulary, lang_proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project category and attribute embeddings into the visual space.

    ``lang_proj`` has shape (dim_text, d); rows of the returned matrices are
    per-category projected vectors, in vocabulary order.
    """
    lang_proj = np.asarray(lang_proj, dtype=np.float64)
    return vocab.cate_matrix() @ lang_proj, vocab.attr_matrix() @ lang_proj


@dataclass
class LanguageRows:
    """Projected vocabulary rows and their L2 norms, computed once per command."""

    cate: np.ndarray
    attr: np.ndarray
    cate_norms: np.ndarray
    attr_norms: np.ndarray


def check_labelling(dim_text: int | None, width: int | None, weights: FusionWeights | None = None,
                    fusion: str = "average") -> None:
    """Refuse inputs that cannot label: weights must be the embeddings' ``width`` and project the
    vocabulary's ``dim_text`` (each None when unknown); without weights, average fusion projects
    by identity."""
    if weights is not None:
        if width is not None and weights.d != width:
            raise DimMismatchError(f"weights are {weights.d} wide, embeddings {width}")
        rows = weights["lang_proj.w"].shape[0]
        if dim_text is not None and rows != dim_text:
            raise DimMismatchError(f"lang_proj.w has {rows} rows, vocabulary dim_text is {dim_text}")
    elif dim_text is not None:
        if fusion != "average":
            raise MissingWeightsError(f"fusion={fusion!r} needs a weight bundle")
        if width is not None and dim_text != width:
            raise DimMismatchError(f"identity projection needs dim_text == d, got {dim_text} vs {width}")


def project_vocabulary(vocab: Vocabulary, weights: FusionWeights | None = None,
                       fusion: str = "average", width: int | None = None) -> LanguageRows:
    """Language rows for every track of a run, once ``check_labelling`` passes; a row that
    projects to zero has no cosine, so it is refused here rather than per trajectory."""
    check_labelling(vocab.dim_text, width, weights, fusion)
    lang_proj = np.eye(vocab.dim_text) if weights is None else weights["lang_proj.w"]
    f_cate, f_attr = project_language(vocab, lang_proj)
    lang = LanguageRows(f_cate, f_attr, np.linalg.norm(f_cate, axis=1), np.linalg.norm(f_attr, axis=1))
    for key, norms in (("cate_emb", lang.cate_norms), ("attr_emb", lang.attr_norms)):
        if not norms.all():  # argmin: the first zero
            raise ZeroNormError(f"lang_proj.w projects the {key} of vocabulary entry "
                                f"{norms.argmin()} to zero")
    return lang


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
        row_norms = np.linalg.norm(lang_rows, axis=1)
    norm = np.linalg.norm(f)
    if norm == 0.0 or np.any(row_norms == 0.0):
        raise ZeroNormError("cosine undefined for zero-norm vector")
    return (lang_rows @ f) / (norm * row_norms)


# Every mechanism but concat. Each entry looks its fuse function up in this
# module when called, so a wrapper bound to the module's name (as the
# benchmark's tracer binds one) sees every call.
_FUSE = {
    "average": lambda rows, weights, heads: fuse_average(rows),
    "attention": lambda rows, weights, heads: fuse_attention(rows, weights, heads),
    "self": lambda rows, weights, heads: fuse_self(rows, weights, heads),
    "cross": lambda rows, weights, heads: fuse_cross(rows, weights, heads),
}


def classify_trajectory(entries: Sequence[TrackEntry], embeddings: Sequence[np.ndarray],
                        vocab: Vocabulary | None, weights: FusionWeights | None = None,
                        cfg: ClassifyConfig | None = None,
                        lang: LanguageRows | None = None) -> TrajectoryClassification:
    """Assign a trajectory-level category; ``embeddings[i]`` belongs to ``entries[i]``.

    ``weights=None`` is allowed for average fusion when the vocabulary lives
    in the visual space already (identity language projection). ``lang`` is
    ``project_vocabulary(vocab, weights, cfg.fusion, width)``; pass it when
    classifying many tracks so the inputs are checked and the vocabulary
    projected once. ``vocab=None`` leaves the det channel alone to label.
    """
    det_id, det_score = majority_vote([e.category_id for e in entries])
    if vocab is None:
        return TrajectoryClassification(None, None, None, None, det_id, det_score, det_id, "det")
    cfg = cfg or ClassifyConfig()
    clip = sample_clip(entries, embeddings, cfg.n_clip)
    if lang is None:
        lang = project_vocabulary(vocab, weights, cfg.fusion, clip.shape[1])

    ids = vocab.ids
    if cfg.fusion == "concat":
        s_cate = concat_score(clip, lang.cate, weights, cfg.heads)
        s_attr = concat_score(clip, lang.attr, weights, cfg.heads)
    else:
        f_traj = _FUSE[cfg.fusion](clip, weights, cfg.heads)
        s_cate = affinity(f_traj, lang.cate, lang.cate_norms)
        s_attr = affinity(f_traj, lang.attr, lang.attr_norms)
        if cfg.calibrate_scores:
            s_cate = (1.0 + s_cate) / 2.0
            s_attr = (1.0 + s_attr) / 2.0
    k_cate, k_attr = int(np.argmax(s_cate)), int(np.argmax(s_attr))
    cate, attr = (ids[k_cate], float(s_cate[k_cate])), (ids[k_attr], float(s_attr[k_attr]))
    # max keeps the first of equals, so ties prefer det, then cate, then attr
    source, (final, _) = max((("det", (det_id, det_score)), ("cate", cate), ("attr", attr)),
                             key=lambda c: c[1][1])
    return TrajectoryClassification(*cate, *attr, det_id, det_score, final, source)


def to_track_record(track: Track) -> TrackRecord:
    """A live track's entries, unlabelled, for ``label_record`` and serialization."""
    return TrackRecord(track.id, list(track.observations))


def label_record(record: TrackRecord, classification: TrajectoryClassification) -> TrackRecord:
    """Set the record's trajectory label, its source and the channel scores."""
    record.label = classification.final
    record.label_source = classification.final_source
    record.scores = classification.score_dict()
    return record


def record_embeddings(record: TrackRecord,
                      dets_by_frame: dict[int, DetectionFrame | Sequence[DetectionRecord]]) -> list[np.ndarray]:
    """The embedding of each of a tracks.jsonl record's entries, from its detections: a row of
    the frame's ``embedding`` column, or of a frame's list of records the record's embedding."""
    embeddings = []
    for e in record.entries:
        frame_dets = dets_by_frame.get(e.frame)
        if frame_dets is None or not 0 <= e.det_idx < len(frame_dets):
            raise FormatError(
                f"track {record.track_id} references detection {e.det_idx} of frame {e.frame}, "
                f"which the detections file does not contain")
        embeddings.append(frame_dets.embedding[e.det_idx] if isinstance(frame_dets, DetectionFrame)
                          else frame_dets[e.det_idx].embedding)
    return embeddings
