"""Appearance-only multi-object association with feature and category banks.

Each track keeps three things besides its box history:

- ``memory``: an exponential moving average of matched embeddings,
  ``alpha_mem * det + (1 - alpha_mem) * memory``. Its unit-normalized copy,
  ``memory_unit``, is refreshed only when the memory changes.
- ``feature_bank``: the last ``n_bank`` matched embeddings (FIFO), held as
  one contiguous ``(n, d)`` float64 array of unit rows, oldest first. A row
  is normalized once, when it is inserted. The bank similarity is the mean
  cosine against every entry, which is considerably more noise tolerant
  than the EMA alone.
- ``category_bank``: the last ``n_cat_bank`` retained category ids, used to
  smooth noisy per-frame classifications through majority voting.

Similarity between a track and a detection blends the memory and bank
cosines, ``alpha_sim * C_mem + (1 - alpha_sim) * C_bank``, optionally
averaged with a bi-directional softmax of the same matrix. Matching is a
greedy per-detection argmax in descending confidence order; there is no
motion model and no box gating, appearance carries everything.

``Tracker`` keeps its live tracks (active or lost) in a list in id order and
drops a track from it in the frame the track dies, so per-frame work grows
with the live tracks only, never with every track ever born. Scoring a frame
then costs one concatenation of the live banks, two matrix products and the
bi-softmax. The scores of the last step and the ids of the tracks they rank
stay on the tracker as ``last_scores`` and ``last_ids``.

The embeddings and memory a track stores as observed are never mutated;
only the bank and ``memory_unit`` hold normalized copies.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import softmax

from .errors import DimMismatchError, ZeroNormError
from .io import BBox, DetectionRecord

SIM_MODES = ("cosine_only", "cosine_plus_bisoftmax")

MATCHED = "matched"
BORN = "born"
DISCARDED = "discarded"
DIED = "died"


class TrackState(str, Enum):
    ACTIVE = "active"
    LOST = "lost"
    DEAD = "dead"


@dataclass
class TrackerConfig:
    alpha_mem: float = 0.25  # EMA weight of the incoming embedding
    alpha_sim: float = 0.25  # weight of the memory cosine in the blend
    tau_match: float = 0.4  # min score to accept a match
    tau_new: float | None = None  # min confidence to start a track; defaults to tau_high
    tau_high: float = 0.3  # confidence above which a raw category is retained as-is
    tau_low: float = 0.1  # confidence below which only the bank votes
    n_bank: int = 15
    n_cat_bank: int = 5
    max_age: int = 30  # frames without a match before a track dies
    sim_mode: str = "cosine_plus_bisoftmax"
    softmax_temperature: float = 1.0

    def __post_init__(self):
        if self.tau_new is None:
            self.tau_new = self.tau_high
        if not 0.0 <= self.alpha_mem <= 1.0:
            raise ValueError(f"alpha_mem must lie in [0, 1], got {self.alpha_mem}")
        if not 0.0 <= self.alpha_sim <= 1.0:
            raise ValueError(f"alpha_sim must lie in [0, 1], got {self.alpha_sim}")
        for name in ("tau_match", "tau_new", "tau_high", "tau_low"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau_low > self.tau_high:
            raise ValueError(f"tau_low ({self.tau_low}) must not exceed tau_high ({self.tau_high})")
        if self.n_bank < 1 or self.n_cat_bank < 1:
            raise ValueError("bank sizes must be at least 1")
        if self.max_age < 0:
            raise ValueError("max_age must be non-negative")
        if self.sim_mode not in SIM_MODES:
            raise ValueError(f"sim_mode must be one of {SIM_MODES}, got {self.sim_mode!r}")
        if self.softmax_temperature <= 0:
            raise ValueError("softmax_temperature must be positive")


@dataclass
class Observation:
    frame: int
    bbox: BBox
    confidence: float
    det_idx: int  # index of the detection within its frame
    emb_index: int  # index into Track.embeddings


@dataclass
class RetainedPred:
    frame: int
    category_id: int
    confidence: float


@dataclass(eq=False)
class Track:
    id: int
    memory: np.ndarray  # float64 EMA of matched embeddings
    feature_bank: np.ndarray  # (n <= n_bank, d) float64 unit rows, oldest first
    category_bank: deque  # of int category ids, maxlen n_cat_bank
    state: TrackState = TrackState.ACTIVE
    retained_preds: list[RetainedPred] = field(default_factory=list)
    observations: list[Observation] = field(default_factory=list)
    embeddings: list[np.ndarray] = field(default_factory=list)  # as observed
    last_matched_frame: int = -1
    memory_unit: np.ndarray | None = None  # memory / ||memory||, kept by start() and absorb()

    @classmethod
    def start(cls, track_id: int, embedding: np.ndarray, cfg: TrackerConfig) -> Track:
        """A track whose memory and bank hold one embedding and no categories yet."""
        emb = np.asarray(embedding, dtype=np.float64)
        unit = _unit_row(emb)
        return cls(id=track_id, memory=emb.copy(), feature_bank=unit[None, :],
                   category_bank=deque(maxlen=cfg.n_cat_bank), memory_unit=unit)

    def absorb(self, embedding: np.ndarray, cfg: TrackerConfig) -> None:
        """Fold a matched embedding into the memory and push it into the bank."""
        self.memory = update_memory(self.memory, embedding, cfg.alpha_mem)
        self.memory_unit = _unit_row(self.memory)
        self.push_bank(embedding, cfg.n_bank)

    def push_bank(self, embedding: np.ndarray, n_bank: int) -> None:
        """Append the embedding's unit row, dropping the oldest rows past n_bank."""
        unit = _unit_row(np.asarray(embedding, dtype=np.float64))
        keep = self.feature_bank[max(len(self.feature_bank) - n_bank + 1, 0):]
        self.feature_bank = np.concatenate([keep, unit[None, :]])


@dataclass
class AssociationEvent:
    frame: int
    kind: str  # matched | born | discarded | died
    track_id: int | None = None
    det_idx: int | None = None
    score: float | None = None


def update_memory(memory: np.ndarray, det_emb: np.ndarray, alpha_mem: float) -> np.ndarray:
    """EMA update: alpha_mem * det + (1 - alpha_mem) * memory."""
    memory = np.asarray(memory, dtype=np.float64)
    det = np.asarray(det_emb, dtype=np.float64)
    if memory.shape != det.shape:
        raise DimMismatchError(f"memory has shape {memory.shape}, detection {det.shape}")
    return alpha_mem * det + (1.0 - alpha_mem) * memory


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; raises ZeroNormError on a zero vector."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimMismatchError(f"vectors disagree in shape: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for zero-norm vector")
    return float(a @ b / (na * nb))


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroNormError("cannot normalize zero-norm embedding")
    return x / norms


def _unit_row(x: np.ndarray) -> np.ndarray:
    # The sum of squares that np.linalg.norm reduces, so the bits match the
    # same row normalized by _normalize_rows, at a third of its overhead.
    norm = np.sqrt(np.add.reduce(x * x))
    if norm == 0.0:
        raise ZeroNormError("cannot normalize zero-norm embedding")
    return x / norm


def bisoftmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Mean of row-wise and column-wise softmax of logits / temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = np.asarray(logits, dtype=np.float64) / temperature
    if logits.ndim != 2:
        raise DimMismatchError(f"bisoftmax expects a matrix, got shape {logits.shape}")
    return 0.5 * (softmax(logits, axis=1) + softmax(logits, axis=0))


def score_matrix(tracks: Sequence[Track], dets: Sequence[DetectionRecord],
                 cfg: TrackerConfig) -> np.ndarray:
    """(T, D) association scores between live tracks and detections."""
    T, D = len(tracks), len(dets)
    if T == 0 or D == 0:
        return np.zeros((T, D))
    det_n = _normalize_rows(np.stack([d.embedding for d in dets]).astype(np.float64))
    mem_n = np.stack([t.memory_unit for t in tracks])
    c_mem = mem_n @ det_n.T
    banks = [t.feature_bank for t in tracks]
    counts = np.array([len(b) for b in banks])
    if np.any(counts == 0):
        raise ValueError("every track needs a non-empty feature bank")
    sims = np.concatenate(banks) @ det_n.T
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    c_bank = np.add.reduceat(sims, offsets, axis=0) / counts[:, None]
    r = cfg.alpha_sim * c_mem + (1.0 - cfg.alpha_sim) * c_bank
    if cfg.sim_mode == "cosine_only":
        return r
    # Embeddings are unit vectors inside this op, so the dot-product logits
    # feeding the bi-directional softmax coincide with the cosine blend.
    return 0.5 * (r + bisoftmax(r, cfg.softmax_temperature))


def associate_frame(tracks: Sequence[Track], dets: Sequence[DetectionRecord],
                    scores: np.ndarray, cfg: TrackerConfig,
                    next_track_id: int = 0) -> list[AssociationEvent]:
    """Greedy assignment of detections to tracks in confidence order.

    Detections are visited by descending confidence (ties by lower index).
    Each takes the best still-unmatched track if that score reaches
    tau_match; otherwise it is born as a new track when its confidence
    reaches tau_new, or discarded. Born events receive consecutive ids
    starting at ``next_track_id``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(tracks), len(dets)):
        raise DimMismatchError(f"scores shape {scores.shape} != ({len(tracks)}, {len(dets)})")
    events: list[AssociationEvent] = []
    # One row per detection; a matched track's column is masked with -inf,
    # which tau_match (finite) never accepts.
    open_scores = scores.T.copy()
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    for i in order:
        det = dets[i]
        row = open_scores[i]
        k = int(np.argmax(row)) if len(row) else -1  # ties resolve to the lowest track index
        if k >= 0 and row[k] >= cfg.tau_match:
            events.append(AssociationEvent(det.frame, MATCHED, tracks[k].id, i, float(row[k])))
            open_scores[:, k] = -np.inf
        elif det.confidence >= cfg.tau_new:
            events.append(AssociationEvent(det.frame, BORN, next_track_id, i))
            next_track_id += 1
        else:
            events.append(AssociationEvent(det.frame, DISCARDED, None, i))
    return events


def majority_vote(items: Sequence[int]) -> tuple[int, float]:
    """Most frequent id and its proportion; ties go to the most recent."""
    if not items:
        raise ValueError("majority_vote needs at least one item")
    counts: dict[int, int] = {}
    last_seen: dict[int, int] = {}
    for pos, item in enumerate(items):
        counts[item] = counts.get(item, 0) + 1
        last_seen[item] = pos
    winner = max(counts, key=lambda c: (counts[c], last_seen[c]))
    return winner, counts[winner] / len(items)


def retain_category(track: Track, matched_det: DetectionRecord, cfg: TrackerConfig) -> int:
    """Decide which category a matched detection contributes.

    High-confidence raw predictions pass through, mid-confidence ones are
    smoothed by voting together with the category bank, low-confidence ones
    defer to the bank entirely. The retained id is pushed into the bank and
    recorded with the frame and confidence.
    """
    p = matched_det.confidence
    c = matched_det.category_id
    bank = list(track.category_bank)
    if p >= cfg.tau_high:
        retained = c
    elif p >= cfg.tau_low:
        retained, _ = majority_vote(bank + [c])
    else:
        retained = majority_vote(bank)[0] if bank else c
    track.category_bank.append(retained)
    track.retained_preds.append(RetainedPred(matched_det.frame, retained, p))
    return retained


class Tracker:
    """Stateful frame-by-frame association engine.

    ``tracks`` holds every track ever born, in id order; only the live ones
    (active or lost) are scored. After each ``step``, ``last_scores`` is the
    (live, detections) score matrix that association used and ``last_ids``
    names the track of each of its rows.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[Track] = []
        self.last_scores = np.zeros((0, 0))
        self.last_ids: list[int] = []
        self._live: list[Track] = []  # in id order; a track leaves in the frame it dies
        self._next_id = 1
        self._last_frame: int | None = None

    def _record(self, track: Track, det: DetectionRecord, det_idx: int):
        track.observations.append(Observation(det.frame, det.bbox, det.confidence,
                                              det_idx, len(track.embeddings)))
        track.embeddings.append(det.embedding)
        track.last_matched_frame = det.frame
        track.state = TrackState.ACTIVE

    def step(self, frame: int, dets: Sequence[DetectionRecord]) -> list[AssociationEvent]:
        """Process one frame; frames must be strictly increasing."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(f"frames must be strictly increasing, got {frame} after {self._last_frame}")
        self._last_frame = frame
        cfg = self.cfg
        live = self._live
        scores = score_matrix(live, dets, cfg)
        events = associate_frame(live, dets, scores, cfg, next_track_id=self._next_id)
        ids = [t.id for t in live]
        self.last_scores, self.last_ids = scores, ids
        born = []
        for ev in events:
            det = dets[ev.det_idx]
            if ev.kind == MATCHED:
                track = live[bisect_left(ids, ev.track_id)]
                track.absorb(det.embedding, cfg)
            elif ev.kind == BORN:
                track = Track.start(ev.track_id, det.embedding, cfg)
                self.tracks.append(track)
                born.append(track)
                self._next_id = max(self._next_id, track.id + 1)
            else:
                continue
            retain_category(track, det, cfg)
            self._record(track, det, ev.det_idx)
        survivors = []
        for track in live:
            if track.last_matched_frame != frame:
                track.state = TrackState.LOST
                if frame - track.last_matched_frame > cfg.max_age:
                    track.state = TrackState.DEAD
                    events.append(AssociationEvent(frame, DIED, track.id))
                    continue
            survivors.append(track)
        # Born ids exceed every live id, so the list stays in id order.
        self._live = survivors + born
        return events


def run_sequence(dets_by_frame: dict[int, Sequence[DetectionRecord]],
                 cfg: TrackerConfig | None = None) -> list[Track]:
    """Track a whole sequence; returns every track ever born, in id order."""
    tracker = Tracker(cfg)
    for frame in sorted(dets_by_frame):
        tracker.step(frame, dets_by_frame[frame])
    return tracker.tracks
