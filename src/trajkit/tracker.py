"""Appearance-only multi-object association with feature and category banks.

A track is its observations: one ``io.TrackEntry`` per matched detection in
``observations`` (its ``category_id`` is the retained category), plus
``feature_bank``, the last ``n_bank`` matched embeddings (FIFO) held as one
contiguous ``(n, d)`` float64 array of unit rows, oldest first. The bank
similarity is the mean cosine against every entry, which is considerably
more noise tolerant than an EMA alone. That mean equals one dot product
with the mean of the bank's unit rows, summed afresh in FIFO order from the
kept rows on every match. The rest is read off the entries: an entry's
embedding from the detection it indexes (``classify.record_embeddings``),
the category bank as the retained categories of the last ``n_cat_bank``
entries (smoothing noisy per-frame classifications by majority vote), and
the state from the last entry's frame (``Tracker.state``).

Similarity between a track and a detection blends the memory and bank
cosines, ``alpha_sim * C_mem + (1 - alpha_sim) * C_bank``, optionally
averaged with a bi-directional softmax of the same matrix. The memory is an
exponential moving average of the matched embeddings,
``alpha_mem * det + (1 - alpha_mem) * memory``. Matching is a greedy
per-detection argmax in descending confidence order; there is no motion
model and no box gating, appearance carries everything.

``Tracker`` keeps its live tracks (active or lost) in ``live``, in id
order, and drops a track in the frame it dies, so per-frame work grows with
the live tracks only, never with every track ever born. Beside ``live`` it
keeps one row per live track in two float64 arrays: ``memory`` and the
query row ``alpha_sim * memory / ||memory|| + (1 - alpha_sim) * mean(bank)``.
Scoring a frame is then one product of the stored query with the unit
detections, and the bi-softmax. A step updates the rows of the tracks it
matched together: one EMA, one normalization and one blend over the
matched rows.

Detection embeddings are never mutated; only the bank and the query hold
normalized copies.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, ZeroNormError
from .io import DetectionRecord, TrackEntry

SIM_MODES = ("cosine_only", "cosine_plus_bisoftmax")

MATCHED = "matched"
BORN = "born"
DISCARDED = "discarded"
DIED = "died"


class TrackState(str, Enum):
    ACTIVE = "active"
    LOST = "lost"
    DEAD = "dead"


def _check_temperature(value: float, name: str) -> None:
    """Refuse a temperature that makes every bi-softmax score NaN, subnormals included."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be finite and positive")
    if not math.isfinite(1.0 / float(value)):
        raise ValueError(f"{name} must be finite and positive with a finite reciprocal, got {value}")


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
    softmax_temperature: float = 0.05  # cosines span [-1, 1]: at 1.0 the bi-softmax is flat

    def __post_init__(self):
        if self.tau_new is None:
            self.tau_new = self.tau_high
        for name in ("alpha_mem", "alpha_sim"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("tau_match", "tau_new", "tau_high", "tau_low"):
            if not math.isfinite(getattr(self, name)):  # also takes a big Python int
                raise ValueError(f"{name} must be finite")
        if self.tau_low > self.tau_high:
            raise ValueError(f"tau_low ({self.tau_low}) must not exceed tau_high ({self.tau_high})")
        if self.n_bank < 1 or self.n_cat_bank < 1:
            raise ValueError("bank sizes must be at least 1")
        if self.max_age < 0:
            raise ValueError("max_age must be non-negative")
        if self.sim_mode not in SIM_MODES:
            raise ValueError(f"sim_mode must be one of {SIM_MODES}, got {self.sim_mode!r}")
        _check_temperature(self.softmax_temperature, "softmax_temperature")


@dataclass(eq=False)
class Track:
    id: int
    feature_bank: np.ndarray  # (n <= n_bank, d) float64 unit rows, oldest first
    observations: list[TrackEntry] = field(default_factory=list)  # category_id is the retained one


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


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroNormError("cannot normalize zero-norm embedding")
    return x / norms


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    # scipy.special.softmax's four operations, so the bits are scipy's
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def bisoftmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Mean of row-wise and column-wise softmax of logits / temperature."""
    _check_temperature(temperature, "temperature")
    logits = np.asarray(logits, dtype=np.float64) / temperature
    if logits.ndim != 2:
        raise DimMismatchError(f"bisoftmax expects a matrix, got shape {logits.shape}")
    return 0.5 * (_softmax(logits, axis=1) + _softmax(logits, axis=0))


def score_matrix(query: np.ndarray, det_units: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """(T, D) association scores of T query rows against D unit detection rows.

    A track's query row is ``alpha_sim * memory_unit + (1 - alpha_sim) *
    bank_mean``: a bank's mean cosine is the dot product with its mean row,
    so the blend is one product.
    """
    T, D = len(query), len(det_units)
    if T == 0 or D == 0:
        return np.zeros((T, D))
    r = query @ det_units.T
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
    smoothed by voting together with the category bank (the retained
    categories of the track's last ``n_cat_bank`` entries), low-confidence
    ones defer to the bank entirely.
    """
    p, c = matched_det.confidence, matched_det.category_id
    if p >= cfg.tau_high:
        return c
    bank = [e.category_id for e in track.observations[-cfg.n_cat_bank:]]
    if p >= cfg.tau_low:
        return majority_vote([*bank, c])[0]
    return majority_vote(bank)[0] if bank else c


class Tracker:
    """Stateful frame-by-frame association engine.

    ``tracks`` holds every track ever born, in id order. ``live`` holds the
    live ones (active or lost), in id order; row i of ``memory`` and
    ``query`` belongs to ``live[i]``, and only these rows are scored. After
    each ``step``, ``last_scores`` is the (live, detections) score matrix
    that association used, ``last_ids`` names the track of each of its
    rows, and ``state(track)`` gives any track's state.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[Track] = []
        self.live: list[Track] = []  # a track leaves in the frame it dies
        self.memory = np.zeros((0, 0))  # EMA of each live track's matched embeddings
        self.query = np.zeros((0, 0))  # alpha_sim * unit memory + (1 - alpha_sim) * mean(bank)
        self.last_scores = np.zeros((0, 0))
        self.last_ids: list[int] = []
        # The step that last matched each live track, an index into _frames:
        # unlike a frame number it always fits an int64.
        self._last_step = np.zeros(0, dtype=np.int64)
        self._frames: list[int] = []  # the frame of every step so far
        self._width: int | None = None  # fixed by the first detection
        self._next_id = 1

    def _rows(self, frame: int, dets: Sequence[DetectionRecord]) -> np.ndarray:
        """The frame's embeddings as (D, d) float64 rows, all of the tracker's width."""
        if not dets:
            return np.zeros((0, self._width or 0))
        want = dets[0].embedding.shape if self._width is None else (self._width,)
        for i, det in enumerate(dets):
            if det.embedding.shape != want:
                raise DimMismatchError(f"frame {frame}: detection {i} embedding has shape "
                                       f"{det.embedding.shape}, expected {want}")
        if self._width is None:
            self._width = want[0]
            self.memory, self.query = np.zeros((0, self._width)), np.zeros((0, self._width))
        return np.stack([d.embedding for d in dets]).astype(np.float64)

    def state(self, track: Track) -> TrackState:
        """ACTIVE if the last step matched the track, LOST while its last match is at most
        ``max_age`` frames back, DEAD after that: the rule ``step`` kills a track by."""
        age = self._frames[-1] - track.observations[-1].frame
        return TrackState.DEAD if age > self.cfg.max_age else TrackState.LOST if age else TrackState.ACTIVE

    def _record(self, track: Track, det: DetectionRecord, det_idx: int):
        category_id = retain_category(track, det, self.cfg)
        track.observations.append(TrackEntry(det.frame, det.bbox, det.confidence, category_id, det_idx))

    def step(self, frame: int, dets: Sequence[DetectionRecord]) -> list[AssociationEvent]:
        """Process one frame; frames must be strictly increasing."""
        frames = self._frames
        if frames and frame <= frames[-1]:
            raise ValueError(f"frames must be strictly increasing, got {frame} after {frames[-1]}")
        cfg = self.cfg
        live = self.live
        emb = self._rows(frame, dets)
        units = _normalize_rows(emb)
        scores = score_matrix(self.query, units, cfg)
        events = associate_frame(live, dets, scores, cfg, next_track_id=self._next_id)
        ids = [t.id for t in live]
        self.last_scores, self.last_ids = scores, ids
        now = len(frames)
        frames.append(frame)

        rows, cols, means, born = [], [], [], []
        for ev in events:
            if ev.kind == BORN:
                born.append(ev)
            elif ev.kind == MATCHED:
                i, row = ev.det_idx, bisect_left(ids, ev.track_id)
                track = live[row]
                kept = track.feature_bank[max(len(track.feature_bank) - cfg.n_bank + 1, 0):]
                bank = track.feature_bank = np.concatenate([kept, units[i:i + 1]])
                # Summed afresh from the kept rows, oldest first; subtracting
                # evicted rows would build up rounding error.
                means.append(np.add.reduce(bank) / len(bank))
                rows.append(row)
                cols.append(i)
                self._record(track, dets[i], i)
        a = cfg.alpha_sim
        last = self._last_step
        if rows:
            memory = update_memory(self.memory[rows], emb[cols], cfg.alpha_mem)
            self.memory[rows] = memory
            self.query[rows] = a * _normalize_rows(memory) + (1.0 - a) * np.array(means)
            last[rows] = now

        # A track dies once its last match is more than max_age frames back.
        oldest = bisect_left(frames, frame - cfg.max_age)
        dead = np.flatnonzero(last < oldest)
        if len(dead):
            events += [AssociationEvent(frame, DIED, live[row].id) for row in dead]
            keep = last >= oldest
            live = [live[row] for row in np.flatnonzero(keep)]
            self.memory, self.query, last = self.memory[keep], self.query[keep], last[keep]

        if born:
            # Born ids exceed every live id, so the rows stay in id order.
            cols = [ev.det_idx for ev in born]
            block = units[cols]  # each new bank is a view of one row of it
            for j, (ev, i) in enumerate(zip(born, cols)):
                track = Track(ev.track_id, block[j:j + 1])
                self._record(track, dets[i], i)
                self.tracks.append(track)
            live = live + self.tracks[-len(born):]
            self.memory = np.concatenate([self.memory, emb[cols]])
            self.query = np.concatenate([self.query, a * block + (1.0 - a) * block])
            last = np.concatenate([last, np.full(len(born), now)])
            self._next_id = born[-1].track_id + 1
        self.live, self._last_step = live, last
        return events


def run_sequence(dets_by_frame: dict[int, Sequence[DetectionRecord]],
                 cfg: TrackerConfig | None = None) -> list[Track]:
    """Track a whole sequence; returns every track ever born, in id order."""
    tracker = Tracker(cfg)
    for frame in sorted(dets_by_frame):
        tracker.step(frame, dets_by_frame[frame])
    return tracker.tracks
