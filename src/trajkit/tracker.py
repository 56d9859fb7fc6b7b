"""Appearance-only multi-object association with feature and category banks.

A ``Track`` is an ``id`` and its ``observations``: one ``io.TrackEntry`` per
matched detection (its ``category_id`` is the retained category). The rest
is read off the entries or kept by the ``Tracker``: an entry's embedding
from the detection it indexes (``classify.record_embeddings``), the category
bank as the retained categories of the last ``n_cat_bank`` entries
(smoothing noisy per-frame classifications by majority vote), the state from
the last entry's frame (``Tracker.state``), and the feature bank, the last
``n_bank`` matched embeddings (FIFO) as float64 unit rows
(``Tracker.bank``). The bank similarity is the mean cosine against every
entry, which is considerably more noise tolerant than an EMA alone. That
mean equals one dot product with the mean of the bank's unit rows, summed
afresh in FIFO order from the kept rows on every match.

Similarity between a track and a detection blends the memory and bank
cosines, ``alpha_sim * C_mem + (1 - alpha_sim) * C_bank``, optionally
averaged with a bi-directional softmax of the same matrix. The memory is an
exponential moving average of the matched embeddings,
``alpha_mem * det + (1 - alpha_mem) * memory``. Matching is greedy per
detection in descending confidence order, each taking its best open track;
there is no motion model and no box gating, appearance carries everything.
``associate_frame`` makes that greedy's decisions in array passes: every
detection's best track at once, accepted for the longest prefix of the
visit order in which no detection wants a track claimed earlier in it,
then again for the displaced rest, and after ``_GREEDY_ROUNDS`` rounds
one detection at a time.

``Tracker`` keeps its live tracks (active or lost) in ``live``, in id
order, and drops a track in the frame it dies, so per-frame work grows with
the live tracks only, never with every track ever born. Beside ``live`` it
keeps one row per live track in two float64 arrays: ``memory`` and the
query row ``alpha_sim * memory / ||memory|| + (1 - alpha_sim) * mean(bank)``.
Every live bank is a row of one ``(slots, n_bank, d)`` float64 store, used
as a ring: a track's k-th banked row sits in slot ``k % n_bank``, and its
count of banked rows gives the fill. Only a live track has a bank: a
dying track's store row is taken by the next birth, so the store is never
rebuilt when tracks are born or die. Scoring a frame is one product of
the stored query with the unit detections, and the bi-softmax. A step
updates the rows of the tracks it matched together: one bank write, one
mean per fill count, one EMA, one normalization and one blend over the
matched rows.

A frame comes in as an ``io.DetectionFrame``, the per-frame block of
columns that ``io.load_detections`` and ``synth.gen_scene`` return. The
step's (D, d) rows are one float64 copy of the block's ``embedding`` column,
and a new entry, a match's or a birth's, is built in one place from the
block's columns as Python lists.

Detection embeddings are never mutated; only the banks and the query hold
normalized copies.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, NonFiniteError, ZeroNormError
from .io import DetectionFrame, TrackEntry

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


# Prefix rounds of the batched greedy before the displaced rest is matched one at a
# time. No frame of perfbench's longrun and crowd scenes (seeds 1-3) or bench/scale.py's
# scenes of 100 to 1,000 identities takes more than 3. Rounds copy the rest's columns, so
# a frame in which every detection ranks the tracks alike, one round per detection, costs
# O(T * D**2) uncapped: at T = D = 1,000 on one core of a 2-core Xeon, 1.2 s, against
# 32 ms with 4 rounds, about 3 ms more per further round, and 22 ms with 1.
_GREEDY_ROUNDS = 4


def _greedy_loop(open_rows: np.ndarray, tau_match: float) -> tuple[np.ndarray, np.ndarray]:
    """The greedy one detection at a time over (detections, tracks) rows in visit order,
    a matched track's column masked with -inf, which tau_match (finite) never accepts:
    each row's track (-1 for none) and score."""
    picked, picked_scores = np.full(len(open_rows), -1), np.zeros(len(open_rows))
    for j, row in enumerate(open_rows):
        k = int(np.argmax(row))  # ties resolve to the lowest track index
        if row[k] >= tau_match:
            picked[j], picked_scores[j] = k, row[k]
            open_rows[:, k] = -np.inf
    return picked, picked_scores


def associate_frame(tracks: Sequence[Track], dets: DetectionFrame, scores: np.ndarray, cfg: TrackerConfig,
                    next_track_id: int = 0) -> list[AssociationEvent]:
    """Greedy assignment of detections to tracks in confidence order.

    Detections are visited by descending confidence (ties by lower index).
    Each takes the best still-unmatched track if that score reaches
    tau_match; otherwise it is born as a new track when its confidence
    reaches tau_new, or discarded. Born events receive consecutive ids
    starting at ``next_track_id``.

    The decisions are made in rounds. Every undecided detection takes its
    best track with the claimed ones masked; the longest prefix of the
    visit order in which no detection wants a track claimed earlier in the
    prefix is decided, since masking claims after it changes none of those
    argmaxes. A best score below tau_match stays below once tracks close,
    so such a detection wants no track. The displaced rest goes to the
    next round, and after ``_GREEDY_ROUNDS`` rounds to the loop.
    """
    scores = np.asarray(scores, dtype=np.float64)
    T, D = len(tracks), len(dets)
    if scores.shape != (T, D):
        raise DimMismatchError(f"scores shape {scores.shape} != ({T}, {D})")
    tau = cfg.tau_match
    # stable: equal confidences keep the lower index first
    order = np.lexsort((-dets.confidence,))
    track_of, score_of = np.full(D, -1), np.zeros(D)
    rest, claimed = order, np.zeros(T, dtype=bool)
    for round_ in range(_GREEDY_ROUNDS if T else 0):
        if not len(rest):
            break
        if round_:  # a copy of the rest's columns only, claimed tracks masked
            cols = scores[:, rest]
            cols[claimed] = -np.inf
            best = cols.argmax(axis=0)
            best_score = cols[best, np.arange(len(rest))]
        else:  # the whole matrix, read in place
            best = scores.argmax(axis=0)[rest]
            best_score = scores[best, rest]
        at = np.flatnonzero(best_score >= tau)
        first = np.full(T, len(rest))  # the first position that claims each track
        np.minimum.at(first, best[at], at)
        # a NaN best score is no hit, but with its track masked the argmax moves and may
        # find one: like a hit, it wants its track
        clash = ~(best_score < tau) & (first[best] < np.arange(len(rest)))
        n = int(clash.argmax()) if clash.any() else len(rest)
        won = at[at < n]
        track_of[rest[won]], score_of[rest[won]] = best[won], best_score[won]
        claimed[best[won]] = True
        rest = rest[n:]
    if T and len(rest):
        open_rows = scores[:, rest].T.copy()
        open_rows[:, claimed] = -np.inf
        track_of[rest], score_of[rest] = _greedy_loop(open_rows, tau)

    events: list[AssociationEvent] = []
    frame, confs = dets.frame, dets.confidence.tolist()
    picked, picked_scores = track_of.tolist(), score_of.tolist()
    for i in order.tolist():
        k = picked[i]
        if k >= 0:
            events.append(AssociationEvent(frame, MATCHED, tracks[k].id, i, picked_scores[i]))
        elif confs[i] >= cfg.tau_new:
            events.append(AssociationEvent(frame, BORN, next_track_id, i))
            next_track_id += 1
        else:
            events.append(AssociationEvent(frame, DISCARDED, None, i))
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


def retain_category(track: Track, confidence: float, category_id: int, cfg: TrackerConfig) -> int:
    """Decide which category a matched detection contributes.

    High-confidence raw predictions pass through, mid-confidence ones are
    smoothed by voting together with the category bank (the retained
    categories of the track's last ``n_cat_bank`` entries), low-confidence
    ones defer to the bank entirely.
    """
    if confidence >= cfg.tau_high:
        return category_id
    bank = [e.category_id for e in track.observations[-cfg.n_cat_bank:]]
    if confidence >= cfg.tau_low:
        return majority_vote([*bank, category_id])[0]
    return majority_vote(bank)[0] if bank else category_id


class Tracker:
    """Stateful frame-by-frame association engine.

    ``tracks`` holds every track ever born, in id order. ``live`` holds the
    live ones (active or lost), in id order; row i of ``memory`` and
    ``query`` belongs to ``live[i]``, and only these rows are scored. After
    each ``step``, ``last_scores`` is the (live, detections) score matrix
    that association used, ``last_ids`` names the track of each of its
    rows, ``state(track)`` gives any track's state and ``bank(track)`` a live
    track's feature bank.
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
        # Every live bank, a ring of unit rows: live[i]'s k-th banked row is in
        # _banks[_slot[i], k % n_bank], and _banked[i] rows have been banked.
        self._banks = np.zeros((0, self.cfg.n_bank, 0))
        self._slot = np.zeros(0, dtype=np.int64)
        self._banked = np.zeros(0, dtype=np.int64)
        self._free: list[int] = []  # rows of _banks no live track holds

    def _rows(self, frame: int, dets: DetectionFrame) -> np.ndarray:
        """The block's embeddings as (D, d) float64 rows, of the tracker's width, which the first
        non-empty block fixes. A block of another width raises DimMismatchError, and a non-finite
        embedding or confidence NonFiniteError, before any state changes: its NaN scores would
        spread through the bi-softmax to every track."""
        width = self._width
        if not len(dets):
            return np.zeros((0, width or 0))
        if width is not None and (shape := dets.embedding.shape[1:]) != (width,):
            raise DimMismatchError(f"frame {frame}: detection 0 embedding has shape {shape}, expected {(width,)}")
        rows = dets.embedding.astype(np.float64)
        finite = np.isfinite(rows).all(axis=1) & np.isfinite(dets.confidence)
        if not finite.all():
            i = int(finite.argmin())
            what = "embedding" if not np.isfinite(rows[i]).all() else "confidence"
            raise NonFiniteError(f"frame {frame}: detection {i} has a non-finite {what}")
        if width is None:
            self._width = rows.shape[1]
            self.memory, self.query = np.zeros((0, self._width)), np.zeros((0, self._width))
            self._banks = np.zeros((0, self.cfg.n_bank, self._width))
        return rows

    def state(self, track: Track) -> TrackState:
        """ACTIVE if the last step matched the track, LOST while its last match is at most
        ``max_age`` frames back, DEAD after that: the rule ``step`` kills a track by."""
        age = self._frames[-1] - track.observations[-1].frame
        return TrackState.DEAD if age > self.cfg.max_age else TrackState.LOST if age else TrackState.ACTIVE

    def _ring(self, rows: np.ndarray, fill: int) -> np.ndarray:
        """The banks of live ``rows`` that each hold ``fill`` rows, as (rows, fill, d), oldest first."""
        n = self.cfg.n_bank
        slots = (self._banked[rows, None] - fill + np.arange(fill)) % n
        return self._banks[self._slot[rows, None], slots]

    def bank(self, track: Track) -> np.ndarray:
        """A live track's last ``n_bank`` matched embeddings as (n, d) float64 unit rows,
        oldest first; ValueError naming any other track."""
        if track not in self.live:
            raise ValueError(f"track {track.id} is not live, and only a live track has a bank")
        row = self.live.index(track)
        return self._ring(np.array([row]), min(int(self._banked[row]), self.cfg.n_bank))[0]

    def _push(self, rows: np.ndarray, units: np.ndarray) -> np.ndarray:
        """Bank ``units[j]`` in live row ``rows[j]``'s bank; the mean of each bank after."""
        n = self.cfg.n_bank
        self._banks[self._slot[rows], self._banked[rows] % n] = units
        self._banked[rows] += 1
        fill = np.minimum(self._banked[rows], n)
        means = np.empty_like(units)
        for f in set(fill.tolist()):
            # Summed afresh from the kept rows, oldest first, as np.add.reduce sums one
            # bank: subtracting evicted rows would build up rounding error, and adding
            # an empty slot's zero would turn a -0.0 sum into 0.0.
            group = fill == f
            means[group] = np.add.reduce(self._ring(rows[group], f), axis=1) / f
        return means

    def _take_slots(self, count: int) -> list[int]:
        """``count`` free rows of the bank store, which doubles when they run out. The new
        rows are allocated zeroed, so their memory becomes resident only once rows are
        banked in them."""
        free = self._free
        if len(free) < count:
            size = len(self._banks)
            grow = max(2 * (count - len(free)), size)
            banks = np.zeros((size + grow, *self._banks.shape[1:]))
            banks[:size] = self._banks
            self._banks = banks
            free.extend(range(size, size + grow))
        taken = free[-count:]
        del free[-count:]
        return taken

    def step(self, frame: int, dets: DetectionFrame) -> list[AssociationEvent]:
        """Process one frame's block; frames must be strictly increasing."""
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

        matched = [(ev.track_id, ev.det_idx) for ev in events if ev.kind == MATCHED]
        born = [ev for ev in events if ev.kind == BORN]
        # the new entries' values, as Python ints and floats
        boxes, confs, cats = dets.bbox.tolist(), dets.confidence.tolist(), dets.category_id.tolist()
        a = cfg.alpha_sim
        last = self._last_step
        new = []  # (track, detection) of each new entry
        if matched:
            track_ids, cols = map(list, zip(*matched))
            rows = np.searchsorted(ids, track_ids)
            means = self._push(rows, units[cols])
            memory = update_memory(self.memory[rows], emb[cols], cfg.alpha_mem)
            self.memory[rows] = memory
            self.query[rows] = a * _normalize_rows(memory) + (1.0 - a) * means
            last[rows] = now
            new += zip([live[row] for row in rows.tolist()], cols)

        # A track dies once its last match is more than max_age frames back.
        oldest = bisect_left(frames, frame - cfg.max_age)
        dead = np.flatnonzero(last < oldest)
        if len(dead):
            for row in dead.tolist():
                events.append(AssociationEvent(frame, DIED, live[row].id))
            self._free += self._slot[dead].tolist()
            keep = last >= oldest
            live = [live[row] for row in np.flatnonzero(keep)]
            self.memory, self.query, last = self.memory[keep], self.query[keep], last[keep]
            self._slot, self._banked = self._slot[keep], self._banked[keep]

        if born:
            # Born ids exceed every live id, so the rows stay in id order.
            cols = [ev.det_idx for ev in born]
            slots = self._take_slots(len(born))
            block = units[cols]
            self._banks[slots, 0] = block
            self.tracks += [Track(ev.track_id) for ev in born]
            live = live + self.tracks[-len(born):]
            new += zip(live[-len(born):], cols)
            self.memory = np.concatenate([self.memory, emb[cols]])
            self.query = np.concatenate([self.query, a * block + (1.0 - a) * block])
            last = np.concatenate([last, np.full(len(born), now)])
            self._slot = np.concatenate([self._slot, slots])
            self._banked = np.concatenate([self._banked, np.ones(len(born), dtype=np.int64)])
            self._next_id = born[-1].track_id + 1
        self.live, self._last_step = live, last
        for track, i in new:
            # a newborn track's category bank is empty, so retain_category would keep the raw one
            cat = retain_category(track, confs[i], cats[i], cfg) if track.observations else cats[i]
            track.observations.append(TrackEntry(dets.frame, tuple(boxes[i]), confs[i], cat, i))
        return events


def run_sequence(dets_by_frame: dict[int, DetectionFrame], cfg: TrackerConfig | None = None) -> list[Track]:
    """Track a whole sequence; returns every track ever born, in id order."""
    tracker = Tracker(cfg)
    for frame in sorted(dets_by_frame):
        tracker.step(frame, dets_by_frame[frame])
    return tracker.tracks
