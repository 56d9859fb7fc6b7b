"""Appearance-only multi-object association with feature and category banks.

Similarity between a track and a detection blends the memory and bank
cosines, ``alpha_sim * C_mem + (1 - alpha_sim) * C_bank``, optionally
averaged with a bi-directional softmax of the same matrix. ``score_matrix``
computes that softmax detection-major, in blocks of detection rows whose
logits it shifts by the bound ``max ||query||`` rather than by their maxima
(``bisoftmax``'s max shift where that bound would underflow ``exp``), and
returns the (tracks, detections) view of a (detections, tracks) array, so
that each detection's scores are one contiguous row. The memory is an
EMA of the matched embeddings, ``alpha_mem * det + (1 - alpha_mem) * memory``;
the feature bank holds the last ``n_bank`` as unit rows, and its mean cosine
(more noise tolerant than an EMA alone) is one dot product with the mean of
its rows, summed afresh in FIFO order on every match. The category bank holds
the retained categories of the last ``n_cat_bank`` entries, with which a
match's category is voted (``retain_category``). Matching is greedy per
detection in descending confidence order, each taking its best open track;
appearance carries everything. ``associate_frame`` makes the greedy's
decisions in array passes and returns them as one ``io.EventBlock``.

``Tracker`` keeps the live tracks' ids in ``live`` (id order) and drops a
track in the frame it dies, so per-frame work grows with the live tracks
only. Row i of ``memory`` and of the query ``alpha_sim * unit memory +
(1 - alpha_sim) * mean(bank)`` belongs to ``live[i]``, and both its banks are
rings in one row of a store, which the next birth takes once it dies: its
k-th entry's unit row in slot ``k % n_bank`` of the feature store, its
retained category in slot ``k % w`` of the category store. A step updates
the tracks it matched together: one category vote (``retain_categories``),
one bank write, one sum of their banks place by place (one sum per fill
count at d == 1), one EMA, one normalization and one blend. It appends its matches'
and births' (track, detection, retained category, box, confidence) columns,
which ``Tracker.table`` sorts by track into one ``io.TrackTable`` with one
stable sort. Detection embeddings are never mutated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, NonFiniteError, ZeroNormError
from .io import EVENT_KINDS, DetectionFrame, EventBlock, TrackTable, _int_column, _runs

SIM_MODES = ("cosine_only", "cosine_plus_bisoftmax")

MATCHED, BORN, DISCARDED, DIED = EVENT_KINDS
_MATCHED, _BORN, _DISCARDED, _DIED = range(len(EVENT_KINDS))  # their codes in an EventBlock


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


def update_memory(memory: np.ndarray, det_emb: np.ndarray, alpha_mem: float) -> np.ndarray:
    """EMA update: alpha_mem * det + (1 - alpha_mem) * memory."""
    memory = np.asarray(memory, dtype=np.float64)
    det = np.asarray(det_emb, dtype=np.float64)
    if memory.shape != det.shape:
        raise DimMismatchError(f"memory has shape {memory.shape}, detection {det.shape}")
    return alpha_mem * det + (1.0 - alpha_mem) * memory


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))  # np.linalg.norm's bits, minus its wrapper
    if not norms.all():
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


# Detection rows per block of score_matrix's bounded pass, whose exp, sums and blend stay in cache
_BLOCK = 64
# The widest logit spread the bound shift takes: exp(-700) is about 1e-304, a normal float, so no
# row or column sum underflows to zero
_EXP_SPAN = 700.0


def score_matrix(query: np.ndarray, det_units: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """(T, D) association scores of T query rows against D unit detection rows: a bank's mean
    cosine is the dot product with its mean row, so the memory and bank blend is one product,
    ``0.5 * (r + bisoftmax(r, softmax_temperature))`` (``query @ det_units.T`` for cosine_only).

    The bi-softmax pass is detection-major: ``r = det_units @ query.T`` is (D, T) and the result
    is the (T, D) transposed view of a (D, T) array, so each detection's scores are one
    contiguous row. A query row is a convex blend of unit rows, so every cosine lies within
    ``m = max ||q||`` of zero, and the logits are shifted by that bound, not by their maxima:
    ``exp((r - m) / T)`` lies in ``[exp(-2m / T), 1]``. Blocks of ``_BLOCK`` detection rows are
    then independent: each takes one exp in place, its row sums and its part of the column
    sums, and one more pass normalizes and blends them in place. Where ``2m / T`` exceeds
    ``_EXP_SPAN``, the exp could underflow, and ``bisoftmax``'s max shift scores instead."""
    T, D = len(query), len(det_units)
    if T == 0 or D == 0:
        return np.zeros((T, D))
    if cfg.sim_mode == "cosine_only":
        return query @ det_units.T
    # Embeddings are unit vectors inside this op, so the dot-product logits
    # feeding the bi-directional softmax coincide with the cosine blend.
    r, t = det_units @ query.T, cfg.softmax_temperature
    bound = math.sqrt(np.add.reduce(query * query, axis=1).max())
    if 2.0 * bound / t > _EXP_SPAN:
        return (0.5 * (r + bisoftmax(r, t))).T
    out, per_det, per_track = np.empty_like(r), np.empty((D, 1)), np.zeros(T)
    for lo in range(0, D, _BLOCK):
        block = out[lo:lo + _BLOCK]
        np.subtract(r[lo:lo + _BLOCK], bound, out=block)
        block /= t
        np.exp(block, out=block)
        np.add.reduce(block, axis=1, keepdims=True, out=per_det[lo:lo + _BLOCK])
        per_track += np.add.reduce(block, axis=0)
    for lo in range(0, D, _BLOCK):
        block = out[lo:lo + _BLOCK]
        over_tracks = block / per_det[lo:lo + _BLOCK]
        block /= per_track  # the softmax over detections
        block += over_tracks
        block *= 0.5
        block += r[lo:lo + _BLOCK]
        block *= 0.5
    return out.T


# Bytes of bank rows that Tracker._push gathers and sums at a time, which stay in cache meanwhile
_GATHER_BYTES = 256 * 1024

# Prefix rounds of the batched greedy before the displaced rest is matched one at a time; no
# frame of perfbench's longrun and crowd scenes (seeds 1-3) or bench/scale.py's scenes of 100 to
# 1,000 identities takes more than 3. Uncapped, a frame in which every detection ranks the tracks
# alike takes one round per detection, O(T * D**2): at T = D = 1,000 on one core of a 2-core
# Xeon, with the scores laid out as score_matrix returns them, 0.9 s, against 16 ms with 4 rounds,
# about 2 ms more per further round, and 9 ms with 1.
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


def associate_frame(track_ids: Sequence[int], dets: DetectionFrame, scores: np.ndarray, cfg: TrackerConfig,
                    next_track_id: int = 0) -> EventBlock:
    """Greedy assignment of detections to the tracks ``track_ids`` (row i of ``scores`` is
    track ``track_ids[i]``'s): one event per detection, in visit order.

    Detections are visited by descending confidence (ties by lower index). Each takes the best
    still-unmatched track if that score reaches tau_match; otherwise it is born as a new track
    (ids from ``next_track_id`` on) when its confidence reaches tau_new, or discarded. The
    decisions are made in rounds: every undecided detection takes its best track with the
    claimed ones masked, and the longest prefix of the visit order in which no detection wants a
    track claimed earlier in it is decided, since later claims change none of those argmaxes (a
    best score below tau_match stays below). The rest goes to the next round, and after
    ``_GREEDY_ROUNDS`` rounds to the loop.
    """
    scores = np.asarray(scores, dtype=np.float64)
    T, D = len(track_ids), len(dets)
    if scores.shape != (T, D):
        raise DimMismatchError(f"scores shape {scores.shape} != ({T}, {D})")
    tau = cfg.tau_match
    by_det = scores.T  # row j: detection j's scores, contiguous as score_matrix lays out the bi-softmax's
    # stable: equal confidences keep the lower index first
    order = np.argsort(-dets.confidence, kind="stable")
    track_of, score_of = np.full(D, -1), np.zeros(D)  # by visit position
    done, claimed = 0, np.zeros(T, dtype=bool)
    for round_ in range(_GREEDY_ROUNDS if T else 0):
        if done == D:
            break
        rest = order[done:]
        if round_:  # a copy of the rest's rows only, claimed tracks masked
            rows = by_det[rest]
            rows[:, claimed] = -np.inf
            best = rows.argmax(axis=1)
            best_score = rows[np.arange(len(rest)), best]
        else:  # the whole matrix, read in place
            best = by_det.argmax(axis=1)[rest]
            best_score = by_det[rest, best]
        at = np.flatnonzero(best_score >= tau)
        first = np.full(T, len(rest))  # the first position that claims each track
        np.minimum.at(first, best[at], at)
        # a NaN best score is no hit, but with its track masked the argmax moves and may
        # find one: like a hit, it wants its track
        clash = ~(best_score < tau) & (first[best] < np.arange(len(rest)))
        n = int(clash.argmax()) if clash.any() else len(rest)
        won = at[at < n]
        track_of[done + won], score_of[done + won] = best[won], best_score[won]
        claimed[best[won]] = True
        done += n
    if T and done < D:
        open_rows = by_det[order[done:]]
        open_rows[:, claimed] = -np.inf
        track_of[done:], score_of[done:] = _greedy_loop(open_rows, tau)

    matched = track_of >= 0
    born = ~matched & (dets.confidence[order] >= cfg.tau_new)
    track = np.full(D, -1, dtype=np.int64)
    track[matched] = np.asarray(track_ids, dtype=np.int64)[track_of[matched]]
    track[born] = next_track_id + np.arange(np.count_nonzero(born))
    kind = np.where(matched, _MATCHED, np.where(born, _BORN, _DISCARDED)).astype(np.int8)
    return EventBlock(dets.frame, kind, track, order, np.where(matched, score_of, np.nan))


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


def retain_category(retained: Sequence[int], confidence: float, category_id: int, cfg: TrackerConfig) -> int:
    """The category a detection matched to a track contributes, ``retained`` the retained
    categories of the track's entries, oldest first: a high-confidence one passes through, a
    mid-confidence one is voted with the category bank (the last ``n_cat_bank`` of them), a
    low-confidence one defers to the bank. The reference of ``retain_categories``."""
    if confidence >= cfg.tau_high:
        return category_id
    bank = list(retained[-cfg.n_cat_bank:])
    if confidence >= cfg.tau_low:
        return majority_vote([*bank, category_id])[0]
    return majority_vote(bank)[0] if bank else category_id


def retain_categories(banks: np.ndarray, known: np.ndarray, confidence: np.ndarray, category_id: np.ndarray,
                      cfg: TrackerConfig) -> np.ndarray:
    """``retain_category`` of M matches at once, row m of the (M, n) ``banks`` match m's category
    bank, oldest first, of which the entries where ``known`` holds count."""
    votes = np.concatenate([banks, category_id[:, None]], axis=1)
    valid = np.concatenate([known, (confidence >= cfg.tau_low)[:, None]], axis=1)
    k = votes.shape[1]
    same = (votes[:, :, None] == votes[:, None, :]) & valid[:, None, :]  # vote l is for vote j's category
    key = np.where(valid, same.sum(axis=2) * k + np.where(same, np.arange(k), -1).max(axis=2), -1)
    winner = votes[np.arange(len(votes)), key.argmax(axis=1)]
    return np.where((confidence >= cfg.tau_high) | ~valid.any(axis=1), category_id, winner)


class Tracker:
    """Stateful frame-by-frame association engine. After each ``step``, ``last_scores`` is the
    (live, detections) score matrix association used, its rows the tracks ``last_ids``: with the
    bi-softmax, the transposed view of a (detections, live) array."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.live = np.zeros(0, dtype=np.int64)  # a track leaves in the frame it dies
        self.memory = np.zeros((0, 0))  # EMA of each live track's matched embeddings
        self.query = np.zeros((0, 0))  # alpha_sim * unit memory + (1 - alpha_sim) * mean(bank)
        self.last_scores = np.zeros((0, 0))
        self.last_ids: list[int] = []
        # The step (an index into _frames, always an int64) that last matched each live track
        self._last_step = np.zeros(0, dtype=np.int64)
        self._frames: list[int] = []  # the frame of every step so far
        self._width: int | None = None  # fixed by the first detection
        self._next_id = 1
        # live[i] has _entries[i] entries, and its banks are rows _slot[i] of the stores; the category
        # store is at least min(n_cat_bank, a live track's entries) wide (``_widen``)
        self._banks = np.zeros((0, self.cfg.n_bank, 0))
        self._cats = np.zeros((0, min(self.cfg.n_cat_bank, 8)), dtype=np.int64)
        self._slot = np.zeros(0, dtype=np.int64)
        self._entries = np.zeros(0, dtype=np.int64)
        self._free: list[int] = []  # rows of the stores no live track holds
        self._new: list[tuple] = []  # (step, track, det, cat, bbox, conf) of each step's matches and births

    def _rows(self, frame: int, dets: DetectionFrame) -> np.ndarray:
        """The block's embeddings as (D, d) float64 rows, of the width the first non-empty block
        fixes. Before any state changes, DimMismatchError refuses another width and NonFiniteError
        a non-finite embedding or confidence, whose NaN scores would spread to every track."""
        width = self._width
        if not len(dets):
            return np.zeros((0, width or 0))
        if width is not None and (shape := dets.embedding.shape[1:]) != (width,):
            raise DimMismatchError(f"frame {frame}: detection 0 embedding has shape {shape}, expected {(width,)}")
        rows = dets.embedding.astype(np.float64)
        # A non-finite value makes the sum non-finite, so only a block whose sum is not (or overflowed)
        # is scanned for it
        if not math.isfinite(np.add.reduce(rows, axis=None) + np.add.reduce(dets.confidence)):
            finite = np.isfinite(rows).all(axis=1) & np.isfinite(dets.confidence)
            if not finite.all():
                i = int(finite.argmin())
                what = "embedding" if not np.isfinite(rows[i]).all() else "confidence"
                raise NonFiniteError(f"frame {frame}: detection {i} has a non-finite {what}")
        if width is None:
            self._width = rows.shape[1]
            self.memory, self.query = np.zeros((0, self._width)), np.zeros((0, self._width))
            self._banks = np.zeros((0, self.cfg.n_bank, self._width))
        if dets.category_id.dtype == object:  # an id outside int64: the bank keeps Python ints
            self._cats = self._cats.astype(object)
        return rows

    def _row(self, track_id: int) -> int | None:
        """The live row of ``track_id``, or None when it is not live."""
        row = int(np.searchsorted(self.live, track_id))
        return row if row < len(self.live) and self.live[row] == track_id else None

    def state(self, track_id: int) -> TrackState:
        """ACTIVE if the last step matched the track, LOST while it is live, DEAD once ``step``
        dropped it (its last match more than ``max_age`` frames back); ValueError if never born."""
        if not 1 <= track_id < self._next_id:
            raise ValueError(f"track {track_id} was never born")
        row = self._row(track_id)
        return (TrackState.DEAD if row is None else TrackState.ACTIVE
                if self._last_step[row] == len(self._frames) - 1 else TrackState.LOST)

    def _ring(self, slots: np.ndarray, entries: np.ndarray, fill: int) -> np.ndarray:
        """The last ``fill`` rows of the banks ``slots``, which hold ``entries`` rows each, as
        (len(slots), fill, d), oldest first."""
        return self._banks[slots[:, None], (entries[:, None] - fill + np.arange(fill)) % self.cfg.n_bank]

    def bank(self, track_id: int) -> np.ndarray:
        """A live track's last ``n_bank`` matched embeddings as (n, d) float64 unit rows,
        oldest first; ValueError naming any other track."""
        row = self._row(track_id)
        if row is None:
            raise ValueError(f"track {track_id} is not live, and only a live track has a bank")
        entries = self._entries[row:row + 1]
        return self._ring(self._slot[row:row + 1], entries, min(int(entries[0]), self.cfg.n_bank))[0]

    def _retain(self, slots: np.ndarray, entries: np.ndarray, confidence: np.ndarray,
                category_id: np.ndarray) -> np.ndarray:
        """The retained category (``retain_categories``) of a match of a detection of
        ``confidence[j]`` and ``category_id[j]`` to the track whose banks are rows ``slots[j]``,
        with ``entries[j]`` entries before it, kept in the category banks."""
        if (n := self._cats.shape[1]) < self.cfg.n_cat_bank and n <= (count := int(entries.max())):
            n = self._widen(min(self.cfg.n_cat_bank, max(count + 1, 2 * n)))
        kept, low = category_id.astype(self._cats.dtype), np.flatnonzero(confidence < self.cfg.tau_high)
        if len(low):
            at = entries[low, None] - n + np.arange(n)  # the last n entries, oldest first
            kept[low] = retain_categories(self._cats[slots[low, None], at % n], at >= 0,
                                          confidence[low], category_id[low], self.cfg)
        self._cats[slots, entries % n] = kept
        return kept

    def _widen(self, width: int) -> int:
        """Lay the category store out ``width`` wide, every live bank's entries kept; ``width``."""
        old, slots = self._cats, self._slot[:, None]
        at = self._entries[:, None] - old.shape[1] + np.arange(old.shape[1])
        self._cats = np.zeros((len(old), width), old.dtype)
        self._cats[slots, at % width] = old[slots, at % old.shape[1]]  # an unknown entry lands where none is kept
        return width

    def _push(self, slots: np.ndarray, entries: np.ndarray, units: np.ndarray) -> np.ndarray:
        """Bank ``units[j]`` as entry ``entries[j]`` (counted from 1) of bank row ``slots[j]``;
        the mean of each bank after."""
        n, d = self.cfg.n_bank, units.shape[1]
        flat, base = self._banks.reshape(-1, d), slots * n  # place k of bank row s is flat row s * n + k
        flat[base + (entries - 1) % n] = units
        fill = np.minimum(entries, n)
        # Summed afresh from the kept rows, oldest first, as np.add.reduce sums one bank: subtracting
        # evicted rows would build up rounding error.
        if d == 1:  # numpy sums one bank pairwise here, which a padded or place-major sum would not match
            means = np.empty_like(units)
            for f in set(fill.tolist()):
                group = fill == f
                means[group] = np.add.reduce(self._ring(slots[group], entries[group], f), axis=1) / f
            return means
        # Place by place across the banks, each step one contiguous (banks, d) plane, a bank that is
        # not full led by its unwritten places' -0.0 (x + -0.0 == x); a cache's worth of banks a gather.
        at = base + (entries + np.arange(-n, 0)[:, None]) % n  # (n, banks), oldest place first
        sums, step = np.empty_like(units), max(1, _GATHER_BYTES // (8 * n * d))
        for lo in range(0, len(slots), step):
            np.add.reduce(flat.take(at[:, lo:lo + step], axis=0), axis=0, out=sums[lo:lo + step])
        return sums / fill[:, None]

    def _take_slots(self, count: int) -> np.ndarray:
        """``count`` free rows of the bank stores, which double when they run out, zeroed: their
        memory becomes resident only once rows are banked in them."""
        free = self._free
        if len(free) < count:
            size = len(self._banks)
            grow = max(2 * (count - len(free)), size)
            self._banks, self._cats = (np.concatenate([store, np.zeros((grow, *store.shape[1:]), store.dtype)])
                                       for store in (self._banks, self._cats))
            free.extend(range(size, size + grow))
        taken = np.array(free[-count:])
        del free[-count:]
        return taken

    def step(self, frame: int, dets: DetectionFrame) -> EventBlock:
        """Process one frame's block; frames must be strictly increasing. The frame's events:
        one per detection in visit order, then one per track that died."""
        frames = self._frames
        if frames and frame <= frames[-1]:
            raise ValueError(f"frames must be strictly increasing, got {frame} after {frames[-1]}")
        cfg = self.cfg
        ids = self.live
        emb = self._rows(frame, dets)
        units = _normalize_rows(emb)
        scores = score_matrix(self.query, units, cfg)
        events = associate_frame(ids, dets, scores, cfg, next_track_id=self._next_id)
        self.last_scores, self.last_ids = scores, ids.tolist()
        now = len(frames)
        frames.append(frame)

        kind, track, det = events.kind, events.track, events.det
        a, last = cfg.alpha_sim, self._last_step
        if (hit := kind == _MATCHED).any():
            cols, matched = det[hit], track[hit]
            conf, rows = dets.confidence[cols], np.searchsorted(ids, matched)
            slots, entries = self._slot[rows], self._entries[rows]
            cats = self._retain(slots, entries, conf, dets.category_id[cols])
            self._new.append((now, matched, cols, cats, dets.bbox[cols], conf))
            entries += 1
            self._entries[rows] = entries
            means = self._push(slots, entries, units[cols])
            memory = cfg.alpha_mem * emb[cols] + (1.0 - cfg.alpha_mem) * self.memory[rows]  # update_memory
            self.memory[rows] = memory
            self.query[rows] = a * _normalize_rows(memory) + (1.0 - a) * means
            last[rows] = now

        # A track dies once its last match is more than max_age frames back.
        oldest = bisect_left(frames, frame - cfg.max_age)
        dead = np.flatnonzero(last < oldest)
        if len(dead):
            n = len(dead)
            events = EventBlock(frame, *map(np.concatenate, zip((kind, track, det, events.score), (
                np.full(n, _DIED, np.int8), ids[dead], np.full(n, -1), np.full(n, np.nan)))))
            self._free += self._slot[dead].tolist()
            keep = last >= oldest
            ids, last = ids[keep], last[keep]
            self.memory, self.query = self.memory[keep], self.query[keep]
            self._slot, self._entries = self._slot[keep], self._entries[keep]

        if (born := kind == _BORN).any():
            # Born ids exceed every live id, so the rows stay in id order.
            cols, new_ids = det[born], track[born]
            slots = self._take_slots(len(cols))
            block = units[cols]
            self._banks[slots, 0] = block
            self._banks[slots, 1:] = -0.0  # the places no entry has reached lead the bank's sum
            self._cats[slots, 0] = cats = dets.category_id[cols]
            self._new.append((now, new_ids, cols, cats, dets.bbox[cols], dets.confidence[cols]))
            ids = np.concatenate([ids, new_ids])
            self.memory = np.concatenate([self.memory, emb[cols]])
            self.query = np.concatenate([self.query, a * block + (1.0 - a) * block])
            last = np.concatenate([last, np.full(len(cols), now)])
            self._slot = np.concatenate([self._slot, slots])
            self._entries = np.concatenate([self._entries, np.ones(len(cols), dtype=np.int64)])
            self._next_id = int(new_ids[-1]) + 1
        self.live, self._last_step = ids, last
        return events

    def table(self) -> TrackTable:
        """Every track's entries so far as one unlabelled ``io.TrackTable``, the steps' columns
        sorted by track with one stable sort; an entry's frame is its step's."""
        none = np.zeros(0, dtype=np.int64)
        new = self._new or [(0, none, none, none, np.zeros((0, 4)), np.zeros(0))]
        step = np.repeat([part[0] for part in new], [len(part[1]) for part in new])
        track, det, cat, bbox, conf = (np.concatenate([part[k] for part in new]) for k in range(1, 6))
        order = np.argsort(track, kind="stable")
        tags = [None] * (len(bounds := _runs(track[order])) - 1)
        return TrackTable(track[order], _int_column(self._frames)[step[order]], bbox[order], bounds, conf[order],
                          cat[order], det[order], tags, list(tags), list(tags))


def run_sequence(dets_by_frame: dict[int, DetectionFrame], cfg: TrackerConfig | None = None) -> TrackTable:
    """Track a whole sequence; returns every track's entries as one ``io.TrackTable``."""
    tracker = Tracker(cfg)
    for frame in sorted(dets_by_frame):
        tracker.step(frame, dets_by_frame[frame])
    return tracker.table()
