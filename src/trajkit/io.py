"""Reading and writing of detection, vocabulary, track and weight files.

File formats
------------
detections.jsonl, tracks.jsonl, groundtruth.jsonl
    One JSON object per line; ``DETECTION_FORMAT``, ``TRACK_FORMAT`` and
    ``GROUNDTRUTH_FORMAT`` name each key with its kind and bounds. A
    detection holds ``emb`` or ``emb_ref``, a row of the binary sidecar. A
    tracks line is one (track, frame), ``det`` the index of its detection in
    the frame; a labelled track repeats its ``label``, ``label_source`` and
    ``scores`` on every line. No track repeats a frame.
events.jsonl
    ``{"frame", "kind", "track", "det", "score"}`` per row of each frame's ``EventBlock``.
embedding sidecar (``.embin``)
    magic ``TRJK``, u16 version (=1), u32 dim, u64 count, then
    ``count * dim`` float32 values, little endian, row major.
vocabulary.json
    ``{"dim_text": int, "entries": [...]}``, entries as in ``VOCABULARY_ENTRY_FORMAT``.
weights bundle (``.twb``)
    magic ``TRJW``, u16 version (=1), then repeated records of
    u16 name length, UTF-8 name, u8 rank (at most 32), rank u32 dims,
    float32 payload (little endian) until end of file. The fusion block's
    tensor names and shapes are ``trajkit.fusion.FUSION_TENSOR_SHAPES``.

A JSONL loader reads ``_CHUNK`` (256) lines at a time, parses each line with ``orjson``
and checks whole columns against the format table. When the parse or a check refuses a
chunk, or a line holds a key the table does not name, it checks that chunk again one line
at a time with ``json``, which raises the error naming ``file:line`` or loads the chunk.
``load_vocabulary`` and ``load_splits`` check an entry's keys as columns of every entry the
same way, and the entries one at a time when that refuses. The line and entry checks are
the reference and write every message; the tests hold the column passes to them.
``load_detections``, ``read_tracks`` and ``load_groundtruth`` keep the checked chunks as
whole columns and sort them with one ``lexsort``, so no per-line object is built: each
frame's ``DetectionFrame`` is a slice of the sorted columns, and a ``TrackTable`` or
``GroundTruthTable`` holds the rows by (track, frame) and each track's tags. Array passes
over its rows find a track that repeats a frame or changes its tag; the loop
``_first_repeat_or_switch`` over the lines before any line's own fault then names the first.
Writers fill per-format line templates from columns (a ``TrackTable``, a ``TrackRecord`` list
gathered into one, each frame's block), ``_CHUNK`` lines at a time, byte for byte as
``json.dumps`` writes them. ``_json_floats`` spells a chunk's floats in one ``orjson.dumps``
pass: orjson spells a float as ``repr`` does when ``1e-4 <= |x| < 1e16`` or x is zero, and
``json.dumps`` spells any other float, NaN and the infinities among them. ``write_vocabulary``
spells its embeddings the same way. The tests pin that agreement for the installed orjson on
the edges of that range and on random floats.

All multi-byte binary fields are little endian. Embedding payloads are kept
as float32; similarity math upcasts, storage never mutates them.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter, ne
from pathlib import Path
from typing import NoReturn

import numpy as np
import orjson

from .errors import (
    DimMismatchError,
    DuplicateCategoryError,
    FormatError,
    NonFiniteError,
    TrajkitError,
    TruncatedError,
    UnknownCategoryError,
    ZeroNormError,
)

SIDECAR_MAGIC = b"TRJK"
WEIGHTS_MAGIC = b"TRJW"
SIDECAR_VERSION = 1
WEIGHTS_VERSION = 1
_MAX_RANK = 32  # the most axes a .twb tensor may have; numpy 1.x allows no more
SPLITS = ("base", "novel")
LABEL_SOURCES = ("cate", "attr", "det")  # the channel a track label came from
EVENT_KINDS = ("matched", "born", "discarded", "died")  # what an EventBlock's kind codes index
_CHUNK = 256  # lines a loader or writer holds at a time

# Each format maps its keys, in the order a line is checked, to a kind and bounds:
# ("int",) or ("int", 0) a JSON int (true is none), >= 0 if bounded; ("cat",) an int,
# one of the vocabulary's ids if one is given; ("num", lo, hi) a finite JSON number
# in [lo, hi]; ("bbox",) finite x, y, w, h with w, h > 0; ("vec",) a list of numbers,
# finite, not all zero, flat and non-empty when it has a name for messages;
# ("ref",) a sidecar row; ("choice", options); ("scores",) an object of finite
# numbers; ("text",) anything, kept as its str().
DETECTION_FORMAT = {"frame": ("int", 0), "bbox": ("bbox",), "conf": ("num", 0, math.inf), "cat": ("cat",),
                    "cat_score": ("num", 0, 1), "emb": ("vec", "embedding"), "emb_ref": ("ref",)}
TRACK_FORMAT = {"track_id": ("int",), "frame": ("int",), "cat": ("cat",), "det": ("int",),
                "conf": ("num", 0, 1), "bbox": ("bbox",), "label": ("int",),
                "label_source": ("choice", LABEL_SOURCES), "scores": ("scores",)}
GROUNDTRUTH_FORMAT = {"track_id": ("int",), "cat": ("int",), "frame": ("int",), "bbox": ("bbox",)}
VOCABULARY_ENTRY_FORMAT = {"id": ("int",), "name": ("text",), "split": ("choice", SPLITS),
                           "description": ("text",), "cate_emb": ("vec",), "attr_emb": ("vec",)}
_DETECTION_KEYS = tuple(DETECTION_FORMAT)[:5]  # keys every line holds; emb or emb_ref follows
_TRACK_KEYS, _LABEL_KEYS = tuple(TRACK_FORMAT)[:6], tuple(TRACK_FORMAT)[6:]  # labels: every line of a track or none
_line_tags = itemgetter(*_LABEL_KEYS)

BBox = tuple[float, float, float, float]


@dataclass(eq=False)
class DetectionRecord:
    """A single frame-level detection with its appearance embedding."""

    frame: int
    bbox: BBox  # (x, y, w, h), w > 0 and h > 0
    confidence: float  # in [0, 1] after score scaling
    category_id: int
    category_score: float  # classifier score for category_id, in [0, 1]
    embedding: np.ndarray  # float32, shape (d,)


def _int_column(values: Sequence[int]) -> np.ndarray:
    """``values`` as an int64 column, or an object column of the ints when one falls outside
    int64 (a frame or category id past 2**63 keeps every digit)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class _Records(Sequence):
    """A read-only sequence of records that ``_records(start, stop)`` builds from ``.tolist()`` of
    columns, anew on each access: keep the built records to change them."""

    def __iter__(self) -> Iterator:
        return self._records(0, len(self))

    def __getitem__(self, i: int):
        i = range(len(self))[i]  # an IndexError past either end, as a list's
        return next(self._records(i, i + 1))


@dataclass(eq=False)
class DetectionFrame(_Records):
    """One frame's detections as columns, row i its detection i, and the read-only sequence of
    their ``DetectionRecord``s: Python ints and floats, and a view row of ``embedding``."""

    frame: int
    bbox: np.ndarray  # (D, 4) float64
    confidence: np.ndarray  # (D,) float64
    category_id: np.ndarray  # (D,) int64, or object when an id falls outside int64
    category_score: np.ndarray  # (D,) float64
    embedding: np.ndarray  # (D, d) float32

    def __len__(self) -> int:
        return len(self.confidence)

    def _records(self, start: int, stop: int) -> Iterator[DetectionRecord]:
        rows = slice(start, stop)
        return map(DetectionRecord, repeat(self.frame), map(tuple, self.bbox[rows].tolist()),
                   self.confidence[rows].tolist(), self.category_id[rows].tolist(),
                   self.category_score[rows].tolist(), self.embedding[rows])


@dataclass
class AssociationEvent:
    frame: int
    kind: str  # one of EVENT_KINDS
    track_id: int | None = None
    det_idx: int | None = None
    score: float | None = None


@dataclass(eq=False)
class EventBlock(_Records):
    """One frame's association events as columns, row i its event i. It is also the read-only
    sequence of the frame's ``AssociationEvent``s, a -1 or NaN read as None."""

    frame: int
    kind: np.ndarray  # (E,) int8, an index into EVENT_KINDS
    track: np.ndarray  # (E,) int64, -1 for none
    det: np.ndarray  # (E,) int64, -1 for none
    score: np.ndarray  # (E,) float64, NaN for none

    def __len__(self) -> int:
        return len(self.kind)

    def _records(self, start: int, stop: int) -> Iterator[AssociationEvent]:
        columns = (col[start:stop].tolist() for col in (self.kind, self.track, self.det, self.score))
        for kind, track, det, score in zip(*columns):
            yield AssociationEvent(self.frame, EVENT_KINDS[kind], None if track < 0 else track,
                                   None if det < 0 else det, None if math.isnan(score) else score)


@dataclass(eq=False)
class VocabularyEntry:
    category_id: int
    name: str
    split: str  # "base" or "novel"
    description: str
    cate_embedding: np.ndarray  # float32, shape (dim_text,)
    attr_embedding: np.ndarray  # float32, shape (dim_text,)


class Vocabulary:
    """Validated category table with an O(1) id membership test."""

    def __init__(self, entries: Sequence[VocabularyEntry], dim_text: int):
        self.entries = list(entries)
        self.dim_text = int(dim_text)
        self._ids = _unique_ids(self.ids)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, category_id: int) -> bool:
        return category_id in self._ids

    @property
    def ids(self) -> list[int]:
        return [e.category_id for e in self.entries]

    def splits(self) -> dict[int, str]:
        return {e.category_id: e.split for e in self.entries}

    def cate_matrix(self) -> np.ndarray:
        return np.stack([e.cate_embedding for e in self.entries]).astype(np.float64)

    def attr_matrix(self) -> np.ndarray:
        return np.stack([e.attr_embedding for e in self.entries]).astype(np.float64)


@dataclass
class GroundTruthTrack:
    track_id: int
    category_id: int
    boxes: dict[int, BBox] = field(default_factory=dict)  # frame -> bbox

    @property
    def frames(self) -> list[int]:
        return sorted(self.boxes)


@dataclass
class TrackEntry:
    """One (frame, box) observation of an output track."""

    frame: int
    bbox: BBox
    confidence: float
    category_id: int  # retained per-frame category
    det_idx: int  # index of the source detection within its frame


@dataclass
class TrackRecord:
    """Finalized track as serialized to tracks.jsonl."""

    track_id: int
    entries: list[TrackEntry]
    label: int | None = None
    label_source: str | None = None  # one of LABEL_SOURCES when labelled
    scores: dict[str, float] | None = None

    @property
    def boxes(self) -> dict[int, BBox]:
        return {e.frame: e.bbox for e in self.entries}


@dataclass(eq=False)
class BoxTable(_Records):
    """Tracks' boxes as columns, rows sorted by (track, frame), track i's ``bounds[i]:bounds[i + 1]``,
    and the read-only sequence of the tracks (``_records`` of a subclass)."""

    track_id: np.ndarray  # (N,) int64, or object when an id falls outside int64
    frame: np.ndarray  # (N,) likewise
    bbox: np.ndarray  # (N, 4) float64
    bounds: np.ndarray  # (T + 1,) int64

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def _tracks(self, start: int, stop: int, *columns: np.ndarray) -> Iterator[tuple]:
        """``(track id, boxes, rows of each of columns)`` per track start..stop-1, as lists."""
        bounds = self.bounds[start:stop + 1].tolist()
        rows = slice(bounds[0], bounds[-1])
        lists = [list(map(tuple, self.bbox[rows].tolist())), *(col[rows].tolist() for col in columns)]
        for tid, lo, hi in zip(self.track_id[bounds[:-1]].tolist(), bounds, bounds[1:]):
            yield tid, *(values[lo - rows.start:hi - rows.start] for values in lists)


@dataclass(eq=False)
class TrackTable(BoxTable):
    """A tracks.jsonl file, or a tracker's run (``Tracker.table``), as columns (see ``BoxTable``),
    a sequence of ``TrackRecord``s. A track's tags are set by labelling."""

    conf: np.ndarray  # (N,) float64
    cat: np.ndarray  # (N,) int64, or object
    det: np.ndarray  # (N,) int64, or object
    label: list  # per track, None when unlabelled
    label_source: list
    scores: list

    def _records(self, start: int, stop: int) -> Iterator[TrackRecord]:
        for (tid, boxes, frames, confs, cats, dets), label, source, scores in zip(
                self._tracks(start, stop, self.frame, self.conf, self.cat, self.det), self.label[start:stop],
                self.label_source[start:stop], self.scores[start:stop]):
            yield TrackRecord(tid, list(map(TrackEntry, frames, boxes, confs, cats, dets)), label, source,
                              None if scores is None else dict(scores))


@dataclass(eq=False)
class GroundTruthTable(BoxTable):
    """A groundtruth.jsonl file as columns (see ``BoxTable``), a sequence of ``GroundTruthTrack``s."""

    category_id: list  # per track

    def _records(self, start: int, stop: int) -> Iterator[GroundTruthTrack]:
        for (tid, boxes, frames), cat in zip(self._tracks(start, stop, self.frame), self.category_id[start:stop]):
            yield GroundTruthTrack(tid, cat, dict(zip(frames, boxes)))


def _fail(where: str | None, msg: str, error=FormatError) -> NoReturn:
    """Raise ``error`` naming ``where``; without ``where`` (a column pass) ValueError."""
    raise ValueError(msg) if where is None else error(f"{where}: {msg}")


def _require(cond, where: str | None, msg: str, error=FormatError) -> None:
    """``_fail`` with ``msg`` unless ``cond`` holds. A message that formats a value is made
    instead in an ``if`` that calls ``_fail``, so only once its check has failed."""
    if not cond:
        _fail(where, msg, error)


# JSON numbers load as int or float; true/false (bool) and "1.5" (str) are no numbers here.
_NUMBER_TYPES = frozenset((int, float))
# what refuses a chunk's column check; the chunk's line checks then name the fault and its line
_REFUSED = (orjson.JSONDecodeError, LookupError, TypeError, ValueError, OverflowError, RecursionError,
            TrajkitError)


def _floats(values) -> list[float] | None:
    """``values`` as floats, or None unless each is a JSON number that fits a float."""
    values = list(values)
    try:
        return [float(v) for v in values] if _NUMBER_TYPES.issuperset(map(type, values)) else None
    except OverflowError:  # an int too large for a float
        return None


def _checked(fmt: dict, key: str, values, where: str | None = None,
             vocabulary: Vocabulary | None = None, size: int | None = None) -> list:
    """``key``'s values, one per line, checked against ``fmt`` and converted: a column,
    or (with ``where``) one line's value, boxes and vecs as one 2-d array of rows. ``size``
    is the width of a vec (None: any) or the rows of the sidecar a ref indexes."""
    kind, *bounds = fmt[key]
    if kind in ("int", "cat"):
        if not ({*map(type, values)} <= {int} and not (bounds and min(values) < bounds[0])):
            _fail(where, f"{key} must be {'a non-negative int' if bounds else 'an int'}, got {values[0]!r}")
        if not (kind == "int" or vocabulary is None or all(v in vocabulary for v in values)):
            _fail(where, f"unknown category id {values[0]}", UnknownCategoryError)
    elif kind == "ref":
        if not ({*map(type, values)} <= {int} and 0 <= min(values) and max(values) < size):
            _fail(where, f"{key} {values[0]!r} outside sidecar with {size} rows")
    elif kind == "num":
        nums, (lo, hi) = _floats(values), bounds
        if nums is None:
            _fail(where, f"{key} must be a number, got {values[0]!r}")
        if not (math.isfinite(sum(nums)) and lo <= min(nums) and max(nums) <= hi):
            need = f"be finite and >= {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
            _fail(where, f"{key} must {need}, got {nums[0]}")
        return nums
    elif kind == "bbox":
        _require({*map(type, values)} <= {list} and {*map(len, values)} == {4}, where,
                 "bbox must have 4 entries")
        flat = _floats(chain.from_iterable(values))
        _require(flat is not None, where, "bbox entries must be numbers")
        boxes = np.array(flat).reshape(-1, 4)
        if not np.isfinite(boxes).all():
            _fail(where, f"bbox entries must be finite, got {flat[:4]}")
        if not (boxes[:, 2:] > 0).all():
            _fail(where, f"bbox needs positive width/height, got w={flat[2]} h={flat[3]}")
        return boxes
    elif kind == "vec":  # bounds may name the vector in messages; then a list of it must be flat
        name, rows = (bounds[0] if bounds else key), isinstance(values, np.ndarray)  # rows: sidecar's
        try:
            arr = np.asarray(values, dtype=np.float32)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if not (arr is not None and (arr.ndim != 2 or rows or
                                     _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(values))))):
            _fail(where, f"{key} entries must be numbers")
        if not (rows or not bounds or arr.ndim == 2 and arr.shape[1]):
            _fail(where, f"{key} must be a non-empty flat list")
        if not (arr.ndim == 2 and arr.shape[1] == (size or arr.shape[1])):
            _fail(where, f"{name} has {arr[0].size} dims, expected {size}", DimMismatchError)
        if not np.isfinite(arr).all():
            _fail(where, f"{name} contains non-finite entries", NonFiniteError)
        if not arr.any(axis=1).all():
            _fail(where, f"{name} has zero norm", ZeroNormError)
        return arr
    elif kind == "choice":
        if not all(v in bounds[0] for v in values):
            _fail(where, f"{key} must be one of {bounds[0]}, got {values[0]!r}")
    elif kind == "scores":  # kept as loaded: a track's first line gives its float scores
        dicts = {*map(type, values)} <= {dict}
        nums = _floats(chain.from_iterable(map(dict.values, values))) if dicts else None
        if not (nums is not None and math.isfinite(sum(nums))):
            _fail(where, f"{key} must map names to finite numbers, got {values[0]!r}")
        # the column pass's parser loads an int past 64 bits as a float, which json keeps an int
        _require(where or max(map(abs, nums), default=0) < 2 ** 63, None, "a score past 64-bit ints")
    elif kind == "text":
        return list(map(str, values))
    return values


# the column passes' parser: it refuses what json refuses, but for a value nested past the
# interpreter's depth, and also NaN, Infinity and a lone surrogate, which json loads; it loads
# an int outside [-2**63, 2**64) as a float
_parse_line = orjson.loads


def _load_json(text: str, where: str):
    """``text`` loaded by json, the reference parser, which refuses naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: malformed JSON ({exc.msg})") from None
    except ValueError as exc:  # an int literal of more digits than the interpreter converts
        raise FormatError(f"{where}: {exc}") from None


def _chunks(path, fmt: dict, keys, vocabulary: Vocabulary | None = None,
            more=lambda objs, where: [None] * len(objs)) -> Iterator[tuple]:
    """``(linenos, columns, extra)`` per chunk of non-blank lines: the ``keys``' columns checked
    by ``_checked`` and what ``more`` makes of the lines' objects. ``_CHUNK`` lines at a time are
    checked by columns, each line parsed on its own (two broken lines may make valid JSON). A
    refused chunk's lines are each checked as a chunk of its own just before it is yielded, so
    that a failed check raises naming ``path:lineno`` after the lines before it."""
    def by_columns(numbered: list[tuple]) -> list[tuple]:
        objs = [_parse_line(line) for _, line in numbered]
        # no key but the format's, whose checks bound their depth: json refuses a value nested
        # past the interpreter's depth, which the parser loads
        _require(set().union(*objs) <= fmt.keys(), None, "a key no format reads")
        cols = [_checked(fmt, key, [o[key] for o in objs], vocabulary=vocabulary) for key in keys]
        return [([n for n, _ in numbered], cols, more(objs, None))]

    def by_line(lineno: int, line: str) -> tuple:
        where = f"{path}:{lineno}"
        try:
            obj = _load_json(line, where)
            _require(isinstance(obj, dict), where, "line must hold a JSON object")
            for key in keys:
                _require(key in obj, where, f"missing key {key!r}")
            return [lineno], [_checked(fmt, key, [obj[key]], where, vocabulary) for key in keys], more([obj], where)
        except RecursionError:  # past the interpreter's depth, in the parse or in a message's repr
            raise FormatError(f"{where}: JSON nested too deeply") from None

    try:
        with open(path, "r", encoding="utf-8") as fh:
            numbered = enumerate(fh, start=1)
            while chunk := list(islice(numbered, _CHUNK)):
                if not (chunk := [(n, line) for n, line in chunk if not line.isspace()]):
                    continue
                try:
                    chunks = by_columns(chunk)
                except _REFUSED:
                    chunks = (by_line(n, line) for n, line in chunk)
                yield from chunks
                del chunk, chunks  # so that one chunk is held at a time
    except UnicodeDecodeError:  # only a failing file is read again, to find the line
        raise _not_utf8(path) from None


def _not_utf8(path, numbered: bool = True) -> FormatError:
    """The error naming ``path:line`` (or ``path``) and the byte where UTF-8 decoding fails."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # universal newlines, as text-mode line numbers count
        head = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        where = f"{path}:{head.count(10) + 1}" if numbered else path
        return FormatError(f"{where}: not valid UTF-8 at byte {exc.start} ({exc.reason})")
    return FormatError(f"{path}: not valid UTF-8")  # the file changed since it was read


def read_embedding_sidecar(path) -> np.ndarray:
    """Read an .embin file into a (count, dim) float32 array."""
    raw = Path(path).read_bytes()
    if len(raw) < 18:
        raise TruncatedError(f"{path}: sidecar header needs 18 bytes, file has {len(raw)}")
    if raw[:4] != SIDECAR_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    version, dim, count = struct.unpack_from("<HIQ", raw, 4)
    if version != SIDECAR_VERSION:
        raise FormatError(f"{path}: unsupported sidecar version {version}")
    need = 18 + 4 * dim * count
    if len(raw) < need:
        raise TruncatedError(f"{path}: expected {need} bytes, file has {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", count=dim * count, offset=18)
    return data.reshape(count, dim).copy()


def write_embedding_sidecar(embeddings: np.ndarray, path) -> None:
    """Write a (count, dim) array as an .embin file."""
    arr = np.ascontiguousarray(embeddings, dtype="<f4")
    if arr.ndim != 2:
        raise DimMismatchError(f"sidecar expects a 2-d array, got shape {arr.shape}")
    count, dim = arr.shape
    with open(path, "wb") as fh:
        fh.write(SIDECAR_MAGIC)
        fh.write(struct.pack("<HIQ", SIDECAR_VERSION, dim, count))
        fh.write(arr.tobytes())


def load_detections(path, score_scale: float = 1.0, *,
                    vocabulary: Vocabulary | None = None) -> dict[int, DetectionFrame]:
    """Load a detections.jsonl file into a frame -> ``DetectionFrame`` map, frames ascending.

    Confidences are multiplied by ``score_scale`` (finite and > 0, else ValueError) and clamped
    to [0, 1]: detectors whose raw scores exceed 1 are tamed with e.g. 0.1. Detections within
    a frame are sorted by a canonical content key of the file's values (the raw ``conf``), so
    neither line order nor ``score_scale`` changes an index. Records that hold ``emb_ref`` read
    their rows from the sibling file with the .embin suffix."""
    if not (math.isfinite(score_scale) and score_scale > 0):
        raise ValueError(f"score_scale must be finite and > 0, got {score_scale}")
    fmt, side, dim, side_path = DETECTION_FORMAT, None, None, Path(path).with_suffix(".embin")

    def embeddings(objs: list[dict], where: str | None) -> np.ndarray:
        nonlocal side, dim
        inline = "emb" in objs[0]  # then on every line of a chunk, else on none
        _require(inline or "emb_ref" in objs[0], where, "record needs either emb or emb_ref")
        _require(where or not any(("emb_ref" if inline else "emb") in o for o in objs), None, "emb mixed")
        if side is None and "emb_ref" in objs[0]:
            _require(side_path.exists(), where, "emb_ref used but no embedding sidecar found")
            side = read_embedding_sidecar(side_path)
        if inline:
            embs = _checked(fmt, "emb", [o["emb"] for o in objs], where, size=dim)
        else:
            refs = _checked(fmt, "emb_ref", [o["emb_ref"] for o in objs], where, size=len(side))
            embs = _checked(fmt, "emb", side[refs], where, size=dim)  # a copy of a chunk's rows
        dim = embs.shape[1]
        return embs

    frames, boxes, confs, cats, scores, embs = [], [], [], [], [], []
    for _, (frame, box, conf, cat, score), emb in _chunks(path, fmt, _DETECTION_KEYS, vocabulary, embeddings):
        frames += frame
        boxes.append(box)
        confs += conf
        cats += cat
        scores += score
        embs.append(emb)
    if not embs:
        return {}
    boxes, confs, scores = np.concatenate(boxes), np.array(confs), np.array(scores)
    # stable; each key as lexsort converts it, so ints past int64 mixed with smaller ones
    # may sort as float64
    order = np.lexsort((scores, cats, confs, *boxes.T[::-1], frames))
    frames, cats = _int_column(frames), _int_column(cats)
    if (frames[order[1:]] < frames[order[:-1]]).any():  # float64 keys tied distinct frames
        first = {}  # each frame's rows go to its first place in the order
        order = order[np.argsort([first.setdefault(f, len(first)) for f in frames[order].tolist()], kind="stable")]
    # two copies of the rows at most: the sidecar goes before the chunks are joined, the
    # chunks once they are, and the joined rows once they are sorted
    side = None
    embedding, embs = np.concatenate(embs), None
    embedding = embedding[order]
    # no floor at 0.0: a confidence is >= 0.0 or -0.0, whose sign is kept (np.maximum(-0.0, 0.0)
    # is 0.0)
    with np.errstate(over="ignore"):  # a product past the float range clamps to 1
        confidence = np.minimum(confs[order] * score_scale, 1.0)
    frames, columns = frames[order], (boxes[order], confidence, cats[order], scores[order], embedding)
    bounds = _runs(frames).tolist()
    return {frame: DetectionFrame(frame, *(col[lo:hi] for col in columns))
            for frame, lo, hi in zip(frames[bounds[:-1]].tolist(), bounds[:-1], bounds[1:])}


def _json_floats(values) -> list[str]:
    """The text ``json.dumps`` gives each of ``values``, floats or None, spelled by one ``orjson``
    pass. orjson spells a float as repr does when ``1e-4 <= |x| < 1e16`` or x is zero; outside
    that it writes another exponent (``0.00001`` for ``1e-05``, ``1e16`` for ``1e+16``) and null
    for NaN and the infinities, so json spells those values."""
    col = np.asarray(values, dtype=np.float64)  # None is NaN here
    words = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",") if col.size else []
    mag = np.abs(col)
    for i in np.flatnonzero((mag < 1e-4) & (col != 0) | ~(mag < 1e16)).tolist():
        words[i] = "null" if values[i] is None else json.dumps(float(col[i]))
    return words


def _json_rows(arrays) -> list[list[str]]:
    """``_json_floats`` of each row of ``arrays`` (1-d arrays, or one 2-d array), spelled in one
    pass over them all."""
    sizes = [arrays.shape[1]] * len(arrays) if isinstance(arrays, np.ndarray) else [len(a) for a in arrays]
    words = _json_floats(np.concatenate(arrays) if len(arrays) else [])
    return [words[end - size:end] for size, end in zip(sizes, np.cumsum(sizes).tolist())]


def _write_lines(path, blocks: Iterable[Sequence], line: str, floats: Sequence[int] = (),
                 lists: Sequence[int] = ()) -> None:
    """Write ``line % row`` for each row of each block of equal-length columns, ``_CHUNK`` rows at
    a time: a chunk's float columns at ``floats`` are spelled by one ``_json_floats`` pass, its
    (n, d) arrays at ``lists`` by one ``_json_rows`` pass, the rest as ``.tolist()`` gives them."""
    with open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            for start in range(0, len(block[0]), _CHUNK):
                cols = [col[start:start + _CHUNK] for col in block]
                n = len(cols[0])
                words = _json_floats(np.concatenate([cols[i] for i in floats])) if floats else []
                for k, i in enumerate(floats):
                    cols[i] = words[k * n:(k + 1) * n]
                for i in lists:
                    cols[i] = ["[" + ", ".join(row) + "]" for row in _json_rows(cols[i])]
                cols = [col.tolist() if isinstance(col, np.ndarray) else col for col in cols]
                fh.write("".join(map(line.__mod__, zip(*cols))))


def write_detections(dets_by_frame: dict[int, DetectionFrame], path, *,
                     sidecar: bool = False) -> None:
    """Write detections as JSONL from each frame's columns, frames in ascending order; with
    ``sidecar=True`` embeddings go to a binary .embin next to the file and lines carry
    ``emb_ref``."""
    path = Path(path)
    blocks = [block for frame in sorted(dets_by_frame) if len(block := dets_by_frame[frame])] or [
        DetectionFrame(0, np.zeros((0, 4)), *np.zeros((3, 0)), np.zeros((0, 0), np.float32))]  # a 0-wide sidecar
    keys = ("bbox", "confidence", "category_id", "category_score", "embedding")
    bbox, conf, cat, score, embedding = (np.concatenate([getattr(b, key) for b in blocks]) for key in keys)
    if sidecar:
        write_embedding_sidecar(embedding, path.with_suffix(".embin"))
    line = '{"frame": %d, "bbox": [%s, %s, %s, %s], "conf": %s, "cat": %d, "cat_score": %s, '
    line += '"emb_ref": %d}\n' if sidecar else '"emb": %s}\n'
    _write_lines(path, [[np.repeat(_int_column([b.frame for b in blocks]), list(map(len, blocks))), *bbox.T, conf, cat,
                         score, np.arange(len(conf)) if sidecar else embedding]], line, (1, 2, 3, 4, 5, 7),
                 () if sidecar else (8,))


def _unique_ids(ids: Sequence[int], path=None) -> set[int]:
    """The set of ``ids``; DuplicateCategoryError at the first id an earlier one repeats,
    naming ``path`` and the entry when the ids are a file's."""
    seen: set[int] = set()
    for i, category_id in enumerate(ids):
        if category_id in seen:
            where = "" if path is None else f"{path}: entry {i}: "
            raise DuplicateCategoryError(f"{where}duplicate category id {category_id}")
        seen.add(category_id)
    return seen


def _vocabulary_entry(raw, where: str, dim_text: int) -> VocabularyEntry:
    """One vocabulary entry checked on its own."""
    _require(isinstance(raw, dict), where, "entry must be a JSON object")
    for key in ("id", "name", "split"):
        _require(key in raw, where, f"missing key {key!r}")
    values = []
    for key in VOCABULARY_ENTRY_FORMAT:  # only the embeddings can still be missing
        _require(key in raw or key == "description", where, f"missing embedding {key!r}")
        values.extend(_checked(VOCABULARY_ENTRY_FORMAT, key, [raw.get(key, "")], where, size=dim_text))
    return VocabularyEntry(*values)


def _column_entries(path) -> tuple[int, list[dict]]:
    """A vocabulary.json file parsed once: ``dim_text`` and the entries, each a dict of no key
    but those of ``VOCABULARY_ENTRY_FORMAT``. Raises one of ``_REFUSED`` otherwise."""
    with open(path, "rb") as fh:
        obj = _parse_line(fh.read())
    dim_text, raw = obj["dim_text"], obj["entries"]
    # no key but those read, whose checks bound their depth: json refuses a value nested past
    # the interpreter's depth, which the parser loads
    _require(type(dim_text) is int and dim_text > 0 and type(raw) is list and raw
             and obj.keys() == {"dim_text", "entries"}
             and all(type(e) is dict and e.keys() <= VOCABULARY_ENTRY_FORMAT.keys() for e in raw), None,
             "not a vocabulary the columns load")
    return dim_text, raw


def _text_column(raw: list[dict], key: str) -> list[str]:
    col = [e.get(key, "") if key == "description" else e[key] for e in raw]
    # json keeps a text's number as its str(), which the parser may load otherwise (1e+30)
    _require({*map(type, col)} <= {str}, None, f"{key} that is no str")
    return col


def _vocabulary_columns(path) -> Vocabulary:
    """A vocabulary.json file parsed once, each key of ``VOCABULARY_ENTRY_FORMAT`` checked as
    a column of every entry. Raises one of ``_REFUSED`` on a file the entry checks may refuse
    or load otherwise."""
    dim_text, raw = _column_entries(path)
    cols = [_text_column(raw, key) if kind == "text" else
            _checked(VOCABULARY_ENTRY_FORMAT, key, [e[key] for e in raw], size=dim_text)
            for key, (kind, *_) in VOCABULARY_ENTRY_FORMAT.items()]
    return Vocabulary(list(map(VocabularyEntry, *cols)), dim_text)  # a repeated id is refused here


def load_vocabulary(path) -> Vocabulary:
    """Load and validate a vocabulary.json file: by columns (``_vocabulary_columns``) or,
    when they refuse, entry by entry (``_vocabulary_entry``), which raises the error naming
    the file and entry."""
    try:
        return _vocabulary_columns(path)
    except _REFUSED:
        return _vocabulary_entries(path)


def _vocabulary_entries(path) -> Vocabulary:
    """A vocabulary.json file loaded by json and checked entry by entry (``_vocabulary_entry``),
    which raises the error naming the file and entry."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _load_json(fh.read(), path)
        _require(isinstance(obj, dict) and "dim_text" in obj and isinstance(obj.get("entries"), list),
                 path, "vocabulary needs dim_text and an entries list")
        dim_text, raw = obj["dim_text"], obj["entries"]
        _require(type(dim_text) is int and dim_text > 0, path, "dim_text must be a positive int")
        _require(raw, path, "vocabulary needs at least one entry")
        entries = [_vocabulary_entry(e, f"{path}: entry {i}", dim_text) for i, e in enumerate(raw)]
    except UnicodeDecodeError:
        raise _not_utf8(path, numbered=False) from None
    except RecursionError:  # past the interpreter's depth, in the parse or in a message's repr
        raise FormatError(f"{path}: JSON nested too deeply") from None
    _unique_ids([e.category_id for e in entries], path)
    return Vocabulary(entries, dim_text)


def _splits_columns(path) -> dict[int, str]:
    """Each category id's split from a vocabulary.json file parsed once, each key checked as a
    column of every entry as ``_vocabulary_entry`` checks it, but for an embedding's values.
    Raises one of ``_REFUSED`` on a file the entry checks may refuse or load otherwise."""
    dim_text, raw = _column_entries(path)
    fmt = VOCABULARY_ENTRY_FORMAT
    ids, splits = (_checked(fmt, key, [e[key] for e in raw]) for key in ("id", "split"))
    for key in ("name", "description"):
        _text_column(raw, key)
    for key in ("cate_emb", "attr_emb"):
        col = [e[key] for e in raw]
        # the parser loads no NaN and no infinity, so every number it loads is finite
        _require({*map(type, col)} <= {list} and {*map(len, col)} == {dim_text}
                 and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(col))), None,
                 f"{key} that is no list of dim_text numbers")
    _require(len(set(ids)) == len(ids), None, "a repeated id")
    return dict(zip(ids, splits))


def load_splits(path) -> dict[int, str]:
    """Each category id's split from a vocabulary.json file. A file that ``_splits_columns``
    loads takes every check of ``load_vocabulary`` but those of an embedding's values (all zero
    or too large for a float32). ``load_vocabulary``'s entry checks load any other file, or
    raise naming the file and entry: its column pass would refuse it, so it is skipped."""
    try:
        return _splits_columns(path)
    except _REFUSED:
        return _vocabulary_entries(path).splits()


def write_vocabulary(vocab: Vocabulary, path) -> None:
    """Write ``vocab`` byte for byte as ``json.dump(..., indent=1)`` writes its dict, and a
    newline; the embeddings of ``_CHUNK`` entries at a time are spelled by one ``_json_rows`` pass."""
    quoted, entries = json.encoder.encode_basestring_ascii, iter(vocab)
    entry = ('{\n   "id": %d,\n   "name": %s,\n   "split": %s,\n   "description": %s,\n'
             '   "cate_emb": %s,\n   "attr_emb": %s\n  }')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "dim_text": %d,\n "entries": [' % vocab.dim_text)
        sep = "\n  "
        while chunk := list(islice(entries, _CHUNK)):
            rows = _json_rows([v for e in chunk for v in (e.cate_embedding, e.attr_embedding)])
            embs = iter(["[\n    " + ",\n    ".join(row) + "\n   ]" if row else "[]" for row in rows])
            fh.write(sep + ",\n  ".join(entry % (e.category_id, quoted(e.name), quoted(e.split),
                                                 quoted(e.description), next(embs), next(embs)) for e in chunk))
            sep = ",\n  "
        fh.write("\n ]\n}\n" if vocab.entries else "]\n}\n")


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a .twb weights bundle into its float64 tensors, keyed by name, checking magic,
    version, truncation, UTF-8 names, duplicate names and finiteness. Which tensors a bundle
    holds and their shapes are the concern of :class:`trajkit.fusion.FusionWeights`."""
    raw = Path(path).read_bytes()
    if len(raw) < 6:
        raise TruncatedError(f"{path}: bundle header needs 6 bytes, file has {len(raw)}")
    if raw[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != WEIGHTS_VERSION:
        raise FormatError(f"{path}: unsupported bundle version {version}")
    tensors: dict[str, np.ndarray] = {}
    off = 6
    while off < len(raw):
        if off + 2 > len(raw):
            raise TruncatedError(f"{path}: truncated tensor name length at byte {off}")
        (name_len,) = struct.unpack_from("<H", raw, off)
        off += 2
        if off + name_len + 1 > len(raw):
            raise TruncatedError(f"{path}: truncated tensor header at byte {off}")
        try:
            name = raw[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name at byte {off} is not valid UTF-8") from None
        off += name_len
        rank = raw[off]
        off += 1
        if rank > _MAX_RANK:
            raise FormatError(f"{path}: tensor {name!r} has rank {rank}, more than {_MAX_RANK}")
        if off + 4 * rank > len(raw):
            raise TruncatedError(f"{path}: truncated dims for tensor {name!r}")
        dims = struct.unpack_from(f"<{rank}I", raw, off) if rank else ()
        off += 4 * rank
        count = math.prod(dims)  # exact: a fixed-width product wraps round
        if off + 4 * count > len(raw):
            raise TruncatedError(f"{path}: truncated payload for tensor {name!r}")
        data = np.frombuffer(raw, dtype="<f4", count=count, offset=off).reshape(dims)
        off += 4 * count
        if name in tensors:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        if not np.all(np.isfinite(data)):
            raise NonFiniteError(f"{path}: tensor {name!r} contains non-finite entries")
        tensors[name] = data.astype(np.float64)
    return tensors


def write_weights(tensors: dict[str, np.ndarray], path) -> None:
    """Write named tensors as a .twb bundle (float32 payloads)."""
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<H", WEIGHTS_VERSION))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f4")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"tensor {name!r} contains non-finite entries")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr).tobytes())


def _box_tracks(path, fmt: dict, keys, what: str, tags,
                vocabulary: Vocabulary | None = None) -> tuple[dict, np.ndarray, list]:
    """A tracks or ground-truth file as ``(columns, bounds, track_tags)``: the ``keys``' columns of
    ``_chunks`` joined, rows sorted by (track, frame) with one ``lexsort``, track i's rows
    ``bounds[i]:bounds[i + 1]``, and what ``tags`` makes of each track's first line. The first
    fault in file order is raised: a line's own, or one that repeats its track's frame or
    changes its tag (``what``) before it, which ``_first_repeat_or_switch`` names."""
    chunks, fault = [], None
    try:
        for chunk in _chunks(path, fmt, keys, vocabulary, tags):
            chunks.append(chunk)
    except TrajkitError as exc:  # the lines before it may hold a fault that comes first
        fault = exc
    line_tags = [tag for _, _, extra in chunks for tag in extra]
    columns = {}
    for k, key in enumerate(keys):
        parts = [cols[k] for _, cols, _ in chunks]
        kind = fmt[key][0]
        if kind == "bbox":
            columns[key] = np.concatenate(parts) if parts else np.zeros((0, 4))
        else:
            values = list(chain.from_iterable(parts))
            columns[key] = np.array(values, dtype=np.float64) if kind == "num" else _int_column(values)
    tracks, frames = _ranks(columns["track_id"]), _ranks(columns["frame"])
    order = np.lexsort((frames, tracks))  # stable: a repeated frame's lines stay in file order
    tracks, frames = tracks[order], frames[order]
    bounds = _runs(tracks)
    firsts = np.minimum.reduceat(order, bounds[:-1])  # each track's first line in the file
    tag_of = line_tags.__getitem__
    if ((tracks[1:] == tracks[:-1]) & (frames[1:] == frames[:-1])).any() or any(map(
            ne, map(tag_of, order.tolist()), map(tag_of, np.repeat(firsts, np.diff(bounds)).tolist()))):
        linenos = [n for numbers, _, _ in chunks for n in numbers]
        _first_repeat_or_switch(path, zip(linenos, columns["track_id"].tolist(), columns["frame"].tolist(),
                                          line_tags), what)
    if fault is not None:
        raise fault
    return {key: col[order] for key, col in columns.items()}, bounds, list(map(tag_of, firsts.tolist()))


def _ranks(col: np.ndarray) -> np.ndarray:
    """An int column as int64: itself, or its dense ranks when it holds ints past int64."""
    return col if col.dtype != object else np.unique(col, return_inverse=True)[1]


def _runs(keys: np.ndarray) -> np.ndarray:
    """The bounds of the runs of equal values in sorted ``keys``: run i is ``bounds[i]:bounds[i + 1]``."""
    edges = np.ones(len(keys) + 1, dtype=bool)
    edges[1:-1] = keys[1:] != keys[:-1]
    return np.flatnonzero(edges)


def _first_repeat_or_switch(path, rows: Iterable[tuple], what: str) -> None:
    """FormatError naming ``path:lineno`` at the first ``(lineno, track, frame, tag)`` row that
    repeats its track's frame or changes its tag (``what``) from the track's first row."""
    tracks: dict = {}
    for lineno, tid, frame, tag in rows:
        first, frames = tracks.setdefault(tid, (tag, set()))
        if first != tag:
            raise FormatError(f"{path}:{lineno}: track {tid} switches {what} {first} -> {tag}")
        if frame in frames:
            raise FormatError(f"{path}:{lineno}: track {tid} repeats frame {frame}")
        frames.add(frame)


def load_groundtruth(path) -> GroundTruthTable:
    """Load groundtruth.jsonl into a ``GroundTruthTable``: its boxes as columns sorted by
    (track, frame), and the read-only sequence of its ``GroundTruthTrack``s."""
    columns, bounds, cats = _box_tracks(path, GROUNDTRUTH_FORMAT, GROUNDTRUTH_FORMAT, "category",
                                        lambda objs, where: [o["cat"] for o in objs])  # checked by then
    return GroundTruthTable(columns["track_id"], columns["frame"], columns["bbox"], bounds, cats)


def write_groundtruth(tracks: Iterable[GroundTruthTrack], path) -> None:
    line = '{"track_id": %d, "cat": %d, "frame": %d, "bbox": [%s, %s, %s, %s]}\n'
    tracks = sorted(tracks, key=lambda t: t.track_id)
    frames, sizes = [sorted(t.boxes) for t in tracks], [len(t.boxes) for t in tracks]
    ids, cats = (np.repeat(_int_column([getattr(t, k) for t in tracks]), sizes) for k in ("track_id", "category_id"))
    boxes = np.array([t.boxes[f] for t, fs in zip(tracks, frames) for f in fs], dtype=np.float64).reshape(-1, 4)
    _write_lines(path, [[ids, cats, _int_column([f for fs in frames for f in fs]), *boxes.T]], line, (3, 4, 5, 6))


def _records_table(records: Sequence[TrackRecord]) -> TrackTable:
    """``records`` gathered into a ``TrackTable`` once, a track per record with entries: by track
    id (records of one id in list order), then by frame."""
    entries = [e for r in records for e in r.entries]
    rec = np.repeat(np.arange(len(records)), [len(r.entries) for r in records])
    track_id = _int_column([r.track_id for r in records])[rec]
    frame, cat, det = (_int_column([getattr(e, key) for e in entries]) for key in ("frame", "category_id", "det_idx"))
    order = np.lexsort((_ranks(frame), rec, _ranks(track_id)))
    bounds = _runs(rec[order])
    kept = [records[k] for k in rec[order][bounds[:-1]].tolist()]
    bbox, conf = (np.array([getattr(e, key) for e in entries], np.float64) for key in ("bbox", "confidence"))
    return TrackTable(track_id[order], frame[order], bbox.reshape(-1, 4)[order], bounds, conf[order], cat[order],
                      det[order], *([getattr(r, key) for r in kept] for key in ("label", "label_source", "scores")))


def write_tracks(tracks: TrackTable | Sequence[TrackRecord], path) -> None:
    """Write tracks as JSONL from a table's columns, in row order, or from a list of records."""
    table = tracks if isinstance(tracks, TrackTable) else _records_table(tracks)
    tags = np.array(["" if label is None else ", " + json.dumps({
        "label": int(label), "label_source": source,
        "scores": {k: float(v) for k, v in (scores or {}).items()}})[1:-1]
        for label, source, scores in zip(table.label, table.label_source, table.scores)], dtype=object)
    line = '{"track_id": %d, "frame": %d, "bbox": [%s, %s, %s, %s], "conf": %s, "cat": %d, "det": %d%s}\n'
    _write_lines(path, [[table.track_id, table.frame, *table.bbox.T, table.conf, table.cat, table.det,
                         np.repeat(tags, np.diff(table.bounds))]], line, (2, 3, 4, 5, 6))


def write_events(blocks: Iterable[EventBlock], path) -> None:
    """Write the tracker's association events as JSONL, one line per row of each frame's
    ``EventBlock``, in order: a -1 track or det and a NaN score are null."""
    blocks = [b for b in blocks if len(b)] or [EventBlock(0, *np.zeros((4, 0), np.int8))]
    kind, track, det, score = (np.concatenate([getattr(b, key) for b in blocks])
                               for key in ("kind", "track", "det", "score"))
    kinds = np.array([json.encoder.encode_basestring_ascii(k) for k in EVENT_KINDS], dtype=object)
    line = '{"frame": %d, "kind": %s, "track": %s, "det": %s, "score": %s}\n'
    _write_lines(path, [[np.repeat(_int_column([b.frame for b in blocks]), list(map(len, blocks))), kinds[kind],
                         *(np.where(col < 0, "null", col.astype(object)) for col in (track, det)),
                         np.where(np.isnan(score), None, score)]], line, (4,))


def _label_tags(objs: list[dict], where: str | None) -> list[tuple]:
    """Each tracks line's (label, label_source, scores), on every line of a chunk or none. A column
    pass checks every line's types, but the values once per run of equal tags (1 equals true)."""
    if "label" not in objs[0]:
        _require(where or not any("label" in o for o in objs), None, "labelled and unlabelled lines")
        return [(None, None, None)] * len(objs)
    try:
        tags = list(map(_line_tags, objs))
    except KeyError:  # the checks refuse a line without label or label_source
        tags = [(o.get("label"), o.get("label_source"), o.get("scores", {})) for o in objs]
    runs = tags
    if where is None:
        labels, _, scores = zip(*tags)
        _require({*map(type, labels)} <= {int} and {*map(type, scores)} <= {dict} and _NUMBER_TYPES.issuperset(
            map(type, chain.from_iterable(map(dict.values, scores)))), None, "a tag of another type")
        runs = [tag for tag, before in zip(tags, [None, *tags]) if tag != before]
    for key, values in zip(_LABEL_KEYS, zip(*runs)):
        _checked(TRACK_FORMAT, key, list(values), where)
    return tags


def read_tracks(path, *, vocabulary: Vocabulary | None = None) -> TrackTable:
    """Inverse of :func:`write_tracks` on logical content: a ``TrackTable`` of the file's
    entries. With a ``vocabulary``, every entry's ``cat`` must be one of its ids."""
    columns, bounds, tags = _box_tracks(path, TRACK_FORMAT, _TRACK_KEYS, "label", _label_tags, vocabulary)
    labels, sources, scores = (list(tag) for tag in zip(*tags)) if tags else ([], [], [])
    return TrackTable(columns["track_id"], columns["frame"], columns["bbox"], bounds, columns["conf"],
                      columns["cat"], columns["det"], labels, sources,
                      [None if s is None else {k: float(v) for k, v in s.items()} for s in scores])
