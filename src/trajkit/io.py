"""Reading and writing of detection, vocabulary, track and weight files.

File formats
------------
detections.jsonl
    One JSON object per line:
    ``{"frame": int, "bbox": [x, y, w, h], "conf": float, "cat": int,
    "cat_score": float, "emb": [...]}``. Instead of an inline ``emb`` a line
    may carry ``"emb_ref": int`` indexing a row of a binary sidecar.
embedding sidecar (``.embin``)
    magic ``TRJK``, u16 version (=1), u32 dim, u64 count, then
    ``count * dim`` float32 values, little endian, row major.
vocabulary.json
    ``{"dim_text": int, "entries": [{"id", "name", "split", "description",
    "cate_emb", "attr_emb"}, ...]}`` with ``split`` one of base/novel.
weights bundle (``.twb``)
    magic ``TRJW``, u16 version (=1), then repeated records of
    u16 name length, UTF-8 name, u8 rank (at most 32), rank u32 dims,
    float32 payload (little endian) until end of file. The fusion block's
    tensor names and shapes are ``trajkit.fusion.FUSION_TENSOR_SHAPES``.
tracks.jsonl
    One line per (track, frame): ``{"track_id", "frame", "bbox", "conf",
    "cat", "det"}`` plus optional ``label`` / ``label_source`` / ``scores``
    once a trajectory level label exists. ``det`` is the index of the source
    detection within its frame, ``conf`` lies in [0, 1], ``label_source`` is
    ``cate``, ``attr`` or ``det`` and ``scores`` maps names to finite numbers.
groundtruth.jsonl
    One line per (track, frame): ``{"track_id", "cat", "frame", "bbox"}``.

All multi-byte binary fields are little endian. Embedding payloads are kept
as float32; similarity math upcasts, storage never mutates them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateCategoryError,
    FormatError,
    NonFiniteError,
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


@dataclass(eq=False)
class VocabularyEntry:
    category_id: int
    name: str
    split: str  # "base" or "novel"
    description: str
    cate_embedding: np.ndarray  # float32, shape (dim_text,)
    attr_embedding: np.ndarray  # float32, shape (dim_text,)


class Vocabulary:
    """Validated category table with O(1) id lookup."""

    def __init__(self, entries: Sequence[VocabularyEntry], dim_text: int):
        self.entries = list(entries)
        self.dim_text = int(dim_text)
        self._by_id = {}
        for e in self.entries:
            if e.category_id in self._by_id:
                raise DuplicateCategoryError(f"duplicate category id {e.category_id}")
            self._by_id[e.category_id] = e

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, category_id: int) -> bool:
        return category_id in self._by_id

    def get(self, category_id: int) -> VocabularyEntry:
        try:
            return self._by_id[category_id]
        except KeyError:
            raise UnknownCategoryError(f"unknown category id {category_id}") from None

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


LABEL_SOURCES = ("cate", "attr", "det")  # the channel a track label came from


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


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise FormatError(f"{where}: {msg}")


def _is_int(v) -> bool:
    return type(v) is int  # JSON true/false load as bool, which is no int here


# JSON numbers load as int or float; true/false (bool) and "1.5" (str) are no numbers here.
_NUMBER_TYPES = frozenset((int, float))


def _require_keys(obj, keys: tuple[str, ...], where: str) -> None:
    """A JSONL line must hold an object with every one of ``keys``."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: line must hold a JSON object")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{where}: missing key {key!r}")


def _jsonl(path: Path, keys: tuple[str, ...]) -> Iterator[tuple[str, dict]]:
    """Yield ``(where, obj)`` for each non-blank line of a JSONL file.

    ``where`` is ``path:lineno``; ``obj`` is the line's JSON object, checked
    to hold every one of ``keys``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{where}: malformed JSON ({exc.msg})") from None
            _require_keys(obj, keys, where)
            yield where, obj


def _ints(obj: dict, keys: tuple[str, ...], where: str) -> list[int]:
    values = [obj[key] for key in keys]
    for key, v in zip(keys, values):
        if not _is_int(v):
            raise FormatError(f"{where}: {key} must be an int, got {v!r}")
    return values


def _as_float(raw, where: str, key: str) -> float:
    if type(raw) in _NUMBER_TYPES:
        try:
            return float(raw)
        except OverflowError:
            pass
    raise FormatError(f"{where}: {key} must be a number, got {raw!r}")


def _as_vector(raw, where: str, key: str) -> np.ndarray:
    try:
        vec = np.asarray(raw, dtype=np.float32)
        if vec.ndim != 1 or _NUMBER_TYPES.issuperset(map(type, raw)):  # the caller checks ndim
            return vec
    except (TypeError, ValueError, OverflowError):
        pass
    raise FormatError(f"{where}: {key} entries must be numbers")


def _as_bbox(raw, where: str) -> BBox:
    _require(isinstance(raw, (list, tuple)) and len(raw) == 4, where, "bbox must have 4 entries")
    if not _NUMBER_TYPES.issuperset(map(type, raw)):
        raise FormatError(f"{where}: bbox entries must be numbers")
    try:
        x, y, w, h = map(float, raw)
    except OverflowError:  # an int too large for a float
        raise FormatError(f"{where}: bbox entries must be numbers") from None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)):
        raise FormatError(f"{where}: bbox entries must be finite, got {[x, y, w, h]}")
    if not (w > 0 and h > 0):
        raise FormatError(f"{where}: bbox needs positive width/height, got w={w} h={h}")
    return (x, y, w, h)


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


def _detection_from_obj(obj: dict, where: str, sidecar: np.ndarray | None,
                        score_scale: float, vocabulary: Vocabulary | None,
                        expect_dim: int | None) -> DetectionRecord:
    # Runs once per detection, so each message is formatted only on failure.
    frame = obj["frame"]
    if not _is_int(frame) or frame < 0:
        raise FormatError(f"{where}: frame must be a non-negative int, got {frame!r}")
    bbox = _as_bbox(obj["bbox"], where)
    raw_conf = _as_float(obj["conf"], where, "conf")
    if not (math.isfinite(raw_conf) and raw_conf >= 0):
        raise FormatError(f"{where}: conf must be finite and >= 0, got {raw_conf}")
    conf = min(max(raw_conf * score_scale, 0.0), 1.0)
    cat = obj["cat"]
    if not _is_int(cat):
        raise FormatError(f"{where}: cat must be an int, got {cat!r}")
    if vocabulary is not None and cat not in vocabulary:
        raise UnknownCategoryError(f"{where}: unknown category id {cat}")
    cat_score = _as_float(obj["cat_score"], where, "cat_score")
    if not 0.0 <= cat_score <= 1.0:
        raise FormatError(f"{where}: cat_score must lie in [0, 1], got {cat_score}")

    if "emb" in obj:
        emb = _as_vector(obj["emb"], where, "emb")
        if emb.ndim != 1 or not emb.size:
            raise FormatError(f"{where}: emb must be a non-empty flat list")
    elif "emb_ref" in obj:
        if sidecar is None:
            raise FormatError(f"{where}: emb_ref used but no embedding sidecar found")
        ref = obj["emb_ref"]
        if not (_is_int(ref) and 0 <= ref < len(sidecar)):
            raise FormatError(f"{where}: emb_ref {ref!r} outside sidecar with {len(sidecar)} rows")
        emb = sidecar[ref]
    else:
        raise FormatError(f"{where}: record needs either emb or emb_ref")
    if expect_dim is not None and emb.shape[0] != expect_dim:
        raise DimMismatchError(f"{where}: embedding has {emb.shape[0]} dims, expected {expect_dim}")
    if not np.isfinite(emb).all():
        raise NonFiniteError(f"{where}: embedding contains non-finite entries")
    if not np.count_nonzero(emb):  # a fraction of np.any's per-call cost on short rows
        raise ZeroNormError(f"{where}: embedding has zero norm")
    return DetectionRecord(frame, bbox, conf, cat, cat_score, emb)


def load_detections(path, score_scale: float = 1.0, *,
                    vocabulary: Vocabulary | None = None,
                    sidecar=None) -> dict[int, list[DetectionRecord]]:
    """Load a detections.jsonl file into a frame -> detections map.

    Confidences are multiplied by ``score_scale`` and clamped to [0, 1]
    (detectors whose raw scores exceed 1 are tamed with e.g. 0.1); a scale
    that is not finite or not > 0 raises ValueError. Frames are returned in
    ascending order; records within a frame are sorted by a canonical content
    key so input line order never matters.

    ``sidecar`` may name an .embin file; when omitted and a record uses
    ``emb_ref``, a sibling file with the .embin suffix is tried.
    """
    if not (math.isfinite(score_scale) and score_scale > 0):
        raise ValueError(f"score_scale must be finite and > 0, got {score_scale}")
    path = Path(path)
    side_arr = None
    if sidecar is not None:
        side_arr = read_embedding_sidecar(sidecar)
    by_frame: dict[int, list[DetectionRecord]] = {}
    expect_dim = None
    for where, obj in _jsonl(path, ("frame", "bbox", "conf", "cat", "cat_score")):
        if side_arr is None and "emb_ref" in obj:
            default_side = path.with_suffix(".embin")
            if not default_side.exists():
                raise FormatError(f"{where}: emb_ref used but no embedding sidecar found")
            side_arr = read_embedding_sidecar(default_side)
        rec = _detection_from_obj(obj, where, side_arr, score_scale, vocabulary, expect_dim)
        if expect_dim is None:
            expect_dim = rec.embedding.shape[0]
        by_frame.setdefault(rec.frame, []).append(rec)
    out: dict[int, list[DetectionRecord]] = {}
    for frame in sorted(by_frame):
        recs = by_frame[frame]
        recs.sort(key=lambda r: (r.bbox, r.confidence, r.category_id, r.category_score))
        out[frame] = recs
    return out


def write_detections(dets_by_frame: dict[int, list[DetectionRecord]], path, *,
                     sidecar: bool = False) -> None:
    """Write detections as JSONL; with ``sidecar=True`` embeddings go to a
    binary .embin next to the file and lines carry ``emb_ref``."""
    path = Path(path)
    frames = sorted(dets_by_frame)
    if sidecar:
        all_emb = [d.embedding for f in frames for d in dets_by_frame[f]]
        stack = np.stack(all_emb) if all_emb else np.zeros((0, 0), dtype=np.float32)
        write_embedding_sidecar(stack, path.with_suffix(".embin"))
    ref = 0
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            for det in dets_by_frame[frame]:
                obj = {
                    "frame": det.frame,
                    "bbox": [float(v) for v in det.bbox],
                    "conf": float(det.confidence),
                    "cat": int(det.category_id),
                    "cat_score": float(det.category_score),
                }
                if sidecar:
                    obj["emb_ref"] = ref
                    ref += 1
                else:
                    obj["emb"] = [float(v) for v in det.embedding]
                fh.write(json.dumps(obj) + "\n")


def load_vocabulary(path) -> Vocabulary:
    """Load and validate a vocabulary.json file."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: malformed JSON ({exc.msg})") from None
    _require(isinstance(obj, dict) and "dim_text" in obj and isinstance(obj.get("entries"), list),
             str(path), "vocabulary needs dim_text and an entries list")
    dim_text = obj["dim_text"]
    _require(_is_int(dim_text) and dim_text > 0, str(path), "dim_text must be a positive int")
    _require(obj["entries"], str(path), "vocabulary needs at least one entry")
    entries = []
    for i, raw in enumerate(obj["entries"]):
        where = f"{path}: entry {i}"
        _require(isinstance(raw, dict), where, "entry must be a JSON object")
        for key in ("id", "name", "split"):
            _require(key in raw, where, f"missing key {key!r}")
        (category_id,) = _ints(raw, ("id",), where)
        split = raw["split"]
        _require(split in SPLITS, where, f"split must be one of {SPLITS}, got {split!r}")
        embs = []
        for key in ("cate_emb", "attr_emb"):
            _require(key in raw, where, f"missing embedding {key!r}")
            emb = _as_vector(raw[key], where, key)
            if emb.ndim != 1 or emb.shape[0] != dim_text:
                raise DimMismatchError(f"{where}: {key} has {emb.size} dims, expected {dim_text}")
            if not np.isfinite(emb).all():
                raise NonFiniteError(f"{where}: {key} contains non-finite entries")
            if not np.count_nonzero(emb):
                raise ZeroNormError(f"{where}: {key} has zero norm")
            embs.append(emb)
        entries.append(VocabularyEntry(category_id, str(raw["name"]), split,
                                       str(raw.get("description", "")), embs[0], embs[1]))
    return Vocabulary(entries, dim_text)


def write_vocabulary(vocab: Vocabulary, path) -> None:
    obj = {
        "dim_text": vocab.dim_text,
        "entries": [
            {
                "id": e.category_id,
                "name": e.name,
                "split": e.split,
                "description": e.description,
                "cate_emb": [float(v) for v in e.cate_embedding],
                "attr_emb": [float(v) for v in e.attr_embedding],
            }
            for e in vocab
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a .twb weights bundle into its float64 tensors, keyed by name.

    Validates magic, version, truncation, UTF-8 names, duplicate names and
    finiteness. Which tensors a bundle holds and their shapes are the concern
    of :class:`trajkit.fusion.FusionWeights`, which is built from this dict.
    """
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


def load_groundtruth(path) -> list[GroundTruthTrack]:
    """Load groundtruth.jsonl into per-track box timelines."""
    tracks: dict[int, GroundTruthTrack] = {}
    for where, obj in _jsonl(Path(path), ("track_id", "cat", "frame", "bbox")):
        tid, cat, frame = _ints(obj, ("track_id", "cat", "frame"), where)
        bbox = _as_bbox(obj["bbox"], where)
        track = tracks.setdefault(tid, GroundTruthTrack(tid, cat))
        if track.category_id != cat:
            raise FormatError(f"{where}: track {tid} switches category {track.category_id} -> {cat}")
        if frame in track.boxes:
            raise FormatError(f"{where}: track {tid} repeats frame {frame}")
        track.boxes[frame] = bbox
    out = sorted(tracks.values(), key=lambda t: t.track_id)
    for t in out:
        t.boxes = {f: t.boxes[f] for f in sorted(t.boxes)}
    return out


def write_groundtruth(tracks: Iterable[GroundTruthTrack], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for track in sorted(tracks, key=lambda t: t.track_id):
            for frame in sorted(track.boxes):
                obj = {
                    "track_id": track.track_id,
                    "cat": track.category_id,
                    "frame": frame,
                    "bbox": [float(v) for v in track.boxes[frame]],
                }
                fh.write(json.dumps(obj) + "\n")


def write_tracks(records: Sequence[TrackRecord], path) -> None:
    """Write finalized tracks as JSONL ordered by (track_id, frame)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in sorted(records, key=lambda r: r.track_id):
            for entry in sorted(rec.entries, key=lambda e: e.frame):
                obj = {
                    "track_id": rec.track_id,
                    "frame": entry.frame,
                    "bbox": [float(v) for v in entry.bbox],
                    "conf": float(entry.confidence),
                    "cat": int(entry.category_id),
                    "det": int(entry.det_idx),
                }
                if rec.label is not None:
                    obj["label"] = int(rec.label)
                    obj["label_source"] = rec.label_source
                    obj["scores"] = {k: float(v) for k, v in (rec.scores or {}).items()}
                fh.write(json.dumps(obj) + "\n")


def _as_scores(raw, where: str) -> dict[str, float]:
    """A tracks line's ``scores``: an object of finite JSON numbers."""
    scores = {}
    try:
        for name, v in raw.items():
            if type(v) not in _NUMBER_TYPES or not math.isfinite(v):
                break
            scores[name] = float(v)
        else:
            return scores
    except (AttributeError, OverflowError):  # not an object; an int too large for a float
        pass
    raise FormatError(f"{where}: scores must map names to finite numbers, got {raw!r}")


def read_tracks(path, *, vocabulary: Vocabulary | None = None) -> list[TrackRecord]:
    """Inverse of :func:`write_tracks` on logical content.

    With a ``vocabulary``, every entry's ``cat`` must be one of its ids.
    """
    recs: dict[int, TrackRecord] = {}
    for where, obj in _jsonl(Path(path), ("track_id", "frame", "bbox", "conf", "cat", "det")):
        tid, frame, cat, det = _ints(obj, ("track_id", "frame", "cat", "det"), where)
        if vocabulary is not None and cat not in vocabulary:
            raise UnknownCategoryError(f"{where}: unknown category id {cat}")
        conf = _as_float(obj["conf"], where, "conf")
        if not 0.0 <= conf <= 1.0:  # also false for NaN
            raise FormatError(f"{where}: conf must lie in [0, 1], got {conf}")
        rec = recs.setdefault(tid, TrackRecord(tid, []))
        rec.entries.append(TrackEntry(frame, _as_bbox(obj["bbox"], where), conf, cat, det))
        if "label" in obj:
            (rec.label,) = _ints(obj, ("label",), where)
            rec.label_source = obj.get("label_source")
            if rec.label_source not in LABEL_SOURCES:
                raise FormatError(f"{where}: label_source must be one of {LABEL_SOURCES}, "
                                  f"got {rec.label_source!r}")
            rec.scores = _as_scores(obj.get("scores", {}), where)
    out = sorted(recs.values(), key=lambda r: r.track_id)
    for rec in out:
        rec.entries.sort(key=lambda e: e.frame)
    return out
