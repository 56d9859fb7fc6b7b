"""The column checks of every loader against its line checks, the writers'
line templates against json.dumps, and write -> read round trips.

A loader checks whole columns ``io._CHUNK`` lines at a time and checks a chunk
again line by line when a column check refuses it. The reference is the same
loader with every column check refused, so that every chunk is checked line by
line: on any file the public loader must return exactly its records or raise
exactly its error, and on a file the writer made no line check may run.
"""

import contextlib
import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajkit import io
from trajkit.tracker import AssociationEvent

EXAMPLES = settings(max_examples=25, deadline=None)

# values a mutation may put where a key's value was
BAD_VALUES = [True, False, None, "1.5", "x", -1, -0.5, float("nan"), float("inf"), 10 ** 400,
              2 ** 70, [], {}, [1, 2], [0.0, 0.0, 0.0], [[1.0, 0.0, 0.5]], ["1", 0.0, 0.0], 7.5,
              # orjson loads an int outside [-2**63, 2**64) as a float and refuses a lone surrogate
              2 ** 64, -(2 ** 63) - 1, "\ud800", {"cate": 10 ** 30}]


@contextlib.contextmanager
def _chunk(lines: int):
    saved, io._CHUNK = io._CHUNK, lines
    try:
        yield
    finally:
        io._CHUNK = saved


def _outcome(load):
    """A loader's records as comparable text (types, -0.0 and float32 bits kept), or its error."""
    try:
        return "ok", repr(_plain(load()))
    except Exception as exc:  # the comparison covers every exception a loader lets out
        return "error", type(exc).__name__, str(exc)


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return [(_plain(k), _plain(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "__dict__"):
        return type(value).__name__, _plain(vars(value))
    return value


def _refuse(line):
    raise orjson.JSONDecodeError("refused", line, 0)  # as io._parse_line does on a line it cannot parse


@contextlib.contextmanager
def _counted_loads():
    """The calls of json.loads, which only a loader's line checks make, while the block runs."""
    calls, loads = [], json.loads
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
        yield calls


def _check_passes(path, public, valid):
    """The public loader equals its line checks of every chunk; on a file the writer made
    (``valid``) it makes no line check. Returns the lines it checked one at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_parse_line", _refuse)
        by_lines = _outcome(public)
    with _counted_loads() as calls:
        assert _outcome(public) == by_lines
    assert not (valid and calls), "a column check refused a file the writer made"
    return len(calls)


numbers = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.integers(-10 ** 6, 10 ** 6))
unit = st.one_of(st.floats(0, 1), st.sampled_from([0, 1, -0.0]))
boxes = st.tuples(numbers, numbers, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)).map(list)
finite = st.floats(-1e6, 1e6, width=32)  # exact in float32
embeddings = st.lists(st.one_of(finite.filter(bool), st.integers(1, 10 ** 6)), min_size=3, max_size=3)


@st.composite
def mutations(draw, keys):
    """A change to one line: drop a key, give it a bad value, or copy another line over it."""
    kind = draw(st.sampled_from(["drop", "value", "value", "copy", "none"]))
    return kind, draw(st.sampled_from(keys)), draw(st.sampled_from(BAD_VALUES))


def _apply(lines, index, mutation):
    kind, key, value = mutation
    lines = [dict(line) for line in lines]
    line = lines[index % len(lines)]
    if kind == "drop":
        line.pop(key, None)
    elif kind == "value":
        line[key] = value
    elif kind == "copy":
        lines[index % len(lines)] = dict(lines[0])
    return lines


@st.composite
def layouts(draw):
    """How lines are joined: LF or CRLF, a blank line somewhere, two values on one line."""
    return draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()), draw(st.booleans())


def _write(path, lines, layout, index):
    newline, blank, joined = layout
    text = [json.dumps(line) for line in lines]
    if joined:
        text[index % len(text)] = "1, 2"
    if blank:
        text.insert(index % (len(text) + 1), "  ")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(text) + newline)


@EXAMPLES
@given(frames=st.lists(st.integers(0, 3), min_size=1, max_size=9), boxes=st.lists(boxes, min_size=9, max_size=9),
       confs=st.lists(unit, min_size=9, max_size=9), embs=st.lists(embeddings, min_size=9, max_size=9),
       sidecar=st.booleans(), mutate=st.booleans(), mutation=mutations(["frame", "bbox", "conf", "cat",
                                                                           "cat_score", "emb", "emb_ref"]),
       index=st.integers(0, 8), layout=layouts(), chunk=st.sampled_from([1, 2, 3, 512]),
       scale=st.sampled_from([1.0, 0.5, 3.0]))
def test_detections_columns_agree_with_lines(tmp_path_factory, frames, boxes, confs, embs, sidecar, mutate,
                                              mutation, index, layout, chunk, scale):
    path = tmp_path_factory.mktemp("det") / "d.jsonl"
    lines = [{"frame": f, "bbox": b, "conf": c, "cat": i % 3, "cat_score": c, "emb": e}
             for i, (f, b, c, e) in enumerate(zip(frames, boxes, confs, embs))]
    if sidecar:
        io.write_embedding_sidecar(np.asarray(embs, dtype=np.float32), path.with_suffix(".embin"))
        lines = [dict({k: v for k, v in line.items() if k != "emb"}, emb_ref=i) for i, line in enumerate(lines)]
    if mutate:
        lines = _apply(lines, index, mutation)
        _write(path, lines, layout, index)
    else:
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    vocab = io.Vocabulary([io.VocabularyEntry(k, "", "base", "", np.ones(2, np.float32), np.ones(2, np.float32))
                           for k in range(3)], 2)
    with _chunk(chunk):
        _check_passes(path, lambda: io.load_detections(path, scale, vocabulary=vocab), valid=not mutate)


@EXAMPLES
@given(tracks=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4), boxes, unit, st.integers(0, 3)),
                       min_size=1, max_size=9),
       labelled=st.booleans(), mutate=st.booleans(),
       mutation=mutations(["track_id", "frame", "bbox", "conf", "cat", "det", "label", "label_source", "scores"]),
       index=st.integers(0, 8), layout=layouts(), chunk=st.sampled_from([1, 2, 3, 512]))
def test_tracks_columns_agree_with_lines(tmp_path_factory, tracks, labelled, mutate, mutation, index, layout,
                                         chunk):
    path = tmp_path_factory.mktemp("trk") / "t.jsonl"
    entries = {}
    for tid, frame, bbox, conf, det in tracks:
        entries.setdefault(tid, {})[frame] = io.TrackEntry(frame, tuple(map(float, bbox)), conf, det % 2, det)
    label = {"label": 1, "label_source": "attr", "scores": {"cate": 0.5, "det": 1.0}} if labelled else {}
    io.write_tracks([io.TrackRecord(tid, list(e.values()), **label) for tid, e in entries.items()], path)
    if mutate:
        lines = _apply([json.loads(s) for s in path.read_text().splitlines()], index, mutation)
        _write(path, lines, layout, index)
    vocab = io.Vocabulary([io.VocabularyEntry(k, "", "base", "", np.ones(2, np.float32), np.ones(2, np.float32))
                           for k in range(2)], 2)
    with _chunk(chunk):
        for v in (None, vocab):
            _check_passes(path, lambda: io.read_tracks(path, vocabulary=v), valid=not mutate)


@EXAMPLES
@given(tracks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), boxes), min_size=1, max_size=9),
       mutate=st.booleans(), mutation=mutations(["track_id", "cat", "frame", "bbox"]),
       index=st.integers(0, 8), layout=layouts(), chunk=st.sampled_from([1, 2, 3, 512]))
def test_groundtruth_columns_agree_with_lines(tmp_path_factory, tracks, mutate, mutation, index, layout, chunk):
    path = tmp_path_factory.mktemp("gt") / "gt.jsonl"
    gts = {}
    for tid, frame, bbox in tracks:
        gts.setdefault(tid, io.GroundTruthTrack(tid, tid % 2)).boxes[frame] = tuple(map(float, bbox))
    io.write_groundtruth(gts.values(), path)
    if mutate:
        lines = _apply([json.loads(s) for s in path.read_text().splitlines()], index, mutation)
        _write(path, lines, layout, index)
    with _chunk(chunk):
        _check_passes(path, lambda: io.load_groundtruth(path), valid=not mutate)


_TRACK = {"track_id": 1, "frame": 0, "bbox": [0, 0, 1, 1], "conf": 0.5, "cat": 0, "det": 0}
_LABEL = {"label": 1, "label_source": "det", "scores": {"det": 1.0}}
_DET = {"frame": 0, "bbox": [0, 0, 1, 1], "conf": 0.5, "cat": 0, "cat_score": 0.5}


def _lines(*objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


@pytest.mark.parametrize("read, text, valid", [
    # neither line is JSON on its own, but one JSON array of the two holds two track lines
    ("tracks", json.dumps(_TRACK) + ", " + json.dumps(dict(_TRACK, frame=1))[:-1] + ', "x": [{}\n'
     + json.dumps(dict(_TRACK, frame=2)) + "]}\n", False),
    ("tracks", _lines(dict(_TRACK, track_id=2), dict(_TRACK, **_LABEL)), False),  # unlabelled, then labelled
    ("tracks", _lines(dict(_TRACK, **_LABEL), dict(_TRACK, track_id=2)), False),
    ("tracks", _lines(_TRACK, dict(_TRACK, frame=1)).replace("\n", "\r\n") + "\n  \n", True),
    ("tracks", " \t" + _lines(_TRACK).replace("}\n", "}  \t\n"), True),  # json's whitespace round the value
    ("tracks", _lines(_TRACK).replace("}\n", "}\x0c\n"), False),  # a form feed, which json refuses
    # bare NaN and Infinity, which json loads and orjson refuses; the line checks refuse them too
    ("tracks", _lines(_TRACK, dict(_TRACK, frame=1, conf=math.nan)), False),
    ("detections", _lines(dict(_DET, emb=[1.0]), dict(_DET, bbox=[0, 0, math.inf, 1], emb=[1.0])), False),
    ("tracks", _lines(dict(_TRACK, x=-math.inf)), False),  # a key no format reads: json loads the line
    ("detections", _lines(dict(_DET, emb=[1.0]), dict(_DET, emb=[1.0], emb_ref=0)), False),
    ("detections", _lines(dict(_DET, emb_ref=0), dict(_DET, emb=[2.0])), False),
    ("detections", _lines(dict(_DET, emb_ref=0), dict(_DET, emb_ref=1)), False),  # row 1 is zero
    ("detections", _lines(dict(_DET, emb=[1.0]), dict(_DET, emb=[2.0, 1.0])), False),
])
def test_column_pass_on_edge_files(tmp_path, read, text, valid):
    path = tmp_path / "f.jsonl"
    path.write_text(text)
    io.write_embedding_sidecar(np.array([[3.0], [0.0]], dtype=np.float32), path.with_suffix(".embin"))
    with _chunk(512):
        load = io.read_tracks if read == "tracks" else io.load_detections
        checked = _check_passes(path, lambda: load(path), valid)
    assert valid or checked, "a file the column check should refuse took no line check"


def _two_tracks(path, labels):
    """Tracks 1 and 2 on frames 0-5, 12 lines, each track labelled as ``labels`` says."""
    records = [io.TrackRecord(tid, [io.TrackEntry(f, (0.0, 0.0, 1.0, 1.0), 0.5, 0, f) for f in range(6)],
                              *((1, "det", {"det": 1.0}) if labelled else ()))
               for tid, labelled in zip((1, 2), labels)]
    io.write_tracks(records, path)
    return records


def test_only_a_refused_chunk_is_checked_line_by_line(tmp_path):
    # lines 5-8 of 1-12 mix unlabelled track 1 and labelled track 2; the loader used to
    # parse the whole file again, 12 json.loads calls
    records = _two_tracks(tmp_path / "t.jsonl", (False, True))
    with _chunk(4), _counted_loads() as calls:
        assert _plain(io.read_tracks(tmp_path / "t.jsonl")) == _plain(records)
    assert len(calls) == 4


def test_a_repeated_frame_in_the_last_chunk_names_its_line_without_line_checks(tmp_path):
    path = tmp_path / "t.jsonl"
    _two_tracks(path, (True, True))
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = lines[9]  # track 2's frame 3 again on line 11
    path.write_text("".join(lines))
    with _chunk(4), _counted_loads() as calls, pytest.raises(io.FormatError) as err:
        io.read_tracks(path)
    assert str(err.value) == f"{path}:11: track 2 repeats frame 3"
    assert calls == []


floats = st.one_of(st.floats(), st.sampled_from([-0.0, 1e16, 5e-324, 1e-7, 123456789.125]))
ints = st.one_of(st.integers(0, 5), st.integers(-2 ** 70, 2 ** 70))


@EXAMPLES
@given(rows=st.lists(st.tuples(ints, ints, st.lists(floats, min_size=4, max_size=4), floats, ints, ints),
                     min_size=1, max_size=6),
       label=st.one_of(st.none(), st.tuples(ints, st.sampled_from(["det", "cate", None]),
                                              st.dictionaries(st.sampled_from(["cate", "attr", "det"]), floats))))
def test_track_template_equals_json_dumps(tmp_path_factory, rows, label):
    path = tmp_path_factory.mktemp("tw") / "t.jsonl"
    records = {}
    for tid, frame, bbox, conf, cat, det in rows:
        rec = records.setdefault(tid, io.TrackRecord(tid, [], *(label or (None, None, None))))
        if frame not in {e.frame for e in rec.entries}:
            rec.entries.append(io.TrackEntry(frame, tuple(bbox), conf, cat, det))
    io.write_tracks(list(records.values()), path)
    expected = []
    for rec in sorted(records.values(), key=lambda r: r.track_id):
        for e in sorted(rec.entries, key=lambda e: e.frame):
            obj = {"track_id": rec.track_id, "frame": e.frame, "bbox": [float(v) for v in e.bbox],
                   "conf": float(e.confidence), "cat": int(e.category_id), "det": int(e.det_idx)}
            if rec.label is not None:
                obj.update(label=int(rec.label), label_source=rec.label_source,
                           scores={k: float(v) for k, v in (rec.scores or {}).items()})
            expected.append(json.dumps(obj) + "\n")
    assert path.read_text() == "".join(expected)


@EXAMPLES
@given(events=st.lists(st.tuples(ints, st.sampled_from(["matched", "born", "discarded", "died"]),
                                 st.one_of(st.none(), ints), st.one_of(st.none(), ints),
                                 st.one_of(st.none(), floats)), max_size=8))
def test_event_template_equals_json_dumps(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("ew") / "events.jsonl"
    io.write_events([AssociationEvent(*ev) for ev in events], path)
    assert path.read_text() == "".join(
        json.dumps({"frame": f, "kind": k, "track": t, "det": d, "score": s}) + "\n" for f, k, t, d, s in events)


@EXAMPLES
@given(dets=st.lists(st.tuples(ints, st.lists(floats, min_size=4, max_size=4), floats, ints, floats,
                               st.lists(st.floats(width=32), min_size=2, max_size=2)), min_size=1, max_size=6),
       sidecar=st.booleans(), groundtruth=st.lists(st.tuples(ints, ints, st.lists(floats, min_size=4, max_size=4)),
                                                   max_size=6))
def test_detection_and_groundtruth_templates_equal_json_dumps(tmp_path_factory, dets, sidecar, groundtruth):
    out = tmp_path_factory.mktemp("dw")
    records = [io.DetectionRecord(f, tuple(b), c, k, s, np.asarray(e, dtype=np.float32))
               for f, b, c, k, s, e in dets]
    by_frame = {}
    for rec in records:
        by_frame.setdefault(rec.frame, []).append(rec)
    io.write_detections(by_frame, out / "d.jsonl", sidecar=sidecar)
    expected = []
    for ref, d in enumerate(d for frame in sorted(by_frame) for d in by_frame[frame]):
        obj = {"frame": d.frame, "bbox": [float(v) for v in d.bbox], "conf": float(d.confidence),
               "cat": int(d.category_id), "cat_score": float(d.category_score)}
        obj.update({"emb_ref": ref} if sidecar else {"emb": [float(v) for v in d.embedding]})
        expected.append(json.dumps(obj) + "\n")
    assert (out / "d.jsonl").read_text() == "".join(expected)

    tracks = {}
    for tid, frame, bbox in groundtruth:
        tracks.setdefault(tid, io.GroundTruthTrack(tid, tid % 3)).boxes[frame] = tuple(bbox)
    io.write_groundtruth(tracks.values(), out / "gt.jsonl")
    assert (out / "gt.jsonl").read_text() == "".join(
        json.dumps({"track_id": t.track_id, "cat": t.category_id, "frame": f,
                    "bbox": [float(v) for v in t.boxes[f]]}) + "\n"
        for t in sorted(tracks.values(), key=lambda t: t.track_id) for f in sorted(t.boxes))



@EXAMPLES
@given(dets=st.lists(st.tuples(st.integers(0, 3), boxes, unit, st.integers(0, 2), unit,
                               embeddings), min_size=1, max_size=8),
       sidecar=st.booleans())
def test_detections_round_trip(tmp_path_factory, dets, sidecar):
    path = tmp_path_factory.mktemp("drt") / "d.jsonl"
    by_frame = {}
    for f, b, c, k, s, e in dets:
        by_frame.setdefault(f, []).append(io.DetectionRecord(f, tuple(map(float, b)), float(c), k, float(s),
                                                             np.asarray(e, dtype=np.float32)))
    io.write_detections(by_frame, path, sidecar=sidecar)
    key = (lambda r: (r.bbox, r.confidence, r.category_id, r.category_score))
    assert _plain(io.load_detections(path)) == _plain({f: sorted(by_frame[f], key=key) for f in sorted(by_frame)})


@EXAMPLES
@given(tracks=st.dictionaries(st.integers(0, 2 ** 40), st.dictionaries(st.integers(0, 50), st.tuples(boxes, unit),
                                                                        min_size=1, max_size=4), max_size=5),
       label=st.one_of(st.none(), st.tuples(st.integers(0, 9), st.sampled_from(io.LABEL_SOURCES),
                                              st.dictionaries(st.sampled_from(["cate", "det"]), finite))))
def test_tracks_and_groundtruth_round_trip(tmp_path_factory, tracks, label):
    out = tmp_path_factory.mktemp("trt")
    records = [io.TrackRecord(tid, [io.TrackEntry(f, tuple(map(float, b)), float(c), tid % 3, f)
                                    for f, (b, c) in sorted(frames.items())], *(label or (None, None, None)))
               for tid, frames in sorted(tracks.items())]
    for rec in records:
        rec.scores = None if rec.scores is None else {k: float(v) for k, v in rec.scores.items()}
    io.write_tracks(records, out / "t.jsonl")
    assert _plain(io.read_tracks(out / "t.jsonl")) == _plain(records)
    gts = [io.GroundTruthTrack(r.track_id, r.track_id % 3, dict(r.boxes)) for r in records]
    io.write_groundtruth(gts, out / "gt.jsonl")
    assert _plain(io.load_groundtruth(out / "gt.jsonl")) == _plain(gts)


@EXAMPLES
@given(events=st.lists(st.tuples(st.integers(0, 9), st.sampled_from(["matched", "born", "discarded", "died"]),
                                 st.one_of(st.none(), st.integers(1, 9)), st.one_of(st.none(), st.integers(0, 9)),
                                 st.one_of(st.none(), finite)), max_size=6),
       embs=st.lists(embeddings, min_size=1, max_size=4))
def test_events_and_vocabulary_round_trip(tmp_path_factory, events, embs):
    out = tmp_path_factory.mktemp("ert")
    io.write_events([AssociationEvent(*ev) for ev in events], out / "events.jsonl")
    back = [tuple(json.loads(line).values()) for line in (out / "events.jsonl").read_text().splitlines()]
    assert back == [tuple(ev) for ev in events]
    vocab = io.Vocabulary([io.VocabularyEntry(k, f"c{k}", io.SPLITS[k % 2], "d", np.asarray(e, np.float32),
                                              -np.asarray(e, np.float32)) for k, e in enumerate(embs)], 3)
    io.write_vocabulary(vocab, out / "v.json")
    assert _plain(io.load_vocabulary(out / "v.json").entries) == _plain(vocab.entries)


def test_non_finite_floats_are_written_as_json_spells_them(tmp_path):
    rec = io.TrackRecord(1, [io.TrackEntry(0, (math.nan, math.inf, -math.inf, 1.0), math.nan, 0, 0)])
    io.write_tracks([rec], tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text() == (
        '{"track_id": 1, "frame": 0, "bbox": [NaN, Infinity, -Infinity, 1.0], "conf": NaN, "cat": 0, "det": 0}\n')
