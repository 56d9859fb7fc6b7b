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

from blocks import block
from test_io import _FAULTS
from trajkit import io
from trajkit.synth import SynthConfig, gen_scene

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
    if isinstance(value, (list, tuple, io.DetectionFrame, io.BoxTable)):  # a block or table as its records
        return [_plain(v) for v in value]
    if hasattr(value, "__dict__"):
        return type(value).__name__, _plain(vars(value))
    return value


def _refuse(text):
    raise orjson.JSONDecodeError("refused", "", 0)  # as io._parse_line does on text it cannot parse


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


def _event_blocks(events, rows=1):
    """``io.EventBlock``s of ``rows`` (frame, kind, track, det, score) events each, a block's frame
    its first event's: None is -1 in the int columns and NaN in the score's."""
    groups = [events[k:k + rows] for k in range(0, len(events), rows)]
    return [io.EventBlock(group[0][0], np.array([io.EVENT_KINDS.index(k) for _, k, _, _, _ in group], np.int8),
                          *(np.array([-1 if v is None else v for v in col], np.int64) for col in list(zip(*group))[2:4]),
                          np.array([math.nan if s is None else s for *_, s in group], np.float64)) for group in groups]


@EXAMPLES
@given(events=st.lists(st.tuples(ints, st.sampled_from(io.EVENT_KINDS),
                                 st.one_of(st.none(), st.integers(0, 2 ** 63 - 1)),
                                 st.one_of(st.none(), st.integers(0, 2 ** 63 - 1)),
                                 st.one_of(st.none(), floats.filter(lambda v: not math.isnan(v)))), max_size=8),
       rows=st.integers(1, 3))
def test_event_template_equals_json_dumps(tmp_path_factory, events, rows):
    # a block's frame is each of its rows', so a block of several rows repeats its first frame
    events = [(events[k - k % rows][0], *ev[1:]) for k, ev in enumerate(events)]
    path = tmp_path_factory.mktemp("ew") / "events.jsonl"
    io.write_events(_event_blocks(events, rows), path)
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
    io.write_detections({f: block(recs) for f, recs in by_frame.items()}, out / "d.jsonl", sidecar=sidecar)
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
    io.write_detections({f: block(recs) for f, recs in by_frame.items()}, path, sidecar=sidecar)
    key = (lambda r: (r.bbox, r.confidence, r.category_id, r.category_score))
    assert _plain(io.load_detections(path)) == _plain({f: sorted(by_frame[f], key=key) for f in sorted(by_frame)})


@pytest.mark.parametrize("sidecar", [False, True], ids=["inline", "sidecar"])
def test_detections_are_written_from_column_values_not_their_layout(tmp_path, sidecar):
    # a block's columns may be strided views, as a synthetic scene's slices or a caller's
    # transposes are: the writer's bytes are those of the same values held contiguously
    rng = np.random.default_rng(3)
    wide, scores = rng.normal(size=(5, 12)).astype(np.float32), rng.uniform(size=(5, 4))
    strided = {0: io.DetectionFrame(0, rng.uniform(0, 50, size=(4, 5)).T, scores[:, 0], np.arange(10, 0, -2),
                                    scores[:, 1], wide[:, ::3]),
               1: io.DetectionFrame(1, np.zeros((0, 4)), np.zeros(0), np.zeros(0, np.int64), np.zeros(0),
                                    np.zeros((0, 4), np.float32)),
               2: io.DetectionFrame(2, np.ones((6, 4))[::2], scores[:3, 2], np.arange(3), scores[:3, 3],
                                    wide[:3, 1::3])}
    assert not strided[0].bbox.flags.c_contiguous and not strided[0].embedding.flags.c_contiguous
    contiguous = {f: io.DetectionFrame(f, *(np.ascontiguousarray(getattr(b, key)) for key in
                                          ("bbox", "confidence", "category_id", "category_score", "embedding")))
                  for f, b in strided.items()}
    io.write_detections(strided, tmp_path / "strided.jsonl", sidecar=sidecar)
    io.write_detections(contiguous, tmp_path / "contiguous.jsonl", sidecar=sidecar)
    for suffix in (".jsonl", ".embin") if sidecar else (".jsonl",):
        got = (tmp_path / "strided").with_suffix(suffix).read_bytes()
        assert got == (tmp_path / "contiguous").with_suffix(suffix).read_bytes()
    assert _plain(io.load_detections(tmp_path / "strided.jsonl")) == _plain(io.load_detections(
        tmp_path / "contiguous.jsonl"))
    assert len((tmp_path / "strided.jsonl").read_text().splitlines()) == 8


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
    io.write_events(_event_blocks(events), out / "events.jsonl")
    back = [tuple(json.loads(line).values()) for line in (out / "events.jsonl").read_text().splitlines()]
    assert back == [tuple(ev) for ev in events]
    assert [tuple(vars(ev).values()) for block in _event_blocks(events) for ev in block] == back
    vocab = io.Vocabulary([io.VocabularyEntry(k, f"c{k}", io.SPLITS[k % 2], "d", np.asarray(e, np.float32),
                                              -np.asarray(e, np.float32)) for k, e in enumerate(embs)], 3)
    io.write_vocabulary(vocab, out / "v.json")
    assert _plain(io.load_vocabulary(out / "v.json").entries) == _plain(vocab.entries)


def test_non_finite_floats_are_written_as_json_spells_them(tmp_path):
    rec = io.TrackRecord(1, [io.TrackEntry(0, (math.nan, math.inf, -math.inf, 1.0), math.nan, 0, 0)])
    io.write_tracks([rec], tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text() == (
        '{"track_id": 1, "frame": 0, "bbox": [NaN, Infinity, -Infinity, 1.0], "conf": NaN, "cat": 0, "det": 0}\n')


# The writers spell floats with io._json_floats: orjson, and json outside the range where the
# two agree. The property tests above draw few floats; these compare the helper with json.dumps
# on the edges of that range and on many floats of every magnitude.

_EDGE_FLOATS = [0.0, 5e-324, float(np.nextafter(1e-4, 0)), 1e-4, float(np.nextafter(1e16, 0)), 1e16,
                2.0 ** 53 + 1.0, 1e308, math.inf]
_EDGE_FLOATS += [-v for v in _EDGE_FLOATS] + [math.nan]


def test_json_floats_equal_json_dumps_on_the_edges():
    assert io._json_floats(_EDGE_FLOATS) == [json.dumps(v) for v in _EDGE_FLOATS]
    assert io._json_floats([None, 0.5, None]) == ["null", "0.5", "null"]
    assert io._json_floats([]) == []


def test_json_floats_equal_json_dumps_on_random_bits():
    # every float64 bit pattern is as likely, so every binary exponent is (NaN payloads too), and
    # float32 values upcast, as the writers spell embeddings
    rng = np.random.default_rng(27)
    with np.errstate(invalid="ignore"):  # a signalling NaN's upcast
        values = np.concatenate([rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
                                 rng.integers(0, 2 ** 32, 50_000, dtype=np.uint32).view(np.float32)])
    assert io._json_floats(values) == [json.dumps(v) for v in values.tolist()]
    rows = io._json_rows([values[:3], values[3:3], values[3:10]])
    assert rows == [[json.dumps(v) for v in row.tolist()] for row in (values[:3], values[3:3], values[3:10])]


@pytest.mark.parametrize("score", [0.5, 1e-5, 1e300, math.inf, None])
def test_events_write_a_score_column_as_json_spells_its_floats(tmp_path, score):
    # the writer spells the score column, a NaN (no score) as null, by io._json_floats
    io.write_events(_event_blocks([(0, "matched", 1, 0, score)]), tmp_path / "events.jsonl")
    assert (tmp_path / "events.jsonl").read_text() == (
        '{"frame": 0, "kind": "matched", "track": 1, "det": 0, "score": %s}\n' % json.dumps(score))


def _vocabulary_dict(vocab):
    """What json.dump is given to write ``vocab``, the reference of io.write_vocabulary."""
    return {"dim_text": vocab.dim_text, "entries": [
        {"id": e.category_id, "name": e.name, "split": e.split, "description": e.description,
         "cate_emb": [float(v) for v in e.cate_embedding], "attr_emb": [float(v) for v in e.attr_embedding]}
        for e in vocab]}


_EDGE_EMBEDDING = np.array([0.0, -0.0, 1e-45, 1e-5, 9.9999e-5, 1e-4, -7.5, 1e16, 3.4e38], dtype=np.float32)


@pytest.mark.parametrize("entries, dim", [
    ([(0, "näme", "quote \" back\\ new\nline", _EDGE_EMBEDDING), (2 ** 64 - 1, "\U0001f600", "", -_EDGE_EMBEDDING),
      (-5, "", "d", _EDGE_EMBEDDING[::-1]), (7, "猫", "\x00", np.float32([1, 2, 3, 4, 5, 6, 7, 8, 9])),
      (8, "x", "y", np.full(9, 0.1, dtype=np.float32))], 9),
    ([(1, "a", "b", np.zeros(0, dtype=np.float32))], 0),
    ([], 4),
])
def test_vocabulary_writer_equals_json_dump(tmp_path, entries, dim):
    vocab = io.Vocabulary([io.VocabularyEntry(k, name, io.SPLITS[k % 2], text, emb, -emb)
                           for k, name, text, emb in entries], dim)
    with _chunk(2):  # the first case in three chunks
        io.write_vocabulary(vocab, tmp_path / "v.json")
    assert (tmp_path / "v.json").read_bytes() == (json.dumps(_vocabulary_dict(vocab), indent=1) + "\n").encode()


# The vocabulary: one parse and one column check per key of VOCABULARY_ENTRY_FORMAT, with the
# entry checks (a json parse, then io._vocabulary_entry per entry) as the reference.

def _vocabulary_passes(path, valid):
    """``load_vocabulary`` equals its entry checks; on a ``valid`` file it parses with json
    no more. Returns the json parses it made."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_parse_line", _refuse)
        by_entries = _outcome(lambda: io.load_vocabulary(path))
    with _counted_loads() as calls:
        assert _outcome(lambda: io.load_vocabulary(path)) == by_entries
    assert not (valid and calls), "the column pass refused a valid vocabulary"
    return len(calls)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("text", _FAULTS.values(), ids=_FAULTS)
def test_vocabulary_columns_raise_the_error_of_the_entry_checks(tmp_path, text):
    path = tmp_path / "v.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    _vocabulary_passes(path, valid=False)


_VOCAB_ENTRY = {"id": 0, "name": "x", "split": "base", "description": "d", "cate_emb": [1, 0],
                "attr_emb": [0.5, -1]}


def _vocabulary_text(*entries, top=""):
    """A vocabulary.json text of 2-wide ``entries``: dicts, or text spliced in as it is."""
    return '{"dim_text": 2, %s"entries": [%s]}' % (top, ", ".join(
        e if isinstance(e, str) else json.dumps(e) for e in entries))


def _changed(**changes):
    """``_VOCAB_ENTRY`` with ``changes``; a value of None drops the key."""
    return {k: v for k, v in {**_VOCAB_ENTRY, **changes}.items() if v is not None}


_SECOND = dict(_VOCAB_ENTRY, id=1)
_DEEP_VALUE = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text, valid", [
    # orjson loads a 30-digit int as 1e+30; json keeps it an int, and a text as its str()
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=10 ** 30)), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, name=10 ** 30)), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, description=10 ** 30)), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, cate_emb=[10 ** 30, 0])), True),  # the same float32
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, attr_emb=[2 ** 64, -(2 ** 63) - 1])), True),
    # json loads 1e999 as inf, NaN and a lone surrogate; orjson refuses them
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, cate_emb="@")).replace('"@"', "[1e999, 0]"), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, attr_emb=[float("nan"), 1])), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, name="\ud800")), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, description="\udfff")), False),
    # a text that is no str: json's loader keeps its str(), "5", "None" and "[1]"
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, name=5)), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, name="@")).replace('"@"', "null"), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, description=[1])), False),
    # a key repeated inside an entry: both parsers keep its last value
    (_vocabulary_text(_VOCAB_ENTRY, json.dumps(_SECOND)[:-1] + ', "id": 0}'), False),
    (_vocabulary_text(_VOCAB_ENTRY, '{"name": 7, ' + json.dumps(_SECOND)[1:]), True),
    (_vocabulary_text(_VOCAB_ENTRY, json.dumps(_SECOND)[:-1] + ', "cate_emb": [0, 0]}'), False),
    (_vocabulary_text(_VOCAB_ENTRY, _SECOND).replace('"dim_text": 2', '"dim_text": 3, "dim_text": 2'), True),
    # -0.0 and the smallest subnormal, which a float32 rounds to zero
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, cate_emb=[-0.0, 5e-324], attr_emb=[1, -0.0])), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, cate_emb=[-0.0, 1.5], attr_emb=[5e-324, 1])), True),
    (_vocabulary_text(_changed(description=None), _changed(id=1, description=None)), True),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, split=None)), False),
    (_vocabulary_text(_VOCAB_ENTRY, dict(_VOCAB_ENTRY)), False),  # a repeated id
    (_vocabulary_text(_VOCAB_ENTRY, _SECOND).replace("\n", "\r\n") + "\r\n \t", True),
    (_vocabulary_text(_VOCAB_ENTRY, _SECOND) + "\x0c", False),  # a form feed, no JSON whitespace
    # a key no format reads: json refuses a value of it nested past the interpreter's depth
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, extra="@")).replace('"@"', _DEEP_VALUE), False),
    (_vocabulary_text(_VOCAB_ENTRY, _SECOND, top='"extra": %s, ' % _DEEP_VALUE), False),
    (_vocabulary_text(_VOCAB_ENTRY, _changed(id=1, extra=[[0]])), False),
])
def test_vocabulary_column_pass_on_edge_files(tmp_path, text, valid):
    path = tmp_path / "v.json"
    path.write_text(text, newline="")
    checked = _vocabulary_passes(path, valid)
    assert valid or checked, "a file the column pass should refuse took no entry check"


# what a mutation may put in place of a vocabulary value: "@1e999@" stands for the bare literal
VOCAB_BAD_VALUES = [10 ** 30, "@1e999@", float("nan"), float("-inf"), "\ud800", 5, None, [1], -0.0, 5e-324,
                    2 ** 64, -(2 ** 63) - 1, True, "1", "novel", 1.5, [], {}, [0.5, "1"], [1e39, 1]]
components = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e6, 1e6, width=32),
                       st.integers(-2 ** 70, 2 ** 70), st.sampled_from([-0.0, 5e-324, 10 ** 30, 1e-45]))


@st.composite
def vocabulary_entries(draw, dim):
    entry = {"name": draw(st.text(max_size=4)), "split": draw(st.sampled_from(io.SPLITS)),
             "description": draw(st.text(max_size=4)),
             "cate_emb": draw(st.lists(components, min_size=dim, max_size=dim)),
             "attr_emb": draw(st.lists(components, min_size=dim, max_size=dim))}
    if draw(st.booleans()):
        del entry["description"]
    return entry


@st.composite
def vocabulary_mutations(draw):
    """Drop a key, give it a bad value, give one embedding component a bad value, repeat a
    key inside the entry (before or after its first value), or change nothing."""
    kind = draw(st.sampled_from(["drop", "value", "component", "repeat-first", "repeat-last", "none"]))
    return kind, draw(st.sampled_from(list(io.VOCABULARY_ENTRY_FORMAT))), draw(st.sampled_from(VOCAB_BAD_VALUES))


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), n=st.integers(1, 4), mutation=vocabulary_mutations(),
       index=st.integers(0, 3), indent=st.sampled_from([None, 1, 4]), crlf=st.booleans(), ascii=st.booleans())
def test_vocabulary_columns_agree_with_entries(tmp_path_factory, data, dim, n, mutation, index, indent, crlf,
                                               ascii):
    ids = data.draw(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)), min_size=n,
                             max_size=n, unique=True))
    entries = [{"id": i, **data.draw(vocabulary_entries(dim))} for i in ids]
    kind, key, value = mutation
    entry = entries[index % n]
    if kind == "drop":
        entry.pop(key, None)
    elif kind == "value":
        entry[key] = value
    elif kind == "component":
        entry["cate_emb" if index % 2 else "attr_emb"][0] = value
    texts = [json.dumps(e, indent=indent, ensure_ascii=ascii) for e in entries]
    if kind.startswith("repeat"):
        text, repeat = texts[index % n], f"{json.dumps(key)}: {json.dumps(value)}"
        texts[index % n] = text[:-1] + f", {repeat}}}" if kind == "repeat-last" else "{" + repeat + ", " + text[1:]
    text = '{"dim_text": %d, "entries": [%s]}\n' % (dim, ",\n".join(texts))
    text = text.replace('"@1e999@"', "1e999")
    path = tmp_path_factory.mktemp("voc") / "v.json"
    text = text.replace("\n", "\r\n") if crlf else text
    path.write_bytes(text.encode("utf-8", "surrogatepass"))  # a lone surrogate as bytes no UTF-8 allows
    _vocabulary_passes(path, valid=False)


def test_a_vocabulary_the_split_columns_refuse_is_parsed_once_more(tmp_path, monkeypatch):
    # load_splits used to hand such a file to load_vocabulary, whose column pass parsed it again
    path = tmp_path / "v.json"
    path.write_text(_vocabulary_text(_changed(extra=[[0]])))
    calls, parse = [], io._parse_line
    monkeypatch.setattr(io, "_parse_line", lambda text: calls.append(text) or parse(text))
    with _counted_loads() as loads:
        assert io.load_splits(path) == {0: "base"}
    assert (len(calls), len(loads)) == (1, 1)


def _vocabulary_doc(names=("a", "b", "c"), description=True):
    entries = [{"id": k * 7 - 5, "name": name, "split": io.SPLITS[k % 2], "cate_emb": [1.5, -0.0, k],
                "attr_emb": [0.1, 1e-40, -3]} for k, name in enumerate(names)]
    for k, entry in enumerate(entries):
        entry.update({"description": f"the {k}th"} if description else {})
    return {"dim_text": 3, "entries": entries}


def _synthetic_vocabulary(categories, dim):
    def write(path):
        scene = gen_scene(SynthConfig(n_identities=4, n_frames=2, n_categories=categories, embed_dim=dim, seed=5))
        io.write_vocabulary(scene.vocabulary, path)
    return write


_VALID_VOCABULARIES = {
    "synth-8": _synthetic_vocabulary(8, 16),
    "synth-200": _synthetic_vocabulary(200, 64),
    "written": lambda path: io.write_vocabulary(io.Vocabulary([io.VocabularyEntry(
        i, name, "novel", "", np.array([-0.0, 1e-45, 3.4e38], np.float32), np.array([1, 0, 0], np.float32))
        for i, name in ((2 ** 64 - 1, "näme"), (-2 ** 63, "\U0001f600"), (0, ""))], 3), path),
    "indented": lambda path: path.write_text(json.dumps(_vocabulary_doc(), indent=4)),
    "crlf": lambda path: path.write_text(json.dumps(_vocabulary_doc(), indent=2) + "\n", newline="\r\n"),
    "non-ascii": lambda path: path.write_text(
        json.dumps(_vocabulary_doc(("café", "猫", "\U0001f600 x")), ensure_ascii=False), encoding="utf-8"),
    "no-description": lambda path: path.write_text(json.dumps(_vocabulary_doc(description=False))),
}


@pytest.mark.parametrize("write", _VALID_VOCABULARIES.values(), ids=_VALID_VOCABULARIES)
def test_a_valid_vocabulary_takes_no_entry_check(tmp_path, monkeypatch, write):
    # the column pass must load every file the writer or a hand makes, so that no edit of it
    # sends valid files down the entry checks unnoticed
    path = tmp_path / "v.json"
    write(path)
    calls, entry = [], io._vocabulary_entry
    monkeypatch.setattr(io, "_vocabulary_entry", lambda *a: calls.append(a) or entry(*a))
    vocab = io.load_vocabulary(path)
    assert calls == []
    assert all(e.cate_embedding.dtype == e.attr_embedding.dtype == np.float32 for e in vocab)
    monkeypatch.setattr(io, "_parse_line", _refuse)
    assert _outcome(lambda: vocab) == _outcome(lambda: io.load_vocabulary(path))
    assert len(calls) == len(vocab)


@pytest.mark.parametrize("write", _VALID_VOCABULARIES.values(), ids=_VALID_VOCABULARIES)
def test_a_valid_vocabulary_takes_no_split_entry_check(tmp_path, monkeypatch, write):
    path = tmp_path / "v.json"
    write(path)
    calls, entry = [], io._vocabulary_entry
    monkeypatch.setattr(io, "_vocabulary_entry", lambda *a: calls.append(a) or entry(*a))
    splits = io.load_splits(path)
    assert calls == []
    assert splits == io.load_vocabulary(path).splits()
    monkeypatch.setattr(io, "_parse_line", _refuse)
    assert list(io.load_splits(path).items()) == list(splits.items())
    assert len(calls) == len(splits)
