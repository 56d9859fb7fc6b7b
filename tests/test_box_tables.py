"""The box-track readers' column tables: the first fault in file order, records built on
access, and ids and frames past int64."""

import json

import pytest

from test_io_columns import _chunk, _plain
from trajkit import io, metrics
from trajkit.errors import FormatError

_TRACK = {"track_id": 1, "frame": 0, "bbox": [0, 0, 1, 1], "conf": 0.5, "cat": 0, "det": 0,
          "label": 1, "label_source": "det", "scores": {"det": 1.0}}
_GT = {"track_id": 1, "cat": 0, "frame": 0, "bbox": [0, 0, 1, 1]}
_BROKEN = '{"track_id": 1, "frame": '  # no JSON value
BIG = 2 ** 70


def _lines(line: dict, changes: dict, n: int = 12, frame0: int = 0) -> str:
    """``n`` lines of one track on frames ``frame0`` .. ``frame0 + n - 1``, line i+1 changed by
    ``changes[i]``: a dict updates it, a str replaces it."""
    lines = [dict(line, frame=frame0 + i) for i in range(n)]
    for i, change in changes.items():
        lines[i] = change if isinstance(change, str) else dict(lines[i], **change)
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines)


# (reader, file text, the fault it names after the path); the messages were taken from the
# readers before they returned tables, with 4 lines a chunk
FAULTS = [
    # a repeat or switch at line 3, then a fault of a line's own in a later chunk or in its own
    ("read_tracks", _lines(_TRACK, {2: {"frame": 1}, 9: _BROKEN}), ":3: track 1 repeats frame 1"),
    ("read_tracks", _lines(_TRACK, {2: {"frame": 1}, 3: _BROKEN}), ":3: track 1 repeats frame 1"),
    ("read_tracks", _lines(_TRACK, {2: {"label": 2}, 9: {"conf": "x"}}),
     ":3: track 1 switches label (1, 'det', {'det': 1.0}) -> (2, 'det', {'det': 1.0})"),
    ("read_tracks", _lines(_TRACK, {2: {"label": 2}, 3: {"conf": "x"}}),
     ":3: track 1 switches label (1, 'det', {'det': 1.0}) -> (2, 'det', {'det': 1.0})"),
    # the reverse: a line's own fault first
    ("read_tracks", _lines(_TRACK, {1: _BROKEN, 2: {"frame": 0}}),
     ":2: malformed JSON (Expecting value)"),
    ("read_tracks", _lines(_TRACK, {2: {"conf": "x"}, 9: {"frame": 8}}), ":3: conf must be a number, got 'x'"),
    ("read_tracks", _lines(_TRACK, {1: {"conf": 2.0}, 2: {"label": 2}}), ":2: conf must lie in [0, 1], got 2.0"),
    # a repeat before a switch, each in its own chunk
    ("read_tracks", _lines(_TRACK, {5: {"frame": 4}, 9: {"scores": {"det": 0.5}}}), ":6: track 1 repeats frame 4"),
    # ids and frames past int64, the repeat in a later chunk than the line it repeats
    ("read_tracks", _lines(dict(_TRACK, track_id=BIG, cat=BIG, det=-BIG), {6: {"frame": -BIG + 2}, 10: _BROKEN},
                           frame0=-BIG), f":7: track {BIG} repeats frame {-BIG + 2}"),
    ("load_groundtruth", _lines(_GT, {2: {"frame": 1}, 9: _BROKEN}), ":3: track 1 repeats frame 1"),
    ("load_groundtruth", _lines(_GT, {2: {"cat": 5}, 3: _BROKEN}), ":3: track 1 switches category 0 -> 5"),
    ("load_groundtruth", _lines(_GT, {1: {"bbox": [0, 0, 0, 1]}, 2: {"cat": 5}}),
     ":2: bbox needs positive width/height, got w=0.0 h=1.0"),
    ("load_groundtruth", _lines(_GT, {1: _BROKEN, 8: {"frame": 0}}),
     ":2: malformed JSON (Expecting value)"),
    ("load_groundtruth", _lines(dict(_GT, track_id=-BIG, cat=BIG), {9: {"frame": BIG + 7}, 11: _BROKEN}, frame0=BIG),
     f":10: track {-BIG} repeats frame {BIG + 7}"),
    # a file read in one piece: its bad byte is found before any chunk is checked
    ("load_groundtruth", _lines(_GT, {2: {"frame": 1}}).encode() + b'{"track_id": 1, "cat": 0, "frame": 9\xff\n',
     ":13: not valid UTF-8 at byte 758 (invalid start byte)"),
]


@pytest.mark.parametrize("reader, text, fault", FAULTS, ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(FAULTS)])
def test_the_first_fault_in_file_order_is_raised(tmp_path, reader, text, fault):
    path = tmp_path / "f.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with _chunk(4), pytest.raises(FormatError) as err:
        getattr(io, reader)(path)
    assert type(err.value) is FormatError
    assert str(err.value) == f"{path}{fault}"


def _records():
    """Three tracks, ids and frames past int64 among them, entries out of frame order, the
    odd-id tracks labelled."""
    return [io.TrackRecord(tid, [io.TrackEntry(f, (float(f % 7), 0.0, 2.0, 2.0), 0.5, tid % 3, f) for f in frames],
                           *((tid % 4, "cate", {"cate": 0.25, "det": 1}) if tid % 2 else ()))
            for tid, frames in ((-BIG, (BIG, -BIG, 3)), (7, (0, 1, 2)), (BIG, (2 ** 63, 5)))]


def test_a_table_is_the_sequence_of_its_records(tmp_path):
    records = _records()
    io.write_tracks(records, tmp_path / "t.jsonl")
    table = io.read_tracks(tmp_path / "t.jsonl")
    for rec in records:  # the reader's order: entries by frame, scores as floats
        rec.entries.sort(key=lambda e: e.frame)
        rec.scores = rec.scores and {k: float(v) for k, v in rec.scores.items()}
    assert len(table) == 3 and table.track_id.dtype == object
    assert _plain(list(table)) == _plain(records) == _plain([table[0], table[1], table[-1]])
    assert table.bounds.tolist() == [0, 3, 6, 8]
    assert table.frame.tolist() == [-BIG, 3, BIG, 0, 1, 2, 5, 2 ** 63]
    with pytest.raises(IndexError):
        table[3]
    table[1].entries.clear()  # a record is built anew on each access
    assert len(table[1].entries) == 3


def test_tables_past_int64_evaluate_as_their_records(tmp_path):
    records = _records()
    gts = [io.GroundTruthTrack(rec.track_id + 1, cat, dict(sorted(rec.boxes.items())))
           for rec, cat in zip(records, (1, 2, 1))]
    io.write_tracks(records, tmp_path / "t.jsonl")
    io.write_groundtruth(gts, tmp_path / "gt.jsonl")
    preds, truth = io.read_tracks(tmp_path / "t.jsonl"), io.load_groundtruth(tmp_path / "gt.jsonl")
    assert truth.category_id == [1, 2, 1] and _plain(list(truth)) == _plain(sorted(gts, key=lambda g: g.track_id))
    cfg = metrics.EvalConfig(splits={1: "base", 2: "novel"})
    report = metrics.evaluate(preds, truth, cfg).to_dict()
    assert report == metrics.evaluate(records, gts, cfg).to_dict()
    assert report["overall"]["tp"] == 8 and report["overall"]["cls_a"] == 0.0


def test_an_empty_file_is_an_empty_table(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("\n  \n")
    tracks, truth = io.read_tracks(path), io.load_groundtruth(path)
    assert list(tracks) == list(truth) == [] and tracks.bbox.shape == (0, 4)
    assert metrics.evaluate(tracks, truth).overall.tp == 0
