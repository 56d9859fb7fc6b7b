"""File format round-trips and validation failures."""

import json
import struct

import numpy as np
import pytest

from trajkit import io
from trajkit.errors import (
    DimMismatchError,
    DuplicateCategoryError,
    FormatError,
    NonFiniteError,
    TruncatedError,
    UnknownCategoryError,
    ZeroNormError,
)


def _det(frame, bbox, conf, cat, cat_score, emb):
    return io.DetectionRecord(frame, tuple(float(v) for v in bbox), conf, cat, cat_score,
                              np.asarray(emb, dtype=np.float32))


def _random_dets(rng, n_frames=4, per_frame=3, d=6):
    out = {}
    for f in range(n_frames):
        dets = []
        for _ in range(per_frame):
            x, y = rng.uniform(0, 100, size=2)
            w, h = rng.uniform(1, 30, size=2)
            emb = rng.normal(size=d)
            dets.append(_det(f, (x, y, w, h), float(rng.uniform(0.1, 1.0)),
                             int(rng.integers(0, 3)), float(rng.uniform(0, 1)), emb))
        out[f] = dets
    return out


def test_sidecar_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(7, 5)).astype(np.float32)
    path = tmp_path / "e.embin"
    io.write_embedding_sidecar(emb, path)
    back = io.read_embedding_sidecar(path)
    assert back.dtype == np.float32
    assert back.shape == (7, 5)
    np.testing.assert_array_equal(back, emb)


def test_sidecar_header_layout(tmp_path):
    emb = np.ones((2, 3), dtype=np.float32)
    path = tmp_path / "e.embin"
    io.write_embedding_sidecar(emb, path)
    raw = path.read_bytes()
    assert raw[:4] == b"TRJK"
    ver, dim, count = struct.unpack_from("<HIQ", raw, 4)
    assert (ver, dim, count) == (1, 3, 2)
    assert len(raw) == 18 + 2 * 3 * 4


def test_sidecar_bad_magic(tmp_path):
    path = tmp_path / "e.embin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        io.read_embedding_sidecar(path)


def test_sidecar_truncated(tmp_path):
    emb = np.ones((4, 4), dtype=np.float32)
    path = tmp_path / "e.embin"
    io.write_embedding_sidecar(emb, path)
    full = path.read_bytes()
    path.write_bytes(full[:-5])
    with pytest.raises(TruncatedError):
        io.read_embedding_sidecar(path)


def test_detections_roundtrip_inline(tmp_path):
    rng = np.random.default_rng(1)
    dets = _random_dets(rng)
    path = tmp_path / "d.jsonl"
    io.write_detections(dets, path)
    back = io.load_detections(path)
    assert sorted(back) == sorted(dets)
    for f in dets:
        assert len(back[f]) == len(dets[f])
        for a, b in zip(back[f], sorted(dets[f], key=lambda r: (r.bbox, r.confidence,
                                                                r.category_id, r.category_score))):
            assert a.frame == b.frame
            assert a.bbox == pytest.approx(b.bbox)
            assert a.confidence == pytest.approx(b.confidence)
            assert a.category_id == b.category_id
            np.testing.assert_allclose(a.embedding, b.embedding, rtol=0, atol=0)


def test_detections_roundtrip_sidecar(tmp_path):
    rng = np.random.default_rng(2)
    dets = _random_dets(rng, d=16)
    path = tmp_path / "d.jsonl"
    io.write_detections(dets, path, sidecar=True)
    assert path.with_suffix(".embin").exists()
    first = json.loads(path.read_text().splitlines()[0])
    assert "emb_ref" in first and "emb" not in first
    back = io.load_detections(path)
    flat_in = sorted((f, r.bbox) for f in dets for r in dets[f])
    flat_out = sorted((f, r.bbox) for f in back for r in back[f])
    assert [a for a, _ in flat_in] == [a for a, _ in flat_out]


def test_detections_order_canonical(tmp_path):
    # shuffling lines on disk must not change what load_detections returns
    rng = np.random.default_rng(3)
    dets = _random_dets(rng, n_frames=3, per_frame=5)
    p1 = tmp_path / "a.jsonl"
    io.write_detections(dets, p1)
    lines = p1.read_text().splitlines()
    rng.shuffle(lines)
    p2 = tmp_path / "b.jsonl"
    p2.write_text("\n".join(lines) + "\n")
    b1 = io.load_detections(p1)
    b2 = io.load_detections(p2)
    assert sorted(b1) == sorted(b2)
    for f in b1:
        assert [r.bbox for r in b1[f]] == [r.bbox for r in b2[f]]
        assert [r.confidence for r in b1[f]] == [r.confidence for r in b2[f]]


def test_detections_score_scale_and_clamp(tmp_path):
    path = tmp_path / "d.jsonl"
    rec = {"frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.5, "cat": 1, "cat_score": 0.4,
           "emb": [1.0, 0.0]}
    big = dict(rec, conf=0.9)
    path.write_text(json.dumps(rec) + "\n" + json.dumps(big) + "\n")
    back = io.load_detections(path, score_scale=2.0)
    confs = sorted(r.confidence for r in back[0])
    assert confs == pytest.approx([1.0, 1.0])  # 1.0 and 1.8 both clamp to 1


def test_detections_error_carries_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    good = {"frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.5, "cat": 1, "cat_score": 0.4,
            "emb": [1.0, 0.0]}
    bad = dict(good, bbox=[0, 0, -5, 5])
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(FormatError, match=r":2"):
        io.load_detections(path)


@pytest.mark.parametrize("field, value", [
    ("frame", True), ("cat", True), ("emb_ref", True),
    ("conf", "high"), ("conf", None), ("cat_score", "x"), ("cat_score", [0.5]),
])
def test_detections_reject_bad_field_values(tmp_path, field, value):
    # bool is a subclass of int and float() raises bare ValueError/TypeError;
    # each must surface as a FormatError naming the file and line
    path = tmp_path / "d.jsonl"
    good = {"frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.5, "cat": 1, "cat_score": 0.4,
            "emb": [1.0, 0.0]}
    bad = dict(good, **{field: value})
    if field == "emb_ref":
        del bad["emb"]
        io.write_embedding_sidecar(np.eye(2, dtype=np.float32), path.with_suffix(".embin"))
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(FormatError, match=rf"d\.jsonl:2: {field}"):
        io.load_detections(path)


_DET_LINE = {"frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.5, "cat": 1, "cat_score": 0.4,
             "emb": [1.0, 0.0]}


@pytest.mark.parametrize("changes, error, message", [
    ({"frame": None}, FormatError, "missing key 'frame'"),
    ({"cat_score": None}, FormatError, "missing key 'cat_score'"),
    ({"frame": -1}, FormatError, "frame must be a non-negative int, got -1"),
    ({"frame": 1.5}, FormatError, "frame must be a non-negative int, got 1.5"),
    ({"bbox": [0, 0, 5]}, FormatError, "bbox must have 4 entries"),
    ({"bbox": [0, 0, "x", 5]}, FormatError, "bbox entries must be numbers"),
    ({"bbox": [0, 0, 10 ** 400, 5]}, FormatError, "bbox entries must be numbers"),
    ({"bbox": [0, 0, -5, 5]}, FormatError, "bbox needs positive width/height, got w=-5.0 h=5.0"),
    ({"conf": "high"}, FormatError, "conf must be a number, got 'high'"),
    ({"conf": -0.5}, FormatError, "conf must be finite and >= 0, got -0.5"),
    ({"conf": float("nan")}, FormatError, "conf must be finite and >= 0, got nan"),
    ({"conf": float("inf")}, FormatError, "conf must be finite and >= 0, got inf"),
    ({"cat": "1"}, FormatError, "cat must be an int, got '1'"),
    ({"cat": 99}, UnknownCategoryError, "unknown category id 99"),
    ({"cat_score": [0.5]}, FormatError, "cat_score must be a number, got [0.5]"),
    ({"cat_score": 1.5}, FormatError, "cat_score must lie in [0, 1], got 1.5"),
    ({"emb": None}, FormatError, "record needs either emb or emb_ref"),
    ({"emb": []}, FormatError, "emb must be a non-empty flat list"),
    ({"emb": [[1.0, 0.0]]}, FormatError, "emb must be a non-empty flat list"),
    ({"emb": ["a", 0.0]}, FormatError, "emb entries must be numbers"),
    ({"emb": [[1.0], [0.0, 1.0]]}, FormatError, "emb entries must be numbers"),
    ({"emb": [1.0, 0.0, 0.0]}, DimMismatchError, "embedding has 3 dims, expected 2"),
    ({"emb": [float("nan"), 1.0]}, NonFiniteError, "embedding contains non-finite entries"),
    ({"emb": [0.0, 0.0]}, ZeroNormError, "embedding has zero norm"),
    ({"emb": None, "emb_ref": True}, FormatError, "emb_ref True outside sidecar with 2 rows"),
    ({"emb": None, "emb_ref": 5}, FormatError, "emb_ref 5 outside sidecar with 2 rows"),
])
def test_detections_bad_line_messages(tmp_path, changes, error, message):
    # the exact text of every detection-line error: file, line, then the fault
    bad = {k: v for k, v in dict(_DET_LINE, **changes).items() if v is not None}
    path = tmp_path / "d.jsonl"
    if "emb_ref" in bad:
        io.write_embedding_sidecar(np.eye(2, dtype=np.float32), path.with_suffix(".embin"))
    path.write_text(json.dumps(_DET_LINE) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(error) as exc:
        io.load_detections(path, vocabulary=_vocab(dim=2, n=2))
    assert str(exc.value) == f"{path}:2: {message}"


def test_detections_unknown_category_against_vocab(tmp_path):
    vocab = _vocab(dim=2, n=1)
    path = tmp_path / "d.jsonl"
    rec = {"frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.5, "cat": 99, "cat_score": 0.4,
           "emb": [1.0, 0.0]}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(UnknownCategoryError):
        io.load_detections(path, vocabulary=vocab)


def _vocab(dim=4, n=3):
    entries = []
    for k in range(n):
        e = np.zeros(dim, dtype=np.float32)
        e[k % dim] = 1.0
        entries.append(io.VocabularyEntry(k, f"thing_{k}", "base" if k % 2 == 0 else "novel",
                                          f"a thing numbered {k}", e, e * 0.5))
    return io.Vocabulary(entries, dim)


def test_vocabulary_roundtrip(tmp_path):
    vocab = _vocab()
    path = tmp_path / "v.json"
    io.write_vocabulary(vocab, path)
    back = io.load_vocabulary(path)
    assert back.dim_text == vocab.dim_text
    assert back.ids == vocab.ids
    assert back.splits() == vocab.splits()
    np.testing.assert_allclose(back.cate_matrix(), vocab.cate_matrix())
    np.testing.assert_allclose(back.attr_matrix(), vocab.attr_matrix())
    assert back.get(1).name == "thing_1"
    assert 0 in back and 99 not in back


def test_vocabulary_duplicate_id():
    e = np.ones(2, dtype=np.float32)
    entries = [io.VocabularyEntry(5, "a", "base", "", e, e),
               io.VocabularyEntry(5, "b", "novel", "", e, e)]
    with pytest.raises(DuplicateCategoryError):
        io.Vocabulary(entries, 2)


def test_vocabulary_bad_split(tmp_path):
    path = tmp_path / "v.json"
    doc = {"dim_text": 2, "entries": [{"id": 0, "name": "x", "split": "weird",
                                       "description": "", "cate_emb": [1, 0], "attr_emb": [0, 1]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        io.load_vocabulary(path)


_ENTRY = {"id": 0, "name": "x", "split": "base", "cate_emb": [1, 0], "attr_emb": [0, 1]}


@pytest.mark.parametrize("dim_text, entries, message", [
    (2, [_ENTRY, 7], r"v\.json: entry 1: entry must be a JSON object"),
    (2, 7, r"v\.json: vocabulary needs dim_text and an entries list"),
    (True, [_ENTRY], r"v\.json: dim_text must be a positive int"),
])
def test_vocabulary_malformed_entries(tmp_path, dim_text, entries, message):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"dim_text": dim_text, "entries": entries}))
    with pytest.raises(FormatError, match=message):
        io.load_vocabulary(path)


def test_weights_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    tensors = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=5),
               "scalar": np.float64(2.5)}
    path = tmp_path / "w.twb"
    io.write_weights(tensors, path)
    bundle = io.load_weights(path)
    assert bundle.version == 1
    assert set(bundle.tensors) == set(tensors)
    for name, t in tensors.items():
        got = bundle.tensors[name]
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, np.asarray(t, dtype=np.float32).astype(np.float64))


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "w.twb"
    path.write_bytes(b"XXXX\x01\x00")
    with pytest.raises(FormatError):
        io.load_weights(path)


def test_weights_truncated(tmp_path):
    path = tmp_path / "w.twb"
    io.write_weights({"t": np.ones((2, 2))}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(TruncatedError):
        io.load_weights(path)


def test_weights_refuses_writing_nonfinite(tmp_path):
    with pytest.raises(NonFiniteError):
        io.write_weights({"t": np.array([1.0, np.inf])}, tmp_path / "w.twb")


def test_weights_nonfinite_on_disk(tmp_path):
    path = tmp_path / "w.twb"
    io.write_weights({"t": np.ones(2, dtype=np.float32)}, path)
    raw = bytearray(path.read_bytes())
    # header 6 + name_len 2 + name 1 + rank 1 + one dim 4 = payload at offset 14
    raw[14:18] = struct.pack("<f", np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteError):
        io.load_weights(path)


def test_weights_duplicate_name(tmp_path):
    path = tmp_path / "w.twb"
    io.write_weights({"t": np.ones(2)}, path)
    raw = bytearray(path.read_bytes())
    # append a second copy of the single record after the header
    record = raw[6:]
    raw.extend(record)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="duplicate"):
        io.load_weights(path)


def test_weights_name_not_utf8(tmp_path):
    path = tmp_path / "w.twb"
    io.write_weights({"t": np.ones(2)}, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 0xFF  # the one-byte name follows the 6-byte header and its 2-byte length
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"w\.twb: tensor name at byte 8 is not valid UTF-8"):
        io.load_weights(path)


def test_groundtruth_roundtrip(tmp_path):
    tracks = [io.GroundTruthTrack(1, 0, {0: (0.0, 0.0, 2.0, 2.0), 2: (1.0, 1.0, 2.0, 2.0)}),
              io.GroundTruthTrack(2, 1, {1: (5.0, 5.0, 3.0, 3.0)})]
    path = tmp_path / "gt.jsonl"
    io.write_groundtruth(tracks, path)
    back = io.load_groundtruth(path)
    assert [t.track_id for t in back] == [1, 2]
    assert back[0].boxes == tracks[0].boxes
    assert back[0].frames == [0, 2]
    assert back[1].category_id == 1


def test_groundtruth_category_switch(tmp_path):
    path = tmp_path / "gt.jsonl"
    lines = [json.dumps({"track_id": 1, "cat": 0, "frame": 0, "bbox": [0, 0, 1, 1]}),
             json.dumps({"track_id": 1, "cat": 2, "frame": 1, "bbox": [0, 0, 1, 1]})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="category"):
        io.load_groundtruth(path)


def test_groundtruth_repeated_frame(tmp_path):
    path = tmp_path / "gt.jsonl"
    lines = [json.dumps({"track_id": 1, "cat": 0, "frame": 3, "bbox": [0, 0, 1, 1]}),
             json.dumps({"track_id": 1, "cat": 0, "frame": 3, "bbox": [1, 1, 1, 1]})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        io.load_groundtruth(path)


def test_tracks_roundtrip(tmp_path):
    entries = [io.TrackEntry(0, (0.0, 0.0, 2.0, 2.0), 0.9, 1, 0),
               io.TrackEntry(1, (0.5, 0.0, 2.0, 2.0), 0.8, 1, 2)]
    recs = [io.TrackRecord(7, entries, label=1, label_source="det", scores={"det": 1.0}),
            io.TrackRecord(8, [io.TrackEntry(0, (9.0, 9.0, 1.0, 1.0), 0.4, 0, 1)])]
    path = tmp_path / "t.jsonl"
    io.write_tracks(recs, path)
    back = io.read_tracks(path)
    assert [r.track_id for r in back] == [7, 8]
    assert back[0].label == 1 and back[0].label_source == "det"
    assert back[0].scores == {"det": 1.0}
    assert back[1].label is None
    assert back[0].boxes == recs[0].boxes
    assert [e.det_idx for e in back[0].entries] == [0, 2]


_TRACK_LINE = {"track_id": 1, "frame": 0, "bbox": [0, 0, 1, 1], "conf": 0.5, "cat": 0, "det": 0,
               "label": 0, "label_source": "det", "scores": {"det": 1.0}}
@pytest.mark.parametrize("changes, error, message", [
    ({"id": "x"}, FormatError, "id must be an int, got 'x'"),
    ({"id": True}, FormatError, "id must be an int, got True"),
    ({"cate_emb": ["a", 0]}, FormatError, "cate_emb entries must be numbers"),
    ({"attr_emb": [0, {"a": 1}]}, FormatError, "attr_emb entries must be numbers"),
    ({"cate_emb": [0, 0]}, ZeroNormError, "cate_emb has zero norm"),
    ({"attr_emb": [0.0, 0.0]}, ZeroNormError, "attr_emb has zero norm"),
])
def test_vocabulary_bad_entry_names_file_and_entry(tmp_path, changes, error, message):
    # bare int()/float() conversion errors and an all-zero row used to
    # surface without the file, the zero row only later, inside a cosine
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"dim_text": 2, "entries": [_ENTRY, dict(_ENTRY, **changes)]}))
    with pytest.raises(error) as exc:
        io.load_vocabulary(path)
    assert str(exc.value) == f"{path}: entry 1: {message}"


_GT_LINE = {"track_id": 1, "cat": 0, "frame": 0, "bbox": [0, 0, 1, 1]}


@pytest.mark.parametrize("loader, field, value", [
    ("read_tracks", None, 5),
    ("read_tracks", None, [1, 2]),
    ("read_tracks", "track_id", "a"),
    ("read_tracks", "frame", True),
    ("read_tracks", "cat", 1.5),
    ("read_tracks", "det", None),
    ("read_tracks", "label", True),
    ("read_tracks", "conf", "x"),
    ("read_tracks", "scores", 5),
    ("load_groundtruth", None, 5),
    ("load_groundtruth", "track_id", "a"),
    ("load_groundtruth", "cat", True),
    ("load_groundtruth", "frame", 2.0),
])
def test_tracks_and_groundtruth_reject_bad_lines(tmp_path, loader, field, value):
    # a non-object line, a bool or float id and a non-numeric conf must each
    # surface as a FormatError naming the file and line, never TypeError/ValueError
    good = _TRACK_LINE if loader == "read_tracks" else _GT_LINE
    bad = value if field is None else dict(good, **{field: value})
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    message = field or "line must hold a JSON object"
    with pytest.raises(FormatError, match=rf"t\.jsonl:2: {message}"):
        getattr(io, loader)(path)
