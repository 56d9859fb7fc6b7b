"""File format round-trips and validation failures."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajkit import io
from trajkit.synth import SynthConfig, gen_scene
from trajkit.errors import (
    DimMismatchError,
    DuplicateCategoryError,
    FormatError,
    NonFiniteError,
    TrajkitError,
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


def test_detection_order_does_not_depend_on_score_scale(tmp_path):
    # the order used to follow the scaled, clamped confidence: at scale 2 both
    # lines clamp to 1.0, the category broke the tie and the det indices swapped
    path = tmp_path / "d.jsonl"
    low = {"frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.5, "cat": 1, "cat_score": 0.4, "emb": [1.0, 0.0]}
    high = dict(low, conf=0.8, cat=0, emb=[0.0, 1.0])
    path.write_text(json.dumps(low) + "\n" + json.dumps(high) + "\n")
    for scale in (1.0, 2.0):
        dets = io.load_detections(path, score_scale=scale)[0]
        assert [d.category_id for d in dets] == [1, 0]
        assert [d.confidence for d in dets] == [min(0.5 * scale, 1.0), min(0.8 * scale, 1.0)]


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
    # JSON NaN/Infinity, true/false and numeric strings used to load as numbers
    ({"bbox": [float("nan"), 0, 5, 5]}, FormatError, "bbox entries must be finite, got [nan, 0.0, 5.0, 5.0]"),
    ({"bbox": [0, 0, float("inf"), 5]}, FormatError, "bbox entries must be finite, got [0.0, 0.0, inf, 5.0]"),
    ({"bbox": [True, 0, 5, 5]}, FormatError, "bbox entries must be numbers"),
    ({"bbox": [0, "1", 5, 5]}, FormatError, "bbox entries must be numbers"),
    ({"conf": True}, FormatError, "conf must be a number, got True"),
    ({"conf": "0.5"}, FormatError, "conf must be a number, got '0.5'"),
    ({"cat_score": True}, FormatError, "cat_score must be a number, got True"),
    ({"emb": ["1.5", 0.0]}, FormatError, "emb entries must be numbers"),
    ({"emb": [True, 0.0]}, FormatError, "emb entries must be numbers"),
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
    assert [e.name for e in back] == [f"thing_{k}" for k in range(3)]
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
    (2, [], r"v\.json: vocabulary needs at least one entry"),
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
    loaded = io.load_weights(path)
    assert set(loaded) == set(tensors)
    for name, t in tensors.items():
        got = loaded[name]
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
    with pytest.raises(FormatError, match=r"w\.twb: tensor 't' appears twice"):
        io.load_weights(path)


def test_weights_unsupported_version(tmp_path):
    path = tmp_path / "w.twb"
    path.write_bytes(io.WEIGHTS_MAGIC + struct.pack("<H", 2))
    with pytest.raises(FormatError, match=r"w\.twb: unsupported bundle version 2"):
        io.load_weights(path)


def _one_tensor_header(rank, dims):
    # a v1 bundle holding the header of one tensor named "t" and no payload
    return (io.WEIGHTS_MAGIC + struct.pack("<H", io.WEIGHTS_VERSION) + struct.pack("<H", 1) + b"t"
            + struct.pack(f"<B{len(dims)}I", rank, *dims))


@pytest.mark.parametrize("raw, error, message", [
    # element counts that wrap round to 0 in int64 used to escape as a bare reshape ValueError
    (_one_tensor_header(4, [2 ** 16] * 4), TruncatedError, "truncated payload for tensor 't'"),
    (_one_tensor_header(2, [2 ** 32 - 1, 2 ** 31 + 1]), TruncatedError,
     "truncated payload for tensor 't'"),
    # more axes than numpy arrays can have
    (_one_tensor_header(65, [0] * 65), FormatError, "tensor 't' has rank 65, more than 32"),
], ids=["dims-2^16x4", "dims-2^32-1x2^31+1", "rank-65"])
def test_weights_bad_tensor_header(tmp_path, raw, error, message):
    path = tmp_path / "w.twb"
    path.write_bytes(raw)
    with pytest.raises(error) as exc:
        io.load_weights(path)
    assert str(exc.value) == f"{path}: {message}"


@settings(max_examples=200, deadline=None)
@given(body=st.binary(max_size=64), header=st.booleans())
def test_weights_any_bytes_raise_only_trajkit_errors(tmp_path_factory, body, header):
    # whatever a .twb file holds, load_weights returns tensors or raises a TrajkitError
    path = tmp_path_factory.mktemp("twb") / "w.twb"
    path.write_bytes((io.WEIGHTS_MAGIC + struct.pack("<H", io.WEIGHTS_VERSION) if header else b"")
                     + body)
    try:
        io.load_weights(path)
    except TrajkitError:
        pass


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


def _two_track_file(path, labelled=True):
    label = {"label": 1, "label_source": "det", "scores": {"det": 1.0}} if labelled else {}
    recs = [io.TrackRecord(tid, [io.TrackEntry(f, (0.0, 0.0, 2.0, 2.0), 0.5, 1, 0) for f in range(3)], **label)
            for tid in (1, 2)]
    io.write_tracks(recs, path)
    return path.read_text().splitlines()


def test_read_tracks_rejects_a_repeated_frame(tmp_path):
    # a copied line used to load into a record whose entries outnumber its boxes
    path = tmp_path / "t.jsonl"
    lines = _two_track_file(path)
    path.write_text("\n".join(lines + [lines[3]]) + "\n")
    with pytest.raises(FormatError) as exc:
        io.read_tracks(path)
    assert str(exc.value) == f"{path}:7: track 2 repeats frame 0"


@pytest.mark.parametrize("line, change, labelled", [
    (0, {"label": 99, "label_source": "attr"}, True),  # first line disagrees: reported at line 2
    (2, {"scores": {"det": 0.5}}, True),
    (1, {"label": 1, "label_source": "det", "scores": {"det": 1.0}}, False),  # labelled on one line only
    (4, None, True),  # unlabelled on one line only
])
def test_read_tracks_rejects_a_track_whose_lines_disagree_on_its_label(tmp_path, line, change, labelled):
    # the record used to take its label from its last line, whatever the others said
    path = tmp_path / "t.jsonl"
    lines = [json.loads(s) for s in _two_track_file(path, labelled)]
    if change is None:
        for key in ("label", "label_source", "scores"):
            del lines[line][key]
    else:
        lines[line].update(change)
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    with pytest.raises(FormatError, match=rf"t\.jsonl:{max(line, 1) + 1}: track {lines[line]['track_id']} "
                                         "switches label "):
        io.read_tracks(path)


def test_read_tracks_compares_a_score_past_64_bit_ints_as_json_loads_it(tmp_path):
    # json loads the first score as an int, which is not equal to the float 1e30, while
    # a parser that reads an int past 64 bits as a float makes both lines agree
    path = tmp_path / "t.jsonl"
    line = ('{"track_id": 1, "frame": %d, "bbox": [0, 0, 1, 1], "conf": 0.5, "cat": 0, "det": 0, '
            '"label": 0, "label_source": "det", "scores": {"cate": %s}}\n')
    path.write_text(line % (0, 10 ** 30) + line % (1, "1e30"))
    with pytest.raises(FormatError) as exc:
        io.read_tracks(path)
    assert str(exc.value) == (f"{path}:2: track 1 switches label (0, 'det', {{'cate': {10 ** 30}}}) "
                              "-> (0, 'det', {'cate': 1e+30})")


_TRACK_LINE = {"track_id": 1, "frame": 0, "bbox": [0, 0, 1, 1], "conf": 0.5, "cat": 0, "det": 0,
               "label": 0, "label_source": "det", "scores": {"det": 1.0}}
@pytest.mark.parametrize("changes, error, message", [
    ({"id": "x"}, FormatError, "id must be an int, got 'x'"),
    ({"id": True}, FormatError, "id must be an int, got True"),
    ({"cate_emb": ["a", 0]}, FormatError, "cate_emb entries must be numbers"),
    ({"attr_emb": [0, {"a": 1}]}, FormatError, "attr_emb entries must be numbers"),
    ({"cate_emb": [0, 0]}, ZeroNormError, "cate_emb has zero norm"),
    ({"attr_emb": [0.0, 0.0]}, ZeroNormError, "attr_emb has zero norm"),
    ({"cate_emb": ["1", 0]}, FormatError, "cate_emb entries must be numbers"),
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
    ("read_tracks", "conf", True),
    ("read_tracks", "bbox", [0, 0, float("inf"), 1]),
    ("read_tracks", "scores", 5),
    ("load_groundtruth", None, 5),
    ("load_groundtruth", "track_id", "a"),
    ("load_groundtruth", "cat", True),
    ("load_groundtruth", "frame", 2.0),
    ("load_groundtruth", "bbox", [float("nan"), 0, 1, 1]),
    ("read_tracks", "conf", float("nan")),
    ("read_tracks", "conf", -3.0),
    ("read_tracks", "conf", 1.5),
    ("read_tracks", "scores", {"det": True}),
    ("read_tracks", "scores", {"cate": "0.5"}),
    ("read_tracks", "scores", {"attr": float("nan")}),
    ("read_tracks", "scores", {"det": 10 ** 400}),
    ("read_tracks", "label_source", 5),
    ("read_tracks", "label_source", "vote"),
])
def test_tracks_and_groundtruth_reject_bad_lines(tmp_path, loader, field, value):
    # a non-object line, a bool or float id, a non-numeric or out-of-range conf,
    # a score that is no finite number and an unknown label source must each
    # surface as a FormatError naming the file and line, never TypeError/ValueError
    good = _TRACK_LINE if loader == "read_tracks" else _GT_LINE
    bad = value if field is None else dict(good, **{field: value})
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    message = field or "line must hold a JSON object"
    with pytest.raises(FormatError, match=rf"t\.jsonl:2: {message}"):
        getattr(io, loader)(path)


_DET_LINE = {"frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.5, "cat": 1, "cat_score": 0.4,
             "emb": [1.0, 0.0]}


@pytest.mark.parametrize("loader, line", [
    ("load_detections", _DET_LINE), ("read_tracks", _TRACK_LINE), ("load_groundtruth", _GT_LINE),
])
def test_jsonl_loaders_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, loader, line):
    # a 0xff byte escaped as UnicodeDecodeError, naming no file; line 250 lies
    # past the first buffer the text decoder reads
    path = tmp_path / "t.jsonl"
    lines = [json.dumps(dict(line, frame=f)) + "\n" for f in range(300)]
    start = sum(map(len, lines[:249]))
    raw = bytearray("".join(lines).encode())
    raw[start + 1] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=rf"t\.jsonl:250: not valid UTF-8 at byte {start + 1} "
                                          r"\(invalid start byte\)"):
        getattr(io, loader)(path)


def test_vocabulary_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "v.json"
    io.write_vocabulary(_vocab(), path)
    raw = bytearray(path.read_bytes())
    raw[40] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"v\.json: not valid UTF-8 at byte 40 \(invalid start byte\)"):
        io.load_vocabulary(path)


@pytest.mark.parametrize("categories, dim, seed", [(1, 2, 0), (2, 8, 3), (12, 64, 7)])
def test_splits_of_a_synthetic_vocabulary_are_the_vocabulary_splits(tmp_path, categories, dim, seed):
    scene = gen_scene(SynthConfig(n_identities=2, n_frames=2, n_categories=categories,
                                  embed_dim=dim, seed=seed))
    path = tmp_path / "v.json"
    io.write_vocabulary(scene.vocabulary, path)
    splits = io.load_splits(path)
    assert splits == io.load_vocabulary(path).splits() == scene.vocabulary.splits()
    assert list(splits) == scene.vocabulary.ids


def test_splits_read_every_number_form_as_the_vocabulary_does(tmp_path):
    # ints, exponents, a negative zero and whitespace around and inside the lists
    path = tmp_path / "v.json"
    path.write_text('\n {"dim_text" : 3, "entries": [\n'
                    '  {"id": 7, "name": "a", "split": "novel", "cate_emb": [1, 0, -0.0],\n'
                    '   "attr_emb": [ 2.5e-3 ,\t-1E+2, 0.0 ]},\n'
                    '  {"id": -2, "name": "b", "split": "base", "description": "d",\n'
                    '   "cate_emb": [1e-320, 3, 3.4e38], "attr_emb": [0, 0, 5e0]}\n'
                    ']}\r\n')
    assert io.load_splits(path) == io.load_vocabulary(path).splits() == {7: "novel", -2: "base"}


_VALID = {"dim_text": 2, "entries": [_ENTRY, dict(_ENTRY, id=1, split="novel")]}


def _with_entry(**changes):
    """``_VALID`` as JSON text, its second entry changed (a None value drops the key)."""
    entry = {k: v for k, v in {**_VALID["entries"][1], **changes}.items() if v is not None}
    return json.dumps({**_VALID, "entries": [_ENTRY, entry]})


_FAULTS = {  # a short name: the text of a vocabulary.json that both loaders refuse
    "top-list": "[1, 2]", "top-number": "1.5", "no-entries": '{"dim_text": 2}',
    "entries-object": '{"dim_text": 2, "entries": {}}', "dim-bool": json.dumps({**_VALID, "dim_text": True}),
    "dim-float": json.dumps({**_VALID, "dim_text": 2.0}), "dim-1e999": '{"dim_text": 1e999, "entries": [1]}',
    "dim-0": json.dumps({**_VALID, "dim_text": 0}), "entries-empty": json.dumps({**_VALID, "entries": []}),
    "entry-number": json.dumps({**_VALID, "entries": [_ENTRY, 7.5]}),
    "no-id": _with_entry(id=None), "no-name": _with_entry(name=None), "no-split": _with_entry(split=None),
    "no-cate": _with_entry(cate_emb=None), "no-attr": _with_entry(attr_emb=None),
    "no-id-or-split": _with_entry(id=None, split=None),
    "id-str": _with_entry(id="x"), "id-bool": _with_entry(id=True), "id-float": _with_entry(id=1.5),
    "id-whole-float": _with_entry(id=100.0), "id-list": _with_entry(id=[1.5, 2]),
    "id-object": _with_entry(id={"a": [0.25]}), "id-inf": _with_entry(id=float("inf")),
    "split-str": _with_entry(split="weird"), "split-float": _with_entry(split=0.5),
    "split-list": _with_entry(split=[0.25]), "id-float-no-split": _with_entry(split=None, id=2.5),
    "id-twice": _with_entry(id=0),
    "emb-str": _with_entry(cate_emb=["a", 0]), "emb-object": _with_entry(attr_emb=[0, {"a": 1.5}]),
    "emb-bool": _with_entry(cate_emb=[True, 0.5]), "emb-digits": _with_entry(cate_emb=["1", 0]),
    "emb-null": _with_entry(cate_emb=[None, 1]),
    "no-cate-short-attr": _with_entry(cate_emb=None, attr_emb=[1.5]),
    "emb-number": _with_entry(cate_emb=1.5), "emb-text": _with_entry(cate_emb="ab"),
    "emb-map": _with_entry(cate_emb={"a": 1}), "emb-empty": _with_entry(attr_emb=[]),
    "emb-short": _with_entry(cate_emb=[0.5]), "emb-long": _with_entry(cate_emb=[0.5, 1.5, 2.5]),
    "emb-nested": _with_entry(cate_emb=[[0.5, 1.5]]), "emb-columns": _with_entry(cate_emb=[[0.5], [1.5]]),
    "emb-ragged": _with_entry(cate_emb=[0.5, [1.5]]),
    "emb-long-1e999": _with_entry(cate_emb="@").replace('"@"', "[1e999, 0.5, 2]"),
    "emb-1e39-str": _with_entry(cate_emb="@").replace('"@"', '[1e39, "a"]'),
    "emb-huge-int-str": _with_entry(cate_emb=[10 ** 400, "a"]),
    "emb-nan": _with_entry(cate_emb=[float("nan"), 0.5]),
    "emb-infinities": _with_entry(attr_emb=[1e999, float("-inf")]),
    "emb-zero-inf": _with_entry(cate_emb=[0.0, float("inf")]),
    "emb-nan-str": _with_entry(cate_emb=[float("nan"), "x"]),
    "truncated": '{"dim_text": 2, "entries": [', "bad-number": '{"dim_text": 2, "entries": [0.5.5]}',
    "nested": "[" * 100_000 + "]" * 100_000,
    "not-utf8": json.dumps(_VALID).encode().replace(b'"x"', b'"\xff"', 1),
}


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("text", _FAULTS.values(), ids=_FAULTS)
def test_splits_refuse_what_the_vocabulary_refuses_with_its_error(tmp_path, text):
    path = tmp_path / "v.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    errors = []
    for loader in (io.load_vocabulary, io.load_splits):
        with pytest.raises(TrajkitError) as exc:
            loader(path)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(f"{path}: ")


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("key, emb, error", [
    ("cate_emb", "[0.0, 0.0]", ZeroNormError),
    ("attr_emb", "[0, -0.0]", ZeroNormError),
    ("cate_emb", "[1e999, 0.5]", NonFiniteError),
    ("attr_emb", "[1e39, 0.5]", NonFiniteError),
    ("cate_emb", f"[{10 ** 39}, 1]", NonFiniteError),
    ("cate_emb", f"[{10 ** 400}, 1]", FormatError),
])
def test_splits_leave_out_the_checks_of_embedding_values(tmp_path, key, emb, error):
    # eval reads only the splits: an all-zero embedding, or one too large for a
    # float32, is refused by load_vocabulary but not by load_splits
    path = tmp_path / "v.json"
    path.write_text(_with_entry(**{key: "@"}).replace('"@"', emb))
    with pytest.raises(error, match=rf"v\.json: entry 1: {key} "):
        io.load_vocabulary(path)
    assert io.load_splits(path) == {0: "base", 1: "novel"}


@pytest.mark.parametrize("loader", [io.load_vocabulary, io.load_splits])
def test_vocabulary_names_the_file_and_entry_of_a_duplicate_id(tmp_path, loader):
    # the error named neither the file nor the entry
    path = tmp_path / "v.json"
    path.write_text(json.dumps({**_VALID, "entries": [_ENTRY, dict(_ENTRY, id=3), dict(_ENTRY, id=3)]}))
    with pytest.raises(DuplicateCategoryError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}: entry 2: duplicate category id 3"


_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the interpreter's depth


@pytest.mark.parametrize("loader, line, key", [
    ("load_detections", _DET_LINE, "emb"), ("read_tracks", _TRACK_LINE, "bbox"),
    ("load_groundtruth", _GT_LINE, "track_id"),
])
def test_jsonl_loaders_name_the_line_of_a_value_nested_too_deeply(tmp_path, loader, line, key):
    # RecursionError escaped, naming no file
    path = tmp_path / "t.jsonl"
    deep = json.dumps(dict(line, **{key: "@"})).replace('"@"', _DEEP)
    path.write_text(json.dumps(line) + "\n" + deep + "\n")
    with pytest.raises(FormatError) as exc:
        getattr(io, loader)(path)
    assert str(exc.value) == f"{path}:2: JSON nested too deeply"


@pytest.mark.parametrize("loader", [io.load_vocabulary, io.load_splits])
def test_vocabulary_names_a_value_nested_too_deeply(tmp_path, loader):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({**_VALID, "entries": [_ENTRY, "@"]}).replace('"@"', _DEEP))
    with pytest.raises(FormatError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}: JSON nested too deeply"


_LONG_INT = "9" * 5000  # more digits than the interpreter converts to an int (4,300 by default)


@pytest.mark.parametrize("loader, line, key", [
    ("load_detections", _DET_LINE, "frame"), ("read_tracks", _TRACK_LINE, "track_id"),
    ("load_groundtruth", _GT_LINE, "track_id"),
])
def test_jsonl_loaders_name_the_line_of_an_int_too_long_to_read(tmp_path, loader, line, key):
    # json's ValueError "Exceeds the limit (4300 digits) ..." escaped, naming no file
    path = tmp_path / "t.jsonl"
    long = json.dumps(dict(line, **{key: "@"})).replace('"@"', _LONG_INT)
    path.write_text(json.dumps(line) + "\n" + long + "\n")
    with pytest.raises(FormatError) as exc:
        getattr(io, loader)(path)
    assert str(exc.value).startswith(f"{path}:2: Exceeds the limit")


@pytest.mark.parametrize("loader", [io.load_vocabulary, io.load_splits])
def test_vocabulary_names_an_int_too_long_to_read(tmp_path, loader):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({**_VALID, "entries": [_ENTRY, dict(_ENTRY, id="@")]}).replace('"@"', _LONG_INT))
    with pytest.raises(FormatError) as exc:
        loader(path)
    assert str(exc.value).startswith(f"{path}: Exceeds the limit")
