"""Detections as per-frame column blocks (``io.DetectionFrame``).

``io.load_detections`` is held to a per-line ``json`` reference loader, and
the ``track`` command's bytes are pinned on inputs at the edges of the columns'
types: a -0.0 confidence, a scaled confidence past the float range, and frame
numbers and category ids past 64 bits. A synthetic scene's empty frames are
pinned too, by their ``synth`` and ``track`` bytes and by the width a tracker
takes from the first frame that has detections.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blocks import block
from test_io_columns import EXAMPLES, _chunk, _plain, boxes, embeddings
from trajkit import cli, io
from trajkit.errors import DimMismatchError
from trajkit.synth import SynthConfig, gen_scene
from trajkit.tracker import Tracker, TrackerConfig


def _reference(path, score_scale=1.0):
    """One ``DetectionRecord`` per line loaded by json, sorted by the canonical key (frame, box,
    raw confidence, category, category score; ties keep file order), confidences scaled and
    clamped one at a time."""
    side = None
    keyed = []
    for text in path.read_text().splitlines():
        if not text.strip():
            continue
        obj = json.loads(text)
        if "emb" in obj:
            emb = np.asarray(obj["emb"], dtype=np.float32)
        else:
            side = io.read_embedding_sidecar(path.with_suffix(".embin")) if side is None else side
            emb = side[obj["emb_ref"]]
        bbox, conf = tuple(float(v) for v in obj["bbox"]), float(obj["conf"])
        key = (obj["frame"], *bbox, conf, obj["cat"], float(obj["cat_score"]))
        keyed.append((key, io.DetectionRecord(obj["frame"], bbox, min(max(conf * score_scale, 0.0), 1.0),
                                              obj["cat"], float(obj["cat_score"]), emb)))
    out = {}
    for _, rec in sorted(keyed, key=lambda pair: pair[0]):
        out.setdefault(rec.frame, []).append(rec)
    return {frame: out[frame] for frame in sorted(out)}


# small pools, so that lines tie on some or all of the sort key
tied_boxes = st.one_of(st.sampled_from([[0, 0, 1, 1], [0.5, 0, 1, 1], [0, 0, 2, 1]]), boxes)
confidences = st.one_of(st.sampled_from([0.5, 0.5, 0.0, -0.0, 1, 3.5]), st.floats(0, 4))


@EXAMPLES
@given(lines=st.lists(st.tuples(st.integers(0, 3), tied_boxes, confidences, st.integers(0, 2),
                                st.sampled_from([0.25, 0.25, 1, -0.0]), embeddings), min_size=1, max_size=40),
       sidecar=st.booleans(), chunk=st.sampled_from([1, 2, 3, 512]),
       scale=st.sampled_from([1.0, 0.5, 3.0, 1e308]))
def test_blocks_iterate_as_the_reference_records(tmp_path_factory, lines, sidecar, chunk, scale):
    path = tmp_path_factory.mktemp("blocks") / "d.jsonl"
    objs = [{"frame": f, "bbox": b, "conf": c, "cat": k, "cat_score": s, "emb": e} for f, b, c, k, s, e in lines]
    if sidecar:
        io.write_embedding_sidecar(np.asarray([o.pop("emb") for o in objs], dtype=np.float32),
                                   path.with_suffix(".embin"))
        objs = [dict(o, emb_ref=i) for i, o in enumerate(objs)]
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    with _chunk(chunk), warnings.catch_warnings():
        warnings.simplefilter("error")  # a conf * scale past the float range clamps without a warning
        loaded = io.load_detections(path, scale)
    want = _reference(path, scale)
    assert all(isinstance(block, io.DetectionFrame) for block in loaded.values())
    # types, -0.0 and float32 bits kept; a block's records from iteration and from indexing
    assert _plain(loaded) == _plain(want)
    assert _plain({f: [block[i] for i in range(len(block))] for f, block in loaded.items()}) == _plain(want)


def test_a_block_is_a_read_only_sequence_of_records():
    records = [io.DetectionRecord(7, (1.0, 2.0, 3.0, 4.0), 0.5, 2 ** 70, 0.25, np.array([1.0, 0.0], np.float32)),
               io.DetectionRecord(7, (5.0, 6.0, 7.0, 8.0), -0.0, 3, 1.0, np.array([0.0, 2.0], np.float32))]
    frame = block(records)
    assert len(frame) == 2 and frame.frame == 7 and frame.embedding.dtype == np.float32
    assert frame.category_id.dtype == object and frame[0].category_id == 2 ** 70
    assert _plain(list(frame)) == _plain(records) == _plain([frame[0], frame[-1]])
    with pytest.raises(IndexError):
        frame[2]
    with pytest.raises(TypeError):
        frame[0] = records[0]


# Every identity is hidden in frames 0-3 and 7-8, so those frames have no detection. sha256
# prefixes of the synth and track outputs, taken while a scene's frames were lists of records;
# events.jsonl's re-taken when score_matrix went detection-major, which moved score bits only.
HIDDEN = ",".join(f"{i}:{lo}-{hi}" for i in range(4) for lo, hi in ((0, 3), (7, 8)))
EMPTY_FRAMES_PINNED = {
    "inline": {"detections.jsonl": "b56bd0bd5c9ff706", "tracks.jsonl": "3964e799d20c3cb5",
               "events.jsonl": "52360fe624298b44"},
    "sidecar": {"detections.jsonl": "4e0bd3936ee209ba", "detections.embin": "e69ac5269c3d0c89",
                "tracks.jsonl": "3964e799d20c3cb5", "events.jsonl": "52360fe624298b44"},
}


@pytest.mark.parametrize("layout", list(EMPTY_FRAMES_PINNED))
def test_empty_frames_keep_their_bytes(tmp_path, layout):
    flags = ["--sidecar"] if layout == "sidecar" else []
    assert cli.main(["synth", "--identities", "4", "--frames", "12", "--categories", "2", "--dim", "8",
                     "--sigma", "0.1", "--occlusion", HIDDEN, "--seed", "2", "--out-dir", str(tmp_path), *flags]) == 0
    assert cli.main(["track", "--detections", str(tmp_path / "detections.jsonl"), "--out-dir", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
               for name in EMPTY_FRAMES_PINNED[layout]}
    assert digests == EMPTY_FRAMES_PINNED[layout]


def test_empty_first_frames_leave_the_width_to_the_first_detections():
    scene = gen_scene(SynthConfig(n_identities=3, n_frames=6, embed_dim=8, occlusion=[(i, 0, 2) for i in range(3)]))
    tk = Tracker(TrackerConfig())
    for frame in range(3):
        assert len(scene.detections[frame]) == 0 and list(tk.step(frame, scene.detections[frame])) == []
    narrow = gen_scene(SynthConfig(n_identities=3, n_frames=4, embed_dim=5)).detections[3]
    assert [ev.kind for ev in tk.step(3, narrow)] == ["born"] * 3 and tk.memory.shape == (3, 5)
    with pytest.raises(DimMismatchError, match="^frame 4: detection 0 embedding has shape \\(8,\\), expected \\(5,\\)$"):
        tk.step(4, scene.detections[4])


# sha256 prefixes of tracks.jsonl and events.jsonl, the same before detections became blocks
PINNED = {
    "negative-zero-confidence": ("5903e0d8bfa2ba95", "b872681f41ea4e8e"),
    "scaled-past-the-float-range": ("4ede351f58806cda", "b872681f41ea4e8e"),
    "frames-past-2**64": ("adc646e5411a7ca9", "1be7907a81e493fe"),
    "category-ids-past-int64": ("556edc9f7a42c189", "7ce99126f9e6aab4"),
    "frames-that-tie-as-float64": ("6161b968ee6bdb0c", "bace4cf9bfe6eef8"),
}
A, B = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]


def _det(frame, x, conf, cat, emb):
    return {"frame": frame, "bbox": [x, 0.0, 5.0, 5.0], "conf": conf, "cat": cat, "cat_score": 0.5, "emb": emb}


EDGE_INPUTS = {
    "negative-zero-confidence": ([_det(0, 1.0, 0.9, 1, A), _det(1, 1.0, -0.0, 1, A)], [], ['"conf": -0.0']),
    "scaled-past-the-float-range": ([_det(0, 1.0, 1e308, 1, A), _det(1, 1.0, 0.5, 1, A)], ["--score-scale", "10"],
                                    ['"conf": 1.0']),
    "frames-past-2**64": ([_det(2 ** 70 + k, 1.0, 0.9, 1, A) for k in (0, 1, 3)] + [_det(2 ** 70 + 1, 9.0, 0.9, 2, B)],
                          [], [f'"frame": {2 ** 70 + 3}, ']),
    "category-ids-past-int64": ([_det(f, 1.0, 0.9, 2 ** 63, A) for f in (0, 1)]
                                + [_det(f, 9.0, 0.8, 2 ** 70, B) for f in (0, 1)] + [_det(2, 1.0, 0.2, 2 ** 63 + 1, A)],
                                [], [f'"cat": {2 ** 63}, ', f'"cat": {2 ** 70}, ']),
    # frame numbers past int64 beside a small one sort as float64, where 2**63 + 1 and + 2 tie
    "frames-that-tie-as-float64": ([_det(f, x, 0.9, c, e) for f in (1, 2 ** 63 + 1, 2 ** 63 + 2)
                                    for x, c, e in ((9.0 - f % 3, 1, A), (5.0, 2 ** 63, B))],
                                   [], [f'"frame": {2 ** 63 + 2}, "kind": "matched"']),
}


@pytest.mark.parametrize("case", list(EDGE_INPUTS))
def test_track_bytes_pinned_on_edge_columns(tmp_path, case):
    lines, flags, expected = EDGE_INPUTS[case]
    det = tmp_path / "d.jsonl"
    det.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["track", "--detections", str(det), *flags, "--out-dir", str(tmp_path / "out")]) == 0
    texts = [(tmp_path / "out" / name).read_bytes() for name in ("tracks.jsonl", "events.jsonl")]
    assert tuple(hashlib.sha256(t).hexdigest()[:16] for t in texts) == PINNED[case]
    assert all(s in b"".join(texts).decode() for s in expected)
