"""Detections as per-frame column blocks (``io.DetectionFrame``).

``io.load_detections`` is held to a per-line ``json`` reference loader, the
tracker to its own run on the same frames given as lists of records, and the
``track`` command's bytes are pinned on inputs at the edges of the columns'
types: a -0.0 confidence, a scaled confidence past the float range, and frame
numbers and category ids past 64 bits.
"""

import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_io_columns import EXAMPLES, _chunk, _plain, boxes, embeddings
from trajkit import cli, io
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
    block = io.DetectionFrame.of(records)
    assert len(block) == 2 and block.frame == 7 and block.embedding.dtype == np.float32
    assert block.category_id.dtype == object and block[0].category_id == 2 ** 70
    assert _plain(list(block)) == _plain(records) == _plain([block[0], block[-1]])
    with pytest.raises(IndexError):
        block[2]
    with pytest.raises(TypeError):
        block[0] = records[0]
    assert len(io.DetectionFrame.of([])) == 0
    with pytest.raises(ValueError, match="frames \\[7, 8\\]"):
        io.DetectionFrame.of([records[0], replace(records[1], frame=8)])


def _state(tk):
    return (tk.last_scores.tobytes(), tk.last_scores.shape, tk.last_ids, tk.memory.tobytes(), tk.query.tobytes(),
            [tk.bank(t).tobytes() for t in tk.live], _plain([t.observations for t in tk.tracks]))


def test_a_block_and_its_records_track_alike(tmp_path):
    # a crowd-like scene, loaded: each frame stepped as its block and as a list of its records
    sigma = math.sqrt((1 / 0.87 ** 2 - 1) / 32)
    scene = gen_scene(SynthConfig(n_identities=30, n_frames=12, embed_dim=32, noise_sigma=sigma,
                                  miss_rate=0.05, fp_rate=2.0, seed=4))
    io.write_detections(scene.detections, tmp_path / "d.jsonl", sidecar=True)
    loaded = io.load_detections(tmp_path / "d.jsonl")
    by_block, by_list = Tracker(TrackerConfig()), Tracker(TrackerConfig())
    for frame, block in loaded.items():
        assert by_block.step(frame, block) == by_list.step(frame, list(block))
        assert _state(by_block) == _state(by_list)
    assert sum(len(t.observations) > 1 for t in by_block.tracks) >= 25


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
