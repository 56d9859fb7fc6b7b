"""The bytes ``track --dump-csv`` writes, pinned on two inputs: a small clutter scene with its
vocabulary, and a detections file written here whose categories pass 2**63. A change to how
the tracker's run is kept, labelled or written must leave every byte of tracks.jsonl,
events.jsonl and scores.csv as it is."""

import hashlib
import json

import numpy as np
import pytest

from trajkit import cli

FILES = ("tracks.jsonl", "events.jsonl", "scores.csv")
BIG = 2 ** 63


def _digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


def _clutter_scene(root):
    argv = ["synth", "--identities", "8", "--frames", "20", "--categories", "3", "--dim", "16",
            "--fp-rate", "3", "--miss-rate", "0.05", "--flip-prob", "0.2", "--seed", "4", "--out-dir", root]
    assert cli.main([str(a) for a in argv]) == 0
    return ["--detections", root / "detections.jsonl", "--vocabulary", root / "vocabulary.json"]


def _big_categories(root):
    # three identities and clutter over 12 frames, confidences in every band of tau_high (0.3) and
    # tau_low (0.1), categories past int64 that the tracker votes over
    rng = np.random.default_rng(8)
    protos = rng.normal(size=(3, 6))
    lines = []
    for frame in range(12):
        for ident in range(3):
            if rng.random() < 0.15:
                continue
            conf = float(rng.choice([0.05, 0.2, 0.25, 0.9]))
            cat = [BIG + ident, BIG + 7, 4][int(rng.integers(3))]
            emb = protos[ident] + 0.1 * rng.normal(size=6)
            lines.append({"frame": frame, "bbox": [10.0 * ident, 5.0, 8.0, 8.0], "conf": conf, "cat": cat,
                          "cat_score": conf, "emb": emb.tolist()})
        lines.append({"frame": frame, "bbox": [50.0, 50.0, 4.0, 4.0], "conf": 0.35, "cat": BIG + 9,
                      "cat_score": 0.5, "emb": rng.normal(size=6).tolist()})
    path = root / "detections.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return ["--detections", path, "--n-cat-bank", 3]


# sha256 of tracks.jsonl, events.jsonl and scores.csv, taken before the tracker kept its run as
# a table and wrote its events and tracks from columns; events.jsonl's re-taken when score_matrix
# went detection-major, which moved score bits and no decision
PINNED = {
    "clutter": ("8438c91757331dcf42742282ca5870460e60d5457a5e4c21f5f0051c8ced9828",
                "b1a60b7d90a88165cb1da9912ee204e94e69495a0e36bac37d8c776320e96e41",
                "88d60080fc8f9acd8bc20ca36ebc15d7a331660ca239f62257ef627421aa3963"),
    "big-categories": ("8bd26da083c9ac18b384dd0312273a2ed9bf5ebff53e5832b83a86d0e6d5cb9d",
                       "1e83f0fd1e7ec1873f1053871dc2c7fc5f24a1fbf1e96e32ec3f54dd44a4bca4",
                       "34a109614302a6b070b5cb54a1881fe3aa9b45465a2c1e74b32848eacdaa82b9"),
}


@pytest.mark.parametrize("name, inputs", [("clutter", _clutter_scene), ("big-categories", _big_categories)])
def test_track_bytes_are_pinned(tmp_path, name, inputs):
    (tmp_path / "in").mkdir()
    argv = ["track", *inputs(tmp_path / "in"), "--dump-csv", "--out-dir", tmp_path / "out"]
    assert cli.main([str(a) for a in argv]) == 0
    assert _digests(tmp_path / "out") == dict(zip(FILES, PINNED[name]))


def test_track_builds_no_object_per_detection(tmp_path, monkeypatch):
    # the run goes from Tracker.step to both writers as columns: no event, entry or record
    # object, and no per-match category vote
    from trajkit import io, tracker
    calls = []
    for cls in (io.AssociationEvent, io.TrackEntry, io.TrackRecord):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _cls=cls, _init=cls.__init__, **kwargs:
                            calls.append(_cls.__name__) or _init(self, *args, **kwargs))
    monkeypatch.setattr(tracker, "retain_category", lambda *args: calls.append("retain_category"))
    (tmp_path / "in").mkdir()
    argv = ["track", *_clutter_scene(tmp_path / "in"), "--dump-csv", "--out-dir", tmp_path / "out"]
    assert cli.main([str(a) for a in argv]) == 0
    assert calls == []
    records = list(io.read_tracks(tmp_path / "out" / "tracks.jsonl"))  # the wrappers see records built
    assert len(records) > 8 and calls.count("TrackRecord") == len(records)
