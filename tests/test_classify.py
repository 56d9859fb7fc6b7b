"""Clip sampling, language matching and the three-way label decision."""

import math

import numpy as np
import pytest

from trajkit import classify, io
from trajkit.classify import (
    ClassifyConfig,
    affinity,
    classify_trajectory,
    project_language,
    record_embeddings,
    sample_clip,
    to_track_record,
)
from trajkit.errors import DimMismatchError, FormatError, MissingWeightsError
from trajkit.fusion import FUSION_MECHANISMS, init_fusion_weights
from trajkit.tracker import Tracker, TrackerConfig


def _det(emb, conf=0.9, cat=0, frame=0, bbox=None):
    bbox = bbox or (float(frame), 0.0, 1.0, 1.0)
    return io.DetectionRecord(frame, bbox, conf, cat, conf,
                              np.asarray(emb, dtype=np.float32))


def _trajectory(dets_by_frame, cfg=None):
    """The entries and embeddings of the one track the detections form."""
    tk = Tracker(cfg or TrackerConfig(tau_new=0.0, tau_match=0.1))
    for f in sorted(dets_by_frame):
        tk.step(f, dets_by_frame[f])
    assert len(tk.tracks) == 1
    return tk.tracks[0].observations, record_embeddings(to_track_record(tk.tracks[0]), dets_by_frame)


def _vocab(d, protos, names=None, splits=None):
    entries = []
    for k, p in enumerate(protos):
        p = np.asarray(p, dtype=np.float32)
        entries.append(io.VocabularyEntry(
            k, (names or {}).get(k, f"cat_{k}"),
            (splits or {}).get(k, "base"), f"object of kind {k}", p, p))
    return io.Vocabulary(entries, d)


def test_sample_clip_keeps_all_when_short():
    # each row is [1, frame], so the picked frames read off the rows
    dets = {f: [_det([1.0, float(f)], conf=0.5 + 0.1 * f, frame=f)] for f in range(3)}
    traj = _trajectory(dets)
    clip = sample_clip(*traj, n_clip=5)
    assert clip.dtype == np.float64
    assert clip.tolist() == [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]


def test_sample_clip_top_confidence_chronological():
    confs = {0: 0.2, 1: 0.9, 2: 0.5, 3: 0.95, 4: 0.1, 5: 0.8}
    dets = {f: [_det([1.0, float(f)], conf=c, frame=f)] for f, c in confs.items()}
    traj = _trajectory(dets)
    clip = sample_clip(*traj, n_clip=3)
    # picks frames 3, 1, 5 by confidence, then reorders chronologically
    assert clip.tolist() == [[1.0, 1.0], [1.0, 3.0], [1.0, 5.0]]


def test_sample_clip_confidence_tie_prefers_earlier_frame():
    dets = {f: [_det([1.0, float(f)], conf=0.7, frame=f)] for f in range(4)}
    traj = _trajectory(dets)
    clip = sample_clip(*traj, n_clip=2)
    assert clip.tolist() == [[1.0, 0.0], [1.0, 1.0]]


def test_project_language_identity_and_matrix():
    vocab = _vocab(3, [[1, 0, 0], [0, 2, 0]])
    f_cate, f_attr = project_language(vocab, np.eye(3))
    np.testing.assert_allclose(f_cate, [[1, 0, 0], [0, 2, 0]])
    proj = np.zeros((3, 2))
    proj[0, 0] = 1.0
    proj[1, 1] = 1.0
    f_cate2, _ = project_language(vocab, proj)
    assert f_cate2.shape == (2, 2)
    np.testing.assert_allclose(f_cate2, [[1, 0], [0, 2]])


def _oracle_cosine(a, b):
    num = sum(x * y for x, y in zip(a, b))
    return num / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(x * x for x in b)))


def test_affinity_is_rowwise_cosine():
    f = np.array([1.0, 1.0])
    rows = np.array([[2.0, 2.0], [1.0, 0.0], [-1.0, -1.0]])
    got = affinity(f, rows)
    np.testing.assert_allclose(got, [1.0, np.sqrt(0.5), -1.0], rtol=1e-12)
    # one matrix-vector product against the row-by-row cosine it replaced
    rng = np.random.default_rng(3)
    f, rows = rng.normal(size=64), rng.normal(size=(200, 64))
    np.testing.assert_allclose(affinity(f, rows),
                               [_oracle_cosine(f.tolist(), row) for row in rows.tolist()],
                               rtol=0, atol=1e-15)


def test_classify_requires_weights_for_nonaverage():
    vocab = _vocab(2, [[1, 0]])
    traj = _trajectory({0: [_det([1.0, 0.0])]})
    with pytest.raises(MissingWeightsError):
        classify_trajectory(*traj, vocab, None, ClassifyConfig(fusion="self"))


def test_classify_identity_projection_needs_matching_dims():
    vocab = _vocab(3, [[1, 0, 0]])  # text dim 3, embeddings dim 2
    traj = _trajectory({0: [_det([1.0, 0.0])]})
    with pytest.raises(DimMismatchError):
        classify_trajectory(*traj, vocab, None, ClassifyConfig())


def test_classify_picks_nearest_category():
    vocab = _vocab(2, [[1, 0], [0, 1]])
    traj = _trajectory({f: [_det([0.95, 0.05], cat=1, conf=0.2, frame=f)]
                              for f in range(4)})
    cls = classify_trajectory(*traj, vocab, None, ClassifyConfig())
    assert cls.cate_id == 0
    assert cls.cate_score == pytest.approx(np.cos(np.arctan2(0.05, 0.95)), rel=1e-6)


def test_classify_det_channel_majority():
    vocab = _vocab(2, [[1, 0], [0, 1]])
    dets = {f: [_det([1.0, 0.0], cat=1 if f < 2 else 0, conf=0.9, frame=f)]
            for f in range(5)}
    traj = _trajectory(dets)
    cls = classify_trajectory(*traj, vocab, None, ClassifyConfig())
    assert cls.det_id == 0
    assert cls.det_score == pytest.approx(3 / 5)


def test_classify_final_tie_order():
    # equal scores resolve det first, then cate, then attr
    vocab = _vocab(2, [[1, 0]])
    traj = _trajectory({f: [_det([1.0, 0.0], cat=0, conf=0.9, frame=f)]
                              for f in range(3)})
    cls = classify_trajectory(*traj, vocab, None, ClassifyConfig())
    # det proportion 1.0, cate cosine 1.0, attr cosine 1.0: det wins the tie
    assert cls.det_score == pytest.approx(1.0)
    assert cls.cate_score == pytest.approx(1.0)
    assert cls.final_source == "det"
    assert cls.final == 0


def test_classify_calibration_rescales_cosines():
    vocab = _vocab(2, [[-1, 0]])  # single entry, cosine with the clip is exactly -1
    traj = _trajectory({f: [_det([1.0, 0.0], cat=0, conf=0.01, frame=f)]
                              for f in range(3)})
    raw = classify_trajectory(*traj, vocab, None, ClassifyConfig())
    cal = classify_trajectory(*traj, vocab, None, ClassifyConfig(calibrate_scores=True))
    assert raw.cate_score == pytest.approx(-1.0)
    assert cal.cate_score == pytest.approx(0.0)  # (1 + cos) / 2
    # the det channel proportion is untouched by calibration
    assert cal.det_score == raw.det_score


def test_classify_concat_channel():
    rng = np.random.default_rng(0)
    d = 6
    vocab = _vocab(d, rng.normal(size=(3, d)))
    w = init_fusion_weights(d, seed=1, zero_residual=False)
    traj = _trajectory({f: [_det(rng.normal(size=d), cat=0, conf=0.9, frame=f)]
                              for f in range(4)})
    cls = classify_trajectory(*traj, vocab, w, ClassifyConfig(fusion="concat"))
    assert 0.0 < cls.cate_score < 1.0
    assert cls.cate_id in (0, 1, 2)
    assert cls.score_dict()["cate"] == cls.cate_score


def test_classify_all_fusions_run():
    rng = np.random.default_rng(2)
    d = 8
    vocab = _vocab(d, rng.normal(size=(2, d)))
    w = init_fusion_weights(d, seed=2, zero_residual=False)
    traj = _trajectory({f: [_det(rng.normal(size=d), cat=0, conf=0.8, frame=f)]
                              for f in range(6)})
    # every mechanism but concat fuses through _FUSE, so none can be left without a dispatch
    assert set(classify._FUSE) | {"concat"} == set(FUSION_MECHANISMS)
    for mech in FUSION_MECHANISMS:
        cls = classify_trajectory(*traj, vocab, w, ClassifyConfig(fusion=mech))
        assert cls.final in (0, 1)
        assert cls.final_source in ("det", "cate", "attr")


@pytest.mark.parametrize("mech, name", [
    (mech, "concat_score" if mech == "concat" else f"fuse_{mech}") for mech in FUSION_MECHANISMS])
def test_classify_calls_fusion_through_module_names(monkeypatch, mech, name):
    # per-layer tracing wraps these names in trajkit.classify; a dispatch that
    # bound the functions at import would bypass the wrapper
    calls = []
    inner = getattr(classify, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(classify, name, counted)
    rng = np.random.default_rng(4)
    d = 8
    vocab = _vocab(d, rng.normal(size=(2, d)))
    w = init_fusion_weights(d, seed=2, zero_residual=False)
    traj = _trajectory({f: [_det(rng.normal(size=d), frame=f)] for f in range(3)})
    classify_trajectory(*traj, vocab, w, ClassifyConfig(fusion=mech))
    assert calls == [name] * (2 if mech == "concat" else 1)


def test_track_record_roundtrip_via_join(tmp_path):
    rng = np.random.default_rng(3)
    d = 4
    dets_by_frame = {}
    for f in range(5):
        dets_by_frame[f] = [_det(rng.normal(size=d), conf=0.9, cat=1, frame=f,
                                 bbox=(float(f), float(j), 2.0, 2.0))
                            for j in range(2)]
    tk = Tracker(TrackerConfig(tau_new=0.0, tau_match=-1.0))
    for f in sorted(dets_by_frame):
        tk.step(f, dets_by_frame[f])
    records = [to_track_record(t) for t in tk.tracks]

    det_path = tmp_path / "d.jsonl"
    trk_path = tmp_path / "t.jsonl"
    io.write_detections(dets_by_frame, det_path, sidecar=True)
    io.write_tracks(records, trk_path)
    dets_back = io.load_detections(det_path)
    recs_back = io.read_tracks(trk_path)

    for rec, orig in zip(recs_back, tk.tracks):
        assert rec.track_id == orig.id
        assert [e.frame for e in rec.entries] == [o.frame for o in orig.observations]
        got = np.stack(record_embeddings(rec, dets_back))
        want = np.stack([dets_by_frame[o.frame][o.det_idx].embedding for o in orig.observations])
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_record_embeddings_missing_det():
    rec = io.TrackRecord(1, [io.TrackEntry(0, (0.0, 0.0, 1.0, 1.0), 0.5, 0, 3)])
    with pytest.raises(FormatError):
        record_embeddings(rec, {0: [_det([1.0, 0.0])]})


def test_config_validation():
    with pytest.raises(ValueError):
        ClassifyConfig(fusion="mystery")
    with pytest.raises(ValueError):
        ClassifyConfig(n_clip=0)
