"""Evaluator arithmetic against exhaustive-assignment oracles."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from trajkit import io, metrics
from trajkit.classify import to_track_record
from trajkit.io import GroundTruthTrack, TrackEntry, TrackRecord
from trajkit.metrics import EvalConfig, evaluate, frame_matching, iou, iou_matrix
from trajkit.synth import SynthConfig, gen_scene
from trajkit.tracker import run_sequence


def _rec(track_id, boxes, label=None, cat=0):
    entries = [TrackEntry(f, b, 0.9, cat, 0) for f, b in sorted(boxes.items())]
    return TrackRecord(track_id, entries, label=label,
                       label_source="det" if label is not None else None)


def _oracle_iou(b1, b2):
    x1, y1, w1, h1 = b1
    x2, y2, w2, h2 = b2
    ix = max(0.0, min(x1 + w1, x2 + w2) - max(x1, x2))
    iy = max(0.0, min(y1 + h1, y2 + h2) - max(y1, y2))
    inter = ix * iy
    union = w1 * h1 + w2 * h2 - inter
    return inter / union if union > 0 else 0.0


def _oracle_matching(pred_boxes, gt_boxes, thr):
    """Best matching by exhaustive search: max pairs, then max summed IoU."""
    n_p, n_g = len(pred_boxes), len(gt_boxes)
    best = []
    best_key = (-1, -1.0)
    indices = list(range(n_g))
    for r in range(min(n_p, n_g), -1, -1):
        for p_sub in itertools.combinations(range(n_p), r):
            for g_perm in itertools.permutations(indices, r):
                pairs = [(p, g) for p, g in zip(p_sub, g_perm)
                         if _oracle_iou(pred_boxes[p], gt_boxes[g]) >= thr]
                key = (len(pairs), sum(_oracle_iou(pred_boxes[p], gt_boxes[g])
                                       for p, g in pairs))
                if key > best_key:
                    best_key = key
                    best = pairs
    return sorted(best), best_key


def test_iou_frozen():
    assert iou((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3)
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
    assert iou((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0
    assert iou((0, 0, 1, 1), (1, 1, 1, 1)) == 0.0  # corner touch has zero area


def test_iou_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        b1 = (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.5, 5), rng.uniform(0.5, 5))
        b2 = (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.5, 5), rng.uniform(0.5, 5))
        assert iou(b1, b2) == pytest.approx(_oracle_iou(b1, b2), abs=1e-12)


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    a = [(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(1, 4), rng.uniform(1, 4))
         for _ in range(4)]
    b = [(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(1, 4), rng.uniform(1, 4))
         for _ in range(3)]
    m = iou_matrix(a, b)
    assert m.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert m[i, j] == pytest.approx(iou(a[i], b[j]), abs=1e-12)


def test_frame_matching_against_bruteforce():
    rng = np.random.default_rng(2)
    for trial in range(40):
        n_p = int(rng.integers(0, 5))
        n_g = int(rng.integers(0, 5))
        preds = [(rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(1, 4), rng.uniform(1, 4))
                 for _ in range(n_p)]
        gts = [(rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(1, 4), rng.uniform(1, 4))
               for _ in range(n_g)]
        got = sorted(frame_matching(preds, gts, 0.3))
        want, (w_count, w_sum) = _oracle_matching(preds, gts, 0.3)
        assert len(got) == w_count
        got_sum = sum(_oracle_iou(preds[p], gts[g]) for p, g in got)
        assert got_sum == pytest.approx(w_sum, abs=1e-9)


def _lsa_matching(preds, gts, thr):
    """The matching as the solver alone gives it, for every frame."""
    m = iou_matrix(preds, gts)
    if m.size == 0:
        return []
    rows, cols = linear_sum_assignment(np.where(m >= thr, 1.0 - m, metrics._INADMISSIBLE))
    return [(int(r), int(c)) for r, c in zip(rows, cols) if m[r, c] >= thr]


@pytest.fixture
def solves(monkeypatch):
    """The calls ``frame_matching`` makes of the solver."""
    calls = []
    monkeypatch.setattr(metrics, "linear_sum_assignment", lambda cost: calls.append(cost) or linear_sum_assignment(cost))
    return calls


def _boxes(rng, n, spread):
    return np.column_stack([rng.uniform(0, spread, (n, 2)), rng.uniform(1, 4, (n, 2))])


def test_a_one_to_one_frame_skips_the_solver_and_keeps_its_pairs(solves):
    rng = np.random.default_rng(3)
    fast = 0
    for trial in range(400):
        n_p, n_g = (int(n) for n in rng.integers(0, 7, 2))  # P > G, P < G and empty sides
        spread = (2.0, 8.0, 30.0)[trial % 3]  # crowded to sparse
        preds, gts = _boxes(rng, n_p, spread), _boxes(rng, n_g, spread)
        before = len(solves)
        got = frame_matching(preds, gts, 0.3)
        assert got == _lsa_matching(preds, gts, 0.3)
        assert all(type(v) is int for pair in got for v in pair)
        fast += n_p > 0 and n_g > 0 and len(solves) == before
    assert 50 < fast < 400 - 50  # both paths ran


@pytest.mark.parametrize("preds, gts, pairs, solved", [
    ([(0, 0, 2, 2)], [(0, 0, 2, 1)], [(0, 0)], False),  # IoU exactly 0.5 is admissible
    ([(0, 0, 2, 2), (0, 0, 2, 1)], [(0, 0, 2, 1)], [(1, 0)], True),  # 0.5 and 1.0 on one column
    ([(9, 9, 1, 1), (0, 0, 2, 1), (5, 0, 2, 2)], [(5, 0, 2, 2), (0, 0, 2, 2)], [(1, 1), (2, 0)], False),
    ([(0, 0, 2, 2)], [(0, 0, 2, 1), (0, 0, 2, 2)], [(0, 1)], True),  # P < G, two on one row
    ([(0, 0, 2, 2)], [(0, 0, 4, 1)], [], False),  # IoU 2/8: nothing admissible
])
def test_frame_matching_at_the_threshold(solves, preds, gts, pairs, solved):
    assert frame_matching(np.array(preds, float), np.array(gts, float), 0.5) == pairs == _lsa_matching(preds, gts, 0.5)
    assert bool(solves) == solved


def test_evaluate_reads_tables_as_it_reads_their_records(tmp_path, solves):
    # a cluttered crowd: false positives and crossing identities leave frames that are not
    # one-to-one (3 of 8 here), so the solver and the frames that skip it both count
    scene = gen_scene(SynthConfig(n_identities=60, n_frames=8, embed_dim=32, noise_sigma=0.1, fp_rate=3.0,
                                  miss_rate=0.05, n_categories=3, seed=1))
    records = [to_track_record(t) for t in run_sequence(scene.detections)]
    for i, rec in enumerate(records):
        rec.label, rec.label_source, rec.scores = i % 3, "det", {"det": 1.0}
    io.write_tracks(records, tmp_path / "tracks.jsonl")
    io.write_groundtruth(scene.gt_tracks, tmp_path / "gt.jsonl")
    preds, gts = io.read_tracks(tmp_path / "tracks.jsonl"), io.load_groundtruth(tmp_path / "gt.jsonl")
    cfg = EvalConfig(splits={0: "base", 1: "novel"})
    frames = len({f for g in scene.gt_tracks for f in g.boxes} | {e.frame for r in records for e in r.entries})
    want = evaluate(list(preds), list(gts), cfg).to_dict()
    assert 0 < len(solves) < frames
    assert evaluate(preds, gts, cfg).to_dict() == want == evaluate(records, scene.gt_tracks, cfg).to_dict()
    assert want["overall"]["tp"] > 0


def test_evaluate_perfect_tracking():
    boxes = {f: (float(f), 0.0, 2.0, 2.0) for f in range(5)}
    gt = [GroundTruthTrack(1, 3, dict(boxes))]
    pred = [_rec(10, boxes, label=3)]
    rep = evaluate(pred, gt, EvalConfig())
    assert rep.overall.loc_a == 100.0
    assert rep.overall.ass_a == 100.0
    assert rep.overall.cls_a == 100.0
    assert rep.overall.teta == 100.0
    assert rep.overall.tp == 5 and rep.overall.fp == 0 and rep.overall.fn == 0


def test_evaluate_id_swap_example():
    # two same-category objects; predictions swap identity halfway through
    gt = [GroundTruthTrack(1, 0, {f: (0.0, 0.0, 2.0, 2.0) for f in range(4)}),
          GroundTruthTrack(2, 0, {f: (10.0, 0.0, 2.0, 2.0) for f in range(4)})]
    pred = [
        _rec(101, {0: (0.0, 0.0, 2.0, 2.0), 1: (0.0, 0.0, 2.0, 2.0),
                   2: (10.0, 0.0, 2.0, 2.0), 3: (10.0, 0.0, 2.0, 2.0)}, label=0),
        _rec(102, {0: (10.0, 0.0, 2.0, 2.0), 1: (10.0, 0.0, 2.0, 2.0),
                   2: (0.0, 0.0, 2.0, 2.0), 3: (0.0, 0.0, 2.0, 2.0)}, label=0),
    ]
    rep = evaluate(pred, gt, EvalConfig())
    assert rep.overall.loc_a == pytest.approx(100.0)
    # each (pred, gt) pair overlaps on 2 of its union of 6 frame slots
    assert rep.overall.ass_a == pytest.approx(100.0 / 3.0)
    assert rep.overall.ass_a < 100.0
    assert rep.overall.cls_a == pytest.approx(100.0)


def test_evaluate_localization_errors_count():
    gt = [GroundTruthTrack(1, 0, {0: (0.0, 0.0, 2.0, 2.0), 1: (0.0, 0.0, 2.0, 2.0)})]
    pred = [_rec(9, {0: (0.0, 0.0, 2.0, 2.0), 1: (50.0, 50.0, 2.0, 2.0)}, label=0)]
    rep = evaluate(pred, gt, EvalConfig())
    # one hit, one miss on each side
    assert rep.overall.tp == 1 and rep.overall.fp == 1 and rep.overall.fn == 1
    assert rep.overall.loc_a == pytest.approx(100.0 / 3.0)


def test_evaluate_wrong_label():
    boxes = {f: (0.0, 0.0, 2.0, 2.0) for f in range(3)}
    gt = [GroundTruthTrack(1, 4, dict(boxes))]
    rep = evaluate([_rec(5, boxes, label=9)], gt, EvalConfig())
    assert rep.overall.cls_a == 0.0
    assert rep.overall.loc_a == 100.0
    rep_none = evaluate([_rec(5, boxes)], gt, EvalConfig())
    assert rep_none.overall.cls_a == 0.0  # unlabeled counts as wrong


def test_evaluate_empty_inputs():
    rep = evaluate([], [], EvalConfig())
    assert rep.overall.teta == 0.0
    assert rep.overall.tp == 0
    boxes = {0: (0.0, 0.0, 1.0, 1.0)}
    rep2 = evaluate([], [GroundTruthTrack(1, 0, boxes)], EvalConfig())
    assert rep2.overall.fn == 1 and rep2.overall.loc_a == 0.0
    rep3 = evaluate([_rec(1, boxes, label=0)], [], EvalConfig())
    assert rep3.overall.fp == 1 and rep3.overall.loc_a == 0.0


def test_evaluate_iou_threshold_gates_matches():
    gt = [GroundTruthTrack(1, 0, {0: (0.0, 0.0, 2.0, 2.0)})]
    pred = [_rec(2, {0: (1.0, 0.0, 2.0, 2.0)}, label=0)]  # IoU = 1/3
    loose = evaluate(pred, gt, EvalConfig(iou_threshold=0.3))
    strict = evaluate(pred, gt, EvalConfig(iou_threshold=0.5))
    assert loose.overall.tp == 1
    assert strict.overall.tp == 0 and strict.overall.fp == 1 and strict.overall.fn == 1


def test_evaluate_split_partition():
    boxes_a = {f: (0.0, 0.0, 2.0, 2.0) for f in range(4)}
    boxes_b = {f: (10.0, 0.0, 2.0, 2.0) for f in range(4)}
    gt = [GroundTruthTrack(1, 0, boxes_a), GroundTruthTrack(2, 1, boxes_b)]
    preds = [_rec(11, boxes_a, label=0, cat=0), _rec(12, boxes_b, label=5, cat=1)]
    cfg = EvalConfig(splits={0: "base", 1: "novel"})
    rep = evaluate(preds, gt, cfg)
    assert rep.base.tp == 4 and rep.novel.tp == 4
    assert rep.base.cls_a == 100.0
    assert rep.novel.cls_a == 0.0  # wrong label lands in the novel split only
    assert rep.overall.cls_a == pytest.approx(50.0)


def test_evaluate_split_scores_never_exceed_overall_possible():
    # a track with no true positives in a split cannot inflate that split
    gt = [GroundTruthTrack(1, 0, {0: (0.0, 0.0, 2.0, 2.0)})]
    preds = [_rec(1, {0: (0.0, 0.0, 2.0, 2.0)}, label=0, cat=0),
             _rec(2, {0: (50.0, 50.0, 2.0, 2.0)}, label=1, cat=1)]  # pure FP track
    cfg = EvalConfig(splits={0: "base", 1: "novel"})
    rep = evaluate(preds, gt, cfg)
    assert rep.novel.tp == 0
    assert rep.novel.teta == 0.0
    assert rep.base.tp == 1


def test_report_serialization():
    boxes = {0: (0.0, 0.0, 1.0, 1.0)}
    rep = evaluate([_rec(1, boxes, label=0)], [GroundTruthTrack(1, 0, boxes)],
                   EvalConfig(splits={0: "base"}))
    d = rep.to_dict()
    assert set(d) == {"overall", "base", "novel"}
    assert d["overall"]["teta"] == pytest.approx(100.0)
    table = rep.format_table()
    assert "overall" in table and "TETA" in table


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=0.0)
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=1.5)
