"""Association math against hand-rolled oracles plus lifecycle behavior."""

import hashlib
import math

import numpy as np
import pytest

from trajkit import io
from trajkit.errors import DimMismatchError, ZeroNormError
from trajkit.tracker import (
    BORN,
    DIED,
    DISCARDED,
    MATCHED,
    Track,
    Tracker,
    TrackerConfig,
    TrackState,
    associate_frame,
    bisoftmax,
    cosine,
    majority_vote,
    retain_category,
    run_sequence,
    score_matrix,
    update_memory,
)


def _det(emb, conf=0.9, cat=0, frame=0, cat_score=None, bbox=(0.0, 0.0, 1.0, 1.0)):
    return io.DetectionRecord(frame, bbox, conf, cat,
                              conf if cat_score is None else cat_score,
                              np.asarray(emb, dtype=np.float32))


def _oracle_cosine(a, b):
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    return num / (na * nb)


def _oracle_softmax_rows(m):
    out = []
    for row in m:
        mx = max(row)
        ex = [math.exp(v - mx) for v in row]
        s = sum(ex)
        out.append([v / s for v in ex])
    return out


def test_cosine_frozen():
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.7071067811865475, rel=1e-12)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert cosine([2.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, rel=1e-12)


def test_cosine_zero_norm():
    with pytest.raises(ZeroNormError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_shape_mismatch():
    with pytest.raises(DimMismatchError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_update_memory_frozen():
    out = update_memory(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.25)
    np.testing.assert_allclose(out, [0.75, 0.25])


def test_update_memory_property():
    # convex combination: memory stays within the hull of the two inputs
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        mem = rng.normal(size=d)
        det = rng.normal(size=d)
        a = float(rng.uniform(0, 1))
        out = update_memory(mem, det, a)
        np.testing.assert_allclose(out, a * det + (1 - a) * mem, rtol=1e-12)


def test_bisoftmax_frozen():
    out = bisoftmax(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert out[0, 0] == pytest.approx(0.8807970779778823, rel=1e-12)
    assert out[0, 1] == pytest.approx(0.11920292202211755, rel=1e-12)
    np.testing.assert_allclose(out, out.T, rtol=1e-12)


def test_bisoftmax_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        t, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        temp = float(rng.uniform(0.3, 3.0))
        logits = rng.normal(size=(t, d))
        got = bisoftmax(logits, temp)
        scaled = (logits / temp).tolist()
        rows = _oracle_softmax_rows(scaled)
        cols_t = _oracle_softmax_rows(np.array(scaled).T.tolist())
        want = [[0.5 * (rows[i][j] + cols_t[j][i]) for j in range(d)] for i in range(t)]
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_bisoftmax_temperature_sharpens():
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    hot = bisoftmax(logits, 10.0)
    cold = bisoftmax(logits, 0.1)
    assert cold[0, 0] > hot[0, 0]
    with pytest.raises(ValueError):
        bisoftmax(logits, 0.0)


def _fresh_track(tid, emb, cfg, cat=0):
    tr = Track.start(tid, emb, cfg)
    tr.category_bank.append(cat)
    return tr


def test_score_matrix_oracle():
    # brute-force recomputation of the blended score, including the bank mean
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        cfg = TrackerConfig(alpha_sim=float(rng.uniform(0.1, 0.9)),
                            softmax_temperature=float(rng.uniform(0.5, 2.0)))
        tracks = []
        for t in range(int(rng.integers(1, 4))):
            tr = _fresh_track(t, rng.normal(size=d), cfg)
            for _ in range(int(rng.integers(0, 4))):
                tr.push_bank(rng.normal(size=d), cfg.n_bank)
            tracks.append(tr)
        dets = [_det(rng.normal(size=d)) for _ in range(int(rng.integers(1, 4)))]
        got = score_matrix(tracks, dets, cfg)

        r = np.zeros((len(tracks), len(dets)))
        for i, tr in enumerate(tracks):
            for j, det in enumerate(dets):
                c_mem = _oracle_cosine(tr.memory.tolist(), det.embedding.tolist())
                c_bank = sum(_oracle_cosine(list(b), det.embedding.tolist())
                             for b in tr.feature_bank) / len(tr.feature_bank)
                r[i, j] = cfg.alpha_sim * c_mem + (1 - cfg.alpha_sim) * c_bank
        want = 0.5 * (r + bisoftmax(r, cfg.softmax_temperature))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_score_matrix_cosine_only():
    cfg = TrackerConfig(sim_mode="cosine_only", alpha_sim=0.5)
    tr = _fresh_track(0, [1.0, 0.0], cfg)
    dets = [_det([1.0, 0.0]), _det([0.0, 1.0])]
    got = score_matrix([tr], dets, cfg)
    np.testing.assert_allclose(got, [[1.0, 0.0]], atol=1e-12)


def test_score_matrix_empty():
    cfg = TrackerConfig()
    assert score_matrix([], [_det([1.0, 0.0])], cfg).shape == (0, 1)
    assert score_matrix([_fresh_track(0, [1.0, 0.0], cfg)], [], cfg).shape == (1, 0)


def test_associate_greedy_trace():
    # higher-confidence detection claims the track first even at a lower score
    cfg = TrackerConfig(tau_match=0.4, tau_new=0.3)
    tr = _fresh_track(5, [1.0, 0.0], cfg)
    dets = [_det([1.0, 0.1], conf=0.5), _det([1.0, 0.3], conf=0.9)]
    scores = np.array([[0.9, 0.8]])
    events = associate_frame([tr], dets, scores, cfg, next_track_id=10)
    by_det = {e.det_idx: e for e in events}
    assert by_det[1].kind == MATCHED and by_det[1].track_id == 5
    assert by_det[1].score == pytest.approx(0.8)
    assert by_det[0].kind == BORN and by_det[0].track_id == 10


def test_associate_discard_low_confidence():
    cfg = TrackerConfig(tau_match=0.4, tau_new=0.3)
    events = associate_frame([], [_det([1.0, 0.0], conf=0.2)], np.zeros((0, 1)), cfg)
    assert events[0].kind == DISCARDED and events[0].track_id is None


def test_associate_argmax_tie_lowest_track():
    cfg = TrackerConfig(tau_match=0.1)
    t0 = _fresh_track(3, [1.0, 0.0], cfg)
    t1 = _fresh_track(4, [1.0, 0.0], cfg)
    scores = np.array([[0.7], [0.7]])
    events = associate_frame([t0, t1], [_det([1.0, 0.0])], scores, cfg)
    assert events[0].track_id == 3


def test_associate_confidence_tie_lower_index_first():
    cfg = TrackerConfig(tau_match=0.1, tau_new=0.0)
    tr = _fresh_track(0, [1.0, 0.0], cfg)
    dets = [_det([1.0, 0.0], conf=0.8), _det([1.0, 0.0], conf=0.8)]
    scores = np.array([[0.5, 0.9]])
    events = associate_frame([tr], dets, scores, cfg, next_track_id=1)
    by_det = {e.det_idx: e for e in events}
    assert by_det[0].kind == MATCHED  # index 0 visited first on equal confidence
    assert by_det[1].kind == BORN


def test_majority_vote_cases():
    assert majority_vote([2, 2, 1]) == (2, pytest.approx(2 / 3))
    assert majority_vote([7]) == (7, 1.0)
    # count tie resolves to the most recently seen id
    assert majority_vote([1, 2, 2, 1]) == (1, 0.5)
    assert majority_vote([2, 1, 1, 2]) == (2, 0.5)
    with pytest.raises(ValueError):
        majority_vote([])


def test_retain_category_gates():
    cfg = TrackerConfig(tau_high=0.3, tau_low=0.1)
    tr = _fresh_track(0, [1.0, 0.0], cfg, cat=4)
    tr.category_bank.extend([4, 4])  # bank now [4, 4, 4]

    assert retain_category(tr, _det([1.0, 0.0], conf=0.9, cat=8), cfg) == 8  # high: pass through
    # mid band: vote over bank + candidate; bank majority 4 wins
    assert retain_category(tr, _det([1.0, 0.0], conf=0.2, cat=9), cfg) == 4
    # low band: bank only, candidate ignored entirely
    assert retain_category(tr, _det([1.0, 0.0], conf=0.05, cat=9), cfg) == 4
    assert list(tr.category_bank)[-3:] == [8, 4, 4]


def test_retain_category_low_band_empty_bank():
    cfg = TrackerConfig()
    tr = _fresh_track(0, [1.0, 0.0], cfg)
    tr.category_bank.clear()
    assert retain_category(tr, _det([1.0, 0.0], conf=0.05, cat=6), cfg) == 6


def test_category_bank_truncates():
    cfg = TrackerConfig(n_cat_bank=3)
    tr = _fresh_track(0, [1.0, 0.0], cfg)
    tr.category_bank.clear()
    for cat in [1, 2, 3, 4, 5]:
        retain_category(tr, _det([1.0, 0.0], conf=0.9, cat=cat), cfg)
    assert list(tr.category_bank) == [3, 4, 5]


def test_tracker_lifecycle():
    cfg = TrackerConfig(max_age=2, tau_match=0.4, tau_new=0.0)
    tk = Tracker(cfg)
    e0 = tk.step(0, [_det([1.0, 0.0], frame=0)])
    assert [e.kind for e in e0] == [BORN]
    track = tk.tracks[0]
    assert track.id == 1 and track.state == TrackState.ACTIVE

    tk.step(1, [_det([1.0, 0.05], frame=1)])
    assert track.state == TrackState.ACTIVE
    assert len(track.observations) == 2

    tk.step(2, [])
    assert track.state == TrackState.LOST

    tk.step(3, [])  # still within max_age
    assert track.state == TrackState.LOST

    events = tk.step(4, [])  # age 3 > max_age=2
    assert track.state == TrackState.DEAD
    assert any(e.kind == DIED and e.track_id == 1 for e in events)

    # a matching detection now starts a fresh track instead of reviving the dead one
    tk.step(5, [_det([1.0, 0.0], frame=5)])
    assert [t.id for t in tk.tracks] == [1, 2]


def test_tracker_lost_track_can_rematch():
    cfg = TrackerConfig(max_age=10, tau_new=0.0)
    tk = Tracker(cfg)
    tk.step(0, [_det([1.0, 0.0], frame=0)])
    tk.step(1, [])
    assert tk.tracks[0].state == TrackState.LOST
    tk.step(2, [_det([1.0, 0.0], frame=2)])
    assert tk.tracks[0].state == TrackState.ACTIVE
    assert len(tk.tracks) == 1


def test_tracker_rejects_nonincreasing_frames():
    tk = Tracker(TrackerConfig())
    tk.step(3, [])
    with pytest.raises(ValueError):
        tk.step(3, [])


def test_memory_and_bank_update_on_match():
    cfg = TrackerConfig(alpha_mem=0.25, n_bank=2, tau_new=0.0, tau_match=0.1)
    tk = Tracker(cfg)
    tk.step(0, [_det([1.0, 0.0], frame=0)])
    tk.step(1, [_det([0.0, 1.0], frame=1)])
    track = tk.tracks[0]
    np.testing.assert_allclose(track.memory, [0.75, 0.25])
    np.testing.assert_allclose(track.memory_unit, np.array([0.75, 0.25]) / np.hypot(0.75, 0.25))
    assert len(track.feature_bank) == 2
    tk.step(2, [_det([0.5, 0.5], frame=2)])
    assert len(track.feature_bank) == 2  # capped at n_bank
    # the bank holds unit rows, oldest first: frame 1's [0, 1], then frame 2's [0.5, 0.5]
    np.testing.assert_allclose(track.feature_bank, [[0.0, 1.0], [0.5 ** 0.5, 0.5 ** 0.5]])


def test_stored_embeddings_not_renormalized():
    cfg = TrackerConfig(tau_new=0.0)
    tk = Tracker(cfg)
    tk.step(0, [_det([3.0, 0.0], frame=0)])
    track = tk.tracks[0]
    np.testing.assert_allclose(track.memory, [3.0, 0.0])
    np.testing.assert_allclose(track.embeddings[0], [3.0, 0.0])
    # only the bank keeps a normalized copy
    np.testing.assert_allclose(track.feature_bank, [[1.0, 0.0]])


def test_run_sequence_bridges_gap():
    # one object, a 3-frame hole, same appearance: one track end to end
    emb = [0.6, 0.8]
    dets = {f: [_det(emb, frame=f)] for f in [0, 1, 2, 6, 7]}
    tracks = run_sequence(dets, TrackerConfig(max_age=10))
    assert len(tracks) == 1
    assert [o.frame for o in tracks[0].observations] == [0, 1, 2, 6, 7]


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(alpha_mem=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(tau_low=0.5, tau_high=0.2)
    with pytest.raises(ValueError):
        TrackerConfig(sim_mode="other")
    with pytest.raises(ValueError):
        TrackerConfig(n_bank=0)
    assert TrackerConfig(tau_new=None).tau_new == TrackerConfig().tau_high


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_softmax_temperature_must_be_finite(value):
    # a NaN temperature used to pass the "<= 0" check and turn every
    # bi-softmax score into NaN, so no detection ever matched
    with pytest.raises(ValueError, match="softmax_temperature must be finite and positive"):
        TrackerConfig(softmax_temperature=value)
    with pytest.raises(ValueError, match="temperature must be finite and positive"):
        bisoftmax(np.eye(2), value)


def test_two_object_separation_property():
    # far-apart appearances never swap under moderate noise
    rng = np.random.default_rng(5)
    for trial in range(10):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        dets = {}
        for f in range(15):
            n1 = e1 + 0.05 * rng.normal(size=4)
            n2 = e2 + 0.05 * rng.normal(size=4)
            dets[f] = [_det(n1, frame=f, cat=0), _det(n2, frame=f, cat=1)]
        tracks = run_sequence(dets, TrackerConfig())
        assert len(tracks) == 2
        for tr in tracks:
            cats = {e.category_id for e in tr.observations}
            assert len(cats) == 1


def _replayed_scores(histories, dets, cfg):
    """Scores recomputed from each live track's observed embeddings alone."""
    r = np.zeros((len(histories), len(dets)))
    for i, embs in enumerate(histories):
        embs = [np.asarray(e, dtype=np.float64) for e in embs]
        memory = embs[0]
        for e in embs[1:]:
            memory = cfg.alpha_mem * e + (1 - cfg.alpha_mem) * memory
        bank = embs[-cfg.n_bank:]
        for j, det in enumerate(dets):
            c_mem = _oracle_cosine(memory.tolist(), det.embedding.tolist())
            c_bank = sum(_oracle_cosine(b.tolist(), det.embedding.tolist())
                         for b in bank) / len(bank)
            r[i, j] = cfg.alpha_sim * c_mem + (1 - cfg.alpha_sim) * c_bank
    if cfg.sim_mode == "cosine_only" or r.size == 0:
        return r
    return 0.5 * (r + bisoftmax(r, cfg.softmax_temperature))


@pytest.mark.parametrize("sim_mode", ["cosine_plus_bisoftmax", "cosine_only"])
def test_live_store_matches_replay_oracle(sim_mode):
    # misses and clutter with a 3-row bank and max_age=2: banks wrap and
    # tracks die every few frames
    from trajkit.synth import SynthConfig, gen_scene
    scene = gen_scene(SynthConfig(n_identities=10, n_frames=30, embed_dim=8, noise_sigma=0.17,
                                  miss_rate=0.25, fp_rate=1.5, seed=11))
    cfg = TrackerConfig(n_bank=3, max_age=2, sim_mode=sim_mode)
    tk = Tracker(cfg)
    dead, prev = set(), None
    for frame in sorted(scene.detections):
        dets = scene.detections[frame]
        live = []
        for tr in tk.tracks:
            last = tr.observations[-1].frame
            if tr.id not in dead and prev is not None and prev - last <= cfg.max_age:
                live.append(tr)
        histories = [tr.embeddings[:] for tr in live]
        events = tk.step(frame, dets)

        assert tk.last_ids == [tr.id for tr in live]
        np.testing.assert_allclose(tk.last_scores, _replayed_scores(histories, dets, cfg),
                                   rtol=0, atol=1e-12)
        assert not dead & set(tk.last_ids)
        for ev in events:
            assert ev.track_id not in dead
            if ev.kind == MATCHED:
                assert ev.track_id in tk.last_ids
            if ev.kind == DIED:
                dead.add(ev.track_id)
        for tr in tk.tracks:
            assert (tr.state == TrackState.DEAD) == (tr.id in dead)
            assert len(tr.feature_bank) == min(len(tr.observations), cfg.n_bank)
        prev = frame

    # the scene really exercised the store: deaths, wrapped banks, rematches after a gap
    assert len(dead) >= 5
    assert sum(len(tr.observations) > cfg.n_bank for tr in tk.tracks) >= 5
    assert any(b.frame - a.frame > 1 for tr in tk.tracks
               for a, b in zip(tr.observations, tr.observations[1:]))


def test_unit_row_bits_match_batch_normalization():
    # banks and memories are normalized one row at a time; scores stay
    # bit-identical only if that equals normalizing the stacked rows
    from trajkit.tracker import _normalize_rows, _unit_row
    rng = np.random.default_rng(12)
    for d in (1, 2, 7, 8, 9, 16, 33, 128, 300):
        rows = rng.normal(size=(6, d)) * rng.uniform(0.01, 100, size=(6, 1))
        batch = _normalize_rows(rows)
        for k in range(len(rows)):
            assert _unit_row(rows[k]).tobytes() == batch[k].tobytes()
    with pytest.raises(ZeroNormError):
        _unit_row(np.zeros(3))


def test_push_bank_fifo_and_cap():
    cfg = TrackerConfig(n_bank=5)
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(12, 4))
    tr = Track.start(0, rows[0], cfg)
    for k in range(1, len(rows)):
        tr.push_bank(rows[k], cfg.n_bank)
        want = rows[max(0, k + 1 - cfg.n_bank):k + 1]
        np.testing.assert_allclose(tr.feature_bank, want / np.linalg.norm(want, axis=1, keepdims=True))
        assert tr.feature_bank.flags.c_contiguous


def test_start_sets_bank_mean_to_first_unit_row():
    cfg = TrackerConfig()
    tr = Track.start(0, np.array([3.0, 4.0]), cfg)
    np.testing.assert_array_equal(tr.bank_mean, [0.6, 0.8])
    assert tr.bank_mean.tobytes() == tr.feature_bank[0].tobytes()


def test_bank_mean_is_recomputed_not_accumulated():
    # far past n_bank every insert evicts a row; a running sum that
    # subtracted evicted rows would drift from the kept rows' mean
    cfg = TrackerConfig(n_bank=7)
    rng = np.random.default_rng(14)
    tr = Track.start(0, rng.normal(size=16), cfg)
    for k in range(500):
        tr.push_bank(rng.normal(size=16) * rng.uniform(0.01, 100), cfg.n_bank)
        if k % 50 == 0 or k == 499:
            assert tr.bank_mean.tobytes() == tr.feature_bank.mean(axis=0).tobytes()
    assert len(tr.feature_bank) == cfg.n_bank


def test_default_decisions_pinned_on_a_crowded_scene():
    # 60 noisy identities with clutter at the default settings. The digest
    # covers what association decided, not the scores, so a change that may
    # only move score bits must leave it as it is.
    from trajkit.synth import SynthConfig, gen_scene
    scene = gen_scene(SynthConfig(n_identities=60, n_frames=15, embed_dim=32, noise_sigma=0.1,
                                  miss_rate=0.05, fp_rate=2.0, seed=21))
    tk = Tracker(TrackerConfig())
    decisions = []
    for frame in sorted(scene.detections):
        decisions += [(ev.frame, ev.kind, ev.track_id, ev.det_idx)
                      for ev in tk.step(frame, scene.detections[frame])]
    kinds = {kind for _, kind, _, _ in decisions}
    assert {MATCHED, BORN, DISCARDED} <= kinds and len(decisions) == 870
    digest = hashlib.sha256(repr(decisions).encode()).hexdigest()
    assert digest == "3f7a6f18f2d9ab51273b79f70281b34131dacb567c297641c76dddcc9addaf0d"
