"""Association math against hand-rolled oracles plus lifecycle behavior."""

import hashlib
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from scipy.special import softmax

from trajkit import io
from trajkit.errors import DimMismatchError, NonFiniteError, ZeroNormError
from trajkit.tracker import (
    BORN,
    DIED,
    DISCARDED,
    MATCHED,
    SIM_MODES,
    AssociationEvent,
    Track,
    Tracker,
    TrackerConfig,
    TrackState,
    associate_frame,
    bisoftmax,
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


def _unit_row(x):
    # The sum of squares that np.linalg.norm reduces, so the bits match the
    # same row normalized as one row of a stack.
    norm = np.sqrt(np.add.reduce(x * x))
    if norm == 0.0:
        raise ZeroNormError("cannot normalize zero-norm embedding")
    return x / norm


class _OracleTrack:
    """A track's memory and bank, folded in one match at a time."""

    def __init__(self, track_id, embedding):
        emb = np.asarray(embedding, dtype=np.float64)
        unit = _unit_row(emb)
        self.id, self.state, self.last = track_id, TrackState.ACTIVE, None
        self.memory, self.memory_unit = emb.copy(), unit
        self.feature_bank, self.bank_mean = unit[None, :], unit

    def absorb(self, embedding, cfg):
        self.memory = update_memory(self.memory, embedding, cfg.alpha_mem)
        self.memory_unit = _unit_row(self.memory)
        self.push_bank(embedding, cfg.n_bank)

    def push_bank(self, embedding, n_bank):
        unit = _unit_row(np.asarray(embedding, dtype=np.float64))
        keep = self.feature_bank[max(len(self.feature_bank) - n_bank + 1, 0):]
        self.feature_bank = np.concatenate([keep, unit[None, :]])
        self.bank_mean = np.add.reduce(self.feature_bank) / len(self.feature_bank)


def _oracle_query(tracks, cfg):
    """Query rows built from a list of tracks, one frame at a time."""
    return (cfg.alpha_sim * np.array([t.memory_unit for t in tracks])
            + (1.0 - cfg.alpha_sim) * np.array([t.bank_mean for t in tracks]))


def _unit_dets(dets):
    x = np.stack([d.embedding for d in dets]).astype(np.float64)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _oracle_scores(tracks, dets, cfg):
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets)))
    r = _oracle_query(tracks, cfg) @ _unit_dets(dets).T
    if cfg.sim_mode == "cosine_only":
        return r
    logits = r / cfg.softmax_temperature
    return 0.5 * (r + 0.5 * (softmax(logits, axis=1) + softmax(logits, axis=0)))


def _oracle_associate(tracks, dets, scores, cfg, next_track_id=0):
    """The greedy one detection at a time: each takes its best open track."""
    events = []
    # One row per detection; a matched track's column is masked with -inf,
    # which tau_match (finite) never accepts.
    open_scores = np.asarray(scores, dtype=np.float64).T.copy()
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    for i in order:
        det = dets[i]
        row = open_scores[i]
        k = int(np.argmax(row)) if len(row) else -1  # ties resolve to the lowest track index
        if k >= 0 and row[k] >= cfg.tau_match:
            events.append(AssociationEvent(det.frame, MATCHED, tracks[k].id, i, float(row[k])))
            open_scores[:, k] = -np.inf
        elif det.confidence >= cfg.tau_new:
            events.append(AssociationEvent(det.frame, BORN, next_track_id, i))
            next_track_id += 1
        else:
            events.append(AssociationEvent(det.frame, DISCARDED, None, i))
    return events


def _per_match_oracle(frames, cfg):
    """Per frame: (scores, scored ids, events, live tracks, every track) of a
    tracker that folds each match into its track on its own."""
    tracks, live, next_id = [], [], 1
    for frame, dets in frames:
        scores = _oracle_scores(live, dets, cfg)
        events = _oracle_associate(live, dets, scores, cfg, next_track_id=next_id)
        ids = [t.id for t in live]
        born = []
        for ev in events:
            emb = dets[ev.det_idx].embedding
            if ev.kind == MATCHED:
                track = live[bisect_left(ids, ev.track_id)]
                track.absorb(emb, cfg)
            elif ev.kind == BORN:
                track = _OracleTrack(ev.track_id, emb)
                tracks.append(track)
                born.append(track)
                next_id = track.id + 1
            else:
                continue
            track.state, track.last = TrackState.ACTIVE, frame
        survivors = []
        for track in live:
            if track.last != frame:
                track.state = TrackState.LOST
                if frame - track.last > cfg.max_age:
                    track.state = TrackState.DEAD
                    events.append(AssociationEvent(frame, DIED, track.id))
                    continue
            survivors.append(track)
        live = survivors + born
        yield scores, ids, events, live, tracks


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


def _fresh_track(tid, emb, cats=(0,)):
    """A track whose entries retained ``cats``, oldest first."""
    entries = [io.TrackEntry(f, (0.0, 0.0, 1.0, 1.0), 0.9, cat, 0) for f, cat in enumerate(cats)]
    return Track(tid, entries)


def test_score_matrix_oracle():
    # brute-force recomputation of the blended score, including the bank mean
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        cfg = TrackerConfig(alpha_sim=float(rng.uniform(0.1, 0.9)),
                            softmax_temperature=float(rng.uniform(0.5, 2.0)))
        tracks = []
        for t in range(int(rng.integers(1, 4))):
            tr = _OracleTrack(t, rng.normal(size=d))
            for _ in range(int(rng.integers(0, 4))):
                tr.push_bank(rng.normal(size=d), cfg.n_bank)
            tracks.append(tr)
        dets = [_det(rng.normal(size=d)) for _ in range(int(rng.integers(1, 4)))]
        got = score_matrix(_oracle_query(tracks, cfg), _unit_dets(dets), cfg)

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
    query = _oracle_query([_OracleTrack(0, [1.0, 0.0])], cfg)
    dets = [_det([1.0, 0.0]), _det([0.0, 1.0])]
    got = score_matrix(query, _unit_dets(dets), cfg)
    np.testing.assert_allclose(got, [[1.0, 0.0]], atol=1e-12)


def test_score_matrix_empty():
    cfg = TrackerConfig()
    assert score_matrix(np.zeros((0, 2)), _unit_dets([_det([1.0, 0.0])]), cfg).shape == (0, 1)
    assert score_matrix(np.array([[1.0, 0.0]]), np.zeros((0, 2)), cfg).shape == (1, 0)


def test_associate_greedy_trace():
    # higher-confidence detection claims the track first even at a lower score
    cfg = TrackerConfig(tau_match=0.4, tau_new=0.3)
    tr = _fresh_track(5, [1.0, 0.0])
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
    t0 = _fresh_track(3, [1.0, 0.0])
    t1 = _fresh_track(4, [1.0, 0.0])
    scores = np.array([[0.7], [0.7]])
    events = associate_frame([t0, t1], [_det([1.0, 0.0])], scores, cfg)
    assert events[0].track_id == 3


def test_associate_confidence_tie_lower_index_first():
    cfg = TrackerConfig(tau_match=0.1, tau_new=0.0)
    tr = _fresh_track(0, [1.0, 0.0])
    dets = [_det([1.0, 0.0], conf=0.8), _det([1.0, 0.0], conf=0.8)]
    scores = np.array([[0.5, 0.9]])
    events = associate_frame([tr], dets, scores, cfg, next_track_id=1)
    by_det = {e.det_idx: e for e in events}
    assert by_det[0].kind == MATCHED  # index 0 visited first on equal confidence
    assert by_det[1].kind == BORN


def _random_association(rng, n_tracks, n_dets):
    """Tracks, detections and a score matrix with ties in score and confidence, -inf and
    NaN entries, -inf columns and rows entirely below tau_match (0.4)."""
    tracks = [Track(int(t)) for t in np.sort(rng.choice(10 * n_tracks + 1, n_tracks, replace=False))]
    confs = rng.choice([0.05, 0.2, 0.3, 0.3, 0.7, 0.9, 0.9, float(rng.uniform())], n_dets)
    dets = [_det([1.0], conf=float(c), frame=3) for c in confs]
    scores = rng.choice([0.1, 0.39, 0.4, 0.4, 0.6, 0.8, 0.8, float(rng.uniform())], (n_tracks, n_dets))
    scores[rng.random(scores.shape) < 0.05] = -np.inf
    scores[rng.random(scores.shape) < 0.02] = np.nan
    scores[:, rng.random(n_dets) < 0.1] = -np.inf
    scores[rng.random(n_tracks) < 0.2] = rng.uniform(-1.0, 0.39, n_dets)
    return tracks, dets, scores


def test_batched_greedy_matches_the_loop_event_for_event():
    cfg = TrackerConfig(tau_match=0.4, tau_new=0.3)
    rng = np.random.default_rng(31)
    shapes = [(t, d) for t in (0, 1, 2) for d in (0, 1, 2, 7)] + [(7, 1), (1, 7)]
    shapes += [tuple(rng.integers(0, 40, 2)) for _ in range(600)]
    for n_tracks, n_dets in shapes:
        tracks, dets, scores = _random_association(rng, int(n_tracks), int(n_dets))
        want = _oracle_associate(tracks, dets, scores, cfg, next_track_id=500)
        assert associate_frame(tracks, dets, scores, cfg, next_track_id=500) == want


def test_batched_greedy_falls_back_to_the_loop(monkeypatch):
    # every detection ranks the tracks alike, so each round decides one detection:
    # more rounds than the cap, and the loop decides the rest
    import trajkit.tracker as tracker_module
    calls = []
    loop = tracker_module._greedy_loop
    monkeypatch.setattr(tracker_module, "_greedy_loop", lambda *args: calls.append(1) or loop(*args))
    cfg = TrackerConfig(tau_match=0.4, tau_new=0.3)
    n = 3 * tracker_module._GREEDY_ROUNDS
    tracks = [Track(t) for t in range(n)]
    dets = [_det([1.0], conf=0.9 - 0.01 * i) for i in range(n + 2)]
    scores = np.repeat(np.linspace(0.9, 0.41, n)[:, None], n + 2, axis=1)
    events = associate_frame(tracks, dets, scores, cfg, next_track_id=n)
    assert calls == [1]
    assert events == _oracle_associate(tracks, dets, scores, cfg, next_track_id=n)
    assert [ev.track_id for ev in events] == list(range(n + 2))


def test_batched_greedy_on_a_crowded_frame():
    # the second frame of a 1,000-identity scene, scored by a tracker that saw the first
    from trajkit.synth import SynthConfig, gen_scene
    d = 128
    sigma = math.sqrt((1 / 0.87 ** 2 - 1) / d)
    scene = gen_scene(SynthConfig(n_identities=1000, n_frames=2, embed_dim=d, noise_sigma=sigma,
                                  miss_rate=0.05, fp_rate=2.0, seed=1))
    tk = Tracker(TrackerConfig())
    tk.step(0, scene.detections[0])
    dets = scene.detections[1]
    scores = score_matrix(tk.query, _unit_dets(dets), tk.cfg)
    want = _oracle_associate(tk.live, dets, scores, tk.cfg, next_track_id=tk.tracks[-1].id + 1)
    assert len(tk.live) > 900 and sum(ev.kind == MATCHED for ev in want) > 900
    assert tk.step(1, dets) == want


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
    tr = _fresh_track(0, [1.0, 0.0], cats=[4, 4, 4])  # bank [4, 4, 4]

    assert retain_category(tr, 0.9, 8, cfg) == 8  # high: pass through
    # mid band: vote over bank + candidate; bank majority 4 wins
    assert retain_category(tr, 0.2, 9, cfg) == 4
    # low band: bank only, candidate ignored entirely
    assert retain_category(tr, 0.05, 9, cfg) == 4
    # the bank is the track's entries: deciding a category adds none
    assert [e.category_id for e in tr.observations] == [4, 4, 4]


def test_retain_category_low_band_empty_bank():
    cfg = TrackerConfig()
    tr = _fresh_track(0, [1.0, 0.0], cats=[])
    assert retain_category(tr, 0.05, 6, cfg) == 6


def test_category_bank_truncates():
    # only the last n_cat_bank entries vote: 7 has most entries but 3, 4 and 5
    # tie within the bank, and a tie goes to the most recent
    cfg = TrackerConfig(n_cat_bank=3)
    tr = _fresh_track(0, [1.0, 0.0], cats=[7, 7, 7, 3, 4, 5])
    assert retain_category(tr, 0.05, 9, cfg) == 5
    assert retain_category(tr, 0.2, 9, cfg) == 9


def test_tracker_lifecycle():
    cfg = TrackerConfig(max_age=2, tau_match=0.4, tau_new=0.0)
    tk = Tracker(cfg)
    e0 = tk.step(0, [_det([1.0, 0.0], frame=0)])
    assert [e.kind for e in e0] == [BORN]
    track = tk.tracks[0]
    assert track.id == 1 and tk.state(track) == TrackState.ACTIVE

    tk.step(1, [_det([1.0, 0.05], frame=1)])
    assert tk.state(track) == TrackState.ACTIVE
    assert len(track.observations) == 2

    tk.step(2, [])
    assert tk.state(track) == TrackState.LOST

    tk.step(3, [])  # still within max_age
    assert tk.state(track) == TrackState.LOST

    events = tk.step(4, [])  # age 3 > max_age=2
    assert tk.state(track) == TrackState.DEAD
    assert any(e.kind == DIED and e.track_id == 1 for e in events)

    # a matching detection now starts a fresh track instead of reviving the dead one
    tk.step(5, [_det([1.0, 0.0], frame=5)])
    assert [t.id for t in tk.tracks] == [1, 2]


def test_tracker_lost_track_can_rematch():
    cfg = TrackerConfig(max_age=10, tau_new=0.0)
    tk = Tracker(cfg)
    tk.step(0, [_det([1.0, 0.0], frame=0)])
    tk.step(1, [])
    assert tk.state(tk.tracks[0]) == TrackState.LOST
    tk.step(2, [_det([1.0, 0.0], frame=2)])
    assert tk.state(tk.tracks[0]) == TrackState.ACTIVE
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
    np.testing.assert_allclose(tk.memory[0], [0.75, 0.25])
    # the query row blends the unit memory with the mean of the bank's unit rows
    memory_unit = np.array([0.75, 0.25]) / np.hypot(0.75, 0.25)
    np.testing.assert_allclose(tk.query[0], cfg.alpha_sim * memory_unit
                               + (1 - cfg.alpha_sim) * tk.bank(track).mean(axis=0))
    assert len(tk.bank(track)) == 2
    tk.step(2, [_det([0.5, 0.5], frame=2)])
    assert len(tk.bank(track)) == 2  # capped at n_bank
    # the bank holds unit rows, oldest first: frame 1's [0, 1], then frame 2's [0.5, 0.5]
    np.testing.assert_allclose(tk.bank(track), [[0.0, 1.0], [0.5 ** 0.5, 0.5 ** 0.5]])


def test_stored_embeddings_not_renormalized():
    cfg = TrackerConfig(tau_new=0.0)
    tk = Tracker(cfg)
    dets = [_det([3.0, 0.0], frame=0)]
    tk.step(0, dets)
    track = tk.tracks[0]
    np.testing.assert_allclose(tk.memory[0], [3.0, 0.0])
    np.testing.assert_allclose(dets[track.observations[0].det_idx].embedding, [3.0, 0.0])
    # only the bank keeps a normalized copy
    np.testing.assert_allclose(tk.bank(track), [[1.0, 0.0]])


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


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e-320])
def test_softmax_temperature_must_be_finite(value):
    # a NaN temperature used to pass the "<= 0" check and turn every
    # bi-softmax score into NaN, so no detection ever matched; a subnormal
    # one passes it too, but a cosine divided by it overflows to inf
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
        histories = [[scene.detections[e.frame][e.det_idx].embedding for e in tr.observations]
                     for tr in live]
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
            assert (tk.state(tr) == TrackState.DEAD) == (tr.id in dead)
        for tr in tk.live:
            assert len(tk.bank(tr)) == min(len(tr.observations), cfg.n_bank)
        prev = frame

    # the scene really exercised the store: deaths, wrapped banks, rematches after a gap
    assert len(dead) >= 5
    assert sum(len(tr.observations) > cfg.n_bank for tr in tk.tracks) >= 5
    assert any(b.frame - a.frame > 1 for tr in tk.tracks
               for a, b in zip(tr.observations, tr.observations[1:]))


def _one_track_tracker(cfg, rows):
    """A tracker fed one detection per frame, each matched to the one track."""
    tk = Tracker(cfg)
    for frame, row in enumerate(rows):
        tk.step(frame, [_det(row, frame=frame)])
        assert [t.id for t in tk.live] == [1]
        yield tk


def test_bank_fifo_and_cap():
    cfg = TrackerConfig(n_bank=5, tau_match=-1.0)
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(12, 4)).astype(np.float32)
    for k, tk in enumerate(_one_track_tracker(cfg, rows)):
        tr = tk.live[0]
        want = rows[max(0, k + 1 - cfg.n_bank):k + 1].astype(np.float64)
        np.testing.assert_allclose(tk.bank(tr), want / np.linalg.norm(want, axis=1, keepdims=True))
        assert tk.bank(tr).flags.c_contiguous


def test_birth_sets_bank_to_first_unit_row():
    cfg = TrackerConfig()
    tk = Tracker(cfg)
    tk.step(0, [_det([3.0, 4.0])])
    tr = tk.live[0]
    np.testing.assert_array_equal(tk.bank(tr), [[0.6, 0.8]])
    # memory_unit and bank_mean are both the first unit row
    unit = tk.bank(tr)[0]
    assert tk.query[0].tobytes() == (cfg.alpha_sim * unit + (1 - cfg.alpha_sim) * unit).tobytes()


def test_bank_mean_is_recomputed_not_accumulated():
    # far past n_bank every insert evicts a row; a running sum that
    # subtracted evicted rows would drift from the kept rows' mean
    cfg = TrackerConfig(n_bank=7, tau_match=-1.0)
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(501, 16)) * rng.uniform(0.01, 100, size=(501, 1))
    for k, tk in enumerate(_one_track_tracker(cfg, rows)):
        if k % 50 == 1 or k == 500:
            tr = tk.live[0]
            memory_unit = tk.memory[0] / np.linalg.norm(tk.memory[:1], axis=1)
            want = cfg.alpha_sim * memory_unit + (1 - cfg.alpha_sim) * tk.bank(tr).mean(axis=0)
            assert tk.query[0].tobytes() == want.tobytes()
    assert len(tk.bank(tr)) == cfg.n_bank


def _random_scene(rng, d, n_identities=8, n_frames=24):
    """(frame, detections) pairs: noisy identities with misses, clutter and
    skipped frame numbers, so tracks go lost, come back and die."""
    protos = rng.normal(size=(n_identities, d))
    frames, frame = [], 0
    for _ in range(n_frames):
        frame += int(rng.choice([1, 1, 1, 2, 4]))
        embs = [p + 0.3 * rng.normal(size=d) for p in protos if rng.random() > 0.3]
        embs += list(rng.normal(size=(rng.poisson(1.0), d)))
        frames.append((frame, [_det(e, conf=float(rng.uniform(0.05, 1.0)), frame=frame,
                                    cat=int(rng.integers(3))) for e in embs]))
    return frames


def _random_config(rng, k):
    """Configs whose edges (n_bank 1 and 20, alphas 0 and 1) come round in turn."""
    return TrackerConfig(n_bank=(1, 20, 3, int(rng.integers(1, 21)))[k % 4],
                         alpha_mem=(0.0, 1.0, float(rng.uniform()))[k % 3],
                         alpha_sim=(1.0, float(rng.uniform()), 0.0)[k // 3 % 3],
                         tau_match=float(rng.uniform(0.2, 0.6)),
                         max_age=int(rng.integers(0, 4)),
                         sim_mode=SIM_MODES[(k + k // 4) % 2],
                         softmax_temperature=float(rng.choice([0.05, 1.0])))


def test_batched_update_matches_per_match_oracle_bit_for_bit():
    rng = np.random.default_rng(16)
    deaths = wrapped = rematched = 0
    for k in range(16):
        cfg = _random_config(rng, k)
        frames = _random_scene(rng, d=(1, 8, 9, 128)[k // 4])
        tk = Tracker(cfg)
        for (frame, dets), (scores, ids, events, live, tracks) in zip(
                frames, _per_match_oracle(frames, cfg)):
            got = tk.step(frame, dets)
            assert tk.last_scores.shape == scores.shape
            assert tk.last_scores.tobytes() == scores.tobytes()
            assert tk.last_ids == ids
            assert got == events
            assert [t.id for t in tk.live] == [t.id for t in live]
            assert len(tk.memory) == len(tk.query) == len(live)
            for row, want in enumerate(live):
                assert tk.bank(tk.live[row]).tobytes() == want.feature_bank.tobytes()
                assert tk.memory[row].tobytes() == want.memory.tobytes()
                assert tk.query[row].tobytes() == _oracle_query([want], cfg)[0].tobytes()
            assert [tk.state(t) for t in tk.tracks] == [t.state for t in tracks]
            deaths += sum(ev.kind == DIED for ev in got)
        wrapped += sum(len(t.observations) > cfg.n_bank for t in tk.tracks)
        rematched += sum(b.frame - a.frame > 1 for t in tk.tracks
                         for a, b in zip(t.observations, t.observations[1:]))
    # the scenes exercised deaths, wrapped banks and rematches after a gap
    assert deaths >= 20 and wrapped >= 20 and rematched >= 20


# A refused frame given as a list of records or as one block, which holds one width only.
AS_LIST, AS_BLOCK = list, io.DetectionFrame.of


@pytest.mark.parametrize("frames, where, kind", [
    ([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]], "frame 1: detection 0", AS_LIST),  # width changes, a track lives
    ([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]], "frame 1: detection 0", AS_BLOCK),
    ([[[1.0, 0.0]], [], [[1.0, 0.0, 0.0]]], "frame 2: detection 0", AS_LIST),  # width changes, none lives
    ([[[1.0, 0.0]], [], [[1.0, 0.0, 0.0]]], "frame 2: detection 0", AS_BLOCK),
    ([[[1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0, 0.0]]], "frame 1: detection 1", AS_LIST),  # mixed, a track lives
    ([[[1.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 0.0]]], "frame 1: detection 0", AS_LIST),  # the first row differs
    ([[[1.0, 0.0], [1.0, 0.0, 0.0]]], "frame 0: detection 1", AS_LIST),  # mixed in the first frame
], ids=["change-live", "change-live-block", "change-none-live", "change-none-live-block", "mixed-live",
        "mixed-first-row-live", "mixed-first-frame"])
def test_embedding_width_mismatch_names_frame_and_detection(frames, where, kind):
    tk = Tracker(TrackerConfig(max_age=0))
    for frame, embs in enumerate(frames[:-1]):
        tk.step(frame, [_det(e, frame=frame) for e in embs])
    with pytest.raises(DimMismatchError, match=f"^{where} embedding has shape \\(3,\\), expected \\(2,\\)$"):
        tk.step(len(frames) - 1, kind([_det(e, frame=len(frames) - 1) for e in frames[-1]]))


def _two_identities(frame):
    return [_det([1.0, 0.0, 0.0], frame=frame), _det([0.0, 1.0, 0.0], frame=frame)]


@pytest.mark.parametrize("embs, confs, where", [
    ([[math.inf, 0.0, 0.0]], [0.9], "detection 0 has a non-finite embedding"),
    ([[0.0, 0.0, 1.0], [math.nan, 0.0, 0.0]], [0.9, 0.9], "detection 1 has a non-finite embedding"),
    ([[0.0, 0.0, 1.0]], [math.nan], "detection 0 has a non-finite confidence"),
    ([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], [0.9, math.inf], "detection 1 has a non-finite confidence"),
], ids=["inf-embedding", "nan-embedding", "nan-confidence", "inf-confidence"])
@pytest.mark.parametrize("kind", [AS_LIST, AS_BLOCK], ids=["list", "block"])
def test_non_finite_detection_is_refused_and_changes_nothing(embs, confs, where, kind):
    # an [inf, 0, 0] row scores NaN, and the bi-softmax's normalizations spread the NaN over
    # every track: unrefused, frame 4's two identities are born as tracks 4 and 5
    tk = Tracker(TrackerConfig())
    for frame in range(3):
        tk.step(frame, _two_identities(frame))
    before = tk.memory.tobytes(), tk.query.tobytes(), tk.last_scores.tobytes()
    with pytest.raises(NonFiniteError, match=f"^frame 3: {where}$"):
        tk.step(3, kind([_det(e, conf=c, frame=3) for e, c in zip(embs, confs)]))
    assert (tk.memory.tobytes(), tk.query.tobytes(), tk.last_scores.tobytes()) == before
    assert [len(t.observations) for t in tk.tracks] == [3, 3]
    events = tk.step(4, _two_identities(4))
    assert [(ev.kind, ev.track_id, ev.det_idx) for ev in events] == [(MATCHED, 1, 0), (MATCHED, 2, 1)]


def test_a_refused_first_frame_fixes_no_width():
    tk = Tracker(TrackerConfig())
    with pytest.raises(NonFiniteError, match="^frame 0: detection 0 "):
        tk.step(0, [_det([math.nan, 0.0])])
    tk.step(0, [_det([1.0, 0.0, 0.0])])
    assert tk.memory.shape == (1, 3)


@pytest.mark.parametrize("max_age", [0, 5])
def test_bank_of_a_track_that_is_not_live_names_it(max_age):
    # a dying track's store row goes to the next birth, and no copy of its bank is kept
    tk = Tracker(TrackerConfig(max_age=max_age))
    for frame in range(max_age + 2):
        tk.step(frame, [_det([1.0, 0.0], frame=frame)] if frame == 0 else [])
    assert tk.live == [] and tk.state(tk.tracks[0]) == TrackState.DEAD
    for track, name in ((tk.tracks[0], "track 1"), (Track(7), "track 7")):
        with pytest.raises(ValueError, match=f"^{name} is not live"):
            tk.bank(track)


def test_bisoftmax_bits_match_scipy():
    rng = np.random.default_rng(17)
    for shape in [(1, 1), (1, 9), (7, 1), (40, 129), (1405, 300)]:
        for scale in (1e-3, 1.0, 1e3):
            x = rng.normal(size=shape) * scale
            for temperature in (1.0, 0.05):
                logits = x / temperature
                want = 0.5 * (softmax(logits, axis=1) + softmax(logits, axis=0))
                assert bisoftmax(x, temperature).tobytes() == want.tobytes()


class TrackerMachine(RuleBasedStateMachine):
    """Random configs and frames; the invariants hold after every step."""

    @initialize(n_bank=st.integers(1, 20), alpha_mem=st.floats(0, 1), alpha_sim=st.floats(0, 1),
                max_age=st.integers(0, 3), sim_mode=st.sampled_from(SIM_MODES),
                d=st.sampled_from([1, 3, 8]), seed=st.integers(0, 2 ** 16))
    def start(self, n_bank, alpha_mem, alpha_sim, max_age, sim_mode, d, seed):
        self.tk = Tracker(TrackerConfig(n_bank=n_bank, alpha_mem=alpha_mem, alpha_sim=alpha_sim,
                                        max_age=max_age, sim_mode=sim_mode,
                                        softmax_temperature=0.05))
        self.rng = np.random.default_rng(seed)
        self.protos = self.rng.normal(size=(5, d))
        self.frame, self.last_born, self.dead = -1, 0, set()

    @rule(gap=st.integers(1, 3), n_seen=st.integers(0, 5), n_clutter=st.integers(0, 3))
    def step(self, gap, n_seen, n_clutter):
        rng = self.rng
        self.frame += gap
        seen = self.protos[rng.permutation(len(self.protos))[:n_seen]]
        embs = list(seen + 0.2 * rng.normal(size=seen.shape))
        embs += list(rng.normal(size=(n_clutter, self.protos.shape[1])))
        dets = [_det(e, conf=float(rng.uniform(0.05, 1.0)), frame=self.frame) for e in embs]
        events = self.tk.step(self.frame, dets)

        # one event per detection
        assert sorted(ev.det_idx for ev in events if ev.kind != DIED) == list(range(len(dets)))
        # each track matched at most once in a frame
        matched = [ev.track_id for ev in events if ev.kind == MATCHED]
        assert len(matched) == len(set(matched))
        # born ids strictly increasing
        for ev in events:
            if ev.kind == BORN:
                assert ev.track_id > self.last_born
                self.last_born = ev.track_id
        # dead tracks never return
        assert not self.dead & {ev.track_id for ev in events}
        self.dead |= {ev.track_id for ev in events if ev.kind == DIED}

    @invariant()
    def live_rows_line_up(self):
        if not hasattr(self, "tk"):
            return
        ids = [t.id for t in self.tk.live]
        assert ids == sorted(set(ids)) and not self.dead & set(ids)
        assert len(self.tk.memory) == len(self.tk.query) == len(ids)
        assert all(self.tk.state(t) == TrackState.DEAD for t in self.tk.tracks if t.id in self.dead)


TestTrackerMachine = TrackerMachine.TestCase
TestTrackerMachine.settings = settings(max_examples=25, stateful_step_count=12, deadline=None)


def test_default_decisions_pinned_on_a_crowded_scene():
    # 60 noisy identities with clutter at the default settings. The digest
    # covers what association decided, not the scores, so a change that may
    # only move score bits must leave it as it is. Re-taken when the default
    # softmax_temperature went from 1.0 to 0.05.
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
    assert digest == "f9156efa9fac4aa10aad93ab9a8c635276b73a427916e65d48c65f7b463d882a"


def test_default_settings_track_a_crowded_scene():
    # At the old default softmax_temperature=1.0 the bi-softmax of cosine
    # logits was nearly uniform and halved every blended score, so true
    # matches fell below tau_match and each miss started a track: this scene
    # had 253 tracks and AssA 43.7 (70 and 94.7 at the new default, 0.05).
    from trajkit.classify import classify_trajectory, label_record, to_track_record
    from trajkit.metrics import EvalConfig, evaluate
    from trajkit.synth import SynthConfig, gen_scene
    scene = gen_scene(SynthConfig(n_identities=60, n_frames=15, embed_dim=32, noise_sigma=0.1,
                                  miss_rate=0.05, fp_rate=2.0, seed=1))
    tracks = run_sequence(scene.detections, TrackerConfig())
    assert len(tracks) <= 1.5 * 60
    records = [label_record(r, classify_trajectory(r.entries, None, None))
               for r in map(to_track_record, tracks)]
    assert evaluate(records, scene.gt_tracks, EvalConfig()).overall.ass_a >= 90.0
