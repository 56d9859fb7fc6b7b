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

from blocks import block
from trajkit import io
from trajkit.errors import DimMismatchError, NonFiniteError, ZeroNormError
from trajkit.io import AssociationEvent
from trajkit.synth import SynthConfig, gen_scene
from trajkit.tracker import (
    BORN,
    DIED,
    DISCARDED,
    MATCHED,
    SIM_MODES,
    Tracker,
    TrackerConfig,
    TrackState,
    associate_frame,
    bisoftmax,
    majority_vote,
    retain_categories,
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


def _oracle_associate(track_ids, dets, scores, cfg, next_track_id=0):
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
            events.append(AssociationEvent(det.frame, MATCHED, track_ids[k], i, float(row[k])))
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
        ids = [t.id for t in live]
        events = _oracle_associate(ids, dets, scores, cfg, next_track_id=next_id)
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
    dets = [_det([1.0, 0.1], conf=0.5), _det([1.0, 0.3], conf=0.9)]
    scores = np.array([[0.9, 0.8]])
    events = associate_frame([5], block(dets), scores, cfg, next_track_id=10)
    by_det = {e.det_idx: e for e in events}
    assert by_det[1].kind == MATCHED and by_det[1].track_id == 5
    assert by_det[1].score == pytest.approx(0.8)
    assert by_det[0].kind == BORN and by_det[0].track_id == 10


def test_associate_discard_low_confidence():
    cfg = TrackerConfig(tau_match=0.4, tau_new=0.3)
    events = associate_frame([], block([_det([1.0, 0.0], conf=0.2)]), np.zeros((0, 1)), cfg)
    assert events[0].kind == DISCARDED and events[0].track_id is None


def test_associate_argmax_tie_lowest_track():
    cfg = TrackerConfig(tau_match=0.1)
    scores = np.array([[0.7], [0.7]])
    events = associate_frame([3, 4], block([_det([1.0, 0.0])]), scores, cfg)
    assert events[0].track_id == 3


def test_associate_confidence_tie_lower_index_first():
    cfg = TrackerConfig(tau_match=0.1, tau_new=0.0)
    dets = [_det([1.0, 0.0], conf=0.8), _det([1.0, 0.0], conf=0.8)]
    scores = np.array([[0.5, 0.9]])
    events = associate_frame([0], block(dets), scores, cfg, next_track_id=1)
    by_det = {e.det_idx: e for e in events}
    assert by_det[0].kind == MATCHED  # index 0 visited first on equal confidence
    assert by_det[1].kind == BORN


def _random_association(rng, n_tracks, n_dets):
    """Tracks, detections and a score matrix with ties in score and confidence, -inf and
    NaN entries, -inf columns and rows entirely below tau_match (0.4)."""
    tracks = np.sort(rng.choice(10 * n_tracks + 1, n_tracks, replace=False)).tolist()
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
        assert list(associate_frame(tracks, block(dets, frame=3), scores, cfg, next_track_id=500)) == want


def test_batched_greedy_falls_back_to_the_loop(monkeypatch):
    # every detection ranks the tracks alike, so each round decides one detection:
    # more rounds than the cap, and the loop decides the rest
    import trajkit.tracker as tracker_module
    calls = []
    loop = tracker_module._greedy_loop
    monkeypatch.setattr(tracker_module, "_greedy_loop", lambda *args: calls.append(1) or loop(*args))
    cfg = TrackerConfig(tau_match=0.4, tau_new=0.3)
    n = 3 * tracker_module._GREEDY_ROUNDS
    tracks = list(range(n))
    dets = [_det([1.0], conf=0.9 - 0.01 * i) for i in range(n + 2)]
    scores = np.repeat(np.linspace(0.9, 0.41, n)[:, None], n + 2, axis=1)
    events = associate_frame(tracks, block(dets), scores, cfg, next_track_id=n)
    assert calls == [1]
    assert list(events) == _oracle_associate(tracks, dets, scores, cfg, next_track_id=n)
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
    want = _oracle_associate(tk.live.tolist(), dets, scores, tk.cfg, next_track_id=int(tk.live[-1]) + 1)
    assert len(tk.live) > 900 and sum(ev.kind == MATCHED for ev in want) > 900
    assert list(tk.step(1, dets)) == want


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
    bank = [4, 4, 4]

    assert retain_category(bank, 0.9, 8, cfg) == 8  # high: pass through
    # mid band: vote over bank + candidate; bank majority 4 wins
    assert retain_category(bank, 0.2, 9, cfg) == 4
    # low band: bank only, candidate ignored entirely
    assert retain_category(bank, 0.05, 9, cfg) == 4
    # deciding a category adds none to the bank
    assert bank == [4, 4, 4]


def test_retain_category_low_band_empty_bank():
    cfg = TrackerConfig()
    assert retain_category([], 0.05, 6, cfg) == 6


def test_category_bank_truncates():
    # only the last n_cat_bank entries vote: 7 has most entries but 3, 4 and 5
    # tie within the bank, and a tie goes to the most recent
    cfg = TrackerConfig(n_cat_bank=3)
    assert retain_category([7, 7, 7, 3, 4, 5], 0.05, 9, cfg) == 5
    assert retain_category([7, 7, 7, 3, 4, 5], 0.2, 9, cfg) == 9


def test_a_birth_keeps_its_category_and_a_match_votes():
    # a newborn track's bank is empty, so a low-band birth keeps its detection's own category
    tk = Tracker(TrackerConfig(tau_new=0.0))
    born = tk.step(0, block([_det([1.0, 0.0], conf=0.05, cat=3), _det([0.0, 1.0], conf=0.9, cat=8)]))
    assert [ev.kind for ev in born] == [BORN, BORN]
    # the more confident detection is born first, as track 1
    assert [(r.track_id, r.entries[0].category_id) for r in tk.table()] == [(1, 8), (2, 3)]
    matched = tk.step(1, block([_det([1.0, 0.0], conf=0.05, cat=5, frame=1)]))
    assert [(ev.kind, ev.track_id) for ev in matched] == [(MATCHED, 2)]
    assert tk.table()[1].entries[1].category_id == 3  # low band: the bank's category


def test_a_category_past_int64_stays_in_the_bank_of_later_int64_blocks():
    # a block's category column is object only when it holds an id past int64: the bank keeps
    # such an id when later blocks' columns are int64, and votes it back in the low band
    tk = Tracker(TrackerConfig(tau_new=0.0))
    tk.step(0, block([_det([1.0, 0.0], conf=0.9, cat=2 ** 64)]))
    for frame in (1, 2):
        tk.step(frame, block([_det([1.0, 0.0], conf=0.05, cat=3, frame=frame)]))
    assert [e.category_id for e in tk.table()[0].entries] == [2 ** 64] * 3


def _random_votes(rng, n, size, big):
    """``size`` matches' category banks of width ``n`` (some entries unknown, empty banks
    included), confidences in every band and on its edges, and categories from a few ids, so
    votes tie often; past int64 when ``big``."""
    ids = np.array([2 ** 63 + k if big else k for k in (0, 1, 2, 3, 7)], dtype=object if big else np.int64)
    banks = ids[rng.integers(0, 3, (size, n))]
    known = np.arange(n) >= rng.integers(0, n + 1, size)[:, None]  # the last few entries are known
    confidence = rng.choice([0.0, 0.05, 0.1, 0.2, 0.3, 0.9, float(rng.uniform())], size)
    return banks, known, confidence, ids[rng.integers(0, 5, size)]


@pytest.mark.parametrize("big", [False, True], ids=["int64", "past-int64"])
@pytest.mark.parametrize("n", range(1, 7))
def test_retain_categories_vote_as_retain_category(n, big):
    cfg = TrackerConfig(n_cat_bank=n, tau_high=0.3, tau_low=0.1)
    rng = np.random.default_rng(n)
    banks, known, confidence, cats = _random_votes(rng, n, 2000, big)
    got = retain_categories(banks, known, confidence, cats, cfg)
    want = [retain_category(list(bank[k]), c, cat, cfg) for bank, k, c, cat in zip(banks, known, confidence, cats)]
    assert got.tolist() == want
    # every band, empty banks and ties in the vote were drawn
    assert {0.0, 0.05, 0.2, 0.9} <= set(confidence.tolist()) and not known.any(axis=1).all()
    if n > 1:
        assert any(majority_vote(list(bank[k]))[1] == 0.5 for bank, k in zip(banks, known) if k.sum() == 2)


@pytest.mark.parametrize("big", [False, True], ids=["int64", "past-int64"])
def test_category_ring_retains_as_retain_category_per_match(big):
    # a tracker's retained categories against a replay that asks retain_category of every match
    # in turn, with n_cat_bank from 1 to 6 and past the store's first width (and the scene's
    # length), confidences in every band and few categories
    rng = np.random.default_rng(40 + big)
    ids = [2 ** 63 + k if big else k for k in range(3)]
    for n in (*range(1, 7), 20, 10 ** 30):
        cfg = TrackerConfig(n_cat_bank=n, tau_new=0.0, max_age=2)
        frames = _random_scene(rng, d=4, n_frames=30)
        blocks = {frame: block([io.DetectionRecord(frame, d.bbox, d.confidence, ids[d.category_id], 0.5, d.embedding)
                                for d in dets], frame=frame) for frame, dets in frames}
        table = run_sequence(blocks, cfg)
        assert table.cat.dtype == (object if big else np.int64)
        matches = 0
        for record in table:
            retained = []
            for e in record.entries:
                raw = blocks[e.frame].category_id[e.det_idx]
                retained.append(retain_category(retained, e.confidence, raw, cfg) if retained else raw)
                matches += len(retained) > 1
            assert [e.category_id for e in record.entries] == retained
        assert matches > 100


def test_tracking_a_scene_leaves_its_columns_as_they_were():
    # a scene's blocks are views of scene-wide columns, so a write into one would reach its neighbours
    scene = gen_scene(SynthConfig(n_identities=6, n_frames=10, n_categories=2, embed_dim=8, noise_sigma=0.2,
                                  miss_rate=0.2, fp_rate=1.0, seed=5))
    copies = {f: io.DetectionFrame(f, *(np.array(getattr(dets, key)) for key in COLUMNS))
              for f, dets in scene.detections.items()}
    by_view, by_copy = Tracker(TrackerConfig()), Tracker(TrackerConfig())
    for f, dets in scene.detections.items():
        assert list(by_view.step(f, dets)) == list(by_copy.step(f, copies[f]))
    for f, dets in scene.detections.items():
        for key in COLUMNS:
            assert getattr(dets, key).tobytes() == getattr(copies[f], key).tobytes()
    assert list(by_view.table()) == list(by_copy.table())


COLUMNS = ("bbox", "confidence", "category_id", "category_score", "embedding")


def test_tracker_lifecycle():
    cfg = TrackerConfig(max_age=2, tau_match=0.4, tau_new=0.0)
    tk = Tracker(cfg)
    e0 = tk.step(0, block([_det([1.0, 0.0], frame=0)]))
    assert [e.kind for e in e0] == [BORN]
    assert tk.live.tolist() == [1] and tk.state(1) == TrackState.ACTIVE

    tk.step(1, block([_det([1.0, 0.05], frame=1)]))
    assert tk.state(1) == TrackState.ACTIVE
    assert len(tk.table()[0].entries) == 2

    tk.step(2, block([]))
    assert tk.state(1) == TrackState.LOST

    tk.step(3, block([]))  # still within max_age
    assert tk.state(1) == TrackState.LOST

    events = tk.step(4, block([]))  # age 3 > max_age=2
    assert tk.state(1) == TrackState.DEAD
    assert [(e.frame, e.kind, e.track_id) for e in events] == [(4, DIED, 1)]

    # a matching detection now starts a fresh track instead of reviving the dead one
    tk.step(5, block([_det([1.0, 0.0], frame=5)]))
    assert [r.track_id for r in tk.table()] == [1, 2]
    with pytest.raises(ValueError, match="^track 3 was never born$"):
        tk.state(3)


def test_tracker_lost_track_can_rematch():
    cfg = TrackerConfig(max_age=10, tau_new=0.0)
    tk = Tracker(cfg)
    tk.step(0, block([_det([1.0, 0.0], frame=0)]))
    tk.step(1, block([]))
    assert tk.state(1) == TrackState.LOST
    tk.step(2, block([_det([1.0, 0.0], frame=2)]))
    assert tk.state(1) == TrackState.ACTIVE
    assert len(tk.table()) == 1


def test_tracker_rejects_nonincreasing_frames():
    tk = Tracker(TrackerConfig())
    tk.step(3, block([]))
    with pytest.raises(ValueError):
        tk.step(3, block([]))


def test_memory_and_bank_update_on_match():
    cfg = TrackerConfig(alpha_mem=0.25, n_bank=2, tau_new=0.0, tau_match=0.1)
    tk = Tracker(cfg)
    tk.step(0, block([_det([1.0, 0.0], frame=0)]))
    tk.step(1, block([_det([0.0, 1.0], frame=1)]))
    track = 1
    np.testing.assert_allclose(tk.memory[0], [0.75, 0.25])
    # the query row blends the unit memory with the mean of the bank's unit rows
    memory_unit = np.array([0.75, 0.25]) / np.hypot(0.75, 0.25)
    np.testing.assert_allclose(tk.query[0], cfg.alpha_sim * memory_unit
                               + (1 - cfg.alpha_sim) * tk.bank(track).mean(axis=0))
    assert len(tk.bank(track)) == 2
    tk.step(2, block([_det([0.5, 0.5], frame=2)]))
    assert len(tk.bank(track)) == 2  # capped at n_bank
    # the bank holds unit rows, oldest first: frame 1's [0, 1], then frame 2's [0.5, 0.5]
    np.testing.assert_allclose(tk.bank(track), [[0.0, 1.0], [0.5 ** 0.5, 0.5 ** 0.5]])


def test_stored_embeddings_not_renormalized():
    cfg = TrackerConfig(tau_new=0.0)
    tk = Tracker(cfg)
    dets = block([_det([3.0, 0.0], frame=0)])
    tk.step(0, dets)
    np.testing.assert_allclose(tk.memory[0], [3.0, 0.0])
    np.testing.assert_allclose(dets[tk.table().det[0]].embedding, [3.0, 0.0])
    # only the bank keeps a normalized copy
    np.testing.assert_allclose(tk.bank(1), [[1.0, 0.0]])


def test_run_sequence_bridges_gap():
    # one object, a 3-frame hole, same appearance: one track end to end
    emb = [0.6, 0.8]
    dets = {f: block([_det(emb, frame=f)]) for f in [0, 1, 2, 6, 7]}
    table = run_sequence(dets, TrackerConfig(max_age=10))
    assert len(table) == 1
    assert table.frame.tolist() == [0, 1, 2, 6, 7]


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
            dets[f] = block([_det(n1, frame=f, cat=0), _det(n2, frame=f, cat=1)])
        table = run_sequence(dets, TrackerConfig())
        assert len(table) == 2
        for rec in table:
            cats = {e.category_id for e in rec.entries}
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
        for rec in tk.table():
            last = rec.entries[-1].frame
            if rec.track_id not in dead and prev is not None and prev - last <= cfg.max_age:
                live.append(rec)
        histories = [[scene.detections[e.frame][e.det_idx].embedding for e in rec.entries]
                     for rec in live]
        events = tk.step(frame, dets)

        assert tk.last_ids == [rec.track_id for rec in live]
        np.testing.assert_allclose(tk.last_scores, _replayed_scores(histories, dets, cfg),
                                   rtol=0, atol=1e-12)
        assert not dead & set(tk.last_ids)
        for ev in events:
            assert ev.track_id not in dead
            if ev.kind == MATCHED:
                assert ev.track_id in tk.last_ids
            if ev.kind == DIED:
                dead.add(ev.track_id)
        table = tk.table()
        for rec in table:
            assert (tk.state(rec.track_id) == TrackState.DEAD) == (rec.track_id in dead)
            if rec.track_id in tk.live:
                assert len(tk.bank(rec.track_id)) == min(len(rec.entries), cfg.n_bank)
        prev = frame

    # the scene really exercised the store: deaths, wrapped banks, rematches after a gap
    assert len(dead) >= 5
    assert sum(len(rec.entries) > cfg.n_bank for rec in table) >= 5
    assert any(b.frame - a.frame > 1 for rec in table
               for a, b in zip(rec.entries, rec.entries[1:]))


def _one_track_tracker(cfg, rows):
    """A tracker fed one detection per frame, each matched to the one track."""
    tk = Tracker(cfg)
    for frame, row in enumerate(rows):
        tk.step(frame, block([_det(row, frame=frame)]))
        assert tk.live.tolist() == [1]
        yield tk


def test_bank_fifo_and_cap():
    cfg = TrackerConfig(n_bank=5, tau_match=-1.0)
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(12, 4)).astype(np.float32)
    for k, tk in enumerate(_one_track_tracker(cfg, rows)):
        want = rows[max(0, k + 1 - cfg.n_bank):k + 1].astype(np.float64)
        np.testing.assert_allclose(tk.bank(1), want / np.linalg.norm(want, axis=1, keepdims=True))
        assert tk.bank(1).flags.c_contiguous


def test_birth_sets_bank_to_first_unit_row():
    cfg = TrackerConfig()
    tk = Tracker(cfg)
    tk.step(0, block([_det([3.0, 4.0])]))
    np.testing.assert_array_equal(tk.bank(1), [[0.6, 0.8]])
    # memory_unit and bank_mean are both the first unit row
    unit = tk.bank(1)[0]
    assert tk.query[0].tobytes() == (cfg.alpha_sim * unit + (1 - cfg.alpha_sim) * unit).tobytes()


def test_bank_mean_is_recomputed_not_accumulated():
    # far past n_bank every insert evicts a row; a running sum that
    # subtracted evicted rows would drift from the kept rows' mean
    cfg = TrackerConfig(n_bank=7, tau_match=-1.0)
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(501, 16)) * rng.uniform(0.01, 100, size=(501, 1))
    for k, tk in enumerate(_one_track_tracker(cfg, rows)):
        if k % 50 == 1 or k == 500:
            memory_unit = tk.memory[0] / np.linalg.norm(tk.memory[:1], axis=1)
            want = cfg.alpha_sim * memory_unit + (1 - cfg.alpha_sim) * tk.bank(1).mean(axis=0)
            assert tk.query[0].tobytes() == want.tobytes()
    assert len(tk.bank(1)) == cfg.n_bank


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
            got = tk.step(frame, block(dets))
            assert tk.last_scores.shape == scores.shape
            assert tk.last_scores.tobytes() == scores.tobytes()
            assert tk.last_ids == ids
            assert list(got) == events
            assert tk.live.tolist() == [t.id for t in live]
            assert len(tk.memory) == len(tk.query) == len(live)
            for row, want in enumerate(live):
                assert tk.bank(want.id).tobytes() == want.feature_bank.tobytes()
                assert tk.memory[row].tobytes() == want.memory.tobytes()
                assert tk.query[row].tobytes() == _oracle_query([want], cfg)[0].tobytes()
            assert [tk.state(t.id) for t in tracks] == [t.state for t in tracks]
            deaths += sum(ev.kind == DIED for ev in got)
        table = tk.table()
        assert [r.track_id for r in table] == [t.id for t in tracks]
        wrapped += sum(len(r.entries) > cfg.n_bank for r in table)
        rematched += sum(b.frame - a.frame > 1 for r in table for a, b in zip(r.entries, r.entries[1:]))
    # the scenes exercised deaths, wrapped banks and rematches after a gap
    assert deaths >= 20 and wrapped >= 20 and rematched >= 20


# A block holds one width, so its first detection names a refused width.
@pytest.mark.parametrize("frames, where", [
    ([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]], "frame 1: detection 0"),  # width changes, a track lives
    ([[[1.0, 0.0]], [], [[1.0, 0.0, 0.0]]], "frame 2: detection 0"),  # width changes, none lives
], ids=["change-live", "change-none-live"])
def test_embedding_width_mismatch_names_frame_and_detection(frames, where):
    tk = Tracker(TrackerConfig(max_age=0))
    for frame, embs in enumerate(frames[:-1]):
        tk.step(frame, block([_det(e, frame=frame) for e in embs]))
    with pytest.raises(DimMismatchError, match=f"^{where} embedding has shape \\(3,\\), expected \\(2,\\)$"):
        tk.step(len(frames) - 1, block([_det(e, frame=len(frames) - 1) for e in frames[-1]]))


def _two_identities(frame):
    return block([_det([1.0, 0.0, 0.0], frame=frame), _det([0.0, 1.0, 0.0], frame=frame)])


@pytest.mark.parametrize("embs, confs, where", [
    ([[math.inf, 0.0, 0.0]], [0.9], "detection 0 has a non-finite embedding"),
    ([[0.0, 0.0, 1.0], [math.nan, 0.0, 0.0]], [0.9, 0.9], "detection 1 has a non-finite embedding"),
    ([[0.0, 0.0, 1.0]], [math.nan], "detection 0 has a non-finite confidence"),
    ([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], [0.9, math.inf], "detection 1 has a non-finite confidence"),
], ids=["inf-embedding", "nan-embedding", "nan-confidence", "inf-confidence"])
def test_non_finite_detection_is_refused_and_changes_nothing(embs, confs, where):
    # an [inf, 0, 0] row scores NaN, and the bi-softmax's normalizations spread the NaN over
    # every track: unrefused, frame 4's two identities are born as tracks 4 and 5
    tk = Tracker(TrackerConfig())
    for frame in range(3):
        tk.step(frame, _two_identities(frame))
    before = tk.memory.tobytes(), tk.query.tobytes(), tk.last_scores.tobytes()
    with pytest.raises(NonFiniteError, match=f"^frame 3: {where}$"):
        tk.step(3, block([_det(e, conf=c, frame=3) for e, c in zip(embs, confs)]))
    assert (tk.memory.tobytes(), tk.query.tobytes(), tk.last_scores.tobytes()) == before
    assert [len(r.entries) for r in tk.table()] == [3, 3]
    events = tk.step(4, _two_identities(4))
    assert [(ev.kind, ev.track_id, ev.det_idx) for ev in events] == [(MATCHED, 1, 0), (MATCHED, 2, 1)]


def test_a_refused_first_frame_fixes_no_width():
    tk = Tracker(TrackerConfig())
    with pytest.raises(NonFiniteError, match="^frame 0: detection 0 "):
        tk.step(0, block([_det([math.nan, 0.0])]))
    tk.step(0, block([_det([1.0, 0.0, 0.0])]))
    assert tk.memory.shape == (1, 3)


@pytest.mark.parametrize("max_age", [0, 5])
def test_bank_of_a_track_that_is_not_live_names_it(max_age):
    # a dying track's store row goes to the next birth, and no copy of its bank is kept
    tk = Tracker(TrackerConfig(max_age=max_age))
    for frame in range(max_age + 2):
        tk.step(frame, block([_det([1.0, 0.0], frame=frame)] if frame == 0 else []))
    assert len(tk.live) == 0 and tk.state(1) == TrackState.DEAD
    for track in (1, 7):
        with pytest.raises(ValueError, match=f"^track {track} is not live"):
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
        events = self.tk.step(self.frame, block(dets))

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
        ids = self.tk.live.tolist()
        assert ids == sorted(set(ids)) and not self.dead & set(ids)
        assert len(self.tk.memory) == len(self.tk.query) == len(ids)
        assert all(self.tk.state(t) == TrackState.DEAD for t in self.dead)


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
    from trajkit.classify import classify_trajectory
    from trajkit.metrics import EvalConfig, evaluate
    from trajkit.synth import SynthConfig, gen_scene
    scene = gen_scene(SynthConfig(n_identities=60, n_frames=15, embed_dim=32, noise_sigma=0.1,
                                  miss_rate=0.05, fp_rate=2.0, seed=1))
    table = run_sequence(scene.detections, TrackerConfig())
    assert len(table) <= 1.5 * 60
    cats, bounds = table.cat.tolist(), table.bounds.tolist()
    table.label[:] = [classify_trajectory(None, cats[lo:hi], None).final for lo, hi in zip(bounds, bounds[1:])]
    assert evaluate(table, scene.gt_tracks, EvalConfig()).overall.ass_a >= 90.0
