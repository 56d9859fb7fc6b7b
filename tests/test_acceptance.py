"""Acceptance gate: eleven pass/fail criteria covering the whole package.

Each test prints one `[criterion N] ... PASS/FAIL` line directly to the
terminal (bypassing capture) so the gate is readable in any pytest run.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trajkit import cli, fusion, io
from trajkit.classify import (
    ClassifyConfig,
    classify_trajectory,
    label_record,
    record_embeddings,
    to_track_record,
)
from trajkit.fusion import (
    LN_EPS,
    concat_score,
    fuse_attention,
    fuse_average,
    fuse_cross,
    fuse_self,
    init_fusion_weights,
    self_attention,
)
from trajkit.metrics import EvalConfig, evaluate
from trajkit.synth import SynthConfig, gen_scene, make_train_pairs
from trajkit.tracker import TrackerConfig, majority_vote, run_sequence
from trajkit.train import (
    TRAINABLE_TENSORS,
    TrainConfig,
    TrainPair,
    contrastive_loss,
    loss_and_gradients,
    numeric_gradient,
    pair_loss,
    train_fusion,
)


@contextmanager
def report(capfd, n, label):
    """Emit one uncaptured pass/fail line per criterion."""
    info = {}
    try:
        yield info
    except BaseException:
        with capfd.disabled():
            print(f"[criterion {n:2d}] {label}: FAIL")
        raise
    detail = info.get("detail", "")
    with capfd.disabled():
        print(f"[criterion {n:2d}] {label}: PASS{' (' + detail + ')' if detail else ''}")


# ---------------------------------------------------------------- oracles

def _o_layer_norm(x, gamma, beta, eps):
    out = []
    for row in x:
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        out.append([(v - mu) / math.sqrt(var + eps) * g + b
                    for v, g, b in zip(row, gamma, beta)])
    return out


def _o_gelu(v):
    return v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))


def _o_linear(rows, w, b):
    n_out = len(b)
    return [[sum(r[a] * w[a][c] for a in range(len(r))) + b[c] for c in range(n_out)]
            for r in rows]


def _o_attention(q_rows, kv_rows, w, heads):
    d = len(q_rows[0])
    dh = d // heads
    q = _o_linear(q_rows, w["wq"], w["bq"])
    k = _o_linear(kv_rows, w["wk"], w["bk"])
    v = _o_linear(kv_rows, w["wv"], w["bv"])
    ctx = [[0.0] * d for _ in q_rows]
    for h in range(heads):
        lo = h * dh
        for i in range(len(q_rows)):
            logits = [sum(q[i][lo + a] * k[j][lo + a] for a in range(dh)) / math.sqrt(dh)
                      for j in range(len(kv_rows))]
            mx = max(logits)
            ex = [math.exp(z - mx) for z in logits]
            s = sum(ex)
            for a in range(dh):
                ctx[i][lo + a] = sum(ex[j] / s * v[j][lo + a] for j in range(len(kv_rows)))
    return _o_linear(ctx, w["wo"], w["bo"])


def _o_mlp(rows, w1, b1, w2, b2):
    hidden = [[_o_gelu(v) for v in row] for row in _o_linear(rows, w1, b1)]
    return _o_linear(hidden, w2, b2)


def _o_mean_rows(rows):
    n = len(rows)
    return [sum(r[c] for r in rows) / n for c in range(len(rows[0]))]


def _weights_as_lists(w):
    attn = {k: w[f"attn.{k}"].tolist() for k in ("wq", "wk", "wv", "wo",
                                                 "bq", "bk", "bv", "bo")}
    cross = {k: w[f"cross.{k}"].tolist() for k in ("wq", "wk", "wv", "wo",
                                                   "bq", "bk", "bv", "bo")}
    return attn, cross


def _o_fuse_self(rows, w, attn):
    normed = _o_layer_norm(rows, w["ln1.gamma"].tolist(), w["ln1.beta"].tolist(), LN_EPS)
    att = _o_attention(normed, normed, attn, 1)
    x1 = [[a + b for a, b in zip(r, s)] for r, s in zip(rows, att)]
    normed2 = _o_layer_norm(x1, w["ln2.gamma"].tolist(), w["ln2.beta"].tolist(), LN_EPS)
    mlp = _o_mlp(normed2, w["mlp.w1"].tolist(), w["mlp.b1"].tolist(),
                 w["mlp.w2"].tolist(), w["mlp.b2"].tolist())
    x2 = [[a + b for a, b in zip(r, s)] for r, s in zip(x1, mlp)]
    return _o_mean_rows(x2)


def _o_contrastive(fa, fb, y, margin):
    dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(fa, fb)))
    if y == 1:
        return 0.5 * dist * dist
    hinge = max(0.0, margin - dist)
    return 0.5 * hinge * hinge


# ------------------------------------------------------------- criterion 1

def test_criterion_01_op_fidelity(capfd):
    with report(capfd, 1, "tensor ops match brute-force oracles") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0

        def check(got, want):
            nonlocal worst
            got = np.asarray(got, dtype=np.float64)
            want = np.asarray(want, dtype=np.float64)
            err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
            worst = max(worst, float(err.max()) if err.size else 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

        for _ in range(50):
            d = int(rng.integers(2, 9)) * 2  # even, <= 16
            n = int(rng.integers(1, 5))
            w = init_fusion_weights(d, seed=int(rng.integers(10000)), zero_residual=False)
            attn, cross = _weights_as_lists(w)
            x = rng.normal(size=(n, d))
            rows = x.tolist()

            mem, det = rng.normal(size=d), rng.normal(size=d)
            a = float(rng.uniform(0, 1))
            from trajkit.tracker import update_memory
            check(update_memory(mem, det, a),
                  [a * dv + (1 - a) * mv for mv, dv in zip(mem, det)])

            fa, fb = rng.normal(size=d), rng.normal(size=d)
            margin = float(rng.uniform(0.1, 3.0))
            for y in (0, 1):
                check(contrastive_loss(fa, fb, y, margin=margin),
                      _o_contrastive(fa.tolist(), fb.tolist(), y, margin))

            gamma, beta = rng.normal(size=d), rng.normal(size=d)
            check(fusion._layer_norm_forward(x, gamma, beta, 1e-5)[0],
                  _o_layer_norm(rows, gamma.tolist(), beta.tolist(), 1e-5))

            heads = 2 if d % 4 == 0 and rng.random() < 0.5 else 1
            check(self_attention(x, w, heads), _o_attention(rows, rows, attn, heads))

            check(fusion._mlp_forward(x, w)[0],
                  _o_mlp(rows, w["mlp.w1"].tolist(), w["mlp.b1"].tolist(),
                         w["mlp.w2"].tolist(), w["mlp.b2"].tolist()))

            check(fuse_average(x), _o_mean_rows(rows))
            check(fuse_attention(x, w), _o_mean_rows(_o_attention(rows, rows, attn, 1)))
            check(fuse_self(x, w), _o_fuse_self(rows, w, attn))

            fused = rows[0]
            for i in range(1, n):
                fused = _o_attention([fused], [rows[i]], cross, 1)[0]
            check(fuse_cross(x, w), fused)

            lang = rng.normal(size=d)
            stacked = rows + [lang.tolist()]
            pooled = _o_mean_rows(_o_attention(stacked, stacked, attn, 1))
            proj = [sum(pooled[a] * w["concat.pool_w"][a][c] for a in range(d))
                    + w["concat.pool_b"][c] for c in range(d)]
            raw = sum(p * float(fw) for p, fw in zip(proj, np.ravel(w["concat.fc_w"])))
            raw += float(np.ravel(w["concat.fc_b"])[0])
            check(concat_score(x, lang, w), 1.0 / (1.0 + math.exp(-raw)))

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        info["detail"] = f"50 instances x 10 ops, max rel err {worst:.2e}, {elapsed:.1f}s"


# ------------------------------------------------------------- criterion 2

def test_criterion_02_gradient_check(capfd):
    with report(capfd, 2, "analytic vs numeric gradients") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(2, 4)) * 2  # 4 or 6
            na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            y = int(rng.integers(0, 2))
            distance = "euclidean" if rng.random() < 0.5 else "cosine"
            margin = float(rng.uniform(1.8, 2.5)) if y == 0 else float(rng.uniform(0.2, 1.0))
            w = init_fusion_weights(d, seed=int(rng.integers(10000)), zero_residual=False)
            cfg = TrainConfig(margin=margin, distance=distance)
            pair = TrainPair(rng.normal(size=(na, d)), rng.normal(size=(nb, d)), y)
            _, grads = loss_and_gradients([pair], w, cfg)
            for name in TRAINABLE_TENSORS:
                num = numeric_gradient(lambda _t: pair_loss(pair, w, cfg),
                                       w[name], eps=1e-5)
                ana = grads[name]
                rel = np.abs(num - ana) / np.maximum(np.maximum(np.abs(num), np.abs(ana)), 1e-6)
                worst = max(worst, float(rel.max()))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-4
        assert elapsed < 30.0
        info["detail"] = f"50 instances x {len(TRAINABLE_TENSORS)} tensors, max rel err {worst:.2e}, {elapsed:.1f}s"


# ------------------------------------------------------------- criterion 3

def test_criterion_03_zero_noise_oracle(capfd):
    with report(capfd, 3, "zero-noise scene tracks perfectly") as info:
        scene = gen_scene(SynthConfig(n_identities=20, n_frames=100, n_categories=4,
                                      embed_dim=32, noise_sigma=0.0, seed=303))
        t0 = time.perf_counter()
        tracks = run_sequence(scene.detections, TrackerConfig())
        assert len(tracks) == 20

        # zero switches: the detections inside each track belong to one identity
        # and no identity is split across tracks
        seen = {}
        for tr in tracks:
            idents = {scene.detection_identity[o.frame][o.det_idx] for o in tr.observations}
            assert len(idents) == 1
            ident = idents.pop()
            assert ident not in seen
            seen[ident] = tr.id
            assert len(tr.observations) == 100
        assert len(seen) == 20

        ccfg = ClassifyConfig()
        recs = [label_record(r, classify_trajectory(
                    r.entries, record_embeddings(r, scene.detections), scene.vocabulary, None, ccfg))
                for r in map(to_track_record, tracks)]
        rep = evaluate(recs, scene.gt_tracks, EvalConfig(splits=scene.vocabulary.splits()))
        elapsed = time.perf_counter() - t0
        assert rep.overall.loc_a == pytest.approx(100.0, abs=1e-9)
        assert rep.overall.ass_a == pytest.approx(100.0, abs=1e-9)
        assert rep.overall.cls_a == pytest.approx(100.0, abs=1e-9)
        assert elapsed < 1.0
        info["detail"] = f"20 tracks, LocA/AssA/ClsA all 100, {elapsed:.2f}s"


# ------------------------------------------------------------- criterion 4

def _occlusion_ass_a(seed, n_bank):
    rng = np.random.default_rng(seed + 9000)
    n_id, n_fr = 12, 60
    occ = []
    for i in range(n_id):
        length = int(rng.integers(5, 11))  # gaps of 5 to 10 frames
        start = int(rng.integers(10, n_fr - length - 5))
        occ.append((i, start, start + length - 1))
    scene = gen_scene(SynthConfig(n_identities=n_id, n_frames=n_fr, n_categories=3,
                                  embed_dim=8, noise_sigma=0.2, occlusion=occ, seed=seed))
    tracks = run_sequence(scene.detections, TrackerConfig(n_bank=n_bank))
    recs = [to_track_record(t) for t in tracks]
    return evaluate(recs, scene.gt_tracks, EvalConfig()).overall.ass_a


def test_criterion_04_bank_beats_memory_only_under_occlusion(capfd):
    with report(capfd, 4, "feature bank beats memory-only on AssA") as info:
        deltas = []
        lines = []
        for seed in range(10):
            a_bank = _occlusion_ass_a(seed, n_bank=15)
            a_mem = _occlusion_ass_a(seed, n_bank=1)
            deltas.append(a_bank - a_mem)
            lines.append(f"seed {seed}: bank {a_bank:6.2f}  memory-only {a_mem:6.2f}  "
                         f"delta {a_bank - a_mem:+6.2f}")
        with capfd.disabled():
            for line in lines:
                print(f"    {line}")
        mean_delta = float(np.mean(deltas))
        assert mean_delta > 0.0
        info["detail"] = f"mean AssA delta {mean_delta:+.2f} over 10 seeds"


# ------------------------------------------------------------- criterion 5

def test_criterion_05_voting_beats_per_frame_labels(capfd):
    with report(capfd, 5, "trajectory vote beats per-frame labels") as info:
        margins = []
        for seed in range(10):
            scene = gen_scene(SynthConfig(n_identities=12, n_frames=50, n_categories=4,
                                          embed_dim=16, noise_sigma=0.0,
                                          label_flip_prob=0.3, seed=seed))
            correct = total = 0
            for frame, dets in scene.detections.items():
                for det, ident in zip(dets, scene.detection_identity[frame]):
                    if ident is None:
                        continue
                    total += 1
                    correct += det.category_id == scene.identity_category[ident]
            per_frame = 100.0 * correct / total

            tracks = run_sequence(scene.detections, TrackerConfig())
            recs = []
            for t in tracks:
                rec = to_track_record(t)
                rec.label, _ = majority_vote([e.category_id for e in t.observations])
                rec.label_source = "det"
                recs.append(rec)
            cls_a = evaluate(recs, scene.gt_tracks, EvalConfig()).overall.cls_a
            assert cls_a > per_frame  # strict on every seed
            margins.append(cls_a - per_frame)
        mean_margin = float(np.mean(margins))
        assert mean_margin >= 5.0
        info["detail"] = f"mean margin {mean_margin:+.1f} points over 10 seeds"


# ------------------------------------------------------------- criterion 6

def test_criterion_06_fusion_degeneracy(capfd):
    with report(capfd, 6, "zeroed residual projections reduce to averaging") as info:
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 9)) * 2
            n = int(rng.integers(1, 7))
            w = init_fusion_weights(d, seed=int(rng.integers(10000)))  # W_O = W_2 = 0
            assert np.all(w["attn.wo"] == 0.0) and np.all(w["mlp.w2"] == 0.0)
            clip = rng.normal(size=(n, d))
            diff = np.abs(fuse_self(clip, w) - fuse_average(clip)).max()
            worst = max(worst, float(diff))
            assert diff < 1e-6
        info["detail"] = f"100 clips, max |fuse_self - fuse_average| = {worst:.2e}"


# ------------------------------------------------------------- criterion 7

def test_criterion_07_permutation_properties(capfd):
    with report(capfd, 7, "permutation invariance and cross sensitivity") as info:
        rng = np.random.default_rng(707)
        for _ in range(50):
            d = int(rng.integers(2, 9)) * 2
            n = int(rng.integers(2, 6))
            w = init_fusion_weights(d, seed=int(rng.integers(10000)), zero_residual=False)
            clip = rng.normal(size=(n, d))
            perm = rng.permutation(n)
            assert np.abs(fuse_average(clip) - fuse_average(clip[perm])).max() < 1e-6
            assert np.abs(fuse_attention(clip, w) - fuse_attention(clip[perm], w)).max() < 1e-6
            assert np.abs(fuse_self(clip, w) - fuse_self(clip[perm], w)).max() < 1e-6

        # hand-built two-row counterexample: swapping the rows moves the output
        w = init_fusion_weights(4, seed=7, zero_residual=False)
        clip = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0]])
        gap = np.abs(fuse_cross(clip, w) - fuse_cross(clip[::-1].copy(), w)).max()
        assert gap > 1e-6
        info["detail"] = f"3 mechanisms invariant on 50 clips; cross order gap {gap:.3f}"


# ------------------------------------------------------------- criterion 8

def test_criterion_08_trainability(capfd):
    with report(capfd, 8, "contrastive training halves the loss") as info:
        t0 = time.perf_counter()
        reductions = []
        for seed in range(5):
            scene = gen_scene(SynthConfig(n_identities=8, n_frames=40, n_categories=2,
                                          embed_dim=16, noise_sigma=0.05,
                                          class_spread=0.1, seed=seed))
            pairs = make_train_pairs(scene, n_clip=5, seed=seed, n_pairs=64)
            w0 = init_fusion_weights(16, seed=seed)
            cfg = TrainConfig(steps=500, learning_rate=0.05, batch_size=8, seed=seed)
            before = float(np.mean([pair_loss(p, w0, cfg) for p in pairs]))
            trained, _curve = train_fusion(pairs, w0, cfg)
            after = float(np.mean([pair_loss(p, trained, cfg) for p in pairs]))
            assert after <= 0.5 * before  # at least a 50% cut, every seed
            reductions.append(100.0 * (1.0 - after / before))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        info["detail"] = (f"reductions {', '.join(f'{r:.0f}%' for r in reductions)} "
                          f"on 5/5 seeds, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 9

def _o_best_matching(preds, gts, thr):
    """Exhaustive max-cardinality, then max-total-IoU matching."""
    best, best_key = [], (-1, -1.0)
    for r in range(min(len(preds), len(gts)), -1, -1):
        for p_sub in itertools.combinations(range(len(preds)), r):
            for g_perm in itertools.permutations(range(len(gts)), r):
                pairs = [(p, g) for p, g in zip(p_sub, g_perm)
                         if _o_iou(preds[p], gts[g]) >= thr]
                key = (len(pairs), sum(_o_iou(preds[p], gts[g]) for p, g in pairs))
                if key > best_key:
                    best, best_key = pairs, key
    return best


def _o_iou(b1, b2):
    ix = max(0.0, min(b1[0] + b1[2], b2[0] + b2[2]) - max(b1[0], b2[0]))
    iy = max(0.0, min(b1[1] + b1[3], b2[1] + b2[3]) - max(b1[1], b2[1]))
    inter = ix * iy
    union = b1[2] * b1[3] + b2[2] * b2[3] - inter
    return inter / union if union > 0 else 0.0


def _o_evaluate(preds, gts, thr):
    """Pure-python re-implementation of the overall scores."""
    frames = sorted({f for p in preds for f in p.boxes} | {f for g in gts for f in g.boxes})
    pair_tpa = {}
    tp = fp = fn = 0
    for f in frames:
        ps = [(i, p.boxes[f]) for i, p in enumerate(preds) if f in p.boxes]
        gs = [(j, g.boxes[f]) for j, g in enumerate(gts) if f in g.boxes]
        matches = _o_best_matching([b for _, b in ps], [b for _, b in gs], thr)
        tp += len(matches)
        fp += len(ps) - len(matches)
        fn += len(gs) - len(matches)
        for r, c in matches:
            key = (ps[r][0], gs[c][0])
            pair_tpa[key] = pair_tpa.get(key, 0) + 1
    ass = cls = 0.0
    for (pi, gi), tpa in pair_tpa.items():
        union = len(preds[pi].boxes) + len(gts[gi].boxes) - tpa
        ass += tpa * tpa / union
        cls += tpa * (1.0 if preds[pi].label == gts[gi].category_id else 0.0)
    denom = tp + fp + fn
    loc_a = 100.0 * tp / denom if denom else 0.0
    ass_a = 100.0 * ass / tp if tp else 0.0
    cls_a = 100.0 * cls / tp if tp else 0.0
    return tp, fp, fn, loc_a, ass_a, cls_a


def _micro_scene(rng):
    n_frames = int(rng.integers(2, 5))
    gts = []
    for tid in range(int(rng.integers(1, 5))):
        boxes = {}
        for f in range(n_frames):
            if rng.random() < 0.85:
                boxes[f] = (float(rng.uniform(0, 8)), float(rng.uniform(0, 8)),
                            float(rng.uniform(1, 4)), float(rng.uniform(1, 4)))
        if boxes:
            gts.append(io.GroundTruthTrack(tid, int(rng.integers(0, 3)), boxes))
    preds = []
    for tid in range(int(rng.integers(1, 5))):
        boxes = {}
        for f in range(n_frames):
            if rng.random() < 0.85:
                if gts and rng.random() < 0.6:
                    src = gts[int(rng.integers(len(gts)))].boxes
                    if f in src:
                        x, y, w, h = src[f]
                        boxes[f] = (x + float(rng.uniform(-1, 1)), y + float(rng.uniform(-1, 1)),
                                    w, h)
                        continue
                boxes[f] = (float(rng.uniform(0, 8)), float(rng.uniform(0, 8)),
                            float(rng.uniform(1, 4)), float(rng.uniform(1, 4)))
        if boxes:
            entries = [io.TrackEntry(f, b, 0.9, 0, 0) for f, b in sorted(boxes.items())]
            preds.append(io.TrackRecord(tid, entries, label=int(rng.integers(0, 3)),
                                        label_source="det"))
    return preds, gts


def test_criterion_09_evaluator_matches_bruteforce(capfd):
    with report(capfd, 9, "evaluator equals exhaustive-assignment oracle") as info:
        rng = np.random.default_rng(909)
        checked = 0
        for _ in range(20):
            preds, gts = _micro_scene(rng)
            rep = evaluate(preds, gts, EvalConfig()).overall
            tp, fp, fn, loc_a, ass_a, cls_a = _o_evaluate(preds, gts, 0.5)
            assert (rep.tp, rep.fp, rep.fn) == (tp, fp, fn)
            assert rep.loc_a == pytest.approx(loc_a, abs=1e-9)
            assert rep.ass_a == pytest.approx(ass_a, abs=1e-9)
            assert rep.cls_a == pytest.approx(cls_a, abs=1e-9)
            checked += 1

        # frozen id-swap example: perfect boxes and labels, broken identities
        gt = [io.GroundTruthTrack(1, 0, {f: (0.0, 0.0, 2.0, 2.0) for f in range(4)}),
              io.GroundTruthTrack(2, 0, {f: (10.0, 0.0, 2.0, 2.0) for f in range(4)})]

        def rec(tid, boxes):
            entries = [io.TrackEntry(f, b, 0.9, 0, 0) for f, b in sorted(boxes.items())]
            return io.TrackRecord(tid, entries, label=0, label_source="det")

        preds = [rec(101, {0: (0.0, 0.0, 2.0, 2.0), 1: (0.0, 0.0, 2.0, 2.0),
                           2: (10.0, 0.0, 2.0, 2.0), 3: (10.0, 0.0, 2.0, 2.0)}),
                 rec(102, {0: (10.0, 0.0, 2.0, 2.0), 1: (10.0, 0.0, 2.0, 2.0),
                           2: (0.0, 0.0, 2.0, 2.0), 3: (0.0, 0.0, 2.0, 2.0)})]
        rep = evaluate(preds, gt, EvalConfig()).overall
        assert rep.loc_a == pytest.approx(100.0, abs=1e-12)
        assert rep.ass_a == pytest.approx(100.0 / 3.0, abs=1e-12)
        assert rep.ass_a < 100.0
        assert rep.cls_a == pytest.approx(100.0, abs=1e-12)
        info["detail"] = f"{checked} micro-scenes exact; id-swap gives AssA 100/3"


# ------------------------------------------------------------ criterion 10

def test_criterion_10_throughput(capfd, tmp_path):
    with report(capfd, 10, "track subcommand under 1 s at d=768") as info:
        scene = gen_scene(SynthConfig(n_identities=20, n_frames=100, n_categories=4,
                                      embed_dim=768, noise_sigma=0.0, seed=1010))
        det_path = tmp_path / "detections.jsonl"
        io.write_detections(scene.detections, det_path, sidecar=True)
        io.write_vocabulary(scene.vocabulary, tmp_path / "vocabulary.json")
        out = tmp_path / "run"
        t0 = time.perf_counter()
        rc = cli.main(["track", "--detections", str(det_path),
                       "--vocabulary", str(tmp_path / "vocabulary.json"),
                       "--out-dir", str(out)])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        tracks = io.read_tracks(out / "tracks.jsonl")
        assert len(tracks) == 20
        assert elapsed < 1.0
        info["detail"] = f"2000 detections, 20 tracks, {elapsed:.2f}s"


# ------------------------------------------------------------ criterion 11

def _run_twice(args, tmp_path, tag, outputs):
    dirs = []
    for k in (0, 1):
        out = tmp_path / f"{tag}{k}"
        rc = cli.main([str(a) for a in args] + ["--out-dir", str(out)])
        assert rc == 0
        dirs.append(out)
    for name in outputs:
        b0 = (dirs[0] / name).read_bytes()
        b1 = (dirs[1] / name).read_bytes()
        assert b0 == b1, f"{tag}: {name} differs between identical runs"
    return dirs[0]


def test_criterion_11_cli_determinism(capfd, tmp_path):
    with report(capfd, 11, "every subcommand is byte-deterministic") as info:
        scene_args = ["synth", "--identities", 5, "--frames", 10, "--categories", 2,
                      "--dim", 8, "--sigma", 0.1, "--fp-rate", 0.3, "--seed", 5,
                      "--sidecar"]
        scene = _run_twice(scene_args, tmp_path, "synth",
                           ["detections.jsonl", "detections.embin", "groundtruth.jsonl",
                            "vocabulary.json", "synth_manifest.json"])

        track_args = ["track", "--detections", scene / "detections.jsonl",
                      "--vocabulary", scene / "vocabulary.json", "--dump-csv"]
        run = _run_twice(track_args, tmp_path, "track",
                         ["tracks.jsonl", "events.jsonl", "scores.csv", "track_manifest.json"])

        _run_twice(["classify", "--tracks", run / "tracks.jsonl",
                    "--detections", scene / "detections.jsonl",
                    "--vocabulary", scene / "vocabulary.json"],
                   tmp_path, "classify", ["tracks.jsonl", "classify_manifest.json"])

        _run_twice(["eval", "--pred", run / "tracks.jsonl",
                    "--gt", scene / "groundtruth.jsonl",
                    "--vocabulary", scene / "vocabulary.json"],
                   tmp_path, "eval", ["report.json", "eval_manifest.json"])

        _run_twice(["train", "--steps", 30, "--identities", 4, "--frames", 12,
                    "--dim", 8, "--pairs", 8, "--seed", 2],
                   tmp_path, "train", ["weights.twb", "loss_curve.json", "train_manifest.json"])

        _run_twice(["bench-fusion", "--identities", 4, "--frames", 8, "--categories", 2,
                    "--dim", 8, "--scenes", 2],
                   tmp_path, "bench", ["bench.json", "bench-fusion_manifest.json"])
        info["detail"] = "synth, track, classify, eval, train, bench-fusion all byte-identical"
