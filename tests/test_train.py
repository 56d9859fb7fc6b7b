"""Loss values, gradient agreement and optimizer behavior."""

import math

import numpy as np
import pytest

from trajkit import train
from trajkit.errors import DimMismatchError, DivergedError, TrajkitError, ZeroNormError
from trajkit.fusion import fuse_self_backward, fuse_self_forward, init_fusion_weights
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


def test_contrastive_loss_frozen_values():
    # positive pair: half the squared distance
    fa = np.array([0.0, 0.0])
    fb = np.array([3.0, 4.0])
    assert contrastive_loss(fa, fb, 1) == pytest.approx(12.5)
    # negative pair inside the margin: half the squared hinge
    assert contrastive_loss(np.array([0.0, 0.0]), np.array([0.3, 0.0]), 0,
                            margin=0.5) == pytest.approx(0.02)
    # negative pair outside the margin costs nothing
    assert contrastive_loss(fa, fb, 0, margin=0.5) == 0.0


def test_contrastive_loss_cosine_distance():
    fa = np.array([1.0, 0.0])
    fb = np.array([0.0, 1.0])
    # cosine distance 1 - cos = 1
    assert contrastive_loss(fa, fb, 1, distance="cosine") == pytest.approx(0.5)
    assert contrastive_loss(fa, fa, 1, distance="cosine") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ZeroNormError):
        contrastive_loss(np.zeros(2), fb, 1, distance="cosine")


def test_contrastive_loss_label_validation():
    with pytest.raises(ValueError):
        contrastive_loss(np.ones(2), np.ones(2), 2)
    # the training path shares the check; a label of 2 used to train silently
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        loss_and_gradients([TrainPair(np.ones((2, 4)), np.eye(4)[:2], 2)],
                           init_fusion_weights(4, seed=0), TrainConfig())


@pytest.mark.parametrize("heads", [1, 2])
def test_gradients_match_numeric_euclidean(heads):
    rng = np.random.default_rng(0)
    d = 6
    w = init_fusion_weights(d, seed=1, zero_residual=False)
    # normalized outputs sit on the unit sphere, so any margin above 2 keeps
    # the hinge active for negative pairs
    cfg = TrainConfig(margin=2.5, distance="euclidean", heads=heads)
    for y in (1, 0):
        pair = TrainPair(rng.normal(size=(3, d)), rng.normal(size=(2, d)) * 0.2, y)
        loss, grads = loss_and_gradients([pair], w, cfg)
        assert loss > 0
        for name in TRAINABLE_TENSORS:
            num = numeric_gradient(lambda _t: loss_and_gradients([pair], w, cfg)[0],
                                   w[name])
            # atol soaks up finite-difference noise on exactly-zero entries
            # (a shared key bias cancels inside the row softmax, so its
            # analytic gradient is identically zero)
            np.testing.assert_allclose(num, grads[name], rtol=1e-5, atol=1e-8,
                                       err_msg=name)


def test_gradients_match_numeric_cosine():
    rng = np.random.default_rng(1)
    d = 4
    w = init_fusion_weights(d, seed=2, zero_residual=False)
    cfg = TrainConfig(margin=0.8, distance="cosine")
    pair = TrainPair(rng.normal(size=(2, d)), rng.normal(size=(3, d)), 1)
    _, grads = loss_and_gradients([pair], w, cfg)
    for name in TRAINABLE_TENSORS:
        num = numeric_gradient(lambda _t: loss_and_gradients([pair], w, cfg)[0],
                               w[name])
        np.testing.assert_allclose(num, grads[name], rtol=1e-5, atol=1e-8,
                                   err_msg=name)


@pytest.mark.parametrize("distance, margin", [("euclidean", 2.5), ("cosine", 0.8)])
def test_gradients_of_a_whole_step_match_numeric(distance, margin):
    # 2- and 3-row clips, so each stack holds several clips, and pairs drawn
    # more than once: the backward's sums over each stack, with every pair's
    # draws, against finite differences of the count-weighted loss sum
    rng = np.random.default_rng(3)
    d = 4
    w = init_fusion_weights(d, seed=4, zero_residual=False)
    cfg = TrainConfig(margin=margin, distance=distance, heads=2)
    pairs = [TrainPair(rng.normal(size=(na, d)), rng.normal(size=(nb, d)), y)
             for na, nb, y in ((2, 3, 1), (3, 2, 0), (2, 2, 1), (3, 3, 0))]
    counts = [1, 2, 1, 3]
    _, grads = loss_and_gradients(pairs, w, cfg, counts)
    for name in TRAINABLE_TENSORS:
        num = numeric_gradient(
            lambda _t: sum(c * pair_loss(p, w, cfg) for p, c in zip(pairs, counts)), w[name])
        np.testing.assert_allclose(num, grads[name], rtol=1e-4, atol=1e-8, err_msg=name)


def test_analytic_gradients_inventory():
    rng = np.random.default_rng(2)
    d = 4
    w = init_fusion_weights(d, seed=3, zero_residual=False)
    cfg = TrainConfig()
    _, grads = loss_and_gradients([TrainPair(rng.normal(size=(2, d)),
                                             rng.normal(size=(2, d)), 1)], w, cfg)
    assert set(grads) == set(TRAINABLE_TENSORS)
    for name in TRAINABLE_TENSORS:
        assert grads[name].shape == w[name].shape


def test_numeric_gradient_on_quadratic():
    theta = np.array([1.0, -2.0, 3.0])
    grad = numeric_gradient(lambda t: float((t ** 2).sum()), theta)
    np.testing.assert_allclose(grad, 2 * theta, rtol=1e-6)
    np.testing.assert_allclose(theta, [1.0, -2.0, 3.0])  # restored in place


def test_pair_loss_matches_loss_and_gradients():
    # the forward-only loss and the loss of the backprop path are one function
    rng = np.random.default_rng(7)
    for _ in range(40):
        d = int(rng.integers(2, 4)) * 2
        w = init_fusion_weights(d, seed=int(rng.integers(10000)), zero_residual=False)
        cfg = TrainConfig(margin=float(rng.uniform(0.2, 2.5)),
                          distance="euclidean" if rng.random() < 0.5 else "cosine",
                          normalize_outputs=bool(rng.random() < 0.5))
        pair = TrainPair(rng.normal(size=(int(rng.integers(1, 5)), d)),
                         rng.normal(size=(int(rng.integers(1, 5)), d)), int(rng.integers(0, 2)))
        assert pair_loss(pair, w, cfg) == loss_and_gradients([pair], w, cfg)[0]


def test_heads_must_divide_width():
    w = init_fusion_weights(6, seed=0)
    pair = TrainPair(np.ones((2, 6)), np.ones((2, 6)), 1)
    with pytest.raises(DimMismatchError):
        loss_and_gradients([pair], w, TrainConfig(heads=4))


@pytest.mark.parametrize("heads", [0, -1])
def test_heads_must_be_positive(heads):
    # heads=0 used to raise ZeroDivisionError, heads=-1 a reshape ValueError
    w = init_fusion_weights(6, seed=0)
    pair = TrainPair(np.ones((2, 6)), np.ones((2, 6)), 1)
    with pytest.raises(DimMismatchError):
        loss_and_gradients([pair], w, TrainConfig(heads=heads))


def test_pair_loss_normalization_flag():
    rng = np.random.default_rng(3)
    d = 4
    w = init_fusion_weights(d, seed=4, zero_residual=False)
    pair = TrainPair(rng.normal(size=(2, d)) * 5, rng.normal(size=(2, d)) * 5, 1)
    with_norm = pair_loss(pair, w, TrainConfig(normalize_outputs=True))
    without = pair_loss(pair, w, TrainConfig(normalize_outputs=False))
    # normalized outputs live on the unit sphere, so the distance is bounded by 2
    assert with_norm <= 0.5 * 4 + 1e-12
    assert without != pytest.approx(with_norm)


def test_train_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(4)
    d = 6
    protos = [np.eye(d)[0], np.eye(d)[1]]
    pairs = []
    for k in range(12):
        ca = protos[k % 2] + 0.05 * rng.normal(size=(3, d))
        cb = protos[k % 2] + 0.05 * rng.normal(size=(3, d))
        pairs.append(TrainPair(ca, cb, 1))
        cb2 = protos[(k + 1) % 2] + 0.05 * rng.normal(size=(3, d))
        pairs.append(TrainPair(ca, cb2, 0))
    cfg = TrainConfig(steps=60, learning_rate=0.1, batch_size=4, seed=5)
    w0 = init_fusion_weights(d, seed=6)
    trained, curve = train_fusion(pairs, w0, cfg)
    assert len(curve) == 60
    before = float(np.mean([pair_loss(p, w0, cfg) for p in pairs]))
    after = float(np.mean([pair_loss(p, trained, cfg) for p in pairs]))
    assert after < before
    # the input weights are untouched and a rerun reproduces the curve exactly
    trained2, curve2 = train_fusion(pairs, w0, cfg)
    assert curve == curve2
    np.testing.assert_array_equal(trained["attn.wq"], trained2["attn.wq"])


def _pairs(n, d=4, seed=8):
    rng = np.random.default_rng(seed)
    return [TrainPair(rng.normal(size=(2, d)), rng.normal(size=(3, d)), k % 2) for k in range(n)]


def _expanded_batch_training(pairs, weights, cfg):
    # Reference loop: a batch is the list of batch_size pairs drawn by the
    # cycling cursor, repeats included, and each draw costs one pass.
    weights = weights.copy()
    order = np.random.default_rng(cfg.seed).permutation(len(pairs))
    curve, cursor = [], 0
    for _ in range(cfg.steps):
        batch = [pairs[order[(cursor + j) % len(pairs)]] for j in range(cfg.batch_size)]
        cursor = (cursor + cfg.batch_size) % len(pairs)
        results = [loss_and_gradients([pair], weights, cfg) for pair in batch]
        curve.append(sum(loss for loss, _ in results) / len(batch))
        for name in TRAINABLE_TENSORS:
            weights[name] -= cfg.learning_rate * sum(g[name] for _, g in results) / len(batch)
    return weights, curve


def test_batch_larger_than_pair_count_visits_each_pair_once(monkeypatch):
    pairs = _pairs(5)
    w = init_fusion_weights(4, seed=9, zero_residual=False)
    calls = []
    real = train.loss_and_gradients
    monkeypatch.setattr(train, "loss_and_gradients",
                        lambda batch, *args: calls.append((batch, args[-1])) or real(batch, *args))
    train_fusion(pairs, w, TrainConfig(steps=2, batch_size=15, seed=2))
    # one call per step, carrying the 5 distinct pairs once each with 3 draws
    assert len(calls) == 2
    for batch, counts in calls:
        assert sorted(map(id, batch)) == sorted(map(id, pairs))
        assert counts == [3] * 5
    _, curve_big = train_fusion(pairs, w, TrainConfig(steps=4, batch_size=15, seed=2))
    _, curve_one = train_fusion(pairs, w, TrainConfig(steps=4, batch_size=5, seed=2))
    np.testing.assert_allclose(curve_big, curve_one, rtol=0, atol=1e-12)


def _pair_by_pair(pairs, weights, cfg, counts):
    # Oracle of a batched step: each pair through its own forward and backward
    # of lone clips, its gradients summed into zeroed arrays and folded into
    # the step's sums pair after pair, as train_fusion did one call per pair.
    total = 0.0
    acc = {name: np.zeros_like(weights[name]) for name in TRAINABLE_TENSORS}
    for pair, count in zip(pairs, counts):
        fa, cache_a = fuse_self_forward(pair.clip_a, weights, cfg.heads)
        fb, cache_b = fuse_self_forward(pair.clip_b, weights, cfg.heads)
        loss, dfa, dfb = train._pair_head(fa, fb, pair.label, cfg)
        grads_a = fuse_self_backward(dfa, cache_a)
        grads_b = fuse_self_backward(dfb, cache_b)
        total += count * loss
        for name in TRAINABLE_TENSORS:
            grad = np.zeros_like(weights[name])
            grad += grads_a[name]
            grad += grads_b[name]
            acc[name] += grad if count == 1 else count * grad
    return total, acc


@pytest.mark.parametrize("batch_size", [3, 7, 12])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("distance", ["euclidean", "cosine"])
def test_batched_step_keeps_the_bits_of_pair_by_pair(batch_size, heads, normalize, distance):
    # 2- and 3-row clips form two stacks; 7 and 12 draws from 5 pairs give
    # counts above 1. A step's loss keeps the oracle's bits; its gradients sum
    # over each stack in one contraction, not pair by pair, so they, the
    # weights and the curve agree to 1e-12.
    pairs = _pairs(5)
    w = init_fusion_weights(4, seed=9, zero_residual=False)
    cfg = TrainConfig(steps=3, batch_size=batch_size, seed=2, learning_rate=0.2, heads=heads,
                      normalize_outputs=normalize, distance=distance,
                      margin=2.5 if distance == "euclidean" else 0.8)
    got_w, got_curve = train_fusion(pairs, w, cfg)
    want_w = w.copy()
    order = np.random.default_rng(cfg.seed).permutation(len(pairs))
    rounds, extra = divmod(batch_size, len(pairs))
    counts = [rounds + (j < extra) for j in range(min(batch_size, len(pairs)))]
    want_curve, cursor = [], 0
    for _ in range(cfg.steps):
        batch = [pairs[order[(cursor + j) % len(pairs)]] for j in range(len(counts))]
        cursor = (cursor + batch_size) % len(pairs)
        total, grads = _pair_by_pair(batch, want_w, cfg, counts)
        got_total, got_grads = loss_and_gradients(batch, want_w, cfg, counts)
        assert got_total == total
        for name in TRAINABLE_TENSORS:
            np.testing.assert_allclose(got_grads[name], grads[name], rtol=0, atol=1e-12, err_msg=name)
        want_curve.append(total / batch_size)
        for name in TRAINABLE_TENSORS:
            want_w[name] -= cfg.learning_rate * grads[name] / batch_size
    np.testing.assert_allclose(got_curve, want_curve, rtol=0, atol=1e-12)
    for name in TRAINABLE_TENSORS:
        np.testing.assert_allclose(got_w[name], want_w[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("width", [3, 6])
def test_clip_of_the_wrong_width_names_its_pair(width):
    # used to fail inside numpy with "operands could not be broadcast"
    pairs = _pairs(4)
    pairs[2] = TrainPair(pairs[2].clip_a, np.ones((3, width)), 0)
    w = init_fusion_weights(4, seed=9)
    message = rf"clip_b has shape \(3, {width}\): width {width}, not 4"
    with pytest.raises(DimMismatchError, match="pair 2 " + message):
        train_fusion(pairs, w, TrainConfig(steps=1))
    with pytest.raises(DimMismatchError, match="pair 0 " + message):
        loss_and_gradients([pairs[2]], w, TrainConfig())


def test_empty_clip_names_its_pair():
    # used to fail inside numpy with "zero-size array to reduction operation"
    pairs = _pairs(3)
    pairs[1] = TrainPair(np.ones((0, 4)), pairs[1].clip_b, 1)
    w = init_fusion_weights(4, seed=9)
    with pytest.raises(TrajkitError, match="pair 1 clip_a is an empty clip"):
        train_fusion(pairs, w, TrainConfig(steps=1))


@pytest.mark.parametrize("batch_size", [3, 7, 12])
def test_batch_weights_each_pair_by_its_draws(batch_size):
    # 7 and 12 draws from 5 pairs repeat some pairs within a batch; the
    # weighted visit must train as the expanded batch does
    pairs = _pairs(5)
    w = init_fusion_weights(4, seed=9, zero_residual=False)
    cfg = TrainConfig(steps=4, batch_size=batch_size, seed=2, learning_rate=0.2)
    got_w, got_curve = train_fusion(pairs, w, cfg)
    want_w, want_curve = _expanded_batch_training(pairs, w, cfg)
    np.testing.assert_allclose(got_curve, want_curve, rtol=0, atol=1e-12)
    for name in TRAINABLE_TENSORS:
        np.testing.assert_allclose(got_w[name], want_w[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reports_step():
    # overflow on the way to NaN is the point of this test
    rng = np.random.default_rng(5)
    d = 4
    pairs = [TrainPair(rng.normal(size=(2, d)), rng.normal(size=(2, d)), 1)
             for k in range(6)]
    w = init_fusion_weights(d, seed=7, zero_residual=False)
    # unnormalized outputs let the distance blow up under a huge step size
    cfg = TrainConfig(steps=200, learning_rate=1e9, batch_size=2, seed=0,
                      normalize_outputs=False)
    with pytest.raises(DivergedError) as exc:
        train_fusion(pairs, w, cfg)
    assert exc.value.step >= 0


@pytest.mark.parametrize("rate", [-0.5, 0.0, math.nan, math.inf])
def test_train_config_rejects_bad_learning_rate(rate):
    # a negative rate used to train by gradient ascent and exit 0; NaN and inf
    # failed later as a diverged loss that named no option
    with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
        TrainConfig(learning_rate=rate)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(distance="manhattan")
    with pytest.raises(ValueError):
        TrainConfig(margin=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(steps=-5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
