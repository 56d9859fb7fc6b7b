"""Loss values, gradient agreement and optimizer behavior."""

import math

import numpy as np
import pytest

from trajkit.errors import DivergedError, ZeroNormError
from trajkit.fusion import init_fusion_weights
from trajkit.train import (
    TRAINABLE_TENSORS,
    TrainConfig,
    TrainPair,
    analytic_gradients,
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


def test_gradients_match_numeric_euclidean():
    rng = np.random.default_rng(0)
    d = 6
    w = init_fusion_weights(d, seed=1, zero_residual=False)
    # normalized outputs sit on the unit sphere, so any margin above 2 keeps
    # the hinge active for negative pairs
    cfg = TrainConfig(margin=2.5, distance="euclidean", d=d)
    for y in (1, 0):
        pair = TrainPair(rng.normal(size=(3, d)), rng.normal(size=(2, d)) * 0.2, y)
        loss, grads = loss_and_gradients(pair, w, cfg)
        assert loss > 0
        tensors = w.to_dict()
        for name in TRAINABLE_TENSORS:
            num = numeric_gradient(lambda _t: loss_and_gradients(pair, w, cfg)[0],
                                   tensors[name])
            # atol soaks up finite-difference noise on exactly-zero entries
            # (a shared key bias cancels inside the row softmax, so its
            # analytic gradient is identically zero)
            np.testing.assert_allclose(num, grads[name], rtol=1e-5, atol=1e-8,
                                       err_msg=name)


def test_gradients_match_numeric_cosine():
    rng = np.random.default_rng(1)
    d = 4
    w = init_fusion_weights(d, seed=2, zero_residual=False)
    cfg = TrainConfig(margin=0.8, distance="cosine", d=d)
    pair = TrainPair(rng.normal(size=(2, d)), rng.normal(size=(3, d)), 1)
    _, grads = loss_and_gradients(pair, w, cfg)
    tensors = w.to_dict()
    for name in TRAINABLE_TENSORS:
        num = numeric_gradient(lambda _t: loss_and_gradients(pair, w, cfg)[0],
                               tensors[name])
        np.testing.assert_allclose(num, grads[name], rtol=1e-5, atol=1e-8,
                                   err_msg=name)


def test_analytic_gradients_inventory():
    rng = np.random.default_rng(2)
    d = 4
    w = init_fusion_weights(d, seed=3, zero_residual=False)
    cfg = TrainConfig(d=d)
    grads = analytic_gradients(TrainPair(rng.normal(size=(2, d)),
                                         rng.normal(size=(2, d)), 1), w, cfg)
    assert set(grads) == set(TRAINABLE_TENSORS)
    tensors = w.to_dict()
    for name in TRAINABLE_TENSORS:
        assert grads[name].shape == tensors[name].shape


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
                          normalize_outputs=bool(rng.random() < 0.5), d=d)
        pair = TrainPair(rng.normal(size=(int(rng.integers(1, 5)), d)),
                         rng.normal(size=(int(rng.integers(1, 5)), d)), int(rng.integers(0, 2)))
        assert pair_loss(pair, w, cfg) == pytest.approx(loss_and_gradients(pair, w, cfg)[0],
                                                        rel=0, abs=1e-12)


def test_pair_loss_normalization_flag():
    rng = np.random.default_rng(3)
    d = 4
    w = init_fusion_weights(d, seed=4, zero_residual=False)
    pair = TrainPair(rng.normal(size=(2, d)) * 5, rng.normal(size=(2, d)) * 5, 1)
    with_norm = pair_loss(pair, w, TrainConfig(d=d, normalize_outputs=True))
    without = pair_loss(pair, w, TrainConfig(d=d, normalize_outputs=False))
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
    cfg = TrainConfig(steps=60, learning_rate=0.1, batch_size=4, seed=5, d=d)
    w0 = init_fusion_weights(d, seed=6)
    trained, curve = train_fusion(pairs, w0, cfg)
    assert len(curve) == 60
    before = float(np.mean([pair_loss(p, w0, cfg) for p in pairs]))
    after = float(np.mean([pair_loss(p, trained, cfg) for p in pairs]))
    assert after < before
    # the input weights are untouched and a rerun reproduces the curve exactly
    trained2, curve2 = train_fusion(pairs, w0, cfg)
    assert curve == curve2
    np.testing.assert_array_equal(trained.attn.wq, trained2.attn.wq)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reports_step():
    # overflow on the way to NaN is the point of this test
    rng = np.random.default_rng(5)
    d = 4
    pairs = [TrainPair(rng.normal(size=(2, d)), rng.normal(size=(2, d)), 1)
             for k in range(6)]
    w = init_fusion_weights(d, seed=7, zero_residual=False)
    # unnormalized outputs let the distance blow up under a huge step size
    cfg = TrainConfig(steps=200, learning_rate=1e9, batch_size=2, seed=0, d=d,
                      normalize_outputs=False)
    with pytest.raises(DivergedError) as exc:
        train_fusion(pairs, w, cfg)
    assert exc.value.step >= 0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(distance="manhattan")
    with pytest.raises(ValueError):
        TrainConfig(margin=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(steps=-5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
