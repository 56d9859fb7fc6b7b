"""Transformer-style ops checked against slow scalar re-implementations."""

import hashlib
import math

import numpy as np
import pytest

from trajkit import io
from trajkit.errors import DimMismatchError, MissingWeightsError
from trajkit.fusion import (
    FUSION_TENSOR_NAMES,
    FusionWeights,
    concat_score,
    cross_attention,
    fuse_attention,
    fuse_average,
    fuse_cross,
    fuse_self,
    gelu,
    init_fusion_weights,
    layer_norm,
    mlp_block,
    self_attention,
    validate_fusion_shapes,
)


def _oracle_layer_norm(x, gamma, beta, eps):
    out = []
    for row in x:
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        out.append([(v - mu) / math.sqrt(var + eps) * g + b
                    for v, g, b in zip(row, gamma, beta)])
    return out


def _oracle_gelu(x):
    return [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]


def _oracle_attention(q_rows, kv_rows, w, heads):
    """Scalar multi-head attention: q from q_rows, k/v from kv_rows."""
    d = len(q_rows[0])
    dh = d // heads
    q = [[sum(q_rows[i][a] * w["wq"][a][b] for a in range(d)) + w["bq"][b]
          for b in range(d)] for i in range(len(q_rows))]
    k = [[sum(kv_rows[i][a] * w["wk"][a][b] for a in range(d)) + w["bk"][b]
          for b in range(d)] for i in range(len(kv_rows))]
    v = [[sum(kv_rows[i][a] * w["wv"][a][b] for a in range(d)) + w["bv"][b]
          for b in range(d)] for i in range(len(kv_rows))]
    ctx = [[0.0] * d for _ in range(len(q_rows))]
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(len(q_rows)):
            logits = [sum(q[i][sl][a] * k[j][sl][a] for a in range(dh)) / math.sqrt(dh)
                      for j in range(len(kv_rows))]
            mx = max(logits)
            ex = [math.exp(z - mx) for z in logits]
            s = sum(ex)
            attn = [e / s for e in ex]
            for a in range(dh):
                ctx[i][h * dh + a] = sum(attn[j] * v[j][sl][a] for j in range(len(kv_rows)))
    return [[sum(ctx[i][a] * w["wo"][a][b] for a in range(d)) + w["bo"][b]
             for b in range(d)] for i in range(len(q_rows))]


def _attn_dict(p):
    return {k: getattr(p, k).tolist() for k in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")}


def test_layer_norm_frozen():
    out = layer_norm(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2), eps=0.0)
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n, d = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        x = rng.normal(size=(n, d))
        gamma = rng.normal(size=d)
        beta = rng.normal(size=d)
        got = layer_norm(x, gamma, beta)
        want = _oracle_layer_norm(x.tolist(), gamma.tolist(), beta.tolist(), 1e-5)
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_gelu_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=40) * 3
    np.testing.assert_allclose(gelu(x), _oracle_gelu(x.tolist()), rtol=1e-12)
    assert gelu(np.array([0.0]))[0] == 0.0


def test_self_attention_oracle():
    rng = np.random.default_rng(2)
    for heads in (1, 2):
        for _ in range(10):
            d = int(rng.integers(1, 5)) * 2 * heads
            d = min(d, 16)
            n = int(rng.integers(1, 5))
            w = init_fusion_weights(d, seed=int(rng.integers(1000)), zero_residual=False)
            x = rng.normal(size=(n, d))
            got = self_attention(x, w.attn, heads=heads)
            want = _oracle_attention(x.tolist(), x.tolist(), _attn_dict(w.attn), heads)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_cross_attention_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(1, 9)) * 2
        n = int(rng.integers(1, 4))
        w = init_fusion_weights(d, seed=int(rng.integers(1000)), zero_residual=False)
        q = rng.normal(size=(1, d))
        kv = rng.normal(size=(n, d))
        got = cross_attention(q, kv, w.cross, heads=2)
        want = _oracle_attention(q.tolist(), kv.tolist(), _attn_dict(w.cross), 2)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_mlp_block_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        w = init_fusion_weights(d, seed=int(rng.integers(1000)), zero_residual=False)
        x = rng.normal(size=(3, d))
        got = mlp_block(x, w.mlp)
        h = x @ w.mlp.w1 + w.mlp.b1
        act = np.array([_oracle_gelu(row) for row in h.tolist()])
        want = act @ w.mlp.w2 + w.mlp.b2
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_fuse_average_is_column_mean():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    np.testing.assert_allclose(fuse_average(x), x.mean(axis=0), rtol=1e-14)
    single = rng.normal(size=(1, 6))
    np.testing.assert_allclose(fuse_average(single), single[0], rtol=1e-14)


def test_fuse_self_zero_residual_equals_average():
    rng = np.random.default_rng(6)
    for seed in range(10):
        d = int(rng.integers(2, 9)) * 2
        w = init_fusion_weights(d, seed=seed)  # zero_residual=True zeroes W_O and W_2
        clip = rng.normal(size=(int(rng.integers(1, 6)), d))
        np.testing.assert_allclose(fuse_self(clip, w), fuse_average(clip), atol=1e-12)


def test_fuse_self_residual_structure():
    # with residual disabled the block reduces to Avg(MLP(SA(x)))
    rng = np.random.default_rng(7)
    d = 8
    w = init_fusion_weights(d, seed=3, zero_residual=False)
    x = rng.normal(size=(4, d))
    got = fuse_self(x, w, residual=False)
    want = fuse_average(mlp_block(self_attention(x, w.attn), w.mlp))
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_fuse_attention_structure():
    rng = np.random.default_rng(8)
    d = 6
    w = init_fusion_weights(d, seed=4, zero_residual=False)
    x = rng.normal(size=(3, d))
    np.testing.assert_allclose(fuse_attention(x, w), fuse_average(self_attention(x, w.attn)),
                               rtol=1e-12)


def test_fuse_cross_sequential():
    # folding rows one at a time, starting from the first row
    rng = np.random.default_rng(9)
    d = 6
    w = init_fusion_weights(d, seed=5, zero_residual=False)
    x = rng.normal(size=(3, d))
    fused = x[0]
    for i in range(1, 3):
        fused = cross_attention(fused[None, :], x[i][None, :], w.cross, heads=1)[0]
    np.testing.assert_allclose(fuse_cross(x, w), fused, rtol=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d = 8
        n = int(rng.integers(2, 6))
        w = init_fusion_weights(d, seed=int(rng.integers(1000)), zero_residual=False)
        x = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        np.testing.assert_allclose(fuse_average(x), fuse_average(x[perm]), atol=1e-9)
        np.testing.assert_allclose(fuse_attention(x, w), fuse_attention(x[perm], w), atol=1e-9)
        np.testing.assert_allclose(fuse_self(x, w), fuse_self(x[perm], w), atol=1e-9)


def test_cross_order_sensitivity():
    d = 4
    w = init_fusion_weights(d, seed=11, zero_residual=False)
    x = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0]])
    a = fuse_cross(x, w)
    b = fuse_cross(x[::-1].copy(), w)
    assert np.abs(a - b).max() > 1e-6


def test_concat_score_range_and_lang_dependence():
    rng = np.random.default_rng(12)
    d = 8
    w = init_fusion_weights(d, seed=6, zero_residual=False)
    clip = rng.normal(size=(4, d))
    s1 = concat_score(clip, rng.normal(size=d), w)
    s2 = concat_score(clip, rng.normal(size=d), w)
    assert 0.0 < s1 < 1.0 and 0.0 < s2 < 1.0
    assert s1 != s2


@pytest.mark.parametrize("d", [8, 32])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 3, 7])
def test_concat_score_batch_matches_rowwise(d, heads, n):
    rng = np.random.default_rng(100 * d + 10 * heads + n)
    w = init_fusion_weights(d, seed=d + n, zero_residual=False)
    clip = rng.normal(size=(n, d))
    rows = rng.normal(size=(6, d))
    batch = concat_score(clip, rows, w, heads)
    assert batch.shape == (6,)
    np.testing.assert_allclose(batch, [concat_score(clip, r, w, heads) for r in rows],
                               rtol=0, atol=1e-15)


def test_concat_score_vector_gives_float():
    rng = np.random.default_rng(14)
    w = init_fusion_weights(8, seed=6, zero_residual=False)
    score = concat_score(rng.normal(size=(3, 8)), rng.normal(size=8), w)
    assert type(score) is float


@pytest.mark.parametrize("lang_shape", [(4, 6), (6,), (2, 3, 8)])
def test_concat_score_rejects_mismatched_language(lang_shape):
    rng = np.random.default_rng(15)
    w = init_fusion_weights(8, seed=6, zero_residual=False)
    with pytest.raises(DimMismatchError):
        concat_score(rng.normal(size=(3, 8)), rng.normal(size=lang_shape), w)


def test_fusion_outputs_keep_their_bits():
    # Pins the exact output bits of every attention-based mechanism on one
    # fixed input, so a change to the shared attention pass that moves a
    # last bit shows here. A numpy or BLAS build that rounds its small
    # matrix products differently needs new hashes.
    rng = np.random.default_rng(2024)
    clip = rng.normal(size=(5, 8))
    lang = rng.normal(size=(3, 8))
    w = init_fusion_weights(8, seed=21, zero_residual=False)
    outs = {
        "attention": fuse_attention(clip, w, 2),
        "self": fuse_self(clip, w, 2),
        "self_noresidual": fuse_self(clip, w, 2, residual=False),
        "cross": fuse_cross(clip, w, 2),
        "concat": concat_score(clip, lang, w, 2),
    }
    hashes = {k: hashlib.sha256(np.asarray(v, dtype=np.float64).tobytes()).hexdigest()[:16]
              for k, v in outs.items()}
    assert hashes == {
        "attention": "56f9bc011f29203c",
        "self": "612f1d8cbb7fac9a",
        "self_noresidual": "8be761db879232c1",
        "cross": "43b81e2e5e2179c7",
        "concat": "eb2c8686fa194a94",
    }


def test_init_weights_shapes_and_determinism():
    d = 10
    w1 = init_fusion_weights(d, seed=7)
    w2 = init_fusion_weights(d, seed=7)
    assert w1.d == d
    assert w1.attn.wq.shape == (d, d)
    assert w1.mlp.w1.shape == (d, 4 * d)
    assert w1.concat.fc_w.shape == (d, 1) or w1.concat.fc_w.shape == (d,)
    for name, t in w1.to_dict().items():
        np.testing.assert_array_equal(t, w2.to_dict()[name])
    w3 = init_fusion_weights(d, seed=8)
    assert np.abs(w1.attn.wq - w3.attn.wq).max() > 0


def test_weights_roundtrip_through_bundle(tmp_path):
    rng = np.random.default_rng(13)
    d = 8
    w = init_fusion_weights(d, seed=9, zero_residual=False)
    path = tmp_path / "w.twb"
    io.write_weights(w.to_dict(), path)
    back = FusionWeights.from_bundle(io.load_weights(path))
    clip = rng.normal(size=(3, d))
    # payloads persist as float32, so agreement is at single precision
    np.testing.assert_allclose(fuse_self(clip, back), fuse_self(clip, w), atol=1e-5)
    np.testing.assert_allclose(fuse_cross(clip, back), fuse_cross(clip, w), atol=1e-5)


def test_validate_missing_tensor():
    w = init_fusion_weights(6, seed=1)
    tensors = w.to_dict()
    tensors.pop("mlp.w2")
    with pytest.raises(MissingWeightsError, match="mlp.w2"):
        validate_fusion_shapes(tensors)


def test_validate_shape_mismatch():
    w = init_fusion_weights(6, seed=1)
    tensors = dict(w.to_dict())
    tensors["attn.wk"] = np.zeros((6, 5))
    with pytest.raises(DimMismatchError):
        validate_fusion_shapes(tensors)


def test_validate_lang_proj_rectangular_ok():
    w = init_fusion_weights(6, d_text=9, seed=2)
    assert w.lang_proj.shape == (9, 6)
    d = validate_fusion_shapes(w.to_dict())
    assert d == 6


def test_tensor_name_inventory():
    w = init_fusion_weights(4, seed=0)
    assert tuple(w.to_dict().keys()) == FUSION_TENSOR_NAMES
    assert len(FUSION_TENSOR_NAMES) == 29
