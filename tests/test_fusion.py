"""Transformer-style ops checked against slow scalar re-implementations."""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import softmax

from trajkit import fusion, io
from trajkit.errors import DimMismatchError, MissingWeightsError
from trajkit.fusion import (
    FUSION_TENSOR_NAMES,
    FusionWeights,
    concat_score,
    fuse_attention,
    fuse_average,
    fuse_cross,
    fuse_self,
    gelu,
    init_fusion_weights,
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


def _attn_dict(w, group):
    return {k: w[f"{group}.{k}"].tolist() for k in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")}


def test_layer_norm_frozen():
    out = fusion._layer_norm_forward(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2), 0.0)[0]
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n, d = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        x = rng.normal(size=(n, d))
        gamma = rng.normal(size=d)
        beta = rng.normal(size=d)
        got = fusion._layer_norm_forward(x, gamma, beta, 1e-5)[0]
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
            got = self_attention(x, w, heads=heads)
            want = _oracle_attention(x.tolist(), x.tolist(), _attn_dict(w, "attn"), heads)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_mlp_block_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        w = init_fusion_weights(d, seed=int(rng.integers(1000)), zero_residual=False)
        x = rng.normal(size=(3, d))
        got = fusion._mlp_forward(x, w)[0]
        h = x @ w["mlp.w1"] + w["mlp.b1"]
        act = np.array([_oracle_gelu(row) for row in h.tolist()])
        want = act @ w["mlp.w2"] + w["mlp.b2"]
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


def test_fuse_attention_structure():
    rng = np.random.default_rng(8)
    d = 6
    w = init_fusion_weights(d, seed=4, zero_residual=False)
    x = rng.normal(size=(3, d))
    np.testing.assert_allclose(fuse_attention(x, w), fuse_average(self_attention(x, w)),
                               rtol=1e-12)


def _folded_cross(clip, w, heads):
    """Cross-attention folded over the rows in numpy, one full attention pass a step:
    the running vector is the query, the next row the only key and value."""
    x = np.atleast_2d(clip)
    g = {k: w[f"cross.{k}"] for k in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")}
    d = x.shape[1]
    fused = x[0]
    for row in x[1:]:
        q, kv = fused[None, :], row[None, :]
        qh, kh, vh = ((a @ g[f"w{key}"] + g[f"b{key}"]).reshape(1, heads, d // heads)
                      for a, key in ((q, "q"), (kv, "k"), (kv, "v")))
        scores = np.einsum("nhk,mhk->hnm", qh, kh) / np.sqrt(d // heads)
        mixed = np.einsum("hnm,mhk->nhk", softmax(scores, axis=-1), vh).reshape(1, d)
        fused = (mixed @ g["wo"] + g["bo"])[0]
    return fused


def test_fuse_cross_sequential():
    # the closed form keeps every bit of the fold, one attention pass per further row
    rng = np.random.default_rng(9)
    for d in (2, 8, 64):
        for heads in (h for h in range(1, d + 1) if d % h == 0):
            w = init_fusion_weights(d, seed=d + heads, zero_residual=False)
            for n in range(1, 8):
                x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
                got = fuse_cross(x, w, heads)
                assert got.shape == (d,)
                assert got.tobytes() == _folded_cross(x, w, heads).tobytes(), (d, heads, n)


@pytest.mark.parametrize("heads, message", [
    (0, "heads must be at least 1, got 0"),
    (3, "width 8 is not divisible by 3 heads"),
])
def test_fuse_cross_refuses_heads_that_do_not_split_the_width(heads, message):
    rng = np.random.default_rng(18)
    w = init_fusion_weights(8, seed=6, zero_residual=False)
    for n in (2, 5):
        with pytest.raises(DimMismatchError, match=message):
            fuse_cross(rng.normal(size=(n, 8)), w, heads)
    # a one-row clip is returned before any projection, so heads are never checked
    row = rng.normal(size=(1, 8))
    assert fuse_cross(row, w, heads).tobytes() == row[0].tobytes()


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


def _stacked_concat_score(clip, rows, w, heads):
    """The concat scorer written out: every [clip; row] stack self-attended, mean-pooled,
    projected by pool_w and fc_w and squashed."""
    stacks = np.concatenate([np.broadcast_to(clip, (len(rows), *clip.shape)), rows[:, None]], axis=1)
    pooled = self_attention(stacks, w, heads).mean(axis=-2)
    raw = (pooled @ w["concat.pool_w"] + w["concat.pool_b"]) @ w["concat.fc_w"] + w["concat.fc_b"]
    return 1.0 / (1.0 + np.exp(-raw))


@pytest.mark.parametrize("d, heads", [(d, h) for d in (4, 8, 64) for h in (1, 2, 4) if d % h == 0])
@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_concat_score_matches_stacked_attention(d, heads, n):
    rng = np.random.default_rng(1000 * d + 10 * heads + n)
    w = init_fusion_weights(d, seed=d + n, zero_residual=False)
    mute = w.copy()
    mute["attn.wo"][:] = 0.0
    clip = rng.normal(size=(n, d))
    for v in (1, 3, 200):
        rows = rng.normal(size=(v, d))
        for weights in (w, mute):
            want = _stacked_concat_score(clip, rows, weights, heads)
            got = concat_score(clip, rows, weights, heads)
            assert got.shape == (v,)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert got.argmax() == want.argmax()
        # with a zero attn.wo no row reaches the score, so every row scores the same
        assert np.all(got == got[0])


@pytest.mark.parametrize("heads, message", [
    (0, "heads must be at least 1, got 0"),
    (3, "width 8 is not divisible by 3 heads"),
])
def test_concat_score_refuses_heads_that_do_not_split_the_width(heads, message):
    rng = np.random.default_rng(16)
    w = init_fusion_weights(8, seed=6, zero_residual=False)
    with pytest.raises(DimMismatchError, match=message):
        concat_score(rng.normal(size=(3, 8)), rng.normal(size=(4, 8)), w, heads)


def test_concat_score_of_no_language_rows_is_empty():
    rng = np.random.default_rng(17)
    w = init_fusion_weights(8, seed=6, zero_residual=False)
    assert concat_score(rng.normal(size=(3, 8)), np.zeros((0, 8)), w, 2).shape == (0,)


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
        "cross": fuse_cross(clip, w, 2),
        "concat": concat_score(clip, lang, w, 2),
    }
    hashes = {k: hashlib.sha256(np.asarray(v, dtype=np.float64).tobytes()).hexdigest()[:16]
              for k, v in outs.items()}
    assert hashes == {
        "attention": "56f9bc011f29203c",
        "self": "612f1d8cbb7fac9a",
        "cross": "43b81e2e5e2179c7",
        "concat": "eb2c8686fa194a94",
    }


def test_init_weights_shapes_and_determinism():
    d = 10
    w1 = init_fusion_weights(d, seed=7)
    w2 = init_fusion_weights(d, seed=7)
    assert w1.d == d
    assert w1["attn.wq"].shape == (d, d)
    assert w1["mlp.w1"].shape == (d, 4 * d)
    assert w1["concat.fc_w"].shape == (d, 1) or w1["concat.fc_w"].shape == (d,)
    for name, t in w1.items():
        np.testing.assert_array_equal(t, w2[name])
    w3 = init_fusion_weights(d, seed=8)
    assert np.abs(w1["attn.wq"] - w3["attn.wq"]).max() > 0


@pytest.mark.parametrize("zero_residual, d_text, digest", [
    (True, 6, "dd2771ca9249926dd860c421cabe7161c905fe4bb5f1f6e17778e36be1261553"),
    (True, 9, "8a88894bc66d00eb19d7c080c3a877f9849b2196abfb68481a34c6c9dfd5a0a8"),
    (False, 6, "3c18e7212491df3a32fa240fc49a66166a0f829acf00785f8c66dc71feb30a3c"),
    (False, 9, "08d3daf41a56fc6e11db14cf40cf975a81f48b75c7eb3d75e2f2538f251b74dd"),
])
def test_init_weights_keep_their_bytes(tmp_path, zero_residual, d_text, digest):
    # Pins the bundle bytes of a fresh initialization: the tensor order and
    # the order of the random draws must both stay put.
    path = tmp_path / "w.twb"
    io.write_weights(init_fusion_weights(6, hidden=10, d_text=d_text, seed=3,
                                         zero_residual=zero_residual), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_fusion_weights_is_the_bundle_dict():
    w = init_fusion_weights(6, seed=1)
    tensors = {name: w[name].astype(np.float32) for name in reversed(FUSION_TENSOR_NAMES)}
    built = FusionWeights({**tensors, "extra.w": np.zeros(3)})
    assert tuple(built) == FUSION_TENSOR_NAMES
    assert all(built[name].dtype == np.float64 for name in built)
    copied = w.copy()
    assert type(copied) is FusionWeights
    copied["attn.wq"] += 1.0
    assert not np.shares_memory(copied["attn.wq"], w["attn.wq"])
    assert np.all(copied["attn.wq"] == w["attn.wq"] + 1.0)


def test_weights_roundtrip_through_bundle(tmp_path):
    rng = np.random.default_rng(13)
    d = 8
    w = init_fusion_weights(d, seed=9, zero_residual=False)
    path = tmp_path / "w.twb"
    io.write_weights(w, path)
    back = FusionWeights(io.load_weights(path))
    clip = rng.normal(size=(3, d))
    # payloads persist as float32, so agreement is at single precision
    np.testing.assert_allclose(fuse_self(clip, back), fuse_self(clip, w), atol=1e-5)
    np.testing.assert_allclose(fuse_cross(clip, back), fuse_cross(clip, w), atol=1e-5)


def test_validate_missing_tensor():
    w = init_fusion_weights(6, seed=1)
    tensors = w
    tensors.pop("mlp.w2")
    with pytest.raises(MissingWeightsError, match="mlp.w2"):
        validate_fusion_shapes(tensors)


def test_validate_shape_mismatch():
    w = init_fusion_weights(6, seed=1)
    tensors = dict(w)
    tensors["attn.wk"] = np.zeros((6, 5))
    with pytest.raises(DimMismatchError):
        validate_fusion_shapes(tensors)


@pytest.mark.parametrize("name", FUSION_TENSOR_NAMES)
def test_validate_checks_every_tensor_shape(name):
    tensors = init_fusion_weights(6, hidden=10, d_text=9, seed=1)
    tensors[name] = np.zeros(tensors[name].shape + (2,))
    with pytest.raises(DimMismatchError, match=rf"tensor {name} has shape"):
        validate_fusion_shapes(tensors)


@pytest.mark.parametrize("name, shape, message", [
    ("mlp.w1", (5, 10), "tensor mlp.w1 has shape (5, 10), expected (6, 10)"),
    ("mlp.w1", (6,), "tensor mlp.w1 has shape (6,), expected a rank-2 tensor"),
    ("mlp.w2", (10, 5), "tensor mlp.w2 has shape (10, 5), expected (10, 6)"),
    ("lang_proj.w", (9, 5), "tensor lang_proj.w has shape (9, 5), expected (9, 6)"),
    ("concat.fc_b", (2,), "tensor concat.fc_b has shape (2,), expected ()"),
])
def test_validate_names_the_expected_shape(name, shape, message):
    tensors = init_fusion_weights(6, hidden=10, d_text=9, seed=1)
    tensors[name] = np.zeros(shape)
    with pytest.raises(DimMismatchError) as exc:
        validate_fusion_shapes(tensors)
    assert str(exc.value) == message


def test_validate_accepts_one_element_fc_b():
    tensors = init_fusion_weights(6, seed=1)
    tensors["concat.fc_b"] = np.zeros(1)
    assert validate_fusion_shapes(tensors) == 6


def test_validate_lang_proj_rectangular_ok():
    w = init_fusion_weights(6, d_text=9, seed=2)
    assert w["lang_proj.w"].shape == (9, 6)
    d = validate_fusion_shapes(w)
    assert d == 6


def test_tensor_name_inventory():
    w = init_fusion_weights(4, seed=0)
    assert tuple(w.keys()) == FUSION_TENSOR_NAMES
    assert len(FUSION_TENSOR_NAMES) == 29
