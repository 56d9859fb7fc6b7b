"""Scene generator guarantees: determinism, exactness at zero noise, corruptions."""

import math

import numpy as np
import pytest

from trajkit.errors import ZeroNormError
from trajkit.synth import (
    Augmentations,
    SynthConfig,
    _augment_clip,
    _reflect,
    gen_scene,
    make_train_pairs,
)


def _count_dets(scene):
    return sum(len(v) for v in scene.detections.values())


def test_scene_determinism():
    cfg = SynthConfig(n_identities=6, n_frames=15, n_categories=3, embed_dim=8,
                      noise_sigma=0.1, miss_rate=0.2, fp_rate=0.7, label_flip_prob=0.2,
                      seed=11)
    s1 = gen_scene(cfg)
    s2 = gen_scene(cfg)
    assert sorted(s1.detections) == sorted(s2.detections)
    for f in s1.detections:
        assert len(s1.detections[f]) == len(s2.detections[f])
        for a, b in zip(s1.detections[f], s2.detections[f]):
            assert a.bbox == b.bbox and a.confidence == b.confidence
            np.testing.assert_array_equal(a.embedding, b.embedding)
    for i in s1.prototypes:
        np.testing.assert_array_equal(s1.prototypes[i], s2.prototypes[i])
    s3 = gen_scene(SynthConfig(n_identities=6, n_frames=15, n_categories=3, embed_dim=8,
                               noise_sigma=0.1, miss_rate=0.2, fp_rate=0.7,
                               label_flip_prob=0.2, seed=12))
    assert any(not np.array_equal(a.embedding, b.embedding)
               for f in s1.detections if s3.detections.get(f)
               for a, b in zip(s1.detections[f], s3.detections[f]))


def test_zero_noise_embedding_is_exact_prototype():
    scene = gen_scene(SynthConfig(n_identities=4, n_frames=6, n_categories=2,
                                  embed_dim=10, noise_sigma=0.0, seed=0))
    for f, dets in scene.detections.items():
        for det, ident in zip(dets, scene.detection_identity[f]):
            assert ident is not None
            assert scene.prototypes[ident].dtype == np.float32
            np.testing.assert_array_equal(det.embedding, scene.prototypes[ident])


def test_zero_noise_confidence_floor():
    scene = gen_scene(SynthConfig(n_identities=5, n_frames=10, n_categories=2,
                                  embed_dim=8, noise_sigma=0.0, seed=1))
    for dets in scene.detections.values():
        for det in dets:
            assert 0.9 <= det.confidence <= 1.0


def test_every_frame_key_present():
    scene = gen_scene(SynthConfig(n_identities=2, n_frames=12, n_categories=2,
                                  embed_dim=4, miss_rate=0.9, seed=2))
    assert sorted(scene.detections) == list(range(12))


def test_scene_blocks_hold_their_frames_columns():
    # each block is a slice of the scene-wide columns: its own frame's rows, as the columns'
    # dtypes hold them, and the confidence again as the category score
    scene = gen_scene(SynthConfig(n_identities=5, n_frames=10, n_categories=3, embed_dim=6, noise_sigma=0.2,
                                  miss_rate=0.3, fp_rate=1.5, label_flip_prob=0.3, seed=8))
    assert {len(dets) for dets in scene.detections.values()} != {5}  # misses and clutter moved the counts
    for f, dets in scene.detections.items():
        n = len(scene.detection_identity[f])
        assert type(dets.frame) is int and dets.frame == f and len(dets) == n
        for column, shape, dtype in ((dets.bbox, (n, 4), np.float64), (dets.confidence, (n,), np.float64),
                                     (dets.category_id, (n,), np.int64), (dets.category_score, (n,), np.float64),
                                     (dets.embedding, (n, 6), np.float32)):
            assert column.shape == shape and column.dtype == dtype
        np.testing.assert_array_equal(dets.category_score, dets.confidence)
        for k, det in enumerate(dets):
            assert det.frame == f and det.bbox == tuple(dets.bbox[k].tolist())
            np.testing.assert_array_equal(det.embedding, dets.embedding[k])


@pytest.mark.parametrize("windows", [[(0, 2, 4), (1, 2, 4)], [(0, 0, 5), (1, 0, 5)]],
                         ids=["some-empty", "all-empty"])
def test_empty_frames_are_blocks_of_the_scene_width(windows):
    scene = gen_scene(SynthConfig(n_identities=2, n_frames=6, n_categories=2, embed_dim=7, occlusion=windows))
    empty = {f for f, dets in scene.detections.items() if not len(dets)}
    assert empty == set(range(windows[0][1], windows[0][2] + 1))
    for f in empty:
        dets = scene.detections[f]
        assert dets.frame == f and dets.bbox.shape == (0, 4) and dets.category_id.shape == (0,)
        assert dets.embedding.shape == (0, 7) and dets.embedding.dtype == np.float32


def test_prototypes_unit_norm():
    scene = gen_scene(SynthConfig(n_identities=7, n_frames=2, n_categories=3,
                                  embed_dim=12, seed=3))
    for p_ in scene.prototypes.values():
        assert np.linalg.norm(p_) == pytest.approx(1.0, rel=1e-5)
    for p_ in scene.category_prototypes.values():
        assert np.linalg.norm(p_) == pytest.approx(1.0, rel=1e-5)
    assert set(scene.identity_category.values()) <= set(range(3))


def test_occlusion_removes_window_everywhere():
    occ = [(0, 3, 6), (2, 1, 2)]
    scene = gen_scene(SynthConfig(n_identities=3, n_frames=10, n_categories=2,
                                  embed_dim=6, occlusion=occ, seed=4))
    gt = {t.track_id: t for t in scene.gt_tracks}
    for f in range(3, 7):
        assert f not in gt[0].boxes
        assert 0 not in [i for i in scene.detection_identity[f] if i is not None]
    for f in (1, 2):
        assert f not in gt[2].boxes
    assert 3 in gt[2].boxes
    # identity 1 is untouched
    assert sorted(gt[1].boxes) == list(range(10))


def test_miss_rate_keeps_groundtruth():
    scene = gen_scene(SynthConfig(n_identities=3, n_frames=40, n_categories=2,
                                  embed_dim=6, miss_rate=0.5, seed=5))
    gt = {t.track_id: t for t in scene.gt_tracks}
    for t in gt.values():
        assert sorted(t.boxes) == list(range(40))  # misses hide detections only
    n_dets = _count_dets(scene)
    assert n_dets < 3 * 40
    assert n_dets > 0


def test_fp_rate_adds_unlabeled_identity():
    scene = gen_scene(SynthConfig(n_identities=2, n_frames=30, n_categories=2,
                                  embed_dim=6, fp_rate=1.0, seed=6))
    fps = [ident for f in scene.detections for ident in scene.detection_identity[f]
           if ident is None]
    assert len(fps) > 10
    # false positives never enter the ground truth
    assert all(sorted(t.boxes) == list(range(30)) for t in scene.gt_tracks)
    assert _count_dets(scene) == 2 * 30 + len(fps)


def test_label_flips_change_category_only():
    cfg = dict(n_identities=4, n_frames=25, n_categories=3, embed_dim=6, seed=7)
    clean = gen_scene(SynthConfig(**cfg))
    flipped = gen_scene(SynthConfig(label_flip_prob=0.4, **cfg))
    n_flipped = 0
    for f in clean.detections:
        for k, (a, b) in enumerate(zip(clean.detections[f], flipped.detections[f])):
            np.testing.assert_array_equal(a.embedding, b.embedding)
            assert a.bbox == b.bbox
            ident = clean.detection_identity[f][k]
            true_cat = clean.identity_category[ident]
            assert a.category_id == true_cat
            if b.category_id != true_cat:
                n_flipped += 1
    total = _count_dets(clean)
    assert 0.25 < n_flipped / total < 0.55  # around the requested 0.4


def test_boxes_stay_in_scene():
    scene = gen_scene(SynthConfig(n_identities=10, n_frames=60, n_categories=2,
                                  embed_dim=4, seed=8, scene_width=640, scene_height=360))
    for t in scene.gt_tracks:
        for x, y, w, h in t.boxes.values():
            assert 0 <= x and x + w <= 640 + 1e-6
            assert 0 <= y and y + h <= 360 + 1e-6


def test_reflect_folds_into_range():
    for p in (-3.0, -0.5, 0.0, 2.5, 7.0, 13.0, 26.5):
        v = _reflect(p, 10.0)
        assert 0.0 <= v <= 10.0
    assert _reflect(12.0, 10.0) == pytest.approx(8.0)
    assert _reflect(-2.0, 10.0) == pytest.approx(2.0)


def test_vocabulary_matches_categories():
    scene = gen_scene(SynthConfig(n_identities=6, n_frames=3, n_categories=4,
                                  embed_dim=16, seed=9))
    assert len(scene.vocabulary) == 4
    assert scene.vocabulary.dim_text == 16
    splits = set(scene.vocabulary.splits().values())
    assert splits == {"base", "novel"}
    for e in scene.vocabulary:
        assert np.linalg.norm(e.cate_embedding) == pytest.approx(1.0, rel=1e-5)


def test_a_category_whose_prototypes_cancel_names_the_category():
    # at embed_dim 1 the two prototypes of category 0 are +1 and -1; the scene used to
    # hold a NaN vocabulary row
    with pytest.raises(ZeroNormError, match="^category 0: its identities' prototypes average to zero"):
        gen_scene(SynthConfig(n_identities=2, n_frames=3, n_categories=1, embed_dim=1))


def test_class_spread_tightens_within_category():
    wide = gen_scene(SynthConfig(n_identities=12, n_frames=2, n_categories=2,
                                 embed_dim=16, seed=10))
    tight = gen_scene(SynthConfig(n_identities=12, n_frames=2, n_categories=2,
                                  embed_dim=16, class_spread=0.1, seed=10))

    def mean_within(scene):
        sims = []
        for i in range(12):
            for j in range(i + 1, 12):
                if scene.identity_category[i] == scene.identity_category[j]:
                    sims.append(float(scene.prototypes[i].astype(np.float64)
                                      @ scene.prototypes[j].astype(np.float64)))
        return np.mean(sims)

    assert mean_within(tight) > mean_within(wide) + 0.3


def test_make_train_pairs_balanced():
    scene = gen_scene(SynthConfig(n_identities=8, n_frames=20, n_categories=2,
                                  embed_dim=8, noise_sigma=0.05, seed=11))
    pairs = make_train_pairs(scene, n_clip=4, seed=0, n_pairs=32)
    assert len(pairs) == 32
    labels = [p.label for p in pairs]
    assert labels.count(1) == 16 and labels.count(0) == 16
    for p in pairs:
        assert p.clip_a.shape[1] == 8
        assert 1 <= p.clip_a.shape[0] <= 4
        assert np.isfinite(p.clip_a).all() and np.isfinite(p.clip_b).all()


def test_augment_rotate_preserves_geometry():
    rng = np.random.default_rng(12)
    clip = rng.normal(size=(5, 8))
    out = _augment_clip(clip.copy(), Augmentations(rotate=True), np.random.default_rng(3))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1),
                               np.linalg.norm(clip, axis=1), rtol=1e-9)
    np.testing.assert_allclose(out @ out.T, clip @ clip.T, rtol=1e-8, atol=1e-10)
    assert np.abs(out - clip).max() > 1e-3


def test_augment_erase_zeroes_entries():
    rng = np.random.default_rng(13)
    clip = rng.normal(size=(4, 20))
    out = _augment_clip(clip.copy(), Augmentations(erase_fraction=0.5),
                        np.random.default_rng(4))
    frac = float((out == 0.0).mean())
    assert 0.3 < frac < 0.7


def test_augment_scale_renormalizes():
    rng = np.random.default_rng(14)
    clip = rng.normal(size=(3, 6))
    clip /= np.linalg.norm(clip, axis=1, keepdims=True)
    out = _augment_clip(clip.copy(), Augmentations(scale_range=(0.5, 2.0)),
                        np.random.default_rng(5))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_identities=0)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(miss_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(occlusion=[(99, 0, 5)], n_identities=3)
    with pytest.raises(ValueError):
        Augmentations(erase_fraction=2.0)
    with pytest.raises(ValueError):
        Augmentations(scale_range=(2.0, 0.5))


@pytest.mark.parametrize("scale_range", [(math.nan, 1.0), (0.5, math.nan), (0.0, 0.0),
                                         (-1.0, 1.0), (0.5, math.inf)])
def test_augmentations_reject_bad_scale_range(scale_range):
    # a NaN bound used to fail in numpy's uniform and (0, 0) as a zero-norm
    # fusion output, neither naming the option
    with pytest.raises(ValueError, match=r"scale_range must be finite \(low, high\) with 0 < low"):
        Augmentations(scale_range=scale_range)


@pytest.mark.parametrize("field", ["noise_sigma", "fp_rate", "class_spread"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite(field, value):
    # NaN noise used to give clean prototypes with noisy-path confidences,
    # and a NaN class spread wrote NaN embeddings
    with pytest.raises(ValueError, match=f"{field}.*must be finite"):
        SynthConfig(**{field: value})
