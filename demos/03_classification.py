"""Classify whole trajectories against an open vocabulary.

Builds a noisy scene where a third of the per-frame labels are flipped,
tracks it, then shows the three scoring channels (category text, attribute
text, retained detector votes) and why trajectory-level voting beats the
raw per-frame labels. Run with `python3 demos/03_classification.py`.
"""

from trajkit import (
    ClassifyConfig,
    SynthConfig,
    TrackerConfig,
    classify_trajectory,
    gen_scene,
    record_embeddings,
    run_sequence,
    to_track_record,
)

cfg = SynthConfig(
    n_identities=8,
    n_frames=40,
    n_categories=4,
    embed_dim=16,
    noise_sigma=0.0,
    label_flip_prob=0.3,
    seed=11,
)
scene = gen_scene(cfg)
print("vocabulary:", ", ".join(f"{e.name} ({e.split})"
                               for e in scene.vocabulary.entries))

# Per-frame detector labels are 30% wrong by construction.
correct = total = 0
for frame, dets in scene.detections.items():
    for det, ident in zip(dets, scene.detection_identity[frame]):
        if ident is not None:
            total += 1
            correct += det.category_id == scene.identity_category[ident]
print(f"per-frame detector label accuracy: {100.0 * correct / total:.1f}%")

tracks = run_sequence(scene.detections, TrackerConfig())

# Classify each track. A track's embeddings are read back from the
# detections its entries index, as every trajkit command does. With no
# fusion weights the vocabulary is matched in the visual space directly
# (identity language projection).
ccfg = ClassifyConfig(fusion="average", calibrate_scores=True)
right = 0
for tr in tracks:
    embeddings = record_embeddings(to_track_record(tr), scene.detections)
    result = classify_trajectory(tr.observations, embeddings, scene.vocabulary, None, ccfg)
    ident = scene.detection_identity[tr.observations[0].frame][tr.observations[0].det_idx]
    truth = scene.identity_category[ident]
    right += result.final == truth
    print(f"  track {tr.id}: truth {truth}  final {result.final} "
          f"via {result.final_source:<4}  "
          f"scores cate {result.cate_score:.3f} attr {result.attr_score:.3f} "
          f"det {result.det_score:.3f}")

print(f"\ntrajectory-level accuracy: {100.0 * right / len(tracks):.1f}% "
      f"(vs {100.0 * correct / total:.1f}% per frame)")
