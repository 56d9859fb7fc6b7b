"""Walk through the appearance tracker on a synthetic scene.

Generates a deterministic scene with two occlusion windows, runs the
tracker frame by frame, and shows how the feature bank carries identities
across the gaps. Run with `python3 demos/01_tracking_basics.py`.
"""

from trajkit import SynthConfig, Tracker, TrackerConfig, gen_scene

# A small scene: 6 identities, 3 categories, mild embedding noise, and two
# identities fully hidden for a stretch in the middle.
cfg = SynthConfig(
    n_identities=6,
    n_frames=50,
    n_categories=3,
    embed_dim=16,
    noise_sigma=0.1,
    occlusion=[(1, 20, 27), (4, 15, 24)],
    seed=7,
)
scene = gen_scene(cfg)
n_dets = sum(len(v) for v in scene.detections.values())
print(f"scene: {n_dets} detections over {cfg.n_frames} frames, "
      f"{len(scene.gt_tracks)} ground-truth tracks")

# Drive the tracker one frame at a time and watch the event stream. Steps
# emit born / matched / died events; a track that misses a frame turns lost
# silently, so poll Tracker.state (read off the track's last entry) to see
# the occlusions happen.
tracker = Tracker(TrackerConfig())
was_lost = set()
for frame in sorted(scene.detections):
    events = tracker.step(frame, scene.detections[frame])
    for ev in events:
        if ev.kind != "matched":
            print(f"  frame {ev.frame:3d}  {ev.kind:<5}  track {ev.track_id}")
    lost_now = {t.id for t in tracker.tracks if tracker.state(t).name == "LOST"}
    for tid in sorted(lost_now - was_lost):
        print(f"  frame {frame:3d}  lost   track {tid}")
    for tid in sorted(was_lost - lost_now):
        print(f"  frame {frame:3d}  back   track {tid}")
    was_lost = lost_now

tracks = tracker.tracks
print(f"\n{len(tracks)} tracks for {cfg.n_identities} identities")

# The occluded identities should come back as the same track, not a new
# one: check that each track covers a single true identity end to end.
for tr in tracks:
    idents = {scene.detection_identity[o.frame][o.det_idx]
              for o in tr.observations}
    frames = [o.frame for o in tr.observations]
    gaps = [b - a for a, b in zip(frames, frames[1:]) if b - a > 1]
    print(f"  track {tr.id}: identity {idents}, {len(frames)} frames, "
          f"gaps bridged: {gaps if gaps else 'none'}")

# Peek at the memory vs bank machinery for one live track. The tracker keeps
# one row per live track in its memory and query arrays, in live order. A
# track is its observations: the category bank is the retained categories
# of its last n_cat_bank entries.
tr = tracker.live[0]
bank = tr.feature_bank  # unit rows, oldest first
n_cat_bank = tracker.cfg.n_cat_bank
print(f"\ntrack {tr.id} internals: memory dim {tracker.memory.shape[1]}, "
      f"bank {bank.shape[0]} embeddings (cap {tracker.cfg.n_bank}), "
      f"category bank {[o.category_id for o in tr.observations[-n_cat_bank:]]}")
