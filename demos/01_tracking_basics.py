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

# Drive the tracker one frame at a time and watch the event stream. A step
# returns the frame's events as one block of columns (kind codes, track,
# detection, score) that iterates as AssociationEvent records: born /
# matched / discarded, then died. A track that misses a frame turns lost
# silently, so poll Tracker.state (read off the track's last match) for the
# live track ids to see the occlusions happen.
tracker = Tracker(TrackerConfig())
was_lost = set()
for frame in sorted(scene.detections):
    events = tracker.step(frame, scene.detections[frame])
    for ev in events:
        if ev.kind != "matched":
            print(f"  frame {ev.frame:3d}  {ev.kind:<5}  track {ev.track_id}")
    lost_now = {tid for tid in tracker.live.tolist() if tracker.state(tid).name == "LOST"}
    for tid in sorted(lost_now - was_lost):
        print(f"  frame {frame:3d}  lost   track {tid}")
    for tid in sorted(was_lost - lost_now):
        print(f"  frame {frame:3d}  back   track {tid}")
    was_lost = lost_now

# The run is one table of (track, frame, detection) rows, sorted by track
# and frame: track i's rows are bounds[i]:bounds[i + 1] of its columns.
table = tracker.table()
print(f"\n{len(table)} tracks for {cfg.n_identities} identities")

# The occluded identities should come back as the same track, not a new
# one: check that each track covers a single true identity end to end.
bounds = table.bounds.tolist()
for lo, hi in zip(bounds, bounds[1:]):
    frames, dets = table.frame[lo:hi].tolist(), table.det[lo:hi].tolist()
    idents = {scene.detection_identity[f][d] for f, d in zip(frames, dets)}
    gaps = [b - a for a, b in zip(frames, frames[1:]) if b - a > 1]
    print(f"  track {table.track_id[lo]}: identity {idents}, {len(frames)} frames, "
          f"gaps bridged: {gaps if gaps else 'none'}")

# Peek at the memory vs bank machinery for one live track. The tracker keeps
# one row per live track in its memory and query arrays, in live order, and
# every live feature bank in one store that Tracker.bank reads. The category
# bank is the retained categories of the track's last n_cat_bank rows.
tid = int(tracker.live[0])
bank = tracker.bank(tid)  # unit rows, oldest first
n_cat_bank = tracker.cfg.n_cat_bank
rows = table.track_id == tid
print(f"\ntrack {tid} internals: memory dim {tracker.memory.shape[1]}, "
      f"bank {bank.shape[0]} embeddings (cap {tracker.cfg.n_bank}), "
      f"category bank {table.cat[rows][-n_cat_bank:].tolist()}")
