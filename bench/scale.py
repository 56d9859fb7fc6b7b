"""Tracking cost per frame as the scene grows: writes ``BENCH_scale.json``.

Each cell writes one seeded scene (d=128, target cosine 0.87 between an
observation and its identity, ``fp_rate`` 2, ``miss_rate`` 0.05) once with
``io.write_detections(..., sidecar=True)`` into a temporary directory. Each
run loads it and tracks it with ``trajkit.tracker.Tracker`` (default
``TrackerConfig``) in this process, as the ``track`` command does, and
reports milliseconds per frame for:

- ``load``: ``io.load_detections`` of the scene's file, whose blocks the
  steps then track;
- ``score_matrix`` and ``associate_frame``, timed by ``perf_counter``
  wrappers put in place of the module globals ``Tracker.step`` calls;
- ``update``: the rest of ``step``, that is the bank and memory update of
  the matched tracks, their entries, deaths and births;
- ``step``: the whole step;
- ``write``: ``io.write_tracks`` of every track the run made, unlabelled,
  plus ``io.write_events`` of every association event of its steps, as the
  ``track`` command writes them, into a temporary directory;
- ``evaluate``: ``io.read_tracks`` of those tracks, ``io.load_groundtruth``
  of the scene's ground truth (written once with the scene) and
  ``metrics.evaluate`` of the two, as the ``eval`` command runs them;
- ``frame_matching``: the part of ``evaluate`` spent in
  ``metrics.frame_matching``, timed by a wrapper as above.

Each number in ``ms_per_frame`` is the median over ``--runs`` runs of the whole
sequence, and ``ms_per_frame_q1`` and ``ms_per_frame_q3`` hold the first and
third quartiles of the same runs (numpy's linear interpolation), so the spread
between runs of unchanged code shows beside each median.
``live_per_frame`` is the mean count of live tracks scored per frame (frame 0
scores none) and ``live_last_frame`` the last frame's count. BLAS is pinned to
one thread before numpy loads. Run from the root of a source checkout::

    python3 bench/scale.py                       # 100, 300, 1,000 and 3,000 identities
    python3 bench/scale.py --identities 100 --frames 40 --runs 5 --out BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from trajkit import io, metrics, synth, tracker  # noqa: E402
from trajkit.classify import to_track_record  # noqa: E402

STAGES = ("load", "score_matrix", "associate_frame", "update", "step", "write", "evaluate", "frame_matching")
DIM, COSINE, FP_RATE, MISS_RATE, SEED = 128, 0.87, 2.0, 0.05, 1
IDENTITIES = (100, 300, 1000, 3000)


def _frames(identities: int) -> int:
    """A cell's default frame count: 40, or 20 from 1,000 identities and 10 from 3,000."""
    return 40 if identities < 1000 else 20 if identities < 3000 else 10


def _scene(identities: int, frames: int) -> synth.SynthScene:
    sigma = ((1.0 / COSINE ** 2 - 1.0) / DIM) ** 0.5
    return synth.gen_scene(synth.SynthConfig(
        n_identities=identities, n_frames=frames, n_categories=8, embed_dim=DIM, noise_sigma=sigma,
        miss_rate=MISS_RATE, fp_rate=FP_RATE, seed=SEED))


def _timed(spent: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start
    return wrapper


def _run(out: Path) -> tuple[dict, tracker.Tracker, list[int]]:
    """Seconds per stage over one run of the scene written in ``out``, writing into ``out`` and
    evaluating what it wrote, the tracker and the live tracks per frame."""
    spent = dict.fromkeys(STAGES, 0.0)
    start = time.perf_counter()
    dets = io.load_detections(out / "detections.jsonl")
    spent["load"] = time.perf_counter() - start
    originals = tracker.score_matrix, tracker.associate_frame
    tracker.score_matrix = _timed(spent, "score_matrix", tracker.score_matrix)
    tracker.associate_frame = _timed(spent, "associate_frame", tracker.associate_frame)
    try:
        tk, live, events = tracker.Tracker(), [], []
        for frame in sorted(dets):
            live.append(len(tk.live))
            start = time.perf_counter()
            stepped = tk.step(frame, dets[frame])
            spent["step"] += time.perf_counter() - start
            events += stepped
    finally:
        tracker.score_matrix, tracker.associate_frame = originals
    spent["update"] = spent["step"] - spent["score_matrix"] - spent["associate_frame"]
    records = list(map(to_track_record, tk.tracks))
    start = time.perf_counter()
    io.write_tracks(records, out / "tracks.jsonl")
    io.write_events(events, out / "events.jsonl")
    spent["write"] = time.perf_counter() - start
    matching, metrics.frame_matching = metrics.frame_matching, _timed(spent, "frame_matching", metrics.frame_matching)
    try:
        start = time.perf_counter()
        metrics.evaluate(io.read_tracks(out / "tracks.jsonl"), io.load_groundtruth(out / "groundtruth.jsonl"))
        spent["evaluate"] = time.perf_counter() - start
    finally:
        metrics.frame_matching = matching
    return spent, tk, live


def cell(identities: int, frames: int, runs: int) -> dict:
    scene = _scene(identities, frames)
    with tempfile.TemporaryDirectory() as out:
        io.write_detections(scene.detections, Path(out) / "detections.jsonl", sidecar=True)
        io.write_groundtruth(scene.gt_tracks, Path(out) / "groundtruth.jsonl")
        results = [_run(Path(out)) for _ in range(runs)]
    _, tk, live = results[0]
    return {
        "identities": identities,
        "frames": frames,
        "detections": sum(map(len, scene.detections.values())),
        "live_per_frame": round(float(np.mean(live)), 1),
        "live_last_frame": live[-1],
        "tracks": len(tk.tracks),
        **{key: {stage: round(1000 * float(np.percentile([r[0][stage] for r in results], q)) / frames, 3)
                 for stage in STAGES}
           for key, q in (("ms_per_frame", 50), ("ms_per_frame_q1", 25), ("ms_per_frame_q3", 75))},
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--identities", type=int, nargs="*", help="one cell per value (default 100 300 1000 3000)")
    parser.add_argument("--frames", type=int, help="frames of every cell (default 40, 20 at 1,000, 10 at 3,000)")
    parser.add_argument("--runs", type=int, default=5, help="runs per cell; each number is their median")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    cells = [(n, args.frames or _frames(n)) for n in args.identities or IDENTITIES]
    record = {
        "scene": {"dim": DIM, "cosine": COSINE, "fp_rate": FP_RATE, "miss_rate": MISS_RATE, "seed": SEED},
        "runs": args.runs,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": [cell(n, frames, args.runs) for n, frames in cells],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return record


if __name__ == "__main__":
    main()
