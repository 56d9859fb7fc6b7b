"""Tracking cost per frame as the scene grows: writes ``BENCH_scale.json``.

Each cell tracks one seeded scene (d=128, target cosine 0.87 between an
observation and its identity, ``fp_rate`` 2, ``miss_rate`` 0.05, default
``TrackerConfig``) with ``trajkit.tracker.Tracker`` in this process, and
reports milliseconds per frame for:

- ``score_matrix`` and ``associate_frame``, timed by ``perf_counter``
  wrappers put in place of the module globals ``Tracker.step`` calls;
- ``update``: the rest of ``step``, that is the bank and memory update of
  the matched tracks, their entries, deaths and births;
- ``step``: the whole step.

Each number is the median over ``--runs`` runs of the whole sequence. BLAS
is pinned to one thread before numpy loads. Run from the root of a source
checkout::

    python3 bench/scale.py                       # 100, 300 and 1,000 identities
    python3 bench/scale.py --identities 100 --frames 40 --runs 5 --out BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from trajkit import synth, tracker  # noqa: E402

STAGES = ("score_matrix", "associate_frame", "update", "step")
DIM, COSINE, FP_RATE, MISS_RATE, SEED = 128, 0.87, 2.0, 0.05, 1
IDENTITIES = (100, 300, 1000)  # 40 frames each, or 20 at 1,000 identities


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


def _run(scene: synth.SynthScene) -> tuple[dict, tracker.Tracker, list[int]]:
    """Seconds per stage over one run of the scene, the tracker and the live tracks per frame."""
    spent = dict.fromkeys(STAGES, 0.0)
    originals = tracker.score_matrix, tracker.associate_frame
    tracker.score_matrix = _timed(spent, "score_matrix", tracker.score_matrix)
    tracker.associate_frame = _timed(spent, "associate_frame", tracker.associate_frame)
    try:
        tk, live = tracker.Tracker(), []
        for frame in sorted(scene.detections):
            live.append(len(tk.live))
            start = time.perf_counter()
            tk.step(frame, scene.detections[frame])
            spent["step"] += time.perf_counter() - start
    finally:
        tracker.score_matrix, tracker.associate_frame = originals
    spent["update"] = spent["step"] - spent["score_matrix"] - spent["associate_frame"]
    return spent, tk, live


def cell(identities: int, frames: int, runs: int) -> dict:
    scene = _scene(identities, frames)
    results = [_run(scene) for _ in range(runs)]
    _, tk, live = results[0]
    return {
        "identities": identities,
        "frames": frames,
        "detections": sum(map(len, scene.detections.values())),
        "live_per_frame": round(float(np.mean(live)), 1),
        "tracks": len(tk.tracks),
        "ms_per_frame": {stage: round(1000 * float(np.median([r[0][stage] for r in results])) / frames, 3)
                         for stage in STAGES},
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--identities", type=int, nargs="*", help="one cell per value (default 100 300 1000)")
    parser.add_argument("--frames", type=int, help="frames of every cell (default 40, or 20 at 1,000)")
    parser.add_argument("--runs", type=int, default=5, help="runs per cell; each number is their median")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    cells = [(n, args.frames or (20 if n >= 1000 else 40)) for n in args.identities or IDENTITIES]
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
