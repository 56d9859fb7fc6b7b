"""The benchmark's workloads: seeded set-up and one closed-loop pass each.

Set-up makes the inputs with ``trajkit.synth`` and the ``trajkit.io``
writers. A pass runs trajkit's own command line in-process
(``trajkit.cli.main``), one command after another, and returns the wall
time of every command, that time scaled by the host speed gauged around it
(``gauge.py``), and the files it produced.

Noise is given as the target cosine ``c`` between an observation and its
identity prototype; ``synth`` wants a per-coordinate sigma, and
``sigma = sqrt((1 / c**2 - 1) / d)`` gives an expected cosine of about ``c``
at any width ``d``.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gauge
from trajkit import cli, io, synth

MECHANISMS = ("average", "attention", "self", "cross", "concat")


@dataclass(frozen=True)
class Scene:
    identities: int
    frames: int
    dim: int
    cosine: float
    categories: int = 8
    fp_rate: float = 0.0
    miss_rate: float = 0.0
    flip_prob: float = 0.0
    class_spread: float | None = None
    sidecar: bool = False

    def synth_config(self, seed: int):
        sigma = math.sqrt((1.0 / self.cosine ** 2 - 1.0) / self.dim)
        return synth.SynthConfig(
            n_identities=self.identities, n_frames=self.frames, n_categories=self.categories,
            embed_dim=self.dim, noise_sigma=sigma, miss_rate=self.miss_rate,
            fp_rate=self.fp_rate, label_flip_prob=self.flip_prob,
            class_spread=self.class_spread, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Scene
    smoke: Scene  # same shape of work, seconds instead of minutes
    train_steps: int = 0  # > 0: the pass trains fusion weights, then classifies
    smoke_train_steps: int = 0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("crowd",
                 Scene(100, 40, 128, 0.87, fp_rate=2.0, miss_rate=0.05, sidecar=True),
                 Scene(30, 20, 32, 0.87, fp_rate=2.0, miss_rate=0.05, sidecar=True)),
        Workload("longrun",
                 Scene(40, 250, 16, 0.97, fp_rate=3.0, miss_rate=0.05),
                 Scene(10, 60, 8, 0.97, fp_rate=3.0, miss_rate=0.05)),
        Workload("openvocab",
                 Scene(24, 50, 64, 0.9, categories=200, flip_prob=0.3, class_spread=0.1),
                 Scene(10, 12, 16, 0.9, categories=20, flip_prob=0.3, class_spread=0.1),
                 train_steps=120, smoke_train_steps=40),
    )
}


@dataclass
class Inputs:
    """Files written by set-up plus the facts the output checks need."""

    detections: Path
    groundtruth: Path
    vocabulary: Path
    tracks: Path | None  # oracle tracks (openvocab only)
    dets_per_frame: dict[int, int]
    n_dets: int
    n_gt_boxes: int
    n_identities: int
    n_tracks: int  # oracle tracks written (openvocab only)
    vocab_ids: frozenset[int]


def _oracle_tracks(scene, det_path: Path) -> list:
    """Ground-truth tracks whose ``det`` indices follow ``io.load_detections``.

    The loader may reorder detections within a frame, so every loaded record
    is matched back to its scene detection by box and confidence.
    """
    identity = {}
    for frame, dets in scene.detections.items():
        for det, ident in zip(dets, scene.detection_identity[frame]):
            identity[(frame, tuple(det.bbox), det.confidence)] = ident
    entries: dict[int, list] = {}
    for frame, dets in io.load_detections(det_path).items():
        for k, det in enumerate(dets):
            ident = identity[(frame, tuple(det.bbox), det.confidence)]
            if ident is not None:
                entries.setdefault(ident, []).append(
                    io.TrackEntry(frame, det.bbox, det.confidence, det.category_id, k))
    return [io.TrackRecord(ident + 1, rows) for ident, rows in sorted(entries.items())]


def set_up(workload: Workload, seed: int, out: Path, smoke: bool = False) -> Inputs:
    spec = workload.smoke if smoke else workload.scene
    out.mkdir(parents=True, exist_ok=True)
    scene = synth.gen_scene(spec.synth_config(seed))
    det_path = out / "detections.jsonl"
    io.write_detections(scene.detections, det_path, sidecar=spec.sidecar)
    io.write_groundtruth(scene.gt_tracks, out / "groundtruth.jsonl")
    io.write_vocabulary(scene.vocabulary, out / "vocabulary.json")
    tracks_path, n_tracks = None, 0
    if workload.train_steps:
        records = _oracle_tracks(scene, det_path)
        tracks_path, n_tracks = out / "tracks.jsonl", len(records)
        io.write_tracks(records, tracks_path)
    counts = {f: len(d) for f, d in scene.detections.items()}
    return Inputs(
        detections=det_path, groundtruth=out / "groundtruth.jsonl",
        vocabulary=out / "vocabulary.json", tracks=tracks_path, dets_per_frame=counts,
        n_dets=sum(counts.values()), n_gt_boxes=sum(len(g.boxes) for g in scene.gt_tracks),
        n_identities=spec.identities, n_tracks=n_tracks, vocab_ids=frozenset(scene.vocabulary.ids))


@dataclass
class Command:
    step: str  # "track", "train", "classify.<mechanism>", "eval.<mechanism>", ...
    argv: list[str]
    out: Path
    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall_s at the host's fast speed, see gauge.py
    ok: bool = False


def _run(cmd: Command) -> Command:
    """Run one CLI command; a nonzero exit or an escaped exception fails it."""
    captured = _stdio.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(cmd.argv)
    except Exception:  # a crash inside trajkit counts as a failed command
        code = None
        captured.write(traceback.format_exc())
    cmd.wall_s = time.perf_counter() - start
    cmd.ok = code == 0
    if not cmd.ok:
        sys.stderr.write(f"perfbench: {cmd.step} failed (exit {code}):\n{captured.getvalue()[-2000:]}\n")
    return cmd


def run_pass(workload: Workload, inputs: Inputs, out: Path, seed: int,
             smoke: bool = False) -> list[Command]:
    """One closed-loop pass; it stops at the first command that fails."""
    common = ["--vocabulary", str(inputs.vocabulary)]
    plan: list[Command] = []
    if not workload.train_steps:
        track = out / "track"
        plan.append(Command("track", ["track", "--detections", str(inputs.detections), *common,
                                      "--out-dir", str(track)], track))
        plan.append(Command("eval", ["eval", "--pred", str(track / "tracks.jsonl"),
                                     "--gt", str(inputs.groundtruth), *common,
                                     "--out-dir", str(out / "eval")], out / "eval"))
    else:
        steps = workload.smoke_train_steps if smoke else workload.train_steps
        train = out / "train"
        dim = (workload.smoke if smoke else workload.scene).dim
        plan.append(Command("train", ["train", "--dim", str(dim), "--steps", str(steps),
                                      "--seed", str(seed), "--out-dir", str(train)], train))
        for mech in MECHANISMS:
            cls = out / f"classify-{mech}"
            plan.append(Command(f"classify.{mech}", [
                "classify", "--tracks", str(inputs.tracks), "--detections", str(inputs.detections),
                *common, "--fusion", mech, "--weights", str(train / "weights.twb"),
                "--out-dir", str(cls)], cls))
            plan.append(Command(f"eval.{mech}", [
                "eval", "--pred", str(cls / "tracks.jsonl"), "--gt", str(inputs.groundtruth),
                *common, "--out-dir", str(out / f"eval-{mech}")], out / f"eval-{mech}"))
    done = []
    before = gauge.gauge()
    for cmd in plan:
        done.append(_run(cmd))
        after = gauge.gauge()
        cmd.scaled_s = gauge.scaled(cmd.wall_s, before, after)
        before = after
        if not cmd.ok:
            break
    return done


def output_files(commands: list[Command]) -> list[Path]:
    """Files a pass must reproduce byte for byte."""
    names = ("tracks.jsonl", "events.jsonl", "report.json", "weights.twb", "loss_curve.json")
    return [c.out / n for c in commands for n in names if (c.out / n).exists()]
