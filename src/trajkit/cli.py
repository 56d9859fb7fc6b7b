"""Command line frontend.

Subcommands: ``track``, ``classify``, ``eval``, ``synth``, ``train`` and
``bench-fusion``. Every subcommand accepts ``--config`` (a JSON file of
option values), ``--seed`` and ``--out-dir``; explicit flags override
config values, which override built-in defaults. Each run writes
its fully resolved options to ``<command>_manifest.json`` in the output
directory, and all outputs are deterministic functions of manifest + seed.

Exit codes: 0 success, 1 domain error (bad file, missing weights, diverged
training, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import io, metrics
from .classify import (
    ClassifyConfig,
    classify_trajectory,
    label_record,
    project_vocabulary,
    record_embeddings,
    to_track_record,
)
from .errors import FormatError, MissingWeightsError, TrajkitError
from .fusion import FUSION_MECHANISMS, FusionWeights, init_fusion_weights
from .synth import Augmentations, SynthConfig, gen_scene, make_train_pairs
from .tracker import SIM_MODES, Tracker, TrackerConfig, majority_vote
from .train import TrainConfig, train_fusion

GLOBAL_DEFAULTS = {"seed": 0, "out_dir": "."}

TRACKER_DEFAULTS = {
    "alpha_mem": 0.25, "alpha_sim": 0.25, "tau_match": 0.4, "tau_new": None,
    "tau_high": 0.3, "tau_low": 0.1, "n_bank": 15, "n_cat_bank": 5,
    "max_age": 30, "sim_mode": "cosine_plus_bisoftmax", "temperature": 1.0,
}
CLASSIFY_DEFAULTS = {"fusion": "average", "n_clip": 5, "heads": 1, "calibrate_scores": False}
SCENE_DEFAULTS = {
    "identities": 20, "frames": 100, "categories": 4, "dim": 32, "sigma": 0.0,
    "miss_rate": 0.0, "fp_rate": 0.0, "flip_prob": 0.0, "class_spread": None,
    "occlusion": None,
}

BENCH_MECHANISMS = ("average", "attention", "self", "cross", "concat")


def _need_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p


def _resolve(args, defaults: dict) -> dict:
    """Overlay built-in defaults, config file values, then explicit flags."""
    merged = dict(GLOBAL_DEFAULTS)
    merged.update(defaults)
    from_file = {}
    if args.config is not None:
        cfg_path = _need_file(args.config, "config")
        with open(cfg_path, "r", encoding="utf-8") as fh:
            from_file = json.load(fh)
        unknown = set(from_file) - set(merged)
        if unknown:
            raise FormatError(f"config {cfg_path} has unknown keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, default in merged.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _write_manifest(command: str, resolved: dict, extra: dict | None = None) -> Path:
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # out_dir names the destination but never changes what gets computed, so
    # it stays out of the manifest and runs into different dirs stay comparable.
    manifest = {"command": command,
                "options": {k: v for k, v in sorted(resolved.items()) if k != "out_dir"}}
    if extra:
        manifest["inputs"] = {k: str(v) for k, v in sorted(extra.items())}
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out_dir


def _parse_occlusion(spec) -> list[tuple[int, int, int]]:
    if not spec:
        return []
    if isinstance(spec, list):  # from a JSON config
        return [tuple(int(v) for v in item) for item in spec]
    windows = []
    for part in str(spec).split(","):
        try:
            ident, rng = part.split(":")
            lo, hi = rng.split("-")
            windows.append((int(ident), int(lo), int(hi)))
        except ValueError:
            raise FormatError(f"bad occlusion window {part!r}, expected ident:first-last") from None
    return windows


def _tracker_config(opts: dict) -> TrackerConfig:
    return TrackerConfig(
        alpha_mem=opts["alpha_mem"], alpha_sim=opts["alpha_sim"],
        tau_match=opts["tau_match"], tau_new=opts["tau_new"],
        tau_high=opts["tau_high"], tau_low=opts["tau_low"],
        n_bank=opts["n_bank"], n_cat_bank=opts["n_cat_bank"],
        max_age=opts["max_age"], sim_mode=opts["sim_mode"],
        softmax_temperature=opts["temperature"],
    )


def _classify_config(opts: dict) -> ClassifyConfig:
    return ClassifyConfig(fusion=opts["fusion"], n_clip=opts["n_clip"],
                          heads=opts["heads"], calibrate_scores=opts["calibrate_scores"])


def _load_fusion_weights(path) -> FusionWeights:
    bundle = io.load_weights(_need_file(path, "weights"))
    return FusionWeights.from_bundle(bundle)


def _scene_config(opts: dict, seed: int) -> SynthConfig:
    return SynthConfig(
        n_identities=opts["identities"], n_frames=opts["frames"],
        n_categories=opts["categories"], embed_dim=opts["dim"],
        noise_sigma=opts["sigma"], occlusion=_parse_occlusion(opts["occlusion"]),
        miss_rate=opts["miss_rate"], fp_rate=opts["fp_rate"],
        label_flip_prob=opts["flip_prob"], class_spread=opts["class_spread"],
        seed=seed,
    )


def _classify_tracks(tracks, vocab, weights, ccfg):
    """Label finished tracks; falls back to detection voting without a vocabulary."""
    lang = project_vocabulary(vocab, weights) if vocab is not None and tracks else None

    def one(track):
        if vocab is not None:
            cls = classify_trajectory(track.observations, track.embeddings, vocab, weights, ccfg, lang)
            return to_track_record(track, cls)
        rec = to_track_record(track)
        rec.label, prop = majority_vote([e.category_id for e in rec.entries])
        rec.label_source = "det"
        rec.scores = {"det": prop}
        return rec

    return [one(track) for track in tracks]


def cmd_track(args) -> int:
    opts = _resolve(args, {
        "detections": None, "vocabulary": None, "weights": None, "score_scale": 1.0,
        "dump_csv": False, **TRACKER_DEFAULTS, **CLASSIFY_DEFAULTS,
    })
    if opts["detections"] is None:
        raise ValueError("track needs --detections")
    det_path = _need_file(opts["detections"], "detections")
    vocab = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary")) if opts["vocabulary"] else None
    weights = _load_fusion_weights(opts["weights"]) if opts["weights"] else None
    if weights is None and vocab is not None and opts["fusion"] != "average":
        raise MissingWeightsError(f"fusion={opts['fusion']!r} needs --weights")
    out_dir = _write_manifest("track", opts)
    dets = io.load_detections(det_path, opts["score_scale"], vocabulary=vocab)
    tcfg = _tracker_config(opts)
    ccfg = _classify_config(opts)

    tracker = Tracker(tcfg)
    events = []
    csv_rows = []
    for frame in sorted(dets):
        events.extend(tracker.step(frame, dets[frame]))
        if opts["dump_csv"]:
            scores = tracker.last_scores
            for ti, track_id in enumerate(tracker.last_ids):
                for di in range(scores.shape[1]):
                    csv_rows.append((frame, track_id, di, f"{scores[ti, di]:.6f}"))

    records = _classify_tracks(tracker.tracks, vocab, weights, ccfg)
    io.write_tracks(records, out_dir / "tracks.jsonl")
    with open(out_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps({"frame": ev.frame, "kind": ev.kind, "track": ev.track_id,
                                 "det": ev.det_idx, "score": ev.score}) + "\n")
    if opts["dump_csv"]:
        with open(out_dir / "scores.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "track_id", "det_idx", "score"])
            writer.writerows(csv_rows)
    n_frames = len(dets)
    print(f"tracked {sum(len(v) for v in dets.values())} detections over {n_frames} frames "
          f"into {len(records)} tracks")
    print(f"wrote {out_dir / 'tracks.jsonl'} and {out_dir / 'events.jsonl'}")
    return 0


def cmd_classify(args) -> int:
    opts = _resolve(args, {"tracks": None, "detections": None, "vocabulary": None,
                           "weights": None, **CLASSIFY_DEFAULTS})
    for key in ("tracks", "detections", "vocabulary"):
        if opts[key] is None:
            raise ValueError(f"classify needs --{key}")
    vocab = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary"))
    weights = _load_fusion_weights(opts["weights"]) if opts["weights"] else None
    if weights is None and opts["fusion"] != "average":
        raise MissingWeightsError(f"fusion={opts['fusion']!r} needs --weights")
    out_dir = _write_manifest("classify", opts)
    records = io.read_tracks(_need_file(opts["tracks"], "tracks"))
    dets = io.load_detections(_need_file(opts["detections"], "detections"))
    ccfg = _classify_config(opts)
    lang = project_vocabulary(vocab, weights) if records else None

    def one(record):
        embeddings = record_embeddings(record, dets)
        return label_record(record, classify_trajectory(record.entries, embeddings, vocab,
                                                        weights, ccfg, lang))

    out = [one(record) for record in records]
    io.write_tracks(out, out_dir / "tracks.jsonl")
    print(f"classified {len(out)} tracks with fusion={opts['fusion']}")
    print(f"wrote {out_dir / 'tracks.jsonl'}")
    return 0


def cmd_eval(args) -> int:
    opts = _resolve(args, {"pred": None, "gt": None, "vocabulary": None, "iou_threshold": 0.5})
    for key in ("pred", "gt"):
        if opts[key] is None:
            raise ValueError(f"eval needs --{key}")
    preds = io.read_tracks(_need_file(opts["pred"], "pred"))
    gts = io.load_groundtruth(_need_file(opts["gt"], "gt"))
    splits = {}
    if opts["vocabulary"]:
        splits = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary")).splits()
    out_dir = _write_manifest("eval", opts)
    report = metrics.evaluate(preds, gts, metrics.EvalConfig(opts["iou_threshold"], splits))
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(report.format_table())
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_synth(args) -> int:
    opts = _resolve(args, {**SCENE_DEFAULTS, "sidecar": False})
    out_dir = _write_manifest("synth", opts)
    scene = gen_scene(_scene_config(opts, opts["seed"]))
    io.write_detections(scene.detections, out_dir / "detections.jsonl", sidecar=opts["sidecar"])
    io.write_groundtruth(scene.gt_tracks, out_dir / "groundtruth.jsonl")
    io.write_vocabulary(scene.vocabulary, out_dir / "vocabulary.json")
    n_dets = sum(len(v) for v in scene.detections.values())
    print(f"generated {n_dets} detections, {len(scene.gt_tracks)} tracks, "
          f"{len(scene.vocabulary)} categories over {opts['frames']} frames")
    print(f"wrote detections.jsonl, groundtruth.jsonl, vocabulary.json in {out_dir}")
    return 0


def cmd_train(args) -> int:
    opts = _resolve(args, {
        "identities": 8, "frames": 40, "categories": 2, "dim": 16, "sigma": 0.05,
        "class_spread": 0.1, "occlusion": None, "miss_rate": 0.0, "fp_rate": 0.0,
        "flip_prob": 0.0, "pairs": 64, "n_clip": 5, "heads": 1,
        "rotate": False, "erase_fraction": 0.0, "scale_min": None, "scale_max": None,
        "steps": 500, "lr": 0.05, "batch_size": 8, "margin": 0.5,
        "distance": "euclidean", "hidden": None,
    })
    out_dir = _write_manifest("train", opts)
    scene = gen_scene(_scene_config(opts, opts["seed"]))
    scale_range = None
    if opts["scale_min"] is not None and opts["scale_max"] is not None:
        scale_range = (opts["scale_min"], opts["scale_max"])
    aug = Augmentations(rotate=opts["rotate"], erase_fraction=opts["erase_fraction"],
                        scale_range=scale_range)
    pairs = make_train_pairs(scene, n_clip=opts["n_clip"], augmentations=aug,
                             seed=opts["seed"], n_pairs=opts["pairs"])
    weights = init_fusion_weights(opts["dim"], hidden=opts["hidden"], seed=opts["seed"])
    tcfg = TrainConfig(margin=opts["margin"], distance=opts["distance"],
                       learning_rate=opts["lr"], steps=opts["steps"],
                       batch_size=opts["batch_size"], seed=opts["seed"],
                       d=opts["dim"], heads=opts["heads"])
    trained, curve = train_fusion(pairs, weights, tcfg)
    io.write_weights(trained.to_dict(), out_dir / "weights.twb")
    (out_dir / "loss_curve.json").write_text(
        json.dumps({"loss": curve}, indent=2) + "\n", encoding="utf-8")
    if curve:
        print(f"trained {opts['steps']} steps on {len(pairs)} pairs: "
              f"loss {curve[0]:.6f} -> {curve[-1]:.6f}")
    else:
        print("no training steps requested, weights passed through")
    print(f"wrote {out_dir / 'weights.twb'} and {out_dir / 'loss_curve.json'}")
    return 0


def _bench_one_scene(scene_seed: int, opts: dict, weights: FusionWeights):
    scene = gen_scene(_scene_config(opts, scene_seed))
    tcfg = _tracker_config(opts)
    tracker = Tracker(tcfg)
    for frame in sorted(scene.detections):
        tracker.step(frame, scene.detections[frame])
    splits = scene.vocabulary.splits()
    ecfg = metrics.EvalConfig(splits=splits)
    lang = project_vocabulary(scene.vocabulary, weights)
    row = {}
    for mech in BENCH_MECHANISMS:
        ccfg = ClassifyConfig(fusion=mech, n_clip=opts["n_clip"], heads=opts["heads"])
        records = [to_track_record(t, classify_trajectory(t.observations, t.embeddings,
                                                          scene.vocabulary, weights, ccfg, lang))
                   for t in tracker.tracks]
        report = metrics.evaluate(records, scene.gt_tracks, ecfg)
        row[mech] = report.overall
    return row


def cmd_bench_fusion(args) -> int:
    opts = _resolve(args, {**SCENE_DEFAULTS, "scenes": 3, "weights": None,
                           "n_clip": 5, "heads": 1, **TRACKER_DEFAULTS})
    if opts["weights"]:
        weights = _load_fusion_weights(opts["weights"])
    else:
        weights = init_fusion_weights(opts["dim"], seed=opts["seed"], zero_residual=False)
    out_dir = _write_manifest("bench-fusion", opts)
    seeds = [opts["seed"] + s for s in range(opts["scenes"])]
    rows = [_bench_one_scene(s, opts, weights) for s in seeds]

    table = {}
    for mech in BENCH_MECHANISMS:
        table[mech] = {
            key: float(np.mean([getattr(row[mech], key) for row in rows]))
            for key in ("teta", "loc_a", "ass_a", "cls_a")
        }
    (out_dir / "bench.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"{'mechanism':<12}{'TETA':>8}{'LocA':>8}{'AssA':>8}{'ClsA':>8}")
    for mech in BENCH_MECHANISMS:
        t = table[mech]
        print(f"{mech:<12}{t['teta']:>8.2f}{t['loc_a']:>8.2f}{t['ass_a']:>8.2f}{t['cls_a']:>8.2f}")
    print(f"wrote {out_dir / 'bench.json'}")
    return 0


def _add_global_flags(sp):
    sp.add_argument("--config", help="JSON file of option values; flags override it")
    sp.add_argument("--seed", type=int, help="random seed (default 0)")
    sp.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")


def _add_tracker_flags(sp):
    sp.add_argument("--alpha-mem", dest="alpha_mem", type=float)
    sp.add_argument("--alpha-sim", dest="alpha_sim", type=float)
    sp.add_argument("--tau-match", dest="tau_match", type=float)
    sp.add_argument("--tau-new", dest="tau_new", type=float)
    sp.add_argument("--tau-high", dest="tau_high", type=float)
    sp.add_argument("--tau-low", dest="tau_low", type=float)
    sp.add_argument("--n-bank", dest="n_bank", type=int)
    sp.add_argument("--n-cat-bank", dest="n_cat_bank", type=int)
    sp.add_argument("--max-age", dest="max_age", type=int)
    sp.add_argument("--sim-mode", dest="sim_mode", choices=SIM_MODES)
    sp.add_argument("--temperature", type=float)


def _add_classify_flags(sp):
    sp.add_argument("--fusion", choices=FUSION_MECHANISMS)
    sp.add_argument("--n-clip", dest="n_clip", type=int)
    sp.add_argument("--heads", type=int)
    sp.add_argument("--calibrate-scores", dest="calibrate_scores",
                    action=argparse.BooleanOptionalAction)


def _add_scene_flags(sp):
    sp.add_argument("--identities", type=int)
    sp.add_argument("--frames", type=int)
    sp.add_argument("--categories", type=int)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--miss-rate", dest="miss_rate", type=float)
    sp.add_argument("--fp-rate", dest="fp_rate", type=float)
    sp.add_argument("--flip-prob", dest="flip_prob", type=float)
    sp.add_argument("--class-spread", dest="class_spread", type=float)
    sp.add_argument("--occlusion", help="windows as ident:first-last[,ident:first-last...]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajkit",
                                     description="Trajectory-aware open-vocabulary tracking toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("track", help="associate detections into tracks and label them")
    _add_global_flags(sp)
    sp.add_argument("--detections")
    sp.add_argument("--vocabulary")
    sp.add_argument("--weights")
    sp.add_argument("--score-scale", dest="score_scale", type=float)
    sp.add_argument("--dump-csv", dest="dump_csv", action=argparse.BooleanOptionalAction,
                    help="write per-frame association scores to scores.csv")
    _add_tracker_flags(sp)
    _add_classify_flags(sp)
    sp.set_defaults(handler=cmd_track)

    sp = sub.add_parser("classify", help="relabel existing tracks at trajectory level")
    _add_global_flags(sp)
    sp.add_argument("--tracks")
    sp.add_argument("--detections")
    sp.add_argument("--vocabulary")
    sp.add_argument("--weights")
    _add_classify_flags(sp)
    sp.set_defaults(handler=cmd_classify)

    sp = sub.add_parser("eval", help="score predicted tracks against ground truth")
    _add_global_flags(sp)
    sp.add_argument("--pred")
    sp.add_argument("--gt")
    sp.add_argument("--vocabulary")
    sp.add_argument("--iou-threshold", dest="iou_threshold", type=float)
    sp.set_defaults(handler=cmd_eval)

    sp = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    _add_global_flags(sp)
    _add_scene_flags(sp)
    sp.add_argument("--sidecar", action=argparse.BooleanOptionalAction,
                    help="store embeddings in a binary sidecar instead of inline JSON")
    sp.set_defaults(handler=cmd_synth)

    sp = sub.add_parser("train", help="train the fusion block on synthetic pairs")
    _add_global_flags(sp)
    _add_scene_flags(sp)
    sp.add_argument("--pairs", type=int)
    sp.add_argument("--n-clip", dest="n_clip", type=int)
    sp.add_argument("--heads", type=int)
    sp.add_argument("--hidden", type=int)
    sp.add_argument("--rotate", action=argparse.BooleanOptionalAction)
    sp.add_argument("--erase-fraction", dest="erase_fraction", type=float)
    sp.add_argument("--scale-min", dest="scale_min", type=float)
    sp.add_argument("--scale-max", dest="scale_max", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.add_argument("--margin", type=float)
    sp.add_argument("--distance", choices=["euclidean", "cosine"])
    sp.set_defaults(handler=cmd_train)

    sp = sub.add_parser("bench-fusion", help="compare fusion mechanisms on seeded scenes")
    _add_global_flags(sp)
    _add_scene_flags(sp)
    sp.add_argument("--scenes", type=int)
    sp.add_argument("--weights")
    sp.add_argument("--n-clip", dest="n_clip", type=int)
    sp.add_argument("--heads", type=int)
    _add_tracker_flags(sp)
    sp.set_defaults(handler=cmd_bench_fusion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (TrajkitError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
