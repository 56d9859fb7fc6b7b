"""Command line frontend.

``COMMANDS`` lists the subcommands (``track``, ``classify``, ``eval``,
``synth``, ``train``, ``bench-fusion``) with their options and defaults.
An option ``x_y`` is the flag ``--x-y``, typed by its default (a bool gives
``--x-y/--no-x-y``); tracker and classify options are the fields of
``TrackerConfig`` and ``ClassifyConfig``. Every subcommand also takes
``--config`` (a JSON object of option values, each of its option's type),
``--seed`` and ``--out-dir``; flags override config values, which override
defaults. Each run writes its resolved options to ``<command>_manifest.json``
in the output directory, only once its options and inputs have passed every
check; outputs are deterministic in manifest + seed.
``track``, ``classify`` and ``bench-fusion`` label trajectories through one
loop, ``_label``, which calls ``classify_trajectory`` once per trajectory.

Exit codes: 0 success, 1 domain error (bad file, missing weights, diverged
training, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import fields
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
from .errors import DimMismatchError, FormatError, MissingWeightsError, TrajkitError
from .fusion import FUSION_MECHANISMS, FusionWeights, init_fusion_weights
from .synth import Augmentations, SynthConfig, gen_scene, make_train_pairs
from .tracker import SIM_MODES, Tracker, TrackerConfig, run_sequence
from .train import DISTANCES, TrainConfig, train_fusion

GLOBAL_DEFAULTS = {"seed": 0, "out_dir": "."}
SCENE_DEFAULTS = {
    "identities": 20, "frames": 100, "categories": 4, "dim": 32, "sigma": 0.0,
    "miss_rate": 0.0, "fp_rate": 0.0, "flip_prob": 0.0, "class_spread": None,
    "occlusion": None,
}

# What an option's default cannot tell: the type of a None default (str when
# not listed), the allowed values and the help line.
NONE_TYPES = {"tau_new": float, "class_spread": float, "hidden": int,
              "scale_min": float, "scale_max": float}
CHOICES = {"sim_mode": SIM_MODES, "fusion": FUSION_MECHANISMS, "distance": DISTANCES}
HELP = {
    "seed": "random seed (default 0)",
    "out_dir": "output directory (default .)",
    "dump_csv": "write per-frame association scores to scores.csv",
    "occlusion": "windows as ident:first-last[,ident:first-last...]",
    "sidecar": "store embeddings in a binary sidecar instead of inline JSON",
}

# The JSON types a --config file may give an option of each type, as messages name them.
CONFIG_KINDS = {int: ("an int", (int,)), float: ("a number", (int, float)),
                bool: ("true or false", (bool,)), str: ("a string", (str,))}

BENCH_MECHANISMS = ("average", "attention", "self", "cross", "concat")


def _need_file(path, what: str) -> Path:
    if path is None:
        raise ValueError(f"--{what} is required")
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p


def _defaults(cls, *names: str) -> dict:
    """Field defaults of a config dataclass: all of them, or only those named."""
    return {f.name: f.default for f in fields(cls) if not names or f.name in names}


def _config(cls, opts: dict):
    return cls(**{f.name: opts[f.name] for f in fields(cls)})


def _option_type(key: str, default) -> type:
    return NONE_TYPES.get(key, str) if default is None else type(default)


def _fits(key: str, default, value) -> bool:
    if value is None:
        return default is None
    if key == "occlusion" and type(value) is list:  # windows as [ident, first, last]
        return all(type(w) is list and len(w) == 3 and all(type(v) is int for v in w)
                   for w in value)
    return type(value) in CONFIG_KINDS[_option_type(key, default)][1]


def _read_config(path, options: dict) -> dict:
    """A --config file's values, each checked against its option's type."""
    cfg_path = _need_file(path, "config")
    try:
        with open(cfg_path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except ValueError as exc:  # malformed JSON or bad UTF-8
        raise FormatError(f"config {cfg_path} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise FormatError(f"config {cfg_path} must hold a JSON object of option values")
    unknown = set(values) - set(options)
    if unknown:
        raise FormatError(f"config {cfg_path} has unknown keys: {', '.join(sorted(unknown))}")
    for key, value in values.items():
        if not _fits(key, options[key], value):
            kind = CONFIG_KINDS[_option_type(key, options[key])][0]
            kind += " or a list of windows" if key == "occlusion" else ""
            raise FormatError(f"config {cfg_path}: {key} must be {kind}"
                              f"{' or null' if options[key] is None else ''}, got {value!r}")
    return values


def _resolve(args) -> dict:
    """Overlay built-in defaults, config file values, then explicit flags."""
    from_file = _read_config(args.config, args.options) if args.config is not None else {}
    resolved = {}
    for key, default in args.options.items():
        flag_val = getattr(args, key)
        resolved[key] = flag_val if flag_val is not None else from_file.get(key, default)
    return resolved


def _write_manifest(command: str, resolved: dict) -> Path:
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # out_dir names the destination but never changes what gets computed, so
    # it stays out of the manifest and runs into different dirs stay comparable.
    manifest = {"command": command,
                "options": {k: v for k, v in sorted(resolved.items()) if k != "out_dir"}}
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out_dir


def _parse_occlusion(spec) -> list[tuple[int, int, int]]:
    if not spec:
        return []
    if isinstance(spec, list):  # from a JSON config, already checked by _read_config
        return [tuple(item) for item in spec]
    windows = []
    for part in spec.split(","):
        try:
            ident, rng = part.split(":")
            lo, hi = rng.split("-")
            windows.append((int(ident), int(lo), int(hi)))
        except ValueError:
            raise FormatError(f"bad occlusion window {part!r}, expected ident:first-last") from None
    return windows


def _load_fusion_weights(path) -> FusionWeights:
    path = _need_file(path, "weights")
    tensors = io.load_weights(path)
    try:
        return FusionWeights(tensors)
    except (MissingWeightsError, DimMismatchError) as exc:  # name the file, as io's errors do
        raise type(exc)(f"{path}: {exc}") from None


def _check_weights_fit(path, weights: FusionWeights | None, width: int | None,
                       dim_text: int | None) -> None:
    """Weights must be as wide as the embeddings and project the vocabulary's text width."""
    if weights is None:
        return
    if width is not None and weights.d != width:
        raise DimMismatchError(f"{path}: weights are {weights.d} wide, embeddings {width}")
    rows = weights["lang_proj.w"].shape[0]
    if dim_text is not None and rows != dim_text:
        raise DimMismatchError(f"{path}: lang_proj.w has {rows} rows, vocabulary dim_text is {dim_text}")


def _embedding_width(dets: dict) -> int | None:
    return next(iter(dets.values()))[0].embedding.shape[0] if dets else None


def _scene_config(opts: dict, seed: int) -> SynthConfig:
    return SynthConfig(
        n_identities=opts["identities"], n_frames=opts["frames"],
        n_categories=opts["categories"], embed_dim=opts["dim"],
        noise_sigma=opts["sigma"], occlusion=_parse_occlusion(opts["occlusion"]),
        miss_rate=opts["miss_rate"], fp_rate=opts["fp_rate"],
        label_flip_prob=opts["flip_prob"], class_spread=opts["class_spread"],
        seed=seed,
    )


def _label(trajectories, vocab, weights, ccfg) -> list[io.TrackRecord]:
    """Label each (record, embeddings) pair; without a vocabulary only the det vote labels."""
    lang = project_vocabulary(vocab, weights) if vocab is not None and trajectories else None
    return [label_record(record, classify_trajectory(record.entries, embeddings, vocab,
                                                     weights, ccfg, lang))
            for record, embeddings in trajectories]


def cmd_track(args) -> int:
    opts = _resolve(args)
    det_path = _need_file(opts["detections"], "detections")
    vocab = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary")) if opts["vocabulary"] else None
    weights = _load_fusion_weights(opts["weights"]) if opts["weights"] else None
    if weights is None and vocab is not None and opts["fusion"] != "average":
        raise MissingWeightsError(f"fusion={opts['fusion']!r} needs --weights")
    dets = io.load_detections(det_path, opts["score_scale"], vocabulary=vocab)
    _check_weights_fit(opts["weights"], weights, _embedding_width(dets),
                       vocab.dim_text if vocab is not None else None)
    ccfg = _config(ClassifyConfig, opts)
    tracker = Tracker(_config(TrackerConfig, opts))
    out_dir = _write_manifest("track", opts)

    events = []
    with contextlib.ExitStack() as stack:
        scores_csv = None
        if opts["dump_csv"]:
            fh = stack.enter_context(open(out_dir / "scores.csv", "w", newline="", encoding="utf-8"))
            scores_csv = csv.writer(fh)
            scores_csv.writerow(["frame", "track_id", "det_idx", "score"])
        for frame in sorted(dets):
            events.extend(tracker.step(frame, dets[frame]))
            if scores_csv is not None:  # each frame's rows as it is tracked
                scores_csv.writerows(
                    (frame, track_id, di, f"{score:.6f}")
                    for track_id, row in zip(tracker.last_ids, tracker.last_scores.tolist())
                    for di, score in enumerate(row))

    records = _label([(to_track_record(t), t.embeddings) for t in tracker.tracks],
                     vocab, weights, ccfg)
    io.write_tracks(records, out_dir / "tracks.jsonl")
    io.write_events(events, out_dir / "events.jsonl")
    n_frames = len(dets)
    print(f"tracked {sum(len(v) for v in dets.values())} detections over {n_frames} frames "
          f"into {len(records)} tracks")
    print(f"wrote {out_dir / 'tracks.jsonl'} and {out_dir / 'events.jsonl'}")
    return 0


def cmd_classify(args) -> int:
    opts = _resolve(args)
    tracks_path = _need_file(opts["tracks"], "tracks")
    det_path = _need_file(opts["detections"], "detections")
    vocab = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary"))
    weights = _load_fusion_weights(opts["weights"]) if opts["weights"] else None
    if weights is None and opts["fusion"] != "average":
        raise MissingWeightsError(f"fusion={opts['fusion']!r} needs --weights")
    records = io.read_tracks(tracks_path, vocabulary=vocab)
    dets = io.load_detections(det_path)
    _check_weights_fit(opts["weights"], weights, _embedding_width(dets), vocab.dim_text)
    try:
        trajectories = [(record, record_embeddings(record, dets)) for record in records]
    except FormatError as exc:  # name both files, as io's errors do
        raise FormatError(f"{tracks_path}: {exc} ({det_path})") from None
    ccfg = _config(ClassifyConfig, opts)
    out_dir = _write_manifest("classify", opts)
    out = _label(trajectories, vocab, weights, ccfg)
    io.write_tracks(out, out_dir / "tracks.jsonl")
    print(f"classified {len(out)} tracks with fusion={opts['fusion']}")
    print(f"wrote {out_dir / 'tracks.jsonl'}")
    return 0


def cmd_eval(args) -> int:
    opts = _resolve(args)
    preds = io.read_tracks(_need_file(opts["pred"], "pred"))
    gts = io.load_groundtruth(_need_file(opts["gt"], "gt"))
    splits = {}
    if opts["vocabulary"]:
        splits = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary")).splits()
    report = metrics.evaluate(preds, gts, metrics.EvalConfig(opts["iou_threshold"], splits))
    out_dir = _write_manifest("eval", opts)
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(report.format_table())
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_synth(args) -> int:
    opts = _resolve(args)
    scene = gen_scene(_scene_config(opts, opts["seed"]))
    out_dir = _write_manifest("synth", opts)
    io.write_detections(scene.detections, out_dir / "detections.jsonl", sidecar=opts["sidecar"])
    io.write_groundtruth(scene.gt_tracks, out_dir / "groundtruth.jsonl")
    io.write_vocabulary(scene.vocabulary, out_dir / "vocabulary.json")
    n_dets = sum(len(v) for v in scene.detections.values())
    print(f"generated {n_dets} detections, {len(scene.gt_tracks)} tracks, "
          f"{len(scene.vocabulary)} categories over {opts['frames']} frames")
    print(f"wrote detections.jsonl, groundtruth.jsonl, vocabulary.json in {out_dir}")
    return 0


def cmd_train(args) -> int:
    opts = _resolve(args)
    if (opts["scale_min"] is None) != (opts["scale_max"] is None):
        raise ValueError("--scale-min and --scale-max must be given together")
    scene = gen_scene(_scene_config(opts, opts["seed"]))
    scale_range = None if opts["scale_min"] is None else (opts["scale_min"], opts["scale_max"])
    aug = Augmentations(rotate=opts["rotate"], erase_fraction=opts["erase_fraction"],
                        scale_range=scale_range)
    pairs = make_train_pairs(scene, n_clip=opts["n_clip"], augmentations=aug,
                             seed=opts["seed"], n_pairs=opts["pairs"])
    weights = init_fusion_weights(opts["dim"], hidden=opts["hidden"], seed=opts["seed"])
    tcfg = TrainConfig(margin=opts["margin"], distance=opts["distance"],
                       learning_rate=opts["lr"], steps=opts["steps"],
                       batch_size=opts["batch_size"], seed=opts["seed"], heads=opts["heads"])
    trained, curve = train_fusion(pairs, weights, tcfg)
    out_dir = _write_manifest("train", opts)
    io.write_weights(trained, out_dir / "weights.twb")
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
    tracks = run_sequence(scene.detections, _config(TrackerConfig, opts))
    ecfg = metrics.EvalConfig(splits=scene.vocabulary.splits())
    trajectories = [(to_track_record(t), t.embeddings) for t in tracks]
    row = {}
    for mech in BENCH_MECHANISMS:  # each mechanism relabels the same records
        ccfg = ClassifyConfig(fusion=mech, n_clip=opts["n_clip"], heads=opts["heads"])
        records = _label(trajectories, scene.vocabulary, weights, ccfg)
        row[mech] = metrics.evaluate(records, scene.gt_tracks, ecfg).overall
    return row


def cmd_bench_fusion(args) -> int:
    opts = _resolve(args)
    if opts["scenes"] < 1:
        raise ValueError(f"--scenes must be at least 1, got {opts['scenes']}")
    if opts["weights"]:
        weights = _load_fusion_weights(opts["weights"])
        # a synthetic scene's embeddings and text vectors are both --dim wide
        _check_weights_fit(opts["weights"], weights, opts["dim"], opts["dim"])
    else:
        weights = init_fusion_weights(opts["dim"], seed=opts["seed"], zero_residual=False)
    seeds = [opts["seed"] + s for s in range(opts["scenes"])]
    rows = [_bench_one_scene(s, opts, weights) for s in seeds]
    out_dir = _write_manifest("bench-fusion", opts)

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


COMMANDS = (
    ("track", cmd_track, "associate detections into tracks and label them",
     {"detections": None, "vocabulary": None, "weights": None, "score_scale": 1.0,
      "dump_csv": False, **_defaults(TrackerConfig), **_defaults(ClassifyConfig)}),
    ("classify", cmd_classify, "relabel existing tracks at trajectory level",
     {"tracks": None, "detections": None, "vocabulary": None, "weights": None,
      **_defaults(ClassifyConfig)}),
    ("eval", cmd_eval, "score predicted tracks against ground truth",
     {"pred": None, "gt": None, "vocabulary": None, "iou_threshold": 0.5}),
    ("synth", cmd_synth, "generate a synthetic scene with ground truth",
     {**SCENE_DEFAULTS, "sidecar": False}),
    # train clips have the classify clip length and head count
    ("train", cmd_train, "train the fusion block on synthetic pairs",
     {**SCENE_DEFAULTS, "identities": 8, "frames": 40, "categories": 2, "dim": 16,
      "sigma": 0.05, "class_spread": 0.1, "pairs": 64, **_defaults(ClassifyConfig, "n_clip", "heads"),
      "hidden": None, "rotate": False, "erase_fraction": 0.0, "scale_min": None,
      "scale_max": None, "steps": 500, "lr": 0.05, "batch_size": 8, "margin": 0.5,
      "distance": "euclidean"}),
    ("bench-fusion", cmd_bench_fusion, "compare fusion mechanisms on seeded scenes",
     {**SCENE_DEFAULTS, "scenes": 3, "weights": None, **_defaults(ClassifyConfig, "n_clip", "heads"),
      **_defaults(TrackerConfig)}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajkit",
                                     description="Trajectory-aware open-vocabulary tracking toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_line, command_options in COMMANDS:
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", help="JSON file of option values; flags override it")
        options = {**GLOBAL_DEFAULTS, **command_options}
        for key, default in options.items():
            if type(default) is bool:
                kind = {"action": argparse.BooleanOptionalAction}
            else:
                kind = {"type": _option_type(key, default), "choices": CHOICES.get(key)}
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=HELP.get(key), **kind)
        sp.set_defaults(handler=handler, options=options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (TrajkitError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
