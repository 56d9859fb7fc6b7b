"""Command line frontend.

``COMMANDS`` lists the subcommands (``track``, ``classify``, ``eval``,
``synth``, ``train``, ``bench-fusion``) with their options and defaults.
An option ``x_y`` is the flag ``--x-y``, typed by its default (a bool gives
``--x-y/--no-x-y``). An option that sets a field of a config dataclass takes
that field's default; ``FIELD_OF`` names the field where the two differ.
Every subcommand also takes ``--config`` (a JSON object of option values,
each of its option's type), ``--seed`` and ``--out-dir``; flags override
config values, which override defaults. A run writes its resolved options
to ``<command>_manifest.json`` once its options and inputs have passed every
check (a non-negative ``--seed`` for every subcommand, ``--heads`` for
``train`` and for labelling, with ``classify.check_labelling``, once,
naming the file or flag at fault); outputs are deterministic in
manifest + seed.
``track``, ``classify`` and ``bench-fusion`` label each trajectory, tracked or
read back, as ``(record, record_embeddings(record, dets))`` through one loop,
``_label``, which calls ``classify_trajectory`` once per trajectory.

Exit codes: 0 success, 1 domain error (bad file, missing weights, diverged
training, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io, metrics
from .classify import (
    ClassifyConfig,
    LanguageRows,
    check_labelling,
    classify_trajectory,
    label_record,
    project_vocabulary,
    record_embeddings,
    to_track_record,
)
from .errors import DimMismatchError, FormatError, MissingWeightsError, TrajkitError, ZeroNormError
from .fusion import FUSION_MECHANISMS, FusionWeights, init_fusion_weights
from .synth import Augmentations, SynthConfig, gen_scene, make_train_pairs
from .tracker import SIM_MODES, Tracker, TrackerConfig, run_sequence
from .train import DISTANCES, TrainConfig, train_fusion

GLOBAL_DEFAULTS = {"seed": 0, "out_dir": "."}
# The config field each flag sets, where the two names differ.
FIELD_OF = {"identities": "n_identities", "frames": "n_frames", "categories": "n_categories",
            "dim": "embed_dim", "sigma": "noise_sigma", "flip_prob": "label_flip_prob",
            "lr": "learning_rate"}
SCENE_FLAGS = ("identities", "frames", "categories", "dim", "sigma", "miss_rate", "fp_rate",
               "flip_prob", "class_spread")
TRAIN_FLAGS = ("steps", "lr", "batch_size", "margin", "distance")

# What an option's default cannot tell: the type of a None default (str when
# not listed), the allowed values and the help line.
NONE_TYPES = {"tau_new": float, "class_spread": float, "hidden": int,
              "scale_min": float, "scale_max": float}
CHOICES = {"sim_mode": SIM_MODES, "fusion": FUSION_MECHANISMS, "distance": DISTANCES}
HELP = {
    "seed": "random seed, at least 0 (default 0)",
    "out_dir": "output directory (default .)",
    "dump_csv": "write per-frame association scores to scores.csv",
    "occlusion": "windows as ident:first-last[,ident:first-last...]",
    "sidecar": "store embeddings in a binary sidecar instead of inline JSON",
}

# The JSON types a --config file may give an option of each type, as messages name them.
CONFIG_KINDS = {int: ("an int", (int,)), float: ("a number", (int, float)),
                bool: ("true or false", (bool,)), str: ("a string", (str,))}


def _need_file(path, what: str) -> Path:
    if path is None:
        raise ValueError(f"--{what} is required")
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p


def _defaults(cls, *flags: str) -> dict:
    """Each flag's default, read off its field of a config dataclass: every field's, or the flags named."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {flag: defaults[FIELD_OF.get(flag, flag)] for flag in flags} if flags else defaults


def _config(cls, opts: dict, *flags: str, **values):
    """A config dataclass from the options of the flags named (of all its fields if none) and ``values``."""
    return cls(**{FIELD_OF.get(flag, flag): opts[flag] for flag in flags or [f.name for f in fields(cls)]},
               **values)


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
    """A --config file's values, each checked against its option's type and choices."""
    cfg_path = _need_file(path, "config")
    try:
        with open(cfg_path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (ValueError, RecursionError) as exc:  # malformed JSON, bad UTF-8 or nested too deeply
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
        if key in CHOICES and value not in CHOICES[key]:
            raise FormatError(f"config {cfg_path}: {key} must be one of {CHOICES[key]}, got {value!r}")
    return values


def _resolve(args) -> dict:
    """Overlay built-in defaults, config file values, then explicit flags; refuse a negative seed."""
    from_file = _read_config(args.config, args.options) if args.config is not None else {}
    opts = {key: from_file.get(key, default) if getattr(args, key) is None else getattr(args, key)
            for key, default in args.options.items()}
    if opts["seed"] < 0:  # numpy's generators would refuse it naming no flag
        raise ValueError(f"--seed must be non-negative, got {opts['seed']}")
    return opts


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(command: str, resolved: dict) -> Path:
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # out_dir names the destination but never changes what gets computed, so
    # it stays out of the manifest and runs into different dirs stay comparable.
    _write_json(out_dir / f"{command}_manifest.json",
                {"command": command, "options": {k: v for k, v in resolved.items() if k != "out_dir"}})
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


def _embedding_width(dets: dict) -> int | None:
    return next(iter(dets.values())).embedding.shape[1] if dets else None


def _scene(opts: dict, seed: int):
    occlusion = _parse_occlusion(opts["occlusion"])
    return gen_scene(_config(SynthConfig, opts, *SCENE_FLAGS, occlusion=occlusion, seed=seed))


def _check_heads(heads: int, width: int | None) -> None:
    """Refuse a head count that attention cannot split ``width``-wide embeddings into."""
    if heads < 1:
        raise ValueError(f"--heads must be at least 1, got {heads}")
    if width is not None and width % heads:
        raise DimMismatchError(f"--heads {heads} does not divide the embedding width {width}")


def _language(opts: dict, vocab, weights, width, fusion: str, dim_text=None) -> LanguageRows | None:
    """Check once per run, before any output, that the inputs can label with ``fusion``; the
    projected vocabulary rows, if any. A refusal names the flag or file at fault: ``--heads``
    when a vocabulary's labels would be fused by attention (every mechanism but average attends),
    else the weights when given, else the vocabulary."""
    if vocab is not None and fusion != "average":
        _check_heads(opts["heads"], width)
    try:
        if vocab is None:
            return check_labelling(dim_text, width, weights)
        return project_vocabulary(vocab, weights, fusion, width)
    except MissingWeightsError:
        raise MissingWeightsError(f"fusion={fusion!r} needs --weights") from None
    except (DimMismatchError, ZeroNormError) as exc:
        raise type(exc)(f"{opts['weights'] or opts['vocabulary']}: {exc}") from None


def _label(trajectories, vocab, weights, ccfg, lang, source) -> list[io.TrackRecord]:
    """Label each (record, embeddings) pair, by the det vote alone without a vocabulary;
    a trajectory that cannot be labelled fails naming ``source`` and its track."""
    records = []
    for record, embeddings in trajectories:
        try:
            records.append(label_record(record, classify_trajectory(
                record.entries, embeddings, vocab, weights, ccfg, lang)))
        except TrajkitError as exc:
            raise type(exc)(f"{source}: track {record.track_id}: {exc}") from None
    return records


def cmd_track(args) -> int:
    opts = _resolve(args)
    det_path = _need_file(opts["detections"], "detections")
    vocab = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary")) if opts["vocabulary"] else None
    weights = _load_fusion_weights(opts["weights"]) if opts["weights"] else None
    dets = io.load_detections(det_path, opts["score_scale"], vocabulary=vocab)
    ccfg = _config(ClassifyConfig, opts)
    lang = _language(opts, vocab, weights, _embedding_width(dets), opts["fusion"])
    tracker = Tracker(_config(TrackerConfig, opts))
    out_dir = _write_manifest("track", opts)

    events = []
    with (open(out_dir / "scores.csv", "w", newline="", encoding="utf-8") if opts["dump_csv"]
          else contextlib.nullcontext()) as scores_csv:
        if scores_csv is not None:
            scores_csv.write("frame,track_id,det_idx,score\r\n")
        for frame in sorted(dets):
            events.extend(tracker.step(frame, dets[frame]))
            if scores_csv is not None:  # each frame's rows as it is tracked
                scores_csv.write("".join(
                    "%d,%d,%d,%.6f\r\n" % (frame, track_id, di, score)
                    for track_id, row in zip(tracker.last_ids, tracker.last_scores.tolist())
                    for di, score in enumerate(row)))

    records = _label([(r, record_embeddings(r, dets)) for r in map(to_track_record, tracker.tracks)],
                     vocab, weights, ccfg, lang, det_path)
    io.write_tracks(records, out_dir / "tracks.jsonl")
    io.write_events(events, out_dir / "events.jsonl")
    print(f"tracked {sum(len(v) for v in dets.values())} detections over {len(dets)} frames "
          f"into {len(records)} tracks")
    print(f"wrote {out_dir / 'tracks.jsonl'} and {out_dir / 'events.jsonl'}")
    return 0


def cmd_classify(args) -> int:
    opts = _resolve(args)
    tracks_path = _need_file(opts["tracks"], "tracks")
    det_path = _need_file(opts["detections"], "detections")
    vocab = io.load_vocabulary(_need_file(opts["vocabulary"], "vocabulary"))
    weights = _load_fusion_weights(opts["weights"]) if opts["weights"] else None
    records = io.read_tracks(tracks_path, vocabulary=vocab)
    dets = io.load_detections(det_path)
    ccfg = _config(ClassifyConfig, opts)
    lang = _language(opts, vocab, weights, _embedding_width(dets), opts["fusion"])
    try:
        trajectories = [(record, record_embeddings(record, dets)) for record in records]
    except FormatError as exc:  # name both files, as io's errors do
        raise FormatError(f"{tracks_path}: {exc} ({det_path})") from None
    out = _label(trajectories, vocab, weights, ccfg, lang, tracks_path)
    out_dir = _write_manifest("classify", opts)
    io.write_tracks(out, out_dir / "tracks.jsonl")
    print(f"classified {len(out)} tracks with fusion={opts['fusion']}")
    print(f"wrote {out_dir / 'tracks.jsonl'}")
    return 0


def cmd_eval(args) -> int:
    opts = _resolve(args)
    preds = io.read_tracks(_need_file(opts["pred"], "pred"))
    gts = io.load_groundtruth(_need_file(opts["gt"], "gt"))
    splits = io.load_splits(_need_file(opts["vocabulary"], "vocabulary")) if opts["vocabulary"] else {}
    report = metrics.evaluate(preds, gts, _config(metrics.EvalConfig, opts, "iou_threshold", splits=splits))
    out_dir = _write_manifest("eval", opts)
    _write_json(out_dir / "report.json", report.to_dict())
    print(report.format_table())
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_synth(args) -> int:
    opts = _resolve(args)
    scene = _scene(opts, opts["seed"])
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
    _check_heads(opts["heads"], opts["dim"])
    if opts["pairs"] < 1:
        raise ValueError(f"--pairs must be at least 1, got {opts['pairs']}")
    for flag in ("identities", "categories"):  # identity i is of category i % --categories
        if opts[flag] < 2:
            raise ValueError(f"--{flag} must be at least 2 for pairs of two categories, got {opts[flag]}")
    if (opts["scale_min"] is None) != (opts["scale_max"] is None):
        raise ValueError("--scale-min and --scale-max must be given together")
    scene = _scene(opts, opts["seed"])
    observed = {scene.identity_category[i] for i, obs in scene.identity_observations.items() if obs}
    if len(observed) < 2:  # every identity of all categories but one went unobserved
        raise ValueError(f"--identities {opts['identities']} and --categories {opts['categories']} "
                         f"left {len(observed)} categories with observations, and pairs need two")
    scale_range = None if opts["scale_min"] is None else (opts["scale_min"], opts["scale_max"])
    aug = _config(Augmentations, opts, "rotate", "erase_fraction", scale_range=scale_range)
    pairs = make_train_pairs(scene, n_clip=opts["n_clip"], augmentations=aug,
                             seed=opts["seed"], n_pairs=opts["pairs"])
    weights = init_fusion_weights(opts["dim"], hidden=opts["hidden"], seed=opts["seed"])
    trained, curve = train_fusion(pairs, weights, _config(TrainConfig, opts, *TRAIN_FLAGS, "seed", "heads"))
    out_dir = _write_manifest("train", opts)
    io.write_weights(trained, out_dir / "weights.twb")
    _write_json(out_dir / "loss_curve.json", {"loss": curve})
    if curve:
        print(f"trained {opts['steps']} steps on {len(pairs)} pairs: "
              f"loss {curve[0]:.6f} -> {curve[-1]:.6f}")
    else:
        print("no training steps requested, weights passed through")
    print(f"wrote {out_dir / 'weights.twb'} and {out_dir / 'loss_curve.json'}")
    return 0


def _bench_one_scene(scene_seed: int, opts: dict, weights: FusionWeights):
    scene = _scene(opts, scene_seed)
    tracks = run_sequence(scene.detections, _config(TrackerConfig, opts))
    ecfg = metrics.EvalConfig(splits=scene.vocabulary.splits())
    trajectories = [(r, record_embeddings(r, scene.detections)) for r in map(to_track_record, tracks)]
    # cmd_bench_fusion has checked --heads; a synthetic vocabulary's rows are unit vectors
    # --dim wide, so only a --weights file can be refused here
    lang = _language(opts, scene.vocabulary, weights, opts["dim"], "average")
    row = {}
    for mech in FUSION_MECHANISMS:  # each mechanism relabels the same records
        ccfg = ClassifyConfig(fusion=mech, n_clip=opts["n_clip"], heads=opts["heads"])
        records = _label(trajectories, scene.vocabulary, weights, ccfg, lang, f"scene {scene_seed}")
        row[mech] = metrics.evaluate(records, scene.gt_tracks, ecfg).overall
    return row


def cmd_bench_fusion(args) -> int:
    opts = _resolve(args)
    if opts["scenes"] < 1:
        raise ValueError(f"--scenes must be at least 1, got {opts['scenes']}")
    weights = (_load_fusion_weights(opts["weights"]) if opts["weights"]
               else init_fusion_weights(opts["dim"], seed=opts["seed"], zero_residual=False))
    # a synthetic scene's embeddings and text vectors are both --dim wide
    _check_heads(opts["heads"], opts["dim"])
    _language(opts, None, weights, opts["dim"], "average", opts["dim"])
    seeds = [opts["seed"] + s for s in range(opts["scenes"])]
    rows = [_bench_one_scene(s, opts, weights) for s in seeds]
    out_dir = _write_manifest("bench-fusion", opts)

    table = {mech: {key: float(np.mean([getattr(row[mech], key) for row in rows]))
                    for key in ("teta", "loc_a", "ass_a", "cls_a")} for mech in FUSION_MECHANISMS}
    _write_json(out_dir / "bench.json", table)
    print(f"{'mechanism':<12}{'TETA':>8}{'LocA':>8}{'AssA':>8}{'ClsA':>8}")
    for mech in FUSION_MECHANISMS:
        t = table[mech]
        print(f"{mech:<12}{t['teta']:>8.2f}{t['loc_a']:>8.2f}{t['ass_a']:>8.2f}{t['cls_a']:>8.2f}")
    print(f"wrote {out_dir / 'bench.json'}")
    return 0


SCENE_DEFAULTS = {**_defaults(SynthConfig, *SCENE_FLAGS), "occlusion": None}
COMMANDS = (
    ("track", cmd_track, "associate detections into tracks and label them",
     {"detections": None, "vocabulary": None, "weights": None, "score_scale": 1.0,
      "dump_csv": False, **_defaults(TrackerConfig), **_defaults(ClassifyConfig)}),
    ("classify", cmd_classify, "relabel existing tracks at trajectory level",
     {"tracks": None, "detections": None, "vocabulary": None, "weights": None,
      **_defaults(ClassifyConfig)}),
    ("eval", cmd_eval, "score predicted tracks against ground truth",
     {"pred": None, "gt": None, "vocabulary": None, **_defaults(metrics.EvalConfig, "iou_threshold")}),
    ("synth", cmd_synth, "generate a synthetic scene with ground truth",
     {**SCENE_DEFAULTS, "sidecar": False}),
    # train has its own scene defaults; its clips have the classify clip length and head count
    ("train", cmd_train, "train the fusion block on synthetic pairs",
     {**SCENE_DEFAULTS, "identities": 8, "frames": 40, "categories": 2, "dim": 16,
      "sigma": 0.05, "class_spread": 0.1, "pairs": 64, **_defaults(ClassifyConfig, "n_clip", "heads"),
      "hidden": None, **_defaults(Augmentations, "rotate", "erase_fraction"), "scale_min": None,
      "scale_max": None, **_defaults(TrainConfig, *TRAIN_FLAGS)}),
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process, for ``main``: parsing leaves it as it was, and the
    handlers it names look up at call time whatever they call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
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
