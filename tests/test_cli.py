"""End-to-end subcommand behavior through cli.main()."""

import hashlib
import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blocks import block
from trajkit import cli, io
from trajkit.classify import ClassifyConfig, classify_trajectory
from trajkit.fusion import FUSION_MECHANISMS, init_fusion_weights
from trajkit.tracker import Tracker, TrackerConfig, run_sequence


def _run(args):
    return cli.main([str(a) for a in args])


def _synth(out_dir, seed=3, extra=()):
    rc = _run(["synth", "--identities", 5, "--frames", 12, "--categories", 2,
               "--dim", 8, "--seed", seed, "--out-dir", out_dir, *extra])
    assert rc == 0
    return out_dir


def test_synth_writes_scene(tmp_path, capsys):
    out = _synth(tmp_path / "scene")
    for name in ("detections.jsonl", "groundtruth.jsonl", "vocabulary.json",
                 "synth_manifest.json"):
        assert (out / name).exists()
    assert "generated" in capsys.readouterr().out
    dets = io.load_detections(out / "detections.jsonl")
    assert len(dets) == 12


def test_synth_of_a_category_whose_prototypes_cancel_exits_1_and_writes_nothing(tmp_path, capsys):
    # it used to exit 0 and write NaN into vocabulary.json
    assert _run(["synth", "--categories", 1, "--dim", 1, "--identities", 2, "--frames", 3,
                 "--out-dir", tmp_path / "scene"]) == 1
    assert "ZeroNormError: category 0: " in capsys.readouterr().err
    assert not (tmp_path / "scene").exists()


def test_synth_sidecar_flag(tmp_path):
    out = _synth(tmp_path / "scene", extra=["--sidecar"])
    assert (out / "detections.embin").exists()
    first = json.loads((out / "detections.jsonl").read_text().splitlines()[0])
    assert "emb_ref" in first


def test_manifest_echoes_resolved_options(tmp_path):
    out = _synth(tmp_path / "scene", seed=9)
    manifest = json.loads((out / "synth_manifest.json").read_text())
    assert manifest["command"] == "synth"
    opts = manifest["options"]
    assert opts["seed"] == 9
    assert opts["identities"] == 5
    assert opts["sigma"] == 0.0  # untouched default is still echoed
    assert "out_dir" not in opts


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identities": 7, "frames": 9}))
    out = tmp_path / "scene"
    rc = _run(["synth", "--config", cfg, "--frames", 11, "--dim", 8,
               "--categories", 2, "--out-dir", out])
    assert rc == 0
    opts = json.loads((out / "synth_manifest.json").read_text())["options"]
    assert opts["identities"] == 7  # from config file
    assert opts["frames"] == 11  # flag wins over config
    gt = io.load_groundtruth(out / "groundtruth.jsonl")
    assert len(gt) == 7
    assert all(len(t.boxes) == 11 for t in gt)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identitees": 7}))
    rc = _run(["synth", "--config", cfg, "--out-dir", tmp_path / "o"])
    assert rc == 1
    assert "unknown keys" in capsys.readouterr().err


def test_track_pipeline(tmp_path):
    scene = _synth(tmp_path / "scene")
    run = tmp_path / "run"
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json", "--out-dir", run])
    assert rc == 0
    tracks = io.read_tracks(run / "tracks.jsonl")
    assert len(tracks) == 5
    assert all(t.label is not None for t in tracks)
    events = [json.loads(line) for line in (run / "events.jsonl").read_text().splitlines()]
    assert sum(e["kind"] == "born" for e in events) == 5
    assert sum(e["kind"] == "matched" for e in events) == 5 * 11


def test_track_without_vocabulary_votes_detections(tmp_path):
    scene = _synth(tmp_path / "scene")
    run = tmp_path / "run"
    rc = _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", run])
    assert rc == 0
    tracks = io.read_tracks(run / "tracks.jsonl")
    assert all(t.label_source == "det" for t in tracks)


def test_track_dump_csv(tmp_path):
    scene = _synth(tmp_path / "scene")
    run = tmp_path / "run"
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--dump-csv", "--out-dir", run])
    assert rc == 0
    lines = (run / "scores.csv").read_text().splitlines()
    assert lines[0] == "frame,track_id,det_idx,score"
    assert len(lines) > 5 * 11  # one row per live (track, det) pair per frame


def test_dump_csv_bytes_are_pinned_on_a_noisy_scene(tmp_path):
    # the digest was taken while csv.writer still wrote the rows, and re-taken
    # when the default softmax_temperature went from 1.0 to 0.05
    scene = _synth(tmp_path / "scene", seed=6, extra=["--sigma", "0.2", "--flip-prob", "0.3",
                                                      "--miss-rate", "0.2", "--fp-rate", "1.0"])
    run = tmp_path / "run"
    assert _run(["track", "--detections", scene / "detections.jsonl", "--dump-csv", "--out-dir", run]) == 0
    assert hashlib.sha256((run / "scores.csv").read_bytes()).hexdigest()[:16] == "c7bb74c858effc21"


def test_track_missing_weights_for_fusion(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json",
               "--fusion", "self", "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert "MissingWeightsError" in capsys.readouterr().err


def _write_weights(path, d, d_text=None):
    io.write_weights(init_fusion_weights(d, d_text=d_text, seed=0), path)
    return path


@pytest.mark.parametrize("fusion", ["attention", "self", "cross", "concat"])
def test_track_names_weights_narrower_than_embeddings(tmp_path, capsys, fusion):
    # an 8-wide bundle on 16-wide detections failed inside numpy or the
    # concat scorer, naming no file
    scene = _synth(tmp_path / "scene", extra=["--dim", 16])
    weights = _write_weights(tmp_path / "w8.twb", 8)
    capsys.readouterr()
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json", "--weights", weights,
               "--fusion", fusion, "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: DimMismatchError: {weights}: weights are 8 wide, embeddings 16\n")
    assert not (tmp_path / "run" / "tracks.jsonl").exists()


def test_classify_names_weights_narrower_than_embeddings(tmp_path, capsys):
    scene = _synth(tmp_path / "scene", extra=["--dim", 16])
    run = tmp_path / "run"
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", run]) == 0
    weights = _write_weights(tmp_path / "w8.twb", 8)
    capsys.readouterr()
    rc = _run(["classify", "--tracks", run / "tracks.jsonl",
               "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json", "--weights", weights,
               "--fusion", "self", "--out-dir", tmp_path / "cls"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: DimMismatchError: {weights}: weights are 8 wide, embeddings 16\n")


def test_bench_fusion_names_weights_narrower_than_dim(tmp_path, capsys):
    weights = _write_weights(tmp_path / "w8.twb", 8)
    rc = _run(["bench-fusion", "--identities", 4, "--frames", 8, "--categories", 2,
               "--dim", 16, "--scenes", 1, "--weights", weights, "--out-dir", tmp_path / "b"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: DimMismatchError: {weights}: weights are 8 wide, embeddings 16\n")


def test_track_names_weights_whose_lang_proj_misses_dim_text(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    weights = _write_weights(tmp_path / "w.twb", 8, d_text=5)
    capsys.readouterr()
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json", "--weights", weights,
               "--fusion", "self", "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: DimMismatchError: {weights}: lang_proj.w has 5 rows, "
        f"vocabulary dim_text is 8\n")


@pytest.mark.parametrize("drop, change, message", [
    ("mlp.w2", {}, "MissingWeightsError: {w}: weight bundle lacks tensors: mlp.w2"),
    (None, {"attn.wk": np.zeros((8, 5))},
     "DimMismatchError: {w}: tensor attn.wk has shape (8, 5), expected (8, 8)"),
], ids=["missing-tensor", "bad-shape"])
def test_track_names_weights_file_of_bad_bundle(tmp_path, capsys, drop, change, message):
    scene = _synth(tmp_path / "scene")
    tensors = {**init_fusion_weights(8, seed=0), **change}
    tensors.pop(drop, None)
    weights = tmp_path / "w.twb"
    io.write_weights(tensors, weights)
    capsys.readouterr()
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json", "--weights", weights,
               "--fusion", "self", "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message.format(w=weights)}\n"


@pytest.mark.parametrize("scale", ["nan", "-1", "0", "inf"])
def test_track_rejects_bad_score_scale_flag(tmp_path, capsys, scale):
    # a NaN or negative scale used to discard every detection and exit 0
    scene = _synth(tmp_path / "scene")
    capsys.readouterr()
    rc = _run(["track", "--detections", scene / "detections.jsonl", "--score-scale", scale,
               "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: ValueError: score_scale must be finite and > 0, got ")


def test_track_rejects_nan_score_scale_in_config(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"score_scale": NaN}')
    capsys.readouterr()
    rc = _run(["track", "--config", cfg, "--detections", scene / "detections.jsonl",
               "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: score_scale must be finite and > 0, got nan\n")


def test_eval_reports_perfect_on_clean_scene(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    run = tmp_path / "run"
    _run(["track", "--detections", scene / "detections.jsonl",
          "--vocabulary", scene / "vocabulary.json", "--out-dir", run])
    rc = _run(["eval", "--pred", run / "tracks.jsonl", "--gt", scene / "groundtruth.jsonl",
               "--vocabulary", scene / "vocabulary.json", "--out-dir", run])
    assert rc == 0
    report = json.loads((run / "report.json").read_text())
    assert report["overall"]["teta"] == pytest.approx(100.0)
    assert report["base"]["tp"] > 0 and report["novel"]["tp"] > 0
    out = capsys.readouterr().out
    assert "overall" in out and "TETA" in out


def test_classify_rewrites_labels(tmp_path):
    scene = _synth(tmp_path / "scene")
    run = tmp_path / "run"
    _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", run])
    before = io.read_tracks(run / "tracks.jsonl")
    cls_dir = tmp_path / "cls"
    rc = _run(["classify", "--tracks", run / "tracks.jsonl",
               "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json",
               "--calibrate-scores", "--out-dir", cls_dir])
    assert rc == 0
    after = io.read_tracks(cls_dir / "tracks.jsonl")
    assert len(after) == len(before)
    assert all(t.label is not None for t in after)
    assert all(t.scores and "cate" in t.scores for t in after)


@pytest.mark.parametrize("fusion", FUSION_MECHANISMS)
def test_classify_reproduces_track_output(tmp_path, fusion):
    # track --vocabulary and classify on that run's own tracks.jsonl label
    # the same (record, record_embeddings(record, dets)) pairs through the
    # same classify_trajectory, so their files must agree byte for byte
    scene = _synth(tmp_path / "scene", seed=6, extra=["--sigma", "0.2", "--flip-prob", "0.3",
                                                     "--miss-rate", "0.2", "--fp-rate", "1.0",
                                                     "--sidecar"])
    weights = tmp_path / "w.twb"
    io.write_weights(init_fusion_weights(8, zero_residual=False), weights)
    common = ["--detections", scene / "detections.jsonl", "--vocabulary", scene / "vocabulary.json",
              "--fusion", fusion, "--weights", weights, "--heads", 2]
    run, cls_dir = tmp_path / "run", tmp_path / "cls"
    assert _run(["track", *common, "--out-dir", run]) == 0
    assert _run(["classify", "--tracks", run / "tracks.jsonl", *common, "--out-dir", cls_dir]) == 0
    tracked = io.read_tracks(run / "tracks.jsonl")
    # the scene exercises what classify reads: gaps, clutter tracks, mixed retained categories
    assert len(tracked) > 5
    assert any(b.frame - a.frame > 1 for r in tracked for a, b in zip(r.entries, r.entries[1:]))
    assert any(len({e.category_id for e in r.entries}) > 1 for r in tracked)
    assert (cls_dir / "tracks.jsonl").read_bytes() == (run / "tracks.jsonl").read_bytes()


def test_track_names_line_of_zero_norm_embedding(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    det_path = scene / "detections.jsonl"
    lines = det_path.read_text().splitlines()
    bad = json.loads(lines[3])
    bad["emb"] = [0.0] * len(bad["emb"])
    lines[3] = json.dumps(bad)
    det_path.write_text("\n".join(lines) + "\n")
    rc = _run(["track", "--detections", det_path, "--out-dir", tmp_path / "run"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ZeroNormError:")
    assert "detections.jsonl:4: embedding has zero norm" in err


def test_train_writes_weights_and_curve(tmp_path):
    out = tmp_path / "tr"
    rc = _run(["train", "--steps", 20, "--identities", 4, "--frames", 10,
               "--dim", 8, "--pairs", 8, "--seed", 1, "--out-dir", out])
    assert rc == 0
    assert "attn.wq" in io.load_weights(out / "weights.twb")
    curve = json.loads((out / "loss_curve.json").read_text())["loss"]
    assert len(curve) == 20
    assert all(np.isfinite(curve))


# sha256 prefixes of train's weights.twb and loss_curve.json, taken once each
# stack's backward summed its clips' gradients; a run must keep every bit.
# The first case mixes 3-, 4- and 5-row clips in every step.
TRAIN_DIGESTS = {
    "mixed_lengths": (["--frames", 6, "--miss-rate", 0.4, "--pairs", 8, "--seed", 3],
                      {3, 4, 5}, "56d1c06d9c8d8fc9", "cf47f4208b086a57"),
    "heads2_cosine": (["--frames", 10, "--pairs", 8, "--seed", 4, "--heads", 2,
                       "--distance", "cosine"], {5}, "2b12a09f36389aa8", "e298dace4d5b876b"),
    "batch_above_pairs": (["--frames", 10, "--pairs", 5, "--batch-size", 12, "--seed", 5],
                          {5}, "e7e4c9ecd0c8924d", "896cc2ec733380f9"),
}


@pytest.mark.parametrize("case", sorted(TRAIN_DIGESTS))
def test_train_bytes_are_pinned(tmp_path, monkeypatch, case):
    args, want_lengths, want_weights, want_curve = TRAIN_DIGESTS[case]
    lengths = set()
    real = cli.train_fusion

    def spy(pairs, weights, cfg):
        lengths.update(len(clip) for pair in pairs for clip in (pair.clip_a, pair.clip_b))
        return real(pairs, weights, cfg)

    monkeypatch.setattr(cli, "train_fusion", spy)
    assert _run(["train", "--identities", 4, "--dim", 8, "--steps", 20, *args,
                 "--out-dir", tmp_path]) == 0
    assert lengths == want_lengths
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
              for name in ("weights.twb", "loss_curve.json")}
    assert digest == {"weights.twb": want_weights, "loss_curve.json": want_curve}


@pytest.mark.parametrize("flag", ["--scale-min", "--scale-max"])
def test_train_rejects_one_scale_bound(tmp_path, capsys, flag):
    # one bound alone used to be ignored: exit 0 and the bytes of a run without it
    out = tmp_path / "tr"
    rc = _run(["train", "--steps", 2, "--dim", 8, "--pairs", 4, flag, "0.5", "--out-dir", out])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: --scale-min and --scale-max must be given together\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    # these used to fail in numpy ("need at least one array to stack", "negative dimensions
    # are not allowed"), and --hidden 0 exited 0 with a zero-width MLP
    ("--n-clip", 0, "n_clip must be at least 1"),
    ("--n-clip", -3, "n_clip must be at least 1"),
    ("--hidden", 0, "hidden must be at least 1"),
    ("--hidden", -1, "hidden must be at least 1"),
])
def test_train_names_a_bad_clip_or_hidden_size(tmp_path, capsys, flag, value, message):
    rc = _run(["train", "--steps", 2, "--dim", 8, "--pairs", 4, flag, value, "--out-dir", tmp_path / "tr"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    assert not (tmp_path / "tr" / "weights.twb").exists()


def test_bench_fusion_table(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = _run(["bench-fusion", "--identities", 4, "--frames", 8, "--categories", 2,
               "--dim", 8, "--scenes", 2, "--out-dir", out])
    assert rc == 0
    table = json.loads((out / "bench.json").read_text())
    assert set(table) == {"average", "attention", "self", "cross", "concat"}
    for row in table.values():
        assert set(row) == {"teta", "loc_a", "ass_a", "cls_a"}
    stdout = capsys.readouterr().out
    assert "mechanism" in stdout


def test_bench_fusion_rejects_zero_scenes(tmp_path, capsys):
    # zero scenes used to exit 0 and write NaN means, which is not JSON
    out = tmp_path / "bench"
    rc = _run(["bench-fusion", "--dim", 8, "--scenes", 0, "--out-dir", out])
    assert rc == 1
    assert capsys.readouterr().err == "error: ValueError: --scenes must be at least 1, got 0\n"
    assert not out.exists()


def test_track_rejects_nan_softmax_temperature(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    capsys.readouterr()
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--softmax-temperature", "nan", "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: softmax_temperature must be finite and positive\n")


def test_classify_names_empty_vocabulary(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    run = tmp_path / "run"
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", run]) == 0
    vocab = tmp_path / "empty.json"
    vocab.write_text(json.dumps({"dim_text": 8, "entries": []}))
    capsys.readouterr()
    rc = _run(["classify", "--tracks", run / "tracks.jsonl",
               "--detections", scene / "detections.jsonl",
               "--vocabulary", vocab, "--out-dir", tmp_path / "cls"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: FormatError: {vocab}: vocabulary needs at least one entry\n")



def _rewrite_tracks(path, change):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    change(lines)
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))


def test_classify_rejects_track_category_outside_vocabulary(tmp_path, capsys):
    # classify used to exit 0 and write "label": 77 with label_source "det"
    scene = _synth(tmp_path / "scene", extra=["--sigma", "0.3"])
    run = tmp_path / "run"
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", run]) == 0
    tracks = run / "tracks.jsonl"
    _rewrite_tracks(tracks, lambda lines: [obj.update(cat=77) for obj in lines])
    capsys.readouterr()
    out = tmp_path / "cls"
    rc = _run(["classify", "--tracks", tracks, "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json", "--out-dir", out])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: UnknownCategoryError: {tracks}:1: unknown category id 77\n")
    assert not (out / "tracks.jsonl").exists()


def test_classify_names_both_files_of_a_missing_detection(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    run = tmp_path / "run"
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", run]) == 0
    tracks, dets = run / "tracks.jsonl", scene / "detections.jsonl"
    _rewrite_tracks(tracks, lambda lines: lines[0].update(det=9))
    first = json.loads(tracks.read_text().splitlines()[0])
    capsys.readouterr()
    rc = _run(["classify", "--tracks", tracks, "--detections", dets,
               "--vocabulary", scene / "vocabulary.json", "--out-dir", tmp_path / "cls"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: FormatError: {tracks}: track {first['track_id']} references detection 9 of "
        f"frame {first['frame']}, which the detections file does not contain ({dets})\n")


NOISY = ["--sigma", "0.2", "--flip-prob", "0.3", "--miss-rate", "0.2", "--fp-rate", "1.0"]


def _labelled_runs(tmp_path):
    """track with and without a vocabulary, classify with concat and bench-fusion."""
    scene = _synth(tmp_path / "scene", seed=6, extra=NOISY)
    dets, vocab = scene / "detections.jsonl", scene / "vocabulary.json"
    weights = _write_weights(tmp_path / "w.twb", 8)
    return [
        ["track", "--detections", dets, "--out-dir", tmp_path / "plain"],
        ["track", "--detections", dets, "--vocabulary", vocab, "--out-dir", tmp_path / "vocab"],
        ["classify", "--tracks", tmp_path / "vocab" / "tracks.jsonl", "--detections", dets,
         "--vocabulary", vocab, "--fusion", "concat", "--weights", weights,
         "--out-dir", tmp_path / "cls"],
        ["bench-fusion", "--identities", 4, "--frames", 8, "--categories", 2, "--dim", 8,
         "--scenes", 2, "--seed", 5, *NOISY, "--out-dir", tmp_path / "bench"],
    ]


def test_labelled_outputs_pinned_on_a_noisy_scene(tmp_path):
    # track, classify and bench-fusion label through one loop; these digests
    # were taken before they shared it, and re-taken when the default
    # softmax_temperature went from 1.0 to 0.05. The events and synth digests were taken while
    # the writers spelled every float with %s and json.dumps
    for argv in _labelled_runs(tmp_path):
        assert _run(argv) == 0
    _synth(tmp_path / "sidecar", seed=6, extra=[*NOISY, "--sidecar"])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
               for name in ("plain/tracks.jsonl", "vocab/tracks.jsonl", "cls/tracks.jsonl",
                            "bench/bench.json", "plain/events.jsonl", "scene/detections.jsonl",
                            "sidecar/detections.jsonl", "scene/groundtruth.jsonl", "scene/vocabulary.json")}
    assert digests == {
        "plain/tracks.jsonl": "8f9ba054c493e953",
        "vocab/tracks.jsonl": "ffea863f59ec144b",
        "cls/tracks.jsonl": "ba0a09c78b8b2f69",
        "bench/bench.json": "6d4f4321af01795c",
        "plain/events.jsonl": "a78cb9b1f8e70283",
        "scene/detections.jsonl": "876d71e1071b26f5",
        "sidecar/detections.jsonl": "f68805c3f077afb1",
        "scene/groundtruth.jsonl": "7a21f9163e4da4ab",
        "scene/vocabulary.json": "d92f1c9ebd48cd60",
    }


def test_labelling_calls_classify_trajectory_by_the_cli_name(tmp_path, monkeypatch):
    # the benchmark's tracer wraps trajkit.cli.classify_trajectory, so every
    # command must label each trajectory through that name
    calls, track_counts = [], []

    def counting(entries, embeddings, vocab, weights, cfg, lang):
        calls.append(cfg.fusion)
        return classify_trajectory(entries, embeddings, vocab, weights, cfg, lang)

    def counted_run_sequence(*args):
        tracks = run_sequence(*args)
        track_counts.append(len(tracks))
        return tracks

    monkeypatch.setattr(cli, "classify_trajectory", counting)
    monkeypatch.setattr(cli, "run_sequence", counted_run_sequence)
    _, track, classify, bench = _labelled_runs(tmp_path)
    for argv, out, fusion in ((track, "vocab", "average"), (classify, "cls", "concat")):
        calls.clear()
        assert _run(argv) == 0
        n_tracks = len(io.read_tracks(tmp_path / out / "tracks.jsonl"))
        assert n_tracks > 5 and calls == [fusion] * n_tracks
    calls.clear()
    assert _run(bench) == 0
    assert len(track_counts) == 2 and min(track_counts) > 0
    assert calls == [mech for n in track_counts for mech in FUSION_MECHANISMS
                     for _ in range(n)]

def test_missing_input_exits_1(tmp_path, capsys):
    rc = _run(["track", "--detections", tmp_path / "nope.jsonl", "--out-dir", tmp_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope.jsonl" in err


@pytest.mark.parametrize("command, missing", [
    ("track", "detections"), ("classify", "tracks"), ("eval", "pred"),
])
def test_missing_required_input_exits_1_before_any_output(tmp_path, capsys, command, missing):
    out = tmp_path / "run"
    assert _run([command, "--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: ValueError: --{missing} is required\n"
    assert not out.exists()


TRAIN_SMALL = ["train", "--steps", 2, "--dim", 8, "--pairs", 4]
BENCH_SMALL = ["bench-fusion", "--frames", 4, "--dim", 8, "--scenes", 1]


def _write_refused_inputs(scene):
    """A vocabulary whose text width (6) is not the embeddings' (8), a track whose two
    detections have opposite embeddings, so that its average clip is zero, weights
    whose lang_proj.w projects every vocabulary row to zero, valid 8-wide weights,
    a config with a negative seed, a vocabulary whose second entry repeats the first's
    id, a vocabulary, tracks and config that each hold a value nested too deeply, configs
    that name no choice of fusion, sim_mode and distance, and tracks whose first
    track_id has 5,000 digits."""
    (scene / "negative_seed.json").write_text(json.dumps({"seed": -1}))
    for key, value in (("fusion", "self_noresidual"), ("sim_mode", "bogus"), ("distance", "bogus")):
        (scene / f"{key}_config.json").write_text(json.dumps({key: value}))
    (scene / "long_tracks.jsonl").write_text('{"track_id": %s}\n' % ("9" * 5000))
    deep = "[" * 100_000 + "]" * 100_000
    (scene / "deep_config.json").write_text('{"seed": %s}' % deep)
    (scene / "deep_tracks.jsonl").write_text('{"track_id": 1, "frame": 0, "bbox": [0, 0, 5, 5], "conf": 0.9, '
                                             '"cat": 0, "det": 0}\n{"track_id": %s}\n' % deep)
    weights = init_fusion_weights(8, seed=0)
    io.write_weights(weights, scene / "weights.twb")
    weights["lang_proj.w"] = np.zeros_like(weights["lang_proj.w"])
    io.write_weights(weights, scene / "zero_proj.twb")
    vocab = json.loads((scene / "vocabulary.json").read_text())
    for entry in vocab["entries"]:
        entry["cate_emb"], entry["attr_emb"] = entry["cate_emb"][:6], entry["attr_emb"][:6]
    (scene / "vocab6.json").write_text(json.dumps({**vocab, "dim_text": 6}))
    vocab = json.loads((scene / "vocabulary.json").read_text())
    vocab["entries"][1]["id"] = vocab["entries"][0]["id"]
    (scene / "dup_vocab.json").write_text(json.dumps(vocab))
    (scene / "deep_vocab.json").write_text(json.dumps({**vocab, "entries": "@"}).replace('"@"', deep))
    emb = np.eye(8, dtype=np.float32)[0]
    io.write_detections({f: block([io.DetectionRecord(f, (0.0, 0.0, 5.0, 5.0), 0.9, 0, 0.9, sign * emb)])
                         for f, sign in ((0, 1), (1, -1))}, scene / "zero.jsonl")
    io.write_tracks([io.TrackRecord(1, [io.TrackEntry(f, (0.0, 0.0, 5.0, 5.0), 0.9, 0, 0)
                                        for f in (0, 1)])], scene / "zero_tracks.jsonl")


@pytest.mark.parametrize("argv, message", [
    # each of these used to exit 1 and leave <command>_manifest.json alone in the out dir
    (TRAIN_SMALL + ["--n-clip", 0], "ValueError: n_clip must be at least 1"),
    (TRAIN_SMALL + ["--heads", 0], "ValueError: --heads must be at least 1, got 0"),
    (TRAIN_SMALL + ["--heads", 3], "DimMismatchError: --heads 3 does not divide the embedding width 8"),
    (["synth", "--identities", 0], "ValueError: identities, frames"),
    (["track", "--detections", "{scene}/detections.jsonl", "--tau-low", 0.9], "ValueError: tau_low"),
    (["track", "--detections", "{scene}/detections.jsonl", "--n-clip", 0], "ValueError: n_clip"),
    (["classify", "--tracks", "{scene}/bad.jsonl", "--detections", "{scene}/detections.jsonl",
      "--vocabulary", "{scene}/vocabulary.json"], "bad.jsonl:1"),
    (["eval", "--pred", "{scene}/run/tracks.jsonl", "--gt", "{scene}/groundtruth.jsonl",
      "--iou-threshold", 0], "ValueError: iou_threshold"),
    (BENCH_SMALL + ["--identities", 0], "ValueError: identities, frames"),
    (BENCH_SMALL + ["--n-clip", 0], "ValueError: n_clip"),
    (BENCH_SMALL + ["--tau-low", 0.9], "ValueError: tau_low"),
    # these three failed only once labelling began, naming no file
    (["track", "--detections", "{scene}/detections.jsonl", "--vocabulary", "{scene}/vocab6.json"],
     "vocab6.json: identity projection needs dim_text == d, got 6 vs 8"),
    (["classify", "--tracks", "{scene}/run/tracks.jsonl", "--detections", "{scene}/detections.jsonl",
      "--vocabulary", "{scene}/vocab6.json"],
     "vocab6.json: identity projection needs dim_text == d, got 6 vs 8"),
    (["classify", "--tracks", "{scene}/zero_tracks.jsonl", "--detections", "{scene}/zero.jsonl",
      "--vocabulary", "{scene}/vocabulary.json"],
     "zero_tracks.jsonl: track 1: cosine undefined for zero-norm vector"),
    # these two tracked every frame or labelled up to the first track, then named the wrong file
    (["track", "--detections", "{scene}/detections.jsonl", "--vocabulary", "{scene}/vocabulary.json",
      "--weights", "{scene}/zero_proj.twb"],
     "ZeroNormError: {scene}/zero_proj.twb: lang_proj.w projects the cate_emb of vocabulary entry 0"),
    (["classify", "--tracks", "{scene}/run/tracks.jsonl", "--detections", "{scene}/detections.jsonl",
      "--vocabulary", "{scene}/vocabulary.json", "--weights", "{scene}/zero_proj.twb"],
     "ZeroNormError: {scene}/zero_proj.twb: lang_proj.w projects the cate_emb of vocabulary entry 0"),
    # these tracked every frame, labelled up to the first track or ran a whole scene, then
    # blamed a data file or a scene, or named none
    (["track", "--detections", "{scene}/detections.jsonl", "--vocabulary", "{scene}/vocabulary.json",
      "--weights", "{scene}/weights.twb", "--fusion", "self", "--heads", 3],
     "DimMismatchError: --heads 3 does not divide the embedding width 8"),
    (["track", "--detections", "{scene}/detections.jsonl", "--vocabulary", "{scene}/vocabulary.json",
      "--weights", "{scene}/weights.twb", "--fusion", "self", "--heads", 0],
     "ValueError: --heads must be at least 1, got 0"),
    (["classify", "--tracks", "{scene}/run/tracks.jsonl", "--detections", "{scene}/detections.jsonl",
      "--vocabulary", "{scene}/vocabulary.json", "--weights", "{scene}/weights.twb",
      "--fusion", "concat", "--heads", 3],
     "DimMismatchError: --heads 3 does not divide the embedding width 8"),
    (BENCH_SMALL + ["--heads", 3], "DimMismatchError: --heads 3 does not divide the embedding width 8"),
    (BENCH_SMALL + ["--weights", "{scene}/zero_proj.twb"],
     "ZeroNormError: {scene}/zero_proj.twb: lang_proj.w projects the cate_emb of vocabulary entry 0"),
    # 1e-320 is finite and positive, but its reciprocal is not: every bi-softmax
    # score was NaN, so each detection started a track, and the run exited 0
    (["track", "--detections", "{scene}/detections.jsonl", "--softmax-temperature", 1e-320],
     "ValueError: softmax_temperature must be finite and positive with a finite reciprocal, got 1e-320"),
    # these exited 1 with numpy's "expected non-negative integer", naming no flag
    (["synth", "--seed", -1], "ValueError: --seed must be non-negative, got -1"),
    (TRAIN_SMALL + ["--seed", -1], "ValueError: --seed must be non-negative, got -1"),
    (BENCH_SMALL + ["--seed", -1], "ValueError: --seed must be non-negative, got -1"),
    (["synth", "--config", "{scene}/negative_seed.json"], "ValueError: --seed must be non-negative, got -1"),
    # these named neither the file nor the entry
    (["track", "--detections", "{scene}/detections.jsonl", "--vocabulary", "{scene}/dup_vocab.json"],
     "DuplicateCategoryError: {scene}/dup_vocab.json: entry 1: duplicate category id 0"),
    (["classify", "--tracks", "{scene}/run/tracks.jsonl", "--detections", "{scene}/detections.jsonl",
      "--vocabulary", "{scene}/dup_vocab.json"],
     "DuplicateCategoryError: {scene}/dup_vocab.json: entry 1: duplicate category id 0"),
    (["eval", "--pred", "{scene}/run/tracks.jsonl", "--gt", "{scene}/groundtruth.jsonl",
      "--vocabulary", "{scene}/dup_vocab.json"],
     "DuplicateCategoryError: {scene}/dup_vocab.json: entry 1: duplicate category id 0"),
    # these escaped cli.main as RecursionError
    (["eval", "--pred", "{scene}/run/tracks.jsonl", "--gt", "{scene}/groundtruth.jsonl",
      "--vocabulary", "{scene}/deep_vocab.json"],
     "FormatError: {scene}/deep_vocab.json: JSON nested too deeply"),
    (["eval", "--pred", "{scene}/deep_tracks.jsonl", "--gt", "{scene}/groundtruth.jsonl"],
     "FormatError: {scene}/deep_tracks.jsonl:2: JSON nested too deeply"),
    (["eval", "--config", "{scene}/deep_config.json"],
     "FormatError: config {scene}/deep_config.json is not valid JSON: maximum recursion depth exceeded"),
    # these named no file: a config value outside its option's choices, and an int too long
    # to read; a config naming self_noresidual, a fusion mechanism no longer offered, ran
    (["track", "--detections", "{scene}/detections.jsonl", "--config", "{scene}/fusion_config.json"],
     "FormatError: config {scene}/fusion_config.json: fusion must be one of "
     "('average', 'attention', 'self', 'cross', 'concat'), got 'self_noresidual'"),
    (["track", "--detections", "{scene}/detections.jsonl", "--config", "{scene}/sim_mode_config.json"],
     "FormatError: config {scene}/sim_mode_config.json: sim_mode must be one of "
     "('cosine_only', 'cosine_plus_bisoftmax'), got 'bogus'"),
    (TRAIN_SMALL + ["--config", "{scene}/distance_config.json"],
     "FormatError: config {scene}/distance_config.json: distance must be one of "
     "('euclidean', 'cosine'), got 'bogus'"),
    (["eval", "--pred", "{scene}/long_tracks.jsonl", "--gt", "{scene}/groundtruth.jsonl"],
     "FormatError: {scene}/long_tracks.jsonl:1: Exceeds the limit"),
    # these built a scene, then named no flag
    (TRAIN_SMALL + ["--pairs", 0], "ValueError: --pairs must be at least 1, got 0"),
    (TRAIN_SMALL + ["--pairs", -3], "ValueError: --pairs must be at least 1, got -3"),
    # every identity of one category missed: pair construction refused, naming no flag
    (TRAIN_SMALL + ["--identities", 2, "--categories", 2, "--frames", 1, "--miss-rate", 0.99],
     "ValueError: --identities 2 and --categories 2 left 0 categories with observations, and pairs need two"),
])
def test_failed_run_leaves_no_output(tmp_path, capsys, argv, message):
    scene = _synth(tmp_path / "scene")
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", scene / "run"]) == 0
    (scene / "bad.jsonl").write_text("{not json\n")
    _write_refused_inputs(scene)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [str(a).format(scene=scene) for a in argv]
    assert _run(argv + ["--out-dir", out]) == 1
    assert message.format(scene=scene) in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag", ["identities", "categories"])
def test_train_refuses_a_single_category_before_it_builds_a_scene(tmp_path, capsys, monkeypatch, flag):
    # identity i is of category i % --categories, so one identity or one category makes one
    # category; the refusal came from pair construction, after the scene, naming no flag
    monkeypatch.setattr(cli, "gen_scene", lambda cfg: pytest.fail("built a scene"))
    for value in (1, 0):
        assert _run(TRAIN_SMALL + [f"--{flag}", value, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (f"error: ValueError: --{flag} must be at least 2 for pairs of "
                                           f"two categories, got {value}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["track", "--detections", "{scene}/detections.jsonl", "--vocabulary", "{scene}/vocabulary.json"],
    ["classify", "--tracks", "{scene}/run/tracks.jsonl", "--detections", "{scene}/detections.jsonl",
     "--vocabulary", "{scene}/vocabulary.json"],
    # without a vocabulary a track is labelled by its det vote alone, so nothing attends
    ["track", "--detections", "{scene}/detections.jsonl", "--fusion", "self"],
])
@pytest.mark.parametrize("heads", [0, 3])
def test_heads_bind_only_fusion_that_attends(tmp_path, argv, heads):
    scene = _synth(tmp_path / "scene")
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", scene / "run"]) == 0
    argv = [str(a).format(scene=scene) for a in argv]
    assert _run(argv + ["--heads", heads, "--out-dir", tmp_path / "out"]) == 0


def test_track_refuses_a_vocabulary_before_it_tracks_a_frame(tmp_path, capsys, monkeypatch):
    scene = _synth(tmp_path / "scene")
    _write_refused_inputs(scene)
    frames, step = [], Tracker.step

    def counting_step(self, frame, dets):
        frames.append(frame)
        return step(self, frame, dets)

    monkeypatch.setattr(Tracker, "step", counting_step)
    dets = scene / "detections.jsonl"
    assert _run(["track", "--detections", dets, "--vocabulary", scene / "vocabulary.json",
                 "--out-dir", tmp_path / "ok"]) == 0
    assert frames  # the counting step is the one track calls
    frames.clear()
    capsys.readouterr()
    assert _run(["track", "--detections", dets, "--vocabulary", scene / "vocab6.json",
                 "--out-dir", tmp_path / "run"]) == 1
    assert capsys.readouterr().err == (f"error: DimMismatchError: {scene / 'vocab6.json'}: "
                                       f"identity projection needs dim_text == d, got 6 vs 8\n")
    assert frames == [] and not (tmp_path / "run").exists()


def test_dump_csv_holds_no_more_than_a_frame_of_scores(tmp_path):
    # every (frame, track, det, score) row used to be kept until the end of the run,
    # more memory than the CSV file itself takes
    scene = tmp_path / "scene"
    assert _run(["synth", "--identities", 20, "--frames", 16, "--fp-rate", 3, "--sigma", 0.1,
                 "--dim", 8, "--out-dir", scene]) == 0
    peaks = []
    for flags in ([], ["--dump-csv"]):
        tracemalloc.start()
        try:
            assert _run(["track", "--detections", scene / "detections.jsonl", *flags,
                         "--out-dir", tmp_path / "run"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < (tmp_path / "run" / "scores.csv").stat().st_size


@pytest.mark.parametrize("key", ["cate_emb", "attr_emb"])
def test_zero_norm_vocabulary_row_fails_at_load(tmp_path, capsys, key):
    scene = _synth(tmp_path / "scene")
    vocab_path = scene / "vocabulary.json"
    doc = json.loads(vocab_path.read_text())
    doc["entries"][1][key] = [0.0] * doc["dim_text"]
    vocab_path.write_text(json.dumps(doc))
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--vocabulary", vocab_path, "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert f"{vocab_path}: entry 1: {key} has zero norm" in capsys.readouterr().err


def test_eval_reads_only_the_splits_of_a_vocabulary_that_classify_refuses(tmp_path, capsys, monkeypatch):
    scene = _synth(tmp_path / "scene")
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", scene / "run"]) == 0
    doc = json.loads((scene / "vocabulary.json").read_text())
    doc["entries"][1]["cate_emb"] = [0.0] * doc["dim_text"]
    zero = scene / "zero_vocab.json"
    zero.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run(["classify", "--tracks", scene / "run" / "tracks.jsonl", "--detections",
                 scene / "detections.jsonl", "--vocabulary", zero, "--out-dir", tmp_path / "cls"]) == 1
    assert f"{zero}: entry 1: cate_emb has zero norm" in capsys.readouterr().err

    def refuse(path):
        raise AssertionError(f"eval loaded the whole vocabulary {path}")

    monkeypatch.setattr(io, "load_vocabulary", refuse)
    reports = []
    for vocab in (scene / "vocabulary.json", zero):
        out = tmp_path / vocab.stem
        assert _run(["eval", "--pred", scene / "run" / "tracks.jsonl", "--gt", scene / "groundtruth.jsonl",
                     "--vocabulary", vocab, "--out-dir", out]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["novel"]["tp"] > 0


def test_usage_error_exits_2():
    assert _run(["eval", "--definitely-not-a-flag"]) == 2
    assert _run(["not-a-command"]) == 2


def test_one_parser_serves_every_command_of_a_process(tmp_path):
    cli._parser.cache_clear()
    scene = _synth(tmp_path / "s")
    assert _run(["track", "--detections", scene / "detections.jsonl", "--out-dir", scene / "run"]) == 0
    assert _run(["eval", "--pred", scene / "run" / "tracks.jsonl", "--gt", scene / "groundtruth.jsonl",
                 "--out-dir", tmp_path / "e", "--iou-threshold", "nope"]) == 2
    assert not (tmp_path / "e").exists()
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_seed_changes_output(tmp_path):
    a = _synth(tmp_path / "a", seed=1)
    b = _synth(tmp_path / "b", seed=2)
    assert (a / "detections.jsonl").read_text() != (b / "detections.jsonl").read_text()


def test_repeat_runs_byte_identical(tmp_path):
    a = _synth(tmp_path / "a", seed=4, extra=["--sigma", "0.1", "--fp-rate", "0.4"])
    b = _synth(tmp_path / "b", seed=4, extra=["--sigma", "0.1", "--fp-rate", "0.4"])
    for name in ("detections.jsonl", "groundtruth.jsonl", "vocabulary.json",
                 "synth_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("command, text, key", [
    ("track", '{"max_age": "x"}', "max_age must be an int"),
    ("track", '{"n_bank": 2.5}', "n_bank must be an int"),
    ("track", '{"tau_match": null}', "tau_match must be a number"),
    ("track", '{"dump_csv": "no"}', "dump_csv must be true or false"),
    ("track", '{"sim_mode": 1}', "sim_mode must be a string"),
    ("track", '{"tau_new": "0.5"}', "tau_new must be a number or null"),
    ("synth", '{"identities": 2.5}', "identities must be an int"),
    ("synth", '{"frames": "4"}', "frames must be an int"),
    ("synth", '{"sigma": "0.1"}', "sigma must be a number"),
    ("synth", '{"sidecar": 1}', "sidecar must be true or false"),
    ("synth", '{"occlusion": [1]}', "occlusion must be a string or a list of"),
    ("synth", '{"occlusion": [[0, 1]]}', "occlusion must be a string or a list of"),
    ("synth", '[1]', "must hold a JSON object"),
    ("synth", '{"frames": ', "is not valid JSON"),
])
def test_config_values_are_type_checked(tmp_path, capsys, command, text, key):
    # each of these used to escape cli.main as a TypeError/JSONDecodeError, or
    # (dump_csv "no") to be read as true, without naming the config file
    scene = _synth(tmp_path / "scene")
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "run"
    inputs = ["--detections", scene / "detections.jsonl"] if command == "track" else []
    assert _run([command, "--config", cfg, *inputs, "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: config {cfg}")
    assert key in err
    assert not out.exists()


def test_config_accepts_each_type_and_null_where_default_is_none(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identities": 3, "sigma": 0, "sidecar": True,
                               "class_spread": None, "occlusion": [[0, 1, 2]]}))
    out = tmp_path / "scene"
    assert _run(["synth", "--config", cfg, "--frames", 5, "--dim", 8, "--out-dir", out]) == 0
    opts = json.loads((out / "synth_manifest.json").read_text())["options"]
    assert opts["sigma"] == 0 and opts["sidecar"] is True and opts["occlusion"] == [[0, 1, 2]]
    # the occlusion window hides one identity in frames 1-2
    assert sorted(len(t.boxes) for t in io.load_groundtruth(out / "groundtruth.jsonl")) == [3, 5, 5]


_TRACKER_OPTIONS = {
    "alpha_mem": 0.25, "alpha_sim": 0.25, "max_age": 30, "n_bank": 15, "n_cat_bank": 5,
    "sim_mode": "cosine_plus_bisoftmax", "softmax_temperature": 0.05, "tau_high": 0.3,
    "tau_low": 0.1, "tau_match": 0.4, "tau_new": None,
}
_CLASSIFY_OPTIONS = {"calibrate_scores": False, "fusion": "average", "heads": 1, "n_clip": 5}
_SCENE_OPTIONS = {
    "categories": 2, "class_spread": None, "dim": 8, "flip_prob": 0.0, "fp_rate": 0.0,
    "frames": 5, "identities": 3, "miss_rate": 0.0, "occlusion": None, "seed": 0, "sigma": 0.0,
}


def test_manifest_options_of_every_subcommand_are_pinned(tmp_path):
    # the option surface as it was when each flag was written out by hand,
    # with the tracker's temperature under its dataclass name
    s, t = tmp_path / "s", tmp_path / "t"
    det, voc, gt = s / "detections.jsonl", s / "vocabulary.json", s / "groundtruth.jsonl"
    runs = {
        "synth": (["--identities", 3, "--frames", 5, "--categories", 2, "--dim", 8, "--out-dir", s],
                  {**_SCENE_OPTIONS, "sidecar": False}),
        "track": (["--detections", det, "--vocabulary", voc, "--out-dir", t],
                  {**_TRACKER_OPTIONS, **_CLASSIFY_OPTIONS, "detections": str(det), "dump_csv": False,
                   "score_scale": 1.0, "seed": 0, "vocabulary": str(voc), "weights": None}),
        "classify": (["--tracks", t / "tracks.jsonl", "--detections", det, "--vocabulary", voc,
                      "--out-dir", tmp_path / "c"],
                     {**_CLASSIFY_OPTIONS, "detections": str(det), "seed": 0,
                      "tracks": str(t / "tracks.jsonl"), "vocabulary": str(voc), "weights": None}),
        "eval": (["--pred", t / "tracks.jsonl", "--gt", gt, "--out-dir", tmp_path / "e"],
                 {"gt": str(gt), "iou_threshold": 0.5, "pred": str(t / "tracks.jsonl"), "seed": 0,
                  "vocabulary": None}),
        "train": (["--identities", 3, "--frames", 6, "--dim", 8, "--steps", 2, "--pairs", 4,
                   "--out-dir", tmp_path / "tr"],
                  {**_SCENE_OPTIONS, "batch_size": 8, "class_spread": 0.1, "distance": "euclidean",
                   "erase_fraction": 0.0, "frames": 6, "heads": 1, "hidden": None, "lr": 0.05,
                   "margin": 0.5, "n_clip": 5, "pairs": 4, "rotate": False, "scale_max": None,
                   "scale_min": None, "sigma": 0.05, "steps": 2}),
        "bench-fusion": (["--identities", 3, "--frames", 5, "--categories", 2, "--dim", 8,
                          "--scenes", 1, "--out-dir", tmp_path / "b"],
                         {**_SCENE_OPTIONS, **_TRACKER_OPTIONS, "heads": 1, "n_clip": 5, "scenes": 1,
                          "weights": None}),
    }
    for command, (flags, expected) in runs.items():
        assert _run([command, *flags]) == 0
        manifest = json.loads((flags[-1] / f"{command}_manifest.json").read_text())
        assert manifest == {"command": command, "options": expected}


def _other_value(f):
    """A valid value for a config field other than its default."""
    kind = type(f.default)
    if f.default is None:
        return 0.5
    if kind is bool:
        return not f.default
    if kind is int:
        return f.default + 1
    if kind is float:
        return f.default / 2
    return next(c for c in cli.CHOICES[f.name] if c != f.default)


def test_track_takes_every_config_field_as_a_flag(tmp_path):
    scene = _synth(tmp_path / "scene")
    flags, expected = [], {}
    for f in (*fields(TrackerConfig), *fields(ClassifyConfig)):
        value = expected[f.name] = _other_value(f)
        name = f.name.replace("_", "-")
        if type(value) is bool:
            flags.append(f"--{name}" if value else f"--no-{name}")
        else:
            flags += [f"--{name}", value]
    out = tmp_path / "run"
    assert _run(["track", "--detections", scene / "detections.jsonl", *flags, "--out-dir", out]) == 0
    opts = json.loads((out / "track_manifest.json").read_text())["options"]
    assert {k: opts[k] for k in expected} == expected


def test_old_temperature_name_is_gone(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    det = scene / "detections.jsonl"
    assert _run(["track", "--detections", det, "--temperature", 0.5, "--out-dir", tmp_path / "a"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"temperature": 0.5}))
    capsys.readouterr()
    assert _run(["track", "--config", cfg, "--detections", det, "--out-dir", tmp_path / "b"]) == 1
    assert "unknown keys: temperature" in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    ({"tau_high": -2 ** 63 - 1}, "ValueError: tau_low (0.1) must not exceed tau_high"),
    ({"tau_match": 10 ** 400}, "OverflowError: int too large to convert to float"),
])
def test_config_int_too_big_for_int64_exits_1(tmp_path, capsys, values, message):
    # a JSON int past int64 reached np.isfinite in TrackerConfig and raised TypeError
    scene = _synth(tmp_path / "scene")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    capsys.readouterr()
    rc = _run(["track", "--config", cfg, "--detections", scene / "detections.jsonl",
               "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert message in capsys.readouterr().err


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=4))
_TRACK_KEYS = sorted({**cli.GLOBAL_DEFAULTS,
                      **next(options for name, _, _, options in cli.COMMANDS if name == "track")})


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.dictionaries(st.sampled_from(_TRACK_KEYS), _JSON_SCALARS, max_size=4))
def test_any_config_scalars_exit_cleanly(tmp_path, values):
    # arbitrary JSON scalars under track's option keys are used or refused,
    # never a traceback
    det = tmp_path / "scene" / "detections.jsonl"
    if not det.exists():
        _synth(tmp_path / "scene")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    rc = _run(["track", "--config", cfg, "--detections", det, "--out-dir", tmp_path / "run"])
    assert rc in (0, 1)


def test_bank_size_past_the_frame_count_tracks_as_a_full_history(tmp_path):
    # the category bank is a slice of a track's entries, so a bank size too
    # large for a deque(maxlen=...) is one that holds every entry
    scene = _synth(tmp_path / "scene")
    det = scene / "detections.jsonl"
    for size, out in ((10 ** 30, "huge"), (12, "frames")):  # the scene has 12 frames
        assert _run(["track", "--detections", det, "--n-cat-bank", size,
                     "--out-dir", tmp_path / out]) == 0
    for name in ("tracks.jsonl", "events.jsonl"):
        assert (tmp_path / "huge" / name).read_bytes() == (tmp_path / "frames" / name).read_bytes()
