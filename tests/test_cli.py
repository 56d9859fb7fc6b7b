"""End-to-end subcommand behavior through cli.main()."""

import json

import numpy as np
import pytest

from trajkit import cli, io


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


def test_track_missing_weights_for_fusion(tmp_path, capsys):
    scene = _synth(tmp_path / "scene")
    rc = _run(["track", "--detections", scene / "detections.jsonl",
               "--vocabulary", scene / "vocabulary.json",
               "--fusion", "self", "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert "MissingWeightsError" in capsys.readouterr().err


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


def test_classify_reproduces_track_output(tmp_path):
    # track --vocabulary and classify on that run's own tracks.jsonl label
    # through the same classify_trajectory, so their files must agree byte for byte
    scene = _synth(tmp_path / "scene", seed=6, extra=["--sigma", "0.2", "--flip-prob", "0.3",
                                                     "--miss-rate", "0.2", "--fp-rate", "1.0"])
    common = ["--detections", scene / "detections.jsonl", "--vocabulary", scene / "vocabulary.json"]
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
    bundle = io.load_weights(out / "weights.twb")
    assert "attn.wq" in bundle.tensors
    curve = json.loads((out / "loss_curve.json").read_text())["loss"]
    assert len(curve) == 20
    assert all(np.isfinite(curve))


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


def test_missing_input_exits_1(tmp_path, capsys):
    rc = _run(["track", "--detections", tmp_path / "nope.jsonl", "--out-dir", tmp_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope.jsonl" in err


def test_usage_error_exits_2():
    assert _run(["eval", "--definitely-not-a-flag"]) == 2
    assert _run(["not-a-command"]) == 2


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
