"""The benchmark's tracer sees every labelling layer of ``classify``.

``perfbench/tracing.py`` wraps trajkit functions under the names their
callers look them up by. A labelling layer that is moved, or bound under
another name, would read zero calls in the benchmark's per-layer metrics;
these runs catch that for each fusion mechanism.
"""

import importlib.util
from pathlib import Path

import pytest

from trajkit import cli, io
from trajkit.fusion import FUSION_MECHANISMS, init_fusion_weights

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

FUSE_SPANS = {"average": "fuse_average", "attention": "fuse_attention", "self": "fuse_self",
              "cross": "fuse_cross", "concat": "concat_score"}


@pytest.fixture(scope="module")
def labelled_run(tmp_path_factory):
    """A synthetic scene, its tracks and a weight bundle of its width."""
    root = tmp_path_factory.mktemp("tracing")
    assert cli.main(["synth", "--identities", "4", "--frames", "8", "--categories", "2",
                     "--dim", "8", "--seed", "2", "--out-dir", str(root)]) == 0
    assert cli.main(["track", "--detections", str(root / "detections.jsonl"),
                     "--out-dir", str(root / "run")]) == 0
    io.write_weights(init_fusion_weights(8, seed=0, zero_residual=False), root / "w.twb")
    return root


@pytest.mark.parametrize("fusion", FUSION_MECHANISMS)
def test_tracer_sees_every_labelling_layer_of_classify(labelled_run, fusion):
    root = labelled_run
    argv = ["classify", "--tracks", root / "run" / "tracks.jsonl",
            "--detections", root / "detections.jsonl", "--vocabulary", root / "vocabulary.json",
            "--weights", root / "w.twb", "--fusion", fusion, "--out-dir", root / fusion]
    tracer = tracing.Tracer()
    with tracer:
        assert cli.main([str(a) for a in argv]) == 0
    calls = {name: span["calls"] for name, span in tracer.summary(tracer.pass_id).items()}
    n_tracks = len(io.read_tracks(root / "run" / "tracks.jsonl"))
    assert calls["classify.classify_trajectory"] == n_tracks > 0
    assert calls.get("classify.sample_clip", 0) > 0
    assert calls.get("classify.project_language", 0) > 0
    assert calls.get(f"fusion.{FUSE_SPANS[fusion]}", 0) > 0
    assert (calls.get("classify.affinity", 0) > 0) == (fusion != "concat")
