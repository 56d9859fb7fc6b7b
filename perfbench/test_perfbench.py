"""Smoke-size runs of every workload through the benchmark's own command.

    python3 -m pytest perfbench

Each run uses tiny scenes (``--smoke``) but the same set-up, commands,
checks and tracing as a full run, and must emit exactly the metrics that
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values()), metrics
    elif workload == "crowd":
        assert metrics["tracker.tracks_per_identity"] > 1  # the association collapse
        assert metrics["tracker.step.calls"] > 0
    elif workload == "openvocab":
        assert metrics["tracker.step.calls"] == 0
        assert metrics["fusion.concat_score.calls"] > 0
        assert 0 < metrics["train.loss_ratio"] < 1


def test_fails_without_trajkit_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH), encoding="utf-8")
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_wrapped_function():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing
    import trajkit.tracker

    before = (trajkit.tracker.score_matrix, trajkit.tracker.Tracker.step)
    with tracing.Tracer():
        assert trajkit.tracker.score_matrix is not before[0]
        assert trajkit.tracker.Tracker.step is not before[1]
    assert (trajkit.tracker.score_matrix, trajkit.tracker.Tracker.step) == before


def test_scaled_time_follows_the_gauge():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gauge

    ref = gauge.REFERENCE_S
    assert gauge.scaled(2.0, ref, ref) == pytest.approx(2.0)
    assert gauge.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)  # host at half speed
    assert gauge.scaled(2.0, ref, 3 * ref) == pytest.approx(1.0)  # mean of before and after
    assert gauge.gauge() > 0
