"""bench/scale.py runs one tiny cell and writes the record's keys."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scale_writes_one_cell(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "scale.py"), "--identities", "10",
                           "--frames", "3", "--runs", "1", "--out", str(out)],
                          cwd=tmp_path, env=dict(os.environ), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(out.read_text())
    assert set(record) == {"scene", "runs", "nproc", "blas_threads", "python", "numpy", "cells"}
    assert record["runs"] == 1 and record["blas_threads"] == 1
    (cell,) = record["cells"]
    assert (cell["identities"], cell["frames"]) == (10, 3)
    assert set(cell) == {"identities", "frames", "detections", "live_per_frame", "live_last_frame", "tracks",
                         "ms_per_frame", "ms_per_frame_q1", "ms_per_frame_q3"}
    for key in ("ms_per_frame", "ms_per_frame_q1", "ms_per_frame_q3"):
        assert set(cell[key]) == {"load", "score_matrix", "associate_frame", "update", "step", "label", "write",
                                  "evaluate", "frame_matching"}
    assert 0 < cell["ms_per_frame"]["frame_matching"] < cell["ms_per_frame"]["evaluate"]
    assert cell["ms_per_frame"]["label"] > 0
    # one run: its quartiles are its median
    assert cell["ms_per_frame_q1"] == cell["ms_per_frame"] == cell["ms_per_frame_q3"]
