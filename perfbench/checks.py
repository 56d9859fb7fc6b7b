"""Output checks run on every pass; each failed check counts in fail_rate."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path

SCORES = ("teta", "loc_a", "ass_a", "cls_a")
SCOPES = ("overall", "base", "novel")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"perfbench: check failed: {name} {detail}\n")
        return ok


def _lines(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def check_tracks(checks: Checks, path: Path, vocab_ids) -> set[int]:
    """Every line carries a vocabulary label; returns the track ids."""
    ids, bad = set(), 0
    for row in _lines(path):
        ids.add(row["track_id"])
        bad += row.get("label") not in vocab_ids
    checks.expect("every label is a vocabulary id", bad == 0, f"({bad} lines in {path})")
    return ids


def check_track_run(checks: Checks, out: Path, dets_per_frame: dict[int, int],
                    vocab_ids) -> dict[str, int]:
    """Checks on events.jsonl and tracks.jsonl of one ``track`` run.

    Returns the event counts by kind plus ``tracks`` (distinct track ids).
    """
    kinds: Counter = Counter()
    dets = defaultdict(list)
    matched = defaultdict(list)
    born = []
    for ev in _lines(out / "events.jsonl"):
        kinds[ev["kind"]] += 1
        if ev["kind"] in ("matched", "born", "discarded"):
            dets[ev["frame"]].append(ev["det"])
        if ev["kind"] == "matched":
            matched[ev["frame"]].append(ev["track"])
        elif ev["kind"] == "born":
            born.append(ev["track"])
    checks.expect("one matched, born or discarded event per detection",
                  set(dets) <= set(dets_per_frame)
                  and all(sorted(dets.get(f, ())) == list(range(n)) for f, n in dets_per_frame.items()))
    checks.expect("no track matched twice in one frame",
                  all(len(ids) == len(set(ids)) for ids in matched.values()))
    checks.expect("born ids increase strictly", all(a < b for a, b in zip(born, born[1:])))
    n_lines = sum(1 for _ in _lines(out / "tracks.jsonl"))
    checks.expect("tracks.jsonl lines equal matched + born events",
                  n_lines == kinds["matched"] + kinds["born"],
                  f"({n_lines} lines, {kinds['matched']} matched, {kinds['born']} born)")
    ids = check_tracks(checks, out / "tracks.jsonl", vocab_ids)
    return {**kinds, "tracks": len(ids)}


def check_report(checks: Checks, path: Path, n_gt_boxes: int) -> dict[str, float]:
    """tp + fn covers the ground truth and every score lies in [0, 100]."""
    report = json.loads(path.read_text(encoding="utf-8"))
    overall = report["overall"]
    checks.expect("report tp + fn equals the ground-truth box count",
                  overall["tp"] + overall["fn"] == n_gt_boxes,
                  f"({overall['tp']} + {overall['fn']} != {n_gt_boxes})")
    checks.expect("report scores lie in [0, 100]",
                  all(0.0 <= report[s][k] <= 100.0 for s in SCOPES for k in SCORES))
    return overall


def check_loss(checks: Checks, path: Path) -> float:
    """Training loss is finite and ends below its start; returns final/initial."""
    curve = json.loads(path.read_text(encoding="utf-8"))["loss"]
    ok = bool(curve) and all(math.isfinite(v) for v in curve) and curve[-1] < curve[0]
    checks.expect("training loss is finite and decreases", ok,
                  f"({curve[0] if curve else None} -> {curve[-1] if curve else None})")
    return curve[-1] / curve[0] if ok and curve[0] else 0.0


def digest(root: Path, files: list[Path]) -> dict[str, str]:
    """sha256 of each file, keyed by its path below ``root``."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def check_identical(checks: Checks, what: str, ref: dict[str, str], got: dict[str, str]) -> None:
    differ = sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k))
    checks.expect(f"{what} byte-identical to the first pass", not differ, f"(differ: {differ[:5]})")
