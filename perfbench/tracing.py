"""Span tracing of trajkit from outside its source.

A ``Tracer`` replaces module attributes with timing wrappers for as long as
it is installed (``with tracer:``) and puts the originals back on exit.
Each function is wrapped under the name its caller looks it up by, so that
``trajkit.tracker.Tracker.step`` sees the wrapped ``score_matrix`` and
``trajkit.cli.cmd_track`` sees the wrapped ``classify_trajectory``. A
target that no longer exists is skipped: its span then reports zero calls.

Spans stay in memory as ``[name, start, end, parent, child_time, pass]``
lists; self time is a span's duration minus the time its direct children
cover. Counters that need a call's arguments (pairs scored, bytes read and
written) are gathered by small hooks next to the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, CHILD, PASS = range(6)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_pairs(tracer, args, kwargs, result):
    if len(args) >= 2:
        tracer.count("tracker.pairs_scored", len(args[0]) * len(args[1]))
        tracer.live[tracer.pass_id].append(len(args[0]))


def _bytes_read(tracer, args, kwargs, result):
    if args:
        tracer.count("io.bytes_read", _size(args[0]))


def _detections_read(tracer, args, kwargs, result):
    """A detections file may pull in its ``.embin`` sidecar as well."""
    if not args:
        return
    tracer.count("io.bytes_read", _size(args[0]))
    sidecar = kwargs.get("sidecar") or Path(args[0]).with_suffix(".embin")
    tracer.count("io.bytes_read", _size(sidecar))


def _bytes_written(tracer, args, kwargs, result):
    if len(args) >= 2:
        tracer.count("io.bytes_written", _size(args[1]))


def _detections_written(tracer, args, kwargs, result):
    if len(args) >= 2:
        tracer.count("io.bytes_written", _size(args[1]))
        if kwargs.get("sidecar"):
            tracer.count("io.bytes_written", _size(Path(args[1]).with_suffix(".embin")))


# (module, attribute path in the caller's namespace, span name, counter hook)
TARGETS = (
    ("trajkit.cli", "main", "cli.main", None),
    ("trajkit.io", "load_detections", "io.load_detections", _detections_read),
    ("trajkit.io", "read_tracks", "io.read_tracks", _bytes_read),
    ("trajkit.io", "load_groundtruth", "io.load_groundtruth", _bytes_read),
    ("trajkit.io", "load_vocabulary", "io.load_vocabulary", _bytes_read),
    ("trajkit.io", "load_weights", "io.load_weights", _bytes_read),
    ("trajkit.io", "write_tracks", "io.write_tracks", _bytes_written),
    ("trajkit.io", "write_weights", "io.write_weights", _bytes_written),
    ("trajkit.io", "write_detections", "io.write_detections", _detections_written),
    ("trajkit.io", "write_groundtruth", "io.write_groundtruth", _bytes_written),
    ("trajkit.io", "write_vocabulary", "io.write_vocabulary", _bytes_written),
    ("trajkit.synth", "gen_scene", "synth.gen_scene", None),
    ("trajkit.cli", "gen_scene", "synth.gen_scene", None),
    ("trajkit.cli", "make_train_pairs", "synth.make_train_pairs", None),
    ("trajkit.cli", "init_fusion_weights", "fusion.init_fusion_weights", None),
    ("trajkit.cli", "train_fusion", "train.train_fusion", None),
    ("trajkit.train", "loss_and_gradients", "train.loss_and_gradients", None),
    ("trajkit.tracker", "Tracker.step", "tracker.step", None),
    ("trajkit.tracker", "score_matrix", "tracker.score_matrix", _count_pairs),
    ("trajkit.tracker", "associate_frame", "tracker.associate_frame", None),
    ("trajkit.cli", "classify_trajectory", "classify.classify_trajectory", None),
    ("trajkit.cli", "track_from_record", "classify.track_from_record", None),
    ("trajkit.cli", "to_track_record", "classify.to_track_record", None),
    ("trajkit.classify", "sample_clip", "classify.sample_clip", None),
    ("trajkit.classify", "project_language", "classify.project_language", None),
    ("trajkit.classify", "affinity", "classify.affinity", None),
    ("trajkit.classify", "fuse_average", "fusion.fuse_average", None),
    ("trajkit.classify", "fuse_attention", "fusion.fuse_attention", None),
    ("trajkit.classify", "fuse_self", "fusion.fuse_self", None),
    ("trajkit.classify", "fuse_cross", "fusion.fuse_cross", None),
    ("trajkit.classify", "concat_score", "fusion.concat_score", None),
    ("trajkit.metrics", "evaluate", "metrics.evaluate", None),
    ("trajkit.metrics", "frame_matching", "metrics.frame_matching", None),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted path, or None if gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    """In-memory span recorder; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.live: dict[int, list[int]] = defaultdict(list)  # tracks per score_matrix call
        self.pass_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counters[self.pass_id][name] += value

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0, self.pass_id]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for module, path, name, hook in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr = found
            original = owner.__dict__.get(attr, getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def summary(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds in one pass."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            if span[PASS] != pass_id:
                continue
            dur = span[END] - span[START]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - span[CHILD]
        return out

    def durations(self, name: str, pass_id) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name and s[PASS] == pass_id]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "pass": s[PASS], "parent": s[PARENT],
                                     "start": s[START] - t0, "end": s[END] - t0}) + "\n")
