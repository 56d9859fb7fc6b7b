"""Closed-loop benchmark of trajkit's track -> classify -> eval path.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; trajkit is imported from ``src/``.
One client runs one ``trajkit`` command after another, in-process, until
``--seconds`` of wall time are used up. Every pass is checked (see ``checks.py``). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each pass runs twice, untraced and
traced, and the JSON carries the per-layer metrics plus the tracing
overhead. Every time in an end-to-end metric is scaled to the host's fast
speed, gauged just before and after it (``gauge.py``); raw wall times are
kept in the result file. ``--workload all`` runs every workload, each in its own process.
``--smoke`` shrinks every scene so that a run takes seconds.

Results, with the run environment, go to ``.perfbench/result-*.json`` and
spans to ``.perfbench/trace-*.jsonl`` under the checkout root.
"""

import os
import sys

BLAS_THREADS = "1"
if __name__ == "__main__":  # must happen before numpy is first imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import gauge  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("crowd", "longrun", "openvocab")
SETUP_REPEATS = 5

# per-layer metric -> (span name, field) summed over one traced pass
SPAN_METRICS = {
    "tracker.score_matrix.s": ("tracker.score_matrix", "s"),
    "tracker.associate_frame.s": ("tracker.associate_frame", "s"),
    "tracker.step.s": ("tracker.step", "s"),
    "tracker.step.self_s": ("tracker.step", "self_s"),
    "tracker.step.calls": ("tracker.step", "calls"),
    "io.load_detections.s": ("io.load_detections", "s"),
    "io.load_detections.calls": ("io.load_detections", "calls"),
    "io.write_tracks.s": ("io.write_tracks", "s"),
    "io.read_tracks.s": ("io.read_tracks", "s"),
    "io.load_groundtruth.s": ("io.load_groundtruth", "s"),
    "io.load_vocabulary.s": ("io.load_vocabulary", "s"),
    "io.load_weights.s": ("io.load_weights", "s"),
    **{f"fusion.{fn}.{field}": (f"fusion.{fn}", field)
       for fn in ("fuse_average", "fuse_attention", "fuse_self", "fuse_cross", "concat_score")
       for field in ("s", "calls")},
    "classify.classify_trajectory.self_s": ("classify.classify_trajectory", "self_s"),
    "classify.affinity.s": ("classify.affinity", "s"),
    "classify.project_language.s": ("classify.project_language", "s"),
    "classify.track_from_record.s": ("classify.track_from_record", "s"),
    "train.train_fusion.self_s": ("train.train_fusion", "self_s"),
    "train.loss_and_gradients.s": ("train.loss_and_gradients", "s"),
    "train.loss_and_gradients.calls": ("train.loss_and_gradients", "calls"),
    "metrics.evaluate.self_s": ("metrics.evaluate", "self_s"),
    "metrics.frame_matching.s": ("metrics.frame_matching", "s"),
    "metrics.frame_matching.calls": ("metrics.frame_matching", "calls"),
    "cli.self_s": ("cli.main", "self_s"),
}
# timed during set-up rather than in the passes
SETUP_SPAN_METRICS = {"synth.gen_scene.s": "synth.gen_scene", "io.write_detections.s": "io.write_detections"}


def _import_trajkit():
    """Import trajkit from this checkout's ``src/`` and nowhere else."""
    init = SRC / "trajkit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no trajkit source at {SRC}")
    sys.path.insert(0, str(SRC))
    import trajkit

    if Path(trajkit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported trajkit from {trajkit.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the layout of show_config differs between numpy versions
        pass
    threads = None
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads, "machine": platform.machine(),
    }


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _percentile_ms(samples: list[float], q: int) -> float:
    """The q-th percentile in ms, or 0 unless ten samples lie beyond it."""
    if len(samples) * (100 - q) < 10 * 100:
        return 0.0
    return 1000.0 * statistics.quantiles(samples, n=100)[q - 1]


class Run:
    """One workload at one seed: set-up, closed loop, checks and metrics."""

    def __init__(self, args):
        import workloads  # imports trajkit, so only after _import_trajkit

        self.workloads = workloads
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.checks = checks.Checks()
        self.tracer = tracing.Tracer() if args.trace else None
        self.work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.setup_s: list[float] = []  # scaled seconds
        self.setup_wall_s: list[float] = []
        self.passes: list[dict] = []  # untraced passes
        self.overhead_s: list[float] = []
        self.reference: dict[str, str] | None = None

    def set_up(self):
        ref = None
        for k in range(SETUP_REPEATS):
            where = self.work / f"setup{k}"
            before = gauge.gauge()
            start = time.perf_counter()
            if self.tracer:
                self.tracer.pass_id = f"setup{k}"
                with self.tracer:
                    inputs = self.workloads.set_up(self.workload, self.args.seed, where, self.args.smoke)
            else:
                inputs = self.workloads.set_up(self.workload, self.args.seed, where, self.args.smoke)
            self.setup_wall_s.append(time.perf_counter() - start)
            self.setup_s.append(gauge.scaled(self.setup_wall_s[-1], before, gauge.gauge()))
            files = sorted(p for p in where.rglob("*") if p.is_file())
            got = checks.digest(where, files)
            if ref is None:
                ref, self.inputs = got, inputs
            else:
                self.checks.expect("set-up is deterministic", got == ref)
                shutil.rmtree(where)

    def _one_pass(self, where: Path) -> list:
        cmds = self.workloads.run_pass(self.workload, self.inputs, where, self.args.seed, self.args.smoke)
        got = checks.digest(where, self.workloads.output_files(cmds))
        if self.reference is None:
            self.reference = got
        else:
            checks.check_identical(self.checks, "outputs", self.reference, got)
        return cmds

    def _inspect(self, cmds: list) -> dict:
        """Check one untraced pass's outputs and collect its numbers."""
        inp = self.inputs
        info = {"seconds": {cmd.step: cmd.scaled_s for cmd in cmds},
                "wall_s": {cmd.step: cmd.wall_s for cmd in cmds},
                "ok": all(cmd.ok for cmd in cmds), "reports": {}, "events": {}, "loss_ratio": 0.0}
        for cmd in cmds:
            if not cmd.ok:
                continue
            if cmd.step == "track":
                info["events"] = checks.check_track_run(self.checks, cmd.out, inp.dets_per_frame,
                                                        inp.vocab_ids)
            elif cmd.step.startswith("classify."):
                checks.check_tracks(self.checks, cmd.out / "tracks.jsonl", inp.vocab_ids)
            elif cmd.step.startswith("eval"):
                mech = cmd.step.partition(".")[2] or "average"  # track labels with average fusion
                info["reports"][mech] = checks.check_report(self.checks, cmd.out / "report.json",
                                                            inp.n_gt_boxes)
            elif cmd.step == "train":
                info["loss_ratio"] = checks.check_loss(self.checks, cmd.out / "loss_curve.json")
        return info

    def _traced_pass(self, i: int) -> list:
        self.tracer.pass_id = i
        with self.tracer:
            cmds = self._one_pass(self.work / f"traced{i}")
        shutil.rmtree(self.work / f"traced{i}")
        return cmds

    def loop(self):
        start = time.perf_counter()
        while True:
            i = len(self.passes)
            traced = None
            if self.tracer and i % 2:  # alternate the order so drift cancels in the overhead
                traced = self._traced_pass(i)
            cmds = self._one_pass(self.work / f"pass{i}")
            self.passes.append(self._inspect(cmds))
            if self.tracer:
                traced = traced or self._traced_pass(i)
                self.overhead_s.append(sum(c.scaled_s for c in traced) - sum(c.scaled_s for c in cmds))
            shutil.rmtree(self.work / f"pass{i}")
            gc.collect()
            elapsed = time.perf_counter() - start
            if elapsed * (i + 2) / (i + 1) > self.args.seconds:
                break

    @property
    def attempted(self) -> int:
        return self.checks.attempted + sum(len(p["seconds"]) for p in self.passes)

    @property
    def failed(self) -> int:
        # a pass stops at its first failed command
        return self.checks.failed + sum(not p["ok"] for p in self.passes)

    def _good(self) -> list[dict]:
        return [p for p in self.passes if p["ok"]]

    def _rate(self, items_per_pass: float, step_prefix: str) -> float:
        """Items per scaled second over every good pass: total items / total command time.

        A ratio of totals rather than a median of per-pass rates, so that one
        slow pass weighs by its length and not by its rank.
        """
        good = self._good()
        spent = sum(t for p in good for step, t in p["seconds"].items() if step.startswith(step_prefix))
        return items_per_pass * len(good) / spent if spent else 0.0

    def _cls_a_by_mechanism(self, reports: dict) -> dict[str, tuple[float, str]]:
        """``cls_a.<mechanism>`` from one pass's reports (0 where none ran)."""
        return {f"cls_a.{mech}": (reports[mech]["cls_a"] if mech in reports else 0.0, "%")
                for mech in self.workloads.MECHANISMS}

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        inp, good = self.inputs, self._good()
        reports = list(good[0]["reports"].values()) if good else []
        if self.workload.train_steps:
            main = self._rate(len(self.workloads.MECHANISMS) * inp.n_tracks, "classify.")
        else:
            main = self._rate(inp.n_dets, "track")
        out = {
            "setup_s": (_median(self.setup_s), "s"),
            "loop_s": (1.0 / self._rate(1, "") if good else 0.0, "s"),
            "main_items_per_s": (main, "1/s"),
            "eval_gt_boxes_per_s": (self._rate(inp.n_gt_boxes * len(reports), "eval"), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for key in ("teta", "ass_a", "cls_a"):
            out[key] = (statistics.fmean(r[key] for r in reports) if reports else 0.0, "%")
        return out

    def stage_named(self, e2e: dict) -> dict[str, tuple[float, str]]:
        """The same numbers under the names of the stage they time."""
        good = self._good()
        out = {}
        if self.workload.train_steps:
            steps = self.workload.smoke_train_steps if self.args.smoke else self.workload.train_steps
            out["classify_tracks_per_s"] = e2e["main_items_per_s"]
            out["train_steps_per_s"] = (self._rate(steps, "train"), "1/s")
            out.update(self._cls_a_by_mechanism(good[0]["reports"] if good else {}))
        else:
            out["track_dets_per_s"] = e2e["main_items_per_s"]
        out["fail_rate"] = (self.failed / max(self.attempted, 1), "1")
        return out

    def per_layer(self) -> dict[str, tuple[float, str]]:
        tr, ids = self.tracer, range(len(self.passes))
        sums = [tr.summary(i) for i in ids]
        out = {}
        for name, (span, field) in SPAN_METRICS.items():
            unit = "count" if field == "calls" else "s"
            out[name] = (_median(s[span][field] if span in s else 0 for s in sums), unit)
        setups = [tr.summary(f"setup{k}") for k in range(SETUP_REPEATS)]
        for name, span in SETUP_SPAN_METRICS.items():
            out[name] = (_median(s[span]["s"] if span in s else 0.0 for s in setups), "s")
        for name in ("tracker.pairs_scored", "io.bytes_read", "io.bytes_written"):
            out[name] = (_median(tr.counters[i].get(name, 0) for i in ids), "count" if "pairs" in name else "B")
        out["tracker.live_per_frame"] = (_median(statistics.fmean(tr.live[i]) if tr.live[i] else 0.0
                                                 for i in ids), "count")
        steps = [d for i in ids for d in tr.durations("tracker.step", i)]
        out["tracker.step.p50_ms"] = (_percentile_ms(steps, 50), "ms")
        out["tracker.step.p90_ms"] = (_percentile_ms(steps, 90), "ms")
        first = self.passes[0]
        events = first["events"]
        out["tracker.tracks_total"] = (events.get("tracks", 0), "count")
        out["tracker.births"] = (events.get("born", 0), "count")
        out["tracker.matches"] = (events.get("matched", 0), "count")
        out["tracker.discards"] = (events.get("discarded", 0), "count")
        out["tracker.tracks_per_identity"] = (events.get("tracks", 0) / self.inputs.n_identities, "1")
        out["train.loss_ratio"] = (first["loss_ratio"], "1")
        out.update(self._cls_a_by_mechanism(first["reports"]))
        out["trace.overhead_s"] = (_median(self.overhead_s), "s")
        return out

    def execute(self) -> dict:
        OUT.mkdir(exist_ok=True)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.set_up()
            self.loop()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        a = self.args
        metrics = self.per_layer() if a.trace else self.end_to_end()
        shown = {**metrics, **({} if a.trace else self.stage_named(metrics))}
        env = environment()
        stem = f"{a.workload}-seed{a.seed}-trace{a.trace}"
        if self.tracer:
            self.tracer.write(OUT / f"trace-{stem}.jsonl")
        (OUT / f"result-{stem}.json").write_text(json.dumps({
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            "smoke": a.smoke, "environment": env, "setup_s": self.setup_s,
            "setup_wall_s": self.setup_wall_s,
            "passes": [{"ok": p["ok"], "scaled_s": p["seconds"], "wall_s": p["wall_s"]}
                       for p in self.passes],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        }, indent=1) + "\n", encoding="utf-8")
        print(f"# perfbench {a.workload} seed={a.seed} trace={a.trace} passes={len(self.passes)}")
        print("env " + json.dumps(env, sort_keys=True))
        for name, (value, unit) in shown.items():
            print(f"{name:<40} {value:>14.6g} {unit}")
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in a child process, so each reports its own peak memory."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=False)
        code = code or proc.returncode
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny scenes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_trajkit()
    if args.workload == "all":
        return run_all(args)
    result = Run(args).execute()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
