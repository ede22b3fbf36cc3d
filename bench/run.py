#!/usr/bin/env python3
"""The cexp benchmark: whole decision cycles through the public API.

    python3 bench/run.py --workload ab_long --seed 1 --seconds 50 --trace 0

Run it from anywhere; it imports the program from ``src/`` next to this
directory and keeps all its files under the checkout (``.bench_tmp/`` for
run data, removed at exit; ``.bench_out/`` for span files). One run is one
process: it repeats the workload -- set-up, then its timed cycles -- until
``--seconds`` have passed, and reports medians over the repetitions.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends the first
half of the time untraced and the second half with every layer's entry
points wrapped, and prints the per-layer metrics plus the tracing overhead.
Every repetition passes through the correctness gate; the last line of
standard output is the JSON result. Exit status: 0 when the gate holds,
1 when it fails, 2 when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("ab_long", "rollout_cycles")
DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "frames_per_s": "frames/s",
    "sim_s_per_wall_s": "ratio",
    "cycle_p50_ms": "ms",
}
MIN_REPS = 3  # per phase; a median of fewer says little


def import_program():
    """The program from this checkout's ``src/`` and the benchmark's modules."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import cexp

    if SRC.resolve() not in Path(cexp.__file__).resolve().parents:
        raise ImportError(f"cexp was found at {cexp.__file__}, outside {SRC}")
    import spans
    import workloads

    return workloads, spans


@dataclass
class Rep:
    """One repetition: set-up, then the workload's cycles."""

    setup_s: float
    cycles: list
    store_layers: int
    digest: str
    layers: dict | None = None  # per-layer metrics, traced repetitions only

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.cycles)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.cycles)

    def counters(self) -> dict:
        """Deterministic simulated counters of the repetition."""
        totals: dict = {"cycles": len(self.cycles), "artifact.store.layers": self.store_layers}
        for cycle in self.cycles:
            for key, value in cycle.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals


def run_rep(workloads, spans, args, workdir: Path, index: int, tracer=None) -> Rep:
    root = workdir / f"rep{index}"
    gc.collect()
    start = time.perf_counter()
    campaign = workloads.setup(args.workload, args.seed, workloads.SIZES[args.size], root)
    setup_s = time.perf_counter() - start
    if tracer is None:
        cycles = workloads.run_campaign(campaign)
    else:
        tracer.reset()
        with spans.instrument(tracer):
            cycles = workloads.run_campaign(campaign)
    rep = Rep(setup_s, cycles, workloads.store_layers(campaign), workloads.campaign_digest(cycles))
    if tracer is not None:
        rep.layers = spans.layer_metrics(tracer, rep.counters())
    shutil.rmtree(root)
    return rep


def run_phase(workloads, spans, args, workdir, reps: list, until: float, tracer=None) -> list:
    """Repeat until ``until`` (perf_counter seconds), at least ``MIN_REPS`` times."""
    phase: list = []
    while len(phase) < MIN_REPS or time.perf_counter() < until:
        phase.append(run_rep(workloads, spans, args, workdir, len(reps) + len(phase), tracer))
    reps.extend(phase)
    return phase


def cycle_ms(reps: list) -> list:
    return [c.wall_s * 1e3 for r in reps for c in r.cycles]


def cycle_p90_ms(reps: list) -> float:
    """Printed, not bounded: an ab_long run holds about 30 cycles, so only
    about 3 samples lie beyond its p90."""
    samples = cycle_ms(reps)
    return statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else samples[0]


def end_to_end(reps: list, import_s: float) -> dict:
    values = {
        "setup_s": import_s + statistics.median(r.setup_s for r in reps),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "frames_per_s": statistics.median(sum(c.frames for c in r.cycles) / r.wall_s for r in reps),
        "sim_s_per_wall_s": statistics.median(sum(c.sim_s for c in r.cycles) / r.wall_s for r in reps),
        "cycle_p50_ms": statistics.median(cycle_ms(reps)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced: list, untraced: list) -> dict:
    metrics = {}
    for name, (_value, unit) in traced[0].layers.items():
        metrics[name] = {"value": statistics.median(r.layers[name][0] for r in traced), "unit": unit}
    base = statistics.median(r.wall_s for r in untraced)
    overhead = (statistics.median(r.wall_s for r in traced) / base - 1.0) * 100.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def determinism_failures(reps: list) -> list:
    """Repetitions whose report digest or simulated counters differ from the first's."""
    failures = []
    first = reps[0]
    for r in reps[1:]:
        if r.digest != first.digest:
            failures.append(f"nondeterministic report: sha256 {r.digest} != {first.digest}")
        elif r.counters() != first.counters():
            failures.append(f"nondeterministic simulated counters: {r.counters()} != {first.counters()}")
    return failures


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workdir: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "data_dir_fs": filesystem_type(workdir),
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cexp benchmark: full decision cycles on a seeded workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the smoke test's size")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        workloads, spans = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent))
    try:
        env = environment(workdir)
        reps: list = []
        if args.trace:
            untraced = run_phase(workloads, spans, args, workdir, reps, start + args.seconds / 2)
            tracer = spans.Tracer()
            traced = run_phase(workloads, spans, args, workdir, reps, start + args.seconds, tracer)
        else:
            run_phase(workloads, spans, args, workdir, reps, start + args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run's data is still there

    nondeterministic = determinism_failures(reps)
    failures = [f for r in reps for c in r.cycles for f in c.failures] + nondeterministic
    # operations the benchmark issued (ingest, deploy, status, fetch, cycle);
    # ops_total and ops_failed add the uplink sends the supervisor logged
    ops_issued = sum(c.issued for r in reps for c in r.cycles)
    ops_issued_failed = sum(c.issued_failed for r in reps for c in r.cycles) + len(nondeterministic)
    uplink_sends = sum(r.counters().get("supervisor.uplink.sends", 0) for r in reps)
    uplink_failed = sum(r.counters().get("supervisor.uplink.failed", 0) for r in reps)

    print("env " + json.dumps(env, sort_keys=True))
    cycles = sum(len(r.cycles) for r in reps)
    print(f"run workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"reps={len(reps)} cycles={cycles}")
    print(f"report_sha256 {reps[0].digest}")
    print("sim " + json.dumps(reps[0].counters(), sort_keys=True))
    if args.trace:
        metrics = per_layer(traced, untraced)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(out)
        print(f"spans {len(tracer.span_start)} written to {out.relative_to(ROOT)}")
        if tracer.missing:
            print("trace: entry points not found: " + ", ".join(tracer.missing))
    else:
        metrics = end_to_end(reps, import_s)
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    if not args.trace:
        print(f"metric cycle_p90_ms {cycle_p90_ms(reps)!r} ms")
        print(f"cycle_samples {cycles}")
    print(f"metric ops_total {ops_issued + uplink_sends} count")
    print(f"metric ops_failed {ops_issued_failed + uplink_failed} count")
    for failure in failures:
        print(f"GATE FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": ops_issued,
        "failed": ops_issued_failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
