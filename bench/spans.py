"""Span tracer for the benchmark's traced run.

``instrument`` wraps each layer's public entry points at runtime, under the
names their callers bind, and restores them on exit. Every wrapped call
records a span (name, start, end, parent) in flat in-memory arrays; those
of the last traced repetition are saved by ``write_spans`` when the run ends. A span's self time is its duration
minus the time its child spans cover; this matters because the loopback
bus fans out synchronously, so ``publish`` re-enters itself through the
subscribers' callbacks. Counters are taken at the same boundaries.

The program is not changed: everything here patches module and class
attributes from the outside. An entry point that no longer exists is
skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.missing: list[str] = []
        self._open: list[int] = []  # indices of the spans now open, innermost last
        self._child_ns: list[int] = []  # per open span, time covered by its children
        self.reset()

    def reset(self) -> None:
        """Start a new repetition: only the last repetition's spans are kept."""
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[:]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.open_count: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped to record one span per call. ``before(args, kwargs)``
        runs ahead of the call; ``after(args, kwargs, result)`` after it returns."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        clock = time.perf_counter_ns
        opened, child_ns = self._open, self._child_ns
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(opened[-1] if opened else -1)
            ends.append(0)
            opened.append(index)
            child_ns.append(0)
            tracer.open_count[name] += 1
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                opened.pop()
                covered = child_ns.pop()
                tracer.open_count[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - covered
                if child_ns:
                    child_ns[-1] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: index, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i, (parent, name_id, start, end) in enumerate(
                zip(self.span_parent, self.span_name, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{parent}\t{names[name_id]}\t{start}\t{end}\n")


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' entry points for the duration of the block."""
    from cexp import artifact, clock, harness, hqcli, supervisor, wirebus
    from cexp.wirebus import ModuleOutput, SensorFrame

    counts, maxima = tracer.counts, tracer.maxima

    def count_bytes(key):
        def after(args, kwargs, result):
            counts[key] += len(result)

        return after

    def on_send(args, kwargs, result):
        msg = args[1]
        if isinstance(msg, SensorFrame):
            counts["harness.frames.sent"] += 1
        elif isinstance(msg, ModuleOutput):
            counts["harness.frames.processed"] += 1

    def on_verdict(args, kwargs, result):
        if result.verdict.name == "SUSTAINED_VIOLATION":
            counts["resmon.sustained_verdicts"] += 1

    def on_put(args, kwargs, result):
        counts["artifact.put.bytes"] += result.size_bytes

    def on_deliver(args, kwargs, result):
        counts["artifact.link.delivered"] += bool(result)
        if tracer.open_count["supervisor.uplink_report"]:
            counts["supervisor.uplink.datagrams"] += 1

    def before_uplink(args, kwargs):
        payload = args[0] if args else kwargs["payload"]
        counts["supervisor.uplink.chunks"] += len(supervisor.chunk_payloads(payload))

    def on_run_scenario(args, kwargs, result):
        retained = len(getattr(result.bus, "history", ()))
        maxima["wirebus.history.retained"] = max(maxima["wirebus.history.retained"], retained)

    # each scheduled callback becomes a span of its own, so run_until's self
    # time is the event loop alone
    original_call_at = clock.Scheduler.call_at
    traced_call_at = tracer.span("harness.scheduler.call_at", original_call_at)

    def call_at(self, t_us, fn):
        traced_call_at(self, t_us, tracer.span("harness.scheduler.event", fn))
        maxima["harness.scheduler.pending_max"] = max(
            maxima["harness.scheduler.pending_max"], self.pending()
        )

    original_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        original_replace(src, dst, *args, **kwargs)
        if os.path.basename(dst) == "status.json":
            counts["supervisor.status.writes"] += 1
            counts["supervisor.status.bytes"] += os.stat(dst).st_size

    spans = [
        (wirebus, "encode", "wirebus.encode", None, count_bytes("wirebus.bytes_encoded")),
        (supervisor, "encode", "wirebus.encode", None, count_bytes("wirebus.bytes_encoded")),
        (wirebus, "decode", "wirebus.decode", None, None),
        (wirebus.LoopbackBus, "publish", "wirebus.publish", None, None),
        (wirebus.Sender, "send", "wirebus.send", None, on_send),
        (supervisor, "evaluate_window", "resmon.evaluate", None, on_verdict),
        (supervisor.Supervisor, "handle", "supervisor.handle", None, None),
        (supervisor.Supervisor, "tick", "supervisor.tick", None, None),
        (supervisor.Supervisor, "finish", "supervisor.finish", None, None),
        (supervisor.OtaUplink, "send", "supervisor.uplink.send", None, None),
        (supervisor, "uplink_report", "supervisor.uplink_report", before_uplink, None),
        (hqcli, "uplink_report", "hqcli.uplink_report", None, None),
        (artifact.LayerStore, "put", "artifact.put", None, on_put),
        (artifact.LayerStore, "digests", "artifact.digests_scan", None, None),
        (artifact.LayerStore, "put_manifest", "artifact.put_manifest", None, None),
        (artifact, "plan_delta", "artifact.plan_delta", None, None),
        (hqcli, "fetch_bundle", "artifact.fetch_bundle", None, None),
        (artifact.DatagramLink, "deliver", "artifact.link.deliver", None, on_deliver),
        (harness, "parse_protocol", "protocol.parse", None, None),
        (hqcli, "parse_protocol", "protocol.parse", None, None),
        (supervisor, "parse_protocol", "protocol.parse", None, None),
        (clock.Scheduler, "run_until", "harness.scheduler.run_until", None, None),
        (harness.StubActor, "_on_message", "harness.stub", None, None),
        (harness.FailoverMonitor, "_on_heartbeat", "harness.monitor", None, None),
        (harness, "run_scenario", "harness.run_scenario", None, on_run_scenario),
        (hqcli, "deploy", "hqcli.deploy", None, None),
        (hqcli, "status", "hqcli.status", None, None),
        (hqcli, "fetch", "hqcli.fetch", None, None),
        (hqcli, "compare", "hqcli.compare", None, None),
    ]
    patches = []
    for owner, attr, name, before, after in spans:
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
            continue
        patches.append((owner, attr, fn, tracer.span(name, fn, before, after)))
    patches.append((clock.Scheduler, "call_at", original_call_at, call_at))
    patches.append((os, "replace", original_replace, replace))
    for owner, attr, _fn, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, fn, _wrapper in reversed(patches):
            setattr(owner, attr, fn)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, files: dict) -> dict:
    """Per-layer figures of one traced repetition. ``files`` holds the counts
    read from the run's own output files and records (see workloads)."""
    calls, total, own, counts = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.counts
    files = defaultdict(int, files)  # a cycle that raised left no file counts
    us, ms = 1e3, 1e6
    frames_sent = counts["harness.frames.sent"]
    events = calls["harness.scheduler.event"]
    uplink_sends = calls["supervisor.uplink.send"]
    deliveries = calls["supervisor.handle"] + calls["harness.stub"] + calls["harness.monitor"]
    return {
        "wirebus.encode.calls": (calls["wirebus.encode"], "count"),
        "wirebus.encode.us_per_call": (_per(total["wirebus.encode"], calls["wirebus.encode"]) / us, "us"),
        "wirebus.decode.calls": (calls["wirebus.decode"], "count"),
        "wirebus.decode.us_per_call": (_per(total["wirebus.decode"], calls["wirebus.decode"]) / us, "us"),
        "wirebus.publish.calls": (calls["wirebus.publish"], "count"),
        "wirebus.publish.self_us_per_call": (_per(own["wirebus.publish"], calls["wirebus.publish"]) / us, "us"),
        "wirebus.fanout.deliveries": (deliveries, "count"),
        "wirebus.bytes_encoded": (counts["wirebus.bytes_encoded"], "B"),
        "wirebus.history.retained": (tracer.maxima["wirebus.history.retained"], "count"),
        "harness.frames.sent": (frames_sent, "count"),
        "harness.frames.processed": (counts["harness.frames.processed"], "count"),
        "harness.stub.self_us_per_frame": (_per(own["harness.stub"], frames_sent) / us, "us"),
        "harness.scheduler.events": (events, "count"),
        "harness.scheduler.self_us_per_event": (
            _per(own["harness.scheduler.run_until"] + own["harness.scheduler.call_at"], events) / us,
            "us",
        ),
        "harness.scheduler.pending_max": (tracer.maxima["harness.scheduler.pending_max"], "count"),
        "harness.run_scenario.self_ms": (
            _per(own["harness.run_scenario"], calls["harness.run_scenario"]) / ms,
            "ms",
        ),
        "supervisor.handle.calls": (calls["supervisor.handle"], "count"),
        "supervisor.handle.self_us_per_call": (
            _per(own["supervisor.handle"], calls["supervisor.handle"]) / us,
            "us",
        ),
        "supervisor.tick.calls": (calls["supervisor.tick"], "count"),
        "supervisor.tick.self_us_per_call": (_per(own["supervisor.tick"], calls["supervisor.tick"]) / us, "us"),
        "supervisor.status.writes": (counts["supervisor.status.writes"], "count"),
        "supervisor.status.bytes": (counts["supervisor.status.bytes"], "B"),
        "supervisor.events.logged": (files["supervisor.events.logged"], "count"),
        "supervisor.sandbox.lines": (files["supervisor.sandbox.lines"], "count"),
        "supervisor.commands.issued": (files["supervisor.commands.issued"], "count"),
        "supervisor.finish.self_ms": (_per(own["supervisor.finish"], calls["supervisor.finish"]) / ms, "ms"),
        "supervisor.uplink.sends": (files["supervisor.uplink.sends"], "count"),
        "supervisor.uplink.failed": (files["supervisor.uplink.failed"], "count"),
        "supervisor.uplink.datagrams": (counts["supervisor.uplink.datagrams"], "count"),
        "supervisor.uplink.retransmissions": (
            counts["supervisor.uplink.datagrams"] - counts["supervisor.uplink.chunks"],
            "count",
        ),
        "supervisor.uplink.self_ms": (
            _per(own["supervisor.uplink.send"] + own["supervisor.uplink_report"], uplink_sends) / ms,
            "ms",
        ),
        "resmon.evaluate.calls": (calls["resmon.evaluate"], "count"),
        "resmon.evaluate.us_per_call": (_per(total["resmon.evaluate"], calls["resmon.evaluate"]) / us, "us"),
        "resmon.sustained_verdicts": (counts["resmon.sustained_verdicts"], "count"),
        "artifact.put.calls": (calls["artifact.put"], "count"),
        "artifact.put.mb": (counts["artifact.put.bytes"] / 1e6, "MB"),
        "artifact.put.self_ms": (_per(own["artifact.put"], calls["artifact.put"]) / ms, "ms"),
        "artifact.digests_scan.calls": (calls["artifact.digests_scan"], "count"),
        "artifact.digests_scan.self_us_per_call": (
            _per(own["artifact.digests_scan"], calls["artifact.digests_scan"]) / us,
            "us",
        ),
        "artifact.store.layers": (files["artifact.store.layers"], "count"),
        "artifact.plan_delta.self_us": (_per(own["artifact.plan_delta"], calls["artifact.plan_delta"]) / us, "us"),
        "artifact.delta.ratio": (
            _per(files["artifact.deploy.payload_bytes"], files["artifact.deploy.bundle_bytes"]),
            "ratio",
        ),
        "artifact.link.deliver_calls": (calls["artifact.link.deliver"], "count"),
        "artifact.link.delivered_ratio": (
            _per(counts["artifact.link.delivered"], calls["artifact.link.deliver"]),
            "ratio",
        ),
        "artifact.deploy.sim_s": (_per(files["artifact.deploy.sim_s"], files["cycles"]), "s_sim"),
        "protocol.parse.calls": (calls["protocol.parse"], "count"),
        "protocol.parse.us_per_call": (_per(total["protocol.parse"], calls["protocol.parse"]) / us, "us"),
        "hqcli.deploy.self_ms": (_per(own["hqcli.deploy"], calls["hqcli.deploy"]) / ms, "ms"),
        "hqcli.status.self_ms": (_per(own["hqcli.status"], calls["hqcli.status"]) / ms, "ms"),
        "hqcli.fetch.self_ms": (_per(own["hqcli.fetch"], calls["hqcli.fetch"]) / ms, "ms"),
        "hqcli.compare.us_per_call": (_per(total["hqcli.compare"], calls["hqcli.compare"]) / us, "us"),
    }
