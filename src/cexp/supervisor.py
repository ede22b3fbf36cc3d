"""Experiment manager: enforcement loop, lifecycle, logging, report uplink.

The supervisor consumes one ordered stream of bus messages plus its own
timer ticks (one logical event loop; all state mutation happens there).
It watches resource reports against the deployed protocol thresholds,
escalates enforcement DEGRADE(1) -> DEGRADE(2) -> STOP per variant,
logs every experimental module output to a sandbox log (write-only:
experimental outputs are never republished or actuated), and at the end
of the run writes an experiment report and uplinks it to HQ over the
constrained link as NACK-retransmitted result chunks.

Enforcement policy: the first sustained violation earns DEGRADE level 1;
each further escalation requires the violation to persist through
``degrade_grace_samples`` more received samples; a sustained violation at
maximum degrade level (2) once the grace has passed earns STOP. The
production variant is monitored for reporting but never commanded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional, get_args, get_origin, get_type_hints

from .artifact import DatagramLink, LinkProfile, record_fields
from .clock import Clock, Scheduler, WallClock
from .protocol import (
    ExperimentationProtocol,
    ExperimentEvent,
    ExperimentState,
    Role,
    parse_protocol,
    protocol_to_object,
    transition,
)
from .resmon import ResourceSample, Verdict, ViolationVerdict, evaluate_window
from .wirebus import (
    DEFAULT_GROUP,
    DEFAULT_PORT,
    Command,
    CommandKind,
    LoopbackBus,
    ModuleOutput,
    MsgType,
    Received,
    ResourceReport,
    ResultChunk,
    SensorFrame,
    Sender,
    UdpMulticastBus,
    encode,
)

SUPERVISOR_SENDER_ID = 1
MAX_DEGRADE_LEVEL = 2
CHUNK_BYTES = 4096
CHUNK_RETRY_BUDGET = 5  # retransmissions allowed per chunk after the first send
STATUS_EVENTS = 10  # events kept for status.json's last_events
# frames whose ground truth is kept for scoring module outputs: about 10 s
# at the replayer's top rate. An output for an older frame scores gt = 0,
# like one for a frame never seen. On loopback an output arrives within its
# own frame's fan-out, so any window of at least one frame scores the same.
GROUND_TRUTH_WINDOW = 1024

# Variant outcome labels used in reports.
STATUS_RUNNING = "RUNNING"
STATUS_COMPLETED = "COMPLETED"
STATUS_ABORTED = "ABORTED"
STATUS_CRASHED = "CRASHED"


class UplinkFailed(Exception):
    """Chunk retry budget exhausted; the report stays on local storage."""


def enforce_step(
    verdict: ViolationVerdict,
    degrade_level: int,
    samples_since_command: Optional[int],
    degrade_grace_samples: int,
) -> Optional[tuple[CommandKind, int]]:
    """Pure escalation decision for one experimental variant.

    Returns (command, new_degrade_level) or None. ``samples_since_command``
    is the number of resource samples received since the last command, or
    None when no command has been issued yet.
    """
    if verdict.verdict is not Verdict.SUSTAINED_VIOLATION:
        return None
    if degrade_level == 0:
        return (CommandKind.DEGRADE, 1)
    if samples_since_command is not None and samples_since_command < degrade_grace_samples:
        return None  # inside the grace window of the previous command
    if degrade_level < MAX_DEGRADE_LEVEL:
        return (CommandKind.DEGRADE, degrade_level + 1)
    return (CommandKind.STOP, 0)


@dataclass
class VariantRunState:
    """Supervisor-side bookkeeping for one launched variant."""

    variant_id: str
    role: Role
    handle: Optional[Any] = None  # anything with is_alive() -> bool
    degrade_level: int = 0
    running: bool = True
    final_status: str = STATUS_RUNNING
    window: deque = field(default_factory=deque)
    samples_received: int = 0
    samples_since_command: Optional[int] = None
    violations: int = 0
    commands: list = field(default_factory=list)
    frames_processed: int = 0
    detections_total: int = 0
    detections_correct: int = 0
    ground_truth_total: int = 0
    cpu_sum: float = 0.0
    cpu_max: float = 0.0
    cpu_samples: int = 0


@dataclass(frozen=True)
class VariantResult:
    variant_id: str
    role: str
    frames_processed: int
    detections_total: int
    detections_correct: int
    ground_truth_total: int
    accuracy: Optional[float]
    mean_cpu_pct: float
    max_cpu_pct: float
    violations: int
    commands_received: tuple[dict, ...]
    final_status: str


@dataclass(frozen=True)
class ExperimentReport:
    experiment_id: str
    started_at_us: int
    ended_at_us: int
    final_state: str
    variants: tuple[VariantResult, ...]
    timeline: tuple[dict, ...]
    protocol: dict

    def to_json(self) -> str:
        return json.dumps(self, default=record_fields, sort_keys=True, indent=2) + "\n"

    def variant(self, variant_id: str) -> VariantResult:
        for v in self.variants:
            if v.variant_id == variant_id:
                return v
        raise KeyError(variant_id)


# a record's field types, resolved once per class
_field_types = functools.cache(get_type_hints)


def _record_from_object(cls: type, obj: Any) -> Any:
    """Build record ``cls`` from the keys its fields name. A tuple field
    takes any iterable; its items become records where the field's type
    says they are."""
    hints = _field_types(cls)
    kwargs = {}
    for f in fields(cls):
        value = obj[f.name]
        if get_origin(hints[f.name]) is tuple:
            item = get_args(hints[f.name])[0]
            value = tuple(_record_from_object(item, v) if is_dataclass(item) else v for v in value)
        kwargs[f.name] = value
    return cls(**kwargs)


def report_from_object(obj: Any) -> ExperimentReport:
    """Read back an ``ExperimentReport`` from its JSON object.

    Every field of the report and of each variant result must be present;
    keys the records do not name are ignored. Lists come back as tuples, so
    ``report_from_json(r.to_json()) == r``. A missing key, a report or
    variant that is not an object, or a number or null where a list
    belongs raises ``ValueError``. Field values are not otherwise checked.
    """
    try:
        return _record_from_object(ExperimentReport, obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a valid experiment report: {exc}") from exc


def report_from_json(text: str) -> ExperimentReport:
    return report_from_object(json.loads(text))


def sandbox_line(t_us: int, frame_id: int, detected_count: int, ground_truth_count: int, latency_us: int) -> str:
    """One sandbox log record: the bytes ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` gives for these int fields, plus a newline."""
    return (
        f'{{"detected_count":{detected_count},"frame_id":{frame_id},'
        f'"ground_truth_count":{ground_truth_count},"latency_us":{latency_us},"t_us":{t_us}}}\n'
    )


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def chunk_payloads(data: bytes, chunk_bytes: int = CHUNK_BYTES) -> list[bytes]:
    """Split into ceil(len/chunk_bytes) chunks; empty data is one empty chunk."""
    if not data:
        return [b""]
    return [data[i : i + chunk_bytes] for i in range(0, len(data), chunk_bytes)]


class ChunkCollector:
    """HQ-side reassembly of a RESULT_CHUNK stream."""

    def __init__(self) -> None:
        self.experiment_id: Optional[str] = None
        self.total_chunks: Optional[int] = None
        self._chunks: dict[int, bytes] = {}

    def offer(self, msg: ResultChunk) -> None:
        """Keep one chunk. The first accepted chunk fixes the stream; chunks of
        another stream, and chunks ``chunk_payloads`` never emits (no chunks
        at all, an index past the end), are ignored."""
        if not 0 <= msg.chunk_index < msg.total_chunks:
            return
        if self.experiment_id is None:
            self.experiment_id = msg.experiment_id
            self.total_chunks = msg.total_chunks
        elif (msg.experiment_id, msg.total_chunks) != (self.experiment_id, self.total_chunks):
            return
        self._chunks[msg.chunk_index] = msg.data

    def has_chunk(self, index: int) -> bool:
        return index in self._chunks

    def missing(self) -> list[int]:
        if self.total_chunks is None:
            return []
        return [i for i in range(self.total_chunks) if i not in self._chunks]

    def complete(self) -> bool:
        return self.total_chunks is not None and not self.missing()

    def assemble(self) -> bytes:
        if not self.complete():
            raise ValueError(f"missing chunks: {self.missing()}")
        assert self.total_chunks is not None
        return b"".join(self._chunks[i] for i in range(self.total_chunks))


@dataclass(frozen=True)
class UplinkRecord:
    delivered: bool
    chunks_total: int
    datagrams_sent: int
    retransmissions: int
    bytes_sent: int


def uplink_report(
    payload: bytes,
    experiment_id: str,
    link: DatagramLink,
    t_s: float = 0.0,
) -> tuple[UplinkRecord, bytes]:
    """Push ``payload`` to HQ as RESULT_CHUNK datagrams over the OTA link.

    Round-based NACK retransmission: after each round the receiver's
    missing-chunk list drives the next send. Raises ``UplinkFailed`` once
    any chunk has used up its retry budget without getting through; the
    caller keeps the local copy for a later retry.
    """
    chunks = chunk_payloads(payload)
    total = len(chunks)
    collector = ChunkCollector()
    attempts = [0] * total
    sent = 0
    bytes_sent = 0
    seq = 0
    while True:
        # the receiver's NACK: everything it has not acknowledged yet
        pending = [i for i in range(total) if not collector.has_chunk(i)]
        if not pending:
            break
        for index in pending:
            if attempts[index] > CHUNK_RETRY_BUDGET:
                raise UplinkFailed(
                    f"chunk {index}/{total} undelivered after "
                    f"{CHUNK_RETRY_BUDGET} retransmissions"
                )
            attempts[index] += 1
            msg = ResultChunk(
                experiment_id=experiment_id,
                chunk_index=index,
                total_chunks=total,
                data=chunks[index],
            )
            datagram = encode(msg, SUPERVISOR_SENDER_ID, seq, int(t_s * 1_000_000))
            seq += 1
            sent += 1
            bytes_sent += len(datagram)
            if link.deliver(t_s):
                collector.offer(msg)
    record = UplinkRecord(
        delivered=True,
        chunks_total=total,
        datagrams_sent=sent,
        retransmissions=sent - total,
        bytes_sent=bytes_sent,
    )
    return record, collector.assemble()


class OtaUplink:
    """Vehicle-to-HQ result channel over a simulated link profile.

    Delivered payloads are written under ``hq_dir`` the way the HQ inbox
    would receive them.
    """

    def __init__(self, profile: LinkProfile, hq_dir: Path, seed: int = 0) -> None:
        self.link = DatagramLink(profile, seed=seed)
        self.hq_dir = Path(hq_dir)

    def send(self, experiment_id: str, payload: bytes, t_s: float, label: str = "report") -> UplinkRecord:
        record, assembled = uplink_report(payload, experiment_id, self.link, t_s=t_s)
        dest = self.hq_dir / experiment_id
        dest.mkdir(parents=True, exist_ok=True)
        _atomic_write(dest / f"{label}.json", assembled)
        return record


class Supervisor:
    """Drives one experiment run. Transport- and scheduler-agnostic:
    feed decoded bus traffic to ``handle``, call ``tick`` once per sample
    period, and ``finish`` at the end of the duration budget.
    ``Supervisor.schedule`` wires those onto a scheduler and a bus, the
    same way for the loopback hub and for a UDP endpoint.

    ``status.json`` is written at ``begin`` and ``finish``. In between,
    an idle step that waits on wall time calls ``refresh_status`` first;
    no wait outlasts a tick, so a poll sees the file at most one sample
    period stale. A fake-clock run never waits and writes the two
    snapshots only.
    """

    def __init__(
        self,
        protocol: ExperimentationProtocol,
        clock: Clock,
        data_dir: Path | str,
        sender: Sender,
        handles: Optional[dict[str, Any]] = None,
        uplink: Optional[OtaUplink] = None,
    ) -> None:
        self.protocol = protocol
        self.clock = clock
        self.sender = sender
        self.uplink = uplink
        self.state = ExperimentState.PENDING
        self.done = False
        self.started_at_us = 0
        self.ended_at_us = 0
        self.run_dir = Path(data_dir) / protocol.experiment_id
        self.log_dir = self.run_dir / "logs"
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.timeline: list[dict] = []
        # the last STATUS_EVENTS events; events.jsonl holds all of them
        self.events: deque[dict] = deque(maxlen=STATUS_EVENTS)
        self._events_logged = 0
        self._status_written: Optional[tuple[ExperimentState, int]] = None
        self._events_fh = open(self.run_dir / "events.jsonl", "w", encoding="utf-8")
        self._variant_logs: dict[str, Any] = {}
        # frame_id -> ground truth of the last GROUND_TRUTH_WINDOW frames, oldest first
        self._ground_truth: OrderedDict[int, int] = OrderedDict()
        handles = handles or {}
        window_len = protocol.sustain_samples + protocol.degrade_grace_samples
        self.variants: dict[str, VariantRunState] = {}
        for spec in protocol.variants:
            state = VariantRunState(
                variant_id=spec.variant_id,
                role=spec.role,
                handle=handles.get(spec.variant_id),
            )
            state.window = deque(maxlen=window_len)
            self.variants[spec.variant_id] = state
            self._variant_logs[spec.variant_id] = open(
                self.log_dir / f"{spec.variant_id}.jsonl", "w", encoding="utf-8"
            )
        self._last_upload_us: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> None:
        self.started_at_us = self.clock.now_us()
        self._transition(ExperimentEvent.DEPLOY_OK)
        self._transition(ExperimentEvent.START)
        self._last_upload_us = self.started_at_us
        self._write_status()

    def _transition(self, event: ExperimentEvent) -> None:
        prev = self.state
        self.state = transition(self.state, event)
        entry = {
            "t_us": self.clock.now_us(),
            "from": prev.value,
            "to": self.state.value,
            "event": event.value,
        }
        self.timeline.append(entry)
        self._log("state_transition", **entry)

    def _log(self, kind: str, **payload: Any) -> None:
        event = {"t_us": self.clock.now_us(), "kind": kind, **payload}
        self.events.append(event)
        self._events_logged += 1
        # flushed per event: the log is meant to be tail-able mid-run
        self._events_fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
        self._events_fh.flush()

    def refresh_status(self) -> None:
        """Rewrite status.json, unless neither the state nor the event log
        changed since the last write. A no-op once the run is finished: the
        final status is the one ``finish`` wrote."""
        if self.done or (self.state, self._events_logged) == self._status_written:
            return
        self._write_status()

    def _write_status(self) -> None:
        self._status_written = (self.state, self._events_logged)
        status = {
            "experiment_id": self.protocol.experiment_id,
            "state": self.state.value,
            "t_us": self.clock.now_us(),
            "last_events": list(self.events),
        }
        _atomic_write(
            self.run_dir / "status.json",
            (json.dumps(status, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )

    # -- bus traffic -------------------------------------------------------

    def handle(self, received: Received) -> None:
        if self.done:
            return
        if received.envelope.sender_id == self.sender.sender_id:
            return  # own traffic
        msg = received.message
        if isinstance(msg, SensorFrame):
            ground_truth = self._ground_truth
            ground_truth[msg.frame_id] = msg.ground_truth_count
            if len(ground_truth) > GROUND_TRUTH_WINDOW:
                ground_truth.popitem(last=False)
        elif isinstance(msg, ModuleOutput):
            self._on_module_output(msg)
        elif isinstance(msg, ResourceReport):
            self._on_resource_report(received.envelope.timestamp_us, msg)
        # heartbeats and result chunks are other actors' business

    def _on_module_output(self, msg: ModuleOutput) -> None:
        state = self.variants.get(msg.variant_id)
        if state is None:
            return
        gt = self._ground_truth.get(msg.frame_id, 0)
        state.frames_processed += 1
        state.detections_total += msg.detected_count
        state.detections_correct += min(msg.detected_count, gt)
        state.ground_truth_total += gt
        # sandbox rule: outputs are appended to the variant log, never
        # republished or forwarded anywhere else
        self._variant_logs[msg.variant_id].write(
            sandbox_line(self.clock.now_us(), msg.frame_id, msg.detected_count, gt, msg.latency_us)
        )

    def _on_resource_report(self, t_us: int, msg: ResourceReport) -> None:
        state = self.variants.get(msg.variant_id)
        if state is None or not state.running:
            return
        state.samples_received += 1
        if state.samples_since_command is not None:
            state.samples_since_command += 1
        state.cpu_sum += msg.cpu_pct
        state.cpu_max = max(state.cpu_max, msg.cpu_pct)
        state.cpu_samples += 1
        state.window.append(
            ResourceSample(variant_id=msg.variant_id, t_us=t_us, cpu_pct=msg.cpu_pct, mem_mb=msg.mem_mb)
        )
        verdict = evaluate_window(
            list(state.window),
            self.protocol.cpu_threshold_pct,
            self.protocol.mem_threshold_mb,
            self.protocol.sustain_samples,
        )
        if verdict.verdict is Verdict.SUSTAINED_VIOLATION:
            state.violations += 1
            self._log(
                "sustained_violation",
                variant_id=msg.variant_id,
                axis=verdict.axis.value,
                violating_span=verdict.violating_span,
                cpu_pct=msg.cpu_pct,
                mem_mb=msg.mem_mb,
            )
        if state.role is Role.EXPERIMENTAL:
            command = self.enforce_step(msg.variant_id, verdict)
            if command is not None:
                self._issue_command(state, command)

    def enforce_step(self, variant_id: str, verdict: ViolationVerdict) -> Optional[Command]:
        """Escalation decision for one experimental, running variant."""
        state = self.variants[variant_id]
        decision = enforce_step(
            verdict,
            state.degrade_level,
            state.samples_since_command,
            self.protocol.degrade_grace_samples,
        )
        if decision is None:
            return None
        kind, level = decision
        return Command(target_variant_id=variant_id, command=kind, degrade_level=level)

    def _issue_command(self, state: VariantRunState, command: Command) -> None:
        self.sender.send(command)
        state.samples_since_command = 0
        record = {
            "t_us": self.clock.now_us(),
            "command": command.command.name,
            "degrade_level": command.degrade_level,
        }
        state.commands.append(record)
        self._log(
            "command",
            variant_id=state.variant_id,
            command=command.command.name,
            degrade_level=command.degrade_level,
        )
        if command.command is CommandKind.DEGRADE:
            state.degrade_level = command.degrade_level
            if self.state is ExperimentState.RUNNING:
                self._transition(ExperimentEvent.DEGRADE)
        else:  # STOP
            state.running = False
            state.final_status = STATUS_ABORTED
            self._maybe_abort()

    def _maybe_abort(self) -> None:
        """The experiment aborts when enforcement has stopped the last
        running experimental variant. Collection continues to the end of
        the duration budget so production statistics stay comparable."""
        experimental = [v for v in self.variants.values() if v.role is Role.EXPERIMENTAL]
        if not experimental:
            return
        if any(v.running for v in experimental):
            return
        if not any(v.final_status == STATUS_ABORTED for v in experimental):
            return  # all gone, but by crashes: not an enforcement abort
        if self.state in (ExperimentState.RUNNING, ExperimentState.DEGRADED):
            self._transition(ExperimentEvent.ABORT)

    # -- timer -------------------------------------------------------------

    def tick(self) -> None:
        if self.done:
            return
        for state in self.variants.values():
            if state.running and state.handle is not None and not state.handle.is_alive():
                state.running = False
                state.final_status = STATUS_CRASHED
                self._log("launch_lost", variant_id=state.variant_id)
        self._maybe_periodic_upload()

    def _maybe_periodic_upload(self) -> None:
        policy = self.protocol.upload_policy
        if policy.kind != "PERIODIC" or self.uplink is None or self._last_upload_us is None:
            return
        interval_us = int(policy.interval_s) * 1_000_000
        now = self.clock.now_us()
        if now - self._last_upload_us < interval_us:
            return
        self._last_upload_us = now
        snapshot = {
            "experiment_id": self.protocol.experiment_id,
            "state": self.state.value,
            "t_us": now,
            "variants": {
                v.variant_id: {"frames_processed": v.frames_processed, "violations": v.violations}
                for v in self.variants.values()
            },
        }
        payload = (json.dumps(snapshot, sort_keys=True, indent=2) + "\n").encode("utf-8")
        try:
            record = self.uplink.send(
                self.protocol.experiment_id, payload, t_s=(now - self.started_at_us) / 1e6, label="snapshot"
            )
            self._log("uplink_snapshot", **record_fields(record))
        except UplinkFailed as exc:
            self._log("uplink_failed", stage="snapshot", reason=str(exc))

    # -- termination -------------------------------------------------------

    def finish(self) -> ExperimentReport:
        """Terminal transition (duration elapsed counts as a normal end),
        report write, and AT_END uplink. Idempotent via ``done``."""
        if self.done:
            raise RuntimeError("run already finished")
        self.ended_at_us = self.clock.now_us()
        if self.state in (ExperimentState.RUNNING, ExperimentState.DEGRADED):
            self._transition(ExperimentEvent.COMPLETE)
        for state in self.variants.values():
            if state.running:
                state.running = False
                state.final_status = STATUS_COMPLETED
        report = self._build_report()
        report_bytes = report.to_json().encode("utf-8")
        _atomic_write(self.run_dir / "report.json", report_bytes)
        self._write_status()
        if self.uplink is not None:
            try:
                record = self.uplink.send(
                    self.protocol.experiment_id,
                    report_bytes,
                    t_s=(self.ended_at_us - self.started_at_us) / 1e6,
                )
                self._log("uplink_report", **record_fields(record))
            except UplinkFailed as exc:
                # report stays in run_dir for a later retry
                self._log("uplink_failed", stage="report", reason=str(exc))
        self.done = True
        self._events_fh.close()
        for fh in self._variant_logs.values():
            fh.close()
        return report

    def _build_report(self) -> ExperimentReport:
        results = []
        for spec in self.protocol.variants:
            state = self.variants[spec.variant_id]
            accuracy = (
                state.detections_correct / state.ground_truth_total
                if state.ground_truth_total > 0
                else None
            )
            results.append(
                VariantResult(
                    variant_id=state.variant_id,
                    role=state.role.value,
                    frames_processed=state.frames_processed,
                    detections_total=state.detections_total,
                    detections_correct=state.detections_correct,
                    ground_truth_total=state.ground_truth_total,
                    accuracy=accuracy,
                    mean_cpu_pct=state.cpu_sum / state.cpu_samples if state.cpu_samples else 0.0,
                    max_cpu_pct=state.cpu_max,
                    violations=state.violations,
                    commands_received=tuple(state.commands),
                    final_status=state.final_status,
                )
            )
        return ExperimentReport(
            experiment_id=self.protocol.experiment_id,
            started_at_us=self.started_at_us,
            ended_at_us=self.ended_at_us,
            final_state=self.state.value,
            variants=tuple(results),
            timeline=tuple(self.timeline),
            protocol=protocol_to_object(self.protocol),
        )

    # -- wiring ------------------------------------------------------------

    def schedule(self, scheduler: Scheduler, bus: LoopbackBus | UdpMulticastBus) -> None:
        """Attach to a bus and a scheduler: subscribe the message stream,
        tick every sample period, finish when the duration budget
        elapses."""
        self.begin()
        bus.subscribe(
            types={MsgType.SENSOR_FRAME, MsgType.MODULE_OUTPUT, MsgType.RESOURCE_REPORT},
            callback=self.handle,
        )
        period_us = self.protocol.sample_period_ms * 1000
        end_us = self.started_at_us + self.protocol.max_duration_s * 1_000_000
        scheduler.call_at(end_us, lambda: None if self.done else self.finish())

        def tick() -> None:
            if self.done:
                return
            self.tick()
            scheduler.call_after(period_us, tick)

        scheduler.call_after(period_us, tick)


def run_realtime(
    protocol: ExperimentationProtocol, bus: UdpMulticastBus, data_dir: Path | str
) -> ExperimentReport:
    """Daemon run against wall time and a real UDP bus endpoint: between
    events the loop refreshes status.json, then waits on the socket and
    delivers what arrives."""
    clock = WallClock()
    sup = Supervisor(protocol, clock, data_dir, Sender(bus, SUPERVISOR_SENDER_ID, clock))

    def idle(t_us: int) -> None:
        sup.refresh_status()
        bus.deliver_until(clock, t_us)

    scheduler = Scheduler(clock, idle=idle)
    sup.schedule(scheduler, bus)
    scheduler.run_until(sup.started_at_us + protocol.max_duration_s * 1_000_000)
    return report_from_json((sup.run_dir / "report.json").read_text("utf-8"))


def cli_main(argv: Optional[list[str]] = None) -> int:
    """``cesupd``: the supervisor daemon."""
    parser = argparse.ArgumentParser(
        prog="cesupd",
        description="Experiment supervisor daemon: enforce a deployed protocol and report results",
    )
    parser.add_argument("--protocol", required=True, help="protocol JSON file")
    parser.add_argument("--data-dir", required=True, help="where run data and reports are written")
    parser.add_argument(
        "--bus", default=None, help=f"UDP multicast group:port (default {DEFAULT_GROUP}:{DEFAULT_PORT})"
    )
    parser.add_argument(
        "--fake-clock",
        metavar="SCENARIO",
        default=None,
        help="run deterministically against a scenario file instead of a live bus",
    )
    args = parser.parse_args(argv)

    protocol = parse_protocol(Path(args.protocol).read_text("utf-8"))

    if args.fake_clock is not None:
        from . import harness  # scenario machinery lives with the testbed

        scenario = replace(harness.load_scenario(Path(args.fake_clock)), protocol=protocol)
        outcome = harness.run_scenario(scenario, data_dir=Path(args.data_dir))
        print(f"run complete: state={outcome.report.final_state} report={outcome.report_path}")
        return 0

    group, port = args.bus.rsplit(":", 1) if args.bus else (DEFAULT_GROUP, DEFAULT_PORT)
    bus = UdpMulticastBus(group=group, port=int(port))
    try:
        report = run_realtime(protocol, bus, Path(args.data_dir))
    finally:
        bus.close()
    print(f"run complete: state={report.final_state}")
    return 0
