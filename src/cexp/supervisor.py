"""Experiment manager: enforcement loop, lifecycle, logging, report uplink.

The supervisor consumes one ordered stream of bus messages plus its own
timer ticks (one logical event loop; all state mutation happens there).
It ignores its own traffic (whatever carries its own sender id). It
watches resource reports against the deployed protocol thresholds by
folding ``resmon.evaluate_window`` over each variant's reports, which
keeps one counter per variant (the trailing violating run, capped at
``sustain_samples + degrade_grace_samples``). It escalates enforcement
DEGRADE(1) -> DEGRADE(2) -> STOP per variant, scores and logs each
running variant's module outputs to its sandbox log (write-only:
experimental outputs are never republished or actuated), and at the end
of the run writes an experiment report and uplinks it to HQ over the
constrained link as NACK-retransmitted result chunks.

Enforcement policy: the first sustained violation earns DEGRADE level 1;
each further escalation requires the violation to persist through
``degrade_grace_samples`` more received samples; a sustained violation at
maximum degrade level (2) once the grace has passed earns STOP. The
production variant is monitored for reporting but never commanded.

Liveness is read off the same stream: a running variant whose last
resource report is more than ``LIVENESS_MISSED_SAMPLES`` sample periods
old at a tick is declared lost (``CRASHED``). That is ``clock.overdue``,
the one staleness rule, which the heartbeat-timeout failure detector
``harness.FailoverMonitor`` also applies to the primary node.
"""

from __future__ import annotations

import argparse
import json
from collections import OrderedDict, deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .artifact import DatagramLink, LinkProfile, _atomic_write, record_fields, record_from_object
from .clock import Scheduler, WallClock, overdue
from .protocol import (
    ExperimentationProtocol,
    ExperimentEvent,
    ExperimentState,
    Role,
    check_id,
    parse_protocol,
    protocol_to_object,
    transition,
)
from .resmon import Verdict, ViolationVerdict, evaluate_window
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
    SocketError,
    UdpMulticastBus,
    encode,
)

SUPERVISOR_SENDER_ID = 1
MAX_DEGRADE_LEVEL = 2
CHUNK_BYTES = 4096
CHUNK_RETRY_BUDGET = 5  # retransmissions allowed per chunk after the first send
STATUS_EVENTS = 10  # events kept for status.json's last_events
# sample periods of silence a running variant may show before a tick
# declares it lost; the default of the node's heartbeat miss_threshold
LIVENESS_MISSED_SAMPLES = 3
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


# The vehicle root layout: store/ (a LayerStore), protocols/<id>.json, data/<id>/
# (a run) and hq/<id>/<name>.json (the uplink's deliveries). Every component
# is given the root and finds its paths here. An experiment id that is not one
# path-safe component (``check_id``) is refused, so no path leaves its root.


def store_dir(root: Path | str) -> Path:
    return Path(root) / "store"


def protocol_path(root: Path | str, experiment_id: str) -> Path:
    return Path(root) / "protocols" / f"{check_id('experiment_id', experiment_id)}.json"


def runs_dir(root: Path | str) -> Path:
    return Path(root) / "data"


def run_dir(root: Path | str, experiment_id: str) -> Path:
    return runs_dir(root) / check_id("experiment_id", experiment_id)


def hq_inbox(root: Path | str) -> Path:
    return Path(root) / "hq"


def write_delivered(inbox: Path | str, experiment_id: str, name: str, data: bytes) -> Path:
    """Write a payload that reached HQ as ``<inbox>/<id>/<name>.json``, atomically."""
    path = Path(inbox) / check_id("experiment_id", experiment_id) / f"{name}.json"
    _atomic_write(path, data)
    return path


class UplinkFailed(Exception):
    """A chunk used up its retry budget; nothing reached HQ."""


def enforce_step(
    verdict: ViolationVerdict,
    degrade_level: int,
    samples_since_command: int,
    degrade_grace_samples: int,
) -> Optional[tuple[CommandKind, int]]:
    """Pure escalation decision for one experimental variant.

    Returns (command, new_degrade_level) or None. ``samples_since_command``
    is the number of resource samples received since the last command; it
    is not read at level 0, before the first command.
    """
    if verdict.verdict is not Verdict.SUSTAINED_VIOLATION:
        return None
    if degrade_level == 0:
        return (CommandKind.DEGRADE, 1)
    if samples_since_command < degrade_grace_samples:
        return None  # inside the grace window of the previous command
    if degrade_level < MAX_DEGRADE_LEVEL:
        return (CommandKind.DEGRADE, degrade_level + 1)
    return (CommandKind.STOP, 0)


@dataclass
class VariantRunState:
    """Supervisor-side bookkeeping for one launched variant."""

    variant_id: str
    role: Role
    last_report_us: int  # the run's start, then the time of each report handled
    degrade_level: int = 0
    final_status: str = STATUS_RUNNING
    violating_span: int = 0  # the last verdict's, capped at the window length
    samples_since_command: int = 0
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


def report_from_object(obj: Any) -> ExperimentReport:
    """Read back an ``ExperimentReport`` from its JSON object through
    ``record_from_object``: every field of the report and of each variant
    result must be present and of its type, and keys the records do not
    name are ignored. Lists come back as tuples, so
    ``report_from_json(r.to_json()) == r``. Raises ``SchemaError``."""
    return record_from_object(ExperimentReport, obj, ignore_unknown=True)


def report_from_json(text: str) -> ExperimentReport:
    return report_from_object(json.loads(text))


def sandbox_line(t_us: int, frame_id: int, detected_count: int, ground_truth_count: int, latency_us: int) -> str:
    """One sandbox log record: the bytes ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` gives for these int fields, plus a newline."""
    return (
        f'{{"detected_count":{detected_count},"frame_id":{frame_id},'
        f'"ground_truth_count":{ground_truth_count},"latency_us":{latency_us},"t_us":{t_us}}}\n'
    )


def chunk_payloads(data: bytes) -> list[bytes]:
    """Split into ceil(len/CHUNK_BYTES) chunks; empty data is one empty chunk."""
    if not data:
        return [b""]
    return [data[i : i + CHUNK_BYTES] for i in range(0, len(data), CHUNK_BYTES)]


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
) -> UplinkRecord:
    """Send ``payload`` as RESULT_CHUNK datagrams over the simulated OTA
    link until every chunk has got through. Each chunk is encoded only to
    size its datagram; the caller holds the payload and writes it once this
    returns.

    Round-based NACK retransmission: each round resends, in index order,
    the chunks the previous round did not deliver. Raises ``UplinkFailed``
    once a chunk has used up its retry budget without getting through.
    Nothing retries a failed send: the payload reaches HQ only if the
    caller sends it again.
    """
    chunks = chunk_payloads(payload)
    total = len(chunks)
    t_us = int(t_s * 1_000_000)
    pending = list(range(total))
    sent = 0
    bytes_sent = 0
    for _round in range(1 + CHUNK_RETRY_BUDGET):
        undelivered = []
        for index in pending:
            msg = ResultChunk(experiment_id=experiment_id, chunk_index=index, total_chunks=total, data=chunks[index])
            bytes_sent += len(encode(msg, SUPERVISOR_SENDER_ID, sent, t_us))
            sent += 1
            if not link.deliver(t_s):
                undelivered.append(index)
        pending = undelivered
        if not pending:
            return UplinkRecord(
                delivered=True,
                chunks_total=total,
                datagrams_sent=sent,
                retransmissions=sent - total,
                bytes_sent=bytes_sent,
            )
    raise UplinkFailed(f"chunk {pending[0]}/{total} undelivered after {CHUNK_RETRY_BUDGET} retransmissions")


class OtaUplink:
    """Vehicle-to-HQ result channel over a simulated link profile.

    Delivered payloads land in the vehicle root's ``hq_inbox``.
    """

    def __init__(self, profile: LinkProfile, root: Path | str, seed: int = 0) -> None:
        self.link = DatagramLink(profile, seed=seed)
        self.inbox = hq_inbox(root)

    def send(self, experiment_id: str, payload: bytes, t_s: float, label: str = "report") -> UplinkRecord:
        record = uplink_report(payload, experiment_id, self.link, t_s=t_s)
        write_delivered(self.inbox, experiment_id, label, payload)
        return record


class Supervisor:
    """Drives one experiment run in ``run_dir(root, id)`` on a scheduler,
    whose clock it reads. It is built on a bus, the loopback hub or a UDP
    endpoint, and publishes its commands there under the fixed
    ``SUPERVISOR_SENDER_ID``, the only sender a variant obeys. Building it
    starts the run: it logs DEPLOY_OK and START, writes the first
    ``status.json``, subscribes ``handle`` to frames, module outputs and
    resource reports, and schedules ``finish`` at the end of the duration
    budget and ``tick``, the liveness check, at every sample period before
    it (``call_every``). Under a PERIODIC upload policy with an uplink, it
    also uploads a snapshot at every upload interval before the end, on
    that interval's own grid (``call_every``, registered right after the
    tick's, so at a shared instant the snapshot runs right after the
    tick). ``finish`` keeps the report it wrote as ``report``, None until
    then, and closes the run's log files.

    ``status.json`` is rewritten at ``finish``. In between, the live
    daemon's idle step (``run_realtime``) calls ``refresh_status`` before
    it waits on the bus; no wait outlasts a tick, so a poll sees the file
    at most one sample period stale. A fake-clock run never waits and
    writes the two snapshots only.
    """

    def __init__(
        self,
        protocol: ExperimentationProtocol,
        scheduler: Scheduler,
        root: Path | str,
        bus: LoopbackBus | UdpMulticastBus,
        uplink: Optional[OtaUplink] = None,
    ) -> None:
        self.protocol = protocol
        self.clock = scheduler.clock
        self.sender = Sender(bus, SUPERVISOR_SENDER_ID, self.clock)
        self.uplink = uplink
        self.state = ExperimentState.PENDING
        self.report: Optional[ExperimentReport] = None
        self.started_at_us = self.clock.now_us()
        self.run_dir = run_dir(root, protocol.experiment_id)
        logs = self.run_dir / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.timeline: list[dict] = []
        # the last STATUS_EVENTS events; events.jsonl holds all of them
        self.events: deque[dict] = deque(maxlen=STATUS_EVENTS)
        self._events_logged = 0
        self._status_written: Optional[tuple[ExperimentState, int]] = None
        # frame_id -> ground truth of the last GROUND_TRUTH_WINDOW frames, oldest first
        self._ground_truth: OrderedDict[int, int] = OrderedDict()
        # the resource window: the trailing samples a verdict looks at
        self._window_samples = protocol.sustain_samples + protocol.degrade_grace_samples
        self.variants = {
            spec.variant_id: VariantRunState(spec.variant_id, spec.role, self.started_at_us)
            for spec in protocol.variants
        }
        self._period_us = protocol.sample_period_ms * 1000
        with ExitStack() as files:  # closed by ``finish``, or here if the run fails to start
            self._events_fh = files.enter_context(open(self.run_dir / "events.jsonl", "w", encoding="utf-8"))
            self._variant_logs = {
                variant_id: files.enter_context(open(logs / f"{variant_id}.jsonl", "w", encoding="utf-8"))
                for variant_id in self.variants
            }
            self._transition(ExperimentEvent.DEPLOY_OK)
            self._transition(ExperimentEvent.START)
            self._write_status()
            self._files = files.pop_all()
        bus.subscribe(
            types={MsgType.SENSOR_FRAME, MsgType.MODULE_OUTPUT, MsgType.RESOURCE_REPORT},
            callback=self.handle,
        )
        duration_us = protocol.max_duration_s * 1_000_000
        # ``finish`` and ``tick`` are looked up at each call
        scheduler.call_at(self.started_at_us + duration_us, lambda: self.finish())
        # every period strictly before the end
        ticks = (duration_us - 1) // self._period_us
        scheduler.call_every(self.started_at_us + self._period_us, self._period_us, ticks, lambda _i: self.tick())
        policy = protocol.upload_policy
        if policy.kind == "PERIODIC" and uplink is not None:
            interval_us = policy.interval_s * 1_000_000
            snapshots = (duration_us - 1) // interval_us
            scheduler.call_every(self.started_at_us + interval_us, interval_us, snapshots, self._upload_snapshot)

    # -- lifecycle ---------------------------------------------------------

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
        if self.report is not None or (self.state, self._events_logged) == self._status_written:
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
        if self.report is not None:
            return
        if received.envelope.sender_id == SUPERVISOR_SENDER_ID:
            return  # own traffic
        msg = received.message
        kind = type(msg)  # module outputs are the bulk of the traffic: tested first
        if kind is ModuleOutput:
            self._on_module_output(msg)
        elif kind is SensorFrame:
            frame_id, ground_truth_count, _pixels_digest = msg
            ground_truth = self._ground_truth
            ground_truth[frame_id] = ground_truth_count
            if len(ground_truth) > GROUND_TRUTH_WINDOW:
                ground_truth.popitem(last=False)
        elif kind is ResourceReport:
            self._on_resource_report(msg)
        # heartbeats are other actors' business

    def _on_module_output(self, msg: ModuleOutput) -> None:
        frame_id, variant_id, detected, latency_us = msg
        state = self.variants.get(variant_id)
        if state is None or state.final_status != STATUS_RUNNING:
            return  # not ours, or from a variant already lost or stopped
        gt = self._ground_truth.get(frame_id, 0)
        state.frames_processed += 1
        state.detections_total += detected
        state.detections_correct += detected if detected < gt else gt
        state.ground_truth_total += gt
        # sandbox rule: outputs are appended to the variant log, never
        # republished or forwarded anywhere else
        self._variant_logs[variant_id].write(sandbox_line(self.clock.now_us(), frame_id, detected, gt, latency_us))

    def _on_resource_report(self, msg: ResourceReport) -> None:
        state = self.variants.get(msg.variant_id)
        if state is None or state.final_status != STATUS_RUNNING:
            return
        state.last_report_us = self.clock.now_us()
        state.samples_since_command += 1
        state.cpu_sum += msg.cpu_pct
        state.cpu_max = max(state.cpu_max, msg.cpu_pct)
        state.cpu_samples += 1
        protocol = self.protocol
        verdict = evaluate_window(
            state.violating_span,
            msg.cpu_pct,
            msg.mem_mb,
            protocol.cpu_threshold_pct,
            protocol.mem_threshold_mb,
            protocol.sustain_samples,
            self._window_samples,
        )
        state.violating_span = verdict.violating_span
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
            decision = enforce_step(
                verdict, state.degrade_level, state.samples_since_command, self.protocol.degrade_grace_samples
            )
            if decision is not None:
                kind, level = decision
                self._issue_command(state, Command(target_variant_id=msg.variant_id, command=kind, degrade_level=level))

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
            state.final_status = STATUS_ABORTED
            self._maybe_abort()

    def _maybe_abort(self) -> None:
        """The experiment aborts once no experimental variant runs and
        enforcement stopped at least one of them, whether a STOP or a loss
        ended the last one. Collection continues to the end of the
        duration budget so production statistics stay comparable."""
        experimental = [v for v in self.variants.values() if v.role is Role.EXPERIMENTAL]
        if not experimental:
            return
        if any(v.final_status == STATUS_RUNNING for v in experimental):
            return
        if not any(v.final_status == STATUS_ABORTED for v in experimental):
            return  # all gone, but by crashes: not an enforcement abort
        if self.state in (ExperimentState.RUNNING, ExperimentState.DEGRADED):
            self._transition(ExperimentEvent.ABORT)

    # -- timer -------------------------------------------------------------

    def tick(self) -> None:
        now = self.clock.now_us()
        for state in self.variants.values():
            if state.final_status == STATUS_RUNNING and overdue(
                now, state.last_report_us, LIVENESS_MISSED_SAMPLES, self._period_us
            ):
                state.final_status = STATUS_CRASHED
                self._log("launch_lost", variant_id=state.variant_id)
                self._maybe_abort()

    def _upload_snapshot(self, _index: int) -> None:
        now = self.clock.now_us()
        snapshot = {
            "experiment_id": self.protocol.experiment_id,
            "state": self.state.value,
            "t_us": now,
            "variants": {
                v.variant_id: {"frames_processed": v.frames_processed, "violations": v.violations}
                for v in self.variants.values()
            },
        }
        self._uplink("snapshot", (json.dumps(snapshot, sort_keys=True, indent=2) + "\n").encode("utf-8"))

    def _uplink(self, stage: str, payload: bytes) -> None:
        """Send ``payload`` to HQ as ``<stage>.json`` and log the outcome.
        Nothing retries a failed send: a failed snapshot is lost, and a
        failed report stays only in run_dir."""
        t_s = (self.clock.now_us() - self.started_at_us) / 1e6
        try:
            record = self.uplink.send(self.protocol.experiment_id, payload, t_s=t_s, label=stage)
        except UplinkFailed as exc:
            self._log("uplink_failed", stage=stage, reason=str(exc))
            return
        self._log(f"uplink_{stage}", **record_fields(record))

    # -- termination -------------------------------------------------------

    def finish(self) -> ExperimentReport:
        """Terminal transition (duration elapsed counts as a normal end),
        report write, and AT_END uplink. The report is kept as ``report``;
        a second call raises."""
        if self.report is not None:
            raise RuntimeError("run already finished")
        ended_at_us = self.clock.now_us()
        if self.state in (ExperimentState.RUNNING, ExperimentState.DEGRADED):
            self._transition(ExperimentEvent.COMPLETE)
        for state in self.variants.values():
            if state.final_status == STATUS_RUNNING:
                state.final_status = STATUS_COMPLETED
        report = self._build_report(ended_at_us)
        report_bytes = report.to_json().encode("utf-8")
        _atomic_write(self.run_dir / "report.json", report_bytes)
        self._write_status()
        if self.uplink is not None:
            self._uplink("report", report_bytes)
        self.report = report
        self._files.close()
        return report

    def _build_report(self, ended_at_us: int) -> ExperimentReport:
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
            ended_at_us=ended_at_us,
            final_state=self.state.value,
            variants=tuple(results),
            timeline=tuple(self.timeline),
            protocol=protocol_to_object(self.protocol),
        )


def run_realtime(
    protocol: ExperimentationProtocol, bus: UdpMulticastBus, root: Path | str
) -> ExperimentReport:
    """Daemon run under the vehicle root ``root``, against wall time and a
    real UDP bus endpoint: between events the loop refreshes status.json,
    then waits on the socket and delivers what arrives."""
    clock = WallClock()

    def idle(t_us: int) -> None:
        sup.refresh_status()
        bus.deliver_until(clock, t_us)

    scheduler = Scheduler(clock, idle=idle)
    sup = Supervisor(protocol, scheduler, root, bus)
    scheduler.run_until(sup.started_at_us + protocol.max_duration_s * 1_000_000)
    return sup.report


def cli_main(argv: Optional[list[str]] = None) -> int:
    """``cesupd``: the supervisor daemon."""
    parser = argparse.ArgumentParser(
        prog="cesupd",
        description="Experiment supervisor daemon: enforce a deployed protocol and report results",
    )
    parser.add_argument("--protocol", required=True, help="protocol JSON file")
    parser.add_argument("--data-dir", required=True, help="vehicle root: the run lands in its data/<experiment_id>/")
    parser.add_argument(
        "--bus", default=f"{DEFAULT_GROUP}:{DEFAULT_PORT}", help="UDP multicast GROUP:PORT (default %(default)s)"
    )
    args = parser.parse_args(argv)

    try:
        protocol = parse_protocol(Path(args.protocol).read_text("utf-8"))
    except (ValueError, OSError) as exc:  # a protocol that does not load or cannot be read
        print(f"error: {exc}")
        return 2

    group, _, port = args.bus.rpartition(":")
    if not (group and port.isdecimal() and 1 <= int(port) <= 65535):
        print(f"error: --bus: expected GROUP:PORT with a port in 1-65535, got {args.bus!r}")
        return 2
    try:
        bus = UdpMulticastBus(group=group, port=int(port))
    except SocketError as exc:
        print(f"error: {exc}")
        return 2
    try:
        report = run_realtime(protocol, bus, args.data_dir)
    except OSError as exc:  # a vehicle root the run cannot write under
        print(f"error: {exc}")
        return 2
    finally:
        bus.close()
    report_path = run_dir(args.data_dir, report.experiment_id) / "report.json"
    print(f"run complete: state={report.final_state} report={report_path}")
    return 0
