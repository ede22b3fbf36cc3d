"""Desk-scale simulated vehicle: sensor replay, variant stubs, two-node
failover, and the scenario runner that ties a whole experiment cycle
together.

Everything here runs as process-like actors on one deterministic event
loop: a seeded frame replayer standing in for the camera feed, one stub
per protocol variant (parametric detector quality + CPU appetite), a
CPU-contention model that makes a hostile experiment actually hurt
production throughput, and a heartbeat/failover pair simulating the
primary/secondary computing nodes. Fixed seeds plus the fake clock give
byte-identical experiment reports run after run.

Detector stubs are statistical stand-ins: per processed frame they
detect ``binomial(ground_truth, tpr)`` objects plus Poisson false
positives. A stub honors DEGRADE by processing every 2^level-th frame
(half rate at level 1, quarter rate at level 2) and STOP by exiting
cleanly; its modeled CPU demand shrinks with the same factor.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from .artifact import LinkProfile, link_profile_from_object, record_fields
from .clock import FakeClock, Scheduler
from .protocol import ExperimentationProtocol, Role, parse_protocol
from .supervisor import (
    ExperimentReport,
    OtaUplink,
    Supervisor,
    SUPERVISOR_SENDER_ID,
    report_from_json,
)
from .wirebus import (
    Command,
    CommandKind,
    Heartbeat,
    LoopbackBus,
    ModuleOutput,
    MsgType,
    Received,
    ResourceReport,
    SensorFrame,
    Sender,
)

MAX_FRAME_RATE_HZ = 100

REPLAYER_SENDER_ID = 2
PRIMARY_NODE_SENDER_ID = 3
STUB_SENDER_BASE = 100

PRIMARY_NODE_ID = 1


class ScenarioError(ValueError):
    pass


def synthetic_pixels_digest(seed: int, frame_id: int) -> bytes:
    """32 bytes standing in for actual image content."""
    return hashlib.sha256(f"{seed}:{frame_id}".encode("ascii")).digest()


def sample_binomial(rng: random.Random, n: int, p: float) -> int:
    return sum(1 for _ in range(n) if rng.random() < p)


def sample_poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


class SensorReplayer:
    """Publishes a seeded stream of sensor frames at a fixed rate.

    Ground-truth object counts are uniform on [0, 8]; identical seeds
    produce identical streams, which is what lets the same recording be
    replayed against every variant.
    """

    def __init__(
        self,
        bus: LoopbackBus,
        clock: FakeClock,
        frame_count: int,
        frame_rate_hz: float,
        seed: int,
        sender_id: int = REPLAYER_SENDER_ID,
    ) -> None:
        if frame_rate_hz <= 0 or frame_rate_hz > MAX_FRAME_RATE_HZ:
            raise ScenarioError(f"frame_rate_hz must be in (0, {MAX_FRAME_RATE_HZ}]")
        self.frame_count = frame_count
        self.period_us = round(1_000_000 / frame_rate_hz)
        self.seed = seed
        self._rng = random.Random(seed)
        self._sender = Sender(bus, sender_id, clock)
        self.frames_sent = 0

    def start(self, scheduler: Scheduler) -> None:
        scheduler.call_every(scheduler.clock.now_us(), self.period_us, self.frame_count, self._emit)

    def _emit(self, frame_id: int) -> None:
        frame = SensorFrame(
            frame_id=frame_id,
            ground_truth_count=self._rng.randint(0, 8),
            pixels_digest=synthetic_pixels_digest(self.seed, frame_id),
        )
        self._sender.send(frame)
        self.frames_sent += 1


@dataclass(frozen=True)
class StubProfile:
    """Parametric detector variant: quality knobs plus CPU appetite."""

    variant_id: str
    true_positive_rate: float
    false_positive_rate_per_frame: float
    cpu_burn_pct: float
    seed: int
    mem_mb: float = 100.0
    crash_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.true_positive_rate <= 1.0):
            raise ScenarioError(f"{self.variant_id}: true_positive_rate must be in [0, 1]")
        if self.false_positive_rate_per_frame < 0.0:
            raise ScenarioError(f"{self.variant_id}: false_positive_rate_per_frame must be >= 0")
        if self.cpu_burn_pct < 0.0:
            raise ScenarioError(f"{self.variant_id}: cpu_burn_pct must be >= 0")


class NodeCpuModel:
    """Fluid CPU sharing on the node running the variants.

    When summed demand exceeds capacity every module gets a
    proportional share; a module starved below its demand processes
    proportionally fewer frames. This is the coupling that makes
    enforcement matter: degrading or stopping a hostile experiment is
    what gives production its throughput back.
    """

    def __init__(self, capacity_pct: float) -> None:
        if capacity_pct <= 0:
            raise ScenarioError("capacity_pct must be positive")
        self.capacity_pct = capacity_pct
        self._shares: dict[str, tuple[float, float]] = {}  # vid -> (share, demand)

    def recompute(self, demands: dict[str, float]) -> None:
        total = sum(demands.values())
        scale = 1.0 if total <= self.capacity_pct else self.capacity_pct / total
        self._shares = {vid: (demand * scale, demand) for vid, demand in demands.items()}

    def share_pct(self, variant_id: str) -> float:
        share, _ = self._shares.get(variant_id, (0.0, 0.0))
        return share

    def processing_ratio(self, variant_id: str) -> float:
        share, demand = self._shares.get(variant_id, (0.0, 0.0))
        if demand <= 0.0:
            return 1.0
        return share / demand


class StubActor:
    """One software variant under test, as a process-like task on the bus.

    Exposes ``is_alive`` so the supervisor can treat it like a launched
    process handle: alive until it crashes (scenario trigger) or exits
    on STOP.
    """

    def __init__(
        self,
        profile: StubProfile,
        role: Role,
        bus: LoopbackBus,
        clock: FakeClock,
        sender_id: int,
        node: NodeCpuModel,
    ) -> None:
        self.profile = profile
        self.role = role
        self.clock = clock
        self.node = node
        self.degrade_level = 0
        self.running = True
        self.alive = True
        self.frames_processed = 0
        self._credit = 0.0
        self._rng = random.Random(profile.seed)
        self._sender = Sender(bus, sender_id, clock)

    def is_alive(self) -> bool:
        return self.alive

    def demand_pct(self) -> float:
        if not (self.alive and self.running):
            return 0.0
        return self.profile.cpu_burn_pct * (0.5 ** self.degrade_level)

    def start(self, bus: LoopbackBus) -> None:
        bus.subscribe(types={MsgType.SENSOR_FRAME, MsgType.COMMAND}, callback=self._on_message)

    def crash(self) -> None:
        self.alive = False
        self.running = False

    def _on_message(self, received: Received) -> None:
        msg = received.message
        if isinstance(msg, SensorFrame):
            self._on_frame(msg)
        elif isinstance(msg, Command) and msg.target_variant_id == self.profile.variant_id:
            self._on_command(msg)

    def _on_command(self, msg: Command) -> None:
        if not (self.alive and self.running):
            return
        if msg.command is CommandKind.DEGRADE:
            self.degrade_level = max(self.degrade_level, msg.degrade_level)
        elif msg.command is CommandKind.STOP:
            # clean exit: stop processing and let the handle read as gone
            self.running = False
            self.alive = False

    def _on_frame(self, frame: SensorFrame) -> None:
        if not (self.alive and self.running):
            return
        if frame.frame_id % (1 << self.degrade_level) != 0:
            return  # degraded: process every 2^level-th frame
        self._credit += self.node.processing_ratio(self.profile.variant_id)
        if self._credit < 1.0:
            return  # starved by contention this frame
        self._credit -= 1.0
        detected = sample_binomial(self._rng, frame.ground_truth_count, self.profile.true_positive_rate)
        detected += sample_poisson(self._rng, self.profile.false_positive_rate_per_frame)
        self.frames_processed += 1
        self._sender.send(
            ModuleOutput(
                frame_id=frame.frame_id,
                variant_id=self.profile.variant_id,
                detected_count=min(detected, 0xFFFF),
                latency_us=self._rng.randint(15_000, 45_000),
            )
        )

    def report_resources(self) -> None:
        if not (self.alive and self.running):
            return
        self._sender.send(
            ResourceReport(
                variant_id=self.profile.variant_id,
                cpu_pct=self.node.share_pct(self.profile.variant_id),
                mem_mb=self.profile.mem_mb,
            )
        )


@dataclass(frozen=True)
class NodeConfig:
    capacity_pct: float = 400.0
    heartbeat_period_ms: int = 1000
    miss_threshold: int = 3
    restart_delay_ms: int = 1000
    silence_primary_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.miss_threshold < 2:
            raise ScenarioError("miss_threshold must be >= 2")


class HeartbeatEmitter:
    """Primary-node liveness beacon; can be silenced (simulated crash) and
    resumed by a restart."""

    def __init__(
        self,
        bus: LoopbackBus,
        clock: FakeClock,
        period_us: int,
        node_id: int = PRIMARY_NODE_ID,
        sender_id: int = PRIMARY_NODE_SENDER_ID,
        silence_at_us: Optional[int] = None,
    ) -> None:
        self.period_us = period_us
        self.node_id = node_id
        self.silence_at_us = silence_at_us
        self.silenced = False
        self.beats_sent = 0
        self._started_us = 0
        self._sender = Sender(bus, sender_id, clock)
        self._clock = clock

    def start(self, scheduler: Scheduler) -> None:
        self._started_us = scheduler.clock.now_us()

        def beat() -> None:
            now = self._clock.now_us()
            if self.silence_at_us is not None and now >= self.silence_at_us:
                self.silenced = True
            if not self.silenced:
                self._sender.send(
                    Heartbeat(node_id=self.node_id, uptime_s=(now - self._started_us) // 1_000_000)
                )
                self.beats_sent += 1
            scheduler.call_after(self.period_us, beat)

        beat()  # first beat immediately, then every period

    def restart(self, scheduler: Scheduler, delay_us: int) -> None:
        def relaunch() -> None:
            self.silenced = False
            self.silence_at_us = None

        scheduler.call_after(delay_us, relaunch)


class FailoverMonitor:
    """Secondary-node failure detector over primary heartbeats.

    Declares the primary down after ``miss_threshold`` consecutive
    missed beats (staleness > threshold x period at a period-aligned
    check) and issues one simulated restart. Isolated losses shorter
    than the threshold never trigger.
    """

    UP = "UP"
    SUSPECT = "SUSPECT"
    RESTARTING = "RESTARTING"

    def __init__(
        self,
        clock: FakeClock,
        period_us: int,
        miss_threshold: int,
        primary_node_id: int = PRIMARY_NODE_ID,
    ) -> None:
        if miss_threshold < 2:
            raise ScenarioError("miss_threshold must be >= 2")
        self.clock = clock
        self.period_us = period_us
        self.miss_threshold = miss_threshold
        self.primary_node_id = primary_node_id
        self.state = self.UP
        self.last_beat_us: Optional[int] = None
        self.restart_events: list[dict] = []
        self._on_restart = None

    def attach(self, bus: LoopbackBus, scheduler: Scheduler, on_restart=None) -> None:
        self._on_restart = on_restart
        self.last_beat_us = scheduler.clock.now_us()
        bus.subscribe(types={MsgType.HEARTBEAT}, callback=self._on_heartbeat)

        def check() -> None:
            self.check_now()
            scheduler.call_after(self.period_us, check)

        scheduler.call_after(self.period_us, check)

    def _on_heartbeat(self, received: Received) -> None:
        msg = received.message
        if isinstance(msg, Heartbeat) and msg.node_id == self.primary_node_id:
            self.observe_beat(received.envelope.timestamp_us)

    def observe_beat(self, t_us: int) -> None:
        self.last_beat_us = t_us
        if self.state in (self.SUSPECT, self.RESTARTING):
            self.state = self.UP

    def check_now(self) -> None:
        now = self.clock.now_us()
        if self.last_beat_us is None or self.state == self.RESTARTING:
            return
        staleness_us = now - self.last_beat_us
        if staleness_us > self.miss_threshold * self.period_us:
            self.state = self.RESTARTING
            event = {
                "t_us": now,
                "kind": "restart",
                "node_id": self.primary_node_id,
                "staleness_us": staleness_us,
            }
            self.restart_events.append(event)
            if self._on_restart is not None:
                self._on_restart()
        elif staleness_us > self.period_us:
            self.state = self.SUSPECT


@dataclass(frozen=True)
class FrameConfig:
    count: int = 500
    rate_hz: float = 10.0
    seed: int = 1


@dataclass(frozen=True)
class UplinkConfig:
    profile: LinkProfile
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    protocol: ExperimentationProtocol
    frames: FrameConfig
    stubs: tuple[StubProfile, ...]
    node: NodeConfig = NodeConfig()
    uplink: Optional[UplinkConfig] = None
    fake_clock: bool = True
    data_dir: Optional[Path] = None
    expect: dict = field(default_factory=dict)

    def stub_for(self, variant_id: str) -> StubProfile:
        for stub in self.stubs:
            if stub.variant_id == variant_id:
                return stub
        raise ScenarioError(f"no stub profile for protocol variant {variant_id!r}")


def load_scenario(path: Path) -> Scenario:
    """Parse a scenario file; paths inside it resolve relative to it."""
    try:
        obj = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
    return scenario_from_object(obj, base_dir=Path(path).resolve().parent)


def scenario_from_object(obj: dict[str, Any], base_dir: Optional[Path] = None) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    if "protocol" in obj:
        protocol = parse_protocol(json.dumps(obj["protocol"]))
    elif "protocol_file" in obj:
        proto_path = Path(obj["protocol_file"])
        if base_dir is not None and not proto_path.is_absolute():
            proto_path = base_dir / proto_path
        protocol = parse_protocol(proto_path.read_text("utf-8"))
    else:
        raise ScenarioError("scenario needs 'protocol' (inline) or 'protocol_file'")

    frames_obj = obj.get("frames", {})
    frames = FrameConfig(
        count=int(frames_obj.get("count", 500)),
        rate_hz=float(frames_obj.get("rate_hz", 10.0)),
        seed=int(frames_obj.get("seed", 1)),
    )
    stubs = tuple(
        StubProfile(
            variant_id=s["variant_id"],
            true_positive_rate=float(s.get("true_positive_rate", 1.0)),
            false_positive_rate_per_frame=float(s.get("false_positive_rate_per_frame", 0.0)),
            cpu_burn_pct=float(s.get("cpu_burn_pct", 20.0)),
            seed=int(s.get("seed", 0)),
            mem_mb=float(s.get("mem_mb", 100.0)),
            crash_at_s=None if s.get("crash_at_s") is None else float(s["crash_at_s"]),
        )
        for s in obj.get("stubs", [])
    )
    node_obj = obj.get("node", {})
    node = NodeConfig(
        capacity_pct=float(node_obj.get("capacity_pct", 400.0)),
        heartbeat_period_ms=int(node_obj.get("heartbeat_period_ms", 1000)),
        miss_threshold=int(node_obj.get("miss_threshold", 3)),
        restart_delay_ms=int(node_obj.get("restart_delay_ms", 1000)),
        silence_primary_at_s=(
            None
            if node_obj.get("silence_primary_at_s") is None
            else float(node_obj["silence_primary_at_s"])
        ),
    )
    uplink = None
    if "uplink" in obj:
        uplink = UplinkConfig(
            profile=link_profile_from_object(obj["uplink"].get("link", {})),
            seed=int(obj["uplink"].get("seed", 0)),
        )
    data_dir = obj.get("data_dir")
    if data_dir is not None:
        data_dir = Path(data_dir)
        if base_dir is not None and not data_dir.is_absolute():
            data_dir = base_dir / data_dir
    scenario = Scenario(
        name=str(obj.get("name", "scenario")),
        protocol=protocol,
        frames=frames,
        stubs=stubs,
        node=node,
        uplink=uplink,
        fake_clock=bool(obj.get("fake_clock", True)),
        data_dir=data_dir,
        expect=dict(obj.get("expect", {})),
    )
    for variant in scenario.protocol.variants:
        scenario.stub_for(variant.variant_id)  # raises when a profile is missing
    return scenario


def paced_to_wall_time(clock: FakeClock, before_wait: Callable[[], None]) -> Callable[[int], None]:
    """Idle step that sleeps until as much wall time has passed as
    simulated time will have, counted from this call, then jumps ``clock``.
    ``before_wait`` runs just before each sleep, and only then."""
    wall_start = time.monotonic()
    sim_start = clock.now_us()

    def idle(t_us: int) -> None:
        lag = (t_us - sim_start) / 1e6 - (time.monotonic() - wall_start)
        if lag > 0:
            before_wait()
            time.sleep(lag)
        clock.advance_to(t_us)

    return idle


@dataclass
class ScenarioOutcome:
    report: ExperimentReport
    report_path: Path
    bus: LoopbackBus
    stubs: dict[str, StubActor]
    restart_events: list[dict]
    failures: list[str]
    decision: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def run_scenario(scenario: Scenario, data_dir: Optional[Path] = None) -> ScenarioOutcome:
    """Run one full experiment cycle and evaluate the scenario expectations.

    The vehicle root ends up holding ``data/<experiment_id>/`` with the
    report, event log, status snapshot, and per-variant sandbox logs;
    delivered uplinks land under ``hq/``.
    """
    root = Path(data_dir) if data_dir is not None else scenario.data_dir
    if root is None:
        raise ScenarioError("scenario has no data_dir and none was supplied")
    root = Path(root)
    protocol = scenario.protocol

    clock = FakeClock(0)
    bus = LoopbackBus()
    node_model = NodeCpuModel(scenario.node.capacity_pct)

    stubs: dict[str, StubActor] = {}
    for index, variant in enumerate(protocol.variants):
        profile = scenario.stub_for(variant.variant_id)
        stub = StubActor(
            profile, variant.role, bus, clock, sender_id=STUB_SENDER_BASE + index, node=node_model
        )
        stubs[variant.variant_id] = stub

    uplink = None
    if scenario.uplink is not None:
        uplink = OtaUplink(scenario.uplink.profile, seed=scenario.uplink.seed, hq_dir=root / "hq")

    sender = Sender(bus, SUPERVISOR_SENDER_ID, clock)
    sup = Supervisor(
        protocol,
        clock,
        root / "data",
        sender,
        handles={vid: stub for vid, stub in stubs.items()},
        uplink=uplink,
    )
    scheduler = Scheduler(
        clock, idle=None if scenario.fake_clock else paced_to_wall_time(clock, sup.refresh_status)
    )

    # the supervisor subscribes first: on a frame's synchronous fan-out it
    # must record the ground truth before any stub's output comes back in
    sup.schedule(scheduler, bus)

    replayer = SensorReplayer(
        bus, clock, scenario.frames.count, scenario.frames.rate_hz, scenario.frames.seed
    )
    replayer.start(scheduler)

    heartbeat = HeartbeatEmitter(
        bus,
        clock,
        period_us=scenario.node.heartbeat_period_ms * 1000,
        silence_at_us=(
            None
            if scenario.node.silence_primary_at_s is None
            else int(scenario.node.silence_primary_at_s * 1_000_000)
        ),
    )
    heartbeat.start(scheduler)
    monitor = FailoverMonitor(
        clock,
        period_us=scenario.node.heartbeat_period_ms * 1000,
        miss_threshold=scenario.node.miss_threshold,
    )
    monitor.attach(
        bus,
        scheduler,
        on_restart=lambda: heartbeat.restart(scheduler, scenario.node.restart_delay_ms * 1000),
    )

    for variant in protocol.variants:
        stubs[variant.variant_id].start(bus)

    # the production-protection audit, counted off the wire as commands go out
    production_id = next(v.variant_id for v in protocol.variants if v.role is Role.PRODUCTION)
    commands_to_production = 0

    def on_command(received: Received) -> None:
        nonlocal commands_to_production
        if received.message.target_variant_id == production_id:
            commands_to_production += 1

    bus.subscribe(types={MsgType.COMMAND}, callback=on_command)

    for variant in protocol.variants:
        profile = scenario.stub_for(variant.variant_id)
        if profile.crash_at_s is not None:
            scheduler.call_at(
                int(profile.crash_at_s * 1_000_000), stubs[variant.variant_id].crash
            )

    period_us = protocol.sample_period_ms * 1000
    node_model.recompute({vid: stub.demand_pct() for vid, stub in stubs.items()})

    def resource_tick() -> None:
        node_model.recompute({vid: stub.demand_pct() for vid, stub in stubs.items()})
        for variant in protocol.variants:
            stubs[variant.variant_id].report_resources()
        scheduler.call_after(period_us, resource_tick)

    scheduler.call_after(period_us, resource_tick)

    # the supervisor finishes at its end_us, one sample period before this horizon
    scheduler.run_until(protocol.max_duration_s * 1_000_000 + period_us)

    report_path = root / "data" / protocol.experiment_id / "report.json"
    report = report_from_json(report_path.read_text("utf-8"))

    if monitor.restart_events:
        failover_path = root / "data" / protocol.experiment_id / "failover.jsonl"
        with open(failover_path, "w", encoding="utf-8") as fh:
            for event in monitor.restart_events:
                fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")

    failures = check_expectations(scenario, report, commands_to_production, monitor)
    decision = None
    if "winner" in scenario.expect or scenario.expect.get("decision", False):
        from . import hqcli  # local import: hqcli sits above the harness

        decision = record_fields(hqcli.compare(report))
    return ScenarioOutcome(
        report=report,
        report_path=report_path,
        bus=bus,
        stubs=stubs,
        restart_events=monitor.restart_events,
        failures=failures,
        decision=decision,
    )


def check_expectations(
    scenario: Scenario,
    report: ExperimentReport,
    commands_to_production: int,
    monitor: FailoverMonitor,
) -> list[str]:
    """``commands_to_production`` counts the COMMAND messages published
    to the production variant during the run."""
    expect = scenario.expect
    failures: list[str] = []
    if "final_state" in expect and report.final_state != expect["final_state"]:
        failures.append(f"final_state: expected {expect['final_state']}, got {report.final_state}")
    if "winner" in expect:
        from . import hqcli

        winner = hqcli.compare(report).winner
        if winner != expect["winner"]:
            failures.append(f"winner: expected {expect['winner']}, got {winner}")
    if "aborted_variants" in expect:
        aborted = sorted(v.variant_id for v in report.variants if v.final_status == "ABORTED")
        if aborted != sorted(expect["aborted_variants"]):
            failures.append(f"aborted_variants: expected {expect['aborted_variants']}, got {aborted}")
    if "restart_count" in expect and len(monitor.restart_events) != expect["restart_count"]:
        failures.append(
            f"restart_count: expected {expect['restart_count']}, got {len(monitor.restart_events)}"
        )
    max_prod_commands = int(expect.get("commands_to_production", 0))
    if commands_to_production > max_prod_commands:
        failures.append(
            f"commands_to_production: {commands_to_production} issued, at most {max_prod_commands} allowed"
        )
    return failures


def cli_main(argv: Optional[list[str]] = None) -> int:
    """``ceharness``: run a scenario end to end."""
    parser = argparse.ArgumentParser(
        prog="ceharness", description="Desk-scale experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--data-dir", default=None, help="override the scenario data_dir")
    args = parser.parse_args(argv)

    scenario = load_scenario(Path(args.scenario))
    data_dir = Path(args.data_dir) if args.data_dir else None
    outcome = run_scenario(scenario, data_dir=data_dir)
    report = outcome.report
    print(f"scenario {scenario.name}: final_state={report.final_state}")
    for variant in report.variants:
        acc = "n/a" if variant.accuracy is None else f"{variant.accuracy:.3f}"
        print(
            f"  {variant.variant_id:<16} {variant.role:<12} status={variant.final_status:<9} "
            f"frames={variant.frames_processed:<6} accuracy={acc} violations={variant.violations}"
        )
    if outcome.decision is not None:
        print(f"  decision: winner={outcome.decision['winner']}")
    print(f"  report: {outcome.report_path}")
    if outcome.failures:
        for failure in outcome.failures:
            print(f"  EXPECTATION FAILED: {failure}")
        return 1
    print("  all scenario expectations hold")
    return 0
