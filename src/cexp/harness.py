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

A scenario file is the simulated vehicle's only configuration. Its frozen
records (``FrameConfig``, ``StubProfile``, ``NodeConfig``) check every
range the actors rely on in ``__post_init__``, so a value out of range,
NaN or infinite is refused when the file loads, and each actor takes its
record whole (the replayer its ``FrameConfig``, each stub its
``StubProfile``, the heartbeat pair the ``NodeConfig``).

Detector stubs are statistical stand-ins: per processed frame they
detect ``binomial(ground_truth, tpr)`` objects plus Poisson false
positives. A stub honors DEGRADE by processing every 2^level-th frame
(half rate at level 1, quarter rate at level 2) and STOP by exiting
cleanly; its modeled CPU demand shrinks with the same factor. It obeys
commands from the supervisor's sender id only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from .artifact import LinkProfile, SchemaError, open_outages, record_fields, record_from_object
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
    """Successes in ``n`` trials of probability ``p``: one uniform per trial."""
    uniform = rng.random
    k = 0
    for _ in range(n):
        if uniform() < p:
            k += 1
    return k


def sample_poisson(rng: random.Random, exp_neg_lam: float) -> int:
    """Poisson draw of mean ``lam > 0`` by Knuth's product of uniforms,
    given ``exp(-lam)``; it takes one uniform more than the count it returns."""
    uniform = rng.random
    k = 0
    p = uniform()
    while p > exp_neg_lam:
        k += 1
        p *= uniform()
    return k


def _require(ok: bool, key: str, accepted: str, value: Any) -> None:
    """Refuse a scenario value out of its accepted range. Each caller writes
    ``ok`` as a comparison that NaN fails, so a NaN is always refused."""
    if not ok:
        raise ScenarioError(f"{key}: must be {accepted}, got {value!r}")


@dataclass(frozen=True)
class FrameConfig:
    """The replayed recording: ``count`` frames at ``rate_hz`` from ``seed``."""

    count: int = 500
    rate_hz: float = 10.0
    seed: int = 1

    def __post_init__(self) -> None:
        _require(self.count >= 0, "frames.count", ">= 0", self.count)
        _require(
            0.0 < self.rate_hz <= MAX_FRAME_RATE_HZ, "frames.rate_hz", f"in (0, {MAX_FRAME_RATE_HZ}]", self.rate_hz
        )


class SensorReplayer:
    """Publishes the seeded stream of ``frames`` at its fixed rate.

    Ground-truth object counts are uniform on [0, 8]; identical seeds
    produce identical streams, which is what lets the same recording be
    replayed against every variant.
    """

    def __init__(self, bus: LoopbackBus, clock: FakeClock, frames: FrameConfig) -> None:
        self.frames = frames
        self.period_us = round(1_000_000 / frames.rate_hz)
        self.seed = frames.seed
        self._rng = random.Random(frames.seed)
        self._sender = Sender(bus, REPLAYER_SENDER_ID, clock)

    def start(self, scheduler: Scheduler) -> None:
        scheduler.call_every(scheduler.clock.now_us(), self.period_us, self.frames.count, self._emit)

    def _emit(self, frame_id: int) -> None:
        ground_truth_count = self._rng.randint(0, 8)
        self._sender.send(SensorFrame(frame_id, ground_truth_count, synthetic_pixels_digest(self.seed, frame_id)))


@dataclass(frozen=True)
class StubProfile:
    """Parametric detector variant: quality knobs plus CPU appetite."""

    variant_id: str
    true_positive_rate: float = 1.0
    false_positive_rate_per_frame: float = 0.0
    cpu_burn_pct: float = 20.0
    seed: int = 0
    mem_mb: float = 100.0
    crash_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        where = f"stubs[{self.variant_id!r}]"
        tpr = self.true_positive_rate
        _require(0.0 <= tpr <= 1.0, f"{where}.true_positive_rate", "in [0, 1]", tpr)
        for key in ("false_positive_rate_per_frame", "cpu_burn_pct", "mem_mb"):
            value = getattr(self, key)
            _require(0.0 <= value < math.inf, f"{where}.{key}", "finite and >= 0", value)
        crash = self.crash_at_s
        if crash is not None:
            _require(0.0 <= crash < math.inf, f"{where}.crash_at_s", "null or finite and >= 0", crash)


class NodeCpuModel:
    """Fluid CPU sharing on the node running the variants.

    When summed demand exceeds capacity every module gets a
    proportional share; a module starved below its demand processes
    proportionally fewer frames. This is the coupling that makes
    enforcement matter: degrading or stopping a hostile experiment is
    what gives production its throughput back.
    """

    def __init__(self, capacity_pct: float) -> None:
        self.capacity_pct = capacity_pct
        self._shares: dict[str, float] = {}
        # share / demand, which each stub reads once per frame, computed once
        # per recompute; a module that demands nothing is never starved
        self._ratios: dict[str, float] = {}

    def recompute(self, demands: dict[str, float]) -> None:
        total = sum(demands.values())
        scale = 1.0 if total <= self.capacity_pct else self.capacity_pct / total
        self._shares = {vid: demand * scale for vid, demand in demands.items()}
        self._ratios = {
            vid: 1.0 if demand <= 0.0 else demand * scale / demand for vid, demand in demands.items()
        }

    def share_pct(self, variant_id: str) -> float:
        return self._shares.get(variant_id, 0.0)

    def processing_ratio(self, variant_id: str) -> float:
        return self._ratios.get(variant_id, 1.0)


class StubActor:
    """One software variant under test, as a process-like task on the bus.

    Exposes ``is_alive`` so the supervisor can treat it like a launched
    process handle: alive until it crashes (at its profile's
    ``crash_at_s``) or exits on STOP. It obeys a command only when the
    supervisor sent it.
    """

    def __init__(
        self, profile: StubProfile, bus: LoopbackBus, clock: FakeClock, sender_id: int, node: NodeCpuModel
    ) -> None:
        self.profile = profile
        self.variant_id = profile.variant_id
        self.clock = clock
        self.node = node
        self.degrade_level = 0
        self.running = True
        self.alive = True
        self.frames_processed = 0
        self._credit = 0.0
        self._rng = random.Random(profile.seed)
        self._sender = Sender(bus, sender_id, clock)
        # exp(-lam) of the false-positive draw; None when lam is 0 and nothing is drawn
        lam = profile.false_positive_rate_per_frame
        self._fp_exp_neg_lam = math.exp(-lam) if lam > 0.0 else None

    def is_alive(self) -> bool:
        return self.alive

    def demand_pct(self) -> float:
        if not (self.alive and self.running):
            return 0.0
        return self.profile.cpu_burn_pct * (0.5 ** self.degrade_level)

    def start(self, bus: LoopbackBus, scheduler: Scheduler) -> None:
        bus.subscribe(types={MsgType.SENSOR_FRAME, MsgType.COMMAND}, callback=self._on_message)
        if self.profile.crash_at_s is not None:
            scheduler.call_at(int(self.profile.crash_at_s * 1_000_000), self.crash)

    def crash(self) -> None:
        self.alive = False
        self.running = False

    def _on_message(self, received: Received) -> None:
        msg = received.message
        if type(msg) is SensorFrame:
            self._on_frame(msg)
        elif (
            type(msg) is Command
            and received.envelope.sender_id == SUPERVISOR_SENDER_ID
            and msg.target_variant_id == self.variant_id
        ):
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
        self._credit += self.node.processing_ratio(self.variant_id)
        if self._credit < 1.0:
            return  # starved by contention this frame
        self._credit -= 1.0
        rng = self._rng
        detected = sample_binomial(rng, frame.ground_truth_count, self.profile.true_positive_rate)
        if self._fp_exp_neg_lam is not None:
            detected += sample_poisson(rng, self._fp_exp_neg_lam)
        self.frames_processed += 1
        # randrange(a, b + 1) draws the stream randint(a, b) does, one call shallower
        latency_us = rng.randrange(15_000, 45_001)
        self._sender.send(ModuleOutput(frame.frame_id, self.variant_id, min(detected, 0xFFFF), latency_us))

    def report_resources(self) -> None:
        if not (self.alive and self.running):
            return
        cpu_pct = self.node.share_pct(self.variant_id)
        self._sender.send(ResourceReport(self.variant_id, cpu_pct, self.profile.mem_mb))


@dataclass(frozen=True)
class NodeConfig:
    """The computing node: CPU capacity, and the primary's heartbeat,
    failure detection and restart."""

    capacity_pct: float = 400.0
    heartbeat_period_ms: int = 1000
    miss_threshold: int = 3
    restart_delay_ms: int = 1000
    silence_primary_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        _require(0.0 < self.capacity_pct < math.inf, "node.capacity_pct", "finite and > 0", self.capacity_pct)
        _require(self.heartbeat_period_ms > 0, "node.heartbeat_period_ms", "> 0", self.heartbeat_period_ms)
        _require(self.miss_threshold >= 2, "node.miss_threshold", ">= 2", self.miss_threshold)
        _require(self.restart_delay_ms >= 0, "node.restart_delay_ms", ">= 0", self.restart_delay_ms)
        silence = self.silence_primary_at_s
        if silence is not None:
            _require(0.0 <= silence < math.inf, "node.silence_primary_at_s", "null or finite and >= 0", silence)


class HeartbeatEmitter:
    """The primary node's liveness beacon, every ``node.heartbeat_period_ms``;
    silenced (a simulated crash) from ``node.silence_primary_at_s`` until a
    restart brings it back ``node.restart_delay_ms`` later."""

    def __init__(self, bus: LoopbackBus, clock: FakeClock, node: NodeConfig) -> None:
        self.node = node
        self.period_us = node.heartbeat_period_ms * 1000
        silence_s = node.silence_primary_at_s
        self.silence_at_us = None if silence_s is None else int(silence_s * 1_000_000)
        self.silenced = False
        self.beats_sent = 0
        self._started_us = 0
        self._sender = Sender(bus, PRIMARY_NODE_SENDER_ID, clock)
        self._clock = clock

    def start(self, scheduler: Scheduler) -> None:
        self._started_us = scheduler.clock.now_us()

        def beat() -> None:
            now = self._clock.now_us()
            if self.silence_at_us is not None and now >= self.silence_at_us:
                self.silenced = True
            if not self.silenced:
                self._sender.send(
                    Heartbeat(node_id=PRIMARY_NODE_ID, uptime_s=(now - self._started_us) // 1_000_000)
                )
                self.beats_sent += 1
            scheduler.call_after(self.period_us, beat)

        beat()  # first beat immediately, then every period

    def restart(self, scheduler: Scheduler) -> None:
        def relaunch() -> None:
            self.silenced = False
            self.silence_at_us = None

        scheduler.call_after(self.node.restart_delay_ms * 1000, relaunch)


class FailoverMonitor:
    """Secondary-node failure detector over primary heartbeats.

    Declares the primary down after ``node.miss_threshold`` consecutive
    missed beats (staleness > threshold x period at a period-aligned
    check) and issues one simulated restart. Isolated losses shorter
    than the threshold never trigger.
    """

    UP = "UP"
    SUSPECT = "SUSPECT"
    RESTARTING = "RESTARTING"

    def __init__(self, clock: FakeClock, node: NodeConfig) -> None:
        self.clock = clock
        self.period_us = node.heartbeat_period_ms * 1000
        self.miss_threshold = node.miss_threshold
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
        if isinstance(msg, Heartbeat) and msg.node_id == PRIMARY_NODE_ID:
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
                "node_id": PRIMARY_NODE_ID,
                "staleness_us": staleness_us,
            }
            self.restart_events.append(event)
            if self._on_restart is not None:
                self._on_restart()
        elif staleness_us > self.period_us:
            self.state = self.SUSPECT


@dataclass(frozen=True)
class UplinkConfig:
    link: LinkProfile = LinkProfile()
    seed: int = 0


@dataclass(frozen=True)
class Expectations:
    """What a scenario run must show; an absent (null) key is not checked."""

    final_state: Optional[str] = None
    winner: Optional[str] = None
    aborted_variants: Optional[tuple[str, ...]] = None
    restart_count: Optional[int] = None
    commands_to_production: int = 0  # at most this many commands may reach production


@dataclass(frozen=True)
class Scenario:
    """A scenario file's sections, and the protocol it holds inline
    (``protocol``) or names by path (``protocol_file``)."""

    name: str = "scenario"
    frames: FrameConfig = FrameConfig()
    stubs: tuple[StubProfile, ...] = ()
    node: NodeConfig = NodeConfig()
    uplink: Optional[UplinkConfig] = None
    fake_clock: bool = True
    data_dir: Optional[str] = None
    expect: Expectations = Expectations()
    protocol_file: Optional[str] = None
    # read by parse_protocol on its own, so its errors name the protocol's fields
    protocol: Optional[ExperimentationProtocol] = None

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


def scenario_from_object(obj: Any, base_dir: Optional[Path] = None) -> Scenario:
    """Build a scenario from its JSON object; paths resolve against ``base_dir``.

    The sections are read through ``record_from_object``: an absent key
    takes its record's default, and a key no record names or a value of the
    wrong type raises ``ScenarioError`` naming its path. An outage's
    ``null`` end in ``uplink.link`` is ``math.inf``.
    """
    sections = obj
    if type(obj) is dict:
        sections = {k: v for k, v in obj.items() if k != "protocol"}
        uplink = obj.get("uplink")
        if type(uplink) is dict and "link" in uplink:
            sections["uplink"] = {**uplink, "link": open_outages(uplink["link"])}
    try:
        scenario = record_from_object(Scenario, sections)
    except SchemaError as exc:
        where = exc.field if exc.field not in ("", "$") else "scenario"
        raise ScenarioError(f"{where}: {exc.message}") from None
    base = Path(base_dir or ".")  # joined to an absolute path, it leaves that path as it is
    if "protocol" in obj:
        protocol = parse_protocol(json.dumps(obj["protocol"]))
    elif scenario.protocol_file is not None:
        protocol = parse_protocol((base / scenario.protocol_file).read_text("utf-8"))
    else:
        raise ScenarioError("scenario needs 'protocol' (inline) or 'protocol_file'")
    data_dir = None if scenario.data_dir is None else str(base / scenario.data_dir)
    scenario = replace(scenario, protocol=protocol, data_dir=data_dir)
    for variant in protocol.variants:
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
        stubs[variant.variant_id] = StubActor(profile, bus, clock, STUB_SENDER_BASE + index, node_model)

    uplink = None
    if scenario.uplink is not None:
        uplink = OtaUplink(scenario.uplink.link, seed=scenario.uplink.seed, hq_dir=root / "hq")

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

    SensorReplayer(bus, clock, scenario.frames).start(scheduler)
    heartbeat = HeartbeatEmitter(bus, clock, scenario.node)
    heartbeat.start(scheduler)
    monitor = FailoverMonitor(clock, scenario.node)
    monitor.attach(bus, scheduler, on_restart=lambda: heartbeat.restart(scheduler))

    for stub in stubs.values():
        stub.start(bus, scheduler)  # which also schedules the stub's crash

    # the production-protection audit, counted off the wire as commands go out
    production_id = next(v.variant_id for v in protocol.variants if v.role is Role.PRODUCTION)
    commands_to_production = 0

    def on_command(received: Received) -> None:
        nonlocal commands_to_production
        if received.message.target_variant_id == production_id:
            commands_to_production += 1

    bus.subscribe(types={MsgType.COMMAND}, callback=on_command)

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

    decision = None
    if scenario.expect.winner is not None:
        from . import hqcli  # local import: hqcli sits above the harness

        decision = record_fields(hqcli.compare(report))
    restart_count = len(monitor.restart_events)
    failures = check_expectations(scenario, report, commands_to_production, restart_count, decision)
    return ScenarioOutcome(
        report=report,
        report_path=report_path,
        bus=bus,
        restart_events=monitor.restart_events,
        failures=failures,
        decision=decision,
    )


def check_expectations(
    scenario: Scenario,
    report: ExperimentReport,
    commands_to_production: int,
    restart_count: int,
    decision: Optional[dict],
) -> list[str]:
    """``commands_to_production`` counts the COMMAND messages published
    to the production variant during the run, ``restart_count`` the
    failover monitor's restarts; ``decision`` is HQ's ``compare`` of the
    report, needed when the scenario expects a winner."""
    expect = scenario.expect
    failures: list[str] = []
    if expect.final_state is not None and report.final_state != expect.final_state:
        failures.append(f"final_state: expected {expect.final_state}, got {report.final_state}")
    if expect.winner is not None and decision["winner"] != expect.winner:
        failures.append(f"winner: expected {expect.winner}, got {decision['winner']}")
    if expect.aborted_variants is not None:
        aborted = sorted(v.variant_id for v in report.variants if v.final_status == "ABORTED")
        if aborted != sorted(expect.aborted_variants):
            failures.append(f"aborted_variants: expected {list(expect.aborted_variants)}, got {aborted}")
    if expect.restart_count is not None and restart_count != expect.restart_count:
        failures.append(f"restart_count: expected {expect.restart_count}, got {restart_count}")
    if commands_to_production > expect.commands_to_production:
        failures.append(
            f"commands_to_production: {commands_to_production} issued, "
            f"at most {expect.commands_to_production} allowed"
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

    try:
        scenario = load_scenario(Path(args.scenario))
    except ValueError as exc:  # a scenario or its protocol that does not load
        print(f"error: {exc}")
        return 2
    data_dir = args.data_dir or scenario.data_dir
    if data_dir is None:
        print("error: scenario has no data_dir and --data-dir was not given")
        return 2
    outcome = run_scenario(scenario, data_dir=Path(data_dir))
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
