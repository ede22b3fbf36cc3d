"""Desk-scale simulated vehicle: sensor replay, variant stubs, two-node
failover, and the scenario runner that ties a whole experiment cycle
together.

Everything here runs as process-like actors on one deterministic event
loop: a seeded frame replayer standing in for the camera feed, one stub
per protocol variant (parametric detector quality + CPU appetite), CPU
contention (``share_cpu``, once per sample period, sets the share each
stub holds) that makes a hostile experiment actually hurt production
throughput, and a heartbeat/failover pair simulating the
primary/secondary computing nodes. Fixed seeds plus the fake clock give
byte-identical experiment reports run after run. Each actor is built in
one step: it takes the scheduler, whose clock it reads, and subscribes
and schedules in its constructor, so the order ``run_scenario`` builds
the actors in is their fan-out order and tie rank.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from .artifact import LinkProfile, SchemaError, record_fields, record_from_object
from .clock import FakeClock, Scheduler, overdue
from .protocol import ExperimentationProtocol, Role, parse_protocol
from .supervisor import ExperimentReport, OtaUplink, Supervisor, SUPERVISOR_SENDER_ID
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


def sample_below(rng: random.Random, n: int) -> int:
    """Uniform on [0, n) for ``n >= 1``, drawn as CPython's ``randrange(n)``
    draws it: ``n.bit_length()`` random bits at a time until they fall below
    ``n``. The same stream, without ``randrange``'s argument handling."""
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


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
    """Publishes the seeded stream of ``frames`` at its fixed rate from when it is built.

    Ground-truth object counts are uniform on [0, 8]; identical seeds
    produce identical streams, which is what lets the same recording be
    replayed against every variant.
    """

    def __init__(self, bus: LoopbackBus, scheduler: Scheduler, frames: FrameConfig) -> None:
        self.period_us = round(1_000_000 / frames.rate_hz)
        self.seed = frames.seed
        self._rng = random.Random(frames.seed)
        self._sender = Sender(bus, REPLAYER_SENDER_ID, scheduler.clock)
        scheduler.call_every(scheduler.clock.now_us(), self.period_us, frames.count, self._emit)

    def _emit(self, frame_id: int) -> None:
        ground_truth_count = sample_below(self._rng, 9)  # the stream randint(0, 8) draws
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


class StubActor:
    """One software variant under test, as a process-like task on the bus.

    It runs until it crashes (at its profile's ``crash_at_s``) or exits on
    STOP; then it falls silent, and the supervisor learns of it only from
    its missing resource reports. It listens on the bus it is built on and
    obeys a command only when it carries the supervisor's fixed sender id,
    ``SUPERVISOR_SENDER_ID``. Its CPU share and processing ratio are what
    ``share_cpu`` last set; a stub it has not reached is never starved.
    """

    def __init__(self, profile: StubProfile, bus: LoopbackBus, scheduler: Scheduler, sender_id: int) -> None:
        self.profile = profile
        self.variant_id = profile.variant_id
        self.cpu_share_pct = 0.0
        self.processing_ratio = 1.0  # share / demand, read once per frame
        self.degrade_level = 0
        self.running = True
        self._credit = 0.0
        self._rng = random.Random(profile.seed)
        self._sender = Sender(bus, sender_id, scheduler.clock)
        # exp(-lam) of the false-positive draw; None when lam is 0 and nothing is drawn
        lam = profile.false_positive_rate_per_frame
        self._fp_exp_neg_lam = math.exp(-lam) if lam > 0.0 else None
        bus.subscribe(types={MsgType.SENSOR_FRAME, MsgType.COMMAND}, callback=self._on_message)
        if profile.crash_at_s is not None:
            scheduler.call_at(int(profile.crash_at_s * 1_000_000), self.crash)

    def demand_pct(self) -> float:
        if not self.running:
            return 0.0
        return self.profile.cpu_burn_pct * (0.5 ** self.degrade_level)

    def crash(self) -> None:
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
        if not self.running:
            return
        if msg.command is CommandKind.DEGRADE:
            self.degrade_level = max(self.degrade_level, msg.degrade_level)
        elif msg.command is CommandKind.STOP:
            self.running = False  # clean exit

    def _on_frame(self, frame: SensorFrame) -> None:
        if not self.running:
            return
        frame_id, ground_truth_count, _pixels_digest = frame
        level = self.degrade_level
        if level and frame_id % (1 << level):
            return  # degraded: process every 2^level-th frame
        credit = self._credit + self.processing_ratio
        if credit < 1.0:
            self._credit = credit
            return  # starved by contention this frame
        self._credit = credit - 1.0
        rng = self._rng
        detected = sample_binomial(rng, ground_truth_count, self.profile.true_positive_rate)
        if self._fp_exp_neg_lam is not None:
            detected += sample_poisson(rng, self._fp_exp_neg_lam)
        latency_us = 15_000 + sample_below(rng, 30_001)  # the stream randint(15_000, 45_000) draws
        if detected > 0xFFFF:
            detected = 0xFFFF  # the widest count the wire carries
        self._sender.send(ModuleOutput(frame_id, self.variant_id, detected, latency_us))

    def report_resources(self) -> None:
        if not self.running:
            return
        self._sender.send(ResourceReport(self.variant_id, self.cpu_share_pct, self.profile.mem_mb))


def share_cpu(stubs: list[StubActor], capacity_pct: float) -> None:
    """Fluid CPU sharing on the node running the variants: set each stub's
    ``cpu_share_pct`` and ``processing_ratio`` from the demands of all.

    When summed demand exceeds capacity every module gets a proportional
    share; a module starved below its demand processes proportionally fewer
    frames. This is the coupling that makes enforcement matter: degrading or
    stopping a hostile experiment is what gives production its throughput
    back. The ratio is ``share / demand`` as written, not the scale: the two
    differ in the last bit, and the credit accumulator would drop another
    frame. A module that demands nothing is never starved.
    """
    demands = [stub.demand_pct() for stub in stubs]
    total = sum(demands)
    scale = 1.0 if total <= capacity_pct else capacity_pct / total
    for stub, demand in zip(stubs, demands):
        stub.cpu_share_pct = demand * scale
        stub.processing_ratio = 1.0 if demand <= 0.0 else demand * scale / demand


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
    """The primary node's liveness beacon: one beat when it is built, then one every
    ``node.heartbeat_period_ms``; silenced (a simulated crash) from ``node.silence_primary_at_s``
    until a restart brings it back ``node.restart_delay_ms`` later."""

    def __init__(self, bus: LoopbackBus, scheduler: Scheduler, node: NodeConfig) -> None:
        self.node = node
        self.period_us = node.heartbeat_period_ms * 1000
        silence_s = node.silence_primary_at_s
        self.silence_at_us = None if silence_s is None else int(silence_s * 1_000_000)
        self._scheduler = scheduler
        sender = Sender(bus, PRIMARY_NODE_SENDER_ID, scheduler.clock)
        started_us = scheduler.clock.now_us()

        def beat() -> None:
            now = scheduler.clock.now_us()
            if self.silence_at_us is None or now < self.silence_at_us:
                sender.send(Heartbeat(node_id=PRIMARY_NODE_ID, uptime_s=(now - started_us) // 1_000_000))
            scheduler.call_after(self.period_us, beat)

        beat()  # first beat immediately, then every period

    def restart(self) -> None:
        def relaunch() -> None:
            self.silence_at_us = None

        self._scheduler.call_after(self.node.restart_delay_ms * 1000, relaunch)


class FailoverMonitor:
    """Secondary-node failure detector over primary heartbeats, checked every period from when it is built.

    Two states. ``UP`` holds while beats arrive. After
    ``node.miss_threshold`` consecutive missed beats (the last beat
    ``clock.overdue`` at a period-aligned check) the monitor calls
    ``on_restart`` once and is ``RESTARTING`` until the next beat. Isolated
    losses shorter than the threshold never trigger.
    """

    UP = "UP"
    RESTARTING = "RESTARTING"

    def __init__(
        self, bus: LoopbackBus, scheduler: Scheduler, node: NodeConfig, on_restart: Callable[[], None]
    ) -> None:
        self.clock = scheduler.clock
        self.period_us = node.heartbeat_period_ms * 1000
        self.miss_threshold = node.miss_threshold
        self.state = self.UP
        self.last_beat_us = self.clock.now_us()
        self.restart_events: list[dict] = []
        self._on_restart = on_restart
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
        self.state = self.UP

    def check_now(self) -> None:
        if self.state == self.RESTARTING:
            return
        now = self.clock.now_us()
        if overdue(now, self.last_beat_us, self.miss_threshold, self.period_us):
            self.state = self.RESTARTING
            event = {
                "t_us": now,
                "kind": "restart",
                "node_id": PRIMARY_NODE_ID,
                "staleness_us": now - self.last_beat_us,
            }
            self.restart_events.append(event)
            self._on_restart()


@dataclass(frozen=True)
class UplinkConfig:
    link: LinkProfile = LinkProfile()
    seed: int = 0


@dataclass(frozen=True)
class Expectations:
    """What a scenario run must show; an absent (null) key is not checked.
    That no command reaches production is not a key: every run must show it."""

    final_state: Optional[str] = None
    winner: Optional[str] = None
    aborted_variants: Optional[tuple[str, ...]] = None
    restart_count: Optional[int] = None


@dataclass(frozen=True)
class Scenario:
    """A scenario file's sections, and the protocol it holds inline
    (``protocol``) or names by path (``protocol_file``). A scenario runs
    under the fake clock only: ``fake_clock`` must be true."""

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

    def __post_init__(self) -> None:
        _require(self.fake_clock, "fake_clock", "true (a live run goes through cesupd)", self.fake_clock)

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
    wrong type raises ``ScenarioError`` naming its path.
    """
    sections = {k: v for k, v in obj.items() if k != "protocol"} if type(obj) is dict else obj
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


@dataclass
class ScenarioOutcome:
    report: ExperimentReport
    report_path: Path
    bus: LoopbackBus
    failures: list[str]
    decision: Optional[dict] = None


def run_scenario(scenario: Scenario, data_dir: Path | str) -> ScenarioOutcome:
    """Run one full experiment cycle under the fake clock and evaluate the
    scenario expectations.

    ``data_dir`` is the vehicle root the supervisor and the uplink write
    under (``supervisor.run_dir``, ``hq_inbox``).
    """
    protocol = scenario.protocol

    clock = FakeClock(0)
    bus = LoopbackBus()
    uplink = None
    if scenario.uplink is not None:
        uplink = OtaUplink(scenario.uplink.link, data_dir, seed=scenario.uplink.seed)

    sup = Supervisor(protocol, clock, data_dir, bus, uplink=uplink)
    scheduler = Scheduler(clock)

    # build order is fan-out order: the supervisor subscribes first, since on a frame's
    # synchronous fan-out it must record the ground truth before any stub's output comes back in
    sup.schedule(scheduler)

    SensorReplayer(bus, scheduler, scenario.frames)
    heartbeat = HeartbeatEmitter(bus, scheduler, scenario.node)
    monitor = FailoverMonitor(bus, scheduler, scenario.node, on_restart=heartbeat.restart)
    stubs = [
        StubActor(scenario.stub_for(variant.variant_id), bus, scheduler, STUB_SENDER_BASE + index)
        for index, variant in enumerate(protocol.variants)
    ]

    # the production-protection audit, counted off the wire as commands go out
    production_id = next(v.variant_id for v in protocol.variants if v.role is Role.PRODUCTION)
    production_commands = 0

    def on_command(received: Received) -> None:
        nonlocal production_commands
        if received.message.target_variant_id == production_id:
            production_commands += 1

    bus.subscribe(types={MsgType.COMMAND}, callback=on_command)

    period_us = protocol.sample_period_ms * 1000
    share_cpu(stubs, scenario.node.capacity_pct)

    def resource_tick() -> None:
        share_cpu(stubs, scenario.node.capacity_pct)
        for stub in stubs:
            stub.report_resources()
        scheduler.call_after(period_us, resource_tick)

    scheduler.call_after(period_us, resource_tick)

    # the supervisor finishes at its end_us, one sample period before this horizon
    scheduler.run_until(protocol.max_duration_s * 1_000_000 + period_us)

    report = sup.report
    if monitor.restart_events:
        failover_path = sup.run_dir / "failover.jsonl"
        with open(failover_path, "w", encoding="utf-8") as fh:
            for event in monitor.restart_events:
                fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")

    decision = None
    if scenario.expect.winner is not None:
        from . import hqcli  # local import: hqcli sits above the harness

        decision = record_fields(hqcli.compare(report))
    restart_count = len(monitor.restart_events)
    failures = check_expectations(scenario, report, production_commands, restart_count, decision)
    return ScenarioOutcome(
        report=report,
        report_path=sup.run_dir / "report.json",
        bus=bus,
        failures=failures,
        decision=decision,
    )


def check_expectations(
    scenario: Scenario,
    report: ExperimentReport,
    production_commands: int,
    restart_count: int,
    decision: Optional[dict],
) -> list[str]:
    """The run's failures against the scenario's ``expect``, plus the one
    check every run gets: any COMMAND published to the production variant
    (``production_commands`` counts them) fails it. ``restart_count`` is
    the failover monitor's restarts; ``decision`` is HQ's ``compare`` of
    the report, needed when the scenario expects a winner."""
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
    if production_commands:
        failures.append(f"production: {production_commands} command(s) received, none allowed")
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
    except (ValueError, OSError) as exc:  # a scenario or its protocol that does not load or cannot be read
        print(f"error: {exc}")
        return 2
    data_dir = args.data_dir if args.data_dir is not None else scenario.data_dir
    if data_dir is None:
        print("error: scenario has no data_dir and --data-dir was not given")
        return 2
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
