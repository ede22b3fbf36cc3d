"""Replayer determinism, stub behavior, contention, failover, scenarios."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from cexp.clock import FakeClock, Scheduler
from cexp import harness as H
from cexp.protocol import UploadPolicy
from cexp.supervisor import SUPERVISOR_SENDER_ID, OtaUplink
from cexp.wirebus import Command, CommandKind, LoopbackBus, ModuleOutput, MsgType, Sender, SensorFrame
from conftest import make_ab_scenario, make_baseline_scenario, make_hostile_scenario, make_protocol_doc
from test_bench_entry_points import _load_spans

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _frame_world():
    clock = FakeClock(0)
    return clock, Scheduler(clock), LoopbackBus()


# -- sensor replay ---------------------------------------------------------------


def _replay_counts(seed: int, count: int = 10):
    clock, scheduler, bus = _frame_world()
    frames = []
    bus.subscribe(frames.append, types={MsgType.SENSOR_FRAME})
    H.SensorReplayer(bus, scheduler, H.FrameConfig(count, 10.0, seed))
    scheduler.run_until(10_000_000)
    return [item.message.ground_truth_count for item in frames]


def test_replay_is_deterministic_for_a_seed():
    assert _replay_counts(42) == _replay_counts(42)
    assert _replay_counts(42) != _replay_counts(43)


def test_replay_counts_are_within_bounds():
    assert all(0 <= c <= 8 for c in _replay_counts(7, count=200))


def test_frame_ids_strictly_increase():
    clock, scheduler, bus = _frame_world()
    frames = []
    bus.subscribe(frames.append, types={MsgType.SENSOR_FRAME})
    H.SensorReplayer(bus, scheduler, H.FrameConfig(50, 25.0, 3))
    scheduler.run_until(10_000_000)
    ids = [item.message.frame_id for item in frames]
    assert ids == list(range(50))


def test_500_frames_at_50hz_span_9_98_seconds():
    clock, scheduler, bus = _frame_world()
    frames = []
    bus.subscribe(frames.append, types={MsgType.SENSOR_FRAME})
    H.SensorReplayer(bus, scheduler, H.FrameConfig(500, 50.0, 9))
    scheduler.run_until(60_000_000)
    stamps = [item.envelope.timestamp_us for item in frames]
    assert len(stamps) == 500
    assert stamps[-1] - stamps[0] == 9_980_000  # 499 frames / 50 Hz


def test_frames_tie_with_events_by_when_the_replayer_started():
    clock, scheduler, bus = _frame_world()
    order = []
    bus.subscribe(
        types={MsgType.SENSOR_FRAME},
        callback=lambda item: order.append((f"frame{item.message.frame_id}", scheduler.pending())),
    )
    # frame 5 of a 10 Hz replay goes out at 500 ms
    scheduler.call_at(500_000, lambda: order.append(("before", scheduler.pending())))
    H.SensorReplayer(bus, scheduler, H.FrameConfig(10, 10.0, 1))
    scheduler.call_at(500_000, lambda: order.append(("after", scheduler.pending())))
    scheduler.run_until(2_000_000)
    names = [name for name, _ in order]
    at = names.index("frame5")
    assert names[at - 1 : at + 2] == ["before", "frame5", "after"]
    # the next frame and the two one-shots at most, not the whole recording
    assert max(pending for _, pending in order) <= 3


class PendingProbe(Scheduler):
    """Scheduler that records the most events it ever held pending, sampled
    whenever an event is scheduled and whenever a periodic callback fires."""

    peak = 0

    def _sample(self) -> None:
        PendingProbe.peak = max(PendingProbe.peak, self.pending())

    def call_at(self, t_us, fn):
        super().call_at(t_us, fn)
        self._sample()

    def call_every(self, first_us, period_us, count, fn):
        def probed(index):
            self._sample()
            fn(index)

        super().call_every(first_us, period_us, count, probed)


def test_scheduler_holds_a_handful_of_events_through_a_6000_frame_run(tmp_path, monkeypatch):
    monkeypatch.setattr(H, "Scheduler", PendingProbe)
    monkeypatch.setattr(PendingProbe, "peak", 0)
    obj = make_ab_scenario(frames={"count": 6000, "rate_hz": 100, "seed": 7})
    obj["protocol"]["max_duration_s"] = 61
    outcome = H.run_scenario(H.scenario_from_object(obj), data_dir=tmp_path)
    assert outcome.report.variant("prod").frames_processed == 6000
    assert PendingProbe.peak <= 10


def _traced_peak_bytes(frames: int, data_dir: Path) -> int:
    obj = make_baseline_scenario(frames={"count": frames, "rate_hz": 100, "seed": 7})
    obj["protocol"]["max_duration_s"] = frames // 100 + 1
    scenario = H.scenario_from_object(obj)
    tracemalloc.start()
    try:
        outcome = H.run_scenario(scenario, data_dir=data_dir)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.report.variant("prod").frames_processed == frames
    return peak


def test_run_memory_does_not_grow_with_frame_count(tmp_path):
    short = _traced_peak_bytes(2_000, tmp_path / "short")
    long = _traced_peak_bytes(20_000, tmp_path / "long")
    assert long - short < 1024 * 1024


def test_frame_config_rejects_excessive_rate():
    with pytest.raises(H.ScenarioError, match=r"^frames\.rate_hz: must be in \(0, 100\], got 101\.0$"):
        H.FrameConfig(count=10, rate_hz=101.0, seed=1)


def test_pixels_digest_is_32_bytes_and_seed_dependent():
    assert len(H.synthetic_pixels_digest(1, 0)) == 32
    assert H.synthetic_pixels_digest(1, 0) != H.synthetic_pixels_digest(2, 0)


# -- statistical helpers -----------------------------------------------------------


def test_binomial_bounds_and_mean():
    rng = random.Random(5)
    draws = [H.sample_binomial(rng, 8, 0.72) for _ in range(5_000)]
    assert all(0 <= d <= 8 for d in draws)
    assert sum(draws) / len(draws) == pytest.approx(8 * 0.72, rel=0.05)


def test_poisson_mean_and_degenerate_cases():
    rng = random.Random(6)
    draws = [H.sample_poisson(rng, math.exp(-1.5)) for _ in range(5_000)]
    assert sum(draws) / len(draws) == pytest.approx(1.5, rel=0.1)
    assert H.sample_poisson(rng, math.exp(-1e-300)) == 0


def _stream_digest(draws: list[int], rng: random.Random) -> str:
    """sha256 of the draws and of the generator's next 64 bits, so a sampler
    that consumes one uniform more or less than before changes it too."""
    text = ",".join(map(str, [*draws, rng.getrandbits(64)]))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_sample_binomial_draws_the_pinned_stream():
    rng = random.Random(2024)
    draws = [
        H.sample_binomial(rng, n, p)
        for n, p in [(8, 0.72), (3, 0.5), (0, 0.5), (6, 0.0), (6, 1.0)]
        for _ in range(1000)
    ]
    assert _stream_digest(draws, rng) == "a2825949015e6c5b3ae9b4c94699dc14fdeb1f57cc26c15e6617e9c6dab7fc97"


def test_sample_below_draws_what_randint_draws():
    for seed in range(20):
        rng, reference = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 9, 16, 17, 30_001, 1 << 40, (1 << 40) + 1):
            assert [H.sample_below(rng, n) for _ in range(200)] == [reference.randint(0, n - 1) for _ in range(200)]
        assert rng.getrandbits(64) == reference.getrandbits(64)


def test_sample_poisson_draws_the_pinned_stream():
    rng = random.Random(2025)
    draws = [H.sample_poisson(rng, math.exp(-lam)) for lam in (0.1, 1.5, 12.0) for _ in range(1000)]
    assert _stream_digest(draws, rng) == "1cb802419810a189507cec9413bd93fcb72ba58303d834393f1b7683596deaaa"


# -- detector stubs ------------------------------------------------------------------


def _stub_world(profile: H.StubProfile, capacity: float = 400.0):
    clock, scheduler, bus = _frame_world()
    stub = H.StubActor(profile, bus, scheduler, 100)
    H.share_cpu([stub], capacity)
    outputs = []  # every MODULE_OUTPUT the stub publishes, in order
    bus.subscribe(outputs.append, types={MsgType.MODULE_OUTPUT})
    feeder = Sender(bus, 2, clock)
    return clock, scheduler, bus, stub, outputs, feeder


def _command(feeder, target, kind, level=0, sender_id=SUPERVISOR_SENDER_ID):
    """Publish a command on the stub world's bus, from the supervisor unless ``sender_id`` says otherwise."""
    Sender(feeder.bus, sender_id, feeder.clock).send(Command(target, kind, level))


def _feed_frames(feeder, start_id, n, gt=4):
    for frame_id in range(start_id, start_id + n):
        feeder.send(
            SensorFrame(frame_id=frame_id, ground_truth_count=gt, pixels_digest=bytes(32))
        )


def test_perfect_stub_detects_exactly_ground_truth():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, _, outputs, feeder = _stub_world(profile)
    _feed_frames(feeder, 0, 20, gt=5)
    assert len(outputs) == 20
    assert all(item.message.detected_count == 5 for item in outputs)


def test_blind_stub_detects_nothing_without_false_positives():
    profile = H.StubProfile("expA", true_positive_rate=0.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, _, outputs, feeder = _stub_world(profile)
    _feed_frames(feeder, 0, 20, gt=5)
    assert all(item.message.detected_count == 0 for item in outputs)


def test_blind_stub_with_false_positives_reports_only_spurious():
    profile = H.StubProfile("expA", true_positive_rate=0.0, false_positive_rate_per_frame=2.0, cpu_burn_pct=10, seed=3)
    _, _, _, _, outputs, feeder = _stub_world(profile)
    _feed_frames(feeder, 0, 500, gt=5)
    detected = [item.message.detected_count for item in outputs]
    assert sum(detected) / len(detected) == pytest.approx(2.0, rel=0.15)


def test_degrade_level_one_halves_processing_exactly():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, stub, outputs, feeder = _stub_world(profile)
    _feed_frames(feeder, 0, 100)
    before = len(outputs)
    _command(feeder, "expA", CommandKind.DEGRADE, 1)
    assert stub.degrade_level == 1
    _feed_frames(feeder, 100, 100)
    after = [item.message.frame_id for item in outputs[before:]]
    assert before == 100
    assert len(after) == 50  # exactly half under the fake clock
    assert all(frame_id % 2 == 0 for frame_id in after)


def test_degrade_level_two_quarters_processing():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, stub, outputs, feeder = _stub_world(profile)
    _command(feeder, "expA", CommandKind.DEGRADE, 2)
    _feed_frames(feeder, 0, 100)
    got = [item.message.frame_id for item in outputs]
    assert len(got) == 25
    assert all(frame_id % 4 == 0 for frame_id in got)


def test_stop_command_exits_cleanly():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, stub, outputs, feeder = _stub_world(profile)
    _command(feeder, "expA", CommandKind.STOP)
    assert not stub.running
    _feed_frames(feeder, 0, 10)
    assert outputs == []


def test_commands_for_other_variants_are_ignored():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, stub, _, feeder = _stub_world(profile)
    _command(feeder, "expB", CommandKind.STOP)
    assert stub.running


@pytest.mark.parametrize("kind, level", [(CommandKind.STOP, 0), (CommandKind.DEGRADE, 2)], ids=["stop", "degrade"])
def test_commands_from_anyone_but_the_supervisor_are_ignored(kind, level):
    profile = H.StubProfile("prod", cpu_burn_pct=10, seed=1)
    _, _, _, stub, outputs, feeder = _stub_world(profile)
    _command(feeder, "prod", kind, level, sender_id=4242)
    _feed_frames(feeder, 0, 4)
    assert stub.running and stub.degrade_level == 0
    assert len(outputs) == 4


def test_degrade_halves_cpu_demand():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=80, seed=1)
    _, _, _, stub, _, feeder = _stub_world(profile)
    assert stub.demand_pct() == 80.0
    _command(feeder, "expA", CommandKind.DEGRADE, 1)
    assert stub.demand_pct() == 40.0
    _command(feeder, "expA", CommandKind.DEGRADE, 2)
    assert stub.demand_pct() == 20.0


# -- CPU contention model --------------------------------------------------------------


def _shared(capacity, demands):
    """One stub per CPU demand, in order, after one ``share_cpu`` on ``capacity``."""
    _, scheduler, bus = _frame_world()
    stubs = [
        H.StubActor(H.StubProfile(f"v{i}", cpu_burn_pct=demand), bus, scheduler, 100 + i)
        for i, demand in enumerate(demands)
    ]
    H.share_cpu(stubs, capacity)
    return stubs


def test_shares_equal_demand_under_capacity():
    a, b = _shared(200.0, [50.0, 100.0])
    assert (a.cpu_share_pct, b.cpu_share_pct) == (50.0, 100.0)
    assert a.processing_ratio == 1.0


def test_shares_scale_proportionally_over_capacity():
    prod, hostile = _shared(100.0, [40.0, 95.0])
    scale = 100.0 / 135.0
    assert prod.cpu_share_pct == pytest.approx(40.0 * scale)
    assert hostile.cpu_share_pct == pytest.approx(95.0 * scale)
    assert prod.processing_ratio == pytest.approx(scale)


def test_the_processing_ratio_is_share_over_demand_to_the_last_bit():
    # the scale and share / demand differ in the last bit here, and the credit
    # accumulator would drop a different frame on the scale
    small, large = _shared(100.0, [5.0, 105.0])
    scale = 100.0 / 110.0
    assert small.cpu_share_pct == 5.0 * scale
    assert small.processing_ratio == 5.0 * scale / 5.0 == 0.909090909090909
    assert small.processing_ratio != scale
    assert large.processing_ratio == 105.0 * scale / 105.0


def test_a_stub_that_demands_nothing_holds_no_share_and_is_never_starved():
    stopped, hostile = _shared(100.0, [0.0, 300.0])
    assert (stopped.cpu_share_pct, stopped.processing_ratio) == (0.0, 1.0)
    assert hostile.cpu_share_pct == 100.0


def test_starved_stub_drops_frames_proportionally():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=100, seed=1)
    clock, scheduler, bus, stub, outputs, feeder = _stub_world(profile, capacity=50.0)
    # ratio 0.5: the credit accumulator processes every other frame
    _feed_frames(feeder, 0, 100)
    assert len(outputs) == 50


# -- failover --------------------------------------------------------------------------


def _failover_world(silence_at_s=None, period_ms=1000, miss_threshold=3):
    clock, scheduler, bus = _frame_world()
    node = H.NodeConfig(
        heartbeat_period_ms=period_ms,
        miss_threshold=miss_threshold,
        restart_delay_ms=period_ms,
        silence_primary_at_s=silence_at_s,
    )
    beats = []  # every HEARTBEAT on the bus, the first one included
    bus.subscribe(beats.append, types={MsgType.HEARTBEAT})
    emitter = H.HeartbeatEmitter(bus, scheduler, node)
    monitor = H.FailoverMonitor(bus, scheduler, node, on_restart=emitter.restart)
    return clock, scheduler, beats, monitor


def test_silenced_primary_restarts_within_a_period_of_detection():
    clock, scheduler, beats, monitor = _failover_world(silence_at_s=10.0)
    scheduler.run_until(30_000_000)
    assert len(monitor.restart_events) == 1
    t_restart = monitor.restart_events[0]["t_us"]
    assert 13_000_000 <= t_restart <= 14_000_000
    # the relaunch brings heartbeats back and the monitor recovers
    assert monitor.state == H.FailoverMonitor.UP


def test_no_restarts_while_heartbeats_flow():
    clock, scheduler, beats, monitor = _failover_world()
    scheduler.run_until(50_000_000)
    assert monitor.restart_events == []
    assert monitor.state == H.FailoverMonitor.UP


def test_zero_false_restarts_over_10000_clean_beats():
    clock, scheduler, beats, monitor = _failover_world(period_ms=1000)
    scheduler.run_until(10_000 * 1_000_000)
    assert len(beats) >= 10_000
    assert monitor.restart_events == []


def test_two_isolated_missed_beats_do_not_restart():
    clock, scheduler, bus = _frame_world()
    restarts = []
    node = H.NodeConfig(heartbeat_period_ms=1000, miss_threshold=3)
    monitor = H.FailoverMonitor(bus, scheduler, node, on_restart=lambda: restarts.append(clock.now_us()))
    dropped = {4, 7}
    for second in range(1, 13):
        clock.advance_to(second * 1_000_000)
        if second not in dropped:
            monitor.observe_beat(second * 1_000_000)
        monitor.check_now()
    assert monitor.restart_events == restarts == []
    assert monitor.state == H.FailoverMonitor.UP


def test_monitor_restarts_only_once_staleness_passes_the_miss_threshold():
    clock, scheduler, bus = _frame_world()
    restarts = []
    node = H.NodeConfig(heartbeat_period_ms=1000, miss_threshold=3)
    monitor = H.FailoverMonitor(bus, scheduler, node, on_restart=lambda: restarts.append(clock.now_us()))
    clock.advance_to(3_000_000)  # exactly three periods since the last beat: not yet overdue
    monitor.check_now()
    assert (monitor.state, restarts) == (H.FailoverMonitor.UP, [])
    clock.advance_to(3_000_001)
    monitor.check_now()
    assert monitor.state == H.FailoverMonitor.RESTARTING
    assert restarts == [3_000_001]
    assert [(event["t_us"], event["staleness_us"]) for event in monitor.restart_events] == [(3_000_001, 3_000_001)]


def test_a_monitor_left_alone_after_it_is_built_restarts_once_when_no_beat_comes():
    # built, never touched again: its own period-aligned checks find the last
    # beat (at build time) overdue at 4 s, restart once, and then wait for a beat
    clock, scheduler, bus = _frame_world()
    restarts = []
    node = H.NodeConfig(heartbeat_period_ms=1000, miss_threshold=3)
    monitor = H.FailoverMonitor(bus, scheduler, node, on_restart=lambda: restarts.append(clock.now_us()))
    scheduler.run_until(20_000_000)
    assert restarts == [4_000_000]
    assert [(event["t_us"], event["staleness_us"]) for event in monitor.restart_events] == [(4_000_000, 4_000_000)]
    assert monitor.state == H.FailoverMonitor.RESTARTING


def test_node_config_miss_threshold_floor():
    with pytest.raises(H.ScenarioError, match=r"^node\.miss_threshold: must be >= 2, got 1$"):
        H.NodeConfig(miss_threshold=1)


# -- scenarios ---------------------------------------------------------------------------


def test_scenario_loader_requires_stub_for_every_variant():
    scenario = make_ab_scenario()
    scenario["stubs"] = scenario["stubs"][:1]
    with pytest.raises(H.ScenarioError):
        H.scenario_from_object(scenario)


def test_a_scenario_uplink_outage_with_a_null_end_loads_as_infinity():
    link = {"bandwidth_bytes_per_s": 1000, "outage_schedule": [[2.0, 3.0], [9.5, None]], "datagram_loss_pct": 5.0}
    scenario = H.scenario_from_object(make_ab_scenario(uplink={"link": link, "seed": 4}))
    assert scenario.uplink.link.outage_schedule == ((2.0, 3.0), (9.5, math.inf))
    assert scenario.uplink.link.to_object() == link


def test_scenario_protocol_file_resolves_relative_to_scenario(tmp_path):
    scenario = make_ab_scenario()
    protocol_obj = scenario.pop("protocol")
    (tmp_path / "protocols").mkdir()
    (tmp_path / "protocols" / "ab.json").write_text(json.dumps(protocol_obj), "utf-8")
    scenario["protocol_file"] = "protocols/ab.json"
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), "utf-8")
    loaded = H.load_scenario(tmp_path / "scenario.json")
    assert loaded.protocol.experiment_id == protocol_obj["experiment_id"]


@pytest.mark.parametrize("protocol_keys", [(), ("protocol", "protocol_file")], ids=["neither", "both"])
def test_a_scenario_needs_exactly_one_protocol(tmp_path, protocol_keys):
    (tmp_path / "other.json").write_text(json.dumps(make_protocol_doc(experiment_id="exp-other")), "utf-8")
    scenario = make_ab_scenario(protocol_file="other.json")
    for key in {"protocol", "protocol_file"} - set(protocol_keys):
        del scenario[key]
    with pytest.raises(H.ScenarioError, match=r"^scenario needs 'protocol' \(inline\) or 'protocol_file', not both$"):
        H.scenario_from_object(scenario, base_dir=tmp_path)


def test_scenario_with_only_required_keys_loads_with_the_documented_defaults():
    variants = ("prod", "expA", "expB")
    required = {"protocol": make_protocol_doc(), "stubs": [{"variant_id": v} for v in variants], "uplink": {}}
    written_out = {
        "name": "scenario",
        "fake_clock": True,
        "protocol": make_protocol_doc(),
        "frames": {"count": 500, "rate_hz": 10.0, "seed": 1},
        "stubs": [
            {
                "variant_id": v,
                "true_positive_rate": 1.0,
                "false_positive_rate_per_frame": 0.0,
                "cpu_burn_pct": 20.0,
                "seed": 0,
                "mem_mb": 100.0,
                "crash_at_s": None,
            }
            for v in variants
        ],
        "node": {
            "capacity_pct": 400.0,
            "heartbeat_period_ms": 1000,
            "miss_threshold": 3,
            "restart_delay_ms": 1000,
            "silence_primary_at_s": None,
        },
        "uplink": {
            "link": {"bandwidth_bytes_per_s": 5_952_380, "outage_schedule": [], "datagram_loss_pct": 0.0},
            "seed": 0,
        },
        "data_dir": None,
        "expect": {},
    }
    assert H.scenario_from_object(required) == H.scenario_from_object(written_out)
    without_uplink = dict(required)
    del without_uplink["uplink"]
    assert H.scenario_from_object(without_uplink).uplink is None


def _section(scenario: dict, where: str) -> dict:
    """The object of section ``where`` (``stubs[1]``, ``uplink.link``, ...) inside
    ``scenario``; ``scenario`` is the top level."""
    obj = scenario
    for part in where.split(".") if where != "scenario" else ():
        name, _, index = part.partition("[")
        obj = obj[name] if not index else obj[name][int(index.rstrip("]"))]
    return obj


@pytest.mark.parametrize(
    "where, misspelt",
    [
        ("frames", "rate"),
        ("stubs[1]", "true_postive_rate"),
        ("node", "heartbeat_period"),
        ("uplink", "sead"),
        ("uplink.link", "datagram_loss"),
        ("expect", "winer"),
        ("scenario", "expcet"),
    ],
)
def test_scenario_refuses_a_misspelt_key(where, misspelt):
    scenario = make_ab_scenario(uplink={"link": {"datagram_loss_pct": 10.0}, "seed": 4})
    _section(scenario, where)[misspelt] = 0.1
    with pytest.raises(H.ScenarioError) as refused:
        H.scenario_from_object(scenario)
    assert str(refused.value) == f"{where}: unknown key {misspelt!r}"


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda s: s.update(fake_clock="false"), "fake_clock: expected bool, got str"),
        (lambda s: s.update(name=5), "name: expected str, got int"),
        (lambda s: s.update(stubs=3), "stubs: expected list, got int"),
        (lambda s: s["frames"].update(count=2.7), "frames.count: expected int, got float"),
        (lambda s: s["stubs"][0].update(seed="7"), "stubs[0].seed: expected int, got str"),
        (lambda s: s["node"].update(miss_threshold=True), "node.miss_threshold: expected int, got bool"),
    ],
    ids=[
        "fake-clock-a-string", "name-a-number", "stubs-a-number", "count-a-float", "seed-a-string", "threshold-a-bool",
    ],
)
def test_scenario_refuses_a_value_of_the_wrong_type(damage, message):
    scenario = make_ab_scenario()
    damage(scenario)
    with pytest.raises(H.ScenarioError) as refused:
        H.scenario_from_object(scenario)
    assert str(refused.value) == message


NAN, INF = float("nan"), float("inf")


def _out_of_range(where, key, value, message):
    return pytest.param(where, key, value, message, id=f"{where}.{key}={value}")


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        _out_of_range("frames", "rate_hz", 0, "frames.rate_hz: must be in (0, 100], got 0.0"),
        _out_of_range("frames", "rate_hz", 101, "frames.rate_hz: must be in (0, 100], got 101.0"),
        _out_of_range("frames", "rate_hz", NAN, "frames.rate_hz: must be in (0, 100], got nan"),
        _out_of_range("frames", "count", -1, "frames.count: must be >= 0, got -1"),
        _out_of_range("node", "capacity_pct", 0, "node.capacity_pct: must be finite and > 0, got 0.0"),
        _out_of_range("node", "capacity_pct", NAN, "node.capacity_pct: must be finite and > 0, got nan"),
        _out_of_range("node", "heartbeat_period_ms", 0, "node.heartbeat_period_ms: must be > 0, got 0"),
        _out_of_range("node", "heartbeat_period_ms", -5, "node.heartbeat_period_ms: must be > 0, got -5"),
        _out_of_range("node", "restart_delay_ms", -1, "node.restart_delay_ms: must be >= 0, got -1"),
        _out_of_range(
            "node", "silence_primary_at_s", -1, "node.silence_primary_at_s: must be null or finite and >= 0, got -1.0"
        ),
        _out_of_range(
            "node", "silence_primary_at_s", NAN, "node.silence_primary_at_s: must be null or finite and >= 0, got nan"
        ),
        *[
            _out_of_range("stubs[1]", key, value, f"stubs['expA'].{key}: must be finite and >= 0, got {float(value)!r}")
            for key in ("cpu_burn_pct", "false_positive_rate_per_frame", "mem_mb")
            for value in (NAN, INF, -1)
        ],
        _out_of_range(
            "stubs[1]", "crash_at_s", -1, "stubs['expA'].crash_at_s: must be null or finite and >= 0, got -1.0"
        ),
        _out_of_range(
            "scenario", "fake_clock", False, "fake_clock: must be true (a live run goes through cesupd), got False"
        ),
    ],
)
def test_scenario_refuses_a_value_out_of_range_at_load(where, key, value, message):
    """Checked at load, never by running: on a scenario that loads, a zero
    heartbeat period would loop forever at t=0."""
    scenario = make_ab_scenario()
    _section(scenario, where)[key] = value
    with pytest.raises(H.ScenarioError) as refused:
        H.scenario_from_object(scenario)
    assert str(refused.value) == message


def test_ab_scenario_selects_the_better_variant(tmp_path):
    outcome = H.run_scenario(H.scenario_from_object(make_ab_scenario()), data_dir=tmp_path)
    assert outcome.failures == []
    report = outcome.report
    assert report.final_state == "COMPLETED"
    acc = {v.variant_id: v.accuracy for v in report.variants}
    assert acc["expA"] == pytest.approx(0.72, abs=0.05)
    assert acc["expB"] == pytest.approx(0.68, abs=0.05)
    assert acc["prod"] == pytest.approx(0.60, abs=0.05)


def test_run_scenario_compares_the_report_once(tmp_path, monkeypatch):
    from cexp import hqcli

    compared = []
    compare = hqcli.compare
    monkeypatch.setattr(hqcli, "compare", lambda report: compared.append(report) or compare(report))
    outcome = H.run_scenario(H.scenario_from_object(make_ab_scenario()), data_dir=tmp_path)
    assert outcome.failures == []
    assert outcome.decision["winner"] == "expA"
    assert compared == [outcome.report]


def test_a_command_to_production_fails_the_run(tmp_path):
    scenario = H.scenario_from_object(make_ab_scenario())
    outcome = H.run_scenario(scenario, data_dir=tmp_path)
    assert outcome.failures == []
    assert H.check_expectations(scenario, outcome.report, 0, 0, outcome.decision) == []
    assert H.check_expectations(scenario, outcome.report, 1, 0, outcome.decision) == [
        "production: 1 command(s) received, none allowed"
    ]


def test_crash_scenario_marks_variant_crashed(tmp_path):
    scenario = make_ab_scenario()
    scenario["stubs"][1]["crash_at_s"] = 3.0
    scenario["expect"] = {"final_state": "COMPLETED", "winner": "expB"}
    outcome = H.run_scenario(H.scenario_from_object(scenario), data_dir=tmp_path)
    assert outcome.failures == []
    assert outcome.report.variant("expA").final_status == "CRASHED"
    assert outcome.report.variant("expA").frames_processed < 50


@pytest.mark.parametrize("crash_at_s", [1.0, 20.0], ids=["before-stop", "after-stop"])
def test_final_state_does_not_depend_on_when_a_crash_is_detected(tmp_path, crash_at_s):
    # enforcement STOPs expA at 3.5 s; expB crashes before or after that,
    # and either way no experimental variant is left running
    scenario = make_hostile_scenario()
    scenario["protocol"]["variants"] = make_protocol_doc()["variants"]
    scenario["protocol"]["max_concurrent_experiments"] = 2
    scenario["stubs"].append(
        {"variant_id": "expB", "true_positive_rate": 0.68, "cpu_burn_pct": 5, "seed": 13, "crash_at_s": crash_at_s}
    )
    outcome = H.run_scenario(H.scenario_from_object(scenario), data_dir=tmp_path)
    assert outcome.failures == []
    assert [c["t_us"] for c in outcome.report.variant("expA").commands_received][-1] == 3_500_000
    assert outcome.report.variant("expB").final_status == "CRASHED"
    assert outcome.report.final_state == "ABORTED"


def test_scenario_with_uplink_delivers_report_to_hq(tmp_path):
    scenario = make_ab_scenario()
    scenario["uplink"] = {"link": {"bandwidth_bytes_per_s": 5_952_380, "datagram_loss_pct": 10.0}, "seed": 4}
    outcome = H.run_scenario(H.scenario_from_object(scenario), data_dir=tmp_path)
    hq_copy = tmp_path / "hq" / outcome.report.experiment_id / "report.json"
    assert hq_copy.read_bytes() == outcome.report_path.read_bytes()


def test_periodic_snapshots_of_ab_500_count_the_frames_before_each_tick(tmp_path, monkeypatch):
    # the supervisor is built first, so at every period its tick, and the
    # snapshot it sends, runs before the frame due at the same time
    scenario = H.load_scenario(SCENARIOS / "ab_500.json")
    protocol = dataclasses.replace(scenario.protocol, upload_policy=UploadPolicy("PERIODIC", 10))
    snapshots = []
    send = OtaUplink.send

    def recording_send(self, experiment_id, payload, t_s, label="report"):
        if label == "snapshot":
            snapshots.append(json.loads(payload))
        return send(self, experiment_id, payload, t_s, label)

    monkeypatch.setattr(OtaUplink, "send", recording_send)
    outcome = H.run_scenario(dataclasses.replace(scenario, protocol=protocol), data_dir=tmp_path)
    assert outcome.failures == []
    assert [snapshot["t_us"] for snapshot in snapshots] == [10_000_000 * k for k in range(1, 6)]
    for snapshot, frames in zip(snapshots, (100, 200, 300, 400, 500)):
        assert {v["frames_processed"] for v in snapshot["variants"].values()} == {frames}


def test_a_traced_ab_500_run_ticks_once_per_period_before_the_end(tmp_path):
    # the bench's supervisor.tick span counts every tick: 60 s at 500 ms is
    # 119 periods strictly before the end
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        H.run_scenario(H.load_scenario(SCENARIOS / "ab_500.json"), data_dir=tmp_path)
    assert tracer.calls["supervisor.tick"] == 119


def test_hostile_scenario_protects_production(tmp_path):
    hostile = H.run_scenario(H.scenario_from_object(make_hostile_scenario()), data_dir=tmp_path / "hostile")
    baseline = H.run_scenario(H.scenario_from_object(make_baseline_scenario()), data_dir=tmp_path / "baseline")
    assert hostile.failures == []
    assert baseline.failures == []
    prod_hostile = hostile.report.variant("prod").frames_processed
    prod_baseline = baseline.report.variant("prod").frames_processed
    assert prod_baseline == 600
    assert prod_hostile >= 0.9 * prod_baseline


def test_cli_run_reports_success(tmp_path, capsys):
    scenario = make_ab_scenario()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), "utf-8")
    code = H.cli_main(["run", "--scenario", str(path), "--data-dir", str(tmp_path / "out")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "final_state=COMPLETED" in printed
    assert "all scenario expectations hold" in printed


def test_cli_run_refuses_a_vehicle_root_that_is_a_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_ab_scenario()), "utf-8")
    root = tmp_path / "out"
    root.write_text("not a directory", "utf-8")
    code = H.cli_main(["run", "--scenario", str(path), "--data-dir", str(root)])
    assert code == 2
    logs = root / "data" / "exp-ab-500" / "logs"
    assert capsys.readouterr().out == f"error: [Errno 20] Not a directory: '{logs}'\n"
    assert root.read_text("utf-8") == "not a directory"


def test_cli_run_fails_on_broken_expectation(tmp_path, capsys):
    scenario = make_ab_scenario()
    scenario["expect"] = {"winner": "expB"}  # wrong on purpose
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), "utf-8")
    code = H.cli_main(["run", "--scenario", str(path), "--data-dir", str(tmp_path / "out")])
    assert code == 1
    assert "EXPECTATION FAILED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda s: s["node"].update(heartbeat_period=500), "node: unknown key 'heartbeat_period'"),
        (lambda s: s["protocol"].pop("max_duration_s"), "max_duration_s: missing key"),
        (lambda s: s.update(fake_clock=False), "fake_clock: must be true (a live run goes through cesupd), got False"),
        # no command may reach production, so it is not a key to loosen
        (lambda s: s.update(expect={"commands_to_production": 1}), "expect: unknown key 'commands_to_production'"),
    ],
    ids=["unknown-scenario-key", "protocol-missing-key", "not-fake-clock", "expect-commands-to-production"],
)
def test_cli_run_refuses_a_scenario_that_does_not_load(tmp_path, capsys, damage, message):
    scenario = make_ab_scenario()
    damage(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), "utf-8")
    code = H.cli_main(["run", "--scenario", str(path), "--data-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().out == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_refuses_a_variant_id_too_long_to_name_its_log(tmp_path, capsys):
    # 300 characters: past the 255 a file name may have, where the variant's
    # sandbox log would fail to open mid-set-up
    long_id = "e" * 300
    scenario = make_ab_scenario()
    scenario["protocol"]["variants"][1]["variant_id"] = long_id
    scenario["stubs"][1]["variant_id"] = long_id
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), "utf-8")
    code = H.cli_main(["run", "--scenario", str(path), "--data-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().out == "error: variants[1].variant_id: length 300 exceeds 64\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_refuses_a_bare_nan_literal(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_ab_scenario(data_dir="run")).replace('"cpu_burn_pct": 25', '"cpu_burn_pct": NaN', 1), "utf-8")
    assert "NaN" in path.read_text()
    code = H.cli_main(["run", "--scenario", str(path)])
    assert code == 2
    assert capsys.readouterr().out == "error: stubs['expA'].cpu_burn_pct: must be finite and >= 0, got nan\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("missing", ["scenario", "protocol_file"])
def test_cli_run_refuses_an_input_file_it_cannot_read(tmp_path, capsys, missing):
    path = tmp_path / "scenario.json"
    absent = path
    if missing == "protocol_file":
        scenario = make_ab_scenario()
        del scenario["protocol"]
        scenario["protocol_file"] = "missing/ab.json"
        path.write_text(json.dumps(scenario), "utf-8")
        absent = tmp_path / "missing" / "ab.json"
    code = H.cli_main(["run", "--scenario", str(path), "--data-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().out == f"error: [Errno 2] No such file or directory: '{absent}'\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_without_a_data_dir_is_an_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_ab_scenario()), "utf-8")
    monkeypatch.chdir(tmp_path)
    code = H.cli_main(["run", "--scenario", str(path)])
    assert code == 2
    assert capsys.readouterr().out == "error: scenario has no data_dir and --data-dir was not given\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]
