"""Replayer determinism, stub behavior, contention, failover, scenarios."""

from __future__ import annotations

import json
import random
import tracemalloc
from pathlib import Path

import pytest

from cexp.clock import FakeClock, Scheduler
from cexp import harness as H
from cexp.protocol import Role
from cexp.wirebus import Command, CommandKind, LoopbackBus, ModuleOutput, MsgType, Sender, SensorFrame
from conftest import make_ab_scenario, make_baseline_scenario, make_hostile_scenario


def _frame_world():
    clock = FakeClock(0)
    return clock, Scheduler(clock), LoopbackBus()


# -- sensor replay ---------------------------------------------------------------


def _replay_counts(seed: int, count: int = 10):
    clock, scheduler, bus = _frame_world()
    frames = []
    bus.subscribe(frames.append, types={MsgType.SENSOR_FRAME})
    H.SensorReplayer(bus, clock, count, 10.0, seed).start(scheduler)
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
    H.SensorReplayer(bus, clock, 50, 25.0, 3).start(scheduler)
    scheduler.run_until(10_000_000)
    ids = [item.message.frame_id for item in frames]
    assert ids == list(range(50))


def test_500_frames_at_50hz_span_9_98_seconds():
    clock, scheduler, bus = _frame_world()
    frames = []
    bus.subscribe(frames.append, types={MsgType.SENSOR_FRAME})
    H.SensorReplayer(bus, clock, 500, 50.0, 9).start(scheduler)
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
    H.SensorReplayer(bus, clock, 10, 10.0, 1).start(scheduler)
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


def test_replayer_rejects_excessive_rate():
    clock, scheduler, bus = _frame_world()
    with pytest.raises(H.ScenarioError):
        H.SensorReplayer(bus, clock, 10, 101.0, 1)


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
    draws = [H.sample_poisson(rng, 1.5) for _ in range(5_000)]
    assert sum(draws) / len(draws) == pytest.approx(1.5, rel=0.1)
    assert H.sample_poisson(rng, 0.0) == 0


# -- detector stubs ------------------------------------------------------------------


def _stub_world(profile: H.StubProfile, capacity: float = 400.0):
    clock, scheduler, bus = _frame_world()
    node = H.NodeCpuModel(capacity)
    stub = H.StubActor(profile, Role.EXPERIMENTAL, bus, clock, sender_id=100, node=node)
    node.recompute({profile.variant_id: stub.demand_pct()})
    outputs = []  # every MODULE_OUTPUT the stub publishes, in order
    bus.subscribe(outputs.append, types={MsgType.MODULE_OUTPUT})
    stub.start(bus)
    feeder = Sender(bus, 2, clock)
    return clock, scheduler, bus, stub, outputs, feeder


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
    feeder.send(Command(target_variant_id="expA", command=CommandKind.DEGRADE, degrade_level=1))
    assert stub.degrade_level == 1
    _feed_frames(feeder, 100, 100)
    after = [item.message.frame_id for item in outputs[before:]]
    assert before == 100
    assert len(after) == 50  # exactly half under the fake clock
    assert all(frame_id % 2 == 0 for frame_id in after)


def test_degrade_level_two_quarters_processing():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, stub, outputs, feeder = _stub_world(profile)
    feeder.send(Command(target_variant_id="expA", command=CommandKind.DEGRADE, degrade_level=2))
    _feed_frames(feeder, 0, 100)
    got = [item.message.frame_id for item in outputs]
    assert len(got) == 25
    assert all(frame_id % 4 == 0 for frame_id in got)


def test_stop_command_exits_cleanly():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, stub, outputs, feeder = _stub_world(profile)
    feeder.send(Command(target_variant_id="expA", command=CommandKind.STOP, degrade_level=0))
    assert not stub.is_alive()
    _feed_frames(feeder, 0, 10)
    assert outputs == []


def test_commands_for_other_variants_are_ignored():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=10, seed=1)
    _, _, _, stub, _, feeder = _stub_world(profile)
    feeder.send(Command(target_variant_id="expB", command=CommandKind.STOP, degrade_level=0))
    assert stub.is_alive()


def test_degrade_halves_cpu_demand():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=80, seed=1)
    _, _, _, stub, _, feeder = _stub_world(profile)
    assert stub.demand_pct() == 80.0
    feeder.send(Command(target_variant_id="expA", command=CommandKind.DEGRADE, degrade_level=1))
    assert stub.demand_pct() == 40.0
    feeder.send(Command(target_variant_id="expA", command=CommandKind.DEGRADE, degrade_level=2))
    assert stub.demand_pct() == 20.0


# -- CPU contention model --------------------------------------------------------------


def test_shares_equal_demand_under_capacity():
    node = H.NodeCpuModel(200.0)
    node.recompute({"a": 50.0, "b": 100.0})
    assert node.share_pct("a") == 50.0
    assert node.processing_ratio("a") == 1.0


def test_shares_scale_proportionally_over_capacity():
    node = H.NodeCpuModel(100.0)
    node.recompute({"prod": 40.0, "hostile": 95.0})
    scale = 100.0 / 135.0
    assert node.share_pct("prod") == pytest.approx(40.0 * scale)
    assert node.share_pct("hostile") == pytest.approx(95.0 * scale)
    assert node.processing_ratio("prod") == pytest.approx(scale)


def test_starved_stub_drops_frames_proportionally():
    profile = H.StubProfile("expA", true_positive_rate=1.0, false_positive_rate_per_frame=0.0, cpu_burn_pct=100, seed=1)
    clock, scheduler, bus, stub, outputs, feeder = _stub_world(profile, capacity=50.0)
    # ratio 0.5: the credit accumulator processes every other frame
    _feed_frames(feeder, 0, 100)
    assert len(outputs) == 50


# -- failover --------------------------------------------------------------------------


def _failover_world(silence_at_s=None, period_ms=1000, miss_threshold=3):
    clock, scheduler, bus = _frame_world()
    emitter = H.HeartbeatEmitter(
        bus,
        clock,
        period_us=period_ms * 1000,
        silence_at_us=None if silence_at_s is None else int(silence_at_s * 1_000_000),
    )
    emitter.start(scheduler)
    monitor = H.FailoverMonitor(clock, period_us=period_ms * 1000, miss_threshold=miss_threshold)
    monitor.attach(bus, scheduler, on_restart=lambda: emitter.restart(scheduler, period_ms * 1000))
    return clock, scheduler, emitter, monitor


def test_silenced_primary_restarts_within_a_period_of_detection():
    clock, scheduler, emitter, monitor = _failover_world(silence_at_s=10.0)
    scheduler.run_until(30_000_000)
    assert len(monitor.restart_events) == 1
    t_restart = monitor.restart_events[0]["t_us"]
    assert 13_000_000 <= t_restart <= 14_000_000
    # the relaunch brings heartbeats back and the monitor recovers
    assert monitor.state == H.FailoverMonitor.UP


def test_no_restarts_while_heartbeats_flow():
    clock, scheduler, emitter, monitor = _failover_world()
    scheduler.run_until(50_000_000)
    assert monitor.restart_events == []
    assert monitor.state == H.FailoverMonitor.UP


def test_zero_false_restarts_over_10000_clean_beats():
    clock, scheduler, emitter, monitor = _failover_world(period_ms=1000)
    scheduler.run_until(10_000 * 1_000_000)
    assert emitter.beats_sent >= 10_000
    assert monitor.restart_events == []


def test_two_isolated_missed_beats_do_not_restart():
    clock = FakeClock(0)
    monitor = H.FailoverMonitor(clock, period_us=1_000_000, miss_threshold=3)
    monitor.last_beat_us = 0
    dropped = {4, 7}
    for second in range(1, 13):
        clock.advance_to(second * 1_000_000)
        if second not in dropped:
            monitor.observe_beat(second * 1_000_000)
        monitor.check_now()
    assert monitor.restart_events == []
    assert monitor.state == H.FailoverMonitor.UP


def test_monitor_marks_suspect_before_restarting():
    clock = FakeClock(0)
    monitor = H.FailoverMonitor(clock, period_us=1_000_000, miss_threshold=3)
    monitor.last_beat_us = 0
    clock.advance_to(2_500_000)
    monitor.check_now()
    assert monitor.state == H.FailoverMonitor.SUSPECT
    clock.advance_to(3_100_000)
    monitor.check_now()
    assert monitor.state == H.FailoverMonitor.RESTARTING
    assert len(monitor.restart_events) == 1


def test_miss_threshold_floor():
    with pytest.raises(H.ScenarioError):
        H.FailoverMonitor(FakeClock(0), period_us=1_000_000, miss_threshold=1)


# -- scenarios ---------------------------------------------------------------------------


def test_scenario_loader_requires_stub_for_every_variant():
    scenario = make_ab_scenario()
    scenario["stubs"] = scenario["stubs"][:1]
    with pytest.raises(H.ScenarioError):
        H.scenario_from_object(scenario)


def test_scenario_protocol_file_resolves_relative_to_scenario(tmp_path):
    scenario = make_ab_scenario()
    protocol_obj = scenario.pop("protocol")
    (tmp_path / "protocols").mkdir()
    (tmp_path / "protocols" / "ab.json").write_text(json.dumps(protocol_obj), "utf-8")
    scenario["protocol_file"] = "protocols/ab.json"
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), "utf-8")
    loaded = H.load_scenario(tmp_path / "scenario.json")
    assert loaded.protocol.experiment_id == protocol_obj["experiment_id"]


def test_ab_scenario_selects_the_better_variant(tmp_path):
    outcome = H.run_scenario(H.scenario_from_object(make_ab_scenario()), data_dir=tmp_path)
    assert outcome.ok, outcome.failures
    report = outcome.report
    assert report.final_state == "COMPLETED"
    acc = {v.variant_id: v.accuracy for v in report.variants}
    assert acc["expA"] == pytest.approx(0.72, abs=0.05)
    assert acc["expB"] == pytest.approx(0.68, abs=0.05)
    assert acc["prod"] == pytest.approx(0.60, abs=0.05)


def test_crash_scenario_marks_variant_crashed(tmp_path):
    scenario = make_ab_scenario()
    scenario["stubs"][1]["crash_at_s"] = 3.0
    scenario["expect"] = {"final_state": "COMPLETED", "winner": "expB"}
    outcome = H.run_scenario(H.scenario_from_object(scenario), data_dir=tmp_path)
    assert outcome.ok, outcome.failures
    assert outcome.report.variant("expA").final_status == "CRASHED"
    assert outcome.report.variant("expA").frames_processed < 50


def test_scenario_with_uplink_delivers_report_to_hq(tmp_path):
    scenario = make_ab_scenario()
    scenario["uplink"] = {"link": {"bandwidth_bytes_per_s": 5_952_380, "datagram_loss_pct": 10.0}, "seed": 4}
    outcome = H.run_scenario(H.scenario_from_object(scenario), data_dir=tmp_path)
    hq_copy = tmp_path / "hq" / outcome.report.experiment_id / "report.json"
    assert hq_copy.read_bytes() == outcome.report_path.read_bytes()


def test_hostile_scenario_protects_production(tmp_path):
    hostile = H.run_scenario(H.scenario_from_object(make_hostile_scenario()), data_dir=tmp_path / "hostile")
    baseline = H.run_scenario(H.scenario_from_object(make_baseline_scenario()), data_dir=tmp_path / "baseline")
    assert hostile.ok, hostile.failures
    assert baseline.ok, baseline.failures
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


def test_cli_run_fails_on_broken_expectation(tmp_path, capsys):
    scenario = make_ab_scenario()
    scenario["expect"] = {"winner": "expB"}  # wrong on purpose
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), "utf-8")
    code = H.cli_main(["run", "--scenario", str(path), "--data-dir", str(tmp_path / "out")])
    assert code == 1
    assert "EXPECTATION FAILED" in capsys.readouterr().out


def test_paced_idle_step_calls_before_wait_only_when_it_is_about_to_sleep(monkeypatch):
    wall = [100.0]
    log = []

    def sleep(seconds):
        log.append(("sleep", seconds))
        wall[0] += seconds

    monkeypatch.setattr(H.time, "monotonic", lambda: wall[0])
    monkeypatch.setattr(H.time, "sleep", sleep)
    clock = FakeClock(0)
    idle = H.paced_to_wall_time(clock, lambda: log.append("before_wait"))
    idle(1_000_000)  # 1 s ahead of wall time
    wall[0] += 5.0  # the host falls 4 s behind
    idle(2_000_000)
    idle(6_000_000)  # level with wall time: nothing to wait for
    idle(8_000_000)
    assert log == ["before_wait", ("sleep", 1.0), "before_wait", ("sleep", 2.0)]
    assert clock.now_us() == 8_000_000


@pytest.mark.slow
def test_realtime_scenario_paces_to_wall_clock(tmp_path):
    import time

    scenario = make_ab_scenario(fake_clock=False)
    scenario["protocol"]["max_duration_s"] = 2
    scenario["frames"] = {"count": 20, "rate_hz": 10, "seed": 7}
    scenario["expect"] = {"final_state": "COMPLETED"}
    started = time.monotonic()
    outcome = H.run_scenario(H.scenario_from_object(scenario), data_dir=tmp_path)
    elapsed = time.monotonic() - started
    assert outcome.ok, outcome.failures
    assert 1.8 <= elapsed <= 10.0  # paced, not instant; generous upper bound for CI
    assert outcome.report.final_state == "COMPLETED"
