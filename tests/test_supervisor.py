"""Enforcement policy, the supervised run loop, sandbox logging, and uplink."""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

import pytest

from cexp import harness
from cexp.artifact import DatagramLink, LinkProfile, SchemaError
from cexp.clock import FakeClock, Scheduler
from cexp.protocol import ConstraintError, ExperimentState, parse_protocol
from cexp.resmon import Axis, Verdict, ViolationVerdict
from cexp import supervisor as S
from cexp.wirebus import (
    DEFAULT_GROUP,
    DEFAULT_PORT,
    Command,
    CommandKind,
    LoopbackBus,
    ModuleOutput,
    MsgType,
    ResourceReport,
    Sender,
    SensorFrame,
    SocketError,
)
from conftest import RecordingBus, make_ab_scenario, make_hostile_scenario, make_protocol_doc

SUSTAINED = ViolationVerdict(Verdict.SUSTAINED_VIOLATION, Axis.CPU, 3)
OK = ViolationVerdict(Verdict.OK, Axis.NONE, 0)


def two_variant_protocol(**overrides):
    doc = make_protocol_doc(max_duration_s=10, **overrides)
    doc["variants"] = doc["variants"][:2]
    doc["max_concurrent_experiments"] = 1
    return parse_protocol(json.dumps(doc))


# -- pure escalation policy ------------------------------------------------------


@pytest.mark.parametrize("experiment_id", ["../x", "a/b", ".", "..", "", "-x", "x\n"])
def test_the_layout_refuses_an_experiment_id_that_is_not_one_path_component(tmp_path, experiment_id):
    for place in (
        lambda: S.protocol_path(tmp_path, experiment_id),
        lambda: S.run_dir(tmp_path, experiment_id),
        lambda: S.write_delivered(tmp_path, experiment_id, "report", b"{}"),
    ):
        with pytest.raises(ConstraintError):
            place()
    assert list(tmp_path.iterdir()) == []


def test_ok_verdict_never_commands():
    assert S.enforce_step(OK, 0, None, 2) is None
    assert S.enforce_step(OK, 2, 5, 2) is None


def test_first_sustained_violation_degrades_to_level_one():
    assert S.enforce_step(SUSTAINED, 0, None, 2) == (CommandKind.DEGRADE, 1)


def test_grace_window_blocks_escalation():
    assert S.enforce_step(SUSTAINED, 1, 0, 2) is None
    assert S.enforce_step(SUSTAINED, 1, 1, 2) is None


def test_escalates_once_grace_expires():
    assert S.enforce_step(SUSTAINED, 1, 2, 2) == (CommandKind.DEGRADE, 2)


def test_stop_at_max_degrade_after_grace():
    assert S.enforce_step(SUSTAINED, 2, 2, 2) == (CommandKind.STOP, 0)
    assert S.enforce_step(SUSTAINED, 2, 1, 2) is None


def test_full_ladder_walk():
    # replay the policy over a run of sustained verdicts, keeping the same
    # bookkeeping the supervisor keeps: commands land on samples
    # sustain, sustain+grace, sustain+2*grace (sustain already reached here)
    grace = 2
    degrade_level = 0
    since = None
    issued = []
    for sample_index in range(1, 10):
        if since is not None:
            since += 1
        decision = S.enforce_step(SUSTAINED, degrade_level, since, grace)
        if decision is not None:
            issued.append((sample_index, decision))
            since = 0
            if decision[0] is CommandKind.DEGRADE:
                degrade_level = decision[1]
            else:
                break
    assert issued == [
        (1, (CommandKind.DEGRADE, 1)),
        (1 + grace, (CommandKind.DEGRADE, 2)),
        (1 + 2 * grace, (CommandKind.STOP, 0)),
    ]


# -- scripted deterministic runs ---------------------------------------------------


class ScriptedSource:
    """Publishes a scripted per-period resource trace (and optional module
    outputs) for one variant, standing in for a launched process. A
    ``None`` in the trace is a period with no report."""

    def __init__(self, bus, clock, variant_id, sender_id, cpu_trace, period_us, mem_mb=100.0):
        self.variant_id = variant_id
        self.cpu_trace = cpu_trace
        self.period_us = period_us
        self.mem_mb = mem_mb
        self._sender = Sender(bus, sender_id, clock)

    def start(self, scheduler):
        t0 = scheduler.clock.now_us()
        for k, cpu in enumerate(self.cpu_trace):
            if cpu is not None:
                scheduler.call_at(t0 + (k + 1) * self.period_us, self._make_report(float(cpu)))

    def _make_report(self, cpu):
        def publish():
            self._sender.send(ResourceReport(variant_id=self.variant_id, cpu_pct=cpu, mem_mb=self.mem_mb))

        return publish


def logged_events(sup):
    """Every event of the run, read back from its events.jsonl."""
    lines = (sup.run_dir / "events.jsonl").read_text("utf-8").splitlines()
    return [json.loads(line) for line in lines]


def drive_run(protocol, traces, tmp_path, uplink=None, outputs=None, probes=(), refresh_status=False):
    """Run a scripted supervisor world to completion; returns (report, bus, sup).
    With ``refresh_status`` the idle step refreshes status.json before it
    advances the clock to each event, as a run that waits on wall time does."""
    clock = FakeClock(0)
    bus = RecordingBus()
    sup = S.Supervisor(protocol, clock, tmp_path, bus, uplink=uplink)

    def idle(t_us):
        sup.refresh_status()
        clock.advance_to(t_us)

    scheduler = Scheduler(clock, idle=idle if refresh_status else None)
    sup.schedule(scheduler)
    period_us = protocol.sample_period_ms * 1000
    for index, (variant_id, trace) in enumerate(traces.items()):
        ScriptedSource(bus, clock, variant_id, 50 + index, trace, period_us).start(scheduler)
    if outputs:
        out_sender = Sender(bus, 90, clock)
        for t_us, msg in outputs:
            scheduler.call_at(t_us, lambda m=msg: out_sender.send(m))
    for t_us, fn in probes:
        scheduler.call_at(t_us, fn)
    end_us = protocol.max_duration_s * 1_000_000
    scheduler.run_until(end_us + period_us)
    assert sup.report is not None
    report = S.report_from_json((sup.run_dir / "report.json").read_text("utf-8"))
    return report, bus, sup


def test_run_without_violations_completes_clean(tmp_path):
    protocol = two_variant_protocol()
    report, bus, _ = drive_run(
        protocol,
        {"prod": [30] * 19, "expA": [25] * 19},
        tmp_path,
    )
    assert report.final_state == "COMPLETED"
    for variant in report.variants:
        assert variant.final_status == "COMPLETED"
        assert variant.violations == 0
        assert variant.commands_received == ()
    assert [e["to"] for e in report.timeline] == ["DEPLOYING", "RUNNING", "COMPLETED"]
    assert not any(isinstance(item.message, Command) for item in bus.history)


def test_hostile_variant_walks_the_exact_ladder(tmp_path):
    protocol = two_variant_protocol(cpu_threshold_pct=20.0)
    report, bus, _ = drive_run(
        protocol,
        {"prod": [10] * 19, "expA": [95] * 19},
        tmp_path,
    )
    exp = report.variant("expA")
    # sustain 3, grace 2, period 500 ms: DEGRADE(1) on the 3rd received
    # sample, DEGRADE(2) two samples later, STOP two samples after that
    assert [c["command"] for c in exp.commands_received] == ["DEGRADE", "DEGRADE", "STOP"]
    assert [c["t_us"] for c in exp.commands_received] == [1_500_000, 2_500_000, 3_500_000]
    assert [c["degrade_level"] for c in exp.commands_received] == [1, 2, 0]
    assert exp.final_status == "ABORTED"
    assert report.final_state == "ABORTED"
    assert [e["to"] for e in report.timeline] == ["DEPLOYING", "RUNNING", "DEGRADED", "ABORTED"]
    # DEGRADE was issued after exactly sustain_samples received reports
    reports_before_first_command = 0
    for item in bus.history:
        if isinstance(item.message, Command):
            break
        if isinstance(item.message, ResourceReport) and item.message.variant_id == "expA":
            reports_before_first_command += 1
    assert reports_before_first_command == protocol.sustain_samples


def test_production_is_never_commanded_even_when_hot(tmp_path):
    protocol = two_variant_protocol(cpu_threshold_pct=20.0)
    report, bus, _ = drive_run(
        protocol,
        {"prod": [99] * 19, "expA": [10] * 19},
        tmp_path,
    )
    commands = [item.message for item in bus.history if isinstance(item.message, Command)]
    assert commands == []
    prod = report.variant("prod")
    assert prod.commands_received == ()
    assert prod.violations > 0  # monitored for reporting, never commanded
    assert report.final_state == "COMPLETED"


def test_violation_pending_at_timeout_ends_completed(tmp_path):
    # violation starts too late for the ladder to finish: timeout is a normal end
    protocol = two_variant_protocol(cpu_threshold_pct=20.0)
    trace = [10] * 16 + [95, 95, 95]  # sustained right at the end
    report, _, _ = drive_run(protocol, {"prod": [10] * 19, "expA": trace}, tmp_path)
    exp = report.variant("expA")
    assert [c["command"] for c in exp.commands_received] == ["DEGRADE"]
    assert exp.final_status == "COMPLETED"
    assert report.final_state == "COMPLETED"
    assert report.timeline[-1]["to"] == "COMPLETED"


def test_sandbox_outputs_logged_never_republished(tmp_path):
    protocol = two_variant_protocol()
    frames = [(100_000 * (i + 1), SensorFrame(frame_id=i, ground_truth_count=4, pixels_digest=bytes(32))) for i in range(5)]
    module_outputs = [
        (100_000 * (i + 1) + 10_000, ModuleOutput(frame_id=i, variant_id="expA", detected_count=3, latency_us=20_000))
        for i in range(5)
    ]
    report, bus, sup = drive_run(
        protocol,
        {"prod": [30] * 19, "expA": [25] * 19},
        tmp_path,
        outputs=frames + module_outputs,
    )
    exp = report.variant("expA")
    assert exp.frames_processed == 5
    assert exp.detections_total == 15
    assert exp.ground_truth_total == 20
    assert exp.accuracy == pytest.approx(15 / 20)
    log_lines = (sup.run_dir / "logs" / "expA.jsonl").read_text("utf-8").splitlines()
    assert len(log_lines) == 5
    assert json.loads(log_lines[0])["detected_count"] == 3
    # the sandbox rule on the wire: nothing of type MODULE_OUTPUT ever has
    # the supervisor as its sender
    republished = [
        item
        for item in bus.history
        if item.envelope.msg_type is MsgType.MODULE_OUTPUT
        and item.envelope.sender_id == S.SUPERVISOR_SENDER_ID
    ]
    assert republished == []


@pytest.mark.parametrize(
    "cpu_threshold_pct, expa_trace, status, ended_us",
    [(80.0, [], "CRASHED", 2_000_000), (20.0, [95] * 19, "ABORTED", 3_500_000)],
    ids=["lost", "stopped"],
)
def test_outputs_after_a_variant_ended_are_not_scored(tmp_path, cpu_threshold_pct, expa_trace, status, ended_us):
    protocol = two_variant_protocol(cpu_threshold_pct=cpu_threshold_pct)
    # one output every 500 ms at a quarter period past the tick, to 9.75 s
    times = [250_000 + 500_000 * k for k in range(20)]
    outputs = [(t, SensorFrame(frame_id=i, ground_truth_count=2, pixels_digest=bytes(32))) for i, t in enumerate(times)]
    outputs += [
        (t + 1, ModuleOutput(frame_id=i, variant_id="expA", detected_count=1, latency_us=1_000))
        for i, t in enumerate(times)
    ]
    report, _, sup = drive_run(
        protocol, {"prod": [10] * 19, "expA": expa_trace}, tmp_path, outputs=outputs
    )
    exp = report.variant("expA")
    scored = sum(1 for t in times if t < ended_us)
    assert exp.final_status == status
    assert (exp.frames_processed, exp.detections_total, exp.ground_truth_total) == (scored, scored, 2 * scored)
    assert len((sup.run_dir / "logs" / "expA.jsonl").read_text("utf-8").splitlines()) == scored


def test_two_identical_runs_yield_byte_identical_reports(tmp_path):
    protocol = two_variant_protocol(cpu_threshold_pct=20.0)
    traces = {"prod": [10] * 19, "expA": [95] * 19}
    drive_run(protocol, traces, tmp_path / "run1")
    drive_run(protocol, traces, tmp_path / "run2")
    a = (tmp_path / "run1" / "data" / protocol.experiment_id / "report.json").read_bytes()
    b = (tmp_path / "run2" / "data" / protocol.experiment_id / "report.json").read_bytes()
    assert a == b


def test_crashed_variant_is_recorded_and_run_continues(tmp_path):
    protocol = two_variant_protocol()
    # expA's last report is at 4.0 s; ticks come every 500 ms, and 5.5 s
    # is exactly 3 periods of silence, so 6.0 s is the first stale tick
    report, _, sup = drive_run(protocol, {"prod": [30] * 19, "expA": [25] * 8}, tmp_path)
    exp = report.variant("expA")
    assert exp.final_status == "CRASHED"
    assert report.variant("prod").final_status == "COMPLETED"
    # a crash is not an enforcement abort: the experiment still completes
    assert report.final_state == "COMPLETED"
    lost = [e for e in logged_events(sup) if e["kind"] == "launch_lost"]
    assert lost == [{"t_us": 6_000_000, "kind": "launch_lost", "variant_id": "expA"}]


@pytest.mark.parametrize("missed, status", [(3, "COMPLETED"), (4, "CRASHED")])
def test_a_variant_is_lost_after_more_than_three_silent_periods(tmp_path, missed, status):
    # reports at 0.5..2.0 s, then ``missed`` absent ones. With 3 missed the
    # tick at 3.5 s sees exactly 3 periods of silence, which is not lost,
    # and the 4.0 s report lands before that time's tick; with 4 missed
    # the tick at 4.0 s sees 4 periods
    protocol = two_variant_protocol()
    trace = [25] * 4 + [None] * missed + [25] * (15 - missed)
    report, _, sup = drive_run(protocol, {"prod": [30] * 19, "expA": trace}, tmp_path)
    assert report.variant("expA").final_status == status
    lost = [e["t_us"] for e in logged_events(sup) if e["kind"] == "launch_lost"]
    assert lost == ([4_000_000] if status == "CRASHED" else [])


@pytest.mark.parametrize("ticked_at_us, status", [(1_500_000, "RUNNING"), (1_500_001, "CRASHED")])
def test_a_variant_is_lost_one_microsecond_past_three_silent_periods(tmp_path, ticked_at_us, status):
    # exactly 3 sample periods of 500 ms since begin is not overdue
    protocol = two_variant_protocol()
    clock = FakeClock(0)
    sup = S.Supervisor(protocol, clock, tmp_path, LoopbackBus())
    sup.begin()
    try:
        clock.advance_to(ticked_at_us)
        sup.tick()
        statuses = {state.variant_id: state.final_status for state in sup.variants.values()}
    finally:
        sup.finish()  # closes the run's log files
    assert statuses == {"prod": status, "expA": status}


def test_a_variant_that_never_reports_is_lost(tmp_path):
    # the clock starts at begin: silent from the start reads as lost at
    # the first tick more than 3 periods in
    protocol = two_variant_protocol()
    report, _, sup = drive_run(protocol, {"prod": [30] * 19}, tmp_path)
    assert report.variant("expA").final_status == "CRASHED"
    assert [e["t_us"] for e in logged_events(sup) if e["kind"] == "launch_lost"] == [2_000_000]


def test_report_roundtrips_through_json(tmp_path):
    protocol = two_variant_protocol()
    report, _, _ = drive_run(protocol, {"prod": [30] * 19, "expA": [25] * 19}, tmp_path)
    assert S.report_from_json(report.to_json()) == report
    # keys no record names are ignored
    obj = json.loads(report.to_json())
    obj["run_stats"] = {"decode_drops": 0}
    obj["variants"][0]["count_error"] = [1, 2]
    assert S.report_from_object(obj) == report


@pytest.mark.parametrize(
    "damage",
    [
        lambda obj: obj.pop("timeline"),
        lambda obj: obj["variants"][1].pop("accuracy"),
        lambda obj: obj.update(variants=3),
        lambda obj: obj.update(variants=["expA"]),
        lambda obj: obj["variants"][0].update(commands_received=None),
        lambda obj: obj.update(timeline="abc"),
        lambda obj: obj.update(variants={}),
        lambda obj: obj["variants"][0].update(commands_received="ab"),
    ],
    ids=[
        "missing-report-key", "missing-variant-key", "variants-a-number", "variant-a-string",
        "commands-null", "timeline-a-string", "variants-an-object", "commands-a-string",
    ],
)
def test_report_reader_refuses_a_missing_key_or_a_wrong_shape(tmp_path, damage):
    protocol = two_variant_protocol()
    report, _, _ = drive_run(protocol, {"prod": [30] * 19, "expA": [25] * 19}, tmp_path)
    obj = json.loads(report.to_json())
    damage(obj)
    with pytest.raises(ValueError):
        S.report_from_object(obj)
    with pytest.raises(ValueError):
        S.report_from_object([obj])


def test_report_reader_names_the_path_of_a_value_of_the_wrong_type(tmp_path):
    protocol = two_variant_protocol()
    report, _, _ = drive_run(protocol, {"prod": [30] * 19, "expA": [25] * 19}, tmp_path)
    obj = json.loads(report.to_json())
    obj["variants"][1]["frames_processed"] = "12"
    with pytest.raises(SchemaError) as refused:
        S.report_from_object(obj)
    assert str(refused.value) == "variants[1].frames_processed: expected int, got str"


def test_status_snapshot_is_written_and_monotone(tmp_path):
    protocol = two_variant_protocol()
    seen_states = []

    def probe():
        status = json.loads((Path(tmp_path) / "data" / protocol.experiment_id / "status.json").read_text("utf-8"))
        seen_states.append(status["state"])
        stamps = [e["t_us"] for e in status["last_events"]]
        assert stamps == sorted(stamps)

    report, _, _ = drive_run(
        protocol,
        {"prod": [30] * 19, "expA": [25] * 19},
        tmp_path,
        probes=[(5_200_000, probe)],
    )
    assert seen_states == ["RUNNING"]
    final = json.loads((Path(tmp_path) / "data" / protocol.experiment_id / "status.json").read_text("utf-8"))
    assert final["state"] == "COMPLETED"


def test_events_keep_the_last_ten_in_memory_and_all_on_disk(tmp_path):
    protocol = two_variant_protocol(cpu_threshold_pct=20.0)
    # production over budget on every sample: one logged violation each
    _, _, sup = drive_run(protocol, {"prod": [99] * 19, "expA": [10] * 19}, tmp_path)
    logged = logged_events(sup)
    assert len(logged) > S.STATUS_EVENTS
    assert len(sup.events) <= S.STATUS_EVENTS
    assert list(sup.events) == logged[-S.STATUS_EVENTS :]
    status = json.loads((sup.run_dir / "status.json").read_text("utf-8"))
    assert status["last_events"] == logged[-S.STATUS_EVENTS :]


def test_a_refreshing_idle_step_keeps_status_current_mid_run(tmp_path):
    protocol = two_variant_protocol(cpu_threshold_pct=20.0)
    seen = []

    def probe():
        status = json.loads((sup_dir / "status.json").read_text("utf-8"))
        logged = [json.loads(line) for line in (sup_dir / "events.jsonl").read_text("utf-8").splitlines()]
        seen.append(status["state"])
        assert status["last_events"] == logged[-S.STATUS_EVENTS :]

    sup_dir = Path(tmp_path) / "data" / protocol.experiment_id
    # both over budget: production logs a violation per sample, expA is
    # degraded twice, then stopped
    _, _, sup = drive_run(
        protocol,
        {"prod": [99] * 19, "expA": [99] * 19},
        tmp_path,
        probes=[(2_200_000, probe), (5_200_000, probe)],
        refresh_status=True,
    )
    assert seen == ["DEGRADED", "ABORTED"]
    assert sup.state.value == "ABORTED"


def test_refresh_after_finish_keeps_the_final_status(tmp_path, monkeypatch):
    protocol = two_variant_protocol()
    clock = FakeClock(0)
    uplink = S.OtaUplink(LinkProfile(), tmp_path, seed=0)
    sup = S.Supervisor(protocol, clock, tmp_path, LoopbackBus(), uplink=uplink)
    sup.begin()
    clock.advance_to(1_000_000)
    sup.finish()  # logs uplink_report after its final status write
    final = (sup.run_dir / "status.json").read_bytes()
    writes = []
    monkeypatch.setattr(S, "_atomic_write", lambda path, data: writes.append(path))
    clock.advance_to(2_000_000)
    sup.refresh_status()
    assert writes == []
    assert (sup.run_dir / "status.json").read_bytes() == final
    assert json.loads(final)["state"] == "COMPLETED"


def test_ground_truth_keeps_a_window_and_evicted_frames_score_zero(tmp_path):
    protocol = two_variant_protocol()
    clock = FakeClock(0)
    bus = LoopbackBus()
    sup = S.Supervisor(protocol, clock, tmp_path, bus)
    sup.begin()
    bus.subscribe(callback=sup.handle)
    camera = Sender(bus, 2, clock)
    module = Sender(bus, 100, clock)
    frames = S.GROUND_TRUTH_WINDOW + 200
    for frame_id in range(frames):
        camera.send(SensorFrame(frame_id=frame_id, ground_truth_count=4, pixels_digest=bytes(32)))
        assert len(sup._ground_truth) <= S.GROUND_TRUTH_WINDOW
    oldest_kept = frames - S.GROUND_TRUTH_WINDOW
    for frame_id in (0, oldest_kept - 1, oldest_kept, frames - 1):
        module.send(ModuleOutput(frame_id=frame_id, variant_id="expA", detected_count=3, latency_us=20_000))
    report = sup.finish()
    lines = (sup.run_dir / "logs" / "expA.jsonl").read_text("utf-8").splitlines()
    assert [json.loads(line)["ground_truth_count"] for line in lines] == [0, 0, 4, 4]
    exp = report.variant("expA")
    assert (exp.frames_processed, exp.ground_truth_total, exp.detections_correct) == (4, 8, 6)


def test_traffic_under_the_supervisors_own_sender_id_changes_nothing(tmp_path):
    """Frames, module outputs and resource reports that carry the
    supervisor's own sender id are its own traffic: they leave every
    variant counter, sandbox log, ladder and logged event as they were."""
    protocol = two_variant_protocol(cpu_threshold_pct=20.0)
    clock = FakeClock(0)
    bus = LoopbackBus()
    sup = S.Supervisor(protocol, clock, tmp_path, bus)
    sup.begin()
    bus.subscribe(callback=sup.handle)
    variants_before = copy.deepcopy(sup.variants)
    events_before = logged_events(sup)
    echo = Sender(bus, S.SUPERVISOR_SENDER_ID, clock)
    for k in range(3 * (protocol.sustain_samples + protocol.degrade_grace_samples)):
        clock.advance_to((k + 1) * protocol.sample_period_ms * 1000)
        echo.send(SensorFrame(frame_id=k, ground_truth_count=4, pixels_digest=bytes(32)))
        for variant_id in ("prod", "expA"):
            echo.send(ModuleOutput(frame_id=k, variant_id=variant_id, detected_count=3, latency_us=20_000))
            echo.send(ResourceReport(variant_id=variant_id, cpu_pct=99.0, mem_mb=100.0))
    assert sup.variants == variants_before
    assert len(sup._ground_truth) == 0
    assert logged_events(sup) == events_before
    assert sup.state is ExperimentState.RUNNING

    # the same report from the variant's own sender id is taken
    Sender(bus, 100, clock).send(ResourceReport(variant_id="expA", cpu_pct=99.0, mem_mb=100.0))
    assert sup.variants["expA"].cpu_samples == 1
    sup.finish()
    for variant_id in ("prod", "expA"):
        assert (sup.run_dir / "logs" / f"{variant_id}.jsonl").read_bytes() == b""


def test_finish_serialises_the_report_once_for_disk_and_uplink(tmp_path, monkeypatch):
    calls = []
    to_json = S.ExperimentReport.to_json

    def counting_to_json(self):
        calls.append(1)
        return to_json(self)

    monkeypatch.setattr(S.ExperimentReport, "to_json", counting_to_json)
    protocol = two_variant_protocol()
    uplink = S.OtaUplink(LinkProfile(), tmp_path, seed=0)
    clock = FakeClock(0)
    sup = S.Supervisor(protocol, clock, tmp_path, LoopbackBus(), uplink=uplink)
    sup.begin()
    sup.finish()
    assert len(calls) == 1
    hq_copy = (tmp_path / "hq" / protocol.experiment_id / "report.json").read_bytes()
    assert hq_copy == (sup.run_dir / "report.json").read_bytes()


# sha256 of the final status.json of conftest's clean A/B run, as written by
# a supervisor that rewrote the file on every tick
AB_500_FINAL_STATUS_SHA256 = "33ef90556f38744f4646b33ff3ffbae21cc703a7cdbf564d9e4969edc193affa"


def record_status_writes(monkeypatch):
    """(state, t_us) of every status.json the supervisor writes from now on."""
    written = []
    atomic_write = S._atomic_write

    def recording_write(path, data):
        atomic_write(path, data)
        if path.name == "status.json":
            status = json.loads(data)
            written.append((status["state"], status["t_us"]))

    monkeypatch.setattr(S, "_atomic_write", recording_write)
    return written


def test_clean_run_writes_status_at_begin_and_finish_and_ends_the_same_when_refreshed_every_event(
    tmp_path, monkeypatch
):
    written = record_status_writes(monkeypatch)
    harness.run_scenario(harness.scenario_from_object(make_ab_scenario()), data_dir=tmp_path / "fake_clock")
    assert written == [("RUNNING", 0), ("COMPLETED", 60_000_000)]
    final = (tmp_path / "fake_clock" / "data" / "exp-ab-500" / "status.json").read_bytes()
    assert hashlib.sha256(final).hexdigest() == AB_500_FINAL_STATUS_SHA256

    # an idle step that rewrites the file before every event changes how
    # often it is written, not how it ends
    built = []

    def recorded_supervisor(*args, **kwargs):
        built.append(S.Supervisor(*args, **kwargs))
        return built[-1]

    def rewriting_scheduler(clock):
        def idle(t_us):
            if built[-1].report is None:
                built[-1]._write_status()
            clock.advance_to(t_us)

        return Scheduler(clock, idle=idle)

    monkeypatch.setattr(harness, "Supervisor", recorded_supervisor)
    monkeypatch.setattr(harness, "Scheduler", rewriting_scheduler)
    written.clear()
    harness.run_scenario(harness.scenario_from_object(make_ab_scenario()), data_dir=tmp_path / "every_event")
    assert len(written) > 100
    assert (tmp_path / "every_event" / "data" / "exp-ab-500" / "status.json").read_bytes() == final


def test_fake_clock_run_with_violations_and_commands_writes_status_twice(tmp_path, monkeypatch):
    written = record_status_writes(monkeypatch)
    outcome = harness.run_scenario(harness.scenario_from_object(make_hostile_scenario()), data_dir=tmp_path)
    hostile = outcome.report.variant("expA")
    assert hostile.violations and len(hostile.commands_received) == 3
    assert written == [("RUNNING", 0), ("ABORTED", 60_000_000)]


@pytest.mark.parametrize("value", [0, 0xFFFF, 2**32 - 1, 2**64 - 1])
def test_sandbox_line_matches_compact_sorted_json(value):
    for field in range(5):
        args = [field + 1] * 5
        args[field] = value
        t_us, frame_id, detected_count, ground_truth_count, latency_us = args
        record = {
            "t_us": t_us,
            "frame_id": frame_id,
            "detected_count": detected_count,
            "ground_truth_count": ground_truth_count,
            "latency_us": latency_us,
        }
        expected = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        assert S.sandbox_line(*args) == expected


# -- result chunking and uplink -----------------------------------------------------


def test_chunk_arithmetic_for_10kb_report():
    chunks = S.chunk_payloads(b"x" * 10_240)
    assert len(chunks) == 3  # ceil(10240 / 4096)
    assert sum(len(c) for c in chunks) == 10_240


def test_chunk_payloads_empty_input_is_one_chunk():
    assert S.chunk_payloads(b"") == [b""]


def test_uplink_over_lossless_link():
    payload = b"r" * 10_240
    link = DatagramLink(LinkProfile(), seed=0)
    record = S.uplink_report(payload, "exp-1", link)
    assert record.chunks_total == 3
    assert record.datagrams_sent == 3
    assert record.retransmissions == 0
    assert record.delivered


def test_uplink_over_lossy_link_retransmits_until_delivered():
    payload = b"r" * 64_000  # 16 chunks
    link = DatagramLink(LinkProfile(datagram_loss_pct=20.0), seed=11)
    record = S.uplink_report(payload, "exp-1", link)
    assert record.chunks_total == 16
    assert record.retransmissions > 0
    assert record.delivered


_FIVE_CHUNKS = bytes(range(256)) * 70  # 17 920 B: four full chunks and a short one


def test_uplink_nack_rounds_are_pinned_to_the_link_draws(tmp_path):
    # one link's draws serve a run's snapshots and its report, so the order of
    # deliver calls fixes the uplink counters logged in events.jsonl
    uplink = S.OtaUplink(LinkProfile(datagram_loss_pct=30.0), tmp_path, seed=4)
    record = uplink.send("exp-1", _FIVE_CHUNKS, t_s=0.0)
    assert record == S.UplinkRecord(
        delivered=True, chunks_total=5, datagrams_sent=9, retransmissions=4, bytes_sent=32_131
    )
    assert uplink.link._rng.random() == 0.22192817569031764
    assert (tmp_path / "hq" / "exp-1" / "report.json").read_bytes() == _FIVE_CHUNKS


def test_uplink_failure_names_the_first_chunk_out_of_retries_and_writes_nothing(tmp_path):
    uplink = S.OtaUplink(LinkProfile(datagram_loss_pct=80.0), tmp_path, seed=2)
    with pytest.raises(S.UplinkFailed, match=r"^chunk 2/5 undelivered after 5 retransmissions$"):
        uplink.send("exp-1", _FIVE_CHUNKS, t_s=0.0)
    assert uplink.link._rng.random() == 0.9948195629497427  # no draw for the chunk that ran out
    assert not (tmp_path / "hq").exists()


def test_uplink_with_link_down_raises_and_report_is_retained(tmp_path):
    protocol = two_variant_protocol()
    down = LinkProfile(outage_schedule=((0.0, math.inf),))
    uplink = S.OtaUplink(down, tmp_path, seed=0)
    report, _, sup = drive_run(
        protocol, {"prod": [30] * 19, "expA": [25] * 19}, tmp_path, uplink=uplink
    )
    assert (sup.run_dir / "report.json").is_file()  # retained for a later retry
    assert any(e["kind"] == "uplink_failed" for e in logged_events(sup))
    assert not (tmp_path / "hq" / protocol.experiment_id / "report.json").exists()


def test_uplink_delivers_report_to_hq_dir(tmp_path):
    protocol = two_variant_protocol()
    uplink = S.OtaUplink(LinkProfile(), tmp_path, seed=0)
    report, _, sup = drive_run(
        protocol, {"prod": [30] * 19, "expA": [25] * 19}, tmp_path, uplink=uplink
    )
    hq_copy = (tmp_path / "hq" / protocol.experiment_id / "report.json").read_bytes()
    assert hq_copy == (sup.run_dir / "report.json").read_bytes()
    assert any(e["kind"] == "uplink_report" for e in logged_events(sup))


def test_periodic_upload_policy_sends_snapshots(tmp_path):
    protocol = two_variant_protocol(upload_policy={"PERIODIC": 2})
    uplink = S.OtaUplink(LinkProfile(), tmp_path, seed=0)
    report, _, sup = drive_run(
        protocol, {"prod": [30] * 19, "expA": [25] * 19}, tmp_path, uplink=uplink
    )
    snapshots = [e for e in logged_events(sup) if e["kind"] == "uplink_snapshot"]
    assert len(snapshots) >= 2  # every 2 s over a 10 s run
    assert (tmp_path / "hq" / protocol.experiment_id / "snapshot.json").is_file()
    assert (tmp_path / "hq" / protocol.experiment_id / "report.json").is_file()


# -- the cesupd daemon CLI ---------------------------------------------------------


@pytest.mark.parametrize(
    "bus_arg, address",
    [([], (DEFAULT_GROUP, DEFAULT_PORT)), (["--bus", "239.1.2.3:7801"], ("239.1.2.3", 7801))],
)
def test_cesupd_live_bus_address(tmp_path, capsys, monkeypatch, bus_arg, address):
    opened = []

    def unopenable_bus(group, port):
        opened.append((group, port))
        raise SocketError(f"cannot open multicast endpoint {group}:{port}: no live bus in this test")

    monkeypatch.setattr(S, "UdpMulticastBus", unopenable_bus)
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc()), "utf-8")
    code = S.cli_main(["--protocol", str(protocol_path), "--data-dir", str(tmp_path / "vehicle"), *bus_arg])
    assert code == 2
    group, port = address
    assert capsys.readouterr().out == f"error: cannot open multicast endpoint {group}:{port}: no live bus in this test\n"
    assert opened == [address]
    assert not (tmp_path / "vehicle").exists()


@pytest.mark.parametrize(
    "missing, extra_args, printed",
    [
        (["sample_period_ms"], [], "error: sample_period_ms: missing key\n"),
        # a fake-clock run goes through ``ceharness run``; cesupd is live only
        ([], ["--fake-clock", "x"], "cesupd: error: unrecognized arguments: --fake-clock x\n"),
        *(
            ([], ["--bus", bus], f"error: --bus: expected GROUP:PORT with a port in 1-65535, got {bus!r}\n")
            for bus in ("239.255.77.1", "239.255.77.1:notaport", "239.255.77.1:70000")
        ),
    ],
    ids=["protocol-missing-key", "no-fake-clock-option", "bus-without-port", "bus-port-not-a-number", "bus-port-past-65535"],
)
def test_cesupd_refuses_inputs_before_it_opens_the_bus(tmp_path, capsys, monkeypatch, missing, extra_args, printed):
    opened = []
    monkeypatch.setattr(S, "UdpMulticastBus", lambda group, port: opened.append((group, port)))
    protocol = make_protocol_doc()
    for key in missing:
        del protocol[key]
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(protocol), "utf-8")
    try:
        code = S.cli_main(["--protocol", str(protocol_path), "--data-dir", str(tmp_path / "vehicle"), *extra_args])
    except SystemExit as exited:  # argparse's usage error
        code = exited.code
    assert code == 2
    out, err = capsys.readouterr()
    assert (out + err).endswith(printed)
    assert opened == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["protocol.json"]


def test_cesupd_refuses_a_protocol_file_it_cannot_read(tmp_path, capsys):
    protocol_path = tmp_path / "missing.json"
    code = S.cli_main(["--protocol", str(protocol_path), "--data-dir", str(tmp_path / "vehicle")])
    assert code == 2
    assert capsys.readouterr().out == f"error: [Errno 2] No such file or directory: '{protocol_path}'\n"
    assert not (tmp_path / "vehicle").exists()


@pytest.mark.udp
@pytest.mark.slow
def test_cesupd_realtime_over_udp(tmp_path):
    import threading
    import time as _time

    from cexp.clock import WallClock
    from conftest import make_protocol_doc, multicast_loopback_available

    if not multicast_loopback_available(port=7726):
        pytest.skip("no multicast-capable loopback interface")

    doc = make_protocol_doc(
        experiment_id="exp-udp",
        cpu_threshold_pct=20.0,
        sustain_samples=1,
        degrade_grace_samples=1,
        max_duration_s=3,
        max_concurrent_experiments=1,
    )
    doc["variants"] = doc["variants"][:2]
    protocol = parse_protocol(json.dumps(doc))

    from cexp.wirebus import UdpMulticastBus

    status_path = tmp_path / "data" / "exp-udp" / "status.json"
    polled = []

    def hot_module():
        out = UdpMulticastBus(port=7725)
        sender = Sender(out, 60, WallClock())
        try:
            started = _time.monotonic()
            while _time.monotonic() < started + 3.5:
                sender.send(ResourceReport(variant_id="expA", cpu_pct=95.0, mem_mb=80.0))
                _time.sleep(0.3)
                if not polled and _time.monotonic() > started + 2.0:
                    # HQ polling mid-run: the commands are a second old by now
                    polled.append(json.loads(status_path.read_text("utf-8"))["state"])
        finally:
            out.close()

    publisher = threading.Thread(target=hot_module, daemon=True)
    publisher.start()
    bus = UdpMulticastBus(port=7725)
    try:
        report = S.run_realtime(protocol, bus, tmp_path)
    finally:
        bus.close()
    publisher.join()
    exp = report.variant("expA")
    assert exp.mean_cpu_pct == pytest.approx(95.0)
    assert [(c["command"], c["degrade_level"]) for c in exp.commands_received] == [
        ("DEGRADE", 1), ("DEGRADE", 2), ("STOP", 0),
    ]
    assert exp.final_status == "ABORTED"
    # prod publishes nothing: the daemon reads that silence as a crash
    prod = report.variant("prod")
    assert prod.final_status == "CRASHED"
    assert prod.commands_received == ()
    assert polled in (["DEGRADED"], ["ABORTED"])


def three_variant_protocol(**overrides):
    doc = make_protocol_doc(max_duration_s=10, **overrides)
    return parse_protocol(json.dumps(doc))


def test_experiment_aborts_only_when_all_experiments_are_stopped(tmp_path):
    protocol = three_variant_protocol(cpu_threshold_pct=20.0)
    report, _, _ = drive_run(
        protocol,
        {"prod": [10] * 19, "expA": [95] * 19, "expB": [10] * 19},
        tmp_path,
    )
    assert report.variant("expA").final_status == "ABORTED"
    assert report.variant("expB").final_status == "COMPLETED"
    # a healthy experiment keeps the campaign alive to a normal end
    assert report.final_state == "COMPLETED"


def test_two_hostile_experiments_abort_the_whole_run(tmp_path):
    protocol = three_variant_protocol(cpu_threshold_pct=20.0)
    report, bus, _ = drive_run(
        protocol,
        {"prod": [10] * 19, "expA": [95] * 19, "expB": [90] * 19},
        tmp_path,
    )
    assert report.variant("expA").final_status == "ABORTED"
    assert report.variant("expB").final_status == "ABORTED"
    assert report.final_state == "ABORTED"
    # each ladder escalates independently
    for vid in ("expA", "expB"):
        assert [c["command"] for c in report.variant(vid).commands_received] == [
            "DEGRADE", "DEGRADE", "STOP",
        ]
