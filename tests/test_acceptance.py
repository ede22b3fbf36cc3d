"""Acceptance suite: the ten exit criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

from __future__ import annotations

import importlib
import json
import random
import time
from pathlib import Path

import pytest

from cexp import artifact as A
from cexp import hqcli as HQ
from cexp import protocol as P
from cexp import wirebus as W
from cexp.clock import FakeClock, Scheduler
from cexp.harness import (
    FailoverMonitor,
    HeartbeatEmitter,
    NodeConfig,
    run_scenario,
    scenario_from_object,
)
from cexp.wirebus import Command, LoopbackBus, ResourceReport
from conftest import (
    make_ab_scenario,
    make_baseline_scenario,
    make_hostile_scenario,
)

MIB = 1024 * 1024


def _pass(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_end_to_end_cycle_selects_best_variant(tmp_path, capsys):
    started = time.monotonic()
    scenario = scenario_from_object(make_ab_scenario())
    first = run_scenario(scenario, data_dir=tmp_path / "run1")
    second = run_scenario(scenario, data_dir=tmp_path / "run2")
    elapsed = time.monotonic() - started

    assert first.report_path.read_bytes() == second.report_path.read_bytes()

    assert HQ.cli_main(["compare", "--report", str(first.report_path), "--json"]) == 0
    decision = json.loads(capsys.readouterr().out)
    assert decision["winner"] == "expA"
    by_id = {v.variant_id: v for v in first.report.variants}
    assert by_id["expA"].accuracy == pytest.approx(0.72, abs=0.05)
    assert by_id["expA"].accuracy > by_id["expB"].accuracy > by_id["prod"].accuracy

    assert elapsed < 60.0
    _pass(1, f"full cycle picked expA, byte-identical reports, {elapsed:.2f}s wall")


def test_criterion_2_enforcement_timing_and_targeting(tmp_path, recording_bus):
    scenario = scenario_from_object(make_hostile_scenario())
    outcome = run_scenario(scenario, data_dir=tmp_path)
    report = outcome.report
    protocol = scenario.protocol

    hostile_reports_before_command = 0
    for item in outcome.bus.history:
        if isinstance(item.message, Command):
            break
        if isinstance(item.message, ResourceReport) and item.message.variant_id == "expA":
            hostile_reports_before_command += 1
    assert hostile_reports_before_command == protocol.sustain_samples

    exp = report.variant("expA")
    assert [c["command"] for c in exp.commands_received] == ["DEGRADE", "DEGRADE", "STOP"]
    assert exp.final_status == "ABORTED"
    assert report.final_state == "ABORTED"

    commands = [item.message for item in outcome.bus.history if isinstance(item.message, Command)]
    assert commands, "enforcement must have issued commands"
    assert all(c.target_variant_id != "prod" for c in commands)
    _pass(2, "DEGRADE after exactly sustain_samples, ladder to STOP, production never commanded")


def test_criterion_3_production_protection_within_10_percent(tmp_path):
    hostile = run_scenario(scenario_from_object(make_hostile_scenario()), data_dir=tmp_path / "hostile")
    baseline = run_scenario(scenario_from_object(make_baseline_scenario()), data_dir=tmp_path / "baseline")
    prod_hostile = hostile.report.variant("prod").frames_processed
    prod_baseline = baseline.report.variant("prod").frames_processed
    assert prod_baseline > 0
    ratio = prod_hostile / prod_baseline
    assert ratio >= 0.9, f"production throughput ratio {ratio:.3f}"
    _pass(3, f"production frames {prod_hostile}/{prod_baseline} = {ratio:.1%} of baseline")


def test_criterion_4_delta_economics(tmp_path, protocol_json):
    source = A.LayerStore(tmp_path / "hq_store")
    base_layers = [source.put(bytes([i]) + b"\x00" * (MIB - 1)) for i in range(10)]
    manifest_v1 = A.manifest_for_layers("bin/detector", base_layers)
    vehicle = tmp_path / "vehicle"
    protocol_text = protocol_json()

    first = HQ.deploy(protocol_text, [manifest_v1], vehicle, A.LinkProfile(), source)
    assert first.payload_bytes == 10 * MIB

    # change exactly one 1 MiB layer
    changed = source.put(bytes([200]) + b"\x01" * (MIB - 1))
    layers_v2 = base_layers[:9] + [changed]
    manifest_v2 = A.manifest_for_layers("bin/detector", layers_v2)
    second = HQ.deploy(protocol_text, [manifest_v2], vehicle, A.LinkProfile(), source)
    assert second.payload_bytes == MIB
    moved_without_protocol = second.total_bytes - second.protocol_bytes
    assert abs(moved_without_protocol - MIB) <= second.manifest_bytes

    third = HQ.deploy(protocol_text, [manifest_v2], vehicle, A.LinkProfile(), source)
    assert third.payload_bytes == 0
    _pass(4, "1-layer change moved 1 MiB (+ manifest), identical redeploy moved 0 payload bytes")


def test_criterion_5_transfer_ratio_at_full_and_small_scale():
    link = A.LinkProfile(bandwidth_bytes_per_s=5_952_380)
    full = A.transfer(5_000_000_000, link)
    assert abs(full - 840.0) <= 1.0
    scaled = A.transfer(50_000_000, link)
    assert abs(scaled - 8.4) <= 0.1
    _pass(5, f"5 GB -> {full:.1f}s (840 +/- 1), 50 MB -> {scaled:.2f}s (8.4 +/- 0.1)")


def test_criterion_6_failover_timing_and_no_false_restarts(tmp_path):
    scenario = make_hostile_scenario(name="failover")
    scenario["protocol"]["experiment_id"] = "exp-failover"
    scenario["protocol"]["cpu_threshold_pct"] = 80.0  # keep enforcement quiet here
    scenario["stubs"][1]["cpu_burn_pct"] = 10.0
    scenario["node"] = {
        "capacity_pct": 400,
        "heartbeat_period_ms": 1000,
        "miss_threshold": 3,
        "silence_primary_at_s": 10.0,
    }
    scenario["expect"] = {"final_state": "COMPLETED", "restart_count": 1}
    outcome = run_scenario(scenario_from_object(scenario), data_dir=tmp_path)
    assert outcome.failures == []
    restarts = (outcome.report_path.parent / "failover.jsonl").read_text("utf-8").splitlines()
    assert len(restarts) == 1
    t_restart_s = json.loads(restarts[0])["t_us"] / 1e6
    assert 13.0 <= t_restart_s <= 14.0

    clock = FakeClock(0)
    scheduler = Scheduler(clock)
    bus = LoopbackBus()
    node = NodeConfig(heartbeat_period_ms=1000, miss_threshold=3)
    beats = []
    bus.subscribe(beats.append, types={W.MsgType.HEARTBEAT})
    HeartbeatEmitter(bus, clock, node).start(scheduler)
    monitor = FailoverMonitor(clock, node)
    restarts = []
    monitor.attach(bus, scheduler, on_restart=lambda: restarts.append(clock.now_us()))
    scheduler.run_until(10_000 * 1_000_000)
    assert len(beats) >= 10_000
    assert monitor.restart_events == restarts == []
    _pass(6, f"restart at {t_restart_s:.2f}s in [13, 14], zero false restarts over 10000 beats")


def test_criterion_7_codec_roundtrip_and_totality():
    from test_wirebus import random_message

    rng = random.Random(0xACCE97)
    for i in range(10_000):
        msg = random_message(rng)
        datagram = W.encode(msg, sender_id=i & 0xFFFF, seq=i, timestamp_us=i)
        _, decoded = W.decode(datagram)
        assert decoded == msg
        assert W.encode(decoded, sender_id=i & 0xFFFF, seq=i, timestamp_us=i) == datagram

    for _ in range(10_000):
        blob = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 120)))
        try:
            W.decode(blob)
        except W.DecodeError:
            pass

    heartbeat = W.encode(W.Heartbeat(node_id=1, uptime_s=0), 1, 0, 0)
    assert len(heartbeat) == 40
    _pass(7, "10000 roundtrips bit-exact, 10000 blobs never crash, heartbeat envelope is 40 bytes")


def test_criterion_8_violation_oracle_agreement():
    from test_resmon import assert_agrees_with_naive_rescan

    rng = random.Random(0xACE)
    agreements = 0
    for _ in range(1_000):
        n = rng.randint(1, 24)
        samples = [ResourceReport("v", rng.uniform(0, 160), rng.uniform(0, 1024)) for _ in range(n)]
        sustain = rng.randint(1, 8)
        grace = rng.randint(1, 8)
        assert_agrees_with_naive_rescan(samples, 80.0, 512.0, sustain, sustain + grace)
        agreements += 1
    assert agreements == 1_000
    _pass(8, "the evaluate_window step agrees with the naive re-scan oracle at every step of 1000/1000 sequences")


def test_criterion_9_protocol_fixture_suite():
    fixtures = Path(__file__).parent / "fixtures" / "protocols"
    cases = json.loads((fixtures / "invalid_cases.json").read_text("utf-8"))
    named_field = 0
    for filename, (error_name, field_fragment) in sorted(cases.items()):
        document = (fixtures / "invalid" / filename).read_text("utf-8")
        with pytest.raises(ValueError) as excinfo:
            P.parse_protocol(document)
        assert type(excinfo.value).__name__ == error_name
        if field_fragment is not None:
            assert field_fragment in str(excinfo.value)
            named_field += 1
    assert named_field >= 12

    for valid in ("valid_minimal.json", "valid_periodic.json"):
        text = (fixtures / valid).read_text("utf-8")
        parsed = P.parse_protocol(text)
        assert P.parse_protocol(json.dumps(P.protocol_to_object(parsed))) == parsed
    _pass(9, f"{named_field} invalid documents rejected naming the field, valid fixtures roundtrip")


# Design-criteria checklist: each enabling property of the testbed maps to
# at least one test that exercises it.
DESIGN_CRITERIA_TESTS = {
    "sensor access (recorded frame replay)": [
        "test_harness::test_replay_is_deterministic_for_a_seed",
        "test_harness::test_500_frames_at_50hz_span_9_98_seconds",
    ],
    "logging of internal activity": [
        "test_supervisor::test_sandbox_outputs_logged_never_republished",
        "test_supervisor::test_status_snapshot_is_written_and_monotone",
    ],
    "data transmission toward the system (deploy)": [
        "test_hqcli::test_deploy_duration_matches_transfer_of_layer_bytes",
        "test_hqcli::test_redeploy_moves_zero_payload_bytes",
    ],
    "feedback loop back to the team (uplink/fetch)": [
        "test_supervisor::test_uplink_delivers_report_to_hq_dir",
        "test_hqcli::test_fetch_reproduces_vehicle_report_byte_for_byte",
    ],
    "reliability (heartbeat failover)": [
        "test_harness::test_silenced_primary_restarts_within_a_period_of_detection",
        "test_harness::test_two_isolated_missed_beats_do_not_restart",
    ],
    "testability (fake clock, deterministic replays)": [
        "test_supervisor::test_two_identical_runs_yield_byte_identical_reports",
        "test_harness::test_replay_is_deterministic_for_a_seed",
    ],
    "safety (resource thresholds and enforcement)": [
        "test_supervisor::test_hostile_variant_walks_the_exact_ladder",
        "test_supervisor::test_production_is_never_commanded_even_when_hot",
    ],
    "scalability (multi-sender bus, UDP multicast)": [
        "test_wirebus::test_two_interleaved_senders_preserve_per_sender_order",
        "test_wirebus::test_udp_self_subscription_delivers_own_datagram",
    ],
    "short cycle (one-command scenario run)": [
        "test_harness::test_cli_run_reports_success",
    ],
}


def test_criterion_10_design_criteria_checklist():
    missing = []
    for criterion, test_ids in DESIGN_CRITERIA_TESTS.items():
        assert test_ids, f"criterion {criterion!r} has no mapped test"
        for test_id in test_ids:
            module_name, test_name = test_id.split("::")
            module = importlib.import_module(module_name)
            if not hasattr(module, test_name):
                missing.append(test_id)
    assert missing == [], f"mapped tests do not exist: {missing}"
    print("\ndesign-criteria test map:")
    for criterion, test_ids in DESIGN_CRITERIA_TESTS.items():
        print(f"  {criterion}: {', '.join(test_ids)}")
    _pass(10, f"{len(DESIGN_CRITERIA_TESTS)} design criteria each map to existing tests")
