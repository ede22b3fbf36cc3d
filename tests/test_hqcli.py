"""Winner selection, OTA deploy, and report retrieval from the HQ side."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from cexp import artifact as A
from cexp import hqcli as HQ
from cexp.clock import FakeClock, Scheduler
from cexp.protocol import parse_protocol
from cexp.supervisor import (
    SUPERVISOR_SENDER_ID,
    ExperimentReport,
    Supervisor,
    VariantResult,
)
from cexp.wirebus import LoopbackBus, ResourceReport, Sender
from conftest import layer_digests, make_protocol_doc


def make_result(variant_id, role, accuracy, mean_cpu=20.0, violations=0, status="COMPLETED"):
    return VariantResult(
        variant_id=variant_id,
        role=role,
        frames_processed=500,
        detections_total=1000,
        detections_correct=900,
        ground_truth_total=1500,
        accuracy=accuracy,
        mean_cpu_pct=mean_cpu,
        max_cpu_pct=mean_cpu + 5.0,
        violations=violations,
        commands_received=(),
        final_status=status,
    )


def make_report(results) -> ExperimentReport:
    return ExperimentReport(
        experiment_id="exp-cmp",
        started_at_us=0,
        ended_at_us=60_000_000,
        final_state="COMPLETED",
        variants=tuple(results),
        timeline=(),
        protocol=make_protocol_doc(),
    )


def argmax_oracle(results):
    """Independent winner oracle: plain max over the eligible set."""
    eligible = [r for r in results if r.final_status == "COMPLETED" and r.accuracy is not None]
    if not eligible:
        return None
    best = max(eligible, key=lambda r: (r.accuracy, -r.mean_cpu_pct, [-ord(c) for c in r.variant_id]))
    return best.variant_id


# -- compare ---------------------------------------------------------------------


def test_compare_picks_highest_accuracy():
    results = [
        make_result("prod", "PRODUCTION", 0.60),
        make_result("expA", "EXPERIMENTAL", 0.72),
        make_result("expB", "EXPERIMENTAL", 0.68),
    ]
    decision = HQ.compare(make_report(results))
    assert decision.winner == "expA" == argmax_oracle(results)
    assert [entry["variant_id"] for entry in decision.ranking] == ["expA", "expB", "prod"]
    assert all(entry["eligible"] for entry in decision.ranking)


def test_compare_single_production_variant_wins():
    results = [make_result("prod", "PRODUCTION", 0.60)]
    decision = HQ.compare(make_report(results))
    assert decision.winner == "prod" == argmax_oracle(results)


def test_compare_aborted_variant_cannot_win():
    results = [
        make_result("prod", "PRODUCTION", 0.60),
        make_result("expA", "EXPERIMENTAL", 0.72, violations=9, status="ABORTED"),
        make_result("expB", "EXPERIMENTAL", 0.59),
    ]
    decision = HQ.compare(make_report(results))
    assert decision.winner == "prod" == argmax_oracle(results)
    entry = next(e for e in decision.ranking if e["variant_id"] == "expA")
    assert not entry["eligible"]
    assert "expA (ABORTED)" in decision.rationale


def test_compare_crashed_and_undefined_accuracy_are_ineligible():
    results = [
        make_result("prod", "PRODUCTION", 0.60),
        make_result("expA", "EXPERIMENTAL", None),
        make_result("expB", "EXPERIMENTAL", 0.99, status="CRASHED"),
    ]
    decision = HQ.compare(make_report(results))
    assert decision.winner == "prod"


def test_compare_no_eligible_variant_yields_none():
    results = [make_result("prod", "PRODUCTION", 0.60, status="CRASHED")]
    decision = HQ.compare(make_report(results))
    assert decision.winner is None
    assert "no eligible variant" in decision.rationale


def test_compare_tie_breaks_on_cpu_then_name():
    results = [
        make_result("prod", "PRODUCTION", 0.70, mean_cpu=30.0),
        make_result("expA", "EXPERIMENTAL", 0.70, mean_cpu=10.0),
    ]
    assert HQ.compare(make_report(results)).winner == "expA"
    results = [
        make_result("prod", "PRODUCTION", 0.70, mean_cpu=10.0),
        make_result("expA", "EXPERIMENTAL", 0.70, mean_cpu=10.0),
    ]
    assert HQ.compare(make_report(results)).winner == "expA"  # lexicographic


def test_compare_is_invariant_under_variant_permutation():
    rng = random.Random(12)
    results = [
        make_result("prod", "PRODUCTION", 0.61),
        make_result("expA", "EXPERIMENTAL", 0.72),
        make_result("expB", "EXPERIMENTAL", 0.68, status="ABORTED"),
    ]
    baseline = HQ.compare(make_report(results))
    for _ in range(10):
        shuffled = results[:]
        rng.shuffle(shuffled)
        decision = HQ.compare(make_report(shuffled))
        assert decision.winner == baseline.winner
        assert [e["variant_id"] for e in decision.ranking] == [e["variant_id"] for e in baseline.ranking]


def test_compare_winner_invariant_under_accuracy_scaling():
    results = [
        make_result("prod", "PRODUCTION", 0.61),
        make_result("expA", "EXPERIMENTAL", 0.72),
        make_result("expB", "EXPERIMENTAL", 0.68),
    ]
    baseline = HQ.compare(make_report(results)).winner
    for c in (0.25, 0.5, 0.9, 1.0):
        scaled = [
            make_result(r.variant_id, r.role, None if r.accuracy is None else r.accuracy * c)
            for r in results
        ]
        assert HQ.compare(make_report(scaled)).winner == baseline


def test_compare_carries_pipeline_provenance():
    decision = HQ.compare(make_report([make_result("prod", "PRODUCTION", 0.6)]))
    assert decision.provenance["integration_s"] == 240
    assert decision.provenance["build_s"] == 420
    assert decision.provenance["transfer"] is None
    record = A.TransferRecord(bytes_moved=10, started_t=0.0, completed_t=1.0, layers_fetched=("sha256:" + "0" * 64,))
    with_transfer = HQ.compare(make_report([make_result("prod", "PRODUCTION", 0.6)]), transfer_record=record)
    assert with_transfer.provenance["transfer"]["bytes_moved"] == 10


def test_compare_rationale_flags_the_stand_in_metric():
    decision = HQ.compare(make_report([make_result("prod", "PRODUCTION", 0.6)]))
    assert "stand-in" in decision.rationale


# -- deploy -----------------------------------------------------------------------


def _bundle(tmp_path, n_layers=3, size=1000, label=b"L"):
    source = A.LayerStore(tmp_path / "hq_store")
    layers = [source.put(bytes([i]) + label * size) for i in range(n_layers)]
    manifest = A.manifest_for_layers("bin/detector", layers)
    source.put_manifest(manifest)
    return source, manifest


def test_deploy_refuses_malformed_protocol_before_any_transfer(tmp_path):
    source, manifest = _bundle(tmp_path)
    vehicle = tmp_path / "vehicle"
    with pytest.raises(Exception):
        HQ.deploy("{broken", [manifest], vehicle, A.LinkProfile(), source)
    assert not (vehicle / "store").exists()  # nothing moved


def test_deploy_duration_matches_transfer_of_layer_bytes(tmp_path):
    source, manifest = _bundle(tmp_path, n_layers=3, size=1000)
    link = A.LinkProfile(bandwidth_bytes_per_s=1001)
    record = HQ.deploy(
        json.dumps(make_protocol_doc()), [manifest], tmp_path / "vehicle", link, source
    )
    assert record.bundles[0].duration_s == pytest.approx(A.transfer(manifest.total_bytes(), link))
    assert record.payload_bytes == manifest.total_bytes()
    assert record.protocol_bytes > 0


def test_redeploy_moves_zero_payload_bytes(tmp_path):
    source, manifest = _bundle(tmp_path)
    vehicle = tmp_path / "vehicle"
    protocol_text = json.dumps(make_protocol_doc())
    first = HQ.deploy(protocol_text, [manifest], vehicle, A.LinkProfile(), source)
    second = HQ.deploy(protocol_text, [manifest], vehicle, A.LinkProfile(), source)
    assert first.payload_bytes == manifest.total_bytes()
    assert second.payload_bytes == 0


def test_deploy_twice_equals_deploy_once_in_store_state(tmp_path):
    source, manifest = _bundle(tmp_path)
    protocol_text = json.dumps(make_protocol_doc())
    HQ.deploy(protocol_text, [manifest], tmp_path / "v1", A.LinkProfile(), source)
    HQ.deploy(protocol_text, [manifest], tmp_path / "v2", A.LinkProfile(), source)
    HQ.deploy(protocol_text, [manifest], tmp_path / "v2", A.LinkProfile(), source)
    once = layer_digests(A.LayerStore(tmp_path / "v1" / "store"))
    twice = layer_digests(A.LayerStore(tmp_path / "v2" / "store"))
    assert once == twice


def test_deploy_writes_protocol_to_vehicle(tmp_path):
    source, manifest = _bundle(tmp_path)
    protocol_text = json.dumps(make_protocol_doc(experiment_id="exp-deploy"))
    HQ.deploy(protocol_text, [manifest], tmp_path / "vehicle", A.LinkProfile(), source)
    deployed = (tmp_path / "vehicle" / "protocols" / "exp-deploy.json").read_text("utf-8")
    assert parse_protocol(deployed).experiment_id == "exp-deploy"


# -- status and fetch ----------------------------------------------------------------


def _finished_vehicle(tmp_path) -> tuple[Path, str]:
    """Run a small supervised experiment so the vehicle root has real data."""
    doc = make_protocol_doc(max_duration_s=5)
    doc["variants"] = doc["variants"][:2]
    doc["max_concurrent_experiments"] = 1
    protocol = parse_protocol(json.dumps(doc))
    clock = FakeClock(0)
    scheduler = Scheduler(clock)
    bus = LoopbackBus()
    sup = Supervisor(protocol, clock, tmp_path / "data", Sender(bus, SUPERVISOR_SENDER_ID, clock))
    sup.schedule(scheduler, bus)
    reporter = Sender(bus, 50, clock)
    for k in range(1, 9):
        scheduler.call_at(
            k * 500_000,
            lambda: reporter.send(ResourceReport(variant_id="expA", cpu_pct=25.0, mem_mb=90.0)),
        )
    scheduler.run_until(6_000_000)
    if not sup.done:
        sup.finish()
    return tmp_path, protocol.experiment_id


def test_status_lists_experiments(tmp_path):
    root, experiment_id = _finished_vehicle(tmp_path)
    overview = HQ.status(root)
    assert overview == {"experiments": [{"experiment_id": experiment_id, "state": "COMPLETED"}]}


def test_status_for_one_experiment_has_monotone_events(tmp_path):
    root, experiment_id = _finished_vehicle(tmp_path)
    result = HQ.status(root, experiment_id=experiment_id)
    assert result["state"] == "COMPLETED"
    stamps = [e["t_us"] for e in result["last_events"]]
    assert stamps == sorted(stamps)


def test_status_during_running_experiment(tmp_path):
    doc = make_protocol_doc(max_duration_s=5)
    doc["variants"] = doc["variants"][:2]
    doc["max_concurrent_experiments"] = 1
    protocol = parse_protocol(json.dumps(doc))
    clock = FakeClock(0)
    scheduler = Scheduler(clock)
    bus = LoopbackBus()
    sup = Supervisor(protocol, clock, tmp_path / "data", Sender(bus, SUPERVISOR_SENDER_ID, clock))
    sup.schedule(scheduler, bus)
    seen = []
    scheduler.call_at(
        2_600_000, lambda: seen.append(HQ.status(tmp_path, experiment_id=protocol.experiment_id))
    )
    scheduler.run_until(6_000_000)
    assert sup.done
    assert seen[0]["state"] == "RUNNING"


def test_status_unreachable_target(tmp_path):
    with pytest.raises(HQ.Unreachable):
        HQ.status(tmp_path / "nowhere")


def test_status_link_down_is_unreachable(tmp_path):
    root, _ = _finished_vehicle(tmp_path)
    down = A.LinkProfile(outage_schedule=((0.0, math.inf),))
    with pytest.raises(HQ.Unreachable):
        HQ.status(root, link=down)


def test_fetch_reproduces_vehicle_report_byte_for_byte(tmp_path):
    root, experiment_id = _finished_vehicle(tmp_path)
    out = HQ.fetch(root, experiment_id, tmp_path / "hq_out", link=A.LinkProfile(datagram_loss_pct=15.0), seed=3)
    vehicle_copy = root / "data" / experiment_id / "report.json"
    assert out.read_bytes() == vehicle_copy.read_bytes()


def test_fetch_with_link_down_is_unreachable_and_leaves_nothing(tmp_path):
    root, experiment_id = _finished_vehicle(tmp_path)
    down = A.LinkProfile(outage_schedule=((0.0, math.inf),))
    with pytest.raises(HQ.Unreachable):
        HQ.fetch(root, experiment_id, tmp_path / "hq_out", link=down)
    assert not (tmp_path / "hq_out" / experiment_id / "report.json").exists()


def test_fetch_incomplete_after_retries_leaves_nothing(tmp_path):
    root, experiment_id = _finished_vehicle(tmp_path)
    # seed chosen so the request gets through but a chunk exhausts its budget
    nasty = A.LinkProfile(datagram_loss_pct=99.0)
    with pytest.raises(HQ.IncompleteReport):
        HQ.fetch(root, experiment_id, tmp_path / "hq_out", link=nasty, seed=19)
    assert not (tmp_path / "hq_out" / experiment_id / "report.json").exists()


def test_fetch_unknown_experiment_is_unreachable(tmp_path):
    root, _ = _finished_vehicle(tmp_path)
    with pytest.raises(HQ.Unreachable):
        HQ.fetch(root, "exp-nope", tmp_path / "hq_out")


def test_resolve_target_accepts_scenario_file(tmp_path):
    (tmp_path / "runs").mkdir()
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"data_dir": "runs"}), "utf-8")
    assert HQ.resolve_target(str(scenario_path)) == tmp_path / "runs"
    assert HQ.resolve_target(str(tmp_path / "direct")) == tmp_path / "direct"


# -- the cectl CLI ----------------------------------------------------------------------


def test_cli_compare_table_and_json(tmp_path, capsys):
    report = make_report(
        [
            make_result("prod", "PRODUCTION", 0.60),
            make_result("expA", "EXPERIMENTAL", 0.72),
        ]
    )
    report_path = tmp_path / "report.json"
    report_path.write_text(report.to_json(), "utf-8")

    assert HQ.cli_main(["compare", "--report", str(report_path)]) == 0
    table = capsys.readouterr().out
    assert "winner: expA" in table

    assert HQ.cli_main(["compare", "--report", str(report_path), "--json"]) == 0
    decision = json.loads(capsys.readouterr().out)
    assert decision["winner"] == "expA"
    assert decision["provenance"]["integration_s"] == 240


def test_cli_status_and_fetch(tmp_path, capsys):
    root, experiment_id = _finished_vehicle(tmp_path)
    assert HQ.cli_main(["status", "--target", str(root)]) == 0
    assert experiment_id in capsys.readouterr().out
    assert HQ.cli_main([
        "fetch", "--experiment", experiment_id, "--target", str(root), "--out", str(tmp_path / "out"),
    ]) == 0
    assert (tmp_path / "out" / experiment_id / "report.json").is_file()
    capsys.readouterr()


def test_cli_fetch_unreachable_exits_2(tmp_path, capsys):
    code = HQ.cli_main([
        "fetch", "--experiment", "exp-x", "--target", str(tmp_path / "void"), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().out


def test_cli_deploy_roundtrip(tmp_path, capsys):
    source, manifest = _bundle(tmp_path)
    manifest_path = tmp_path / "hq_store" / "manifests" / f"{manifest.bundle_digest}.json"
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc()), "utf-8")
    code = HQ.cli_main(
        [
            "deploy",
            "--protocol", str(protocol_path),
            "--bundle", str(manifest_path),
            "--target", str(tmp_path / "vehicle"),
            "--json",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["payload_bytes"] == manifest.total_bytes()
    assert layer_digests(A.LayerStore(tmp_path / "vehicle" / "store")) == {
        ref.digest for ref in manifest.layers
    }


@pytest.mark.udp
def test_fetch_udp_collects_chunk_stream(tmp_path):
    import threading
    import time as _time

    from cexp.clock import WallClock
    from cexp.supervisor import chunk_payloads
    from cexp.wirebus import ResultChunk, SocketError, UdpMulticastBus
    from conftest import multicast_loopback_available

    if not multicast_loopback_available(port=7741):
        pytest.skip("no multicast-capable loopback interface")

    payload = b"report-bytes " * 700  # > 2 chunks
    chunks = chunk_payloads(payload)
    done = threading.Event()
    results = {}

    def listen():
        try:
            results["path"] = HQ.fetch_udp("239.255.77.1", 7740, "exp-udp", tmp_path / "out", timeout_s=8.0)
        except Exception as exc:  # surfaced by the main thread's assert
            results["error"] = exc
        finally:
            done.set()

    listener = threading.Thread(target=listen, daemon=True)
    listener.start()
    _time.sleep(0.3)  # let the listener join the group
    out = UdpMulticastBus(port=7740)
    writer = Sender(out, 61, WallClock())
    try:
        while not done.is_set():
            for index, data in enumerate(chunks):
                writer.send(
                    ResultChunk(
                        experiment_id="exp-udp",
                        chunk_index=index,
                        total_chunks=len(chunks),
                        data=data,
                    )
                )
            done.wait(timeout=0.2)
    finally:
        out.close()
    listener.join(timeout=10)
    assert "error" not in results, results.get("error")
    assert results["path"].read_bytes() == payload
