"""The benchmark's span tracer still finds, and sees called, every entry
point it wraps by name. A renamed entry point would otherwise drop out of
``--trace 1`` silently and read as a per-layer metric of 0."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from cexp import hqcli, resmon, supervisor, wirebus
from cexp.artifact import LayerStore, LinkProfile, manifest_for_layers
from cexp.harness import run_scenario, scenario_from_object
from conftest import make_ab_scenario, make_hostile_scenario, make_protocol_doc

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_entry_point_but_the_deleted_digests_scan():
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert supervisor.evaluate_window is not resmon.evaluate_window
    assert tracer.missing == ["LayerStore.digests"]
    assert supervisor.evaluate_window is resmon.evaluate_window


def test_a_traced_run_calls_each_per_message_entry_point(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    scenario = scenario_from_object(make_hostile_scenario())
    with spans.instrument(tracer):
        run_scenario(scenario, data_dir=tmp_path)
    # every sender hands the loopback hub its checked record, and the run has
    # no uplink: nothing is packed into a datagram, and nothing is decoded
    assert tracer.calls["wirebus.encode"] == 0
    assert tracer.counts["wirebus.bytes_encoded"] == 0
    assert tracer.calls["wirebus.decode"] == 0
    for name in (
        "wirebus.publish",
        "wirebus.send",
        "resmon.evaluate",
        "supervisor.handle",
        "supervisor.tick",
        "supervisor.finish",
        "harness.stub",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["resmon.sustained_verdicts"] > 0
    assert tracer.counts["harness.frames.processed"] > 0


def test_a_traced_publish_of_raw_bytes_decodes_them_once():
    spans = _load_spans()
    tracer = spans.Tracer()
    received = []
    with spans.instrument(tracer):
        bus = wirebus.LoopbackBus()
        bus.subscribe(received.append)
        bus.publish(wirebus.encode(wirebus.Heartbeat(node_id=1, uptime_s=2), 7, 0, 0))
    assert tracer.calls["wirebus.decode"] == 1
    assert tracer.calls["wirebus.publish"] == 1
    assert [item.message for item in received] == [wirebus.Heartbeat(node_id=1, uptime_s=2)]


def test_a_traced_run_with_a_periodic_uplink_calls_each_uplink_entry_point(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    protocol = make_protocol_doc(experiment_id="exp-periodic", max_duration_s=25, upload_policy={"PERIODIC": 10})
    scenario = scenario_from_object(make_ab_scenario(protocol=protocol, uplink={"seed": 3}))
    with spans.instrument(tracer):
        run_scenario(scenario, data_dir=tmp_path)
    # snapshots at 10 s and 20 s, then the report
    assert tracer.calls["supervisor.uplink.send"] == 3
    assert tracer.calls["supervisor.uplink_report"] == 3
    assert tracer.counts["supervisor.uplink.chunks"] > 0
    assert tracer.counts["supervisor.uplink.datagrams"] >= tracer.counts["supervisor.uplink.chunks"]
    assert sorted(p.name for p in (tmp_path / "hq" / "exp-periodic").iterdir()) == ["report.json", "snapshot.json"]


def test_a_traced_pair_of_deploys_calls_each_artifact_entry_point(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    hq = LayerStore(tmp_path / "hq")
    payloads = [bytes([i]) * 4096 for i in range(3)]
    with spans.instrument(tracer):
        for _ in range(2):  # the second ingest re-puts layers the store holds
            manifest = manifest_for_layers("bin/run", [hq.put(p) for p in payloads])
            hq.put_manifest(manifest)
            hqcli.deploy(json.dumps(make_protocol_doc()), [manifest], tmp_path / "vehicle", LinkProfile(), hq)
    for name in ("artifact.put", "artifact.put_manifest", "artifact.plan_delta", "artifact.fetch_bundle"):
        assert tracer.calls[name] > 0, name
    assert tracer.calls["artifact.fetch_bundle"] == 2


def test_a_traced_status_and_fetch_of_a_finished_run_calls_each_hq_entry_point(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    scenario = scenario_from_object(make_ab_scenario())
    run_scenario(scenario, data_dir=tmp_path / "vehicle")
    experiment_id = scenario.protocol.experiment_id
    with spans.instrument(tracer):
        assert hqcli.status(tmp_path / "vehicle", experiment_id)["state"] == "COMPLETED"
        fetched = hqcli.fetch(tmp_path / "vehicle", experiment_id, tmp_path / "inbox")
    assert fetched == tmp_path / "inbox" / experiment_id / "report.json"
    for name in ("hqcli.status", "hqcli.fetch", "hqcli.uplink_report", "artifact.link.deliver"):
        assert tracer.calls[name] > 0, name
