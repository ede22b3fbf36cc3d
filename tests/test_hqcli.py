"""Winner selection, OTA deploy, and report retrieval from the HQ side."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from cexp import artifact as A
from cexp import harness as H
from cexp import hqcli as HQ
from cexp import supervisor as S
from cexp.clock import FakeClock, Scheduler
from cexp.protocol import parse_protocol
from cexp.supervisor import ExperimentReport, Supervisor, VariantResult
from cexp.wirebus import LoopbackBus, ResourceReport, Sender
from conftest import layer_digests, make_ab_scenario, make_protocol_doc, multicast_loopback_available


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
    sup = Supervisor(protocol, scheduler, tmp_path, bus)
    reporter = Sender(bus, 50, clock)
    for k in range(1, 9):
        scheduler.call_at(
            k * 500_000,
            lambda: reporter.send(ResourceReport(variant_id="expA", cpu_pct=25.0, mem_mb=90.0)),
        )
    scheduler.run_until(6_000_000)
    assert sup.report is not None
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
    sup = Supervisor(protocol, scheduler, tmp_path, bus)
    seen = []
    scheduler.call_at(
        2_600_000, lambda: seen.append(HQ.status(tmp_path, experiment_id=protocol.experiment_id))
    )
    scheduler.run_until(6_000_000)
    assert sup.report is not None
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
    with pytest.raises(S.UplinkFailed, match=r"^chunk \d+/\d+ undelivered after 5 retransmissions$"):
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
    # only what the report measured: no fixed pipeline figures ride along
    assert sorted(decision) == ["experiment_id", "ranking", "rationale", "winner"]


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


def test_cli_fetch_with_a_chunk_out_of_retries_exits_2_and_writes_nothing(tmp_path, capsys):
    root, experiment_id = _finished_vehicle(tmp_path)
    # a ten-chunk report: the request gets through, then chunk 3 runs out of retries
    (S.run_dir(root, experiment_id) / "report.json").write_bytes(b"r" * 40_000)
    link_path = tmp_path / "link.json"
    link_path.write_text(json.dumps({"datagram_loss_pct": 60.0}), "utf-8")
    code = HQ.cli_main([
        "fetch", "--experiment", experiment_id, "--target", str(root), "--out", str(tmp_path / "out"),
        "--link", str(link_path),
    ])
    assert code == 2
    assert capsys.readouterr().out == "error: chunk 3/10 undelivered after 5 retransmissions\n"
    assert not (tmp_path / "out").exists()


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


def test_cli_deploy_without_bundles_to_a_scenario_target(tmp_path, capsys):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc()), "utf-8")
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"data_dir": "vehicle"}), "utf-8")
    code = HQ.cli_main(["deploy", "--protocol", str(protocol_path), "--target", str(scenario_path)])
    assert code == 0
    assert "deployed exp-ab: 0 payload bytes" in capsys.readouterr().out
    deployed = tmp_path / "vehicle" / "protocols" / "exp-ab.json"
    assert deployed.read_bytes() == protocol_path.read_bytes()


def test_cli_refuses_a_link_file_with_an_unknown_key(tmp_path, capsys):
    link_path = tmp_path / "link.json"
    link_path.write_text(json.dumps({"datagram_loss": 5}), "utf-8")
    code = HQ.cli_main(["status", "--target", str(tmp_path), "--link", str(link_path)])
    assert code == 2
    assert capsys.readouterr().out == "error: unknown key 'datagram_loss'\n"


def test_cli_refuses_a_link_file_with_a_float_bandwidth(tmp_path, capsys):
    link_path = tmp_path / "link.json"
    link_path.write_text(json.dumps({"bandwidth_bytes_per_s": 1e3}), "utf-8")
    code = HQ.cli_main(["status", "--target", str(tmp_path), "--link", str(link_path)])
    assert code == 2
    assert capsys.readouterr().out == "error: bandwidth_bytes_per_s: expected int, got float\n"


def test_cli_deploy_refuses_a_protocol_that_does_not_load(tmp_path, capsys):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps({"experiment_id": "exp-x"}), "utf-8")
    code = HQ.cli_main(["deploy", "--protocol", str(protocol_path), "--target", str(tmp_path / "vehicle")])
    assert code == 2
    assert capsys.readouterr().out == "error: variants: missing key\n"
    assert not (tmp_path / "vehicle").exists()


def test_cli_deploy_refuses_a_manifest_that_does_not_load(tmp_path, capsys):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc()), "utf-8")
    manifest_path = tmp_path / "manifests" / "bundle.json"
    manifest_path.parent.mkdir()
    manifest_path.write_text(json.dumps({"entrypoint": "bin/run", "layers": [{"digest": "sha256:xyz", "size": 1}]}))
    code = HQ.cli_main([
        "deploy", "--protocol", str(protocol_path), "--bundle", str(manifest_path), "--target", str(tmp_path / "vehicle"),
    ])
    assert code == 2
    assert capsys.readouterr().out == "error: layers[0].digest is not a valid sha256 digest\n"
    assert not (tmp_path / "vehicle").exists()


def test_cli_compare_refuses_a_report_that_does_not_load(tmp_path, capsys):
    report = json.loads(make_report([make_result("prod", "PRODUCTION", 0.60)]).to_json())
    del report["variants"][0]["accuracy"]
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report), "utf-8")
    code = HQ.cli_main(["compare", "--report", str(report_path)])
    assert code == 2
    assert capsys.readouterr().out == "error: variants[0].accuracy: missing key\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ([], "error: $: expected object, got list of 0\n"),
        ({"data_dir": 5}, "error: data_dir: expected str, got int\n"),
    ],
    ids=["array", "int_data_dir"],
)
def test_cli_status_refuses_a_target_file_that_does_not_load(tmp_path, capsys, content, message):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(content), "utf-8")
    code = HQ.cli_main(["status", "--target", str(scenario_path)])
    assert code == 2
    assert capsys.readouterr().out == message


def test_cli_compare_refuses_a_report_it_cannot_read(tmp_path, capsys):
    report_path = tmp_path / "missing.json"
    code = HQ.cli_main(["compare", "--report", str(report_path)])
    assert code == 2
    assert capsys.readouterr().out == f"error: [Errno 2] No such file or directory: '{report_path}'\n"


def test_cli_deploy_refuses_a_link_file_it_cannot_read(tmp_path, capsys):
    source, manifest = _bundle(tmp_path)
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc()), "utf-8")
    link_path = tmp_path / "missing.json"
    code = HQ.cli_main([
        "deploy", "--protocol", str(protocol_path),
        "--bundle", str(source.root / "manifests" / f"{manifest.bundle_digest}.json"),
        "--target", str(tmp_path / "vehicle"), "--link", str(link_path),
    ])
    assert code == 2
    assert capsys.readouterr().out == f"error: [Errno 2] No such file or directory: '{link_path}'\n"
    assert not (tmp_path / "vehicle").exists()


def test_cli_fetch_without_a_target_exits_2_and_writes_nothing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        HQ.cli_main(["fetch", "--experiment", "exp-x", "--out", str(tmp_path / "out")])
    assert exited.value.code == 2
    assert "the following arguments are required: --target" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_deploy_without_a_source_store_it_can_infer_is_an_error(tmp_path, capsys):
    source, manifest = _bundle(tmp_path)
    bundle_path = tmp_path / "bundle.json"  # not under <store>/manifests/
    bundle_path.write_bytes(manifest.canonical_bytes())
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc()), "utf-8")
    code = HQ.cli_main([
        "deploy", "--protocol", str(protocol_path), "--bundle", str(bundle_path), "--target", str(tmp_path / "vehicle"),
    ])
    assert code == 2
    assert capsys.readouterr().out == (
        f"error: cannot infer the source store for {bundle_path}; pass --source-store\n"
    )
    assert not (tmp_path / "vehicle").exists()


def _cli_deploy_fails(tmp_path, capsys, bundle_paths, *extra) -> str:
    """Run ``cectl deploy`` of ``make_protocol_doc()`` with ``bundle_paths``;
    assert that it exits 2 without deploying the protocol, and return its
    error line."""
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc()), "utf-8")
    bundles = [arg for path in bundle_paths for arg in ("--bundle", str(path))]
    vehicle = tmp_path / "vehicle"
    code = HQ.cli_main(["deploy", "--protocol", str(protocol_path), *bundles, "--target", str(vehicle), *extra])
    assert code == 2
    assert not (vehicle / "protocols" / "exp-ab.json").exists()
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out
    return out


def test_cli_deploy_over_a_link_that_never_comes_back_is_an_error(tmp_path, capsys):
    source, manifest = _bundle(tmp_path)
    link_path = tmp_path / "link.json"
    link_path.write_text(json.dumps({"outage_schedule": [[0.0, None]]}), "utf-8")
    out = _cli_deploy_fails(
        tmp_path, capsys, [source.root / "manifests" / f"{manifest.bundle_digest}.json"], "--link", str(link_path)
    )
    assert out == "error: infinite outage before transfer completes\n"


def test_cli_deploy_refuses_a_link_file_with_a_nan_outage_bound(tmp_path, capsys):
    source, manifest = _bundle(tmp_path)
    link_path = tmp_path / "link.json"
    link_path.write_text('{"bandwidth_bytes_per_s": 1000, "outage_schedule": [[NaN, 5.0]]}', "utf-8")
    out = _cli_deploy_fails(
        tmp_path, capsys, [source.root / "manifests" / f"{manifest.bundle_digest}.json"], "--link", str(link_path)
    )
    assert out == "error: outage interval [nan, 5.0) must have start < end\n"


def test_cli_deploy_of_a_source_layer_that_fails_its_digest_is_an_error(tmp_path, capsys):
    source, manifest = _bundle(tmp_path)
    corrupt = manifest.layers[1].digest
    (source.root / "layers" / corrupt).write_bytes(b"not the layer")
    out = _cli_deploy_fails(tmp_path, capsys, [source.root / "manifests" / f"{manifest.bundle_digest}.json"])
    assert out.startswith(f"error: expected {corrupt}, payload hashes to sha256:")


def test_cli_deploy_of_bundles_from_two_stores_names_the_missing_layer(tmp_path, capsys):
    first, first_manifest = _bundle(tmp_path)
    second = A.LayerStore(tmp_path / "other_store")
    layer = second.put(b"only in the other store")
    second_manifest = A.manifest_for_layers("bin/other", [layer])
    out = _cli_deploy_fails(
        tmp_path,
        capsys,
        [
            first.root / "manifests" / f"{first_manifest.bundle_digest}.json",
            second.put_manifest(second_manifest),
        ],
    )
    assert out == f"error: source store {first.root} lacks layer {layer.digest}\n"


def test_cli_deploy_from_a_mistyped_source_store_leaves_nothing_there(tmp_path, capsys):
    source, manifest = _bundle(tmp_path)
    typo = tmp_path / "hq_stor"
    out = _cli_deploy_fails(
        tmp_path, capsys, [source.root / "manifests" / f"{manifest.bundle_digest}.json"], "--source-store", str(typo)
    )
    assert out.startswith(f"error: source store {typo} lacks layer ")
    assert not typo.exists()  # a source store is only read
    assert not (tmp_path / "vehicle").exists()


def test_resolve_target_reads_a_full_scenario_file(tmp_path):
    """A scenario's other sections are not the target's business: only
    data_dir is read."""
    scenario = make_ab_scenario()
    scenario["data_dir"] = "runs"
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), "utf-8")
    assert HQ.resolve_target(str(scenario_path)) == tmp_path / "runs"


# -- one vehicle root, whoever ran the experiment ------------------------------------------


def _run_ceharness(protocol_path, scenario_path, root):
    return H.cli_main(["run", "--scenario", str(scenario_path), "--data-dir", str(root)])


def _run_cesupd_live(protocol_path, scenario_path, root):
    if not multicast_loopback_available(port=7761):
        pytest.skip("no multicast-capable loopback interface")
    # nothing else is on the bus: the 1 s run ends before silence reads as a crash
    return S.cli_main(["--protocol", str(protocol_path), "--data-dir", str(root), "--bus", "239.255.77.1:7760"])


@pytest.mark.parametrize(
    "run",
    [
        _run_ceharness,
        pytest.param(_run_cesupd_live, marks=[pytest.mark.udp, pytest.mark.slow]),
    ],
    ids=["ceharness", "cesupd-live"],
)
def test_cectl_finds_a_run_under_the_vehicle_root_it_was_given(tmp_path, capsys, run):
    protocol = make_protocol_doc(experiment_id="exp-live", max_duration_s=1, sustain_samples=1)
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(protocol), "utf-8")
    scenario = make_ab_scenario(protocol=protocol, frames={"count": 10, "rate_hz": 10, "seed": 7}, expect={})
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), "utf-8")
    root = tmp_path / "vehicle"

    assert run(protocol_path, scenario_path, root) == 0
    capsys.readouterr()
    assert HQ.cli_main(["status", "--target", str(root), "--experiment", "exp-live"]) == 0
    assert capsys.readouterr().out.startswith("exp-live: COMPLETED\n")
    assert HQ.cli_main(["fetch", "--target", str(root), "--experiment", "exp-live", "--out", str(tmp_path / "hq")]) == 0
    fetched = tmp_path / "hq" / "exp-live" / "report.json"
    assert capsys.readouterr().out == f"fetched {fetched}\n"
    assert fetched.read_bytes() == (root / "data" / "exp-live" / "report.json").read_bytes()


@pytest.mark.parametrize("command", ["status", "fetch"])
def test_cli_refuses_an_experiment_id_that_leaves_the_vehicle_root(tmp_path, capsys, command):
    vehicle = tmp_path / "vehicle"
    (vehicle / "data").mkdir(parents=True)
    # a run directory beside data/, where data/../x would lead
    beside = vehicle / "x"
    beside.mkdir()
    (beside / "status.json").write_text(json.dumps({"experiment_id": "x", "state": "COMPLETED"}), "utf-8")
    (beside / "report.json").write_text("{}", "utf-8")
    argv = [command, "--target", str(vehicle), "--experiment", "../x"]
    if command == "fetch":
        argv += ["--out", str(tmp_path / "inbox")]
    code = HQ.cli_main(argv)
    assert code == 2
    assert capsys.readouterr().out == (
        "error: experiment_id: must be one path component matching [A-Za-z0-9][A-Za-z0-9._-]*, got '../x'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vehicle"]


def test_cli_deploy_refuses_a_protocol_whose_id_leaves_the_vehicle_root(tmp_path, capsys):
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(make_protocol_doc(experiment_id="../../escaped")), "utf-8")
    code = HQ.cli_main(["deploy", "--protocol", str(protocol_path), "--target", str(tmp_path / "vehicle" / "a")])
    assert code == 2
    assert capsys.readouterr().out.startswith("error: experiment_id: must be one path component")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["protocol.json"]
