"""Byte-level pins on the demo scenarios' artifacts and on HQ's outputs.

Each ``scenarios/*.json`` file runs through ``ceharness run`` into a
fresh directory; every file the run leaves must hash to the digest
recorded here. A change to the run loop, the event order or any writer
that moves one byte of a fake-clock run fails this test. A whole
``cectl`` cycle over a lossy link with an outage, whose vehicle step
runs the deployed protocol through ``ceharness run``, pins the bytes HQ
prints and stores the same way.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from cexp import harness as H
from cexp import hqcli as Q
from cexp import supervisor as S
from cexp.artifact import LayerStore, manifest_for_layers

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

AB_500 = {
    "data/exp-ab-500/events.jsonl": "6bbfe59061e1befa5db70442012fe4746ee7f4f537fb1f4c0e2aa83d8425cf88",
    "data/exp-ab-500/logs/expA.jsonl": "08199af0d2ced5c98bb0882e12f8531b261d5ae86c070643eab8280a4f31c657",
    "data/exp-ab-500/logs/expB.jsonl": "5a6ee185484993760b84ca0ef8aa2a65ea8edacc2fdd5ae2967d4bd14e9c233b",
    "data/exp-ab-500/logs/prod.jsonl": "7e180f58accbdf181622b981962f3b688d72be8ab78f9cb0efb1fd0415cbe376",
    "data/exp-ab-500/report.json": "a2049d8c8ab2463324d592c7e1c43fc0a1f377386da468fe671e3aa68a41e0be",
    "data/exp-ab-500/status.json": "33ef90556f38744f4646b33ff3ffbae21cc703a7cdbf564d9e4969edc193affa",
    "hq/exp-ab-500/report.json": "a2049d8c8ab2463324d592c7e1c43fc0a1f377386da468fe671e3aa68a41e0be",
}

GOLDEN = {
    "ab_500": AB_500,
    # ab_500 stretched to an hour: 36k frames at 10 Hz, max_duration_s 3700
    "ab_hour": {
        "data/exp-ab-hour/events.jsonl": "2a008859c0a75cc3f33ea4a5969a740764bf28728d2371cc31e176c123d2f5fc",
        "data/exp-ab-hour/logs/expA.jsonl": "a078defd54b147da303a43870a9017b3c88c7fb04073a149f07bec8555650678",
        "data/exp-ab-hour/logs/expB.jsonl": "1241a4f5689cef21912c08e2b56c0f5e0987b9bc108e94b6453889faf5e290cb",
        "data/exp-ab-hour/logs/prod.jsonl": "37962dfc128beda94ef99e954a844fca13afe63c9d663a1b7c4ed78d2ecd1e1a",
        "data/exp-ab-hour/report.json": "b7a8967ca3c80f14d131df85732ae7d0cb4efe4472bc75ab8c532dee943bb2c3",
        "data/exp-ab-hour/status.json": "0426738c0f45289eb95e641524866d98f12ec93f256a39be20dcd224ae2b0b3e",
        "hq/exp-ab-hour/report.json": "b7a8967ca3c80f14d131df85732ae7d0cb4efe4472bc75ab8c532dee943bb2c3",
    },
    "failover": {
        "data/exp-failover/events.jsonl": "606a5797338a88e46c1fbd6ed710c18e244e36b278a88769523b62555367aea4",
        "data/exp-failover/failover.jsonl": "829015c523efa16bd817b5784d234b8d5e116d5af0e9373d3c3d4923ec250af6",
        "data/exp-failover/logs/expA.jsonl": "08199af0d2ced5c98bb0882e12f8531b261d5ae86c070643eab8280a4f31c657",
        "data/exp-failover/logs/expB.jsonl": "5a6ee185484993760b84ca0ef8aa2a65ea8edacc2fdd5ae2967d4bd14e9c233b",
        "data/exp-failover/logs/prod.jsonl": "7e180f58accbdf181622b981962f3b688d72be8ab78f9cb0efb1fd0415cbe376",
        "data/exp-failover/report.json": "35259f15d35083bbb01abf866904935b60a5b3e9b8bb87837138d4ba62fb0792",
        "data/exp-failover/status.json": "403ca1a413a5c501e36680cf5ae5f9f485fa0d745b70fe978fd71cc106fdceeb",
    },
    "hostile": {
        "data/exp-hostile/events.jsonl": "1592c0d98434f6aef96218b9b18f89222158afbf42185c8bcec1fd5f9d9c36d9",
        "data/exp-hostile/logs/expA.jsonl": "c84054e869f79b2e9a44143da5233ac32d7881003e2fe1fe5ca6f618a38745dc",
        "data/exp-hostile/logs/prod.jsonl": "24ae8b0d3a053329a9efd5e1de9d27aff6bbc787b3eabc36f8aa829938b8de71",
        "data/exp-hostile/report.json": "97ba8f07490d54ad1140b61928a6eaed7f22e913c607178624e53ff6e9b50310",
        "data/exp-hostile/status.json": "4201eecb9e4dc7f01600391914ec84bbdaa315937c9331a5ac8988ed32095efd",
    },
    # ab_500 with expA crashing at 5 s: it falls silent, and the supervisor
    # declares it lost once its last resource report is over 3 periods old
    "silent_crash": {
        "data/exp-ab-500/events.jsonl": "f6aa50391fd39e8eb77cc06d046a90f15a634017dba34111d8568f6fd2d7f53d",
        "data/exp-ab-500/logs/expA.jsonl": "55dfe20cc11975a8aa896d88b0c70f02b2abda84a1bc8195967616fb02db9e97",
        "data/exp-ab-500/logs/expB.jsonl": "5a6ee185484993760b84ca0ef8aa2a65ea8edacc2fdd5ae2967d4bd14e9c233b",
        "data/exp-ab-500/logs/prod.jsonl": "7e180f58accbdf181622b981962f3b688d72be8ab78f9cb0efb1fd0415cbe376",
        "data/exp-ab-500/report.json": "0613d03631beb50350d6d1e95fe8e56b33cacaf3915f415135bc680cd286b9da",
        "data/exp-ab-500/status.json": "349dce2142ef98ad82e5f62d0b28070378030006cc9327d7098084dee3c6e81e",
        "hq/exp-ab-500/report.json": "0613d03631beb50350d6d1e95fe8e56b33cacaf3915f415135bc680cd286b9da",
    },
}


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_every_demo_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ceharness_run_reproduces_the_pinned_artifacts(name, tmp_path, capsys):
    code = H.cli_main(
        ["run", "--scenario", str(SCENARIOS / f"{name}.json"), "--data-dir", str(tmp_path)]
    )
    assert code == 0, capsys.readouterr().out
    assert digests(tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_run_returns_the_report_it_wrote(name, tmp_path):
    """The runner hands back the supervisor's own report, not a re-read of
    the file: its JSON is the file's bytes, and reads back equal to it."""
    outcome = H.run_scenario(H.load_scenario(SCENARIOS / f"{name}.json"), data_dir=tmp_path)
    text = outcome.report_path.read_text("utf-8")
    assert outcome.report.to_json() == text
    assert S.report_from_json(text) == outcome.report


# Every datagram the loopback hub carries during a run, as a UDP endpoint
# would send it (conftest's ``wire_bytes``: a sender's record encoded), in
# publish order: (count, sha256 over each datagram prefixed by its u32
# length). This pins the codec's bytes and the fan-out order, not only the
# files.
WIRE = {
    "ab_500": (2424, "8ff63292e73738259debcc3821057732c145a3b98be12e3fdb54bf573fd44724"),
    "hostile": (1411, "67fcee10a354226cd6364e7d6a4217ef595429692e9f3237c8a249e095ee2ecc"),
}


@pytest.mark.parametrize("name", sorted(WIRE))
def test_a_scenario_publishes_the_pinned_datagrams(name, tmp_path, wire_hashing_bus):
    outcome = H.run_scenario(H.load_scenario(SCENARIOS / f"{name}.json"), data_dir=tmp_path)
    assert outcome.failures == []
    assert (outcome.bus.datagrams, outcome.bus.wire.hexdigest()) == WIRE[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_record_a_sender_hands_over_is_what_its_datagram_decodes_to(name, tmp_path, record_checking_bus):
    outcome = H.run_scenario(H.load_scenario(SCENARIOS / f"{name}.json"), data_dir=tmp_path)
    assert outcome.failures == []
    assert outcome.bus.handed_over > 0
    assert outcome.bus.raw == 0


# One outage that a deploy crosses and the PERIODIC snapshot at t = 20 s
# falls in, and a 5% datagram loss that status, fetch and the uplink draw on.
HQ_LINK = {"bandwidth_bytes_per_s": 1000, "outage_schedule": [[18.5, 20.5]], "datagram_loss_pct": 5.0}

HQ_SIDE = {
    "deploy --json": "16bf534eb1b18f1f5ad0da3f001141a263dfd54969db3ac2e8fd97990ead9e3e",
    "status --json": "063919176b3ee7b8d53ba69796df5f2074ed27f0b69f53b530fdf69f650e73cc",
    "fetched report.json": "b6ac28a1c5d0b9e8044bc8a81effaa029490f3112fdbbd3c5b0bf57309755418",
    "compare --json": "f364cbbcb30ccba42e848c026bf8b2eaca715b280d0dec026ad22e0deb6dd13f",
    "events.jsonl": "c1c018cb0b9be6ea294ded8b4d4d8885f3129b75e3dbc2159f328543dd9020f2",
}


def test_cectl_reproduces_the_pinned_hq_side_of_a_periodic_ab_500_cycle(tmp_path, capsys):
    link_path = tmp_path / "link.json"
    link_path.write_text(json.dumps(HQ_LINK), "utf-8")
    source = LayerStore(tmp_path / "source")
    layers = [source.put(bytes([i]) * 6000) for i in range(3)]
    # two bundles sharing a layer, so the second one moves a delta
    bundles = [
        source.put_manifest(manifest_for_layers(entrypoint, picked))
        for entrypoint, picked in (("prod", layers[:2]), ("exp", layers[1:]))
    ]
    protocol = json.loads((SCENARIOS / "protocols" / "ab.json").read_text("utf-8"))
    protocol["upload_policy"] = {"PERIODIC": 10}
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(protocol), "utf-8")
    vehicle = tmp_path / "vehicle"
    # the vehicle runs the copy HQ deployed, not the file HQ deployed it from
    scenario = json.loads((SCENARIOS / "ab_500.json").read_text("utf-8"))
    scenario["protocol_file"] = str(vehicle / "protocols" / "exp-ab-500.json")
    scenario["uplink"]["link"] = HQ_LINK
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), "utf-8")
    inbox = tmp_path / "inbox"

    def cectl(*argv) -> bytes:
        code = Q.cli_main([str(a) for a in argv])
        out = capsys.readouterr().out
        assert code == 0, out
        return out.encode("utf-8")

    outputs = {}
    outputs["deploy --json"] = cectl(
        "deploy", "--protocol", protocol_path, "--bundle", bundles[0], "--bundle", bundles[1],
        "--target", vehicle, "--link", link_path, "--json",
    )
    code = H.cli_main(["run", "--scenario", str(scenario_path), "--data-dir", str(vehicle)])
    out = capsys.readouterr().out
    assert code == 0, out
    outputs["status --json"] = cectl(
        "status", "--target", vehicle, "--experiment", "exp-ab-500", "--link", link_path, "--json"
    )
    cectl("fetch", "--experiment", "exp-ab-500", "--target", vehicle, "--out", inbox, "--link", link_path)
    fetched = inbox / "exp-ab-500" / "report.json"
    outputs["fetched report.json"] = fetched.read_bytes()
    outputs["compare --json"] = cectl("compare", "--report", fetched, "--json")
    outputs["events.jsonl"] = (vehicle / "data" / "exp-ab-500" / "events.jsonl").read_bytes()

    assert {
        name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()
    } == HQ_SIDE
