"""Seeded inputs and the timed decision cycles of the benchmark workloads.

A decision cycle goes through the public API only: HQ's layer store holds
the bundles, ``hqcli.deploy`` delta-ships them with the protocol to the
vehicle root, ``harness.run_scenario`` runs the experiment there under the
fake clock, and ``hqcli.status`` / ``hqcli.fetch`` / ``hqcli.compare`` bring
the decision back. Program functions are looked up on their modules at call
time, so the traced run can wrap them.

The seed picks the content of every input (frame, stub, uplink and fetch
seeds, the layers that change, layer payloads); the workload and size fix
how much work there is, so runs with different seeds do the same work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from cexp import harness, hqcli
from cexp.artifact import LayerStore, LinkProfile, manifest_for_layers
from cexp.supervisor import report_from_json

VARIANTS = ("prod", "expA", "expB")


@dataclass(frozen=True)
class Size:
    ab_frames: int  # ab_long: frames replayed at 10 Hz
    # rollout_cycles: cycles per repetition against one vehicle root; at full
    # size, a run's 3 repetitions at least must reach the 100 cycles a p90 needs
    rollout_cycles: int
    layer_bytes: int  # rollout_cycles: size of one content-addressed layer


SIZES = {
    "full": Size(ab_frames=6000, rollout_cycles=50, layer_bytes=128 * 1024),
    # the smoke test's size: every code path, a few seconds for all workloads
    "tiny": Size(ab_frames=300, rollout_cycles=3, layer_bytes=4 * 1024),
}

AB_LINK = LinkProfile(datagram_loss_pct=10.0)
# The second outage swallows the PERIODIC snapshot uplinked at t=4 s of every
# rollout run. The supervisor logs that send as failed (the uplink has no retry
# that outlasts an outage), and the benchmark counts it in ops_failed.
ROLLOUT_LINK = LinkProfile(outage_schedule=((0.05, 0.25), (4.0, 4.5)), datagram_loss_pct=5.0)


@dataclass(frozen=True)
class Cycle:
    """One decision cycle's inputs; bundle digests are filled in at ingest."""

    protocol: dict
    scenario: dict  # scenario object without its protocol
    link: LinkProfile
    fetch_seed: int
    query_at_s: float  # simulated time of HQ's status and fetch requests
    expect: dict  # what the gate requires: final_state, winner, aborted, ladder
    changes: tuple = ()  # (bundle, layer, 32-byte prefix) rebuilt by HQ before this cycle


@dataclass
class Campaign:
    """Inputs of one repetition: an HQ store, a vehicle root and its cycles."""

    hq: LayerStore
    vehicle: Path
    inbox: Path
    payloads: list  # per bundle, the current layer payloads
    entrypoints: tuple
    manifests: list
    cycles: list


@dataclass
class CycleResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    frames: int = 0
    sim_s: float = 0.0
    report_sha256: str = ""
    failures: list = field(default_factory=list)
    issued: int = 0  # operations the benchmark issued: ingest, deploy, status, fetch, cycle
    issued_failed: int = 0
    counters: dict = field(default_factory=dict)  # deterministic: records and output files


def _protocol(experiment_id: str, duration_s: int, policy="AT_END") -> dict:
    return {
        "experiment_id": experiment_id,
        "variants": [
            {
                "variant_id": vid,
                "role": "PRODUCTION" if i == 0 else "EXPERIMENTAL",
                "bundle_digest": "",
                "launch_args": [],
            }
            for i, vid in enumerate(VARIANTS)
        ],
        "cpu_threshold_pct": 80.0,
        "mem_threshold_mb": 512,
        "sustain_samples": 3,
        "sample_period_ms": 500,
        "degrade_grace_samples": 2,
        "max_duration_s": duration_s,
        "max_concurrent_experiments": 2,
        "upload_policy": policy,
    }


def _stub(rng: random.Random, vid: str, tpr: float, burn: float) -> dict:
    return {
        "variant_id": vid,
        "true_positive_rate": tpr,
        "false_positive_rate_per_frame": 0.1,
        "cpu_burn_pct": burn,
        "seed": rng.randrange(1 << 31),
    }


def _scenario(rng, name, frames, stubs, link) -> dict:
    return {
        "name": name,
        "fake_clock": True,
        "frames": {"count": frames, "rate_hz": 10, "seed": rng.randrange(1 << 31)},
        "stubs": stubs,
        "node": {"capacity_pct": 400},
        "uplink": {"link": link.to_object(), "seed": rng.randrange(1 << 31)},
    }


def _bundle_payloads(rng: random.Random, layers: int, shared: int, layer_bytes: int):
    """Per variant's bundle, ``layers`` payloads of which the first ``shared`` are common."""
    common = [rng.randbytes(layer_bytes) for _ in range(shared)]
    return [common + [rng.randbytes(layer_bytes) for _ in range(layers - shared)] for _ in VARIANTS]


def _ingest(hq: LayerStore, payloads, entrypoints) -> list:
    manifests = []
    for entrypoint, layer_payloads in zip(entrypoints, payloads):
        manifest = manifest_for_layers(entrypoint, [hq.put(p) for p in layer_payloads])
        hq.put_manifest(manifest)
        manifests.append(manifest)
    return manifests


def setup(workload: str, seed: int, size: Size, root: Path) -> Campaign:
    """Generate one repetition's inputs and HQ's layer store under ``root``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ab_long":
        frames = size.ab_frames
        duration = frames // 10 + 2
        stubs = [_stub(rng, "prod", 0.5, 30), _stub(rng, "expA", 0.9, 25), _stub(rng, "expB", 0.6, 25)]
        cycles = [
            Cycle(
                protocol=_protocol("exp-ab-long", duration),
                scenario=_scenario(rng, workload, frames, stubs, AB_LINK),
                link=AB_LINK,
                fetch_seed=rng.randrange(1 << 31),
                query_at_s=duration + 1.0,
                expect={"final_state": "COMPLETED", "winner": "expA", "aborted": []},
            )
        ]
        payloads = _bundle_payloads(rng, 4, 2, 64 * 1024)
    elif workload == "rollout_cycles":
        payloads = _bundle_payloads(rng, 24, 6, size.layer_bytes)
        cycles = []
        for k in range(size.rollout_cycles):
            # expB overloads the node and walks DEGRADE -> DEGRADE -> STOP; once it
            # is degraded, production runs over its CPU budget on every sample,
            # which is legal: production is monitored but never commanded
            stubs = [_stub(rng, "prod", 0.5, 90), _stub(rng, "expA", 0.9, 25), _stub(rng, "expB", 0.6, 400)]
            changes = tuple(
                (b, layer, rng.randbytes(32)) for b in range(3) for layer in sorted(rng.sample(range(6, 24), 2))
            )
            cycles.append(
                Cycle(
                    protocol=_protocol(f"exp-rollout-{k:04d}", 6, policy={"PERIODIC": 2}),
                    scenario=_scenario(rng, workload, 30, stubs, ROLLOUT_LINK),
                    link=ROLLOUT_LINK,
                    fetch_seed=rng.randrange(1 << 31),
                    query_at_s=7.0,
                    expect={
                        "final_state": "COMPLETED",
                        "winner": "expA",
                        "aborted": ["expB"],
                        "ladder": {"expB": ["DEGRADE:1", "DEGRADE:2", "STOP:0"]},
                    },
                    changes=changes,
                )
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    entrypoints = tuple(f"bin/{vid}" for vid in VARIANTS)
    hq = LayerStore(root / "hq_store")
    return Campaign(
        hq=hq,
        vehicle=root / "vehicle",
        inbox=root / "hq_inbox",
        payloads=payloads,
        entrypoints=entrypoints,
        manifests=_ingest(hq, payloads, entrypoints),
        cycles=cycles,
    )


def _with_digests(protocol: dict, manifests) -> dict:
    variants = [dict(v, bundle_digest=m.bundle_digest) for v, m in zip(protocol["variants"], manifests)]
    return dict(protocol, variants=variants)


def _run_cycle(campaign: Campaign, cycle: Cycle, result: CycleResult):
    """HQ rebuild and ingest (when the cycle changes layers), deploy, run,
    status, fetch and compare. Returns the outputs, or None on an exception."""
    exp_id = cycle.protocol["experiment_id"]
    stage = "ingest"
    try:
        if cycle.changes:
            result.issued += 1
            for b, layer, prefix in cycle.changes:
                campaign.payloads[b][layer] = prefix + campaign.payloads[b][layer][len(prefix):]
            campaign.manifests = _ingest(campaign.hq, campaign.payloads, campaign.entrypoints)
        manifests = campaign.manifests
        protocol = _with_digests(cycle.protocol, manifests)
        stage = "deploy"
        result.issued += 1
        record = hqcli.deploy(json.dumps(protocol), manifests, campaign.vehicle, cycle.link, campaign.hq)
        stage = "run"
        result.issued += 1  # the cycle itself: run, compare and the gate
        scenario = harness.scenario_from_object(dict(cycle.scenario, protocol=protocol))
        outcome = harness.run_scenario(scenario, data_dir=campaign.vehicle)
        stage = "status"
        result.issued += 1
        state = hqcli.status(campaign.vehicle, exp_id, link=cycle.link, at_s=cycle.query_at_s)
        stage = "fetch"
        result.issued += 1
        fetched = hqcli.fetch(
            campaign.vehicle, exp_id, campaign.inbox, link=cycle.link, seed=cycle.fetch_seed, at_s=cycle.query_at_s
        )
        stage = "compare"
        decision = hqcli.compare(report_from_json(fetched.read_text("utf-8")))
    except Exception as exc:  # any failure of the program is reported, not fatal
        result.issued_failed += 1
        result.failures.append(f"{exp_id}: {stage} raised {type(exc).__name__}: {exc}")
        return None
    return record, manifests, outcome, state, fetched, decision


def _check_cycle(campaign: Campaign, cycle: Cycle, outputs, result: CycleResult) -> None:
    """The correctness gate of one cycle, plus its deterministic counters."""
    record, manifests, outcome, state, fetched, decision = outputs
    exp_id = cycle.protocol["experiment_id"]
    expect = cycle.expect
    run_dir = campaign.vehicle / "data" / exp_id
    vehicle_report = (run_dir / "report.json").read_bytes()
    result.report_sha256 = hashlib.sha256(vehicle_report).hexdigest()
    failures = [f"expectation {f}" for f in outcome.failures]
    if fetched.read_bytes() != vehicle_report:
        failures.append("fetched report differs from the vehicle's report.json")
    uplinked = campaign.vehicle / "hq" / exp_id / "report.json"
    if uplinked.is_file() and uplinked.read_bytes() != vehicle_report:
        failures.append("uplinked report differs from the vehicle's report.json")
    if decision.winner != expect["winner"]:
        failures.append(f"winner: expected {expect['winner']}, got {decision.winner}")
    if state["state"] != expect["final_state"]:
        failures.append(f"status state: expected {expect['final_state']}, got {state['state']}")
    report = outcome.report
    aborted = sorted(v.variant_id for v in report.variants if v.final_status == "ABORTED")
    if aborted != sorted(expect["aborted"]):
        failures.append(f"aborted: expected {expect['aborted']}, got {aborted}")
    for v in report.variants:
        if v.role == "PRODUCTION" and v.commands_received:
            failures.append(f"production {v.variant_id} was commanded: {list(v.commands_received)}")
    for vid, ladder in expect.get("ladder", {}).items():
        got = [f"{c['command']}:{c['degrade_level']}" for c in report.variant(vid).commands_received]
        if got != ladder:
            failures.append(f"{vid} ladder: expected {ladder}, got {got}")
    if failures:
        result.issued_failed += 1
        result.failures.extend(f"{exp_id}: {f}" for f in failures)

    events = [json.loads(line) for line in (run_dir / "events.jsonl").read_text("utf-8").splitlines()]
    kinds = Counter(e["kind"] for e in events)
    sandbox_lines = 0
    for log in (run_dir / "logs").iterdir():
        with open(log, "rb") as fh:
            sandbox_lines += sum(1 for _ in fh)
    result.frames = cycle.scenario["frames"]["count"]
    result.sim_s = (report.ended_at_us - report.started_at_us) / 1e6
    result.counters = {
        "artifact.deploy.sim_s": record.duration_s,
        "artifact.deploy.payload_bytes": record.payload_bytes,
        "artifact.deploy.bundle_bytes": sum(m.total_bytes() for m in manifests),
        "harness.frames.replayed": result.frames,
        "run.sim_s": result.sim_s,
        "supervisor.events.logged": len(events),
        "supervisor.sandbox.lines": sandbox_lines,
        "supervisor.commands.issued": kinds["command"],
        "supervisor.sustained_violations": kinds["sustained_violation"],
        "supervisor.uplink.sends": kinds["uplink_report"] + kinds["uplink_snapshot"] + kinds["uplink_failed"],
        "supervisor.uplink.failed": kinds["uplink_failed"],
        "supervisor.uplink.retransmissions_delivered": sum(
            e["retransmissions"] for e in events if e["kind"] in ("uplink_report", "uplink_snapshot")
        ),
    }


def run_campaign(campaign: Campaign) -> list:
    """Run every cycle of a repetition; only the cycles themselves are timed."""
    results = []
    for cycle in campaign.cycles:
        result = CycleResult()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outputs = _run_cycle(campaign, cycle, result)
        result.cpu_s = time.process_time() - cpu0
        result.wall_s = time.perf_counter() - wall0
        if outputs is not None:
            _check_cycle(campaign, cycle, outputs, result)
        results.append(result)
    return results


def store_layers(campaign: Campaign) -> int:
    """Layers held by the vehicle store (counted without the program's API)."""
    layers = campaign.vehicle / "store" / "layers"
    return len(os.listdir(layers)) if layers.is_dir() else 0


def campaign_digest(results) -> Optional[str]:
    """sha256 of the repetition's report.json bytes: the report's own digest for
    one cycle, else the digest of the cycles' digests in order."""
    digests = [r.report_sha256 for r in results]
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()
