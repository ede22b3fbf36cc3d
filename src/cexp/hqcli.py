"""HQ-side command surface: deploy experiments, poll status, fetch
reports, and select the winning variant.

The vehicle is reachable only over the constrained OTA link, so deploy
moves bundles via delta fetch (never re-sending layers the vehicle
already holds) and fetch pulls a report as NACK-retransmitted result
chunks, writing it only once every chunk has got through. Reports reach
HQ this way alone: nothing listens for result chunks on the bus.
``compare`` encodes the minimal defensible selection rule - eligibility,
accuracy ranking, CPU tie-break - and always prints the rules it
applied so a human can overrule it.

Every command takes the vehicle root (the simulated OTA target) and finds
its paths through ``supervisor``'s layout functions, as the writers there,
``Supervisor(protocol, scheduler, root, bus)`` and ``OtaUplink(profile, root)``, do.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .artifact import (
    ArtifactError,
    DatagramLink,
    LayerStore,
    LinkProfile,
    TransferRecord,
    _atomic_write,
    fetch_bundle,
    parse_manifest,
    record_fields,
    record_from_object,
    transfer,
)
from .protocol import parse_protocol
from .supervisor import (
    ExperimentReport,
    UplinkFailed,
    protocol_path,
    report_from_json,
    run_dir,
    runs_dir,
    store_dir,
    uplink_report,
    write_delivered,
)

REQUEST_RETRY_BUDGET = 5  # attempts to raise the vehicle before giving up


class Unreachable(Exception):
    pass


@dataclass(frozen=True)
class DecisionReport:
    experiment_id: str
    ranking: tuple[dict, ...]
    winner: Optional[str]
    rationale: str

    def to_json(self) -> str:
        return json.dumps(self, default=record_fields, sort_keys=True, indent=2) + "\n"


def compare(report: ExperimentReport) -> DecisionReport:
    """Select the winning variant from a finished experiment report.

    Eligibility requires final_status COMPLETED and a defined accuracy
    (aborted or crashed variants never win). Eligible variants rank by
    accuracy descending, ties broken by lower mean CPU, then variant_id.
    Pure: permuting the report's variant order never changes the result.
    """
    eligible = [v for v in report.variants if v.final_status == "COMPLETED" and v.accuracy is not None]
    ineligible = [v for v in report.variants if v not in eligible]
    eligible.sort(key=lambda v: (-v.accuracy, v.mean_cpu_pct, v.variant_id))
    ineligible.sort(key=lambda v: v.variant_id)

    ranking = []
    for v in eligible + ineligible:
        ranking.append(
            {
                "variant_id": v.variant_id,
                "accuracy": v.accuracy,
                "mean_cpu_pct": v.mean_cpu_pct,
                "violations": v.violations,
                "final_status": v.final_status,
                "eligible": v in eligible,
            }
        )
    winner = eligible[0].variant_id if eligible else None

    rules = [
        "eligibility: final_status must be COMPLETED and accuracy defined"
        + (
            "; excluded " + ", ".join(f"{v.variant_id} ({v.final_status})" for v in ineligible)
            if ineligible
            else ""
        ),
        "ranking: accuracy desc, then mean_cpu_pct asc, then variant_id",
        (
            f"winner: {winner} (accuracy={eligible[0].accuracy:.4f})"
            if winner is not None
            else "winner: none (no eligible variant)"
        ),
        "note: accuracy is a stand-in metric measured against harness ground "
        "truth, so review before acting on this selection",
    ]
    return DecisionReport(
        experiment_id=report.experiment_id,
        ranking=tuple(ranking),
        winner=winner,
        rationale="; ".join(rules),
    )


@dataclass(frozen=True)
class DeployRecord:
    experiment_id: str
    payload_bytes: int
    manifest_bytes: int
    protocol_bytes: int
    started_t: float
    completed_t: float
    bundles: tuple[TransferRecord, ...]

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.manifest_bytes + self.protocol_bytes

    @property
    def duration_s(self) -> float:
        return self.completed_t - self.started_t

    def to_object(self) -> dict[str, Any]:
        """The fields plus the derived totals; each bundle with its own."""
        return {
            **record_fields(self),
            "bundles": [b.to_object() for b in self.bundles],
            "total_bytes": self.total_bytes,
            "duration_s": self.duration_s,
        }


def deploy(
    protocol_text: str,
    manifests: list,
    vehicle_root: Path,
    link: LinkProfile,
    source: Optional[LayerStore],
) -> DeployRecord:
    """Push a protocol and its bundles to the vehicle over the OTA link.

    Validation comes first: a protocol that does not parse refuses the
    deploy before a single byte moves. Layers already on the vehicle are
    skipped entirely (delta plan); layer writes are atomic, so a failed
    deploy leaves the store consistent. ``source`` holds the bundles'
    layers; a deploy without bundles needs none.
    """
    protocol = parse_protocol(protocol_text)
    store = LayerStore(store_dir(vehicle_root))

    t = 0.0
    payload_bytes = 0
    manifest_bytes = 0
    records = []
    for manifest in manifests:
        record = fetch_bundle(manifest, link, store, source, start_t=t)
        records.append(record)
        payload_bytes += record.bytes_moved
        manifest_bytes += len(manifest.canonical_bytes())
        t = record.completed_t

    protocol_raw = protocol_text.encode("utf-8")
    t = transfer(manifest_bytes + len(protocol_raw), link, t)
    _atomic_write(protocol_path(vehicle_root, protocol.experiment_id), protocol_raw)

    return DeployRecord(
        experiment_id=protocol.experiment_id,
        payload_bytes=payload_bytes,
        manifest_bytes=manifest_bytes,
        protocol_bytes=len(protocol_raw),
        started_t=0.0,
        completed_t=t,
        bundles=tuple(records),
    )


def _require_reachable(link: LinkProfile, seed: int, at_s: float) -> None:
    """One request datagram must get through before any exchange."""
    dlink = DatagramLink(link, seed=seed)
    for _ in range(1 + REQUEST_RETRY_BUDGET):
        if dlink.deliver(at_s):
            return
    raise Unreachable("vehicle did not answer over the link")


def status(
    vehicle_root: Path,
    experiment_id: Optional[str] = None,
    link: LinkProfile = LinkProfile(),
    at_s: float = 0.0,
) -> dict:
    """Read-only view of one run's status.json (experiment state, ``t_us``
    and the at most ``STATUS_EVENTS`` last events), or of every run's state."""
    _require_reachable(link, seed=0, at_s=at_s)
    runs = runs_dir(vehicle_root)
    if not runs.is_dir():
        raise Unreachable(f"no experiment data under {vehicle_root}")
    if experiment_id is None:
        experiments = []
        for status_path in sorted(runs.glob("*/status.json")):
            obj = json.loads(status_path.read_text("utf-8"))
            experiments.append({"experiment_id": obj["experiment_id"], "state": obj["state"]})
        return {"experiments": experiments}
    status_path = run_dir(vehicle_root, experiment_id) / "status.json"
    if not status_path.is_file():
        raise Unreachable(f"no experiment {experiment_id!r} under {vehicle_root}")
    return json.loads(status_path.read_text("utf-8"))


def fetch(
    vehicle_root: Path,
    experiment_id: str,
    out_dir: Path,
    link: LinkProfile = LinkProfile(),
    seed: int = 0,
    at_s: float = 0.0,
) -> Path:
    """Pull a finished report over the link, chunked with NACK retransmission.

    The local file is written atomically only after every chunk arrived:
    a failed fetch leaves nothing behind. Raises ``Unreachable`` when the
    vehicle never answers and ``UplinkFailed`` when a chunk stays missing
    after the retry budget.
    """
    _require_reachable(link, seed=seed, at_s=at_s)
    report_path = run_dir(vehicle_root, experiment_id) / "report.json"
    if not report_path.is_file():
        raise Unreachable(f"vehicle has no report for experiment {experiment_id!r}")
    payload = report_path.read_bytes()
    uplink_report(payload, experiment_id, DatagramLink(link, seed=seed + 1), t_s=at_s)
    return write_delivered(out_dir, experiment_id, "report", payload)


@dataclass(frozen=True)
class _TargetFile:
    """The one key of a scenario file that names a vehicle root."""

    data_dir: Optional[str] = None


def resolve_target(target: str) -> Path:
    """A target is a vehicle root directory or a scenario file whose
    data_dir points at one. The file is read through ``record_from_object``,
    ignoring every other key; one that does not load raises ``ValueError``."""
    path = Path(target)
    if path.is_file() and path.suffix == ".json":
        obj = json.loads(path.read_text("utf-8"))
        data_dir = record_from_object(_TargetFile, obj, ignore_unknown=True).data_dir
        if data_dir is None:
            raise Unreachable(f"scenario {target} has no data_dir")
        resolved = Path(data_dir)
        if not resolved.is_absolute():
            resolved = path.resolve().parent / resolved
        return resolved
    return path


def _source_store_for(manifest_path: Path, override: Optional[str]) -> LayerStore:
    if override is not None:
        return LayerStore(override)
    # convention: manifests live at <store>/manifests/<digest>.json
    if manifest_path.parent.name == "manifests":
        return LayerStore(manifest_path.parent.parent)
    raise ValueError(f"cannot infer the source store for {manifest_path}; pass --source-store")


def _load_link(path: Optional[str]) -> LinkProfile:
    if path is None:
        return LinkProfile()
    return record_from_object(LinkProfile, json.loads(Path(path).read_text("utf-8")))


def _print_decision(decision: DecisionReport) -> None:
    print(f"experiment: {decision.experiment_id}")
    print(f"winner: {decision.winner if decision.winner is not None else 'NONE'}")
    header = f"{'rank':<5}{'variant':<18}{'accuracy':<10}{'mean_cpu':<10}{'violations':<12}{'status':<11}eligible"
    print(header)
    for rank, entry in enumerate(decision.ranking, start=1):
        acc = "n/a" if entry["accuracy"] is None else f"{entry['accuracy']:.4f}"
        print(
            f"{rank:<5}{entry['variant_id']:<18}{acc:<10}"
            f"{entry['mean_cpu_pct']:<10.1f}{entry['violations']:<12}"
            f"{entry['final_status']:<11}{'yes' if entry['eligible'] else 'no'}"
        )
    print("rationale:")
    for rule in decision.rationale.split("; "):
        print(f"  - {rule}")


def cli_main(argv: Optional[list[str]] = None) -> int:
    """``cectl``: the remote team's command line. ``status`` and ``fetch``
    pass no ``at_s``, so they use the link at simulated t=0."""
    parser = argparse.ArgumentParser(prog="cectl", description="HQ control for remote experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    deploy_p = sub.add_parser("deploy", help="deploy a protocol and bundles to a vehicle")
    deploy_p.add_argument("--protocol", required=True)
    deploy_p.add_argument("--bundle", action="append", default=[], help="bundle manifest file (repeatable)")
    deploy_p.add_argument("--target", required=True, help="vehicle root dir or scenario file")
    deploy_p.add_argument("--source-store", default=None, help="store holding the bundle layers")
    deploy_p.add_argument("--link", default=None, help="link profile JSON file")
    deploy_p.add_argument("--json", action="store_true")

    status_p = sub.add_parser("status", help="read experiment state from a vehicle")
    status_p.add_argument("--target", required=True)
    status_p.add_argument("--experiment", default=None)
    status_p.add_argument("--link", default=None)
    status_p.add_argument("--json", action="store_true")

    fetch_p = sub.add_parser("fetch", help="fetch a finished experiment report")
    fetch_p.add_argument("--experiment", required=True)
    fetch_p.add_argument("--target", required=True, help="vehicle root dir or scenario file")
    fetch_p.add_argument("--out", required=True)
    fetch_p.add_argument("--link", default=None)

    compare_p = sub.add_parser("compare", help="select the winning variant from a report")
    compare_p.add_argument("--report", required=True)
    compare_p.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.command == "deploy":
            protocol_text = Path(args.protocol).read_text("utf-8")
            manifest_paths = [Path(m) for m in args.bundle]
            manifests = [parse_manifest(m.read_text("utf-8")) for m in manifest_paths]
            # a protocol-only deploy moves no layers, so it needs no source store
            source = _source_store_for(manifest_paths[0], args.source_store) if manifest_paths else None
            record = deploy(
                protocol_text,
                manifests,
                resolve_target(args.target),
                _load_link(args.link),
                source,
            )
            if args.json:
                print(json.dumps(record.to_object(), sort_keys=True, indent=2))
            else:
                print(
                    f"deployed {record.experiment_id}: {record.payload_bytes} payload bytes "
                    f"(+{record.manifest_bytes + record.protocol_bytes} metadata) "
                    f"in {record.duration_s:.1f}s simulated"
                )
            return 0

        if args.command == "status":
            result = status(
                resolve_target(args.target),
                experiment_id=args.experiment,
                link=_load_link(args.link),
            )
            if args.json:
                print(json.dumps(result, sort_keys=True, indent=2))
            elif "experiments" in result:
                for entry in result["experiments"]:
                    print(f"{entry['experiment_id']:<32} {entry['state']}")
            else:
                print(f"{result['experiment_id']}: {result['state']}")
                for event in result["last_events"]:
                    print(f"  t={event['t_us']}us {event['kind']}")
            return 0

        if args.command == "fetch":
            out_path = fetch(
                resolve_target(args.target),
                args.experiment,
                Path(args.out),
                link=_load_link(args.link),
            )
            print(f"fetched {out_path}")
            return 0

        if args.command == "compare":
            report = report_from_json(Path(args.report).read_text("utf-8"))
            decision = compare(report)
            if args.json:
                print(decision.to_json(), end="")
            else:
                _print_decision(decision)
            return 0
    # ValueError: an input that does not load or a missing option; OSError: a file that cannot be read;
    # ArtifactError: a deploy the link, the source store or the vehicle's store cannot complete
    # UplinkFailed: a fetch whose chunk ran out of retransmissions
    except (Unreachable, UplinkFailed, ArtifactError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    return 1
