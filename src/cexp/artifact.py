"""Content-addressed bundle store, delta download planning, and the
simulated constrained OTA link.

A deployable bundle is a manifest naming content-addressed layers
(sha256 of the raw payload). Re-deploying a bundle only moves the
layers the target does not already hold, which is what keeps remote
updates over a mobile link affordable: most rebuilds change one or two
layers out of many.

The link model is fluid-flow: bytes move at a nominal bandwidth, pause
during outages, and the per-datagram loss percentage applies only to
datagram exchanges (``DatagramLink``), never to this bulk model.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Optional

_DIGEST_RE = re.compile(r"^sha256:[0-9a-f]{64}$")

# Default simulated mobile-link rate: at this figure a 5 GB bundle takes
# almost exactly 14 minutes to pull, the regime a desk-scale testbed
# should reproduce.
DEFAULT_BANDWIDTH_BYTES_PER_S = 5_952_380

# CI-pipeline durations surfaced as display-only provenance in decision
# reports: typical integrate and image-build stage lengths in seconds.
INTEGRATION_S = 240
BUILD_S = 420


class ArtifactError(Exception):
    pass


class DigestMismatch(ArtifactError):
    pass


class StorageFull(ArtifactError):
    pass


class NeverCompletes(ArtifactError):
    """The outage schedule blocks all future progress."""


class ManifestError(ValueError):
    pass


def record_fields(record: Any) -> dict[str, Any]:
    """A dataclass record's fields by name, one level deep. As the
    ``default`` of ``json.dumps`` it writes records nested in records."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def sha256_digest(payload: bytes) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class Layer:
    digest: str
    size_bytes: int
    payload: bytes


def ingest_layer(payload: bytes) -> Layer:
    """Wrap raw bytes as a content-addressed layer."""
    return Layer(digest=sha256_digest(payload), size_bytes=len(payload), payload=payload)


@dataclass(frozen=True)
class LayerRef:
    digest: str
    size: int


@dataclass(frozen=True)
class BundleManifest:
    entrypoint: str
    layers: tuple[LayerRef, ...]

    @property
    def bundle_digest(self) -> str:
        return sha256_digest(self.canonical_bytes())

    def canonical_bytes(self) -> bytes:
        return json.dumps(self, default=record_fields, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def total_bytes(self) -> int:
        return sum(l.size for l in self.layers)


def manifest_from_object(obj: Any) -> BundleManifest:
    if not isinstance(obj, dict) or set(obj.keys()) != {"entrypoint", "layers"}:
        raise ManifestError("manifest must be an object with exactly 'entrypoint' and 'layers'")
    entrypoint = obj["entrypoint"]
    if not isinstance(entrypoint, str) or not entrypoint:
        raise ManifestError("entrypoint must be a nonempty string")
    layers_raw = obj["layers"]
    if not isinstance(layers_raw, list) or len(layers_raw) == 0:
        raise ManifestError("layers must be a nonempty array")
    refs = []
    seen: set[str] = set()
    for i, item in enumerate(layers_raw):
        if not isinstance(item, dict) or set(item.keys()) != {"digest", "size"}:
            raise ManifestError(f"layers[{i}] must be an object with 'digest' and 'size'")
        digest = item["digest"]
        if not isinstance(digest, str) or not _DIGEST_RE.fullmatch(digest):
            raise ManifestError(f"layers[{i}].digest is not a valid sha256 digest")
        if digest in seen:
            raise ManifestError(f"layers[{i}].digest duplicates {digest}")
        seen.add(digest)
        size = item["size"]
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise ManifestError(f"layers[{i}].size must be a nonnegative integer")
        refs.append(LayerRef(digest=digest, size=size))
    return BundleManifest(entrypoint=entrypoint, layers=tuple(refs))


def parse_manifest(text: str) -> BundleManifest:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"malformed manifest JSON: {exc}") from exc
    return manifest_from_object(obj)


def manifest_for_layers(entrypoint: str, layers: Iterable[Layer]) -> BundleManifest:
    return BundleManifest(
        entrypoint=entrypoint,
        layers=tuple(LayerRef(digest=l.digest, size=l.size_bytes) for l in layers),
    )


def plan_delta(manifest: BundleManifest, local_digests: set[str]) -> tuple[list[LayerRef], int]:
    """Layers to fetch (manifest order) and their summed size."""
    missing = [ref for ref in manifest.layers if ref.digest not in local_digests]
    return missing, sum(ref.size for ref in missing)


@dataclass(frozen=True)
class LinkProfile:
    """Constrained OTA link: nominal bandwidth, outage windows, datagram loss.

    Outage intervals are [start_s, end_s) pairs, disjoint and sorted;
    ``end_s = math.inf`` marks a link that never comes back.
    """

    bandwidth_bytes_per_s: int = DEFAULT_BANDWIDTH_BYTES_PER_S
    outage_schedule: tuple[tuple[float, float], ...] = ()
    datagram_loss_pct: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if not (0.0 <= self.datagram_loss_pct < 100.0):
            raise ValueError("datagram_loss_pct must be in [0, 100)")
        prev_end = -math.inf
        for start, end in self.outage_schedule:
            if start < prev_end:
                raise ValueError("outage intervals must be disjoint and sorted")
            if end <= start:
                raise ValueError(f"empty outage interval [{start}, {end})")
            prev_end = end

    def in_outage(self, t_s: float) -> bool:
        return any(start <= t_s < end for start, end in self.outage_schedule)

    def to_object(self) -> dict[str, Any]:
        return {
            "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
            "outage_schedule": [
                [start, None if math.isinf(end) else end] for start, end in self.outage_schedule
            ],
            "datagram_loss_pct": self.datagram_loss_pct,
        }


def link_profile_from_object(obj: Any) -> LinkProfile:
    if not isinstance(obj, dict):
        raise ValueError("link profile must be an object")
    schedule = []
    for pair in obj.get("outage_schedule", []):
        start, end = pair
        schedule.append((float(start), math.inf if end is None else float(end)))
    return LinkProfile(
        bandwidth_bytes_per_s=int(obj.get("bandwidth_bytes_per_s", DEFAULT_BANDWIDTH_BYTES_PER_S)),
        outage_schedule=tuple(schedule),
        datagram_loss_pct=float(obj.get("datagram_loss_pct", 0.0)),
    )


def transfer(byte_count: int, link: LinkProfile, start_t: float = 0.0) -> float:
    """Completion time (seconds) of a bulk transfer started at ``start_t``.

    Bytes flow at the nominal bandwidth except during outages, which pause
    progress entirely. Deterministic; loss percentage does not apply to
    the bulk model. Raises ``NeverCompletes`` when an infinite outage
    blocks the remaining bytes.
    """
    if byte_count < 0:
        raise ValueError("byte_count must be >= 0")
    if byte_count == 0:
        return start_t
    remaining_s = byte_count / link.bandwidth_bytes_per_s
    t = start_t
    for out_start, out_end in link.outage_schedule:
        if out_end <= t:
            continue
        if out_start > t:
            flowing = out_start - t
            if flowing >= remaining_s:
                return t + remaining_s
            remaining_s -= flowing
        if math.isinf(out_end):
            raise NeverCompletes("infinite outage before transfer completes")
        t = max(t, out_end)
    return t + remaining_s


class DatagramLink:
    """Per-datagram delivery simulation over the same OTA profile.

    ``deliver(t_s)`` answers whether one datagram sent at simulated time
    ``t_s`` arrives: never during an outage, and otherwise subject to the
    seeded loss draw. Single-client; deterministic for a fixed seed and
    call sequence.
    """

    def __init__(self, profile: LinkProfile, seed: int = 0) -> None:
        self.profile = profile
        self._rng = random.Random(seed)

    def deliver(self, t_s: float = 0.0) -> bool:
        if self.profile.in_outage(t_s):
            return False
        if self.profile.datagram_loss_pct == 0.0:
            return True
        return self._rng.random() >= self.profile.datagram_loss_pct / 100.0


@dataclass(frozen=True)
class TransferRecord:
    """Outcome of one simulated bulk fetch."""

    bytes_moved: int
    started_t: float
    completed_t: float
    layers_fetched: tuple[str, ...]

    @property
    def duration_s(self) -> float:
        return self.completed_t - self.started_t

    def to_object(self) -> dict[str, Any]:
        return {**record_fields(self), "duration_s": self.duration_s}


class LayerStore:
    """On-disk content-addressed store.

    Layout: ``<root>/layers/<digest>`` and
    ``<root>/manifests/<bundle_digest>.json``. Writes go through a
    temp-file rename so a layer is either fully present or absent;
    re-ingesting an existing layer is a no-op.
    """

    def __init__(self, root: str | Path, capacity_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        self.capacity_bytes = capacity_bytes
        (self.root / "layers").mkdir(parents=True, exist_ok=True)
        (self.root / "manifests").mkdir(parents=True, exist_ok=True)

    def _layer_path(self, digest: str) -> Path:
        return self.root / "layers" / digest

    def has(self, digest: str) -> bool:
        return self._layer_path(digest).is_file()

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.root / "layers").iterdir() if p.is_file())

    def get(self, digest: str) -> bytes:
        path = self._layer_path(digest)
        if not path.is_file():
            raise KeyError(digest)
        return path.read_bytes()

    def put(self, payload: bytes, expected_digest: Optional[str] = None) -> Layer:
        """Verify and store one layer. Raises ``DigestMismatch`` when the
        payload does not hash to ``expected_digest``, ``StorageFull`` when a
        capacity cap would be exceeded."""
        layer = ingest_layer(payload)
        if expected_digest is not None and layer.digest != expected_digest:
            raise DigestMismatch(f"expected {expected_digest}, payload hashes to {layer.digest}")
        path = self._layer_path(layer.digest)
        if path.is_file():
            return layer  # idempotent re-ingest
        if self.capacity_bytes is not None and self.total_bytes() + layer.size_bytes > self.capacity_bytes:
            raise StorageFull(
                f"storing {layer.size_bytes} bytes would exceed cap of {self.capacity_bytes}"
            )
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        return layer

    def put_manifest(self, manifest: BundleManifest) -> Path:
        path = self.root / "manifests" / f"{manifest.bundle_digest}.json"
        if path.is_file():
            return path  # named by its digest: the stored copy is this manifest
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(manifest.canonical_bytes())
        os.replace(tmp, path)
        return path


def fetch_bundle(
    manifest: BundleManifest,
    link: LinkProfile,
    local_store: LayerStore,
    source: LayerStore,
    start_t: float = 0.0,
) -> TransferRecord:
    """Delta-fetch a bundle over the simulated link into ``local_store``.

    Only layers missing locally are moved (``plan_delta``); completion time
    comes from the bulk ``transfer`` model. A layer that does not hash to
    its digest raises ``DigestMismatch`` and is not stored; layers stored
    before it stay.
    """
    # probe only the manifest's layers: the store may hold many others
    local = {ref.digest for ref in manifest.layers if local_store.has(ref.digest)}
    plan, total = plan_delta(manifest, local)
    completed_t = transfer(total, link, start_t)
    for ref in plan:
        local_store.put(source.get(ref.digest), expected_digest=ref.digest)
    local_store.put_manifest(manifest)
    return TransferRecord(
        bytes_moved=total,
        started_t=start_t,
        completed_t=completed_t,
        layers_fetched=tuple(ref.digest for ref in plan),
    )
