"""Content-addressed bundle store, delta download planning, and the
simulated constrained OTA link.

A deployable bundle is a manifest naming content-addressed layers
(sha256 of the raw payload). Re-deploying a bundle only moves the
layers the target does not already hold, which is what keeps remote
updates over a mobile link affordable: most rebuilds change one or two
layers out of many. For the same reason HQ's store does not hash a layer
it already holds again: a cheap key (size and edge bytes) names a
candidate, and a byte compare against the stored file confirms it, as
rsync's weak checksum finds a block and its strong one confirms it.

The link model is fluid-flow: bytes move at a nominal bandwidth, pause
during outages, and the per-datagram loss percentage applies only to
datagram exchanges (``DatagramLink``), never to this bulk model.

``record_from_object`` is the one reader that turns JSON (a scenario, a
protocol, a manifest, a link profile, a report) into its records.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, get_args, get_origin, get_type_hints

_DIGEST_RE = re.compile(r"^sha256:[0-9a-f]{64}$")

# Default simulated mobile-link rate: at this figure a 5 GB bundle takes
# almost exactly 14 minutes to pull, the regime a desk-scale testbed
# should reproduce.
DEFAULT_BANDWIDTH_BYTES_PER_S = 5_952_380

class ArtifactError(Exception):
    pass


class DigestMismatch(ArtifactError):
    pass


class NeverCompletes(ArtifactError):
    """The outage schedule blocks all future progress."""


class ManifestError(ValueError):
    """A well-typed manifest that breaks a manifest invariant."""


class SchemaError(ValueError):
    """JSON that does not spell its record: a missing or unknown key, or a
    value of the wrong type. ``field`` is the path of the value at fault
    (``frames.count``, ``variants[1].bundle_digest``, ``$`` for the whole
    document), or of the object holding an unknown key."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
        self.message = message


def record_fields(record: Any) -> dict[str, Any]:
    """A dataclass record's fields by name, one level deep. As the
    ``default`` of ``json.dumps`` it writes records nested in records."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _wrong_type(path: str, expected: str, value: Any) -> SchemaError:
    got = f"list of {len(value)}" if type(value) is list else type(value).__name__
    return SchemaError(path or "$", f"expected {expected}, got {got}")


# the JSON types each scalar hint accepts: an int is also a float, a bool is never a number
_SCALARS: dict[Any, tuple[type, ...]] = {str: (str,), bool: (bool,), int: (int,), float: (int, float), dict: (dict,)}

_Read = Callable[[Any, str], Any]  # (JSON value, its path) -> the value read


@functools.cache
def _reader(hint: Any, ignore_unknown: bool) -> _Read:
    """The function that reads a JSON value of type ``hint``; built once per type."""
    if is_dataclass(hint):
        return _record_reader(hint, ignore_unknown)
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if args[1:] == (Ellipsis,):
            item = _reader(args[0], ignore_unknown)

            def read_tuple(value: Any, path: str) -> tuple:
                if type(value) is not list:
                    raise _wrong_type(path, "list", value)
                return tuple([item(v, f"{path}[{i}]") for i, v in enumerate(value)])

            return read_tuple
        items = [_reader(a, ignore_unknown) for a in args]

        def read_fixed(value: Any, path: str) -> tuple:
            if type(value) is not list or len(value) != len(items):
                raise _wrong_type(path, f"list of {len(items)}", value)
            return tuple([read(v, f"{path}[{i}]") for i, (read, v) in enumerate(zip(items, value))])

        return read_fixed
    if type(None) in args:  # Optional[X]
        (inner_hint,) = (a for a in args if a is not type(None))
        inner = _reader(inner_hint, ignore_unknown)
        return lambda value, path: None if value is None else inner(value, path)
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}

        def read_enum(value: Any, path: str) -> Enum:
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an unhashable value
                raise SchemaError(path, f"expected one of {list(members)}, got {value!r}") from None

        return read_enum
    accepted = _SCALARS[hint]
    name = "object" if hint is dict else hint.__name__

    def read_scalar(value: Any, path: str) -> Any:
        if type(value) is hint:
            return value
        if type(value) in accepted:
            return hint(value)  # an int where a float belongs
        raise _wrong_type(path, name, value)

    return read_scalar


def _record_reader(cls: type, ignore_unknown: bool) -> _Read:
    hints = get_type_hints(cls)
    specs = [
        (f.name, f.default is MISSING and f.default_factory is MISSING, _reader(hints[f.name], ignore_unknown))
        for f in fields(cls)
    ]
    known = None if ignore_unknown else frozenset(name for name, _, _ in specs)

    def read_record(value: Any, path: str) -> Any:
        if type(value) is not dict:
            raise _wrong_type(path, "object", value)
        if known is not None and not known.issuperset(value):
            key = next(k for k in value if k not in known)
            raise SchemaError(path, f"unknown key {key!r}")
        prefix = f"{path}." if path else ""
        kwargs = {}
        for name, required, read in specs:
            if name in value:
                kwargs[name] = read(value[name], prefix + name)
            elif required:
                raise SchemaError(prefix + name, "missing key")
        return cls(**kwargs)

    return read_record


def record_from_object(cls: type, obj: Any, ignore_unknown: bool = False) -> Any:
    """Build record ``cls`` from a JSON object keyed by its field names.

    Each value is read by its field's type hint: a record from an object, a
    ``tuple[X, ...]`` or a fixed ``tuple[A, B]`` from a list,
    ``Optional[X]`` from null or an X, an ``Enum`` by its value, a ``dict``
    as the object it is, and ``str``, ``bool``, ``int`` or ``float`` from
    that JSON type alone: an int is accepted as a float, and a bool is never
    a number. An absent key takes the field's default. A missing key, a key
    no field names (unless ``ignore_unknown``, which holds for nested
    records too) or a value of the wrong type raises ``SchemaError`` naming
    its path; a record's ``__post_init__`` refuses values out of range.
    """
    return _reader(cls, ignore_unknown)(obj, "")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``path`` through a temp-file rename: readers see the old bytes or the new.
    A missing parent directory is made on the way."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
    os.replace(tmp, path)


def sha256_digest(payload: bytes) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class Layer:
    digest: str
    size_bytes: int


def ingest_layer(payload: bytes) -> Layer:
    """The content-addressed layer of raw bytes."""
    return Layer(digest=sha256_digest(payload), size_bytes=len(payload))


@dataclass(frozen=True)
class LayerRef:
    digest: str
    size: int


@dataclass(frozen=True)
class BundleManifest:
    entrypoint: str
    layers: tuple[LayerRef, ...]

    def __post_init__(self) -> None:
        if not self.entrypoint:
            raise ManifestError("entrypoint must be a nonempty string")
        if not self.layers:
            raise ManifestError("layers must be a nonempty array")
        seen: set[str] = set()
        for i, ref in enumerate(self.layers):
            if not _DIGEST_RE.fullmatch(ref.digest):
                raise ManifestError(f"layers[{i}].digest is not a valid sha256 digest")
            if ref.digest in seen:
                raise ManifestError(f"layers[{i}].digest duplicates {ref.digest}")
            seen.add(ref.digest)
            if ref.size < 0:
                raise ManifestError(f"layers[{i}].size must be a nonnegative integer")

    # A frozen manifest never changes, so each is canonicalised and hashed
    # once; cached_property stores the value in the instance __dict__,
    # which neither the frozen check nor the field-wise __eq__ sees.
    @functools.cached_property
    def bundle_digest(self) -> str:
        return sha256_digest(self.canonical_bytes())

    @functools.cached_property
    def _canonical(self) -> bytes:
        return json.dumps(self, default=record_fields, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def canonical_bytes(self) -> bytes:
        return self._canonical

    def total_bytes(self) -> int:
        return sum(l.size for l in self.layers)


def manifest_from_object(obj: Any) -> BundleManifest:
    """Read a manifest through ``record_from_object``: a wrong shape raises
    ``SchemaError``, a broken invariant ``ManifestError``."""
    return record_from_object(BundleManifest, obj)


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
        # every test is written so that NaN fails it
        if not self.bandwidth_bytes_per_s > 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if not (0.0 <= self.datagram_loss_pct < 100.0):
            raise ValueError("datagram_loss_pct must be in [0, 100)")
        prev_end = -math.inf
        for start, end in self.outage_schedule:
            if not start < end:
                raise ValueError(f"outage interval [{start}, {end}) must have start < end")
            if not start >= prev_end:
                raise ValueError("outage intervals must be disjoint and sorted")
            prev_end = end

    def in_outage(self, t_s: float) -> bool:
        return any(start <= t_s < end for start, end in self.outage_schedule)

    def to_object(self) -> dict[str, Any]:
        schedule = [[start, None if math.isinf(end) else end] for start, end in self.outage_schedule]
        return {**record_fields(self), "outage_schedule": schedule}


def open_outages(obj: Any) -> Any:
    """A link profile object with each outage's ``null`` end read as ``math.inf``."""
    schedule = obj.get("outage_schedule") if type(obj) is dict else None
    if type(schedule) is not list:
        return obj
    ends = [item[:1] + [math.inf] if type(item) is list and item[1:] == [None] else item for item in schedule]
    return {**obj, "outage_schedule": ends}


def link_profile_from_object(obj: Any) -> LinkProfile:
    """Read a link profile (a ``cectl --link`` file) through
    ``record_from_object``: absent keys take the defaults and a wrong key or
    value raises ``SchemaError``. An outage's ``null`` end is ``math.inf``."""
    return record_from_object(LinkProfile, open_outages(obj))


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


# bytes at each end of a payload that its content key holds
_EDGE_BYTES = 64


class LayerStore:
    """On-disk content-addressed store.

    Layout: ``<root>/layers/<digest>`` and
    ``<root>/manifests/<bundle_digest>.json``, made at the first write.
    Writes go through a temp-file rename so a layer is either fully
    present or absent; re-ingesting an existing layer is a no-op.

    Each store object keeps an in-memory index from a layer's content key
    (its size and first and last ``_EDGE_BYTES`` bytes) to the digest of a
    layer it stored or found stored. ``put`` takes a key's digest without
    hashing only when the stored file reads back equal to the payload, byte
    for byte, so a key that two payloads share, a file deleted or altered
    behind the store and an ``expected_digest`` that differs all fall back
    to hashing. The store trusts its own files, as ``has`` and ``get``
    always have: a file rewritten behind it with another payload of the
    same key is taken for that payload. ``fetch_bundle`` puts only layers
    whose files the receiver lacks, so every fetched layer is hashed.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._digest_by_key: dict[tuple[int, bytes, bytes], str] = {}

    def _layer_path(self, digest: str) -> Path:
        return self.root / "layers" / digest

    def has(self, digest: str) -> bool:
        return self._layer_path(digest).is_file()

    def get(self, digest: str) -> bytes:
        try:
            return self._layer_path(digest).read_bytes()
        except FileNotFoundError:
            raise KeyError(digest) from None

    def put(self, payload: bytes, expected_digest: Optional[str] = None) -> Layer:
        """Verify and store one layer. Raises ``DigestMismatch`` when the
        payload does not hash to ``expected_digest``."""
        key = (len(payload), payload[:_EDGE_BYTES], payload[-_EDGE_BYTES:])
        known = self._digest_by_key.get(key)
        if known is not None and expected_digest in (None, known):
            try:
                if self.get(known) == payload:
                    return Layer(digest=known, size_bytes=len(payload))
            except KeyError:
                pass  # deleted behind the store: hash and write it again
        layer = ingest_layer(payload)
        if expected_digest is not None and layer.digest != expected_digest:
            raise DigestMismatch(f"expected {expected_digest}, payload hashes to {layer.digest}")
        path = self._layer_path(layer.digest)
        if not path.is_file():
            _atomic_write(path, payload)
        self._digest_by_key[key] = layer.digest
        return layer

    def put_manifest(self, manifest: BundleManifest) -> Path:
        path = self.root / "manifests" / f"{manifest.bundle_digest}.json"
        if path.is_file():
            return path  # named by its digest: the stored copy is this manifest
        _atomic_write(path, manifest.canonical_bytes())
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
    its digest raises ``DigestMismatch`` and is not stored, and a layer
    ``source`` lacks raises ``ArtifactError`` naming its digest; layers
    stored before either stay.
    """
    # probe only the manifest's layers: the store may hold many others
    local = {ref.digest for ref in manifest.layers if local_store.has(ref.digest)}
    plan, total = plan_delta(manifest, local)
    completed_t = transfer(total, link, start_t)
    for ref in plan:
        try:
            payload = source.get(ref.digest)
        except KeyError:
            raise ArtifactError(f"source store {source.root} lacks layer {ref.digest}") from None
        local_store.put(payload, expected_digest=ref.digest)
    local_store.put_manifest(manifest)
    return TransferRecord(
        bytes_moved=total,
        started_t=start_t,
        completed_t=completed_t,
        layers_fetched=tuple(ref.digest for ref in plan),
    )
