"""Experimentation protocol: schema, validation, and the run lifecycle.

The protocol file is the single deployed artifact that tells the
on-vehicle supervisor what an experiment campaign is allowed to do:
which variants run, what resource budget they get, how violation
enforcement escalates, and how long the campaign lasts. Every other
module consults the parsed value; nothing re-reads the file.

Concrete syntax is a flat UTF-8 JSON object with a closed key set
(unknown keys are rejected). ``serialize_protocol`` emits a canonical
form (sorted keys, no insignificant whitespace) so a protocol file is
byte-stable and diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .artifact import _DIGEST_RE

MAX_EXPERIMENT_ID_LEN = 64
MIN_SAMPLE_PERIOD_MS = 50
MAX_SAMPLE_PERIOD_MS = 10_000
MAX_CONCURRENT_BOUND = 2  # the testbed never runs more than two experiments at once

_PROTOCOL_KEYS = {
    "experiment_id",
    "variants",
    "cpu_threshold_pct",
    "mem_threshold_mb",
    "sustain_samples",
    "sample_period_ms",
    "degrade_grace_samples",
    "max_duration_s",
    "max_concurrent_experiments",
    "upload_policy",
}
_VARIANT_KEYS = {"variant_id", "role", "bundle_digest", "launch_args"}


class ProtocolSyntaxError(ValueError):
    """Document is not well-formed JSON."""


class SchemaError(ValueError):
    """Missing/unknown key or a value of the wrong shape."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


class ConstraintError(ValueError):
    """Well-shaped document that violates a protocol invariant."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


class IllegalTransition(ValueError):
    """Lifecycle event not legal in the current state."""


class Role(Enum):
    PRODUCTION = "PRODUCTION"
    EXPERIMENTAL = "EXPERIMENTAL"


class ExperimentState(Enum):
    PENDING = "PENDING"
    DEPLOYING = "DEPLOYING"
    RUNNING = "RUNNING"
    DEGRADED = "DEGRADED"
    COMPLETED = "COMPLETED"
    ABORTED = "ABORTED"


class ExperimentEvent(Enum):
    DEPLOY_OK = "DEPLOY_OK"
    START = "START"
    DEGRADE = "DEGRADE"
    COMPLETE = "COMPLETE"
    ABORT = "ABORT"


# The full legal-transition table. Anything not listed raises.
_TRANSITIONS: dict[tuple[ExperimentState, ExperimentEvent], ExperimentState] = {
    (ExperimentState.PENDING, ExperimentEvent.DEPLOY_OK): ExperimentState.DEPLOYING,
    (ExperimentState.DEPLOYING, ExperimentEvent.START): ExperimentState.RUNNING,
    (ExperimentState.RUNNING, ExperimentEvent.DEGRADE): ExperimentState.DEGRADED,
    (ExperimentState.RUNNING, ExperimentEvent.COMPLETE): ExperimentState.COMPLETED,
    (ExperimentState.RUNNING, ExperimentEvent.ABORT): ExperimentState.ABORTED,
    (ExperimentState.DEGRADED, ExperimentEvent.COMPLETE): ExperimentState.COMPLETED,
    (ExperimentState.DEGRADED, ExperimentEvent.ABORT): ExperimentState.ABORTED,
}

TERMINAL_STATES = frozenset({ExperimentState.COMPLETED, ExperimentState.ABORTED})


def transition(state: ExperimentState, event: ExperimentEvent) -> ExperimentState:
    """Next lifecycle state, or ``IllegalTransition`` for any pair not in the table."""
    try:
        return _TRANSITIONS[(state, event)]
    except KeyError:
        raise IllegalTransition(f"no transition from {state.value} on {event.value}") from None


@dataclass(frozen=True)
class UploadPolicy:
    """Either upload results once at experiment end, or every ``interval_s`` seconds."""

    kind: str  # "AT_END" | "PERIODIC"
    interval_s: int | None = None

    @classmethod
    def at_end(cls) -> "UploadPolicy":
        return cls(kind="AT_END")

    @classmethod
    def periodic(cls, interval_s: int) -> "UploadPolicy":
        return cls(kind="PERIODIC", interval_s=interval_s)


@dataclass(frozen=True)
class VariantSpec:
    variant_id: str
    role: Role
    bundle_digest: str
    launch_args: tuple[str, ...]


@dataclass(frozen=True)
class ExperimentationProtocol:
    experiment_id: str
    variants: tuple[VariantSpec, ...]
    cpu_threshold_pct: float
    mem_threshold_mb: int
    sustain_samples: int
    sample_period_ms: int
    degrade_grace_samples: int
    max_duration_s: int
    max_concurrent_experiments: int
    upload_policy: UploadPolicy

    def variant(self, variant_id: str) -> VariantSpec:
        for v in self.variants:
            if v.variant_id == variant_id:
                return v
        raise KeyError(variant_id)


def _expect_str(obj: dict[str, Any], field: str) -> str:
    value = obj[field]
    if not isinstance(value, str):
        raise SchemaError(field, f"expected string, got {type(value).__name__}")
    return value


def _expect_int(obj: dict[str, Any], field: str) -> int:
    value = obj[field]
    # bool is an int subclass; a protocol never uses booleans
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(field, f"expected integer, got {type(value).__name__}")
    return value


def _expect_number(obj: dict[str, Any], field: str) -> float:
    value = obj[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(field, f"expected number, got {type(value).__name__}")
    return float(value)


def _check_keys(obj: dict[str, Any], expected: set[str], where: str) -> None:
    missing = expected - obj.keys()
    if missing:
        field = sorted(missing)[0]
        raise SchemaError(f"{where}{field}" if where else field, "missing key")
    unknown = obj.keys() - expected
    if unknown:
        field = sorted(unknown)[0]
        raise SchemaError(f"{where}{field}" if where else field, "unknown key")


def _parse_upload_policy(raw: Any) -> UploadPolicy:
    if isinstance(raw, str):
        if raw != "AT_END":
            raise SchemaError("upload_policy", f"unknown policy {raw!r}")
        return UploadPolicy.at_end()
    if isinstance(raw, dict):
        if set(raw.keys()) != {"PERIODIC"}:
            raise SchemaError("upload_policy", "object form must be {\"PERIODIC\": <seconds>}")
        interval = raw["PERIODIC"]
        if isinstance(interval, bool) or not isinstance(interval, int):
            raise SchemaError("upload_policy", "PERIODIC interval must be an integer")
        if interval < 1:
            raise ConstraintError("upload_policy", f"PERIODIC interval must be >= 1, got {interval}")
        return UploadPolicy.periodic(interval)
    raise SchemaError("upload_policy", f"expected string or object, got {type(raw).__name__}")


def _parse_variant(raw: Any, index: int) -> VariantSpec:
    where = f"variants[{index}]."
    if not isinstance(raw, dict):
        raise SchemaError(f"variants[{index}]", f"expected object, got {type(raw).__name__}")
    _check_keys(raw, _VARIANT_KEYS, where)
    variant_id = _expect_str(raw, "variant_id")
    if not variant_id:
        raise ConstraintError(f"{where}variant_id", "must be nonempty")
    role_raw = _expect_str(raw, "role")
    try:
        role = Role(role_raw)
    except ValueError:
        raise SchemaError(f"{where}role", f"unknown role {role_raw!r}") from None
    digest = _expect_str(raw, "bundle_digest")
    if not _DIGEST_RE.fullmatch(digest):
        raise ConstraintError(f"{where}bundle_digest", f"not a valid sha256 digest: {digest!r}")
    args_raw = raw["launch_args"]
    if not isinstance(args_raw, list) or not all(isinstance(a, str) for a in args_raw):
        raise SchemaError(f"{where}launch_args", "expected list of strings")
    return VariantSpec(variant_id=variant_id, role=role, bundle_digest=digest, launch_args=tuple(args_raw))


def parse_protocol(document: str) -> ExperimentationProtocol:
    """Parse and fully validate a protocol document.

    Raises ``ProtocolSyntaxError`` for malformed JSON, ``SchemaError`` for
    shape problems, and ``ConstraintError`` (naming the field) for
    invariant violations.
    """
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ProtocolSyntaxError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("$", f"expected top-level object, got {type(obj).__name__}")
    _check_keys(obj, _PROTOCOL_KEYS, "")

    experiment_id = _expect_str(obj, "experiment_id")
    if not experiment_id:
        raise ConstraintError("experiment_id", "must be nonempty")
    if len(experiment_id) > MAX_EXPERIMENT_ID_LEN:
        raise ConstraintError(
            "experiment_id", f"length {len(experiment_id)} exceeds {MAX_EXPERIMENT_ID_LEN}"
        )

    variants_raw = obj["variants"]
    if not isinstance(variants_raw, list):
        raise SchemaError("variants", f"expected array, got {type(variants_raw).__name__}")
    if len(variants_raw) < 1:
        raise ConstraintError("variants", "at least one variant is required")
    variants = tuple(_parse_variant(v, i) for i, v in enumerate(variants_raw))

    seen_ids: set[str] = set()
    for v in variants:
        if v.variant_id in seen_ids:
            raise ConstraintError("variants.variant_id", f"duplicate variant_id {v.variant_id!r}")
        seen_ids.add(v.variant_id)

    production_count = sum(1 for v in variants if v.role is Role.PRODUCTION)
    if production_count != 1:
        raise ConstraintError(
            "variants", f"exactly one PRODUCTION variant required, got {production_count}"
        )

    cpu_threshold_pct = _expect_number(obj, "cpu_threshold_pct")
    if not (0.0 < cpu_threshold_pct <= 100.0):
        raise ConstraintError("cpu_threshold_pct", f"must be in (0, 100], got {cpu_threshold_pct}")

    mem_threshold_mb = _expect_int(obj, "mem_threshold_mb")
    if mem_threshold_mb <= 0:
        raise ConstraintError("mem_threshold_mb", f"must be positive, got {mem_threshold_mb}")

    sustain_samples = _expect_int(obj, "sustain_samples")
    if sustain_samples < 1:
        raise ConstraintError("sustain_samples", f"must be >= 1, got {sustain_samples}")

    sample_period_ms = _expect_int(obj, "sample_period_ms")
    if not (MIN_SAMPLE_PERIOD_MS <= sample_period_ms <= MAX_SAMPLE_PERIOD_MS):
        raise ConstraintError(
            "sample_period_ms",
            f"must be in [{MIN_SAMPLE_PERIOD_MS}, {MAX_SAMPLE_PERIOD_MS}], got {sample_period_ms}",
        )

    degrade_grace_samples = _expect_int(obj, "degrade_grace_samples")
    if degrade_grace_samples < 1:
        raise ConstraintError("degrade_grace_samples", f"must be >= 1, got {degrade_grace_samples}")

    max_duration_s = _expect_int(obj, "max_duration_s")
    if max_duration_s <= 0:
        raise ConstraintError("max_duration_s", f"must be positive, got {max_duration_s}")

    max_concurrent = _expect_int(obj, "max_concurrent_experiments")
    if not (1 <= max_concurrent <= MAX_CONCURRENT_BOUND):
        raise ConstraintError(
            "max_concurrent_experiments",
            f"must be in [1, {MAX_CONCURRENT_BOUND}], got {max_concurrent}",
        )

    experimental_count = sum(1 for v in variants if v.role is Role.EXPERIMENTAL)
    if experimental_count > max_concurrent:
        raise ConstraintError(
            "variants",
            f"{experimental_count} EXPERIMENTAL variants exceed "
            f"max_concurrent_experiments={max_concurrent}",
        )

    if sustain_samples * sample_period_ms >= max_duration_s * 1000:
        raise ConstraintError(
            "sustain_samples",
            "sustain_samples * sample_period_ms must be shorter than max_duration_s",
        )

    upload_policy = _parse_upload_policy(obj["upload_policy"])

    return ExperimentationProtocol(
        experiment_id=experiment_id,
        variants=variants,
        cpu_threshold_pct=cpu_threshold_pct,
        mem_threshold_mb=mem_threshold_mb,
        sustain_samples=sustain_samples,
        sample_period_ms=sample_period_ms,
        degrade_grace_samples=degrade_grace_samples,
        max_duration_s=max_duration_s,
        max_concurrent_experiments=max_concurrent,
        upload_policy=upload_policy,
    )


def protocol_to_object(p: ExperimentationProtocol) -> dict[str, Any]:
    """The protocol as the plain JSON object of its concrete syntax."""
    policy: Any = "AT_END" if p.upload_policy.kind == "AT_END" else {"PERIODIC": p.upload_policy.interval_s}
    return {
        "experiment_id": p.experiment_id,
        "variants": [
            {
                "variant_id": v.variant_id,
                "role": v.role.value,
                "bundle_digest": v.bundle_digest,
                "launch_args": list(v.launch_args),
            }
            for v in p.variants
        ],
        "cpu_threshold_pct": p.cpu_threshold_pct,
        "mem_threshold_mb": p.mem_threshold_mb,
        "sustain_samples": p.sustain_samples,
        "sample_period_ms": p.sample_period_ms,
        "degrade_grace_samples": p.degrade_grace_samples,
        "max_duration_s": p.max_duration_s,
        "max_concurrent_experiments": p.max_concurrent_experiments,
        "upload_policy": policy,
    }


def serialize_protocol(p: ExperimentationProtocol) -> str:
    """Canonical document text: sorted keys, compact separators.

    ``parse_protocol(serialize_protocol(p))`` equals ``p`` for any valid
    protocol, and serializing twice is byte-stable.
    """
    return json.dumps(protocol_to_object(p), sort_keys=True, separators=(",", ":"))
