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

from .artifact import _DIGEST_RE, SchemaError, record_fields, record_from_object

MAX_EXPERIMENT_ID_LEN = 64
MIN_SAMPLE_PERIOD_MS = 50
MAX_SAMPLE_PERIOD_MS = 10_000
MAX_CONCURRENT_BOUND = 2  # the testbed never runs more than two experiments at once


class ProtocolSyntaxError(ValueError):
    """Document is not well-formed JSON."""


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

    def __post_init__(self) -> None:
        if self.kind == "PERIODIC":
            if self.interval_s is None or self.interval_s < 1:
                raise ConstraintError("upload_policy", f"PERIODIC interval must be >= 1, got {self.interval_s}")
        elif self.kind != "AT_END":
            raise ConstraintError("upload_policy", f"unknown policy {self.kind!r}")


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

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ConstraintError("experiment_id", "must be nonempty")
        if len(self.experiment_id) > MAX_EXPERIMENT_ID_LEN:
            raise ConstraintError(
                "experiment_id", f"length {len(self.experiment_id)} exceeds {MAX_EXPERIMENT_ID_LEN}"
            )
        if not self.variants:
            raise ConstraintError("variants", "at least one variant is required")
        seen: set[str] = set()
        for i, v in enumerate(self.variants):
            if not v.variant_id:
                raise ConstraintError(f"variants[{i}].variant_id", "must be nonempty")
            if v.variant_id in seen:
                raise ConstraintError(f"variants[{i}].variant_id", f"duplicate variant_id {v.variant_id!r}")
            seen.add(v.variant_id)
            if not _DIGEST_RE.fullmatch(v.bundle_digest):
                raise ConstraintError(f"variants[{i}].bundle_digest", f"not a valid sha256 digest: {v.bundle_digest!r}")
        production_count = sum(1 for v in self.variants if v.role is Role.PRODUCTION)
        if production_count != 1:
            raise ConstraintError("variants", f"exactly one PRODUCTION variant required, got {production_count}")
        if not (0.0 < self.cpu_threshold_pct <= 100.0):
            raise ConstraintError("cpu_threshold_pct", f"must be in (0, 100], got {self.cpu_threshold_pct}")
        if self.mem_threshold_mb <= 0:
            raise ConstraintError("mem_threshold_mb", f"must be positive, got {self.mem_threshold_mb}")
        if self.sustain_samples < 1:
            raise ConstraintError("sustain_samples", f"must be >= 1, got {self.sustain_samples}")
        if not (MIN_SAMPLE_PERIOD_MS <= self.sample_period_ms <= MAX_SAMPLE_PERIOD_MS):
            raise ConstraintError(
                "sample_period_ms",
                f"must be in [{MIN_SAMPLE_PERIOD_MS}, {MAX_SAMPLE_PERIOD_MS}], got {self.sample_period_ms}",
            )
        if self.degrade_grace_samples < 1:
            raise ConstraintError("degrade_grace_samples", f"must be >= 1, got {self.degrade_grace_samples}")
        if self.max_duration_s <= 0:
            raise ConstraintError("max_duration_s", f"must be positive, got {self.max_duration_s}")
        if not (1 <= self.max_concurrent_experiments <= MAX_CONCURRENT_BOUND):
            raise ConstraintError(
                "max_concurrent_experiments",
                f"must be in [1, {MAX_CONCURRENT_BOUND}], got {self.max_concurrent_experiments}",
            )
        experimental_count = len(self.variants) - production_count
        if experimental_count > self.max_concurrent_experiments:
            raise ConstraintError(
                "variants",
                f"{experimental_count} EXPERIMENTAL variants exceed "
                f"max_concurrent_experiments={self.max_concurrent_experiments}",
            )
        if self.sustain_samples * self.sample_period_ms >= self.max_duration_s * 1000:
            raise ConstraintError(
                "sustain_samples",
                "sustain_samples * sample_period_ms must be shorter than max_duration_s",
            )


def _upload_policy_fields(raw: Any) -> dict[str, Any]:
    """``upload_policy``'s concrete syntax, ``"AT_END"`` or ``{"PERIODIC": <seconds>}``,
    as the fields of ``UploadPolicy``."""
    if raw == "AT_END":
        return {"kind": "AT_END"}
    if type(raw) is dict and raw.keys() == {"PERIODIC"}:
        return {"kind": "PERIODIC", "interval_s": raw["PERIODIC"]}
    raise SchemaError("upload_policy", f'expected "AT_END" or {{"PERIODIC": <seconds>}}, got {raw!r}')


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
    if type(obj) is dict and "upload_policy" in obj:
        obj = {**obj, "upload_policy": _upload_policy_fields(obj["upload_policy"])}
    return record_from_object(ExperimentationProtocol, obj)


def protocol_to_object(p: ExperimentationProtocol) -> dict[str, Any]:
    """The protocol as the plain JSON object of its concrete syntax: its
    fields, with each variant's role by value and the upload policy as its
    string or ``{"PERIODIC": <seconds>}`` form."""
    policy: Any = "AT_END" if p.upload_policy.kind == "AT_END" else {"PERIODIC": p.upload_policy.interval_s}
    variants = [{**record_fields(v), "role": v.role.value, "launch_args": list(v.launch_args)} for v in p.variants]
    return {**record_fields(p), "variants": variants, "upload_policy": policy}


def serialize_protocol(p: ExperimentationProtocol) -> str:
    """Canonical document text: sorted keys, compact separators.

    ``parse_protocol(serialize_protocol(p))`` equals ``p`` for any valid
    protocol, and serializing twice is byte-stable.
    """
    return json.dumps(protocol_to_object(p), sort_keys=True, separators=(",", ":"))
