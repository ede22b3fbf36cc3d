"""Sliding-window violation detection over resource samples.

Modules report their own CPU (percent of one core) and resident memory
(MiB) over the bus; the supervisor turns each report into a
``ResourceSample``. ``evaluate_window`` is the pure function it runs
over the trailing samples of one variant to decide whether a resource
budget has been violated long enough to act on.

Lost samples never count as violations: the window only ever contains
samples that were actually received, so a gap just slides the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

DEFAULT_SAMPLE_PERIOD_MS = 500


class EmptyWindow(ValueError):
    """evaluate_window needs at least one sample."""


class Verdict(Enum):
    OK = "OK"
    SUSTAINED_VIOLATION = "SUSTAINED_VIOLATION"


class Axis(Enum):
    CPU = "CPU"
    MEM = "MEM"
    NONE = "NONE"


@dataclass(frozen=True)
class ResourceSample:
    variant_id: str
    t_us: int
    cpu_pct: float
    mem_mb: float


@dataclass(frozen=True)
class ViolationVerdict:
    verdict: Verdict
    axis: Axis
    violating_span: int


def evaluate_window(
    samples: Sequence[ResourceSample],
    cpu_threshold_pct: float,
    mem_threshold_mb: float,
    sustain_samples: int,
) -> ViolationVerdict:
    """Judge the trailing run of threshold-violating samples.

    A sample violates when cpu_pct > cpu_threshold_pct or
    mem_mb > mem_threshold_mb. The verdict is SUSTAINED_VIOLATION exactly
    when the run of consecutive violating samples ending at the newest
    sample is at least ``sustain_samples`` long. The axis names the bound
    the newest sample exceeds (CPU wins ties), NONE if it exceeds neither.

    Pure and deterministic; safe to share between callers.
    """
    if len(samples) == 0:
        raise EmptyWindow("window must contain at least one sample")

    def violates(s: ResourceSample) -> bool:
        return s.cpu_pct > cpu_threshold_pct or s.mem_mb > mem_threshold_mb

    span = 0
    for sample in reversed(samples):
        if not violates(sample):
            break
        span += 1

    newest = samples[-1]
    if newest.cpu_pct > cpu_threshold_pct:
        axis = Axis.CPU
    elif newest.mem_mb > mem_threshold_mb:
        axis = Axis.MEM
    else:
        axis = Axis.NONE

    verdict = Verdict.SUSTAINED_VIOLATION if span >= sustain_samples else Verdict.OK
    return ViolationVerdict(verdict=verdict, axis=axis, violating_span=span)
