"""Violation detection over a variant's stream of resource samples.

Modules report their own CPU (percent of one core) and resident memory
(MiB) over the bus. ``evaluate_window`` is the pure step the supervisor
folds over each variant's received samples, one call per sample, to
decide whether a resource budget has been violated long enough to act
on.

The window is the trailing ``window_samples`` received samples, and the
verdict depends only on the run of violating samples that ends at the
newest one. So the state carried from one step to the next is that
run's length, capped at the window: O(1) per variant, whatever the run
length. Lost samples never count as violations: only received samples
enter the run, so a gap neither extends nor breaks it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Verdict(Enum):
    OK = "OK"
    SUSTAINED_VIOLATION = "SUSTAINED_VIOLATION"


class Axis(Enum):
    CPU = "CPU"
    MEM = "MEM"
    NONE = "NONE"


class ViolationVerdict(NamedTuple):
    verdict: Verdict
    axis: Axis
    violating_span: int


# the verdict on every sample within budget; records are immutable, so one is shared
_WITHIN_BUDGET = ViolationVerdict(Verdict.OK, Axis.NONE, 0)


def evaluate_window(
    previous_span: int,
    cpu_pct: float,
    mem_mb: float,
    cpu_threshold_pct: float,
    mem_threshold_mb: float,
    sustain_samples: int,
    window_samples: int,
) -> ViolationVerdict:
    """Judge the window once the newest sample (``cpu_pct``, ``mem_mb``)
    has joined it; ``previous_span`` is the ``violating_span`` of the
    step before (0 for the first sample).

    A sample violates when cpu_pct > cpu_threshold_pct or
    mem_mb > mem_threshold_mb. ``violating_span`` is the run of
    consecutive violating samples ending at the newest one, counted
    within the trailing ``window_samples``. The verdict is
    SUSTAINED_VIOLATION exactly when that run is at least
    ``sustain_samples`` long. The axis names the bound the newest sample
    exceeds (CPU wins ties), NONE if it exceeds neither.

    Pure and deterministic; safe to share between callers.
    """
    if cpu_pct > cpu_threshold_pct:
        axis = Axis.CPU
    elif mem_mb > mem_threshold_mb:
        axis = Axis.MEM
    else:
        return _WITHIN_BUDGET
    span = min(previous_span + 1, window_samples)
    verdict = Verdict.SUSTAINED_VIOLATION if span >= sustain_samples else Verdict.OK
    return ViolationVerdict(verdict, axis, span)
