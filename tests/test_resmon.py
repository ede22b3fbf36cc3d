"""Violation-window semantics of the O(1) step, against a naive re-scan."""

from __future__ import annotations

import random

from cexp import resmon as R
from cexp.wirebus import ResourceReport


def _samples(cpu_values, mem=0.0, variant="expA"):
    return [ResourceReport(variant, float(c), mem) for c in cpu_values]


def naive_trailing_run(samples, cpu_th, mem_th):
    """Independent O(N) re-scan oracle: walk the whole window, tracking the
    run of violating samples that ends at the newest one."""
    run = 0
    for s in samples:
        if s.cpu_pct > cpu_th or s.mem_mb > mem_th:
            run += 1
        else:
            run = 0
    return run


def naive_axis(sample, cpu_th, mem_th):
    if sample.cpu_pct > cpu_th:
        return R.Axis.CPU
    if sample.mem_mb > mem_th:
        return R.Axis.MEM
    return R.Axis.NONE


def fold_verdicts(samples, cpu_th, mem_th, sustain, window):
    """The verdict after each sample, as the supervisor folds the step over
    one variant's reports: each call gets the span the one before returned."""
    verdicts = []
    span = 0
    for s in samples:
        verdict = R.evaluate_window(span, s.cpu_pct, s.mem_mb, cpu_th, mem_th, sustain, window)
        span = verdict.violating_span
        verdicts.append(verdict)
    return verdicts


def assert_agrees_with_naive_rescan(samples, cpu_th, mem_th, sustain, window):
    """At every step: the span is the naive run over the trailing ``window``
    samples, the verdict is SUSTAINED exactly when that run reaches
    ``sustain``, and the axis is the newest sample's."""
    for i, verdict in enumerate(fold_verdicts(samples, cpu_th, mem_th, sustain, window)):
        oracle_span = naive_trailing_run(samples[max(0, i + 1 - window) : i + 1], cpu_th, mem_th)
        assert verdict.violating_span == oracle_span
        assert (verdict.verdict is R.Verdict.SUSTAINED_VIOLATION) == (oracle_span >= sustain)
        assert verdict.axis is naive_axis(samples[i], cpu_th, mem_th)


def test_sustained_violation_detected():
    samples = _samples([30, 35, 90, 92, 95])
    verdict = fold_verdicts(samples, 80.0, 512.0, 3, 10)[-1]
    assert verdict.verdict is R.Verdict.SUSTAINED_VIOLATION
    assert verdict.violating_span == 3 == naive_trailing_run(samples, 80.0, 512.0)
    assert verdict.axis is R.Axis.CPU


def test_all_below_thresholds_is_ok():
    verdict = fold_verdicts(_samples([10, 20, 30]), 80.0, 512.0, 3, 10)[-1]
    assert verdict == R.ViolationVerdict(R.Verdict.OK, R.Axis.NONE, 0)


def test_broken_run_does_not_sustain():
    samples = _samples([90, 30, 90, 90])
    verdict = fold_verdicts(samples, 80.0, 512.0, 3, 10)[-1]
    assert verdict.verdict is R.Verdict.OK
    assert verdict.violating_span == 2 == naive_trailing_run(samples, 80.0, 512.0)


def test_first_sample_starts_from_an_empty_run():
    first = R.evaluate_window(0, 90.0, 0.0, 80.0, 512.0, 1, 3)
    assert first == R.ViolationVerdict(R.Verdict.SUSTAINED_VIOLATION, R.Axis.CPU, 1)
    assert R.evaluate_window(0, 90.0, 0.0, 80.0, 512.0, 2, 3).verdict is R.Verdict.OK
    assert R.evaluate_window(0, 10.0, 0.0, 80.0, 512.0, 1, 3) == R.ViolationVerdict(R.Verdict.OK, R.Axis.NONE, 0)


def test_memory_axis_reported():
    verdict = fold_verdicts(_samples([10, 10], mem=600.0), 80.0, 512.0, 2, 10)[-1]
    assert verdict.verdict is R.Verdict.SUSTAINED_VIOLATION
    assert verdict.axis is R.Axis.MEM


def test_cpu_wins_axis_tie():
    verdict = R.evaluate_window(0, 90.0, 600.0, 80.0, 512.0, 1, 3)
    assert verdict.axis is R.Axis.CPU


def test_axis_names_newest_sample_even_when_not_sustained():
    verdict = fold_verdicts(_samples([10, 95]), 80.0, 512.0, 3, 10)[-1]
    assert verdict.verdict is R.Verdict.OK
    assert verdict.axis is R.Axis.CPU
    assert verdict.violating_span == 1


def test_a_nan_sample_never_violates():
    verdict = R.evaluate_window(4, float("nan"), float("nan"), 80.0, 512.0, 1, 5)
    assert verdict == R.ViolationVerdict(R.Verdict.OK, R.Axis.NONE, 0)


def test_span_is_capped_at_the_window():
    spans = [v.violating_span for v in fold_verdicts(_samples([99] * 8), 80.0, 512.0, 2, 5)]
    assert spans == [1, 2, 3, 4, 5, 5, 5, 5]


def _random_sequence(rng: random.Random):
    n = rng.randint(1, 40)
    mem = rng.choice([0.0, rng.uniform(0, 511), rng.uniform(513, 1024)])
    samples = []
    for _ in range(n):
        cpu = rng.choice([rng.uniform(0, 79), rng.uniform(81, 150)])
        if rng.random() < 0.2:  # the memory bound alone, now and then
            mem = rng.choice([rng.uniform(0, 511), rng.uniform(513, 1024)])
        samples.append(ResourceReport("expA", cpu, mem))
    return samples


def test_equivalence_with_naive_oracle_on_1000_random_windows():
    rng = random.Random(0xA11CE)
    for _ in range(1_000):
        samples = _random_sequence(rng)
        sustain = rng.randint(1, 6)
        grace = rng.randint(1, 6)
        assert_agrees_with_naive_rescan(samples, 80.0, 512.0, sustain, sustain + grace)


def test_monotonicity_of_violating_span():
    rng = random.Random(7)
    for _ in range(200):
        samples = _random_sequence(rng)
        before = fold_verdicts(samples, 80.0, 512.0, 3, 5)[-1].violating_span
        violating = fold_verdicts(samples + [ResourceReport("expA", 99.0, 0.0)], 80.0, 512.0, 3, 5)
        assert violating[-1].violating_span == min(before + 1, 5)
        clean = fold_verdicts(samples + [ResourceReport("expA", 1.0, 0.0)], 80.0, 512.0, 3, 5)
        assert clean[-1].violating_span == 0


def test_evaluate_window_is_deterministic():
    samples = _samples([10, 90, 95, 99])
    first = fold_verdicts(samples, 80.0, 512.0, 2, 4)
    assert all(fold_verdicts(samples, 80.0, 512.0, 2, 4) == first for _ in range(5))
