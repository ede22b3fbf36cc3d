"""Violation-window semantics."""

from __future__ import annotations

import random

import pytest

from cexp import resmon as R


def _window(cpu_values, mem=0.0, variant="expA"):
    return [
        R.ResourceSample(variant_id=variant, t_us=i * 500_000, cpu_pct=float(c), mem_mb=mem)
        for i, c in enumerate(cpu_values)
    ]


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


def test_sustained_violation_detected():
    verdict = R.evaluate_window(_window([30, 35, 90, 92, 95]), 80.0, 512.0, 3)
    assert verdict.verdict is R.Verdict.SUSTAINED_VIOLATION
    assert verdict.violating_span == 3 == naive_trailing_run(_window([30, 35, 90, 92, 95]), 80.0, 512.0)
    assert verdict.axis is R.Axis.CPU


def test_all_below_thresholds_is_ok():
    verdict = R.evaluate_window(_window([10, 20, 30]), 80.0, 512.0, 3)
    assert verdict == R.ViolationVerdict(R.Verdict.OK, R.Axis.NONE, 0)


def test_broken_run_does_not_sustain():
    samples = _window([90, 30, 90, 90])
    verdict = R.evaluate_window(samples, 80.0, 512.0, 3)
    assert verdict.verdict is R.Verdict.OK
    assert verdict.violating_span == 2 == naive_trailing_run(samples, 80.0, 512.0)


def test_empty_window_raises():
    with pytest.raises(R.EmptyWindow):
        R.evaluate_window([], 80.0, 512.0, 3)


def test_memory_axis_reported():
    samples = _window([10, 10], mem=600.0)
    verdict = R.evaluate_window(samples, 80.0, 512.0, 2)
    assert verdict.verdict is R.Verdict.SUSTAINED_VIOLATION
    assert verdict.axis is R.Axis.MEM


def test_cpu_wins_axis_tie():
    samples = [R.ResourceSample("v", 0, cpu_pct=90.0, mem_mb=600.0)]
    verdict = R.evaluate_window(samples, 80.0, 512.0, 1)
    assert verdict.axis is R.Axis.CPU


def test_axis_names_newest_sample_even_when_not_sustained():
    verdict = R.evaluate_window(_window([10, 95]), 80.0, 512.0, 3)
    assert verdict.verdict is R.Verdict.OK
    assert verdict.axis is R.Axis.CPU
    assert verdict.violating_span == 1


def _random_window(rng: random.Random):
    n = rng.randint(1, 20)
    cpu = [rng.choice([rng.uniform(0, 79), rng.uniform(81, 150)]) for _ in range(n)]
    mem = rng.choice([0.0, rng.uniform(0, 511), rng.uniform(513, 1024)])
    return _window(cpu, mem=mem)


def test_equivalence_with_naive_oracle_on_1000_random_windows():
    rng = random.Random(0xA11CE)
    agreements = 0
    for _ in range(1_000):
        samples = _random_window(rng)
        sustain = rng.randint(1, 6)
        verdict = R.evaluate_window(samples, 80.0, 512.0, sustain)
        oracle_span = naive_trailing_run(samples, 80.0, 512.0)
        assert verdict.violating_span == oracle_span
        assert (verdict.verdict is R.Verdict.SUSTAINED_VIOLATION) == (oracle_span >= sustain)
        agreements += 1
    assert agreements == 1_000


def test_monotonicity_of_violating_span():
    rng = random.Random(7)
    for _ in range(200):
        samples = _random_window(rng)
        before = R.evaluate_window(samples, 80.0, 512.0, 3).violating_span
        violating = samples + [R.ResourceSample("expA", 10**9, cpu_pct=99.0, mem_mb=0.0)]
        assert R.evaluate_window(violating, 80.0, 512.0, 3).violating_span == before + 1
        clean = samples + [R.ResourceSample("expA", 10**9, cpu_pct=1.0, mem_mb=0.0)]
        assert R.evaluate_window(clean, 80.0, 512.0, 3).violating_span == 0


def test_evaluate_window_is_deterministic():
    samples = _window([10, 90, 95, 99])
    first = R.evaluate_window(samples, 80.0, 512.0, 2)
    assert all(R.evaluate_window(samples, 80.0, 512.0, 2) == first for _ in range(5))
