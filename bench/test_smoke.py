"""Smoke test of the benchmark itself, at the tiny size (a few seconds in all).

    python3 -m pytest bench/test_smoke.py -q

Every workload, untraced and traced, must pass its gate and emit every
metric ``BENCHMARK.json`` names, with its unit; the gate must fail on a
wrong decision or a nondeterministic report; and without the program next
to it the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

import run  # noqa: E402  (bench/run.py; pytest puts this directory on sys.path)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed["ops_total"] == printed["ops_failed"] == "count"
    assert any(re.fullmatch(r"report_sha256 [0-9a-f]{64}", line) for line in lines)
    assert any(line.startswith("env ") and '"nproc"' in line for line in lines)


def run_tiny_in_process(capsys, workload="ab_long"):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--size", "tiny"])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_gate_fails_on_a_wrong_decision(monkeypatch, capsys):
    run.import_program()
    from cexp import hqcli

    compare = hqcli.compare
    monkeypatch.setattr(hqcli, "compare", lambda *a, **k: dataclasses.replace(compare(*a, **k), winner="prod"))
    code, result = run_tiny_in_process(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_gate_fails_on_a_nondeterministic_report(monkeypatch, capsys):
    run.import_program()
    from cexp import harness

    run_scenario = harness.run_scenario
    drift = itertools.count()

    def drifting(scenario, data_dir=None):
        frames = dataclasses.replace(scenario.frames, seed=scenario.frames.seed + next(drift))
        return run_scenario(dataclasses.replace(scenario, frames=frames), data_dir=data_dir)

    monkeypatch.setattr(harness, "run_scenario", drifting)
    code, result = run_tiny_in_process(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ab_long", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
