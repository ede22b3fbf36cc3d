"""Byte-level pins on the demo scenarios' artifacts.

Each ``scenarios/*.json`` file runs through ``ceharness run`` (and
``ab_500`` also through ``cesupd --fake-clock``) into a fresh directory;
every file the run leaves must hash to the digest recorded here. A change
to the run loop, the event order or any writer that moves one byte of a
fake-clock run fails this test.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from cexp import harness as H
from cexp import supervisor as S

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

AB_500 = {
    "data/exp-ab-500/events.jsonl": "6bbfe59061e1befa5db70442012fe4746ee7f4f537fb1f4c0e2aa83d8425cf88",
    "data/exp-ab-500/logs/expA.jsonl": "08199af0d2ced5c98bb0882e12f8531b261d5ae86c070643eab8280a4f31c657",
    "data/exp-ab-500/logs/expB.jsonl": "5a6ee185484993760b84ca0ef8aa2a65ea8edacc2fdd5ae2967d4bd14e9c233b",
    "data/exp-ab-500/logs/prod.jsonl": "7e180f58accbdf181622b981962f3b688d72be8ab78f9cb0efb1fd0415cbe376",
    "data/exp-ab-500/report.json": "a2049d8c8ab2463324d592c7e1c43fc0a1f377386da468fe671e3aa68a41e0be",
    "data/exp-ab-500/status.json": "33ef90556f38744f4646b33ff3ffbae21cc703a7cdbf564d9e4969edc193affa",
    "hq/exp-ab-500/report.json": "a2049d8c8ab2463324d592c7e1c43fc0a1f377386da468fe671e3aa68a41e0be",
}

GOLDEN = {
    "ab_500": AB_500,
    "failover": {
        "data/exp-failover/events.jsonl": "606a5797338a88e46c1fbd6ed710c18e244e36b278a88769523b62555367aea4",
        "data/exp-failover/failover.jsonl": "829015c523efa16bd817b5784d234b8d5e116d5af0e9373d3c3d4923ec250af6",
        "data/exp-failover/logs/expA.jsonl": "08199af0d2ced5c98bb0882e12f8531b261d5ae86c070643eab8280a4f31c657",
        "data/exp-failover/logs/expB.jsonl": "5a6ee185484993760b84ca0ef8aa2a65ea8edacc2fdd5ae2967d4bd14e9c233b",
        "data/exp-failover/logs/prod.jsonl": "7e180f58accbdf181622b981962f3b688d72be8ab78f9cb0efb1fd0415cbe376",
        "data/exp-failover/report.json": "35259f15d35083bbb01abf866904935b60a5b3e9b8bb87837138d4ba62fb0792",
        "data/exp-failover/status.json": "403ca1a413a5c501e36680cf5ae5f9f485fa0d745b70fe978fd71cc106fdceeb",
    },
    "hostile": {
        "data/exp-hostile/events.jsonl": "1592c0d98434f6aef96218b9b18f89222158afbf42185c8bcec1fd5f9d9c36d9",
        "data/exp-hostile/logs/expA.jsonl": "c84054e869f79b2e9a44143da5233ac32d7881003e2fe1fe5ca6f618a38745dc",
        "data/exp-hostile/logs/prod.jsonl": "24ae8b0d3a053329a9efd5e1de9d27aff6bbc787b3eabc36f8aa829938b8de71",
        "data/exp-hostile/report.json": "97ba8f07490d54ad1140b61928a6eaed7f22e913c607178624e53ff6e9b50310",
        "data/exp-hostile/status.json": "4201eecb9e4dc7f01600391914ec84bbdaa315937c9331a5ac8988ed32095efd",
    },
}


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_every_demo_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ceharness_run_reproduces_the_pinned_artifacts(name, tmp_path, capsys):
    code = H.cli_main(
        ["run", "--scenario", str(SCENARIOS / f"{name}.json"), "--data-dir", str(tmp_path)]
    )
    assert code == 0, capsys.readouterr().out
    assert digests(tmp_path) == GOLDEN[name]


def test_cesupd_fake_clock_reproduces_the_ab_500_artifacts(tmp_path, capsys):
    code = S.cli_main(
        [
            "--protocol", str(SCENARIOS / "protocols" / "ab.json"),
            "--data-dir", str(tmp_path),
            "--fake-clock", str(SCENARIOS / "ab_500.json"),
        ]
    )
    assert code == 0, capsys.readouterr().out
    assert digests(tmp_path) == AB_500
