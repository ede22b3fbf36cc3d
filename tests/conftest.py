"""Shared builders for protocol documents and scenario objects."""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Any

import pytest

from cexp import harness
from cexp.artifact import BundleManifest, LayerStore, parse_manifest
from cexp.wirebus import LoopbackBus, Received, SocketError, UdpMulticastBus, decode, encode


class RecordingBus(LoopbackBus):
    """Loopback bus whose ``history`` records every delivered message, for
    tests that audit a run's traffic. The recorder subscribes before anyone
    else, so the history is in publish order: a command published while a
    resource report fans out lands after that report."""

    def __init__(self) -> None:
        super().__init__()
        self.history: list[Received] = []
        self.subscribe(callback=self.history.append)


class TickingClock:
    """A clock that, like wall time, has moved on by the next read: every
    read is one microsecond later than the one before. ``advance_to`` is a
    wait: it jumps ahead without reads, never back."""

    def __init__(self) -> None:
        self._now_us = 0

    def now_us(self) -> int:
        self._now_us += 1
        return self._now_us

    def advance_to(self, t_us: int) -> None:
        self._now_us = max(self._now_us, t_us)


@pytest.fixture
def recording_bus(monkeypatch):
    """``run_scenario`` builds a ``RecordingBus``; read it as ``outcome.bus``."""
    monkeypatch.setattr(harness, "LoopbackBus", RecordingBus)
    return RecordingBus


def wire_bytes(item: Received | bytes) -> bytes:
    """The datagram a UDP endpoint would send for a published item: a
    sender's ``Received`` encoded, raw bytes as they are."""
    if type(item) is not Received:
        return item
    envelope = item.envelope
    return encode(item.message, envelope.sender_id, envelope.seq, envelope.timestamp_us)


class WireHashingBus(LoopbackBus):
    """Loopback bus that hashes the datagram of every item published on it
    (``wire_bytes``), each prefixed by its length, in publish order (an
    item published while another fans out comes after that one), then
    delivers the item as usual."""

    def __init__(self) -> None:
        super().__init__()
        self.wire = hashlib.sha256()
        self.datagrams = 0

    def publish(self, item: Received | bytes) -> None:
        datagram = wire_bytes(item)
        self.wire.update(len(datagram).to_bytes(4, "little") + datagram)
        self.datagrams += 1
        super().publish(item)


@pytest.fixture
def wire_hashing_bus(monkeypatch):
    """``run_scenario`` builds a ``WireHashingBus``; read it as ``outcome.bus``."""
    monkeypatch.setattr(harness, "LoopbackBus", WireHashingBus)
    return WireHashingBus


def field_types(record: tuple) -> tuple[type, ...]:
    return (type(record), *map(type, record))


class RecordCheckingBus(LoopbackBus):
    """Loopback bus that round-trips each record a sender hands over through
    ``encode`` and ``decode``: the same envelope and message come back,
    equal and with the same type in every field. ``handed_over`` counts the
    checked records and ``raw`` the raw datagrams published."""

    def __init__(self) -> None:
        super().__init__()
        self.handed_over = 0
        self.raw = 0

    def publish(self, item: Received | bytes) -> None:
        if type(item) is Received:
            for given, decoded in zip(item, decode(wire_bytes(item))):
                assert given == decoded, (given, decoded)
                assert field_types(given) == field_types(decoded), (given, decoded)
            self.handed_over += 1
        else:
            self.raw += 1
        super().publish(item)


@pytest.fixture
def record_checking_bus(monkeypatch):
    """``run_scenario`` builds a ``RecordCheckingBus``; read it as ``outcome.bus``."""
    monkeypatch.setattr(harness, "LoopbackBus", RecordCheckingBus)
    return RecordCheckingBus


def layer_digests(store: LayerStore) -> set[str]:
    """The digests of the layers ``store`` holds, read off its directory
    (absent until the store's first write)."""
    layers = store.root / "layers"
    return {p.name for p in layers.iterdir() if p.is_file()} if layers.is_dir() else set()


def stored_manifest(store: LayerStore, bundle_digest: str) -> BundleManifest:
    return parse_manifest((store.root / "manifests" / f"{bundle_digest}.json").read_text("utf-8"))


def digest(n: int) -> str:
    return "sha256:" + format(n, "064x")


def make_protocol_doc(**overrides: Any) -> dict:
    """One production plus two experimental variants, permissive thresholds."""
    doc = {
        "experiment_id": "exp-ab",
        "variants": [
            {"variant_id": "prod", "role": "PRODUCTION", "bundle_digest": digest(0), "launch_args": []},
            {"variant_id": "expA", "role": "EXPERIMENTAL", "bundle_digest": digest(1), "launch_args": []},
            {"variant_id": "expB", "role": "EXPERIMENTAL", "bundle_digest": digest(2), "launch_args": []},
        ],
        "cpu_threshold_pct": 80.0,
        "mem_threshold_mb": 512,
        "sustain_samples": 3,
        "sample_period_ms": 500,
        "degrade_grace_samples": 2,
        "max_duration_s": 60,
        "max_concurrent_experiments": 2,
        "upload_policy": "AT_END",
    }
    doc.update(copy.deepcopy(overrides))
    return doc


def make_ab_scenario(**overrides: Any) -> dict:
    """The A/B selection cycle: three healthy stubs, no contention."""
    scenario = {
        "name": "ab-500",
        "fake_clock": True,
        "protocol": make_protocol_doc(experiment_id="exp-ab-500"),
        "frames": {"count": 500, "rate_hz": 10, "seed": 7},
        "stubs": [
            {"variant_id": "prod", "true_positive_rate": 0.60, "cpu_burn_pct": 30, "seed": 11},
            {"variant_id": "expA", "true_positive_rate": 0.72, "cpu_burn_pct": 25, "seed": 12},
            {"variant_id": "expB", "true_positive_rate": 0.68, "cpu_burn_pct": 25, "seed": 13},
        ],
        "node": {"capacity_pct": 400},
        "expect": {"final_state": "COMPLETED", "winner": "expA"},
    }
    scenario.update(copy.deepcopy(overrides))
    return scenario


def make_hostile_scenario(**overrides: Any) -> dict:
    """One hostile experiment burning far past its CPU budget on a node
    where production actually feels the contention."""
    protocol = make_protocol_doc(
        experiment_id="exp-hostile",
        cpu_threshold_pct=20.0,
        max_concurrent_experiments=1,
    )
    protocol["variants"] = [protocol["variants"][0], protocol["variants"][1]]
    scenario = {
        "name": "hostile",
        "fake_clock": True,
        "protocol": protocol,
        "frames": {"count": 600, "rate_hz": 10, "seed": 7},
        "stubs": [
            {"variant_id": "prod", "true_positive_rate": 0.60, "cpu_burn_pct": 15, "seed": 11},
            {"variant_id": "expA", "true_positive_rate": 0.72, "cpu_burn_pct": 95, "seed": 12},
        ],
        "node": {"capacity_pct": 100},
        "expect": {"final_state": "ABORTED", "aborted_variants": ["expA"]},
    }
    scenario.update(copy.deepcopy(overrides))
    return scenario


def make_baseline_scenario(**overrides: Any) -> dict:
    """Production alone on the same node and frame schedule as the
    hostile scenario; the no-experiment reference run."""
    protocol = make_protocol_doc(
        experiment_id="exp-baseline",
        cpu_threshold_pct=20.0,
        max_concurrent_experiments=1,
    )
    protocol["variants"] = [protocol["variants"][0]]
    scenario = {
        "name": "baseline",
        "fake_clock": True,
        "protocol": protocol,
        "frames": {"count": 600, "rate_hz": 10, "seed": 7},
        "stubs": [
            {"variant_id": "prod", "true_positive_rate": 0.60, "cpu_burn_pct": 15, "seed": 11},
        ],
        "node": {"capacity_pct": 100},
        "expect": {"final_state": "COMPLETED"},
    }
    scenario.update(copy.deepcopy(overrides))
    return scenario


@pytest.fixture
def protocol_doc():
    return make_protocol_doc


@pytest.fixture
def protocol_json():
    def make(**overrides: Any) -> str:
        return json.dumps(make_protocol_doc(**overrides))

    return make


def multicast_loopback_available(port: int = 7799) -> bool:
    """True when this host can self-deliver a multicast datagram."""
    try:
        bus = UdpMulticastBus(port=port)
    except SocketError:
        return False
    try:
        from cexp.clock import WallClock
        from cexp.wirebus import Heartbeat, Sender

        received = []
        bus.subscribe(received.append)
        clock = WallClock()
        Sender(bus, 99, clock).send(Heartbeat(node_id=99, uptime_s=0))
        for _ in range(10):
            bus.deliver_until(clock, clock.now_us() + 200_000)
            if any(item.envelope.sender_id == 99 for item in received):
                return True
        return False
    except SocketError:
        return False
    finally:
        bus.close()
