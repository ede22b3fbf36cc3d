"""Content addressing, delta planning, and the simulated OTA link."""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import pytest

from cexp import artifact as A
from conftest import layer_digests, stored_manifest


def _layer(content: bytes) -> A.Layer:
    return A.ingest_layer(content)


def _mib(n: float) -> int:
    return int(n * 1024 * 1024)


# -- layers and stores ---------------------------------------------------------


def test_ingest_computes_sha256_digest():
    payload = b"layer-content"
    layer = A.ingest_layer(payload)
    # oracle: hash the payload independently
    assert layer.digest == "sha256:" + hashlib.sha256(payload).hexdigest()
    assert layer.size_bytes == len(payload)


def test_store_reingest_is_idempotent(tmp_path):
    store = A.LayerStore(tmp_path / "store")
    store.put(b"abc")
    first = store.total_bytes()
    store.put(b"abc")
    assert store.total_bytes() == first
    assert len(layer_digests(store)) == 1


def test_digest_mismatch_leaves_store_unchanged(tmp_path):
    store = A.LayerStore(tmp_path / "store")
    layer = _layer(b"good")
    with pytest.raises(A.DigestMismatch):
        store.put(b"g00d", expected_digest=layer.digest)
    assert not store.has(layer.digest)
    assert layer_digests(store) == set()


def test_storage_full(tmp_path):
    store = A.LayerStore(tmp_path / "store", capacity_bytes=10)
    store.put(b"12345678")
    with pytest.raises(A.StorageFull):
        store.put(b"overflowing")
    store.put(b"ab")  # still fits


def test_store_roundtrips_payload(tmp_path):
    store = A.LayerStore(tmp_path / "store")
    layer = store.put(b"\x00\x01\x02")
    assert store.get(layer.digest) == b"\x00\x01\x02"
    with pytest.raises(KeyError):
        store.get("sha256:" + "f" * 64)


# -- manifests -----------------------------------------------------------------


def test_manifest_digest_is_hash_of_canonical_bytes():
    manifest = A.manifest_for_layers("bin/run", [_layer(b"a"), _layer(b"bb")])
    blob = manifest.canonical_bytes()
    assert manifest.bundle_digest == "sha256:" + hashlib.sha256(blob).hexdigest()
    assert A.parse_manifest(blob.decode("utf-8")) == manifest


def test_manifest_rejects_duplicates_and_bad_digests():
    layer = _layer(b"a")
    with pytest.raises(A.ManifestError):
        A.manifest_from_object(
            {"entrypoint": "bin/run", "layers": [
                {"digest": layer.digest, "size": 1},
                {"digest": layer.digest, "size": 1},
            ]}
        )
    with pytest.raises(A.ManifestError):
        A.manifest_from_object({"entrypoint": "bin/run", "layers": [{"digest": "sha256:xyz", "size": 1}]})
    with pytest.raises(A.ManifestError):
        A.manifest_from_object({"entrypoint": "bin/run", "layers": []})
    with pytest.raises(A.ManifestError):
        A.manifest_from_object({"entrypoint": "", "layers": [{"digest": layer.digest, "size": 1}]})


def test_manifest_store_roundtrip(tmp_path):
    store = A.LayerStore(tmp_path / "store")
    manifest = A.manifest_for_layers("bin/run", [_layer(b"a")])
    store.put_manifest(manifest)
    assert stored_manifest(store, manifest.bundle_digest) == manifest
    assert {p.stem for p in (store.root / "manifests").iterdir()} == {manifest.bundle_digest}


def test_storing_a_stored_manifest_again_leaves_its_file_alone(tmp_path):
    source, layers = _populated_source(tmp_path, [b"p" * 40, b"q" * 60])
    manifest = A.manifest_for_layers("bin/run", layers)
    local = A.LayerStore(tmp_path / "local")
    path = local.put_manifest(manifest)
    before = path.stat()
    assert local.put_manifest(manifest) == path
    A.fetch_bundle(manifest, A.LinkProfile(), local, source)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert stored_manifest(local, manifest.bundle_digest) == manifest


# -- delta planning ------------------------------------------------------------


def test_plan_delta_empty_when_all_layers_present():
    layers = [_layer(bytes([i])) for i in range(4)]
    manifest = A.manifest_for_layers("bin/run", layers)
    plan, total = A.plan_delta(manifest, {l.digest for l in layers})
    assert plan == []
    assert total == 0


def test_plan_delta_single_missing_layer():
    layers = [_layer(("L%02d" % i).encode() * 100_000) for i in range(10)]  # ~600 KB each
    manifest = A.manifest_for_layers("bin/run", layers)
    local = {l.digest for l in layers[:9]}
    plan, total = A.plan_delta(manifest, local)
    assert [ref.digest for ref in plan] == [layers[9].digest]
    assert total == layers[9].size_bytes


def test_plan_delta_matches_bruteforce_filter_on_random_inputs():
    rng = random.Random(41)
    for _ in range(200):
        layers = [_layer(bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 64)))) for _ in range(rng.randint(1, 12))]
        # dedupe: manifests reject duplicate digests
        unique = list({l.digest: l for l in layers}.values())
        manifest = A.manifest_for_layers("bin/run", unique)
        local = {l.digest for l in unique if rng.random() < 0.5}
        plan, total = A.plan_delta(manifest, local)
        # brute-force oracle: filter the manifest by membership
        expected = [ref for ref in manifest.layers if ref.digest not in local]
        assert plan == expected
        assert total == sum(ref.size for ref in expected)


# -- bulk transfer model ---------------------------------------------------------


def test_transfer_zero_bytes_completes_immediately():
    link = A.LinkProfile(bandwidth_bytes_per_s=100)
    assert A.transfer(0, link, start_t=12.5) == 12.5


def test_transfer_reproduces_five_gigabytes_in_fourteen_minutes():
    link = A.LinkProfile(bandwidth_bytes_per_s=5_952_380)
    t = A.transfer(5_000_000_000, link)
    assert abs(t - 840.0) <= 1.0


def test_transfer_with_outage_pauses_progress():
    # hand integration: 100 MiB at 10 MiB/s needs 10 s of flow;
    # flow 0..5, paused 5..10, flow 10..15 -> completes at 15 s
    link = A.LinkProfile(bandwidth_bytes_per_s=_mib(10), outage_schedule=((5.0, 10.0),))
    assert A.transfer(_mib(100), link) == pytest.approx(15.0)


def test_transfer_started_inside_outage_waits_for_it():
    link = A.LinkProfile(bandwidth_bytes_per_s=_mib(1), outage_schedule=((0.0, 30.0),))
    assert A.transfer(_mib(1), link, start_t=10.0) == pytest.approx(31.0)


def test_transfer_never_completes_with_infinite_outage():
    link = A.LinkProfile(bandwidth_bytes_per_s=_mib(1), outage_schedule=((5.0, math.inf),))
    assert A.transfer(_mib(5), link) == pytest.approx(5.0)  # finishes right at the edge
    with pytest.raises(A.NeverCompletes):
        A.transfer(_mib(5) + 1, link)


def test_transfer_monotonicity_over_random_links():
    rng = random.Random(99)
    for _ in range(300):
        cursor = 0.0
        outages = []
        for _ in range(rng.randint(0, 3)):
            start = cursor + rng.uniform(0.0, 20.0)
            end = start + rng.uniform(0.5, 15.0)
            outages.append((start, end))
            cursor = end
        link = A.LinkProfile(
            bandwidth_bytes_per_s=rng.randint(1_000, 10_000_000),
            outage_schedule=tuple(outages),
        )
        small = rng.randint(0, 10_000_000)
        extra = rng.randint(0, 10_000_000)
        t_small = A.transfer(small, link)
        t_large = A.transfer(small + extra, link)
        assert t_large >= t_small
        # a longer outage never finishes earlier
        if outages:
            start0, end0 = outages[0]
            longer = ((start0, end0 + 5.0),) + tuple(
                (s + 5.0, e + 5.0) for s, e in outages[1:]
            )
            longer_link = A.LinkProfile(
                bandwidth_bytes_per_s=link.bandwidth_bytes_per_s, outage_schedule=longer
            )
            assert A.transfer(small, longer_link) >= t_small


def test_link_profile_validation():
    with pytest.raises(ValueError):
        A.LinkProfile(bandwidth_bytes_per_s=0)
    with pytest.raises(ValueError):
        A.LinkProfile(datagram_loss_pct=100.0)
    with pytest.raises(ValueError):
        A.LinkProfile(outage_schedule=((5.0, 10.0), (8.0, 12.0)))  # overlap
    with pytest.raises(ValueError):
        A.LinkProfile(outage_schedule=((5.0, 5.0),))  # empty interval


def test_link_profile_object_roundtrip():
    link = A.LinkProfile(
        bandwidth_bytes_per_s=1234,
        outage_schedule=((1.0, 2.0), (10.0, math.inf)),
        datagram_loss_pct=12.5,
    )
    assert A.link_profile_from_object(link.to_object()) == link


# -- datagram link ---------------------------------------------------------------


def test_datagram_link_is_lossless_at_zero_loss():
    link = A.DatagramLink(A.LinkProfile(), seed=1)
    assert all(link.deliver(0.0) for _ in range(100))


def test_datagram_link_drops_everything_during_outage():
    profile = A.LinkProfile(outage_schedule=((0.0, math.inf),))
    link = A.DatagramLink(profile, seed=1)
    assert not any(link.deliver(0.0) for _ in range(10))


def test_datagram_link_loss_rate_is_roughly_respected():
    profile = A.LinkProfile(datagram_loss_pct=20.0)
    link = A.DatagramLink(profile, seed=42)
    delivered = sum(1 for _ in range(10_000) if link.deliver(0.0))
    assert 0.77 <= delivered / 10_000 <= 0.83


def test_datagram_link_is_deterministic_per_seed():
    profile = A.LinkProfile(datagram_loss_pct=50.0)
    link1 = A.DatagramLink(profile, seed=7)
    link2 = A.DatagramLink(profile, seed=7)
    run1 = [link1.deliver(0.0) for _ in range(50)]
    run2 = [link2.deliver(0.0) for _ in range(50)]
    assert run1 == run2
    assert True in run1 and False in run1


# -- fetch_bundle -----------------------------------------------------------------


def _populated_source(tmp_path, contents):
    source = A.LayerStore(tmp_path / "source")
    layers = [source.put(c) for c in contents]
    return source, layers


def test_fetch_bundle_moves_exactly_the_planned_bytes(tmp_path):
    source, layers = _populated_source(tmp_path, [b"a" * 100, b"b" * 250, b"c" * 50])
    manifest = A.manifest_for_layers("bin/run", layers)
    local = A.LayerStore(tmp_path / "local")
    local.put(b"a" * 100)  # one layer pre-seeded
    plan, planned_bytes = A.plan_delta(manifest, layer_digests(local))
    record = A.fetch_bundle(manifest, A.LinkProfile(), local, source)
    assert record.bytes_moved == planned_bytes == 300
    assert set(record.layers_fetched) == {ref.digest for ref in plan}
    assert layer_digests(local) >= {l.digest for l in layers}
    assert stored_manifest(local, manifest.bundle_digest) == manifest


def test_fetch_bundle_is_delta_on_refetch(tmp_path):
    source, layers = _populated_source(tmp_path, [b"x" * 10, b"y" * 20])
    manifest = A.manifest_for_layers("bin/run", layers)
    local = A.LayerStore(tmp_path / "local")
    first = A.fetch_bundle(manifest, A.LinkProfile(), local, source)
    second = A.fetch_bundle(manifest, A.LinkProfile(), local, source)
    assert first.bytes_moved == 30
    assert second.bytes_moved == 0
    assert second.completed_t == second.started_t


def test_fetch_bundle_duration_comes_from_transfer_model(tmp_path):
    source, layers = _populated_source(tmp_path, [b"1" * 1000, b"2" * 2000])
    manifest = A.manifest_for_layers("bin/run", layers)
    link = A.LinkProfile(bandwidth_bytes_per_s=1000)
    record = A.fetch_bundle(manifest, link, A.LayerStore(tmp_path / "local"), source)
    assert record.completed_t == pytest.approx(A.transfer(3000, link))
    assert record.duration_s == pytest.approx(3.0)


def test_fetch_bundle_corruption_detected_and_not_stored(tmp_path):
    source, layers = _populated_source(tmp_path, [b"payload-one", b"payload-two"])
    manifest = A.manifest_for_layers("bin/run", layers)
    local = A.LayerStore(tmp_path / "local")
    # the source's copy of the second layer rots on disk: one bit flips
    rotted = source.root / "layers" / layers[1].digest
    payload = rotted.read_bytes()
    rotted.write_bytes(payload[:-1] + bytes([payload[-1] ^ 0x01]))

    with pytest.raises(A.DigestMismatch):
        A.fetch_bundle(manifest, A.LinkProfile(), local, source)
    assert not local.has(layers[1].digest)
    assert local.has(layers[0].digest)  # earlier layer landed atomically


def test_fetch_bundle_plans_without_listing_the_store(tmp_path, monkeypatch):
    source, layers = _populated_source(tmp_path, [b"k" * 64, b"m" * 128, b"n" * 32])
    manifest = A.manifest_for_layers("bin/run", layers)
    local = A.LayerStore(tmp_path / "local")
    for i in range(300):  # layers of earlier deploys, none in this manifest
        local.put(f"old-layer-{i}".encode("ascii"))
    local.put(b"m" * 128)
    expected_plan, expected_bytes = A.plan_delta(manifest, {layers[1].digest})

    def no_scan(self):
        raise AssertionError(f"delta planning listed {self}")

    monkeypatch.setattr(Path, "iterdir", no_scan)
    record = A.fetch_bundle(manifest, A.LinkProfile(), local, source)
    assert record.layers_fetched == tuple(ref.digest for ref in expected_plan)
    assert record.bytes_moved == expected_bytes == 96
    assert all(local.has(layer.digest) for layer in layers)


def test_ci_stage_constants():
    assert A.INTEGRATION_S == 240
    assert A.BUILD_S == 420


def test_store_layout_on_disk(tmp_path):
    store = A.LayerStore(tmp_path / "store")
    layer = store.put(b"content")
    manifest = A.manifest_for_layers("bin/run", [layer])
    store.put_manifest(manifest)
    assert (tmp_path / "store" / "layers" / layer.digest).is_file()
    assert (tmp_path / "store" / "manifests" / f"{manifest.bundle_digest}.json").is_file()
    assert layer.digest.startswith("sha256:") and len(layer.digest) == len("sha256:") + 64
