"""Codec bit-exactness, decoder totality, and transport delivery contracts."""

from __future__ import annotations

import random
import socket
import string
import weakref

import pytest

from cexp.clock import FakeClock, WallClock
from cexp import wirebus as W
from conftest import multicast_loopback_available


def _random_text(rng: random.Random, max_len: int = 40) -> str:
    alphabet = string.ascii_letters + string.digits + "-_./:å世"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_message(rng: random.Random) -> W.Message:
    kind = rng.randrange(6)
    if kind == 0:
        return W.SensorFrame(
            frame_id=rng.getrandbits(64),
            ground_truth_count=rng.getrandbits(16),
            pixels_digest=bytes(rng.getrandbits(8) for _ in range(32)),
        )
    if kind == 1:
        return W.ModuleOutput(
            frame_id=rng.getrandbits(64),
            variant_id=_random_text(rng),
            detected_count=rng.getrandbits(16),
            latency_us=rng.getrandbits(32),
        )
    if kind == 2:
        return W.ResourceReport(
            variant_id=_random_text(rng),
            cpu_pct=rng.uniform(0, 400),
            mem_mb=rng.uniform(0, 8192),
        )
    if kind == 3:
        return W.Command(
            target_variant_id=_random_text(rng),
            command=rng.choice([W.CommandKind.DEGRADE, W.CommandKind.STOP]),
            degrade_level=rng.randrange(3),
        )
    if kind == 4:
        return W.Heartbeat(node_id=rng.getrandbits(32), uptime_s=rng.getrandbits(64))
    return W.ResultChunk(
        experiment_id=_random_text(rng),
        chunk_index=rng.getrandbits(32),
        total_chunks=rng.getrandbits(32),
        data=bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 256))),
    )


def test_header_layout_is_28_bytes():
    assert W.HEADER_LEN == 28
    # a zero-payload envelope is exactly the header
    raw = W.HEADER.pack(W.MAGIC, W.VERSION, 0x05, 0, 1, 0, 0, 0)
    assert len(raw) == 28


def test_heartbeat_datagram_is_40_bytes():
    data = W.encode(W.Heartbeat(node_id=1, uptime_s=0), sender_id=1, seq=0, timestamp_us=0)
    assert len(data) == 28 + 12 == 40


@pytest.mark.parametrize(
    "msg",
    [
        W.SensorFrame(frame_id=7, ground_truth_count=3, pixels_digest=bytes(range(32))),
        W.ModuleOutput(frame_id=7, variant_id="expA", detected_count=2, latency_us=31_000),
        W.ResourceReport(variant_id="prod", cpu_pct=42.5, mem_mb=120.25),
        W.Command(target_variant_id="expA", command=W.CommandKind.DEGRADE, degrade_level=1),
        W.Command(target_variant_id="expA", command=W.CommandKind.STOP, degrade_level=0),
        W.Heartbeat(node_id=2, uptime_s=3600),
        W.ResultChunk(experiment_id="exp-1", chunk_index=0, total_chunks=3, data=b"abc"),
        W.ResultChunk(experiment_id="exp-1", chunk_index=2, total_chunks=3, data=b""),
    ],
)
def test_roundtrip_each_message_type(msg):
    datagram = W.encode(msg, sender_id=9, seq=4, timestamp_us=123_456)
    envelope, decoded = W.decode(datagram)
    assert decoded == msg
    assert envelope.sender_id == 9
    assert envelope.seq == 4
    assert envelope.timestamp_us == 123_456
    assert envelope.msg_type == msg.MSG_TYPE
    assert envelope.payload_len == len(datagram) - 28


def test_fuzz_10000_random_valid_messages_roundtrip_bit_exactly():
    rng = random.Random(0xC0DEC)
    for i in range(10_000):
        msg = random_message(rng)
        datagram = W.encode(msg, sender_id=i & 0xFFFF, seq=i, timestamp_us=i * 17)
        _, decoded = W.decode(datagram)
        assert decoded == msg
        assert W.encode(decoded, sender_id=i & 0xFFFF, seq=i, timestamp_us=i * 17) == datagram


def test_truncated_below_header():
    with pytest.raises(W.Truncated):
        W.decode(b"\x00" * 27)


def test_unknown_msg_type():
    raw = W.HEADER.pack(W.MAGIC, W.VERSION, 0x7F, 0, 1, 0, 0, 0)
    with pytest.raises(W.UnknownType):
        W.decode(raw)


def test_bad_magic():
    raw = W.HEADER.pack(b"NOPE", W.VERSION, 0x05, 0, 1, 0, 0, 12) + b"\x00" * 12
    with pytest.raises(W.BadMagic):
        W.decode(raw)


def test_bad_version():
    raw = W.HEADER.pack(W.MAGIC, 2, 0x05, 0, 1, 0, 0, 12) + b"\x00" * 12
    with pytest.raises(W.BadVersion):
        W.decode(raw)


def test_reserved_flags_must_be_zero():
    raw = W.HEADER.pack(W.MAGIC, W.VERSION, 0x05, 1, 1, 0, 0, 12) + b"\x00" * 12
    with pytest.raises(W.MalformedPayload):
        W.decode(raw)


def test_payload_shorter_than_declared_is_truncated():
    good = W.encode(W.Heartbeat(node_id=1, uptime_s=0), 1, 0, 0)
    with pytest.raises(W.Truncated):
        W.decode(good[:-1])


def test_trailing_bytes_are_malformed():
    good = W.encode(W.Heartbeat(node_id=1, uptime_s=0), 1, 0, 0)
    with pytest.raises(W.MalformedPayload):
        W.decode(good + b"\x00")


FIXED_LAYOUT_MESSAGES = [
    W.SensorFrame(frame_id=7, ground_truth_count=3, pixels_digest=bytes(range(32))),
    W.ModuleOutput(frame_id=7, variant_id="expA", detected_count=2, latency_us=31_000),
    W.ResourceReport(variant_id="prod", cpu_pct=42.5, mem_mb=120.25),
    W.Heartbeat(node_id=2, uptime_s=3600),
]


def _with_payload(datagram: bytes, payload: bytes) -> bytes:
    """``datagram``'s header, declaring ``payload``'s length, then ``payload``."""
    fields = W.HEADER.unpack_from(datagram)
    return W.HEADER.pack(*fields[:-1], len(payload)) + payload


@pytest.mark.parametrize("msg", FIXED_LAYOUT_MESSAGES, ids=lambda m: m.MSG_TYPE.name)
def test_fixed_layout_payload_one_byte_short_is_malformed(msg):
    good = W.encode(msg, 1, 0, 0)
    with pytest.raises(W.MalformedPayload):
        W.decode(_with_payload(good, good[W.HEADER_LEN : -1]))


@pytest.mark.parametrize("msg", FIXED_LAYOUT_MESSAGES, ids=lambda m: m.MSG_TYPE.name)
def test_fixed_layout_payload_one_byte_long_is_malformed(msg):
    good = W.encode(msg, 1, 0, 0)
    with pytest.raises(W.MalformedPayload):
        W.decode(_with_payload(good, good[W.HEADER_LEN :] + b"\x00"))


@pytest.mark.parametrize("msg", FIXED_LAYOUT_MESSAGES, ids=lambda m: m.MSG_TYPE.name)
def test_fixed_layout_header_one_byte_short_is_truncated(msg):
    good = W.encode(msg, 1, 0, 0)
    with pytest.raises(W.Truncated):
        W.decode(good[: W.HEADER_LEN - 1])


def test_unknown_command_enum_is_malformed():
    good = W.encode(W.Command("expA", W.CommandKind.STOP, 0), 1, 0, 0)
    # the command byte sits 2 bytes before the end (command, degrade_level)
    bad = good[:-2] + b"\x07" + good[-1:]
    with pytest.raises(W.MalformedPayload):
        W.decode(bad)


def test_invalid_utf8_string_is_malformed():
    good = W.encode(W.ResourceReport("ab", 1.0, 1.0), 1, 0, 0)
    bad = bytearray(good)
    bad[30] = 0xFF  # first byte of the 2-char variant_id
    with pytest.raises(W.MalformedPayload):
        W.decode(bytes(bad))


def test_declared_payload_len_beyond_bound_is_malformed():
    raw = W.HEADER.pack(W.MAGIC, W.VERSION, 0x06, 0, 1, 0, 0, W.MAX_PAYLOAD + 1)
    with pytest.raises(W.MalformedPayload):
        W.decode(raw + b"\x00" * (W.MAX_PAYLOAD + 1))


def test_payload_too_large_on_encode():
    msg = W.ResultChunk(experiment_id="x", chunk_index=0, total_chunks=1, data=b"\x00" * (W.MAX_PAYLOAD + 1))
    with pytest.raises(W.PayloadTooLarge):
        W.encode(msg, 1, 0, 0)


def test_fuzz_10000_random_blobs_never_crash_decoder():
    rng = random.Random(0xFADE)
    outcomes = {"decoded": 0, "rejected": 0}
    for _ in range(10_000):
        blob = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 200)))
        try:
            W.decode(blob)
            outcomes["decoded"] += 1
        except W.DecodeError:
            outcomes["rejected"] += 1
        # anything else propagates and fails the test
    assert outcomes["rejected"] + outcomes["decoded"] == 10_000


def test_mutated_valid_datagrams_never_crash_decoder():
    rng = random.Random(0xBEEF)
    for _ in range(2_000):
        msg = random_message(rng)
        datagram = bytearray(W.encode(msg, 1, 0, 0))
        for _ in range(rng.randint(1, 4)):
            datagram[rng.randrange(len(datagram))] = rng.getrandbits(8)
        try:
            W.decode(bytes(datagram))
        except W.DecodeError:
            pass


# -- loopback transport -------------------------------------------------------


def test_loopback_delivers_100_messages_in_seq_order():
    bus = W.LoopbackBus()
    received = []
    bus.subscribe(received.append)
    clock = FakeClock(0)
    sender = W.Sender(bus, sender_id=5, clock=clock)
    for _ in range(100):
        sender.send(W.Heartbeat(node_id=1, uptime_s=0))
    seqs = [item.envelope.seq for item in received]
    assert seqs == list(range(100))


def test_two_interleaved_senders_preserve_per_sender_order():
    bus = W.LoopbackBus()
    received = []
    bus.subscribe(received.append)
    clock = FakeClock(0)
    a = W.Sender(bus, sender_id=1, clock=clock)
    b = W.Sender(bus, sender_id=2, clock=clock)
    rng = random.Random(3)
    for _ in range(200):
        (a if rng.random() < 0.5 else b).send(W.Heartbeat(node_id=1, uptime_s=0))
    # oracle: per-sender seq streams must already be sorted
    for sender_id in (1, 2):
        seqs = [r.envelope.seq for r in received if r.envelope.sender_id == sender_id]
        assert seqs == sorted(seqs)
        assert seqs == list(range(len(seqs)))


def test_subscription_type_filter():
    bus = W.LoopbackBus()
    got = []
    bus.subscribe(got.append, types={W.MsgType.COMMAND})
    clock = FakeClock(0)
    sender = W.Sender(bus, 1, clock)
    sender.send(W.Heartbeat(node_id=1, uptime_s=0))
    sender.send(W.Command("expA", W.CommandKind.STOP, 0))
    assert len(got) == 1
    assert isinstance(got[0].message, W.Command)


def test_fanout_follows_subscription_order_within_each_type():
    bus = W.LoopbackBus()
    calls = []
    everything = []
    bus.subscribe(types={W.MsgType.COMMAND}, callback=lambda item: calls.append("commands"))
    bus.subscribe(everything.append)
    bus.subscribe(callback=lambda item: calls.append("all"))
    bus.subscribe(
        types={W.MsgType.HEARTBEAT, W.MsgType.COMMAND}, callback=lambda item: calls.append("beats+commands")
    )
    sender = W.Sender(bus, 1, FakeClock(0))
    sender.send(W.Heartbeat(node_id=1, uptime_s=0))
    assert calls == ["all", "beats+commands"]
    calls.clear()
    sender.send(W.Command("expA", W.CommandKind.STOP, 0))
    assert calls == ["commands", "all", "beats+commands"]
    calls.clear()
    sender.send(W.SensorFrame(frame_id=1, ground_truth_count=2, pixels_digest=bytes(32)))
    assert calls == ["all"]
    assert [item.envelope.msg_type for item in everything] == [
        W.MsgType.HEARTBEAT,
        W.MsgType.COMMAND,
        W.MsgType.SENSOR_FRAME,
    ]


def test_callback_subscription_is_synchronous():
    bus = W.LoopbackBus()
    seen = []
    bus.subscribe(callback=lambda item: seen.append(item.envelope.seq))
    sender = W.Sender(bus, 1, FakeClock(0))
    sender.send(W.Heartbeat(node_id=1, uptime_s=0))
    assert seen == [0]


def test_publish_after_close_raises():
    bus = W.LoopbackBus()
    bus.close()
    with pytest.raises(W.TransportClosed):
        bus.publish(W.encode(W.Heartbeat(node_id=1, uptime_s=0), 1, 0, 0))


def test_loopback_retains_no_delivered_message():
    bus = W.LoopbackBus()
    delivered = []
    bus.subscribe(callback=lambda item: delivered.append(weakref.ref(item)))
    sender = W.Sender(bus, 1, FakeClock(0))
    sender.send(W.Heartbeat(node_id=1, uptime_s=0))
    sender.send(W.Heartbeat(node_id=1, uptime_s=1))
    assert len(delivered) == 2
    assert [ref() for ref in delivered] == [None, None]


_HEARTBEAT = W.encode(W.Heartbeat(node_id=1, uptime_s=0), 1, 0, 0)
FOREIGN_DATAGRAMS = {
    W.Truncated: b"\x00" * 16,
    W.BadMagic: b"NOPE" + _HEARTBEAT[4:],
    W.BadVersion: _HEARTBEAT[:4] + bytes([2]) + _HEARTBEAT[5:],
    W.UnknownType: W.HEADER.pack(W.MAGIC, W.VERSION, 0x7F, 0, 1, 0, 0, 0),
    W.MalformedPayload: _HEARTBEAT + b"\x00",
}


@pytest.mark.parametrize("category", list(FOREIGN_DATAGRAMS), ids=lambda c: c.__name__)
def test_loopback_drops_an_undecodable_datagram_and_keeps_delivering(category):
    raw = FOREIGN_DATAGRAMS[category]
    with pytest.raises(category):
        W.decode(raw)
    bus = W.LoopbackBus()
    received = []
    bus.subscribe(callback=received.append)
    bus.publish(raw)
    assert received == []
    bus.publish(_HEARTBEAT)
    assert [item.message for item in received] == [W.Heartbeat(node_id=1, uptime_s=0)]


# -- UDP transport ------------------------------------------------------------


def test_a_udp_endpoint_that_fails_to_open_closes_its_socket(monkeypatch):
    created = []

    class RecordedSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(W.socket, "socket", RecordedSocket)
    with pytest.raises(W.SocketError):
        W.UdpMulticastBus(group="1.2.3.4", port=7797)  # not a multicast group
    assert len(created) == 1
    assert created[0].fileno() == -1  # closed

_HAVE_MULTICAST = multicast_loopback_available()


@pytest.mark.udp
@pytest.mark.skipif(not _HAVE_MULTICAST, reason="no multicast-capable loopback interface")
def test_udp_self_subscription_delivers_own_datagram():
    bus = W.UdpMulticastBus(group="239.255.77.1", port=7700)
    try:
        received = []
        bus.subscribe(received.append)
        clock = WallClock()
        W.Sender(bus, sender_id=77, clock=clock).send(W.Heartbeat(node_id=7, uptime_s=1))
        for _ in range(20):
            bus.deliver_until(clock, clock.now_us() + 200_000)
            own = [item.message for item in received if item.envelope.sender_id == 77]
            if own:
                assert own == [W.Heartbeat(node_id=7, uptime_s=1)]
                return
        pytest.fail("own datagram not delivered")
    finally:
        bus.close()


@pytest.mark.udp
def test_udp_deliver_until_routes_by_type_and_waits_out_the_deadline():
    import threading

    if not multicast_loopback_available(port=7751):
        pytest.skip("no multicast-capable loopback interface")
    clock = WallClock()
    bus = W.UdpMulticastBus(port=7750)
    out = W.UdpMulticastBus(port=7750)
    order = []
    bus.subscribe(types={W.MsgType.HEARTBEAT}, callback=lambda item: order.append("hb-first"))
    bus.subscribe(types={W.MsgType.RESOURCE_REPORT}, callback=lambda item: order.append("report"))
    bus.subscribe(types={W.MsgType.HEARTBEAT}, callback=lambda item: order.append("hb-second"))
    sender = W.Sender(out, 62, clock)

    def during_the_wait():
        out.publish(b"not a CEXP datagram")
        sender.send(W.ResourceReport(variant_id="expA", cpu_pct=1.0, mem_mb=2.0))

    late = threading.Timer(0.3, during_the_wait)
    try:
        sender.send(W.Heartbeat(node_id=5, uptime_s=0))  # before the wait starts
        deadline = clock.now_us() + 1_000_000
        late.start()
        bus.deliver_until(clock, deadline)
        assert clock.now_us() >= deadline
        assert order == ["hb-first", "hb-second", "report"]
    finally:
        late.join()
        out.close()
        bus.close()
