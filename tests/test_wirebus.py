"""Codec bit-exactness, decoder totality, and transport delivery contracts."""

from __future__ import annotations

import gc
import hashlib
import random
import re
import socket
import string
import struct
from collections import Counter
from enum import IntEnum
from typing import NamedTuple, get_type_hints

import pytest

from cexp.clock import FakeClock, WallClock
from cexp import wirebus as W
from conftest import RecordCheckingBus, field_types, multicast_loopback_available


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
    received = W.decode(datagram)
    assert type(received) is W.Received
    envelope, decoded = received
    assert decoded == msg
    assert envelope.sender_id == 9
    assert envelope.seq == 4
    assert envelope.timestamp_us == 123_456
    assert envelope.msg_type == msg.MSG_TYPE
    assert envelope.payload_len == len(datagram) - 28
    bus = W.LoopbackBus()
    delivered = []
    bus.subscribe(delivered.append)
    bus.publish(datagram)
    assert delivered == [received]


def test_a_bytearray_result_chunk_decodes_to_bytes_that_encode_again():
    datagram = W.encode(W.ResultChunk("exp-1", 0, 1, b"abc"), 9, 4, 123_456)
    envelope, decoded = W.decode(bytearray(datagram))
    assert type(decoded.data) is bytes
    assert W.encode(decoded, envelope.sender_id, envelope.seq, envelope.timestamp_us) == datagram


def test_a_memoryview_module_output_decodes_equal():
    msg = W.ModuleOutput(frame_id=7, variant_id="expä", detected_count=2, latency_us=31_000)
    _, decoded = W.decode(memoryview(W.encode(msg, 9, 4, 123_456)))
    assert decoded == msg
    assert field_types(decoded) == field_types(msg)


def test_the_loopback_hub_delivers_a_bytearray_datagram():
    msg = W.ResultChunk("exp-1", 0, 1, b"abc")
    bus = W.LoopbackBus()
    received = []
    bus.subscribe(received.append)
    bus.publish(bytearray(W.encode(msg, 7, 0, 0)))
    assert [item.message for item in received] == [msg]
    assert field_types(received[0].message) == field_types(msg)


def test_fuzz_10000_random_valid_messages_roundtrip_bit_exactly():
    rng = random.Random(0xC0DEC)
    for i in range(10_000):
        msg = random_message(rng)
        datagram = W.encode(msg, sender_id=i & 0xFFFF, seq=i, timestamp_us=i * 17)
        _, decoded = W.decode(datagram)
        assert decoded == msg
        assert W.encode(decoded, sender_id=i & 0xFFFF, seq=i, timestamp_us=i * 17) == datagram


# one record of each kind, with the names of all its fields
RECORDS = [
    (W.SensorFrame(7, 3, bytes(32)), ("frame_id", "ground_truth_count", "pixels_digest")),
    (W.ModuleOutput(7, "expA", 2, 31_000), ("frame_id", "variant_id", "detected_count", "latency_us")),
    (W.ResourceReport("a", 1.0, 2.0), ("variant_id", "cpu_pct", "mem_mb")),
    (W.Command("a", W.CommandKind.DEGRADE, 2), ("target_variant_id", "command", "degrade_level")),
    (W.Heartbeat(1, 2), ("node_id", "uptime_s")),
    (W.ResultChunk("exp-1", 0, 1, b"abc"), ("experiment_id", "chunk_index", "total_chunks", "data")),
    (W.Envelope(W.MsgType.HEARTBEAT, 1, 2, 3, 12), ("msg_type", "sender_id", "seq", "timestamp_us", "payload_len")),
    (W.Received(W.Envelope(W.MsgType.HEARTBEAT, 1, 2, 3, 12), W.Heartbeat(1, 2)), ("envelope", "message")),
]
_record_ids = [type(record).__name__ for record, _names in RECORDS]


@pytest.mark.parametrize("record, names", RECORDS, ids=_record_ids)
def test_a_record_refuses_assignment_to_any_field_or_a_new_one(record, names):
    before = [getattr(record, name) for name in names]
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert [getattr(record, name) for name in names] == before


@pytest.mark.parametrize("record, names", RECORDS, ids=_record_ids)
def test_a_record_hashes_like_an_equal_record(record, names):
    twin = type(record)(*[getattr(record, name) for name in names])
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1


@pytest.mark.parametrize(
    "left, right",
    [
        (W.ResourceReport("a", 1.0, 2.0), W.Command("a", W.CommandKind.DEGRADE, 2)),
        (W.Heartbeat(1, 2), (1, 2)),
        (W.Heartbeat(1, 2), [1, 2]),
        (W.Envelope(W.MsgType.HEARTBEAT, 1, 2, 3, 12), (W.MsgType.HEARTBEAT, 1, 2, 3, 12)),
        (
            W.Received(W.Envelope(W.MsgType.HEARTBEAT, 1, 2, 3, 12), W.Heartbeat(1, 2)),
            (W.Envelope(W.MsgType.HEARTBEAT, 1, 2, 3, 12), W.Heartbeat(1, 2)),
        ),
    ],
    ids=["report-vs-command", "heartbeat-vs-tuple", "heartbeat-vs-list", "envelope-vs-tuple", "received-vs-tuple"],
)
def test_a_record_equals_no_value_of_another_type(left, right):
    assert not left == right and left != right
    assert not right == left and right != left


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


@pytest.mark.parametrize(
    "value",
    [(1, 0), {"node_id": 1, "uptime_s": 0}, None, W.Envelope(W.MsgType.HEARTBEAT, 1, 0, 0, 12)],
    ids=["tuple", "dict", "none", "envelope"],
)
def test_encoding_anything_but_a_message_raises_type_error(value):
    with pytest.raises(TypeError):
        W.encode(value, 1, 0, 0)


# Records whose every field packs, but not all as its declared type: the
# decoder would hand back a float, a CommandKind or bytes.
MISTYPED_RECORDS = {
    "int_floats": W.ResourceReport("v", 50, 100),
    "int_command": W.Command("v", 2, 1),
    "bytearray_digest": W.SensorFrame(1, 2, bytearray(32)),
    "bool_count": W.ModuleOutput(1, "v", True, 5),
}


@pytest.mark.parametrize("msg", list(MISTYPED_RECORDS.values()), ids=list(MISTYPED_RECORDS))
def test_a_record_with_a_field_not_of_its_declared_type_is_refused(msg):
    with pytest.raises(TypeError):
        W.encode(msg, 1, 0, 0)
    bus = W.LoopbackBus()
    received = []
    bus.subscribe(callback=received.append)
    sender = W.Sender(bus, 1, FakeClock(0))
    with pytest.raises(TypeError):
        sender.send(msg)
    assert received == []
    assert sender.send(W.Heartbeat(node_id=1, uptime_s=0)) == 0  # the refused record took no seq


# One record per refusal, with the class and text both ``encode`` and
# ``Sender.send`` raise. The records with two faults pin the order of the
# checks: field types, then byte and string sizes, then int widths, then
# the whole payload.
REFUSALS = [
    (W.ModuleOutput(1, "v", True, 5), TypeError, "ModuleOutput.detected_count must be int, got bool"),
    (W.Command("v", 2, 1), TypeError, "Command.command must be CommandKind, got int"),
    (W.ResourceReport("v", 50, 100.0), TypeError, "ResourceReport.cpu_pct must be float, got int"),
    (W.SensorFrame(1, 2, bytearray(32)), TypeError, "SensorFrame.pixels_digest must be bytes, got bytearray"),
    (W.ResultChunk(None, 1 << 32, 1, b""), TypeError, "ResultChunk.experiment_id must be str, got NoneType"),
    (W.Heartbeat(1 << 32, 0), struct.error, "Heartbeat.node_id must be in [0, 2**32), got 4294967296"),
    (W.ModuleOutput(1, "v", 2, -1), struct.error, "ModuleOutput.latency_us must be in [0, 2**32), got -1"),
    (W.Command("v", W.CommandKind.STOP, 256), struct.error, "Command.degrade_level must be in [0, 2**8), got 256"),
    (W.SensorFrame(-1, 2, bytes(31)), W.MalformedPayload, "pixels_digest must be exactly 32 bytes"),
    (W.ResourceReport("x" * 0x10000, 1.0, 1.0), W.PayloadTooLarge, "string field of 65536 bytes"),
    (W.ModuleOutput(1 << 64, "é" * 0x8000, 2, 3), W.PayloadTooLarge, "string field of 65536 bytes"),
    (
        W.Command("a\ud800b", W.CommandKind.STOP, 0),
        UnicodeEncodeError,
        "'utf-8' codec can't encode character '\\ud800' in position 1: surrogates not allowed",
    ),
    (W.ResultChunk("x", 0, 1, bytes(W.MAX_PAYLOAD - 10)), W.PayloadTooLarge, "payload of 60001 bytes exceeds 60000"),
    (
        W.ResultChunk("x", 1 << 32, 1, bytes(W.MAX_PAYLOAD)),
        struct.error,
        "ResultChunk.chunk_index must be in [0, 2**32), got 4294967296",
    ),
]
_refusal_ids = [f"{type(msg).__name__}-{error.__name__}" for msg, error, _text in REFUSALS]


@pytest.mark.parametrize("msg, error, text", REFUSALS, ids=_refusal_ids)
def test_each_refusal_keeps_its_class_and_text(msg, error, text):
    with pytest.raises(error) as refused:
        W.encode(msg, 1, 0, 0)
    assert type(refused.value) is error and str(refused.value) == text
    with pytest.raises(error) as refused:
        W.Sender(W.LoopbackBus(), 1, FakeClock(0)).send(msg)
    assert type(refused.value) is error and str(refused.value) == text


def test_a_sender_hands_over_exactly_what_its_datagram_decodes_to():
    rng = random.Random(0x5EED)
    bus = RecordCheckingBus()
    received = []
    bus.subscribe(callback=received.append)
    clock = FakeClock(0)
    sender = W.Sender(bus, 9, clock)
    messages = [random_message(rng) for _ in range(2_000)]
    for i, msg in enumerate(messages):
        clock.advance_to(i * 17)
        assert sender.send(msg) == i
    assert bus.handed_over == 2_000
    assert [item.message for item in received] == messages
    assert all(field_types(item.message) == field_types(msg) for item, msg in zip(received, messages))


def test_a_sender_id_that_is_not_an_int_is_refused():
    with pytest.raises(TypeError):
        W.Sender(W.LoopbackBus(), True, FakeClock(0))


@pytest.mark.parametrize("sender_id", [-1, 1 << 32])
def test_a_sender_id_outside_the_header_width_is_refused(sender_id):
    with pytest.raises(ValueError):
        W.Sender(W.LoopbackBus(), sender_id, FakeClock(0))


class Light(IntEnum):
    RED = 1
    GREEN = 2


class EveryKind(NamedTuple):
    """A record that is not on the bus, with one field of each wire kind.
    Most fields take a name a generated codec could use for itself."""

    msg: int
    size: int
    start: int
    end: int
    buf: float
    variant_id: str
    pixels_digest: bytes
    type: Light
    len: bytes

    MSG_TYPE = 0x7E
    LAYOUT = (
        ("msg", W.U8),
        ("size", W.U16),
        ("start", W.U32),
        ("end", W.U64),
        ("buf", W.F64),
        ("variant_id", W.STR),
        ("pixels_digest", W.fixed_bytes(4)),
        ("type", Light),
        ("len", W.TRAILING),
    )


# The wire width, in bits, of every int field (see the payload layouts).
INT_BITS = {
    W.SensorFrame: {"frame_id": 64, "ground_truth_count": 16},
    W.ModuleOutput: {"frame_id": 64, "detected_count": 16, "latency_us": 32},
    W.ResourceReport: {},
    W.Command: {"degrade_level": 8},
    W.Heartbeat: {"node_id": 32, "uptime_s": 64},
    W.ResultChunk: {"chunk_index": 32, "total_chunks": 32},
    EveryKind: {"msg": 8, "size": 16, "start": 32, "end": 64},
}
STR_FIELDS = {"variant_id", "target_variant_id", "experiment_id"}
WRONG_TYPED_VALUES = [True, 7, 1.5, "s", b"b", bytearray(b"b"), None, W.CommandKind.STOP]


def _mutate(rng: random.Random, msg: W.Message) -> tuple[str, W.Message]:
    """One seeded edit of a valid record, named by its kind; some kinds keep
    the record valid (a width's top value, non-ASCII text, a payload of
    exactly MAX_PAYLOAD), the rest make it one ``encode`` refuses."""
    record = type(msg)
    ints = list(INT_BITS[record].items())
    strs = [name for name in msg._fields if name in STR_FIELDS]
    kinds = ["wrong_type"] + ["negative", "past_width", "at_width"] * bool(ints)
    kinds += ["non_ascii", "surrogate", "long_ascii", "long_utf8"] * bool(strs)
    kinds += {W.ResultChunk: ["full_payload", "past_payload"], W.SensorFrame: ["digest_size"]}.get(record, [])
    kind = rng.choice(kinds)
    if kind == "wrong_type":
        name = rng.choice(msg._fields)
        declared = get_type_hints(record)[name]
        return kind, msg._replace(**{name: rng.choice([v for v in WRONG_TYPED_VALUES if type(v) is not declared])})
    if kind in ("negative", "past_width", "at_width"):
        name, bits = rng.choice(ints)
        value = {"negative": -1 - rng.getrandbits(70), "past_width": 1 << bits, "at_width": (1 << bits) - 1}[kind]
        return kind, msg._replace(**{name: value})
    if kind in ("non_ascii", "surrogate", "long_ascii", "long_utf8"):
        text = {
            "non_ascii": "ü-世-\U0001F69A" * rng.randint(1, 3),  # 2-, 3- and 4-byte UTF-8
            "surrogate": "a\ud800b",  # a lone surrogate: not encodable as UTF-8
            "long_ascii": "x" * rng.choice([0xFFFF, 0x10000]),
            "long_utf8": "é" * 0x8000,  # 32,768 characters, 65,536 bytes
        }[kind]
        return kind, msg._replace(**{rng.choice(strs): text})
    if kind == "digest_size":
        return kind, msg._replace(pixels_digest=bytes(rng.choice([0, 31, 33])))
    # a ResultChunk whose payload is exactly MAX_PAYLOAD, or one byte more, when
    # an earlier edit left its experiment_id a valid string
    experiment_id = msg.experiment_id
    fixed = 2 + 8 + (len(experiment_id.encode("utf-8", "surrogatepass")) if type(experiment_id) is str else 0)
    return kind, msg._replace(data=bytes(max(0, W.MAX_PAYLOAD - fixed + (kind == "past_payload"))))


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # the class is the outcome compared
        return None, type(exc)


def test_send_refuses_exactly_what_encode_refuses_and_sizes_what_it_would_pack():
    rng = random.Random(0xC4EC)
    bus = W.LoopbackBus()
    received = []
    bus.subscribe(callback=received.append)
    clock = FakeClock(0)
    sender = W.Sender(bus, 3, clock)
    accepted = 0
    refusals = Counter()
    for i in range(3_000):
        msg = random_message(rng)
        for _ in range(rng.choice([0, 1, 1, 2])):  # some records carry two edits
            _kind, msg = _mutate(rng, msg)
        clock.advance_to(i * 11)
        datagram, refused = _outcome(lambda: W.encode(msg, 3, accepted, clock.now_us()))
        seq, send_refused = _outcome(lambda: sender.send(msg))
        assert send_refused is refused, (msg, refused, send_refused)
        if refused is not None:
            refusals[refused] += 1
            assert len(received) == accepted  # nothing published
            continue
        assert seq == accepted  # a refused record took no seq
        accepted += 1
        item = received[-1]
        assert item.message is msg
        assert item.envelope.payload_len == len(datagram) - W.HEADER_LEN
        assert item == W.decode(datagram)
    assert accepted > 1_000
    assert set(refusals) == {TypeError, struct.error, W.PayloadTooLarge, W.MalformedPayload, UnicodeEncodeError}


def random_every_kind(rng: random.Random) -> EveryKind:
    return EveryKind(
        msg=rng.getrandbits(8),
        size=rng.getrandbits(16),
        start=rng.getrandbits(32),
        end=rng.getrandbits(64),
        buf=rng.uniform(-1e9, 1e9),
        variant_id=_random_text(rng),
        pixels_digest=rng.randbytes(4),
        type=rng.choice(list(Light)),
        len=rng.randbytes(rng.randint(0, 40)),
    )


@pytest.fixture
def every_kind_on_the_wire(monkeypatch):
    """``EveryKind``'s built codec, registered as ``encode`` and ``decode``
    find a message type's."""
    check, pack, decode_payload = W._build_codec(EveryKind)
    monkeypatch.setitem(W._ENCODERS, EveryKind, (EveryKind.MSG_TYPE, check, pack))
    monkeypatch.setitem(W._DECODERS, EveryKind.MSG_TYPE, (EveryKind.MSG_TYPE, decode_payload))


class PublishedItems(list):
    """A bus that keeps what is published; ``EveryKind`` has no route on a
    real one."""

    publish = list.append


def test_a_layout_of_every_wire_kind_round_trips_and_refuses_what_send_refuses(every_kind_on_the_wire):
    rng = random.Random(0xA11)
    published = PublishedItems()
    sender = W.Sender(published, 4, FakeClock(0))
    refusals = Counter()
    for i in range(2_000):
        msg = random_every_kind(rng)
        for _ in range(rng.choice([0, 1, 1, 2])):
            _kind, msg = _mutate(rng, msg)
        if i % 50 == 0:
            msg = msg._replace(pixels_digest=bytes(rng.choice([0, 3, 5])))
        datagram, refused = _outcome(lambda: W.encode(msg, 4, len(published), 0))
        _seq, send_refused = _outcome(lambda: sender.send(msg))
        assert send_refused is refused, (msg, refused, send_refused)
        if refused is not None:
            refusals[refused] += 1
            continue
        item = published[-1]
        assert item.envelope.payload_len == len(datagram) - W.HEADER_LEN
        envelope, decoded = W.decode(datagram)
        assert (envelope, decoded) == (item.envelope, msg)
        assert field_types(decoded) == field_types(msg)
    assert len(published) > 500
    assert set(refusals) == {TypeError, struct.error, W.PayloadTooLarge, W.MalformedPayload, UnicodeEncodeError}


def _category(outcome: str) -> str:
    categories = {
        "decoded": r"Envelope\(",
        "short": r"MalformedPayload: payload short by \d+ bytes$",
        "utf8": r"MalformedPayload: invalid UTF-8 in string field: ",
        "enum": r"MalformedPayload: unknown type value \d+$",
    }
    return next(name for name, pattern in categories.items() if re.match(pattern, outcome))


def test_every_decode_category_of_every_wire_kind_is_reachable(every_kind_on_the_wire):
    """Cuts reach each size check and byte edits the UTF-8 and enum checks;
    with trailing bytes last, no payload is too long."""
    rng = random.Random(0xA12)
    good = W.encode(EveryKind(1, 2, 3, 4, 0.5, "ab", b"wxyz", Light.GREEN, b"tail"), 1, 0, 0)
    payload = good[W.HEADER_LEN :]
    variants = [payload[:cut] for cut in range(len(payload) + 1)]
    for _ in range(300):
        bad = bytearray(payload)
        bad[rng.randrange(len(bad))] = rng.getrandbits(8)
        variants.append(bytes(bad))
    categories = Counter(_category(_decode_outcome(_with_payload(good, variant))) for variant in variants)
    assert set(categories) == {"decoded", "short", "utf8", "enum"}


@pytest.mark.parametrize(
    "layout",
    [
        EveryKind.LAYOUT[:-1],
        EveryKind.LAYOUT + (("extra", W.U8),),
        (EveryKind.LAYOUT[1], EveryKind.LAYOUT[0], *EveryKind.LAYOUT[2:]),
        (*EveryKind.LAYOUT[:-2], ("type", Light), ("type", Light)),
        (("msg", W.TRAILING), *EveryKind.LAYOUT[1:]),
        (("msg", int), *EveryKind.LAYOUT[1:]),
    ],
    ids=["short", "long", "out-of-order", "field-twice", "trailing-not-last", "not-a-kind"],
)
def test_a_layout_that_does_not_give_each_field_one_kind_in_order_is_refused(layout):
    record = NamedTuple("Wrong", [(name, hint) for name, hint in get_type_hints(EveryKind).items()])
    record.LAYOUT = layout
    with pytest.raises(TypeError, match=r"^Wrong\.LAYOUT"):
        W._build_codec(record)


def test_each_layout_kind_is_its_fields_declared_type():
    for record in [*W._ENCODERS, EveryKind]:
        hints = get_type_hints(record)
        declared = [kind if isinstance(kind, type) else kind.type for _name, kind in record.LAYOUT]
        assert declared == [hints[name] for name in record._fields], record


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


def _decode_outcome(datagram: bytes) -> str:
    try:
        envelope, message = W.decode(datagram)
    except W.DecodeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{envelope!r} {message!r}"


def _decode_class(datagram: bytes) -> str:
    try:
        W.decode(datagram)
    except W.DecodeError as exc:
        return type(exc).__name__
    return "decoded"


def _cut_and_mutated_datagrams():
    """Every cut and extension, then 300 seeded byte mutations, of the
    payload of one record of each message type."""
    messages = FIXED_LAYOUT_MESSAGES + [
        W.Command(target_variant_id="expA", command=W.CommandKind.DEGRADE, degrade_level=1),
        W.ResultChunk(experiment_id="exp-1", chunk_index=0, total_chunks=3, data=b"abc"),
    ]
    rng = random.Random(0xC0DEC)
    for msg in messages:
        good = W.encode(msg, 1, 0, 0)
        payload = good[W.HEADER_LEN :]
        for cut in range(len(payload) + 4):
            yield _with_payload(good, (payload + b"\x00\xff\x01")[:cut])
        for _ in range(300):
            bad = bytearray(payload)
            for _ in range(rng.randint(1, 3)):
                bad[rng.randrange(len(bad))] = rng.getrandbits(8)
            yield _with_payload(good, bytes(bad))


def _digest(outcomes) -> str:
    return hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()


def test_every_rejection_keeps_its_pinned_class_and_message():
    """Every cut, extension and seeded byte mutation of each message type
    decodes to the same record or raises the same error class with the same
    message, pinned as one digest of all outcomes."""
    digest = _digest(map(_decode_outcome, _cut_and_mutated_datagrams()))
    assert digest == "58e589de9c03d85f3adcaf473bea59c53ea806dfa113d78af5d0b2b9fa0a3357"


def test_every_rejection_keeps_its_pinned_class():
    """The same cuts and mutations, pinned by outcome class only: the
    ``DecodeError`` subclass raised, or "decoded"."""
    digest = _digest(map(_decode_class, _cut_and_mutated_datagrams()))
    assert digest == "7f57d4372e3a88ad6df4fe715b78791468734d8a27ac68e60dd195d89437b85c"


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


def test_loopback_retains_no_delivered_message():
    bus = W.LoopbackBus()
    delivered = []
    bus.subscribe(callback=delivered.append)
    W.Sender(bus, 1, FakeClock(0)).send(W.Heartbeat(node_id=1, uptime_s=0))
    bus.publish(W.encode(W.Heartbeat(node_id=1, uptime_s=1), 1, 1, 0))
    assert len(delivered) == 2
    # once publish returns, the test's list is all that refers to each record
    assert [gc.get_referrers(item) for item in delivered] == [[delivered], [delivered]]


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


@pytest.fixture
def created_sockets(monkeypatch):
    created = []

    class RecordedSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(W.socket, "socket", RecordedSocket)
    return created


def test_a_udp_endpoint_that_fails_to_open_closes_its_socket(created_sockets):
    with pytest.raises(W.SocketError):
        W.UdpMulticastBus(group="1.2.3.4", port=7797)  # not a multicast group
    assert len(created_sockets) == 1
    assert created_sockets[0].fileno() == -1  # closed


def test_a_udp_endpoint_on_a_port_past_65535_closes_its_socket(created_sockets):
    # bind raises OverflowError, not OSError, for a port out of range
    with pytest.raises(W.SocketError, match=r"^cannot open multicast endpoint 239\.255\.77\.1:70000: "):
        W.UdpMulticastBus(group="239.255.77.1", port=70000)
    assert len(created_sockets) == 1
    assert created_sockets[0].fileno() == -1  # closed

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
@pytest.mark.skipif(not _HAVE_MULTICAST, reason="no multicast-capable loopback interface")
def test_a_sender_on_a_udp_endpoint_delivers_each_published_type_decoded_equal():
    records = [
        W.SensorFrame(frame_id=(1 << 64) - 1, ground_truth_count=8, pixels_digest=bytes(range(32))),
        W.ModuleOutput(frame_id=41, variant_id="expä-世", detected_count=0xFFFF, latency_us=31_000),
        W.ResourceReport(variant_id="prod", cpu_pct=42.5, mem_mb=120.25),
        W.Command(target_variant_id="expA", command=W.CommandKind.DEGRADE, degrade_level=2),
        W.Heartbeat(node_id=2, uptime_s=3600),
    ]
    bus = W.UdpMulticastBus(group="239.255.77.1", port=7756)
    try:
        received = []
        bus.subscribe(received.append)
        clock = WallClock()
        sender = W.Sender(bus, sender_id=78, clock=clock)
        for msg in records:
            sender.send(msg)
        own = []
        for _ in range(20):
            bus.deliver_until(clock, clock.now_us() + 100_000)
            own = [item for item in received if item.envelope.sender_id == 78]
            if len(own) == len(records):
                break
        assert [item.message for item in own] == records
        for item, msg in zip(own, records):
            assert field_types(item.message) == field_types(msg)
            assert item.envelope.msg_type is msg.MSG_TYPE
            assert item.envelope.payload_len == len(W.encode(msg, 78, 0, 0)) - W.HEADER_LEN
        assert [item.envelope.seq for item in own] == list(range(len(records)))
    finally:
        bus.close()


@pytest.mark.udp
@pytest.mark.skipif(not _HAVE_MULTICAST, reason="no multicast-capable loopback interface")
def test_publish_after_close_raises():
    bus = W.UdpMulticastBus(group="239.255.77.1", port=7757)
    bus.close()
    with pytest.raises(W.TransportClosed):
        bus.publish(W.encode(W.Heartbeat(node_id=1, uptime_s=0), 1, 0, 0))
    with pytest.raises(W.TransportClosed):
        bus.deliver_until(WallClock(), 0)
    with pytest.raises(W.TransportClosed):
        bus.subscribe(lambda item: None)
    bus.close()  # a second close is a no-op


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
