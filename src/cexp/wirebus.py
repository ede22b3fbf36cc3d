"""Binary envelope codec and message vocabulary for the module bus.

Every datagram is a 28-byte little-endian header followed by a typed
payload. The header layout is normative and bit-exact:

    magic        4 bytes   ASCII "CEXP"
    version      u8        1
    msg_type     u8        see the message table
    flags        u16       reserved, must be 0
    sender_id    u32
    seq          u32       monotonically increasing per sender
    timestamp_us u64       microseconds since the Unix epoch
    payload_len  u32       <= 60000

Strings inside payloads are u16-length-prefixed UTF-8. The decoder is
total: any byte blob yields either a decoded message or a categorized
error, never a crash.

Two transports are provided: an in-memory loopback hub (exactly-once,
publish-order delivery; the deterministic test substrate) and a real
UDP-multicast endpoint (best-effort, for multi-node desks). Both
receive through one dispatch step, which drops undecodable datagrams.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Union

from .clock import Clock

MAGIC = b"CEXP"
VERSION = 1
HEADER = struct.Struct("<4sBBHIIQI")
HEADER_LEN = HEADER.size  # 28
MAX_PAYLOAD = 60_000  # one UDP datagram with margin

DEFAULT_GROUP = "239.255.77.1"
DEFAULT_PORT = 7700


class BusError(Exception):
    pass


class PayloadTooLarge(BusError):
    pass


class TransportClosed(BusError):
    pass


class SocketError(BusError):
    pass


class DecodeError(BusError):
    """Base for every decode failure category."""


class BadMagic(DecodeError):
    pass


class BadVersion(DecodeError):
    pass


class Truncated(DecodeError):
    pass


class UnknownType(DecodeError):
    pass


class MalformedPayload(DecodeError):
    pass


class MsgType(IntEnum):
    SENSOR_FRAME = 0x01
    MODULE_OUTPUT = 0x02
    RESOURCE_REPORT = 0x03
    COMMAND = 0x04
    HEARTBEAT = 0x05
    RESULT_CHUNK = 0x06


class CommandKind(IntEnum):
    DEGRADE = 1
    STOP = 2


@dataclass(frozen=True)
class SensorFrame:
    frame_id: int
    ground_truth_count: int
    pixels_digest: bytes  # exactly 32 bytes

    MSG_TYPE = MsgType.SENSOR_FRAME


@dataclass(frozen=True)
class ModuleOutput:
    frame_id: int
    variant_id: str
    detected_count: int
    latency_us: int

    MSG_TYPE = MsgType.MODULE_OUTPUT


@dataclass(frozen=True)
class ResourceReport:
    variant_id: str
    cpu_pct: float
    mem_mb: float

    MSG_TYPE = MsgType.RESOURCE_REPORT


@dataclass(frozen=True)
class Command:
    target_variant_id: str
    command: CommandKind
    degrade_level: int

    MSG_TYPE = MsgType.COMMAND


@dataclass(frozen=True)
class Heartbeat:
    node_id: int
    uptime_s: int

    MSG_TYPE = MsgType.HEARTBEAT


@dataclass(frozen=True)
class ResultChunk:
    experiment_id: str
    chunk_index: int
    total_chunks: int
    data: bytes

    MSG_TYPE = MsgType.RESULT_CHUNK


Message = Union[SensorFrame, ModuleOutput, ResourceReport, Command, Heartbeat, ResultChunk]


@dataclass(frozen=True)
class Envelope:
    """Header metadata of a decoded datagram."""

    msg_type: MsgType
    sender_id: int
    seq: int
    timestamp_us: int
    payload_len: int


# Precompiled layouts of the fixed parts of each payload. A string field
# is a u16 length prefix followed by that many UTF-8 bytes.
_U16 = struct.Struct("<H")
_SENSOR_FRAME = struct.Struct("<QH32s")
_MODULE_OUTPUT_HEAD = struct.Struct("<QH")  # frame_id, variant_id length
_MODULE_OUTPUT_TAIL = struct.Struct("<HI")
_RESOURCE_REPORT_TAIL = struct.Struct("<dd")
_COMMAND_TAIL = struct.Struct("<BB")
_HEARTBEAT = struct.Struct("<IQ")
_RESULT_CHUNK_TAIL = struct.Struct("<II")

_MSG_TYPES = {int(t): t for t in MsgType}


def _check_min(size: int, needed: int) -> None:
    if size < needed:
        raise MalformedPayload(f"payload short by {needed - size} bytes")


def _check_size(size: int, expected: int) -> None:
    """A payload part of the wrong size, short or long, is a MalformedPayload."""
    _check_min(size, expected)
    if size > expected:
        raise MalformedPayload(f"{size - expected} trailing payload bytes")


def _text(buf: bytes, start: int, stop: int) -> str:
    try:
        return str(buf[start:stop], "utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedPayload(f"invalid UTF-8 in string field: {exc}") from exc


def _str_at(buf: bytes, start: int, end: int) -> tuple[str, int]:
    """The string field at ``start`` and the offset just past it; the
    field must end at or before ``end``."""
    _check_min(end - start, _U16.size)
    (length,) = _U16.unpack_from(buf, start)
    stop = start + _U16.size + length
    _check_min(end - start, stop - start)
    return _text(buf, start + _U16.size, stop), stop


def _utf8_field(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise PayloadTooLarge(f"string field of {len(raw)} bytes")
    return raw


def _pack_str(s: str) -> bytes:
    raw = _utf8_field(s)
    return _U16.pack(len(raw)) + raw


def _encode_payload(msg: Message) -> bytes:
    if isinstance(msg, SensorFrame):
        if len(msg.pixels_digest) != 32:
            raise MalformedPayload("pixels_digest must be exactly 32 bytes")
        return _SENSOR_FRAME.pack(msg.frame_id, msg.ground_truth_count, msg.pixels_digest)
    if isinstance(msg, ModuleOutput):
        raw = _utf8_field(msg.variant_id)
        return (
            _MODULE_OUTPUT_HEAD.pack(msg.frame_id, len(raw))
            + raw
            + _MODULE_OUTPUT_TAIL.pack(msg.detected_count, msg.latency_us)
        )
    if isinstance(msg, ResourceReport):
        return _pack_str(msg.variant_id) + _RESOURCE_REPORT_TAIL.pack(msg.cpu_pct, msg.mem_mb)
    if isinstance(msg, Command):
        return _pack_str(msg.target_variant_id) + _COMMAND_TAIL.pack(
            int(msg.command), msg.degrade_level
        )
    if isinstance(msg, Heartbeat):
        return _HEARTBEAT.pack(msg.node_id, msg.uptime_s)
    if isinstance(msg, ResultChunk):
        return (
            _pack_str(msg.experiment_id)
            + _RESULT_CHUNK_TAIL.pack(msg.chunk_index, msg.total_chunks)
            + msg.data
        )
    raise TypeError(f"not a bus message: {type(msg).__name__}")


def _decode_payload(msg_type: MsgType, buf: bytes, start: int) -> Message:
    """Decode the payload that fills ``buf[start:]``."""
    end = len(buf)
    if msg_type is MsgType.SENSOR_FRAME:
        _check_size(end - start, _SENSOR_FRAME.size)
        return SensorFrame(*_SENSOR_FRAME.unpack_from(buf, start))
    if msg_type is MsgType.MODULE_OUTPUT:
        _check_min(end - start, _MODULE_OUTPUT_HEAD.size)
        frame_id, length = _MODULE_OUTPUT_HEAD.unpack_from(buf, start)
        pos = start + _MODULE_OUTPUT_HEAD.size
        _check_size(end - pos, length + _MODULE_OUTPUT_TAIL.size)
        variant_id = _text(buf, pos, pos + length)
        detected, latency = _MODULE_OUTPUT_TAIL.unpack_from(buf, pos + length)
        return ModuleOutput(frame_id, variant_id, detected, latency)
    if msg_type is MsgType.RESOURCE_REPORT:
        variant_id, pos = _str_at(buf, start, end)
        _check_size(end - pos, _RESOURCE_REPORT_TAIL.size)
        cpu, mem = _RESOURCE_REPORT_TAIL.unpack_from(buf, pos)
        return ResourceReport(variant_id, cpu, mem)
    if msg_type is MsgType.HEARTBEAT:
        _check_size(end - start, _HEARTBEAT.size)
        return Heartbeat(*_HEARTBEAT.unpack_from(buf, start))
    if msg_type is MsgType.COMMAND:
        target, pos = _str_at(buf, start, end)
        _check_size(end - pos, _COMMAND_TAIL.size)
        kind_raw, level = _COMMAND_TAIL.unpack_from(buf, pos)
        try:
            kind = CommandKind(kind_raw)
        except ValueError:
            raise MalformedPayload(f"unknown command value {kind_raw}") from None
        return Command(target, kind, level)
    if msg_type is MsgType.RESULT_CHUNK:
        experiment_id, pos = _str_at(buf, start, end)
        _check_min(end - pos, _RESULT_CHUNK_TAIL.size)
        index, total = _RESULT_CHUNK_TAIL.unpack_from(buf, pos)
        return ResultChunk(experiment_id, index, total, buf[pos + _RESULT_CHUNK_TAIL.size :])
    raise UnknownType(f"msg_type {msg_type}")  # pragma: no cover - MsgType is closed


def encode(msg: Message, sender_id: int, seq: int, timestamp_us: int) -> bytes:
    """Serialize a message into one datagram. Raises ``PayloadTooLarge``."""
    payload = _encode_payload(msg)
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    header = HEADER.pack(
        MAGIC, VERSION, int(msg.MSG_TYPE), 0, sender_id, seq, timestamp_us, len(payload)
    )
    return header + payload


def decode(datagram: bytes) -> tuple[Envelope, Message]:
    """Decode one datagram; total over arbitrary input.

    Raises ``Truncated``, ``BadMagic``, ``BadVersion``, ``UnknownType``, or
    ``MalformedPayload`` - never anything else.
    """
    size = len(datagram)
    if size < HEADER_LEN:
        raise Truncated(f"datagram of {size} bytes is below the {HEADER_LEN}-byte header")
    magic, version, msg_type_raw, flags, sender_id, seq, timestamp_us, payload_len = HEADER.unpack_from(
        datagram
    )
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    msg_type = _MSG_TYPES.get(msg_type_raw)
    if msg_type is None:
        raise UnknownType(f"unknown msg_type 0x{msg_type_raw:02x}")
    if flags != 0:
        raise MalformedPayload(f"reserved flags must be 0, got 0x{flags:04x}")
    if payload_len > MAX_PAYLOAD:
        raise MalformedPayload(f"payload_len {payload_len} exceeds {MAX_PAYLOAD}")
    body_len = size - HEADER_LEN
    if body_len < payload_len:
        raise Truncated(f"payload short: header says {payload_len}, got {body_len}")
    if body_len > payload_len:
        raise MalformedPayload(f"{body_len - payload_len} bytes beyond declared payload")
    message = _decode_payload(msg_type, datagram, HEADER_LEN)
    return Envelope(msg_type, sender_id, seq, timestamp_us, payload_len), message


@dataclass(frozen=True)
class Received:
    """One delivered datagram, decoded."""

    envelope: Envelope
    message: Message


class _Router:
    """The receive path both transports share. ``_dispatch`` decodes a raw
    datagram once and hands it to every callback subscribed to its
    msg_type, in the order they subscribed. An undecodable datagram
    (foreign or malformed traffic) is dropped, on either transport."""

    def __init__(self) -> None:
        self._routes: dict[MsgType, list[Callable[[Received], None]]] = {t: [] for t in MsgType}
        self._closed = False

    def subscribe(
        self, callback: Callable[[Received], None], types: Iterable[MsgType] | None = None
    ) -> None:
        """Call ``callback`` with each delivered datagram of ``types`` (all by default)."""
        if self._closed:
            raise TransportClosed("bus is closed")
        for msg_type in MsgType if types is None else frozenset(types):
            self._routes[msg_type].append(callback)

    def _dispatch(self, raw: bytes) -> None:
        try:
            item = Received(*decode(raw))
        except DecodeError:
            return
        for deliver in self._routes[item.envelope.msg_type]:
            deliver(item)


class LoopbackBus(_Router):
    """In-memory hub: each published datagram is dispatched synchronously,
    so it reaches every callback for its msg_type exactly once, in publish
    order. Nothing is retained once fan-out returns; whoever wants to
    audit the traffic subscribes for it."""

    def publish(self, datagram: bytes) -> None:
        if self._closed:
            raise TransportClosed("bus is closed")
        self._dispatch(datagram)

    def close(self) -> None:
        self._closed = True


class UdpMulticastBus(_Router):
    """Best-effort UDP multicast endpoint bound to ``group:port``.

    Configuration keys ``bus.group`` / ``bus.port`` map onto the
    constructor arguments. Loss is possible; duplication is not
    introduced locally. ``deliver_until`` receives datagrams and
    dispatches them as the loopback hub does. One publisher plus one
    reader per endpoint; wider sharing needs external serialization.
    """

    def __init__(self, group: str = DEFAULT_GROUP, port: int = DEFAULT_PORT, *, loop: bool = True) -> None:
        super().__init__()
        self.group = group
        self.port = port
        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM, socket.IPPROTO_UDP)
            try:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                self._sock.bind(("", port))
                membership = socket.inet_aton(group) + socket.inet_aton("0.0.0.0")
                self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, membership)
                self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1 if loop else 0)
                self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
            except OSError:
                self._sock.close()
                raise
        except OSError as exc:
            raise SocketError(f"cannot open multicast endpoint {group}:{port}: {exc}") from exc

    def publish(self, datagram: bytes) -> None:
        if self._closed:
            raise TransportClosed("endpoint is closed")
        try:
            self._sock.sendto(datagram, (self.group, self.port))
        except OSError as exc:
            raise SocketError(f"send failed: {exc}") from exc

    def deliver_until(self, clock: Clock, t_us: int) -> None:
        """Receive and dispatch datagrams until ``clock`` reads ``t_us``."""
        if self._closed:
            raise TransportClosed("endpoint is closed")
        while (wait_us := t_us - clock.now_us()) > 0:
            self._sock.settimeout(wait_us / 1e6)
            try:
                raw, _addr = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError as exc:
                raise SocketError(f"recv failed: {exc}") from exc
            self._dispatch(raw)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()


class Sender:
    """Per-sender envelope writer: stamps monotonically increasing seq."""

    def __init__(self, bus, sender_id: int, clock) -> None:
        self.bus = bus
        self.sender_id = sender_id
        self.clock = clock
        self._seq = 0

    def send(self, msg: Message) -> int:
        """Encode and publish; returns the seq used."""
        seq = self._seq
        self.bus.publish(encode(msg, self.sender_id, seq, self.clock.now_us()))
        self._seq += 1
        return seq
