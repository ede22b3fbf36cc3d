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

Messages and the ``Envelope`` are ``NamedTuple`` records: immutable,
hashable, and equal only to a record of the same type, never to a bare
tuple or to a message of another type with the same values. The
decoders build them with ``tuple.__new__`` from the unpacked fields,
skipping the constructor's argument binding: each struct layout fixes
its record's arity.

Each message type has a check and a packer, and ``encode`` is the check
followed by the packer. The check refuses a field not of exactly its
declared type (``int``, ``float``, ``str``, ``bytes``, or
``CommandKind`` for ``Command.command``) with ``TypeError``, even a
value that would pack: a ``bool`` or another ``int`` subclass where an
``int`` belongs, an ``int`` where a ``float`` belongs, a plain ``int``
for the command, a ``bytearray`` for bytes. So every record that
encodes is one the decoder would build back, equal and with the same
type in every field. It refuses an int outside its wire width with
``struct.error``, as packing would, a string over 65,535 UTF-8 bytes or
a payload over ``MAX_PAYLOAD`` with ``PayloadTooLarge``, and a string
UTF-8 cannot encode with the ``UnicodeEncodeError`` encoding raises;
then it returns the payload size. The packer writes a checked record.

Two transports are provided: an in-memory loopback hub (exactly-once,
publish-order delivery; the deterministic test substrate) and a real
UDP-multicast endpoint (best-effort, for multi-node desks). ``publish``
takes one item on both: a ``Received`` or a raw datagram.
``Sender.send`` only checks its message, and publishes the
``Received`` a decoder would build from the datagram, with the checked
size as ``payload_len``. The loopback hub fans a ``Received`` out as it
is, so traffic that stays in the process is never packed or decoded;
the UDP endpoint encodes it, and is the one place a published message
turns into bytes. Raw datagrams, published on the hub or received by the
UDP endpoint, go through ``decode``, and undecodable ones are dropped. A
subscriber's callback gets a ``Received`` holding the ``envelope`` and
``message``: one object per datagram, handed to every subscriber of its
msg_type in turn and kept by the bus no longer than that fan-out.
"""

from __future__ import annotations

import socket
import struct
from enum import IntEnum
from typing import Callable, Iterable, NamedTuple, NoReturn, Union, get_type_hints

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


def _type_strict(record: type) -> type:
    """Make a ``NamedTuple`` record equal only to a record of its own type.
    A bare tuple subclass equals any tuple with the same items, so without
    this ``Heartbeat(1, 2) == (1, 2)`` and a resource report could equal a
    command. Hashing stays the tuple's: records that are equal hash equal."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not __eq__(self, other)

    record.__eq__ = __eq__
    record.__ne__ = __ne__
    record.__hash__ = tuple.__hash__
    return record


@_type_strict
class SensorFrame(NamedTuple):
    frame_id: int
    ground_truth_count: int
    pixels_digest: bytes  # exactly 32 bytes

    MSG_TYPE = MsgType.SENSOR_FRAME


@_type_strict
class ModuleOutput(NamedTuple):
    frame_id: int
    variant_id: str
    detected_count: int
    latency_us: int

    MSG_TYPE = MsgType.MODULE_OUTPUT


@_type_strict
class ResourceReport(NamedTuple):
    variant_id: str
    cpu_pct: float
    mem_mb: float

    MSG_TYPE = MsgType.RESOURCE_REPORT


@_type_strict
class Command(NamedTuple):
    target_variant_id: str
    command: CommandKind
    degrade_level: int

    MSG_TYPE = MsgType.COMMAND


@_type_strict
class Heartbeat(NamedTuple):
    node_id: int
    uptime_s: int

    MSG_TYPE = MsgType.HEARTBEAT


@_type_strict
class ResultChunk(NamedTuple):
    experiment_id: str
    chunk_index: int
    total_chunks: int
    data: bytes

    MSG_TYPE = MsgType.RESULT_CHUNK


Message = Union[SensorFrame, ModuleOutput, ResourceReport, Command, Heartbeat, ResultChunk]


@_type_strict
class Envelope(NamedTuple):
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


# builds a decoded record from its fields (see the module docstring)
_new = tuple.__new__


def _wrong_size(size: int, expected: int) -> NoReturn:
    """Raise for a payload part of ``size`` bytes where ``expected`` belong.
    Callers test the size inline (``!=`` for an exact size, ``<`` for a
    minimum) and call this only to raise: short or long, it is a
    ``MalformedPayload``."""
    if size < expected:
        raise MalformedPayload(f"payload short by {expected - size} bytes")
    raise MalformedPayload(f"{size - expected} trailing payload bytes")


def _text(buf: bytes, start: int, stop: int) -> str:
    try:
        return buf[start:stop].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedPayload(f"invalid UTF-8 in string field: {exc}") from exc


def _str_at(buf: bytes, start: int, end: int) -> tuple[str, int]:
    """The string field at ``start`` and the offset just past it; the
    field must end at or before ``end``."""
    if end - start < _U16.size:
        _wrong_size(end - start, _U16.size)
    (length,) = _U16.unpack_from(buf, start)
    stop = start + _U16.size + length
    if stop > end:
        _wrong_size(end - start, stop - start)
    return _text(buf, start + _U16.size, stop), stop


def _utf8_len(s: str) -> int:
    """The UTF-8 size of a string field; raises what encoding it raises,
    and ``PayloadTooLarge`` past 65,535 bytes. Checks take ``len(s)``
    inline for an ASCII string that fits, and call this for the rest."""
    size = len(s.encode("utf-8"))
    if size > 0xFFFF:
        raise PayloadTooLarge(f"string field of {size} bytes")
    return size


def _too_large(size: int) -> NoReturn:
    raise PayloadTooLarge(f"payload of {size} bytes exceeds {MAX_PAYLOAD}")


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _wrong_type(msg: Message) -> NoReturn:
    """Raise ``TypeError`` for the first field of ``msg`` that is not of
    exactly its declared type. Checks test the types inline and call this
    only to raise."""
    hints = get_type_hints(type(msg))
    name, value = next((n, v) for n, v in zip(msg._fields, msg) if type(v) is not hints[n])
    raise TypeError(f"{type(msg).__name__}.{name} must be {hints[name].__name__}, got {type(value).__name__}")


# The unsigned wire width, in bits, of each int field. Checks test the
# widths inline; this table only names the field in the error.
_INT_BITS = {
    SensorFrame: {"frame_id": 64, "ground_truth_count": 16},
    ModuleOutput: {"frame_id": 64, "detected_count": 16, "latency_us": 32},
    Command: {"degrade_level": 8},
    Heartbeat: {"node_id": 32, "uptime_s": 64},
    ResultChunk: {"chunk_index": 32, "total_chunks": 32},
}


def _out_of_range(msg: Message) -> NoReturn:
    """Raise ``struct.error``, as packing would, for the first int field of
    ``msg`` outside its wire width."""
    name, bits = next((n, b) for n, b in _INT_BITS[type(msg)].items() if not 0 <= getattr(msg, n) < 1 << b)
    raise struct.error(f"{type(msg).__name__}.{name} must be in [0, 2**{bits}), got {getattr(msg, name)}")


# One check, one packer and one decoder per message type. A check raises
# everything packing the record could: a field not of exactly its type
# (see the module docstring), an int outside its wire width, a string over
# 65,535 UTF-8 bytes or a payload over MAX_PAYLOAD; then it returns the
# payload's size. A packer writes the fields of a checked record in order.
# A decoder reads the payload that fills ``buf[start:end]`` and checks its
# every size, string and enum.


def _check_sensor_frame(msg: SensorFrame) -> int:
    frame_id, ground_truth_count, pixels_digest = msg
    if type(frame_id) is not int or type(ground_truth_count) is not int or type(pixels_digest) is not bytes:
        _wrong_type(msg)
    if len(pixels_digest) != 32:
        raise MalformedPayload("pixels_digest must be exactly 32 bytes")
    if not (0 <= frame_id < 1 << 64 and 0 <= ground_truth_count < 1 << 16):
        _out_of_range(msg)
    return _SENSOR_FRAME.size


def _pack_sensor_frame(msg: SensorFrame) -> bytes:
    return _SENSOR_FRAME.pack(*msg)


def _decode_sensor_frame(buf: bytes, start: int, end: int) -> SensorFrame:
    if end - start != _SENSOR_FRAME.size:
        _wrong_size(end - start, _SENSOR_FRAME.size)
    return _new(SensorFrame, _SENSOR_FRAME.unpack_from(buf, start))


def _check_module_output(msg: ModuleOutput) -> int:
    frame_id, variant_id, detected_count, latency_us = msg
    if (
        type(frame_id) is not int
        or type(variant_id) is not str
        or type(detected_count) is not int
        or type(latency_us) is not int
    ):
        _wrong_type(msg)
    size = len(variant_id)
    if size > 0xFFFF or not variant_id.isascii():
        size = _utf8_len(variant_id)
    if not (0 <= frame_id < 1 << 64 and 0 <= detected_count < 1 << 16 and 0 <= latency_us < 1 << 32):
        _out_of_range(msg)
    size += _MODULE_OUTPUT_HEAD.size + _MODULE_OUTPUT_TAIL.size
    if size > MAX_PAYLOAD:
        _too_large(size)
    return size


def _pack_module_output(msg: ModuleOutput) -> bytes:
    frame_id, variant_id, detected_count, latency_us = msg
    raw = variant_id.encode("utf-8")
    return _MODULE_OUTPUT_HEAD.pack(frame_id, len(raw)) + raw + _MODULE_OUTPUT_TAIL.pack(detected_count, latency_us)


def _decode_module_output(buf: bytes, start: int, end: int) -> ModuleOutput:
    if end - start < _MODULE_OUTPUT_HEAD.size:
        _wrong_size(end - start, _MODULE_OUTPUT_HEAD.size)
    frame_id, length = _MODULE_OUTPUT_HEAD.unpack_from(buf, start)
    pos = start + _MODULE_OUTPUT_HEAD.size
    stop = pos + length
    if end - stop != _MODULE_OUTPUT_TAIL.size:
        _wrong_size(end - pos, length + _MODULE_OUTPUT_TAIL.size)
    detected, latency = _MODULE_OUTPUT_TAIL.unpack_from(buf, stop)
    return _new(ModuleOutput, (frame_id, _text(buf, pos, stop), detected, latency))


def _check_resource_report(msg: ResourceReport) -> int:
    variant_id, cpu_pct, mem_mb = msg
    if type(variant_id) is not str or type(cpu_pct) is not float or type(mem_mb) is not float:
        _wrong_type(msg)
    size = len(variant_id)
    if size > 0xFFFF or not variant_id.isascii():
        size = _utf8_len(variant_id)
    size += _U16.size + _RESOURCE_REPORT_TAIL.size
    if size > MAX_PAYLOAD:
        _too_large(size)
    return size


def _pack_resource_report(msg: ResourceReport) -> bytes:
    variant_id, cpu_pct, mem_mb = msg
    return _pack_str(variant_id) + _RESOURCE_REPORT_TAIL.pack(cpu_pct, mem_mb)


def _decode_resource_report(buf: bytes, start: int, end: int) -> ResourceReport:
    variant_id, pos = _str_at(buf, start, end)
    if end - pos != _RESOURCE_REPORT_TAIL.size:
        _wrong_size(end - pos, _RESOURCE_REPORT_TAIL.size)
    cpu, mem = _RESOURCE_REPORT_TAIL.unpack_from(buf, pos)
    return _new(ResourceReport, (variant_id, cpu, mem))


def _check_command(msg: Command) -> int:
    target_variant_id, command, degrade_level = msg
    if type(target_variant_id) is not str or type(command) is not CommandKind or type(degrade_level) is not int:
        _wrong_type(msg)
    size = len(target_variant_id)
    if size > 0xFFFF or not target_variant_id.isascii():
        size = _utf8_len(target_variant_id)
    if not 0 <= degrade_level < 1 << 8:
        _out_of_range(msg)
    size += _U16.size + _COMMAND_TAIL.size
    if size > MAX_PAYLOAD:
        _too_large(size)
    return size


def _pack_command(msg: Command) -> bytes:
    target_variant_id, command, degrade_level = msg
    return _pack_str(target_variant_id) + _COMMAND_TAIL.pack(command, degrade_level)


def _decode_command(buf: bytes, start: int, end: int) -> Command:
    target, pos = _str_at(buf, start, end)
    if end - pos != _COMMAND_TAIL.size:
        _wrong_size(end - pos, _COMMAND_TAIL.size)
    kind_raw, level = _COMMAND_TAIL.unpack_from(buf, pos)
    try:
        kind = CommandKind(kind_raw)
    except ValueError:
        raise MalformedPayload(f"unknown command value {kind_raw}") from None
    return _new(Command, (target, kind, level))


def _check_heartbeat(msg: Heartbeat) -> int:
    node_id, uptime_s = msg
    if type(node_id) is not int or type(uptime_s) is not int:
        _wrong_type(msg)
    if not (0 <= node_id < 1 << 32 and 0 <= uptime_s < 1 << 64):
        _out_of_range(msg)
    return _HEARTBEAT.size


def _pack_heartbeat(msg: Heartbeat) -> bytes:
    return _HEARTBEAT.pack(*msg)


def _decode_heartbeat(buf: bytes, start: int, end: int) -> Heartbeat:
    if end - start != _HEARTBEAT.size:
        _wrong_size(end - start, _HEARTBEAT.size)
    return _new(Heartbeat, _HEARTBEAT.unpack_from(buf, start))


def _check_result_chunk(msg: ResultChunk) -> int:
    experiment_id, chunk_index, total_chunks, data = msg
    if (
        type(experiment_id) is not str
        or type(chunk_index) is not int
        or type(total_chunks) is not int
        or type(data) is not bytes
    ):
        _wrong_type(msg)
    size = len(experiment_id)
    if size > 0xFFFF or not experiment_id.isascii():
        size = _utf8_len(experiment_id)
    if not (0 <= chunk_index < 1 << 32 and 0 <= total_chunks < 1 << 32):
        _out_of_range(msg)
    size += _U16.size + _RESULT_CHUNK_TAIL.size + len(data)
    if size > MAX_PAYLOAD:
        _too_large(size)
    return size


def _pack_result_chunk(msg: ResultChunk) -> bytes:
    experiment_id, chunk_index, total_chunks, data = msg
    return _pack_str(experiment_id) + _RESULT_CHUNK_TAIL.pack(chunk_index, total_chunks) + data


def _decode_result_chunk(buf: bytes, start: int, end: int) -> ResultChunk:
    experiment_id, pos = _str_at(buf, start, end)
    if end - pos < _RESULT_CHUNK_TAIL.size:
        _wrong_size(end - pos, _RESULT_CHUNK_TAIL.size)
    index, total = _RESULT_CHUNK_TAIL.unpack_from(buf, pos)
    return _new(ResultChunk, (experiment_id, index, total, buf[pos + _RESULT_CHUNK_TAIL.size : end]))


_CODECS = (
    (SensorFrame, _check_sensor_frame, _pack_sensor_frame, _decode_sensor_frame),
    (ModuleOutput, _check_module_output, _pack_module_output, _decode_module_output),
    (ResourceReport, _check_resource_report, _pack_resource_report, _decode_resource_report),
    (Command, _check_command, _pack_command, _decode_command),
    (Heartbeat, _check_heartbeat, _pack_heartbeat, _decode_heartbeat),
    (ResultChunk, _check_result_chunk, _pack_result_chunk, _decode_result_chunk),
)
# record type -> (header msg_type, payload check, payload packer)
_ENCODERS = {record: (record.MSG_TYPE, check, pack) for record, check, pack, _dec in _CODECS}
# header msg_type byte -> (MsgType, payload decoder)
_DECODERS = {int(record.MSG_TYPE): (record.MSG_TYPE, dec) for record, _check, _pack, dec in _CODECS}


def _not_a_message(value: object) -> NoReturn:
    raise TypeError(f"not a bus message: {type(value).__name__}") from None


def encode(msg: Message, sender_id: int, seq: int, timestamp_us: int) -> bytes:
    """Serialize a message into one datagram: the check of its type, then
    its packer. Raises ``PayloadTooLarge``; ``TypeError`` for anything but
    a message record whose every field has its exact type; ``struct.error``
    for an int outside its wire width; and what UTF-8 encoding a string
    field raises."""
    try:
        msg_type, check, pack = _ENCODERS[type(msg)]
    except KeyError:
        _not_a_message(msg)
    size = check(msg)
    return HEADER.pack(MAGIC, VERSION, msg_type, 0, sender_id, seq, timestamp_us, size) + pack(msg)


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
    codec = _DECODERS.get(msg_type_raw)
    if codec is None:
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
    msg_type, decode_payload = codec
    message = decode_payload(datagram, HEADER_LEN, size)
    return _new(Envelope, (msg_type, sender_id, seq, timestamp_us, payload_len)), message


class Received:
    """One datagram: its ``envelope`` (header metadata) and its ``message``
    record, decoded from raw bytes or built by the ``Sender`` that checked
    the record. Fan-out hands the same object to every subscriber of the
    msg_type in turn; treat it as read-only."""

    __slots__ = ("envelope", "message", "__weakref__")

    def __init__(self, envelope: Envelope, message: Message) -> None:
        self.envelope = envelope
        self.message = message

    def __repr__(self) -> str:
        return f"Received(envelope={self.envelope!r}, message={self.message!r})"


class _Router:
    """The receive path both transports share. ``_fan_out`` hands a
    ``Received`` to every callback subscribed to its msg_type, in the order
    they subscribed. ``_dispatch`` decodes a raw datagram once and fans it
    out; an undecodable datagram (foreign or malformed traffic) is
    dropped, on either transport."""

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
            envelope, message = decode(raw)
        except DecodeError:
            return
        self._fan_out(Received(envelope, message))

    def _fan_out(self, item: Received) -> None:
        for deliver in self._routes[item.envelope.msg_type]:
            deliver(item)


class LoopbackBus(_Router):
    """In-memory hub: each published datagram is fanned out synchronously,
    so it reaches every callback for its msg_type exactly once, in publish
    order. Nothing is retained once fan-out returns; whoever wants to
    audit the traffic subscribes for it."""

    def publish(self, item: Received | bytes) -> None:
        """Deliver one datagram. A sender's ``Received`` is fanned out as it
        is; raw bytes are decoded, and dropped if they do not decode."""
        if self._closed:
            raise TransportClosed("bus is closed")
        if type(item) is Received:
            self._fan_out(item)
        else:
            self._dispatch(item)

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

    def __init__(self, group: str = DEFAULT_GROUP, port: int = DEFAULT_PORT) -> None:
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
                # endpoints on one host, as on the desk testbed, hear each other
                self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
                self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
            except Exception:  # OverflowError too, for a port past 65535
                self._sock.close()
                raise
        except (OSError, OverflowError) as exc:
            raise SocketError(f"cannot open multicast endpoint {group}:{port}: {exc}") from exc

    def publish(self, item: Received | bytes) -> None:
        """Send one datagram to the group: a sender's ``Received`` is
        encoded here, raw bytes go as they are. Every endpoint, this one
        included, decodes what it receives."""
        if self._closed:
            raise TransportClosed("endpoint is closed")
        if type(item) is Received:
            envelope = item.envelope
            item = encode(item.message, envelope.sender_id, envelope.seq, envelope.timestamp_us)
        try:
            self._sock.sendto(item, (self.group, self.port))
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
        if type(sender_id) is not int:
            raise TypeError(f"sender_id must be int, got {type(sender_id).__name__}")
        if not 0 <= sender_id < 1 << 32:
            raise ValueError(f"sender_id must be in [0, 2**32), got {sender_id}")
        self.bus = bus
        self.sender_id = sender_id
        self.clock = clock
        self._seq = 0

    def send(self, msg: Message) -> int:
        """Check ``msg`` as ``encode`` does and publish the ``Received`` a
        decoder would build from its datagram; returns the seq used. A
        record ``encode`` refuses raises the same here and takes no seq.
        Nothing is packed: only a transport that puts the datagram on a
        wire encodes it."""
        try:
            msg_type, check, _pack = _ENCODERS[type(msg)]
        except KeyError:
            _not_a_message(msg)
        seq = self._seq
        envelope = _new(Envelope, (msg_type, self.sender_id, seq, self.clock.now_us(), check(msg)))
        self.bus.publish(Received(envelope, msg))
        self._seq += 1
        return seq
