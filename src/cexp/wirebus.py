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

Messages, the ``Envelope`` and the ``Received`` that pairs the two are
``NamedTuple`` records: immutable, hashable, and equal only to a record
of the same type, never to a bare tuple or to a message of another type
with the same values. ``decode`` returns a ``Received``, which still
unpacks as ``envelope, message``.

Each message record declares its payload once, as its ``LAYOUT``: every
field, in order, with its wire kind (``U8``, ``U16``, ``U32``, ``U64``,
``F64``, ``STR``, ``fixed_bytes(n)``, ``TRAILING`` bytes, or an
``IntEnum`` class, sent as a u8). At import ``_build_codec`` refuses a
layout that does not name each field once, in order, and generates the
type's check, packer and decoder as Python source, compiled once.
``encode`` is the check followed by the packer. The check refuses a
field not of exactly its kind's type with ``TypeError``, even a value
that would pack: a ``bool`` where an ``int`` belongs, an ``int`` where a
``float`` or an enum belongs, a ``bytearray`` for bytes. So every record
that encodes is one the decoder would build back, equal and with the
same type in every field. It refuses fixed-size bytes of another size
with ``MalformedPayload``, a string over 65,535 UTF-8 bytes with
``PayloadTooLarge`` and one UTF-8 cannot encode with the
``UnicodeEncodeError`` encoding raises, an int outside its wire width
with ``struct.error``, as packing would, and a payload over
``MAX_PAYLOAD`` with ``PayloadTooLarge``; then it returns the payload
size. The packer writes a checked record. A decoder builds its record
with ``tuple.__new__`` from the unpacked fields, skipping the
constructor's argument binding.

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
subscriber's callback gets the ``Received`` the sender built or
``decode`` returned: one record per datagram, handed as it is to every
subscriber of its msg_type in turn and kept by the bus no longer than
that fan-out.
"""

from __future__ import annotations

import socket
import struct
from enum import IntEnum
from typing import Callable, Iterable, NamedTuple, NoReturn, Union, get_args

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


class _Kind(NamedTuple):
    """The wire kind of a payload field: a fixed-size struct ``code`` (empty
    for ``STR`` and ``TRAILING``), the exact Python ``type`` its value
    must have, and the ``bits`` of an unsigned int."""

    code: str
    type: type
    bits: int = 0


U8, U16, U32, U64 = (_Kind(code, int, bits) for code, bits in (("B", 8), ("H", 16), ("I", 32), ("Q", 64)))
F64 = _Kind("d", float)
STR = _Kind("", str)  # u16 length prefix, then that many UTF-8 bytes
TRAILING = _Kind("", bytes)  # the rest of the payload; last in a layout


def fixed_bytes(size: int) -> _Kind:
    """The kind of a ``bytes`` field of exactly ``size`` bytes."""
    return _Kind(f"{size}s", bytes)


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
    pixels_digest: bytes

    MSG_TYPE = MsgType.SENSOR_FRAME
    LAYOUT = (("frame_id", U64), ("ground_truth_count", U16), ("pixels_digest", fixed_bytes(32)))


@_type_strict
class ModuleOutput(NamedTuple):
    frame_id: int
    variant_id: str
    detected_count: int
    latency_us: int

    MSG_TYPE = MsgType.MODULE_OUTPUT
    LAYOUT = (("frame_id", U64), ("variant_id", STR), ("detected_count", U16), ("latency_us", U32))


@_type_strict
class ResourceReport(NamedTuple):
    variant_id: str
    cpu_pct: float
    mem_mb: float

    MSG_TYPE = MsgType.RESOURCE_REPORT
    LAYOUT = (("variant_id", STR), ("cpu_pct", F64), ("mem_mb", F64))


@_type_strict
class Command(NamedTuple):
    target_variant_id: str
    command: CommandKind
    degrade_level: int

    MSG_TYPE = MsgType.COMMAND
    LAYOUT = (("target_variant_id", STR), ("command", CommandKind), ("degrade_level", U8))


@_type_strict
class Heartbeat(NamedTuple):
    node_id: int
    uptime_s: int

    MSG_TYPE = MsgType.HEARTBEAT
    LAYOUT = (("node_id", U32), ("uptime_s", U64))


@_type_strict
class ResultChunk(NamedTuple):
    experiment_id: str
    chunk_index: int
    total_chunks: int
    data: bytes

    MSG_TYPE = MsgType.RESULT_CHUNK
    LAYOUT = (("experiment_id", STR), ("chunk_index", U32), ("total_chunks", U32), ("data", TRAILING))


Message = Union[SensorFrame, ModuleOutput, ResourceReport, Command, Heartbeat, ResultChunk]


@_type_strict
class Envelope(NamedTuple):
    """Header metadata of a decoded datagram."""

    msg_type: MsgType
    sender_id: int
    seq: int
    timestamp_us: int
    payload_len: int


@_type_strict
class Received(NamedTuple):
    """One delivered datagram: its ``envelope`` (header metadata) and its
    ``message`` record, decoded from raw bytes or built by the ``Sender``
    that checked the record. Fan-out hands the same record to every
    subscriber of the msg_type in turn."""

    envelope: Envelope
    message: Message


# builds a decoded record from its fields (see the module docstring)
_new = tuple.__new__


def _wrong_size(size: int, expected: int) -> NoReturn:
    """Raise for a payload part of ``size`` bytes where ``expected`` belong.
    Decoders test the size inline (``!=`` for an exact size, ``<`` for a
    minimum) and call this only to raise: short or long, it is a
    ``MalformedPayload``."""
    if size < expected:
        raise MalformedPayload(f"payload short by {expected - size} bytes")
    raise MalformedPayload(f"{size - expected} trailing payload bytes")


def _str_at(buf: bytes, start: int, end: int, length: int) -> tuple[str, int]:
    """The ``length`` bytes at ``start`` as a string field, and the offset
    just past them; the field must end at or before ``end``."""
    stop = start + length
    if stop > end:
        _wrong_size(end - start, length)
    try:
        return buf[start:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise MalformedPayload(f"invalid UTF-8 in string field: {exc}") from exc


def _member(kind: type[IntEnum], field: str, value: int) -> IntEnum:
    try:
        return kind(value)
    except ValueError:
        raise MalformedPayload(f"unknown {field} value {value}") from None


def _utf8_len(s: str) -> int:
    """The UTF-8 size of a string field; raises what encoding it raises,
    and ``PayloadTooLarge`` past 65,535 bytes. Checks take ``len(s)``
    inline for an ASCII string that fits, and call this for the rest."""
    size = len(s.encode("utf-8"))
    if size > 0xFFFF:
        raise PayloadTooLarge(f"string field of {size} bytes")
    return size


def _refuse(msg: Message, kinds: list[_Kind]) -> NoReturn:
    """Raise ``TypeError`` for the first field of ``msg`` not of exactly
    its kind's type, or else ``struct.error``, as packing would, for the
    first int outside its width. Checks test both inline and call this
    only to raise."""
    name = type(msg).__name__
    for field, value, kind in zip(msg._fields, msg, kinds):
        if type(value) is not kind.type:
            raise TypeError(f"{name}.{field} must be {kind.type.__name__}, got {type(value).__name__}")
    for field, value, kind in zip(msg._fields, msg, kinds):
        if kind.bits and not 0 <= value < 1 << kind.bits:
            raise struct.error(f"{name}.{field} must be in [0, 2**{kind.bits}), got {value}")


def _layout_kinds(record: type) -> list[_Kind]:
    """The kind of each field of ``record``, in order; refuses a LAYOUT
    that does not name each field once, in order, or that has a kind
    anywhere it cannot go."""
    name = record.__name__
    names = tuple(field for field, _kind in record.LAYOUT)
    if names != record._fields:
        raise TypeError(f"{name}.LAYOUT names {names}, not the fields {record._fields} in order")
    kinds = []
    for field, kind in record.LAYOUT:
        if isinstance(kind, type) and issubclass(kind, IntEnum) and all(0 <= m < 256 for m in kind):
            kind = _Kind("B", kind)
        elif not isinstance(kind, _Kind) or (kind is TRAILING and field != names[-1]):
            raise TypeError(f"{name}.LAYOUT: {field} cannot be of kind {kind!r}")
        kinds.append(kind)
    return kinds


def _build_codec(record: type) -> tuple[Callable, Callable, Callable]:
    """Generate ``record``'s check, packer and decoder from its LAYOUT as
    Python source, compiled once, so no message pays for reading a layout.
    The check refuses what the module docstring lists, in that order, and
    returns the payload size. The packer and the decoder take each run of
    fixed-size fields, a string's length prefix ending one, as one
    ``struct.Struct``. The decoder needs at least a run's size before a
    string or trailing bytes and exactly the last run's size; it checks a
    string's length on its own, then its UTF-8, and that an enum value
    names a member. Every name the source uses besides the fields starts
    with an underscore, which no ``NamedTuple`` field name can."""
    fields, kinds = record._fields, _layout_kinds(record)
    namespace = {f"_{kind.type.__name__}": kind.type for kind in kinds}
    namespace.update(_MalformedPayload=MalformedPayload, _PayloadTooLarge=PayloadTooLarge, _type=type, _len=len)
    namespace.update(_new=_new, _wrong_size=_wrong_size, _str_at=_str_at, _member=_member, _utf8_len=_utf8_len)
    namespace.update(_refuse=_refuse, _record=record, _kinds=kinds)
    types, sizes, widths, variable, encode_strings = [], [], [], [], []
    pieces, decode, run = [], [], []  # run: (local name, kind) of each fixed-size value not yet packed
    fixed = 0

    def end_run(last: bool) -> None:
        """Pack and read the run of fixed-size values before a string,
        trailing bytes or, if ``last``, the end of the payload."""
        nonlocal fixed
        names = ", ".join(local for local, _kind in run)
        run_struct = struct.Struct("<" + "".join(kind.code for _local, kind in run))
        fixed += run_struct.size
        if run or last:
            decode.append(f"    if _end - _start {'!=' if last else '<'} {run_struct.size}:")
            decode.append(f"        _wrong_size(_end - _start, {run_struct.size})")
        if run:
            struct_name = f"_run{len(pieces)}"
            namespace[struct_name] = run_struct
            pieces.append(f"{struct_name}.pack({names})")
            decode.append(f"    {names}, = {struct_name}.unpack_from(_buf, _start)")
            if not last:
                decode.append(f"    _start += {run_struct.size}")
        for local, kind in run:
            if issubclass(kind.type, IntEnum):
                decode.append(f'    {local} = _member(_{kind.type.__name__}, "{local}", {local})')
        run.clear()

    for field, kind in zip(fields, kinds):
        types.append(f"_type({field}) is not _{kind.type.__name__}")
        if kind.bits:
            widths.append(f"0 <= {field} < {1 << kind.bits}")
        if kind is STR:
            sizes.append(f"    _n_{field} = _len({field})")
            sizes.append(f"    if _n_{field} > 0xFFFF or not {field}.isascii():")
            sizes.append(f"        _n_{field} = _utf8_len({field})")
            variable.append(f"_n_{field}")
            encode_strings.append(f'    {field} = {field}.encode("utf-8")')
            encode_strings.append(f"    _n_{field} = _len({field})")
            run.append((f"_n_{field}", U16))
            end_run(last=False)
            pieces.append(field)
            decode.append(f"    {field}, _start = _str_at(_buf, _start, _end, _n_{field})")
        elif kind is TRAILING:
            variable.append(f"_len({field})")
            end_run(last=False)
            pieces.append(field)
            decode.append(f"    {field} = _buf[_start:_end]")
        else:
            if kind.code.endswith("s"):
                size = struct.calcsize(kind.code)
                sizes.append(f"    if _len({field}) != {size}:")
                sizes.append(f'        raise _MalformedPayload("{field} must be exactly {size} bytes")')
            run.append((field, kind))
    if kinds[-1] is not TRAILING:
        end_run(last=True)
    if variable:
        total = [
            f"    _size = {' + '.join(variable)} + {fixed}",
            f"    if _size > {MAX_PAYLOAD}:",
            f'        raise _PayloadTooLarge(f"payload of {{_size}} bytes exceeds {MAX_PAYLOAD}")',
            "    return _size",
        ]
    else:
        total = [f"    return {fixed}"]
    unpack = f"    {', '.join(fields)}, = _msg"
    source = "\n".join(
        ["def check(_msg):", unpack, f"    if {' or '.join(types)}:", "        _refuse(_msg, _kinds)", *sizes]
        + [f"    if not ({' and '.join(widths)}):", "        _refuse(_msg, _kinds)"] * bool(widths)
        + total
        + ["def pack(_msg):", unpack, *encode_strings, f"    return {' + '.join(pieces)}"]
        + ["def decode(_buf, _start, _end):", *decode, f"    return _new(_record, ({', '.join(fields)},))"]
    )
    exec(compile(source, f"<{record.__name__} codec>", "exec"), namespace)
    return namespace["check"], namespace["pack"], namespace["decode"]


_ENCODERS = {}  # record type -> (header msg_type, payload check, payload packer)
_DECODERS = {}  # header msg_type byte -> (MsgType, payload decoder)
for _record in get_args(Message):
    _check, _pack, _decode = _build_codec(_record)
    _ENCODERS[_record] = (_record.MSG_TYPE, _check, _pack)
    _DECODERS[int(_record.MSG_TYPE)] = (_record.MSG_TYPE, _decode)
del _record, _check, _pack, _decode


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


def decode(datagram: bytes | bytearray | memoryview) -> Received:
    """Decode one datagram, given as any bytes-like object, into the ``Received``
    subscribers get; total over arbitrary input. Every bytes field is ``bytes``.

    Raises ``Truncated``, ``BadMagic``, ``BadVersion``, ``UnknownType``, or
    ``MalformedPayload`` - never anything else.
    """
    datagram = bytes(datagram)  # the same object when it is bytes already
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
    return _new(Received, (_new(Envelope, (msg_type, sender_id, seq, timestamp_us, payload_len)), message))


class _Router:
    """The receive path both transports share. ``_fan_out`` hands a
    ``Received`` to every callback subscribed to its msg_type, in the order
    they subscribed. ``_dispatch`` decodes a raw datagram once and fans it
    out; an undecodable datagram (foreign or malformed traffic) is
    dropped, on either transport."""

    def __init__(self) -> None:
        self._routes: dict[MsgType, list[Callable[[Received], None]]] = {t: [] for t in MsgType}

    def subscribe(
        self, callback: Callable[[Received], None], types: Iterable[MsgType] | None = None
    ) -> None:
        """Call ``callback`` with each delivered datagram of ``types`` (all by default)."""
        for msg_type in MsgType if types is None else frozenset(types):
            self._routes[msg_type].append(callback)

    def _dispatch(self, raw: bytes) -> None:
        try:
            item = decode(raw)
        except DecodeError:
            return
        self._fan_out(item)

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
        if type(item) is Received:
            self._fan_out(item)
        else:
            self._dispatch(item)


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
        self._closed = False
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

    def subscribe(
        self, callback: Callable[[Received], None], types: Iterable[MsgType] | None = None
    ) -> None:
        if self._closed:
            raise TransportClosed("endpoint is closed")
        super().subscribe(callback, types)

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
        self.bus.publish(_new(Received, (envelope, msg)))
        self._seq += 1
        return seq
