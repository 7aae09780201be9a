"""Binary codec for every on-the-wire protocol object.

Frame layout (little-endian throughout, no implicit padding)::

    offset  size  field
    0       2     magic  b"AR"
    2       1     wire version (currently 1)
    3       1     message type
    4       4     body length (bytes following the header)
    8       4     CRC-32 of the body
    12      ...   body (per message type, below)

Decoding is strict: wrong magic, unknown version or type, a body length
that disagrees with the datagram, a CRC mismatch, or trailing bytes all
raise :class:`DecodeError` — nothing is ever executed from the wire,
unlike pickle.  Every message type round-trips exactly
(``decode(encode(m)) == m``).

The token body is laid out so that an empty-rtr token encodes to exactly
:data:`repro.core.messages.TOKEN_BASE_SIZE` (72) bytes and each
retransmission request adds :data:`~repro.core.messages.TOKEN_RTR_ENTRY_SIZE`
(4) bytes; a data message with a raw ``bytes`` payload carries exactly
:data:`DATA_HEADER_SIZE` (60) bytes of framing.  The size constants the
simulator trusts are therefore *measured* properties of this codec, and
``tests/test_wire_sizes.py`` fails if they ever drift apart.

Versioning rule: any change to a body layout bumps :data:`WIRE_VERSION`;
decoders reject versions they do not speak (there is exactly one version
on a ring at a time — the membership protocol already excludes mixed
software from a configuration).
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Any, Dict, NamedTuple, Tuple

from ..core.config import Service
from ..core.messages import (
    DataMessage,
    TOKEN_BASE_SIZE,
    TOKEN_RTR_ENTRY_SIZE,
    Token,
)
from ..core.coalesce import JumboDatagram
from ..core.packing import PackedItem, PackedPayload
from ..membership.gossip import (
    GossipAck,
    GossipPing,
    GossipPingReq,
    GossipUpdate,
)
from ..membership.messages import (
    CommitToken,
    JoinMessage,
    MemberInfo,
    ProbeMessage,
    RecoveryComplete,
    RecoveryData,
)
from ..multiring.messages import RoundMarker
from .tags import (
    OBJECT_TAG_CLIENT_DISCONNECT,
    OBJECT_TAG_CLIENT_ID,
    OBJECT_TAG_GROUP_CAST,
    OBJECT_TAG_GROUP_JOIN,
    OBJECT_TAG_GROUP_LEAVE,
    OBJECT_TAG_GROUP_MESSAGE,
    OBJECT_TAG_MEMBERSHIP_NOTICE,
    OBJECT_TAG_PACKED_ITEM,
    OBJECT_TAG_PACKED_PAYLOAD,
    OBJECT_TAG_PRIVATE_CAST,
    OBJECT_TAG_PRIVATE_MESSAGE,
    OBJECT_TAG_ROUND_MARKER,
    TYPE_COMMIT_TOKEN,
    TYPE_DATA,
    TYPE_GOSSIP_ACK,
    TYPE_GOSSIP_PING,
    TYPE_GOSSIP_PING_REQ,
    TYPE_JOIN,
    TYPE_JUMBO,
    TYPE_NAMES,
    TYPE_PROBE,
    TYPE_RECOVERY_COMPLETE,
    TYPE_RECOVERY_DATA,
    TYPE_TOKEN,
    VALUE_BIGINT,
    VALUE_BYTES,
    VALUE_DATA_MESSAGE,
    VALUE_DICT,
    VALUE_FALSE,
    VALUE_FLOAT,
    VALUE_FROZENSET,
    VALUE_INT64,
    VALUE_LIST,
    VALUE_NONE,
    VALUE_SERVICE,
    VALUE_SET,
    VALUE_STR,
    VALUE_TRUE,
    VALUE_TUPLE,
)
from ..spreadlike.protocol import (
    ClientDisconnect,
    ClientId,
    GroupCast,
    GroupJoin,
    GroupLeave,
    GroupMessage,
    MembershipNotice,
    PrivateCast,
    PrivateMessage,
)


class WireError(ValueError):
    """Base class for wire-format errors."""


class EncodeError(WireError):
    """The object cannot be represented in the wire format."""


class DecodeError(WireError):
    """The datagram is not a valid wire frame."""


MAGIC = b"AR"
WIRE_VERSION = 1

_HEADER = struct.Struct("<2sBBII")
#: Frame header size: magic, version, type, body length, CRC-32.
HEADER_SIZE = _HEADER.size  # 12

# -- message types -----------------------------------------------------------
# Tag numbers live in repro.wire.tags (the single registry the wire-drift
# lint checks for uniqueness); imported above and re-exported here so
# existing callers keep reading codec.TYPE_* / codec.TYPE_NAMES.

# -- fixed body layouts ------------------------------------------------------

# ring_id, hop, seq, aru, aru_id (-1 = None), fcc, backlog, flags, rtr count.
# ``backlog`` and ``flags`` are reserved (always 0 in version 1): Totem's
# token carries backlog fields this protocol does not use yet, and
# reserving them keeps the 72-byte base size the simulator has always
# charged for a token.
_TOKEN_BODY = struct.Struct("<QQQQqQIII")
_RTR_ENTRY = struct.Struct("<I")
#: Largest sequence number a token rtr entry can carry (u32).
MAX_RTR_SEQ = 0xFFFFFFFF

# ring_id, seq, pid, round, submitted_at, payload_size,
# service, flags, payload kind, reserved.
_DATA_BODY = struct.Struct("<QQQQdIBBBB")
#: Bytes of wire framing on a data message with a raw ``bytes`` payload
#: (frame header + fixed data body; the payload itself adds nothing).
DATA_HEADER_SIZE = HEADER_SIZE + _DATA_BODY.size  # 60

_DATA_FLAG_POST_TOKEN = 0x01
_DATA_FLAG_HAS_TIMESTAMP = 0x02

_PAYLOAD_NONE = 0
_PAYLOAD_RAW = 1
_PAYLOAD_VALUE = 2

# Per-packet framing inside a jumbo body: inner frame type, inner body
# length.  Inner packets share the outer datagram's header and CRC —
# that sharing is the whole point (repro.core.coalesce).
_JUMBO_ENTRY = struct.Struct("<BI")

_PROBE_BODY = struct.Struct("<QQ")            # sender, ring_id
# sender, incarnation, probe_id (ping/ack); ping-req adds a target.
# The piggybacked update list (u32 count + entries) follows the fixed part.
_GOSSIP_BODY = struct.Struct("<QQQ")
_GOSSIP_REQ_BODY = struct.Struct("<QQQQ")
_GOSSIP_UPDATE = struct.Struct("<QQB")        # pid, incarnation, status
#: Wire framing of a gossip ping/ack with no piggybacked updates
#: (header + fixed body + update count); each update adds
#: GOSSIP_UPDATE_SIZE bytes.  The sim charges these sizes for gossip
#: frames, and ``tests/test_wire_gossip.py`` fails if codec and
#: constant drift.
GOSSIP_BASE_SIZE = HEADER_SIZE + _GOSSIP_BODY.size + 4       # 40
GOSSIP_REQ_BASE_SIZE = HEADER_SIZE + _GOSSIP_REQ_BODY.size + 4  # 48
GOSSIP_UPDATE_SIZE = _GOSSIP_UPDATE.size        # 17
_GOSSIP_MAX_STATUS = 2
_JOIN_BODY = struct.Struct("<QQ")             # sender, ring_seq
_COMMIT_BODY = struct.Struct("<QIII")         # new_ring_id, rotation, members, collected
_MEMBER_INFO = struct.Struct("<Qqqqqq")       # pid, old_ring_id?, aru, high, safe, delivered
_RECOVERY_BODY = struct.Struct("<QQI")        # sender, old_ring_id, nested length
_RECOVERY_DONE_BODY = struct.Struct("<QQ")    # sender, new_ring_id

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_U64_MAX = 0xFFFFFFFFFFFFFFFF
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Bound on value-codec nesting, so a crafted datagram cannot drive the
#: decoder into a RecursionError (which would escape DecodeError).
_MAX_DEPTH = 64

# -- value codec tags --------------------------------------------------------
# TLV tag numbers also live in repro.wire.tags; primitive VALUE_* and
# OBJECT_TAG_* share one byte-space, so the registry keeps them jointly
# unique.  The private _V_* aliases preserve the codec's internal idiom.

_V_NONE = VALUE_NONE
_V_TRUE = VALUE_TRUE
_V_FALSE = VALUE_FALSE
_V_INT64 = VALUE_INT64
_V_BIGINT = VALUE_BIGINT
_V_FLOAT = VALUE_FLOAT
_V_BYTES = VALUE_BYTES
_V_STR = VALUE_STR
_V_TUPLE = VALUE_TUPLE
_V_LIST = VALUE_LIST
_V_DICT = VALUE_DICT
_V_FROZENSET = VALUE_FROZENSET
_V_SET = VALUE_SET
_V_SERVICE = VALUE_SERVICE
_V_DATA_MESSAGE = VALUE_DATA_MESSAGE

#: Registered protocol dataclasses: tag -> (class, field names).  The
#: field list is the wire schema — append-only within a wire version.
_OBJECT_SCHEMAS: Dict[int, Tuple[type, Tuple[str, ...]]] = {
    OBJECT_TAG_CLIENT_ID: (ClientId, ("daemon", "name")),
    OBJECT_TAG_GROUP_JOIN: (GroupJoin, ("group", "client")),
    OBJECT_TAG_GROUP_LEAVE: (GroupLeave, ("group", "client")),
    OBJECT_TAG_CLIENT_DISCONNECT: (ClientDisconnect, ("client",)),
    OBJECT_TAG_PRIVATE_CAST: (PrivateCast, ("dst", "sender", "payload")),
    OBJECT_TAG_GROUP_CAST: (GroupCast, ("groups", "sender", "payload")),
    OBJECT_TAG_GROUP_MESSAGE: (
        GroupMessage, ("groups", "sender", "payload", "service", "seq")
    ),
    OBJECT_TAG_PRIVATE_MESSAGE: (
        PrivateMessage, ("sender", "payload", "service", "seq")
    ),
    OBJECT_TAG_MEMBERSHIP_NOTICE: (
        MembershipNotice, ("group", "members", "joined", "left", "seq")
    ),
    OBJECT_TAG_PACKED_ITEM: (
        PackedItem, ("payload", "payload_size", "submitted_at")
    ),
    OBJECT_TAG_PACKED_PAYLOAD: (PackedPayload, ("items",)),
    OBJECT_TAG_ROUND_MARKER: (RoundMarker, ("ring_index", "round")),
}
_OBJECT_TAGS = {cls: tag for tag, (cls, _) in _OBJECT_SCHEMAS.items()}

_SERVICE_CODES = {
    Service.FIFO: 0,
    Service.CAUSAL: 1,
    Service.AGREED: 2,
    Service.SAFE: 3,
}
_SERVICE_BY_CODE = {code: service for service, code in _SERVICE_CODES.items()}


# -- encoding ---------------------------------------------------------------

def _u32(value: int, what: str) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise EncodeError("%s %r does not fit in u32" % (what, value))
    return _U32.pack(value)


def _check_u64(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EncodeError("%s %r is not an int" % (what, value))
    if not 0 <= value <= _U64_MAX:
        raise EncodeError("%s %r does not fit in u64" % (what, value))
    return value


def _check_i64(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EncodeError("%s %r is not an int" % (what, value))
    if not _I64_MIN <= value <= _I64_MAX:
        raise EncodeError("%s %r does not fit in i64" % (what, value))
    return value


def _encode_str(text: str) -> bytes:
    if not isinstance(text, str):
        raise EncodeError("expected str, got %r" % (text,))
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EncodeError("string not UTF-8 encodable: %s" % exc) from exc
    return _u32(len(raw), "string length") + raw


def _encode_value(value: Any, out: bytearray, depth: int = 0) -> None:
    """Append the tagged encoding of one Python value.

    Supports the closed set of types protocol payloads are made of:
    scalars, bytes/str, tuple/list/dict/set/frozenset, and the
    registered protocol dataclasses.  Anything else is an
    :class:`EncodeError` — the wire format has no escape hatch into
    arbitrary object serialization.
    """
    if depth > _MAX_DEPTH:
        raise EncodeError("payload nesting exceeds %d levels" % _MAX_DEPTH)
    if value is None:
        out.append(_V_NONE)
    elif value is True:
        out.append(_V_TRUE)
    elif value is False:
        out.append(_V_FALSE)
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_V_INT64)
            out += _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out.append(_V_BIGINT)
            out += _u32(len(raw), "bigint length")
            out += raw
    elif type(value) is float:
        out.append(_V_FLOAT)
        out += _F64.pack(value)
    elif type(value) is bytes:
        out.append(_V_BYTES)
        out += _u32(len(value), "bytes length")
        out += value
    elif type(value) is str:
        out.append(_V_STR)
        out += _encode_str(value)
    elif type(value) is tuple or type(value) is list:
        out.append(_V_TUPLE if type(value) is tuple else _V_LIST)
        out += _u32(len(value), "sequence length")
        for item in value:
            _encode_value(item, out, depth + 1)
    elif type(value) is dict:
        out.append(_V_DICT)
        out += _u32(len(value), "dict length")
        for key, item in value.items():
            _encode_value(key, out, depth + 1)
            _encode_value(item, out, depth + 1)
    elif type(value) is frozenset or type(value) is set:
        # Sets have no iteration order; sort the encoded items so equal
        # sets always produce identical bytes (determinism contract).
        out.append(_V_FROZENSET if type(value) is frozenset else _V_SET)
        out += _u32(len(value), "set length")
        encoded = []
        for item in value:
            chunk = bytearray()
            _encode_value(item, chunk, depth + 1)
            encoded.append(bytes(chunk))
        for chunk in sorted(encoded):
            out += chunk
    elif type(value) is Service:
        out.append(_V_SERVICE)
        out.append(_SERVICE_CODES[value])
    elif type(value) is DataMessage:
        blob = encode(value)
        out.append(_V_DATA_MESSAGE)
        out += _u32(len(blob), "nested frame length")
        out += blob
    else:
        tag = _OBJECT_TAGS.get(type(value))
        if tag is None:
            raise EncodeError(
                "no wire encoding for %s (payloads must be built from "
                "scalars, containers and protocol types)"
                % type(value).__name__
            )
        _, fields = _OBJECT_SCHEMAS[tag]
        out.append(tag)
        for name in fields:
            _encode_value(getattr(value, name), out, depth + 1)


def _encode_data_body(message: DataMessage, ring_id: int) -> bytes:
    payload = message.payload
    if payload is None:
        kind, tail = _PAYLOAD_NONE, b""
    elif type(payload) is bytes:
        kind, tail = _PAYLOAD_RAW, payload
    else:
        chunk = bytearray()
        _encode_value(payload, chunk)
        kind, tail = _PAYLOAD_VALUE, bytes(chunk)
    flags = 0
    if message.sent_after_token:
        flags |= _DATA_FLAG_POST_TOKEN
    submitted_at = message.submitted_at
    if submitted_at is None:
        stamp = 0.0
    else:
        flags |= _DATA_FLAG_HAS_TIMESTAMP
        stamp = float(submitted_at)
    service_code = _SERVICE_CODES.get(message.service)
    if service_code is None:
        raise EncodeError("unknown service %r" % (message.service,))
    payload_size = message.payload_size
    if not isinstance(payload_size, int) or not 0 <= payload_size <= 0xFFFFFFFF:
        raise EncodeError(
            "payload_size %r does not fit in u32" % (payload_size,)
        )
    fixed = _DATA_BODY.pack(
        _check_u64(ring_id, "ring_id"),
        _check_u64(message.seq, "seq"),
        _check_u64(message.pid, "pid"),
        _check_u64(message.round, "round"),
        stamp,
        payload_size,
        service_code,
        flags,
        kind,
        0,
    )
    return fixed + tail


def _encode_token_body(token: Token) -> bytes:
    aru_id = token.aru_id
    if aru_id is None:
        aru_field = -1
    else:
        aru_field = _check_i64(aru_id, "aru_id")
        if aru_field < 0:
            raise EncodeError("aru_id %r must be non-negative" % (aru_id,))
    parts = [
        _TOKEN_BODY.pack(
            _check_u64(token.ring_id, "ring_id"),
            _check_u64(token.hop, "hop"),
            _check_u64(token.seq, "seq"),
            _check_u64(token.aru, "aru"),
            aru_field,
            _check_u64(token.fcc, "fcc"),
            0,  # backlog (reserved)
            0,  # flags (reserved)
            len(token.rtr),
        )
    ]
    for seq in token.rtr:
        if not isinstance(seq, int) or not 0 <= seq <= MAX_RTR_SEQ:
            raise EncodeError(
                "rtr entry %r does not fit in u32" % (seq,)
            )
        parts.append(_RTR_ENTRY.pack(seq))
    return b"".join(parts)


def _encode_pid_set(pids, what: str) -> bytes:
    ordered = sorted(pids)
    parts = [_u32(len(ordered), what)]
    for pid in ordered:
        parts.append(_U64.pack(_check_u64(pid, "%s entry" % what)))
    return b"".join(parts)


def _encode_member_info(info: MemberInfo) -> bytes:
    fixed = _MEMBER_INFO.pack(
        _check_u64(info.pid, "pid"),
        _check_i64(info.old_ring_id, "old_ring_id"),
        _check_i64(info.old_aru, "old_aru"),
        _check_i64(info.high_seq, "high_seq"),
        _check_i64(info.old_safe_bound, "old_safe_bound"),
        _check_i64(info.old_delivered_upto, "old_delivered_upto"),
    )
    members = _u32(len(info.old_members), "old_members") + b"".join(
        _U64.pack(_check_u64(pid, "old_members entry"))
        for pid in info.old_members
    )
    return fixed + members


def _encode_gossip_updates(updates) -> bytes:
    parts = [_u32(len(updates), "gossip update count")]
    for update in updates:
        if type(update) is not GossipUpdate:
            raise EncodeError(
                "gossip updates must be GossipUpdate, got %s"
                % type(update).__name__
            )
        status = update.status
        if not isinstance(status, int) or not 0 <= status <= _GOSSIP_MAX_STATUS:
            raise EncodeError("gossip status %r out of range" % (status,))
        parts.append(_GOSSIP_UPDATE.pack(
            _check_u64(update.pid, "gossip pid"),
            _check_u64(update.incarnation, "gossip incarnation"),
            status,
        ))
    return b"".join(parts)


def _frame(msg_type: int, body: bytes) -> bytes:
    return _HEADER.pack(
        MAGIC, WIRE_VERSION, msg_type, len(body), zlib.crc32(body) & 0xFFFFFFFF
    ) + body


def encode(message: Any, ring_id: int = 0) -> bytes:
    """Encode one top-level wire message to a datagram.

    ``ring_id`` stamps data messages with the sender's configuration id
    (the core :class:`DataMessage` does not carry one; on a real network
    Totem data packets do, so stale-ring traffic can be discarded).
    """
    kind = type(message)
    if kind is DataMessage:
        return _frame(TYPE_DATA, _encode_data_body(message, ring_id))
    if kind is Token:
        return _frame(TYPE_TOKEN, _encode_token_body(message))
    if kind is ProbeMessage:
        return _frame(TYPE_PROBE, _PROBE_BODY.pack(
            _check_u64(message.sender, "sender"),
            _check_u64(message.ring_id, "ring_id"),
        ))
    if kind is JoinMessage:
        body = _JOIN_BODY.pack(
            _check_u64(message.sender, "sender"),
            _check_u64(message.ring_seq, "ring_seq"),
        ) + _encode_pid_set(message.proc_set, "proc_set") \
          + _encode_pid_set(message.fail_set, "fail_set")
        return _frame(TYPE_JOIN, body)
    if kind is CommitToken:
        rotation = message.rotation
        if not isinstance(rotation, int) or not 0 <= rotation <= 0xFFFFFFFF:
            raise EncodeError("rotation %r does not fit in u32" % (rotation,))
        parts = [_COMMIT_BODY.pack(
            _check_u64(message.new_ring_id, "new_ring_id"),
            rotation,
            len(message.members),
            len(message.collected),
        )]
        for pid in message.members:
            parts.append(_U64.pack(_check_u64(pid, "members entry")))
        for info in message.collected:
            parts.append(_encode_member_info(info))
        return _frame(TYPE_COMMIT_TOKEN, b"".join(parts))
    if kind is RecoveryData:
        nested = encode(message.message, ring_id=_check_u64(
            message.old_ring_id, "old_ring_id"))
        body = _RECOVERY_BODY.pack(
            _check_u64(message.sender, "sender"),
            message.old_ring_id,
            len(nested),
        ) + nested
        return _frame(TYPE_RECOVERY_DATA, body)
    if kind is RecoveryComplete:
        return _frame(TYPE_RECOVERY_COMPLETE, _RECOVERY_DONE_BODY.pack(
            _check_u64(message.sender, "sender"),
            _check_u64(message.new_ring_id, "new_ring_id"),
        ))
    if kind is JumboDatagram:
        return _frame(TYPE_JUMBO, _encode_jumbo_body(message.messages, ring_id))
    if kind is GossipPing or kind is GossipAck:
        body = _GOSSIP_BODY.pack(
            _check_u64(message.sender, "sender"),
            _check_u64(message.incarnation, "incarnation"),
            _check_u64(message.probe_id, "probe_id"),
        ) + _encode_gossip_updates(message.updates)
        return _frame(
            TYPE_GOSSIP_PING if kind is GossipPing else TYPE_GOSSIP_ACK, body
        )
    if kind is GossipPingReq:
        body = _GOSSIP_REQ_BODY.pack(
            _check_u64(message.sender, "sender"),
            _check_u64(message.incarnation, "incarnation"),
            _check_u64(message.target, "target"),
            _check_u64(message.probe_id, "probe_id"),
        ) + _encode_gossip_updates(message.updates)
        return _frame(TYPE_GOSSIP_PING_REQ, body)
    raise EncodeError(
        "no top-level wire encoding for %s" % kind.__name__
    )


def _encode_jumbo_body(messages, ring_id: int) -> bytes:
    bodies = []
    for message in messages:
        # Only data packets coalesce: the token is never jumbo-framed
        # (it flushes the batch and departs alone, for latency), and
        # control-plane traffic is too rare to be worth amortizing.
        if type(message) is not DataMessage:
            raise EncodeError(
                "jumbo datagrams carry only data packets, got %s"
                % type(message).__name__
            )
        bodies.append(_encode_data_body(message, ring_id))
    return _jumbo_body(bodies)


def _jumbo_body(bodies) -> bytes:
    if not bodies:
        raise EncodeError("a jumbo datagram needs at least one packet")
    parts = [_u32(len(bodies), "jumbo packet count")]
    for body in bodies:
        parts.append(_JUMBO_ENTRY.pack(TYPE_DATA, len(body)))
        parts.append(body)
    return b"".join(parts)


def encode_jumbo(messages, ring_id: int = 0) -> bytes:
    """Encode several data packets as one jumbo datagram.

    The inner packets share one frame header and one CRC; each costs
    only :data:`repro.core.coalesce.JUMBO_ENTRY_BYTES` of framing.
    ``decode`` returns the whole datagram as a
    :class:`~repro.core.coalesce.JumboDatagram`.
    """
    return _frame(TYPE_JUMBO, _encode_jumbo_body(tuple(messages), ring_id))


def frame_jumbo(frames) -> bytes:
    """One jumbo datagram from data frames :func:`encode` already built.

    Each frame's body is reused as-is, so a sender that encoded every
    packet once (to size it) never encodes it again; the bytes equal
    :func:`encode_jumbo` over the same packets and ring id.
    """
    bodies = []
    for frame in frames:
        if frame[3] != TYPE_DATA:  # the header's message-type byte
            raise EncodeError(
                "jumbo datagrams carry only data packets, got type %d"
                % frame[3]
            )
        bodies.append(memoryview(frame)[HEADER_SIZE:])
    return _frame(TYPE_JUMBO, _jumbo_body(bodies))


def encoded_size(message: Any, ring_id: int = 0) -> int:
    """Exact datagram size of ``message`` on the wire, in bytes."""
    return len(encode(message, ring_id))


# -- decoding ---------------------------------------------------------------

class _Reader:
    """Bounds-checked cursor over one datagram body.

    Zero-copy by construction: the buffer is kept as handed in (bytes,
    bytearray or memoryview) and every fixed-layout field is read with
    ``struct.unpack_from`` at an offset.  :meth:`take` slices only the
    requested field — for a memoryview input that slice is itself a view
    (no bytes are copied until a decoder materializes them on purpose).
    """

    __slots__ = ("blob", "pos", "end")

    def __init__(self, blob, pos: int, end: int) -> None:
        self.blob = blob
        self.pos = pos
        self.end = end

    def take(self, count: int):
        pos = self.pos
        if count < 0 or pos + count > self.end:
            raise DecodeError("truncated frame body")
        self.pos = pos + count
        return self.blob[pos:pos + count]

    def unpack(self, fmt: struct.Struct):
        pos = self.pos
        if pos + fmt.size > self.end:
            raise DecodeError("truncated frame body")
        self.pos = pos + fmt.size
        return fmt.unpack_from(self.blob, pos)

    def remaining(self) -> int:
        return self.end - self.pos

    def done(self) -> None:
        if self.pos != self.end:
            raise DecodeError(
                "%d trailing bytes after message body" % (self.end - self.pos)
            )


def _decode_value(reader: _Reader, depth: int = 0) -> Any:
    if depth > _MAX_DEPTH:
        raise DecodeError("payload nesting exceeds %d levels" % _MAX_DEPTH)
    (tag,) = reader.unpack(_U8)
    if tag == _V_NONE:
        return None
    if tag == _V_TRUE:
        return True
    if tag == _V_FALSE:
        return False
    if tag == _V_INT64:
        return reader.unpack(_I64)[0]
    if tag == _V_BIGINT:
        (length,) = reader.unpack(_U32)
        return int.from_bytes(reader.take(length), "big", signed=True)
    if tag == _V_FLOAT:
        return reader.unpack(_F64)[0]
    if tag == _V_BYTES:
        (length,) = reader.unpack(_U32)
        value = reader.take(length)
        # Materialize only this field (a no-op when the buffer is bytes:
        # slicing bytes already produced bytes).
        return value if type(value) is bytes else bytes(value)
    if tag == _V_STR:
        (length,) = reader.unpack(_U32)
        return _decode_str_bytes(reader.take(length))
    if tag in (_V_TUPLE, _V_LIST):
        (count,) = reader.unpack(_U32)
        _check_count(count, reader, 1)
        items = [_decode_value(reader, depth + 1) for _ in range(count)]
        return tuple(items) if tag == _V_TUPLE else items
    if tag == _V_DICT:
        (count,) = reader.unpack(_U32)
        _check_count(count, reader, 2)
        result = {}
        for _ in range(count):
            key = _decode_value(reader, depth + 1)
            try:
                result[key] = _decode_value(reader, depth + 1)
            except TypeError as exc:  # unhashable key
                raise DecodeError("unhashable dict key on wire: %s" % exc)
        return result
    if tag in (_V_FROZENSET, _V_SET):
        (count,) = reader.unpack(_U32)
        _check_count(count, reader, 1)
        try:
            items = {_decode_value(reader, depth + 1) for _ in range(count)}
        except TypeError as exc:
            raise DecodeError("unhashable set item on wire: %s" % exc)
        return frozenset(items) if tag == _V_FROZENSET else items
    if tag == _V_SERVICE:
        (code,) = reader.unpack(_U8)
        service = _SERVICE_BY_CODE.get(code)
        if service is None:
            raise DecodeError("unknown service code %d" % code)
        return service
    if tag == _V_DATA_MESSAGE:
        (length,) = reader.unpack(_U32)
        return decode(reader.take(length))
    schema = _OBJECT_SCHEMAS.get(tag)
    if schema is not None:
        cls, fields = schema
        values = [_decode_value(reader, depth + 1) for _ in fields]
        try:
            return cls(*values)
        except (TypeError, ValueError) as exc:
            raise DecodeError(
                "invalid %s fields on wire: %s" % (cls.__name__, exc)
            )
    raise DecodeError("unknown value tag 0x%02x" % tag)


def _decode_str_bytes(raw) -> str:
    # ``str(buffer, encoding)`` decodes bytes, bytearray and memoryview
    # alike without an intermediate bytes copy.
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid UTF-8 on wire: %s" % exc)


def _check_count(count: int, reader: _Reader, min_item_bytes: int) -> None:
    """Reject counts that could not possibly fit in the remaining body.

    Each encoded item is at least one tag byte, so a count larger than
    the bytes left is a lie — failing early keeps a crafted 16-byte
    datagram from asking the decoder to build a billion-element list.
    """
    if count * min_item_bytes > reader.remaining():
        raise DecodeError(
            "count %d exceeds remaining body (%d bytes)"
            % (count, reader.remaining())
        )


class Decoded(NamedTuple):
    """One decoded frame plus its envelope metadata."""

    kind: str
    message: Any
    ring_id: int


def _decode_data_fixed(blob, pos: int, end: int):
    """Unpack the fixed data body at ``pos``; returns the raw field tuple.

    Shared by the eager decoder and the lazy :class:`FrameView` peek:
    validation of the fixed fields happens here, payload decoding does
    not.
    """
    if pos + _DATA_BODY.size > end:
        raise DecodeError("truncated frame body")
    fields = _DATA_BODY.unpack_from(blob, pos)
    (ring_id, seq, pid, round_, stamp, payload_size,
     service_code, flags, payload_kind, _reserved) = fields
    service = _SERVICE_BY_CODE.get(service_code)
    if service is None:
        raise DecodeError("unknown service code %d" % service_code)
    if flags & ~(_DATA_FLAG_POST_TOKEN | _DATA_FLAG_HAS_TIMESTAMP):
        raise DecodeError("unknown data flags 0x%02x" % flags)
    submitted_at = stamp if flags & _DATA_FLAG_HAS_TIMESTAMP else None
    if submitted_at is not None and math.isnan(submitted_at):
        raise DecodeError("NaN submission timestamp")
    return (ring_id, seq, pid, round_, service, payload_size,
            flags, payload_kind, submitted_at)


def _decode_data_payload(blob, pos: int, end: int, payload_kind: int):
    """Decode the (possibly TLV) payload region of a data body."""
    if payload_kind == _PAYLOAD_NONE:
        if pos != end:
            raise DecodeError("payload bytes on a payload-less data message")
        return None
    if payload_kind == _PAYLOAD_RAW:
        # The single necessary copy: the payload becomes an independent
        # bytes object (a plain slice when the buffer is already bytes).
        payload = blob[pos:end]
        return payload if type(payload) is bytes else bytes(payload)
    if payload_kind == _PAYLOAD_VALUE:
        reader = _Reader(blob, pos, end)
        payload = _decode_value(reader)
        reader.done()
        return payload
    raise DecodeError("unknown payload kind %d" % payload_kind)


def _decode_data_body(blob, pos: int, end: int) -> Tuple[DataMessage, int]:
    (ring_id, seq, pid, round_, service, payload_size,
     flags, payload_kind, submitted_at) = _decode_data_fixed(blob, pos, end)
    payload = _decode_data_payload(
        blob, pos + _DATA_BODY.size, end, payload_kind
    )
    # Positional construction: this is the decode hot path and the
    # keyword form measurably slows it down.
    message = DataMessage(
        seq, pid, round_, service, payload, payload_size,
        bool(flags & _DATA_FLAG_POST_TOKEN), submitted_at,
    )
    return message, ring_id


#: Bulk rtr formats, one per entry count (tokens carry few requests, so
#: this tiny cache covers every real token with a single unpack_from).
_RTR_BULK: Dict[int, struct.Struct] = {}


def _decode_token_body(blob, pos: int, end: int) -> Token:
    if pos + _TOKEN_BODY.size > end:
        raise DecodeError("truncated frame body")
    (ring_id, hop, seq, aru, aru_field, fcc,
     backlog, flags, rtr_count) = _TOKEN_BODY.unpack_from(blob, pos)
    pos += _TOKEN_BODY.size
    if backlog or flags:
        raise DecodeError("reserved token fields are non-zero")
    if aru_field < -1:
        raise DecodeError("invalid aru_id %d" % aru_field)
    if rtr_count * _RTR_ENTRY.size != end - pos:
        raise DecodeError(
            "rtr count %d disagrees with body length" % rtr_count
        )
    if not rtr_count:
        rtr = ()
    elif rtr_count <= 64:
        bulk = _RTR_BULK.get(rtr_count)
        if bulk is None:
            bulk = _RTR_BULK[rtr_count] = struct.Struct("<%dI" % rtr_count)
        rtr = bulk.unpack_from(blob, pos)
    else:
        # Unusually long request lists: don't let a crafted datagram grow
        # the Struct cache without bound.
        unpack_from = _RTR_ENTRY.unpack_from
        size = _RTR_ENTRY.size
        rtr = tuple(
            unpack_from(blob, pos + i * size)[0] for i in range(rtr_count)
        )
    # Positional construction (decode hot path): field order is
    # ring_id, hop, seq, aru, aru_id, fcc, rtr.
    return Token(
        ring_id, hop, seq, aru,
        None if aru_field == -1 else aru_field,
        fcc, rtr,
    )


def _decode_pid_set(reader: _Reader) -> frozenset:
    (count,) = reader.unpack(_U32)
    _check_count(count, reader, _U64.size)
    return frozenset(reader.unpack(_U64)[0] for _ in range(count))


def _decode_member_info(reader: _Reader) -> MemberInfo:
    (pid, old_ring_id, old_aru, high_seq,
     old_safe_bound, old_delivered_upto) = reader.unpack(_MEMBER_INFO)
    (count,) = reader.unpack(_U32)
    _check_count(count, reader, _U64.size)
    old_members = tuple(reader.unpack(_U64)[0] for _ in range(count))
    return MemberInfo(
        pid=pid,
        old_ring_id=old_ring_id,
        old_aru=old_aru,
        high_seq=high_seq,
        old_members=old_members,
        old_safe_bound=old_safe_bound,
        old_delivered_upto=old_delivered_upto,
    )


def _check_frame(blob) -> int:
    """Validate magic, version, length and CRC; returns the message type.

    Zero-copy on every path, including errors: the input buffer (bytes,
    bytearray or memoryview) is never materialized with ``bytes()`` and
    the CRC is computed over a memoryview slice of the body, not a copy.
    """
    blob_len = len(blob)
    if blob_len < HEADER_SIZE:
        raise DecodeError(
            "datagram of %d bytes is shorter than the %d-byte header"
            % (blob_len, HEADER_SIZE)
        )
    magic, version, msg_type, body_len, crc = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise DecodeError("bad magic %r" % magic)
    if version != WIRE_VERSION:
        raise DecodeError(
            "unsupported wire version %d (this build speaks %d)"
            % (version, WIRE_VERSION)
        )
    if HEADER_SIZE + body_len != blob_len:
        raise DecodeError(
            "body length %d disagrees with datagram size %d"
            % (body_len, blob_len)
        )
    if zlib.crc32(memoryview(blob)[HEADER_SIZE:]) & 0xFFFFFFFF != crc:
        raise DecodeError("CRC mismatch")
    return msg_type


#: Complement of the known data flags, for one-test validation.
_DATA_FLAGS_UNKNOWN = ~(_DATA_FLAG_POST_TOKEN | _DATA_FLAG_HAS_TIMESTAMP)

# Pre-bound hot-path callables and offsets: every datagram pays these
# lookups, so resolve them once at import instead of per decode.
_CRC32 = zlib.crc32
_HEADER_UNPACK = _HEADER.unpack_from
_DATA_BODY_UNPACK = _DATA_BODY.unpack_from
_DATA_PAYLOAD_OFFSET = HEADER_SIZE + _DATA_BODY.size


def decode(blob) -> Any:
    """Strictly decode one datagram to its protocol message.

    Accepts ``bytes``, ``bytearray`` or ``memoryview`` without copying
    the input (only the message payload is materialized).  Raises
    :class:`DecodeError` on anything that is not a well-formed frame of
    the current wire version.

    The data and token branches intentionally inline the frame check and
    body decode (rather than calling :func:`_check_frame` and
    :func:`_decode_data_body`): this is the per-datagram hot path and
    the Python call overhead of the layered helpers is measurable at
    wire rate.  The helpers remain the single source of truth for the
    lazy :class:`FrameView` and :func:`decode_detail` paths; keep the
    two in sync.
    """
    # The unpack itself is the type/length guard: struct.error means the
    # buffer is shorter than the header, TypeError means it is not a
    # byte buffer at all.  Checking by attempting saves an isinstance
    # and a length compare on every well-formed datagram.
    try:
        magic, version, msg_type, body_len, crc = _HEADER_UNPACK(blob)
    except struct.error:
        raise DecodeError(
            "datagram of %d bytes is shorter than the %d-byte header"
            % (len(blob), HEADER_SIZE)
        )
    except TypeError:
        raise DecodeError("expected bytes, got %r" % type(blob).__name__)
    end = len(blob)
    if magic != MAGIC:
        raise DecodeError("bad magic %r" % magic)
    if version != WIRE_VERSION:
        raise DecodeError(
            "unsupported wire version %d (this build speaks %d)"
            % (version, WIRE_VERSION)
        )
    if HEADER_SIZE + body_len != end:
        raise DecodeError(
            "body length %d disagrees with datagram size %d"
            % (body_len, end)
        )
    if _CRC32(memoryview(blob)[HEADER_SIZE:]) & 0xFFFFFFFF != crc:
        raise DecodeError("CRC mismatch")
    if msg_type == TYPE_DATA:
        pos = _DATA_PAYLOAD_OFFSET
        if pos > end:
            raise DecodeError("truncated frame body")
        (ring_id, seq, pid, round_, stamp, payload_size,
         service_code, flags, payload_kind,
         _reserved) = _DATA_BODY_UNPACK(blob, HEADER_SIZE)
        try:
            service = _SERVICE_BY_CODE[service_code]
        except KeyError:
            raise DecodeError("unknown service code %d" % service_code)
        if flags & _DATA_FLAGS_UNKNOWN:
            raise DecodeError("unknown data flags 0x%02x" % flags)
        if flags & _DATA_FLAG_HAS_TIMESTAMP:
            if stamp != stamp:  # NaN without a math.isnan call
                raise DecodeError("NaN submission timestamp")
            submitted_at = stamp
        else:
            submitted_at = None
        if payload_kind == _PAYLOAD_RAW:
            # The single necessary copy: the payload becomes an
            # independent bytes object (a plain slice for bytes input).
            payload = blob[pos:end]
            if type(payload) is not bytes:
                payload = bytes(payload)
        elif payload_kind == _PAYLOAD_NONE:
            if pos != end:
                raise DecodeError("payload bytes on a payload-less data message")
            payload = None
        elif payload_kind == _PAYLOAD_VALUE:
            reader = _Reader(blob, pos, end)
            payload = _decode_value(reader)
            reader.done()
        else:
            raise DecodeError("unknown payload kind %d" % payload_kind)
        # Direct slot stores instead of the dataclass __init__: measurably
        # faster on the per-datagram path.  DataMessage has no
        # __post_init__ and exactly these eight fields; keep in sync with
        # repro.core.messages.
        message = DataMessage.__new__(DataMessage)
        message.seq = seq
        message.pid = pid
        message.round = round_
        message.service = service
        message.payload = payload
        message.payload_size = payload_size
        message.sent_after_token = flags & _DATA_FLAG_POST_TOKEN != 0
        message.submitted_at = submitted_at
        return message
    if msg_type == TYPE_TOKEN:
        return _decode_token_body(blob, HEADER_SIZE, end)
    if msg_type == TYPE_JUMBO:
        return _decode_jumbo_body(blob, HEADER_SIZE, end)[0]
    return _decode_control(blob, msg_type, end)[0]


def _decode_jumbo_body(blob, pos: int, end: int) -> Tuple[JumboDatagram, int]:
    """Decode a jumbo body to (JumboDatagram, first packet's ring_id)."""
    if pos + _U32.size > end:
        raise DecodeError("truncated frame body")
    (count,) = _U32.unpack_from(blob, pos)
    pos += _U32.size
    if count == 0:
        raise DecodeError("empty jumbo datagram")
    entry_size = _JUMBO_ENTRY.size
    if count > (end - pos) // entry_size:
        raise DecodeError(
            "jumbo packet count %d exceeds datagram capacity" % count
        )
    messages = []
    ring_id = 0
    for index in range(count):
        if end - pos < entry_size:
            raise DecodeError("jumbo entry overruns the datagram")
        inner_type, body_len = _JUMBO_ENTRY.unpack_from(blob, pos)
        if inner_type != TYPE_DATA:
            raise DecodeError(
                "jumbo datagrams carry only data packets, got type %d"
                % inner_type
            )
        pos += entry_size
        inner_end = pos + body_len
        if inner_end > end:
            raise DecodeError("jumbo entry overruns the datagram")
        message, inner_ring = _decode_data_body(blob, pos, inner_end)
        if index == 0:
            ring_id = inner_ring
        messages.append(message)
        pos = inner_end
    if pos != end:
        raise DecodeError("trailing bytes after jumbo entries")
    return JumboDatagram(tuple(messages)), ring_id


def _decode_control(blob, msg_type: int, end: int) -> Tuple[Any, int]:
    """Decode the rare control-plane frame types; returns (message, ring_id)."""
    reader = _Reader(blob, HEADER_SIZE, end)
    ring_id = 0
    if msg_type == TYPE_PROBE:
        sender, probe_ring = reader.unpack(_PROBE_BODY)
        message = ProbeMessage(sender=sender, ring_id=probe_ring)
        ring_id = probe_ring
    elif msg_type == TYPE_JOIN:
        sender, ring_seq = reader.unpack(_JOIN_BODY)
        proc_set = _decode_pid_set(reader)
        fail_set = _decode_pid_set(reader)
        message = JoinMessage(
            sender=sender, proc_set=proc_set,
            fail_set=fail_set, ring_seq=ring_seq,
        )
    elif msg_type == TYPE_COMMIT_TOKEN:
        new_ring_id, rotation, n_members, n_collected = reader.unpack(_COMMIT_BODY)
        _check_count(n_members, reader, _U64.size)
        members = tuple(reader.unpack(_U64)[0] for _ in range(n_members))
        _check_count(n_collected, reader, _MEMBER_INFO.size + _U32.size)
        collected = tuple(_decode_member_info(reader) for _ in range(n_collected))
        message = CommitToken(
            new_ring_id=new_ring_id, members=members,
            rotation=rotation, collected=collected,
        )
        ring_id = new_ring_id
    elif msg_type == TYPE_RECOVERY_DATA:
        sender, old_ring_id, nested_len = reader.unpack(_RECOVERY_BODY)
        nested = decode(reader.take(nested_len))
        if type(nested) is not DataMessage:
            raise DecodeError("recovery-data frame carries a non-data message")
        message = RecoveryData(
            sender=sender, old_ring_id=old_ring_id, message=nested,
        )
        ring_id = old_ring_id
    elif msg_type == TYPE_RECOVERY_COMPLETE:
        sender, new_ring_id = reader.unpack(_RECOVERY_DONE_BODY)
        message = RecoveryComplete(sender=sender, new_ring_id=new_ring_id)
        ring_id = new_ring_id
    elif msg_type in (TYPE_GOSSIP_PING, TYPE_GOSSIP_ACK):
        sender, incarnation, probe_id = reader.unpack(_GOSSIP_BODY)
        updates = _decode_gossip_updates(reader)
        cls = GossipPing if msg_type == TYPE_GOSSIP_PING else GossipAck
        message = cls(
            sender=sender, incarnation=incarnation,
            probe_id=probe_id, updates=updates,
        )
    elif msg_type == TYPE_GOSSIP_PING_REQ:
        sender, incarnation, target, probe_id = reader.unpack(_GOSSIP_REQ_BODY)
        updates = _decode_gossip_updates(reader)
        message = GossipPingReq(
            sender=sender, incarnation=incarnation, target=target,
            probe_id=probe_id, updates=updates,
        )
    else:
        raise DecodeError("unknown message type %d" % msg_type)
    reader.done()
    return message, ring_id


def _decode_gossip_updates(reader: _Reader) -> Tuple[GossipUpdate, ...]:
    (count,) = reader.unpack(_U32)
    _check_count(count, reader, _GOSSIP_UPDATE.size)
    updates = []
    for _ in range(count):
        pid, incarnation, status = reader.unpack(_GOSSIP_UPDATE)
        if status > _GOSSIP_MAX_STATUS:
            raise DecodeError("unknown gossip status %d" % status)
        updates.append(GossipUpdate(pid, incarnation, status))
    return tuple(updates)


def decode_detail(blob) -> Decoded:
    """Strictly decode one datagram, keeping envelope metadata.

    Accepts ``bytes``, ``bytearray`` or ``memoryview`` without copying
    the input (only message payload bytes are materialized).  Raises
    :class:`DecodeError` on anything that is not a well-formed frame of
    the current wire version.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise DecodeError("expected bytes, got %r" % type(blob).__name__)
    msg_type = _check_frame(blob)
    end = len(blob)
    if msg_type == TYPE_DATA:
        message, ring_id = _decode_data_body(blob, HEADER_SIZE, end)
    elif msg_type == TYPE_TOKEN:
        message = _decode_token_body(blob, HEADER_SIZE, end)
        ring_id = message.ring_id
    elif msg_type == TYPE_JUMBO:
        message, ring_id = _decode_jumbo_body(blob, HEADER_SIZE, end)
    else:
        message, ring_id = _decode_control(blob, msg_type, end)
    return Decoded(TYPE_NAMES[msg_type], message, ring_id)


class FrameView:
    """Lazy view of one validated data/token frame.

    ``decode_frame`` validates the envelope and unpacks the fixed body
    fields eagerly — enough for routing, filtering and statistics — but
    defers TLV/payload decoding until :attr:`message` is first read.
    Header-only consumers (capture summaries, per-type counters,
    ring-id demultiplexers) therefore never pay for payload decoding.

    Only ``data`` and ``token`` frames support the lazy split; control
    frames (probe/join/commit/recovery) are rare and decode eagerly.
    """

    __slots__ = ("kind", "ring_id", "_blob", "_type", "_fixed", "_message")

    def __init__(self, blob, msg_type: int, ring_id: int, fixed):
        self.kind = TYPE_NAMES[msg_type]
        self.ring_id = ring_id
        self._blob = blob
        self._type = msg_type
        self._fixed = fixed
        self._message = None

    # -- header-only accessors (no payload decode) ----------------------
    @property
    def seq(self) -> int:
        # Data fixed tuple: (ring_id, seq, ...); token: (ring_id, hop, seq, ...)
        return self._fixed[1 if self._type == TYPE_DATA else 2]

    @property
    def pid(self) -> int:
        """Sender pid for data frames; ``None`` for tokens."""
        return self._fixed[2] if self._type == TYPE_DATA else None

    @property
    def payload_size(self) -> int:
        """Declared payload size for data frames; 0 for tokens."""
        return self._fixed[5] if self._type == TYPE_DATA else 0

    # -- full decode, on demand ----------------------------------------
    @property
    def message(self) -> Any:
        """The decoded protocol message (payload decoded on first access)."""
        message = self._message
        if message is None:
            blob = self._blob
            if self._type == TYPE_DATA:
                (_, seq, pid, round_, service, payload_size,
                 flags, payload_kind, submitted_at) = self._fixed
                payload = _decode_data_payload(
                    blob, HEADER_SIZE + _DATA_BODY.size, len(blob), payload_kind
                )
                message = DataMessage(
                    seq, pid, round_, service, payload, payload_size,
                    bool(flags & _DATA_FLAG_POST_TOKEN), submitted_at,
                )
            else:
                message = _decode_token_body(blob, HEADER_SIZE, len(blob))
            self._message = message
            self._blob = None  # release the buffer once fully decoded
        return message


def decode_frame(blob) -> Any:
    """Decode one datagram lazily where possible.

    Returns a :class:`FrameView` for data and token frames — envelope
    and fixed fields validated, payload decoding deferred — and a plain
    :class:`Decoded` for the rare control-plane frame types.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise DecodeError("expected bytes, got %r" % type(blob).__name__)
    msg_type = _check_frame(blob)
    if msg_type == TYPE_DATA:
        fixed = _decode_data_fixed(blob, HEADER_SIZE, len(blob))
        return FrameView(blob, msg_type, fixed[0], fixed)
    if msg_type == TYPE_TOKEN:
        if HEADER_SIZE + _TOKEN_BODY.size > len(blob):
            raise DecodeError("truncated frame body")
        fixed = _TOKEN_BODY.unpack_from(blob, HEADER_SIZE)
        return FrameView(blob, msg_type, fixed[0], fixed)
    if msg_type == TYPE_JUMBO:
        message, ring_id = _decode_jumbo_body(blob, HEADER_SIZE, len(blob))
    else:
        message, ring_id = _decode_control(blob, msg_type, len(blob))
    return Decoded(TYPE_NAMES[msg_type], message, ring_id)
