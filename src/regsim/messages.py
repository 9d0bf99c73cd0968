"""Protocol messages, their canonical binary encoding, and the handler
results both register protocols return.

The wire form is what trace files store (hex), so it must be bit-exact and
stable: one tag byte, little-endian 64-bit sequence numbers, then a value
block.  A value block is a presence byte (0 = the initial value, 1 = bytes)
followed, when present, by a little-endian 32-bit length and the raw bytes.

STATE messages carry a value block only in the modified register variant;
the two shapes share a tag and are distinguished by length on decode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

TAG_WRITE = 1
TAG_READ = 2
TAG_STATE = 3
TAG_ABD_UPDATE = 4
TAG_ABD_ACK = 5
TAG_ABD_QUERY = 6
TAG_ABD_REPORT = 7

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class Write:
    wsn: int
    value: bytes | None


@dataclass(frozen=True)
class Read:
    rsn: int


@dataclass(frozen=True)
class State:
    """Reply to a READ.  `carries_value` marks the modified-variant shape;
    the base shape never has a value, and a modified reply may legitimately
    carry the initial value (None)."""

    rsn: int
    wsn: int
    value: bytes | None = None
    carries_value: bool = False


@dataclass(frozen=True)
class AbdUpdate:
    opsn: int
    wsn: int
    value: bytes | None


@dataclass(frozen=True)
class AbdAck:
    opsn: int


@dataclass(frozen=True)
class AbdQuery:
    opsn: int


@dataclass(frozen=True)
class AbdReport:
    opsn: int
    wsn: int
    value: bytes | None


Message = Write | Read | State | AbdUpdate | AbdAck | AbdQuery | AbdReport

# Process 1 is the single writer in both protocols.
WRITER = 1

# Destination sentinel: send to every process, including the sender.
BROADCAST = None


class ProtocolError(Exception):
    """An operation was invoked against its preconditions."""


def check_replica(me: int, n: int, t: int) -> None:
    """The (me, n, t) preconditions shared by both protocols' init."""
    if n < 1:
        raise ProtocolError(f"n must be positive, got {n}")
    if 2 * t >= n:
        raise ProtocolError(f"need 2t < n, got n={n} t={t}")
    if not 1 <= me <= n:
        raise ProtocolError(f"process id {me} outside 1..{n}")


@dataclass(frozen=True)
class OpResult:
    """Completion of the process's pending operation."""

    kind: str  # "write" | "read"
    value: bytes | None
    seqno: int


@dataclass(frozen=True)
class HandlerOutput:
    """A handler's result; `state` is either protocol's replica state."""

    state: Any
    outgoing: tuple[tuple[int | None, Message], ...] = ()
    completion: OpResult | None = None


def _enc_value(value: bytes | None) -> bytes:
    if value is None:
        return b"\x00"
    return b"\x01" + _U32.pack(len(value)) + value


def _need(data: bytes, off: int, size: int) -> None:
    if len(data) < off + size:
        raise ValueError(f"truncated message: {len(data)} bytes, need {off + size}")


def _u64_at(data: bytes, off: int) -> int:
    _need(data, off, 8)
    return _U64.unpack_from(data, off)[0]


def _dec_value(data: bytes, off: int) -> tuple[bytes | None, int]:
    _need(data, off, 1)
    present = data[off]
    off += 1
    if present == 0:
        return None, off
    if present != 1:
        raise ValueError(f"bad value presence byte {present}")
    _need(data, off, 4)
    (length,) = _U32.unpack_from(data, off)
    off += 4
    _need(data, off, length)
    return data[off : off + length], off + length


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, Write):
        return bytes([TAG_WRITE]) + _U64.pack(msg.wsn) + _enc_value(msg.value)
    if isinstance(msg, Read):
        return bytes([TAG_READ]) + _U64.pack(msg.rsn)
    if isinstance(msg, State):
        head = bytes([TAG_STATE]) + _U64.pack(msg.rsn) + _U64.pack(msg.wsn)
        if msg.carries_value:
            return head + _enc_value(msg.value)
        return head
    if isinstance(msg, AbdUpdate):
        return (
            bytes([TAG_ABD_UPDATE])
            + _U64.pack(msg.opsn)
            + _U64.pack(msg.wsn)
            + _enc_value(msg.value)
        )
    if isinstance(msg, AbdAck):
        return bytes([TAG_ABD_ACK]) + _U64.pack(msg.opsn)
    if isinstance(msg, AbdQuery):
        return bytes([TAG_ABD_QUERY]) + _U64.pack(msg.opsn)
    if isinstance(msg, AbdReport):
        return (
            bytes([TAG_ABD_REPORT])
            + _U64.pack(msg.opsn)
            + _U64.pack(msg.wsn)
            + _enc_value(msg.value)
        )
    raise TypeError(f"not a protocol message: {msg!r}")


def decode_message(data: bytes) -> Message:
    if not data:
        raise ValueError("empty message")
    tag = data[0]
    if tag == TAG_WRITE:
        wsn = _u64_at(data, 1)
        value, off = _dec_value(data, 9)
        _expect_end(data, off)
        return Write(wsn, value)
    if tag == TAG_READ:
        rsn = _u64_at(data, 1)
        _expect_end(data, 9)
        return Read(rsn)
    if tag == TAG_STATE:
        rsn = _u64_at(data, 1)
        wsn = _u64_at(data, 9)
        if len(data) == 17:
            return State(rsn, wsn)
        value, off = _dec_value(data, 17)
        _expect_end(data, off)
        return State(rsn, wsn, value, carries_value=True)
    if tag == TAG_ABD_UPDATE:
        opsn = _u64_at(data, 1)
        wsn = _u64_at(data, 9)
        value, off = _dec_value(data, 17)
        _expect_end(data, off)
        return AbdUpdate(opsn, wsn, value)
    if tag == TAG_ABD_ACK:
        opsn = _u64_at(data, 1)
        _expect_end(data, 9)
        return AbdAck(opsn)
    if tag == TAG_ABD_QUERY:
        opsn = _u64_at(data, 1)
        _expect_end(data, 9)
        return AbdQuery(opsn)
    if tag == TAG_ABD_REPORT:
        opsn = _u64_at(data, 1)
        wsn = _u64_at(data, 9)
        value, off = _dec_value(data, 17)
        _expect_end(data, off)
        return AbdReport(opsn, wsn, value)
    raise ValueError(f"unknown message tag {tag}")


def _expect_end(data: bytes, off: int) -> None:
    if len(data) != off:
        raise ValueError(f"trailing bytes in message ({len(data) - off})")


def message_tag_name(msg: Message) -> str:
    return type(msg).__name__
