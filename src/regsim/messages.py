"""Protocol messages, their canonical binary encoding, and what both
register protocols share: the operation they are invoked with, its result,
the model check, the invoke check and the dispatch through a handler table.

The wire form is what trace files store (hex), so it must be bit-exact and
stable: one tag byte, little-endian 64-bit sequence numbers, then a value
block.  A value block is a presence byte (0 = the initial value, 1 = bytes)
followed, when present, by a little-endian 32-bit length and the raw bytes.

STATE messages carry a value block only in the modified register variant;
the two shapes share a tag and are distinguished by length on decode.

Each message class is a `typing.NamedTuple`, which handlers build
positionally with `tuple.__new__`.  The classes share one `__eq__`, `__ne__`
and `__hash__` that compare the class first, so messages of different
classes with equal fields stay apart (`AbdAck(1) != AbdQuery(1)`) wherever
messages are keys: the trace writer's memo, the explorer's interner and the
engine's relay cuts.
"""

from __future__ import annotations

import struct
from typing import NamedTuple


class Write(NamedTuple):
    wsn: int
    value: bytes | None


class Read(NamedTuple):
    rsn: int


class State(NamedTuple):
    """Reply to a READ.  `carries_value` marks the modified-variant shape;
    the base shape never has a value, and a modified reply may legitimately
    carry the initial value (None)."""

    rsn: int
    wsn: int
    value: bytes | None = None
    carries_value: bool = False


class AbdUpdate(NamedTuple):
    opsn: int
    wsn: int
    value: bytes | None


class AbdAck(NamedTuple):
    opsn: int


class AbdQuery(NamedTuple):
    opsn: int


class AbdReport(NamedTuple):
    opsn: int
    wsn: int
    value: bytes | None


def _eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return type(self) is not type(other) or tuple.__ne__(self, other)


def _hash(self) -> int:
    return hash((type(self), tuple.__hash__(self)))


# Messages of different classes never compare equal, whatever their fields.
for _cls in (Write, Read, State, AbdUpdate, AbdAck, AbdQuery, AbdReport):
    _cls.__eq__, _cls.__ne__, _cls.__hash__ = _eq, _ne, _hash

Message = Write | Read | State | AbdUpdate | AbdAck | AbdQuery | AbdReport

# Process 1 is the single writer in both protocols.
WRITER = 1

# Destination sentinel: send to every process, including the sender.
BROADCAST = None


class ProtocolError(Exception):
    """An operation was invoked against its preconditions."""


def check_model(n: int, t: int) -> None:
    """The system model both protocols assume: n >= 1 processes, of which
    at most t crash, with 0 <= t and 2t < n."""
    if n < 1:
        raise ProtocolError(f"n must be positive, got {n}")
    if t < 0:
        raise ProtocolError(f"t must be non-negative, got {t}")
    if 2 * t >= n:
        raise ProtocolError(f"need 2t < n, got n={n} t={t}")


class Op(NamedTuple):
    """One scheduled register operation."""

    process: int
    kind: str  # "write" | "read"
    value: bytes | None = None
    time: int = 0


class OpResult(NamedTuple):
    """Completion of the process's pending operation."""

    kind: str  # "write" | "read"
    value: bytes | None
    seqno: int


def check_invoke(self, state, op: Op) -> None:
    """Raise ProtocolError unless `op` may begin at its process, whose state
    is `state`: nothing pending, a read or a write, and a write only by the
    writer and never of the initial value."""
    if self.has_pending(state):
        raise ProtocolError("operation already pending (processes are sequential)")
    if op.kind == "write":
        if op.process != WRITER:
            raise ProtocolError(f"p{op.process} is not the writer")
        if op.value is None:
            raise ProtocolError("cannot write the reserved initial value")
    elif op.kind != "read":
        raise ProtocolError(f"unknown op kind {op.kind!r}")


def deliver(self, state, msg: Message, sender: int) -> tuple:
    """The handler's `(state, outgoing, completion)` for `msg` from `sender`,
    a no-op as `(state, (), None)`.  Neither the simulator nor the explorer
    calls it: both call the class handlers through `HANDLERS`."""
    name = self.HANDLERS.get(type(msg))
    if name is None:
        raise ProtocolError(f"unexpected message for register protocol: {msg!r}")
    return getattr(self, name)(state, msg, sender) or (state, (), None)


def is_noop_delivery(self, state, msg: Message, sender: int) -> bool:
    """True when the handler's None marks `msg` a no-op now and forever."""
    return getattr(self, self.HANDLERS[type(msg)])(state, msg, sender) is None


def itself(state):
    """A replica state's `clone` and `freeze`: it is its own copy and snapshot.
    Nothing in regsim calls them; perfbench/tracer.py wraps them by name."""
    return state


def _row(cls: type, tag: int, fields: tuple[str, ...], value: bool | str) -> tuple:
    return cls, tag, fields, value, struct.Struct("<B" + "Q" * len(fields))


# The wire layout, one row per message class: the class, its tag byte, the
# u64 fields that follow the tag, whether a value block ends the message, and
# (added by `_row`) the struct that packs the tag and the u64 fields.  In
# STATE's row the message's own `carries_value` decides; a STATE that ends
# after its head is the base-variant shape.
_LAYOUT = (
    _row(Write, 1, ("wsn",), True),
    _row(Read, 2, ("rsn",), False),
    _row(State, 3, ("rsn", "wsn"), "carries_value"),
    _row(AbdUpdate, 4, ("opsn", "wsn"), True),
    _row(AbdAck, 5, ("opsn",), False),
    _row(AbdQuery, 6, ("opsn",), False),
    _row(AbdReport, 7, ("opsn", "wsn"), True),
)
_BY_CLASS = {row[0]: row for row in _LAYOUT}
_BY_TAG = {row[1]: row for row in _LAYOUT}
_U32 = struct.Struct("<I")


def _need(data: bytes, size: int) -> None:
    if len(data) < size:
        raise ValueError(f"truncated message: {len(data)} bytes, need {size}")


def encode_message(msg: Message) -> bytes:
    row = _BY_CLASS.get(type(msg))
    if row is None:
        raise TypeError(f"not a protocol message: {msg!r}")
    _, tag, fields, value, head = row
    data = head.pack(tag, *[getattr(msg, f) for f in fields])
    if value is True or (value and getattr(msg, value)):
        if msg.value is None:
            return data + b"\x00"
        return data + b"\x01" + _U32.pack(len(msg.value)) + msg.value
    return data


def decode_message(data: bytes) -> Message:
    if not data:
        raise ValueError("empty message")
    row = _BY_TAG.get(data[0])
    if row is None:
        raise ValueError(f"unknown message tag {data[0]}")
    cls, _, _, value, head = row
    off = head.size
    if len(data) < off:
        # Name the end of the first u64 field the data cuts.
        _need(data, 9 + (len(data) - 1) // 8 * 8)
    nums = head.unpack_from(data)[1:]
    if not value or (value is not True and len(data) == off):
        end, args = off, nums
    else:
        _need(data, off + 1)
        present = data[off]
        if present == 0:
            end, block = off + 1, None
        elif present != 1:
            raise ValueError(f"bad value presence byte {present}")
        else:
            _need(data, off + 5)
            end = off + 5 + _U32.unpack_from(data, off + 1)[0]
            _need(data, end)
            block = data[off + 5 : end]
        # The optional block's flag is the field after `value` (carries_value).
        args = (*nums, block) if value is True else (*nums, block, True)
    if len(data) != end:
        raise ValueError(f"trailing bytes in message ({len(data) - end})")
    return cls(*args)
