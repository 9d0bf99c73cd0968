"""Trace events and their JSONL serialization.

One JSON object per line, fields in a fixed order, so a re-run with the same
seed produces a byte-identical file.  Messages appear in their canonical hex
encoding; `seq` is the global processing order and doubles as the tie-break
for simultaneous events.  Process 0 stands for the system itself
(round_start markers).

Events are immutable NamedTuples.  A line is built from one template per
kind, exactly as `json.dumps(obj, separators=(",", ":"))` would write the
event's fields.  A send or deliver line of exactly that shape is parsed back
by one compiled pattern, the inverse of those two templates.  Every other
line (the other kinds, and any line the pattern declines: spaces, other key
orders, escapes, floats, `-0` and the like) is parsed as JSON with every
field's type checked.  Either way a line gives the same event or the same
error.  Messages are frozen values, and a trace repeats few of them many
times (a relayed WRITE is one message sent and delivered n^2 times), so each
distinct message is encoded to hex, and each distinct hex string decoded,
once per memo entry.  The regsim commands run with Python's cyclic garbage
collector paused (`cli.main`), so a long trace is read without collector
passes over its growing event list.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .messages import Message, decode_message, encode_message

INVOKE = "invoke"
RESPOND = "respond"
SEND = "send"
DELIVER = "deliver"
CRASH = "crash"
ROUND_START = "round_start"

# Distinct messages remembered by each direction of the codec.
_MESSAGE_MEMO = 4096


class TraceEvent(NamedTuple):
    time: int
    seq: int
    kind: str
    process: int
    # invoke/respond
    op_id: int | None = None
    op_kind: str | None = None
    value: bytes | None = None
    seqno: int | None = None
    # send/deliver
    peer: int | None = None  # destination for send, sender for deliver
    message: Message | None = None
    # round_start
    round_no: int | None = None


# The send and deliver templates of `event_to_json`, inverted: an integer as
# `str(int)` writes it (no `-0`, no leading zero), and the peer's key follows
# the kind ("to" if group 3 matched "send", else "from").  Groups: t, seq,
# "send" or None, p, peer, message hex.
_INT = "(0|-?[1-9][0-9]*)"
_MESSAGE_LINE = re.compile(
    f'{{"t":{_INT},"seq":{_INT},"kind":"(?:(send)|deliver)","p":{_INT},'
    f'"(?(3)to|from)":{_INT},"msg":"([0-9a-f]*)"}}'
)

_string = json.JSONEncoder(separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode


@functools.lru_cache(maxsize=_MESSAGE_MEMO)
def _message_hex(msg: Message) -> str:
    return encode_message(msg).hex()


@functools.lru_cache(maxsize=_MESSAGE_MEMO)
def _message_from_hex(raw: str) -> Message:
    return decode_message(bytes.fromhex(raw))


def _value_out(value: bytes | None) -> str:
    return "null" if value is None else _string(value.decode("utf-8"))


def _value_in(raw) -> bytes | None:
    if raw is None:
        return None
    if type(raw) is not str:
        raise ValueError(f"field 'value' must be a string or null, got {raw!r}")
    return raw.encode("utf-8")


def _int(obj: dict, key: str) -> int:
    value = obj[key]
    if type(value) is not int:  # bool is a subclass of int, so not isinstance
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def event_to_json(ev: TraceEvent) -> str:
    """The event's line, without the newline.  Integer fields hold ints."""
    time, seq, kind, p, op_id, op_kind, value, seqno, peer, message, round_no = ev
    if kind == SEND:
        return (
            f'{{"t":{time},"seq":{seq},"kind":"send","p":{p},"to":{peer},'
            f'"msg":"{_message_hex(message)}"}}'
        )
    if kind == DELIVER:
        return (
            f'{{"t":{time},"seq":{seq},"kind":"deliver","p":{p},"from":{peer},'
            f'"msg":"{_message_hex(message)}"}}'
        )
    if kind == INVOKE:
        head = (
            f'{{"t":{time},"seq":{seq},"kind":"invoke","p":{p},"op":{op_id},'
            f'"opkind":{_string(op_kind)}'
        )
        return f'{head},"value":{_value_out(value)}}}' if op_kind == "write" else head + "}"
    if kind == RESPOND:
        return (
            f'{{"t":{time},"seq":{seq},"kind":"respond","p":{p},"op":{op_id},'
            f'"opkind":{_string(op_kind)},"value":{_value_out(value)},"wsn":{seqno}}}'
        )
    if kind == ROUND_START:
        return f'{{"t":{time},"seq":{seq},"kind":"round_start","p":{p},"round":{round_no}}}'
    if kind == CRASH:
        return f'{{"t":{time},"seq":{seq},"kind":"crash","p":{p}}}'
    raise ValueError(f"unknown event kind {kind!r}")


def event_from_json(line: str) -> TraceEvent:
    """The event of one line.  Raises ValueError on a malformed line."""
    match = _MESSAGE_LINE.fullmatch(line)
    if match is None:
        return _json_event(line)
    time, seq, sent, process, peer, raw = match.groups()
    return TraceEvent(
        int(time), int(seq), SEND if sent else DELIVER, int(process),
        None, None, None, None, int(peer), _message_from_hex(raw),
    )


def _json_event(line: str) -> TraceEvent:
    """Any line, parsed as JSON with every field's type checked: the
    reference that the send/deliver pattern must agree with."""
    line = line.strip(" \t\n\r")  # the JSON whitespace json.loads skips, raw_decode not
    try:
        obj, end = _raw_decode(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    if not isinstance(obj, dict):
        raise ValueError("event is not a JSON object")
    try:
        kind = obj["kind"]
        time, seq, process = _int(obj, "t"), _int(obj, "seq"), _int(obj, "p")
        if kind == SEND or kind == DELIVER:
            peer = _int(obj, "to" if kind == SEND else "from")
            raw = obj["msg"]
            if type(raw) is not str:
                raise ValueError(f"field 'msg' must be a string, got {raw!r}")
            message = _message_from_hex(raw)
            return TraceEvent(time, seq, kind, process, None, None, None, None, peer, message)
        if kind == INVOKE or kind == RESPOND:
            op_kind = obj["opkind"]
            if op_kind != "write" and op_kind != "read":
                raise ValueError(f"field 'opkind' must be 'write' or 'read', got {op_kind!r}")
            value = _value_in(obj.get("value"))
            seqno = _int(obj, "wsn") if kind == RESPOND else None
            return TraceEvent(time, seq, kind, process, _int(obj, "op"), op_kind, value, seqno)
        if kind == CRASH:
            return TraceEvent(time, seq, kind, process)
        if kind == ROUND_START:
            return TraceEvent(time, seq, kind, process, round_no=_int(obj, "round"))
        raise ValueError(f"unknown event kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def write_jsonl(events: Iterable[TraceEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(event_to_json(ev) + "\n" for ev in events)


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    events.append(event_from_json(line))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
    return events


def to_jsonl_bytes(events: Iterable[TraceEvent]) -> bytes:
    return "".join(event_to_json(ev) + "\n" for ev in events).encode("utf-8")
