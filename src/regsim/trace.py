"""Trace events and their JSONL serialization.

One JSON object per line, fields in a fixed order, so a re-run with the same
seed produces a byte-identical file.  Messages appear in their canonical hex
encoding; `seq` is the global processing order and doubles as the tie-break
for simultaneous events.  Process 0 stands for the system itself
(round_start markers).

Events are immutable NamedTuples.  Each direction is one loop per file.
The writer (`_text`, behind `write_jsonl`, `to_jsonl_bytes` and
`event_to_json`) unpacks each event once and builds its line from one
template per kind, exactly as `json.dumps(obj, separators=(",", ":"))` would
write the event's fields; it streams blocks of lines, never the whole file.
The reader (`_events`, behind `read_jsonl` and `event_from_json`) strips
each line of JSON whitespace (space, tab, CR, LF) only, skips blank lines,
and parses a send or deliver line of exactly the written shape by one
compiled pattern, the inverse of those two templates.  Every other line (the other
kinds, and any line the pattern declines: spaces, other key orders, escapes,
floats, `-0` and the like) is parsed as JSON with every field's type
checked.  Either way a line gives the same event or the same error.

A trace repeats few messages many times (a relayed WRITE is one message sent
and delivered n^2 times), so within one file each distinct message is
encoded to hex once, and each distinct hex string decoded once.  The
writer's memo is keyed by the message object's id and holds the message, so
no id is reused while the memo lives; only an object seen for the first time
is looked up by value.  Decoded messages are frozen values, shared by the
events that carry them.  The regsim commands run with Python's cyclic
garbage collector paused (`cli.main`), so a long trace is read without
collector passes over its growing event list.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .messages import Message, decode_message, encode_message

INVOKE = "invoke"
RESPOND = "respond"
SEND = "send"
DELIVER = "deliver"
CRASH = "crash"
ROUND_START = "round_start"

# The whitespace JSON allows around a value: a line is stripped of it alone.
_JSON_SPACE = " \t\n\r"

# Lines the writer joins into one block of text: few writes, bounded memory.
_BLOCK_LINES = 4096


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


# The send and deliver templates of `_text`, inverted: an integer as
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


def _text(events: Iterable[TraceEvent]) -> Iterator[str]:
    """The events' lines, each with its newline, from one template per kind,
    in blocks of up to `_BLOCK_LINES` lines.  Integer fields hold ints."""
    # id -> (message, the end of its lines: the "msg" field and the closing
    # brace).  Holding the message keeps its id from being reused while the
    # memo lives.  A new object equal to a known one (each relay builds its
    # own WRITE) takes that value's end from `by_value`, so each distinct
    # message is encoded once and compared by value only when its object is
    # first seen.
    tails: dict[int, tuple[Message, str]] = {}
    by_value: dict[Message, str] = {}
    encode = encode_message
    lines: list[str] = []
    add = lines.append
    for time, seq, kind, p, op_id, op_kind, value, seqno, peer, message, round_no in events:
        if kind == SEND or kind == DELIVER:
            memo = tails.get(id(message))
            if memo is None:
                tail = by_value.get(message)
                if tail is None:
                    tail = by_value[message] = f'"msg":"{encode(message).hex()}"}}\n'
                memo = tails[id(message)] = (message, tail)
            if kind == SEND:
                add(f'{{"t":{time},"seq":{seq},"kind":"send","p":{p},"to":{peer},{memo[1]}')
            else:
                add(f'{{"t":{time},"seq":{seq},"kind":"deliver","p":{p},"from":{peer},{memo[1]}')
        elif kind == INVOKE:
            head = (
                f'{{"t":{time},"seq":{seq},"kind":"invoke","p":{p},"op":{op_id},'
                f'"opkind":{_string(op_kind)}'
            )
            add(f'{head},"value":{_value_out(value)}}}\n' if op_kind == "write" else head + "}\n")
        elif kind == RESPOND:
            add(
                f'{{"t":{time},"seq":{seq},"kind":"respond","p":{p},"op":{op_id},'
                f'"opkind":{_string(op_kind)},"value":{_value_out(value)},"wsn":{seqno}}}\n'
            )
        elif kind == ROUND_START:
            add(f'{{"t":{time},"seq":{seq},"kind":"round_start","p":{p},"round":{round_no}}}\n')
        elif kind == CRASH:
            add(f'{{"t":{time},"seq":{seq},"kind":"crash","p":{p}}}\n')
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        if len(lines) == _BLOCK_LINES:
            yield "".join(lines)
            lines.clear()
    yield "".join(lines)


def _events(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """The event of each non-blank line.  A send or deliver line in the
    canonical shape is parsed by `_MESSAGE_LINE`, any other by `_json_event`.
    Raises ValueError naming the line's number (from 1) and chained to the
    line's own error."""
    messages: dict[str, Message] = {}  # hex -> message
    fullmatch, decode = _MESSAGE_LINE.fullmatch, decode_message
    new = tuple.__new__  # TraceEvent's fields, without its Python-level __new__
    for lineno, line in enumerate(lines, 1):
        line = line.strip(_JSON_SPACE)
        if not line:
            continue
        match = fullmatch(line)
        try:
            if match is None:
                event = _json_event(line, messages)
            else:
                time, seq, sent, process, peer, raw = match.groups()
                message = messages.get(raw)
                if message is None:
                    message = messages[raw] = decode(bytes.fromhex(raw))
                event = new(TraceEvent, (
                    int(time), int(seq), SEND if sent else DELIVER, int(process),
                    None, None, None, None, int(peer), message, None,
                ))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        yield event


def event_to_json(ev: TraceEvent) -> str:
    """The event's line, without the newline."""
    return next(_text((ev,)))[:-1]


def event_from_json(line: str) -> TraceEvent:
    """The event of one line.  Raises ValueError on a malformed line."""
    try:
        for event in _events((line,)):
            return event
    except ValueError as exc:
        raise exc.__cause__ from None  # the line's own error, without its number
    return _json_event(line, {})  # blank: raises as JSON does


def _json_event(line: str, messages: dict[str, Message]) -> TraceEvent:
    """Any line, parsed as JSON with every field's type checked: the
    reference that the send/deliver pattern must agree with.  `messages` is
    the file's memo from hex to message."""
    line = line.strip(_JSON_SPACE)  # json.loads skips it, raw_decode not
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
            message = messages.get(raw)
            if message is None:
                message = messages[raw] = decode_message(bytes.fromhex(raw))
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
        fh.writelines(_text(events))


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return list(_events(fh))


def to_jsonl_bytes(events: Iterable[TraceEvent]) -> bytes:
    return "".join(_text(events)).encode("utf-8")
