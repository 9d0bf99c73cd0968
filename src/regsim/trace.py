"""Trace events and their JSONL serialization.

One JSON object per line, fields in a fixed order, so a re-run with the same
seed produces a byte-identical file.  Messages appear in their canonical hex
encoding; `seq` is the global processing order and doubles as the tie-break
for simultaneous events.  Process 0 stands for the system itself
(round_start markers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .messages import Message, decode_message, encode_message

INVOKE = "invoke"
RESPOND = "respond"
SEND = "send"
DELIVER = "deliver"
CRASH = "crash"
ROUND_START = "round_start"


@dataclass(frozen=True)
class TraceEvent:
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


def _value_out(value: bytes | None) -> str | None:
    return None if value is None else value.decode("utf-8")


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
    obj: dict = {"t": ev.time, "seq": ev.seq, "kind": ev.kind, "p": ev.process}
    if ev.kind == INVOKE:
        obj["op"] = ev.op_id
        obj["opkind"] = ev.op_kind
        if ev.op_kind == "write":
            obj["value"] = _value_out(ev.value)
    elif ev.kind == RESPOND:
        obj["op"] = ev.op_id
        obj["opkind"] = ev.op_kind
        obj["value"] = _value_out(ev.value)
        obj["wsn"] = ev.seqno
    elif ev.kind == SEND:
        obj["to"] = ev.peer
        obj["msg"] = encode_message(ev.message).hex()
    elif ev.kind == DELIVER:
        obj["from"] = ev.peer
        obj["msg"] = encode_message(ev.message).hex()
    elif ev.kind == CRASH:
        pass
    elif ev.kind == ROUND_START:
        obj["round"] = ev.round_no
    else:
        raise ValueError(f"unknown event kind {ev.kind!r}")
    return json.dumps(obj, separators=(",", ":"))


def event_from_json(line: str) -> TraceEvent:
    try:
        obj = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("event is not a JSON object")
    try:
        kind = obj["kind"]
        time, seq, process = _int(obj, "t"), _int(obj, "seq"), _int(obj, "p")
        if kind == INVOKE or kind == RESPOND:
            op_kind = obj["opkind"]
            if op_kind != "write" and op_kind != "read":
                raise ValueError(f"field 'opkind' must be 'write' or 'read', got {op_kind!r}")
            value = _value_in(obj.get("value"))
            seqno = _int(obj, "wsn") if kind == RESPOND else None
            return TraceEvent(time, seq, kind, process, _int(obj, "op"), op_kind, value, seqno)
        if kind == SEND or kind == DELIVER:
            peer = _int(obj, "to" if kind == SEND else "from")
            raw = obj["msg"]
            if type(raw) is not str:
                raise ValueError(f"field 'msg' must be a string, got {raw!r}")
            return TraceEvent(
                time, seq, kind, process, peer=peer, message=decode_message(bytes.fromhex(raw))
            )
        if kind == CRASH:
            return TraceEvent(time, seq, kind, process)
        if kind == ROUND_START:
            return TraceEvent(time, seq, kind, process, round_no=_int(obj, "round"))
        raise ValueError(f"unknown event kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def write_jsonl(events: Iterable[TraceEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(event_to_json(ev))
            fh.write("\n")


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
