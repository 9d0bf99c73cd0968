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
    return None if raw is None else raw.encode("utf-8")


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
    obj = json.loads(line)
    kind = obj["kind"]
    common = dict(time=obj["t"], seq=obj["seq"], kind=kind, process=obj["p"])
    if kind == INVOKE:
        return TraceEvent(
            **common,
            op_id=obj["op"],
            op_kind=obj["opkind"],
            value=_value_in(obj.get("value")),
        )
    if kind == RESPOND:
        return TraceEvent(
            **common,
            op_id=obj["op"],
            op_kind=obj["opkind"],
            value=_value_in(obj.get("value")),
            seqno=obj["wsn"],
        )
    if kind == SEND:
        return TraceEvent(
            **common, peer=obj["to"], message=decode_message(bytes.fromhex(obj["msg"]))
        )
    if kind == DELIVER:
        return TraceEvent(
            **common, peer=obj["from"], message=decode_message(bytes.fromhex(obj["msg"]))
        )
    if kind == CRASH:
        return TraceEvent(**common)
    if kind == ROUND_START:
        return TraceEvent(**common, round_no=obj["round"])
    raise ValueError(f"unknown event kind {kind!r}")


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
