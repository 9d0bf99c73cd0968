"""Trace events: the JSONL codec writes what `json.dumps` would, round trips
every event, and rejects malformed input with ValueError.  The send/deliver
pattern agrees with the JSON path on every line, canonical or not, and the
file-level writer and reader agree with the per-line codec."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regsim.config import load_scenario
from regsim.engine import run
from regsim.messages import (
    AbdAck,
    AbdQuery,
    AbdReport,
    AbdUpdate,
    Read,
    State,
    Write,
    encode_message,
)
from regsim.trace import (
    CRASH,
    DELIVER,
    INVOKE,
    RESPOND,
    ROUND_START,
    SEND,
    TraceEvent,
    _BLOCK_LINES,
    _json_event,
    _MESSAGE_LINE,
    event_from_json,
    event_to_json,
    read_events,
    read_jsonl,
    tee_jsonl,
    to_jsonl_bytes,
    write_jsonl,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# One valid event of each kind, as `write_jsonl` writes it.
VALID = [
    '{"t":0,"seq":0,"kind":"invoke","p":1,"op":0,"opkind":"write","value":"a"}',
    '{"t":1,"seq":1,"kind":"respond","p":1,"op":0,"opkind":"write","value":null,"wsn":1}',
    '{"t":0,"seq":1,"kind":"send","p":1,"to":2,"msg":"020100000000000000"}',
    '{"t":2,"seq":2,"kind":"deliver","p":2,"from":1,"msg":"020100000000000000"}',
    '{"t":3,"seq":3,"kind":"crash","p":1}',
    '{"t":0,"seq":0,"kind":"round_start","p":0,"round":1}',
]

# Any JSON value, of any size of integer and any text.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def test_valid_events_round_trip():
    for line in VALID:
        assert event_to_json(event_from_json(line)) == line


@settings(max_examples=400, deadline=None)
@given(st.text())
def test_arbitrary_lines_raise_only_value_error(line):
    try:
        event_from_json(line)
    except ValueError:
        pass


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_events_with_replaced_fields_raise_only_value_error(data):
    event = json.loads(data.draw(st.sampled_from(VALID)))
    fields = sorted(event) + ["opkind", "value", "wsn", "to", "from", "msg", "round"]
    for key in data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3)):
        event[key] = data.draw(JSON)
    try:
        event_from_json(json.dumps(event))
    except ValueError:
        pass


# The dict + json.dumps encoder that the per-kind templates replaced, kept as
# the reference.
def dumps_event(ev):
    obj = {"t": ev.time, "seq": ev.seq, "kind": ev.kind, "p": ev.process}
    value = None if ev.value is None else ev.value.decode("utf-8")
    if ev.kind == INVOKE:
        obj["op"] = ev.op_id
        obj["opkind"] = ev.op_kind
        if ev.op_kind == "write":
            obj["value"] = value
    elif ev.kind == RESPOND:
        obj["op"] = ev.op_id
        obj["opkind"] = ev.op_kind
        obj["value"] = value
        obj["wsn"] = ev.seqno
    elif ev.kind == SEND:
        obj["to"] = ev.peer
        obj["msg"] = encode_message(ev.message).hex()
    elif ev.kind == DELIVER:
        obj["from"] = ev.peer
        obj["msg"] = encode_message(ev.message).hex()
    elif ev.kind == ROUND_START:
        obj["round"] = ev.round_no
    return json.dumps(obj, separators=(",", ":"))


U64 = st.integers(0, 2**64 - 1)
# Quotes, backslashes, control characters, non-ASCII and astral characters
# are the ones JSON escapes.  Values are UTF-8 bytes, so no lone surrogates.
TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\U0001f600a') | st.characters(codec="utf-8")
)
VALUE = st.none() | TEXT.map(lambda text: text.encode("utf-8"))
BLOCK = st.none() | st.binary(max_size=8)
MESSAGES = st.one_of(
    st.builds(Write, U64, BLOCK),
    st.builds(Read, U64),
    st.builds(State, U64, U64, st.none(), st.just(False)),
    st.builds(State, U64, U64, BLOCK, st.just(True)),
    st.builds(AbdUpdate, U64, U64, BLOCK),
    st.builds(AbdAck, U64),
    st.builds(AbdQuery, U64),
    st.builds(AbdReport, U64, U64, BLOCK),
)


@st.composite
def trace_events(draw):
    time, seq, process, number = (draw(st.integers()) for _ in range(4))
    kind = draw(st.sampled_from([INVOKE, RESPOND, SEND, DELIVER, CRASH, ROUND_START]))
    if kind == INVOKE:
        op_kind = draw(st.sampled_from(["write", "read"]))
        value = draw(VALUE) if op_kind == "write" else None
        return TraceEvent(time, seq, kind, process, number, op_kind, value)
    if kind == RESPOND:
        op_kind = draw(st.sampled_from(["write", "read"]))
        return TraceEvent(time, seq, kind, process, number, op_kind, draw(VALUE), draw(U64))
    if kind in (SEND, DELIVER):
        return TraceEvent(time, seq, kind, process, peer=number, message=draw(MESSAGES))
    if kind == ROUND_START:
        return TraceEvent(time, seq, kind, process, round_no=number)
    return TraceEvent(time, seq, kind, process)


def _sent(msg):
    return TraceEvent(0, 0, SEND, 1, peer=2, message=msg)


# Messages of different classes with equal fields must not share a memo entry.
@example(_sent(AbdUpdate(1, 2, b"v")))
@example(_sent(AbdReport(1, 2, b"v")))
@example(_sent(AbdAck(3)))
@example(_sent(AbdQuery(3)))
@settings(max_examples=600, deadline=None)
@given(trace_events())
def test_codec_matches_json_dumps_and_round_trips(ev):
    line = event_to_json(ev)
    assert line == dumps_event(ev)
    # Every send/deliver line takes the pattern, and the JSON path agrees.
    assert (_MESSAGE_LINE.fullmatch(line) is not None) == (ev.kind in (SEND, DELIVER))
    assert event_from_json(line) == _json_event(line, {}) == ev


def _outcome(decode, line):
    try:
        return decode(line)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _first_int(key, to):
    """Replace the integer of field `key` by to(its text)."""
    return lambda line: re.sub(f'"{key}":(-?[0-9]+)', lambda m: f'"{key}":{to(m[1])}', line, 1)


def _escape_kind(line):
    kind = json.loads(line)["kind"]
    return line.replace(f'"kind":"{kind}"', f'"kind":"\\u{ord(kind[0]):04x}{kind[1:]}"')


def _swap_peer_key(line):
    if '"to":' in line:
        return line.replace('"to":', '"from":')
    return line.replace('"from":', '"to":')


def _upper_hex(line):
    return re.sub('"msg":"([0-9a-f]*)"', lambda m: f'"msg":"{m[1].upper()}"', line)


# Lines near the canonical send/deliver shape; each must give the JSON path's
# event or error.
PERTURBATIONS = {
    "default-separators": lambda line: json.dumps(json.loads(line)),
    "reordered-keys": lambda line: json.dumps(
        dict(reversed(json.loads(line).items())), separators=(",", ":")
    ),
    "duplicated-key": lambda line: line[:-1] + ',"p":7}',
    "leading-zero": _first_int("seq", lambda text: "0" + text),
    "minus-zero": _first_int("t", lambda text: "-0"),
    "uppercase-hex": _upper_hex,
    "escaped-kind": _escape_kind,
    "float-field": _first_int("p", lambda text: text + ".0"),
    "bool-field": _first_int("t", lambda text: "true"),
    "swapped-peer-key": _swap_peer_key,
    "trailing-data": lambda line: line + "}",
    "long-integer": _first_int("seq", lambda text: "9" * 5000),
}
MESSAGE_EVENTS = st.builds(
    TraceEvent, st.integers(), st.integers(), st.sampled_from([SEND, DELIVER]), st.integers(),
    peer=st.integers(), message=MESSAGES,
)
# Their hex holds the letters a-f.
SENT = _sent(Read(0xFACE))
DELIVERED = TraceEvent(3, 4, DELIVER, 2, peer=1, message=State(0xBEEF, 1))


@example(SENT, "default-separators")
@example(DELIVERED, "reordered-keys")
@example(SENT, "duplicated-key")
@example(DELIVERED, "leading-zero")
@example(SENT, "minus-zero")
@example(DELIVERED, "uppercase-hex")
@example(SENT, "escaped-kind")
@example(DELIVERED, "escaped-kind")
@example(SENT, "float-field")
@example(DELIVERED, "bool-field")
@example(SENT, "swapped-peer-key")
@example(DELIVERED, "swapped-peer-key")
@example(SENT, "trailing-data")
@example(DELIVERED, "long-integer")
@settings(max_examples=600, deadline=None)
@given(MESSAGE_EVENTS, st.sampled_from(sorted(PERTURBATIONS)))
def test_perturbed_message_lines_decode_as_json_does(ev, perturbation):
    line = PERTURBATIONS[perturbation](event_to_json(ev))
    assert _outcome(event_from_json, line) == _outcome(lambda raw: _json_event(raw, {}), line)


@pytest.mark.parametrize("msg", ["zz", "09", "0101"], ids=["not-hex", "unknown-tag", "truncated"])
def test_bad_message_raises_on_every_call(msg):
    line = VALID[2].replace('"020100000000000000"', json.dumps(msg))
    for _ in range(2):
        with pytest.raises(ValueError):
            event_from_json(line)
    assert event_from_json(VALID[2]).message == Read(1)


# --- the file layer: one loop per file, against the per-line codec ----------


def _traces():
    """The full trace of every bundled scenario at its own seed, and of the
    drawn-delays scenario at seeds 0-3."""
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.name, run(load_scenario(path)).trace
    drawn = load_scenario(SCENARIOS / "drawn-delays.json")
    for seed in range(4):
        yield f"drawn-delays.json@{seed}", run(drawn, seed=seed).trace


def test_file_writers_match_the_per_line_encoding(tmp_path):
    path = tmp_path / "trace.jsonl"
    for name, trace in _traces():
        expected = [(event_to_json(ev) + "\n").encode("utf-8") for ev in trace]
        assert expected == [(dumps_event(ev) + "\n").encode("utf-8") for ev in trace]
        write_jsonl(trace, path)
        assert path.read_bytes().splitlines(keepends=True) == expected, name
        assert to_jsonl_bytes(trace).splitlines(keepends=True) == expected, name
        assert read_jsonl(path) == trace, name


def test_tee_writes_each_chunk_before_passing_its_events_on(tmp_path):
    # Chunks of 5 events: the file is write_jsonl's, written chunk by chunk
    # as the events are consumed, and read back lazily it is the trace.
    path = tmp_path / "trace.jsonl"
    for name, trace in _traces():
        parts = [trace[i:i + 5] for i in range(0, len(trace), 5)]
        with open(path, "w", encoding="utf-8") as fh:
            passed = []
            for ev in tee_jsonl(parts, fh):
                fh.flush()
                assert len(path.read_bytes().splitlines()) >= len(passed) + 1
                passed.append(ev)
        assert passed == trace, name
        assert path.read_bytes() == to_jsonl_bytes(trace), name
        with open(path, encoding="utf-8") as fh:
            assert list(read_events(fh)) == trace, name


def _fresh_messages(count):
    # Each event's message is built when the event is drawn and dropped with
    # it, so CPython hands the freed memory, and its id, to a later message.
    # Each value comes twice, as two objects: a memo keyed by value keeps the
    # first alive, and only the id memo can keep the second.
    for i in range(count):
        message = Write(i // 2, b"%d" % (i // 2))
        yield TraceEvent(i, i, SEND if i % 2 else DELIVER, 1, peer=2, message=message)


@pytest.mark.parametrize("count", [1, _BLOCK_LINES, 2 * _BLOCK_LINES + 1])
def test_writer_memo_survives_reused_message_ids(tmp_path, count):
    # Compared as lists of lines, which pytest reports by the first
    # difference rather than by a diff of the whole text.
    expected = [(event_to_json(ev) + "\n").encode("utf-8") for ev in _fresh_messages(count)]
    path = tmp_path / "trace.jsonl"
    write_jsonl(_fresh_messages(count), path)
    assert path.read_bytes().splitlines(keepends=True) == expected
    assert to_jsonl_bytes(_fresh_messages(count)).splitlines(keepends=True) == expected


def _message_lines():
    """Canonical lines of a real trace, and the send/deliver lines above
    whose hex holds letters."""
    trace = run(load_scenario(SCENARIOS / "drawn-delays.json"), seed=0).trace
    return [event_to_json(ev) for ev in [*trace, SENT, DELIVERED]]


# The perturbations whose lines still decode; the others' lines are malformed.
DECODABLE = {
    "default-separators", "reordered-keys", "duplicated-key", "minus-zero", "uppercase-hex",
    "escaped-kind",
}


def _perturbed(lines, decodable):
    """Every perturbation in or out of DECODABLE, each applied to five of the
    message lines."""
    messages = [line for line in lines if '"msg":' in line]
    names = sorted(name for name in PERTURBATIONS if (name in DECODABLE) == decodable)
    perturbed = [PERTURBATIONS[names[i % len(names)]](line)
                 for i, line in enumerate(messages[: 5 * len(names)])]
    assert len(perturbed) == 5 * len(names)
    for line in perturbed:
        assert isinstance(_outcome(event_from_json, line), str) != decodable, line
    return perturbed


def test_reader_matches_the_per_line_decoding(tmp_path):
    # Canonical lines mixed with every decodable perturbation, JSON
    # whitespace around some lines, and blank lines.
    canonical = _message_lines()
    perturbed = _perturbed(canonical, decodable=True)
    lines = []
    for i, line in enumerate(canonical):
        lines.append(line if i % 7 else f" \t{line}\r")
        if perturbed:
            lines.append(perturbed.pop())
        if i % 11 == 0:
            lines.append(" \t")
    assert not perturbed
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = [event_from_json(line) for line in lines if line.strip(" \t\r")]
    assert read_jsonl(path) == expected
    assert expected == [_json_event(line, {}) for line in lines if line.strip(" \t\r")]


MALFORMED = {
    "bad-hex": VALID[2].replace("020100000000000000", "zz"),
    "unknown-tag": VALID[2].replace("020100000000000000", "09"),
    "truncated-message": VALID[2].replace("020100000000000000", "0101"),
    "unknown-kind": VALID[4].replace("crash", "halt"),
    "not-json": "{",
    "vertical-tab": "\x0b" + VALID[0],
    "no-break-space": VALID[3] + "\u00a0",
}


@pytest.mark.parametrize("position", [1, 2, 40])
def test_reader_names_the_malformed_line(tmp_path, position):
    # The reader's error is the line's own, as the JSON reference and
    # `event_from_json` give it, behind the line's number.
    canonical = _message_lines()
    path = tmp_path / "trace.jsonl"
    for line in [*MALFORMED.values(), *_perturbed(canonical, decodable=False)]:
        lines = canonical[: position - 1] + [line] + canonical[position - 1 :]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_jsonl(path)
        with pytest.raises(ValueError) as reference:
            _json_event(line, {})
        with pytest.raises(ValueError) as own:
            event_from_json(line)
        assert str(info.value) == f"line {position}: {reference.value}"
        assert str(reference.value) == str(own.value)


def test_equal_fields_keep_their_class_through_a_trace(tmp_path):
    # AbdAck(1) and AbdQuery(1) have equal fields; the writer's by-value memo
    # must not hand one the other's hex, nor the reader one the other's class.
    events = [
        TraceEvent(0, 0, SEND, 1, None, None, None, None, 2, AbdAck(1)),
        TraceEvent(0, 1, SEND, 1, None, None, None, None, 2, AbdQuery(1)),
        TraceEvent(1, 2, DELIVER, 2, None, None, None, None, 1, AbdAck(1)),
        TraceEvent(1, 3, DELIVER, 2, None, None, None, None, 1, AbdQuery(1)),
    ]
    path = tmp_path / "trace.jsonl"
    write_jsonl(events, path)
    hexes = [json.loads(line)["msg"] for line in path.read_text().splitlines()]
    ack, query = encode_message(AbdAck(1)).hex(), encode_message(AbdQuery(1)).hex()
    assert ack != query and hexes == [ack, query, ack, query]
    back = read_jsonl(path)
    assert back == events
    assert [type(ev.message) for ev in back] == [AbdAck, AbdQuery, AbdAck, AbdQuery]
