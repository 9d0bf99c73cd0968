"""Trace events: JSONL decoding rejects malformed input with ValueError."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from regsim.trace import event_from_json, event_to_json

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
