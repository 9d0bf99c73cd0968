import pytest
from hypothesis import given
from hypothesis import strategies as st

from regsim.messages import (
    AbdAck,
    AbdQuery,
    AbdReport,
    AbdUpdate,
    Read,
    State,
    Write,
    decode_message,
    encode_message,
)

ROUND_TRIP = [
    Write(1, b"a"),
    Write(12345, b""),
    Read(7),
    State(3, 9),
    State(3, 9, b"hello", carries_value=True),
    State(3, 0, None, carries_value=True),
    AbdUpdate(4, 2, b"x"),
    AbdUpdate(4, 0, None),
    AbdAck(4),
    AbdQuery(5),
    AbdReport(5, 3, b"y"),
]


@pytest.mark.parametrize("msg", ROUND_TRIP, ids=lambda m: repr(m))
def test_round_trip(msg):
    assert decode_message(encode_message(msg)) == msg


# One exact encoding per message class and shape, recorded before the
# encoder became table-driven: both STATE shapes, and values None, b"" and
# non-empty.
WIRE = [
    (Write(258, b""), "0102010000000000000100000000"),
    (State(3, 9), "0303000000000000000900000000000000"),
    (State(3, 9, b"hi", carries_value=True), "030300000000000000090000000000000001020000006869"),
    (State(3, 0, None, carries_value=True), "030300000000000000000000000000000000"),
    (AbdUpdate(4, 2, b"x"), "0404000000000000000200000000000000010100000078"),
    (AbdUpdate(4, 0, None), "040400000000000000000000000000000000"),
    (AbdAck(4), "050400000000000000"),
    (AbdQuery(5), "060500000000000000"),
    (AbdReport(5, 3, b""), "07050000000000000003000000000000000100000000"),
    (AbdReport(6, 1, b"yz"), "07060000000000000001000000000000000102000000797a"),
]


def test_wire_layout_is_stable():
    # tag byte, little-endian u64 seqno, presence byte, u32 length, bytes
    assert encode_message(Write(1, b"a")).hex() == "01" + "01" + "00" * 7 + "01" + "01000000" + "61"
    assert encode_message(Read(2)).hex() == "02" + "02" + "00" * 7
    for msg, wire in WIRE:
        assert encode_message(msg).hex() == wire, msg
        assert decode_message(bytes.fromhex(wire)) == msg


@pytest.mark.parametrize(
    "one,other",
    [(AbdAck(1), AbdQuery(1)), (AbdUpdate(1, 1, b"a"), AbdReport(1, 1, b"a"))],
    ids=["ack-query", "update-report"],
)
def test_message_classes_stay_apart(one, other):
    # Equal fields, different classes: never equal, two dict keys.
    assert tuple(one) == tuple(other)
    assert one != other and not one == other
    assert one == type(one)(*one) and not one != type(one)(*one)
    assert len({one: 0, other: 1}) == 2 and {one: 0}.get(other) is None
    assert one != tuple(one) and tuple(one) != one


def test_state_shapes_differ_between_variants():
    bare = encode_message(State(1, 5))
    carrying = encode_message(State(1, 5, None, carries_value=True))
    assert len(bare) == 17
    assert len(carrying) == 18
    assert decode_message(bare).carries_value is False
    assert decode_message(carrying).carries_value is True


def test_initial_value_distinct_from_empty_bytes():
    with_empty = State(1, 5, b"", carries_value=True)
    with_none = State(1, 5, None, carries_value=True)
    assert encode_message(with_empty) != encode_message(with_none)
    assert decode_message(encode_message(with_empty)).value == b""
    assert decode_message(encode_message(with_none)).value is None


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_message(b"")
    with pytest.raises(ValueError):
        decode_message(b"\xff\x00")
    with pytest.raises(ValueError):
        decode_message(encode_message(Read(1)) + b"\x00")


@pytest.mark.parametrize(
    "data",
    [
        b"\x01",  # a tag and no sequence number
        encode_message(Read(1))[:-1],
        encode_message(State(1, 5))[:12],
        encode_message(Write(1, b"abc"))[:9],  # no value block
        encode_message(Write(1, b"abc"))[:12],  # cut inside the length
        encode_message(Write(1, b"abc"))[:-1],  # cut inside the bytes
        encode_message(AbdReport(5, 3, b"y"))[:-1],
    ],
    ids=lambda d: d.hex(),
)
def test_decode_reports_truncation(data):
    with pytest.raises(ValueError, match="truncated"):
        decode_message(data)


# --- fuzzing ---------------------------------------------------------------

U64 = st.integers(0, 2**64 - 1)
VALUES = st.none() | st.binary(max_size=12)
MESSAGES = st.one_of(
    st.builds(Write, U64, VALUES),
    st.builds(Read, U64),
    st.builds(State, U64, U64, st.none(), st.just(False)),
    st.builds(State, U64, U64, VALUES, st.just(True)),
    st.builds(AbdUpdate, U64, U64, VALUES),
    st.builds(AbdAck, U64),
    st.builds(AbdQuery, U64),
    st.builds(AbdReport, U64, U64, VALUES),
)
# Arbitrary bytes, and bytes behind a known or nearly known tag so the
# fuzzer also gets past the tag check.
WIRE_LIKE = st.binary(max_size=40) | st.builds(
    lambda tag, rest: bytes([tag]) + rest, st.integers(0, 9), st.binary(max_size=40)
)


@given(WIRE_LIKE)
def test_decode_arbitrary_bytes_raises_only_value_error(data):
    try:
        msg = decode_message(data)
    except ValueError:
        return
    assert encode_message(msg) == data  # an accepted encoding is canonical


@given(MESSAGES)
def test_round_trip_generated(msg):
    assert decode_message(encode_message(msg)) == msg


@given(MESSAGES)
def test_every_strict_prefix_is_truncated(msg):
    data = encode_message(msg)
    for size in range(1, len(data)):
        if isinstance(msg, State) and msg.carries_value and size == 17:
            # A value-carrying STATE cut after its head is a base STATE.
            assert decode_message(data[:size]) == State(msg.rsn, msg.wsn)
            continue
        with pytest.raises(ValueError, match="^truncated"):
            decode_message(data[:size])
