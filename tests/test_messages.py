import pytest

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


def test_wire_layout_is_stable():
    # tag byte, little-endian u64 seqno, presence byte, u32 length, bytes
    assert encode_message(Write(1, b"a")).hex() == "01" + "01" + "00" * 7 + "01" + "01000000" + "61"
    assert encode_message(Read(2)).hex() == "02" + "02" + "00" * 7


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
