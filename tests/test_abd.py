"""Unit tests for the two-phase quorum register baseline."""

import random

import pytest

from regsim.abd import (
    abd_begin_read,
    abd_begin_write,
    abd_init,
    abd_on_message,
)
from regsim.messages import (
    BROADCAST,
    AbdAck,
    AbdQuery,
    AbdReport,
    AbdUpdate,
    OpResult,
    ProtocolError,
)


def feed(state, messages):
    completions = []
    outgoing = []
    for msg, sender in messages:
        out = abd_on_message(state, msg, sender)
        state = out.state
        outgoing.extend(out.outgoing)
        if out.completion is not None:
            completions.append(out.completion)
    return state, outgoing, completions


def test_write_broadcasts_update_and_completes_on_quorum():
    out = abd_begin_write(abd_init(1, 3, 1), b"a")
    assert out.outgoing == ((BROADCAST, AbdUpdate(1, 1, b"a")),)
    st, _, completions = feed(out.state, [(AbdAck(1), 1)])
    assert completions == []
    st, _, completions = feed(st, [(AbdAck(1), 2)])
    assert completions == [OpResult("write", None, 1)]
    assert st.pending is None


def test_non_writer_rejected():
    with pytest.raises(ProtocolError):
        abd_begin_write(abd_init(2, 3, 1), b"a")


def test_op_while_pending_rejected():
    st = abd_begin_write(abd_init(1, 3, 1), b"a").state
    with pytest.raises(ProtocolError):
        abd_begin_read(st)


def test_server_adopts_newer_only_but_always_acks():
    st = abd_init(2, 3, 1)
    st, outgoing, _ = feed(st, [(AbdUpdate(9, 3, b"c"), 1)])
    assert st.wsn == 3 and st.reg == b"c"
    st, outgoing2, _ = feed(st, [(AbdUpdate(10, 1, b"a"), 1)])
    assert st.wsn == 3 and st.reg == b"c"  # no adopt
    assert outgoing == [(1, AbdAck(9))]
    assert outgoing2 == [(1, AbdAck(10))]


def test_server_reports_current_pair():
    st = abd_init(3, 3, 1)
    st, outgoing, _ = feed(st, [(AbdQuery(4), 2)])
    assert outgoing == [(2, AbdReport(4, 0, None))]


def test_read_on_fresh_system_returns_initial_value():
    out = abd_begin_read(abd_init(2, 3, 1))
    assert out.outgoing == ((BROADCAST, AbdQuery(1)),)
    st, outgoing, completions = feed(
        out.state, [(AbdReport(1, 0, None), 1), (AbdReport(1, 0, None), 2)]
    )
    # Quorum of reports triggers the unconditional write-back phase.
    assert outgoing == [(BROADCAST, AbdUpdate(2, 0, None))]
    assert completions == []
    st, _, completions = feed(st, [(AbdAck(2), 1), (AbdAck(2), 3)])
    assert completions == [OpResult("read", None, 0)]


def test_read_selects_max_pair_for_write_back():
    st = abd_begin_read(abd_init(2, 3, 1)).state
    st, outgoing, _ = feed(st, [(AbdReport(1, 1, b"a"), 1), (AbdReport(1, 2, b"b"), 3)])
    assert outgoing == [(BROADCAST, AbdUpdate(2, 2, b"b"))]
    st, _, completions = feed(st, [(AbdAck(2), 2), (AbdAck(2), 3)])
    assert completions == [OpResult("read", b"b", 2)]


def test_stale_phase_replies_discarded():
    st = abd_begin_read(abd_init(2, 3, 1)).state
    st, outgoing, completions = feed(
        st,
        [
            (AbdAck(0), 1),  # from some previous life
            (AbdReport(0, 7, b"z"), 1),
            (AbdReport(1, 0, None), 2),
            (AbdReport(1, 0, None), 3),
        ],
    )
    assert outgoing == [(BROADCAST, AbdUpdate(2, 0, None))]
    st, _, completions = feed(st, [(AbdAck(1), 1), (AbdAck(2), 1), (AbdAck(2), 2)])
    assert completions == [OpResult("read", None, 0)]


def test_duplicate_ack_senders_not_counted_twice():
    st = abd_begin_write(abd_init(1, 5, 2), b"a").state
    st, _, completions = feed(st, [(AbdAck(1), 2), (AbdAck(1), 2)])
    assert completions == []
    assert st.pending.responders == frozenset({2})


@pytest.mark.parametrize("seed", range(4))
def test_handlers_leave_input_state_unchanged(seed):
    # A short random walk of the writer: its own operations, and replies and
    # requests for the current or the previous phase from random senders.
    rng = random.Random(seed)
    st = abd_init(1, 3, 1)
    for _ in range(150):
        before = st.freeze()
        if st.pending is None:
            out = abd_begin_write(st, b"v") if rng.random() < 0.5 else abd_begin_read(st)
        else:
            opsn = rng.randint(max(1, st.opsn - 1), st.opsn)
            wsn = rng.randint(0, 3)
            msg = rng.choice(
                [AbdUpdate(opsn, wsn, b"u"), AbdAck(opsn), AbdQuery(opsn), AbdReport(opsn, wsn, b"r")]
            )
            out = abd_on_message(st, msg, rng.randint(1, 3))
        assert st.freeze() == before
        st = out.state
