"""Unit tests for the two-phase quorum register baseline."""

import copy
import random

import pytest

from regsim.abd import AbdAlgo, AbdPending, AbdReplicaState
from regsim.messages import (
    BROADCAST,
    AbdAck,
    AbdQuery,
    AbdReport,
    AbdUpdate,
    Op,
    OpResult,
    ProtocolError,
)

A3 = AbdAlgo(3, 1)


def write(value, process=1):
    return Op(process, "write", value)


def read(process=2):
    return Op(process, "read")


def fields(state) -> AbdReplicaState:
    """A replica state, a plain tuple, with its fields and its pending
    phase's named by their layouts."""
    st = AbdReplicaState._make(state)
    pd = st.pending
    return st if pd is None else st._replace(pending=AbdPending._make(pd))


def feed(state, messages, algo=A3):
    completions = []
    outgoing = []
    for msg, sender in messages:
        state, sent, completion = algo.deliver(state, msg, sender)
        outgoing.extend(sent)
        if completion is not None:
            completions.append(completion)
    return state, outgoing, completions


def test_write_broadcasts_update_and_completes_on_quorum():
    st, outgoing, _ = A3.begin(A3.init(), write(b"a"))
    assert outgoing == ((BROADCAST, AbdUpdate(1, 1, b"a")),)
    st, _, completions = feed(st, [(AbdAck(1), 1)])
    assert completions == []
    st, _, completions = feed(st, [(AbdAck(1), 2)])
    assert completions == [OpResult("write", None, 1)]
    assert fields(st).pending is None


def test_non_writer_rejected():
    with pytest.raises(ProtocolError):
        A3.begin(A3.init(), write(b"a", process=2))


def test_op_while_pending_rejected():
    st, _, _ = A3.begin(A3.init(), write(b"a"))
    with pytest.raises(ProtocolError):
        A3.begin(st, read(1))


def test_server_adopts_newer_only_but_always_acks():
    st = A3.init()
    st, outgoing, _ = feed(st, [(AbdUpdate(9, 3, b"c"), 1)])
    assert fields(st).wsn == 3 and fields(st).reg == b"c"
    after, _, _ = A3.deliver(st, AbdUpdate(10, 3, b"c"), 1)
    assert after is st  # not newer: no new state
    st, outgoing2, _ = feed(st, [(AbdUpdate(10, 1, b"a"), 1)])
    assert fields(st).wsn == 3 and fields(st).reg == b"c"  # no adopt
    assert outgoing == [(1, AbdAck(9))]
    assert outgoing2 == [(1, AbdAck(10))]


def test_server_reports_current_pair():
    st = A3.init()
    after, outgoing, _ = A3.deliver(st, AbdQuery(4), 2)
    assert outgoing == ((2, AbdReport(4, 0, None)),)
    assert after is st  # a query changes nothing, so no state is built


def test_read_on_fresh_system_returns_initial_value():
    st, outgoing, _ = A3.begin(A3.init(), read())
    assert outgoing == ((BROADCAST, AbdQuery(1)),)
    st, outgoing, completions = feed(
        st, [(AbdReport(1, 0, None), 1), (AbdReport(1, 0, None), 2)]
    )
    # Quorum of reports triggers the unconditional write-back phase.
    assert outgoing == [(BROADCAST, AbdUpdate(2, 0, None))]
    assert completions == []
    st, _, completions = feed(st, [(AbdAck(2), 1), (AbdAck(2), 3)])
    assert completions == [OpResult("read", None, 0)]


def test_read_selects_max_pair_for_write_back():
    st, _, _ = A3.begin(A3.init(), read())
    st, outgoing, _ = feed(st, [(AbdReport(1, 1, b"a"), 1), (AbdReport(1, 2, b"b"), 3)])
    assert outgoing == [(BROADCAST, AbdUpdate(2, 2, b"b"))]
    st, _, completions = feed(st, [(AbdAck(2), 2), (AbdAck(2), 3)])
    assert completions == [OpResult("read", b"b", 2)]


def test_stale_phase_replies_discarded():
    st, _, _ = A3.begin(A3.init(), read())
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
    a5 = AbdAlgo(5, 2)
    st, _, _ = a5.begin(a5.init(), write(b"a"))
    st, _, completions = feed(st, [(AbdAck(1), 2), (AbdAck(1), 2)], a5)
    assert completions == []
    assert fields(st).pending.responders == frozenset({2})


@pytest.mark.parametrize("seed", range(4))
def test_handlers_leave_input_state_unchanged(seed):
    # A short random walk of the writer: its own operations, and replies and
    # requests for the current or the previous phase from random senders.
    # A state is a hashable tuple, so none of its fields can change in place;
    # a handler that changed one anyway would show as a change from the deep
    # copy of its input.
    rng = random.Random(seed)
    st = A3.init()
    for _ in range(150):
        before = copy.deepcopy(st)
        if fields(st).pending is None:
            out = A3.begin(st, write(b"v") if rng.random() < 0.5 else read(1))
        else:
            opsn = rng.randint(max(1, fields(st).opsn - 1), fields(st).opsn)
            wsn = rng.randint(0, 3)
            msg = rng.choice(
                [AbdUpdate(opsn, wsn, b"u"), AbdAck(opsn), AbdQuery(opsn), AbdReport(opsn, wsn, b"r")]
            )
            out = A3.deliver(st, msg, rng.randint(1, 3))
        assert type(st) is tuple and hash(st) == hash(before)
        assert st == before
        st, _, _ = out
