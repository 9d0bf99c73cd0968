"""Unit and property tests for the register protocol handlers."""

import copy
import random
from pathlib import Path

import pytest

from regsim import teff
from regsim.config import load_scenario
from regsim.engine import run
from regsim.messages import Op, Read, State, Write
from regsim.teff import BASE, BROADCAST, MODIFIED, ProtocolError, TeffAlgo
from regsim.trace import SEND

B3 = TeffAlgo(3, 1, BASE)
M3 = TeffAlgo(3, 1, MODIFIED)


def write(value, process=1):
    return Op(process, "write", value)


def read(process=2):
    return Op(process, "read")


def drive(state, events):
    """Feed a list of (handler, args) into successive states; returns the
    final state and all completions seen."""
    completions = []
    for handler, *args in events:
        out = handler(state, *args)
        state = out.state
        if out.completion is not None:
            completions.append(out.completion)
    return state, completions


# --- init ---------------------------------------------------------------


def test_init_fresh_state():
    st = B3.init()
    assert (st.wsn, st.swsn, st.rsn) == (0, 0, 0)
    assert st.reg is None and st.res is None
    assert st.forwarded == frozenset() and st.know == ()


def test_init_rejects_too_many_faults():
    with pytest.raises(ProtocolError):
        TeffAlgo(4, 2, BASE)
    with pytest.raises(ProtocolError):
        TeffAlgo(0, 0, BASE)


def test_init_non_writer_is_valid():
    algo = TeffAlgo(5, 2, MODIFIED)
    assert algo.begin(algo.init(), read(2)).state.pending_read.rsn == 1


# --- begin: write -------------------------------------------------------


def test_first_write_broadcasts_wsn_one():
    out = B3.begin(B3.init(), write(b"a"))
    assert out.outgoing == ((BROADCAST, Write(1, b"a")),)
    assert out.state.wsn == 1 and out.state.reg == b"a"
    assert out.state.pending_write == 1
    assert 1 in out.state.forwarded
    assert out.completion is None


def test_write_increments_existing_wsn():
    st = B3.init()._replace(wsn=4)
    out = B3.begin(st, write(b"e"))
    assert out.outgoing == ((BROADCAST, Write(5, b"e")),)


def test_non_writer_cannot_write():
    with pytest.raises(ProtocolError):
        B3.begin(B3.init(), write(b"a", process=2))


def test_second_write_while_pending_rejected():
    out = B3.begin(B3.init(), write(b"a"))
    with pytest.raises(ProtocolError):
        B3.begin(out.state, write(b"b"))


# --- on_write -----------------------------------------------------------


def test_fresh_value_adopted_and_forwarded():
    st = B3.init()
    out = B3.on_write(st, Write(1, b"a"), 1)
    assert out.state.reg == b"a" and out.state.wsn == 1
    assert out.outgoing == ((BROADCAST, Write(1, b"a")),)


def test_stale_value_still_forwarded_once():
    # A process can see its first copy of an old sequence number after
    # already holding a newer one; the relay still happens.
    st = B3.init()._replace(wsn=2, reg=b"b")
    out = B3.on_write(st, Write(1, b"a"), 2)
    assert out.state.reg == b"b" and out.state.wsn == 2
    assert out.outgoing == ((BROADCAST, Write(1, b"a")),)
    again = B3.on_write(out.state, Write(1, b"a"), 3)
    assert again.outgoing == ()


def test_writer_completes_at_quorum():
    # n=3, t=1: two distinct senders are enough.
    st = B3.begin(B3.init(), write(b"a")).state
    st, completions = drive(st, [(B3.on_write, Write(1, b"a"), 1)])
    assert completions == []
    st, completions = drive(st, [(B3.on_write, Write(1, b"a"), 2)])
    assert completions == [teff.OpResult("write", None, 1)]
    assert st.pending_write is None
    assert st.swsn == 1 and st.res == b"a"


def test_quorum_update_fires_once_per_wsn():
    st = B3.init()
    st, _ = drive(st, [(B3.on_write, Write(1, b"a"), 1), (B3.on_write, Write(1, b"a"), 3)])
    assert st.swsn == 1 and st.res == b"a"
    assert st.know == ()  # collected knowledge at or below swsn is dropped
    after = B3.on_write(st, Write(1, b"a"), 2)
    assert after.state.swsn == 1 and after.outgoing == ()


def test_duplicate_senders_do_not_reach_quorum():
    b5 = TeffAlgo(5, 2, BASE)
    st = b5.init()
    st, _ = drive(st, [(b5.on_write, Write(1, b"a"), 1), (b5.on_write, Write(1, b"a"), 1)])
    assert st.swsn == 0
    assert dict(st.know)[1] == {1}


# --- begin: read / on_read -----------------------------------------------


def test_begin_read_broadcasts_next_rsn():
    out = B3.begin(B3.init(), read())
    assert out.outgoing == ((BROADCAST, Read(1)),)
    assert out.state.pending_read.rsn == 1

    st = B3.init()._replace(rsn=7)
    assert B3.begin(st, read()).outgoing == ((BROADCAST, Read(8)),)


def test_begin_read_while_pending_rejected():
    out = B3.begin(B3.init(), read())
    with pytest.raises(ProtocolError):
        B3.begin(out.state, read())


def test_on_read_replies_current_wsn():
    st = B3.init()._replace(wsn=5, reg=b"e")
    out = B3.on_read(st, 2, 2)
    assert out.outgoing == ((2, State(2, 5)),)
    assert out.state is st  # a READ changes nothing, so no state is built

    fresh = B3.init()
    assert B3.on_read(fresh, 1, 2).outgoing == ((2, State(1, 0)),)


def test_on_read_modified_carries_value():
    st = M3.init()._replace(wsn=5, reg=b"e")
    out = M3.on_read(st, 2, 2)
    assert out.outgoing == ((2, State(2, 5, b"e", carries_value=True)),)
    assert out.state is st


# --- on_state / check_read_complete --------------------------------------


def test_read_completes_on_fresh_system():
    st = B3.begin(B3.init(), read()).state
    st, completions = drive(st, [(B3.on_state, 1, 0, None, 2), (B3.on_state, 1, 0, None, 3)])
    assert completions == [teff.OpResult("read", None, 0)]
    assert st.pending_read is None


def test_read_waits_for_swsn_to_catch_up():
    st = B3.begin(B3.init(), read()).state
    st, completions = drive(st, [(B3.on_state, 1, 0, None, 3), (B3.on_state, 1, 1, None, 1)])
    # Quorum of replies but swsn (0) < maxwsn (1): keep waiting.
    assert completions == []
    assert B3.check_read_complete(st) is None
    # Knowledge of wsn 1 from a quorum unblocks it.
    st, completions = drive(
        st, [(B3.on_write, Write(1, b"a"), 1), (B3.on_write, Write(1, b"a"), 3)]
    )
    assert completions == [teff.OpResult("read", b"a", 1)]


def test_read_returns_newer_value_after_write_quorum():
    # swsn advances through WRITE deliveries before the second reply arrives;
    # the read then returns the newer value.
    st = B3.begin(B3.init(), read()).state
    st, completions = drive(
        st,
        [
            (B3.on_state, 1, 0, None, 3),
            (B3.on_write, Write(1, b"a"), 1),
            (B3.on_write, Write(1, b"a"), 2),
        ],
    )
    assert completions == []
    assert st.swsn == 1
    st, completions = drive(st, [(B3.on_state, 1, 1, None, 2)])
    assert completions == [teff.OpResult("read", b"a", 1)]


def test_stale_state_replies_ignored():
    st = B3.init()._replace(rsn=3, pending_read=teff.PendingRead(3, frozenset(), 0))
    out = B3.on_state(st, 2, 9, None, 3)
    assert out.state.pending_read == teff.PendingRead(3, frozenset(), 0)
    assert out.completion is None


def test_modified_state_feeds_write_path():
    st = M3.init()
    out = M3.on_state(st, 1, 1, b"v", 3)
    assert out.state.reg == b"v" and out.state.wsn == 1
    assert out.outgoing == ((BROADCAST, Write(1, b"v")),)
    # Stale replies keep feeding it too.
    st2 = M3.on_state(out.state, 1, 2, b"w", 1).state
    assert st2.wsn == 2 and st2.reg == b"w"


def test_modified_state_counts_toward_quorum_by_default():
    st = M3.init()
    st, _ = drive(st, [(M3.on_state, 1, 1, b"v", 3), (M3.on_write, Write(1, b"v"), 1)])
    assert st.swsn == 1 and st.res == b"v"


def test_modified_state_wsn_zero_is_inert_on_write_path():
    st = M3.init()
    out = M3.on_state(st, 1, 0, None, 3)
    assert out.outgoing == ()  # nothing to relay for the initial value
    assert out.state.know == ()


# --- properties over random event sequences ------------------------------


def walk(seed, variant, steps=300):
    """Drive one replica with a random but protocol-shaped event stream.
    Yields (input state, its deep copy taken before the call, output)."""
    rng = random.Random(seed)
    n, t = 5, 2
    algo = TeffAlgo(n, t, variant)
    st = algo.init()
    for _ in range(steps):
        wsn = rng.randint(1, 4)
        value = bytes([96 + wsn])
        sender = rng.randint(1, n)
        kind = rng.random()
        before = copy.deepcopy(st)
        if kind < 0.55:
            out = algo.on_write(st, Write(wsn, value), sender)
        elif kind < 0.8:
            carried = (value if variant == MODIFIED else None)
            out = algo.on_state(st, rng.randint(1, 3), wsn, carried, sender)
        elif st.pending_read is None:
            out = algo.begin(st, read())
        else:
            out = algo.on_read(st, rng.randint(1, 3), sender)
        yield st, before, out
        st = out.state


def random_walk(seed, variant, steps=300):
    """The states `walk` passes through, the initial one first."""
    trail = [TeffAlgo(5, 2, variant).init()]
    trail.extend(out.state for _, _, out in walk(seed, variant, steps))
    return trail


@pytest.mark.parametrize("variant", [BASE, MODIFIED])
@pytest.mark.parametrize("seed", range(8))
def test_monotonicity_and_coupling(seed, variant):
    trail = random_walk(seed, variant)
    values_by_wsn = {0: None, 1: b"a", 2: b"b", 3: b"c", 4: b"d"}
    for prev, cur in zip(trail, trail[1:]):
        assert cur.wsn >= prev.wsn
        assert cur.swsn >= prev.swsn
        assert cur.swsn <= cur.wsn
        assert cur.res == values_by_wsn[cur.swsn]
        assert [s for s, _ in cur.know] == sorted({s for s, _ in cur.know})
        for s, holders in cur.know:
            assert s > cur.swsn
            assert len(holders) <= 5  # n


@pytest.mark.parametrize("variant", [BASE, MODIFIED])
@pytest.mark.parametrize("seed", range(8))
def test_forward_at_most_once_per_wsn(seed, variant):
    rng = random.Random(seed ^ 0x5EED)
    algo = TeffAlgo(5, 2, variant)
    st = algo.init()
    forwarded = []
    for _ in range(400):
        wsn = rng.randint(1, 4)
        out = algo.on_write(st, Write(wsn, bytes([96 + wsn])), rng.randint(1, 5))
        st = out.state
        for dest, msg in out.outgoing:
            assert dest is BROADCAST
            forwarded.append(msg.wsn)
    assert len(forwarded) == len(set(forwarded))


@pytest.mark.parametrize("variant", [BASE, MODIFIED])
@pytest.mark.parametrize("seed", range(8))
def test_handlers_leave_input_state_unchanged(seed, variant):
    # A state is a hashable tuple, so none of its fields can change in
    # place; a handler that changed one anyway would show here as a change
    # from the deep copy of its input.
    for st, before, _ in walk(seed, variant):
        assert type(st) is teff.ReplicaState and hash(st) == hash(before)
        assert st == before


def test_handlers_are_pure():
    st = M3.init()
    st, _ = drive(st, [(M3.on_write, Write(1, b"a"), 1)])
    first = M3.on_state(st, 1, 2, b"b", 3)
    second = M3.on_state(st, 1, 2, b"b", 3)
    assert first.state == second.state
    assert first.outgoing == second.outgoing
    assert first.completion == second.completion
    # and the input state was left alone
    assert st.wsn == 1 and st.reg == b"a"


@pytest.mark.parametrize("variant", [BASE, MODIFIED])
def test_replay_reproduces_states(variant):
    a = random_walk(17, variant)
    b = random_walk(17, variant)
    assert a == b


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize(
    "name", ["messages-teff-n5.json", "read-concurrent-write.json", "round-write.json"]
)
def test_relays_forward_the_received_write(name):
    # A relay re-broadcasts the WRITE it received, so in a base-variant run
    # every SEND of one wsn's WRITE carries the writer's own message object.
    cfg = load_scenario(SCENARIOS / name)
    assert cfg.algorithm == "teff"
    sends, objects = 0, {}
    for ev in run(cfg).trace:
        if ev.kind == SEND and isinstance(ev.message, Write):
            sends += 1
            objects.setdefault(ev.message.wsn, set()).add(id(ev.message))
    assert sends > cfg.n * len(objects)  # relays, not only the writer's sends
    assert all(len(ids) == 1 for ids in objects.values())
