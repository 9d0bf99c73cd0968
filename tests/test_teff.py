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


def fields(state) -> teff.ReplicaState:
    """A replica state, a plain tuple, with its fields and its pending
    read's named by their layouts."""
    st = teff.ReplicaState._make(state)
    pr = st.pending_read
    return st if pr is None else st._replace(pending_read=teff.PendingRead._make(pr))


def drive(state, events):
    """Feed a list of (handler, message, sender) into successive states; a
    handler's None leaves the state as it is.  Returns the final state and
    all completions seen."""
    completions = []
    for handler, msg, sender in events:
        out = handler(state, msg, sender)
        if out is None:
            continue
        state, _, completion = out
        if completion is not None:
            completions.append(completion)
    return state, completions


# --- init ---------------------------------------------------------------


def test_init_fresh_state():
    st = fields(B3.init())
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
    st, _, _ = algo.begin(algo.init(), read(2))
    assert fields(st).pending_read.rsn == 1


# --- begin: write -------------------------------------------------------


def test_first_write_broadcasts_wsn_one():
    st, outgoing, completion = B3.begin(B3.init(), write(b"a"))
    assert outgoing == ((BROADCAST, Write(1, b"a")),)
    st = fields(st)
    assert st.wsn == 1 and st.reg == b"a"
    assert st.pending_write == 1
    assert 1 in st.forwarded
    assert completion is None


def test_write_increments_existing_wsn():
    st = tuple(teff.ReplicaState(wsn=4))
    _, outgoing, _ = B3.begin(st, write(b"e"))
    assert outgoing == ((BROADCAST, Write(5, b"e")),)


def test_non_writer_cannot_write():
    with pytest.raises(ProtocolError):
        B3.begin(B3.init(), write(b"a", process=2))


def test_second_write_while_pending_rejected():
    st, _, _ = B3.begin(B3.init(), write(b"a"))
    with pytest.raises(ProtocolError):
        B3.begin(st, write(b"b"))


# --- on_write -----------------------------------------------------------


def test_fresh_value_adopted_and_forwarded():
    st = B3.init()
    st, outgoing, _ = B3.on_write(st, Write(1, b"a"), 1)
    assert fields(st).reg == b"a" and fields(st).wsn == 1
    assert outgoing == ((BROADCAST, Write(1, b"a")),)


def test_stale_value_still_forwarded_once():
    # A process can see its first copy of an old sequence number after
    # already holding a newer one; the relay still happens.
    st = tuple(teff.ReplicaState(wsn=2, reg=b"b"))
    st, outgoing, _ = B3.on_write(st, Write(1, b"a"), 2)
    assert fields(st).reg == b"b" and fields(st).wsn == 2
    assert outgoing == ((BROADCAST, Write(1, b"a")),)
    _, again, _ = B3.on_write(st, Write(1, b"a"), 3)
    assert again == ()


def test_writer_completes_at_quorum():
    # n=3, t=1: two distinct senders are enough.
    st, _, _ = B3.begin(B3.init(), write(b"a"))
    st, completions = drive(st, [(B3.on_write, Write(1, b"a"), 1)])
    assert completions == []
    st, completions = drive(st, [(B3.on_write, Write(1, b"a"), 2)])
    assert completions == [teff.OpResult("write", None, 1)]
    st = fields(st)
    assert st.pending_write is None
    assert st.swsn == 1 and st.res == b"a"


def test_quorum_update_fires_once_per_wsn():
    st = B3.init()
    st, _ = drive(st, [(B3.on_write, Write(1, b"a"), 1), (B3.on_write, Write(1, b"a"), 3)])
    assert fields(st).swsn == 1 and fields(st).res == b"a"
    assert fields(st).know == ()  # collected knowledge at or below swsn is dropped
    # A later copy is a no-op: forwarded already and at or below swsn.
    assert B3.on_write(st, Write(1, b"a"), 2) is None
    assert B3.deliver(st, Write(1, b"a"), 2) == (st, (), None)


def test_duplicate_senders_do_not_reach_quorum():
    b5 = TeffAlgo(5, 2, BASE)
    st = b5.init()
    st, _ = drive(st, [(b5.on_write, Write(1, b"a"), 1), (b5.on_write, Write(1, b"a"), 1)])
    assert fields(st).swsn == 0
    assert dict(fields(st).know)[1] == {1}


# --- begin: read / on_read -----------------------------------------------


def test_begin_read_broadcasts_next_rsn():
    st, outgoing, _ = B3.begin(B3.init(), read())
    assert outgoing == ((BROADCAST, Read(1)),)
    assert fields(st).pending_read.rsn == 1

    st = tuple(teff.ReplicaState(rsn=7))
    _, outgoing, _ = B3.begin(st, read())
    assert outgoing == ((BROADCAST, Read(8)),)


def test_begin_read_while_pending_rejected():
    st, _, _ = B3.begin(B3.init(), read())
    with pytest.raises(ProtocolError):
        B3.begin(st, read())


def test_on_read_replies_current_wsn():
    st = tuple(teff.ReplicaState(wsn=5, reg=b"e"))
    after, outgoing, _ = B3.on_read(st, Read(2), 2)
    assert outgoing == ((2, State(2, 5)),)
    assert after is st  # a READ changes nothing, so no state is built

    fresh = B3.init()
    _, outgoing, _ = B3.on_read(fresh, Read(1), 2)
    assert outgoing == ((2, State(1, 0)),)


def test_on_read_modified_carries_value():
    st = tuple(teff.ReplicaState(wsn=5, reg=b"e"))
    after, outgoing, _ = M3.on_read(st, Read(2), 2)
    assert outgoing == ((2, State(2, 5, b"e", carries_value=True)),)
    assert after is st


# --- on_state / check_read_complete --------------------------------------


def test_read_completes_on_fresh_system():
    st, _, _ = B3.begin(B3.init(), read())
    st, completions = drive(st, [(B3.on_state, State(1, 0), 2), (B3.on_state, State(1, 0), 3)])
    assert completions == [teff.OpResult("read", None, 0)]
    assert fields(st).pending_read is None


def test_read_waits_for_swsn_to_catch_up():
    st, _, _ = B3.begin(B3.init(), read())
    st, completions = drive(st, [(B3.on_state, State(1, 0), 3), (B3.on_state, State(1, 1), 1)])
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
    st, _, _ = B3.begin(B3.init(), read())
    st, completions = drive(
        st,
        [
            (B3.on_state, State(1, 0), 3),
            (B3.on_write, Write(1, b"a"), 1),
            (B3.on_write, Write(1, b"a"), 2),
        ],
    )
    assert completions == []
    assert fields(st).swsn == 1
    st, completions = drive(st, [(B3.on_state, State(1, 1), 2)])
    assert completions == [teff.OpResult("read", b"a", 1)]


def test_stale_state_replies_ignored():
    st = tuple(teff.ReplicaState(rsn=3, pending_read=(3, frozenset(), 0)))
    assert B3.on_state(st, State(2, 9), 3) is None
    assert B3.deliver(st, State(2, 9), 3) == (st, (), None)


def test_modified_state_feeds_write_path():
    st = M3.init()
    st, outgoing, _ = M3.on_state(st, State(1, 1, b"v", True), 3)
    assert fields(st).reg == b"v" and fields(st).wsn == 1
    assert outgoing == ((BROADCAST, Write(1, b"v")),)
    # Stale replies keep feeding it too.
    st2, _, _ = M3.on_state(st, State(1, 2, b"w", True), 1)
    assert fields(st2).wsn == 2 and fields(st2).reg == b"w"


def test_modified_state_counts_toward_quorum_by_default():
    st = M3.init()
    st, _ = drive(
        st, [(M3.on_state, State(1, 1, b"v", True), 3), (M3.on_write, Write(1, b"v"), 1)]
    )
    assert fields(st).swsn == 1 and fields(st).res == b"v"


def test_modified_state_wsn_zero_is_inert_on_write_path():
    st = M3.init()
    assert M3.on_state(st, State(1, 0, None, True), 3) is None  # no read pending
    st, _, _ = M3.begin(st, read())
    st, outgoing, _ = M3.on_state(st, State(1, 0, None, True), 3)
    assert outgoing == ()  # nothing to relay for the initial value
    assert fields(st).know == ()
    assert fields(st).pending_read.responders == {3}


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
            out = algo.deliver(st, Write(wsn, value), sender)
        elif kind < 0.8:
            if variant == MODIFIED:
                reply = State(rng.randint(1, 3), wsn, value, True)
            else:
                reply = State(rng.randint(1, 3), wsn)
            out = algo.deliver(st, reply, sender)
        elif fields(st).pending_read is None:
            out = algo.begin(st, read())
        else:
            out = algo.deliver(st, Read(rng.randint(1, 3)), sender)
        yield st, before, out
        st, _, _ = out


def random_walk(seed, variant, steps=300):
    """The states `walk` passes through, the initial one first."""
    trail = [TeffAlgo(5, 2, variant).init()]
    trail.extend(state for _, _, (state, _, _) in walk(seed, variant, steps))
    return trail


@pytest.mark.parametrize("variant", [BASE, MODIFIED])
@pytest.mark.parametrize("seed", range(8))
def test_monotonicity_and_coupling(seed, variant):
    trail = random_walk(seed, variant)
    values_by_wsn = {0: None, 1: b"a", 2: b"b", 3: b"c", 4: b"d"}
    for prev, cur in zip(map(fields, trail), map(fields, trail[1:])):
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
        st, outgoing, _ = algo.deliver(st, Write(wsn, bytes([96 + wsn])), rng.randint(1, 5))
        for dest, msg in outgoing:
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
        assert type(st) is tuple and hash(st) == hash(before)
        assert st == before


def test_handlers_are_pure():
    st = M3.init()
    st, _ = drive(st, [(M3.on_write, Write(1, b"a"), 1)])
    first = M3.on_state(st, State(1, 2, b"b", True), 3)
    second = M3.on_state(st, State(1, 2, b"b", True), 3)
    assert first == second  # the state, the sends and the completion
    # and the input state was left alone
    assert fields(st).wsn == 1 and fields(st).reg == b"a"


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
