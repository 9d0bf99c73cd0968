"""The uniform driver interface over both protocols."""

from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsim.engine
from regsim.abd import AbdPending, AbdReplicaState
from regsim.algos import make_algorithm
from regsim.config import load_scenario
from regsim.engine import run
from regsim.explore import explore
from regsim.messages import WRITER, AbdAck, Op, ProtocolError, Write
from regsim.teff import PendingRead, ReplicaState

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# Each protocol's state layout and the layout of its pending record, the
# state's last field.
LAYOUT = {
    "teff": (ReplicaState, PendingRead),
    "teff-modified": (ReplicaState, PendingRead),
    "abd": (AbdReplicaState, AbdPending),
}


@pytest.mark.parametrize(
    "name,foreign",
    [("teff", AbdAck(1)), ("abd", Write(1, b"a")), ("teff-modified", AbdAck(1))],
)
def test_deliver_rejects_the_other_protocols_message(name, foreign):
    # The handler table has no row for a foreign class: a ProtocolError
    # naming the message, not a KeyError from the table.
    algo = make_algorithm(name, 3, 1)
    with pytest.raises(ProtocolError) as err:
        algo.deliver(algo.init(), foreign, 1)
    assert str(err.value) == f"unexpected message for register protocol: {foreign!r}"


@pytest.mark.parametrize("name", ["teff", "teff-modified", "abd"])
def test_begin_checks_every_precondition(name):
    # One invoke check serves every protocol: a process with an op pending,
    # a write by a process other than the writer, a write of the initial
    # value and an op of any kind but read and write are all refused.
    algo = make_algorithm(name, 3, 1)
    fresh = algo.init()
    pending, _, _ = algo.begin(fresh, Op(2, "read"))
    refused = [
        (pending, Op(2, "read"), "operation already pending (processes are sequential)"),
        (fresh, Op(2, "write", b"x"), "p2 is not the writer"),
        (fresh, Op(WRITER, "write", None), "cannot write the reserved initial value"),
        (fresh, Op(2, "foo", b"x"), "unknown op kind 'foo'"),
        (fresh, Op(WRITER, "foo"), "unknown op kind 'foo'"),
    ]
    for state, op, text in refused:
        with pytest.raises(ProtocolError) as err:
            algo.begin(state, op)
        assert str(err.value) == text, op
    with pytest.raises(ProtocolError, match="unknown op kind 'foo'"):
        explore(name, 3, 1, [Op(2, "foo", b"x")])


SCENARIO_NAMES = [p.name for p in sorted(SCENARIOS.glob("*.json"))]


def engine_calls(monkeypatch, cfg) -> list:
    """(method name, arguments, result) of every call the engine makes of
    `begin` and each message class's handler, over runs of `cfg` at seeds
    0-3.  The recorders sit on the instance, so a handler's nested call of
    another (the modified STATE through the WRITE handler) is recorded too."""
    calls = []

    def recording(name, handler):
        def recorded(*args):
            out = handler(*args)
            calls.append((name, args, out))
            return out

        return recorded

    def recording_algorithm(*args):
        algo = make_algorithm(*args)
        for name in ("begin", *algo.HANDLERS.values()):
            setattr(algo, name, recording(name, getattr(algo, name)))
        return algo

    monkeypatch.setattr(regsim.engine, "make_algorithm", recording_algorithm)
    for seed in range(4):
        run(cfg, seed=seed)
    return calls


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_handler_returns_a_hashable_state_value(name, monkeypatch):
    # Replica states are values: every state init, begin, a class handler or
    # relabel returns is a plain tuple of its layout's length, not a tuple
    # subclass such as the layout's NamedTuple, whose build costs several
    # times as much on every delivery; its pending record is a plain tuple
    # of that layout's length or None.  Every state hashes, so it can key a
    # memo as it is, and init() builds equal states every time.
    cfg = load_scenario(SCENARIOS / name)
    cls, pending_cls = LAYOUT[cfg.algorithm]
    algo = make_algorithm(cfg.algorithm, cfg.n, cfg.t)
    # None is a class handler's no-op.
    returned = [out[0] for _, _, out in engine_calls(monkeypatch, cfg) if out is not None]
    assert returned
    reverse = (0, WRITER, *range(cfg.n, 1, -1))  # p2..pn in reverse order
    returned += [algo.relabel(state, reverse) for state in returned]
    for state in returned + [algo.init()]:
        assert type(state) is tuple and len(state) == len(cls._fields), state
        pending = state[-1]
        if pending is not None:
            assert type(pending) is tuple and len(pending) == len(pending_cls._fields), state
        hash(state)
    first = algo.init()
    assert hash(first) == hash(algo.init())
    assert all(algo.init() == first for _ in range(3))


def triple(out) -> bool:
    return type(out) is tuple and len(out) == 3


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_handler_result_is_none_or_a_plain_triple(name, monkeypatch):
    # A handler result is a plain (state, outgoing, completion) tuple, not a
    # tuple subclass such as a NamedTuple, whose build costs several times
    # as much on every delivery.  A class handler may return None; begin
    # and deliver never do.
    cfg = load_scenario(SCENARIOS / name)
    algo = make_algorithm(cfg.algorithm, cfg.n, cfg.t)
    calls = engine_calls(monkeypatch, cfg)
    assert calls
    for method, args, out in calls:
        if method == "begin":
            assert triple(out), (method, args, out)
        else:
            assert out is None or triple(out), (method, args, out)
            assert triple(algo.deliver(*args)), (method, args)


def relabelled(algo, out, perm) -> tuple:
    """A handler output with every process id in it renamed by `perm`: its
    state's, via the protocol's relabel, and its destinations."""
    state, outgoing, completion = out
    outgoing = tuple((dest if dest is None else perm[dest], msg) for dest, msg in outgoing)
    return algo.relabel(state, perm), outgoing, completion


@pytest.mark.parametrize("name", ["teff", "teff-modified", "abd"])
@pytest.mark.parametrize("n", [3, 5])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_relabel_commutes_with_the_handlers(name, n, data):
    # The explorer's symmetry reduction rests on this: for every permutation
    # of the processes that fixes the writer, stepping a relabelled state,
    # with the sender or invoker renamed, gives the step's own output
    # relabelled.  The states come from a random run of n processes without
    # crashes, each step checked before it is taken.
    algo = make_algorithm(name, n, (n - 1) // 2)
    perms = [(0, WRITER, *image) for image in permutations(range(2, n + 1))]
    states = dict.fromkeys(range(1, n + 1), algo.init())
    in_flight = []  # (receiver, message, sender)
    writes = 0
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        idle = [p for p, state in states.items() if not algo.has_pending(state)]
        if not idle and not in_flight:
            break
        choice = data.draw(st.integers(0, len(idle) + len(in_flight) - 1), label="step")
        if choice < len(idle):
            p = idle[choice]
            if p == WRITER and data.draw(st.booleans(), label="write"):
                writes += 1
                kind, value = "write", b"v%d" % writes
            else:
                kind, value = "read", None
            state = states[p]
            out = algo.begin(state, Op(p, kind, value))
            for perm in perms:
                image = algo.begin(algo.relabel(state, perm), Op(perm[p], kind, value))
                assert image == relabelled(algo, out, perm), (state, perm, kind)
        else:
            p, msg, sender = in_flight.pop(choice - len(idle))
            state = states[p]
            noop = algo.is_noop_delivery(state, msg, sender)
            out = algo.deliver(state, msg, sender)
            for perm in perms:
                image = algo.relabel(state, perm)
                assert algo.is_noop_delivery(image, msg, perm[sender]) == noop
                stepped = algo.deliver(image, msg, perm[sender])
                assert stepped == relabelled(algo, out, perm), (state, perm, msg, sender)
        state, outgoing, _ = out
        assert algo.relabel(state, tuple(range(n + 1))) == state
        for perm in perms:
            assert algo.has_pending(algo.relabel(state, perm)) == algo.has_pending(state)
        states[p] = state
        for dest, msg in outgoing:
            in_flight += [(q, msg, p) for q in (states if dest is None else (dest,))]
