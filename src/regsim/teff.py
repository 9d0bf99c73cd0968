"""Single-writer register with one-round-trip reads in quiet periods.

Every process keeps a local copy of the register (`reg`, stamped `wsn`) plus
a synchronization sequence number `swsn`: the newest write this process knows
to be held by at least a quorum (n - t) of processes.  A write broadcasts
WRITE(wsn, v); every process re-broadcasts the first WRITE it sees for a
given wsn, which both acknowledges the writer and spreads knowledge.  A read
broadcasts READ(rsn) and returns once a quorum of STATE replies arrived and
its own swsn has caught up with the largest wsn those replies advertised.

Two variants:

* base      - STATE(rsn, wsn): replies carry only the sequence number.
* modified  - STATE(rsn, wsn, reg): replies carry the value too, and a
              received STATE is first pushed through the WRITE handler, its
              sender counted as a holder of that write, so a reader can
              re-broadcast a value it learned from a reply.  This is what
              keeps reads bounded when the writer dies mid-write and no
              surviving process holds the value.

`TeffAlgo(n, t, variant)` is the protocol: it holds the system constants
(the quorum n - t and the variant) and the handlers, one per message class:
`on_write`, `on_read` and `on_state`.  A handler's None (algos.py) holds
forever, as what it tests only grows: a WRITE is a no-op once relayed and at
or below swsn, a STATE once its read is over and the write its pair may
carry (modified variant, wsn >= 1) is such a WRITE, through which `on_state`
passes it.  A replica state holds only the protocol's variables, so every
process starts from the same state and no handler takes a process id; the
writer check reads the invoked `Op`'s process.  A replica state is a plain
tuple laid out as `ReplicaState` (its pending read as `PendingRead`) of
immutable fields (ints, bytes, frozensets and `know` as an ascending tuple
of (wsn, holders) pairs), so it is its own snapshot: the explorer keys its
memos by it.  Handlers are pure: identical (state, input) pairs produce
identical outputs.  Each returns a plain (state, outgoing, completion)
tuple, builds its new state as a tuple literal and each message with one
positional `tuple.__new__` call; a handler that changes no state (a READ
only answers) returns its input state itself.  Process 1 is the writer.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .messages import (
    BROADCAST,
    Op,
    OpResult,
    ProtocolError,
    Read,
    State,
    Write,
    check_invoke,
    check_model,
    deliver,
    is_noop_delivery,
    itself,
)

BASE = "base"
MODIFIED = "modified"

# Builds a message from its fields without its Python-level __new__.
_new = tuple.__new__


# Layouts only: handlers build and read both as plain tuples, by position.
class PendingRead(NamedTuple):
    rsn: int
    responders: frozenset[int]
    maxwsn: int


class ReplicaState(NamedTuple):
    reg: bytes | None = None
    wsn: int = 0
    rsn: int = 0
    swsn: int = 0
    res: bytes | None = None
    # wsns this process already broadcast (the "not yet done" gate); the
    # writer's own initiating broadcast counts.
    forwarded: frozenset[int] = frozenset()
    # (wsn, distinct processes known to hold that write) pairs, ascending
    # by wsn; entries at or below swsn are dropped, their predicates can
    # never fire again.
    know: tuple[tuple[int, frozenset[int]], ...] = ()
    pending_write: int | None = None  # the pending write's wsn
    pending_read: PendingRead | None = None

    clone = freeze = itself


class TeffAlgo:
    # Each message class's handler, by name, so that a subclass's override
    # is the one called; None from a handler is a no-op (algos.py).
    HANDLERS = {Write: "on_write", Read: "on_read", State: "on_state"}
    check_invoke, deliver, is_noop_delivery = check_invoke, deliver, is_noop_delivery
    INITIAL = tuple(ReplicaState())  # every process's first state

    def __init__(self, n: int, t: int, variant: str):
        check_model(n, t)
        if variant not in (BASE, MODIFIED):
            raise ProtocolError(f"unknown variant {variant!r}")
        self.quorum = n - t
        self.variant = variant

    def init(self) -> tuple:
        return self.INITIAL

    def begin(self, state: tuple, op: Op) -> tuple:
        """Invoke `op` at its process, whose state is `state`."""
        self.check_invoke(state, op)
        reg, wsn, rsn, swsn, res, forwarded, know, _, _ = state
        if op.kind == "write":
            wsn += 1
            forwarded = forwarded | {wsn}  # the initiating broadcast is its forward
            st = (op.value, wsn, rsn, swsn, res, forwarded, know, wsn, None)
            return st, ((BROADCAST, _new(Write, (wsn, op.value))),), None
        rsn += 1
        st = (reg, wsn, rsn, swsn, res, forwarded, know, None, (rsn, frozenset(), 0))
        return st, ((BROADCAST, _new(Read, (rsn,))),), None

    @staticmethod
    def has_pending(state: tuple) -> bool:
        return state[7] is not None or state[8] is not None  # pending_write, pending_read

    @staticmethod
    def relabel(state: tuple, perm) -> tuple:
        """`state` with each process id q it holds (the `know` holders and
        the pending read's responders) renamed to perm[q]."""
        reg, wsn, rsn, swsn, res, forwarded, know, pw, pr = state
        know = tuple((w, frozenset(perm[q] for q in holders)) for w, holders in know)
        if pr is not None:
            pr = (pr[0], frozenset(perm[q] for q in pr[1]), pr[2])
        return reg, wsn, rsn, swsn, res, forwarded, know, pw, pr

    def on_write(self, state: tuple, msg: Write, sender: int) -> tuple | None:
        """WRITE receipt: adopt a newer value, relay the first copy of each
        write, count its sender as a holder and advance swsn on a quorum.
        The relay is `msg` itself, so every relay of one write sends the
        writer's own message object."""
        wsn, value = msg
        reg, cur, rsn, swsn, res, forwarded, know, pw, pr = state
        if wsn <= swsn and wsn in forwarded:
            return None
        if wsn > cur:
            reg, cur = value, wsn
        if wsn in forwarded:
            outgoing = ()
        else:
            # Fires even when wsn < cur: the first copy seen for this wsn is
            # still re-broadcast, acknowledging the writer.
            forwarded = forwarded | {wsn}
            outgoing = ((BROADCAST, msg),)
        if wsn > swsn:
            i = bisect_left(know, (wsn,))  # wsn's entry, or where it goes
            held = i < len(know) and know[i][0] == wsn
            holders = know[i][1] if held else frozenset()
            if sender not in holders:
                holders = holders | {sender}
                know = know[:i] + ((wsn, holders),) + know[i + held :]
            if len(holders) >= self.quorum:
                swsn, res, know = wsn, value, know[i + 1 :]
                if pw == wsn:  # the pending write's quorum update fired
                    st = (reg, cur, rsn, swsn, res, forwarded, know, None, pr)
                    return st, outgoing, OpResult("write", None, wsn)
        st = (reg, cur, rsn, swsn, res, forwarded, know, pw, pr)
        if pr is None:
            return st, outgoing, None
        return self._read_step(st, outgoing)

    def on_read(self, state: tuple, msg: Read, sender: int) -> tuple:
        """READ receipt: reply with this process's wsn (and, in the modified
        variant, its value); the state is unchanged."""
        if self.variant == MODIFIED:
            reply = _new(State, (msg.rsn, state[1], state[0], True))  # wsn, reg
        else:
            reply = _new(State, (msg.rsn, state[1], None, False))
        return state, ((sender, reply),), None

    def on_state(self, state: tuple, msg: State, sender: int) -> tuple | None:
        """STATE receipt: a reply to the pending read counts its sender and
        raises the largest advertised wsn.  The modified variant first
        treats every reply like a WRITE of its pair by its sender.  wsn 0 is
        the initial value: no WRITE(0) exists, so there is nothing to relay
        or count for it."""
        asked, wsn, value, _ = msg
        absorb = self.variant == MODIFIED and wsn >= 1
        reg, cur, rsn, swsn, res, forwarded, know, pw, pr = state
        if pr is None or pr[0] != asked:  # a reply to a finished read
            return self.on_write(state, _new(Write, (wsn, value)), sender) if absorb else None
        pr = (asked, pr[1] | {sender}, max(pr[2], wsn))
        state = (reg, cur, rsn, swsn, res, forwarded, know, pw, pr)
        if absorb:
            out = self.on_write(state, _new(Write, (wsn, value)), sender)
            if out is not None:
                return out
        return self._read_step(state, ())

    def check_read_complete(self, state: tuple) -> tuple[bytes | None, int] | None:
        """Read predicate: a quorum of replies and swsn caught up with the
        largest advertised wsn.  Returns (value, seqno)."""
        _, _, _, swsn, res, _, _, _, pr = state
        if pr is None:
            raise ProtocolError("no read pending")
        if len(pr[1]) >= self.quorum and swsn >= pr[2]:  # responders, maxwsn
            return (res, swsn)
        return None

    def _read_step(self, state: tuple, outgoing: tuple) -> tuple:
        """The output of a step that leaves a read pending in `state`:
        completes the read once its predicate holds."""
        done = self.check_read_complete(state)
        if done is None:
            return state, outgoing, None
        st = (*state[:8], None)  # the read is no longer pending
        return st, outgoing, OpResult("read", *done)
