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
(the quorum n - t and the variant) and the handlers.  A replica state holds
only the protocol's variables, so every process starts from the same state
and no handler takes a process id; the writer check reads the invoked
`Op`'s process.  A replica state is an immutable, hashable NamedTuple of
immutable fields (ints, bytes, frozensets, the pending read's NamedTuple and
`know` as an ascending tuple of (wsn, holders) pairs), so it is its own
snapshot: the explorer keys its memos by it.  Handlers are pure: identical
(state, input) pairs produce identical outputs.  Each builds its new state
in one positional `tuple.__new__` call, as it does its `HandlerOutput`; a
handler that changes nothing (a READ only answers) returns its input state
itself.  Process 1 is the writer.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .messages import (
    BROADCAST,
    WRITER,
    HandlerOutput,
    Message,
    Op,
    OpResult,
    ProtocolError,
    Read,
    State,
    Write,
    check_model,
)

BASE = "base"
MODIFIED = "modified"

# Builds a NamedTuple from its fields without its Python-level __new__.
_new = tuple.__new__


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

    # A state is its own copy and its own snapshot.  Nothing in regsim calls
    # these; perfbench/tracer.py still wraps them by name.
    def clone(self) -> "ReplicaState":
        return self

    def freeze(self) -> "ReplicaState":
        return self


class TeffAlgo:
    def __init__(self, n: int, t: int, variant: str):
        check_model(n, t)
        if variant not in (BASE, MODIFIED):
            raise ProtocolError(f"unknown variant {variant!r}")
        self.quorum = n - t
        self.variant = variant

    @staticmethod
    def init() -> ReplicaState:
        return ReplicaState()

    def begin(self, state: ReplicaState, op: Op) -> HandlerOutput:
        """Invoke `op` at its process, whose state is `state`."""
        if self.has_pending(state):
            raise ProtocolError("operation already pending (processes are sequential)")
        reg, wsn, rsn, swsn, res, forwarded, know, _, _ = state
        if op.kind == "write":
            if op.process != WRITER:
                raise ProtocolError(f"p{op.process} is not the writer")
            if op.value is None:
                raise ProtocolError("cannot write the reserved initial value")
            wsn += 1
            forwarded = forwarded | {wsn}  # the initiating broadcast is its forward
            st = _new(ReplicaState, (op.value, wsn, rsn, swsn, res, forwarded, know, wsn, None))
            return _new(HandlerOutput, (st, ((BROADCAST, Write(wsn, op.value)),), None))
        rsn += 1
        pr = _new(PendingRead, (rsn, frozenset(), 0))
        st = _new(ReplicaState, (reg, wsn, rsn, swsn, res, forwarded, know, None, pr))
        return _new(HandlerOutput, (st, ((BROADCAST, Read(rsn)),), None))

    def deliver(self, state: ReplicaState, msg: Message, sender: int) -> HandlerOutput:
        kind = type(msg)
        if kind is Write:
            return self.on_write(state, msg, sender)
        if kind is Read:
            return self.on_read(state, msg.rsn, sender)
        if kind is State:
            return self.on_state(state, msg.rsn, msg.wsn, msg.value, sender)
        raise ProtocolError(f"unexpected message for register protocol: {msg!r}")

    @staticmethod
    def has_pending(state: ReplicaState) -> bool:
        return state.pending_write is not None or state.pending_read is not None

    def is_noop_delivery(self, state: ReplicaState, msg: Message, sender: int) -> bool:
        """True when delivering `msg` can never change `state`, emit anything,
        or complete an operation — now or after any future transitions.  The
        conditions below are monotone (forwarded/swsn/rsn only grow), so the
        explorer may discard such messages.  Conservative: False when unsure."""
        kind = type(msg)
        if kind is Write:
            return msg.wsn in state.forwarded and msg.wsn <= state.swsn
        if kind is State:
            pr = state.pending_read
            stale = pr is None or pr.rsn != msg.rsn
            if not stale:
                return False
            if self.variant == BASE or msg.wsn == 0:
                return True
            return msg.wsn in state.forwarded and msg.wsn <= state.swsn
        return False

    def on_write(self, state: ReplicaState, msg: Write, sender: int) -> HandlerOutput:
        """The first copy of `msg` is relayed as is: every relay of one write
        sends the writer's own message object."""
        wsn = msg.wsn
        fields, forward = self._absorb_write(state, wsn, msg.value, sender)
        outgoing = ((BROADCAST, msg),) if forward else ()
        return self._settle(state, fields, state.pending_read, wsn, outgoing)

    def on_read(self, state: ReplicaState, rsn: int, sender: int) -> HandlerOutput:
        if self.variant == MODIFIED:
            reply = State(rsn, state.wsn, state.reg, carries_value=True)
        else:
            reply = State(rsn, state.wsn)
        return _new(HandlerOutput, (state, ((sender, reply),), None))

    def on_state(
        self, state: ReplicaState, rsn: int, wsn: int, value: bytes | None, sender: int
    ) -> HandlerOutput:
        # The modified variant treats the reply like a WRITE first, its
        # sender counted as a holder.  wsn 0 is the initial value: no
        # WRITE(0) exists, so there is nothing to forward or count for it.
        if self.variant == MODIFIED and wsn >= 1:
            fields, forward = self._absorb_write(state, wsn, value, sender)
            outgoing = ((BROADCAST, Write(wsn, value)),) if forward else ()
        else:
            reg, cur, _, swsn, res, forwarded, know, _, _ = state
            fields, outgoing = (reg, cur, swsn, res, forwarded, know), ()
        pr = state.pending_read
        if pr is not None and pr.rsn == rsn:
            pr = _new(PendingRead, (rsn, pr.responders | {sender}, max(pr.maxwsn, wsn)))
        return self._settle(state, fields, pr, wsn, outgoing)

    def check_read_complete(self, state: ReplicaState) -> tuple[bytes | None, int] | None:
        """Read predicate: a quorum of replies and swsn caught up with the
        largest advertised wsn.  Returns (value, seqno)."""
        pr = state.pending_read
        if pr is None:
            raise ProtocolError("no read pending")
        if len(pr.responders) >= self.quorum and state.swsn >= pr.maxwsn:
            return (state.res, state.swsn)
        return None

    def _absorb_write(
        self, state: ReplicaState, wsn: int, value: bytes | None, sender: int
    ) -> tuple[tuple, bool]:
        """Lines shared by WRITE receipt (both variants) and STATE receipt
        (modified variant): adopt newer value, count knowledge, advance swsn
        on quorum.  Returns the new (reg, wsn, swsn, res, forwarded, know),
        and True when this is the first copy of the write, which the caller
        forwards."""
        reg, cur, _, swsn, res, forwarded, know, _, _ = state
        if wsn > cur:
            reg, cur = value, wsn
        forward = wsn not in forwarded
        if forward:
            # Fires even when wsn < cur: the first copy seen for this wsn is
            # still re-broadcast, acknowledging the writer.
            forwarded = forwarded | {wsn}
        if wsn > swsn:
            i = bisect_left(know, (wsn,))  # wsn's entry, or where it goes
            held = i < len(know) and know[i][0] == wsn
            holders = know[i][1] if held else frozenset()
            if sender not in holders:
                holders = holders | {sender}
                know = (*know[:i], (wsn, holders), *know[i + held :])
            if len(holders) >= self.quorum:
                swsn, res, know = wsn, value, know[i + 1 :]
        return (reg, cur, swsn, res, forwarded, know), forward

    def _settle(
        self, state: ReplicaState, fields, pr: PendingRead | None, wsn: int, outgoing: tuple
    ) -> HandlerOutput:
        """The handler output of a WRITE or STATE step: `fields` are the new
        (reg, wsn, swsn, res, forwarded, know), `pr` the new pending read,
        `wsn` the received write's; completes the pending write once its
        quorum update fired, or the pending read once its predicate holds."""
        reg, cur, swsn, res, forwarded, know = fields
        pw = state.pending_write
        if pw == wsn and wsn <= swsn:
            st = _new(ReplicaState, (reg, cur, state.rsn, swsn, res, forwarded, know, None, pr))
            return _new(HandlerOutput, (st, outgoing, OpResult("write", None, wsn)))
        st = _new(ReplicaState, (reg, cur, state.rsn, swsn, res, forwarded, know, pw, pr))
        if pr is not None:
            done = self.check_read_complete(st)
            if done is not None:
                # The completing step: the read is no longer pending.
                st = _new(ReplicaState, (*st[:8], None))
                return _new(HandlerOutput, (st, outgoing, OpResult("read", *done)))
        return _new(HandlerOutput, (st, outgoing, None))
