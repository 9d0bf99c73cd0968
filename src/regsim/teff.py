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
`Op`'s process.  Every field of a replica state holds an immutable value
(ints, bytes, frozensets, frozen records, and a `know` dict that handlers
replace rather than change), so `clone` is a shallow copy.  Handlers are
pure: they never mutate the input state, and identical (state, input) pairs
produce identical outputs.  A handler that changes nothing (a READ only
answers) returns its input state itself, uncopied.  Process 1 is the writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PendingWrite:
    wsn: int


@dataclass(frozen=True)
class PendingRead:
    rsn: int
    responders: frozenset[int]
    maxwsn: int


@dataclass
class ReplicaState:
    reg: bytes | None = None
    wsn: int = 0
    rsn: int = 0
    swsn: int = 0
    res: bytes | None = None
    # wsns this process already broadcast (the "not yet done" gate); the
    # writer's own initiating broadcast counts.
    forwarded: frozenset[int] = frozenset()
    # wsn -> distinct processes known to hold that write; entries at or
    # below swsn are dropped, their predicates can never fire again.  Clones
    # share the dict, so handlers bind a new one instead of changing it.
    know: dict[int, frozenset[int]] = field(default_factory=dict)
    pending_write: PendingWrite | None = None
    pending_read: PendingRead | None = None

    def clone(self) -> "ReplicaState":
        new = object.__new__(ReplicaState)
        new.__dict__.update(self.__dict__)
        return new

    def freeze(self) -> tuple:
        """Canonical hashable snapshot (used by the exhaustive explorer)."""
        return (
            self.reg,
            self.wsn,
            self.rsn,
            self.swsn,
            self.res,
            self.forwarded,
            tuple(sorted(self.know.items())),
            self.pending_write,
            self.pending_read,
        )


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
        if op.kind == "write":
            if op.process != WRITER:
                raise ProtocolError(f"p{op.process} is not the writer")
            if op.value is None:
                raise ProtocolError("cannot write the reserved initial value")
            st = state.clone()
            st.wsn += 1
            st.reg = op.value
            st.forwarded = st.forwarded | {st.wsn}  # the initiating broadcast is its forward
            st.pending_write = PendingWrite(st.wsn)
            return HandlerOutput(st, ((BROADCAST, Write(st.wsn, op.value)),))
        st = state.clone()
        st.rsn += 1
        st.pending_read = PendingRead(st.rsn, frozenset(), 0)
        return HandlerOutput(st, ((BROADCAST, Read(st.rsn)),))

    def deliver(self, state: ReplicaState, msg: Message, sender: int) -> HandlerOutput:
        if isinstance(msg, Write):
            return self.on_write(state, msg, sender)
        if isinstance(msg, Read):
            return self.on_read(state, msg.rsn, sender)
        if isinstance(msg, State):
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
        if isinstance(msg, Write):
            return msg.wsn in state.forwarded and msg.wsn <= state.swsn
        if isinstance(msg, State):
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
        st = state.clone()
        wsn = msg.wsn
        outgoing = ((BROADCAST, msg),) if self._absorb_write(st, wsn, msg.value, sender) else ()
        completion = _write_done(st, wsn) or self._read_done(st)
        return HandlerOutput(st, outgoing, completion)

    def on_read(self, state: ReplicaState, rsn: int, sender: int) -> HandlerOutput:
        if self.variant == MODIFIED:
            reply = State(rsn, state.wsn, state.reg, carries_value=True)
        else:
            reply = State(rsn, state.wsn)
        return HandlerOutput(state, ((sender, reply),))

    def on_state(
        self,
        state: ReplicaState,
        rsn: int,
        wsn: int,
        value: bytes | None,
        sender: int,
    ) -> HandlerOutput:
        st = state.clone()
        outgoing: tuple[tuple[int | None, Message], ...] = ()
        # The modified variant treats the reply like a WRITE first, its
        # sender counted as a holder.  wsn 0 is the initial value: no
        # WRITE(0) exists, so there is nothing to forward or count for it.
        if self.variant == MODIFIED and wsn >= 1 and self._absorb_write(st, wsn, value, sender):
            outgoing = ((BROADCAST, Write(wsn, value)),)
        pr = st.pending_read
        if pr is not None and pr.rsn == rsn:
            st.pending_read = PendingRead(
                pr.rsn, pr.responders | {sender}, max(pr.maxwsn, wsn)
            )
        completion = _write_done(st, wsn) or self._read_done(st)
        return HandlerOutput(st, outgoing, completion)

    def check_read_complete(self, state: ReplicaState) -> tuple[bytes | None, int] | None:
        """Read predicate: a quorum of replies and swsn caught up with the
        largest advertised wsn.  Returns (value, seqno) without mutating."""
        pr = state.pending_read
        if pr is None:
            raise ProtocolError("no read pending")
        if len(pr.responders) >= self.quorum and state.swsn >= pr.maxwsn:
            return (state.res, state.swsn)
        return None

    def _absorb_write(
        self,
        st: ReplicaState,
        wsn: int,
        value: bytes | None,
        sender: int,
    ) -> bool:
        """Lines shared by WRITE receipt (both variants) and STATE receipt
        (modified variant): adopt newer value, count knowledge, advance swsn
        on quorum.  True when this is the first copy of the write, which the
        caller forwards."""
        if wsn > st.wsn:
            st.reg = value
            st.wsn = wsn
        forward = wsn not in st.forwarded
        if forward:
            # Fires even when wsn < st.wsn: the first copy seen for this wsn is
            # still re-broadcast, acknowledging the writer.
            st.forwarded = st.forwarded | {wsn}
        if wsn > st.swsn:
            holders = st.know.get(wsn, frozenset())
            if sender not in holders:
                holders = holders | {sender}
                st.know = {**st.know, wsn: holders}
            if len(holders) >= self.quorum:
                st.swsn = wsn
                st.res = value
                st.know = {s: p for s, p in st.know.items() if s > wsn}
        return forward

    def _read_done(self, st: ReplicaState) -> OpResult | None:
        if st.pending_read is None:
            return None
        done = self.check_read_complete(st)
        if done is None:
            return None
        st.pending_read = None
        return OpResult("read", done[0], done[1])


def _write_done(st: ReplicaState, wsn: int) -> OpResult | None:
    pw = st.pending_write
    if pw is None or pw.wsn != wsn:
        return None
    if wsn <= st.swsn:  # the quorum update for this wsn fired
        st.pending_write = None
        return OpResult("write", None, wsn)
    return None
