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
              received STATE is first pushed through the WRITE handler, so a
              reader can re-broadcast a value it learned from a reply.  This
              is what keeps reads bounded when the writer dies mid-write and
              no surviving process holds the value.

Every field of a replica state holds an immutable value (ints, bytes,
frozensets, frozen records, and a `know` dict that handlers replace rather
than change), so `clone` is a shallow copy.  Handlers are pure: they never
mutate the input state, and identical (state, input) pairs produce identical
outputs.  Process 1 is the writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import (
    BROADCAST,
    WRITER,
    HandlerOutput,
    Message,
    OpResult,
    ProtocolError,
    Read,
    State,
    Write,
    check_replica,
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
    me: int
    n: int
    t: int
    variant: str
    quorum_counts_state: bool = True
    writer_local_read: bool = False
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

    @property
    def quorum(self) -> int:
        return self.n - self.t

    @property
    def is_writer(self) -> bool:
        return self.me == WRITER

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


def init(
    me: int,
    n: int,
    t: int,
    variant: str = BASE,
    initial: bytes | None = None,
    *,
    quorum_counts_state: bool = True,
    writer_local_read: bool = False,
) -> ReplicaState:
    check_replica(me, n, t)
    if variant not in (BASE, MODIFIED):
        raise ProtocolError(f"unknown variant {variant!r}")
    return ReplicaState(
        me=me,
        n=n,
        t=t,
        variant=variant,
        quorum_counts_state=quorum_counts_state,
        writer_local_read=writer_local_read,
        reg=initial,
        res=initial,
    )


def begin_write(state: ReplicaState, value: bytes) -> HandlerOutput:
    if not state.is_writer:
        raise ProtocolError(f"p{state.me} is not the writer")
    if state.pending_write is not None or state.pending_read is not None:
        raise ProtocolError("operation already pending (processes are sequential)")
    if value is None:
        raise ProtocolError("cannot write the reserved initial value")
    st = state.clone()
    st.wsn += 1
    st.reg = value
    st.forwarded = st.forwarded | {st.wsn}  # the initiating broadcast is its forward
    st.pending_write = PendingWrite(st.wsn)
    return HandlerOutput(st, ((BROADCAST, Write(st.wsn, value)),))


def begin_read(state: ReplicaState) -> HandlerOutput:
    if state.pending_write is not None or state.pending_read is not None:
        raise ProtocolError("operation already pending (processes are sequential)")
    if state.writer_local_read and state.is_writer:
        # Optional shortcut: the writer serves reads from its own copy.
        return HandlerOutput(
            state.clone(), completion=OpResult("read", state.reg, state.wsn)
        )
    st = state.clone()
    st.rsn += 1
    st.pending_read = PendingRead(st.rsn, frozenset(), 0)
    return HandlerOutput(st, ((BROADCAST, Read(st.rsn)),))


def on_write(
    state: ReplicaState, wsn: int, value: bytes | None, sender: int
) -> HandlerOutput:
    st = state.clone()
    outgoing = _absorb_write(st, wsn, value, sender)
    completion = _write_done(st, wsn) or _read_done(st)
    return HandlerOutput(st, outgoing, completion)


def on_read(state: ReplicaState, rsn: int, sender: int) -> HandlerOutput:
    if state.variant == MODIFIED:
        reply = State(rsn, state.wsn, state.reg, carries_value=True)
    else:
        reply = State(rsn, state.wsn)
    return HandlerOutput(state.clone(), ((sender, reply),))


def on_state(
    state: ReplicaState,
    rsn: int,
    wsn: int,
    value: bytes | None,
    sender: int,
) -> HandlerOutput:
    st = state.clone()
    outgoing: tuple[tuple[int | None, Message], ...] = ()
    if st.variant == MODIFIED and wsn >= 1:
        # The modified variant treats the reply like a WRITE first.  wsn 0 is
        # the initial value: no WRITE(0) exists, so there is nothing to
        # forward or count for it.
        outgoing = _absorb_write(
            st, wsn, value, sender, count=st.quorum_counts_state
        )
    pr = st.pending_read
    if pr is not None and pr.rsn == rsn:
        st.pending_read = PendingRead(
            pr.rsn, pr.responders | {sender}, max(pr.maxwsn, wsn)
        )
    completion = _write_done(st, wsn) or _read_done(st)
    return HandlerOutput(st, outgoing, completion)


def check_read_complete(state: ReplicaState) -> tuple[bytes | None, int] | None:
    """Read predicate: a quorum of replies and swsn caught up with the
    largest advertised wsn.  Returns (value, seqno) without mutating."""
    pr = state.pending_read
    if pr is None:
        raise ProtocolError("no read pending")
    if len(pr.responders) >= state.quorum and state.swsn >= pr.maxwsn:
        return (state.res, state.swsn)
    return None


def _absorb_write(
    st: ReplicaState,
    wsn: int,
    value: bytes | None,
    sender: int,
    count: bool = True,
) -> tuple[tuple[int | None, Message], ...]:
    """Lines shared by WRITE receipt (both variants) and STATE receipt
    (modified variant): adopt newer value, forward once, count knowledge,
    advance swsn on quorum."""
    outgoing: tuple[tuple[int | None, Message], ...] = ()
    if wsn > st.wsn:
        st.reg = value
        st.wsn = wsn
    if wsn not in st.forwarded:
        # Fires even when wsn < st.wsn: the first copy seen for this wsn is
        # still re-broadcast, acknowledging the writer.
        st.forwarded = st.forwarded | {wsn}
        outgoing = ((BROADCAST, Write(wsn, value)),)
    if wsn > st.swsn:
        holders = st.know.get(wsn, frozenset())
        if count and sender not in holders:
            holders = holders | {sender}
            st.know = {**st.know, wsn: holders}
        if len(holders) >= st.quorum:
            st.swsn = wsn
            st.res = value
            st.know = {s: p for s, p in st.know.items() if s > wsn}
    return outgoing


def _write_done(st: ReplicaState, wsn: int) -> OpResult | None:
    pw = st.pending_write
    if pw is None or pw.wsn != wsn:
        return None
    if wsn <= st.swsn:  # the quorum update for this wsn fired
        st.pending_write = None
        return OpResult("write", None, wsn)
    return None


def _read_done(st: ReplicaState) -> OpResult | None:
    if st.pending_read is None:
        return None
    done = check_read_complete(st)
    if done is None:
        return None
    st.pending_read = None
    return OpResult("read", done[0], done[1])
