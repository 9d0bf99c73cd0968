"""Classic two-phase quorum register (single-writer form), used as the
correctness cross-check and efficiency baseline.

A write is one broadcast/ack round trip.  A read queries all processes,
takes the pair with the largest sequence number from a quorum of replies,
unconditionally writes that pair back, and returns after a quorum of acks.
Every phase gets a fresh per-process phase id (opsn) so stale replies are
discarded.  `AbdAlgo(n, t)` holds the quorum n - t and the handlers; a
replica state holds only the protocol's variables.  Handlers are pure: they
never mutate the input state, and a handler that changes nothing (a query,
an update no newer than the replica's pair) returns its input state itself,
uncopied.  Process 1 is the writer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .messages import (
    BROADCAST,
    WRITER,
    AbdAck,
    AbdQuery,
    AbdReport,
    AbdUpdate,
    HandlerOutput,
    Message,
    Op,
    OpResult,
    ProtocolError,
    check_model,
)

PHASE_WRITE = "write"
PHASE_QUERY = "query"
PHASE_WRITE_BACK = "write_back"


@dataclass(frozen=True)
class AbdPending:
    phase: str
    opsn: int
    responders: frozenset[int]
    best_wsn: int
    best_value: bytes | None


@dataclass
class AbdReplicaState:
    reg: bytes | None = None
    wsn: int = 0
    opsn: int = 0
    pending: AbdPending | None = None

    def clone(self) -> "AbdReplicaState":
        new = object.__new__(AbdReplicaState)
        new.__dict__.update(self.__dict__)
        return new

    def freeze(self) -> tuple:
        return (self.reg, self.wsn, self.opsn, self.pending)


class AbdAlgo:
    def __init__(self, n: int, t: int):
        check_model(n, t)
        self.quorum = n - t

    @staticmethod
    def init() -> AbdReplicaState:
        return AbdReplicaState()

    def begin(self, state: AbdReplicaState, op: Op) -> HandlerOutput:
        """Invoke `op` at its process, whose state is `state`."""
        if op.kind == "write" and op.process != WRITER:
            raise ProtocolError(f"p{op.process} is not the writer")
        if state.pending is not None:
            raise ProtocolError("operation already pending (processes are sequential)")
        if op.kind == "write" and op.value is None:
            raise ProtocolError("cannot write the reserved initial value")
        st = state.clone()
        st.opsn += 1
        if op.kind == "read":
            st.pending = AbdPending(PHASE_QUERY, st.opsn, frozenset(), 0, None)
            return HandlerOutput(st, ((BROADCAST, AbdQuery(st.opsn)),))
        st.wsn += 1
        st.reg = op.value
        st.pending = AbdPending(PHASE_WRITE, st.opsn, frozenset(), st.wsn, op.value)
        return HandlerOutput(st, ((BROADCAST, AbdUpdate(st.opsn, st.wsn, op.value)),))

    def deliver(self, state: AbdReplicaState, msg: Message, sender: int) -> HandlerOutput:
        if isinstance(msg, AbdUpdate):
            ack = ((sender, AbdAck(msg.opsn)),)
            if msg.wsn <= state.wsn:
                return HandlerOutput(state, ack)
            st = state.clone()
            st.wsn = msg.wsn
            st.reg = msg.value
            return HandlerOutput(st, ack)
        if isinstance(msg, AbdQuery):
            return HandlerOutput(state, ((sender, AbdReport(msg.opsn, state.wsn, state.reg)),))
        if isinstance(msg, AbdAck):
            return self._client_ack(state.clone(), msg, sender)
        if isinstance(msg, AbdReport):
            return self._client_report(state.clone(), msg, sender)
        raise ProtocolError(f"not an ABD message: {msg!r}")

    @staticmethod
    def has_pending(state: AbdReplicaState) -> bool:
        return state.pending is not None

    @staticmethod
    def is_noop_delivery(state: AbdReplicaState, msg: Message, sender: int) -> bool:
        """Replies to an already-finished phase are discarded forever (phase
        ids never repeat); updates and queries always produce a reply."""
        if isinstance(msg, (AbdAck, AbdReport)):
            return state.pending is None or state.pending.opsn != msg.opsn
        return False

    def _client_ack(self, st: AbdReplicaState, msg: AbdAck, sender: int) -> HandlerOutput:
        pd = st.pending
        if pd is None or pd.opsn != msg.opsn:
            return HandlerOutput(st)  # stale phase, discard
        if pd.phase not in (PHASE_WRITE, PHASE_WRITE_BACK):
            return HandlerOutput(st)
        responders = pd.responders | {sender}
        if len(responders) < self.quorum:
            st.pending = AbdPending(pd.phase, pd.opsn, responders, pd.best_wsn, pd.best_value)
            return HandlerOutput(st)
        st.pending = None
        if pd.phase == PHASE_WRITE:
            return HandlerOutput(st, completion=OpResult("write", None, pd.best_wsn))
        return HandlerOutput(
            st, completion=OpResult("read", pd.best_value, pd.best_wsn)
        )

    def _client_report(
        self, st: AbdReplicaState, msg: AbdReport, sender: int
    ) -> HandlerOutput:
        pd = st.pending
        if pd is None or pd.opsn != msg.opsn or pd.phase != PHASE_QUERY:
            return HandlerOutput(st)
        responders = pd.responders | {sender}
        best_wsn, best_value = pd.best_wsn, pd.best_value
        if msg.wsn > best_wsn:
            best_wsn, best_value = msg.wsn, msg.value
        if len(responders) < self.quorum:
            st.pending = AbdPending(pd.phase, pd.opsn, responders, best_wsn, best_value)
            return HandlerOutput(st)
        # Quorum of reports: write the freshest pair back, even if all replies
        # agree, then wait for acks.
        st.opsn += 1
        st.pending = AbdPending(
            PHASE_WRITE_BACK, st.opsn, frozenset(), best_wsn, best_value
        )
        return HandlerOutput(
            st, ((BROADCAST, AbdUpdate(st.opsn, best_wsn, best_value)),)
        )
