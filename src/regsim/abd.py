"""Classic two-phase quorum register (single-writer form), used as the
correctness cross-check and efficiency baseline.

A write is one broadcast/ack round trip.  A read queries all processes,
takes the pair with the largest sequence number from a quorum of replies,
unconditionally writes that pair back, and returns after a quorum of acks.
Every phase gets a fresh per-process phase id (opsn) so stale replies are
discarded.  `AbdAlgo(n, t)` holds the quorum n - t and the handlers; a
replica state holds only the protocol's variables, as an immutable, hashable
NamedTuple, its pending phase one too.  Handlers are pure and build each new
state, and their `HandlerOutput`, in one positional `tuple.__new__` call; a
handler that changes nothing (a query, an update no newer than the
replica's pair, a reply to a finished phase) returns its input state itself.
Process 1 is the writer.
"""

from __future__ import annotations

from typing import NamedTuple

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

# Builds a NamedTuple from its fields without its Python-level __new__.
_new = tuple.__new__


class AbdPending(NamedTuple):
    phase: str
    opsn: int
    responders: frozenset[int]
    best_wsn: int
    best_value: bytes | None


class AbdReplicaState(NamedTuple):
    reg: bytes | None = None
    wsn: int = 0
    opsn: int = 0
    pending: AbdPending | None = None

    # A state is its own copy and its own snapshot.  Nothing in regsim calls
    # these; perfbench/tracer.py still wraps them by name.
    def clone(self) -> "AbdReplicaState":
        return self

    def freeze(self) -> "AbdReplicaState":
        return self


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
        reg, wsn, opsn, _ = state
        opsn += 1
        if op.kind == "read":
            pd = _new(AbdPending, (PHASE_QUERY, opsn, frozenset(), 0, None))
            st = _new(AbdReplicaState, (reg, wsn, opsn, pd))
            return _new(HandlerOutput, (st, ((BROADCAST, AbdQuery(opsn)),), None))
        wsn += 1
        pd = _new(AbdPending, (PHASE_WRITE, opsn, frozenset(), wsn, op.value))
        st = _new(AbdReplicaState, (op.value, wsn, opsn, pd))
        return _new(HandlerOutput, (st, ((BROADCAST, AbdUpdate(opsn, wsn, op.value)),), None))

    def deliver(self, state: AbdReplicaState, msg: Message, sender: int) -> HandlerOutput:
        kind = type(msg)
        if kind is AbdUpdate:
            if msg.wsn > state.wsn:
                state = _new(AbdReplicaState, (msg.value, msg.wsn, state.opsn, state.pending))
            return _new(HandlerOutput, (state, ((sender, AbdAck(msg.opsn)),), None))
        if kind is AbdQuery:
            reply = AbdReport(msg.opsn, state.wsn, state.reg)
            return _new(HandlerOutput, (state, ((sender, reply),), None))
        if kind is AbdAck:
            return self._client_ack(state, msg, sender)
        if kind is AbdReport:
            return self._client_report(state, msg, sender)
        raise ProtocolError(f"not an ABD message: {msg!r}")

    @staticmethod
    def has_pending(state: AbdReplicaState) -> bool:
        return state.pending is not None

    @staticmethod
    def is_noop_delivery(state: AbdReplicaState, msg: Message, sender: int) -> bool:
        """Replies to an already-finished phase are discarded forever (phase
        ids never repeat); updates and queries always produce a reply."""
        kind = type(msg)
        if kind is AbdAck or kind is AbdReport:
            return state.pending is None or state.pending.opsn != msg.opsn
        return False

    def _client_ack(self, state: AbdReplicaState, msg: AbdAck, sender: int) -> HandlerOutput:
        reg, wsn, opsn, pd = state
        if pd is None or pd.opsn != msg.opsn or pd.phase == PHASE_QUERY:
            return _new(HandlerOutput, (state, (), None))  # stale phase, discard
        phase, _, responders, best_wsn, best_value = pd
        responders = responders | {sender}
        if len(responders) < self.quorum:
            pd = _new(AbdPending, (phase, pd.opsn, responders, best_wsn, best_value))
            return _new(HandlerOutput, (_new(AbdReplicaState, (reg, wsn, opsn, pd)), (), None))
        st = _new(AbdReplicaState, (reg, wsn, opsn, None))
        if phase == PHASE_WRITE:
            return _new(HandlerOutput, (st, (), OpResult("write", None, best_wsn)))
        return _new(HandlerOutput, (st, (), OpResult("read", best_value, best_wsn)))

    def _client_report(
        self, state: AbdReplicaState, msg: AbdReport, sender: int
    ) -> HandlerOutput:
        reg, wsn, opsn, pd = state
        if pd is None or pd.opsn != msg.opsn or pd.phase != PHASE_QUERY:
            return _new(HandlerOutput, (state, (), None))
        responders = pd.responders | {sender}
        best_wsn, best_value = pd.best_wsn, pd.best_value
        if msg.wsn > best_wsn:
            best_wsn, best_value = msg.wsn, msg.value
        if len(responders) < self.quorum:
            pd = _new(AbdPending, (PHASE_QUERY, opsn, responders, best_wsn, best_value))
            return _new(HandlerOutput, (_new(AbdReplicaState, (reg, wsn, opsn, pd)), (), None))
        # Quorum of reports: write the freshest pair back, even if all replies
        # agree, then wait for acks.
        opsn += 1
        pd = _new(AbdPending, (PHASE_WRITE_BACK, opsn, frozenset(), best_wsn, best_value))
        st = _new(AbdReplicaState, (reg, wsn, opsn, pd))
        update = AbdUpdate(opsn, best_wsn, best_value)
        return _new(HandlerOutput, (st, ((BROADCAST, update),), None))
