"""Classic two-phase quorum register (single-writer form), used as the
correctness cross-check and efficiency baseline.

A write is one broadcast/ack round trip.  A read queries all processes,
takes the pair with the largest sequence number from a quorum of replies,
unconditionally writes that pair back, and returns after a quorum of acks.
Every phase gets a fresh per-process phase id (opsn) so stale replies are
discarded.  `AbdAlgo(n, t)` holds the quorum n - t and the handlers, one
per message class: `on_update`, `on_query`, `on_ack` and `on_report`; a
reply to a finished phase is a no-op forever (phase ids never repeat), for
which the handler returns None (algos.py).
A replica state holds only the protocol's variables, as a plain, hashable
tuple laid out as `AbdReplicaState`, its pending phase as `AbdPending`.
Handlers are pure and return a plain (state, outgoing, completion) tuple;
each new state is a tuple literal, each message one positional
`tuple.__new__` call, and a handler that changes no state (a query, an
update no newer than the replica's pair) returns its input state itself.
Process 1 is the writer.
"""

from __future__ import annotations

from typing import NamedTuple

from .messages import (
    BROADCAST,
    AbdAck,
    AbdQuery,
    AbdReport,
    AbdUpdate,
    Op,
    OpResult,
    check_invoke,
    check_model,
    deliver,
    is_noop_delivery,
    itself,
)

PHASE_WRITE = "write"
PHASE_QUERY = "query"
PHASE_WRITE_BACK = "write_back"

# Builds a message from its fields without its Python-level __new__.
_new = tuple.__new__


# Layouts only: handlers build and read both as plain tuples, by position.
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

    clone = freeze = itself


class AbdAlgo:
    # Each message class's handler, by name, so that a subclass's override
    # is the one called; None from a handler is a no-op (algos.py).
    HANDLERS = {AbdUpdate: "on_update", AbdQuery: "on_query",
                AbdAck: "on_ack", AbdReport: "on_report"}
    check_invoke, deliver, is_noop_delivery = check_invoke, deliver, is_noop_delivery
    INITIAL = tuple(AbdReplicaState())  # every process's first state

    def __init__(self, n: int, t: int):
        check_model(n, t)
        self.quorum = n - t

    def init(self) -> tuple:
        return self.INITIAL

    def begin(self, state: tuple, op: Op) -> tuple:
        """Invoke `op` at its process, whose state is `state`."""
        self.check_invoke(state, op)
        reg, wsn, opsn, _ = state
        opsn += 1
        if op.kind == "read":
            st = (reg, wsn, opsn, (PHASE_QUERY, opsn, frozenset(), 0, None))
            return st, ((BROADCAST, _new(AbdQuery, (opsn,))),), None
        wsn += 1
        st = (op.value, wsn, opsn, (PHASE_WRITE, opsn, frozenset(), wsn, op.value))
        update = _new(AbdUpdate, (opsn, wsn, op.value))
        return st, ((BROADCAST, update),), None

    @staticmethod
    def has_pending(state: tuple) -> bool:
        return state[3] is not None  # pending

    @staticmethod
    def relabel(state: tuple, perm) -> tuple:
        """`state` with each process id q among the pending phase's
        responders renamed to perm[q]."""
        pd = state[3]
        if pd is None:
            return state
        responders = frozenset(perm[q] for q in pd[2])
        return (*state[:3], (*pd[:2], responders, *pd[3:]))

    @staticmethod
    def on_update(state: tuple, msg: AbdUpdate, sender: int) -> tuple:
        """Adopt a newer pair and acknowledge the phase."""
        opsn, wsn, value = msg
        _, cur, own, pd = state
        if wsn > cur:
            state = (value, wsn, own, pd)
        return state, ((sender, _new(AbdAck, (opsn,))),), None

    @staticmethod
    def on_query(state: tuple, msg: AbdQuery, sender: int) -> tuple:
        """Report this replica's pair to the querying phase."""
        reply = _new(AbdReport, (msg.opsn, state[1], state[0]))  # wsn, reg
        return state, ((sender, reply),), None

    def on_ack(self, state: tuple, msg: AbdAck, sender: int) -> tuple | None:
        """An ack to the pending write or write-back phase; its quorum
        completes the operation."""
        reg, wsn, opsn, pd = state
        if pd is None or pd[1] != msg.opsn or pd[0] == PHASE_QUERY:
            return None  # a reply to a finished phase
        phase, _, responders, best_wsn, best_value = pd
        responders = responders | {sender}
        if len(responders) < self.quorum:
            return (reg, wsn, opsn, (phase, opsn, responders, best_wsn, best_value)), (), None
        st = (reg, wsn, opsn, None)
        if phase == PHASE_WRITE:
            return st, (), OpResult("write", None, best_wsn)
        return st, (), OpResult("read", best_value, best_wsn)

    def on_report(self, state: tuple, msg: AbdReport, sender: int) -> tuple | None:
        """A report to the pending query phase; its quorum starts the
        write-back of the freshest pair."""
        reg, wsn, opsn, pd = state
        asked, reported, value = msg
        if pd is None or pd[1] != asked or pd[0] != PHASE_QUERY:
            return None  # a reply to a finished phase
        _, _, responders, best_wsn, best_value = pd
        responders = responders | {sender}
        if reported > best_wsn:
            best_wsn, best_value = reported, value
        if len(responders) < self.quorum:
            pd = (PHASE_QUERY, opsn, responders, best_wsn, best_value)
            return (reg, wsn, opsn, pd), (), None
        # Quorum of reports: write the freshest pair back, even if all replies
        # agree, then wait for acks.
        opsn += 1
        st = (reg, wsn, opsn, (PHASE_WRITE_BACK, opsn, frozenset(), best_wsn, best_value))
        update = _new(AbdUpdate, (opsn, best_wsn, best_value))
        return st, ((BROADCAST, update),), None
