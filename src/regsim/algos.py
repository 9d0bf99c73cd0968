"""Uniform driver interface over the register algorithms.

The simulator and the exhaustive explorer only ever call init / begin /
deliver / has_pending, so both protocols plug into either backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import abd, teff
from .messages import (
    AbdAck,
    AbdReport,
    HandlerOutput,
    Message,
    ProtocolError,
    Read,
    State,
    Write,
)


@dataclass(frozen=True)
class Op:
    """One scheduled register operation."""

    process: int
    kind: str  # "write" | "read"
    value: bytes | None = None
    time: int = 0


class TeffAlgo:
    def __init__(self, n: int, t: int, variant: str, options: dict | None = None):
        self.n = n
        self.t = t
        self.variant = variant
        self.options = options or {}

    def init(self, me: int) -> teff.ReplicaState:
        return teff.init(
            me,
            self.n,
            self.t,
            self.variant,
            quorum_counts_state=self.options.get("quorum_counts_state", True),
            writer_local_read=self.options.get("writer_local_read", False),
        )

    def begin(self, state: teff.ReplicaState, op: Op) -> HandlerOutput:
        if op.kind == "write":
            return teff.begin_write(state, op.value)
        return teff.begin_read(state)

    def deliver(self, state: teff.ReplicaState, msg: Message, sender: int) -> HandlerOutput:
        if isinstance(msg, Write):
            return teff.on_write(state, msg.wsn, msg.value, sender)
        if isinstance(msg, Read):
            return teff.on_read(state, msg.rsn, sender)
        if isinstance(msg, State):
            return teff.on_state(state, msg.rsn, msg.wsn, msg.value, sender)
        raise ProtocolError(f"unexpected message for register protocol: {msg!r}")

    @staticmethod
    def has_pending(state: teff.ReplicaState) -> bool:
        return state.pending_write is not None or state.pending_read is not None

    def is_noop_delivery(self, state: teff.ReplicaState, msg: Message, sender: int) -> bool:
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
            if self.variant == teff.BASE or msg.wsn == 0:
                return True
            return msg.wsn in state.forwarded and msg.wsn <= state.swsn
        return False


class AbdAlgo:
    def __init__(self, n: int, t: int):
        self.n = n
        self.t = t

    def init(self, me: int) -> abd.AbdReplicaState:
        return abd.abd_init(me, self.n, self.t)

    def begin(self, state: abd.AbdReplicaState, op: Op) -> HandlerOutput:
        if op.kind == "write":
            return abd.abd_begin_write(state, op.value)
        return abd.abd_begin_read(state)

    def deliver(self, state: abd.AbdReplicaState, msg: Message, sender: int) -> HandlerOutput:
        return abd.abd_on_message(state, msg, sender)

    @staticmethod
    def has_pending(state: abd.AbdReplicaState) -> bool:
        return state.pending is not None

    @staticmethod
    def is_noop_delivery(state: abd.AbdReplicaState, msg: Message, sender: int) -> bool:
        """Replies to an already-finished phase are discarded forever (phase
        ids never repeat); updates and queries always produce a reply."""
        if isinstance(msg, (AbdAck, AbdReport)):
            return state.pending is None or state.pending.opsn != msg.opsn
        return False


ALGORITHMS = ("teff", "teff-modified", "abd")


def make_algorithm(name: str, n: int, t: int, options: dict | None = None):
    if name == "teff":
        return TeffAlgo(n, t, teff.BASE, options)
    if name == "teff-modified":
        return TeffAlgo(n, t, teff.MODIFIED, options)
    if name == "abd":
        return AbdAlgo(n, t)
    raise ValueError(f"unknown algorithm {name!r}")
