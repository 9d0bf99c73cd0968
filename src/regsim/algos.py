"""The algorithm registry: each name maps to its protocol object.

`teff.TeffAlgo` and `abd.AbdAlgo` hold their protocol's constants and
handlers, and both offer the interface the simulator and the exhaustive
explorer call: init / begin / has_pending / relabel, and `HANDLERS`, the
table naming each message class's handler.  A protocol is that table:
`deliver`, `is_noop_delivery`, the invoke check `begin` opens with (and
`explore()` runs on each op before its search) and the states'
`clone`/`freeze` are written once in messages.py and bound in each class
body.
`begin` and each class handler `(state, msg, sender)` return a plain
`(state, outgoing, completion)` tuple: the new state, the `(destination,
message)` sends (None: everyone) and an `OpResult` or None.  A class
handler returns None instead only when the delivery changes no state,
sends nothing and completes nothing, now and in every later state of its
process; a triple is always safe.  This is the one no-op rule.  Both
drivers bind the table by name once, per run or per exploration, and call
the class handlers through it.  The simulator makes one handler call per
delivery and goes no further on None.  The explorer makes one per
distinct (state, message, sender) and drops the message on None.
`deliver` is the handler call with None as `(state, (), None)` and a
ProtocolError for a foreign class, and `is_noop_delivery` is the
handler's None; only the tests call them (perfbench/tracer.py wraps both
by name).
A replica state is a plain tuple of immutable fields that a NamedTuple
only lays out: handlers return a new one (or their input, when nothing
changes), the simulator keeps it as is, the explorer keys memos by it.
`relabel(state, perm)` renames each process id q the state holds to
perm[q].  The explorer's symmetry reduction relies on the handlers being
equivariant under relabelling every process except p1, the writer: for
such a perm, begin, each class handler and has_pending on a
relabelled state, with the invoker or sender q given as perm[q], must
give the relabelled result, each outgoing destination d as perm[d].  A
handler may therefore read a process id only to store it in a set, to
reply to it, or to compare it with WRITER.
`Op` is re-exported here for callers that schedule operations.
"""

from __future__ import annotations

from .abd import AbdAlgo
from .messages import Op
from .teff import BASE, MODIFIED, TeffAlgo

__all__ = ["ALGORITHMS", "AbdAlgo", "Op", "TeffAlgo", "make_algorithm"]

ALGORITHMS = ("teff", "teff-modified", "abd")


def make_algorithm(name: str, n: int, t: int):
    if name == "teff":
        return TeffAlgo(n, t, BASE)
    if name == "teff-modified":
        return TeffAlgo(n, t, MODIFIED)
    if name == "abd":
        return AbdAlgo(n, t)
    raise ValueError(f"unknown algorithm {name!r}")
