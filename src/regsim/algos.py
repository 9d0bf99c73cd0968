"""The algorithm registry: each name maps to its protocol object.

`teff.TeffAlgo` and `abd.AbdAlgo` hold their protocol's constants and
handlers, and both offer the interface the simulator and the exhaustive
explorer call: init / begin / deliver / has_pending / is_noop_delivery /
relabel.
A replica state is an immutable, hashable NamedTuple: handlers return a
new one (or their input, when nothing changes) inside a `HandlerOutput`,
the simulator keeps it as is, and the explorer keys its memos by it.
Both callers skip the handler for a delivery that `is_noop_delivery`
flags, so True must imply that delivering the message changes no state,
sends nothing and completes nothing; False is always safe.
`relabel(state, perm)` renames each process id q the state holds to
perm[q].  The explorer's symmetry reduction relies on the handlers being
equivariant under relabelling every process except p1, the writer: for
such a perm, begin, deliver, is_noop_delivery and has_pending on a
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
