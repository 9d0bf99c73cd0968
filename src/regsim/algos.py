"""The algorithm registry: each name maps to its protocol object.

`teff.TeffAlgo` and `abd.AbdAlgo` hold their protocol's constants and
handlers, and both offer the interface the simulator and the exhaustive
explorer call: init / begin / deliver / has_pending / is_noop_delivery.
A replica state is an immutable, hashable NamedTuple: handlers return a
new one (or their input, when nothing changes) inside a `HandlerOutput`,
the simulator keeps it as is, and the explorer keys its memos by it.
Both callers skip the handler for a delivery that `is_noop_delivery`
flags, so True must imply that delivering the message changes no state,
sends nothing and completes nothing; False is always safe.
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
