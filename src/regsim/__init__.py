"""Deterministic simulation and verification toolkit for quorum-replicated
single-writer multi-reader atomic registers.

Algorithms: "teff" (broadcast-forwarding register with a synchronized write
sequence number, base variant), "teff-modified" (state replies carry the
register value), and "abd" (classic two-phase quorum register baseline).
"""

__version__ = "0.1.0"
