"""Run reports: checker verdicts plus the bound/message tables for one run.

Built purely from (config, events, seed), so regenerating a report from a
stored trace file reproduces it byte for byte.  The events are folded in
one pass and may come from any iterable: a run's chunks or a file's lines
as they are made.  The fold keeps only the operation events (invoke,
respond, crash, round_start) and per-op send counts, so a report costs
memory by operations, not by events.
"""

from __future__ import annotations

import json
from typing import Iterable

from .config import ScenarioConfig
from .history import (
    check_claims,
    check_linearizable,
    check_termination,
    extract_history,
)
# Not called here; perfbench/tracer.py wraps regsim.report.assert_bounds by name.
from .metrics import assert_bounds  # noqa: F401
from .metrics import check_bounds, sends_per_op, tally_sends
from .trace import TraceEvent


def build_report(config: ScenarioConfig, events: Iterable[TraceEvent], seed: int) -> dict:
    ops: list[TraceEvent] = []
    by_op, by_wsn, count = tally_sends(events, ops.append)
    history = extract_history(ops, config.n)
    termination = check_termination(history)
    claims = check_claims(history)
    linearizable = check_linearizable(history)
    bounds = check_bounds(history, config, sends_per_op(by_op, by_wsn, history))

    passed = termination.ok and claims.ok and linearizable.ok and bounds.ok
    message_totals: dict[str, int] = {}
    for entry in bounds.entries:
        message_totals[entry.kind] = message_totals.get(entry.kind, 0) + entry.messages

    return {
        "scenario": config.digest,
        "algorithm": config.algorithm,
        "network": config.network.kind,
        "seed": seed,
        "pass": passed,
        "checks": {
            "termination": termination.as_dict(),
            "claims": claims.as_dict(),
            "linearizable": linearizable.as_dict(),
        },
        "bounds": bounds.as_dict(),
        "messages": {
            "per_op": {str(e.op_id): e.messages for e in bounds.entries},
            "total_by_kind": message_totals,
        },
        "events": count,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, separators=(",", ": ")) + "\n"
