"""Run reports: checker verdicts plus the bound/message tables for one run.

Built purely from (config, events, seed), so regenerating a report from a
stored trace file reproduces it byte for byte.  The events are folded in
one pass and may come from any iterable: a run's chunks or a file's lines
as they are made.  The fold keeps only the operation events (invoke,
respond, crash, round_start) and per-op send counts, so a report costs
memory by operations, not by events.  `judge` gives a run's verdicts and
whether it passes, the one definition of a passing run, which the report
and `regsim sweep` share.
"""

from __future__ import annotations

import json
from typing import Iterable

from .config import ScenarioConfig
from .history import (
    History,
    check_claims,
    check_linearizable,
    check_termination,
    extract_history,
)
# Not called here; perfbench/tracer.py wraps regsim.report.assert_bounds by name.
from .metrics import assert_bounds  # noqa: F401
from .metrics import check_bounds, sends_per_op, tally_sends
from .trace import TraceEvent


def judge(config: ScenarioConfig, history: History, counts: dict[int, int]) -> tuple:
    """Whether the run of `history` passes, its termination, claims and
    linearizability verdicts, and its `BoundReport`, with `counts` as each
    op's messages (they decide no verdict)."""
    checks = (check_termination(history), check_claims(history), check_linearizable(history))
    bounds = check_bounds(history, config, counts)
    return all(v.ok for v in checks) and bounds.ok, checks, bounds


def build_report(config: ScenarioConfig, events: Iterable[TraceEvent], seed: int) -> dict:
    ops: list[TraceEvent] = []
    by_op, by_wsn, count = tally_sends(events, ops.append)
    history = extract_history(ops, config.n)
    passed, checks, bounds = judge(config, history, sends_per_op(by_op, by_wsn, history))
    message_totals: dict[str, int] = {}
    for entry in bounds.entries:
        message_totals[entry.kind] = message_totals.get(entry.kind, 0) + entry.messages

    return {
        "scenario": config.digest,
        "algorithm": config.algorithm,
        "network": config.network.kind,
        "seed": seed,
        "pass": passed,
        "checks": {v.name: v.as_dict() for v in checks},
        "bounds": bounds.as_dict(),
        "messages": {
            "per_op": {str(e.op_id): e.messages for e in bounds.entries},
            "total_by_kind": message_totals,
        },
        "events": count,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, separators=(",", ": ")) + "\n"
