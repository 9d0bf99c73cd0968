"""Run reports: checker verdicts plus the bound/message tables for one run.

Built purely from (config, trace, seed), so regenerating a report from a
stored trace file reproduces it byte for byte.
"""

from __future__ import annotations

import json

from .config import ScenarioConfig
from .history import (
    check_claims,
    check_linearizable,
    check_termination,
    extract_history,
)
from .metrics import assert_bounds
from .trace import TraceEvent


def build_report(config: ScenarioConfig, trace: list[TraceEvent], seed: int) -> dict:
    history = extract_history(trace, config.n)
    termination = check_termination(history)
    claims = check_claims(history)
    linearizable = check_linearizable(history)
    bounds = assert_bounds(trace, history, config)

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
        "events": len(trace),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, separators=(",", ": ")) + "\n"
