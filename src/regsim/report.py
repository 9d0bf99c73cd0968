"""Run reports: checker verdicts plus the bound/message tables for one run.

Built purely from (config, events, seed), so regenerating a report from a
stored trace file reproduces it byte for byte.  The events are read by one
`extract_history` call and may come from any iterable: a run's chunks or a
file's lines as they are made.  The history it builds holds the ops, their
send counts and the number of events, so a report costs memory by
operations, not by events.  `judge` gives a run's verdicts and whether it
passes, the one definition of a passing run, which the report and `regsim
sweep` share.  A report is of its scenario: `build_report` rejects a trace
whose invokes are not the scenario's ops, that never invokes an op of a
process it never crashes, that crashes a process the scenario does not
crash (or, for a crash with only `at`, at another tick), or that sends or
delivers a message class the scenario's protocol has no handler for.
"""

from __future__ import annotations

import json
from typing import Iterable

from .algos import make_algorithm
from .config import ScenarioConfig
from .history import (
    History,
    check_claims,
    check_linearizable,
    check_termination,
    extract_history,
)
from .messages import Op
# Not called here; perfbench/tracer.py wraps regsim.report.assert_bounds by name.
from .metrics import assert_bounds  # noqa: F401
from .metrics import check_bounds
from .trace import TraceEvent


def judge(config: ScenarioConfig, history: History) -> tuple:
    """Whether the run of `history` passes, its termination, claims and
    linearizability verdicts, and its `BoundReport` (whose message counts
    decide no verdict)."""
    checks = (check_termination(history), check_claims(history), check_linearizable(history))
    bounds = check_bounds(history, config)
    return all(v.ok for v in checks) and bounds.ok, checks, bounds


def build_report(config: ScenarioConfig, events: Iterable[TraceEvent], seed: int) -> dict:
    handlers = make_algorithm(config.algorithm, config.n, config.t).HANDLERS
    history = extract_history(events, config.n, handlers)
    _check_ops(history, config.ops)
    _check_crashes(history, config)
    passed, checks, bounds = judge(config, history)
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
        "events": history.events,
    }


def _check_ops(history: History, ops: tuple[Op, ...]) -> None:
    """Raises ValueError unless `history` ran `ops`: each invoke names one
    of them, by its process, as its kind and, for a write, with its value,
    and every op of a process that never crashes is invoked.  A run of the
    engine passes, as the engine invokes every op of a live process."""
    for rec in history.ops:
        if not 0 <= rec.op_id < len(ops):
            raise ValueError(f"invoke of op {rec.op_id}; the scenario has {len(ops)} ops")
        op = ops[rec.op_id]
        invoked = (rec.kind, rec.process, rec.value if rec.kind == "write" else None)
        if invoked != (op.kind, op.process, op.value):
            raise ValueError(
                f"invoke of op {rec.op_id} is {_describe(*invoked)}, "
                f"but the scenario's op {rec.op_id} is {_describe(op.kind, op.process, op.value)}"
            )
    invoked_ids = {rec.op_id for rec in history.ops}
    for op_id, op in enumerate(ops):
        if op_id not in invoked_ids and op.process not in history.crashed:
            raise ValueError(
                f"op {op_id} ({op.kind} by p{op.process}) is never invoked, "
                f"although p{op.process} never crashes"
            )


def _check_crashes(history: History, config: ScenarioConfig) -> None:
    """Raises ValueError unless each crash in `history` is one the scenario
    has: of an `at` or relay cut's process, or of an op cut's invoker, and a
    crash with only `at` falls on that tick.  A crash excuses its process's
    pending op, so one the scenario lacks would hide a lost response."""
    declared = {
        config.ops[spec.op_index].process if spec.process is None else spec.process: spec
        for spec in config.crashes
    }
    for process, tick in history.crashed.items():
        spec = declared.get(process)
        if spec is None:
            raise ValueError(f"crash of p{process}, which the scenario never crashes")
        if spec.op_index is None and spec.relay is None and tick != spec.at:
            raise ValueError(
                f"crash of p{process} at tick {tick}, but the scenario crashes it at {spec.at}"
            )


def _describe(kind: str, process: int, value: bytes | None) -> str:
    return f"a write of {value!r} by p{process}" if kind == "write" else f"a read by p{process}"


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, separators=(",", ": ")) + "\n"
