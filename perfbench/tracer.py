"""Spans around regsim's layer boundaries, recorded from outside the program.

`Tracer.install` replaces each function in `WRAPS` where its caller looks
it up (for example `regsim.cli.run`, the engine entry point as the command
line sees it) with a wrapper that times the call.  Every wrapped call adds
to its name's totals: calls, inclusive seconds and self seconds, where self
time is the span's duration minus the time its child spans cover.

Calls made once per event, edge or message (the `per_call` entries) are
only totalled.  Every other call is also kept as a span record (name,
start, end, parent span, self seconds) in memory; `write_spans` writes the
records and the totals out when the traced repetition ends.

`layer_metrics` turns the totals and counts into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import regsim.abd
import regsim.algos
import regsim.cli
import regsim.engine
import regsim.explore
import regsim.history
import regsim.metrics
import regsim.report
import regsim.teff
import regsim.trace

# (owner, attribute, span name, per_call)
WRAPS = [
    (regsim.cli, "main", "cli.main", False),
    (regsim.cli, "load_scenario", "config.load", False),
    (regsim.cli, "run", "engine.run", False),
    (regsim.cli, "build_report", "report.build", False),
    (regsim.cli, "report_to_json", "report.to_json", False),
    (regsim.cli, "write_jsonl", "trace.encode", False),
    (regsim.cli, "read_jsonl", "trace.decode", False),
    (regsim.cli, "extract_history", "history.extract", False),
    (regsim.cli, "check_claims", "history.claims", False),
    (regsim.cli, "check_linearizable", "history.linearizable", False),
    (regsim.report, "extract_history", "history.extract", False),
    (regsim.report, "check_claims", "history.claims", False),
    (regsim.report, "check_linearizable", "history.linearizable", False),
    (regsim.report, "assert_bounds", "metrics.bounds", False),
    (regsim.metrics, "extract_history", "history.extract", False),
    (regsim.metrics, "count_messages", "metrics.count_messages", False),
    (regsim.explore, "explore", "explore", False),
    (regsim.history, "check_claims", "history.claims", False),
    (regsim.history, "check_linearizable", "history.linearizable", False),
    (regsim.engine, "TraceEvent", "trace.event_build", True),
    (regsim.trace, "encode_message", "messages.encode", True),
    (regsim.trace, "decode_message", "messages.decode", True),
    (regsim.algos.TeffAlgo, "begin", "algos.begin", True),
    (regsim.algos.TeffAlgo, "deliver", "algos.deliver", True),
    (regsim.algos.TeffAlgo, "is_noop_delivery", "algos.noop", True),
    (regsim.algos.AbdAlgo, "begin", "algos.begin", True),
    (regsim.algos.AbdAlgo, "deliver", "algos.deliver", True),
    (regsim.algos.AbdAlgo, "is_noop_delivery", "algos.noop", True),
    (regsim.teff.ReplicaState, "clone", "teff.clone", True),
    (regsim.teff.ReplicaState, "freeze", "teff.freeze", True),
    (regsim.abd.AbdReplicaState, "clone", "abd.clone", True),
    (regsim.abd.AbdReplicaState, "freeze", "abd.freeze", True),
]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list[float]] = []  # child seconds of each open call
        self.open_spans: list[int] = []  # ids of the open kept spans
        self.spans: list[list] = []  # [name, start, end, parent id, self s]
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self s]
        self.counts: Counter = Counter()

    def install(self) -> None:
        for owner, attr, name, per_call in WRAPS:
            self._wrap(owner, attr, name, per_call)

    def _wrap(self, owner, attr, name, per_call) -> None:
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        after = _AFTER.get(name)
        stack, clock = self.stack, self.clock

        if per_call:

            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    totals[0] += 1
                    totals[1] += dur
                    totals[2] += dur - frame[0]
                if after is not None:
                    after(self, result, args, None)
                return result

        else:
            spans, open_spans = self.spans, self.open_spans

            def wrapper(*args, **kwargs):
                span_id = len(spans)
                record = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, 0.0]
                spans.append(record)
                open_spans.append(span_id)
                token = _BEFORE[name](self) if name in _BEFORE else None
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    dur = end - start
                    stack.pop()
                    open_spans.pop()
                    if stack:
                        stack[-1][0] += dur
                    record[1], record[2], record[4] = start, end, dur - frame[0]
                    totals[0] += 1
                    totals[1] += dur
                    totals[2] += dur - frame[0]
                if after is not None:
                    after(self, result, args, token)
                return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def handler_calls(self) -> int:
        return self.totals["algos.begin"][0] + self.totals["algos.deliver"][0]

    def deterministic_counts(self) -> dict[str, int]:
        """Calls per span name and the counts taken from calls: equal on
        every repetition of the same inputs."""
        calls = {name: totals[0] for name, totals in self.totals.items()}
        return {**calls, **self.counts}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "self_s": self_s}))
                fh.write("\n")
            fh.write(json.dumps({"totals": self.totals, "counts": self.counts}) + "\n")


# Deterministic counts taken from a call's arguments or result.


def _after_explore(tr: Tracer, result, args, handlers_before) -> None:
    tr.counts["explore.configurations"] += result.states_visited
    tr.counts["explore.histories"] += len(result.histories)
    tr.counts["explore.edges"] += tr.handler_calls() - handlers_before


def _after_noop(tr: Tracer, result, args, token) -> None:
    if result:
        tr.counts["algos.noop_pruned"] += 1


def _after_run(tr: Tracer, result, args, token) -> None:
    tr.counts["engine.events"] += len(result.trace)


def _after_write(tr: Tracer, result, args, token) -> None:
    tr.counts["trace.encode_events"] += len(args[0])
    tr.counts["trace.bytes"] += os.path.getsize(args[1])


def _after_read(tr: Tracer, result, args, token) -> None:
    tr.counts["trace.decode_events"] += len(result)


def _after_claims(tr: Tracer, result, args, token) -> None:
    tr.counts["history.ops_checked"] += len(args[0].ops)


def _after_linearizable(tr: Tracer, result, args, token) -> None:
    if result.status == "skipped":
        tr.counts["history.linearizable_skipped"] += 1


_BEFORE = {"explore": Tracer.handler_calls}
_AFTER = {
    "explore": _after_explore,
    "algos.noop": _after_noop,
    "engine.run": _after_run,
    "trace.encode": _after_write,
    "trace.decode": _after_read,
    "history.claims": _after_claims,
    "history.linearizable": _after_linearizable,
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer, duplicate_case_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by BENCHMARK.json name."""

    def calls(name):
        return tr.totals[name][0]

    def secs(name):
        return tr.totals[name][1]

    def self_s(name):
        return tr.totals[name][2]

    c = tr.counts
    handlers = calls("algos.begin") + calls("algos.deliver")
    handler_s = secs("algos.begin") + secs("algos.deliver")
    return {
        "explore.cases": calls("explore"),
        "explore.configurations": c["explore.configurations"],
        "explore.histories": c["explore.histories"],
        "explore.case_s": _ratio(secs("explore"), calls("explore")),
        "explore.us_per_configuration": _ratio(
            secs("explore"), c["explore.configurations"], 1e6),
        "explore.edges": c["explore.edges"],
        "explore.edges_per_configuration": _ratio(
            c["explore.edges"], c["explore.configurations"]),
        "explore.self_s": self_s("explore"),
        "explore.duplicate_case_share": duplicate_case_share,
        "algos.begin_calls": calls("algos.begin"),
        "algos.deliver_calls": calls("algos.deliver"),
        "algos.handler_s": handler_s,
        "algos.us_per_handler": _ratio(handler_s, handlers, 1e6),
        "algos.noop_calls": calls("algos.noop"),
        "algos.noop_s": secs("algos.noop"),
        "algos.noop_pruned_share": _ratio(c["algos.noop_pruned"], calls("algos.noop")),
        "teff.clone_calls": calls("teff.clone"),
        "teff.clone_s": secs("teff.clone"),
        "teff.freeze_calls": calls("teff.freeze"),
        "teff.freeze_s": secs("teff.freeze"),
        "abd.clone_calls": calls("abd.clone"),
        "abd.clone_s": secs("abd.clone"),
        "abd.freeze_calls": calls("abd.freeze"),
        "abd.freeze_s": secs("abd.freeze"),
        "engine.runs": calls("engine.run"),
        "engine.events": c["engine.events"],
        "engine.run_s": secs("engine.run"),
        "engine.us_per_event": _ratio(secs("engine.run"), c["engine.events"], 1e6),
        "engine.self_s": self_s("engine.run"),
        "trace.event_build_calls": calls("trace.event_build"),
        "trace.event_build_s": secs("trace.event_build"),
        "trace.encode_events": c["trace.encode_events"],
        "trace.encode_s": secs("trace.encode"),
        "trace.bytes": c["trace.bytes"],
        "trace.decode_events": c["trace.decode_events"],
        "trace.decode_s": secs("trace.decode"),
        "trace.us_per_event_encode": _ratio(
            secs("trace.encode"), c["trace.encode_events"], 1e6),
        "trace.us_per_event_decode": _ratio(
            secs("trace.decode"), c["trace.decode_events"], 1e6),
        "messages.encode_calls": calls("messages.encode"),
        "messages.encode_s": secs("messages.encode"),
        "messages.decode_calls": calls("messages.decode"),
        "messages.decode_s": secs("messages.decode"),
        "history.extract_calls": calls("history.extract"),
        "history.extract_s": secs("history.extract"),
        "history.claims_calls": calls("history.claims"),
        "history.claims_s": secs("history.claims"),
        "history.linearizable_calls": calls("history.linearizable"),
        "history.linearizable_s": secs("history.linearizable"),
        "history.linearizable_skipped_share": _ratio(
            c["history.linearizable_skipped"], calls("history.linearizable")),
        "history.ops_checked": c["history.ops_checked"],
        "metrics.bounds_calls": calls("metrics.bounds"),
        "metrics.bounds_s": secs("metrics.bounds"),
        "metrics.count_messages_s": secs("metrics.count_messages"),
        "report.build_calls": calls("report.build"),
        "report.build_s": secs("report.build"),
        "report.self_s": self_s("report.build"),
        "report.to_json_s": secs("report.to_json"),
        "config.load_calls": calls("config.load"),
        "config.load_s": secs("config.load"),
        "cli.self_s": self_s("cli.main"),
    }
