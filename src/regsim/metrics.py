"""Read classification, timing-bound checks, and message accounting.

Under bounded delay, a read starting at tick r falls into one of three
classes:

* wlf ("write-latency-free"): not concurrent with any write, and the
  closest write started before it did not crash and began more than Delta
  ticks earlier.  Bound: one round trip, 2*Delta.
* interfering_no_crash: a write interferes (concurrent, or started within
  the last Delta ticks) but the writer survives it.  Bound: 3*Delta.
* interfering_writer_crash: the writer crashes during an interfering or
  concurrent write.  Bound: 4*Delta for the modified register variant; the
  base variant makes no claim here (a read can chase a value only its dead
  writer held), which is the reason the modified variant exists.

A write that never responds counts as concurrent with everything after its
invoke, so reads that merely follow a crashed write land in the crash class;
the bound is an upper bound, such reads typically finish in 2*Delta.

Under round synchrony the classes collapse to writer-crash-concurrent or
not; writes take exactly two rounds, unaffected reads exactly two, and a
read overlapping a crashing write at most three.  ABD: writes within (or,
in rounds, exactly) one round trip, reads two round trips regardless of
concurrency.  Async runs get no bounds; reports are informational.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .config import ScenarioConfig
from .history import History, OpRecord
# Not called here; perfbench/tracer.py wraps regsim.metrics.extract_history by name.
from .history import extract_history  # noqa: F401
from .messages import AbdAck, AbdQuery, AbdReport, AbdUpdate, Read, State, Write
from .trace import SEND, TraceEvent

WLF = "wlf"
INTERFERING = "interfering_no_crash"
INTERFERING_CRASH = "interfering_writer_crash"
ROUND_NO_CRASH = "no_writer_crash"
ROUND_CRASH = "writer_crash_concurrent"

LE = "le"
EQ = "eq"


@dataclass
class OpBound:
    op_id: int
    process: int
    kind: str
    read_class: str | None
    duration: int | None  # None: never responded
    bound_kind: str | None  # "le" | "eq" | None when no claim applies
    bound: int | None
    within: bool | None
    messages: int = 0


@dataclass
class BoundReport:
    algorithm: str
    model: str
    informational: bool
    entries: list[OpBound] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def max_duration(self, kind: str, read_class: str | None = None) -> int | None:
        durations = [
            e.duration
            for e in self.entries
            if e.kind == kind
            and (read_class is None or e.read_class == read_class)
            and e.duration is not None
        ]
        return max(durations) if durations else None

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "model": self.model,
            "informational": self.informational,
            "ok": self.ok,
            "entries": [
                {
                    "op": e.op_id,
                    "p": e.process,
                    "kind": e.kind,
                    "class": e.read_class,
                    "duration": e.duration,
                    "bound": None
                    if e.bound is None
                    else {"kind": e.bound_kind, "ticks": e.bound},
                    "within": e.within,
                    "messages": e.messages,
                }
                for e in self.entries
            ],
            "violations": list(self.violations),
        }


def _crashed_during(history: History, w: OpRecord) -> bool:
    crash = history.crashed.get(w.process)
    if crash is None:
        return False
    if w.respond is not None:
        return w.invoke <= crash <= w.respond
    return crash >= w.invoke


_INF = float("inf")


def _end(op: OpRecord) -> float:
    """The op's response tick; a pending op extends to infinity."""
    return _INF if op.respond is None else op.respond


class WriteIndex:
    """The writes of one history sorted by response tick, a pending write
    last, so that classifying a read takes one bisection instead of a scan
    over every write.

    A write precedes a read iff it responded strictly before the read's
    invoke (an op never responds before its own invoke); otherwise it is
    concurrent with the read unless it was invoked after the read responded.
    Equal ticks count as overlap, and a pending write or read extends to
    infinity.  So for a read invoked at tick a, the writes before position
    i = bisect_left(responds, a) are those that precede it, and each write
    from i on is concurrent with it iff invoked no later than its response."""

    def __init__(self, history: History):
        ordered = sorted(enumerate(history.writes()), key=lambda iw: _end(iw[1]))
        self.responds = [_end(w) for _, w in ordered]
        # closest[i]: the latest-invoked write among the first i (on a tie,
        # the first in history order).
        self.closest: list[OpRecord | None] = [None]
        best = (-_INF, 0, None)
        for pos, w in ordered:
            best = max(best, (w.invoke, -pos, w))
            self.closest.append(best[2])
        # first_invoke[i] / first_crash_invoke[i]: the earliest invoke among
        # writes i.. (among those the writer crashed during); inf if none.
        self.first_invoke = [_INF] * (len(ordered) + 1)
        self.first_crash_invoke = [_INF] * (len(ordered) + 1)
        for i in range(len(ordered) - 1, -1, -1):
            w = ordered[i][1]
            self.first_invoke[i] = min(self.first_invoke[i + 1], w.invoke)
            crash_invoke = w.invoke if _crashed_during(history, w) else _INF
            self.first_crash_invoke[i] = min(self.first_crash_invoke[i + 1], crash_invoke)

    def query(self, read_op: OpRecord) -> tuple[OpRecord | None, bool, bool]:
        """The closest write preceding `read_op`, whether some write is
        concurrent with it, and whether some write the writer crashed
        during is."""
        i = bisect_left(self.responds, read_op.invoke)
        end = _end(read_op)

        def reaches(first: float) -> bool:  # a write from i on, invoked by `end`
            return first != _INF and first <= end

        return (
            self.closest[i],
            reaches(self.first_invoke[i]),
            reaches(self.first_crash_invoke[i]),
        )


def classify_read(
    history: History, read_op: OpRecord, delta: int, writes: WriteIndex | None = None
) -> str:
    """Bounded-delay classification of one read (`writes`: the history's
    index, built here if not given)."""
    closest, concurrent, crash = (writes or WriteIndex(history)).query(read_op)
    if concurrent:
        return INTERFERING_CRASH if crash else INTERFERING
    if closest is None:
        return WLF
    if _crashed_during(history, closest):
        return INTERFERING_CRASH
    if closest.invoke < read_op.invoke - delta:
        return WLF
    return INTERFERING


def classify_read_round(
    history: History, read_op: OpRecord, writes: WriteIndex | None = None
) -> str:
    """Round-synchrony classification: did a writer crash overlap the read."""
    _, _, crash = (writes or WriteIndex(history)).query(read_op)
    return ROUND_CRASH if crash else ROUND_NO_CRASH


def bound_for(
    algorithm: str, model: str, op_kind: str, read_class: str | None, unit: int
) -> tuple[str, int] | None:
    """The claimed duration bound for one (algorithm, model, class) cell.
    None means no claim (informational)."""
    if model == "async":
        return None
    if model == "bounded_delay":
        if op_kind == "write":
            return (LE, 2 * unit)
        if algorithm == "abd":
            return (LE, 4 * unit)
        if read_class == WLF:
            return (LE, 2 * unit)
        if read_class == INTERFERING:
            return (LE, 3 * unit)
        # interfering_writer_crash
        if algorithm == "teff-modified":
            return (LE, 4 * unit)
        return None  # base variant: unbounded here by design
    if model == "round_sync":
        if op_kind == "write":
            return (EQ, 2 * unit)
        if algorithm == "abd":
            return (EQ, 4 * unit)
        if read_class == ROUND_CRASH:
            return (LE, 3 * unit)
        return (EQ, 2 * unit)
    raise ValueError(f"unknown model {model!r}")


def assert_bounds(
    trace: list[TraceEvent], history: History, config: ScenarioConfig
) -> BoundReport:
    """Check every operation's measured duration (`history` is the trace's
    history) against the bound table and attach per-operation message counts."""
    model = config.network.kind
    unit = config.network.delta
    counts = count_messages(trace, history)
    writes = WriteIndex(history)
    report = BoundReport(
        algorithm=config.algorithm, model=model, informational=model == "async"
    )
    for op in history.ops:
        read_class = None
        if op.kind == "read":
            if model == "round_sync":
                read_class = classify_read_round(history, op, writes)
            else:
                read_class = classify_read(history, op, unit, writes)
        duration = None if op.pending else op.respond - op.invoke
        claim = bound_for(config.algorithm, model, op.kind, read_class, unit)
        within: bool | None
        if claim is None:
            within = None
        elif op.pending:
            # A crashed process is excused from finishing; a correct one is
            # a liveness violation and exceeds every bound.
            if op.process in history.crashed:
                within = None
            else:
                within = False
        else:
            kind, ticks = claim
            within = duration <= ticks if kind == LE else duration == ticks
        entry = OpBound(
            op_id=op.op_id,
            process=op.process,
            kind=op.kind,
            read_class=read_class,
            duration=duration,
            bound_kind=claim[0] if claim else None,
            bound=claim[1] if claim else None,
            within=within,
            messages=counts.get(op.op_id, 0),
        )
        report.entries.append(entry)
        if within is False:
            shown = "pending" if duration is None else f"{duration} ticks"
            report.violations.append(
                f"op {op.op_id} ({op.kind}"
                + (f", {read_class}" if read_class else "")
                + f") took {shown}, bound {claim[0]} {claim[1]}"
            )
    return report


def count_messages(trace: list[TraceEvent], history: History) -> dict[int, int]:
    """Attribute every point-to-point send to an operation.

    WRITE(s) traffic belongs to the write that produced sequence number s,
    wherever it was relayed from.  READ(rsn)/STATE(rsn) traffic belongs to
    the read that issued rsn at that reader.  ABD messages carry a phase id;
    both phases of a read charge the read.
    """
    wsn_to_op = {w.seqno: w.op_id for w in history.writes()}
    intervals: dict[int, list[OpRecord]] = {}
    for op in history.ops:
        intervals.setdefault(op.process, []).append(op)

    def op_at(process: int, time: int) -> int | None:
        best = None
        for op in intervals.get(process, []):
            if op.invoke <= time and (op.respond is None or time <= op.respond):
                if best is None or op.invoke > best.invoke:
                    best = op
        return best.op_id if best is not None else None

    read_key_to_op: dict[tuple[int, int], int] = {}
    abd_key_to_op: dict[tuple[int, int], int] = {}
    for ev in trace:
        if ev.kind != SEND:
            continue
        msg = ev.message
        if isinstance(msg, Read):
            key = (ev.process, msg.rsn)
            if key not in read_key_to_op:
                owner = op_at(ev.process, ev.time)
                if owner is not None:
                    read_key_to_op[key] = owner
        elif isinstance(msg, (AbdUpdate, AbdQuery)):
            key = (ev.process, msg.opsn)
            if key not in abd_key_to_op:
                owner = op_at(ev.process, ev.time)
                if owner is not None:
                    abd_key_to_op[key] = owner

    counts: dict[int, int] = {}

    def charge(op_id: int | None) -> None:
        if op_id is not None:
            counts[op_id] = counts.get(op_id, 0) + 1

    for ev in trace:
        if ev.kind != SEND:
            continue
        msg = ev.message
        if isinstance(msg, Write):
            charge(wsn_to_op.get(msg.wsn))
        elif isinstance(msg, Read):
            charge(read_key_to_op.get((ev.process, msg.rsn)))
        elif isinstance(msg, State):
            charge(read_key_to_op.get((ev.peer, msg.rsn)))
        elif isinstance(msg, (AbdUpdate, AbdQuery)):
            charge(abd_key_to_op.get((ev.process, msg.opsn)))
        elif isinstance(msg, (AbdAck, AbdReport)):
            charge(abd_key_to_op.get((ev.peer, msg.opsn)))
    return counts


def slow_read_processes(report: BoundReport, threshold: int) -> dict[int, int]:
    """How many reads per process exceeded `threshold` ticks.  With a single
    writer crash in a run, no process should appear here more than once."""
    per_process: dict[int, int] = {}
    for entry in report.entries:
        if entry.kind != "read" or entry.duration is None:
            continue
        if entry.duration > threshold:
            per_process[entry.process] = per_process.get(entry.process, 0) + 1
    return per_process
