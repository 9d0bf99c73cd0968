"""Read classification, timing-bound checks, and per-op message counts.

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
not; writes take exactly two rounds (one when n - t = 1, as the writer's own
WRITE is then its quorum), unaffected reads exactly two, and a read
overlapping a crashing write at most three.  ABD: writes within (or, in
rounds, exactly) one round trip, reads two round trips regardless of
concurrency.  Async runs get no bounds; reports are informational.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

from .config import ScenarioConfig
from .history import History, OpRecord, Record, extract_history
from .messages import WRITER
from .trace import TraceEvent

WLF = "wlf"
INTERFERING = "interfering_no_crash"
INTERFERING_CRASH = "interfering_writer_crash"
ROUND_NO_CRASH = "no_writer_crash"
ROUND_CRASH = "writer_crash_concurrent"

LE = "le"
EQ = "eq"


class OpBound(NamedTuple):
    op_id: int
    process: int
    kind: str
    read_class: str | None
    duration: int | None  # None: never responded
    bound_kind: str | None  # "le" | "eq" | None when no claim applies
    bound: int | None
    within: bool | None
    messages: int = 0


class BoundReport(Record):
    __slots__ = ("algorithm", "model", "informational", "entries", "violations")

    def __init__(
        self,
        algorithm: str,
        model: str,
        informational: bool,
        entries: list[OpBound] | None = None,
        violations: list[str] | None = None,
    ):
        self.algorithm = algorithm
        self.model = model
        self.informational = informational
        self.entries = [] if entries is None else entries
        self.violations = [] if violations is None else violations

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


_INF = float("inf")


def _end(op: OpRecord) -> float:
    """The op's response tick; a pending op extends to infinity."""
    return _INF if op.respond is None else op.respond


class WriteIndex:
    """The writes of one history, a chain w1 < w2 < ... whose invoke and
    response ticks both ascend (extract_history admits no other), so that
    classifying a read takes one bisection.

    A write precedes a read iff it responded strictly before the read's
    invoke; otherwise it is concurrent with the read unless it was invoked
    after the read responded.  Equal ticks count as overlap, and a pending
    write or read extends to infinity.  So for a read invoked at tick a, the
    writes before i = bisect_left(responds, a) precede it, and those from i
    on that were invoked by its response are concurrent with it.  The writes
    the writer crashed during (invoked by the crash tick, responded at or
    after it, or never) are the chain positions lo..hi-1."""

    def __init__(self, history: History):
        self.writes = history.writes()
        self.invokes = [w.invoke for w in self.writes]
        self.responds = [_end(w) for w in self.writes]
        crash = history.crashed.get(WRITER, -_INF)  # no crash: before every write
        self.crash_lo = bisect_left(self.responds, crash)
        self.crash_hi = bisect_right(self.invokes, crash)

    def query(self, read_op: OpRecord) -> tuple[OpRecord | None, bool, bool, bool]:
        """The closest write preceding `read_op` (the latest invoked; a
        zero-length write ties with the next one, and the first wins),
        whether the writer crashed during it, whether some write is
        concurrent with `read_op`, and whether some write the writer crashed
        during is."""
        i = bisect_left(self.responds, read_op.invoke)
        end = _end(read_op)
        closest = bisect_left(self.invokes, self.invokes[i - 1]) if i else None
        first_crash = max(i, self.crash_lo)
        return (
            None if closest is None else self.writes[closest],
            closest is not None and self.crash_lo <= closest < self.crash_hi,
            i < len(self.invokes) and self.invokes[i] <= end,
            first_crash < self.crash_hi and self.invokes[first_crash] <= end,
        )


def classify_read(
    history: History, read_op: OpRecord, delta: int, writes: WriteIndex | None = None
) -> str:
    """Bounded-delay classification of one read (`writes`: the history's
    index, built here if not given)."""
    closest, closest_crash, concurrent, crash = (writes or WriteIndex(history)).query(read_op)
    if concurrent:
        return INTERFERING_CRASH if crash else INTERFERING
    if closest is None:
        return WLF
    if closest_crash:
        return INTERFERING_CRASH
    if closest.invoke < read_op.invoke - delta:
        return WLF
    return INTERFERING


def classify_read_round(
    history: History, read_op: OpRecord, writes: WriteIndex | None = None
) -> str:
    """Round-synchrony classification: did a writer crash overlap the read."""
    *_, crash = (writes or WriteIndex(history)).query(read_op)
    return ROUND_CRASH if crash else ROUND_NO_CRASH


def bound_for(
    algorithm: str, model: str, op_kind: str, read_class: str | None, unit: int, quorum: int = 2
) -> tuple[str, int] | None:
    """The claimed duration bound for one (algorithm, model, class) cell.
    None means no claim (informational).  `quorum` is n - t; only a quorum
    of 1 changes a cell: a round-synchronous teff write then completes on
    the writer's own WRITE, one round after its invoke."""
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
            return (EQ, unit if quorum == 1 and algorithm != "abd" else 2 * unit)
        if algorithm == "abd":
            return (EQ, 4 * unit)
        if read_class == ROUND_CRASH:
            return (LE, 3 * unit)
        return (EQ, 2 * unit)
    raise ValueError(f"unknown model {model!r}")


def assert_bounds(
    trace: list[TraceEvent], history: History, config: ScenarioConfig
) -> BoundReport:
    """`check_bounds` of the trace's own history, read with `history`'s n."""
    return check_bounds(extract_history(trace, history.n), config)


def check_bounds(history: History, config: ScenarioConfig) -> BoundReport:
    """Check every operation's measured duration against the bound table,
    with the sends `extract_history` charged to it as its messages."""
    model = config.network.kind
    unit = config.network.delta
    quorum = config.n - config.t
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
        claim = bound_for(config.algorithm, model, op.kind, read_class, unit, quorum)
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
            messages=op.messages,
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


def count_messages(trace: Iterable[TraceEvent], history: History) -> dict[int, int]:
    """The sends `extract_history` charges to each op that has any, read
    from `trace` with `history`'s n and any message class."""
    ops = extract_history(trace, history.n).ops
    return {op.op_id: op.messages for op in ops if op.messages}


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
