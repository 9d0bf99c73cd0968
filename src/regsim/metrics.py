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

import sys
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

from .config import ScenarioConfig
from .history import History, OpRecord, Record
# Not called here; perfbench/tracer.py wraps regsim.metrics.extract_history by name.
from .history import extract_history  # noqa: F401
from .messages import WRITER, AbdAck, AbdQuery, AbdReport, AbdUpdate, Read, State, Write
from .trace import DELIVER, INVOKE, SEND, TraceEvent

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
    return check_bounds(history, config, count_messages(trace, history))


def check_bounds(history: History, config: ScenarioConfig, counts: dict[int, int]) -> BoundReport:
    """`assert_bounds` with the per-operation message counts given, as
    `count_messages` or `tally_sends` counts them."""
    model = config.network.kind
    unit = config.network.delta
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


# tally_sends' dispatch on the message class: whether a send is charged by
# its first field (wsn, rsn or opsn) as a write's wsn, as a request from its
# sender or as a reply to its destination.  A run uses one protocol, so READ
# and ABD numbers never share a key.
_BY_WSN, _REQUEST, _REPLY = range(3)
_CHARGE = {
    Write: _BY_WSN,
    Read: _REQUEST,
    State: _REPLY,
    AbdQuery: _REQUEST,
    AbdUpdate: _REQUEST,
    AbdAck: _REPLY,
    AbdReport: _REPLY,
}


def count_messages(trace: Iterable[TraceEvent], history: History) -> dict[int, int]:
    """Attribute every point-to-point send to an operation, in one pass
    over the trace: `tally_sends`, with n from `history` and any class.

    WRITE(s) traffic belongs to the s-th write invoked, which produced
    sequence number s, wherever it was relayed from.  A READ(rsn), or an ABD
    phase message (QUERY or UPDATE with phase id opsn), belongs to the op
    its sender last invoked when it first sent that number; the replies to
    it (STATE(rsn), ACK or REPORT(opsn)) are charged through the number at
    their destination.  So both phases of an ABD read charge the read.
    """
    return tally_sends(trace, history.n)[1]


def tally_sends(
    events: Iterable[TraceEvent], n: int | None, classes: Iterable[type] | None = None
) -> tuple[list[TraceEvent], dict[int, int], int]:
    """One pass over `events`, charging sends as `count_messages` says: the
    events other than sends and delivers, in trace order; the sends charged
    to each op; and the number of events.  Raises ValueError on a send or
    deliver whose process or peer lies outside p1..pn (below p1 if n is
    None), or whose message class is not in `classes`, the protocol's
    `HANDLERS` (None: any class)."""
    top = sys.maxsize if n is None else n
    charge = _CHARGE if classes is None else {cls: _CHARGE[cls] for cls in classes}
    latest: dict[int, int] = {}  # process -> the op it last invoked
    owner: dict[tuple[int, int], int | None] = {}  # (process, rsn/opsn) -> op
    writes: dict[int, int] = {}  # wsn -> the write op that produced it
    ops: list[TraceEvent] = []
    by_op: dict[int, int] = {}
    total = 0
    for total, ev in enumerate(events, 1):
        kind = ev.kind
        if kind == DELIVER:
            if 0 < ev.process <= top and 0 < ev.peer <= top and type(ev.message) in charge:
                continue
            raise _foreign(ev, top, charge)
        if kind == SEND:
            p = ev.process
            peer = ev.peer
            msg = ev.message
            role = charge.get(type(msg))
            if role is None or not (0 < p <= top and 0 < peer <= top):
                raise _foreign(ev, top, charge)
            number = msg[0]
            if role == _BY_WSN:
                op_id = writes.get(number)
            elif role == _REQUEST:
                op_id = owner.setdefault((p, number), latest.get(p))
            else:
                op_id = owner.get((peer, number))
            if op_id is not None:
                by_op[op_id] = by_op.get(op_id, 0) + 1
        else:
            ops.append(ev)
            if kind == INVOKE:
                latest[ev.process] = ev.op_id
                if ev.op_kind == "write":
                    writes[len(writes) + 1] = ev.op_id
    return ops, by_op, total


def _foreign(ev: TraceEvent, top: int, charge: dict) -> ValueError:
    """The error for a send or deliver event of a message class not in
    `charge`, or with a process or peer outside p1..p`top`."""
    if type(ev.message) not in charge:
        return ValueError(
            f"{ev.kind} event {ev.seq} carries {ev.message!r}, "
            "a message class the scenario's protocol has no handler for"
        )
    edge = "start at p1" if min(ev.process, ev.peer) < 1 else f"end at p{top}"
    way = "to" if ev.kind == SEND else "from"
    where = f"at p{ev.process} {way} p{ev.peer}"
    return ValueError(f"{ev.kind} event {ev.seq} {where}; processes {edge}")


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
