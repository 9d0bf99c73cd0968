"""Operation histories and the register correctness checkers.

A history is the per-operation view of a trace: invoke/respond times, the
value and sequence number each write produced and each read returned, and
the sends charged to each op.  extract_history is the one pass over a
trace; it keeps no event, so it costs memory by operations, not by events.
It admits only histories of the paper's model: process 1 is the single
writer, and each process invokes an operation only after its previous one
responded, at that tick or later.  So the writes form a chain
w1 < w2 < ... in seqno order, of which only the last may be pending.

One op precedes another if it responded at a tick before the other's
invoke, or if both belong to one process and it came first (program order:
an op invoked at the very tick its predecessor responded still follows it).
Three checkers run over a history:

* check_termination - every operation by a process that never crashed must
  have responded; a crashed process is excused only for its last operation.
* check_claims      - atomicity, judged read by read.  Over a chain of
  writes, a completed read of seqno k is atomic iff it returns the value
  write k wrote (None for k = 0), it does not precede write k, write k+1
  does not precede it, and no read that precedes it returned a higher seqno
  (Lamport, "On interprocess communication", 1986; Gibbons & Korach 1997).
  One sort and one bisection per read: O((R+W) log R).
* check_linearizable - atomicity, by replaying one witness order: the
  clusters that register semantics force, each sorted by response.  It
  shares no code with check_claims and is complete at any size: O(N log N).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from itertools import accumulate
from operator import attrgetter
from typing import Iterable

from .messages import WRITER, AbdAck, AbdQuery, AbdReport, AbdUpdate, Read, State, Write
from .trace import CRASH, DELIVER, INVOKE, RESPOND, SEND, TraceEvent


class Record:
    """Base of the mutable records: a subclass lists its fields in
    `__slots__`; records compare equal field by field, and only within one
    class, repr as `Name(field=value, ...)` and are unhashable."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        fields = attrgetter(*self.__slots__)
        return fields(self) == fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class OpRecord(Record):
    __slots__ = ("op_id", "process", "kind", "invoke", "respond", "value", "seqno", "messages")

    def __init__(
        self,
        op_id: int,
        process: int,
        kind: str,  # "write" | "read"
        invoke: int,
        respond: int | None = None,
        value: bytes | None = None,
        seqno: int | None = None,  # writes: assigned wsn; reads: returned wsn
        messages: int = 0,  # the sends charged to the op
    ):
        self.op_id = op_id
        self.process = process
        self.kind = kind
        self.invoke = invoke
        self.respond = respond
        self.value = value
        self.seqno = seqno
        self.messages = messages

    @property
    def pending(self) -> bool:
        return self.respond is None


class History(Record):
    __slots__ = ("n", "ops", "crashed", "events")

    def __init__(
        self, n: int, ops: list[OpRecord] | None = None, crashed: dict[int, int] | None = None
    ):
        self.n = n
        self.ops = [] if ops is None else ops
        self.crashed = {} if crashed is None else crashed
        self.events = 0  # the trace events it was read from

    def writes(self) -> list[OpRecord]:
        return [op for op in self.ops if op.kind == "write"]

    def reads(self) -> list[OpRecord]:
        return [op for op in self.ops if op.kind == "read"]


class Verdict(Record):
    __slots__ = ("name", "status", "violations")

    def __init__(self, name: str, status: str, violations: list[str] | None = None):
        self.name = name
        self.status = status  # "pass" | "fail"
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "violations": list(self.violations),
            "note": "",  # an empty field that reports keep for compatibility
        }


# How a send is charged to an op, by its message class: through its first
# field (wsn, rsn or opsn) as a write's wsn, as a request from its sender or
# as a reply to its destination.  A run uses one protocol, so READ and ABD
# numbers never share a key.
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


def extract_history(
    trace: Iterable[TraceEvent], n: int | None, classes: Iterable[type] | None = None
) -> History:
    """Rebuild operation records from a trace, in one pass.  The writer's
    k-th write has sequence number k whether or not it completed (the single
    writer increments by one per write), so pending writes still get a
    seqno.  Each send is charged to an op's `messages`: WRITE(s) traffic to
    the s-th write invoked, wherever it was relayed from; a READ(rsn), or an
    ABD phase message (QUERY or UPDATE with phase id opsn), to the op its
    sender last invoked when it first sent that number; and the replies to
    it (STATE(rsn), ACK or REPORT(opsn)) through the number at their
    destination, so both phases of an ABD read charge the read.
    Raises ValueError unless each op is invoked once and responded to at
    most once, after its invoke, by its process and as its kind, a write
    with no value and its own seqno; only p1 writes; each process invokes
    an op only once its previous op has responded, at that tick or later;
    every process and peer lies in p1..pn (with n None, from p1 up: the
    history's n is then its largest op or crash process); a process crashes
    at most once, with no op event of its own after its crash; and every
    message's class is in `classes`, the protocol's `HANDLERS` (None: any)."""
    top = sys.maxsize if n is None else n
    charge = _CHARGE if classes is None else {cls: _CHARGE[cls] for cls in classes}
    hist = History(n=n)
    by_id: dict[int, OpRecord] = {}
    last: dict[int, OpRecord] = {}  # process -> its latest op
    writes: dict[int, OpRecord] = {}  # wsn -> the write that produced it
    owner: dict[tuple[int, int], OpRecord | None] = {}  # (process, rsn/opsn) -> op
    events = 0
    for events, ev in enumerate(trace, 1):
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
            if role == _BY_WSN:
                rec = writes.get(msg[0])
            elif role == _REQUEST:
                rec = owner.setdefault((p, msg[0]), last.get(p))
            else:
                rec = owner.get((peer, msg[0]))
            if rec is not None:
                rec.messages += 1
        elif kind == INVOKE:
            time, _, _, process, op_id, op_kind, value, _, _, _, _ = ev
            if op_id in by_id:
                raise ValueError(f"second invoke of op {op_id}")
            if process < 1:
                raise ValueError(f"invoke of op {op_id} by p{process}; processes start at p1")
            if process > top:
                raise ValueError(f"invoke of op {op_id} by p{process}; processes end at p{n}")
            if process in hist.crashed:
                raise ValueError(f"invoke of op {op_id} by p{process} after its crash")
            prev = last.get(process)
            if prev is not None and (prev.respond is None or time < prev.respond):
                raise ValueError(
                    f"invoke of op {op_id} by p{process} at tick {time}, before its "
                    f"op {prev.op_id} responded"
                )
            rec = OpRecord(op_id, process, op_kind, time, value=value)
            if op_kind == "write":
                if process != WRITER:
                    raise ValueError(f"write op {op_id} by p{process}; only p{WRITER} writes")
                rec.seqno = len(writes) + 1
                writes[rec.seqno] = rec
            by_id[op_id] = last[process] = rec
            hist.ops.append(rec)
        elif kind == RESPOND:
            time, _, _, process, op_id, op_kind, value, seqno, _, _, _ = ev
            rec = by_id.get(op_id)
            if rec is None:
                raise ValueError(f"respond to op {op_id} with no invoke")
            if time < rec.invoke:
                raise ValueError(f"respond to op {op_id} before its invoke")
            if rec.respond is not None:
                raise ValueError(f"second respond to op {op_id}")
            if process in hist.crashed:
                raise ValueError(f"respond to op {op_id} by p{process} after its crash")
            if process != rec.process or op_kind != rec.kind:
                raise ValueError(
                    f"respond to op {op_id} is a {op_kind} by p{process}, "
                    f"but it was invoked as a {rec.kind} by p{rec.process}"
                )
            if rec.kind == "read":
                rec.value, rec.seqno = value, seqno
            elif value is not None or seqno != rec.seqno:
                raise ValueError(
                    f"respond to write op {op_id} carries wsn {seqno} and value {value!r}, "
                    f"but the write has wsn {rec.seqno} and responds with no value"
                )
            rec.respond = time
        elif kind == CRASH:
            process = ev.process
            if process < 1:
                raise ValueError(f"crash of p{process}; processes start at p1")
            if process > top:
                raise ValueError(f"crash of p{process}; processes end at p{n}")
            if process in hist.crashed:
                raise ValueError(f"second crash of p{process}")
            hist.crashed[process] = ev.time
    if n is None:
        hist.n = max([*last, *hist.crashed], default=1)
    hist.events = events
    return hist


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


def check_termination(history: History) -> Verdict:
    """Liveness: operations of never-crashed processes all respond.  A
    process runs one op at a time, so only a faulty process's last op can
    be pending."""
    violations = [
        f"op {op.op_id} ({op.kind} by p{op.process}) never responded "
        f"although p{op.process} is correct"
        for op in history.ops
        if op.pending and op.process not in history.crashed
    ]
    return Verdict("termination", "fail" if violations else "pass", violations)


def _precedence(history: History):
    """The precedence relation over `history`'s ops (module docstring)."""
    position = {id(op): i for i, op in enumerate(history.ops)}

    def precedes(a: OpRecord, b: OpRecord) -> bool:
        return a.respond is not None and (
            a.respond < b.invoke
            or (a.process == b.process and position[id(a)] < position[id(b)])
        )

    return precedes


def check_claims(history: History) -> Verdict:
    """Atomicity, judged read by read against the chain of writes: its
    write, the write after it, and the highest-seqno read that precedes it
    (module docstring)."""
    violations = []
    precedes = _precedence(history)
    writes: dict[int, OpRecord | None] = {w.seqno: w for w in history.writes()}
    writes[0] = None  # the initial value
    reads = [r for r in history.reads() if not r.pending]
    # finished[i]: the highest-seqno read among the first i to respond.
    by_respond = sorted((r for r in reads if r.seqno in writes), key=lambda r: r.respond)
    responds = [r.respond for r in by_respond]
    finished = [None, *accumulate(by_respond, lambda a, b: b if b.seqno > a.seqno else a)]
    own: dict[int, OpRecord] = {}  # process -> its highest-seqno read so far

    for r in reads:  # in history order, so in each process's program order
        k = r.seqno
        if k not in writes:
            violations.append(f"read op {r.op_id} returned seqno {k} which no write produced")
            continue
        w = writes[k]
        expected = None if w is None else w.value
        if r.value != expected:
            violations.append(
                f"read op {r.op_id} (seqno {k}) returned {r.value!r}, not {expected!r}"
            )
        # No read from the future: a read that precedes write k cannot return it.
        if w is not None and precedes(r, w):
            violations.append(
                f"read op {r.op_id} (seqno {k}) finished before "
                f"write op {w.op_id} (seqno {k}) started"
            )
        # No overwritten value: write k+1 preceding the read is a floor.
        nxt = writes.get(k + 1)
        if nxt is not None and precedes(nxt, r):
            violations.append(
                f"read op {r.op_id} (seqno {k}) started after "
                f"write op {nxt.op_id} (seqno {k + 1}) finished"
            )
        # No new/old inversion: the reads that precede this one finished
        # before its invoke or came first in its process.
        before = finished[bisect_left(responds, r.invoke)]
        mine = own.get(r.process)
        if mine is not None and (before is None or mine.seqno > before.seqno):
            before = mine
        if before is not None and before.seqno > k:
            violations.append(
                f"read op {before.op_id} (seqno {before.seqno}) before read op "
                f"{r.op_id} (seqno {k}): new/old inversion"
            )
        if mine is None or k > mine.seqno:
            own[r.process] = r
    return Verdict("claims", "fail" if violations else "pass", violations)


def check_linearizable(history: History) -> Verdict:
    """Atomicity as one witness order, replayed once: the completed reads of
    seqno 0, then each write in seqno order followed by the completed reads
    of its seqno, sorted by (respond, history position).  Pending reads are
    left out; a pending last write stays in.  It passes iff each read
    returns its write's value, no op is placed after an op that responded
    before it was invoked, and each process's ops keep program order.

    Some linearization exists iff this order is valid, so the check is
    complete at any size.  The writes form a chain, so register semantics
    force every linearization into these clusters: the writes in seqno
    order, each read of seqno k between write k and write k+1.  Pending
    reads can be dropped from it, and a pending last write that nothing
    read can join it after the reads of the seqno before (no response, no
    later op of its process).  Within a cluster, a read that precedes
    another responded first, or at the same tick and first in history
    order, so the (respond, position) sort extends precedence.  Sorting
    each cluster of any linearization so gives this order.  O(N log N)."""
    writes = history.writes()  # in seqno order
    clusters: list[list[OpRecord]] = [[] for _ in range(len(writes) + 1)]
    for op in history.ops:
        if op.kind == "read" and not op.pending:
            k = op.seqno
            if k not in range(len(clusters)) or op.value != (writes[k - 1].value if k else None):
                reason = f"read op {op.op_id} returned seqno {k} with value {op.value!r}"
                return Verdict("linearizable", "fail", [f"{reason}, which no write wrote"])
            clusters[k].append(op)
    by_respond = attrgetter("respond")  # a stable sort: ties keep history order
    order = sorted(clusters[0], key=by_respond)
    for w, reads in zip(writes, clusters[1:]):
        order += [w, *sorted(reads, key=by_respond)]

    position = {id(op): i for i, op in enumerate(history.ops)}
    first: OpRecord | None = None  # of the ops placed after op, the first to respond
    later: dict[int, OpRecord] = {}  # process -> its op placed next after op
    for op in reversed(order):
        if first is not None and first.respond < op.invoke:
            return _misplaced(op, first)  # against real time
        mine = later.get(op.process)
        if mine is not None and position[id(mine)] < position[id(op)]:
            return _misplaced(op, mine)  # against program order
        later[op.process] = op
        if op.respond is not None and (first is None or op.respond < first.respond):
            first = op
    return Verdict("linearizable", "pass")


def _misplaced(op: OpRecord, before: OpRecord) -> Verdict:
    reason = (
        f"op {op.op_id} (seqno {op.seqno}) must be placed before op {before.op_id} "
        f"(seqno {before.seqno}), which precedes it"
    )
    return Verdict("linearizable", "fail", [reason])


def checkers_agree(history: History) -> bool:
    """The per-read check and the witness replay reach the same verdict."""
    return check_claims(history).ok == check_linearizable(history).ok
