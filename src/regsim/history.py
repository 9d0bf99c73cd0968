"""Operation histories and the register correctness checkers.

A history is the per-operation view of a trace: invoke/respond times, the
value and sequence number each write produced and each read returned.
Three checkers run over it:

* check_termination - every operation by a process that never crashed must
  have responded; a crashed process is excused only for its last operation.
* check_claims      - pairwise sequence-number checks over non-overlapping
  operations: no read returns a value newer than all writes that started
  after it finished, no read returns a value older than a write that
  finished before it started, and no later read returns an older value than
  an earlier read.
* check_linearizable - brute-force search for a total order that extends
  real-time precedence in which every read returns the closest preceding
  write (or the initial value).  Exponential, intended for small histories;
  it is the independent cross-check for check_claims.

Reads carry (value, seqno) pairs internally so equal values written twice
stay distinguishable; callers surface only the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trace import CRASH, INVOKE, RESPOND, TraceEvent

LINEARIZE_MAX_OPS = 9


@dataclass
class OpRecord:
    op_id: int
    process: int
    kind: str  # "write" | "read"
    invoke: int
    respond: int | None = None
    value: bytes | None = None
    seqno: int | None = None  # writes: assigned wsn; reads: returned wsn

    @property
    def pending(self) -> bool:
        return self.respond is None


@dataclass
class History:
    n: int
    ops: list[OpRecord] = field(default_factory=list)
    crashed: dict[int, int] = field(default_factory=dict)

    def writes(self) -> list[OpRecord]:
        return [op for op in self.ops if op.kind == "write"]

    def reads(self) -> list[OpRecord]:
        return [op for op in self.ops if op.kind == "read"]


@dataclass
class Verdict:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    violations: list[str] = field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "violations": list(self.violations),
            "note": self.note,
        }


def extract_history(trace: list[TraceEvent], n: int) -> History:
    """Rebuild operation records from a trace.  The writer's k-th write has
    sequence number k whether or not it completed (the single writer
    increments by one per write), so pending writes still get a seqno."""
    hist = History(n=n)
    by_id: dict[int, OpRecord] = {}
    write_count = 0
    for ev in trace:
        if ev.kind == INVOKE:
            rec = OpRecord(
                op_id=ev.op_id,
                process=ev.process,
                kind=ev.op_kind,
                invoke=ev.time,
                value=ev.value,
            )
            if ev.op_kind == "write":
                write_count += 1
                rec.seqno = write_count
            by_id[ev.op_id] = rec
            hist.ops.append(rec)
        elif ev.kind == RESPOND:
            rec = by_id.get(ev.op_id)
            if rec is None:
                raise ValueError(f"respond to op {ev.op_id} with no invoke")
            rec.respond = ev.time
            rec.seqno = ev.seqno
            if rec.kind == "read":
                rec.value = ev.value
        elif ev.kind == CRASH:
            hist.crashed[ev.process] = ev.time
    return hist


def check_termination(history: History) -> Verdict:
    """Liveness: operations of never-crashed processes all respond; a faulty
    process is excused for (only) the last operation it invoked."""
    violations = []
    last_invoked: dict[int, int] = {}
    for op in history.ops:
        last_invoked[op.process] = op.op_id
    for op in history.ops:
        if not op.pending:
            continue
        if op.process not in history.crashed:
            violations.append(
                f"op {op.op_id} ({op.kind} by p{op.process}) never responded "
                f"although p{op.process} is correct"
            )
        elif last_invoked[op.process] != op.op_id:
            violations.append(
                f"op {op.op_id} by faulty p{op.process} is pending but is not "
                f"its last operation"
            )
    return Verdict("termination", "fail" if violations else "pass", violations)


def check_claims(history: History) -> Verdict:
    """Pairwise atomicity claims; "before" means responded strictly before
    the other op's invoke."""
    violations = []
    writes = history.writes()
    reads = [r for r in history.reads() if not r.pending]
    known = {0} | {w.seqno for w in writes}
    for r in reads:
        if r.seqno not in known:
            violations.append(
                f"read op {r.op_id} returned seqno {r.seqno} which no write produced"
            )

    # No read from the future: a read finishing before a write starts must
    # return something older than that write.
    for r in reads:
        for w in writes:
            if r.respond < w.invoke and not r.seqno < w.seqno:
                violations.append(
                    f"read op {r.op_id} (seqno {r.seqno}) finished before "
                    f"write op {w.op_id} (seqno {w.seqno}) started"
                )
    # No overwritten values: a write finishing before a read starts is a floor.
    for w in writes:
        if w.pending:
            continue
        for r in reads:
            if w.respond < r.invoke and not w.seqno <= r.seqno:
                violations.append(
                    f"read op {r.op_id} (seqno {r.seqno}) started after "
                    f"write op {w.op_id} (seqno {w.seqno}) finished"
                )
    # No new/old inversion between non-overlapping reads.
    for a in reads:
        for b in reads:
            if a is not b and a.respond < b.invoke and not a.seqno <= b.seqno:
                violations.append(
                    f"read op {a.op_id} (seqno {a.seqno}) before read op "
                    f"{b.op_id} (seqno {b.seqno}): new/old inversion"
                )
    return Verdict("claims", "fail" if violations else "pass", violations)


def check_linearizable(history: History, max_ops: int = LINEARIZE_MAX_OPS) -> Verdict:
    """Search for a witness sequence.  Pending operations may be placed or
    left out (a crashed write may or may not have taken effect)."""
    completed = [op for op in history.ops if not op.pending]
    pending = [op for op in history.ops if op.pending]
    if len(completed) + len(pending) > max_ops:
        return Verdict(
            "linearizable",
            "skipped",
            note=f"history has more than {max_ops} ops; rely on check_claims",
        )
    if _linearize(completed, pending):
        return Verdict("linearizable", "pass")
    return Verdict(
        "linearizable",
        "fail",
        ["no total order consistent with real time and register semantics"],
    )


def _linearize(completed: list[OpRecord], pending: list[OpRecord]) -> bool:
    ops = completed + pending

    def precedes(a: OpRecord, b: OpRecord) -> bool:
        return a.respond is not None and a.respond < b.invoke

    preds: dict[int, list[int]] = {id(op): [] for op in ops}
    for a in ops:
        for b in ops:
            if a is not b and precedes(a, b):
                preds[id(b)].append(id(a))

    placed: set[int] = set()
    must_place = {id(op) for op in completed}

    def step(last_wsn: int, remaining: list[OpRecord]) -> bool:
        if all(id(op) not in must_place for op in remaining):
            return True  # the rest are pending ops that may not have taken effect
        for i, op in enumerate(remaining):
            if any(p not in placed for p in preds[id(op)]):
                continue
            if op.kind == "write":
                new_wsn = op.seqno
            else:
                if op.seqno != last_wsn:
                    continue
                new_wsn = last_wsn
            placed.add(id(op))
            ok = step(new_wsn, remaining[:i] + remaining[i + 1 :])
            placed.discard(id(op))
            if ok:
                return True
        return False

    return step(0, ops)


def checkers_agree(history: History) -> bool:
    """The cheap checker and the brute-force oracle must reach the same
    verdict on any history small enough for both."""
    claims = check_claims(history)
    lin = check_linearizable(history)
    if lin.status == "skipped":
        return True
    return claims.ok == lin.ok
