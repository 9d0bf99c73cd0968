"""Deterministic discrete-event simulator.

Time is integer ticks.  Local processing takes zero time: an event handler
runs entirely at the tick of the event that triggered it.  Simultaneous
events are ordered by insertion sequence number, so a (config, seed) pair
always produces the same trace byte-for-byte.

Every send gets its delay from one rule, which config.py builds from the
network: pinned delays in send order, each send after the last pinned one
`step` slower than the one before, or, with nothing pinned, a draw from
[1, delta] (Dmax or Delta).  "round_sync" pins every delay to delta and
aligns operation invocations to round boundaries — which reproduces
lock-step rounds where everything sent at a round's start arrives at its
end.

Simultaneous events settle in a fixed order: crashes, then deliveries, then
invocations (ties within a kind by insertion).  Deliveries-before-invocations
is what makes a round boundary behave like "receive everything from round r,
then start round r+1"; crashes-first keeps a crash tick free of any activity
by the crashed process.

Crashes: a crashed process sends, receives, and executes nothing from its
crash tick on.  Messages it sent earlier are still delivered (the crash
stops the process, not the network).  Deliveries addressed to a crashed
process are dropped without trace events.  Every crash is one rule, a
`CrashSpec`: the process halts at `at`, or its step that invokes
`op_index` or broadcasts the `relay` message is cut: that step's sends
reach only `deliver_to`, and the process halts then, or at `at` if that is
later.  A later `at` keeps the process responsive until that tick, which
models a writer that fails during an operation yet still answers requests
before dying.  The engine matches a relay as a message it never reads.

`run(..., messages=False)` leaves SEND and DELIVER events out of the trace
and keeps invoke, respond, crash and round_start: the schedule, every delay
draw and every handler call stay the same, so the operation events (and any
verdict or duration built from them) equal the full trace's.  `sweep` runs
this way; message counts need the full trace.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain, count

from .algos import make_algorithm
from .config import CrashSpec, NetworkSpec, ScenarioConfig
from .messages import HandlerOutput, Message, Op
from .trace import (
    CRASH,
    DELIVER,
    INVOKE,
    RESPOND,
    ROUND_START,
    SEND,
    TraceEvent,
)

DEFAULT_EVENT_BUDGET = 1_000_000

# Heap priority at equal times; also the event kind discriminator.
_CRASH, _DLV, _INV = 0, 1, 2


class ScheduleError(Exception):
    """An operation triggered while the process's previous one was pending."""


class BudgetExceededError(Exception):
    """The event budget ran out; distinguishes a runaway simulation from
    ordinary protocol non-termination (which just leaves ops pending)."""

    def __init__(self, budget: int, queued: int):
        super().__init__(
            f"event budget {budget} exhausted with {queued} events still queued"
        )
        self.budget = budget
        self.queued = queued


@dataclass
class RunResult:
    trace: list[TraceEvent]
    crashed: dict[int, int]  # process -> crash tick
    seed: int


def _delay_rule(spec: NetworkSpec, rng: random.Random):
    """The network's per-send delay, as a callable picked once per run.  A
    pinned rule counts and a drawn one takes one randint per send, in send
    order; each advances only when it is called."""
    if spec.delays is None:
        return partial(rng.randint, 1, spec.delta)
    *head, last = spec.delays
    return chain(head, count(last, spec.step)).__next__


class _Sim:
    def __init__(self, config: ScenarioConfig, seed: int, budget: int, messages: bool):
        self.config = config
        self.seed = seed
        self.budget = budget
        self.messages = messages
        self.algo = make_algorithm(config.algorithm, config.n, config.t)
        self.states = {p: self.algo.init() for p in range(1, config.n + 1)}
        self.delay = _delay_rule(config.network, random.Random(seed))
        self.round = config.network.kind == "round_sync"
        self.delta = config.network.delta
        self.trace: list[TraceEvent] = []
        self.heap: list = []
        self.insert_seq = 0
        self.crashed: dict[int, int] = {}
        self.pending_op: dict[int, int] = {}  # process -> op id
        self.op_cuts: dict[int, CrashSpec] = {}  # op id -> cut
        self.relay_cuts: dict[tuple[int, Message], CrashSpec] = {}  # (proc, msg) -> cut
        self.rounds_marked: set[int] = set()

        for spec in config.crashes:
            if spec.op_index is not None:
                self.op_cuts[spec.op_index] = spec
            elif spec.relay is not None:
                self.relay_cuts[(spec.process, spec.relay)] = spec
            else:
                self._push(spec.at, (_CRASH, spec.process))

        for op_id, op in enumerate(config.ops):
            self._push(self._op_time(op), (_INV, op_id))

    def _op_time(self, op: Op) -> int:
        if self.round:
            return ((op.time + self.delta - 1) // self.delta) * self.delta
        return op.time

    def _push(self, time: int, item) -> None:
        heapq.heappush(self.heap, (time, item[0], self.insert_seq, item))
        self.insert_seq += 1

    def _emit(self, time: int, kind: str, process: int, *fields) -> None:
        """Append one event; `fields` follow TraceEvent's field order."""
        self.trace.append(TraceEvent(time, len(self.trace), kind, process, *fields))

    def _mark_round(self, time: int) -> None:
        if not self.round or time % self.delta != 0:
            return
        rnd = time // self.delta
        if rnd not in self.rounds_marked:
            self.rounds_marked.add(rnd)
            self._emit(time, ROUND_START, 0, None, None, None, None, None, None, rnd)

    def run(self) -> RunResult:
        processed = 0
        while self.heap:
            processed += 1
            if processed > self.budget:
                raise BudgetExceededError(self.budget, len(self.heap))
            time, _, _, item = heapq.heappop(self.heap)
            self._mark_round(time)
            if item[0] == _INV:
                self._handle_invoke(time, item[1])
            elif item[0] == _DLV:
                self._handle_deliver(time, item[1], item[2], item[3])
            else:
                self._handle_crash(time, item[1])
        return RunResult(self.trace, self.crashed, self.seed)

    def _handle_invoke(self, time: int, op_id: int) -> None:
        op = self.config.ops[op_id]
        proc = op.process
        if proc in self.crashed:
            return  # a crashed process invokes nothing
        if proc in self.pending_op:
            raise ScheduleError(
                f"op {op_id} on p{proc} at t={time} while op "
                f"{self.pending_op[proc]} is still pending"
            )
        out = self.algo.begin(self.states[proc], op)
        self.states[proc] = out.state
        self._emit(time, INVOKE, proc, op_id, op.kind, op.value if op.kind == "write" else None)
        self.pending_op[proc] = op_id
        self._finish(time, proc, out, self.op_cuts.get(op_id))

    def _handle_deliver(self, time: int, dest: int, msg: Message, sender: int) -> None:
        if dest in self.crashed:
            return  # dropped: no events at a crashed process
        if self.messages:
            self._emit(time, DELIVER, dest, None, None, None, None, sender, msg)
        out = self.algo.deliver(self.states[dest], msg, sender)
        self.states[dest] = out.state
        cut = None
        if self.relay_cuts:
            for _, out_msg in out.outgoing:
                cut = self.relay_cuts.get((dest, out_msg))
                if cut is not None:
                    break
        self._finish(time, dest, out, cut)

    def _finish(self, time: int, proc: int, out: HandlerOutput, cut: CrashSpec | None) -> None:
        """Send a step's messages (a cut step's to `deliver_to` only) and its
        response; a cut then halts the process now, or at `at` if later."""
        restrict = None if cut is None else cut.deliver_to
        self._dispatch_sends(time, proc, out.outgoing, restrict)
        if out.completion is not None:
            self._respond(time, proc, out.completion)
        if cut is not None:
            if cut.at is None or cut.at <= time:
                self._kill(time, proc)
            else:
                self._push(cut.at, (_CRASH, proc))

    def _handle_crash(self, time: int, proc: int) -> None:
        if proc not in self.crashed:
            self._kill(time, proc)

    def _kill(self, time: int, proc: int) -> None:
        self.crashed[proc] = time
        self._emit(time, CRASH, proc)

    def _dispatch_sends(
        self,
        time: int,
        sender: int,
        outgoing,
        restrict: frozenset[int] | None,
    ) -> None:
        for dest, msg in outgoing:
            if dest is None:
                targets = range(1, self.config.n + 1)
            else:
                targets = (dest,)
            for target in targets:
                if restrict is not None and target not in restrict:
                    continue
                if self.messages:
                    self._emit(time, SEND, sender, None, None, None, None, target, msg)
                self._push(time + self.delay(), (_DLV, target, msg, sender))

    def _respond(self, time: int, proc: int, result) -> None:
        op_id = self.pending_op.pop(proc)
        op = self.config.ops[op_id]
        self._emit(time, RESPOND, proc, op_id, op.kind, result.value, result.seqno)


def run(
    config: ScenarioConfig,
    seed: int | None = None,
    budget: int = DEFAULT_EVENT_BUDGET,
    messages: bool = True,
) -> RunResult:
    """Execute a scenario.  `seed`, if given, replaces the config's seed; with
    `messages=False` the trace holds no SEND/DELIVER events."""
    effective_seed = config.seed if seed is None else seed
    return _Sim(config, effective_seed, budget, messages).run()

