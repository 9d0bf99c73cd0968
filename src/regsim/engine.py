"""Deterministic discrete-event simulator.

Time is integer ticks.  Local processing takes zero time: an event handler
runs entirely at the tick of the event that triggered it.  Simultaneous
events are ordered by insertion sequence number, so a (config, seed) pair
always produces the same trace byte-for-byte.

Network models assign a per-message delay at send time: "bounded_delay"
draws from [1, Delta] (or follows the pinned schedule), "async" from
[1, Dmax], and "round_sync" uses exactly delta with operation invocations
aligned to round boundaries — which reproduces lock-step rounds where
everything sent at a round's start arrives at its end.

Simultaneous events settle in a fixed order: crashes, then deliveries, then
invocations (ties within a kind by insertion).  Deliveries-before-invocations
is what makes a round boundary behave like "receive everything from round r,
then start round r+1"; crashes-first keeps a crash tick free of any activity
by the crashed process.

Crashes: a crashed process sends, receives, and executes nothing from its
crash tick on.  Messages it sent earlier are still delivered (the crash
stops the process, not the network).  Deliveries addressed to a crashed
process are dropped without trace events.  A during_broadcast crash cuts
the initiating broadcast of one operation down to a chosen subset of
receivers; with a `crash_at` window the process stays responsive until that
tick, which models a writer that fails during an operation yet still
answers requests before dying.  A during_forward crash cuts the relay
broadcast for one write sequence number.

`run(..., messages=False)` leaves SEND and DELIVER events out of the trace
and keeps invoke, respond, crash and round_start: the schedule, every delay
draw and every handler call stay the same, so the operation events (and any
verdict or duration built from them) equal the full trace's.  `sweep` runs
this way; message counts need the full trace.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass

from .algos import make_algorithm
from .config import CrashSpec, NetworkSpec, ScenarioConfig
from .messages import Message, Op, Write
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
    rule that counts (a list or an increasing schedule) or draws (one
    randint per send, in send order) advances only when it is called."""
    if spec.kind == "round_sync":
        return itertools.repeat(spec.delta).__next__
    if spec.schedule_mode == "list":
        delays = spec.schedule_list
        return itertools.chain(delays, itertools.repeat(delays[-1])).__next__
    if spec.schedule_mode == "increasing":
        return itertools.count(spec.schedule_start, spec.schedule_step).__next__
    return functools.partial(rng.randint, 1, spec.delta)


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
        self.op_crash: dict[int, CrashSpec] = {}  # op index -> trigger
        self.fwd_crash: dict[tuple[int, int], CrashSpec] = {}  # (proc, wsn) -> trigger
        self.rounds_marked: set[int] = set()

        for spec in config.crashes:
            if spec.trigger == "at":
                self._push(spec.at, (_CRASH, spec.process))
            elif spec.trigger == "during_broadcast":
                self.op_crash[spec.op_index] = spec
            else:
                self.fwd_crash[(spec.process, spec.forward_wsn)] = spec

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
        trigger = self.op_crash.get(op_id)
        restrict = trigger.deliver_to if trigger is not None else None
        self.pending_op[proc] = op_id
        self._dispatch_sends(time, proc, out.outgoing, restrict)
        if out.completion is not None:
            self._respond(time, proc, out.completion)
        if trigger is not None:
            if trigger.crash_at is None or trigger.crash_at <= time:
                self._kill(time, proc)
            else:
                self._push(trigger.crash_at, (_CRASH, proc))

    def _handle_deliver(self, time: int, dest: int, msg: Message, sender: int) -> None:
        if dest in self.crashed:
            return  # dropped: no events at a crashed process
        if self.messages:
            self._emit(time, DELIVER, dest, None, None, None, None, sender, msg)
        out = self.algo.deliver(self.states[dest], msg, sender)
        self.states[dest] = out.state
        restrict = None
        die_after = False
        for _, out_msg in out.outgoing:
            if isinstance(out_msg, Write):
                trigger = self.fwd_crash.get((dest, out_msg.wsn))
                if trigger is not None:
                    restrict = trigger.deliver_to
                    die_after = True
                    break
        self._dispatch_sends(time, dest, out.outgoing, restrict)
        if out.completion is not None:
            self._respond(time, dest, out.completion)
        if die_after:
            self._kill(time, dest)

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

