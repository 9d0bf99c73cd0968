"""Deterministic discrete-event simulator.

Time is integer ticks.  Local processing takes zero time: an event handler
runs entirely at the tick of the event that triggered it.  Simultaneous
events settle in a fixed order, crashes, then deliveries, then invocations,
each kind in the order queued, so a (config, seed) pair always produces the
same trace byte-for-byte.  Deliveries-before-invocations is what makes a
round boundary behave like "receive everything from round r, then start
round r+1"; crashes-first keeps a crash tick free of any activity by the
crashed process.

The queue is a calendar queue: a heap holds each tick with something queued
once, and that tick's bucket holds its crashes, deliveries and invocations
in three lists.  One loop pops a tick and runs the lists in turn: a
delivery inline, an invocation or a crash through a method, as those are
rare.  Nothing is ever queued for the tick in hand (every delay is at least
1, a cut's later crash goes to its later tick, and every invocation is
queued before the run), so a bucket keeps its order.  A delivery to a live
process is traced (DELIVER) and then makes one call, to the handler the
algorithm's `HANDLERS` table names for the message's class; when the
handler returns None the delivery goes no further: no new state, no send
or completion.  Such a delivery still counts against the event budget, one
count per queued item, and still appears in the trace.

Every send gets its delay from one rule, which config.py builds from the
network: pinned delays in send order, each send after the last pinned one
`step` slower than the one before, or, with nothing pinned, a draw from
[1, delta] (Dmax or Delta).  A draw is `random.randint(1, delta)`'s
rejection sampling over `getrandbits(delta.bit_length())`, so the seed's
stream of delays is randint's.  "round_sync" pins every delay to delta and
aligns operation invocations to round boundaries — which reproduces
lock-step rounds where everything sent at a round's start arrives at its
end.

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

The loop hands its events out in chunks, each cut at a tick boundary once
it holds at least a given number of events, and each made only when the
consumer asks for it; `seq` is a running count over the whole run.
`chunks()` streams a run this way, so `regsim run` holds one chunk at a
time, however long the run.  `run()` is the same loop with one unbounded
chunk: the whole trace as a list.

`run(..., messages=False)` leaves SEND and DELIVER events out of the trace
and keeps invoke, respond, crash and round_start: the schedule, every delay
draw and every handler call stay the same, so the operation events (and any
verdict or duration built from them) equal the full trace's.  `sweep` runs
this way; message counts need the full trace.
"""

from __future__ import annotations

import heapq
import random
import sys
from itertools import chain, count
from typing import Iterator, NamedTuple

from . import trace
from .algos import make_algorithm
from .config import CrashSpec, NetworkSpec, ScenarioConfig
from .messages import Message, Op, OpResult
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

# The fewest events of a streamed chunk but its last: a chunk is cut at the
# first tick boundary once it holds this many.
CHUNK_EVENTS = 4096

# A tick's lists, in the order they settle.
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


class RunResult(NamedTuple):
    trace: list[TraceEvent]
    crashed: dict[int, int]  # process -> crash tick
    seed: int


def _delay_rule(spec: NetworkSpec, rng: random.Random):
    """The network's per-send delay, as an iterator's `__next__` picked once
    per run; it advances only when it is called, in send order."""
    if spec.delays is None:
        return _draws(rng, spec.delta).__next__
    *head, last = spec.delays
    return chain(head, count(last, spec.step)).__next__


def _draws(rng: random.Random, delta: int):
    """`rng.randint(1, delta)`, one per item, by randint's own rejection
    sampling: the same `getrandbits` calls, so the same values and the same
    generator state afterwards, without randint's call chain per draw."""
    bits = delta.bit_length()
    getrandbits = rng.getrandbits
    while True:
        r = getrandbits(bits)
        while r >= delta:
            r = getrandbits(bits)
        yield r + 1


class _Sim:
    def __init__(self, config: ScenarioConfig, seed: int, budget: int, messages: bool):
        self.config = config
        self.budget = budget
        self.messages = messages
        self.algo = make_algorithm(config.algorithm, config.n, config.t)
        self.states = {p: self.algo.init() for p in range(1, config.n + 1)}
        self.delay = _delay_rule(config.network, random.Random(seed))
        self.round = config.network.kind == "round_sync"
        self.delta = config.network.delta
        self.chunk: list[TraceEvent] = []  # the events not yet handed out
        self.seq = count()
        # tick -> (crashes, deliveries, invocations): lists of (process,
        # message, sender) in the order queued; a crash has neither, an
        # invocation its op id for a message.  `ticks` is a heap of its keys.
        self.queue: dict[int, tuple[list, list, list]] = {}
        self.ticks: list[int] = []
        self.crashed: dict[int, int] = {}
        self.pending_op: dict[int, int] = {}  # process -> op id
        self.op_cuts: dict[int, CrashSpec] = {}  # op id -> cut
        self.relay_cuts: dict[tuple[int, Message], CrashSpec] = {}  # (proc, msg) -> cut

        for spec in config.crashes:
            if spec.op_index is not None:
                self.op_cuts[spec.op_index] = spec
            elif spec.relay is not None:
                self.relay_cuts[(spec.process, spec.relay)] = spec
            else:
                self._bucket(spec.at)[_CRASH].append((spec.process, None, None))

        for op_id, op in enumerate(config.ops):
            self._bucket(self._op_time(op))[_INV].append((op.process, op_id, None))

    def _op_time(self, op: Op) -> int:
        if self.round:
            return ((op.time + self.delta - 1) // self.delta) * self.delta
        return op.time

    def _bucket(self, time: int) -> tuple[list, list, list]:
        """The bucket of `time`, opened on first use."""
        bucket = self.queue.get(time)
        if bucket is None:
            bucket = self.queue[time] = ([], [], [])
            heapq.heappush(self.ticks, time)
        return bucket

    def _emit(self, time: int, kind: str, process: int, *fields) -> None:
        """Append one event; `fields` follow TraceEvent's field order."""
        self.chunk.append(TraceEvent(time, next(self.seq), kind, process, *fields))

    def chunks(self, size: int) -> Iterator[list[TraceEvent]]:
        """The run's events, in chunks cut at the first tick boundary once
        they hold `size` events, and a last chunk (maybe empty) at the end."""
        # SEND and DELIVER events are built from regsim.trace's class, so a
        # wrapper on this module's TraceEvent sees only `_emit`'s op events.
        # Handlers are bound here, not at import, so that wrappers on the
        # algorithm's methods see every call.  The handler table is a local:
        # held by the algorithm, its bound methods would make a cycle per run.
        new, event = tuple.__new__, trace.TraceEvent
        algo = self.algo
        handlers = {cls: getattr(algo, name) for cls, name in algo.HANDLERS.items()}
        queue, chunk, states, crashed = self.queue, self.chunk, self.states, self.crashed
        ticks, pop, append, seq = self.ticks, heapq.heappop, chunk.append, self.seq.__next__
        delay, budget, relay_cuts = self.delay, self.budget, self.relay_cuts
        messages, rounds, delta = self.messages, self.round, self.delta
        everyone = range(1, self.config.n + 1)
        processed = 0
        while ticks:
            time = pop(ticks)
            start = processed
            if rounds and time % delta == 0:  # each tick is popped once
                self._emit(time, ROUND_START, 0, None, None, None, None, None, None, time // delta)
            for proc, msg, sender in chain(*queue[time]):
                processed += 1
                if processed > budget:  # queued: this item and all after it
                    queued = sum(map(len, chain.from_iterable(queue.values())))
                    raise BudgetExceededError(budget, queued - (processed - 1 - start))
                if proc in crashed:
                    continue  # a crashed process receives, invokes, crashes nothing
                if sender is None:
                    if msg is None:
                        self._kill(time, proc)
                        continue
                    (state, outgoing, completion), cut = self._invoke(time, msg)
                else:
                    if messages:
                        append(new(event, (time, seq(), DELIVER, proc, None, None, None,
                                           None, sender, msg, None)))
                    out = handlers[type(msg)](states[proc], msg, sender)
                    if out is None:
                        continue
                    state, outgoing, completion = out
                    cut = None
                    if relay_cuts:
                        for _, out_msg in outgoing:
                            cut = relay_cuts.get((proc, out_msg))
                            if cut is not None:
                                break
                states[proc] = state
                restrict = None if cut is None else cut.deliver_to
                for dest, out_msg in outgoing:
                    for target in everyone if dest is None else (dest,):
                        if restrict is not None and target not in restrict:
                            continue
                        if messages:
                            append(new(event, (time, seq(), SEND, proc, None, None, None,
                                               None, target, out_msg, None)))
                        at = time + delay()
                        bucket = queue.get(at) or self._bucket(at)
                        bucket[_DLV].append((target, out_msg, proc))
                if completion is not None or cut is not None:
                    self._finish(time, proc, completion, cut)
            del queue[time]
            if len(chunk) >= size:
                yield chunk
                chunk = self.chunk = []
                append = chunk.append
        yield chunk

    def _invoke(self, time: int, op_id: int):
        """Begin op `op_id` at its live process: (handler output, the op's
        cut)."""
        op = self.config.ops[op_id]
        proc = op.process
        if proc in self.pending_op:
            raise ScheduleError(
                f"op {op_id} on p{proc} at t={time} while op "
                f"{self.pending_op[proc]} is still pending"
            )
        out = self.algo.begin(self.states[proc], op)
        self._emit(time, INVOKE, proc, op_id, op.kind, op.value if op.kind == "write" else None)
        self.pending_op[proc] = op_id
        return out, self.op_cuts.get(op_id)

    def _finish(self, time: int, proc: int, completion: OpResult | None,
                cut: CrashSpec | None) -> None:
        """After a step's sends: its response, then a cut halts the process
        now, or at `at` if that is later."""
        if completion is not None:
            op_id = self.pending_op.pop(proc)
            op = self.config.ops[op_id]
            self._emit(time, RESPOND, proc, op_id, op.kind, completion.value, completion.seqno)
        if cut is not None:
            if cut.at is None or cut.at <= time:
                self._kill(time, proc)
            else:
                self._bucket(cut.at)[_CRASH].append((proc, None, None))

    def _kill(self, time: int, proc: int) -> None:
        self.crashed[proc] = time
        self._emit(time, CRASH, proc)


def run(
    config: ScenarioConfig,
    seed: int | None = None,
    budget: int = DEFAULT_EVENT_BUDGET,
    messages: bool = True,
) -> RunResult:
    """Execute a scenario.  `seed`, if given, replaces the config's seed; with
    `messages=False` the trace holds no SEND/DELIVER events."""
    effective_seed = config.seed if seed is None else seed
    sim = _Sim(config, effective_seed, budget, messages)
    (events,) = sim.chunks(sys.maxsize)
    return RunResult(events, sim.crashed, effective_seed)


def chunks(
    config: ScenarioConfig, seed: int | None = None, budget: int = DEFAULT_EVENT_BUDGET
) -> Iterator[list[TraceEvent]]:
    """The full trace of `run(config, seed, budget)`, made as it is consumed,
    in chunks cut at tick boundaries once they hold `CHUNK_EVENTS` events."""
    return _Sim(config, config.seed if seed is None else seed, budget, True).chunks(CHUNK_EVENTS)

