"""Bounded exhaustive exploration of small instances.

Explores every reachable interleaving of operation invocations and message
deliveries (time-free: asynchrony means any delivery order).  Rather than
walking every interleaving separately, the search exploits that a
configuration's future behavior depends only on the configuration — replica
states, in-flight message multiset, and how many operations each process
has invoked — never on how it was reached.  A depth-first pass visits each
distinct configuration once and computes, bottom-up over the acyclic
configuration graph, the set of operation-history suffixes reachable from it.  The root's
set is then exactly the distinct complete histories, each discovered once.
An op's time sets only its program order: each process invokes its ops by
time, ties in list order, as the engine does.

Each suffix becomes invoke/respond/crash trace events with the record index
as logical time, preserving the invoke/respond precedence order, which is
all the checkers need; the simulator's history builder, extract_history,
turns them into a history.  An optional crash cuts one operation's
initiating broadcast down to a chosen subset of receivers and halts the
invoker there, at that operation's invoke, mirroring a sender dying
mid-broadcast.  The halted invoker takes no step and absorbs every message,
so whether the subset holds it changes nothing.  The result depends on the
instance alone, not on the search order: the histories come sorted by their
label records (None before any bytes).

A configuration is one tuple of interned local components, one per
process: (process, replica state, inbox of the messages addressed to it,
number of operations invoked), Holzmann's collapse compression ("State
compression in SPIN", 1997).  A replica state is an immutable, hashable
value, so it is its own snapshot: the explorer interns it, one object per
distinct state, and keys its memos by it.  Each local resolves its moves
once, the first time a configuration holding it is expanded: per enabled
action (its next invocation, then each distinct inbox entry), the
stepper's next local, the messages it sends the others and the label
records the step adds to the history.  Handlers are pure and read no receiver, so each distinct
(state, input) calls its handler once per exploration, and an add memo
maps (local, message) to a receiver's next local.  Expanding a
configuration walks its locals' moves in one pass: each child swaps only
the locals its move touches, however many messages are in flight, and a
child already explored resolves on the spot.  Suffix-set unions and label
prefixes are memoized as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algos import make_algorithm
from .history import History, extract_history
from .messages import Op
from .trace import CRASH, INVOKE, RESPOND, TraceEvent

DEFAULT_MAX_STATES = 5_000_000


class ExploreLimitError(Exception):
    def __init__(self, max_states: int, visited: int):
        super().__init__(
            f"configuration bound {max_states} exceeded after {visited} configurations"
        )
        self.max_states = max_states
        self.visited = visited


@dataclass(frozen=True)
class BroadcastCrash:
    """Crash the invoker of ops[op_index] during that op's broadcast,
    delivering only to `deliver_to`."""

    op_index: int
    deliver_to: frozenset[int]


@dataclass
class ExploreResult:
    histories: list[History]  # in canonical order
    states_visited: int
    edges: int  # configuration-graph edges: the moves of each explored configuration
    transitions: int  # distinct local transitions: one handler call each
    noop_pruned: int  # distinct (state, message, sender) judged forever-no-op


class _Interner:
    __slots__ = ("ids", "items")

    def __init__(self):
        self.ids: dict = {}
        self.items: list = []

    def get(self, item) -> int:
        ident = self.ids.get(item)
        if ident is None:
            ident = len(self.items)
            self.ids[item] = ident
            self.items.append(item)
        return ident


class _Explorer:
    def __init__(self, algorithm, n, t, ops, crash, max_states):
        self.algo = make_algorithm(algorithm, n, t)
        self.n = n
        self.ops = ops
        self.crash = crash
        self.max_states = max_states
        # Each process's op ids in program order (module docstring).
        self.per_proc: dict[int, tuple[int, ...]] = {p: () for p in range(1, n + 1)}
        for op_id in sorted(range(len(ops)), key=lambda i: ops[i].time):
            self.per_proc[ops[op_id].process] += (op_id,)
        self.msgs = _Interner()
        self.states: dict = {}  # replica state -> the one object equal to it
        # Local components (p, state, inbox, ops invoked) -> id; `locals`
        # holds, per id, its components, and `moves` its moves (see step)
        # once a configuration holding it is expanded.  A halted process's
        # local has state None and no moves.
        self.local_ids: dict[tuple, int] = {}
        self.locals: list[tuple] = []
        self.moves: list[list | None] = []
        self.suffixes = _Interner()  # tuple of history records -> id
        self.suffix_sets = _Interner()  # frozenset of suffix ids -> id
        self.empty_suffix = self.suffixes.get(())
        self.terminal_set = self.suffix_sets.get(frozenset({self.empty_suffix}))
        self.memo: dict[tuple, int] = {}  # configuration -> suffix set id
        # Handler results, keyed (state, mid, sender) or ("i", op_id, state)
        # -> (new state, ((dest, mid), ...), completion).
        self.transitions: dict[tuple, tuple] = {}
        self.adds: dict[tuple[int, int], int] = {}  # (local, entry) -> local
        self.noop_memo: dict[tuple[int, int, int], bool] = {}
        self.edges = 0
        self.label_memo: dict[tuple[tuple, int], int] = {}
        self.union_memo: dict[tuple[int, ...], int] = {}

    # A configuration is the tuple of local ids, one per process.  An inbox
    # entry is mid * n + sender - 1.

    def local(self, p: int, state, inbox: tuple[int, ...], invoked: int) -> int:
        key = (p, state, inbox, invoked)
        ident = self.local_ids.setdefault(key, len(self.locals))
        if ident == len(self.locals):
            self.locals.append(key)
            self.moves.append(None)
        return ident

    def actions(self, ident: int) -> list:
        """A local's enabled actions, in the order its moves are built: the
        next invocation when idle with ops left, then each distinct inbox
        entry."""
        p, state, inbox, invoked = self.locals[ident]
        mine = self.per_proc[p]
        idle = state is not None and not self.algo.has_pending(state)
        actions = [("i", mine[invoked])] if idle and invoked < len(mine) else []
        return actions + [("d", e) for e in dict.fromkeys(inbox)]

    def step(self, ident: int, kind: str, arg: int) -> tuple:
        """One move of a local: (its next local, ((receiver index, entry),
        ...) for the others, the label records it adds to the history)."""
        n = self.n
        p, state, inbox, invoked = self.locals[ident]
        if kind == "i":
            key = ("i", arg, state)
        else:
            mid, sender = arg // n, arg % n + 1
            key = (state, mid, sender)
        trans = self.transitions.get(key)
        if trans is None:
            if kind == "i":
                out = self.algo.begin(state, self.ops[arg])
            else:
                out = self.algo.deliver(state, self.msgs.items[mid], sender)
            sends = tuple((dest, self.msgs.get(msg)) for dest, msg in out.outgoing)
            trans = (self.states.setdefault(out.state, out.state), sends, out.completion)
            self.transitions[key] = trans
        state, sends, completion = trans
        labels = ()
        if kind == "i":
            invoked += 1
            labels = (("i", arg),)
        if completion is not None:
            op_id = self.per_proc[p][invoked - 1]
            labels += (("r", op_id, completion.value, completion.seqno),)
        fanout = [
            (q, mid * n + p - 1)
            for dest, mid in sends
            for q in (range(n) if dest is None else (dest - 1,))
        ]
        if kind == "i" and self.crash is not None and self.crash.op_index == arg:
            # The invoker dies mid-broadcast: only `deliver_to` hears it,
            # and the invoker halts.
            others = tuple(e for e in fanout if e[0] + 1 in self.crash.deliver_to)
            return self.local(p, None, (), invoked), others, labels
        inbox = list(inbox)
        if kind == "d":
            inbox.remove(arg)
        inbox += [e for q, e in fanout if q == p - 1]
        # Drop messages whose delivery became a forever-no-op: they
        # neither branch the behavior nor tell configurations apart.
        kept = sorted(e for e in inbox if not self.noop(state, e // n, e % n + 1))
        others = tuple(e for e in fanout if e[0] != p - 1)
        return self.local(p, state, tuple(kept), invoked), others, labels

    def add(self, ident: int, entry: int) -> int:
        """A process's local once `entry` arrives; unchanged if a no-op or
        if the process has halted."""
        p, state, inbox, invoked = self.locals[ident]
        n = self.n
        if state is None or self.noop(state, entry // n, entry % n + 1):
            added = ident
        else:
            added = self.local(p, state, tuple(sorted(inbox + (entry,))), invoked)
        self.adds[ident, entry] = added
        return added

    def noop(self, state, mid: int, sender: int) -> bool:
        """Memoized is_noop_delivery."""
        key = (state, mid, sender)
        result = self.noop_memo.get(key)
        if result is None:
            result = self.algo.is_noop_delivery(state, self.msgs.items[mid], sender)
            self.noop_memo[key] = result
        return result

    def prepend(self, label: tuple, set_id: int) -> int:
        """Suffix set for an edge with a non-empty label: the label followed
        by each suffix in the set."""
        key = (label, set_id)
        cached = self.label_memo.get(key)
        if cached is None:
            members = frozenset(
                self.suffixes.get(label + self.suffixes.items[s])
                for s in self.suffix_sets.items[set_id]
            )
            cached = self.suffix_sets.get(members)
            self.label_memo[key] = cached
        return cached

    def union(self, set_ids: list[int]) -> int:
        distinct = set(set_ids)
        if len(distinct) == 1:
            return set_ids[0]
        key = tuple(sorted(distinct))
        cached = self.union_memo.get(key)
        if cached is None:
            members = frozenset().union(
                *(self.suffix_sets.items[s] for s in key)
            )
            cached = self.suffix_sets.get(members)
            self.union_memo[key] = cached
        return cached

    def expand(self, node: tuple, label: tuple) -> tuple:
        """A frame for `node`, entered through an edge labelled `label`:
        (node, label, (labels, child) of each child not yet memoized, the
        suffix sets of the edges resolved so far).  A node without moves is
        terminal."""
        moves = self.moves
        adds = self.adds
        memo_get = self.memo.get
        pending = []
        sets = []
        for i, ident in enumerate(node):
            local_moves = moves[ident]
            if local_moves is None:
                local_moves = moves[ident] = [self.step(ident, *a) for a in self.actions(ident)]
            head, tail = node[:i], node[i + 1 :]
            for new_local, sends, labels in local_moves:
                if sends:
                    ids = list(node)
                    ids[i] = new_local
                    for q, entry in sends:
                        ident_q = ids[q]
                        added = adds.get((ident_q, entry))
                        ids[q] = self.add(ident_q, entry) if added is None else added
                    child = tuple(ids)
                else:
                    child = head + (new_local,) + tail
                child_set = memo_get(child)
                if child_set is None:
                    pending.append((labels, child))
                elif labels:
                    sets.append(self.prepend(labels, child_set))
                else:
                    sets.append(child_set)
        # Each move left one entry in pending or in sets.
        self.edges += len(pending) + len(sets)
        return node, label, pending, sets

    def run(self) -> int:
        """Returns the suffix-set id of the root configuration."""
        state = self.algo.init()
        self.states[state] = state
        root = tuple(self.local(p, state, (), 0) for p in range(1, self.n + 1))
        # Iterative post-order DFS.  A frame finishes when every child edge
        # has a resolved suffix set; its own set then flows into its parent
        # (via the edge label it was entered through).  A child still
        # pending may have been memoized since its frame was expanded.
        memo = self.memo
        frames = [self.expand(root, ())]
        while frames:
            node, label, pending, sets = frames[-1]
            while pending:
                labels, child = pending.pop()
                child_set = memo.get(child)
                if child_set is None:
                    break
                sets.append(self.prepend(labels, child_set) if labels else child_set)
            else:
                set_id = self.union(sets) if sets else self.terminal_set
                memo[node] = set_id
                frames.pop()
                if frames:
                    frames[-1][3].append(self.prepend(label, set_id) if label else set_id)
                continue
            if len(memo) + len(frames) > self.max_states:
                raise ExploreLimitError(self.max_states, len(memo))
            frames.append(self.expand(child, labels))
        return memo[root]

def explore(
    algorithm: str,
    n: int,
    t: int,
    ops: list[Op] | tuple[Op, ...],
    *,
    crash: BroadcastCrash | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> ExploreResult:
    ops = tuple(ops)
    if crash is not None and not 0 <= crash.op_index < len(ops):
        raise ValueError(f"crash op_index {crash.op_index} out of range")
    explorer = _Explorer(algorithm, n, t, ops, crash, max_states)
    root_set = explorer.run()
    suffixes = [explorer.suffixes.items[s] for s in explorer.suffix_sets.items[root_set]]
    crash_op = -1 if crash is None else crash.op_index
    return ExploreResult(
        histories=[
            extract_history(_events(s, ops, crash_op), n) for s in sorted(suffixes, key=_order_key)
        ],
        states_visited=len(explorer.memo),
        edges=explorer.edges,
        transitions=len(explorer.transitions),
        noop_pruned=sum(explorer.noop_memo.values()),
    )


def _order_key(records: tuple) -> tuple:
    """The canonical sort key of a suffix: its label records, with each
    respond value v as (v is not None, v or b""), so None sorts first."""
    return tuple(
        (label, op_id, *((r[0] is not None, r[0] or b"", r[1]) if r else ()))
        for label, op_id, *r in records
    )


def _events(records: tuple, ops: tuple[Op, ...], crash_op: int) -> list[TraceEvent]:
    """A suffix's label records as trace events, the record index as time;
    the crash falls on the invoke of ops[crash_op]."""
    events = []
    for step, (label, op_id, *result) in enumerate(records):
        op = ops[op_id]
        if label == "i":
            events.append(TraceEvent(step, step, INVOKE, op.process, op_id, op.kind, op.value))
            if op_id == crash_op:
                events.append(TraceEvent(step, step, CRASH, op.process))
        else:
            events.append(TraceEvent(step, step, RESPOND, op.process, op_id, op.kind, *result))
    return events
