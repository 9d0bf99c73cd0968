"""Bounded exhaustive exploration of small instances.

Explores every reachable interleaving of operation invocations and message
deliveries (time-free: asynchrony means any delivery order).  Rather than
walking every interleaving separately, the search exploits that a
configuration's future behavior depends only on the configuration — replica
states, in-flight message multiset, and each process's operation cursor —
never on how it was reached.  A depth-first pass visits each distinct
configuration once and computes, bottom-up over the acyclic configuration
graph, the set of operation-history suffixes reachable from it.  The root's
set is then exactly the distinct complete histories, each discovered once.

Histories use their own record index as logical time, preserving the
invoke/respond precedence order, which is all the checkers need.  An
optional crash cuts one operation's initiating broadcast down to a chosen
subset of receivers and halts the invoker there, mirroring a sender dying
mid-broadcast.

A configuration is one interned local component per process, (process,
snapshot, inbox of the messages addressed to it), plus the operation cursors:
Holzmann's collapse compression ("State compression in SPIN", 1997).
Handlers are pure, so each distinct (process, snapshot, input) calls its
handler once per exploration.  A step memo maps (local, input) to the
stepper's next local, sends and completion, and an add memo maps (local,
message) to a receiver's next local, so an edge costs a few lookups on the
processes it touches, however many messages are in flight.  Suffix-set
unions and label prefixes are memoized as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algos import Op, make_algorithm
from .history import History, OpRecord

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
    n: int
    t: int
    ops: tuple[Op, ...]
    histories: list[History] = field(default_factory=list)
    states_visited: int = 0
    edges: int = 0  # transitions taken, one per configuration-graph edge
    transitions: int = 0  # distinct local transitions: one handler call each
    noop_pruned: int = 0  # distinct (snapshot, message, sender) judged forever-no-op

    def __len__(self) -> int:
        return len(self.histories)


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
    def __init__(self, algorithm, n, t, ops, crash, options, max_states):
        self.algo = make_algorithm(algorithm, n, t, options)
        self.n = n
        self.ops = ops
        self.crash = crash
        self.max_states = max_states
        self.per_proc: dict[int, tuple[int, ...]] = {p: () for p in range(1, n + 1)}
        for op_id, op in enumerate(ops):
            self.per_proc[op.process] += (op_id,)
        self.inv_labels = [
            (("i", op_id, op.process, op.kind, op.value),) for op_id, op in enumerate(ops)
        ]
        if crash is None:
            self.crash_proc = 0
            self.crash_pos = -1
        else:
            self.crash_proc = ops[crash.op_index].process
            self.crash_pos = self.per_proc[self.crash_proc].index(crash.op_index)
        self.msgs = _Interner()
        self.snaps = _Interner()
        # Local components (p, snap, inbox) -> id; `locals` holds, per id,
        # (p, snap, state, inbox, has_pending, ((order key, action), ...)).
        self.local_keys = _Interner()
        self.locals: list[tuple] = []
        self.suffixes = _Interner()  # tuple of history records -> id
        self.suffix_sets = _Interner()  # frozenset of suffix ids -> id
        self.empty_suffix = self.suffixes.get(())
        self.terminal_set = self.suffix_sets.get(frozenset({self.empty_suffix}))
        self.memo: dict[tuple, int] = {}  # configuration -> suffix set id
        # Handler results, keyed (dest, snap, mid, sender) or ("i", op_id,
        # snap) -> (new state, new snap, ((dest, mid), ...), completion).
        # `dest` is in the key because snapshots omit `me`.
        self.transitions: dict[tuple, tuple] = {}
        # (local, "i", op_id) or (local, "d", entry) -> (new local of the
        # stepping process, ((receiver, entry), ...) for the others, completion).
        self.steps: dict[tuple, tuple] = {}
        self.adds: dict[tuple[int, int], int] = {}  # (local, entry) -> local
        self.noop_memo: dict[tuple[int, int, int], bool] = {}
        self.edges = 0
        self.label_memo: dict[tuple[tuple, int], int] = {}
        self.union_memo: dict[tuple[int, ...], int] = {}

    def crashed(self, cursor: tuple[int, ...]) -> int:
        """The halted process, or 0 while every process still runs."""
        if self.crash_proc and cursor[self.crash_proc - 1] > self.crash_pos:
            return self.crash_proc
        return 0

    # A configuration is (locals, cursor): one local id per process and each
    # process's operation cursor.  An inbox entry is mid * n + sender - 1.

    def local(self, p: int, snap_id: int, state, inbox: tuple[int, ...]) -> int:
        ident = self.local_keys.get((p, snap_id, inbox))
        if ident == len(self.locals):
            n = self.n
            # Deliveries are taken in (mid, dest, sender) order.
            order = [
                ((e // n * n + p - 1) * n + e % n, (p, "d", e)) for e in dict.fromkeys(inbox)
            ]
            self.locals.append((p, snap_id, state, inbox, self.algo.has_pending(state), order))
        return ident

    def actions_of(self, node) -> list:
        ids, cursor = node
        crashed = self.crashed(cursor)
        actions, deliveries = [], []
        for p, ident in enumerate(ids, 1):
            if p == crashed:
                continue
            _, _, _, _, pending, order = self.locals[ident]
            idx = cursor[p - 1]
            if idx < len(self.per_proc[p]) and not pending:
                actions.append((p, "i", self.per_proc[p][idx]))
            deliveries += order
        deliveries.sort()
        actions += [action for _, action in deliveries]
        return actions

    def apply(self, node, action):
        """One transition from a node.  Returns (label records, child node)."""
        self.edges += 1
        ids, cursor = node
        p, kind, arg = action
        step = self.steps.get((ids[p - 1], kind, arg))
        if step is None:
            step = self.step(ids[p - 1], kind, arg)
        new_local, sends, completion = step
        if kind == "i":
            cursor = cursor[: p - 1] + (cursor[p - 1] + 1,) + cursor[p:]
            label = self.inv_labels[arg]
        else:
            label = ()
        if completion is not None:
            op_id = self.per_proc[p][cursor[p - 1] - 1]
            label += (("r", op_id, completion.value, completion.seqno),)
        new_ids = list(ids)
        new_ids[p - 1] = new_local
        if sends:
            crashed = self.crashed(cursor)  # a crashed process never handles it
            adds = self.adds
            for q, entry in sends:
                if q != crashed:
                    ident = new_ids[q - 1]
                    added = adds.get((ident, entry))
                    new_ids[q - 1] = self.add(ident, entry) if added is None else added
        return label, (tuple(new_ids), cursor)

    def step(self, ident: int, kind: str, arg: int) -> tuple:
        """The stepping process's side of a transition, memoized per local."""
        n = self.n
        p, snap_id, state, inbox, _, _ = self.locals[ident]
        inbox = list(inbox)
        restrict = None
        if kind == "i":
            key = ("i", arg, snap_id)
            if self.crash is not None and self.crash.op_index == arg:
                restrict = self.crash.deliver_to
                inbox = []  # messages addressed to the dead process go nowhere
        else:
            inbox.remove(arg)
            mid, sender = arg // n, arg % n + 1
            key = (p, snap_id, mid, sender)
        trans = self.transitions.get(key)
        if trans is None:
            if kind == "i":
                out = self.algo.begin(state, self.ops[arg])
            else:
                out = self.algo.deliver(state, self.msgs.items[mid], sender)
            sends = tuple((dest, self.msgs.get(msg)) for dest, msg in out.outgoing)
            trans = (out.state, self.snaps.get(out.state.freeze()), sends, out.completion)
            self.transitions[key] = trans
        state, snap_id, sends, completion = trans
        others = []
        for dest, mid in sends:
            for target in range(1, n + 1) if dest is None else (dest,):
                if restrict is not None and target not in restrict:
                    continue
                if target != p:
                    others.append((target, mid * n + p - 1))
                elif restrict is None:  # a crashing invoker never receives it
                    inbox.append(mid * n + p - 1)
        # Drop messages whose delivery became a forever-no-op: they neither
        # branch the behavior nor tell configurations apart.
        kept = tuple(sorted(e for e in inbox if not self.noop(state, snap_id, e // n, e % n + 1)))
        step = (self.local(p, snap_id, state, kept), tuple(others), completion)
        self.steps[ident, kind, arg] = step
        return step

    def add(self, ident: int, entry: int) -> int:
        """A process's local once `entry` arrives; unchanged if a no-op."""
        p, snap_id, state, inbox, _, _ = self.locals[ident]
        n = self.n
        if self.noop(state, snap_id, entry // n, entry % n + 1):
            added = ident
        else:
            added = self.local(p, snap_id, state, tuple(sorted(inbox + (entry,))))
        self.adds[ident, entry] = added
        return added

    def noop(self, state, snap_id: int, mid: int, sender: int) -> bool:
        """Memoized is_noop_delivery; `snap_id` is the snapshot of `state`."""
        key = (snap_id, mid, sender)
        result = self.noop_memo.get(key)
        if result is None:
            result = self.algo.is_noop_delivery(state, self.msgs.items[mid], sender)
            self.noop_memo[key] = result
        return result

    def prepend(self, label: tuple, set_id: int) -> int:
        """Suffix set for an edge: label followed by each suffix in the set."""
        if not label:
            return set_id
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
        key = tuple(sorted(set(set_ids)))
        if len(key) == 1:
            return key[0]
        cached = self.union_memo.get(key)
        if cached is None:
            members = frozenset().union(
                *(self.suffix_sets.items[s] for s in key)
            )
            cached = self.suffix_sets.get(members)
            self.union_memo[key] = cached
        return cached

    def run(self) -> int:
        """Returns the suffix-set id of the root configuration."""
        locals0 = []
        for p in range(1, self.n + 1):
            state = self.algo.init(p)
            locals0.append(self.local(p, self.snaps.get(state.freeze()), state, ()))
        root = (tuple(locals0), (0,) * self.n)
        # Iterative post-order DFS.  A frame finishes when every child edge
        # has a resolved suffix set; its own set then flows into its parent
        # (via the edge label it was entered through).
        frames = [[root, None, 0, [], None]]
        #          node  acts  idx edges parent_label
        memo = self.memo
        while frames:
            frame = frames[-1]
            actions = frame[1]
            if actions is None:
                actions = frame[1] = self.actions_of(frame[0])
            if frame[2] == len(actions):
                set_id = self.terminal_set if not actions else self.union(frame[3])
                memo[frame[0]] = set_id
                frames.pop()
                if frames:
                    frames[-1][3].append(self.prepend(frame[4], set_id))
                continue
            action = actions[frame[2]]
            frame[2] += 1
            label, child = self.apply(frame[0], action)
            child_set = memo.get(child)
            if child_set is not None:
                frame[3].append(self.prepend(label, child_set))
                continue
            if len(memo) + len(frames) > self.max_states:
                raise ExploreLimitError(self.max_states, len(memo))
            frames.append([child, None, 0, [], label])
        return memo[root]

def explore(
    algorithm: str,
    n: int,
    t: int,
    ops: list[Op] | tuple[Op, ...],
    *,
    crash: BroadcastCrash | None = None,
    options: dict | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> ExploreResult:
    ops = tuple(ops)
    if crash is not None and not 0 <= crash.op_index < len(ops):
        raise ValueError(f"crash op_index {crash.op_index} out of range")
    explorer = _Explorer(algorithm, n, t, ops, crash, options, max_states)
    root_set = explorer.run()
    result = ExploreResult(n=n, t=t, ops=ops)
    result.states_visited = len(explorer.memo)
    result.edges = explorer.edges
    result.transitions = len(explorer.transitions)
    result.noop_pruned = sum(explorer.noop_memo.values())
    crash_proc = ops[crash.op_index].process if crash is not None else None
    for suffix_id in sorted(explorer.suffix_sets.items[root_set]):
        records = explorer.suffixes.items[suffix_id]
        result.histories.append(_history_from(records, crash_proc, n))
    return result


def _history_from(records: tuple, crash_proc: int | None, n: int) -> History:
    hist = History(n=n)
    by_id: dict[int, OpRecord] = {}
    write_count = 0
    for step, rec in enumerate(records):
        if rec[0] == "i":
            _, op_id, p, kind, value = rec
            op = OpRecord(op_id=op_id, process=p, kind=kind, invoke=step, value=value)
            if kind == "write":
                write_count += 1
                op.seqno = write_count
            by_id[op_id] = op
            hist.ops.append(op)
        else:
            _, op_id, value, seqno = rec
            op = by_id[op_id]
            op.respond = step
            op.seqno = seqno
            if op.kind == "read":
                op.value = value
    if crash_proc is not None:
        for step, rec in enumerate(records):
            if rec[0] == "i" and rec[2] == crash_proc:
                hist.crashed[crash_proc] = step
                break
    return hist
