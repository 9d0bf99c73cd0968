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

Configurations, messages, suffixes, and suffix sets are all interned to
small integers.  Handlers are pure, so each distinct local transition
(process, snapshot, input) calls its handler once per exploration and every
other edge reuses the result; the dominant costs are the per-edge tuple work
and set unions (memoized, so repeated (label, child-set) combinations are
free).
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
        if crash is None:
            self.crash_proc = 0
            self.crash_pos = -1
        else:
            self.crash_proc = ops[crash.op_index].process
            self.crash_pos = self.per_proc[self.crash_proc].index(crash.op_index)
        self.msgs = _Interner()
        self.snaps = _Interner()
        self.suffixes = _Interner()  # tuple of history records -> id
        self.suffix_sets = _Interner()  # frozenset of suffix ids -> id
        self.empty_suffix = self.suffixes.get(())
        self.terminal_set = self.suffix_sets.get(frozenset({self.empty_suffix}))
        self.memo: dict[tuple, int] = {}  # config key -> suffix set id
        # Local transitions, keyed (dest, snap, mid, sender) or ("i", op_id,
        # snap) -> (new state, new snap, ((dest, mid), ...), completion).
        # `dest` is in the key because snapshots omit `me`.
        self.transitions: dict[tuple, tuple] = {}
        self.noop_memo: dict[tuple[int, int, int], bool] = {}
        self.edges = 0
        self.label_memo: dict[tuple[tuple, int], int] = {}
        self.union_memo: dict[tuple[int, ...], int] = {}

    def crashed_by(self, cursor: tuple[int, ...]) -> frozenset[int]:
        if self.crash is not None and cursor[self.crash_proc - 1] > self.crash_pos:
            return frozenset({self.crash_proc})
        return frozenset()

    # In-flight entries are packed ints: ((mid * n) + dest-1) * n + sender-1.

    def _unpack(self, entry: int) -> tuple[int, int, int]:
        entry, sender = divmod(entry, self.n)
        mid, dest = divmod(entry, self.n)
        return dest + 1, sender + 1, mid

    def actions_of(self, states, inflight, cursor) -> list:
        crashed = self.crashed_by(cursor)
        actions = []
        for p in range(1, self.n + 1):
            if p in crashed:
                continue
            idx = cursor[p - 1]
            if idx < len(self.per_proc[p]) and not self.algo.has_pending(states[p - 1]):
                actions.append(("inv", self.per_proc[p][idx]))
        for entry in dict.fromkeys(inflight):
            actions.append(("dlv", entry))
        return actions

    def apply(self, node, action):
        """One transition from a node (snap_ids, states, inflight, cursor).
        Returns (label records, child node)."""
        self.edges += 1
        snap_ids, states, inflight, cursor = node
        new_inflight = list(inflight)
        restrict = None
        if action[0] == "inv":
            op_id = action[1]
            op = self.ops[op_id]
            p = op.process
            key = ("i", op_id, snap_ids[p - 1])
            cursor = cursor[: p - 1] + (cursor[p - 1] + 1,) + cursor[p:]
            label: tuple = (("i", op_id, p, op.kind, op.value),)
            if self.crash is not None and self.crash.op_index == op_id:
                restrict = self.crash.deliver_to
                # In-flight messages addressed to the dead process go nowhere.
                dead = p - 1
                n = self.n
                new_inflight = [e for e in new_inflight if (e // n) % n != dead]
        else:
            entry = action[1]
            p, sender, mid = self._unpack(entry)
            new_inflight.remove(entry)
            key = (p, snap_ids[p - 1], mid, sender)
            label = ()
        trans = self.transitions.get(key)
        if trans is None:
            if action[0] == "inv":
                out = self.algo.begin(states[p - 1], op)
            else:
                out = self.algo.deliver(states[p - 1], self.msgs.items[mid], sender)
            sends = tuple((dest, self.msgs.get(msg)) for dest, msg in out.outgoing)
            trans = (out.state, self.snaps.get(out.state.freeze()), sends, out.completion)
            self.transitions[key] = trans
        state, snap_id, sends, completion = trans
        if completion is not None:
            op_id = self.per_proc[p][cursor[p - 1] - 1]
            label += (("r", op_id, completion.value, completion.seqno),)
        changed_idx = p - 1
        new_states, new_snaps = list(states), list(snap_ids)
        new_states[changed_idx], new_snaps[changed_idx] = state, snap_id
        self.queue_sends(
            new_inflight, new_states, new_snaps, p, sends, restrict, self.crashed_by(cursor)
        )
        # Discard messages whose delivery became a forever-no-op: they
        # neither branch the behavior nor tell configurations apart.  Only
        # `p` got a new state; queue_sends screened fresh entries.
        noop = self.noop
        n = self.n
        kept = [
            e
            for e in new_inflight
            if (e // n) % n != changed_idx or not noop(state, snap_id, e // (n * n), e % n + 1)
        ]
        kept.sort()
        return label, (tuple(new_snaps), new_states, tuple(kept), cursor)

    def noop(self, state, snap_id: int, mid: int, sender: int) -> bool:
        """Memoized is_noop_delivery; `snap_id` is the snapshot of `state`."""
        key = (snap_id, mid, sender)
        result = self.noop_memo.get(key)
        if result is None:
            result = self.algo.is_noop_delivery(state, self.msgs.items[mid], sender)
            self.noop_memo[key] = result
        return result

    def queue_sends(
        self, inflight: list, states: list, snaps: list, sender: int, sends, restrict, crashed
    ) -> None:
        n = self.n
        noop = self.noop
        for dest, mid in sends:
            targets = range(1, n + 1) if dest is None else (dest,)
            for target in targets:
                if restrict is not None and target not in restrict:
                    continue
                if target in crashed:
                    continue  # a crashed process never handles it; skip the branch
                if noop(states[target - 1], snaps[target - 1], mid, sender):
                    continue
                inflight.append(((mid * n) + target - 1) * n + sender - 1)

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
        init_states = [self.algo.init(p) for p in range(1, self.n + 1)]
        cursor0 = (0,) * self.n
        snaps0 = tuple(self.snaps.get(s.freeze()) for s in init_states)
        root = (snaps0, init_states, (), cursor0)
        root_key = (snaps0, (), cursor0)
        # Iterative post-order DFS.  A frame finishes when every child edge
        # has a resolved suffix set; its own set then flows into its parent
        # (via the edge label it was entered through).
        frames = [[root_key, root, None, 0, [], None]]
        #          key       node  acts  idx edges parent_label
        memo = self.memo
        while frames:
            frame = frames[-1]
            actions = frame[2]
            if actions is None:
                node = frame[1]
                actions = self.actions_of(node[1], node[2], node[3])
                frame[2] = actions
            if frame[3] == len(actions):
                set_id = self.terminal_set if not actions else self.union(frame[4])
                memo[frame[0]] = set_id
                frames.pop()
                if frames:
                    frames[-1][4].append(self.prepend(frame[5], set_id))
                continue
            action = actions[frame[3]]
            frame[3] += 1
            label, child = self.apply(frame[1], action)
            c_key = (child[0], child[2], child[3])
            child_set = memo.get(c_key)
            if child_set is not None:
                frame[4].append(self.prepend(label, child_set))
                continue
            if len(memo) + len(frames) > self.max_states:
                raise ExploreLimitError(self.max_states, len(memo))
            frames.append([c_key, child, None, 0, [], label])
        return memo[root_key]


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
