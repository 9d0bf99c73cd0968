"""Bounded exhaustive exploration of small instances.

Explores every reachable interleaving of operation invocations and message
deliveries (time-free: asynchrony means any delivery order).  Rather than
walking every interleaving separately, the search exploits that a
configuration's future behavior depends only on the configuration — replica
states, in-flight message multiset, and how many operations each process
has invoked — never on how it was reached.  One recursive, memoized visit
per configuration computes, bottom-up over the acyclic configuration graph,
the set of operation-history suffixes reachable from it.  The root's set is
then exactly the distinct complete histories, each discovered once.  An
op's time sets only its program order: each process invokes its ops by
time, ties in list order, as the engine does.

Each suffix becomes invoke/respond/crash trace events with the record index
as logical time, preserving the invoke/respond precedence order, which is
all the checkers need; the simulator's history builder, extract_history,
turns them into a history.  The optional crash is a scenario's
`CrashSpec`, of the one kind `explore()` models: an op cut without `at`,
which cuts ops[op_index]'s initiating broadcast down to `deliver_to` and
halts the invoker at that invoke, mirroring a sender dying mid-broadcast.
The halted invoker takes no step and absorbs every message, so whether
`deliver_to` holds it changes nothing.

A configuration is one tuple of interned local components, one per
process: (process, replica state, inbox of the messages addressed to it,
number of operations invoked), Holzmann's collapse compression ("State
compression in SPIN", 1997).  A replica state is a plain tuple of
immutable fields, its own snapshot: the explorer interns it, one object
per distinct state, and keys its memos by it.  Each local resolves its moves
once, the first time a configuration holding it is expanded: per enabled
action (its next invocation, then each distinct inbox entry), the
stepper's next local, the messages it sends the others and the label
records the step adds to the history.  Handlers are pure and read no
receiver, so their results are memoized per distinct (state, input): an
invocation calls `begin` once, and a delivered (state, message, sender)
calls its handler twice, once for the no-op test (`is_noop_delivery`, as
the message arrives) and once for the step (`deliver`).  An add memo maps
(local, message) to a receiver's next local.  Expanding a
configuration walks its locals' moves in one pass: each child swaps only
the locals its move touches, however many messages are in flight, and is
looked up in the configuration memo once.  Suffix-set unions and label
prefixes are memoized as well.

Process symmetry (Ip & Dill, "Better verification through symmetry", FMSD
1996).  No handler reads its receiver, and senders only enter sets of
process ids, so processes with equal op lists are interchangeable: a
permutation of them that fixes the writer p1, the crashing op and the
crash's receivers maps each run onto a run, and each history onto the
history with the permuted processes' op ids swapped.  `explore()` builds the
group of such permutations once (`_symmetries`).  Where a child misses the
memo, each non-identity image of it is looked up before the child is
expanded: the image permutes the locals and relabels each (its process, the
process ids in its state, via the protocol's `relabel`, and its inbox's
senders), memoized per (permutation, local).  An image's suffix set, its op
ids renamed back, is the child's, memoized per (permutation, suffix set).
So one configuration per orbit (the configurations the group maps onto
each other) is expanded and counted.  An instance without a symmetry runs
no mirror code.

Nothing is cached across `explore()` calls: tests swap
`regsim.explore.make_algorithm` for a mutant protocol, which must not be
handed the real protocol's results.  The visit is a method rather than a
closure that refers to itself, which would be a reference cycle keeping
each call's memos alive until a collector pass.
"""

from __future__ import annotations

import sys
from itertools import permutations, product
from math import factorial, prod
from typing import NamedTuple

from .algos import make_algorithm
from .config import ConfigError, CrashSpec
from .history import History, extract_history
from .messages import WRITER, Op
from .trace import CRASH, INVOKE, RESPOND, TraceEvent

DEFAULT_MAX_STATES = 5_000_000
# The most process permutations tried per missed configuration; a larger
# symmetry group is cut to a subgroup (see _symmetries).
MAX_SYMMETRIES = 120


class ExploreLimitError(Exception):
    """The search outgrew a bound: the instance has more than `max_states`
    configurations (`visited` were finished when the next one would pass
    the bound), or, when `recursion_limit` is given, a search path deeper
    than the interpreter's recursion limit."""

    def __init__(self, max_states: int, visited: int, recursion_limit: int | None = None):
        if recursion_limit is None:
            message = f"configuration bound {max_states} exceeded after {visited} configurations"
        else:
            message = (
                f"search path deeper than the recursion limit {recursion_limit} "
                f"after {visited} configurations"
            )
        super().__init__(message)
        self.max_states = max_states
        self.visited = visited


def BroadcastCrash(op_index: int, deliver_to) -> CrashSpec:
    """The op cut that crashes the invoker of ops[op_index] during that op's
    broadcast, delivering only to `deliver_to` (any iterable of process
    ids): the `CrashSpec` of a during_broadcast crash without crash_at."""
    return CrashSpec(None, op_index=op_index, deliver_to=frozenset(deliver_to))


class ExploreResult(NamedTuple):
    histories: list[History]  # in canonical order
    states_visited: int  # configurations expanded: one per orbit
    edges: int  # configuration-graph edges: the moves of each explored configuration
    transitions: int  # distinct local transitions: one begin or deliver call each
    noop_pruned: int  # distinct (state, message, sender) whose handler returns None


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


def _program_order(n: int, ops: tuple[Op, ...]) -> dict[int, tuple[int, ...]]:
    """Each process's op ids in program order (module docstring)."""
    per_proc: dict[int, tuple[int, ...]] = {p: () for p in range(1, n + 1)}
    for op_id in sorted(range(len(ops)), key=lambda i: ops[i].time):
        per_proc[ops[op_id].process] += (op_id,)
    return per_proc


def _symmetries(n: int, ops: tuple[Op, ...], crash: CrashSpec | None) -> list[tuple]:
    """The instance's process symmetries other than the identity, each as a
    tuple `perm` with perm[p] the image of process p (perm[0] unused).  A
    symmetry fixes p1, whose ops `begin` checks against WRITER, and the
    crashing op's invoker; maps each process's op list (kinds and values in
    program order) onto its image's; and maps the crash's receivers other
    than the invoker onto themselves.  The group is the product of the
    symmetric groups of these interchangeable classes; while it has more
    than MAX_SYMMETRIES elements, the largest class leaves its highest
    process fixed, which keeps a subgroup and so a sound reduction."""
    per_proc = _program_order(n, ops)
    fixed = {WRITER}
    cut = frozenset()
    if crash is not None:
        invoker = ops[crash.op_index].process
        fixed.add(invoker)
        cut = crash.deliver_to - {invoker}
    classes: dict[tuple, list[int]] = {}
    for p in range(1, n + 1):
        if p not in fixed:
            kinds = tuple((ops[i].kind, ops[i].value) for i in per_proc[p])
            classes.setdefault((kinds, p in cut), []).append(p)
    groups = [c for c in classes.values() if len(c) > 1]
    while prod(factorial(len(c)) for c in groups) > MAX_SYMMETRIES:
        max(groups, key=len).pop()
    identity = tuple(range(n + 1))
    perms = []
    for images in product(*(permutations(c) for c in groups)):
        perm = list(identity)
        for members, image in zip(groups, images):
            for p, q in zip(members, image):
                perm[p] = q
        if tuple(perm) != identity:
            perms.append(tuple(perm))
    return perms


class _Explorer:
    def __init__(self, algorithm, n, t, ops, crash, max_states, symmetries):
        self.algo = make_algorithm(algorithm, n, t)
        self.n = n
        self.ops = ops
        self.crash = crash
        self.max_states = max_states
        self.per_proc = _program_order(n, ops)
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
        # Per symmetry: (perm, the configuration index each image slot takes
        # its local from, local -> image local, image op id -> op id).
        self.mirrors: list[tuple] = []
        for perm in symmetries:
            source = tuple(sorted(range(n), key=lambda k: perm[k + 1]))
            back = {}
            for p, mine in self.per_proc.items():
                back.update(zip(self.per_proc[perm[p]], mine))
            self.mirrors.append((perm, source, {}, back))
        self.rename_memo: dict[tuple[int, int], int] = {}  # (symmetry, set) -> set

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
            state, outgoing, completion = out
            sends = tuple((dest, self.msgs.get(msg)) for dest, msg in outgoing)
            trans = (self.states.setdefault(state, state), sends, completion)
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
        """Memoized is_noop_delivery: the handler's None, a no-op forever."""
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

    def visit(self, node: tuple, depth: int) -> int:
        """The suffix-set id of `node`, the `depth`-th configuration on the
        search path, which no memo holds yet.  A node without moves is
        terminal."""
        moves = self.moves
        adds = self.adds
        memo = self.memo
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
                child_set = memo.get(child)
                if child_set is None:
                    # The one miss site: an explored image, else a visit.
                    if self.mirrors:
                        child_set = self.mirror(child)
                    if child_set is None:
                        if len(memo) + depth >= self.max_states:  # counting the child
                            raise ExploreLimitError(self.max_states, len(memo))
                        child_set = self.visit(child, depth + 1)
                sets.append(self.prepend(labels, child_set) if labels else child_set)
        self.edges += len(sets)
        set_id = self.union(sets) if sets else self.terminal_set
        memo[node] = set_id
        return set_id

    def mirror(self, node: tuple) -> int | None:
        """The suffix-set id of `node` from an explored image of it under a
        symmetry, or None when no image is explored."""
        memo = self.memo
        for g, (_, source, images, _) in enumerate(self.mirrors):
            try:
                image = tuple([images[node[k]] for k in source])
            except KeyError:
                image = tuple([self.image(g, node[k]) for k in source])
            set_id = memo.get(image)
            if set_id is not None:
                return self.rename(g, set_id)
        return None

    def image(self, g: int, ident: int) -> int:
        """The local `ident` under symmetry g: its process, the process ids
        in its state and its inbox's senders relabelled."""
        perm, _, images, _ = self.mirrors[g]
        found = images.get(ident)
        if found is None:
            n = self.n
            p, state, inbox, invoked = self.locals[ident]
            if state is not None:
                state = self.algo.relabel(state, perm)
                state = self.states.setdefault(state, state)
            inbox = tuple(sorted(e - e % n + perm[e % n + 1] - 1 for e in inbox))
            found = images[ident] = self.local(perm[p], state, inbox, invoked)
        return found

    def rename(self, g: int, set_id: int) -> int:
        """An image's suffix set with its op ids renamed back under
        symmetry g: the suffix set of the configuration it is the image of."""
        key = (g, set_id)
        cached = self.rename_memo.get(key)
        if cached is None:
            back = self.mirrors[g][3]
            members = frozenset(
                self.suffixes.get(
                    tuple((label, back[op_id], *r) for label, op_id, *r in self.suffixes.items[s])
                )
                for s in self.suffix_sets.items[set_id]
            )
            cached = self.suffix_sets.get(members)
            self.rename_memo[key] = cached
        return cached

    def run(self) -> int:
        """Returns the suffix-set id of the root configuration."""
        if self.max_states < 1:
            raise ExploreLimitError(self.max_states, 0)
        state = self.algo.init()
        self.states[state] = state
        root = tuple(self.local(p, state, (), 0) for p in range(1, self.n + 1))
        return self.visit(root, 1)


def explore(
    algorithm: str,
    n: int,
    t: int,
    ops: list[Op] | tuple[Op, ...],
    *,
    crash: CrashSpec | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> ExploreResult:
    """Every distinct history of `ops` on `algorithm` with n processes, t of
    them allowed to crash, and at most the one crash `crash`.

    The histories come sorted by their label records (None before any
    bytes), so the list depends on the instance alone.  Without a process
    symmetry so do all four counts.  Under one (module docstring), the
    configurations are counted per orbit and the edges per expanded
    configuration, so they are still free of the search order; the
    transitions and no-op prunes depend on which member of each orbit is
    expanded.  Raises ExploreLimitError when the instance has more than
    `max_states` configurations (the bound counts finished ones, those on
    the search path and the one about to be visited) or a path deeper than
    the recursion limit; before the search, ConfigError on a crash other
    than an op cut without `at` (module docstring), and ValueError on an op
    process, crash op or crash receiver out of range.
    """
    ops = tuple(ops)
    for i, op in enumerate(ops):
        if not 1 <= op.process <= n:
            raise ValueError(f"op {i}'s process {op.process} outside 1..{n}")
    if crash is not None:
        if crash.op_index is None or crash.at is not None:
            raise ConfigError(
                "explore models a crash only as a during_broadcast cut without crash_at"
            )
        if not 0 <= crash.op_index < len(ops):
            raise ValueError(f"crash op_index {crash.op_index} out of range")
        # As the engine reads it: None is every process, else any iterable.
        receivers = range(1, n + 1) if crash.deliver_to is None else crash.deliver_to
        crash = crash._replace(deliver_to=frozenset(receivers))
        outside = sorted(p for p in crash.deliver_to if not 1 <= p <= n)
        if outside:
            raise ValueError(f"crash deliver_to {outside} outside 1..{n}")
    explorer = _Explorer(algorithm, n, t, ops, crash, max_states, _symmetries(n, ops, crash))
    try:
        root_set = explorer.run()
    except RecursionError:
        raise ExploreLimitError(
            max_states, len(explorer.memo), sys.getrecursionlimit()
        ) from None
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
