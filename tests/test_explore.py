"""Exhaustive exploration of small instances: the oracle for the protocol."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import regsim.explore
from regsim.abd import AbdReplicaState
from regsim.algos import Op, make_algorithm
from regsim.cli import main
from regsim.config import ConfigError, CrashSpec, NetworkSpec, load_scenario, parse_scenario
from regsim.engine import run
from regsim.explore import (
    DEFAULT_MAX_STATES,
    BroadcastCrash,
    ExploreLimitError,
    _events,
    _Explorer,
    explore,
)
from regsim.history import (
    check_claims,
    check_linearizable,
    check_termination,
    checkers_agree,
    extract_history,
)
from regsim.messages import ProtocolError, Write
from regsim.teff import ReplicaState
from regsim.trace import CRASH, INVOKE, RESPOND

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

WRITE_A = Op(1, "write", b"a")
READ2 = Op(2, "read")
READ3 = Op(3, "read")


def op_of(history, kind, process=None):
    return next(
        o
        for o in history.ops
        if o.kind == kind and (process is None or o.process == process)
    )


def test_no_ops_single_empty_history():
    res = explore("teff", 3, 1, [])
    assert len(res.histories) == 1
    assert res.histories[0].ops == []


def test_single_write_completes_everywhere():
    res = explore("teff", 3, 1, [WRITE_A])
    assert len(res.histories) == 1
    (h,) = res.histories
    write = op_of(h, "write")
    assert write.respond is not None and write.seqno == 1


def test_write_and_read_all_histories_atomic():
    res = explore("teff", 3, 1, [WRITE_A, READ2])
    assert res.states_visited > 1000
    assert len(res.histories) == 10
    outcomes = set()
    for h in res.histories:
        assert check_termination(h).ok
        assert check_claims(h).ok
        assert check_linearizable(h).ok
        assert checkers_agree(h)
        read = op_of(h, "read")
        outcomes.add((read.value, read.seqno))
    # Concurrency allows both the old and the new value.
    assert outcomes == {(None, 0), (b"a", 1)}


@pytest.mark.parametrize("variant", ["teff", "teff-modified"])
def test_writer_crash_subsets_small(variant):
    for subset in [frozenset(), frozenset({2}), frozenset({2, 3})]:
        res = explore(variant, 3, 1, [WRITE_A, READ2], crash=BroadcastCrash(0, subset))
        for h in res.histories:
            assert check_termination(h).ok  # the writer is faulty, reads finish
            assert check_claims(h).ok
            assert check_linearizable(h).ok
            assert checkers_agree(h)
            assert op_of(h, "write").pending  # the truncated write never responds


def test_empty_subset_loses_the_value():
    res = explore("teff", 3, 1, [WRITE_A, READ2], crash=BroadcastCrash(0, frozenset()))
    reads = {op_of(h, "read").seqno for h in res.histories}
    assert reads == {0}


def test_full_subset_can_return_either_value():
    res = explore(
        "teff", 3, 1, [WRITE_A, READ2], crash=BroadcastCrash(0, frozenset({1, 2, 3}))
    )
    reads = {op_of(h, "read").seqno for h in res.histories}
    assert reads == {0, 1}


def test_abd_explored_histories_atomic():
    res = explore("abd", 3, 1, [WRITE_A, READ2])
    assert len(res.histories) >= 3
    for h in res.histories:
        assert check_claims(h).ok
        assert check_linearizable(h).ok
        assert checkers_agree(h)


def test_modified_variant_same_outcomes_on_small_instance():
    base = explore("teff", 3, 1, [WRITE_A, READ2])
    modified = explore("teff-modified", 3, 1, [WRITE_A, READ2])
    as_tuples = lambda res: {
        tuple((o.kind, o.invoke, o.respond, o.seqno) for o in h.ops)
        for h in res.histories
    }
    assert as_tuples(base) == as_tuples(modified)


def test_state_bound_raises_with_partial_count():
    with pytest.raises(ExploreLimitError) as err:
        explore("teff", 3, 1, [WRITE_A, READ2, READ3], max_states=500)
    assert err.value.max_states == 500
    assert err.value.visited > 0


def test_state_bound_admits_exactly_max_states_configurations():
    # w:1,r:2 has 4,803 configurations (PINNED): explore() succeeds iff its
    # configuration count is at most max_states, the root counting too.
    assert explore("teff", 3, 1, [WRITE_A, READ2], max_states=4803).states_visited == 4803
    with pytest.raises(ExploreLimitError, match="^configuration bound 4802 exceeded"):
        explore("teff", 3, 1, [WRITE_A, READ2], max_states=4802)
    assert explore("teff", 3, 1, [], max_states=1).states_visited == 1
    with pytest.raises(ExploreLimitError):
        explore("teff", 3, 1, [], max_states=0)
    # The command line takes the same bound; messages-teff-n3.json is w:1,r:2.
    config = str(SCENARIOS / "messages-teff-n3.json")
    assert main(["explore", config, "--max-states", "4802"]) == 3
    assert main(["explore", config, "--max-states", "4803"]) == 0


def test_edge_and_transition_counts_are_deterministic():
    first = explore("teff", 3, 1, [WRITE_A, READ2])
    second = explore("teff", 3, 1, [WRITE_A, READ2])
    assert first.states_visited < first.edges
    assert first.transitions < first.edges
    assert (second.edges, second.transitions) == (first.edges, first.transitions)


def test_histories_are_unique():
    res = explore("teff", 3, 1, [WRITE_A, READ2])
    keys = [
        tuple((o.op_id, o.invoke, o.respond, o.seqno) for o in h.ops)
        for h in res.histories
    ]
    assert len(keys) == len(set(keys))


def _canon(history) -> str:
    """Every op field and the crash step of one history, as JSON."""
    return json.dumps(
        [
            [
                [o.op_id, o.process, o.kind, o.invoke, o.respond,
                 o.value and o.value.decode(), o.seqno]
                for o in history.ops
            ],
            sorted(history.crashed.items()),
        ]
    )


def history_set_digest(histories) -> str:
    """sha256 of the sorted history set."""
    return hashlib.sha256("\n".join(sorted(map(_canon, histories))).encode()).hexdigest()


def history_list_digest(histories) -> str:
    """sha256 of the history list in the order given."""
    return hashlib.sha256("\n".join(map(_canon, histories)).encode()).hexdigest()


def crash_of(mask):
    """The write's broadcast cut to the processes whose bit p-1 is set."""
    if mask is None:
        return None
    return BroadcastCrash(0, frozenset(p for p in (1, 2, 3) if mask >> (p - 1) & 1))


# History-set digests of w:1,r:2 at n=3, t=1: no crash; the write's
# broadcast reaches neither reader; it reaches p2, p3 or both.
BOTH_READS = "e079563a45bea04b96243807c81c6e0ccec9501f55010215c5ed44b86d35569b"
VALUE_LOST = "bfcd52bced424c194fcb00735e5e556ed8d6a756af1b755aa7b10399c7f41c46"
VALUE_REACHES = "739783bcd7598ce925b04f91f756ba06881470cbf54502593bbadb65ee569986"

# (algorithm, crash mask) -> (configurations, edges, transitions, history-set
# digest); mask bit p-1 set means the write reaches process p.  Configurations
# and digests were taken from the explorer before the local-transition memo
# existed, edges from the first explorer that memoized transitions over
# whole-configuration tuples, and transitions from the first explorer that
# keyed a delivery by (snapshot, message, sender) alone.  Masks m and m|1 agree
# on everything: the crashing writer halts and never hears its own broadcast.
PINNED = {
    ("teff", None): (4803, 30054, 256, BOTH_READS),
    ("teff", 0): (49, 120, 16, VALUE_LOST),
    ("teff", 1): (49, 120, 16, VALUE_LOST),
    ("teff", 2): (364, 1194, 110, VALUE_REACHES),
    ("teff", 3): (364, 1194, 110, VALUE_REACHES),
    ("teff", 4): (369, 1193, 112, VALUE_REACHES),
    ("teff", 5): (369, 1193, 112, VALUE_REACHES),
    ("teff", 6): (693, 2936, 192, VALUE_REACHES),
    ("teff", 7): (693, 2936, 192, VALUE_REACHES),
    ("teff-modified", None): (4634, 29384, 214, BOTH_READS),
    ("teff-modified", 0): (49, 120, 16, VALUE_LOST),
    ("teff-modified", 1): (49, 120, 16, VALUE_LOST),
    ("teff-modified", 2): (318, 1029, 87, VALUE_REACHES),
    ("teff-modified", 3): (318, 1029, 87, VALUE_REACHES),
    ("teff-modified", 4): (365, 1209, 103, VALUE_REACHES),
    ("teff-modified", 5): (365, 1209, 103, VALUE_REACHES),
    ("teff-modified", 6): (624, 2657, 154, VALUE_REACHES),
    ("teff-modified", 7): (624, 2657, 154, VALUE_REACHES),
    ("abd", None): (6078, 29373, 183, BOTH_READS),
    ("abd", 0): (207, 655, 34, VALUE_LOST),
    ("abd", 1): (207, 655, 34, VALUE_LOST),
    ("abd", 2): (327, 1014, 88, VALUE_REACHES),
    ("abd", 3): (327, 1014, 88, VALUE_REACHES),
    ("abd", 4): (327, 1014, 57, VALUE_REACHES),
    ("abd", 5): (327, 1014, 57, VALUE_REACHES),
    ("abd", 6): (592, 1937, 120, VALUE_REACHES),
    ("abd", 7): (592, 1937, 120, VALUE_REACHES),
}


@pytest.mark.parametrize("alg,mask", list(PINNED), ids=str)
def test_pinned_configurations_and_histories(alg, mask):
    res = explore(alg, 3, 1, [WRITE_A, READ2], crash=crash_of(mask))
    digest = history_set_digest(res.histories)
    assert (res.states_visited, res.edges, res.transitions, digest) == PINNED[alg, mask]


# Digests of the history list in the order explore() returns it, the
# canonical order of the histories' label records, for no crash and for the
# write reaching p2 only.  The three algorithms reach the same history sets,
# so they list them in the same order.
BOTH_READS_ORDER = "7adac8a307a943ab12e9014d765287e62d71700318e83cbb7eb9be9346d7e816"
P2_ONLY_ORDER = "d09c1290c188a94aee52f56ce325462784e60dab457e6969f8834df26217cb44"
ORDERED = {
    (alg, mask): BOTH_READS_ORDER if mask is None else P2_ONLY_ORDER
    for alg in ("teff", "teff-modified", "abd")
    for mask in (None, 2)
}


@pytest.mark.parametrize("alg,mask", list(ORDERED), ids=str)
def test_pinned_history_order(alg, mask):
    res = explore(alg, 3, 1, [WRITE_A, READ2], crash=crash_of(mask))
    assert history_list_digest(res.histories) == ORDERED[alg, mask]


# w:1,r:2,r:2 with the write's broadcast cut to p2: p2 runs two ops, so the
# counts cover a process's operation cursor.  Taken from the explorer that
# kept the cursors beside the locals; the three algorithms reach the same
# history list.
READ2_TWICE = {
    "teff": (1456, 5555, 237, 122),
    "teff-modified": (1480, 5920, 195, 92),
    "abd": (4077, 18536, 224, 192),
}
READ2_TWICE_ORDER = "94725bdeeec4e838424c0bd3aae8bc8557c2140e845ff75135ddd40d300a3842"


@pytest.mark.parametrize("alg", list(READ2_TWICE))
def test_pinned_two_ops_on_one_process(alg):
    res = explore(alg, 3, 1, [WRITE_A, READ2, READ2], crash=crash_of(2))
    counts = (res.states_visited, res.edges, res.transitions, res.noop_pruned)
    assert counts == READ2_TWICE[alg]
    assert len(res.histories) == 11
    assert history_list_digest(res.histories) == READ2_TWICE_ORDER


# w:1,r:2,r:3 with the write's broadcast cut to p2 or to p2 and p3: the
# instance of criterion 1's crash cases.  (configurations, edges,
# transitions, history-set digest), taken from the explorer that memoized
# each local step by (local, action); all four cases reach the same 82
# histories.
THREE_OPS_REACHED = "6672adaffed0178b01c97f8554c05c7e142abeb7bd4cc0388bbb9aa4ec3e867c"
THREE_OPS = {
    ("teff", 2): (18519, 94617, 218, THREE_OPS_REACHED),
    ("teff", 6): (36908, 224607, 334, THREE_OPS_REACHED),
    ("teff-modified", 2): (15978, 82081, 174, THREE_OPS_REACHED),
    ("teff-modified", 6): (29755, 182047, 262, THREE_OPS_REACHED),
}


def unreduced(monkeypatch):
    """Explore without process symmetry from here on: the group builder
    finds none."""
    monkeypatch.setattr(regsim.explore, "_symmetries", lambda n, ops, crash: [])


@pytest.mark.parametrize("alg,mask", list(THREE_OPS), ids=str)
def test_pinned_write_and_two_readers(alg, mask, monkeypatch):
    # The pins count every configuration: mask 6 reaches p2 and p3 alike,
    # so the reduced search would count each mirror pair once.
    unreduced(monkeypatch)
    res = explore(alg, 3, 1, [WRITE_A, READ2, READ3], crash=crash_of(mask))
    digest = history_set_digest(res.histories)
    assert (res.states_visited, res.edges, res.transitions, digest) == THREE_OPS[alg, mask]


# The same instances under process symmetry: (configurations, edges).  Mask
# 2 has none (only p2 hears the write); at mask 6, p2 and p3 swap.
THREE_OPS_REDUCED = {
    ("teff", 2): THREE_OPS["teff", 2][:2],
    ("teff", 6): (18538, 112774),
    ("teff-modified", 2): THREE_OPS["teff-modified", 2][:2],
    ("teff-modified", 6): (14952, 91433),
}


@pytest.mark.parametrize("alg,mask", list(THREE_OPS_REDUCED), ids=str)
def test_pinned_write_and_two_readers_reduced(alg, mask):
    res = explore(alg, 3, 1, [WRITE_A, READ2, READ3], crash=crash_of(mask))
    assert (res.states_visited, res.edges) == THREE_OPS_REDUCED[alg, mask]
    assert history_set_digest(res.histories) == THREE_OPS_REACHED


# Every pinned instance and criterion 1's 18 (w:1,r:2,r:3 on both teff
# variants, without a crash and with each of the 8 cuts).  PINNED holds
# the ORDERED instances, and criterion 1's the THREE_OPS ones.
REDUCTION_CASES = (
    [(alg, "wr", mask) for alg, mask in PINNED]
    + [(alg, "wr2r2", 2) for alg in READ2_TWICE]
    + [(alg, "wrr", mask) for alg in ("teff", "teff-modified") for mask in [None, *range(8)]]
)
REDUCTION_OPS = {
    "wr": [WRITE_A, READ2],
    "wr2r2": [WRITE_A, READ2, READ2],
    "wrr": [WRITE_A, READ2, READ3],
}


@pytest.mark.parametrize("alg,ops,mask", REDUCTION_CASES, ids=str)
def test_symmetry_reduction_keeps_the_histories(alg, ops, mask, monkeypatch):
    reduced = explore(alg, 3, 1, REDUCTION_OPS[ops], crash=crash_of(mask))
    unreduced(monkeypatch)
    full = explore(alg, 3, 1, REDUCTION_OPS[ops], crash=crash_of(mask))
    assert list(map(_canon, reduced.histories)) == list(map(_canon, full.histories))
    assert reduced.states_visited <= full.states_visited
    assert reduced.edges <= full.edges


def test_symmetries_of_criterion_1():
    # p2 and p3 read once each: they swap unless the cut tells them apart.
    swap = (0, 1, 3, 2)
    ops = (WRITE_A, READ2, READ3)
    assert regsim.explore._symmetries(3, ops, None) == [swap]
    for mask in range(8):
        expected = [swap] if mask >> 1 & 1 == mask >> 2 & 1 else []
        assert regsim.explore._symmetries(3, ops, crash_of(mask)) == expected
    # A second read, a different value or the crashing op pins a process.
    assert regsim.explore._symmetries(3, (WRITE_A, READ2, READ2), None) == []
    assert regsim.explore._symmetries(3, (WRITE_A, READ2), None) == []
    assert regsim.explore._symmetries(3, ops, BroadcastCrash(1, frozenset({3}))) == []
    # n=4, w:1,r:2: the idle p3 and p4 swap.
    assert regsim.explore._symmetries(4, (WRITE_A, READ2), None) == [(0, 1, 2, 4, 3)]


def test_a_large_symmetry_group_is_cut_to_a_subgroup():
    # p2..p15 are idle: 14! permutations, cut to at most MAX_SYMMETRIES.
    perms = regsim.explore._symmetries(15, (WRITE_A,), None)
    assert 1 < len(perms) + 1 <= regsim.explore.MAX_SYMMETRIES
    assert len(set(perms)) == len(perms)
    assert explore("teff", 15, 7, []).states_visited == 1


@pytest.mark.parametrize("alg", ["teff", "abd"])
@pytest.mark.parametrize(
    "ops,mask",
    [([WRITE_A, READ2, READ3], 2), ([WRITE_A, READ2], None), ([WRITE_A, READ2, READ3], 6)],
    ids=["wrr-2", "wr", "wrr-6"],
)
def test_results_do_not_depend_on_the_search_order(alg, ops, mask, monkeypatch):
    # A reduced search visits configurations in another order; its result
    # must then still compare equal to this one's.  Under a symmetry (wrr-6:
    # p2 and p3 swap) the handler calls and no-op prunes depend on which
    # member of an orbit is expanded, so only the histories, configurations
    # and edges must match.
    symmetric = bool(regsim.explore._symmetries(3, tuple(ops), crash_of(mask)))
    assert symmetric == (mask == 6)
    forward = explore(alg, 3, 1, ops, crash=crash_of(mask))
    actions = _Explorer.actions
    reversed_locals = []

    def reversed_actions(self, ident):
        reversed_locals.append(ident)
        return actions(self, ident)[::-1]

    monkeypatch.setattr(_Explorer, "actions", reversed_actions)
    backward = explore(alg, 3, 1, ops, crash=crash_of(mask))
    assert reversed_locals
    assert list(map(_canon, backward.histories)) == list(map(_canon, forward.histories))
    counts = lambda res: (res.states_visited, res.edges, res.transitions, res.noop_pruned)
    width = 2 if symmetric else 4
    assert counts(backward)[:width] == counts(forward)[:width]


@pytest.mark.parametrize(
    "ops,crash,reason",
    [
        ([WRITE_A, Op(9, "read")], None, "op 1's process 9 outside 1..3"),
        ([WRITE_A, Op(0, "read")], None, "op 1's process 0 outside 1..3"),
        ([WRITE_A, READ2], BroadcastCrash(0, frozenset({7})), "crash deliver_to [7] outside 1..3"),
        ([WRITE_A], BroadcastCrash(0, frozenset({0, 2})), "crash deliver_to [0] outside 1..3"),
        ([WRITE_A], BroadcastCrash(1, frozenset()), "crash op_index 1 out of range"),
    ],
    ids=["process-9", "process-0", "deliver-to-7", "deliver-to-0", "op-index"],
)
def test_process_ids_out_of_range_are_rejected(ops, crash, reason):
    with pytest.raises(ValueError) as err:
        explore("teff", 3, 1, ops, crash=crash)
    assert str(err.value) == reason


# Each a crash the search cannot model: only an op cut without `at` is one.
UNMODELLED = {
    "at-tick": CrashSpec(2, at=5),
    "cut-with-at": CrashSpec(None, at=4, op_index=0, deliver_to=frozenset({2})),
    "relay-cut": CrashSpec(2, relay=Write(1, b"a"), deliver_to=frozenset({3})),
}
UNMODELLED_ERROR = "explore models a crash only as a during_broadcast cut without crash_at"


@pytest.mark.parametrize("crash", UNMODELLED.values(), ids=list(UNMODELLED))
def test_crashes_it_cannot_model_are_rejected_before_the_search(crash, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(regsim.explore, "make_algorithm", no_search)
    with pytest.raises(ConfigError) as err:
        explore("teff", 3, 1, [WRITE_A, READ2], crash=crash)
    assert str(err.value) == UNMODELLED_ERROR


@pytest.mark.parametrize(
    "n,t,ops,reason",
    [
        (3, 1, [Op(2, "write", b"a")], "p2 is not the writer"),
        (3, 1, [WRITE_A, Op(2, "cas")], "unknown op kind 'cas'"),
        (3, 1, [Op(1, "write", None)], "cannot write the reserved initial value"),
        (2, 1, [WRITE_A], "need 2t < n, got n=2 t=1"),
    ],
    ids=["write-by-p2", "unknown-kind", "initial-value", "2t-not-below-n"],
)
def test_ops_the_protocol_cannot_invoke_are_rejected_before_the_search(
    n, t, ops, reason, monkeypatch
):
    def no_search(self):
        raise AssertionError("the search started")

    monkeypatch.setattr(_Explorer, "run", no_search)
    for alg in ("teff", "teff-modified", "abd"):
        with pytest.raises(ProtocolError) as err:
            explore(alg, n, t, ops)
        assert str(err.value) == reason


def walked_histories(alg, ops, crash) -> list:
    """Every history of `ops` at n=3, t=1, from a walk of every interleaving
    with the explorer's actions, step and add alone: no configuration memo,
    no suffix sets, no symmetry.  Only each local's moves are kept, as the
    search keeps them."""
    explorer = _Explorer(alg, 3, 1, ops, crash, DEFAULT_MAX_STATES, [])
    moves = explorer.moves
    init = explorer.algo.init()
    found = set()

    def walk(node, records):
        moved = False
        for i, ident in enumerate(node):
            if moves[ident] is None:
                moves[ident] = [explorer.step(ident, *a) for a in explorer.actions(ident)]
            for new_local, sends, labels in moves[ident]:
                child = list(node)
                child[i] = new_local
                for q, entry in sends:
                    child[q] = explorer.add(child[q], entry)
                walk(tuple(child), records + labels)
                moved = True
        if not moved:
            found.add(records)

    walk(tuple(explorer.local(p, init, (), 0) for p in (1, 2, 3)), ())
    crash_op = -1 if crash is None else crash.op_index
    return [extract_history(_events(records, ops, crash_op), 3) for records in found]


# ABD at mask 6 is left out for time: its walk alone takes about as long as
# all of these together.  No instance here has a symmetry (p3 invokes
# nothing), and the walk of one that has, such as teff r:2,r:3, takes about
# 15 s; the mirrored and renamed suffix sets are checked against the
# unreduced search in test_symmetry_reduction_keeps_the_histories.
@pytest.mark.parametrize(
    "alg,mask",
    [(alg, mask) for alg in ("teff", "teff-modified", "abd") for mask in (0, 2, 4)]
    + [("teff", 6), ("teff-modified", 6)],
    ids=str,
)
def test_suffix_sets_hold_the_histories_of_a_walk_without_memos(alg, mask, monkeypatch):
    ops = (WRITE_A, READ2)
    explorers = []
    run = _Explorer.run

    def recorded_run(self):
        explorers.append(self)
        return run(self)

    monkeypatch.setattr(_Explorer, "run", recorded_run)
    res = explore(alg, 3, 1, ops, crash=crash_of(mask))
    walked = walked_histories(alg, ops, crash_of(mask))
    assert sorted(map(_canon, walked)) == sorted(map(_canon, res.histories))
    # Equal suffix sets are one interned int.
    (explorer,) = explorers
    sets = explorer.memo.values()
    assert len({id(s) for s in sets}) == len(set(sets))


@pytest.mark.parametrize(
    "deliver_to,receivers",
    [([2], {2}), ((2, 3), {2, 3}), (None, {1, 2, 3})],
    ids=["list", "tuple", "none-is-everyone"],
)
def test_a_hand_built_cut_reads_its_receivers_as_the_engine_does(deliver_to, receivers):
    ops = [WRITE_A, READ2, READ3]
    hand_built = CrashSpec(None, op_index=0, deliver_to=deliver_to)
    assert explore("teff", 3, 1, ops, crash=hand_built) == explore(
        "teff", 3, 1, ops, crash=CrashSpec(None, op_index=0, deliver_to=frozenset(receivers))
    )


@pytest.mark.parametrize("op_index,deliver_to", [(0, []), (0, [2]), (1, [1, 3])])
def test_broadcast_crash_is_the_scenarios_cut(op_index, deliver_to):
    ops = [
        {"time": 0, "process": 1, "op": "write", "value": "a"},
        {"time": 0, "process": 2, "op": "read"},
    ]
    cut = {"op_index": op_index, "deliver_to": deliver_to}
    config = parse_scenario(
        {
            "n": 3,
            "t": 1,
            "network": {"kind": "async", "Dmax": 10},
            "ops": ops,
            "crashes": [{"process": 1 + op_index, "during_broadcast": cut}],  # op's invoker
        }
    )
    assert config.crashes == (BroadcastCrash(op_index, frozenset(deliver_to)),)
    assert config.crashes == (BroadcastCrash(op_index, deliver_to),)


def test_broadcast_crash_takes_any_iterable_of_receivers():
    as_list = explore("teff", 3, 1, [WRITE_A, READ2, READ3], crash=BroadcastCrash(0, [2]))
    as_set = explore(
        "teff", 3, 1, [WRITE_A, READ2, READ3], crash=BroadcastCrash(0, frozenset({2}))
    )
    assert as_list == as_set


def frames_in_use() -> int:
    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_a_search_deeper_than_the_recursion_limit_exits_three(monkeypatch, capsys):
    # The search nests one visit per configuration on its longest path: 20
    # for teff w:1,r:2,r:3, 29 for ABD.  Here it gets about 12 frames.
    run = regsim.explore._Explorer.run

    def shallow_run(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames_in_use() + 12)
        try:
            return run(self)
        finally:
            sys.setrecursionlimit(limit)

    monkeypatch.setattr(regsim.explore._Explorer, "run", shallow_run)
    with pytest.raises(ExploreLimitError, match="^search path deeper than the recursion limit"):
        explore("teff", 3, 1, [WRITE_A, READ2])
    assert main(["explore", str(SCENARIOS / "messages-teff-n3.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource bound: search path deeper than the recursion limit")
    assert err.count("\n") == 1


def test_noop_pruned_counts_are_positive_and_repeat():
    crash = crash_of(6)
    first = explore("teff", 3, 1, [WRITE_A, READ2], crash=crash)
    second = explore("teff", 3, 1, [WRITE_A, READ2], crash=crash)
    assert first.noop_pruned > 0
    assert second.noop_pruned == first.noop_pruned


@pytest.mark.parametrize("alg", ["teff", "teff-modified", "abd"])
def test_invocations_get_the_invokers_own_state(alg, monkeypatch):
    # States hold no process id, so two processes can share a snapshot; a
    # transition reused across processes would hand a process another
    # process's state.  A process's own counters show it: teff's rsn counts
    # its reads, ABD's opsn its phases (one per write, two per read).  Each
    # op's time is its index, so the check knows the invoker's earlier ops.
    ops = [Op(1, "write", b"a", 0), Op(2, "read", None, 1), Op(2, "read", None, 2)]
    algo_class = type(make_algorithm(alg, 3, 1))
    begin = algo_class.begin
    invoked = set()

    def checked_begin(self, state, op):
        earlier = [o for o in ops[: op.time] if o.process == op.process]
        if alg == "abd":
            opsn = AbdReplicaState._make(state).opsn
            assert opsn == sum(1 if o.kind == "write" else 2 for o in earlier)
        else:
            assert ReplicaState._make(state).rsn == sum(o.kind == "read" for o in earlier)
        invoked.add(op.time)
        return begin(self, state, op)

    monkeypatch.setattr(algo_class, "begin", checked_begin)
    assert explore(alg, 3, 1, ops, crash=BroadcastCrash(0, frozenset({2}))).histories
    assert invoked == {0, 1, 2}


def test_crash_falls_on_the_crashing_ops_invoke():
    # p1 crashes during its second op, so the crash step is op 1's invoke,
    # not p1's first invoke.
    ops = [WRITE_A, Op(1, "write", b"b"), READ2]
    res = explore("teff", 3, 1, ops, crash=BroadcastCrash(1, frozenset({2})))
    assert len(res.histories) == 20
    for h in res.histories:
        second_write = next(o for o in h.ops if o.op_id == 1)
        assert h.crashed == {1: second_write.invoke}


@pytest.mark.parametrize("alg", ["teff", "teff-modified", "abd"])
def test_noop_predicate_agrees_with_the_handlers(alg, monkeypatch):
    # A delivery the explorer prunes as a no-op must, delivered, leave the
    # state as it is, send nothing and complete nothing; a wrong prune would
    # silently drop histories.
    pruned = []
    noop = _Explorer.noop

    def recorded(self, state, mid, sender):
        if noop(self, state, mid, sender):
            pruned.append((self.algo, state, self.msgs.items[mid], sender))
            return True
        return False

    monkeypatch.setattr(_Explorer, "noop", recorded)
    for mask in [None, *range(8)]:
        explore(alg, 3, 1, [WRITE_A, READ2], crash=crash_of(mask))
    explore(alg, 3, 1, [WRITE_A, READ2, READ2], crash=crash_of(2))
    assert pruned
    for algo, state, msg, sender in pruned:
        after, outgoing, completion = algo.deliver(state, msg, sender)
        assert after == state, (state, msg, sender)
        assert not outgoing and completion is None, (state, msg, sender)


def counting_protocol(name, n, t, inputs, begins):
    """The protocol `name` with a handler table that records each call it
    makes, (state, message, sender) into `inputs`, and each `begin` call's
    op into `begins`.  The table's entries wrap the class handlers, so a
    handler that calls another itself (the modified variant's `on_state`
    calls `on_write`) is recorded once, as the explorer called it."""
    algo = make_algorithm(name, n, t)
    protocol = type(algo)

    class Counting(protocol):
        HANDLERS = dict.fromkeys(protocol.HANDLERS, "counted")

        def counted(self, state, msg, sender):
            inputs.append((state, msg, sender))
            return getattr(self, protocol.HANDLERS[type(msg)])(state, msg, sender)

        def begin(self, state, op):
            begins.append(op)
            return protocol.begin(self, state, op)

    algo.__class__ = Counting
    return algo


OP_LISTS = {"w:1,r:2": [WRITE_A, READ2], "w:1,r:2,r:3": [WRITE_A, READ2, READ3]}


@pytest.mark.parametrize(
    "alg,mask,ops",
    [(alg, mask, "w:1,r:2") for alg, mask in PINNED]
    + [(alg, mask, "w:1,r:2,r:3") for alg in ("teff", "teff-modified") for mask in (None, 6)]
    + [("abd", 6, "w:1,r:2,r:3")],
    ids=str,
)
def test_each_explored_input_reaches_its_handler_once(alg, mask, ops, monkeypatch):
    # One result per distinct (state, message, sender) serves both the
    # no-op test and the step, so every call is a transition or a prune.
    ops = OP_LISTS[ops]
    inputs, begins = [], []
    monkeypatch.setattr(
        regsim.explore,
        "make_algorithm",
        lambda name, n, t: counting_protocol(name, n, t, inputs, begins),
    )
    res = explore(alg, 3, 1, ops, crash=crash_of(mask))
    assert inputs and len(set(inputs)) == len(inputs)
    assert len(begins) + len(inputs) == res.transitions + res.noop_pruned


def explored_records(history) -> tuple:
    """An explored history's invoke/respond/crash sequence: its records in
    index order, a crash right after the invoke it falls on."""
    events = []
    for op in history.ops:
        events.append((op.invoke, 0, ("invoke", op.process, op.op_id)))
        if not op.pending:
            value = op.value if op.kind == "read" else None
            events.append((op.respond, 0, ("respond", op.process, op.op_id, value, op.seqno)))
    events += [(time, 1, ("crash", p)) for p, time in history.crashed.items()]
    return tuple(record for *_, record in sorted(events))


def run_records(trace) -> tuple:
    """A run's invoke/respond/crash sequence in trace order.  The order, not
    the ticks: ops at equal ticks would tie in the run's history."""
    records = []
    for ev in trace:
        if ev.kind == INVOKE:
            records.append(("invoke", ev.process, ev.op_id))
        elif ev.kind == RESPOND:
            value = ev.value if ev.op_kind == "read" else None
            records.append(("respond", ev.process, ev.op_id, value, ev.seqno))
        elif ev.kind == CRASH:
            records.append(("crash", ev.process))
    return tuple(records)


# adversarial-async.json is left out: its 4 ops take the explorer past its
# 5M configuration bound.
@pytest.mark.parametrize("name", ["messages-teff-n3", "messages-abd-n3", "round-crash-read"])
def test_every_run_history_is_an_explore_history(name):
    # The scenario as bundled, then on an async network with its ops moved
    # close enough together to overlap, over many seeds.
    config = load_scenario(SCENARIOS / f"{name}.json")
    (crash,) = config.crashes or (None,)
    res = explore(config.algorithm, config.n, config.t, config.ops, crash=crash)
    explored = set(map(explored_records, res.histories))
    racing = config._replace(
        network=NetworkSpec("async", 10),
        ops=tuple(op._replace(time=min(op.time, 5)) for op in config.ops),
    )
    runs = [run(config, messages=False)]
    runs += [run(racing, seed=seed, messages=False) for seed in range(300)]
    reached = set()
    for result in runs:
        records = run_records(result.trace)
        assert records in explored, (name, result.seed, records)
        reached.add(records)
    assert len(reached) > 1
