"""Exhaustive exploration of small instances: the oracle for the protocol."""

import hashlib
import json

import pytest

from regsim import algos
from regsim.algos import Op
from regsim.explore import BroadcastCrash, ExploreLimitError, explore
from regsim.history import check_claims, check_linearizable, check_termination, checkers_agree

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


def test_quorum_counts_state_off_still_atomic():
    res = explore(
        "teff-modified",
        3,
        1,
        [WRITE_A, READ2],
        options={"quorum_counts_state": False},
    )
    for h in res.histories:
        assert check_termination(h).ok
        assert check_claims(h).ok and check_linearizable(h).ok


def test_state_bound_raises_with_partial_count():
    with pytest.raises(ExploreLimitError) as err:
        explore("teff", 3, 1, [WRITE_A, READ2, READ3], max_states=500)
    assert err.value.max_states == 500
    assert err.value.visited > 0


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
# existed, edges and transitions from the first explorer that memoized
# transitions over whole-configuration tuples.
PINNED = {
    ("teff", None): (4803, 30054, 261, BOTH_READS),
    ("teff", 0): (49, 120, 17, VALUE_LOST),
    ("teff", 1): (49, 120, 17, VALUE_LOST),
    ("teff", 2): (364, 1194, 111, VALUE_REACHES),
    ("teff", 3): (364, 1194, 111, VALUE_REACHES),
    ("teff", 4): (369, 1193, 113, VALUE_REACHES),
    ("teff", 5): (369, 1193, 113, VALUE_REACHES),
    ("teff", 6): (693, 2936, 196, VALUE_REACHES),
    ("teff", 7): (693, 2936, 196, VALUE_REACHES),
    ("teff-modified", None): (4634, 29384, 219, BOTH_READS),
    ("teff-modified", 0): (49, 120, 17, VALUE_LOST),
    ("teff-modified", 1): (49, 120, 17, VALUE_LOST),
    ("teff-modified", 2): (318, 1029, 88, VALUE_REACHES),
    ("teff-modified", 3): (318, 1029, 88, VALUE_REACHES),
    ("teff-modified", 4): (365, 1209, 104, VALUE_REACHES),
    ("teff-modified", 5): (365, 1209, 104, VALUE_REACHES),
    ("teff-modified", 6): (624, 2657, 158, VALUE_REACHES),
    ("teff-modified", 7): (624, 2657, 158, VALUE_REACHES),
    ("abd", None): (6078, 29373, 186, BOTH_READS),
    ("abd", 0): (207, 655, 36, VALUE_LOST),
    ("abd", 1): (207, 655, 36, VALUE_LOST),
    ("abd", 2): (327, 1014, 90, VALUE_REACHES),
    ("abd", 3): (327, 1014, 90, VALUE_REACHES),
    ("abd", 4): (327, 1014, 59, VALUE_REACHES),
    ("abd", 5): (327, 1014, 59, VALUE_REACHES),
    ("abd", 6): (592, 1937, 123, VALUE_REACHES),
    ("abd", 7): (592, 1937, 123, VALUE_REACHES),
}


@pytest.mark.parametrize("alg,mask", list(PINNED), ids=str)
def test_pinned_configurations_and_histories(alg, mask):
    res = explore(alg, 3, 1, [WRITE_A, READ2], crash=crash_of(mask))
    digest = history_set_digest(res.histories)
    assert (res.states_visited, res.edges, res.transitions, digest) == PINNED[alg, mask]


# Digests of the history list in the order explore() returns it, which
# follows the depth-first search order, for no crash and for the write
# reaching p2 only; taken from the same explorer as the edge counts above.
# All three algorithms happen to list these histories in the same order.
BOTH_READS_ORDER = "bea7367285d243ff3e2719df40b660c5341aec1589de68fa137779a890693c91"
P2_ONLY_ORDER = "41f30c5823d048753317abc766fb33a925123452d897ccb710f191154fd4c4e0"
ORDERED = {
    (alg, mask): BOTH_READS_ORDER if mask is None else P2_ONLY_ORDER
    for alg in ("teff", "teff-modified", "abd")
    for mask in (None, 2)
}


@pytest.mark.parametrize("alg,mask", list(ORDERED), ids=str)
def test_pinned_history_order(alg, mask):
    res = explore(alg, 3, 1, [WRITE_A, READ2], crash=crash_of(mask))
    assert history_list_digest(res.histories) == ORDERED[alg, mask]


def test_noop_pruned_counts_are_positive_and_repeat():
    crash = crash_of(6)
    first = explore("teff", 3, 1, [WRITE_A, READ2], crash=crash)
    second = explore("teff", 3, 1, [WRITE_A, READ2], crash=crash)
    assert first.noop_pruned > 0
    assert second.noop_pruned == first.noop_pruned


@pytest.mark.parametrize("alg", ["teff", "teff-modified", "abd"])
def test_invocations_get_the_invokers_own_state(alg, monkeypatch):
    # Snapshots omit the process id, so two processes can share one; a
    # transition reused across processes would hand a process another
    # process's state.  No delivery handler reads the id, so histories and
    # counts alone do not show that.
    algo_class = type(algos.make_algorithm(alg, 3, 1))
    begin = algo_class.begin

    def checked_begin(self, state, op):
        assert state.me == op.process
        return begin(self, state, op)

    monkeypatch.setattr(algo_class, "begin", checked_begin)
    crash = BroadcastCrash(1, frozenset())
    assert explore(alg, 3, 1, [WRITE_A, READ2, READ2], crash=crash).histories
