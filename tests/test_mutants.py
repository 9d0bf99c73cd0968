"""The checkers must fail on a broken protocol, not only pass on correct
ones, and agree with the brute-force oracle of tests/test_history.py on
which histories fail.  A mutant is a test-only subclass of a protocol
object that overrides one method or constant; the explorer builds it in
place of the real one."""

from pathlib import Path

import pytest

import regsim.explore
from regsim.abd import PHASE_WRITE_BACK, AbdAlgo, AbdPending, AbdReplicaState
from regsim.algos import Op
from regsim.cli import main
from regsim.explore import explore
from regsim.history import check_claims, check_linearizable, check_termination
from regsim.messages import OpResult
from regsim.teff import BASE, MODIFIED, ReplicaState, TeffAlgo
from test_history import oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class ReadsRegNotRes(TeffAlgo):
    """A read returns the local register `reg` instead of `res`, the value
    it settled on; its seqno stays `swsn`, so the value and the seqno can
    disagree."""

    def check_read_complete(self, state):
        done = super().check_read_complete(state)
        return None if done is None else (ReplicaState._make(state).reg, done[1])


@pytest.mark.parametrize("variant", [BASE, MODIFIED])
def test_read_returning_reg_fails_both_checkers(variant, monkeypatch):
    monkeypatch.setattr(
        regsim.explore,
        "make_algorithm",
        lambda name, n, t: ReadsRegNotRes(n, t, variant),
    )
    ops = [Op(1, "write", b"v1", 0), Op(1, "write", b"v2", 1), Op(2, "read", None, 2)]
    histories = explore("teff", 3, 1, ops).histories
    claims = [not check_claims(h).ok for h in histories]
    assert (len(histories), sum(claims)) == (51, 20)
    assert claims == [not check_linearizable(h).ok for h in histories]
    assert claims == [not oracle(h) for h in histories]


class TeffSmallQuorum(TeffAlgo):
    """Quorums of n - t - 1: a read's quorum need not meet the write's."""

    def __init__(self, *args):
        super().__init__(*args)
        self.quorum -= 1


class AbdSmallQuorum(AbdAlgo):
    """Quorums of n - t - 1, as in TeffSmallQuorum."""

    def __init__(self, *args):
        super().__init__(*args)
        self.quorum -= 1


@pytest.mark.parametrize(
    "algorithm,mutant",
    [
        ("teff", lambda n, t: TeffSmallQuorum(n, t, BASE)),
        ("teff-modified", lambda n, t: TeffSmallQuorum(n, t, MODIFIED)),
        ("abd", AbdSmallQuorum),
    ],
    ids=["teff", "teff-modified", "abd"],
)
def test_quorum_of_n_minus_t_minus_1_fails_every_checker(algorithm, mutant, monkeypatch):
    monkeypatch.setattr(regsim.explore, "make_algorithm", lambda name, n, t: mutant(n, t))
    ops = [Op(1, "write", b"v1", 0), Op(2, "read", None, 1)]
    histories = explore(algorithm, 3, 1, ops).histories
    claims = [not check_claims(h).ok for h in histories]
    assert (len(histories), sum(claims)) == (11, 1)
    assert claims == [not check_linearizable(h).ok for h in histories]
    assert claims == [not oracle(h) for h in histories]


class AbdNoWriteBack(AbdAlgo):
    """A read returns the freshest pair of its quorum of reports at once,
    without writing the pair back first, so a later read may find only
    processes that still hold an older pair."""

    def on_report(self, state, msg, sender):
        out = super().on_report(state, msg, sender)
        st = None if out is None else AbdReplicaState._make(out[0])
        pd = None if st is None or st.pending is None else AbdPending._make(st.pending)
        if pd is None or pd.phase != PHASE_WRITE_BACK:
            return out
        return tuple(st._replace(pending=None)), (), OpResult("read", pd.best_value, pd.best_wsn)


def test_abd_read_without_write_back_fails_every_checker(monkeypatch):
    monkeypatch.setattr(regsim.explore, "make_algorithm", lambda name, n, t: AbdNoWriteBack(n, t))
    ops = [Op(1, "write", b"v1", 0), Op(2, "read", None, 1), Op(2, "read", None, 2)]
    res = explore("abd", 3, 1, ops)
    claims = [not check_claims(h).ok for h in res.histories]
    assert (res.states_visited, len(res.histories), sum(claims)) == (7810, 35, 4)
    assert claims == [not check_linearizable(h).ok for h in res.histories]
    assert claims == [not oracle(h) for h in res.histories]


class TeffNoRelay(TeffAlgo):
    """A process adopts and counts each WRITE (in the modified variant, each
    STATE's pair too, which goes through the WRITE handler) but never
    re-broadcasts it, so no process other than the writer vouches for a
    write, and no quorum of holders ever forms."""

    def on_write(self, state, msg, sender):
        out = super().on_write(state, msg, sender)
        if out is None:
            return None
        state, _, completion = out
        return state, (), completion


@pytest.mark.parametrize(
    "variant,counts", [(BASE, (561, 5, 5)), (MODIFIED, (613, 7, 7))], ids=[BASE, MODIFIED]
)
def test_teff_without_relays_fails_termination(variant, counts, monkeypatch):
    monkeypatch.setattr(
        regsim.explore, "make_algorithm", lambda name, n, t: TeffNoRelay(n, t, variant)
    )
    ops = [Op(1, "write", b"v1", 0), Op(2, "read", None, 1)]
    res = explore("teff", 3, 1, ops)
    stuck = sum(not check_termination(h).ok for h in res.histories)
    assert (res.states_visited, len(res.histories), stuck) == counts
    assert all(check_claims(h).ok for h in res.histories)


def test_explore_command_fails_a_history_that_never_terminates(monkeypatch, capsys):
    # Every history of the relay-free mutant is atomic, and every one leaves
    # the read pending at a correct process.
    monkeypatch.setattr(
        regsim.explore, "make_algorithm", lambda name, n, t: TeffNoRelay(n, t, BASE)
    )
    assert main(["explore", str(SCENARIOS / "messages-teff-n3.json")]) == 1
    assert capsys.readouterr().out.endswith("explore: 5 violating histories out of 5\n")
