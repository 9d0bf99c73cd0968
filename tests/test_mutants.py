"""The checkers must fail on a broken protocol, not only pass on correct
ones, and agree with the brute-force oracle of tests/test_history.py on
which histories fail.  A mutant is a test-only subclass of a protocol
object that overrides one method or constant; the explorer builds it in
place of the real one."""

import pytest

import regsim.explore
from regsim.abd import AbdAlgo
from regsim.algos import Op
from regsim.explore import explore
from regsim.history import check_claims, check_linearizable
from regsim.teff import BASE, MODIFIED, TeffAlgo
from test_history import oracle


class ReadsRegNotRes(TeffAlgo):
    """A read returns the local register `reg` instead of `res`, the value
    it settled on; its seqno stays `swsn`, so the value and the seqno can
    disagree."""

    def check_read_complete(self, state):
        done = super().check_read_complete(state)
        return None if done is None else (state.reg, done[1])


@pytest.mark.parametrize("variant", [BASE, MODIFIED])
def test_read_returning_reg_fails_both_checkers(variant, monkeypatch):
    monkeypatch.setattr(
        regsim.explore,
        "make_algorithm",
        lambda name, n, t, options=None: ReadsRegNotRes(n, t, variant, options),
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
        ("teff", lambda n, t, options: TeffSmallQuorum(n, t, BASE, options)),
        ("teff-modified", lambda n, t, options: TeffSmallQuorum(n, t, MODIFIED, options)),
        ("abd", lambda n, t, options: AbdSmallQuorum(n, t)),
    ],
    ids=["teff", "teff-modified", "abd"],
)
def test_quorum_of_n_minus_t_minus_1_fails_every_checker(algorithm, mutant, monkeypatch):
    monkeypatch.setattr(
        regsim.explore,
        "make_algorithm",
        lambda name, n, t, options=None: mutant(n, t, options),
    )
    ops = [Op(1, "write", b"v1", 0), Op(2, "read", None, 1)]
    histories = explore(algorithm, 3, 1, ops).histories
    claims = [not check_claims(h).ok for h in histories]
    assert (len(histories), sum(claims)) == (11, 1)
    assert claims == [not check_linearizable(h).ok for h in histories]
    assert claims == [not oracle(h) for h in histories]
