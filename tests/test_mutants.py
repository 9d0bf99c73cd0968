"""The checkers must fail on a broken protocol, not only pass on correct
ones.  A mutant is a test-only subclass of a protocol object that overrides
one method; the explorer builds it in place of the real one."""

import pytest

import regsim.explore
from regsim.algos import Op
from regsim.explore import explore
from regsim.history import check_claims, check_linearizable
from regsim.teff import BASE, MODIFIED, TeffAlgo


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
    oracle = [not check_linearizable(h).ok for h in histories]
    assert (len(histories), sum(claims)) == (51, 20)
    assert claims == oracle
