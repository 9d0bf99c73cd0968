"""The uniform driver interface over both protocols."""

from pathlib import Path

import pytest

import regsim.engine
from regsim.abd import AbdReplicaState
from regsim.algos import make_algorithm
from regsim.config import load_scenario
from regsim.engine import run
from regsim.messages import AbdAck, ProtocolError, Write
from regsim.teff import ReplicaState

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
STATE_CLASS = {"teff": ReplicaState, "teff-modified": ReplicaState, "abd": AbdReplicaState}


@pytest.mark.parametrize("name,foreign", [("teff", AbdAck(1)), ("abd", Write(1, b"a"))])
def test_deliver_rejects_the_other_protocols_message(name, foreign):
    algo = make_algorithm(name, 3, 1)
    with pytest.raises(ProtocolError):
        algo.deliver(algo.init(), foreign, 1)


@pytest.mark.parametrize("name", [p.name for p in sorted(SCENARIOS.glob("*.json"))])
def test_every_handler_returns_a_hashable_state_value(name, monkeypatch):
    # Replica states are values: every state a handler returns is the
    # protocol's own immutable class and hashes, so it can key a memo as it
    # is, and init() builds equal states every time.
    cfg = load_scenario(SCENARIOS / name)
    cls = STATE_CLASS[cfg.algorithm]
    returned = []

    def recording(handler):
        def recorded(*args):
            out = handler(*args)
            returned.append(out.state)
            return out

        return recorded

    def recording_algorithm(*args):
        algo = make_algorithm(*args)
        algo.begin, algo.deliver = recording(algo.begin), recording(algo.deliver)
        return algo

    monkeypatch.setattr(regsim.engine, "make_algorithm", recording_algorithm)
    for seed in range(4):
        run(cfg, seed=seed)
    assert returned
    for state in returned:
        assert type(state) is cls
        hash(state)
    algo = make_algorithm(cfg.algorithm, cfg.n, cfg.t)
    first = algo.init()
    assert type(first) is cls and hash(first) == hash(algo.init())
    assert all(algo.init() == first for _ in range(3))
