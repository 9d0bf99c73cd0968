import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim.algos import ALGORITHMS
from regsim.config import ConfigError, parse_scenario


def minimal(**over):
    data = {
        "n": 3,
        "t": 1,
        "algorithm": "teff",
        "network": {"kind": "bounded_delay", "Delta": 10},
        "ops": [
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 50, "process": 2, "op": "read"},
        ],
        "seed": 1,
    }
    data.update(over)
    return data


def test_valid_scenario_parses():
    cfg = parse_scenario(minimal())
    assert cfg.n == 3 and cfg.t == 1
    assert cfg.ops[0].value == b"a"
    assert cfg.digest


def test_model_constraint_rejected():
    with pytest.raises(ConfigError, match="2t < n"):
        parse_scenario(minimal(n=4, t=2))


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="algorithm"):
        parse_scenario(minimal(algorithm="paxos"))


def test_write_by_non_writer_rejected():
    ops = [{"time": 0, "process": 2, "op": "write", "value": "a"}]
    with pytest.raises(ConfigError, match="writer"):
        parse_scenario(minimal(ops=ops))


def test_two_ops_of_one_process_at_one_time_rejected():
    ops = [
        {"time": 0, "process": 1, "op": "write", "value": "a"},
        {"time": 0, "process": 2, "op": "read"},
        {"time": 3, "process": 2, "op": "read"},
        {"time": 0, "process": 2, "op": "read"},
    ]
    with pytest.raises(ConfigError, match=r"^ops\[3\]: process 2 already has an op at time 0$"):
        parse_scenario(minimal(ops=ops))
    # One time for two processes, or two times for one, is fine.
    assert len(parse_scenario(minimal(ops=ops[:3])).ops) == 3


def test_write_value_with_a_lone_surrogate_rejected():
    ops = json.loads('[{"time": 0, "process": 1, "op": "write", "value": "a\\ud800"}]')
    with pytest.raises(ConfigError, match=r"^ops\[0\]: value is not valid Unicode"):
        parse_scenario(minimal(ops=ops))


def test_too_many_crashes_rejected():
    crashes = [{"process": 2, "at": 5}, {"process": 3, "at": 5}]
    with pytest.raises(ConfigError, match="t=1"):
        parse_scenario(minimal(crashes=crashes))


def test_crash_trigger_must_be_single():
    crashes = [{"process": 2, "at": 5, "during_forward": {"wsn": 1, "deliver_to": []}}]
    with pytest.raises(ConfigError, match="exactly one"):
        parse_scenario(minimal(crashes=crashes))


def test_during_broadcast_ownership_checked():
    crashes = [
        {"process": 2, "during_broadcast": {"op_index": 0, "deliver_to": []}}
    ]
    with pytest.raises(ConfigError, match="belongs to process"):
        parse_scenario(minimal(crashes=crashes))


def test_crash_window_needs_async_time():
    crashes = [
        {
            "process": 1,
            "during_broadcast": {"op_index": 0, "deliver_to": [], "crash_at": 3},
        }
    ]
    cfg = parse_scenario(minimal(crashes=crashes))
    assert cfg.crashes[0].at == 3

    with pytest.raises(ConfigError, match="round_sync"):
        parse_scenario(
            minimal(network={"kind": "round_sync", "delta": 1}, crashes=crashes)
        )


def test_during_forward_is_register_protocol_only():
    crashes = [{"process": 2, "during_forward": {"wsn": 1, "deliver_to": [3]}}]
    with pytest.raises(ConfigError, match="teff only"):
        parse_scenario(minimal(algorithm="abd", crashes=crashes))


# (during_forward crash, the one-line error): each relay could never happen.
NEVER_RELAYED = [
    ({"process": 2, "during_forward": {"wsn": 2, "deliver_to": [3]}},
     "crashes[0]: no write gets wsn 2 (1 in ops)"),
    ({"process": 1, "during_forward": {"wsn": 1, "deliver_to": [3]}},
     "crashes[0]: the writer relays no write"),
]


@pytest.mark.parametrize("crash,message", NEVER_RELAYED, ids=["wsn", "writer"])
def test_during_forward_that_can_never_fire_rejected(crash, message):
    with pytest.raises(ConfigError) as err:
        parse_scenario(minimal(crashes=[crash]))
    assert str(err.value) == message


def test_delay_schedule_bounded_by_delta():
    net = {
        "kind": "bounded_delay",
        "Delta": 10,
        "schedule": {"mode": "fixed", "delay": 11},
    }
    with pytest.raises(ConfigError, match="exceeds Delta"):
        parse_scenario(minimal(network=net))


def test_increasing_schedule_is_async_only():
    net = {
        "kind": "bounded_delay",
        "Delta": 10,
        "schedule": {"mode": "increasing"},
    }
    with pytest.raises(ConfigError, match="async only"):
        parse_scenario(minimal(network=net))


def test_round_sync_rejects_schedules():
    net = {"kind": "round_sync", "delta": 2, "schedule": {"mode": "fixed", "delay": 2}}
    with pytest.raises(ConfigError, match="no schedule"):
        parse_scenario(minimal(network=net))


def test_unknown_option_rejected():
    # The protocols take no options: the field itself is unknown.
    with pytest.raises(ConfigError, match=r"^scenario: unknown fields \['options'\]$"):
        parse_scenario(minimal(options={"writer_local_read": False}))


def test_empty_write_value_rejected():
    ops = [{"time": 0, "process": 1, "op": "write", "value": ""}]
    with pytest.raises(ConfigError, match="value"):
        parse_scenario(minimal(ops=ops))


ASYNC = {"kind": "async", "Dmax": 10}
BOUNDED = {"kind": "bounded_delay", "Delta": 10}
FORWARD = {"process": 2, "during_forward": 5}
CUT = {"op_index": 0, "deliver_to": []}


@pytest.mark.parametrize(
    "over",
    [
        {"network": 5},
        {"network": [BOUNDED]},
        {"network": {**BOUNDED, "schedule": 5}},
        {"network": {**BOUNDED, "schedule": ["fixed"]}},
        {"crashes": [{"process": 1, "during_broadcast": 5}]},
        {"crashes": [{"process": 1, "during_broadcast": [0]}]},
        {"crashes": [FORWARD]},
        {"crashes": [5]},
        {"ops": [5]},
    ],
    ids=str,
)
def test_wrong_json_type_rejected(over):
    with pytest.raises(ConfigError, match="must be an (object|array)"):
        parse_scenario(minimal(**over))


@pytest.mark.parametrize(
    "over",
    [
        {"seed": True},
        {"n": True},
        {"crashes": [{"process": 1, "during_broadcast": {**CUT, "deliver_to": [True]}}]},
        {"crashes": [{"process": 2, "during_forward": {"wsn": 1, "deliver_to": [False]}}]},
        {"crashes": [{"process": 1, "during_broadcast": {**CUT, "crash_at": True}}]},
        {"network": {**BOUNDED, "schedule": {"mode": "list", "delays": [True]}}},
        {"network": {**BOUNDED, "schedule": {"mode": "fixed", "delay": True}}},
        {"network": {**ASYNC, "schedule": {"mode": "increasing", "start": True}}},
        {"network": {**ASYNC, "schedule": {"mode": "increasing", "step": True}}},
    ],
    ids=str,
)
def test_booleans_are_not_integers(over):
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_scenario(minimal(**over))


READ = {"time": 50, "process": 2, "op": "read"}
# (scenario change, the one-line error it raises)
UNKNOWN_FIELDS = [
    ({"shedule": {"mode": "fixed", "delay": 1}}, "scenario: unknown fields ['shedule']"),
    ({"network": {**BOUNDED, "overrides": []}}, "network: unknown fields ['overrides']"),
    ({"network": {**BOUNDED, "Dmax": 10}}, "network: unknown fields ['Dmax']"),
    (
        {"network": {**BOUNDED, "shedule": {"mode": "fixed", "delay": 1}}},
        "network: unknown fields ['shedule']",
    ),
    (
        {"network": {**BOUNDED, "schedule": {"mode": "fixed", "delays": [1]}}},
        "schedule: unknown fields ['delays']",
    ),
    (
        {"network": {**ASYNC, "schedule": {"mode": "list", "delays": [1], "step": 1}}},
        "schedule: unknown fields ['step']",
    ),
    ({"ops": [{**READ, "value": "a"}]}, "ops[0]: unknown fields ['value']"),
    ({"ops": [{**READ, "proces": 2}]}, "ops[0]: unknown fields ['proces']"),
    (
        {"crashes": [{"process": 2, "at": 5, "crash_at": 9}]},
        "crashes[0]: unknown fields ['crash_at']",
    ),
    (
        {"crashes": [{"process": 1, "during_broadcast": {**CUT, "crashat": 9}}]},
        "crashes[0]: during_broadcast: unknown fields ['crashat']",
    ),
    (
        {"crashes": [{"process": 2, "during_forward": {"wsn": 1, "deliver_to": [], "at": 9}}]},
        "crashes[0]: during_forward: unknown fields ['at']",
    ),
]


@pytest.mark.parametrize("over,message", UNKNOWN_FIELDS, ids=[m for _, m in UNKNOWN_FIELDS])
def test_unknown_nested_field_rejected(over, message):
    with pytest.raises(ConfigError) as err:
        parse_scenario(minimal(**over))
    assert str(err.value) == message


@pytest.mark.parametrize("n,t", [(0, 0), (3, -1), (2, 1), (4, 2)])
def test_check_model_rejects_n_and_t(n, t):
    with pytest.raises(ConfigError, match="model constraint violated"):
        parse_scenario(minimal(n=n, t=t, ops=[]))


def test_check_model_accepts_the_model():
    for algorithm in ALGORITHMS:
        for n, t in [(3, 1), (1, 0)]:
            cfg = parse_scenario(minimal(n=n, t=t, algorithm=algorithm, ops=[]))
            assert (cfg.n, cfg.t, cfg.algorithm) == (n, t, algorithm)


# Any JSON value: what a scenario file may hold in any field.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(-2, 12) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]


def mutated(data, value):
    """`value` with one subtree replaced by an arbitrary JSON value."""
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value)))
        return {**value, key: mutated(data, value[key])}
    if isinstance(value, list) and value and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(value) - 1))
        return [*value[:i], mutated(data, value[i]), *value[i + 1 :]]
    return data.draw(JSON)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_scenario_raises_only_config_error(data):
    # Start from a bundled scenario, so the generated input gets past the
    # first checks, and replace a few of its subtrees at random.
    scenario = data.draw(st.sampled_from(BUNDLED))
    for _ in range(data.draw(st.integers(1, 3))):
        scenario = mutated(data, scenario)
    try:
        parse_scenario(scenario)
    except ConfigError:
        pass
