"""Read classification, the bound table, and message attribution."""

import itertools

import pytest

from regsim.config import parse_scenario
from regsim.engine import run
from regsim.history import History, OpRecord, extract_history
from regsim.metrics import (
    INTERFERING,
    INTERFERING_CRASH,
    ROUND_CRASH,
    ROUND_NO_CRASH,
    WLF,
    assert_bounds,
    bound_for,
    classify_read,
    classify_read_round,
    count_messages,
    slow_read_processes,
)

DELTA = 10


def make_history(writes, reads, crashed=None):
    h = History(n=5)
    ops = []
    for i, (invoke, respond) in enumerate(writes):
        ops.append(OpRecord(i, 1, "write", invoke, respond, b"v", i + 1))
    for j, (proc, invoke, respond) in enumerate(reads):
        ops.append(OpRecord(len(writes) + j, proc, "read", invoke, respond, b"v", 1))
    h.ops = sorted(ops, key=lambda o: o.invoke)
    h.crashed = dict(crashed or {})
    return h


def the_read(h):
    return next(op for op in h.ops if op.kind == "read")


def test_well_separated_read_is_wlf():
    h = make_history([(0, 15)], [(2, 100, 120)])
    assert classify_read(h, the_read(h), DELTA) == WLF


def test_no_preceding_write_is_wlf():
    h = make_history([], [(2, 5, 25)])
    assert classify_read(h, the_read(h), DELTA) == WLF


def test_write_started_within_delta_interferes():
    # Write at 95 is already over by 97; a read at 100 is not concurrent
    # with it, but 95 >= 100 - 10 still makes it interfering.
    h = make_history([(95, 97)], [(2, 100, 120)])
    assert classify_read(h, the_read(h), DELTA) == INTERFERING


def test_boundary_is_strict():
    h = make_history([(89, 91)], [(2, 100, 120)])
    assert classify_read(h, the_read(h), DELTA) == WLF
    h = make_history([(90, 92)], [(2, 100, 120)])
    assert classify_read(h, the_read(h), DELTA) == INTERFERING


def test_concurrent_write_interferes():
    h = make_history([(95, 115)], [(2, 100, 120)])
    assert classify_read(h, the_read(h), DELTA) == INTERFERING


def test_writer_crash_during_concurrent_write():
    h = make_history([(95, None)], [(2, 100, 120)], crashed={1: 96})
    assert classify_read(h, the_read(h), DELTA) == INTERFERING_CRASH


def test_crashed_preceding_write_is_conservative_crash_class():
    # Fully delivered or not, a crashed closest-preceding write keeps the
    # read out of the write-latency-free class.
    h = make_history([(0, None)], [(2, 100, 120)], crashed={1: 0})
    assert classify_read(h, the_read(h), DELTA) == INTERFERING_CRASH


def test_round_classification_two_way():
    h = make_history([(0, 4)], [(2, 2, 6)])
    assert classify_read_round(h, the_read(h)) == ROUND_NO_CRASH
    h = make_history([(0, None)], [(2, 2, 6)], crashed={1: 0})
    assert classify_read_round(h, the_read(h)) == ROUND_CRASH


def test_bound_table_is_total():
    classes = {
        "bounded_delay": [WLF, INTERFERING, INTERFERING_CRASH],
        "round_sync": [ROUND_NO_CRASH, ROUND_CRASH],
        "async": [WLF, INTERFERING, INTERFERING_CRASH],
    }
    for algorithm, model in itertools.product(
        ("teff", "teff-modified", "abd"), ("bounded_delay", "round_sync", "async")
    ):
        assert bound_for(algorithm, model, "write", None, 7) or model == "async"
        for cls in classes[model]:
            claim = bound_for(algorithm, model, "read", cls, 7)
            if model == "async":
                assert claim is None
            elif algorithm == "teff" and cls == INTERFERING_CRASH:
                assert claim is None  # the base variant's documented hole
            else:
                assert claim is not None


def test_bound_values_match_the_table():
    assert bound_for("teff-modified", "bounded_delay", "write", None, 10) == ("le", 20)
    assert bound_for("teff-modified", "bounded_delay", "read", WLF, 10) == ("le", 20)
    assert bound_for("teff-modified", "bounded_delay", "read", INTERFERING, 10) == ("le", 30)
    assert bound_for("teff-modified", "bounded_delay", "read", INTERFERING_CRASH, 10) == ("le", 40)
    assert bound_for("abd", "bounded_delay", "read", WLF, 10) == ("le", 40)
    assert bound_for("teff", "round_sync", "write", None, 1) == ("eq", 2)
    assert bound_for("teff", "round_sync", "read", ROUND_NO_CRASH, 1) == ("eq", 2)
    assert bound_for("teff", "round_sync", "read", ROUND_CRASH, 1) == ("le", 3)
    assert bound_for("abd", "round_sync", "read", ROUND_NO_CRASH, 1) == ("eq", 4)


def run_scenario(algorithm, n, extra_read_time=100):
    cfg = parse_scenario(
        {
            "n": n,
            "t": (n - 1) // 2,
            "algorithm": algorithm,
            "network": {
                "kind": "bounded_delay",
                "Delta": DELTA,
                "schedule": {"mode": "fixed", "delay": DELTA},
            },
            "ops": [
                {"time": 0, "process": 1, "op": "write", "value": "a"},
                {"time": extra_read_time, "process": 2, "op": "read"},
            ],
            "seed": 0,
        }
    )
    return cfg, run(cfg)


@pytest.mark.parametrize(
    "algorithm,n,write_msgs,read_msgs",
    [
        ("teff", 3, 9, 6),
        ("teff", 5, 25, 10),
        ("teff-modified", 3, 9, 6),
        ("abd", 3, 6, 12),
        ("abd", 5, 10, 20),
    ],
)
def test_failure_free_message_counts(algorithm, n, write_msgs, read_msgs):
    cfg, result = run_scenario(algorithm, n)
    counts = count_messages(result.trace, extract_history(result.trace, n))
    assert counts == {0: write_msgs, 1: read_msgs}


def test_concurrent_forwards_charged_to_the_write():
    # A read racing a write must not inflate its own message bill: relays of
    # WRITE traffic triggered while it runs belong to the write.
    cfg = parse_scenario(
        {
            "n": 3,
            "t": 1,
            "algorithm": "teff-modified",
            "network": {"kind": "bounded_delay", "Delta": DELTA},
            "ops": [
                {"time": 0, "process": 1, "op": "write", "value": "a"},
                {"time": 3, "process": 2, "op": "read"},
            ],
            "seed": 13,
        }
    )
    result = run(cfg)
    counts = count_messages(result.trace, extract_history(result.trace, 3))
    total_sends = sum(1 for ev in result.trace if ev.kind == "send")
    assert counts[0] == 9  # the write's broadcasts, wherever triggered from
    assert counts[0] + counts[1] == total_sends


def test_assert_bounds_flags_violations():
    cfg, result = run_scenario("teff", 3)
    report = assert_bounds(result.trace, extract_history(result.trace, cfg.n), cfg)
    assert report.ok
    assert report.max_duration("write") == 2 * DELTA
    assert report.max_duration("read", WLF) == 2 * DELTA
    # Tamper with a respond time to force a violation.
    doctored = []
    for ev in result.trace:
        if ev.kind == "respond" and ev.op_kind == "read":
            object.__setattr__(ev, "time", ev.time + 1000)
        doctored.append(ev)
    bad = assert_bounds(doctored, extract_history(doctored, cfg.n), cfg)
    assert not bad.ok
    assert "read" in bad.violations[0]


def test_pending_read_of_correct_process_counts_as_violation():
    cfg = parse_scenario(
        {
            "n": 5,
            "t": 2,
            "algorithm": "teff",
            "network": {
                "kind": "bounded_delay",
                "Delta": DELTA,
                "schedule": {"mode": "fixed", "delay": DELTA},
            },
            "ops": [
                {"time": 0, "process": 5, "op": "read"},
                {"time": 5, "process": 1, "op": "write", "value": "b"},
            ],
            "crashes": [
                {
                    "process": 1,
                    "during_broadcast": {"op_index": 1, "deliver_to": [], "crash_at": 11},
                }
            ],
            "seed": 0,
        }
    )
    trace = run(cfg).trace
    report = assert_bounds(trace, extract_history(trace, cfg.n), cfg)
    read = next(e for e in report.entries if e.kind == "read")
    assert read.duration is None
    assert read.read_class == INTERFERING_CRASH
    assert read.bound is None  # the base variant claims nothing here
    assert report.ok  # no claim, no violation; termination catches it instead


def test_slow_read_processes_counts_over_threshold():
    cfg, result = run_scenario("abd", 3)
    report = assert_bounds(result.trace, extract_history(result.trace, cfg.n), cfg)
    assert slow_read_processes(report, 3 * DELTA) == {2: 1}  # the 4-delay read
    assert slow_read_processes(report, 4 * DELTA) == {}
