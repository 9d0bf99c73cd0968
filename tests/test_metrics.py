"""Read classification, the bound table, and message attribution."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim.config import parse_scenario
from regsim.engine import run
from regsim.history import History, OpRecord, extract_history
from regsim.trace import CRASH, INVOKE, RESPOND, TraceEvent
from regsim.metrics import (
    INTERFERING,
    INTERFERING_CRASH,
    ROUND_CRASH,
    ROUND_NO_CRASH,
    WLF,
    BoundReport,
    WriteIndex,
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


# The O(reads x writes) scan that WriteIndex replaced, kept as the reference.


def _scan_concurrent(w, r):
    if w.respond is not None and w.respond < r.invoke:
        return False
    if r.respond is not None and r.respond < w.invoke:
        return False
    return True


def _scan_crashed_during(history, w):
    crash = history.crashed.get(w.process)
    if crash is None:
        return False
    if w.respond is not None:
        return w.invoke <= crash <= w.respond
    return crash >= w.invoke


def scan_classify_read(history, read_op, delta):
    writes = history.writes()
    concurrent = [w for w in writes if _scan_concurrent(w, read_op)]
    preceding = [
        w for w in writes if w.invoke < read_op.invoke and not _scan_concurrent(w, read_op)
    ]
    closest = max(preceding, key=lambda w: w.invoke) if preceding else None
    if not concurrent:
        if closest is None:
            return WLF
        if not _scan_crashed_during(history, closest) and closest.invoke < read_op.invoke - delta:
            return WLF
        if _scan_crashed_during(history, closest):
            return INTERFERING_CRASH
        return INTERFERING
    if any(_scan_crashed_during(history, w) for w in concurrent):
        return INTERFERING_CRASH
    return INTERFERING


def scan_classify_read_round(history, read_op):
    for w in history.writes():
        if _scan_concurrent(w, read_op) and _scan_crashed_during(history, w):
            return ROUND_CRASH
    return ROUND_NO_CRASH


@st.composite
def op_runs(draw, process, kind, first_op_id):
    """Sequential ops of one process: gaps and durations of 0..12 ticks (so
    equal-tick boundaries occur), the last one possibly pending."""
    ops = []
    t = draw(st.integers(0, 12))
    count = draw(st.integers(0, 5))
    for i in range(count):
        invoke = t
        if i == count - 1 and draw(st.booleans()):
            respond = None
        else:
            respond = t = invoke + draw(st.integers(0, 12))
        t += draw(st.integers(0, 12))
        ops.append(OpRecord(first_op_id + i, process, kind, invoke, respond, b"v", i + 1))
    return ops


@st.composite
def single_writer_histories(draw):
    ops = draw(op_runs(1, "write", 0))
    for p in (2, 3, 4):
        ops += draw(op_runs(p, "read", 10 * p))
    h = History(n=4)
    h.ops = sorted(ops, key=lambda o: o.invoke)
    for p in draw(st.sets(st.integers(1, 4))):
        h.crashed[p] = draw(st.integers(0, 80))
    return h


@settings(max_examples=300, deadline=None)
@given(single_writer_histories(), st.integers(1, 12))
def test_read_classification_matches_the_scan(h, delta):
    index = WriteIndex(h)
    for read in h.reads():
        expected = scan_classify_read(h, read, delta)
        assert classify_read(h, read, delta) == expected
        assert classify_read(h, read, delta, index) == expected
        assert classify_read_round(h, read, index) == scan_classify_read_round(h, read)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_closest_write_tie_goes_to_the_first_in_history_order(order):
    # p1's zero-length write of a and its write of b are both invoked at tick
    # 10 and both precede the read; the writer crashed at 12, during b only.
    # Only the first in history order (a) decides, so the read is wlf.  The
    # trace fixes that order: b invoked before a responded is no history.
    at_ten = [
        TraceEvent(10, 0, RESPOND, 1, 0, "write", None, 1),
        TraceEvent(10, 0, INVOKE, 1, 1, "write", b"b"),
    ]
    trace = [
        TraceEvent(10, 0, INVOKE, 1, 0, "write", b"a"),
        *(at_ten[i] for i in order),
        TraceEvent(12, 0, RESPOND, 1, 1, "write", None, 2),
        TraceEvent(12, 0, CRASH, 1),
        TraceEvent(50, 0, INVOKE, 3, 2, "read"),
        TraceEvent(60, 0, RESPOND, 3, 2, "read", b"b", 2),
    ]
    if order == (1, 0):
        with pytest.raises(ValueError, match="before its op 0 responded"):
            extract_history(trace, 3)
        return
    h = extract_history(trace, 3)
    read = h.reads()[0]
    assert WriteIndex(h).query(read)[0] is h.writes()[0]
    assert scan_classify_read(h, read, DELTA) == WLF
    assert classify_read(h, read, DELTA) == WLF


def test_extraction_rejects_a_second_writer():
    # Two writers invoked at one tick: the writes would not form a chain,
    # which WriteIndex relies on.
    trace = [
        TraceEvent(10, 0, INVOKE, 1, 0, "write", b"a"),
        TraceEvent(10, 1, INVOKE, 2, 1, "write", b"b"),
    ]
    with pytest.raises(ValueError, match="write op 1 by p2; only p1 writes"):
        extract_history(trace, 3)


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
            ev = ev._replace(time=ev.time + 1000)
        doctored.append(ev)
    bad = assert_bounds(doctored, extract_history(doctored, cfg.n), cfg)
    assert not bad.ok
    assert "read" in bad.violations[0]


def test_bound_report_defaults_fresh_lists_compares_by_field_and_reprs_them():
    a, b = BoundReport("teff", "async", True), BoundReport("teff", "async", True)
    assert a == b and a.entries is not b.entries and a.violations is not b.violations
    a.violations.append("op 0 (write) took 30 ticks, bound le 20")
    assert a != b and b.violations == []
    assert b != ("teff", "async", True, [], [])
    assert repr(b) == (
        "BoundReport(algorithm='teff', model='async', informational=True, "
        "entries=[], violations=[])"
    )
    with pytest.raises(TypeError):
        hash(b)


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
