"""Checker behavior on constructed and extracted histories."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regsim.cli import main
from regsim.config import parse_scenario
from regsim.engine import run
from regsim.history import (
    History,
    OpRecord,
    Verdict,
    check_claims,
    check_linearizable,
    check_termination,
    checkers_agree,
    extract_history,
)
from regsim.messages import AbdQuery, Read, State, Write
from regsim.trace import CRASH, DELIVER, INVOKE, RESPOND, SEND, TraceEvent


def w(op_id, invoke, respond, seqno, process=1):
    return OpRecord(op_id, process, "write", invoke, respond, bytes([96 + seqno]), seqno)


def r(op_id, process, invoke, respond, seqno):
    value = None if seqno == 0 else bytes([96 + seqno])
    return OpRecord(op_id, process, "read", invoke, respond, value, seqno)


def hist(ops, crashed=None, n=3):
    h = History(n=n)
    h.ops = list(ops)
    h.crashed = dict(crashed or {})
    return h


def test_records_default_fresh_lists_and_compare_field_by_field_within_a_class():
    a, b = History(n=3), History(n=3)
    assert a == b and a.ops is not b.ops and a.crashed is not b.crashed
    a.ops.append(w(0, 0, 1, 1))
    a.crashed[2] = 5
    assert a != b and b.ops == [] and b.crashed == {}
    verdict, other = Verdict("claims", "pass"), Verdict("claims", "pass")
    assert verdict.violations == [] and verdict.violations is not other.violations
    assert verdict == Verdict("claims", "pass", []) != Verdict("claims", "fail", [])
    # A record equals no object of another class, whatever its fields.
    assert verdict != SimpleNamespace(name="claims", status="pass", violations=[])
    assert verdict != ("claims", "pass", [])
    assert w(0, 0, 1, 1) == w(0, 0, 1, 1) != w(0, 0, 2, 1)
    for record in (a, verdict, w(0, 0, 1, 1)):
        with pytest.raises(TypeError):
            hash(record)


def test_records_repr_their_fields_by_name():
    assert repr(r(1, 2, 3, None, 0)) == (
        "OpRecord(op_id=1, process=2, kind='read', invoke=3, respond=None, value=None, seqno=0, "
        "messages=0)"
    )
    assert repr(hist([], {2: 5})) == "History(n=3, ops=[], crashed={2: 5}, events=0)"
    assert repr(Verdict("claims", "fail", ["x"])) == (
        "Verdict(name='claims', status='fail', violations=['x'])"
    )


ORACLE_MAX_OPS = 9  # the brute-force oracle's reach


def oracle(history):
    """Brute force: is there a total order of the completed ops, and of any
    pending ops chosen to take effect, that extends real time and program
    order and in which each read returns the seqno and value of the last
    write before it (seqno 0 and None if there is none)?  Exponential, so
    meant for histories of at most ORACLE_MAX_OPS ops.  Its precedence
    relation is written here from the definition, not taken from regsim."""
    preds = {}
    invoked = {}  # process -> its ops so far, in program order
    for b in history.ops:
        mine = invoked.setdefault(b.process, [])
        finished = [a for a in history.ops if a.respond is not None and a.respond < b.invoke]
        preds[id(b)] = {id(a) for a in finished + mine}
        mine.append(b)
    placed = set()

    def step(last, remaining):
        """`last`: the seqno and value of the last write placed."""
        if all(op.pending for op in remaining):
            return True  # the rest may never have taken effect
        for i, op in enumerate(remaining):
            if not preds[id(op)] <= placed:
                continue
            if op.kind == "write":
                after = (op.seqno, op.value)
            elif (op.seqno, op.value) == last:
                after = last
            else:
                continue
            placed.add(id(op))
            ok = step(after, remaining[:i] + remaining[i + 1 :])
            placed.discard(id(op))
            if ok:
                return True
        return False

    return step((0, None), history.ops)


# --- termination ---------------------------------------------------------


def test_termination_pass_when_all_respond():
    h = hist([w(0, 0, 5, 1), r(1, 2, 6, 9, 1)])
    assert check_termination(h).ok


def test_crashed_writer_excused_for_last_write():
    h = hist([w(0, 0, None, 1)], crashed={1: 2})
    assert check_termination(h).ok


def test_pending_read_of_correct_process_fails():
    h = hist([r(0, 2, 0, None, 0)])
    verdict = check_termination(h)
    assert not verdict.ok
    assert "op 0" in verdict.violations[0]


# --- claims ----------------------------------------------------------------


def test_read_after_write_must_see_it():
    h = hist([w(0, 0, 5, 1), r(1, 2, 6, 9, 0)])
    verdict = check_claims(h)
    assert not verdict.ok
    assert "started after" in verdict.violations[0]


def test_sequential_reads_cannot_invert():
    # The second write stays concurrent with both reads, so the only claim
    # broken is the read/read one.
    h = hist(
        [
            w(0, 0, 4, 1),
            w(1, 5, 20, 2),
            r(2, 2, 6, 8, 2),
            r(3, 3, 9, 11, 1),
        ]
    )
    verdict = check_claims(h)
    assert not verdict.ok
    assert all("inversion" in v for v in verdict.violations)


def test_read_from_the_future_rejected():
    for respond in (5, None):  # the write completed, or p1 crashed during it
        h = hist([r(0, 2, 0, 1, 1), w(1, 2, respond, 1)], crashed={1: 6})
        assert not check_claims(h).ok
        assert not check_linearizable(h).ok


def test_read_of_unwritten_seqno_rejected():
    h = hist([r(0, 2, 0, 3, 7)])
    verdict = check_claims(h)
    assert not verdict.ok
    assert "no write produced" in verdict.violations[0]


def test_concurrent_read_may_return_old_value():
    h = hist([w(0, 0, 10, 1), r(1, 2, 2, 8, 0)])
    assert check_claims(h).ok
    assert check_linearizable(h).ok


# --- linearizable ----------------------------------------------------------


def test_reads_at_one_tick_keep_program_order():
    # p2's two reads start and end at tick 3, one after the other, during
    # write 1.
    h = hist([w(0, 0, 5, 1), r(1, 2, 3, 3, 0), r(2, 2, 3, 3, 1)])
    assert check_linearizable(h).ok and oracle(h)
    for seqnos, ok in [((1, 0), False), ((1, 1), True)]:
        h.ops[1:] = [r(1, 2, 3, 3, seqnos[0]), r(2, 2, 3, 3, seqnos[1])]
        assert check_linearizable(h).ok == oracle(h) == ok


def test_empty_history_linearizable():
    assert check_linearizable(hist([])).ok


def test_concurrent_write_and_initial_read():
    h = hist([w(0, 0, 10, 1), r(1, 2, 1, 9, 0)])
    assert check_linearizable(h).ok


def test_pending_write_value_may_be_read():
    h = hist([w(0, 0, None, 1), r(1, 2, 5, 20, 1)], crashed={1: 1})
    assert check_linearizable(h).ok
    assert check_claims(h).ok


def test_pending_write_may_also_never_happen():
    h = hist([w(0, 0, None, 1), r(1, 2, 5, 20, 0)], crashed={1: 1})
    assert check_linearizable(h).ok


def test_inverted_reads_not_linearizable():
    h = hist(
        [
            w(0, 0, 4, 1),
            w(1, 5, 9, 2),
            r(2, 2, 10, 12, 2),
            r(3, 3, 13, 15, 1),
        ]
    )
    assert not check_linearizable(h).ok


def long_history(rounds=8):
    """A valid history of 3 * rounds + 1 ops: write k at [10k, 10k+5], a p2
    read of k right after it, a p3 read overlapping write k+1 that returns
    k or k+1 in turn, and a last write left pending by p1's crash, which
    p3's last read returns."""
    ops = []
    for k in range(1, rounds + 1):
        ops.append(w(len(ops), 10 * k, 10 * k + 5, k))
        ops.append(r(len(ops), 2, 10 * k + 6, 10 * k + 7, k))
        ops.append(r(len(ops), 3, 10 * k + 7, 10 * k + 11, k + k % 2))
    ops.append(w(len(ops), 10 * rounds + 10, None, rounds + 1))
    ops[-2].seqno, ops[-2].value = rounds + 1, bytes([97 + rounds])
    return hist(sorted(ops, key=lambda op: op.invoke), crashed={1: 10 * rounds + 12})


def test_long_valid_history_passes():
    h = long_history()
    assert len(h.ops) > ORACLE_MAX_OPS
    for check in (check_termination, check_claims, check_linearizable):
        assert check(h).status == "pass"


def test_long_history_with_new_old_inversion_fails():
    # p3's read in round 3 returned write 4; a p2 read after it returns 3.
    h = long_history()
    h.ops.append(r(len(h.ops), 2, 43, 44, 3))
    h.ops.sort(key=lambda op: op.invoke)
    assert check_claims(h).violations == [
        "read op 8 (seqno 4) before read op 25 (seqno 3): new/old inversion"
    ]
    assert check_linearizable(h).status == "fail"


def test_long_history_with_wrong_value_fails():
    h = long_history()
    h.reads()[5].value = b"zz"
    assert check_claims(h).status == "fail"
    assert check_linearizable(h).status == "fail"


def test_long_run_reports_linearizable_pass(tmp_path, capsys):
    # Five rounds of a write, a read during it and a read after it.
    ops = []
    for i in range(5):
        ops += [
            {"time": 50 * i, "process": 1, "op": "write", "value": f"v{i}"},
            {"time": 50 * i + 10, "process": 2, "op": "read"},
            {"time": 50 * i + 30, "process": 3, "op": "read"},
        ]
    scenario = {
        "n": 3,
        "t": 1,
        "algorithm": "teff",
        "network": {"kind": "bounded_delay", "Delta": 10},
        "ops": ops,
        "seed": 3,
    }
    cfg, trace = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    cfg.write_text(json.dumps(scenario))
    ran, checked = tmp_path / "run.json", tmp_path / "check.json"
    assert main(["run", str(cfg), "--out", str(trace), "--report", str(ran)]) == 0
    assert main(["check", str(trace), "--config", str(cfg), "--report", str(checked)]) == 0
    for report in (ran, checked):
        assert json.loads(report.read_text())["checks"]["linearizable"]["status"] == "pass"
    capsys.readouterr()
    assert main(["check", str(trace)]) == 0
    assert "linearizable: pass" in capsys.readouterr().out.splitlines()


def test_agreement_on_simulated_histories():
    for seed in range(30):
        cfg = parse_scenario(
            {
                "n": 3,
                "t": 1,
                "algorithm": "teff",
                "network": {"kind": "async", "Dmax": 40},
                "ops": [
                    {"time": 0, "process": 1, "op": "write", "value": "a"},
                    {"time": 10, "process": 2, "op": "read"},
                    {"time": 400, "process": 1, "op": "write", "value": "b"},
                    {"time": 410, "process": 3, "op": "read"},
                ],
                "seed": seed,
            }
        )
        h = extract_history(run(cfg).trace, 3)
        assert check_claims(h).ok and check_linearizable(h).ok and oracle(h)
        assert checkers_agree(h)


def test_extraction_assigns_pending_write_seqnos():
    cfg = parse_scenario(
        {
            "n": 3,
            "t": 1,
            "algorithm": "teff",
            "network": {"kind": "bounded_delay", "Delta": 10},
            "ops": [
                {"time": 0, "process": 1, "op": "write", "value": "a"},
                {"time": 50, "process": 1, "op": "write", "value": "b"},
            ],
            "crashes": [
                {"process": 1, "during_broadcast": {"op_index": 1, "deliver_to": []}}
            ],
            "seed": 4,
        }
    )
    h = extract_history(run(cfg).trace, 3)
    assert [op.seqno for op in h.ops] == [1, 2]
    assert h.ops[1].pending
    assert h.crashed == {1: 50}


WRITE_INVOKE = TraceEvent(0, 0, INVOKE, 1, 0, "write", b"a")
WRITE_RESPOND = TraceEvent(5, 1, RESPOND, 1, 0, "write", None, 1)


@pytest.mark.parametrize(
    "trace,reason",
    [
        ([WRITE_INVOKE, TraceEvent(1, 1, INVOKE, 2, 0, "read")], "second invoke of op 0"),
        (
            [WRITE_INVOKE, WRITE_RESPOND, WRITE_RESPOND._replace(time=6, seq=2)],
            "second respond to op 0",
        ),
        (
            [WRITE_INVOKE, WRITE_RESPOND._replace(process=2)],
            "respond to op 0 is a write by p2, but it was invoked as a write by p1",
        ),
        (
            [WRITE_INVOKE, WRITE_RESPOND._replace(op_kind="read", value=b"zz")],
            "respond to op 0 is a read by p1, but it was invoked as a write by p1",
        ),
        (
            [WRITE_INVOKE, WRITE_RESPOND._replace(seqno=7)],
            "respond to write op 0 carries wsn 7 and value None, but the write has wsn 1",
        ),
        (
            [WRITE_INVOKE, WRITE_RESPOND._replace(value=b"zzz")],
            "respond to write op 0 carries wsn 1 and value b'zzz', but the write has wsn 1",
        ),
        (
            [
                WRITE_INVOKE,
                WRITE_RESPOND,
                WRITE_INVOKE._replace(time=6, seq=2, op_id=1),
                WRITE_RESPOND._replace(time=7, seq=3, op_id=1),
            ],
            "respond to write op 1 carries wsn 1 and value None, but the write has wsn 2",
        ),
    ],
    ids=[
        "second-invoke", "second-respond", "other-process", "other-kind", "write-other-wsn",
        "write-with-value", "second-write-first-wsn",
    ],
)
def test_extraction_rejects_inconsistent_traces(trace, reason):
    with pytest.raises(ValueError, match=reason):
        extract_history(trace, 3)


def test_invoke_at_the_previous_respond_tick_is_accepted():
    # tests/test_cli.py checks that an earlier invoke is rejected.
    trace = [
        TraceEvent(2, 2, INVOKE, 2, 1, "read"),
        TraceEvent(4, 3, RESPOND, 2, 1, "read", b"a", 1),
        TraceEvent(4, 4, INVOKE, 2, 2, "read"),
    ]
    assert [op.invoke for op in extract_history(trace, 3).ops] == [2, 4]


READ_INVOKE = TraceEvent(0, 0, INVOKE, 2, 0, "read")


def message_event(kind, process, peer, message=Read(1)):
    return TraceEvent(1, 1, kind, process, peer=peer, message=message)


@pytest.mark.parametrize(
    "kind,process,peer,reason",
    [
        (SEND, 2, 4, "send event 1 at p2 to p4; processes end at p3"),
        (SEND, 0, 2, "send event 1 at p0 to p2; processes start at p1"),
        (DELIVER, 4, 2, "deliver event 1 at p4 from p2; processes end at p3"),
        (DELIVER, 3, -1, "deliver event 1 at p3 from p-1; processes start at p1"),
    ],
    ids=["send-peer-above", "send-process-below", "deliver-process-above", "deliver-peer-below"],
)
def test_extraction_rejects_a_message_event_outside_the_processes(kind, process, peer, reason):
    trace = [READ_INVOKE, message_event(kind, process, peer)]
    with pytest.raises(ValueError, match=reason):
        extract_history(trace, 3)
    if "end at" in reason:
        assert extract_history(trace, None).n == 2  # with no n, no upper bound


@pytest.mark.parametrize("kind", [SEND, DELIVER])
def test_extraction_rejects_a_message_class_outside_the_given_classes(kind):
    trace = [READ_INVOKE, message_event(kind, 2, 3, AbdQuery(1))]
    with pytest.raises(ValueError, match=f"{kind} event 1 carries .* has no handler for"):
        extract_history(trace, 3, (Write, Read, State))
    assert extract_history(trace, 3).events == 2  # with no classes, any class


def test_extraction_without_n_reads_it_from_the_op_and_crash_events():
    trace = [READ_INVOKE, message_event(SEND, 2, 9), TraceEvent(2, 2, CRASH, 4)]
    h = extract_history(trace, None)
    assert (h.n, h.crashed, h.events) == (4, {4: 2}, 3)
    assert h.ops == [OpRecord(0, 2, "read", 0, messages=1)]
    assert extract_history([], None).n == 1


# --- values and program order ----------------------------------------------


def test_read_must_return_the_value_of_its_seqno():
    good = hist([w(0, 0, 2, 1), r(1, 2, 3, 5, 1)])
    assert check_claims(good).ok and check_linearizable(good).ok
    bad = hist([w(0, 0, 2, 1), OpRecord(1, 2, "read", 3, 5, b"zz", 1)])
    claims = check_claims(bad)
    assert not claims.ok and not check_linearizable(bad).ok
    assert claims.violations == ["read op 1 (seqno 1) returned b'zz', not b'a'"]


def test_initial_read_must_return_none():
    bad = hist([OpRecord(0, 2, "read", 0, 1, b"a", 0)])
    assert not check_claims(bad).ok and not check_linearizable(bad).ok


def test_program_order_orders_ops_touching_at_a_tick():
    # One delay each way: every op starts at the tick the one before it in
    # its process ends.
    cfg = parse_scenario(
        {
            "n": 3,
            "t": 1,
            "algorithm": "teff",
            "network": {
                "kind": "bounded_delay",
                "Delta": 1,
                "schedule": {"mode": "fixed", "delay": 1},
            },
            "ops": [
                {"time": 0, "process": 1, "op": "write", "value": "a"},
                {"time": 2, "process": 1, "op": "write", "value": "b"},
                {"time": 2, "process": 2, "op": "read"},
                {"time": 4, "process": 2, "op": "read"},
            ],
            "seed": 0,
        }
    )
    h = extract_history(run(cfg).trace, 3)
    intervals = [(op.kind, op.invoke, op.respond) for op in h.ops]
    assert intervals == [("write", 0, 2), ("write", 2, 4), ("read", 2, 4), ("read", 4, 6)]
    assert check_claims(h).ok and check_linearizable(h).ok
    # p2's first read returns write 2 and its second read write 1: in real
    # time the two reads overlap at tick 4, but p2 ran them in that order.
    first, second = h.reads()
    first.seqno, first.value, second.seqno, second.value = 2, b"b", 1, b"a"
    claims = check_claims(h)
    assert not claims.ok and not check_linearizable(h).ok
    assert claims.violations == ["read op 2 (seqno 2) before read op 3 (seqno 1): new/old inversion"]


def test_touching_writes_are_ordered_for_the_oracle_too():
    # Write 2 follows write 1 although they touch at tick 2, so a read after
    # write 2 finished cannot return write 1.
    h = hist([w(0, 0, 2, 1), w(1, 2, 4, 2), r(2, 2, 5, 6, 1)])
    assert not check_claims(h).ok
    assert not check_linearizable(h).ok
    assert not oracle(h)
    assert checkers_agree(h)


# --- both checkers against the oracle ---------------------------------------



@st.composite
def sequential_histories(draw):
    """Histories of the paper's model with at most 9 ops, built as traces:
    p1 writes (and may read), p2 and p3 read, each process one op at a time
    with gaps and durations of 0-2 ticks, so ops often touch at a tick; a
    process's last op may be pending.  Reads return seqnos 0..W+1 (W+1 is
    unknown) and sometimes a wrong value."""
    values = [b"a", b"b", b"zz"]
    ticks = st.sampled_from([0, 0, 1, 2])  # gaps and durations
    per_process = []
    op_id = 0
    for p in (1, 2, 3):
        events, tick = [], draw(ticks)
        count = draw(st.integers(0, 4 if p == 1 else 3))
        for i in range(count):
            kind = "write" if p == 1 and draw(st.booleans()) else "read"
            value = draw(st.sampled_from(values)) if kind == "write" else None
            events.append((tick, INVOKE, p, op_id, kind, value))
            if i < count - 1 or draw(st.booleans()):
                tick += draw(ticks)
                events.append((tick, RESPOND, p, op_id, kind))
                tick += draw(ticks)
            op_id += 1
        per_process.append(events)
    merged = sorted(
        (ev for events in draw(st.permutations(per_process)) for ev in events),
        key=lambda ev: ev[0],
    )
    assume(op_id <= ORACLE_MAX_OPS)
    written = [None]
    trace = []
    for seq, (tick, kind, p, op, op_kind, *value) in enumerate(merged):
        if kind == INVOKE:
            if op_kind == "write":
                written.append(value[0])
            trace.append(TraceEvent(tick, seq, INVOKE, p, op, op_kind, *value))
        elif op_kind == "write":
            trace.append(TraceEvent(tick, seq, RESPOND, p, op, "write", None, len(written) - 1))
        else:
            latest = len(written) - 1
            seqno = draw(st.sampled_from([latest, latest, max(latest - 1, 0), *range(latest + 2)]))
            right = written[seqno] if seqno < len(written) else None
            value = draw(st.sampled_from([right, right, right, None, *values]))
            trace.append(TraceEvent(tick, seq, RESPOND, p, op, "read", value, seqno))
    return extract_history(trace, 3)


# p2's second read starts at the tick its first read ends and returns an
# older seqno, while the write is still pending: only program order orders
# the two reads, and random draws rarely produce it.
PROGRAM_ORDER_INVERSION = extract_history(
    [
        TraceEvent(0, 0, INVOKE, 1, 0, "write", b"a"),
        TraceEvent(0, 1, INVOKE, 2, 1, "read"),
        TraceEvent(1, 2, RESPOND, 2, 1, "read", b"a", 1),
        TraceEvent(1, 3, INVOKE, 2, 2, "read"),
        TraceEvent(1, 4, RESPOND, 2, 2, "read", None, 0),
    ],
    3,
)


@settings(max_examples=600, deadline=None)
@given(sequential_histories())
@example(PROGRAM_ORDER_INVERSION)
def test_claims_agree_with_the_oracle(h):
    assert check_claims(h).ok == check_linearizable(h).ok == oracle(h)
