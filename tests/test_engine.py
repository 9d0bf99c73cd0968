"""Simulator behavior: determinism, delay conformance, crashes, rounds."""

import hashlib
import random
from collections import defaultdict, deque
from pathlib import Path

import pytest

import regsim.engine
from regsim.algos import make_algorithm
from regsim.config import NetworkSpec, load_scenario, parse_scenario
from regsim.engine import (
    DEFAULT_EVENT_BUDGET,
    BudgetExceededError,
    ScheduleError,
    _delay_rule,
    _Sim,
    chunks,
    run,
)
from regsim.history import check_termination, extract_history
from regsim.messages import State, Write
from regsim.report import build_report
from regsim.trace import CRASH, DELIVER, INVOKE, ROUND_START, SEND, to_jsonl_bytes


def scenario(**over):
    data = {
        "n": 3,
        "t": 1,
        "algorithm": "teff",
        "network": {"kind": "bounded_delay", "Delta": 10},
        "ops": [
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 60, "process": 2, "op": "read"},
        ],
        "seed": 11,
    }
    data.update(over)
    return parse_scenario(data)


def sends_and_delivers(trace):
    sent = {}
    for ev in trace:
        if ev.kind == SEND:
            sent.setdefault((ev.process, ev.peer, ev.message), []).append(ev.time)
    pairs = []
    for ev in trace:
        if ev.kind == DELIVER:
            times = sent[(ev.peer, ev.process, ev.message)]
            pairs.append((times.pop(0), ev.time))
    return pairs


def send_delays(trace):
    """Each SEND's delay (its DELIVER tick minus its send tick), in send order."""
    delays, waiting = [], defaultdict(deque)
    for ev in trace:
        if ev.kind == SEND:
            waiting[(ev.process, ev.peer, ev.message)].append(len(delays))
            delays.append(ev.time)
        elif ev.kind == DELIVER:
            i = waiting[(ev.peer, ev.process, ev.message)].popleft()
            delays[i] = ev.time - delays[i]
    return delays


ASYNC = {"kind": "async", "Dmax": 50}


@pytest.mark.parametrize(
    "network,delays",
    [
        ({**ASYNC, "schedule": {"mode": "list", "delays": [3, 1, 2]}}, [3, 1] + [2] * 13),
        ({"kind": "bounded_delay", "Delta": 10, "schedule": {"mode": "fixed", "delay": 7}},
         [7] * 15),
        ({**ASYNC, "schedule": {"mode": "increasing", "start": 2, "step": 3}},
         list(range(2, 45, 3))),
        ({**ASYNC, "schedule": {"mode": "increasing"}}, list(range(1, 16))),
        ({"kind": "round_sync", "delta": 3}, [3] * 15),
    ],
    ids=["list", "fixed", "increasing-2-3", "increasing", "round_sync"],
)
def test_pinned_delays_in_send_order(network, delays):
    # The write's broadcast and two relays, then the read's broadcast and
    # three replies: 15 sends, and no delay is drawn.
    assert send_delays(run(scenario(network=network)).trace) == delays


def test_same_seed_bit_identical():
    cfg = scenario(network={"kind": "async", "Dmax": 50}, seed=42)
    assert to_jsonl_bytes(run(cfg).trace) == to_jsonl_bytes(run(cfg).trace)


def test_different_seeds_differ():
    cfg = scenario(network={"kind": "async", "Dmax": 50})
    a = to_jsonl_bytes(run(cfg, seed=1).trace)
    b = to_jsonl_bytes(run(cfg, seed=2).trace)
    assert a != b


def test_bounded_delay_conformance():
    cfg = scenario(seed=3)
    pairs = sends_and_delivers(run(cfg).trace)
    assert pairs
    assert all(0 < recv - send <= 10 for send, recv in pairs)


def test_round_delivery_is_exactly_delta():
    cfg = scenario(network={"kind": "round_sync", "delta": 3})
    trace = run(cfg).trace
    pairs = sends_and_delivers(trace)
    assert pairs
    assert all(recv - send == 3 for send, recv in pairs)
    rounds = [ev.round_no for ev in trace if ev.kind == ROUND_START]
    assert rounds == sorted(set(rounds))


def test_round_ops_align_to_round_starts():
    cfg = scenario(
        network={"kind": "round_sync", "delta": 4},
        ops=[
            {"time": 1, "process": 1, "op": "write", "value": "a"},
            {"time": 30, "process": 3, "op": "read"},
        ],
    )
    hist = extract_history(run(cfg).trace, 3)
    assert hist.ops[0].invoke == 4  # pushed to the next round boundary
    assert hist.ops[0].respond == 12  # a two-round round trip
    assert hist.ops[1].invoke == 32


def test_message_reorder_possible_under_async():
    cfg = scenario(
        network={
            "kind": "async",
            "Dmax": 50,
            "schedule": {"mode": "list", "delays": [40, 1]},
        },
    )
    trace = run(cfg).trace
    # The writer's broadcast goes out to 1, 2, 3 in that order; the first
    # send gets delay 40, the rest 1, so delivery order inverts send order.
    arrival = {
        ev.process: ev.time
        for ev in trace
        if ev.kind == DELIVER and ev.peer == 1 and isinstance(ev.message, Write)
    }
    assert arrival[1] > arrival[2] and arrival[1] > arrival[3]


def test_no_events_after_at_time_crash():
    cfg = scenario(
        t=1,
        crashes=[{"process": 3, "at": 5}],
        seed=9,
    )
    trace = run(cfg).trace
    crash_time = next(ev.time for ev in trace if ev.kind == CRASH and ev.process == 3)
    assert crash_time == 5
    for ev in trace:
        if ev.process == 3 and ev.kind != CRASH:
            assert ev.time < crash_time


def test_during_broadcast_truncates_to_subset():
    cfg = scenario(
        crashes=[
            {"process": 1, "during_broadcast": {"op_index": 0, "deliver_to": [2]}}
        ],
        seed=5,
    )
    result = run(cfg)
    writes = [
        (ev.process, ev.peer)
        for ev in result.trace
        if ev.kind == SEND and isinstance(ev.message, Write) and ev.process == 1
    ]
    assert writes == [(1, 2)]
    assert result.crashed[1] == 0
    # The relay heals the cut: the read still sees the value.
    hist = extract_history(result.trace, 3)
    read = hist.ops[1]
    assert read.respond is not None and read.value == b"a" and read.seqno == 1


def test_during_broadcast_empty_subset_loses_value():
    cfg = scenario(
        crashes=[
            {"process": 1, "during_broadcast": {"op_index": 0, "deliver_to": []}}
        ],
        seed=5,
    )
    result = run(cfg)
    hist = extract_history(result.trace, 3)
    read = hist.ops[1]
    assert read.respond is not None and read.value is None and read.seqno == 0
    assert check_termination(hist).ok  # the lost write belongs to the faulty writer


def test_responsive_window_crash_answers_reads_before_dying():
    cfg = scenario(
        n=5,
        t=2,
        network={
            "kind": "bounded_delay",
            "Delta": 10,
            "schedule": {"mode": "fixed", "delay": 10},
        },
        ops=[
            {"time": 0, "process": 5, "op": "read"},
            {"time": 5, "process": 1, "op": "write", "value": "b"},
        ],
        crashes=[
            {
                "process": 1,
                "during_broadcast": {"op_index": 1, "deliver_to": [], "crash_at": 11},
            }
        ],
        seed=0,
    )
    result = run(cfg)
    assert result.crashed[1] == 11
    replies = [
        ev
        for ev in result.trace
        if ev.kind == SEND and ev.process == 1 and isinstance(ev.message, State)
    ]
    assert replies and replies[0].message.wsn == 1  # answered while doomed


def test_during_forward_cuts_relay():
    cfg = scenario(
        n=5,
        t=2,
        network={
            "kind": "bounded_delay",
            "Delta": 10,
            "schedule": {"mode": "fixed", "delay": 10},
        },
        ops=[{"time": 0, "process": 1, "op": "write", "value": "a"}],
        crashes=[
            {"process": 1, "during_broadcast": {"op_index": 0, "deliver_to": [2]}},
            {"process": 2, "during_forward": {"wsn": 1, "deliver_to": [3]}},
        ],
        seed=0,
    )
    result = run(cfg)
    relays = [
        (ev.process, ev.peer)
        for ev in result.trace
        if ev.kind == SEND and isinstance(ev.message, Write) and ev.process == 2
    ]
    assert relays == [(2, 3)]
    assert result.crashed[2] == 10


def test_during_forward_cuts_the_relay_of_the_first_invoked_write():
    # The ops list the writes out of time order; wsn 1 is the write at tick 0.
    cfg = scenario(
        network={
            "kind": "bounded_delay",
            "Delta": 10,
            "schedule": {"mode": "fixed", "delay": 10},
        },
        ops=[
            {"time": 50, "process": 1, "op": "write", "value": "b"},
            {"time": 0, "process": 1, "op": "write", "value": "a"},
        ],
        crashes=[{"process": 2, "during_forward": {"wsn": 1, "deliver_to": [3]}}],
        seed=0,
    )
    result = run(cfg)
    relays = [
        (ev.time, ev.peer, ev.message)
        for ev in result.trace
        if ev.kind == SEND and ev.process == 2
    ]
    assert relays == [(10, 3, Write(1, b"a"))]
    assert result.crashed[2] == 10


def test_overlapping_ops_raise_schedule_error():
    cfg = scenario(
        ops=[
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 1, "process": 1, "op": "write", "value": "b"},
        ]
    )
    with pytest.raises(ScheduleError):
        run(cfg)


def test_ops_on_crashed_process_are_skipped():
    cfg = scenario(
        ops=[
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 60, "process": 3, "op": "read"},
        ],
        crashes=[{"process": 3, "at": 30}],
        seed=2,
    )
    hist = extract_history(run(cfg).trace, 3)
    assert len(hist.ops) == 1  # the read was never invoked
    assert check_termination(hist).ok


def test_event_budget_guard():
    cfg = scenario()
    with pytest.raises(BudgetExceededError):
        run(cfg, budget=3)


def test_deliveries_to_crashed_process_dropped_silently():
    cfg = scenario(crashes=[{"process": 3, "at": 1}], seed=8)
    trace = run(cfg).trace
    deliveries_to_3 = [ev for ev in trace if ev.kind == DELIVER and ev.process == 3]
    assert deliveries_to_3 == []


def test_channels_deliver_exactly_once():
    cfg = scenario(network={"kind": "async", "Dmax": 30}, seed=21)
    trace = run(cfg).trace
    sends = [
        (ev.process, ev.peer, ev.message) for ev in trace if ev.kind == SEND
    ]
    delivers = [
        (ev.peer, ev.process, ev.message) for ev in trace if ev.kind == DELIVER
    ]
    assert sorted(sends, key=repr) == sorted(delivers, key=repr)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BOUND_FIELDS = ("op", "kind", "class", "duration", "bound", "within")


def without_seq(ev):
    return ev._replace(seq=None)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_lean_run_keeps_the_operation_events_and_verdicts(name):
    # messages=False drops SEND/DELIVER and nothing else: the other events
    # (times, fields, order) and every verdict and bound entry but the
    # message counts match the full run's.
    cfg = load_scenario(SCENARIOS / name)
    for seed in (None, 1, 2, 3):
        full = run(cfg, seed=seed)
        lean = run(cfg, seed=seed, messages=False)
        assert [without_seq(ev) for ev in lean.trace] == [
            without_seq(ev) for ev in full.trace if ev.kind not in (SEND, DELIVER)
        ]
        assert [ev.seq for ev in lean.trace] == list(range(len(lean.trace)))
        assert lean.crashed == full.crashed
        full_report = build_report(cfg, full.trace, full.seed)
        lean_report = build_report(cfg, lean.trace, lean.seed)
        assert lean_report["pass"] == full_report["pass"]
        assert lean_report["checks"] == full_report["checks"]
        assert [
            {k: e[k] for k in BOUND_FIELDS} for e in lean_report["bounds"]["entries"]
        ] == [{k: e[k] for k in BOUND_FIELDS} for e in full_report["bounds"]["entries"]]


def test_lean_run_spends_the_same_event_budget():
    # The budget counts queued items, which a lean run processes all of.
    cfg = scenario()
    needed = next(b for b in range(1, 1000) if _fits(cfg, b, messages=True))
    assert _fits(cfg, needed, messages=False)
    assert not _fits(cfg, needed - 1, messages=False)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_chunks_are_the_trace_cut_at_tick_boundaries(name):
    # Every chunk but the last holds at least `size` events and ends at a
    # tick before the next chunk's first event; together they are run()'s
    # trace, seq included.
    cfg = load_scenario(SCENARIOS / name)
    trace = run(cfg).trace
    assert [ev for part in chunks(cfg) for ev in part] == trace
    for size in (1, 5, 64):
        parts = list(_Sim(cfg, cfg.seed, DEFAULT_EVENT_BUDGET, True).chunks(size))
        assert [ev for part in parts for ev in part] == trace
        for part, after in zip(parts, parts[1:]):
            assert len(part) >= size
            assert not after or part[-1].time < after[0].time


def test_chunks_run_as_they_are_consumed():
    # The first chunk comes before the run has spent its budget; the
    # overrun is raised only when a later chunk is asked for.
    cfg = scenario()
    needed = next(b for b in range(1, 1000) if _fits(cfg, b, messages=True))
    parts = _Sim(cfg, cfg.seed, needed - 1, True).chunks(1)
    assert next(parts)[0].kind == INVOKE
    with pytest.raises(BudgetExceededError):
        list(parts)


def _fits(cfg, budget, messages):
    try:
        run(cfg, budget=budget, messages=messages)
    except BudgetExceededError:
        return False
    return True


@pytest.mark.parametrize("delta", range(1, 65))
def test_drawn_delays_follow_randint(delta):
    # The drawn rule must take randint(1, delta)'s values from the same
    # generator calls: same stream, same generator state afterwards.
    for seed in range(20):
        expected, drawn = random.Random(seed), random.Random(seed)
        delay = _delay_rule(NetworkSpec("async", delta), drawn)
        assert [delay() for _ in range(100)] == [expected.randint(1, delta) for _ in range(100)]
        assert drawn.getstate() == expected.getstate()


def sweep_n15_shaped(algorithm, crashes):
    """n=15, t=7, drawn delays up to Delta=10: writes at ticks 0 and 30 and
    overlapping reads by p2-p5, each process's reads 55 ticks apart."""
    ops = [
        {"time": 0, "process": 1, "op": "write", "value": "a"},
        {"time": 30, "process": 1, "op": "write", "value": "b"},
    ]
    for p, first in ((2, 3), (3, 12), (4, 26), (5, 34)):
        ops.append({"time": first, "process": p, "op": "read"})
        if p < 5:
            ops.append({"time": first + 55, "process": p, "op": "read"})
    return parse_scenario({
        "n": 15,
        "t": 7,
        "algorithm": algorithm,
        "network": {"kind": "bounded_delay", "Delta": 10},
        "ops": ops,
        "crashes": crashes,
    })


NOOP_CASES = [
    *((name, load_scenario(SCENARIOS / name)) for name in
      sorted(p.name for p in SCENARIOS.glob("*.json"))),
    *((f"n15-{alg}-at", sweep_n15_shaped(alg, [{"process": 6, "at": 20}]))
      for alg in ("teff", "teff-modified", "abd")),
    *((f"n15-{alg}-cut", sweep_n15_shaped(alg, [
        {"process": 1, "during_broadcast": {"op_index": 1, "deliver_to": [2], "crash_at": 36}}
    ])) for alg in ("teff", "teff-modified", "abd")),
    *((f"n15-{alg}-forward", sweep_n15_shaped(alg, [
        {"process": 2, "during_forward": {"wsn": 1, "deliver_to": [3, 4]}}
    ])) for alg in ("teff", "teff-modified")),
]


def record_handler_calls(monkeypatch):
    """Record, per engine delivery, (state, message, sender, handler
    output), in the order the engine makes them.  The engine looks each
    handler up by the name in the algorithm's HANDLERS table, so the
    recorders are installed under their own names: a handler's nested call
    of another (the modified STATE through the WRITE handler) is not
    recorded."""
    calls = []

    def recording(handler):
        def recorded(state, msg, sender):
            out = handler(state, msg, sender)
            calls.append((state, msg, sender, out))
            return out

        return recorded

    def recording_algorithm(*args):
        algo = make_algorithm(*args)
        table = {}
        for cls, name in algo.HANDLERS.items():
            table[cls] = f"recorded_{name}"
            setattr(algo, table[cls], recording(getattr(algo, name)))
        algo.HANDLERS = table
        return algo

    monkeypatch.setattr(regsim.engine, "make_algorithm", recording_algorithm)
    return calls


@pytest.mark.parametrize("name,cfg", NOOP_CASES, ids=[name for name, _ in NOOP_CASES])
def test_skipped_deliveries_are_noops_and_traced(name, cfg, monkeypatch):
    # The engine goes no further with a delivery whose class handler returns
    # None.  Each such delivery must be a no-op by `deliver`: the state as it
    # is, nothing sent, nothing completed; and its DELIVER event must be in
    # the trace.  The engine traces each delivery to a live process just
    # before its one handler call, so the calls pair in order with the
    # trace's DELIVER events.
    calls = record_handler_calls(monkeypatch)
    algo = make_algorithm(cfg.algorithm, cfg.n, cfg.t)
    total = 0
    for seed in range(4):
        calls.clear()
        delivers = [ev for ev in run(cfg, seed=seed).trace if ev.kind == DELIVER]
        assert len(delivers) == len(calls)
        for (state, msg, sender, out), event in zip(calls, delivers):
            assert (event.peer, event.message) == (sender, msg)
            if out is not None:
                continue
            total += 1
            assert algo.deliver(state, msg, sender) == (state, (), None), (seed, state, msg)
    if name.startswith("n15"):
        assert total


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_handlers_skip_every_forever_noop_delivery(name, monkeypatch):
    # A handler's None is the one no-op rule: the engine skips the delivery,
    # and the explorer drops the message for good, so None must hold in
    # every later state of the receiver too.  Each process's states are the
    # inputs and outputs of its handler calls, in order (a begin's output is
    # the next call's input).  Every (message, sender) whose handler returned
    # None is tried again at each later state of its process.
    cfg = load_scenario(SCENARIOS / name)
    calls = record_handler_calls(monkeypatch)
    algo = make_algorithm(cfg.algorithm, cfg.n, cfg.t)
    for seed in range(4):
        calls.clear()
        delivers = [ev for ev in run(cfg, seed=seed).trace if ev.kind == DELIVER]
        assert delivers
        states = {p: [] for p in range(1, cfg.n + 1)}
        nones = {p: {} for p in range(1, cfg.n + 1)}  # (msg, sender) -> state index
        for (state, msg, sender, out), event in zip(calls, delivers, strict=True):
            seen = states[event.process]
            if not seen or seen[-1] != state:
                seen.append(state)
            if out is None:
                nones[event.process].setdefault((msg, sender), len(seen) - 1)
            elif out[0] != state:
                seen.append(out[0])
        for p, first in nones.items():
            for (msg, sender), i in first.items():
                for later in states[p][i + 1:]:
                    assert algo.is_noop_delivery(later, msg, sender), (seed, p, msg, sender)


# Queue order: crashes, then deliveries, then invocations at one tick, each
# kind in the order queued.  The pinned values below were taken from the
# engine as it stood before its queue became per-tick buckets.

QUEUE_ORDER = {
    # An `at` crash (p5 at tick 4), a cut write whose `crash_at` (tick 12) is
    # queued mid-run, and reads invoked at ticks that also carry deliveries.
    "budget": {
        "n": 5, "t": 2, "algorithm": "teff",
        "network": {"kind": "bounded_delay", "Delta": 6},
        "ops": [
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 3, "process": 2, "op": "read"},
            {"time": 4, "process": 3, "op": "read"},
            {"time": 9, "process": 1, "op": "write", "value": "b"},
            {"time": 12, "process": 4, "op": "read"},
        ],
        "crashes": [
            {"process": 5, "at": 4},
            {"process": 1,
             "during_broadcast": {"op_index": 3, "deliver_to": [2, 3], "crash_at": 12}},
        ],
        "seed": 4,
    },
    # Tick 4: p3's crash, the write's deliveries and p2's read; tick 13: the
    # cut writer's `crash_at` and a delivery.
    "pinned": {
        "n": 5, "t": 2, "algorithm": "teff-modified",
        "network": {"kind": "bounded_delay", "Delta": 10,
                    "schedule": {"mode": "fixed", "delay": 4}},
        "ops": [
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 4, "process": 2, "op": "read"},
            {"time": 9, "process": 1, "op": "write", "value": "b"},
        ],
        "crashes": [
            {"process": 3, "at": 4},
            {"process": 1,
             "during_broadcast": {"op_index": 2, "deliver_to": [4], "crash_at": 13}},
        ],
    },
    # Tick 3: a round start, p4's crash, the write's deliveries and p2's read
    # (invoked at 2, aligned to the round boundary).
    "round": {
        "n": 5, "t": 2, "algorithm": "abd",
        "network": {"kind": "round_sync", "delta": 3},
        "ops": [
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 2, "process": 2, "op": "read"},
            {"time": 7, "process": 1, "op": "write", "value": "b"},
        ],
        "crashes": [{"process": 4, "at": 3}],
    },
}

BUDGET_QUEUED = [
    10, 14, 13, 12, 16, 20, 24, 23, 22, 26, 25, 24, 23, 22, 21, 20, 24, 23, 22, 21,
    20, 19, 19, 19, 18, 17, 16, 15, 15, 15, 14, 13, 12, 11, 11, 11, 10, 9, 8, 10,
    10, 10, 9, 8, 12, 16, 15, 14, 13, 12, 16, 20, 19, 18, 17, 16, 15, 14, 14, 14,
    13, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1,
]


@pytest.mark.parametrize("messages", [True, False], ids=["full", "lean"])
def test_budget_error_counts_the_items_still_queued(messages):
    # Every budget short of the run's 75 items stops at a different item; the
    # error counts that item and everything still queued behind it.
    cfg = parse_scenario(QUEUE_ORDER["budget"])
    queued = []
    for budget in range(1, len(BUDGET_QUEUED) + 1):
        with pytest.raises(BudgetExceededError) as err:
            run(cfg, budget=budget, messages=messages)
        assert err.value.budget == budget
        queued.append(err.value.queued)
    assert queued == BUDGET_QUEUED
    assert _fits(cfg, len(BUDGET_QUEUED) + 1, messages)


@pytest.mark.parametrize("name,tick,digest", [
    ("pinned", 4, "704d61c12b50075c15ef16afadf0b93b6572aacc982739ab230a441310a3ed55"),
    ("round", 3, "7b295ed181ec1e2608fd8d970033052ca04d7b39234d92d80c99c4868c337269"),
], ids=["pinned", "round"])
def test_one_tick_settles_crash_deliveries_then_invocation(name, tick, digest):
    trace = run(parse_scenario(QUEUE_ORDER[name])).trace
    kinds = [ev.kind for ev in trace if ev.time == tick and ev.kind not in (SEND, ROUND_START)]
    assert kinds[0] == CRASH and kinds[-1] == INVOKE and kinds.count(DELIVER) >= 3
    assert hashlib.sha256(to_jsonl_bytes(trace)).hexdigest() == digest
