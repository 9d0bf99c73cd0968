"""CLI contract: exit codes, artifacts, report regeneration."""

import gc
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import regsim.cli
import regsim.metrics
import regsim.report
from regsim.cli import main
from regsim.config import load_scenario
from regsim.engine import run
from regsim.explore import BroadcastCrash, explore
from regsim.messages import State, encode_message
from regsim.trace import to_jsonl_bytes
from test_config import NEVER_RELAYED

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def write_config(tmp_path, **over):
    data = {
        "n": 3,
        "t": 1,
        "algorithm": "teff",
        "network": {"kind": "bounded_delay", "Delta": 10},
        "ops": [
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 60, "process": 2, "op": "read"},
        ],
        "seed": 7,
    }
    data.update(over)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_run_pass_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.json"
    code = main(["run", str(cfg), "--out", str(trace), "--report", str(report)])
    assert code == 0
    assert trace.exists() and report.exists()
    out = capsys.readouterr().out
    assert "termination: pass" in out


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    quiet = str(SCENARIOS / "read-quiet.json")
    done = subprocess.run(
        [sys.executable, "-m", "regsim", "run", quiet],
        env=env, capture_output=True, text=True, check=False,
    )
    assert main(["run", quiet]) == done.returncode == 0
    assert done.stdout == capsys.readouterr().out
    missing = str(tmp_path / "missing.json")
    done = subprocess.run(
        [sys.executable, "-m", "regsim", "run", missing],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 2 and done.stderr.startswith("config error: cannot read")


def test_importing_regsim_loads_neither_dataclasses_nor_inspect():
    # Every regsim process pays for its imports, and `dataclasses` (with
    # the `inspect`, `ast`, `dis` and `tokenize` it imports) would cost
    # each one more than regsim's own modules.  `-S` keeps site hooks out.
    code = (
        "import importlib, sys\n"
        "from pathlib import Path\n"
        "import regsim\n"
        "for path in Path(regsim.__file__).parent.glob('*.py'):\n"
        "    importlib.import_module('regsim.' + path.stem)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["run"], ["sweep", "--seeds", "3"]], ids=["run", "sweep"]
)
def test_closed_stdout_exit_two_without_traceback(argv, buffered):
    # Whoever reads stdout is gone before the first line, as when `regsim
    # run ... | head` exits early: not a BrokenPipeError traceback and exit 1
    # ("a check failed"), but exit 2 and one line on stderr, whether the
    # write fails in a print or in the flush after the command.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command, *flags = argv
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "regsim", command, str(SCENARIOS / "read-quiet.json"), *flags],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, check=False,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.startswith("output error: cannot write stdout: ")
    assert done.stderr.count("\n") == 1


def test_run_config_error_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, n=4, t=2)
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "over",
    [{"network": 5, "ops": []}, {"crashes": {"process": 2, "at": 5}}],
    ids=str,
)
def test_run_wrong_json_type_exit_two(tmp_path, capsys, over):
    cfg = write_config(tmp_path, **over)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


BOUNDED = {"kind": "bounded_delay", "Delta": 10}


@pytest.mark.parametrize(
    "over,error",
    [
        ({"options": {"writer_local_read": False}}, "scenario: unknown fields ['options']"),
        ({"network": {**BOUNDED, "overrides": []}}, "network: unknown fields ['overrides']"),
        (
            {"network": {**BOUNDED, "shedule": {"mode": "fixed", "delay": 1}}},
            "network: unknown fields ['shedule']",
        ),
    ],
    ids=["options", "overrides", "shedule"],
)
def test_run_unknown_field_exit_two(tmp_path, capsys, over, error):
    cfg = write_config(tmp_path, **over)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("crash,error", NEVER_RELAYED, ids=["wsn", "writer"])
def test_run_relay_crash_that_never_fires_exit_two(tmp_path, capsys, crash, error):
    cfg = write_config(tmp_path, crashes=[crash])
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_run_schedule_error_exit_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        ops=[
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 1, "process": 1, "op": "write", "value": "b"},
        ],
    )
    assert main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "over,budget,code",
    [({}, None, 0), ({"n": 4, "t": 2}, None, 2), ({}, "2", 3), ({}, None, RuntimeError)],
    ids=["exit-0", "config-error-exit-2", "resource-bound-exit-3", "raises"],
)
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, capsys, monkeypatch, collecting, over, budget, code
):
    cfg = write_config(tmp_path, **over)
    if budget is not None:
        monkeypatch.setenv("REGSIM_EVENT_BUDGET", budget)
    during = []
    cmd_run = regsim.cli.cmd_run

    def recorded(args):
        during.append(gc.isenabled())
        if code is RuntimeError:
            raise RuntimeError("command failed")
        return cmd_run(args)

    monkeypatch.setattr(regsim.cli, "cmd_run", recorded)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if code is RuntimeError:
            with pytest.raises(RuntimeError, match="command failed"):
                main(["run", str(cfg)])
        else:
            assert main(["run", str(cfg)]) == code
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_run_check_failure_exit_one(capsys):
    assert main(["run", str(SCENARIOS / "base-gap-base.json")]) == 1
    out = capsys.readouterr().out
    assert "termination: fail" in out


def test_budget_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REGSIM_EVENT_BUDGET", "2")
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 3
    assert "resource bound" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5", "many"])
def test_bad_event_budget_exit_two(tmp_path, capsys, monkeypatch, budget):
    monkeypatch.setenv("REGSIM_EVENT_BUDGET", budget)
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: REGSIM_EVENT_BUDGET") and err.count("\n") == 1


def test_check_regenerates_identical_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    report1 = tmp_path / "report1.json"
    report2 = tmp_path / "report2.json"
    assert main(["run", str(cfg), "--out", str(trace), "--report", str(report1)]) == 0
    assert (
        main(
            ["check", str(trace), "--config", str(cfg), "--report", str(report2)]
        )
        == 0
    )
    assert report1.read_bytes() == report2.read_bytes()


def test_check_without_config_runs_history_checks(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    main(["run", str(cfg), "--out", str(trace)])
    assert main(["check", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "claims: pass" in out and "linearizable: pass" in out


def test_check_report_without_config_exit_two(tmp_path, capsys):
    # A report is built from the scenario, so --report alone is refused
    # before the trace is read (this trace file does not even exist).
    report = tmp_path / "report.json"
    assert main(["check", str(tmp_path / "missing.jsonl"), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not report.exists()


def test_check_malformed_message_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    main(["run", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    send = next(i for i, line in enumerate(lines) if '"msg"' in line)
    event = json.loads(lines[send])
    event["msg"] = "not hex"
    lines[send] = json.dumps(event)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error:") and err.count("\n") == 1


def test_sweep_reports_max_durations(tmp_path, capsys):
    cfg = write_config(tmp_path, network={"kind": "bounded_delay", "Delta": 10})
    assert main(["sweep", str(cfg), "--seeds", "25"]) == 0
    out = capsys.readouterr().out
    assert "25 seeds, 0 failures" in out
    assert "max duration" in out


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_sweep_non_positive_seeds_exit_two(seeds, capsys):
    assert main(["sweep", str(SCENARIOS / "read-quiet.json"), "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --seeds") and captured.err.count("\n") == 1


def test_sweep_failure_prints_the_full_run_report(capsys):
    # The sweep judges each seed on a run without message events, then
    # re-runs a failing seed in full: its output is the FAILED line plus
    # exactly what `run --seed N` prints, message counts included.
    path = str(SCENARIOS / "base-gap-base.json")
    assert main(["sweep", path, "--seeds", "40", "--base-seed", "5"]) == 1
    swept = capsys.readouterr().out
    first, rest = swept.split("\n", 1)
    seed = int(first.split()[1].rstrip(":"))
    assert first == f"seed {seed}: FAILED — reproduce with --seed {seed}"
    assert main(["run", path, "--seed", str(seed)]) == 1
    ran = capsys.readouterr().out
    assert rest == ran
    # A lean report would print messages=0 on every line.
    assert sum(int(m) for m in re.findall(r"messages=(\d+)", ran)) > 0


GOLDEN_SWEEPS = json.loads((ROOT / "tests" / "golden_sweeps.json").read_text())


def test_every_scenario_has_a_golden_sweep():
    assert sorted(GOLDEN_SWEEPS) == sorted(p.name for p in SCENARIOS.glob("*.json"))
    # The failure path is pinned too: its output is the full run report.
    assert GOLDEN_SWEEPS["base-gap-base.json"]["exit"] == 1


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_output_matches_golden(name, capsys):
    # tests/make_golden.py pinned `regsim sweep SCENARIO --seeds 30`: its exit
    # code and every line it prints, the worst duration per class included.
    code = main(["sweep", str(SCENARIOS / name), "--seeds", "30"])
    assert {"exit": code, "stdout": capsys.readouterr().out} == GOLDEN_SWEEPS[name]


def write_explore_config(tmp_path, ops, **over):
    """A scenario of `ops`, each (kind, process) or (kind, process, time),
    at time 0 unless given; writes get values a, b, ..."""
    items = []
    for kind, process, *time in ops:
        item = {"time": time[0] if time else 0, "process": process, "op": kind}
        if kind == "write":
            item["value"] = "abcdefgh"[sum(i["op"] == "write" for i in items)]
        items.append(item)
    return write_config(tmp_path, ops=items, **over)


WR = [("write", 1), ("read", 2)]


def test_explore_cli_small_instance(tmp_path, capsys):
    assert main(["explore", str(write_explore_config(tmp_path, WR))]) == 0
    out = capsys.readouterr().out
    assert "histories" in out and "checkers agree" in out


def test_explore_cli_state_bound_exit_three(tmp_path, capsys):
    cfg = write_explore_config(tmp_path, [*WR, ("read", 3)])
    assert main(["explore", str(cfg), "--max-states", "300"]) == 3
    assert "resource bound" in capsys.readouterr().err


def test_explore_cli_rejects_bad_ops(tmp_path, capsys):
    assert main(["explore", str(write_explore_config(tmp_path, [("write", 2)]))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


# (scenario fields, explore flags); an id spells each field as `--field value`.
MODELS = [
    ({"n": 2, "t": 1}, []),
    ({"n": 3, "t": -1}, []),
    ({"n": 0, "t": 0}, []),
    ({"n": 3, "t": 1, "algorithm": "bogus"}, []),
    ({"n": 3, "t": 1}, ["--max-states", "0"]),
    ({"n": 3, "t": 1}, ["--max-states", "-5"]),
]


@pytest.mark.parametrize(
    "fields,flags",
    MODELS,
    ids=[" ".join([*(f"--{k} {v}" for k, v in f.items()), *a]) for f, a in MODELS],
)
def test_explore_cli_checks_the_model(fields, flags, tmp_path, capsys):
    cfg = write_explore_config(tmp_path, WR, **fields)
    assert main(["explore", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_explore_cli_crash_subsets_are_the_other_processes_subsets(tmp_path, capsys):
    # The crashing writer p1 never hears its own broadcast, so only the
    # 2^(n-1) subsets of {2, 3} are explored, after the no-crash case.
    cfg = write_explore_config(tmp_path, WR)
    assert main(["explore", str(cfg), "--crash-subsets"]) == 0
    *cases, summary = capsys.readouterr().out.splitlines()
    ops = load_scenario(cfg).ops
    expected = []
    for subset in (None, set(), {2}, {3}, {2, 3}):
        crash = None if subset is None else BroadcastCrash(0, frozenset(subset))
        res = explore("teff", 3, 1, ops, crash=crash)
        label = "no crash" if subset is None else f"crash subset {sorted(subset)}"
        expected.append(
            f"{label}: {res.states_visited} configurations, {res.edges} edges, "
            f"{res.transitions} transitions, {res.noop_pruned} no-op pruned, "
            f"{len(res.histories)} distinct histories"
        )
    assert cases == expected
    assert summary == "explore: all 28 histories atomic; checkers agree"


def test_explore_cli_crash_subsets_need_a_write(tmp_path, capsys):
    cfg = write_explore_config(tmp_path, [("read", 2)])
    assert main(["explore", str(cfg), "--crash-subsets"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: --crash-subsets needs a write in the scenario's ops\n"


def test_explore_cli_crash_subsets_cut_the_first_write_invoked(tmp_path, capsys):
    # The write at time 0 is invoked first although it is listed second.
    cfg = write_explore_config(tmp_path, [("write", 1, 9), ("write", 1, 0)])
    assert main(["explore", str(cfg), "--crash-subsets"]) == 0
    *cases, _ = capsys.readouterr().out.splitlines()
    ops = load_scenario(cfg).ops
    for op_index, cut_first in [(1, True), (0, False)]:
        res = explore("teff", 3, 1, ops, crash=BroadcastCrash(op_index, frozenset({2})))
        line = f"crash subset [2]: {res.states_visited} configurations, "
        assert cases[2].startswith(line) == cut_first


def test_explore_cli_maps_a_broadcast_cut(capsys):
    assert main(["explore", str(SCENARIOS / "round-crash-read.json")]) == 0
    out = capsys.readouterr().out
    assert out == (
        "crash subset [3]: 365 configurations, 1209 edges, 103 transitions, "
        "17 no-op pruned, 5 distinct histories\n"
        "explore: all 5 histories atomic; checkers agree\n"
    )


CUT = {"op_index": 0, "deliver_to": [2]}
UNMODELED_CRASHES = {
    "at-tick": {"crashes": [{"process": 2, "at": 5}]},
    "crash-at-window": {"crashes": [{"process": 1, "during_broadcast": {**CUT, "crash_at": 4}}]},
    "during-forward": {
        "crashes": [{"process": 2, "during_forward": {"wsn": 1, "deliver_to": [3]}}]
    },
    "two-crashes": {
        "n": 5,
        "t": 2,
        "crashes": [{"process": 1, "during_broadcast": CUT}, {"process": 2, "at": 5}],
    },
}


@pytest.mark.parametrize("over", UNMODELED_CRASHES.values(), ids=list(UNMODELED_CRASHES))
def test_explore_cli_rejects_a_crash_it_cannot_model(over, tmp_path, capsys):
    assert main(["explore", str(write_explore_config(tmp_path, WR, **over))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: explore models") and err.count("\n") == 1


def test_explore_cli_crash_subsets_reject_a_scenario_crash(capsys):
    assert main(["explore", str(SCENARIOS / "round-crash-read.json"), "--crash-subsets"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: --crash-subsets needs a scenario without crashes\n"


SAME_TIME = [("write", 1, 0), ("read", 2, 0), ("read", 2, 0)]


@pytest.mark.parametrize("command", ["run", "explore"])
def test_ops_of_one_process_at_one_time_exit_two(command, tmp_path, capsys):
    # `run` would invoke both reads at tick 0, `explore` one after the
    # other: the scenario is rejected before either command runs.
    assert main([command, str(write_explore_config(tmp_path, SAME_TIME))]) == 2
    err = capsys.readouterr().err
    assert err == "config error: ops[2]: process 2 already has an op at time 0\n"


def test_ops_overlapping_through_delays_fail_only_the_run(tmp_path, capsys):
    # p2's second read falls due at tick 1, before its first can respond
    # (every delay is at least 1 tick, and a read needs a round trip).
    cfg = write_explore_config(tmp_path, [("write", 1, 0), ("read", 2, 0), ("read", 2, 1)])
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("schedule error: op 2 on p2 at t=1 ")
    assert main(["explore", str(cfg)]) == 0


@pytest.mark.parametrize("command", ["run", "explore"])
def test_write_value_with_a_lone_surrogate_exit_two(command, tmp_path, capsys):
    cfg = write_config(tmp_path, ops=[{"time": 0, "process": 1, "op": "write", "value": "\ud800"}])
    assert "\\ud800" in cfg.read_text()  # the JSON escape, as a user would write it
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: ops[0]: value is not valid Unicode: surrogates not allowed\n"


def test_explore_orders_each_process_by_time(tmp_path):
    # p2's ops are listed at times 5 then 1, so op 2 runs before op 1.
    cfg = write_explore_config(tmp_path, [("write", 1, 0), ("read", 2, 5), ("read", 2, 1)])
    config = load_scenario(cfg)
    histories = explore(config.algorithm, config.n, config.t, config.ops).histories
    assert histories
    for history in histories:
        invoke = {op.op_id: op.invoke for op in history.ops}
        assert invoke[2] < invoke[1]


@pytest.mark.parametrize(
    "name",
    [p.name for p in sorted(SCENARIOS.glob("*.json")) if not p.name.startswith("base-gap-base")],
)
def test_bundled_scenarios_pass(name, capsys):
    assert main(["run", str(SCENARIOS / name)]) == 0


INVOKE = '{"t":0,"seq":0,"kind":"invoke","p":1,"op":0,"opkind":"write","value":"a"}'
RESPOND = '{"t":1,"seq":1,"kind":"respond","p":1,"op":0,"opkind":"write","value":null,"wsn":1}'
SEND = '{"t":0,"seq":1,"kind":"send","p":1,"to":2,"msg":"020100000000000000"}'
CRASH = '{"t":0,"seq":0,"kind":"crash","p":1}'


def _with(line, **fields):
    return json.dumps({**json.loads(line), **fields}, separators=(",", ":"))


@pytest.mark.parametrize(
    "line,reason",
    [
        ("[1]", "event is not a JSON object"),
        ('{"t":0}', "missing field 'kind'"),
        (
            '{"t":0,"seq":0,"kind":"respond","p":2,"op":0,"opkind":"read",'
            '"value":null,"wsn":0}',
            "respond to op 0 with no invoke",
        ),
        (
            '{"t":0,"seq":0,"kind":"invoke","p":"x","op":0,"opkind":"read"}\n'
            '{"t":1,"seq":1,"kind":"crash","p":2}',
            "field 'p' must be an integer",
        ),
        (_with(INVOKE, value=5), "field 'value' must be a string or null"),
        (_with(INVOKE, t=True), "field 't' must be an integer"),
        (_with(INVOKE, seq=1.5), "field 'seq' must be an integer"),
        (_with(INVOKE, op="0"), "field 'op' must be an integer"),
        (_with(INVOKE, opkind="cas"), "field 'opkind' must be 'write' or 'read'"),
        (INVOKE + "\n" + _with(RESPOND, wsn=None), "field 'wsn' must be an integer"),
        (_with(SEND, to=[2]), "field 'to' must be an integer"),
        (_with(SEND, kind="deliver", **{"from": False}), "field 'from' must be an integer"),
        (_with(SEND, msg=2), "field 'msg' must be a string"),
        ('{"t":0,"seq":0,"kind":"round_start","p":0,"round":"1"}',
         "field 'round' must be an integer"),
        (_with(INVOKE, t=5) + "\n" + RESPOND, "respond to op 0 before its invoke"),
        ("[" * 100_000, "line 1: JSON nested too deeply"),
        (INVOKE + "\n" + RESPOND + "\n" + _with(RESPOND, t=2, seq=2), "second respond to op 0"),
        (
            INVOKE + "\n" + _with(RESPOND, opkind="read", value="zz"),
            "respond to op 0 is a read by p1, but it was invoked as a write by p1",
        ),
        (
            INVOKE + "\n" + _with(RESPOND, p=2),
            "respond to op 0 is a write by p2, but it was invoked as a write by p1",
        ),
        (
            INVOKE + "\n" + '{"t":1,"seq":1,"kind":"invoke","p":2,"op":0,"opkind":"read"}',
            "second invoke of op 0",
        ),
        (CRASH + "\n" + _with(INVOKE, t=1, seq=1), "invoke of op 0 by p1 after its crash"),
        (
            INVOKE + "\n" + _with(CRASH, t=1, seq=1) + "\n" + _with(RESPOND, t=2, seq=2),
            "respond to op 0 by p1 after its crash",
        ),
        (CRASH + "\n" + _with(CRASH, t=1, seq=1), "second crash of p1"),
        (
            '{"t":0,"seq":0,"kind":"invoke","p":0,"op":0,"opkind":"read"}',
            "invoke of op 0 by p0; processes start at p1",
        ),
        (_with(CRASH, p=-1), "crash of p-1; processes start at p1"),
        (_with(SEND, p=-4, to=0), "send event 1 at p-4 to p0; processes start at p1"),
        (
            _with(SEND, kind="deliver", p=0, **{"from": 2}),
            "deliver event 1 at p0 from p2; processes start at p1",
        ),
    ],
    ids=[
        "not-an-object", "missing-field", "respond-without-invoke", "string-p",
        "numeric-value", "bool-t", "float-seq", "string-op", "bad-opkind", "null-wsn",
        "list-to", "bool-from", "numeric-msg", "string-round", "respond-before-invoke",
        "deep-nesting", "second-respond", "respond-other-kind", "respond-other-process",
        "second-invoke", "invoke-after-crash", "respond-after-crash", "second-crash",
        "invoke-by-p0", "crash-by-p-1", "send-by-p-4", "deliver-to-p0",
    ],
)
def test_check_malformed_event_exit_two(tmp_path, capsys, line, reason):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    assert main(["check", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error:") and reason in err and err.count("\n") == 1


READ = '{"t":2,"seq":2,"kind":"invoke","p":2,"op":1,"opkind":"read"}'
READ_DONE = '{"t":4,"seq":3,"kind":"respond","p":2,"op":1,"opkind":"read","value":"a","wsn":1}'


@pytest.mark.parametrize(
    "lines,reason",
    [
        (
            [READ, _with(READ, t=3, seq=3, op=2)],
            "invoke of op 2 by p2 at tick 3, before its op 1 responded",
        ),
        (
            [READ, READ_DONE, _with(READ, t=3, seq=4, op=2)],
            "invoke of op 2 by p2 at tick 3, before its op 1 responded",
        ),
        ([_with(INVOKE, p=2)], "write op 0 by p2; only p1 writes"),
    ],
    ids=["invoke-while-pending", "invoke-before-respond", "second-writer"],
)
def test_check_trace_outside_the_model_exit_two(tmp_path, capsys, lines, reason):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error:") and reason in err and err.count("\n") == 1


# A line is stripped of JSON whitespace (space, tab, CR, LF) only, as
# `event_from_json` strips it; any other padding makes the line malformed.
@pytest.mark.parametrize(
    "pad", ["\u00a0", "\x0b", "\x0c", "\u2028"], ids=["nbsp", "vt", "ff", "line-separator"]
)
def test_check_line_padded_with_other_whitespace_exit_two(tmp_path, capsys, pad):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(f"\n{pad}{INVOKE}\n{RESPOND}\n", encoding="utf-8")
    assert main(["check", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trace error: {trace}: line 2: ") and err.count("\n") == 1


def test_check_skips_blank_lines_and_json_whitespace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(f"\n \t\n \t{INVOKE}\r\n\n{RESPOND} \t\n\n", encoding="utf-8")
    assert main(["check", str(trace)]) == 0


# The scenario has n=3, so p9 and p4 name no process of it.
@pytest.mark.parametrize(
    "lines,reason",
    [
        ([RESPOND], "respond to op 0 with no invoke"),
        ([INVOKE, RESPOND, _with(READ, p=9, op=99)], "invoke of op 99 by p9; processes end at p3"),
        ([_with(CRASH, p=4)], "crash of p4; processes end at p3"),
        ([INVOKE, _with(SEND, p=9, to=3)], "send event 1 at p9 to p3; processes end at p3"),
        (
            [INVOKE, _with(SEND, kind="deliver", p=2, **{"from": 4})],
            "deliver event 1 at p2 from p4; processes end at p3",
        ),
    ],
    ids=["respond-without-invoke", "invoke-by-p9", "crash-of-p4", "send-by-p9", "deliver-from-p4"],
)
def test_check_with_config_malformed_trace_exit_two(tmp_path, capsys, lines, reason):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error:") and reason in err and err.count("\n") == 1


# The scenario's ops: 0 is p1's write of "a", 1 is p2's read.
@pytest.mark.parametrize(
    "lines,reason",
    [
        ([], "op 0 (write by p1) is never invoked, although p1 never crashes"),
        ([INVOKE, RESPOND], "op 1 (read by p2) is never invoked, although p2 never crashes"),
        ([INVOKE, RESPOND, _with(READ, op=7)], "invoke of op 7; the scenario has 2 ops"),
        (
            [INVOKE, RESPOND, _with(READ, p=3)],
            "invoke of op 1 is a read by p3, but the scenario's op 1 is a read by p2",
        ),
        (
            [INVOKE, RESPOND, _with(INVOKE, t=2, seq=2, op=1)],
            "invoke of op 1 is a write of b'a' by p1, but the scenario's op 1 is a read by p2",
        ),
        (
            [_with(INVOKE, value="b"), RESPOND],
            "invoke of op 0 is a write of b'b' by p1, but the scenario's op 0 is a write "
            "of b'a' by p1",
        ),
    ],
    ids=["empty", "missing-op", "op-outside", "other-process", "other-kind", "other-value"],
)
def test_check_with_config_trace_of_another_scenario_exit_two(tmp_path, capsys, lines, reason):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(line + "\n" for line in lines))
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"trace error: {trace}: {reason}\n"


def test_check_with_config_excuses_the_ops_of_a_crashed_process(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    trace.write_text(f"{INVOKE}\n{RESPOND}\n{_with(CRASH, t=2, seq=2, p=2)}\n")
    assert main(["check", str(trace), "--config", str(cfg)]) == 0


def test_check_counts_no_send_of_a_process_outside_the_scenario(tmp_path, capsys):
    # A STATE(rsn 1) send by p9 appended to read-quiet.json's trace (n=5):
    # with the scenario it is a malformed trace, not one more message of op
    # 1.  Without one it passes, as a process with no op still relays and
    # replies, so only ids below p1 are foreign there.
    quiet = SCENARIOS / "read-quiet.json"
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(quiet), "--out", str(trace)]) == 0
    seq = len(trace.read_text().splitlines())
    with trace.open("a") as fh:
        stray = encode_message(State(1, 1)).hex()
        fh.write(_with(SEND, t=60, seq=seq, p=9, to=3, msg=stray) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(quiet)]) == 2
    reason = f"send event {seq} at p9 to p3; processes end at p5"
    assert capsys.readouterr().err == f"trace error: {trace}: {reason}\n"
    assert main(["check", str(trace)]) == 0
    assert capsys.readouterr().err == ""


def test_check_with_config_runs_each_checker_once(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(cfg), "--out", str(trace)]) == 0
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("extract_history", "check_termination", "check_claims", "check_linearizable")
    for module in (regsim.cli, regsim.report, regsim.metrics):
        for name in names:
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    assert main(["check", str(trace), "--config", str(cfg)]) == 0
    assert calls == {name: 1 for name in names}


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["run", "{tmp}/missing.json"], "config error:"),
        (["run", "{tmp}"], "config error:"),
        (["sweep", "{tmp}/missing.json", "--seeds", "3"], "config error:"),
        (["run", "{cfg}", "--out", "{tmp}"], "config error:"),
        (["run", "{cfg}", "--report", "{tmp}/no/such/dir/report.json"], "config error:"),
        (["check", "{tmp}/missing.jsonl"], "trace error:"),
        (["check", "{tmp}"], "trace error:"),
        (["check", "{tmp}/missing.jsonl", "--config", "{cfg}"], "trace error:"),
        (["check", "{trace}", "--config", "{tmp}/missing.json"], "config error:"),
        (["check", "{trace}", "--config", "{cfg}", "--report", "{tmp}"], "config error:"),
        (["run", "{deep}"], "config error:"),
        (["sweep", "{deep}", "--seeds", "3"], "config error:"),
        (["check", "{trace}", "--config", "{deep}"], "config error:"),
        (["run", "{latin1}"], "config error:"),
    ],
    ids=[
        "run-missing", "run-directory", "sweep-missing", "out-directory", "report-no-dir",
        "check-missing", "check-directory", "check-config-missing-trace",
        "check-missing-config", "check-report-directory", "run-deeply-nested",
        "sweep-deeply-nested", "check-config-deeply-nested", "run-not-utf8",
    ],
)
def test_unreadable_or_unwritable_file_exit_two(tmp_path, capsys, argv, prefix):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(cfg), "--out", str(trace)]) == 0
    capsys.readouterr()
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"description": "café"}'.encode("latin-1"))
    names = {"tmp": tmp_path, "cfg": cfg, "trace": trace, "deep": deep, "latin1": latin1}
    assert main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def write_long_config(tmp_path, count, extra_ops=()):
    """A generated n=7 `teff-modified` bounded-delay scenario of `count` ops
    10 ticks apart: every 4th a write by p1, the others reads by p2-p7."""
    ops = [
        {"time": 10 * i, "process": 1, "op": "write", "value": f"v{i}"} if i % 4 == 0
        else {"time": 10 * i, "process": 2 + i % 6, "op": "read"}
        for i in range(count)
    ]
    data = {
        "n": 7,
        "t": 3,
        "algorithm": "teff-modified",
        "network": {"kind": "bounded_delay", "Delta": 10},
        "ops": ops + list(extra_ops),
        "seed": 3,
    }
    path = tmp_path / f"long-{count}.json"
    path.write_text(json.dumps(data))
    return path


def test_run_memory_does_not_grow_with_the_run(tmp_path, capsys):
    # `run --out --report` holds one chunk of events at a time, so four
    # times the ops (4,750 -> 19,000 events) leave peak memory nearly flat;
    # holding the trace made it 2.1 times as high.
    peaks = []
    for count in (100, 400):
        cfg = write_long_config(tmp_path, count)
        argv = ["run", str(cfg), "--out", str(tmp_path / "t.jsonl"),
                "--report", str(tmp_path / "r.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_run_out_writes_every_chunk(tmp_path, capsys):
    # 4,750 events: more than one chunk.  The file is the run's trace, and
    # `check --config` rebuilds the report from it.
    cfg = write_long_config(tmp_path, 100)
    out, ran, checked = tmp_path / "t.jsonl", tmp_path / "run.json", tmp_path / "check.json"
    assert main(["run", str(cfg), "--out", str(out), "--report", str(ran)]) == 0
    assert out.read_bytes() == to_jsonl_bytes(run(load_scenario(cfg)).trace)
    assert main(["check", str(out), "--config", str(cfg), "--report", str(checked)]) == 0
    assert ran.read_bytes() == checked.read_bytes()
    assert json.loads(ran.read_text())["events"] == 4750
    capsys.readouterr()


# A read by p2 at tick 901 while its read of tick 900 is pending: the run
# raises ScheduleError only after its first chunk of events (4,102 of the
# 4,302 before tick 900).  A budget of 2,300 runs out 33 items short of the
# end, also after that chunk.
LATE_OVERLAP = [{"time": 901, "process": 2, "op": "read"}]


@pytest.mark.parametrize("existing", [None, b"an earlier trace\n"], ids=["new", "existing"])
@pytest.mark.parametrize(
    "budget,extra,code,prefix",
    [("2300", [], 3, "resource bound:"), (None, LATE_OVERLAP, 2, "schedule error:")],
    ids=["budget", "schedule"],
)
def test_failed_run_leaves_out_as_it_was(
    tmp_path, capsys, monkeypatch, existing, budget, extra, code, prefix
):
    # Both failures come after the first chunk was written: the trace goes
    # to a file beside --out that only a finished run renames onto it.
    if budget is not None:
        monkeypatch.setenv("REGSIM_EVENT_BUDGET", budget)
    cfg = write_long_config(tmp_path, 100, extra)
    out = tmp_path / "out" / "trace.jsonl"
    out.parent.mkdir()
    if existing is not None:
        out.write_bytes(existing)
    assert main(["run", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert list(out.parent.iterdir()) == ([] if existing is None else [out])
    if existing is not None:
        assert out.read_bytes() == existing


@pytest.mark.parametrize("budget", [None, "2"], ids=["run-passes", "budget-overrun"])
def test_run_out_in_a_missing_directory_exit_two(tmp_path, capsys, monkeypatch, budget):
    # The trace file is opened before the run starts, so it is reported
    # first, also when the run would overrun its budget.
    if budget is not None:
        monkeypatch.setenv("REGSIM_EVENT_BUDGET", budget)
    cfg = write_config(tmp_path)
    out = tmp_path / "no" / "trace.jsonl"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write trace: [Errno 2] No such file or directory: '{out}'\n"
    )
    assert not out.parent.exists()


def test_run_out_onto_a_directory_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.jsonl"
    out.mkdir()
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write trace: [Errno 21] Is a directory: '{out}'\n"
    )
    assert sorted(tmp_path.iterdir()) == [cfg, out] and not any(out.iterdir())


def test_run_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    # The link stays a link; the file it names gets the trace and keeps its
    # permission bits.
    cfg = write_config(tmp_path)
    target = tmp_path / "target.jsonl"
    target.write_text("an earlier trace\n")
    target.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert main(["run", str(cfg), "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == to_jsonl_bytes(run(load_scenario(cfg)).trace)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(tmp_path.iterdir()) == [link, cfg, target]
    capsys.readouterr()


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0, reason="root writes any file")
@pytest.mark.parametrize("budget", [None, "2"], ids=["run-passes", "budget-overrun"])
def test_run_out_onto_a_read_only_file_exit_two(tmp_path, capsys, monkeypatch, budget):
    # A file locked with `chmod a-w` is not replaced, though its directory
    # is writable; as with a missing directory, this is reported first.
    if budget is not None:
        monkeypatch.setenv("REGSIM_EVENT_BUDGET", budget)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.jsonl"
    out.write_text("an earlier trace\n")
    out.chmod(0o444)
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write trace: [Errno 13] Permission denied: '{out}'\n"
    )
    assert out.read_bytes() == b"an earlier trace\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o444
    assert sorted(tmp_path.iterdir()) == [cfg, out]


def test_run_out_new_file_takes_the_umask(tmp_path, capsys):
    # As a file opened for writing would: 0666 less the umask.
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.jsonl"
    old = os.umask(0o027)
    try:
        assert main(["run", str(cfg), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    capsys.readouterr()


def test_run_out_beside_a_leftover_temporary_file(tmp_path, capsys):
    # A killed run cannot remove its temporary file; a later run, even one
    # with the same process id, picks another name and leaves it alone.
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.jsonl"
    stale = tmp_path / f"trace.jsonl.{os.getpid()}.tmp"
    stale.write_text("part of a trace\n")
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == to_jsonl_bytes(run(load_scenario(cfg)).trace)
    assert stale.read_text() == "part of a trace\n"
    assert sorted(tmp_path.iterdir()) == [cfg, out, stale]
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_run_out_into_a_pipe_writes_in_place(tmp_path, capsys):
    # A pipe cannot be replaced by a renamed file: the trace goes into it.
    cfg = write_config(tmp_path)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert main(["run", str(cfg), "--out", str(pipe)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [to_jsonl_bytes(run(load_scenario(cfg)).trace)]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    capsys.readouterr()
