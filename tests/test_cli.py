"""CLI contract: exit codes, artifacts, report regeneration."""

import json
from pathlib import Path

import pytest

from regsim.cli import main

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


def test_run_config_error_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, n=4, t=2)
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_schedule_error_exit_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        ops=[
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 1, "process": 1, "op": "write", "value": "b"},
        ],
    )
    assert main(["run", str(cfg)]) == 2


def test_run_check_failure_exit_one(capsys):
    assert main(["run", str(SCENARIOS / "base-gap-base.json")]) == 1
    out = capsys.readouterr().out
    assert "termination: fail" in out


def test_budget_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REGSIM_EVENT_BUDGET", "2")
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 3
    assert "resource bound" in capsys.readouterr().err


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


def test_explore_cli_small_instance(capsys):
    code = main(
        ["explore", "--n", "3", "--t", "1", "--ops", "w:1,r:2", "--algorithm", "teff"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "histories" in out and "checkers agree" in out


def test_explore_cli_state_bound_exit_three(capsys):
    code = main(
        [
            "explore",
            "--n", "3",
            "--t", "1",
            "--ops", "w:1,r:2,r:3",
            "--max-states", "300",
        ]
    )
    assert code == 3
    assert "resource bound" in capsys.readouterr().err


def test_explore_cli_rejects_bad_ops(capsys):
    assert main(["explore", "--n", "3", "--t", "1", "--ops", "w:2"]) == 2


@pytest.mark.parametrize(
    "name",
    [p.name for p in sorted(SCENARIOS.glob("*.json")) if not p.name.startswith("base-gap-base")],
)
def test_bundled_scenarios_pass(name, capsys):
    assert main(["run", str(SCENARIOS / name)]) == 0


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
    ],
    ids=["not-an-object", "missing-field", "respond-without-invoke"],
)
def test_check_malformed_event_exit_two(tmp_path, capsys, line, reason):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    assert main(["check", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error:") and reason in err and err.count("\n") == 1
