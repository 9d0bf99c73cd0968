"""Reports are pinned the way traces are: a sha256 of the report JSON, and
of the per-op message counts, for every bundled scenario at a few seeds
(tests/make_golden.py writes them)."""

import hashlib
import json
from itertools import chain
from pathlib import Path

import pytest

from regsim.cli import main
from regsim.config import load_scenario
from regsim.engine import DEFAULT_EVENT_BUDGET, _Sim, run
from regsim.history import extract_history
from regsim.metrics import count_messages
from regsim.report import build_report, report_to_json

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"
GOLDEN_REPORTS = json.loads((TESTS / "golden_reports.json").read_text())
NAMES = sorted(p.name for p in SCENARIOS.glob("*.json"))


def test_every_scenario_and_seed_is_pinned():
    assert sorted(GOLDEN_REPORTS) == sorted(f"{n}@{s}" for n in NAMES for s in range(4))


@pytest.mark.parametrize("name", NAMES)
def test_reports_match_golden(name):
    cfg = load_scenario(SCENARIOS / name)
    for seed in range(4):
        text = report_to_json(build_report(cfg, run(cfg, seed=seed).trace, seed))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_REPORTS[f"{name}@{seed}"], f"{name} seed {seed}: report drifted"


GOLDEN_COUNTS = json.loads((TESTS / "golden_message_counts.json").read_text())


def test_every_message_count_is_pinned():
    assert sorted(GOLDEN_COUNTS) == sorted(GOLDEN_REPORTS)


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_report_matches_the_list_report(name):
    # The report folds its events in one pass, so an iterator, a run's
    # chunks as they are made, and the trace as a list give one report;
    # count_messages keeps the values tests/make_golden.py pinned.
    cfg = load_scenario(SCENARIOS / name)
    for seed in range(4):
        trace = run(cfg, seed=seed).trace
        report = build_report(cfg, trace, seed)
        assert build_report(cfg, iter(trace), seed) == report
        streamed = chain.from_iterable(_Sim(cfg, seed, DEFAULT_EVENT_BUDGET, True).chunks(7))
        assert build_report(cfg, streamed, seed) == report
        counts = count_messages(iter(trace), extract_history(trace, cfg.n))
        text = json.dumps(sorted(counts.items())).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == GOLDEN_COUNTS[f"{name}@{seed}"], name


@pytest.mark.parametrize("name", NAMES)
def test_run_and_check_write_identical_reports(name, tmp_path, capsys):
    # `check --config` takes the report's seed from the scenario, so each
    # seed gets a copy of the scenario with that seed.
    data = json.loads((SCENARIOS / name).read_text())
    for seed in range(4):
        cfg = tmp_path / f"{seed}.json"
        cfg.write_text(json.dumps({**data, "seed": seed}))
        trace, ran, checked = (tmp_path / f"{seed}.{ext}" for ext in ("jsonl", "run", "check"))
        code = main(["run", str(cfg), "--out", str(trace), "--report", str(ran)])
        assert main(["check", str(trace), "--config", str(cfg), "--report", str(checked)]) == code
        assert ran.read_bytes() == checked.read_bytes(), f"{name} seed {seed}"
    capsys.readouterr()
