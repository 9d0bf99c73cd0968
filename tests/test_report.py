"""Reports are pinned the way traces are: a sha256 of the report JSON for
every bundled scenario at a few seeds (tests/make_golden.py writes them)."""

import hashlib
import json
from pathlib import Path

import pytest

from regsim.config import load_scenario
from regsim.engine import run
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
