"""Regenerate the golden trace and report digests for the bundled scenarios.

Run from the repository root after an intentional trace-format or report
change:

    python tests/make_golden.py

and commit the updated tests/golden_digests.json (one trace per scenario at
its own seed) and tests/golden_reports.json (one report per scenario and
seed in REPORT_SEEDS).
"""

import hashlib
import json
from pathlib import Path

from regsim.config import load_scenario
from regsim.engine import run
from regsim.report import build_report, report_to_json
from regsim.trace import to_jsonl_bytes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden_reports.json"
REPORT_SEEDS = range(4)


def _scenarios():
    return sorted((ROOT / "scenarios").glob("*.json"))


def scenario_digests() -> dict[str, str]:
    digests = {}
    for path in _scenarios():
        cfg = load_scenario(path)
        result = run(cfg)
        digests[path.name] = hashlib.sha256(to_jsonl_bytes(result.trace)).hexdigest()
    return digests


def report_digests() -> dict[str, str]:
    """sha256 of each report's JSON, keyed "<scenario>@<seed>"."""
    digests = {}
    for path in _scenarios():
        cfg = load_scenario(path)
        for seed in REPORT_SEEDS:
            report = build_report(cfg, run(cfg, seed=seed).trace, seed)
            text = report_to_json(report).encode("utf-8")
            digests[f"{path.name}@{seed}"] = hashlib.sha256(text).hexdigest()
    return digests


if __name__ == "__main__":
    for target, digests in ((GOLDEN, scenario_digests()), (GOLDEN_REPORTS, report_digests())):
        target.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {target} ({len(digests)} entries)")
