"""Regenerate the golden trace and report digests for the bundled scenarios.

Run from the repository root after an intentional trace-format or report
change:

    python tests/make_golden.py

and commit the updated tests/golden_digests.json (one trace per scenario at
its own seed), tests/golden_reports.json (one report per scenario and seed
in REPORT_SEEDS), tests/golden_message_counts.json (`count_messages` of
the same runs) and tests/golden_sweeps.json (the exit code and standard
output of `regsim sweep` over SWEEP_SEEDS seeds).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from regsim.cli import main
from regsim.config import load_scenario
from regsim.engine import run
from regsim.history import extract_history
from regsim.metrics import count_messages
from regsim.report import build_report, report_to_json
from regsim.trace import to_jsonl_bytes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden_reports.json"
GOLDEN_COUNTS = Path(__file__).resolve().parent / "golden_message_counts.json"
GOLDEN_SWEEPS = Path(__file__).resolve().parent / "golden_sweeps.json"
REPORT_SEEDS = range(4)
SWEEP_SEEDS = 30


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


def message_count_digests() -> dict[str, str]:
    """sha256 of each run's `count_messages` as a JSON list of (op, sends)
    pairs in op order, keyed "<scenario>@<seed>"."""
    digests = {}
    for path in _scenarios():
        cfg = load_scenario(path)
        for seed in REPORT_SEEDS:
            trace = run(cfg, seed=seed).trace
            counts = count_messages(trace, extract_history(trace, cfg.n))
            text = json.dumps(sorted(counts.items())).encode("utf-8")
            digests[f"{path.name}@{seed}"] = hashlib.sha256(text).hexdigest()
    return digests


def sweep_outputs() -> dict[str, dict]:
    """The exit code and stdout of `regsim sweep SCENARIO --seeds
    SWEEP_SEEDS`, keyed by the scenario's file name."""
    outputs = {}
    for path in _scenarios():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["sweep", str(path), "--seeds", str(SWEEP_SEEDS)])
        outputs[path.name] = {"exit": code, "stdout": out.getvalue()}
    return outputs


if __name__ == "__main__":
    for target, digests in (
        (GOLDEN, scenario_digests()),
        (GOLDEN_REPORTS, report_digests()),
        (GOLDEN_COUNTS, message_count_digests()),
        (GOLDEN_SWEEPS, sweep_outputs()),
    ):
        target.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {target} ({len(digests)} entries)")
