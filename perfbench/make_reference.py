"""Regenerate reference.json, the expected outputs every run compares against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good: it records the
explore-crash history-set digests, and for each of the N_INPUT_SETS input
sets the three sweep-n15 max-duration tables and the run-large trace sha256.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def execute(workload) -> None:
    for _, call in workload.calls():
        call()


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        scratch = Path(tmp)
        explore = workloads.ExploreCrash()
        explore.prepare(0, scratch)
        execute(explore)
        reference = {
            "explore-crash": {"digests": explore.digests()},
            "sweep-n15": {"tables": {}},
            "run-large": {"trace_sha256": {}},
        }
        for index in range(workloads.N_INPUT_SETS):
            sweep = workloads.SweepN15()
            sweep.prepare(index, scratch)
            execute(sweep)
            if any(code != 0 for code, _ in sweep.outputs.values()):
                raise SystemExit(f"sweep-n15 input set {index}: a sweep failed")
            reference["sweep-n15"]["tables"][str(index)] = sweep.tables()
            large = workloads.RunLarge()
            large.prepare(index, scratch)
            execute(large)
            if not (large.run_code == large.check_code == 0 and large.same_reports):
                raise SystemExit(f"run-large input set {index}: run or check failed")
            reference["run-large"]["trace_sha256"][str(index)] = large.trace_sha256()
            print(f"input set {index} done", file=sys.stderr)
    path = workloads.REFERENCE_PATH
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
