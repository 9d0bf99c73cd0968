"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SCRATCH [--setup-only] [--spans FILE]

Generates and parses the inputs, then makes the workload's calls and checks
their outputs.  Prints one JSON object; its `ready` field is
`time.perf_counter()` at the moment set-up ended.  That clock is
CLOCK_MONOTONIC, shared by all processes, so `run.py` takes set-up time as
`ready` minus the time at which it started this interpreter.

Times are reported raw and scaled to a reference interpreter speed.  On a
machine whose cores are shared with other tenants, the speed of pure-Python
code drifts by up to 1.6x within seconds.  A fixed calibration kernel
therefore runs right after set-up and after every entry-point call; each
call's wall time is multiplied by (REFERENCE_KERNEL_S / k) ** SCALE_EXPONENT,
where k is the mean kernel time measured just before and just after it.
regsim does not drift as much as the kernel: regressing log call time on
log kernel time gave slopes of 0.35 to 0.73 (explore cases and engine runs,
57 to 75 samples each, on a 2-core VM), so the full ratio over-corrects and
the exponent is 0.5.  The kernel touches no regsim code, so a slower regsim
still reads slower by the same factor.

`--setup-only` stops at `ready`.  `--spans FILE` traces the repetition and
writes its spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

REFERENCE_KERNEL_S = 0.015
SCALE_EXPONENT = 0.5


def _kernel(n: int = 40_000) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 255, i & 3)
        table[key] = table.get(key, 0) + 1
        acc += len(table)
    return acc


def scale(*kernel_s: float) -> float:
    """Factor from wall time to scaled time, given the kernel times around it."""
    return (REFERENCE_KERNEL_S * len(kernel_s) / sum(kernel_s)) ** SCALE_EXPONENT


def calibrate() -> float:
    """Median seconds of three runs of the calibration kernel."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("scratch", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, args.scratch)
    tr = None
    if args.spans is not None:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    ready = time.perf_counter()
    kernel_s = [calibrate()]
    result = {"ready": ready, "setup_scale": scale(kernel_s[0])}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    raw, scaled = {}, {}
    for label, call in workload.calls():
        start = time.perf_counter()
        call()
        raw[label] = time.perf_counter() - start
        kernel_s.append(calibrate())
        scaled[label] = raw[label] * scale(kernel_s[-2], kernel_s[-1])
    attempted, failed, problems = workload.check(workloads.load_reference())
    result.update(
        verdict_s=sum(scaled.values()),
        raw_verdict_s=sum(raw.values()),
        phase_s=scaled,
        kernel_s=kernel_s,
        units=workload.units(),
        attempted=attempted,
        failed=failed,
        problems=problems,
        counts=workload.counts(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tr is not None:
        share = result["counts"].get("duplicate_case_share", 0.0)
        result["layers"] = tracer.layer_metrics(tr, share)
        result["layer_counts"] = tr.deterministic_counts()
        tr.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
