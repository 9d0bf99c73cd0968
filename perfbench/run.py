"""Layered benchmark of regsim: exhaustive exploration, a seeded sweep, and a
large run/check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of explore-crash, sweep-n15, run-large, or `all`, which runs the
three in turn.  Every repetition runs in a fresh interpreter (`worker.py`),
so that peak RSS belongs to one workload and one repetition's heap does not
bleed into the next.  Repetitions run until S seconds are used, at least
one.  Times are wall times scaled to a reference interpreter speed by a
calibration kernel (see worker.py); the raw times are kept in the record.
With `--trace 0` the end-to-end metrics are medians over repetitions;
set-up time is the median over the repetitions and SETUP_PROBES extra
set-up-only interpreters.  With `--trace 1`, one untraced repetition is
followed by traced ones, and the per-layer metrics are medians over the
traced repetitions.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record (samples,
deterministic counts, failed checks, git rev, Python version, nproc and the
load average at start and end) goes to .perfbench/results/.  The exit code
is 1 when a correctness check failed and 2 when the checkout has no regsim
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
WORKLOADS = ("explore-crash", "sweep-n15", "run-large")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


class WorkerError(Exception):
    pass


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def spawn(args: list[str]) -> dict:
    """Run one worker interpreter to completion; adds its set-up time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[:2]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["raw_setup_s"] = data["ready"] - start
    data["setup_s"] = data["raw_setup_s"] * data["setup_scale"]
    return data


def repeat(base: list[str], seconds: float, extra=lambda i: []) -> list[dict]:
    """Repetitions until the next one would overrun `seconds`, at least one."""
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        reps.append(spawn(base + extra(len(reps))))
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def median(values) -> float:
    return statistics.median(list(values))


def stats(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median(values), "q1": q1, "q3": q3, "samples": values}


def throughput(workload: str, rep: dict) -> float:
    """Work units per second: histories checked per second of the full
    verdict, seeds swept per second, or trace events per second of the
    `regsim run` call."""
    seconds = rep["phase_s"]["run"] if workload == "run-large" else rep["verdict_s"]
    return rep["units"] / seconds


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Correctness over all repetitions, plus one check that the
    deterministic counts repeat exactly."""
    attempted = sum(r["attempted"] for r in reps) + 1
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    counts = {json.dumps(r["counts"], sort_keys=True) for r in reps}
    layer_counts = {json.dumps(r["layer_counts"], sort_keys=True)
                    for r in reps if "layer_counts" in r}
    if len(counts) > 1 or len(layer_counts) > 1:
        failed += 1
        problems.append("deterministic counts differ between repetitions")
    return attempted, failed, problems


def end_to_end(workload: str, setups: list[dict], reps: list[dict]) -> dict:
    """Samples of each end-to-end metric; set-up time also from probes."""
    return {
        "setup_s": ("s", [r["setup_s"] for r in setups]),
        "verdict_s": ("s", [r["verdict_s"] for r in reps]),
        "throughput_per_s": ("1/s", [throughput(workload, r) for r in reps]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in reps]),
    }


def per_layer(plain: dict, traced: list[dict]) -> dict:
    """Samples of each per-layer metric over the traced repetitions."""
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    samples["bench.trace_overhead_ratio"] = [r["verdict_s"] / plain["verdict_s"] for r in traced]
    return {name: (_layer_unit(name), values) for name, values in samples.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
    }
    scratch = OUT / f"scratch-{os.getpid()}-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    base = [workload, str(seed), str(scratch)]
    try:
        # The first interpreter compiles the bytecode caches; it is not timed.
        spawn(base + ["--setup-only"])
        if trace:
            plain = spawn(base)
            spans = OUT / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            stem = f"{workload}-seed{seed}"
            traced = repeat(base, seconds - plain["raw_verdict_s"],
                            lambda i: ["--spans", str(spans / f"{stem}-rep{i}.jsonl")])
            reps = [plain] + traced
            samples = per_layer(plain, traced)
        else:
            probes = [spawn(base + ["--setup-only"]) for _ in range(SETUP_PROBES)]
            reps = repeat(base, seconds)
            samples = end_to_end(workload, probes + reps, reps)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, problems = tally(reps)
    record.update(
        loadavg_end=loadavg(),
        repetitions=len(reps),
        raw_verdict_s=[r["raw_verdict_s"] for r in reps],
        kernel_s=[r["kernel_s"] for r in reps],
        counts=reps[0]["counts"],
        layer_counts=reps[-1].get("layer_counts", {}),
        attempted=attempted,
        failed=failed,
        problems=problems[:50],
        metrics={name: {"unit": unit, **stats(values)}
                 for name, (unit, values) in samples.items()},
        summary={} if trace else _summary(workload, reps, samples, attempted, failed),
    )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per" in name:
        return "us"
    if name.endswith(("_share", "_ratio", "_per_configuration")):
        return "ratio"
    if name == "trace.bytes":
        return "bytes"
    return "count"


def _summary(workload, reps, samples, attempted, failed) -> dict:
    """The end-to-end metrics under their per-workload names, with units."""
    out = {
        "setup_s": (median(samples["setup_s"][1]), "s"),
        "peak_rss_mb": (median(samples["peak_rss_mb"][1]), "MB"),
        "failed_share": (failed / attempted, "ratio"),
    }
    if workload == "explore-crash":
        out["explore_s"] = (median(samples["verdict_s"][1]), "s")
    elif workload == "sweep-n15":
        out["sweep_seeds_per_s"] = (median(samples["throughput_per_s"][1]), "1/s")
    else:
        for phase in ("run", "check"):
            out[f"{phase}_events_per_s"] = (
                median(r["units"] / r["phase_s"][phase] for r in reps), "1/s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "regsim" / "__init__.py").is_file():
        print(f"no regsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1

    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}/"
        print(f"# {rec['workload']} seed={rec['seed']} reps={rec['repetitions']} "
              f"rev={rec['git_rev'][:12]} python={rec['python']} nproc={rec['nproc']} "
              f"load {rec['loadavg_start']} -> {rec['loadavg_end']}")
        for name, (value, unit) in rec["summary"].items():
            print(f"#   {name} = {value:.6g} {unit}")
        for problem in rec["problems"]:
            print(f"#   FAILED: {problem}")
        metrics.update({prefix + name: {"value": m["median"], "unit": m["unit"]}
                        for name, m in rec["metrics"].items()})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
