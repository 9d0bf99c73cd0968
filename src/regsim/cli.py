"""Command-line front end.

    regsim run CONFIG [--seed N] [--out trace.jsonl] [--report report.json]
    regsim sweep CONFIG --seeds N [--base-seed N]
    regsim explore CONFIG [--crash-subsets] [--max-states N]
    regsim check TRACE [--config CONFIG [--report report.json]]

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error
(including a file or stdout that cannot be read or written, a trace line
naming a process outside the run, a write's respond whose wsn or value is
not the write's own, a trace that does not run its `--config` scenario's
ops or crashes, or that carries a message class the scenario's protocol
never sends, a scenario crash that `explore` cannot model, and a
`--max-states` or REGSIM_EVENT_BUDGET below 1), 3 resource bound exceeded.
REGSIM_EVENT_BUDGET sets the per-run event budget.  All scenario
semantics live in the config file; flags only control seeds, I/O paths,
crash enumeration and budgets.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
import tempfile
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import IO, Iterator

from .config import ConfigError, load_scenario
from .engine import DEFAULT_EVENT_BUDGET, BudgetExceededError, ScheduleError, chunks, run
from .explore import DEFAULT_MAX_STATES, BroadcastCrash, ExploreLimitError, explore
from .history import check_claims, check_linearizable, check_termination, extract_history
from .report import build_report, judge, report_to_json
from .trace import read_events, tee_jsonl
# Not called here; perfbench/tracer.py wraps regsim.cli.read_jsonl and
# regsim.cli.write_jsonl by name.
from .trace import read_jsonl, write_jsonl  # noqa: F401

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RESOURCE_BOUND = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A command makes no reference cycles worth a pass of Python's cyclic
    # collector, but it allocates containers by the hundred thousand (a
    # run's events, the explorer's configurations), and each pass traverses
    # every one still alive: a chunk of events, the explorer's whole memo.
    # So the collector pauses while the command runs, and afterwards is
    # back in the state the caller left it in, also on error.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ScheduleError as exc:
        print(f"schedule error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (BudgetExceededError, ExploreLimitError) as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_BOUND
    except BrokenPipeError as exc:
        # Whoever read stdout is gone.  What is still buffered for it goes
        # to the null device, so the interpreter's flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    finally:
        if collecting:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario, check it, report")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=Path, default=None, help="write trace JSONL here")
    p_run.add_argument("--report", type=Path, default=None, help="write report JSON here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across many seeds")
    p_sweep.add_argument("config", type=Path)
    p_sweep.add_argument("--seeds", type=int, required=True)
    p_sweep.add_argument("--base-seed", type=int, default=0)
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("explore", help="exhaustively explore a small scenario")
    p_exp.add_argument("config", type=Path)
    p_exp.add_argument(
        "--crash-subsets",
        action="store_true",
        help="also explore the first write's broadcast cut to every subset of the "
        "other processes (the crashing writer never hears its own broadcast)",
    )
    p_exp.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    p_exp.set_defaults(func=cmd_explore)

    p_check = sub.add_parser("check", help="re-check a stored trace")
    p_check.add_argument("trace", type=Path)
    p_check.add_argument("--config", type=Path, default=None)
    p_check.add_argument("--report", type=Path, default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def _event_budget() -> int:
    raw = os.environ.get("REGSIM_EVENT_BUDGET")
    if raw is None:
        return DEFAULT_EVENT_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ConfigError(f"REGSIM_EVENT_BUDGET must be an integer, got {raw!r}") from exc
    if budget < 1:
        raise ConfigError(f"REGSIM_EVENT_BUDGET must be at least 1, got {budget}")
    return budget


def cmd_run(args) -> int:
    config = load_scenario(args.config)
    seed = config.seed if args.seed is None else args.seed
    events = chunks(config, seed, _event_budget())
    if args.out is None:
        report = build_report(config, chain.from_iterable(events), seed)
    else:
        with _trace_file(args.out) as fh:
            report = build_report(config, tee_jsonl(events, fh), seed)
    return _emit_report(report, args.report)


@contextmanager
def _trace_file(path: Path) -> Iterator[IO[str]]:
    """The file to write the trace to.  A regular file, or a new one, is
    written to a fresh file beside itself (through any symlink) and renamed
    into place with its old permission bits when the block ends, so on any
    error it is left as it was.  An existing file must be writable, as
    opening it would need.  Anything else, such as a pipe or a device, is
    written in place."""
    temp = None
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
            return
        target = Path(os.path.realpath(path))
        if mode is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            os.close(os.open(target, os.O_WRONLY))  # opens it without truncating
        fd, temp = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=target.parent)
        with open(fd, "w", encoding="utf-8") as fh:
            os.chmod(temp, stat.S_IMODE(mode))
            yield fh
        os.replace(temp, target)
        temp = None
    except OSError as exc:
        # Named by `path`, as if `path` itself had been opened.
        error = OSError(exc.errno, exc.strerror, str(path))
        raise ConfigError(f"cannot write trace: {error}") from exc
    finally:
        if temp is not None:
            Path(temp).unlink(missing_ok=True)


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    config = load_scenario(args.config)
    budget = _event_budget()
    worst: dict[tuple, int] = {}
    for seed in range(args.base_seed, args.base_seed + args.seeds):
        # Verdicts and durations need only the operation events; a failing
        # seed is re-run in full (runs are deterministic) for its report.
        result = run(config, seed=seed, budget=budget, messages=False)
        passed, _, bounds = judge(config, extract_history(result.trace, config.n))
        if not passed:
            print(f"seed {seed}: FAILED — reproduce with --seed {seed}")
            result = run(config, seed=seed, budget=budget)
            _print_report_summary(build_report(config, result.trace, seed))
            return EXIT_CHECK_FAILED
        for entry in bounds.entries:
            if entry.duration is not None:
                key = (entry.kind, entry.read_class)
                worst[key] = max(worst.get(key, 0), entry.duration)
    print(f"sweep: {args.seeds} seeds, 0 failures")
    for (kind, cls), duration in sorted(worst.items(), key=lambda kv: str(kv[0])):
        label = f"{kind}" + (f"/{cls}" if cls else "")
        print(f"  max duration {label}: {duration}")
    return EXIT_PASS


def cmd_explore(args) -> int:
    config = load_scenario(args.config)
    if args.max_states < 1:
        raise ConfigError(f"--max-states must be at least 1, got {args.max_states}")
    ops = config.ops
    if len(config.crashes) > 1:
        raise ConfigError(f"explore models one crash, the scenario has {len(config.crashes)}")
    # explore() itself rejects, before its search, a crash it cannot model.
    crash_cases = list(config.crashes) or [None]
    if args.crash_subsets:
        if config.crashes:
            raise ConfigError("--crash-subsets needs a scenario without crashes")
        writes = [i for i, op in enumerate(ops) if op.kind == "write"]
        if not writes:
            raise ConfigError("--crash-subsets needs a write in the scenario's ops")
        # The writer's first write in invoke order: its earliest.
        first_write = min(writes, key=lambda i: ops[i].time)
        others = [p for p in range(1, config.n + 1) if p != ops[first_write].process]
        for mask in range(1 << len(others)):
            subset = frozenset(p for i, p in enumerate(others) if mask >> i & 1)
            crash_cases.append(BroadcastCrash(first_write, subset))

    checks = (check_termination, check_claims, check_linearizable)
    total_histories = 0
    bad = 0
    for crash in crash_cases:
        res = explore(
            config.algorithm, config.n, config.t, ops, crash=crash, max_states=args.max_states
        )
        total_histories += len(res.histories)
        for hist in res.histories:
            if not all(check(hist).ok for check in checks):
                bad += 1
        label = "no crash" if crash is None else f"crash subset {sorted(crash.deliver_to)}"
        print(
            f"{label}: {res.states_visited} configurations, {res.edges} edges, "
            f"{res.transitions} transitions, {res.noop_pruned} no-op pruned, "
            f"{len(res.histories)} distinct histories"
        )
    if bad:
        print(f"explore: {bad} violating histories out of {total_histories}")
        return EXIT_CHECK_FAILED
    print(f"explore: all {total_histories} histories atomic; checkers agree")
    return EXIT_PASS


def cmd_check(args) -> int:
    """Re-check a stored trace: as a run of its `--config` scenario, or else
    by the three checkers, with any process id from p1 up and any class."""
    if args.report is not None and args.config is None:
        raise ConfigError("check --report needs --config")
    config = None if args.config is None else load_scenario(args.config)
    try:
        with open(args.trace, encoding="utf-8") as fh:
            events = read_events(fh)
            if config is not None:
                report = build_report(config, events, config.seed)
            else:
                history = extract_history(events, None)
    except (ValueError, OSError) as exc:
        print(f"trace error: {args.trace}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if config is not None:
        return _emit_report(report, args.report)
    verdicts = [check_termination(history), check_claims(history), check_linearizable(history)]
    for v in verdicts:
        print(f"{v.name}: {v.status}")
        for violation in v.violations:
            print(f"  - {violation}")
    return EXIT_PASS if all(v.ok for v in verdicts) else EXIT_CHECK_FAILED


def _emit_report(report: dict, path: Path | None) -> int:
    """Write the report if a path is given, print its summary, map it to an
    exit code."""
    if path is not None:
        try:
            path.write_text(report_to_json(report), encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
    _print_report_summary(report)
    return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED


def _print_report_summary(report: dict) -> None:
    print(
        f"scenario {report['scenario'][:12]} algorithm={report['algorithm']} "
        f"network={report['network']} seed={report['seed']}"
    )
    for name, verdict in report["checks"].items():
        print(f"  {name}: {verdict['status']}")
        for violation in verdict["violations"]:
            print(f"    - {violation}")
    bounds = report["bounds"]
    if bounds["informational"]:
        print("  bounds: informational (async run)")
    elif bounds["ok"]:
        print("  bounds: all within claims")
    else:
        print("  bounds: VIOLATIONS")
        for violation in bounds["violations"]:
            print(f"    - {violation}")
    for entry in bounds["entries"]:
        cls = f" {entry['class']}" if entry["class"] else ""
        dur = "pending" if entry["duration"] is None else entry["duration"]
        bound = entry["bound"]
        claim = f" (bound {bound['kind']} {bound['ticks']})" if bound else ""
        print(
            f"    op {entry['op']} p{entry['p']} {entry['kind']}{cls}: "
            f"duration={dur}{claim} messages={entry['messages']}"
        )


if __name__ == "__main__":
    sys.exit(main())
