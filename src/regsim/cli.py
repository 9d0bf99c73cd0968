"""Command-line front end.

    regsim run CONFIG [--seed N] [--out trace.jsonl] [--report report.json]
    regsim sweep CONFIG --seeds N [--base-seed N]
    regsim explore --n N --t T --ops SPEC [--algorithm A] [--crash-subsets]
                   [--max-states N]
    regsim check TRACE [--config CONFIG] [--report report.json]

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error,
3 resource bound exceeded.  REGSIM_EVENT_BUDGET overrides the per-run event
budget.  All scenario semantics live in the config file; flags only control
seeds, I/O paths, and budgets.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .algos import Op
from .config import ConfigError, ScenarioConfig, load_scenario
from .engine import DEFAULT_EVENT_BUDGET, BudgetExceededError, ScheduleError, run
from .explore import BroadcastCrash, ExploreLimitError, explore
from .history import check_claims, check_linearizable, check_termination, extract_history
from .report import build_report, report_to_json
from .trace import read_jsonl, write_jsonl

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RESOURCE_BOUND = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ScheduleError as exc:
        print(f"schedule error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (BudgetExceededError, ExploreLimitError) as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_BOUND


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

    p_exp = sub.add_parser("explore", help="exhaustively explore a small instance")
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--t", type=int, required=True)
    p_exp.add_argument(
        "--ops",
        required=True,
        help="comma list like 'w:1,r:2,r:3' (w:P write by P, r:P read by P)",
    )
    p_exp.add_argument("--algorithm", default="teff")
    p_exp.add_argument(
        "--crash-subsets",
        action="store_true",
        help="also explore the first write's broadcast cut to every subset",
    )
    p_exp.add_argument("--max-states", type=int, default=None)
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
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"REGSIM_EVENT_BUDGET must be an integer, got {raw!r}") from exc


def cmd_run(args) -> int:
    config = load_scenario(args.config)
    result = run(config, seed=args.seed, budget=_event_budget())
    if args.out is not None:
        write_jsonl(result.trace, args.out)
    report = build_report(config, result.trace, result.seed)
    if args.report is not None:
        Path(args.report).write_text(report_to_json(report), encoding="utf-8")
    _print_report_summary(report)
    return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    config = load_scenario(args.config)
    budget = _event_budget()
    worst: dict[tuple, int] = {}
    for seed in range(args.base_seed, args.base_seed + args.seeds):
        result = run(config, seed=seed, budget=budget)
        report = build_report(config, result.trace, seed)
        for entry in report["bounds"]["entries"]:
            if entry["duration"] is None:
                continue
            key = (entry["kind"], entry["class"])
            worst[key] = max(worst.get(key, 0), entry["duration"])
        if not report["pass"]:
            print(f"seed {seed}: FAILED — reproduce with --seed {seed}")
            _print_report_summary(report)
            return EXIT_CHECK_FAILED
    print(f"sweep: {args.seeds} seeds, 0 failures")
    for (kind, cls), duration in sorted(worst.items(), key=lambda kv: str(kv[0])):
        label = f"{kind}" + (f"/{cls}" if cls else "")
        print(f"  max duration {label}: {duration}")
    return EXIT_PASS


def _parse_ops_spec(spec: str) -> list[Op]:
    ops = []
    counter = 0
    for i, item in enumerate(x.strip() for x in spec.split(",")):
        if not item:
            continue
        try:
            kind_code, proc = item.split(":")
            process = int(proc)
        except ValueError as exc:
            raise ConfigError(f"bad ops entry {item!r}") from exc
        if kind_code == "w":
            counter += 1
            ops.append(Op(process, "write", f"v{counter}".encode(), i))
        elif kind_code == "r":
            ops.append(Op(process, "read", None, i))
        else:
            raise ConfigError(f"bad ops entry {item!r}: want w:P or r:P")
    return ops


def cmd_explore(args) -> int:
    ops = _parse_ops_spec(args.ops)
    for op in ops:
        if not 1 <= op.process <= args.n:
            raise ConfigError(f"ops process {op.process} outside 1..{args.n}")
        if op.kind == "write" and op.process != 1:
            raise ConfigError("writes are issued by the designated writer (process 1)")
    kwargs = {}
    if args.max_states is not None:
        kwargs["max_states"] = args.max_states

    crash_cases: list[BroadcastCrash | None] = [None]
    if args.crash_subsets:
        first_write = next((i for i, op in enumerate(ops) if op.kind == "write"), None)
        if first_write is None:
            raise ConfigError("--crash-subsets needs at least one write in --ops")
        everyone = list(range(1, args.n + 1))
        for mask in range(1 << args.n):
            subset = frozenset(p for p in everyone if mask & (1 << (p - 1)))
            crash_cases.append(BroadcastCrash(first_write, subset))

    total_histories = 0
    bad = 0
    for crash in crash_cases:
        res = explore(args.algorithm, args.n, args.t, ops, crash=crash, **kwargs)
        total_histories += len(res.histories)
        for hist in res.histories:
            claims = check_claims(hist)
            lin = check_linearizable(hist)
            agree = lin.status == "skipped" or claims.ok == lin.ok
            if not claims.ok or not lin.ok or not agree:
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
    config: ScenarioConfig | None = None
    if args.config is not None:
        config = load_scenario(args.config)
    try:
        trace = read_jsonl(args.trace)
        n = config.n if config is not None else max((ev.process for ev in trace), default=1)
        history = extract_history(trace, n)
    except ValueError as exc:
        print(f"trace error: {args.trace}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    verdicts = [check_termination(history), check_claims(history), check_linearizable(history)]
    ok = all(v.ok for v in verdicts)
    if config is not None:
        report = build_report(config, trace, config.seed)
        if args.report is not None:
            Path(args.report).write_text(report_to_json(report), encoding="utf-8")
        _print_report_summary(report)
        ok = report["pass"]
    else:
        for v in verdicts:
            print(f"{v.name}: {v.status}")
            for violation in v.violations:
                print(f"  - {violation}")
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


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
