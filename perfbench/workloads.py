"""The three benchmark workloads: inputs generated from a seed, the calls
into regsim's public entry points, and the checks on their outputs.

Each workload is a class with three steps, run by ``worker.py`` in a fresh
interpreter:

* ``prepare`` generates the inputs and parses them.  Scenario files go to a
  scratch directory; regsim only ever sees those files.  This is set-up.
* ``calls`` lists the entry-point calls of one repetition as
  ``(label, thunk)`` pairs; ``worker.py`` times each one.
* ``check`` compares the outputs against ``reference.json`` and returns
  ``(attempted, failed, problems)``.

Module attributes are looked up at call time (``regsim.cli.main``,
``regsim.explore.explore``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from functools import partial
from pathlib import Path
from typing import Callable

import regsim.cli
import regsim.config
import regsim.explore
import regsim.history
from regsim.algos import Op

# Sweep and run inputs are drawn from `seed % N_INPUT_SETS`, so that every
# seed has a reference table taken from the seed commit.
N_INPUT_SETS = 32

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _cli(argv: list[str]) -> tuple[int, str]:
    """One call of regsim's command line: exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = regsim.cli.main(argv)
    return code, out.getvalue()


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return path


class ExploreCrash:
    """Exhaustive exploration of n=3, t=1, ops w:1,r:2,r:3 for `teff` and
    `teff-modified`, with the write's broadcast cut to each of the 8 subsets
    of {1,2,3}: the crash cases of acceptance criterion 1.  The seed picks
    the written value and the order of the 16 cases."""

    name = "explore-crash"
    algorithms = ("teff", "teff-modified")

    def prepare(self, seed: int, scratch: Path) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.value = f"v{rng.randrange(10**6)}".encode()
        self.cases = [(alg, mask) for alg in self.algorithms for mask in range(8)]
        rng.shuffle(self.cases)
        self.ops = (Op(1, "write", self.value), Op(2, "read"), Op(3, "read"))

    @staticmethod
    def subset(mask: int) -> frozenset[int]:
        return frozenset(p for p in (1, 2, 3) if mask & (1 << (p - 1)))

    def calls(self) -> list[tuple[str, Callable]]:
        self.results = []
        self._digests = None
        return [(f"{alg}/{mask}", partial(self._case, alg, mask)) for alg, mask in self.cases]

    def _case(self, alg: str, mask: int) -> None:
        crash = regsim.explore.BroadcastCrash(0, self.subset(mask))
        res = regsim.explore.explore(alg, 3, 1, self.ops, crash=crash)
        verdicts = [
            (regsim.history.check_claims(h), regsim.history.check_linearizable(h))
            for h in res.histories
        ]
        self.results.append((alg, mask, res, verdicts))

    def units(self) -> int:
        return sum(len(r[2].histories) for r in self.results)

    def history_digest(self, histories) -> str:
        """sha256 of the sorted history set, with the written value replaced
        by a token so that the digest does not depend on the seed."""

        def token(value):
            if value is None:
                return None
            return "W" if value == self.value else value.decode()

        canon = sorted(
            json.dumps(
                [
                    [[o.op_id, o.process, o.kind, o.invoke, o.respond, token(o.value), o.seqno]
                     for o in h.ops],
                    sorted(h.crashed.items()),
                ]
            )
            for h in histories
        )
        return hashlib.sha256("\n".join(canon).encode()).hexdigest()

    def digests(self) -> dict[str, str]:
        if self._digests is None:
            self._digests = {
                f"{alg}/{mask}": self.history_digest(res.histories)
                for alg, mask, res, _ in self.results
            }
        return self._digests

    def check(self, reference: dict) -> tuple[int, int, list[str]]:
        expected = reference[self.name]["digests"]
        attempted = failed = 0
        problems = []
        digests = self.digests()
        for alg, mask, res, verdicts in self.results:
            for h, (claims, lin) in zip(res.histories, verdicts):
                attempted += 1
                if not (claims.ok and lin.status == "pass"):
                    failed += 1
                    problems.append(f"{alg}/{mask}: history fails claims={claims.status} "
                                    f"linearizable={lin.status}")
            attempted += 1
            key = f"{alg}/{mask}"
            if digests[key] != expected[key]:
                failed += 1
                problems.append(f"{key}: history-set digest differs from the reference")
        return attempted, failed, problems

    def counts(self) -> dict:
        """Deterministic counts of one repetition."""
        digests = self.digests()
        seen = set()
        duplicates = 0
        for alg, mask in sorted((r[0], r[1]) for r in self.results):
            key = (alg, digests[f"{alg}/{mask}"])
            duplicates += key in seen
            seen.add(key)
        return {
            "configurations": sum(r[2].states_visited for r in self.results),
            "histories": self.units(),
            "duplicate_case_share": duplicates / len(self.results),
        }


class SweepN15:
    """Three generated n=15, t=7 scenarios (bounded delay, Delta=10, random
    delays; writes at ticks 0 and 30 and seven overlapping reads by p2-p5),
    each swept through `regsim sweep` over SEEDS seeds:

    * `teff`, p6 crashes at tick 20;
    * `teff-modified`, the second write's broadcast cut to {2}, crash_at 36;
    * `abd`, p6 crashes at tick 20.
    """

    name = "sweep-n15"
    SEEDS = 100
    _MAX_LINE = re.compile(r"^  max duration (\S+): (\d+)$", re.M)

    @staticmethod
    def scenarios(index: int) -> tuple[dict[str, dict], int]:
        rng = random.Random(f"sweep-n15/{index}")
        ops = [
            {"time": 0, "process": 1, "op": "write", "value": "a"},
            {"time": 30, "process": 1, "op": "write", "value": "b"},
        ]
        # Reads of one process start at least 50 ticks apart, above every
        # read bound (4 * Delta), so no process invokes while pending.
        first = {p: rng.randint(0, 40) for p in (2, 3, 4, 5)}
        for p in (2, 3, 4, 5):
            ops.append({"time": first[p], "process": p, "op": "read"})
        for p in (2, 3, 4):
            ops.append({"time": first[p] + rng.randint(50, 70), "process": p, "op": "read"})
        common = {
            "n": 15,
            "t": 7,
            "network": {"kind": "bounded_delay", "Delta": 10},
            "ops": ops,
        }
        crash_p6 = [{"process": 6, "at": 20}]
        cut_write = [
            {"process": 1,
             "during_broadcast": {"op_index": 1, "deliver_to": [2], "crash_at": 36}}
        ]
        scenarios = {
            "teff": {**common, "algorithm": "teff", "crashes": crash_p6},
            "teff-modified": {**common, "algorithm": "teff-modified", "crashes": cut_write},
            "abd": {**common, "algorithm": "abd", "crashes": crash_p6},
        }
        return scenarios, rng.randrange(10**6)

    def prepare(self, seed: int, scratch: Path) -> None:
        self.index = input_set(seed)
        scenarios, self.base_seed = self.scenarios(self.index)
        self.paths = {}
        for label, data in scenarios.items():
            path = _write_json(scratch / f"sweep-{label}.json", data)
            regsim.config.load_scenario(path)
            self.paths[label] = path

    def calls(self) -> list[tuple[str, Callable]]:
        self.outputs = {}
        return [(label, partial(self._sweep, label, path)) for label, path in self.paths.items()]

    def _sweep(self, label: str, path: Path) -> None:
        self.outputs[label] = _cli(
            ["sweep", str(path), "--seeds", str(self.SEEDS), "--base-seed", str(self.base_seed)]
        )

    def units(self) -> int:
        return self.SEEDS * len(self.outputs)

    def tables(self) -> dict[str, dict[str, int]]:
        return {
            label: {k: int(v) for k, v in self._MAX_LINE.findall(out)}
            for label, (_, out) in self.outputs.items()
        }

    def check(self, reference: dict) -> tuple[int, int, list[str]]:
        expected = reference[self.name]["tables"][str(self.index)]
        tables = self.tables()
        attempted = failed = 0
        problems = []
        for label, (code, out) in self.outputs.items():
            attempted += self.SEEDS
            ok_line = f"sweep: {self.SEEDS} seeds, 0 failures" in out
            if code != 0 or not ok_line or tables[label] != expected[label]:
                failed += self.SEEDS
                problems.append(f"{label}: exit {code}, table {tables[label]} "
                                f"!= reference {expected[label]}")
        return attempted, failed, problems

    def counts(self) -> dict:
        return {"seeds": self.SEEDS * len(self.paths)}


class RunLarge:
    """One generated `teff-modified` scenario: n=15, t=7, bounded delay
    Delta=10 with random delays, 1,600 ops 10 ticks apart; every 4th op is a
    write by p1 and reads go round-robin over p2-p15.  `regsim run --out
    --report`, then `regsim check --config --report`, then a byte compare of
    the two reports."""

    name = "run-large"
    OPS = 1600

    @classmethod
    def scenario(cls, index: int) -> dict:
        rng = random.Random(f"run-large/{index}")
        ops = []
        readers = 0
        for i in range(cls.OPS):
            if i % 4 == 0:
                value = f"w{i // 4}-{rng.randrange(10**6)}"
                ops.append({"time": 10 * i, "process": 1, "op": "write", "value": value})
            else:
                ops.append({"time": 10 * i, "process": 2 + readers % 14, "op": "read"})
                readers += 1
        return {
            "n": 15,
            "t": 7,
            "algorithm": "teff-modified",
            "network": {"kind": "bounded_delay", "Delta": 10},
            "ops": ops,
            "seed": rng.randrange(2**31),
        }

    def prepare(self, seed: int, scratch: Path) -> None:
        self.index = input_set(seed)
        self.config = _write_json(scratch / "run-large.json", self.scenario(self.index))
        regsim.config.load_scenario(self.config)
        self.trace = scratch / "run-large.jsonl"
        self.report_run = scratch / "run-large.run.json"
        self.report_check = scratch / "run-large.check.json"

    def calls(self) -> list[tuple[str, Callable]]:
        return [("run", self._run), ("check", self._check), ("compare", self._compare)]

    def _run(self) -> None:
        self.run_code, _ = _cli(
            ["run", str(self.config), "--out", str(self.trace), "--report", str(self.report_run)]
        )

    def _check(self) -> None:
        self.check_code, _ = _cli(
            ["check", str(self.trace), "--config", str(self.config),
             "--report", str(self.report_check)]
        )

    def _compare(self) -> None:
        self.same_reports = self.report_run.read_bytes() == self.report_check.read_bytes()

    def units(self) -> int:
        """Trace events of the run, as its report counts them."""
        return json.loads(self.report_run.read_text(encoding="utf-8"))["events"]

    def trace_sha256(self) -> str:
        return hashlib.sha256(self.trace.read_bytes()).hexdigest()

    def check(self, reference: dict) -> tuple[int, int, list[str]]:
        expected = reference[self.name]["trace_sha256"][str(self.index)]
        problems = []
        if self.run_code != 0 or self.trace_sha256() != expected:
            problems.append(f"run: exit {self.run_code}, trace sha256 differs: "
                            f"{self.trace_sha256() != expected}")
        if self.check_code != 0:
            problems.append(f"check: exit {self.check_code}")
        if not self.same_reports:
            problems.append("the run and check reports differ")
        return 3, len(problems), problems

    def counts(self) -> dict:
        return {"events": self.units(), "trace_bytes": self.trace.stat().st_size}


WORKLOADS = {w.name: w for w in (ExploreCrash, SweepN15, RunLarge)}
