"""Scenario configuration: parsing and validation.

A scenario is a JSON object:

    {
      "n": 5, "t": 2,
      "algorithm": "teff" | "teff-modified" | "abd",
      "network": {"kind": "bounded_delay", "Delta": 10,
                  "schedule": {"mode": "fixed", "delay": 10},
                  "overrides": [{"from": 5, "to": 1, "tag": "Read", "delay": 1}]},
      "crashes": [{"process": 1, "at": 30},
                  {"process": 1, "during_broadcast":
                      {"op_index": 0, "deliver_to": [2], "crash_at": 11}},
                  {"process": 2, "during_forward": {"wsn": 1, "deliver_to": [3]}}],
      "ops": [{"time": 0, "process": 1, "op": "write", "value": "a"},
              {"time": 40, "process": 2, "op": "read"}],
      "seed": 42,
      "options": {"writer_local_read": false, "quorum_counts_state": true}
    }

Network kinds: "async" (random delays in [1, Dmax]), "bounded_delay" (random
in [1, Delta]), "round_sync" (every delay exactly delta, operations aligned
to round starts).  `schedule` pins delays instead of drawing them: "fixed",
"list" (consumed in send order, last entry repeats), or "increasing" (every
message slower than the one before; async only).  `overrides` pin the delay
of individual (sender, receiver, message-tag) edges and win over the
schedule.  All times are integer ticks.

Crash triggers: "at" halts the process at a tick; "during_broadcast"
truncates the named operation's initiating broadcast to `deliver_to` —
by default the process halts at the same tick, while an explicit later
`crash_at` leaves it responsive (it answers messages but its cut broadcast
is never repaired) until that tick; "during_forward" truncates the process's
relay broadcast of the given write sequence number and halts it there.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .algos import ALGORITHMS, Op
from .messages import message_tag_name

DEFAULT_INCREASING_START = 1


class ConfigError(Exception):
    """The scenario file is malformed or violates a model constraint."""


@dataclass(frozen=True)
class CrashSpec:
    process: int
    at: int | None = None
    op_index: int | None = None
    deliver_to: frozenset[int] | None = None
    crash_at: int | None = None  # during_broadcast only: responsive until then
    forward_wsn: int | None = None

    @property
    def trigger(self) -> str:
        if self.at is not None:
            return "at"
        if self.forward_wsn is not None:
            return "during_forward"
        return "during_broadcast"


@dataclass(frozen=True)
class DelayOverride:
    sender: int
    dest: int
    tag: str | None  # message class name, e.g. "Read"; None matches any
    delay: int

    def matches(self, sender: int, dest: int, msg) -> bool:
        if self.sender != sender or self.dest != dest:
            return False
        return self.tag is None or message_tag_name(msg) == self.tag


@dataclass(frozen=True)
class NetworkSpec:
    kind: str  # "async" | "bounded_delay" | "round_sync"
    delta: int = 0  # Delta (bounded_delay) or delta (round_sync)
    dmax: int = 0  # async only
    schedule_mode: str | None = None  # None | "fixed" | "list" | "increasing"
    schedule_fixed: int = 0
    schedule_list: tuple[int, ...] = ()
    schedule_start: int = DEFAULT_INCREASING_START
    schedule_step: int = 1
    overrides: tuple[DelayOverride, ...] = ()

    @property
    def max_delay(self) -> int:
        return self.dmax if self.kind == "async" else self.delta


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    t: int
    algorithm: str
    network: NetworkSpec
    ops: tuple[Op, ...]
    crashes: tuple[CrashSpec, ...] = ()
    seed: int = 0
    options: dict = field(default_factory=dict)
    digest: str = ""


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return replace(parse_scenario(data), digest=hashlib.sha256(raw).hexdigest())


_KNOWN_FIELDS = {
    "n", "t", "algorithm", "network", "crashes", "ops", "seed", "options",
    "description",
}


def parse_scenario(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    unknown = set(data) - _KNOWN_FIELDS
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    n = _req_int(data, "n", minimum=1)
    t = _req_int(data, "t", minimum=0)
    if 2 * t >= n:
        raise ConfigError(f"model constraint violated: need 2t < n, got n={n} t={t}")
    algorithm = data.get("algorithm", "teff")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    network = _parse_network(data.get("network"))
    ops = _parse_ops(data.get("ops", []), n)
    crashes = _parse_crashes(data.get("crashes", []), n, t, ops, network, algorithm)
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options must be an object")
    for key in options:
        if key not in ("writer_local_read", "quorum_counts_state"):
            raise ConfigError(f"unknown option {key!r}")
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return ScenarioConfig(
        n=n,
        t=t,
        algorithm=algorithm,
        network=network,
        ops=ops,
        crashes=crashes,
        seed=seed,
        options=dict(options),
        digest=hashlib.sha256(canonical).hexdigest(),
    )


def _req_int(data: dict, key: str, minimum: int | None = None) -> int:
    if key not in data:
        raise ConfigError(f"missing required field {key!r}")
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    return value


def _parse_network(data) -> NetworkSpec:
    if data is None:
        raise ConfigError("missing required field 'network'")
    kind = data.get("kind")
    if kind == "async":
        spec = NetworkSpec(kind="async", dmax=_req_int(data, "Dmax", minimum=1))
    elif kind == "bounded_delay":
        spec = NetworkSpec(kind="bounded_delay", delta=_req_int(data, "Delta", minimum=1))
    elif kind == "round_sync":
        spec = NetworkSpec(kind="round_sync", delta=_req_int(data, "delta", minimum=1))
    else:
        raise ConfigError(f"unknown network kind {kind!r}")
    schedule = data.get("schedule")
    if schedule is not None:
        if kind == "round_sync":
            raise ConfigError("round_sync delays are fixed at delta; no schedule allowed")
        spec = _parse_schedule(spec, schedule)
    overrides = data.get("overrides", [])
    if overrides:
        if kind == "round_sync":
            raise ConfigError("round_sync delays are fixed at delta; no overrides allowed")
        spec = _parse_overrides(spec, overrides)
    return spec


def _parse_schedule(spec: NetworkSpec, schedule: dict) -> NetworkSpec:
    mode = schedule.get("mode")
    if mode == "fixed":
        delay = _req_int(schedule, "delay", minimum=1)
        _check_delay_bound(spec, delay)
        return replace(spec, schedule_mode="fixed", schedule_fixed=delay)
    if mode == "list":
        delays = schedule.get("delays")
        if not isinstance(delays, list) or not delays:
            raise ConfigError("schedule mode 'list' needs a non-empty 'delays' array")
        for d in delays:
            if not isinstance(d, int) or d < 1:
                raise ConfigError("schedule delays must be positive integers")
            _check_delay_bound(spec, d)
        return replace(spec, schedule_mode="list", schedule_list=tuple(delays))
    if mode == "increasing":
        if spec.kind != "async":
            raise ConfigError("an increasing schedule is unbounded; async only")
        start = schedule.get("start", DEFAULT_INCREASING_START)
        step = schedule.get("step", 1)
        if not isinstance(start, int) or start < 1 or not isinstance(step, int) or step < 1:
            raise ConfigError("increasing schedule needs positive integer start/step")
        return replace(
            spec, schedule_mode="increasing", schedule_start=start, schedule_step=step
        )
    raise ConfigError(f"unknown schedule mode {mode!r}")


def _parse_overrides(spec: NetworkSpec, overrides: list) -> NetworkSpec:
    parsed = []
    for item in overrides:
        if not isinstance(item, dict):
            raise ConfigError("each override must be an object")
        sender = _req_int(item, "from", minimum=1)
        dest = _req_int(item, "to", minimum=1)
        delay = _req_int(item, "delay", minimum=1)
        _check_delay_bound(spec, delay)
        tag = item.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise ConfigError("override tag must be a string")
        parsed.append(DelayOverride(sender, dest, tag, delay))
    return replace(spec, overrides=tuple(parsed))


def _check_delay_bound(spec: NetworkSpec, delay: int) -> None:
    if spec.kind == "bounded_delay" and delay > spec.delta:
        raise ConfigError(f"delay {delay} exceeds Delta={spec.delta}")
    if spec.kind == "async" and delay > spec.dmax:
        raise ConfigError(f"delay {delay} exceeds Dmax={spec.dmax}")


def _parse_ops(items, n: int) -> tuple[Op, ...]:
    if not isinstance(items, list):
        raise ConfigError("ops must be an array")
    ops = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"ops[{i}] must be an object")
        time = _req_int(item, "time", minimum=0)
        process = _req_int(item, "process", minimum=1)
        if process > n:
            raise ConfigError(f"ops[{i}]: process {process} outside 1..{n}")
        kind = item.get("op")
        if kind == "write":
            if process != 1:
                raise ConfigError(
                    f"ops[{i}]: writes are issued by the designated writer (process 1)"
                )
            value = item.get("value")
            if not isinstance(value, str) or value == "":
                raise ConfigError(f"ops[{i}]: write needs a non-empty string value")
            ops.append(Op(process, "write", value.encode("utf-8"), time))
        elif kind == "read":
            ops.append(Op(process, "read", None, time))
        else:
            raise ConfigError(f"ops[{i}]: op must be 'write' or 'read'")
    return tuple(ops)


def _parse_crashes(
    items, n: int, t: int, ops: tuple[Op, ...], network: NetworkSpec, algorithm: str
) -> tuple[CrashSpec, ...]:
    if not isinstance(items, list):
        raise ConfigError("crashes must be an array")
    if len(items) > t:
        raise ConfigError(f"{len(items)} crashes scheduled but t={t}")
    crashes = []
    seen = set()
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"crashes[{i}] must be an object")
        process = _req_int(item, "process", minimum=1)
        if process > n:
            raise ConfigError(f"crashes[{i}]: process {process} outside 1..{n}")
        if process in seen:
            raise ConfigError(f"crashes[{i}]: process {process} crashes twice")
        seen.add(process)
        triggers = [k for k in ("at", "during_broadcast", "during_forward") if k in item]
        if len(triggers) != 1:
            raise ConfigError(
                f"crashes[{i}]: exactly one of at/during_broadcast/during_forward"
            )
        if "at" in item:
            crashes.append(CrashSpec(process, at=_req_int(item, "at", minimum=0)))
        elif "during_broadcast" in item:
            spec = item["during_broadcast"]
            op_index = _req_int(spec, "op_index", minimum=0)
            if op_index >= len(ops):
                raise ConfigError(f"crashes[{i}]: op_index {op_index} out of range")
            if ops[op_index].process != process:
                raise ConfigError(
                    f"crashes[{i}]: op {op_index} belongs to process "
                    f"{ops[op_index].process}, not {process}"
                )
            deliver_to = _parse_subset(spec.get("deliver_to"), n, f"crashes[{i}]")
            crash_at = spec.get("crash_at")
            if crash_at is not None:
                if not isinstance(crash_at, int) or crash_at < ops[op_index].time:
                    raise ConfigError(
                        f"crashes[{i}]: crash_at must be an integer >= the op time"
                    )
                if network.kind == "round_sync":
                    raise ConfigError(
                        f"crashes[{i}]: crash_at windows are not defined for round_sync"
                    )
            crashes.append(
                CrashSpec(
                    process, op_index=op_index, deliver_to=deliver_to, crash_at=crash_at
                )
            )
        else:
            spec = item["during_forward"]
            if algorithm == "abd":
                raise ConfigError(f"crashes[{i}]: during_forward applies to teff only")
            wsn = _req_int(spec, "wsn", minimum=1)
            deliver_to = _parse_subset(spec.get("deliver_to"), n, f"crashes[{i}]")
            crashes.append(CrashSpec(process, forward_wsn=wsn, deliver_to=deliver_to))
    return tuple(crashes)


def _parse_subset(value, n: int, where: str) -> frozenset[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: deliver_to must be an array of process ids")
    out = set()
    for p in value:
        if not isinstance(p, int) or not 1 <= p <= n:
            raise ConfigError(f"{where}: deliver_to entry {p!r} outside 1..{n}")
        out.add(p)
    return frozenset(out)
