"""Scenario configuration: parsing and validation.

A scenario is a JSON object:

    {
      "n": 5, "t": 2,
      "algorithm": "teff" | "teff-modified" | "abd",
      "network": {"kind": "bounded_delay", "Delta": 10,
                  "schedule": {"mode": "fixed", "delay": 10}},
      "crashes": [{"process": 1, "at": 30},
                  {"process": 1, "during_broadcast":
                      {"op_index": 0, "deliver_to": [2], "crash_at": 11}},
                  {"process": 2, "during_forward": {"wsn": 1, "deliver_to": [3]}}],
      "ops": [{"time": 0, "process": 1, "op": "write", "value": "a"},
              {"time": 40, "process": 2, "op": "read"}],
      "seed": 42
    }

Network kinds: "async" (random delays in [1, Dmax]), "bounded_delay" (random
in [1, Delta]), "round_sync" (every delay exactly delta, operations aligned
to round starts); `NetworkSpec.delta` holds whichever of Dmax, Delta and
delta the kind takes.  `schedule` pins delays instead of drawing them:
"fixed", "list" (consumed in send order, last entry repeats), or
"increasing" (every message slower than the one before; async only).  All
times are integer ticks.  Each network parses into one delay rule:
`delays` pins the first sends' delays (None draws every one), and each
later send is `step` slower than the one before — "fixed" is `(delay,)`,
"list" its tuple, "increasing" `(start,)` with `step`, round_sync
`(delta,)`.

A scenario must satisfy the system model: the protocols' own (n >= 1,
0 <= t, 2t < n) and a known algorithm.  Every object, nested ones
included, admits only its own keys (a network only its kind's delta field,
a schedule only its mode's keys, a read no value); an unknown key raises
ConfigError, as does input of the wrong JSON type or any other malformed
field.  One process's ops must have distinct times: two at one time
would always overlap in `run`.  Every command reads its instance from a
scenario: `run`, `sweep` and `check --config` all of it, `explore` its n,
t, algorithm, ops (in program order: by time) and crashes.

Crash triggers: "at" halts the process at a tick; "during_broadcast"
cuts the named operation's initiating broadcast to `deliver_to` and halts
the process then, or, with a later `crash_at`, leaves it responsive (it
answers messages but its cut broadcast is never repaired) until that tick;
"during_forward" cuts the process's relay broadcast of the wsn-th write in
time order and halts it then.  A wsn that no write reaches, or a relay by
the writer (whose own broadcast is its forward), could never fire and is a
ConfigError.  Each crash parses into one `CrashSpec`: halt at `at`, or cut
the step that invokes `op_index` or broadcasts `relay` and halt then, or
at `at` if that is later.  An op cut's `process` is None, so that one cut
is one value: the process that halts is its op's invoker.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

from . import messages
from .algos import ALGORITHMS
from .messages import WRITER, Message, Op, ProtocolError, Write


class ConfigError(Exception):
    """The scenario file is malformed or violates a model constraint."""


class CrashSpec(NamedTuple):
    process: int | None  # None for an op cut: it is ops[op_index]'s process
    at: int | None = None  # with a cut: responsive until then
    op_index: int | None = None  # cut this op's initiating broadcast
    relay: Message | None = None  # cut the broadcast of this relayed message
    deliver_to: frozenset[int] | None = None  # a cut's receivers


# The field that holds each network kind's delay bound.
_DELTA_FIELD = {"async": "Dmax", "bounded_delay": "Delta", "round_sync": "delta"}
# The keys each schedule mode takes besides "mode".
_SCHEDULE_FIELDS = {"fixed": ("delay",), "list": ("delays",), "increasing": ("start", "step")}
_OP_FIELDS = ("time", "process", "op")
_TRIGGERS = ("at", "during_broadcast", "during_forward")


class NetworkSpec(NamedTuple):
    kind: str  # "async" | "bounded_delay" | "round_sync"
    delta: int  # Dmax, Delta or delta: the kind's `_DELTA_FIELD`
    delays: tuple[int, ...] | None = None  # pinned, in send order; None draws
    step: int = 0  # each send after the last pinned one is this much slower


class ScenarioConfig(NamedTuple):
    n: int
    t: int
    algorithm: str
    network: NetworkSpec
    ops: tuple[Op, ...]
    crashes: tuple[CrashSpec, ...] = ()
    seed: int = 0
    digest: str = ""  # sha256 of the file's bytes, or of `parse_scenario`'s canonical dump


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return _parse(data)._replace(digest=hashlib.sha256(raw).hexdigest())


_KNOWN_FIELDS = ("n", "t", "algorithm", "network", "crashes", "ops", "seed", "description")


def parse_scenario(data: dict) -> ScenarioConfig:
    """The scenario `data`, its digest taken over its canonical JSON dump."""
    config = _parse(data)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return config._replace(digest=hashlib.sha256(canonical).hexdigest())


def _parse(data: dict) -> ScenarioConfig:
    """The scenario `data`, without its digest."""
    _object(data, "scenario", _KNOWN_FIELDS)
    n = _req_int(data, "n")
    t = _req_int(data, "t")
    algorithm = data.get("algorithm", "teff")
    try:
        messages.check_model(n, t)
    except ProtocolError as exc:
        raise ConfigError(f"model constraint violated: {exc}") from exc
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    network = _parse_network(data.get("network"))
    ops = _parse_ops(data.get("ops", []), n)
    crashes = _parse_crashes(data.get("crashes", []), n, t, ops, network, algorithm)
    seed = _int(data.get("seed", 0), "seed")
    return ScenarioConfig(
        n=n, t=t, algorithm=algorithm, network=network, ops=ops, crashes=crashes, seed=seed
    )


def _int(value, what: str, minimum: int | None = None) -> int:
    """`value` as an int (a JSON boolean is not one) no less than `minimum`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}")
    return value


def _req_int(data: dict, key: str, minimum: int | None = None) -> int:
    if key not in data:
        raise ConfigError(f"missing required field {key!r}")
    return _int(data[key], key, minimum)


def _pid(data: dict, key: str, n: int, where: str) -> int:
    """The process id under `key`, in 1..n."""
    process = _req_int(data, key)
    if not 1 <= process <= n:
        raise ConfigError(f"{where}: {key} {process} outside 1..{n}")
    return process


def _object(value, what: str, fields: tuple[str, ...] | None = None) -> dict:
    """`value` as a JSON object; with `fields`, one that holds no other key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object")
    if fields is not None:
        unknown = set(value).difference(fields)
        if unknown:
            raise ConfigError(f"{what}: unknown fields {sorted(unknown)}")
    return value


def _parse_network(data) -> NetworkSpec:
    if data is None:
        raise ConfigError("missing required field 'network'")
    kind = _object(data, "network").get("kind")
    if not isinstance(kind, str) or kind not in _DELTA_FIELD:
        raise ConfigError(f"unknown network kind {kind!r}")
    _object(data, "network", ("kind", _DELTA_FIELD[kind], "schedule"))
    spec = NetworkSpec(kind, _req_int(data, _DELTA_FIELD[kind], minimum=1))
    schedule = data.get("schedule")
    if kind == "round_sync":
        if schedule is not None:
            raise ConfigError("round_sync delays are fixed at delta; no schedule allowed")
        return spec._replace(delays=(spec.delta,))
    return spec if schedule is None else _parse_schedule(spec, schedule)


def _parse_schedule(spec: NetworkSpec, schedule) -> NetworkSpec:
    mode = _object(schedule, "schedule").get("mode")
    if not isinstance(mode, str) or mode not in _SCHEDULE_FIELDS:
        raise ConfigError(f"unknown schedule mode {mode!r}")
    _object(schedule, "schedule", ("mode", *_SCHEDULE_FIELDS[mode]))
    if mode == "fixed":
        delays = [_req_int(schedule, "delay", minimum=1)]
    elif mode == "list":
        delays = schedule.get("delays")
        if not isinstance(delays, list) or not delays:
            raise ConfigError("schedule mode 'list' needs a non-empty 'delays' array")
        for d in delays:
            _int(d, "schedule delays", minimum=1)
    else:
        if spec.kind != "async":
            raise ConfigError("an increasing schedule is unbounded; async only")
        start = _int(schedule.get("start", 1), "start", minimum=1)
        step = _int(schedule.get("step", 1), "step", minimum=1)
        return spec._replace(delays=(start,), step=step)
    for d in delays:
        if d > spec.delta:
            raise ConfigError(f"delay {d} exceeds {_DELTA_FIELD[spec.kind]}={spec.delta}")
    return spec._replace(delays=tuple(delays))


def _parse_ops(items, n: int) -> tuple[Op, ...]:
    if not isinstance(items, list):
        raise ConfigError("ops must be an array")
    ops = []
    due = set()  # (process, time) of each op so far
    for i, item in enumerate(items):
        where = f"ops[{i}]"
        kind = _object(item, where).get("op")
        if kind not in ("write", "read"):
            raise ConfigError(f"{where}: op must be 'write' or 'read'")
        _object(item, where, _OP_FIELDS if kind == "read" else (*_OP_FIELDS, "value"))
        time = _req_int(item, "time", minimum=0)
        process = _pid(item, "process", n, where)
        if (process, time) in due:
            raise ConfigError(f"{where}: process {process} already has an op at time {time}")
        due.add((process, time))
        if kind == "read":
            ops.append(Op(process, "read", None, time))
            continue
        if process != 1:
            raise ConfigError(f"{where}: writes are issued by the designated writer (process 1)")
        value = item.get("value")
        if not isinstance(value, str) or value == "":
            raise ConfigError(f"{where}: write needs a non-empty string value")
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate, as JSON's "\ud800"
            raise ConfigError(f"{where}: value is not valid Unicode: {exc.reason}") from exc
        ops.append(Op(process, "write", data, time))
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
        item = _object(item, f"crashes[{i}]", ("process", *_TRIGGERS))
        process = _pid(item, "process", n, f"crashes[{i}]")
        if process in seen:
            raise ConfigError(f"crashes[{i}]: process {process} crashes twice")
        seen.add(process)
        triggers = [k for k in _TRIGGERS if k in item]
        if len(triggers) != 1:
            raise ConfigError(
                f"crashes[{i}]: exactly one of at/during_broadcast/during_forward"
            )
        if "at" in item:
            crashes.append(CrashSpec(process, at=_req_int(item, "at", minimum=0)))
        elif "during_broadcast" in item:
            spec = _object(
                item["during_broadcast"],
                f"crashes[{i}]: during_broadcast",
                ("op_index", "deliver_to", "crash_at"),
            )
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
                _int(crash_at, f"crashes[{i}]: crash_at", minimum=ops[op_index].time)
                if network.kind == "round_sync":
                    raise ConfigError(
                        f"crashes[{i}]: crash_at windows are not defined for round_sync"
                    )
            crashes.append(
                CrashSpec(None, at=crash_at, op_index=op_index, deliver_to=deliver_to)
            )
        else:
            if algorithm == "abd":
                raise ConfigError(f"crashes[{i}]: during_forward applies to teff only")
            spec = _object(
                item["during_forward"], f"crashes[{i}]: during_forward", ("wsn", "deliver_to")
            )
            wsn = _req_int(spec, "wsn", minimum=1)
            deliver_to = _parse_subset(spec.get("deliver_to"), n, f"crashes[{i}]")
            if process == WRITER:
                raise ConfigError(f"crashes[{i}]: the writer relays no write")
            # The writer numbers its writes as it invokes them: in time
            # order.
            writes = sorted((op for op in ops if op.kind == "write"), key=lambda op: op.time)
            if wsn > len(writes):
                raise ConfigError(f"crashes[{i}]: no write gets wsn {wsn} ({len(writes)} in ops)")
            relay = Write(wsn, writes[wsn - 1].value)
            crashes.append(CrashSpec(process, relay=relay, deliver_to=deliver_to))
    return tuple(crashes)


def _parse_subset(value, n: int, where: str) -> frozenset[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: deliver_to must be an array of process ids")
    out = set()
    for p in value:
        if not 1 <= _int(p, f"{where}: deliver_to entry") <= n:
            raise ConfigError(f"{where}: deliver_to entry {p} outside 1..{n}")
        out.add(p)
    return frozenset(out)
