"""Scenario files and trace serialization.

A scenario is a YAML document with top-level keys:

  agents:    mapping agent -> list of variables it controls
  formulas:  list of critical formulas (surface syntax strings)
  initial:   mapping variable -> boolean starting value
  queue:     ordered list of {agent, var, value} write requests
  config:    optional {max_actions_per_tick, policy, blocking_strategy,
             tie_break, seed}

Variable order is first appearance across the agent lists; formula order
defines the critical-formula indices. Traces serialize one tick per line as
canonical JSON (sorted keys, no spaces) so equal runs are byte-identical.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

import yaml

from . import blocking
from .engine import (
    ActionQueue,
    BlockForRandomInterval,
    BlockUntilTick,
    BlockingStrategy,
    DropTick,
    EngineConfig,
    TickRecord,
    _Buffer,
)
from .errors import (
    CoalGuardError,
    InsecureStartError,
    PreconditionError,
    ScenarioError,
    require,
)
from .formula import parse_formula
from .model import ActionRequest, Model, SystemState, validate_model

_TOP_KEYS = {"agents", "formulas", "initial", "queue", "config"}
_CONFIG_KEYS = {"max_actions_per_tick", "policy", "blocking_strategy", "tie_break", "seed"}
_CONFIG_FIELDS = {"seed": "random_seed"}  # the EngineConfig field of a key named otherwise
_QUEUE_KEYS = {"agent", "var", "value"}


@dataclass(frozen=True)
class Scenario:
    model: Model
    initial_state: SystemState
    queue: ActionQueue
    config: EngineConfig


def _require_mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def parse_strategy(value) -> BlockingStrategy:
    """Accepts "drop_tick", "silent_freeze" (a synonym of drop_tick),
    {block_until_tick: T}, or {block_for_random_interval: {low, high, seed?}}."""
    if value in ("drop_tick", "silent_freeze"):
        return DropTick()
    if isinstance(value, Mapping) and len(value) == 1:
        (name, body), = value.items()
        try:
            if name == "block_until_tick":
                return BlockUntilTick(body)
            if name == "block_for_random_interval":  # its signature refuses other keys
                return BlockForRandomInterval(**_require_mapping(body, name))
        except (PreconditionError, TypeError) as exc:
            raise ScenarioError(f"{name}: {exc}") from exc
    raise ScenarioError(f"unknown blocking_strategy: {value!r}")


def config_from_mapping(data: Optional[Mapping]) -> EngineConfig:
    if data is None:
        return EngineConfig()
    data = _require_mapping(data, "config")
    extra = set(data) - _CONFIG_KEYS
    if extra:
        raise ScenarioError(f"config: unknown keys {sorted(extra, key=str)}")
    kwargs = {_CONFIG_FIELDS.get(key, key): value for key, value in data.items()}
    if "blocking_strategy" in kwargs:
        kwargs["blocking_strategy"] = parse_strategy(kwargs["blocking_strategy"])
    try:  # EngineConfig checks each value, the seed among them
        return EngineConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"config: {exc}") from exc


def scenario_from_mapping(data: Mapping, allow_insecure_start: bool = False) -> Scenario:
    data = _require_mapping(data, "scenario")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ScenarioError(f"unknown top-level keys {sorted(extra, key=str)}")
    missing = {"agents", "formulas", "initial", "queue"} - set(data)
    if missing:
        raise ScenarioError(f"missing top-level keys {sorted(missing)}")

    agents_map = _require_mapping(data["agents"], "agents")
    partition = {}
    for agent, owned in agents_map.items():
        owned = [] if owned is None else owned
        if not isinstance(owned, list) or not all(isinstance(v, str) for v in owned):
            raise ScenarioError(f"agents[{agent}] must be a list of variable names")
        partition[agent] = tuple(owned)
    variables = tuple(dict.fromkeys(v for owned in partition.values() for v in owned))

    raw_formulas = data["formulas"]
    if not isinstance(raw_formulas, list):
        raise ScenarioError("formulas must be a list of strings")
    formulas = []
    for index, text in enumerate(raw_formulas):
        try:  # parse_formula refuses text that is not a str
            formulas.append(parse_formula(text))
        except CoalGuardError as exc:
            raise ScenarioError(f"formulas[{index}]: {exc}") from exc

    try:
        model = Model(tuple(partition), variables, partition, formulas)
    except CoalGuardError as exc:
        raise ScenarioError(f"invalid model: {exc}") from exc
    violations = validate_model(model)
    if violations:
        findings = "; ".join(f"{v.kind}({v.subject})" for v in violations)
        raise ScenarioError(f"invalid model: {findings}")

    initial = _require_mapping(data["initial"], "initial")
    unknown = set(initial) - set(variables)
    if unknown:
        raise ScenarioError(f"initial valuation has unknown variables {sorted(unknown, key=str)}")
    absent = set(variables) - set(initial)
    if absent:
        raise ScenarioError(f"initial valuation missing variables {sorted(absent)}")
    wrong = [v for v in variables if type(initial[v]) is not bool]  # SystemState allows 0 and 1
    if wrong:
        raise ScenarioError(f"initial[{wrong[0]}] must be a bool, not {initial[wrong[0]]!r}")
    state = SystemState(0, {v: initial[v] for v in variables})

    evaluators = model.compiled.evaluators
    satisfied = [i for i, evaluate in enumerate(evaluators) if evaluate(state.valuation, True)]
    if satisfied and not allow_insecure_start:
        raise InsecureStartError(f"initial state satisfies critical formula(s) {satisfied}")

    raw_queue = [] if data["queue"] is None else data["queue"]
    if not isinstance(raw_queue, list):
        raise ScenarioError("queue must be a list of requests")
    requests, owner, checked = _Buffer(), model._owner, True
    for index, item in enumerate(raw_queue):  # checked inline: a queue holds thousands
        if type(item) is not dict and not isinstance(item, Mapping) or item.keys() != _QUEUE_KEYS:
            raise ScenarioError(f"queue[{index}] must map exactly agent, var and value: {item!r}")
        agent, variable, value = item["agent"], item["var"], item["value"]
        checked = checked and (type(value) is bool and type(agent) is type(variable) is str
                               and owner.get(variable) == agent)  # so check_request would pass
        requests.append(ActionRequest(agent, variable, value, index))
    requests.model = model if checked else None  # else, every shape fault ruled out first,
    try:  # the queue checks each request and names the first faulty one's index
        queue = ActionQueue(model, requests, 0, len(requests))
    except CoalGuardError as exc:
        raise ScenarioError(str(exc)) from exc

    return Scenario(model, state, queue, config_from_mapping(data.get("config")))


def load_scenario(path: Union[str, Path], allow_insecure_start: bool = False) -> Scenario:
    require(path, (str, os.PathLike), "a scenario path")
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    if data is None:
        raise ScenarioError(f"scenario file {path} is empty")
    return scenario_from_mapping(data, allow_insecure_start)


def override_config(
    config: EngineConfig, policy: Optional[str] = None, seed: Optional[int] = None
) -> EngineConfig:
    """Command-line overrides applied on top of the file's config."""
    changes = {k: v for k, v in (("policy", policy), ("random_seed", seed)) if v is not None}
    return replace(config, **changes) if changes else config


# ---------------------------------------------------------------------------
# trace serialization


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_name = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses
_count_json = functools.lru_cache(maxsize=1024)(lambda n: '{"false_count":%d,"subset":' % (n,))


def _leaf(value) -> str:
    """true/false only for the bools themselves, so an int 1 still prints 1."""
    if value is True or value is False:
        return "true" if value else "false"
    return "%d" % value if type(value) is int else _canonical(value)


def _list(items, write=_name) -> str:
    return "[" + ",".join(map(write, items)) + "]"


@functools.lru_cache(maxsize=4096)
def _subset_json(keep: tuple[str, ...]) -> str:
    """An oracle keep-set's names as a JSON list, kept for later ticks: 4,096
    entries, about 2 MB for names of 10 characters. A record whose rounds list
    more keep-sets writes its own texts, which it would evict before any reuse."""
    return _list(keep)


def _request_json(r: ActionRequest) -> str:
    arrival, value = r.arrival_index, r.new_value
    return '{"agent":%s,"arrival":%s,"value":%s,"var":%s}' % (
        _name(r.agent), "%d" % arrival if type(arrival) is int else _leaf(arrival),
        "true" if value is True else "false" if value is False else _leaf(value),
        _name(r.variable),
    )


@functools.lru_cache(maxsize=64)
def _valuation_texts(keys: tuple) -> tuple[tuple[object, str, str], ...]:
    """Each key, sorted, with its '"key":true' and '"key":false' texts; keys
    that do not sort or are not str raise TypeError. 64 key sets are kept."""
    return tuple((k, _name(k) + ":true", _name(k) + ":false") for k in sorted(keys))


@functools.lru_cache(maxsize=64)
def _mark_tokens(width: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A blank row of ``width`` >= 1 marks as tokens, each with its true form;
    64 widths are kept, about 1 MB of pointers at 1,000 columns each."""
    blank = ["[false"] + [",false"] * (width - 1)
    blank[-1] += "],"
    return tuple(blank), tuple(token.replace("false", "true") for token in blank)


def _marks_json(matrix: blocking.BlockingMatrix) -> str:
    """The marks rows from one flat token list joined once: the blank row
    repeated per row, a cell swapped to true for each of the row's agents,
    and the last row's trailing comma trimmed."""
    rows, width = matrix.row_agents, len(matrix.agents)
    column = dict(zip(matrix.agents, range(width)))
    if not rows or not width or len(column) < width:  # no cell, or an agent in two columns
        return ",".join(["[" + ",".join(map(_leaf, row)) + "]" for row in matrix.marks])
    blank, marked = _mark_tokens(width)
    cells = list(blank) * len(rows)
    for start, row in zip(range(0, len(cells), width), rows):
        for agent in row:
            if (position := column.get(agent)) is not None:
                cells[start + position] = marked[position]
    cells[-1] = cells[-1][:-1]
    return "".join(cells)


def _iteration_json(item, subset) -> str:
    if isinstance(item, blocking.GreedyIteration):
        m = item.matrix
        agents, formulas = _list(m.agents), _list(m.formula_indices, str)
        # greedy's own rounds share these tuples with their matrix
        became = formulas if item.became_true is m.formula_indices else _list(item.became_true, str)
        implicated = agents if item.implicated is m.agents else _list(item.implicated)
        return (
            '{"became_true":%s,"blocked":%s,"implicated":%s,"kind":"greedy","matrix":'
            '{"agents":%s,"counters":%s,"formulas":%s,"marks":[%s]},"ranking":%s}'
        ) % (
            became, _name(item.blocked_agent), implicated, agents, _list(m.counters, str),
            formulas, _marks_json(m), _list(item.ranking),
        )
    if isinstance(item, blocking.OracleRound):
        return (
            '{"candidates":[%s],"cardinality":%d,"frontier":%s,"kind":"oracle",'
            '"representative":%s,"success":%s}'
        ) % (
            ",".join([_count_json(n) + subset(keep) + "}" for keep, n in item.evaluated]),
            item.cardinality, _list(item.frontier, subset), subset(item.representative),
            _leaf(item.success),
        )
    raise PreconditionError(f"unknown iteration snapshot {type(item).__name__}")


def trace_line(record: TickRecord) -> str:
    """One tick as canonical JSON: the bytes ``json.dumps`` prints with
    ``sort_keys=True, separators=(",", ":")`` for the record as nested dicts,
    written directly with each key a literal in sorted order, the valuation's
    key texts kept per key tuple and executed requests reusing the batch's
    texts. A record whose fields are not of their kinds raises PreconditionError."""
    if not isinstance(record, TickRecord):
        raise PreconditionError(f"a trace line is written from a TickRecord, not {record!r}")
    try:
        requests = [_request_json(r) for r in record.batch]
        batch = ",".join(requests)
        if record.executed is record.batch:
            executed = batch
        else:
            by_id = dict(zip(map(id, record.batch), requests))
            executed = ",".join([by_id.get(id(r)) or _request_json(r) for r in record.executed])
        rounds = record.iterations  # the memo serves them only if all their keep-sets fit
        listed = sum(len(i.evaluated) for i in rounds if isinstance(i, blocking.OracleRound))
        subset = _subset_json if listed <= _subset_json.cache_info().maxsize else _list
        values = record.valuation
        try:
            valuation = ",".join([
                true if (v := values[k]) is True else false if v is False else true[:-4] + _leaf(v)
                for k, true, false in _valuation_texts(tuple(values))
            ])
        except TypeError:  # a key that is not a str: only json.dumps writes it as it does
            valuation = _canonical(dict(values))[1:-1]
        return (
            '{"batch":[%s],"blocked":%s,"executed":[%s],"iterations":[%s],'
            '"secure":%s,"tick":%s,"valuation":{%s}}'
        ) % (
            batch, _list(record.blocked), executed,
            ",".join([_iteration_json(item, subset) for item in rounds]), _leaf(record.secure),
            _leaf(record.tick), valuation,
        )
    except (AttributeError, TypeError) as exc:
        raise PreconditionError(f"malformed tick record: {exc}") from None


def trace_text(records: Sequence[TickRecord]) -> str:
    require(records, Iterable, "trace records")
    return "".join(trace_line(record) + "\n" for record in records)


def write_trace(records: Sequence[TickRecord], path: Union[str, Path]) -> None:
    """Write the trace line by line to a new file beside ``path``, which
    replaces it once every line is written: a record that fails leaves an
    existing file as it was. A pipe or a device, such as ``/dev/null``, is
    written in place. Only a ``str`` or ``os.PathLike`` names a file: ``open``
    would take an int, or a bool, as a descriptor to write to and close."""
    if not isinstance(path, (str, os.PathLike)):
        raise PreconditionError(f"a trace path is a str or os.PathLike, not {path!r}")
    require(records, Iterable, "trace records")
    in_place = os.path.exists(path) and not os.path.isfile(path)
    part = path if in_place else f"{os.fsdecode(path)}.{os.urandom(4).hex()}.part"
    try:
        with open(part, "w" if in_place else "x", encoding="utf-8") as handle:
            for record in records:
                handle.write(trace_line(record) + "\n")
        if not in_place:
            os.replace(part, path)
    except BaseException:
        if not in_place and os.path.isfile(part):
            os.remove(part)
        raise
