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

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import yaml

from . import blocking
from .engine import (
    ActionQueue,
    ActionRequest,
    BlockForRandomInterval,
    BlockUntilTick,
    BlockingStrategy,
    DropTick,
    EngineConfig,
    TickRecord,
)
from .errors import (
    BudgetExceededError,
    CoalGuardError,
    FormulaSyntaxError,
    InsecureStartError,
    ScenarioError,
)
from .formula import parse_formula
from .model import Model, SystemState, validate_model

_TOP_KEYS = {"agents", "formulas", "initial", "queue", "config"}
_CONFIG_KEYS = {"max_actions_per_tick", "policy", "blocking_strategy", "tie_break", "seed"}
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


_KIND_NAMES = {bool: "a boolean", int: "an integer"}


def _require(value, kind: type, what: str):
    """The value, if it has the kind; a boolean is not an integer here."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def parse_strategy(value) -> BlockingStrategy:
    """Accepts "drop_tick", "silent_freeze" (a synonym of drop_tick),
    {block_until_tick: T}, or {block_for_random_interval: {low, high, seed?}}."""
    if value in ("drop_tick", "silent_freeze"):
        return DropTick()
    if isinstance(value, Mapping) and len(value) == 1:
        (name, body), = value.items()
        if name == "block_until_tick":
            return BlockUntilTick(_require(body, int, "block_until_tick"))
        if name == "block_for_random_interval":
            body = _require_mapping(body, "block_for_random_interval")
            extra = set(body) - {"low", "high", "seed"}
            if extra:
                raise ScenarioError(
                    f"block_for_random_interval: unknown keys {sorted(extra, key=str)}"
                )
            low = _require(body.get("low"), int, "block_for_random_interval.low")
            high = _require(body.get("high"), int, "block_for_random_interval.high")
            seed = body.get("seed")
            if seed is not None:
                _require(seed, int, "block_for_random_interval.seed")
            try:
                return BlockForRandomInterval(low, high, seed)
            except ValueError as exc:
                raise ScenarioError(f"block_for_random_interval: {exc}") from exc
    raise ScenarioError(f"unknown blocking_strategy: {value!r}")


def config_from_mapping(data: Optional[Mapping]) -> EngineConfig:
    if data is None:
        return EngineConfig()
    data = _require_mapping(data, "config")
    extra = set(data) - _CONFIG_KEYS
    if extra:
        raise ScenarioError(f"config: unknown keys {sorted(extra, key=str)}")
    kwargs = {}
    if "max_actions_per_tick" in data:
        kwargs["max_actions_per_tick"] = data["max_actions_per_tick"]
    if "policy" in data:
        kwargs["policy"] = data["policy"]
    if "blocking_strategy" in data:
        kwargs["blocking_strategy"] = parse_strategy(data["blocking_strategy"])
    if "tie_break" in data:
        kwargs["tie_break"] = data["tie_break"]
    if "seed" in data:
        kwargs["random_seed"] = _require(data["seed"], int, "config: seed")
    try:
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
    if not agents_map:
        raise ScenarioError("agents mapping is empty")
    agents = []
    variables = []
    partition = {}
    for agent, owned in agents_map.items():
        if owned is None:
            owned = []
        if not isinstance(owned, list) or not all(isinstance(v, str) for v in owned):
            raise ScenarioError(f"agents[{agent}] must be a list of variable names")
        agents.append(agent)
        partition[agent] = tuple(owned)
        for v in owned:
            if v not in variables:
                variables.append(v)

    raw_formulas = data["formulas"]
    if not isinstance(raw_formulas, list) or not all(isinstance(f, str) for f in raw_formulas):
        raise ScenarioError("formulas must be a list of strings")
    formulas = []
    for index, text in enumerate(raw_formulas):
        try:
            formulas.append(parse_formula(text))
        except (FormulaSyntaxError, BudgetExceededError) as exc:
            raise ScenarioError(f"formulas[{index}]: {exc}") from exc

    try:
        model = Model(tuple(agents), tuple(variables), partition, tuple(formulas))
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
    valuation = {v: _require(initial[v], bool, f"initial[{v}]") for v in variables}
    state = SystemState(0, valuation)

    satisfied = [i for i, evaluate in enumerate(model.compiled.evaluators) if evaluate(valuation)]
    if satisfied and not allow_insecure_start:
        raise InsecureStartError(
            f"initial state satisfies critical formula(s) {satisfied}"
        )

    raw_queue = data["queue"]
    if raw_queue is None:
        raw_queue = []
    if not isinstance(raw_queue, list):
        raise ScenarioError("queue must be a list of requests")
    requests: list[ActionRequest] = []
    for index, item in enumerate(raw_queue):
        item = _require_mapping(item, f"queue[{index}]")
        extra = set(item) - _QUEUE_KEYS
        if extra:
            raise ScenarioError(f"queue[{index}]: unknown keys {sorted(extra, key=str)}")
        missing = _QUEUE_KEYS - set(item)
        if missing:
            raise ScenarioError(f"queue[{index}]: missing keys {sorted(missing)}")
        value = _require(item["value"], bool, f"queue[{index}].value")
        agent, variable = item["agent"], item["var"]
        if not isinstance(agent, str) or not isinstance(variable, str):
            raise ScenarioError(f"queue[{index}]: agent and var must be strings")
        requests.append(ActionRequest(agent, variable, value, index))
    try:
        queue = ActionQueue(model, requests)
    except CoalGuardError as exc:
        raise ScenarioError(str(exc)) from exc

    return Scenario(model, state, queue, config_from_mapping(data.get("config")))


def load_scenario(path: Union[str, Path], allow_insecure_start: bool = False) -> Scenario:
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
    changes = {}
    if policy is not None:
        changes["policy"] = policy
    if seed is not None:
        changes["random_seed"] = seed
    return replace(config, **changes) if changes else config


# ---------------------------------------------------------------------------
# trace serialization


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_name = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses
_MARK = {True: "true", False: "false"}


def _leaf(value) -> str:
    """true/false only for the bools themselves, so an int 1 still prints 1."""
    if value is True or value is False:
        return _MARK[value]
    return "%d" % value if type(value) is int else _canonical(value)


def _list(items, write=_name) -> str:
    return "[" + ",".join(map(write, items)) + "]"


def _request_json(r: ActionRequest) -> str:
    return '{"agent":%s,"arrival":%s,"value":%s,"var":%s}' % (
        _name(r.agent), _leaf(r.arrival_index), _leaf(r.new_value), _name(r.variable)
    )


def _marks_json(matrix: blocking.BlockingMatrix) -> str:
    """The marks rows, each set from its row's agents without a bool tuple."""
    column = {agent: position for position, agent in enumerate(matrix.agents)}
    blank = ["false"] * len(column)
    rows = []
    for row in matrix.row_agents:
        cells = blank.copy()
        for agent in column.keys() & row:
            cells[column[agent]] = "true"
        rows.append("[" + ",".join(cells) + "]")
    return ",".join(rows)


def _iteration_json(item) -> str:
    if isinstance(item, blocking.GreedyIteration):
        m = item.matrix
        return (
            '{"became_true":%s,"blocked":%s,"implicated":%s,"kind":"greedy","matrix":'
            '{"agents":%s,"counters":%s,"formulas":%s,"marks":[%s]},"ranking":%s}'
        ) % (
            _list(item.became_true, str), _name(item.blocked_agent), _list(item.implicated),
            _list(m.agents), _list(m.counters, str), _list(m.formula_indices, str),
            _marks_json(m), _list(item.ranking),
        )
    if isinstance(item, blocking.OracleRound):
        return (
            '{"candidates":[%s],"cardinality":%d,"frontier":%s,"kind":"oracle",'
            '"representative":%s,"success":%s}'
        ) % (
            ",".join(['{"false_count":%d,"subset":%s}' % (n, _list(keep))
                      for keep, n in item.evaluated]),
            item.cardinality, _list(item.frontier, _list), _list(item.representative),
            _leaf(item.success),
        )
    raise TypeError(f"unknown iteration snapshot {type(item).__name__}")


def trace_line(record: TickRecord) -> str:
    """One tick as canonical JSON: the bytes ``json.dumps`` prints with
    ``sort_keys=True, separators=(",", ":")`` for the record as nested
    dicts, written directly with each key a literal in sorted order; an
    executed request reuses its text from the batch."""
    requests = [_request_json(r) for r in record.batch]
    by_id = dict(zip(map(id, record.batch), requests))
    values = record.valuation
    try:
        valuation = ",".join([
            _name(k)
            + (":true" if (v := values[k]) is True else ":false" if v is False else ":" + _leaf(v))
            for k in sorted(values)
        ])
    except TypeError:  # a key that is not a str: only json.dumps writes it as it does
        valuation = _canonical(dict(values))[1:-1]
    return (
        '{"batch":[%s],"blocked":%s,"executed":[%s],"iterations":[%s],'
        '"secure":%s,"tick":%s,"valuation":{%s}}'
    ) % (
        ",".join(requests), _list(record.blocked),
        ",".join([by_id.get(id(r)) or _request_json(r) for r in record.executed]),
        ",".join(map(_iteration_json, record.iterations)), _leaf(record.secure),
        _leaf(record.tick), valuation,
    )


def trace_text(records: Sequence[TickRecord]) -> str:
    return "".join(trace_line(record) + "\n" for record in records)


def write_trace(records: Sequence[TickRecord], path: Union[str, Path]) -> None:
    """Write the trace line by line, never holding the whole text."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(trace_line(record) + "\n")
