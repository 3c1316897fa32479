"""Agents, variable ownership, system states, and the security predicate.

A model fixes a finite set of agents, a finite set of boolean variables,
and a partition assigning every variable to exactly one controlling agent.
Critical formulas describe situations that must never become true: a state
is secure exactly when all of them evaluate false. A request writes one
variable; a batch of them is checked, applied or simulated against a state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    OwnershipViolationError,
    PreconditionError,
    QueueOrderError,
    UnknownAgentError,
    UnknownVariableError,
    require,
)
from .formula import (
    Evaluator,
    Formula,
    _compile,
    _scope,
    check_names,
    coalition_names,
    first_witness,
    unassigned,
)


@dataclass(frozen=True)
class Model:
    agents: tuple[str, ...]
    variables: tuple[str, ...]
    partition: Mapping[str, tuple[str, ...]]
    critical_formulas: tuple[Formula, ...] = ()
    _owner: dict = field(init=False, repr=False, compare=False)
    variable_set: frozenset[str] = field(init=False, repr=False, compare=False)
    agent_set: frozenset[str] = field(init=False, repr=False, compare=False)
    compiled: CompiledModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Enforce the partition: every declared variable is listed exactly
        once, by a declared agent, and no agent or variable name repeats.
        Then check that the critical formulas name only declared variables
        and agents, raising what eval_formula would for the first that does
        not, in index order, and compile them once."""
        try:
            agents, variables = tuple(self.agents), tuple(self.variables)
            normalized = {agent: tuple(owned) for agent, owned in self.partition.items()}
            formulas = tuple(self.critical_formulas)
        except (AttributeError, TypeError) as exc:
            raise PreconditionError(
                "agents, variables and critical_formulas must be iterable and the "
                f"partition a mapping of agents to iterables: {exc}"
            ) from None
        for kind, names in (("agent", agents), ("variable", variables)):
            if not all(isinstance(name, str) for name in names):
                raise PreconditionError(f"{kind} names must be strings: {names!r}")
            if len(set(names)) < len(names):
                repeated = next(name for i, name in enumerate(names) if name in names[:i])
                raise PreconditionError(f"{kind} {repeated!r} is declared twice")
        agent_set, variable_set = frozenset(agents), frozenset(variables)
        owner = {}
        for agent, owned in normalized.items():
            if agent not in agent_set:
                raise UnknownAgentError(f"partition names undeclared agent {agent!r}")
            for variable in owned:
                if not isinstance(variable, str) or variable not in variable_set:
                    raise UnknownVariableError(f"{agent!r} claims undeclared variable {variable!r}")
                if variable in owner:
                    raise OwnershipViolationError(
                        f"{variable!r} is doubly-owned, by {owner[variable]!r} and {agent!r}"
                    )
                owner[variable] = agent
        for variable in variables:
            if variable not in owner:
                raise UnknownVariableError(f"no agent controls {variable!r}")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "partition", normalized)
        object.__setattr__(self, "critical_formulas", formulas)
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "variable_set", variable_set)
        object.__setattr__(self, "agent_set", agent_set)
        facts = []
        for f in formulas:
            if not isinstance(f, Formula):
                raise PreconditionError(f"critical formulas must be formulas, got {f!r}")
            facts.append(check_names(f, self))
        object.__setattr__(self, "compiled", compile_model(self, facts))

    def owner_of(self, variable: str) -> str:
        try:
            return self._owner[variable]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownVariableError(f"no agent controls {variable!r}") from None

    def owned(self, agent: str) -> tuple[str, ...]:
        if agent not in self.agent_set:
            raise UnknownAgentError(f"unknown agent: {agent!r}")
        return self.partition.get(agent, ())


# ---------------------------------------------------------------------------
# compiled formulas


class CompiledModel(NamedTuple):
    """The critical formulas compiled once, shared by engine, blocking and analysis.

    Position i of evaluators (compile_formula's closures), variables,
    coalitions and agents belongs to critical formula i; its agents are
    those whose owned set meets its variables.
    by_variable maps a variable to the ascending indices of the formulas
    mentioning it.
    """

    evaluators: tuple[Evaluator, ...]
    variables: tuple[frozenset[str], ...]
    coalitions: tuple[frozenset[frozenset[str]], ...]
    agents: tuple[frozenset[str], ...]
    by_variable: Mapping[str, tuple[int, ...]]


def compile_model(model: Model, facts: Sequence[tuple]) -> CompiledModel:
    """The compiled form, given check_names' variables and coalitions of
    each formula; Model construction builds it once, as model.compiled."""
    evaluators = tuple(_compile(f, model, set()) for f in model.critical_formulas)
    variables = tuple(used for used, _ in facts)
    coalitions = tuple(found for _, found in facts)
    agents = tuple(frozenset(map(model.owner_of, used)) for used in variables)
    by_variable: dict[str, tuple[int, ...]] = {}
    for index, used in enumerate(variables):
        for variable in used:
            by_variable[variable] = by_variable.get(variable, ()) + (index,)
    return CompiledModel(evaluators, variables, coalitions, agents, by_variable)


@dataclass(frozen=True)
class SystemState:
    """A clock value plus a total valuation of the model's variables, each
    value a bool or the int 0 or 1, as the compiled formulas require."""

    tick: int
    valuation: Mapping[str, bool]

    def __post_init__(self):
        require(self.tick, int, "tick")
        try:
            object.__setattr__(self, "valuation", dict(self.valuation))
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"valuation must be a mapping: {exc}") from None
        for value in self.valuation.values():
            if value is not True and value is not False and (type(value) is not int or value >> 1):
                raise PreconditionError(f"a value must be a bool or the int 0 or 1, not {value!r}")

    def value(self, variable: str) -> bool:
        try:
            return self.valuation[variable]
        except KeyError:
            raise unassigned(variable) from None

    def with_updates(self, changes: Mapping[str, bool], tick: Optional[int] = None) -> "SystemState":
        """The state with ``changes`` applied. Only the tick and the changes
        are checked, as a state of their own: this state's values were."""
        update = SystemState(self.tick if tick is None else tick, changes)
        object.__setattr__(update, "valuation", {**self.valuation, **update.valuation})
        return update


@dataclass(frozen=True)
class PartialValuation:
    """An assignment to some of a coalition's variables, used as a witness."""

    coalition: frozenset[str]
    assignment: Mapping[str, bool]

    def __post_init__(self):
        try:
            object.__setattr__(self, "coalition", frozenset(self.coalition))
            object.__setattr__(self, "assignment", dict(self.assignment))
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed partial valuation: {exc}") from None


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str


def validate_model(model: Model) -> tuple[Violation, ...]:
    """Check that the sets are nonempty and the critical formulas well-formed;
    an empty tuple means the model is valid.

    Model construction already enforces the partition and the formulas'
    names. Here each critical formula must mention variables of at least two
    distinct agents.
    """
    require(model, Model, "model")
    violations: list[Violation] = []

    if not model.agents:
        violations.append(Violation("empty-agent-set", "", "model declares no agents"))
    if not model.variables:
        violations.append(Violation("empty-variable-set", "", "model declares no variables"))

    for index, agents in enumerate(model.compiled.agents):
        if len(agents) < 2:
            subject = f"formula {index}"
            message = f"{subject} is controlled by fewer than two agents"
            violations.append(Violation("single-agent-formula", subject, message))

    return tuple(violations)


def is_secure(model: Model, state: SystemState) -> bool:
    """True when every critical formula evaluates false at the state."""
    require(model, Model, "model")
    require(state, SystemState, "state")
    try:
        for evaluate in model.compiled.evaluators:
            if evaluate(state.valuation, True):
                return False
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None
    return True


def diamond_holds(
    model: Model, state: SystemState, coalition: Iterable[str], f: Formula
) -> tuple[bool, Optional[PartialValuation]]:
    """Can the coalition make f true by setting only its own variables?

    Returns (verdict, witness). The witness assigns the coalition's
    variables that occur in f; applying it to the state makes f true.
    Enumeration is exhaustive over those variables and capped at 20.
    """
    require(state, SystemState, "state")
    used, _ = check_names(f, model, "ability checks take a propositional formula")
    members = coalition_names(coalition)
    missing = members - model.agent_set
    if missing:
        raise UnknownAgentError(f"unknown agents: {sorted(missing, key=repr)}")
    relevant = _scope(model, members, used)
    try:
        assignment = first_witness(_compile(f, model, set()), state.valuation, relevant)
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None
    if assignment is None:
        return False, None
    return True, PartialValuation(members, assignment)


# ---------------------------------------------------------------------------
# requests, batches and their simulation


@dataclass(frozen=True, slots=True)
class ActionRequest:
    """One single-variable write. Slotted: a queue holds tens of thousands."""

    agent: str
    variable: str
    new_value: bool
    arrival_index: int


def check_request(model: Model, request: ActionRequest, last: Optional[ActionRequest]) -> None:
    """What enqueueing checks: the requester owns the variable, the value is a
    bool, and the arrival index is an int after the last pending one's, if any."""
    owner = model.owner_of(request.variable)
    if owner != request.agent:
        raise OwnershipViolationError(
            f"{request.agent!r} does not control {request.variable!r} (owned by {owner!r})")
    if not isinstance(request.new_value, bool):
        raise PreconditionError(f"new value must be a bool, not {request.new_value!r}")
    if type(request.arrival_index) is not int:  # a bool is no arrival index
        raise QueueOrderError(f"arrival index must be an int, not {request.arrival_index!r}")
    if last is not None and request.arrival_index <= last.arrival_index:
        index, after = request.arrival_index, last.arrival_index
        raise QueueOrderError(f"arrival index {index} not after {after}")


class CheckedBatch(tuple):
    """A batch an ActionQueue took from its requests, checked against ``model``."""


def check_batch(model: Model, batch: Iterable[ActionRequest]) -> tuple[ActionRequest, ...]:
    """The batch as a tuple of ActionRequests whose agents own their variables;
    a request that is not owned raises what check_request, and enqueueing, would.
    A CheckedBatch taken for this very model is returned as it is."""
    if type(batch) is CheckedBatch and batch.model is model:
        return batch
    require(model, Model, "model")
    try:
        batch = tuple(batch)
    except TypeError:
        raise PreconditionError(f"a batch holds ActionRequests, not {batch!r}") from None
    for request in batch:
        if not isinstance(request, ActionRequest):
            raise PreconditionError(f"a batch holds ActionRequests, not {request!r}")
        if model.owner_of(request.variable) != request.agent:
            check_request(model, request, None)
    return batch


def apply_actions(state: SystemState, batch: Sequence[ActionRequest]) -> SystemState:
    """Apply a batch in arrival order (later writes win) and advance the clock."""
    require(state, SystemState, "state")
    try:
        changes = {request.variable: request.new_value for request in batch}
    except (AttributeError, TypeError):
        raise PreconditionError(f"a batch holds ActionRequests, not {batch!r}") from None
    return state.with_updates(changes, tick=state.tick + 1)


@dataclass(frozen=True)
class SimulationReport:
    """What a batch would do, without committing it.

    became_true holds indices into the model's critical formulas that flip
    from false to true; implicated_agents are the requesters controlling at
    least one variable of such a formula, in model agent order.
    """

    became_true: tuple[int, ...]
    implicated_agents: tuple[str, ...]
    simulated_state: SystemState


def simulate(model: Model, state: SystemState, batch: Sequence[ActionRequest]) -> SimulationReport:
    """Only formulas mentioning a variable the batch changes can flip, so
    only those are evaluated."""
    require(model, Model, "model")
    after = apply_actions(state, batch)
    compiled = model.compiled
    before, now = state.valuation, after.valuation
    touched = set()
    evaluators = compiled.evaluators
    try:
        for request in batch:
            if before[request.variable] != now[request.variable]:
                touched.update(compiled.by_variable.get(request.variable, ()))
        became = tuple(
            index
            for index in sorted(touched)
            if not evaluators[index](before, True) and evaluators[index](now, True)
        )
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None
    if not became:  # nothing flips, so no requester is implicated
        return SimulationReport((), (), after)
    implicated = set().union(*(compiled.agents[index] for index in became))
    implicated.intersection_update(request.agent for request in batch)
    return SimulationReport(became, tuple(a for a in model.agents if a in implicated), after)
