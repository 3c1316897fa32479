"""Agents, variable ownership, system states, and the security predicate.

A model fixes a finite set of agents, a finite set of boolean variables,
and a partition assigning every variable to exactly one controlling agent.
Critical formulas describe situations that must never become true: a state
is secure exactly when all of them evaluate false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import (
    ModalFormulaError,
    OwnershipViolationError,
    PreconditionError,
    UnknownAgentError,
    UnknownVariableError,
)
from .formula import (
    Evaluator,
    Formula,
    check_names,
    compile_formula,
    first_witness,
    has_diamond,
    unassigned,
    vars_of,
)


@dataclass(frozen=True)
class Model:
    agents: tuple[str, ...]
    variables: tuple[str, ...]
    partition: Mapping[str, tuple[str, ...]]
    critical_formulas: tuple[Formula, ...] = ()
    _owner: dict = field(init=False, repr=False, compare=False)
    _variable_set: frozenset = field(init=False, repr=False, compare=False)
    _agent_set: frozenset = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_variable_set", variable_set)
        object.__setattr__(self, "_agent_set", agent_set)
        for f in formulas:
            if not isinstance(f, Formula):
                raise PreconditionError(f"critical formulas must be formulas, got {f!r}")
            check_names(f, self)
        object.__setattr__(self, "compiled", compile_model(self))

    @property
    def variable_set(self) -> frozenset[str]:
        return self._variable_set

    @property
    def agent_set(self) -> frozenset[str]:
        return self._agent_set

    def owner_of(self, variable: str) -> str:
        try:
            return self._owner[variable]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownVariableError(f"no agent controls {variable!r}") from None

    def owned(self, agent: str) -> tuple[str, ...]:
        if agent not in self._agent_set:
            raise UnknownAgentError(f"unknown agent: {agent!r}")
        return self.partition.get(agent, ())

    def coalition_variables(self, coalition: Iterable[str]) -> tuple[str, ...]:
        """Variables the coalition controls, in model variable order."""
        members = set(coalition)
        missing = members - self._agent_set
        if missing:
            raise UnknownAgentError(f"unknown agents: {sorted(missing)}")
        return tuple(v for v in self.variables if self._owner[v] in members)


# ---------------------------------------------------------------------------
# compiled formulas


class CompiledModel(NamedTuple):
    """The critical formulas compiled once, shared by engine, blocking and analysis.

    Position i of evaluators, variables and agents belongs to critical
    formula i; its agents are those whose owned set meets its variables.
    by_variable maps a variable to the ascending indices of the formulas
    mentioning it.
    """

    evaluators: tuple[Evaluator, ...]
    variables: tuple[frozenset[str], ...]
    agents: tuple[frozenset[str], ...]
    by_variable: Mapping[str, tuple[int, ...]]


def compile_model(model: Model) -> CompiledModel:
    """Build the compiled form; Model construction builds it once, as model.compiled."""
    formulas = model.critical_formulas
    variables = tuple(vars_of(f) for f in formulas)
    evaluators = tuple(compile_formula(f, model) for f in formulas)
    agents = tuple(frozenset(map(model.owner_of, used)) for used in variables)
    by_variable: dict[str, tuple[int, ...]] = {}
    for index, used in enumerate(variables):
        for variable in used:
            by_variable[variable] = by_variable.get(variable, ()) + (index,)
    return CompiledModel(evaluators, variables, agents, by_variable)


@dataclass(frozen=True)
class SystemState:
    """A clock value plus a total valuation of the model's variables."""

    tick: int
    valuation: Mapping[str, bool]

    def __post_init__(self):
        if type(self.tick) is not int:  # a bool is no tick
            raise PreconditionError(f"tick must be an int, not {self.tick!r}")
        try:
            object.__setattr__(self, "valuation", dict(self.valuation))
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"valuation must be a mapping: {exc}") from None

    def value(self, variable: str) -> bool:
        try:
            return self.valuation[variable]
        except KeyError:
            raise unassigned(variable) from None

    def with_updates(self, changes: Mapping[str, bool], tick: Optional[int] = None) -> "SystemState":
        valuation = dict(self.valuation)
        valuation.update(changes)
        return SystemState(self.tick if tick is None else tick, valuation)


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


def check_state(state: SystemState) -> None:
    """Raise PreconditionError for a state that is not a SystemState."""
    if not isinstance(state, SystemState):
        raise PreconditionError(f"state must be a SystemState, not {state!r}")


def is_secure(model: Model, state: SystemState) -> bool:
    """True when every critical formula evaluates false at the state."""
    check_state(state)
    valuation = state.valuation
    try:
        return not any(evaluate(valuation) for evaluate in model.compiled.evaluators)
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None


def diamond_holds(
    model: Model, state: SystemState, coalition: Iterable[str], f: Formula
) -> tuple[bool, Optional[PartialValuation]]:
    """Can the coalition make f true by setting only its own variables?

    Returns (verdict, witness). The witness assigns the coalition's
    variables that occur in f; applying it to the state makes f true.
    Enumeration is exhaustive over those variables and capped at 20.
    """
    check_state(state)
    if has_diamond(f):
        raise ModalFormulaError("ability checks take a propositional formula")
    members = frozenset(coalition)
    owned = model.coalition_variables(members)
    check_names(f, model)
    relevant = tuple(v for v in owned if v in vars_of(f))
    try:
        assignment = first_witness(compile_formula(f, model), state.valuation, relevant)
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None
    if assignment is None:
        return False, None
    return True, PartialValuation(members, assignment)
