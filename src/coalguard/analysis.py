"""Whole-state-space analyses: flip graphs, reachability, and audits.

The state graph has one vertex per total valuation and one edge per single
variable flip, labeled with the variable's controller. On top of it sit
connectivity checks, secure-path search, single-flip attacker detection, and
an exhaustive minimal-coalition vulnerability audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import BudgetExceededError, ModalFormulaError, PreconditionError
from .errors import UnknownVariableError, require
from .formula import (
    Formula,
    _check_budget,
    _clause_codes,
    _decode,
    _prime_implicates,
    _truth_table,
    Not,
    Var,
    check_bits,
    check_names,
    conjoin,
    disjoin,
    flip_across,
    horn_renaming,
    valuation_masks,
)
from .model import Model, PartialValuation, SystemState

GRAPH_VARIABLE_CAP = 16
AUDIT_AGENT_CAP = 15
SURVEY_VARIABLE_CAP = 4


@dataclass(frozen=True)
class StateGraph:
    """Hypercube of valuations; bit j of a vertex index is variables[j].

    Edges are implicit: vertex i joins i XOR (1 << j) for every j, labeled
    edge_labels[j] (the controller of variables[j]). Bit i of secure_bits is
    set when every critical formula is false at vertex i; secure[i] (that
    bit as a bool) and secure_indices() are views of it.
    """

    variables: tuple[str, ...]
    edge_labels: tuple[str, ...]
    secure_bits: int

    def __post_init__(self):
        """PreconditionError for a field not of its kind, BudgetExceededError
        past GRAPH_VARIABLE_CAP variables: secure formats a bit per vertex."""
        variables, labels, bits = self.variables, self.edge_labels, self.secure_bits
        if not isinstance(variables, tuple) or not all(isinstance(v, str) for v in variables):
            raise PreconditionError(f"a graph's variables are a tuple of str, not {variables!r}")
        _check_graph_cap(len(variables))
        if not isinstance(labels, tuple) or len(labels) != len(variables):
            raise PreconditionError(f"a graph's labels are a tuple, one a variable, not {labels!r}")
        if type(bits) is not int or bits < 0 or bits >> self.num_vertices:
            raise PreconditionError(f"secure_bits {bits!r} is not a set of the graph's vertices")

    @property
    def num_vertices(self) -> int:
        return 1 << len(self.variables)

    @property
    def num_edges(self) -> int:
        return len(self.variables) * self.num_vertices // 2

    @cached_property
    def secure(self) -> tuple[bool, ...]:
        bits = format(self.secure_bits, f"0{self.num_vertices}b")[::-1]  # bit 0 first
        return tuple(map("1".__eq__, bits))

    def valuation_of(self, index: int) -> dict[str, bool]:
        if not 0 <= require(index, int, "a vertex index") < self.num_vertices:
            raise PreconditionError(f"vertex index {index} is not in 0..{self.num_vertices - 1}")
        return {v: bool((index >> j) & 1) for j, v in enumerate(self.variables)}

    def vertex_index(self, state: Union[SystemState, Mapping[str, bool]]) -> int:
        valuation = state.valuation if isinstance(state, SystemState) else state
        mismatch = set(require(valuation, Mapping, "a state")) ^ set(self.variables)
        if mismatch:
            raise UnknownVariableError(
                f"state variables do not match the graph: {sorted(mismatch)}"
            )
        check_bits(valuation.values())
        return sum(1 << j for j, v in enumerate(self.variables) if valuation[v])

    def edges(self) -> Iterator[tuple[int, int, str]]:
        """Every undirected edge once, as (smaller index, larger index, agent)."""
        for i in range(self.num_vertices):
            for j, label in enumerate(self.edge_labels):
                if not (i >> j) & 1:
                    yield i, i | (1 << j), label

    def secure_indices(self) -> tuple[int, ...]:
        return tuple(i for i, flag in enumerate(self.secure) if flag)


def _check_graph_cap(n: int) -> int:
    if n > (cap := GRAPH_VARIABLE_CAP):
        raise BudgetExceededError(f"{n} variables exceed the state-graph cap of {cap}")
    return n


def build_state_graph(model: Model) -> StateGraph:
    """Flag the valuations where no critical formula holds.

    The secure set is the complement of the OR of the formulas' truth
    tables, each a compiled closure run once on the valuation masks.
    """
    require(model, Model, "model")
    n = _check_graph_cap(len(model.variables))
    labels = tuple(model.owner_of(v) for v in model.variables)
    full = (1 << (1 << n)) - 1
    lanes = dict(zip(model.variables, valuation_masks(n)))
    insecure = 0
    for evaluate in model.compiled.evaluators:
        insecure |= evaluate(lanes, full)
    return StateGraph(tuple(model.variables), labels, full ^ insecure)


def _connected(members: int, num_vars: int) -> bool:
    """Is the subgraph induced on the vertices set in the members bitset connected?

    Floods from the lowest member, adding the members one flip of variable j
    away, for each j in turn, until the flood covers them all or stops growing.
    """
    reached = members & -members
    masks = valuation_masks(num_vars)
    while reached != members:  # more than one member, and some not reached
        before = reached
        for j, mask in enumerate(masks):
            reached |= flip_across(reached, j, mask) & members
            if reached == members:
                return True
        if reached == before:
            return False
    return True


def is_connected(graph: StateGraph, restrict_to_secure: bool = False) -> bool:
    """Connectivity of the full graph or of its secure-vertex subgraph."""
    require(graph, StateGraph, "graph")
    if restrict_to_secure:
        return _connected(graph.secure_bits, len(graph.variables))
    return True  # the full graph is a hypercube, and every hypercube is connected


def secure_path(
    graph: StateGraph, start: SystemState, goal: SystemState
) -> Optional[tuple[SystemState, ...]]:
    """Shortest single-flip path staying inside secure vertices, or None.

    A layered search on secure_bits: layer k + 1 is layer k moved across
    every variable, kept to the secure vertices not yet seen. The walk back
    from the goal steps, at each layer, by the lowest variable whose flip
    lands in the layer before. The returned states advance the tick by one
    per flip, starting from the start state's tick.
    """
    require(graph, StateGraph, "graph")
    require(start, SystemState, "start state")
    require(goal, SystemState, "goal state")
    source = graph.vertex_index(start)
    target = graph.vertex_index(goal)
    members = graph.secure_bits
    for index, name in ((source, "start"), (target, "goal")):
        if not (members >> index) & 1:
            raise PreconditionError(f"{name} state is not secure")
    masks = valuation_masks(len(graph.variables))
    layers = [1 << source]
    unseen = members ^ layers[0]
    while not (layers[-1] >> target) & 1:
        layer = 0
        for j, mask in enumerate(masks):
            layer |= flip_across(layers[-1], j, mask)
        layer &= unseen
        if not layer:
            return None
        unseen ^= layer
        layers.append(layer)
    path = [target]
    for layer in reversed(layers[:-1]):
        flips = (path[-1] ^ (1 << j) for j in range(len(masks)))
        path.append(next(index for index in flips if (layer >> index) & 1))
    return tuple(
        SystemState(start.tick + offset, graph.valuation_of(index))
        for offset, index in enumerate(reversed(path))
    )


def single_flip_agents(model: Model, state: SystemState, formula: Formula) -> frozenset[str]:
    """Agents able to make a currently-false formula true with one flip.

    Only a variable the formula mentions can change its value, so an agent
    qualifies when it controls such a variable whose lone flip satisfies
    the formula.
    """
    require(state, SystemState, "state")
    used, _ = check_names(formula, model, "single-flip analysis takes a propositional formula")
    names = [v for v in model.variables if v in used]  # the first unassigned raises below
    ones = (2 << len(names)) - 1  # lane j flips names[j]; the last lane is the state
    lanes = {v: (ones if state.value(v) else 0) ^ (1 << j) for j, v in enumerate(names)}
    flipped = _truth_table(formula, model, lanes, ones, {})
    if (flipped >> len(names)) & 1:
        raise PreconditionError("formula is already true at this state")
    return frozenset(model.owner_of(v) for j, v in enumerate(names) if (flipped >> j) & 1)


@dataclass(frozen=True)
class VulnerabilityFinding:
    """One inclusion-minimal coalition able to satisfy a critical formula."""

    formula_index: int
    formula: Formula
    coalition: tuple[str, ...]
    witness: PartialValuation


def audit_vulnerabilities(model: Model, state: SystemState) -> tuple[VulnerabilityFinding, ...]:
    """All minimal coalitions that could make some critical formula true.

    A coalition can exactly when some state it reaches from this one, by
    setting its own variables of the formula, is in the formula's truth
    table (van der Hoek & Wooldridge, AIJ 2005). A coalition's reach grows
    from its prefix's by a flip_across OR per variable; coalitions grow by
    size, and only the unable ones of one size are kept. Only the formula's
    own agents are combined, in model order. A witness is the first state
    in reach and table in itertools.product order. DIAMOND_VARIABLE_CAP
    bounds an audited formula's variables, checked first; AUDIT_AGENT_CAP
    the agents combined for one false at the state.
    """
    require(model, Model, "model")
    require(state, SystemState, "state")
    compiled = model.compiled
    if any(compiled.coalitions):
        raise ModalFormulaError("the audit requires propositional critical formulas")
    for variable in model.variables:
        state.value(variable)  # raises for a variable the state leaves unassigned
    findings = []
    for index, f in enumerate(model.critical_formulas):
        names = tuple(v for v in model.variables if v in compiled.variables[index])
        _check_budget(names)  # the formula's own coalition controls them all
        masks = valuation_masks(len(names))
        table = compiled.evaluators[index](dict(zip(names, masks)), (1 << (1 << len(names))) - 1)
        point = sum(1 << j for j, v in enumerate(names) if state.valuation[v])
        holds = (table >> point) & 1  # then every agent alone is able, and none is combined
        candidates = tuple(a for a in model.agents if holds or a in compiled.agents[index])
        if not holds and len(candidates) > AUDIT_AGENT_CAP:
            raise BudgetExceededError(f"formula {index}: {len(candidates)} agents exceed the "
                                      f"audit cap of {AUDIT_AGENT_CAP}")
        owned = {a: [] for a in candidates}
        for j, v in enumerate(names):
            owned[model.owner_of(v)].append(j)
        unable = {(): 1 << point}  # the coalitions of one size that cannot, with their reach
        while unable:
            level, unable = unable, {}
            for combo, reach in level.items():
                for last in candidates[candidates.index(combo[-1]) + 1 if combo else 0:]:
                    members = combo + (last,)
                    if any(members[:i] + members[i + 1:] not in level for i in range(len(combo))):
                        continue  # a subset is able, so members is not minimal
                    grown = reach
                    for j in owned[last]:
                        grown |= flip_across(grown, j, masks[j])
                    face = table & grown  # the states members can reach where f holds
                    if not face:
                        unable[members] = grown
                        continue
                    witness = {}
                    for j in sorted(j for a in members for j in owned[a]):  # false first
                        low = face & ~masks[j]
                        witness[names[j]] = not low
                        face = low or face & masks[j]
                    findings.append(VulnerabilityFinding(
                        index, f, members, PartialValuation(members, witness)))
    return tuple(findings)


# ---------------------------------------------------------------------------
# truth-table survey: secure-set connectivity vs. Horn relabelability


def _check_table(table: int, num_vars: int) -> None:
    if type(table) is bool or not isinstance(table, int) or not 0 <= table < 1 << (1 << num_vars):
        raise PreconditionError(f"table {table!r} out of range for {num_vars} variables")


def formula_from_truth_table(num_vars: int, table: int) -> Formula:
    """Minimal clause form of the function given by a truth-table integer.

    Bit m of the table, an int in 0 .. 2^(2^num_vars) - 1, is the function's
    value where x{j+1} is bit j of m. The result conjoins the function's prime
    implicates, every clause it entails with no entailed sub-clause, shortest
    first, so equivalent functions get identical formulas and clause-level
    properties reflect the function. num_vars is capped at
    TRUTH_TABLE_VARIABLE_CAP, as the primes are merged over all 3^num_vars clauses.
    """
    if require(num_vars, int, "num_vars") < 1:
        raise PreconditionError("need at least one variable")
    literals, steps, _ = _clause_codes(num_vars)  # raises past TRUTH_TABLE_VARIABLE_CAP
    _check_table(table, num_vars)
    primes = sorted(_decode(literals, _prime_implicates(steps, table)), key=lambda c: (len(c), c))
    return conjoin(
        disjoin(Var(f"x{j + 1}") if positive else Not(Var(f"x{j + 1}")) for j, positive in clause)
        for clause in primes
    )


@dataclass(frozen=True)
class SurveyRow:
    table: int
    connected: bool
    relabelable: bool


@dataclass(frozen=True)
class ConnectivitySurvey:
    """Joint record of secure-set connectivity and Horn relabelability."""

    num_vars: int
    reading: str
    rows: tuple[SurveyRow, ...]
    counterexamples: tuple[int, ...]
    converse_counterexamples: tuple[int, ...]

    @property
    def claim_holds(self) -> bool:
        """Every function with a connected secure set admits a relabeling."""
        return not self.counterexamples


def survey_secure_connectivity(
    num_vars: int,
    reading: str = "falsifying",
    tables: Optional[Iterable[int]] = None,
) -> ConnectivitySurvey:
    """Check, per truth table, whether a connected secure vertex set implies
    a sign-flip relabeling turning the prime implicates Horn.

    reading picks which vertices count as secure: "falsifying" (the default)
    takes the states where the function is false, "satisfying" the others.
    Without an explicit table sample the sweep is exhaustive: all 2^(2^n)
    tables, 65,536 at the cap of 4 variables. Each table's prime implicates
    (the clauses of formula_from_truth_table) go straight to horn_renaming.
    """
    if reading not in ("falsifying", "satisfying"):
        raise PreconditionError(f"unknown reading: {reading!r}")
    if require(num_vars, int, "num_vars") < 1 or num_vars > SURVEY_VARIABLE_CAP:
        raise BudgetExceededError(f"survey supports 1..{SURVEY_VARIABLE_CAP} variables, "
                                  f"got {num_vars}")
    states = 1 << num_vars
    if tables is not None and not isinstance(tables, Iterable):
        raise PreconditionError(f"tables must be an iterable of ints, not {tables!r}")
    literals, steps, _ = _clause_codes(num_vars)
    rows = []
    for table in range(1 << states) if tables is None else tables:
        _check_table(table, num_vars)
        members = table if reading == "satisfying" else ((1 << states) - 1) ^ table
        connected = _connected(members, num_vars)
        renaming = horn_renaming(_decode(literals, _prime_implicates(steps, table)))
        rows.append(SurveyRow(table, connected, renaming is not None))
    counterexamples = tuple(r.table for r in rows if r.connected and not r.relabelable)
    converse = tuple(r.table for r in rows if r.relabelable and not r.connected)
    return ConnectivitySurvey(num_vars, reading, tuple(rows), counterexamples, converse)


def iter_edge_lines(graph: StateGraph) -> Iterator[str]:
    """Text edge list: vertex bits, vertex bits, controlling agent.

    Bit strings put variables[0] leftmost, '1' meaning true; the graph is
    checked on the call, before the first line.
    """
    require(graph, StateGraph, "graph")
    width = f"0{len(graph.variables)}b"  # reversed below, so that bit 0 comes first
    return (f"{format(i, width)[::-1]} {format(k, width)[::-1]} {label}"
            for i, k, label in graph.edges())
