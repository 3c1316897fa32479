"""Per-tick blocking policies that keep every critical formula false.

Both policies simulate the pending batch first. The greedy policy repeatedly
blocks the requester whose variables touch the most would-flip formulas; the
nondeterministic policy searches whole subsets of the requesters, keeping as
many of them as possible, and draws among ties from a seeded generator.

Both exploit batch locality: a formula's value after the tick depends only on
which of the requesters writing its variables are kept. Greedy therefore
re-evaluates only the formulas over the variables the blocked agent wrote,
and the subset search looks each formula up by the pattern of its own
writers instead of re-applying the batch for every candidate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, PreconditionError
from .model import Model, SystemState
from .engine import ActionRequest, SimulationReport, apply_actions, simulate

SUBSET_SEARCH_CAP = 16


@dataclass(frozen=True)
class BlockingMatrix:
    """Rows are would-flip formulas, columns the implicated requesters.

    A cell is marked when the agent controls any variable of the formula,
    whether or not the pending request touches it; counters sum each column.
    """

    formula_indices: tuple[int, ...]
    agents: tuple[str, ...]
    marks: tuple[tuple[bool, ...], ...]
    counters: tuple[int, ...]


def build_matrix(model: Model, report: SimulationReport) -> BlockingMatrix:
    rows = report.became_true
    cols = report.implicated_agents
    agents = model.compiled.agents
    marks = tuple(tuple(map(agents[index].__contains__, cols)) for index in rows)
    counters = tuple(map(sum, zip(*marks))) if rows else (0,) * len(cols)
    return BlockingMatrix(rows, cols, marks, counters)


def first_positions(batch: Sequence[ActionRequest]) -> dict[str, int]:
    """Each requester's position of first appearance in the batch."""
    first_position: dict[str, int] = {}
    for position, request in enumerate(batch):
        first_position.setdefault(request.agent, position)
    return first_position


def rank_agents(
    matrix: BlockingMatrix,
    tie_break: str = "fifo",
    batch: Sequence[ActionRequest] = (),
    first_position: Optional[Mapping[str, int]] = None,
) -> tuple[str, ...]:
    """Columns sorted by descending counter.

    Ties fall to the agent appearing earliest in the batch, then to the
    lexicographically smaller name; tie_break="lex" skips the batch position.
    A caller ranking several times over one batch may pass
    ``first_positions(batch)`` once instead of having it recomputed.
    """
    if not matrix.agents:
        raise PreconditionError("empty blocking matrix")
    if first_position is None:
        first_position = first_positions(batch)

    def key(item):
        agent, counter = item
        if tie_break == "fifo":
            return (-counter, first_position.get(agent, len(batch)), agent)
        return (-counter, agent)

    ordered = sorted(zip(matrix.agents, matrix.counters), key=key)
    return tuple(agent for agent, _ in ordered)


@dataclass(frozen=True)
class GreedyIteration:
    became_true: tuple[int, ...]
    implicated: tuple[str, ...]
    matrix: BlockingMatrix
    ranking: tuple[str, ...]
    blocked_agent: str


@dataclass(frozen=True)
class BlockReport:
    """Outcome of a blocking decision over one batch."""

    method: str
    blocked: tuple[str, ...]
    allowed_batch: tuple[ActionRequest, ...]
    iterations: tuple


def _writes_by_variable(batch: Sequence[ActionRequest]) -> dict[str, list[ActionRequest]]:
    """Each written variable's requests in batch order; the last one kept wins.

    Derived from the writes, not from ownership, so two writers of one
    variable and an agent writing twice both stay exact.
    """
    writes: dict[str, list[ActionRequest]] = {}
    for request in batch:
        writes.setdefault(request.variable, []).append(request)
    return writes


def greedy_block(
    model: Model,
    state: SystemState,
    batch: Sequence[ActionRequest],
    tie_break: str = "fifo",
) -> BlockReport:
    """Block top-ranked requesters one at a time until nothing would flip.

    Each round sees the surviving batch applied to the same state, so the
    loop also catches formulas that only become reachable once other writes
    are vetoed. The batch is simulated once; blocking an agent resets only
    the variables it wrote (to the last surviving write, else to the state)
    and re-evaluates only the formulas over those that changed, so every
    round's report equals ``simulate`` on the surviving batch. Terminates
    after at most one round per requester.
    """
    batch = tuple(batch)
    blocked: list[str] = []
    iterations: list[GreedyIteration] = []
    report = simulate(model, state, batch)
    if not report.became_true:
        return BlockReport("greedy", (), batch, ())
    compiled = model.compiled
    evaluators = compiled.evaluators
    before = state.valuation
    after = dict(report.simulated_state.valuation)
    writes = _writes_by_variable(batch)
    written_by: dict[str, dict[str, None]] = {}  # agent -> the variables it wrote, in order
    for request in batch:
        written_by.setdefault(request.agent, {})[request.variable] = None
    first_position = first_positions(batch)
    surviving = set(first_position)
    became = set(report.became_true)
    false_before = dict.fromkeys(became, True)  # formula index -> false at the state
    while True:
        matrix = build_matrix(model, report)
        ranking = rank_agents(matrix, tie_break, batch, first_position)
        top = ranking[0]
        blocked.append(top)
        iterations.append(
            GreedyIteration(report.became_true, report.implicated_agents, matrix, ranking, top)
        )
        surviving.discard(top)
        dirty: set[int] = set()
        for variable in written_by[top]:
            value = before.get(variable)
            for request in writes[variable]:
                if request.agent in surviving:
                    value = request.new_value
            if value != after.get(variable):
                if value is None:  # unassigned at the state and no longer written
                    del after[variable]
                else:
                    after[variable] = value
                dirty.update(compiled.by_variable.get(variable, ()))
        for index in dirty:
            if index not in false_before:
                false_before[index] = not evaluators[index](before)
            if false_before[index] and evaluators[index](after):
                became.add(index)
            else:
                became.discard(index)
        if not became:
            break
        flipped = set().union(*(compiled.agents[index] for index in became))
        implicated = tuple(a for a in model.agents if a in surviving and a in flipped)
        report = SimulationReport(
            tuple(sorted(became)), implicated, SystemState(state.tick + 1, after)
        )
    allowed = tuple(request for request in batch if request.agent in surviving)
    return BlockReport("greedy", tuple(blocked), allowed, tuple(iterations))


# ---------------------------------------------------------------------------
# subset-search policy


@dataclass(frozen=True)
class OracleRound:
    cardinality: int
    evaluated: tuple[tuple[tuple[str, ...], int], ...]
    frontier: tuple[tuple[str, ...], ...]
    representative: tuple[str, ...]
    success: bool


def _false_count(model: Model, state: SystemState, batch: Sequence[ActionRequest]) -> int:
    after = apply_actions(state, batch).valuation
    return sum(1 for evaluate in model.compiled.evaluators if not evaluate(after))


def _evaluation_order(candidates: list) -> list:
    """Hook: the order candidate simulations run in. Results are reduced
    canonically, so any permutation yields the same frontier."""
    return candidates


class _PatternTable(dict):
    """False counts of the formulas sharing one dependency mask, keyed by the
    pattern of their kept writers. A missing pattern is evaluated on lookup:
    each member's written variables are set in a shared scratch valuation,
    the last kept write winning, and the member is evaluated on it."""

    def __init__(self, members: list, scratch: dict):
        super().__init__()
        self.members, self.scratch = members, scratch

    def __missing__(self, pattern: int) -> int:
        scratch = self.scratch
        count = 0
        for evaluate, written in self.members:
            for variable, value, kept_writes in written:
                for bit, new_value in kept_writes:
                    if pattern & bit:
                        value = new_value
                if value is None:  # unassigned at the state and not written
                    scratch.pop(variable, None)
                else:
                    scratch[variable] = value
            count += not evaluate(scratch)
        self[pattern] = count
        return count


def _keep_pattern_counter(
    model: Model,
    state: SystemState,
    batch: Sequence[ActionRequest],
    bits: Mapping[str, int],
) -> Callable[[list[int]], list[int]]:
    """``_false_count`` of the batch restricted to each of a list of keep
    masks, by table lookup.

    ``bits`` gives each requester one bit of a mask. A formula's dependency
    mask holds the requesters writing any variable it mentions; a formula no
    request writes counts as a constant. The others are grouped by dependency
    mask into one lazily filled table per group, keyed by ``keep_mask & deps``,
    so a formula is evaluated at most once per distinct pattern of its own
    writers.
    """
    compiled = model.compiled
    before = state.valuation
    writes = {  # variable -> (writer's bit, value) in batch order; bit 0 is never kept
        variable: tuple((bits.get(r.agent, 0), r.new_value) for r in requests)
        for variable, requests in _writes_by_variable(batch).items()
    }
    constant = 0
    groups: dict[int, list] = {}
    for evaluate, used in zip(compiled.evaluators, compiled.variables):
        written = tuple(
            (variable, before.get(variable), writes[variable])
            for variable in used
            if variable in writes
        )
        if not written:
            constant += not evaluate(before)
            continue
        deps = 0
        for _, _, kept_writes in written:
            for bit, _ in kept_writes:
                deps |= bit
        groups.setdefault(deps, []).append((evaluate, written))
    scratch = dict(before)
    tables = [(deps, _PatternTable(members, scratch)) for deps, members in groups.items()]

    def false_counts(keep_masks: list[int]) -> list[int]:
        counts = [constant] * len(keep_masks)
        for deps, table in tables:
            counts = list(map(add, counts, map(table.__getitem__, map(deps.__and__, keep_masks))))
        return counts

    return false_counts


def _evaluate_candidates(
    false_counts: Callable[[list[int]], list[int]],
    bits: Mapping[str, int],
    candidates: Iterable[tuple[str, ...]],
) -> dict[tuple[str, ...], int]:
    ordered = _evaluation_order(list(candidates))
    keep_masks = [sum(map(bits.__getitem__, keep)) for keep in ordered]
    return dict(zip(ordered, false_counts(keep_masks)))


def nondet_block(
    model: Model,
    state: SystemState,
    batch: Sequence[ActionRequest],
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> BlockReport:
    """Keep as many requesters as possible; block the rest.

    Descends through keep-set cardinalities, evaluating every subset of the
    requesting agents at each level, and stops at the first level where some
    keep-set leaves all critical formulas false. Frontier members tie by
    construction, so one seeded draw picks the survivor set.
    """
    rng = rng if rng is not None else random.Random(seed)
    initial = simulate(model, state, batch)
    if not initial.became_true:
        return BlockReport("nondeterministic", (), tuple(batch), ())

    requesters = tuple(a for a in model.agents if a in {r.agent for r in batch})
    if len(requesters) > SUBSET_SEARCH_CAP:
        raise BudgetExceededError(
            f"{len(requesters)} requesting agents exceed the subset-search cap "
            f"of {SUBSET_SEARCH_CAP}"
        )
    total = len(model.critical_formulas)
    bits = {agent: 1 << position for position, agent in enumerate(requesters)}
    false_counts = _keep_pattern_counter(model, state, batch, bits)
    rounds: list[OracleRound] = []
    chosen: Optional[tuple[str, ...]] = None
    for cardinality in range(len(requesters) - 1, -1, -1):
        candidates = [tuple(c) for c in itertools.combinations(requesters, cardinality)]
        counts = _evaluate_candidates(false_counts, bits, candidates)
        best = max(counts.values())
        frontier = tuple(sorted(keep for keep, count in counts.items() if count == best))
        representative = rng.choice(frontier)
        success = best == total
        evaluated = tuple(sorted(counts.items()))
        rounds.append(OracleRound(cardinality, evaluated, frontier, representative, success))
        if success:
            chosen = representative
            break
    if chosen is None:
        chosen = ()  # unreachable from a secure start; block everyone defensively
    keep = set(chosen)
    blocked = tuple(a for a in requesters if a not in keep)
    allowed = tuple(r for r in batch if r.agent in keep)
    return BlockReport("nondeterministic", blocked, allowed, tuple(rounds))


def brute_force_min_block(
    model: Model, state: SystemState, batch: Sequence[ActionRequest]
) -> BlockReport:
    """Exhaustively find a smallest blocked set keeping every formula false.

    Among minimum-size solutions returns the lexicographically least blocked
    tuple. Exponential in the requester count; capped at 16 requesters.
    """
    requesters = tuple(a for a in model.agents if a in {r.agent for r in batch})
    if len(requesters) > SUBSET_SEARCH_CAP:
        raise BudgetExceededError(
            f"{len(requesters)} requesting agents exceed the subset-search cap "
            f"of {SUBSET_SEARCH_CAP}"
        )
    total = len(model.critical_formulas)
    for keep_size in range(len(requesters), -1, -1):
        winners = []
        for keep in itertools.combinations(requesters, keep_size):
            members = set(keep)
            restricted = tuple(r for r in batch if r.agent in members)
            if _false_count(model, state, restricted) == total:
                winners.append(tuple(sorted(set(requesters) - members)))
        if winners:
            blocked = min(winners)
            allowed = tuple(r for r in batch if r.agent not in set(blocked))
            return BlockReport("brute_force", blocked, allowed, ())
    raise PreconditionError(
        "no blocked set keeps every critical formula false; the start is insecure"
    )
