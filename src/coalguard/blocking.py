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
from typing import Callable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, PreconditionError
from .model import Model, SystemState, is_secure, unassigned
from .engine import TIE_BREAKS, ActionRequest, SimulationReport, apply_actions, check_batch, simulate

SUBSET_SEARCH_CAP = 16


@dataclass(frozen=True)
class BlockingMatrix:
    """Rows are would-flip formulas, columns the implicated requesters.

    A cell is marked when the agent controls any variable of the formula,
    whether or not the pending request touches it; counters sum each column.
    ``row_agents`` holds each row's agent set (``model.compiled.agents`` at
    the formula's index); ``marks`` is derived from it on demand.
    """

    formula_indices: tuple[int, ...]
    agents: tuple[str, ...]
    row_agents: tuple[frozenset[str], ...]
    counters: tuple[int, ...]

    @property
    def marks(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(map(row.__contains__, self.agents)) for row in self.row_agents)


def build_matrix(model: Model, report: SimulationReport) -> BlockingMatrix:
    """The matrix of one simulation report, with its column sums counted cell
    by cell: the reference each greedy round's incremental counters equal."""
    rows, cols = report.became_true, report.implicated_agents
    row_agents = tuple(map(model.compiled.agents.__getitem__, rows))
    counters = tuple(sum(agent in row for row in row_agents) for agent in cols)
    return BlockingMatrix(rows, cols, row_agents, counters)


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in TIE_BREAKS:
        raise PreconditionError(f"tie_break must be one of {TIE_BREAKS}, not {tie_break!r}")


def rank_agents(
    matrix: BlockingMatrix,
    tie_break: str = "fifo",
    batch: Sequence[ActionRequest] = (),
) -> tuple[str, ...]:
    """Columns sorted by descending counter.

    Ties fall to the agent appearing earliest in the batch, then to the
    lexicographically smaller name; tie_break="lex" skips the batch position.
    """
    _check_tie_break(tie_break)
    if not matrix.agents:
        raise PreconditionError("empty blocking matrix")
    first_position: dict[str, int] = {}
    for position, request in enumerate(batch):
        first_position.setdefault(request.agent, position)

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
    the variables it wrote, which no other requester writes, to the state's
    values and re-evaluates only the formulas over those that changed. Each
    agent keeps a counter of the would-flip formulas it controls, moved as
    those formulas flip in or out, so no round rebuilds the matrix or sorts
    by a tuple key; every round still equals ``simulate``, ``build_matrix``
    and ``rank_agents`` on the surviving batch. Terminates after at most one
    round per requester.
    """
    _check_tie_break(tie_break)
    batch = check_batch(model, batch)
    iterations: list[GreedyIteration] = []
    report = simulate(model, state, batch)
    if not report.became_true:
        return BlockReport("greedy", (), batch, ())
    compiled = model.compiled
    evaluators, formula_agents = compiled.evaluators, compiled.agents
    before = state.valuation
    after = dict(report.simulated_state.valuation)
    written_by: dict[str, dict[str, None]] = {}  # requester -> its variables, first-seen order
    for request in batch:
        written_by.setdefault(request.agent, {})[request.variable] = None
    surviving = set(written_by)
    # the surviving requesters in tie order; ranking sorts them stably by count
    order = list(written_by) if tie_break == "fifo" else sorted(written_by)
    rows, implicated = report.became_true, report.implicated_agents
    became = set(rows)
    count: dict[str, int] = {}  # agent -> formulas in became it controls: its column's sum
    for index in rows:
        for agent in formula_agents[index]:
            count[agent] = count.get(agent, 0) + 1
    false_before = dict.fromkeys(became, True)  # formula index -> false at the state
    while True:
        row_agents = tuple(map(formula_agents.__getitem__, rows))
        counters = tuple(map(count.__getitem__, implicated))
        matrix = BlockingMatrix(rows, implicated, row_agents, counters)
        ranking = tuple(
            sorted([a for a in order if count.get(a)], key=count.__getitem__, reverse=True)
        )
        top = ranking[0]
        iterations.append(GreedyIteration(rows, implicated, matrix, ranking, top))
        surviving.discard(top)
        order.remove(top)
        dirty: set[int] = set()
        for variable in written_by[top]:
            if after[variable] != before[variable]:
                after[variable] = before[variable]
                dirty.update(compiled.by_variable.get(variable, ()))
        pool = implicated  # without a formula flipping in, no agent joins the columns
        try:
            for index in dirty:
                if index not in false_before:
                    false_before[index] = not evaluators[index](before)
                if false_before[index] and evaluators[index](after):
                    if index not in became:
                        became.add(index)
                        pool = model.agents
                        for agent in formula_agents[index]:
                            count[agent] = count.get(agent, 0) + 1
                elif index in became:
                    became.discard(index)
                    for agent in formula_agents[index]:
                        count[agent] -= 1
        except KeyError as exc:  # an evaluator read a variable the state leaves unassigned
            raise unassigned(exc.args[0]) from None
        if not became:
            break
        rows = tuple(sorted(became))
        implicated = tuple(a for a in pool if a in surviving and count.get(a))
    allowed = tuple(request for request in batch if request.agent in surviving)
    blocked = tuple(item.blocked_agent for item in iterations)
    return BlockReport("greedy", blocked, allowed, tuple(iterations))


# ---------------------------------------------------------------------------
# subset-search policy


@dataclass(frozen=True)
class OracleRound:
    cardinality: int
    evaluated: tuple[tuple[tuple[str, ...], int], ...]
    frontier: tuple[tuple[str, ...], ...]
    representative: tuple[str, ...]
    success: bool


def _evaluation_order(candidates: list) -> list:
    """Hook: the order candidate simulations run in. Results are reduced
    canonically, so any permutation yields the same frontier."""
    return candidates


class _PatternTable(dict):
    """False counts of the formulas sharing one dependency mask, keyed by the
    pattern of their kept writers. A missing pattern is evaluated on lookup:
    each member's written variables are set in a shared scratch valuation,
    to the owner's last write where it is kept and else to the state's value,
    and the member is evaluated on it."""

    def __init__(self, members: list, scratch: dict):
        super().__init__()
        self.members, self.scratch = members, scratch

    def __missing__(self, pattern: int) -> int:
        scratch = self.scratch
        count = 0
        for evaluate, written in self.members:
            for variable, value, bit, new_value in written:
                scratch[variable] = new_value if pattern & bit else value
            count += not evaluate(scratch)
        self[pattern] = count
        return count


def _keep_pattern_counter(
    model: Model,
    state: SystemState,
    batch: Sequence[ActionRequest],
    bits: Mapping[str, int],
) -> Callable[[list[int]], list[int]]:
    """How many critical formulas the batch restricted to each of a list of
    keep masks leaves false, by table lookup.

    ``bits`` gives each requester one bit of a mask. A formula's dependency
    mask holds the requesters writing any variable it mentions; a formula no
    request writes counts as a constant. The others are grouped by dependency
    mask into one lazily filled table per group, keyed by ``keep_mask & deps``,
    so a formula is evaluated at most once per distinct pattern of its own
    writers.
    """
    compiled = model.compiled
    before = state.valuation
    writes = {r.variable: (bits[r.agent], r.new_value) for r in batch}  # the owner's last write
    constant = 0
    groups: dict[int, list] = {}
    for evaluate, used in zip(compiled.evaluators, compiled.variables):
        written = tuple(
            (variable, before[variable], *writes[variable])
            for variable in used
            if variable in writes
        )
        if not written:
            constant += not evaluate(before)
            continue
        deps = 0
        for _, _, bit, _ in written:
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
    batch = check_batch(model, batch)
    rng = rng if rng is not None else random.Random(seed)
    initial = simulate(model, state, batch)
    if not initial.became_true:
        return BlockReport("nondeterministic", (), batch, ())

    asking = {r.agent for r in batch}
    requesters = tuple(a for a in model.agents if a in asking)
    if len(requesters) > SUBSET_SEARCH_CAP:
        raise BudgetExceededError(
            f"{len(requesters)} requesting agents exceed the subset-search cap "
            f"of {SUBSET_SEARCH_CAP}"
        )
    total = len(model.critical_formulas)
    bits = {agent: 1 << position for position, agent in enumerate(requesters)}
    rounds: list[OracleRound] = []
    chosen: tuple[str, ...] = ()  # stays empty, blocking everyone, only from an insecure start
    try:
        false_counts = _keep_pattern_counter(model, state, batch, bits)
        for cardinality in range(len(requesters) - 1, -1, -1):
            candidates = _evaluation_order(list(itertools.combinations(requesters, cardinality)))
            keep_masks = [sum(map(bits.__getitem__, keep)) for keep in candidates]
            counts = dict(zip(candidates, false_counts(keep_masks)))
            best = max(counts.values())
            frontier = tuple(sorted(keep for keep, count in counts.items() if count == best))
            representative = rng.choice(frontier)
            success = best == total
            evaluated = tuple(sorted(counts.items()))
            rounds.append(OracleRound(cardinality, evaluated, frontier, representative, success))
            if success:
                chosen = representative
                break
    except KeyError as exc:  # an evaluator read a variable the state leaves unassigned
        raise unassigned(exc.args[0]) from None
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
    batch = check_batch(model, batch)
    asking = {r.agent for r in batch}
    requesters = tuple(a for a in model.agents if a in asking)
    if len(requesters) > SUBSET_SEARCH_CAP:
        raise BudgetExceededError(
            f"{len(requesters)} requesting agents exceed the subset-search cap "
            f"of {SUBSET_SEARCH_CAP}"
        )
    for keep_size in range(len(requesters), -1, -1):
        winners = []
        for keep in itertools.combinations(requesters, keep_size):
            members = set(keep)
            restricted = tuple(r for r in batch if r.agent in members)
            if is_secure(model, apply_actions(state, restricted)):
                winners.append(tuple(sorted(set(requesters) - members)))
        if winners:
            blocked = min(winners)
            allowed = tuple(r for r in batch if r.agent not in set(blocked))
            return BlockReport("brute_force", blocked, allowed, ())
    raise PreconditionError(
        "no blocked set keeps every critical formula false; the start is insecure"
    )
