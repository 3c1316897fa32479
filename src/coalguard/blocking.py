"""Per-tick blocking policies that keep every critical formula false.

Both policies simulate the pending batch first. The greedy policy repeatedly
blocks the requester whose variables touch the most would-flip formulas; the
nondeterministic policy searches whole subsets of the requesters, keeping as
many of them as possible, and draws among ties from a seeded generator.

Both exploit batch locality: a formula's value after the tick depends only on
which of the requesters writing its variables are kept. Greedy therefore
re-evaluates only the formulas over the variables the blocked agent wrote,
and the subset search walks each formula once per level over all candidates
at once, one lane of an int apiece, instead of re-applying the batch to each.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import BudgetExceededError, PreconditionError, require
from .model import ActionRequest, Model, SimulationReport, SystemState, apply_actions, check_batch
from .model import is_secure, simulate, unassigned

SUBSET_SEARCH_CAP = 16
TIE_BREAKS = ("fifo", "lex")


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
    require(model, Model, "model")
    require(report, SimulationReport, "report")
    rows, cols = report.became_true, report.implicated_agents
    if not set(rows).issubset(range(len(model.critical_formulas))):
        raise PreconditionError(f"the report's formulas {rows!r} are not all the model's")
    row_agents = tuple(map(model.compiled.agents.__getitem__, rows))
    counters = tuple(sum(agent in row for row in row_agents) for agent in cols)
    return BlockingMatrix(rows, cols, row_agents, counters)


def check_tie_break(tie_break: str) -> None:
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
    check_tie_break(tie_break)
    require(matrix, BlockingMatrix, "matrix")
    if not matrix.agents:
        raise PreconditionError("empty blocking matrix")
    first_position: dict[str, int] = {}  # left empty under "lex": every agent ties on it
    try:
        for position, request in enumerate(batch if tie_break == "fifo" else ()):
            first_position.setdefault(request.agent, position)
    except (AttributeError, TypeError):
        raise PreconditionError(f"a batch holds ActionRequests, not {batch!r}") from None
    ordered = sorted(zip(matrix.agents, matrix.counters), key=lambda item: (
        -item[1], first_position.get(item[0], sys.maxsize), item[0]))
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
    """Outcome of a blocking decision over one batch; ``state`` follows ``allowed_batch``."""

    method: str
    blocked: tuple[str, ...]
    allowed_batch: tuple[ActionRequest, ...]
    iterations: tuple
    state: SystemState


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
    check_tie_break(tie_break)
    batch = check_batch(model, batch)
    iterations: list[GreedyIteration] = []
    report = simulate(model, state, batch)
    if not report.became_true:
        return BlockReport("greedy", (), batch, (), report.simulated_state)
    compiled = model.compiled
    evaluators, formula_agents = compiled.evaluators, compiled.agents
    before = state.valuation
    after = dict(report.simulated_state.valuation)
    written_by: dict[str, dict[str, None]] = {}  # requester -> its variables, first-seen order
    for request in batch:
        written_by.setdefault(request.agent, {})[request.variable] = None
    surviving = set(written_by)
    # the columns are the surviving requesters with a non-zero counter; ranking
    # sorts them by tie position, then stably by descending counter
    tie_position = dict(zip(written_by if tie_break == "fifo" else sorted(written_by),
                            range(len(written_by))))
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
        ranking = tuple(sorted(sorted(implicated, key=tie_position.__getitem__),
                               key=count.__getitem__, reverse=True))
        top = ranking[0]
        iterations.append(GreedyIteration(rows, implicated, matrix, ranking, top))
        surviving.discard(top)
        dirty: set[int] = set()
        for variable in written_by[top]:
            if after[variable] != before[variable]:
                after[variable] = before[variable]
                dirty.update(compiled.by_variable.get(variable, ()))
        pool = implicated  # without a formula flipping in, no agent joins the columns
        try:
            for index in dirty:
                if index not in false_before:
                    false_before[index] = not evaluators[index](before, True)
                if false_before[index] and evaluators[index](after, True):
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
        implicated = tuple(filter(count.get, filter(surviving.__contains__, pool)))
    allowed = tuple(request for request in batch if request.agent in surviving)
    blocked = tuple(item.blocked_agent for item in iterations)
    return BlockReport("greedy", blocked, allowed, tuple(iterations),
                       SystemState(state.tick + 1, after))


# ---------------------------------------------------------------------------
# subset-search policy


@dataclass(frozen=True)
class OracleRound:
    cardinality: int
    evaluated: tuple[tuple[tuple[str, ...], int], ...]
    frontier: tuple[tuple[str, ...], ...]
    representative: tuple[str, ...]
    success: bool


def _evaluation_order(masks: array) -> Sequence[int]:
    """Hook: the order a level's shared keep masks, in name order, are counted in, as a new
    sequence. Counts map back canonically, so any permutation yields the same rounds."""
    return masks


@functools.lru_cache(maxsize=32)
def _level(ranks: tuple[int, ...], cardinality: int, code: str) -> tuple[array, array]:
    """For requesters whose ranks in name order are ``ranks``: the positions of
    their keep tuples of ``cardinality`` in ``itertools.combinations`` order,
    sorted by tuple (0, 1, ... when the ranks ascend), and the tuples' masks, bit
    i for requester i, as ``code``. Read-only and shared; an entry holds at most
    C(16, 8) = 12,870 of each, 2 + 8 bytes, so the 32 kept take under 4 MiB."""
    level = list(itertools.combinations(ranks, cardinality))
    positions = sorted(range(len(level)), key=level.__getitem__)
    masks = list(map(sum, itertools.combinations([1 << i for i in range(len(ranks))], cardinality)))
    return array("H", positions), array(code, map(masks.__getitem__, positions))


@functools.lru_cache(maxsize=16)
def _plan(requesters: tuple[str, ...], cardinality: int, code: str) -> tuple[tuple, array, int]:
    """A level's keep tuples in name order, ``_level``'s masks and lane constant ``ones``; 16
    entries hold a tick's every level, each at most 12,870 tuples of 104 bytes: under 26 MiB."""
    positions, masks = _level(tuple(map(sorted(requesters).index, requesters)), cardinality, code)
    level = list(itertools.combinations(requesters, cardinality))
    ones = int.from_bytes(array(code, [1]) * len(masks), sys.byteorder)
    return tuple(map(level.__getitem__, positions)), masks, ones


def _false_counter(
    model: Model, state: SystemState, batch: Sequence[ActionRequest], requesters: Sequence[str]
) -> Callable[[array, int], Sequence[int]]:
    """How many critical formulas the batch restricted to each of a list of
    keep-sets leaves false, counted bit-parallel (Knuth, TAOCP 4A, 7.1.3).

    The keep-sets come as ``_plan``'s masks and ``ones``, a lane of an int per
    ``array`` item, which fits a mask and a count. A formula mentioning no
    variable a write changes is a constant. For the rest, a variable's lanes are
    its value at the state, flipped where its writer is kept; the formula's
    closure, run once over them, sums its false lanes into every count."""
    compiled, before = model.compiled, state.valuation
    writes = {r.variable: (requesters.index(r.agent), r.new_value) for r in batch}  # last wins
    changed = {v: i for v, (i, value) in writes.items() if value != before[v]}
    constant, live = 0, []
    for evaluate, used in zip(compiled.evaluators, compiled.variables):
        if used.isdisjoint(changed):
            constant += not evaluate(before, True)
        else:
            live.append(evaluate)

    def false_counts(packed: array, ones: int) -> Sequence[int]:
        masks = int.from_bytes(packed, sys.byteorder)
        values = {variable: ones if value else 0 for variable, value in before.items()}
        for variable, i in changed.items():
            values[variable] ^= (masks >> i) & ones
        count = constant * ones + sum(ones ^ evaluate(values, ones) for evaluate in live)
        return array(packed.typecode, count.to_bytes(len(packed) * packed.itemsize, sys.byteorder))

    return false_counts


def _requesters(model: Model, batch: Sequence[ActionRequest]) -> tuple[str, ...]:
    asking = {r.agent for r in batch}
    requesters = tuple(a for a in model.agents if a in asking)
    if len(requesters) > SUBSET_SEARCH_CAP:
        raise BudgetExceededError(f"{len(requesters)} requesting agents exceed the "
                                  f"subset-search cap of {SUBSET_SEARCH_CAP}")
    return requesters


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
    require(seed, (int, type(None)), "seed")
    rng = require(rng, (random.Random, type(None)), "rng") or random.Random(seed)
    initial = simulate(model, state, batch)
    if not initial.became_true:
        return BlockReport("nondeterministic", (), batch, (), initial.simulated_state)

    requesters = _requesters(model, batch)
    total = len(model.critical_formulas)
    width = max(len(requesters), total.bit_length())
    code = next(code for code in "BHILQ" if array(code).itemsize * 8 >= width)
    rounds: list[OracleRound] = []
    chosen: tuple[str, ...] = ()  # stays empty, blocking everyone, only from an insecure start
    try:
        false_counts = _false_counter(model, state, batch, requesters)
        for cardinality in range(len(requesters) - 1, -1, -1):
            keeps, masks, ones = _plan(requesters, cardinality, code)
            lanes = array(code, _evaluation_order(masks))
            counts = false_counts(lanes, ones)
            if lanes != masks:  # counted in another order: put back in name order
                counts = list(map(dict(zip(lanes, counts)).__getitem__, masks))
            evaluated = tuple(zip(keeps, counts))
            best = max(counts)
            frontier = tuple(itertools.compress(keeps, map(best.__eq__, counts)))
            representative = rng.choice(frontier)
            success = best == total
            rounds.append(OracleRound(cardinality, evaluated, frontier, representative, success))
            if success:
                chosen = representative
                break
    except KeyError as exc:  # an evaluator read a variable the state leaves unassigned
        raise unassigned(exc.args[0]) from None
    blocked = tuple(a for a in requesters if a not in chosen)
    allowed = tuple(r for r in batch if r.agent in chosen)
    undone = {r.variable: state.valuation[r.variable] for r in batch if r.agent not in chosen}
    after = initial.simulated_state.with_updates(undone)  # the blocked writes reset
    return BlockReport("nondeterministic", blocked, allowed, tuple(rounds), after)


def brute_force_min_block(model: Model, state: SystemState,
                          batch: Sequence[ActionRequest]) -> BlockReport:
    """Exhaustively find a smallest blocked set keeping every formula false.

    Among minimum-size solutions returns the lexicographically least blocked
    tuple. Exponential in the requester count; capped at 16 requesters.
    """
    batch = check_batch(model, batch)
    requesters = _requesters(model, batch)
    for keep_size in range(len(requesters), -1, -1):
        winners = []  # (blocked, restricted batch, state after it)
        for keep in itertools.combinations(requesters, keep_size):
            restricted = tuple(r for r in batch if r.agent in keep)
            after = apply_actions(state, restricted)
            if is_secure(model, after):
                winners.append((tuple(sorted(set(requesters).difference(keep))), restricted, after))
        if winners:
            blocked, allowed, after = min(winners)  # blocked tuples differ: they decide
            return BlockReport("brute_force", blocked, allowed, (), after)
    raise PreconditionError(
        "no blocked set keeps every critical formula false; the start is insecure"
    )
