"""Per-tick blocking policies that keep every critical formula false.

Both policies simulate the pending batch first. The greedy policy repeatedly
blocks the requester whose variables touch the most would-flip formulas; the
nondeterministic policy searches whole subsets of the requesters, keeping as
many of them as possible, and draws among ties from a seeded generator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def rank_agents(
    matrix: BlockingMatrix,
    tie_break: str = "fifo",
    batch: Sequence[ActionRequest] = (),
) -> tuple[str, ...]:
    """Columns sorted by descending counter.

    Ties fall to the agent appearing earliest in the batch, then to the
    lexicographically smaller name; tie_break="lex" skips the batch position.
    """
    if not matrix.agents:
        raise PreconditionError("empty blocking matrix")
    first_position = {}
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

    Each round re-simulates the surviving batch from the same state, so the
    loop also catches formulas that only become reachable once other writes
    are vetoed. Terminates after at most one round per requester.
    """
    blocked: list[str] = []
    iterations: list[GreedyIteration] = []
    current = tuple(batch)
    while True:
        report = simulate(model, state, current)
        if not report.became_true:
            break
        matrix = build_matrix(model, report)
        ranking = rank_agents(matrix, tie_break, current)
        top = ranking[0]
        blocked.append(top)
        iterations.append(
            GreedyIteration(report.became_true, report.implicated_agents, matrix, ranking, top)
        )
        current = tuple(r for r in current if r.agent != top)
    return BlockReport("greedy", tuple(blocked), current, tuple(iterations))


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


def _evaluate_candidates(
    model: Model,
    state: SystemState,
    batch: Sequence[ActionRequest],
    candidates: Iterable[tuple[str, ...]],
) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for keep in _evaluation_order(list(candidates)):
        members = set(keep)
        restricted = tuple(r for r in batch if r.agent in members)
        counts[keep] = _false_count(model, state, restricted)
    return counts


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
    rounds: list[OracleRound] = []
    chosen: Optional[tuple[str, ...]] = None
    for cardinality in range(len(requesters) - 1, -1, -1):
        candidates = [tuple(c) for c in itertools.combinations(requesters, cardinality)]
        counts = _evaluate_candidates(model, state, batch, candidates)
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
