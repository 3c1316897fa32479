"""Discrete-clock action processing.

Agents ask for single-variable writes; requests wait in a FIFO queue. Each
tick takes at most n requests (n defaults to the number of critical
formulas), lets the configured blocking policy veto some requesters, applies
the surviving writes in arrival order, and records what happened.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CoalGuardError, OwnershipViolationError, PreconditionError, QueueOrderError
from .model import Model, SystemState, check_state, is_secure, unassigned

POLICIES = ("none", "greedy", "nondeterministic")
TIE_BREAKS = ("fifo", "lex")


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
            f"{request.agent!r} does not control {request.variable!r} "
            f"(owned by {owner!r})"
        )
    if not isinstance(request.new_value, bool):
        raise PreconditionError(f"new value must be a bool, not {request.new_value!r}")
    if type(request.arrival_index) is not int:  # a bool is no arrival index
        raise QueueOrderError(f"arrival index must be an int, not {request.arrival_index!r}")
    if last is not None and request.arrival_index <= last.arrival_index:
        raise QueueOrderError(
            f"arrival index {request.arrival_index} not after {last.arrival_index}"
        )


def check_batch(model: Model, batch: Iterable[ActionRequest]) -> tuple[ActionRequest, ...]:
    """The batch as a tuple of ActionRequests whose agents own their variables;
    a request that is not owned raises what check_request, and enqueueing, would."""
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


class _Buffer(list):
    """A request list a queue made and checked itself, so pushes may append to it."""


@dataclass(frozen=True, eq=False)
class ActionQueue:
    """FIFO queue of requests, validated against the model's partition.

    ``ActionQueue(model, requests)`` checks each request once, as enqueueing
    would, into a buffer of its own. The views it returns are immutable: the
    pending requests are ``buffer[start:end]``, so taking a batch advances
    ``start`` instead of copying the rest of the queue, and a push onto a view
    ending where its buffer ends appends in place (amortised O(1)); other
    pushes copy. No view sees a later push, and none is checked again.
    ``requests``, ``len``, iteration and equality all see only what is pending.
    """

    model: Model
    buffer: Sequence[ActionRequest] = ()
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self):
        if type(self.buffer) is not _Buffer:  # outside requests: check them once
            try:
                buffer = _Buffer(itertools.islice(self.buffer, self.start, self.end))
            except (TypeError, ValueError):
                kind = type(self.buffer).__name__
                raise PreconditionError(f"queue requests must be iterable, not {kind}") from None
            try:
                for index, request in enumerate(buffer):
                    if not isinstance(request, ActionRequest):
                        raise PreconditionError(f"not an ActionRequest: {request!r}")
                    check_request(self.model, request, buffer[index - 1] if index else None)
            except CoalGuardError as exc:  # name the request's position
                exc.args = (f"queue[{index}]: {exc}",)
                raise
            object.__setattr__(self, "buffer", buffer)
            object.__setattr__(self, "start", 0)
            object.__setattr__(self, "end", len(buffer))
        elif self.end is None:
            object.__setattr__(self, "end", len(self.buffer))

    @property
    def requests(self) -> tuple[ActionRequest, ...]:
        return tuple(self.buffer[self.start:self.end])

    def enqueue(self, request: ActionRequest) -> "ActionQueue":
        buffer, start, end = self.buffer, self.start, self.end
        check_request(self.model, request, buffer[end - 1] if end > start else None)
        if end == len(buffer) and type(buffer) is _Buffer:
            buffer.append(request)
            if len(buffer) == end + 1:  # else another push on this view appended first
                return ActionQueue(self.model, buffer, start, end + 1)
        return ActionQueue(self.model, _Buffer([*buffer[start:end], request]))

    def push(self, agent: str, variable: str, new_value: bool) -> "ActionQueue":
        next_index = self.buffer[self.end - 1].arrival_index + 1 if len(self) else 0
        return self.enqueue(ActionRequest(agent, variable, new_value, next_index))

    def take_batch_excluding(
        self, n: int, blocked: Iterable[str]
    ) -> tuple[tuple[ActionRequest, ...], tuple[ActionRequest, ...], "ActionQueue"]:
        """Fill a batch of up to n requests, discarding blocked agents' requests.

        A request is considered once, when it reaches the front; if its owner
        is blocked at that moment it is consumed without effect. Returns
        (batch, dropped, remaining).
        """
        blocked = set(blocked)
        batch: list[ActionRequest] = []
        dropped: list[ActionRequest] = []
        buffer, index, end = self.buffer, self.start, self.end
        while index < end and len(batch) < n:
            request = buffer[index]
            (dropped if request.agent in blocked else batch).append(request)
            index += 1
        return tuple(batch), tuple(dropped), ActionQueue(self.model, buffer, index, end)

    def __len__(self) -> int:
        return self.end - self.start

    def __iter__(self):
        return itertools.islice(self.buffer, self.start, self.end)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionQueue):
            return NotImplemented
        return self.model == other.model and self.requests == other.requests


# ---------------------------------------------------------------------------
# blocking strategies (what "blocked" means for future ticks)


class BlockingStrategy:
    """How long a veto lasts. ``schedule`` maps blocked agents to the first
    tick at which they may act again; an empty mapping means the veto covers
    this tick only."""

    def schedule(self, agents: Sequence[str], current_tick: int, rng: random.Random) -> dict:
        return {}


@dataclass(frozen=True)
class DropTick(BlockingStrategy):
    """Remove the agent's requests for this tick; it may ask again next tick."""


@dataclass(frozen=True)
class BlockUntilTick(BlockingStrategy):
    release_tick: int

    def __post_init__(self):
        if type(self.release_tick) is not int:  # a bool is no tick
            raise PreconditionError(f"release tick must be an int, not {self.release_tick!r}")

    def schedule(self, agents, current_tick, rng):
        return {agent: self.release_tick for agent in agents}


@dataclass(frozen=True)
class BlockForRandomInterval(BlockingStrategy):
    """Block each agent for a uniform random number of ticks in [low, high]."""

    low: int
    high: int
    seed: Optional[int] = None

    def __post_init__(self):
        if type(self.low) is not int or type(self.high) is not int:  # a bool is no bound
            raise PreconditionError(f"interval bounds must be ints: {self.low!r}, {self.high!r}")
        if self.low < 0 or self.high < self.low:
            raise PreconditionError("interval must satisfy 0 <= low <= high")

    def schedule(self, agents, current_tick, rng):
        # The veto itself covered tick current_tick + 1; the draw adds that
        # many further ticks before the agent's requests are considered again.
        return {agent: current_tick + 2 + rng.randint(self.low, self.high) for agent in agents}


@dataclass(frozen=True)
class EngineConfig:
    max_actions_per_tick: int | str = "auto"
    policy: str = "none"
    blocking_strategy: BlockingStrategy = DropTick()
    tie_break: str = "fifo"
    random_seed: int = 0

    def __post_init__(self):
        cap = self.max_actions_per_tick
        if cap != "auto" and (not isinstance(cap, int) or isinstance(cap, bool) or cap < 1):
            raise PreconditionError("max_actions_per_tick must be a positive integer or 'auto'")
        if self.policy not in POLICIES:
            raise PreconditionError(f"policy must be one of {POLICIES}")
        if self.tie_break not in TIE_BREAKS:
            raise PreconditionError(f"tie_break must be one of {TIE_BREAKS}")
        if not isinstance(self.blocking_strategy, BlockingStrategy):
            raise PreconditionError(f"not a BlockingStrategy: {self.blocking_strategy!r}")

    def batch_size(self, model: Model) -> int:
        if self.max_actions_per_tick == "auto":
            return len(model.critical_formulas)
        return self.max_actions_per_tick


# ---------------------------------------------------------------------------
# simulation


def apply_actions(state: SystemState, batch: Sequence[ActionRequest]) -> SystemState:
    """Apply a batch in arrival order (later writes win) and advance the clock."""
    check_state(state)
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
            if not evaluators[index](before) and evaluators[index](now)
        )
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None
    requesters = {request.agent for request in batch}
    flipped = set().union(*(compiled.agents[index] for index in became))
    implicated = tuple(a for a in model.agents if a in requesters and a in flipped)
    return SimulationReport(became, implicated, after)


# ---------------------------------------------------------------------------
# ticks


@dataclass(frozen=True)
class TickRecord:
    tick: int
    batch: tuple[ActionRequest, ...]
    iterations: tuple
    blocked: tuple[str, ...]
    executed: tuple[ActionRequest, ...]
    valuation: Mapping[str, bool]
    secure: bool


@dataclass(frozen=True)
class TickOutcome:
    state: SystemState
    queue: ActionQueue
    registry: dict
    record: TickRecord


def tick(
    model: Model,
    state: SystemState,
    queue: ActionQueue,
    config: EngineConfig,
    blocked_registry: Optional[Mapping[str, int]] = None,
    rng: Optional[random.Random] = None,
    strategy_rng: Optional[random.Random] = None,
) -> TickOutcome:
    """Advance the system by one tick under the configured policy."""
    from . import blocking  # deferred: blocking builds on simulate()

    if not isinstance(config, EngineConfig):
        raise PreconditionError(f"config must be an EngineConfig, not {config!r}")
    rng = rng if rng is not None else random.Random(config.random_seed)
    strategy_rng = strategy_rng if strategy_rng is not None else rng
    forming = state.tick + 1  # registry entries name the first tick an agent may act in
    registry = {
        agent: release
        for agent, release in (blocked_registry or {}).items()
        if release > forming
    }

    batch, _, remaining = queue.take_batch_excluding(config.batch_size(model), registry)

    if config.policy == "none":
        report = blocking.BlockReport("none", (), batch, ())
    elif config.policy == "greedy":
        report = blocking.greedy_block(model, state, batch, tie_break=config.tie_break)
    else:
        report = blocking.nondet_block(model, state, batch, rng=rng)

    new_state = apply_actions(state, report.allowed_batch)
    registry.update(config.blocking_strategy.schedule(report.blocked, state.tick, strategy_rng))
    record = TickRecord(
        tick=new_state.tick,
        batch=batch,
        iterations=report.iterations,
        blocked=report.blocked,
        executed=report.allowed_batch,
        valuation=new_state.valuation,
        secure=is_secure(model, new_state),
    )
    return TickOutcome(new_state, remaining, registry, record)


@dataclass
class RunResult:
    final_state: SystemState
    queue: ActionQueue
    records: list[TickRecord]

    @property
    def all_secure(self) -> bool:
        return all(record.secure for record in self.records)


def run_ticks(
    model: Model,
    state: SystemState,
    queue: ActionQueue,
    config: EngineConfig,
    ticks: int,
) -> RunResult:
    """Run a fixed number of ticks, threading queue, registry, and RNG state."""
    if not isinstance(config, EngineConfig):
        raise PreconditionError(f"config must be an EngineConfig, not {config!r}")
    if type(ticks) is not int or ticks < 0:  # a bool is no tick count
        raise PreconditionError(f"ticks must be a non-negative int, not {ticks!r}")
    rng = random.Random(config.random_seed)
    strategy = config.blocking_strategy
    own_seed = getattr(strategy, "seed", None)
    strategy_rng = random.Random(own_seed) if own_seed is not None else rng
    registry: dict = {}
    records = []
    for _ in range(ticks):
        outcome = tick(model, state, queue, config, registry, rng, strategy_rng)
        state, queue, registry = outcome.state, outcome.queue, outcome.registry
        records.append(outcome.record)
    return RunResult(state, queue, records)
