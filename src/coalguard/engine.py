"""Discrete-clock action processing.

Agents ask for single-variable writes; requests wait in a FIFO queue. Each
tick takes at most n requests (n defaults to the number of critical
formulas), lets the configured blocking policy veto some requesters, applies
the surviving writes in arrival order, and records what happened.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

from .blocking import BlockReport, check_tie_break, greedy_block, nondet_block
from .errors import CoalGuardError, PreconditionError, require
from .model import ActionRequest, CheckedBatch, Model, SystemState, apply_actions, check_request
from .model import check_batch, is_secure, simulate  # callers still read the batch layer here

POLICIES = ("none", "greedy", "nondeterministic")


class _Buffer(list):
    """Requests checked against ``model`` unless it is None: a queue keeps them, pushes append."""


@dataclass(frozen=True, eq=False)
class ActionQueue:
    """FIFO queue of requests, validated against the model's partition.

    ``ActionQueue(model, requests)`` checks each request once, as enqueueing
    would, into a buffer of its own. The views it returns are immutable: the
    pending requests are ``buffer[start:end]``, so taking a batch advances
    ``start`` instead of copying the rest of the queue, and a push onto a view
    ending where its buffer ends appends in place (amortised O(1)); other
    pushes copy and check it. No view sees a later push; no view of a buffer
    checked for its model (past its bounds), nor a CheckedBatch taken from one, is checked again.
    ``requests``, ``len``, iteration and equality all see only what is pending.
    """

    model: Model
    buffer: Sequence[ActionRequest] = ()
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self):
        if (type(self.buffer) is not _Buffer or self.buffer.model is not self.model
                or self.end is None):  # else a view of a buffer checked for this model
            require(self.model, Model, "model")
            try:
                buffer = _Buffer(itertools.islice(self.buffer, self.start, self.end))
            except (TypeError, ValueError):
                kind = type(self.buffer).__name__
                raise PreconditionError(f"queue requests must be iterable, not {kind}") from None
            try:
                for index, request in enumerate(buffer):
                    check_request(self.model, request, buffer[index - 1] if index else None)
            except CoalGuardError as exc:  # name the request's position
                exc.args = (f"queue[{index}]: {exc}",)
                raise
            buffer.model = self.model
            vars(self).update(buffer=buffer, start=0, end=len(buffer))
        elif not (type(self.start) is type(self.end) is int
                  and 0 <= self.start <= self.end <= len(self.buffer)):  # a bool is no bound
            raise PreconditionError(f"view {self.start!r}:{self.end!r} not in 0:{len(self.buffer)}")

    @property
    def requests(self) -> tuple[ActionRequest, ...]:
        return tuple(self.buffer[self.start:self.end])

    def enqueue(self, request: ActionRequest) -> "ActionQueue":
        buffer, start, end = self.buffer, self.start, self.end
        check_request(self.model, request, buffer[end - 1] if end else None)
        if end == len(buffer) and type(buffer) is _Buffer:
            buffer.append(request)
            return ActionQueue(self.model, buffer, start, end + 1)
        return ActionQueue(self.model, [*buffer[start:end], request])

    def push(self, agent: str, variable: str, new_value: bool) -> "ActionQueue":
        next_index = self.buffer[self.end - 1].arrival_index + 1 if self.end else 0
        return self.enqueue(ActionRequest(agent, variable, new_value, next_index))

    def take_batch_excluding(
        self, n: int, blocked: Iterable[str]
    ) -> tuple[tuple[ActionRequest, ...], tuple[ActionRequest, ...], "ActionQueue"]:
        """Fill a batch of up to n requests, discarding blocked agents' requests.

        A request is considered once, when it reaches the front; if its owner
        is blocked at that moment it is consumed without effect. Returns
        (batch, dropped, remaining). An n that is not an int, or a blocked that
        is not an iterable of agents, raises PreconditionError.
        """
        if type(n) is not int:  # checked inline, as tick takes a batch every tick
            raise PreconditionError(f"n must be an int, not {n!r}")
        try:
            blocked = set(blocked)
        except TypeError:
            raise PreconditionError(f"blocked must be an iterable of agents: {blocked!r}") from None
        batch: list[ActionRequest] = []
        dropped: list[ActionRequest] = []
        buffer, index, end = self.buffer, self.start, self.end
        while index < end and len(batch) < n:
            request = buffer[index]
            (dropped if request.agent in blocked else batch).append(request)
            index += 1
        taken = CheckedBatch(batch)
        taken.model = self.model
        return taken, tuple(dropped), ActionQueue(self.model, buffer, index, end)

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
    this tick only. Arguments of the wrong kind raise PreconditionError."""

    def schedule(self, agents: Sequence[str], current_tick: int, rng: random.Random) -> dict:
        return {}


@dataclass(frozen=True)
class DropTick(BlockingStrategy):
    """Remove the agent's requests for this tick; it may ask again next tick."""


@dataclass(frozen=True)
class BlockUntilTick(BlockingStrategy):
    release_tick: int

    def __post_init__(self):
        require(self.release_tick, int, "release tick")

    def schedule(self, agents, current_tick, rng):
        try:  # caught, not checked, so that a tick pays nothing
            return {agent: self.release_tick for agent in agents}
        except TypeError:
            raise PreconditionError(f"cannot schedule agents {agents!r}") from None


@dataclass(frozen=True)
class BlockForRandomInterval(BlockingStrategy):
    """Block each agent for a uniform random number of ticks in [low, high]."""

    low: int
    high: int
    seed: Optional[int] = None

    def __post_init__(self):
        require(self.low, int, "interval low")
        require(self.high, int, "interval high")
        require(self.seed, (int, type(None)), "interval seed")
        if self.low < 0 or self.high < self.low:
            raise PreconditionError("interval must satisfy 0 <= low <= high")

    def schedule(self, agents, current_tick, rng):
        # The veto itself covered tick current_tick + 1; the draw adds that
        # many further ticks before the agent's requests are considered again.
        try:
            return {agent: current_tick + 2 + rng.randint(self.low, self.high) for agent in agents}
        except (AttributeError, TypeError):  # caught, as in BlockUntilTick
            raise PreconditionError(f"cannot schedule {agents!r} from {current_tick!r}") from None


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
        check_tie_break(self.tie_break)
        require(self.blocking_strategy, BlockingStrategy, "blocking_strategy")
        require(self.random_seed, int, "random_seed")


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


def _start(model, state, queue, config, blocked_registry=None, rng=None, strategy_rng=None):
    """Check tick's and run_ticks' arguments; return the registry as a mapping,
    the policy's generator (rng, else Random(config.random_seed)) and the strategy's
    (strategy_rng, else Random(its seed) if it has one, else the policy's)."""
    require(model, Model, "model")
    require(state, SystemState, "state")
    require(config, EngineConfig, "config")
    require(queue, ActionQueue, "queue")
    if queue.model is not model and queue.model != model:
        raise PreconditionError("the queue was built for another model")
    registry = require(blocked_registry, (Mapping, type(None)), "blocked_registry") or {}
    for generator in (rng, strategy_rng):
        if generator is not None and not isinstance(generator, random.Random):
            raise PreconditionError(f"rng and strategy_rng must be random.Randoms: {generator!r}")
    for release in registry.values():
        require(release, int, "a blocked_registry tick")
    rng = rng if rng is not None else random.Random(config.random_seed)
    if strategy_rng is None:
        own_seed = getattr(config.blocking_strategy, "seed", None)
        strategy_rng = random.Random(own_seed) if own_seed is not None else rng
    return registry, rng, strategy_rng


def tick(
    model: Model,
    state: SystemState,
    queue: ActionQueue,
    config: EngineConfig,
    blocked_registry: Optional[Mapping[str, int]] = None,
    rng: Optional[random.Random] = None,
    strategy_rng: Optional[random.Random] = None,
) -> TickOutcome:
    """Advance the system by one tick under the configured policy: alone, run_ticks'
    first tick; passed the last outcome's registry and the same generators, its next."""
    start = _start(model, state, queue, config, blocked_registry, rng, strategy_rng)
    return _tick(model, state, queue, config, *start)


def _tick(model, state, queue, config, blocked_registry, rng, strategy_rng) -> TickOutcome:
    """tick on checked arguments, with the rngs drawn and the registry a mapping."""
    forming = state.tick + 1  # registry entries name the first tick an agent may act in
    registry = {agent: release for agent, release in blocked_registry.items() if release > forming}
    cap = config.max_actions_per_tick  # "auto": one request per critical formula
    batch, _, remaining = queue.take_batch_excluding(
        len(model.critical_formulas) if cap == "auto" else cap, registry)

    if config.policy == "none":
        report = BlockReport("none", (), batch, (), apply_actions(state, batch))
    elif config.policy == "greedy":
        report = greedy_block(model, state, batch, tie_break=config.tie_break)
    else:
        report = nondet_block(model, state, batch, rng=rng)

    new_state = report.state
    registry.update(config.blocking_strategy.schedule(report.blocked, state.tick, strategy_rng))
    record = TickRecord(new_state.tick, batch, report.iterations, report.blocked,
                        report.allowed_batch, new_state.valuation, is_secure(model, new_state))
    return TickOutcome(new_state, remaining, registry, record)


@dataclass
class RunResult:
    final_state: SystemState
    queue: ActionQueue
    records: list[TickRecord]

    @property
    def all_secure(self) -> bool:
        return all(record.secure for record in self.records)


def run_ticks(model: Model, state: SystemState, queue: ActionQueue, config: EngineConfig,
              ticks: int) -> RunResult:
    """Run a fixed number of ticks, threading queue, registry, and RNG state."""
    registry, rng, strategy_rng = _start(model, state, queue, config)
    if type(ticks) is not int or ticks < 0:  # a bool is no tick count
        raise PreconditionError(f"ticks must be a non-negative int, not {ticks!r}")
    records = []
    for _ in range(ticks):
        outcome = _tick(model, state, queue, config, registry, rng, strategy_rng)
        state, queue, registry = outcome.state, outcome.queue, outcome.registry
        records.append(outcome.record)
    return RunResult(state, queue, records)
