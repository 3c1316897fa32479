"""Synthetic workload for timing the greedy blocker.

The cycle instance couples n agents, n variables, and n two-variable
formulas x_i AND x_{i+1 mod n}, all false at the start, with every agent
requesting its variable true. Securing a tick must block about half the
agents (no two neighbours on the cycle may both write), which forces the
greedy loop through ~n/2 iterations of n-row simulations — a deliberately
adversarial load whose growth trend the bench command reports.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

from .blocking import greedy_block
from .errors import PreconditionError, require
from .formula import Var
from .model import ActionRequest, Model, SystemState

DEFAULT_SIZES = (25, 50, 100, 200)


def build_cycle_instance(
    size: int, seed: Optional[int] = None
) -> tuple[Model, SystemState, tuple[ActionRequest, ...]]:
    """One agent and one variable per index; formula i joins x_i and x_{i+1}."""
    if type(size) is not int or size < 3:  # a bool is no size
        raise PreconditionError("cycle instances need at least 3 positions")
    require(seed, (int, type(None)), "seed")
    agents = tuple(f"a{i + 1}" for i in range(size))
    variables = tuple(f"x{i + 1}" for i in range(size))
    partition = {agent: (variable,) for agent, variable in zip(agents, variables)}
    formulas = tuple(Var(variables[i]) & Var(variables[(i + 1) % size]) for i in range(size))
    model = Model(agents, variables, partition, formulas)
    state = SystemState(0, {v: False for v in variables})
    order = list(range(size))
    if seed is not None:
        random.Random(seed).shuffle(order)
    batch = tuple(ActionRequest(agents[i], variables[i], True, arrival)
                  for arrival, i in enumerate(order))
    return model, state, batch


@dataclass(frozen=True)
class BenchRow:
    size: int
    seconds: float
    iterations: int
    blocked: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    slope: float


def fit_loglog_slope(sizes: Sequence[int], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(seconds) against log(size), one per size."""
    sizes = [require(size, int, "a size") for size in require(sizes, Iterable, "sizes")]
    seconds = [require(t, (int, float), "a time") for t in require(seconds, Iterable, "seconds")]
    if len(set(sizes)) < 2:
        raise PreconditionError("need at least two distinct sizes")
    if min(sizes) < 1 or len(seconds) != len(sizes):
        raise PreconditionError(f"need one time per size, every size positive: {sizes}, {seconds}")
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-9)) for t in seconds]
    return statistics.linear_regression(xs, ys).slope


def run_bench(sizes: Sequence[int] = DEFAULT_SIZES, seed: int = 0) -> BenchReport:
    """Time greedy blocking on cycle instances and fit the growth slope.

    Small sizes are repeated (up to three times, stopping past one second of
    accumulated work) and the minimum is kept, to damp scheduler noise.
    """
    rows = []
    for size in require(sizes, Iterable, "sizes"):
        model, state, batch = build_cycle_instance(size, seed)
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            report = greedy_block(model, state, batch)
            timings.append(time.perf_counter() - start)
            if sum(timings) > 1.0:
                break
        rows.append(BenchRow(size, min(timings), len(report.iterations), len(report.blocked)))
    slope = fit_loglog_slope([r.size for r in rows], [r.seconds for r in rows])
    return BenchReport(tuple(rows), slope)
