"""Output checks and decision digests.

Checks run outside the timed region. Each returns a list of problems; an
empty list means the op's output is correct. The digest hashes the decisions
of one pass (who was blocked, what ran, the final valuation, the analysis
verdicts) without depending on the trace's JSON schema.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from coalguard import bench, blocking, engine, formula


class Digest:
    """Running SHA-256 over decision tuples."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *items) -> None:
        self._hash.update(json.dumps(items, separators=(",", ":")).encode("utf-8"))
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def guard_decision(record) -> tuple:
    """What a tick decided, independent of how the trace prints it."""
    return (
        record.tick,
        list(record.blocked),
        [r.arrival_index for r in record.executed],
    )


def check_guard_record(model, record) -> list[str]:
    problems = []
    where = f"tick {record.tick}"
    if not record.secure:
        problems.append(f"{where}: record is not secure")
    if any(formula.eval_formula(f, model, record.valuation) for f in model.critical_formulas):
        problems.append(f"{where}: a critical formula holds after the tick")
    blocked = set(record.blocked)
    if not blocked <= {r.agent for r in record.batch}:
        problems.append(f"{where}: blocked an agent with no request in the batch")
    expected = tuple(r for r in record.batch if r.agent not in blocked)
    if record.executed != expected:
        problems.append(f"{where}: executed is not the batch minus the blocked agents' requests")
    return problems


def check_minimum_block(model, state, record) -> list[str]:
    """The oracle's blocked set must be as small as the brute-force optimum."""
    optimum = blocking.brute_force_min_block(model, state, record.batch)
    if len(record.blocked) != len(optimum.blocked):
        return [
            f"tick {record.tick}: blocked {len(record.blocked)} agents, "
            f"minimum is {len(optimum.blocked)}"
        ]
    return []


def analyze_decision(result) -> tuple:
    graph, full, secure, labelings, findings = result
    return (
        sum(graph.secure),
        full,
        secure,
        [None if lab is None else sorted(lab.flipped) for lab in labelings],
        [[item.formula_index, list(item.coalition)] for item in findings],
    )


def check_analysis(scenario, result, samples: int = 64) -> list[str]:
    graph, _, _, _, findings = result
    model, state = scenario.model, scenario.initial_state
    problems = []
    step = max(1, graph.num_vertices // samples)
    for index in range(0, graph.num_vertices, step):
        valuation = graph.valuation_of(index)
        secure = not any(formula.eval_formula(f, model, valuation) for f in model.critical_formulas)
        if graph.secure[index] != secure:
            problems.append(f"vertex {index}: secure flag disagrees with eval_formula")
    for item in findings:
        trial = state.with_updates(item.witness.assignment)
        if not formula.eval_formula(item.formula, model, trial):
            problems.append(f"formula {item.formula_index}: witness {item.coalition} fails")
    for a, b in itertools.permutations(findings, 2):
        if a.formula_index == b.formula_index and set(a.coalition) < set(b.coalition):
            problems.append(f"formula {a.formula_index}: {b.coalition} is not minimal")
    return problems


def check_cycle_counters(run_traced) -> list[str]:
    """Reproduce known machine-independent counts of the cycle instance.

    ``run_traced(fn)`` runs ``fn`` under a fresh tracer and returns its
    counter snapshot. On the cycle instance of ``coalguard.bench``, the
    oracle evaluates 162 candidate keep-sets at n = 8 and 637 at n = 10, and
    greedy blocks 57 agents at n = 100 (seed 0) where 50 suffice.
    """
    problems = []
    for size, expected in ((8, 162), (10, 637)):
        model, state, batch = bench.build_cycle_instance(size)
        counts = run_traced(lambda: blocking.nondet_block(model, state, batch, seed=0))
        if counts["blocking.oracle_candidates"] != expected:
            problems.append(
                f"oracle at n={size}: {counts['blocking.oracle_candidates']} candidates, "
                f"expected {expected}"
            )
    model, state, batch = bench.build_cycle_instance(100, seed=0)
    counts = run_traced(lambda: blocking.greedy_block(model, state, batch))
    if counts["blocking.greedy_iterations"] != 57:
        blocked = counts["blocking.greedy_iterations"]
        problems.append(f"greedy at n=100: {blocked} blocked, expected 57")
    # 50 is optimal: the 50 disjoint formulas x1&x2, x3&x4, ... each need one
    # block, and blocking every second agent keeps everything false.
    every_second = {f"a{i}" for i in range(2, 101, 2)}
    kept = tuple(r for r in batch if r.agent not in every_second)
    if engine.simulate(model, state, kept).became_true:
        problems.append("greedy at n=100: blocking every second agent does not secure the cycle")
    return problems
