"""Per-layer tracing for the traced benchmark run.

The program has no timing hooks of its own, so the tracer wraps the public
functions of each module from outside. A wrapped function is patched in
every module of the package that holds it, because modules look names up in
their own globals (``coalguard.blocking.simulate`` as well as
``coalguard.engine.simulate``); methods are patched on their class. Each
call records a span (name, start, end, parent span, op id) and adds its
self time (duration minus the time covered by child spans) and any counts
its arguments or result carry. Counts, calls and self time are kept for
every call; span records are kept in memory up to a cap and written out
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from coalguard.engine import ActionQueue

# Span name -> (module, attribute) of the public function it wraps. A module
# of None means "coalguard.engine.ActionQueue" (a method).
WRAPPED = {
    "scenario.load": ("scenario", "scenario_from_mapping"),
    "formula.parse": ("formula", "parse_formula"),
    "model.validate": ("model", "validate_model"),
    "engine.queue_push": (None, "push"),
    "engine.queue_take": (None, "take_batch_excluding"),
    "engine.tick": ("engine", "tick"),
    "engine.apply": ("engine", "apply_actions"),
    "engine.simulate": ("engine", "simulate"),
    "model.is_secure": ("model", "is_secure"),
    "formula.eval": ("formula", "eval_formula"),
    "blocking.greedy": ("blocking", "greedy_block"),
    "blocking.matrix": ("blocking", "build_matrix"),
    "blocking.rank": ("blocking", "rank_agents"),
    "blocking.oracle": ("blocking", "nondet_block"),
    "analysis.state_graph": ("analysis", "build_state_graph"),
    "analysis.connected": ("analysis", "is_connected"),
    "analysis.audit": ("analysis", "audit_vulnerabilities"),
    "model.diamond": ("model", "diamond_holds"),
    "formula.horn": ("formula", "find_horn_labeling"),
    "scenario.trace": ("scenario", "trace_line"),
}

# Reported per-layer metric -> (kind, span or counter name). "self" is the
# summed self time of a span in seconds, "calls" its call count, "count" a
# counter fed by the hooks below.
METRICS = {
    "scenario.load_s": ("self", "scenario.load"),
    "formula.parse_s": ("self", "formula.parse"),
    "model.validate_s": ("self", "model.validate"),
    "engine.queue_push_s": ("self", "engine.queue_push"),
    "engine.queue_push_calls": ("calls", "engine.queue_push"),
    "engine.queue_take_s": ("self", "engine.queue_take"),
    "engine.dropped_requests": ("count", "dropped_requests"),
    "engine.tick_self_s": ("self", "engine.tick"),
    "engine.apply_s": ("self", "engine.apply"),
    "engine.simulate_s": ("self", "engine.simulate"),
    "engine.simulate_calls": ("calls", "engine.simulate"),
    "model.is_secure_s": ("self", "model.is_secure"),
    "model.is_secure_calls": ("calls", "model.is_secure"),
    "formula.eval_s": ("self", "formula.eval"),
    "formula.eval_calls": ("calls", "formula.eval"),
    "blocking.greedy_s": ("self", "blocking.greedy"),
    "blocking.greedy_iterations": ("count", "greedy_iterations"),
    "blocking.matrix_s": ("self", "blocking.matrix"),
    "blocking.matrix_cells": ("count", "matrix_cells"),
    "blocking.rank_s": ("self", "blocking.rank"),
    "blocking.oracle_s": ("self", "blocking.oracle"),
    "blocking.oracle_rounds": ("count", "oracle_rounds"),
    "blocking.oracle_candidates": ("count", "oracle_candidates"),
    "analysis.state_graph_s": ("self", "analysis.state_graph"),
    "analysis.valuations": ("count", "valuations"),
    "analysis.connected_s": ("self", "analysis.connected"),
    "analysis.audit_s": ("self", "analysis.audit"),
    "model.diamond_s": ("self", "model.diamond"),
    "model.diamond_calls": ("calls", "model.diamond"),
    "formula.horn_s": ("self", "formula.horn"),
    "scenario.trace_s": ("self", "scenario.trace"),
    "scenario.trace_bytes": ("count", "trace_bytes"),
}


def _count_take(counts, args, result):
    counts["dropped_requests"] += len(result[1])


def _count_greedy(counts, args, result):
    counts["greedy_iterations"] += len(result.iterations)


def _count_matrix(counts, args, result):
    counts["matrix_cells"] += len(result.formula_indices) * len(result.agents)


def _count_oracle(counts, args, result):
    total = len(args[0].critical_formulas)
    counts["oracle_rounds"] += len(result.iterations)
    for item in result.iterations:
        counts["oracle_candidates"] += len(item.evaluated)
        counts["oracle_successes"] += sum(1 for _, false in item.evaluated if false == total)


def _count_state_graph(counts, args, result):
    counts["valuations"] += result.num_vertices


def _count_trace(counts, args, result):
    counts["trace_bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "engine.queue_take": _count_take,
    "blocking.greedy": _count_greedy,
    "blocking.matrix": _count_matrix,
    "blocking.oracle": _count_oracle,
    "analysis.state_graph": _count_state_graph,
    "scenario.trace": _count_trace,
}


class Tracer:
    """Spans, self time, call counts and counters for the wrapped functions.

    Use as a context manager: entering patches the package, leaving restores
    every patched attribute.
    """

    def __init__(self, span_cap: int = 200_000):
        self.names = list(WRAPPED) + ["bench.setup", "bench.op"]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts: Counter = Counter()  # fed by HOOKS
        # kept spans: name id, start ns, end ns, parent index (-1 at the root), op id
        self.spans = array("q")
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.op_id = -1
        self._stack: list[list] = []  # [span index or -1, start ns, child ns]
        self._suspended = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self) -> list:
        index = -1
        if len(self.spans) // 5 < self.span_cap:
            index = len(self.spans) // 5
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.extend((0, 0, 0, parent, self.op_id))
        else:
            self.spans_dropped += 1
        frame = [index, 0, 0]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _leave(self, name_id: int, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[1]
        self.self_ns[name_id] += duration - frame[2]
        self.calls[name_id] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if frame[0] >= 0:
            base = frame[0] * 5
            self.spans[base] = name_id
            self.spans[base + 1] = frame[1]
            self.spans[base + 2] = end

    @contextlib.contextmanager
    def span(self, name: str, op_id: int):
        """A span opened by the benchmark itself (one set-up or one op)."""
        self.op_id = op_id
        frame = self._enter()
        try:
            yield
        finally:
            self._leave(self._ids[name], frame)

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside (output checks) are neither timed nor counted."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name_id, frame)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "coalguard" or key.startswith("coalguard."))
        ]
        for name, (module_name, attr) in WRAPPED.items():
            if module_name is None:
                original = ActionQueue.__dict__[attr]
                self._patch(ActionQueue, attr, self._wrap(name, original))
                continue
            original = getattr(sys.modules[f"coalguard.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every reported per-layer metric's running total."""
        values = {}
        for metric, (kind, key) in METRICS.items():
            if kind == "self":
                values[metric] = self.self_ns[self._ids[key]] / 1e9
            elif kind == "calls":
                values[metric] = self.calls[self._ids[key]]
            else:
                values[metric] = self.counts[key]
        values["oracle_successes"] = self.counts["oracle_successes"]
        return values

    def write_spans(self, path: Path) -> int:
        """Write kept spans as CSV rows: name,start_ns,end_ns,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        with path.open("w", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent,op\n")
            for base in range(0, len(spans), 5):
                handle.write(
                    f"{self.names[spans[base]]},{spans[base + 1]},{spans[base + 2]},"
                    f"{spans[base + 3]},{spans[base + 4]}\n"
                )
        return len(spans) // 5
