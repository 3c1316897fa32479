"""coalguard benchmark: four seeded, closed-loop workloads.

Usage, from the repository root:

    python3 benchmark/run.py --workload guard-greedy --seed 1 --seconds 10 --trace 0

Workloads: guard-greedy, guard-stream, guard-oracle, analyze (see
workloads.py for why each exists). One process, one thread, one client: the
next op starts only when the previous one has returned. For guard-*
workloads an op is one ``engine.tick`` plus ``scenario.trace_line`` of its
record; for analyze it is one whole scenario analysed (state graph, both
connectivity checks, Horn labelling of every formula, the audit).

A run generates its input from the seed, loads it with
``scenario_from_mapping`` several times (set-up), then replays whole passes
over the loaded input while the next pass is expected to end within
``--seconds`` of wall time from the start of set-up. Every op's output is
checked outside the timed region. Op and set-up times are scaled by a
reference kernel timed between ops, which cancels the host's speed drift
(see reference.py). With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it wraps the package's public
functions and reports per-layer self time and counts instead (see
layers.py). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
# Decision digests of one pass at DEFAULT_SEED (see checks.Digest).
PINNED_DIGESTS = {
    "guard-greedy": "64e64d02cac9a7a1205b3e87b697c8953a08604204eecaf2a3b96f3aa0d5baa5",
    "guard-stream": "f0fd41efc299ba4e6c657d9fd5051a3c5118868510d9fc1c250b8e7c596c0a4b",
    "guard-oracle": "ccc6acaa8a2b040ba7b7fb8bf482cefb733d9fcd6ec9faed4e17796f44a25da4",
    "analyze": "0997f7c0f39e2bdab3b0b4b5e5a123cf2aa902548dfd0a61d7d7d0b0e51ba7ff",
}
# Ops and set-ups are timed in the thread's CPU time. Both are CPU-bound on
# one thread and never wait on I/O, so CPU time equals the wall time they
# would take on an idle host, without the intervals in which a shared host
# runs someone else on this CPU.
CLOCK_NS = time.thread_time_ns
# The run's budget is wall time, so that a run takes --seconds whatever the
# host's load.
WALL = time.perf_counter
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Set-up repeats at least 3 times and until 1.5 s is spent, at most 200 times.
SETUP_MIN_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 3, 1.5, 200


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten distinct ops of one pass
    beyond it; later passes repeat the same ops, so they add no new ones."""
    for p in TAIL_LADDER:
        if ops_per_pass * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Op(NamedTuple):
    """One op's CPU time, its input and output, or the error it raised."""

    ns: int
    subject: Any
    output: Any
    error: Optional[Exception] = None


class GuardWorkload:
    """One scenario driven tick by tick until its queue is empty."""

    def __init__(self, name, generator):
        self.name, self.generator = name, generator
        self.oracle = name == "guard-oracle"

    def mappings(self, seed):
        return [self.generator(seed)]

    def load(self, mappings):
        return [scenario_mod.scenario_from_mapping(m) for m in mappings]

    def run_pass(self, loaded, tracer):
        (scenario,) = loaded
        model, config = scenario.model, scenario.config
        # the same RNG threading as engine.run_ticks
        rng = random.Random(config.random_seed)
        own_seed = getattr(config.blocking_strategy, "seed", None)
        strategy_rng = random.Random(own_seed) if own_seed is not None else rng
        state, queue, registry = scenario.initial_state, scenario.queue, {}
        op_id = 0
        while len(queue):
            try:
                start = CLOCK_NS()
                with tracer.span("bench.op", op_id) if tracer else nullcontext():
                    outcome = engine.tick(model, state, queue, config, registry, rng, strategy_rng)
                    scenario_mod.trace_line(outcome.record)
                ns = CLOCK_NS() - start
            except CoalGuardError as exc:
                yield Op(0, (model, state), None, exc)
                return
            yield Op(ns, (model, state), outcome.record)
            state, queue, registry = outcome.state, outcome.queue, outcome.registry
            op_id += 1

    def check(self, op, first_pass):
        model, state = op.subject
        problems = checks.check_guard_record(model, op.output)
        if self.oracle and first_pass:
            problems += checks.check_minimum_block(model, state, op.output)
        return problems

    def decision(self, op):
        return checks.guard_decision(op.output)

    def end_pass(self, digest, last):
        digest.add("final", sorted(last.output.valuation.items()))

    def blocked_share(self, op):
        return len(op.output.blocked), len({r.agent for r in op.output.batch})


class AnalyzeWorkload:
    """About 40 scenarios, each analysed as one op."""

    name = "analyze"

    def mappings(self, seed):
        return workloads.analyze(seed)

    def load(self, mappings):
        return [
            scenario_mod.scenario_from_mapping(m, allow_insecure_start=True) for m in mappings
        ]

    def run_pass(self, loaded, tracer):
        for op_id, scenario in enumerate(loaded):
            try:
                start = CLOCK_NS()
                with tracer.span("bench.op", op_id) if tracer else nullcontext():
                    result = analyze_op(scenario)
                ns = CLOCK_NS() - start
            except CoalGuardError as exc:
                yield Op(0, scenario, None, exc)
                continue
            yield Op(ns, scenario, result)

    def check(self, op, first_pass):
        return checks.check_analysis(op.subject, op.output)

    def decision(self, op):
        return checks.analyze_decision(op.output)

    def end_pass(self, digest, last):
        pass

    def blocked_share(self, op):
        return None


def analyze_op(scenario):
    """Everything ``coalguard analyze`` computes for one scenario."""
    graph = analysis.build_state_graph(scenario.model)
    full = analysis.is_connected(graph)
    secure = analysis.is_connected(graph, restrict_to_secure=True)
    labelings = [formula.find_horn_labeling(f) for f in scenario.model.critical_formulas]
    findings = analysis.audit_vulnerabilities(scenario.model, scenario.initial_state)
    return graph, full, secure, labelings, findings


def make_workload(name):
    if name == "analyze":
        return AnalyzeWorkload()
    generator = {
        "guard-greedy": workloads.guard_greedy,
        "guard-stream": workloads.guard_stream,
        "guard-oracle": workloads.guard_oracle,
    }[name]
    return GuardWorkload(name, generator)


class Run:
    """Measures one workload; collects latencies, failures and problems."""

    def __init__(self, workload, seed, tracer=None):
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.passes: list[list[float]] = []  # scaled op latencies in ns, one list per pass
        self.raw_passes: list[list[int]] = []  # the same as measured
        self.samples: list[int] = []  # reference kernel samples in ns
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.blocked = self.requesters = 0
        self.digests: list[str] = []
        self.ops_per_pass = 0
        self.setup_seconds: list[float] = []  # scaled
        self.raw_setup_seconds: list[float] = []
        self.setup_counts: list[dict] = []
        self.pass_counts: list[dict] = []

    def setup(self, mappings):
        """Load the input several times; the passes use the first load.

        The first load's formula objects become the keys of the package's
        value-keyed caches (``formula.vars_of``). Ops on a later load's equal
        but distinct objects would pay a deep equality test per lookup, which
        a process that loads its scenario once never does.
        """
        first = None
        speed = self.sample()
        while len(self.setup_seconds) < SETUP_MIN_REPEATS or (
            sum(self.raw_setup_seconds) < SETUP_SECONDS
            and len(self.setup_seconds) < SETUP_MAX_REPEATS
        ):
            before = self.tracer.snapshot() if self.tracer else None
            start = CLOCK_NS()
            with self.tracer.span("bench.setup", -1) if self.tracer else nullcontext():
                loaded = self.workload.load(mappings)
            raw = (CLOCK_NS() - start) / 1e9
            after = self.sample()
            self.raw_setup_seconds.append(raw)
            self.setup_seconds.append(reference.scale([raw], [(0, speed), (1, after)])[0])
            speed = after
            if self.tracer:
                self.setup_counts.append(delta(self.tracer.snapshot(), before))
            if first is None:
                first = loaded
        return first

    def sample(self) -> int:
        """Time the reference kernel, outside any timed region or span."""
        with self.tracer.suspended() if self.tracer else nullcontext():
            ns = reference.sample()
        self.samples.append(ns)
        return ns

    def one_pass(self, loaded, tracer):
        """Run a pass, traced when a tracer is given."""
        first = not self.digests
        digest = checks.Digest()
        before = tracer.snapshot() if tracer else None
        latencies = []
        marks = [(0, self.sample())]
        since_mark = 0
        ops = 0
        last = None
        for op in self.workload.run_pass(loaded, tracer):
            self.attempted += 1
            ops += 1
            if op.error is not None:
                self.failed += 1
                self.problems.append(f"op raised {type(op.error).__name__}: {op.error}")
                continue
            latencies.append(op.ns)
            since_mark += op.ns
            if since_mark >= reference.SAMPLE_EVERY_NS:
                marks.append((len(latencies), self.sample()))
                since_mark = 0
            with tracer.suspended() if tracer else nullcontext():
                found = self.workload.check(op, first)
            if found:
                self.failed += 1
                self.problems.extend(found)
            digest.add(*self.workload.decision(op))
            if first:
                share = self.workload.blocked_share(op)
                if share is not None:
                    self.blocked += share[0]
                    self.requesters += share[1]
            last = op
        if marks[-1][0] != len(latencies):
            marks.append((len(latencies), self.sample()))
        if tracer:
            self.pass_counts.append(delta(tracer.snapshot(), before))
        if last is not None:
            self.workload.end_pass(digest, last)
        self.digests.append(digest.hexdigest())
        if first:
            self.ops_per_pass = ops
        elif self.digests[-1] != self.digests[0]:
            self.problems.append(f"pass {len(self.digests)} decided differently from pass 1")
        self.raw_passes.append(latencies)
        self.passes.append(reference.scale(latencies, marks))

    def measure(self, loaded, tracer, deadline):
        """Whole passes, at least one, while the next one is expected to end
        before the wall-clock deadline. A pass's wall time includes its
        checks; the first pass checks more, so the quickest pass so far
        predicts the next."""
        quickest = math.inf
        while True:
            began = WALL()
            self.one_pass(loaded, tracer)
            quickest = min(quickest, WALL() - began)
            if WALL() + quickest > deadline or self.failed:
                return

    def check_digest(self):
        pinned = PINNED_DIGESTS[self.workload.name]
        if self.seed == DEFAULT_SEED and self.digests and self.digests[0] != pinned:
            self.problems.append(
                f"decision digest {self.digests[0][:16]} differs from the pinned {pinned[:16]}"
            )


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def op_latencies(passes: list[list[float]]) -> list[float]:
    """Each distinct op's latency: its median over the passes.

    Every pass repeats the same ops, so op i of one pass is op i of every
    other. The host's speed drifts over seconds; the median over passes
    keeps an op's time from the periods in which the host ran most of the
    run, rather than from whichever period a single pass fell into.
    Passes cut short by a failure are left out.
    """
    full = [p for p in passes if len(p) == len(passes[0])]
    return sorted(statistics.median(column) for column in zip(*full))


def timings(passes: list[list[float]], setup_seconds: list[float], p: float) -> dict:
    """The timed end-to-end metrics over the distinct ops of a pass."""
    lat = op_latencies(passes)
    return {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": percentile(lat, p) / 1e6,
    }


def end_to_end(run) -> tuple[dict, list[str]]:
    """Timings scaled to the reference host, over the distinct ops of a
    pass, each op at its median over the passes."""
    p = tail_percentile(run.ops_per_pass)
    if not (run.passes and run.passes[0]):
        raise SystemExit("error: no op completed, so there is nothing to time")
    scaled = timings(run.passes, run.setup_seconds, p)
    raw = timings(run.raw_passes, run.raw_setup_seconds, p)
    units = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {key: (value, units[key]) for key, value in scaled.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    lat = op_latencies(run.passes)
    repeats = sum(1 for latencies in run.passes if len(latencies) == len(lat))
    beyond = sum(1 for v in lat if v > percentile(lat, p))
    notes = {
        "setup_s": f"median of {len(run.setup_seconds)} set-ups",
        "ops_per_s": f"{len(lat)} distinct ops, each its median over {repeats} passes",
        "op_p50_ms": f"{len(lat)} samples",
        "op_tail_ms": f"p{p:g}; {beyond} of {len(lat)} samples beyond it",
        "peak_rss_mb": "ru_maxrss after the timed passes",
    }
    for key, value in raw.items():
        notes[key] += f"; as measured {value:.6g}"
    lines = [f"  {k:<14} {v:>14.6g} {u:<6} {notes[k]}" for k, (v, u) in metrics.items()]
    speed = reference.REFERENCE_NS / statistics.median(run.samples)
    lines.append(f"  host speed {speed:.3f} of the reference host "
                 f"(median of {len(run.samples)} reference samples); "
                 f"timings above are scaled to the reference host")
    error_rate = run.failed / max(run.attempted, 1)
    lines.append(f"  {'error_rate':<14} {error_rate:>14.6g} {'ratio':<6} "
                 f"{run.failed} of {run.attempted} ops failed")
    if run.requesters:
        share = run.blocked / run.requesters
        lines.append(f"  {'blocked_share':<14} {share:>14.6g} {'ratio':<6} "
                     f"{run.blocked} blocked of {run.requesters} requesters, one pass")
    else:
        lines.append(f"  {'blocked_share':<14} {'n/a':>14} {'ratio':<6} no blocking here")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(run, untraced_ops_per_s) -> tuple[dict, list[str]]:
    """Median self time and exact counts for one set-up plus one pass."""
    problems = []
    values = {}
    for units, what in ((run.setup_counts, "set-ups"), (run.pass_counts, "passes")):
        for key in units[0]:
            column = [u[key] for u in units]
            if isinstance(column[0], int):
                if len(set(column)) != 1:
                    problems.append(f"{key} differs between {what}: {sorted(set(column))}")
                value = column[0]
            else:
                value = statistics.median(column)
            values[key] = values.get(key, 0) + value
    successes, candidates = values.pop("oracle_successes"), values["blocking.oracle_candidates"]
    values["blocking.oracle_useful_ratio"] = successes / candidates if candidates else 0.0
    traced = statistics.median(len(lat) / (sum(lat) / 1e9) for lat in run.passes[1:])
    values["trace.overhead_ratio"] = untraced_ops_per_s / traced
    metrics = {}
    for key, value in values.items():
        if key.endswith("_s"):
            unit = "s"
        elif key.endswith("ratio"):
            unit = "ratio"
        elif key.endswith("bytes"):
            unit = "bytes"
        else:
            unit = "count"
        metrics[key] = {"value": value, "unit": unit}
    run.problems.extend(problems)
    lines = [f"  {k:<30} {m['value']:>14.6g} {m['unit']}" if isinstance(m["value"], float)
             else f"  {k:<30} {m['value']:>14} {m['unit']}" for k, m in metrics.items()]
    return metrics, lines


def traced_counts(fn) -> dict:
    with layers.Tracer(span_cap=0) as tracer:
        fn()
    return tracer.snapshot()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("guard-greedy", "guard-stream", "guard-oracle", "analyze"),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "coalguard" / "__init__.py").is_file():
        print(f"error: the coalguard sources are not at {SRC}", file=sys.stderr)
        return 2
    load_modules()

    workload = make_workload(args.workload)
    mappings = workload.mappings(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    if args.trace == 0:
        run = Run(workload, args.seed)
        deadline = WALL() + args.seconds
        loaded = run.setup(mappings)
        run.measure(loaded, None, deadline)
        metrics, lines = end_to_end(run)
    else:
        run = Run(workload, args.seed, layers.Tracer())
        run.problems += checks.check_cycle_counters(traced_counts)
        deadline = WALL() + args.seconds
        with run.tracer:
            loaded = run.setup(mappings)
        # the first pass runs untraced: it is the baseline for the overhead
        run.one_pass(loaded, None)
        untraced = len(run.passes[0]) / (sum(run.passes[0]) / 1e9)
        with run.tracer:
            run.measure(loaded, run.tracer, deadline)
        metrics, lines = per_layer(run, untraced)
        kept = run.tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        lines.append(f"  {kept} spans written to {OUT.name}/, "
                     f"{run.tracer.spans_dropped} more counted but not kept")
    run.check_digest()
    print(f"  passes {len(run.digests)}, {run.ops_per_pass} ops per pass, "
          f"decision digest {run.digests[0] if run.digests else '-'}")
    print("\n".join(lines))
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def load_modules():
    """Import the package from this checkout's sources (not an installed copy)."""
    global analysis, checks, CoalGuardError, engine, formula, layers, reference, scenario_mod
    global workloads
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from coalguard import analysis, engine, formula
    from coalguard import scenario as scenario_mod
    from coalguard.errors import CoalGuardError
    import checks
    import layers
    import reference
    import workloads


if __name__ == "__main__":
    sys.exit(main())
