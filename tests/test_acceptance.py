"""End-to-end acceptance gate: ten criteria, one verdict line each.

Each test prints (and appends to the terminal summary) a single
``criterion N: PASS/FAIL`` line with timing, then asserts. Criterion 9 is a
reported trend, not a hard gate: its line always reads PASS and a slope above
the soft bound only raises a warning.
"""

import random
import time
import warnings

from coalguard import (
    ActionRequest,
    SystemState,
    brute_force_min_block,
    build_state_graph,
    diamond_holds,
    find_horn_labeling,
    formula_from_truth_table,
    greedy_block,
    is_connected,
    load_scenario,
    nondet_block,
    parse_formula,
    run_bench,
    run_ticks,
    trace_text,
)
from coalguard import blocking as blocking_mod
from coalguard.model import Model
from coalguard.scenario import override_config

import helpers
from conftest import ACCEPTANCE_LINES, SCENARIO_DIR


def conclude(number, ok, detail):
    """Record the verdict line, then enforce it."""
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. bundled example, greedy policy: exact blocks, executions, matrix, ranking


def test_criterion_01_greedy_golden_run():
    start = time.perf_counter()
    scenario = load_scenario(SCENARIO_DIR / "example1.yaml")
    result = run_ticks(
        scenario.model, scenario.initial_state, scenario.queue, scenario.config, 1
    )
    elapsed = time.perf_counter() - start
    record = result.records[0]

    problems = []
    if record.blocked != ("a3", "a1"):
        problems.append(f"blocked {record.blocked}")
    executed = {(r.variable, r.new_value) for r in record.executed}
    if executed != {("v3", False), ("v4", False)}:
        problems.append(f"executed {sorted(executed)}")
    if not (record.secure and result.all_secure):
        problems.append("end state not secure")

    matrix = record.iterations[0].matrix
    if matrix.formula_indices != (0, 1, 2, 3):
        problems.append(f"matrix formulas {matrix.formula_indices}")
    if matrix.agents != ("a1", "a2", "a3", "a4"):
        problems.append(f"matrix agents {matrix.agents}")
    expected_marks = (
        (True, True, True, True),
        (False, True, True, True),
        (True, False, True, False),
        (True, False, True, True),
    )
    if matrix.marks != expected_marks:
        problems.append(f"matrix marks {matrix.marks}")
    if matrix.counters != (3, 2, 4, 3):
        problems.append(f"counters {matrix.counters}")
    if record.iterations[0].ranking != ("a3", "a1", "a4", "a2"):
        problems.append(f"ranking {record.iterations[0].ranking}")
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f}s")

    conclude(
        1,
        not problems,
        problems
        and "; ".join(problems)
        or f"blocked [a3, a1], executed v3=false v4=false, matrix and "
        f"ranking frozen cell-for-cell ({elapsed:.2f}s < 1s)",
    )


# ---------------------------------------------------------------------------
# 2. bundled example, oracle policy: exact frontier trace and blocked set


def test_criterion_02_oracle_golden_run():
    start = time.perf_counter()
    scenario = load_scenario(SCENARIO_DIR / "example1.yaml")
    config = override_config(scenario.config, policy="nondeterministic")
    result = run_ticks(scenario.model, scenario.initial_state, scenario.queue, config, 1)
    elapsed = time.perf_counter() - start
    record = result.records[0]
    rounds = record.iterations

    problems = []
    frontiers = [set(frozenset(s) for s in r.frontier) for r in rounds]
    expected = [
        {frozenset({"a1", "a2", "a4"}), frozenset({"a2", "a3", "a4"})},
        {frozenset({"a2", "a4"})},
    ]
    if frontiers != expected:
        problems.append(f"frontiers {frontiers}")
    if [r.success for r in rounds] != [False, True]:
        problems.append(f"success flags {[r.success for r in rounds]}")
    if set(record.blocked) != {"a1", "a3"}:
        problems.append(f"blocked {record.blocked}")
    if not record.secure:
        problems.append("end state not secure")
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f}s")

    conclude(
        2,
        not problems,
        problems
        and "; ".join(problems)
        or f"frontier {{a1,a2,a4}},{{a2,a3,a4}} then {{a2,a4}}, blocked "
        f"{{a1, a3}} ({elapsed:.2f}s < 1s)",
    )


# ---------------------------------------------------------------------------
# 3. soundness: 500 random secure-start scenarios, both policies stay secure


def test_criterion_03_soundness_suite():
    rng = random.Random(20260303)
    start = time.perf_counter()
    failures = []
    for i in range(500):
        model, state, batch = helpers.random_scenario(rng)
        report = greedy_block(model, state, batch)
        if not helpers.stays_secure(model, state, batch, report.blocked):
            failures.append(("greedy", i))
        report = nondet_block(model, state, batch, seed=i)
        if not helpers.stays_secure(model, state, batch, report.blocked):
            failures.append(("oracle", i))
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 60.0
    conclude(
        3,
        ok,
        failures
        and f"insecure outcomes: {failures[:5]}"
        or f"500/500 scenarios secure after greedy and after oracle blocking "
        f"({elapsed:.1f}s < 60s)",
    )


# ---------------------------------------------------------------------------
# 4. optimality: oracle blocking matches the brute-force minimum, greedy never
#    beats it, and the bundled gap scenario shows greedy strictly worse


def test_criterion_04_optimality_suite():
    rng = random.Random(20260404)
    start = time.perf_counter()
    failures = []
    for i in range(200):
        model, state, batch = helpers.random_scenario(rng)
        exact = brute_force_min_block(model, state, batch)
        nd = nondet_block(model, state, batch, seed=i)
        greedy = greedy_block(model, state, batch)
        reference = helpers.oracle_min_block(model, state, batch)
        if len(exact.blocked) != len(reference):
            failures.append(("brute-vs-reference", i))
        if len(nd.blocked) != len(exact.blocked):
            failures.append(("nondet", i))
        if len(greedy.blocked) < len(exact.blocked):
            failures.append(("greedy-below-min", i))

    gap = load_scenario(SCENARIO_DIR / "greedy_gap.yaml")
    batch = gap.queue.requests
    gap_greedy = greedy_block(gap.model, gap.initial_state, batch, gap.config.tie_break)
    gap_exact = brute_force_min_block(gap.model, gap.initial_state, batch)
    strict = len(gap_greedy.blocked) > len(gap_exact.blocked)
    if not strict:
        failures.append(("no-strict-gap", len(gap_greedy.blocked), len(gap_exact.blocked)))
    if not helpers.stays_secure(gap.model, gap.initial_state, batch, gap_greedy.blocked):
        failures.append(("gap-greedy-unsound",))
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 120.0
    conclude(
        4,
        ok,
        failures
        and f"failures: {failures[:5]}"
        or f"200/200 oracle minima match brute force, greedy never below "
        f"minimum, bundled gap blocks {len(gap_greedy.blocked)} vs "
        f"{len(gap_exact.blocked)} ({elapsed:.1f}s < 120s)",
    )


# ---------------------------------------------------------------------------
# 5. coalition-ability oracle equivalence on 1000 random instances


def test_criterion_05_diamond_equivalence():
    rng = random.Random(20260505)
    start = time.perf_counter()
    failures = []
    for i in range(1000):
        model = helpers.random_model(rng)
        valuation = {v: rng.random() < 0.5 for v in model.variables}
        state = SystemState(0, valuation)
        coalition = rng.sample(list(model.agents), rng.randint(1, len(model.agents)))
        while sum(len(model.owned(a)) for a in coalition) > 8:
            coalition.pop()
        f = helpers.random_formula(rng, list(model.variables), depth=3)

        holds, witness = diamond_holds(model, state, coalition, f)
        if holds != helpers.brute_diamond(model, state, coalition, f):
            failures.append(("verdict", i))
            continue
        if holds:
            owned = {v for a in coalition for v in model.owned(a)}
            if not set(witness.assignment) <= owned:
                failures.append(("witness-ownership", i))
                continue
            merged = dict(valuation)
            merged.update(witness.assignment)
            if not helpers.truth_eval(f, merged):
                failures.append(("witness-invalid", i))
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 30.0
    conclude(
        5,
        ok,
        failures
        and f"failures: {failures[:5]}"
        or f"1000/1000 ability verdicts match exhaustive enumeration, every "
        f"witness validates ({elapsed:.1f}s < 30s)",
    )


# ---------------------------------------------------------------------------
# 6. non-interference: secure-to-secure single flips pass greedy unblocked


def test_criterion_06_noninterference():
    rng = random.Random(20260606)
    start = time.perf_counter()
    failures = []
    pairs = 0
    for i in range(200):
        model = helpers.random_model(rng, max_vars=8)
        graph = build_state_graph(model)
        for low, high, agent in graph.edges():
            if not (graph.secure[low] and graph.secure[high]):
                continue
            bit = (low ^ high).bit_length() - 1
            variable = graph.variables[bit]
            for src, dst in ((low, high), (high, low)):
                pairs += 1
                state = SystemState(0, graph.valuation_of(src))
                batch = (ActionRequest(agent, variable, bool((dst >> bit) & 1), 0),)
                report = greedy_block(model, state, batch)
                if report.blocked:
                    failures.append((i, src, dst, report.blocked))
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 60.0
    conclude(
        6,
        ok,
        failures
        and f"blocked lawful flips: {failures[:5]}"
        or f"{pairs} secure-to-secure flips across 200 models all pass "
        f"greedy with an empty blocked set ({elapsed:.1f}s < 60s)",
    )


# ---------------------------------------------------------------------------
# 7. state-graph shape: full connectivity, exact edge count, XOR split


def test_criterion_07_state_graph_lemmas(xor_model):
    rng = random.Random(20260707)
    start = time.perf_counter()
    failures = []

    graphs = []
    for n in range(1, 13):
        variables = tuple(f"v{i + 1}" for i in range(n))
        model = Model(
            agents=("a1",),
            variables=variables,
            partition={"a1": variables},
            critical_formulas=(),
        )
        graphs.append((f"sweep-{n}", build_state_graph(model)))
    for i in range(30):
        graphs.append((f"random-{i}", build_state_graph(helpers.random_model(rng, max_vars=8))))

    for name, graph in graphs:
        n = len(graph.variables)
        if not is_connected(graph):
            failures.append((name, "full graph disconnected"))
        expected_edges = n * (1 << (n - 1)) if n else 0
        if graph.num_edges != expected_edges:
            failures.append((name, "edge formula", graph.num_edges))
        if sum(1 for _ in graph.edges()) != expected_edges:
            failures.append((name, "edge iteration", expected_edges))

    xor_graph = build_state_graph(xor_model)
    if not is_connected(xor_graph):
        failures.append(("xor", "full graph disconnected"))
    if is_connected(xor_graph, restrict_to_secure=True):
        failures.append(("xor", "secure set unexpectedly connected"))
    if xor_graph.secure_indices() != (0, 3):
        failures.append(("xor", "secure vertices", xor_graph.secure_indices()))
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 30.0
    conclude(
        7,
        ok,
        failures
        and f"failures: {failures[:5]}"
        or f"12 size-sweep and 30 random graphs connected with exact edge "
        f"counts; exclusive-or secure set disconnected ({elapsed:.1f}s < 30s)",
    )


# ---------------------------------------------------------------------------
# 8. Horn labeling search vs exhaustive enumeration, plus the known flip


def test_criterion_08_horn_tooling():
    start = time.perf_counter()
    failures = []

    def check(tag, f):
        found = find_horn_labeling(f)
        expected = helpers.enumerate_labelings(helpers.formula_prime_implicates(f))
        if (found is not None) != bool(expected):
            failures.append((tag, "existence", found, len(expected)))
        elif found is not None and found.flipped not in expected:
            failures.append((tag, "returned labeling not Horn"))

    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            check(f"{n}:{table}", formula_from_truth_table(n, table))
    rng = random.Random(20260808)
    for i in range(500):
        check(f"random:{i}", helpers.random_formula(rng, ["p", "q", "r", "s"], depth=4))

    xor = parse_formula("(~A & B) | (A & ~B)")
    if frozenset({"A"}) not in helpers.enumerate_labelings(helpers.formula_prime_implicates(xor)):
        failures.append(("xor", "flip-A labeling rejected"))
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 60.0
    conclude(
        8,
        ok,
        failures
        and f"failures: {failures[:5]}"
        or f"labeling search matches enumeration on all 276 functions of "
        f"up to 3 variables and 500 random 4-variable formulas; flip-A "
        f"exclusive-or labeling accepted ({elapsed:.1f}s < 60s)",
    )


# ---------------------------------------------------------------------------
# 9. complexity trend (soft): reported log-log slope of the greedy bench


def test_criterion_09_bench_trend():
    start = time.perf_counter()
    report = run_bench()
    elapsed = time.perf_counter() - start

    shaped = (
        len(report.rows) == 4
        and [row.size for row in report.rows] == [25, 50, 100, 200]
        and all(row.seconds > 0 and row.iterations > 0 for row in report.rows)
    )
    within = report.slope <= 3.5
    if not within:
        warnings.warn(f"bench log-log slope {report.slope:.3f} exceeds the soft bound 3.5")
    conclude(
        9,
        shaped,
        f"log-log slope {report.slope:.3f} over sizes 25..200 "
        f"({'within' if within else 'EXCEEDS'} soft bound 3.5; reported, "
        f"not gated; {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 10. determinism: repeated and order-scrambled runs give identical traces


def test_criterion_10_determinism(monkeypatch):
    start = time.perf_counter()

    def run_trace(policy):
        scenario = load_scenario(SCENARIO_DIR / "example1.yaml")
        config = override_config(scenario.config, policy=policy)
        result = run_ticks(
            scenario.model, scenario.initial_state, scenario.queue, config, 1
        )
        return trace_text(result.records)

    baseline_greedy = run_trace("greedy")
    baseline_oracle = run_trace("nondeterministic")
    problems = []
    for repeat in range(1, 10):
        if run_trace("greedy") != baseline_greedy:
            problems.append(f"greedy repeat {repeat}")
        if run_trace("nondeterministic") != baseline_oracle:
            problems.append(f"oracle repeat {repeat}")

    # Force the oracle's subset simulations to finish in a scrambled order;
    # the canonical frontier reduction must absorb it.
    scramble = random.Random(97)
    original = blocking_mod._evaluation_order
    scrambled = []

    def shuffled(candidates):
        out = list(original(candidates))
        scramble.shuffle(out)
        scrambled.append(out != list(candidates))
        return out

    monkeypatch.setattr(blocking_mod, "_evaluation_order", shuffled)
    blocking_mod._plan.cache_clear()  # each level planned on the first run, read on the second
    for plan in ("cold", "warm"):
        scrambled.clear()
        if run_trace("nondeterministic") != baseline_oracle:
            problems.append(f"scrambled completion order changed the trace, {plan} plan")
        if not any(scrambled):  # a path that bypassed the hook would have tested nothing
            problems.append(f"the oracle counted no level in a scrambled order, {plan} plan")
    monkeypatch.undo()
    elapsed = time.perf_counter() - start

    conclude(
        10,
        not problems,
        problems
        and "; ".join(problems)
        or f"10 repeats per policy byte-identical, scrambled subset order "
        f"absorbed ({elapsed:.1f}s)",
    )
