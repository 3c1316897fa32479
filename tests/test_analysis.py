import hashlib
import itertools
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from coalguard import (
    BudgetExceededError,
    CoalGuardError,
    Diamond,
    Model,
    ModalFormulaError,
    Or,
    PreconditionError,
    StateGraph,
    SystemState,
    UnknownVariableError,
    Var,
    audit_vulnerabilities,
    build_state_graph,
    diamond_holds,
    eval_formula,
    format_formula,
    formula_from_truth_table,
    is_connected,
    is_secure,
    iter_edge_lines,
    parse_formula,
    secure_path,
    single_flip_agents,
    scenario_from_mapping,
    survey_secure_connectivity,
)
from coalguard import analysis as analysis_mod, disjoin, formula as formula_mod
from coalguard.analysis import AUDIT_AGENT_CAP, SurveyRow, _connected
from coalguard.formula import valuation_masks
from helpers import (
    brute_audit,
    brute_prime_implicates,
    random_formula,
    random_model,
    random_secure_state,
    read_clauses,
    reference_secure_path,
    truth_eval,
)


def two_var_model():
    return Model(
        ("a1", "a2"),
        ("A", "B"),
        {"a1": ("A",), "a2": ("B",)},
        (parse_formula("A & B"),),
    )


# ---------------------------------------------------------------------------
# state graph


def test_two_variable_graph_shape():
    graph = build_state_graph(two_var_model())
    assert graph.num_vertices == 4
    assert graph.num_edges == 4
    assert sorted(graph.edges()) == [
        (0, 1, "a1"),
        (0, 2, "a2"),
        (1, 3, "a2"),
        (2, 3, "a1"),
    ]
    assert list(iter_edge_lines(graph)) == [
        "00 10 a1",
        "00 01 a2",
        "10 11 a2",
        "01 11 a1",
    ]
    assert graph.secure_indices() == (0, 1, 2)


def test_vertex_index_round_trip():
    graph = build_state_graph(two_var_model())
    for index in range(graph.num_vertices):
        assert graph.vertex_index(graph.valuation_of(index)) == index
    with pytest.raises(UnknownVariableError):
        graph.vertex_index({"A": True})
    for index in (99, -1, graph.num_vertices):  # 99 and -1 both read as every variable true
        with pytest.raises(PreconditionError, match="vertex index"):
            graph.valuation_of(index)


@pytest.mark.parametrize(
    "valuation",
    [{"x": "no", "y": None}, {"x": 2, "y": []}, {"x": True, "y": 2}, {"x": 0.0, "y": 1}],
    ids=["str-and-none", "two-and-list", "bool-and-two", "float-and-int"],
)
def test_vertex_index_refuses_values_that_are_not_bits(valuation):
    """A value is a bool or the int 0 or 1, as SystemState and eval_formula
    read it: a truthy "no" or 2 once read as true."""
    graph = StateGraph(("x", "y"), ("a", "b"), 0)
    with pytest.raises(PreconditionError, match="bool or the int 0 or 1"):
        graph.vertex_index(valuation)
    assert graph.vertex_index({"x": 1, "y": False}) == 1
    assert graph.vertex_index({"x": 0, "y": 1}) == 2


def test_edge_count_formula_up_to_five():
    for n in range(1, 6):
        variables = tuple(f"x{i}" for i in range(n))
        m = Model(("a1",), variables, {"a1": variables})
        graph = build_state_graph(m)
        assert graph.num_vertices == 2**n
        assert graph.num_edges == n * 2 ** (n - 1)
        assert sum(1 for _ in graph.edges()) == graph.num_edges
        assert is_connected(graph)


def test_full_graph_is_connected_as_the_search_finds():
    # is_connected answers True for every full graph without a search; the
    # breadth-first search over all vertices agrees on each hypercube size
    for n in range(0, 7):
        variables = tuple(f"x{i}" for i in range(n))
        graph = build_state_graph(Model(("a1",), variables, {"a1": variables}))
        assert is_connected(graph) is True
        assert _connected((1 << 2**n) - 1, n) is True


def test_graph_budget():
    variables = tuple(f"x{i}" for i in range(17))
    m = Model(("a1",), variables, {"a1": variables})
    with pytest.raises(BudgetExceededError):
        build_state_graph(m)


def with_diamonds(rng, model):
    """The model with <>{C} nodes, some nested, mixed into each critical formula."""

    def ability(depth):
        coalition = rng.sample(model.agents, rng.randint(1, len(model.agents)))
        inner = random_formula(rng, model.variables, depth=2)
        if depth and rng.random() < 0.5:
            nested = ability(depth - 1)
            inner = Or(inner, nested) if rng.random() < 0.5 else inner & ~nested
        return Diamond(coalition, inner)

    formulas = []
    for f in model.critical_formulas:
        pick = rng.random()
        if pick < 0.3:
            formulas.append(Or(f, ability(1)))
        elif pick < 0.7:
            formulas.append(f & ~ability(1))
        else:
            formulas.append(ability(1) & random_formula(rng, model.variables, depth=2))
    return Model(model.agents, model.variables, model.partition, tuple(formulas))


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_truth_table_secure_set_matches_eval_formula(seed, modal):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=7, max_agents=4, max_formulas=3)
    if modal:
        model = with_diamonds(rng, model)
    graph = build_state_graph(model)
    expected = tuple(
        not any(eval_formula(f, model, graph.valuation_of(i)) for f in model.critical_formulas)
        for i in range(graph.num_vertices)
    )
    assert graph.secure == expected
    assert graph.secure_bits == sum(1 << i for i, flag in enumerate(expected) if flag)


def union_find_connected(graph, members):
    parent = {i: i for i in range(graph.num_vertices) if (members >> i) & 1}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, k, _ in graph.edges():
        if i in parent and k in parent:
            parent[find(i)] = find(k)
    return len({find(i) for i in parent}) <= 1


@given(st.integers(0, 8), st.data())
def test_bitset_flood_matches_union_find(n, data):
    full = (1 << (1 << n)) - 1
    members = data.draw(st.integers(0, full))
    for _ in range(data.draw(st.integers(0, 3))):  # thinner sets fall apart more often
        members &= data.draw(st.integers(0, full))
    variables = tuple(f"x{j}" for j in range(n))
    graph = StateGraph(variables, ("a1",) * n, members)
    expected = union_find_connected(graph, members)
    assert _connected(members, n) == expected
    assert is_connected(graph, restrict_to_secure=True) == expected


def test_the_flood_stops_once_it_covers_every_member(monkeypatch):
    # from vertex 0 one flip across each variable in turn covers the whole
    # cube, so no sweep runs past the n-th flip to find the fixpoint
    calls = []
    flip = formula_mod.flip_across
    monkeypatch.setattr(analysis_mod, "flip_across", lambda *a: calls.append(a) or flip(*a))
    for n in range(4, 13):
        calls.clear()
        assert _connected((1 << (1 << n)) - 1, n)
        assert len(calls) <= n
        calls.clear()  # an edge along variable 0 is covered by the first flip
        assert _connected(0b11, n)
        assert len(calls) == 1


def test_exclusive_or_pair_sets_are_disconnected():
    # the valuations where x0 equals x1, the secure set of x0 XOR x1, are two
    # subcubes no single flip joins, whatever the other variables
    for n in range(2, 9):
        members = sum(1 << i for i in range(1 << n) if (i & 1) == (i >> 1) & 1)
        assert not _connected(members, n)
        assert _connected(members | 0b10, n)  # one vertex between them joins the two


def audit_compact(findings):
    return [(f.formula_index, f.coalition, dict(f.witness.assignment)) for f in findings]


@given(st.integers(0, 2**32 - 1))
def test_audit_matches_exhaustive_reference(seed):
    """The audit on truth tables lists brute_audit's minimal coalitions, in
    its order, with its witnesses, over formulas wider than the random
    models' own: at a secure start, at random starts, and at a start where
    some formula already holds."""
    rng = random.Random(seed)
    model = random_model(rng, max_vars=9, max_agents=6, max_formulas=3)
    wider = [random_formula(rng, model.variables, depth=4) for _ in range(2)]
    model = Model(model.agents, model.variables, model.partition,
                  model.critical_formulas + tuple(wider))
    states = [random_secure_state(rng, model)]
    states += [SystemState(0, {v: rng.random() < 0.5 for v in model.variables}) for _ in range(3)]
    masks = list(range(1 << len(model.variables)))
    rng.shuffle(masks)
    for mask in masks:  # an insecure start, where some formula already holds
        valuation = {v: bool((mask >> j) & 1) for j, v in enumerate(model.variables)}
        if any(truth_eval(f, valuation) for f in model.critical_formulas):
            states.append(SystemState(0, valuation))
            break
    for state in filter(None, states):
        findings = audit_vulnerabilities(model, state)
        assert audit_compact(findings) == brute_audit(model, state)
        assert all(type(value) is bool for f in findings for value in f.witness.assignment.values())


def per_coalition_loop(model, state):
    """diamond_holds on every coalition of every agent, then the minimal ones:
    the audit's definition asked one coalition at a time."""
    found = []
    for index, f in enumerate(model.critical_formulas):
        able = {}
        for size in range(1, len(model.agents) + 1):
            for combo in itertools.combinations(model.agents, size):
                verdict, witness = diamond_holds(model, state, combo, f)
                if verdict:
                    able[combo] = dict(witness.assignment)
        for combo, assignment in able.items():
            if not any(set(other) < set(combo) for other in able):
                found.append((index, combo, assignment))
    return found


@given(st.integers(0, 2**32 - 1))
def test_audit_matches_the_per_coalition_loop(seed):
    """The audit on truth tables finds the coalitions, in the same order, and
    the witnesses that diamond_holds finds coalition by coalition, at secure
    starts and random ones."""
    rng = random.Random(seed)
    model = random_model(rng, max_vars=7, max_agents=5, max_formulas=3)
    states = [random_secure_state(rng, model)]
    states += [SystemState(0, {v: rng.random() < 0.5 for v in model.variables}) for _ in range(2)]
    for state in filter(None, states):
        assert audit_compact(audit_vulnerabilities(model, state)) == per_coalition_loop(model, state)


def test_xor_secure_set_disconnected(xor_model):
    graph = build_state_graph(xor_model)
    assert is_connected(graph)
    assert not is_connected(graph, restrict_to_secure=True)
    assert graph.secure_indices() == (0, 3)


# ---------------------------------------------------------------------------
# secure paths


def test_secure_path_trivial_and_blocked(xor_model):
    graph = build_state_graph(xor_model)
    both_false = SystemState(0, {"A": False, "B": False})
    both_true = SystemState(0, {"A": True, "B": True})
    assert secure_path(graph, both_false, both_false) == (both_false,)
    assert secure_path(graph, both_false, both_true) is None


def test_secure_path_steps_through_secure_states():
    graph = build_state_graph(two_var_model())
    start = SystemState(0, {"A": False, "B": False})
    goal = SystemState(0, {"A": True, "B": False})
    path = secure_path(graph, start, goal)
    assert path is not None
    assert [dict(s.valuation) for s in path] == [
        {"A": False, "B": False},
        {"A": True, "B": False},
    ]
    assert [s.tick for s in path] == [0, 1]


def test_secure_path_rejects_insecure_endpoints():
    graph = build_state_graph(two_var_model())
    secure = SystemState(0, {"A": False, "B": False})
    insecure = SystemState(0, {"A": True, "B": True})
    with pytest.raises(PreconditionError):
        secure_path(graph, insecure, secure)
    with pytest.raises(PreconditionError):
        secure_path(graph, secure, insecure)


def test_secure_path_rejects_endpoints_that_are_not_states():
    graph = build_state_graph(two_var_model())
    valuation = {"A": False, "B": False}
    with pytest.raises(PreconditionError, match="state must be a SystemState"):
        secure_path(graph, valuation, dict(valuation))


@given(st.integers(0, 2**32 - 1))
def test_secure_path_properties(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=6, max_agents=4, max_formulas=2)
    graph = build_state_graph(model)
    secure = graph.secure_indices()
    if len(secure) < 2:
        return
    start_i, goal_i = rng.sample(secure, 2)
    start = SystemState(0, graph.valuation_of(start_i))
    goal = SystemState(0, graph.valuation_of(goal_i))
    path = secure_path(graph, start, goal)
    if path is None:
        return
    assert dict(path[0].valuation) == dict(start.valuation)
    assert dict(path[-1].valuation) == dict(goal.valuation)
    for a, b in zip(path, path[1:]):
        differing = [v for v in model.variables if a.value(v) != b.value(v)]
        assert len(differing) == 1
    for s in path:
        assert is_secure(model, s)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_secure_path_matches_the_reference_search(seed, scatter):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=8, max_agents=4, max_formulas=4)
    graph = build_state_graph(model)
    if scatter:  # a random secure set, most often disconnected
        graph = StateGraph(graph.variables, graph.edge_labels, rng.getrandbits(graph.num_vertices))
    secure = graph.secure_indices()
    for _ in range(4):
        if not secure:
            return
        source, target = rng.choice(secure), rng.choice(secure)
        start = SystemState(3, graph.valuation_of(source))
        path = secure_path(graph, start, SystemState(0, graph.valuation_of(target)))
        expected = reference_secure_path(graph, source, target)
        if expected is None:
            assert path is None
            assert not is_connected(graph, restrict_to_secure=True)
            continue
        assert path is not None and len(path) == len(expected)
        indices = [graph.vertex_index(s) for s in path]
        assert indices[0] == source and indices[-1] == target
        assert [s.tick for s in path] == list(range(3, 3 + len(path)))
        for a, b in zip(indices, indices[1:]):
            assert (a ^ b).bit_count() == 1
        assert all(graph.secure[i] for i in indices)


def test_secure_path_across_sixteen_variables():
    names = tuple(f"x{j}" for j in range(16))
    rng = random.Random(1)
    formulas = []
    for _ in range(6):
        a, b, c = rng.sample(names, 3)
        formulas.append(parse_formula(f"{a} & ~{b} & {c}"))
    model = Model(
        tuple(f"a{j}" for j in range(16)),
        names,
        {f"a{j}": (v,) for j, v in enumerate(names)},
        tuple(formulas),
    )
    graph = build_state_graph(model)
    low = SystemState(0, {v: False for v in names})
    high = SystemState(0, {v: True for v in names})
    path = secure_path(graph, low, high)
    assert path is not None and len(path) == 17  # one flip per variable
    for a, b in zip(path, path[1:]):
        assert sum(a.value(v) != b.value(v) for v in names) == 1
    assert all(is_secure(model, s) for s in path)


# ---------------------------------------------------------------------------
# single-flip reachability


def test_single_flip_agents_golden():
    m = two_var_model()
    formula = m.critical_formulas[0]
    near = SystemState(0, {"A": True, "B": False})
    far = SystemState(0, {"A": False, "B": False})
    assert single_flip_agents(m, near, formula) == frozenset({"a2"})
    assert single_flip_agents(m, far, formula) == frozenset()


def test_single_flip_agents_rejects_true_formula():
    m = two_var_model()
    hot = SystemState(0, {"A": True, "B": True})
    with pytest.raises(PreconditionError):
        single_flip_agents(m, hot, m.critical_formulas[0])


def test_single_flip_agents_rejects_modal(example1_model, example1_state):
    with pytest.raises(ModalFormulaError):
        single_flip_agents(example1_model, example1_state, parse_formula("<>{a1} v1"))


def test_audit_refuses_a_model_with_a_modal_critical_formula(example1_model, example1_state):
    modal = Model(example1_model.agents, example1_model.variables, example1_model.partition,
                  (parse_formula("<>{a1} v1 & v2"),))
    with pytest.raises(ModalFormulaError, match="the audit requires propositional"):
        audit_vulnerabilities(modal, example1_state)


@given(st.integers(0, 2**32 - 1))
def test_single_flip_agents_match_reference(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=6, max_agents=4, max_formulas=1)
    formula = model.critical_formulas[0]
    masks = list(range(1 << len(model.variables)))
    rng.shuffle(masks)
    for mask in masks:
        valuation = {
            v: bool((mask >> j) & 1) for j, v in enumerate(model.variables)
        }
        if not truth_eval(formula, valuation):
            break
    else:
        return
    state = SystemState(0, valuation)
    expected = set()
    for v in model.variables:
        flipped = dict(valuation)
        flipped[v] = not flipped[v]
        if truth_eval(formula, flipped):
            expected.add(model.owner_of(v))
    assert single_flip_agents(model, state, formula) == frozenset(expected)


def pairs_model(pairs):
    """Agent a<i> owns x<i>; the formula is (x0 & x<pairs>) | ... over 2 * pairs variables."""
    names = tuple(f"x{i}" for i in range(2 * pairs))
    agents = tuple(f"a{i}" for i in range(2 * pairs))
    text = " | ".join(f"(x{i} & x{i + pairs})" for i in range(pairs))
    return Model(agents, names, {a: (v,) for a, v in zip(agents, names)}, (parse_formula(text),))


@pytest.mark.parametrize("pairs", [7, 9])
def test_single_flip_agents_on_wide_formulas(pairs):
    # 14 and 18 variables: one evaluation per flipped variable, no pass over 2^n valuations
    model = pairs_model(pairs)
    formula = model.critical_formulas[0]
    low = SystemState(0, {v: False for v in model.variables})
    assert single_flip_agents(model, low, formula) == frozenset()
    near = low.with_updates({"x0": True, "x2": True})
    assert single_flip_agents(model, near, formula) == frozenset({f"a{pairs}", f"a{pairs + 2}"})


# ---------------------------------------------------------------------------
# vulnerability audit


def test_audit_example1(example1_model, example1_state):
    findings = audit_vulnerabilities(example1_model, example1_state)
    compact = [
        (f.formula_index, f.coalition, dict(f.witness.assignment)) for f in findings
    ]
    assert compact == [
        (0, ("a1", "a2"), {"v1": True, "v3": False}),
        (0, ("a1", "a4"), {"v1": True, "v4": False, "v5": False}),
        (1, ("a3",), {"v6": False}),
        (2, ("a1",), {"v7": True, "v8": False}),
        (2, ("a3",), {"v6": False}),
        (3, ("a1",), {"v1": True, "v8": True}),
    ]
    # each witness actually fires its formula
    for finding in findings:
        merged = dict(example1_state.valuation)
        merged.update(finding.witness.assignment)
        assert truth_eval(finding.formula, merged)


@pytest.mark.parametrize(
    "call",
    [audit_vulnerabilities, lambda m, s: single_flip_agents(m, s, m.critical_formulas[0])],
    ids=["audit_vulnerabilities", "single_flip_agents"],
)
def test_audit_on_a_state_that_leaves_a_variable_unassigned(example1_model, call):
    with pytest.raises(UnknownVariableError, match="state does not assign 'v1'"):
        call(example1_model, SystemState(0, {}))


def test_audit_reports_only_minimal_coalitions(example1_model, example1_state):
    findings = audit_vulnerabilities(example1_model, example1_state)
    by_formula = {}
    for f in findings:
        by_formula.setdefault(f.formula_index, []).append(frozenset(f.coalition))
    for coalitions in by_formula.values():
        for a, b in itertools.permutations(coalitions, 2):
            assert not a < b


def test_audit_agent_budget():
    # the cap counts the agents combined for one formula, not the model's agents
    past = AUDIT_AGENT_CAP + 1
    agents = tuple(f"a{i}" for i in range(past))
    variables = tuple(f"x{i}" for i in range(past))
    partition = {a: (v,) for a, v in zip(agents, variables)}
    low = SystemState(0, {v: False for v in variables})
    pair = Model(agents, variables, partition, (parse_formula("x0 & x1"),))
    assert [f.coalition for f in audit_vulnerabilities(pair, low)] == [("a0", "a1")]
    wide = Model(agents, variables, partition, (parse_formula(" & ".join(variables)),))
    message = f"{past} agents exceed the audit cap of {AUDIT_AGENT_CAP}"
    with pytest.raises(BudgetExceededError, match=message):
        audit_vulnerabilities(wide, low)
    at_cap = Model(agents, variables, partition, (disjoin(map(Var, variables[1:])),))
    assert len(audit_vulnerabilities(at_cap, low)) == AUDIT_AGENT_CAP  # each able alone
    # where the formula already holds, every agent alone is able and none is combined
    high = SystemState(0, {v: True for v in variables})
    assert [f.coalition for f in audit_vulnerabilities(wide, high)] == [(a,) for a in agents]


@pytest.mark.parametrize("shape, count", [("conjunction", 1), ("cycle", 29)])
def test_audit_on_twelve_agents(shape, count):
    """CI times these two: one formula over 12 agents owning a variable each,
    false at the start. A cycle's minimal coalitions are its minimal vertex
    covers, the smallest of them every second agent."""
    agents = tuple(f"a{i}" for i in range(12))
    variables = tuple(f"x{i}" for i in range(12))
    partition = {a: (v,) for a, v in zip(agents, variables)}
    text = {"conjunction": " & ".join(variables),
            "cycle": " & ".join(f"(x{i} | x{(i + 1) % 12})" for i in range(12))}[shape]
    model = Model(agents, variables, partition, (parse_formula(text),))
    low = SystemState(0, {v: False for v in variables})
    findings = audit_vulnerabilities(model, low)
    assert len(findings) == count
    assert all(all(f.witness.assignment.values()) for f in findings)
    if shape == "cycle":
        assert findings[0].coalition == agents[::2]


def test_audit_refuses_a_formula_past_the_variable_cap_before_any_coalition(monkeypatch):
    # two agents, so the agent cap allows the formula; the variable cap holds
    # whether or not the formula already holds at the state
    for width in (20, 21):
        variables = tuple(f"x{i}" for i in range(width))
        partition = {"a0": variables[:10], "a1": variables[10:]}
        model = Model(("a0", "a1"), variables, partition, (disjoin(map(Var, variables)),))
        low = SystemState(0, {v: False for v in variables})
        if width == 20:
            assert [f.coalition for f in audit_vulnerabilities(model, low)] == [("a0",), ("a1",)]
            continue
        flips = []
        monkeypatch.setattr(analysis_mod, "flip_across", lambda *a: flips.append(a))
        for state in (low, low.with_updates({"x0": True})):
            with pytest.raises(BudgetExceededError, match="controls 21 variables"):
                audit_vulnerabilities(model, state)
        assert flips == []


def analyze_scenarios(monkeypatch):
    """The 40 seed-1 scenarios of the analyze benchmark workload, loaded."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "benchmark"))
    import workloads

    return [scenario_from_mapping(m, allow_insecure_start=True) for m in workloads.analyze(1)]


def test_the_audit_runs_each_formula_once(monkeypatch):
    """The audit reads each critical formula's truth table and never searches
    a coalition's assignments one at a time, which would run the formula's
    evaluator once per assignment: over the seed-1 analyze scenarios its 120
    evaluators run 120 times, where the per-coalition search it replaced
    ran them 1,470 times."""
    calls = []

    def counting(evaluate):
        return lambda lanes, ones: calls.append(ones) or evaluate(lanes, ones)

    for scenario in analyze_scenarios(monkeypatch):
        model = scenario.model
        evaluators = tuple(map(counting, model.compiled.evaluators))
        twin = Model(model.agents, model.variables, model.partition, model.critical_formulas)
        object.__setattr__(twin, "compiled", model.compiled._replace(evaluators=evaluators))
        audit_vulnerabilities(twin, scenario.initial_state)
    assert len(calls) == 120


def test_the_audit_reads_what_the_model_found(monkeypatch):
    """Model construction already walked each critical formula, so the audit
    walks none: over the seed-1 analyze benchmark scenarios the findings are
    the ones pinned when the audit still made 120 walks a pass and asked the
    model for a coalition's variables 637 times."""
    loaded = analyze_scenarios(monkeypatch)
    calls = []
    walk = formula_mod.structure
    monkeypatch.setattr(formula_mod, "structure", lambda f: calls.append("structure") or walk(f))
    found = [
        repr((f.formula_index, f.coalition, sorted(f.witness.assignment.items())))
        for scenario in loaded
        for f in audit_vulnerabilities(scenario.model, scenario.initial_state)
    ]
    assert calls == []
    assert len(loaded) == 40 and len(found) == 383
    digest = hashlib.sha256("\n".join(found).encode("utf-8")).hexdigest()
    assert digest == "063973af455a45019ba90f42dac3505b68635b45571b18bd5042ecfb10f04098"


def test_horn_labeling_compiles_no_closures(monkeypatch):
    """find_horn_labeling evaluates a formula's table by one direct recursion:
    over the 120 seed-1 analyze formulas it compiles no closures, where it
    compiled each formula once, and builds clause tuples for the 38 formulas
    whose primes are not Horn as they stand only. The labelings are the ones
    pinned when it compiled (those 38 flip a variable)."""
    loaded = analyze_scenarios(monkeypatch)
    calls = []
    for name in ("_compile", "_decode"):
        wrapped = getattr(formula_mod, name)
        monkeypatch.setattr(formula_mod, name, lambda *a, n=name, w=wrapped: calls.append(n) or w(*a))
    labelings = [formula_mod.find_horn_labeling(f) for s in loaded for f in s.model.critical_formulas]
    assert calls == ["_decode"] * 38 and len(labelings) == 120
    assert sum(bool(labeling.flipped) for labeling in labelings) == 38
    text = "\n".join(repr((h.variables, sorted(h.flipped))) for h in labelings)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "94e291b92977d22fe07c3ba2eb2d35b9d54c9bf079b5f733740f333e36aa1515"


# ---------------------------------------------------------------------------
# truth-table formulas


def test_truth_table_formula_edge_tables():
    assert format_formula(formula_from_truth_table(2, 0b1111)) == "true"
    assert format_formula(formula_from_truth_table(2, 0b0000)) == "~true"
    assert format_formula(formula_from_truth_table(2, 0b1000)) == "x1 & x2"
    assert format_formula(formula_from_truth_table(2, 0b0110)) == "(~x1 | ~x2) & (x1 | x2)"


@given(st.integers(1, 3), st.integers(0, 255))
def test_truth_table_formula_matches_table(num_vars, table):
    table %= 1 << (1 << num_vars)
    f = formula_from_truth_table(num_vars, table)
    for mask in range(1 << num_vars):
        valuation = {f"x{j + 1}": bool((mask >> j) & 1) for j in range(num_vars)}
        assert truth_eval(f, valuation) == bool((table >> mask) & 1)


def test_truth_table_formula_clauses_are_the_prime_implicates():
    rng = random.Random(4)
    tables = [(n, t) for n in (1, 2, 3) for t in range(1 << (1 << n))]
    tables += [(4, rng.getrandbits(16)) for _ in range(200)]
    for num_vars, table in tables:
        clauses = read_clauses(formula_from_truth_table(num_vars, table))
        assert clauses == brute_prime_implicates(num_vars, table), (num_vars, table)


def test_truth_table_formula_is_representation_minimal():
    # equal functions written differently collapse to the same clauses
    f = formula_from_truth_table(2, 0b1000)
    assert read_clauses(f) == read_clauses(parse_formula("x1 & x2"))


# ---------------------------------------------------------------------------
# connectivity survey


def test_survey_counts_falsifying():
    expected = {
        1: (4, 4, 4, 0, 0),
        2: (16, 14, 16, 0, 2),
        3: (256, 168, 242, 0, 74),
    }
    for num_vars, (tables, connected, relabelable, cex, conv) in expected.items():
        survey = survey_secure_connectivity(num_vars, "falsifying")
        assert len(survey.rows) == tables
        assert sum(r.connected for r in survey.rows) == connected
        assert sum(r.relabelable for r in survey.rows) == relabelable
        assert len(survey.counterexamples) == cex
        assert len(survey.converse_counterexamples) == conv
        assert survey.claim_holds


def test_survey_satisfying_reading_fails_at_three_vars():
    survey = survey_secure_connectivity(3, "satisfying")
    assert survey.counterexamples == (126, 189, 219, 231)
    assert not survey.claim_holds


def test_survey_xor_is_a_converse_witness():
    survey = survey_secure_connectivity(2, "falsifying")
    assert 6 in survey.converse_counterexamples
    assert 9 in survey.converse_counterexamples


def test_survey_claim_fails_at_four_variables():
    # table 22 is true exactly when one of x1, x2, x3 is true and every other
    # variable is false (bits 1, 2 and 4); with x4 its falsifying set is
    # connected, and its clause form has no Horn relabeling
    survey = survey_secure_connectivity(4, tables=[22])
    assert survey.rows == (SurveyRow(22, True, False),)
    assert survey.counterexamples == (22,)
    assert not survey.claim_holds
    # at three variables all-false is isolated: each of its neighbours satisfies
    assert survey_secure_connectivity(3, tables=[22]).rows == (SurveyRow(22, False, False),)


@pytest.fixture(scope="module")
def four_variable_survey():
    return survey_secure_connectivity(4)


def test_survey_counts_at_four_variables(four_variable_survey):
    # the claim fails: 12,336 connected secure sets without a relabeling
    survey = four_variable_survey
    assert len(survey.rows) == 65536
    assert sum(r.connected for r in survey.rows) == 37294
    assert sum(r.relabelable for r in survey.rows) == 29722
    assert len(survey.counterexamples) == 12336
    assert len(survey.converse_counterexamples) == 4764
    assert survey.counterexamples[0] == 22


def test_survey_relabelable_matches_semantic_oracle():
    # a function admits a labeling iff some flip makes its satisfying
    # set closed under componentwise AND
    rng = random.Random(9)
    surveys = [survey_secure_connectivity(num_vars, "falsifying") for num_vars in (1, 2, 3)]
    surveys.append(survey_secure_connectivity(4, tables=[rng.getrandbits(16) for _ in range(200)]))
    for survey in surveys:
        num_vars = survey.num_vars
        for row in survey.rows:
            sat = {m for m in range(1 << num_vars) if (row.table >> m) & 1}
            renamable = False
            for r in range(1 << num_vars):
                flipped = {m ^ r for m in sat}
                if all((a & b) in flipped for a in flipped for b in flipped):
                    renamable = True
                    break
            assert row.relabelable == renamable, row.table


def test_survey_guard_rails(four_variable_survey):
    with pytest.raises(ValueError):
        survey_secure_connectivity(2, "sideways")
    with pytest.raises(BudgetExceededError):
        survey_secure_connectivity(5)
    assert len(four_variable_survey.rows) == 65536  # exhaustive at the cap
    sample = survey_secure_connectivity(4, tables=[0, 1, 65535])
    assert len(sample.rows) == 3
    with pytest.raises(ValueError):
        survey_secure_connectivity(2, tables=[99999])
    with pytest.raises(CoalGuardError, match="unknown reading"):
        survey_secure_connectivity(3, "either")
    for table in (-1, "3"):
        with pytest.raises(CoalGuardError, match="out of range"):
            survey_secure_connectivity(2, tables=[table])
    with pytest.raises(CoalGuardError, match="at least one variable"):
        formula_from_truth_table(0, 1)


def test_a_bool_is_no_truth_table():
    """True and False are ints to isinstance but no table: True was read as
    the table 1, ~x1 & ~x2, and kept as SurveyRow(table=True, ...)."""
    for table in (True, False):
        with pytest.raises(PreconditionError, match="out of range"):
            formula_from_truth_table(2, table)
        with pytest.raises(PreconditionError, match="out of range"):
            survey_secure_connectivity(2, tables=[table])
    assert format_formula(formula_from_truth_table(2, 1)) == "~x1 & ~x2"


def test_survey_rejects_a_sample_that_is_not_iterable():
    for tables in (5, 2.0):
        with pytest.raises(PreconditionError, match="iterable of ints"):
            survey_secure_connectivity(2, tables=tables)


def test_truth_table_formula_guard_rails():
    # ten variables, the cap, still answer; eleven raise before any work
    assert formula_from_truth_table(10, valuation_masks(10)[3]) == Var("x4")
    with pytest.raises(BudgetExceededError, match="truth-table cap of 10"):
        formula_from_truth_table(11, 0)
    # a table is an int in 0 .. 2^(2^n) - 1 (the edge-table test answers 0 and 15)
    for table in (-1, 16, 1.5, "3", None):
        with pytest.raises(PreconditionError, match="out of range"):
            formula_from_truth_table(2, table)


def test_truth_table_formula_and_survey_reject_a_variable_count_that_is_not_an_int():
    for num_vars in ("3", True):
        with pytest.raises(PreconditionError, match="num_vars must be an int"):
            formula_from_truth_table(num_vars, 0)
    with pytest.raises(PreconditionError, match="num_vars must be an int"):
        survey_secure_connectivity("2")
