import itertools
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
    formula_from_truth_table,
    is_connected,
    is_secure,
    iter_edge_lines,
    parse_formula,
    secure_path,
    single_flip_agents,
    survey_secure_connectivity,
    to_cnf,
)
from coalguard.analysis import SurveyRow, _connected
from coalguard.formula import valuation_masks
from helpers import (
    brute_prime_implicates,
    random_formula,
    random_model,
    random_secure_state,
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


def reference_audit(model, state):
    """diamond_holds on every coalition of every agent, then the minimal ones."""
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
def test_audit_matches_exhaustive_reference(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=7, max_agents=5, max_formulas=3)
    starts = [random_secure_state(rng, model)]
    masks = list(range(1 << len(model.variables)))
    rng.shuffle(masks)
    for mask in masks:  # an insecure start, where some formula already holds
        valuation = {v: bool((mask >> j) & 1) for j, v in enumerate(model.variables)}
        if any(truth_eval(f, valuation) for f in model.critical_formulas):
            starts.append(SystemState(0, valuation))
            break
    for state in starts:
        if state is None:
            continue
        findings = audit_vulnerabilities(model, state)
        compact = [(f.formula_index, f.coalition, dict(f.witness.assignment)) for f in findings]
        assert compact == reference_audit(model, state)


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
    agents = tuple(f"a{i}" for i in range(13))
    variables = tuple(f"x{i}" for i in range(13))
    partition = {a: (v,) for a, v in zip(agents, variables)}
    low = SystemState(0, {v: False for v in variables})
    pair = Model(agents, variables, partition, (parse_formula("x0 & x1"),))
    assert [f.coalition for f in audit_vulnerabilities(pair, low)] == [("a0", "a1")]
    wide = Model(agents, variables, partition, (parse_formula(" & ".join(variables)),))
    with pytest.raises(BudgetExceededError, match="13 agents exceed the audit cap of 12"):
        audit_vulnerabilities(wide, low)
    # where the formula already holds, every agent alone is able and none is combined
    high = SystemState(0, {v: True for v in variables})
    assert [f.coalition for f in audit_vulnerabilities(wide, high)] == [(a,) for a in agents]


# ---------------------------------------------------------------------------
# truth-table formulas


def test_truth_table_formula_edge_tables():
    from coalguard import format_formula

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
        clauses = set(to_cnf(formula_from_truth_table(num_vars, table)).clauses)
        assert clauses == brute_prime_implicates(num_vars, table), (num_vars, table)


def test_truth_table_formula_is_representation_minimal():
    # equal functions written differently collapse to the same clauses
    f = formula_from_truth_table(2, 0b1000)
    assert to_cnf(f).clauses == to_cnf(parse_formula("x1 & x2")).clauses


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
