"""The compiled model form against the reference evaluator and full re-evaluation."""

import random

import pytest
from hypothesis import assume, given, strategies as st

from coalguard import (
    ActionRequest,
    BudgetExceededError,
    CoalGuardError,
    PreconditionError,
    Diamond,
    Model,
    Not,
    Or,
    SystemState,
    UnknownAgentError,
    UnknownVariableError,
    Var,
    compile_formula,
    eval_formula,
    format_formula,
    is_secure,
    parse_formula,
    simulate,
)
from coalguard import formula as formula_mod
from coalguard.formula import structure
from helpers import (
    eval_formula_reference,
    random_formula,
    random_model,
    random_requests,
    random_secure_state,
    run_batch,
    vars_in,
)

seeds = st.integers(0, 2**32 - 1)


def modal_formula(rng, model, depth=3):
    """Like helpers.random_formula, but with <>{C} nodes over random coalitions."""
    if depth == 0 or rng.random() < 0.25:
        return random_formula(rng, list(model.variables), depth=1)
    pick = rng.random()
    if pick < 0.3:
        coalition = rng.sample(model.agents, rng.randint(1, len(model.agents)))
        return Diamond(coalition, modal_formula(rng, model, depth - 1))
    if pick < 0.5:
        return Not(modal_formula(rng, model, depth - 1))
    left = modal_formula(rng, model, depth - 1)
    right = modal_formula(rng, model, depth - 1)
    return Or(left, right) if pick < 0.75 else left & right


@given(seeds)
def test_compiled_evaluator_matches_eval_formula(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=7, max_agents=4)
    f = modal_formula(rng, model)
    evaluate = compile_formula(f, model)
    critical = Model(model.agents, model.variables, model.partition, (f,))
    for _ in range(8):
        valuation = {v: rng.random() < 0.5 for v in model.variables}
        expected = eval_formula(f, model, valuation)
        assert bool(evaluate(valuation, True)) == expected
        assert bool(critical.compiled.evaluators[0](valuation, True)) == expected


@given(seeds)
def test_lane_mode_matches_eval_formula_in_every_lane(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=7, max_agents=4)
    f = modal_formula(rng, model)
    valuations = [
        {v: rng.random() < 0.5 for v in model.variables} for _ in range(rng.randint(1, 20))
    ]
    width = rng.choice((1, 8, 64))  # lane width in bits; bit 0 carries the value
    ones = sum(1 << (width * i) for i in range(len(valuations)))
    values = {
        v: sum(valuation[v] << (width * i) for i, valuation in enumerate(valuations))
        for v in model.variables
    }
    result = compile_formula(f, model)(values, ones)
    assert result & ~ones == 0
    for i, valuation in enumerate(valuations):
        assert (result >> (width * i)) & 1 == eval_formula(f, model, valuation)


def reference_simulate(model, state, batch):
    """Every critical formula re-evaluated before and after the batch."""
    after = run_batch(state.valuation, batch)
    became = tuple(
        index
        for index, f in enumerate(model.critical_formulas)
        if not eval_formula(f, model, state) and eval_formula(f, model, after)
    )
    flipped = set().union(*(vars_in(model.critical_formulas[i]) for i in became))
    requesters = {r.agent for r in batch}
    implicated = tuple(
        a for a in model.agents if a in requesters and set(model.owned(a)) & flipped
    )
    return became, implicated, after


@given(seeds)
def test_indexed_simulate_matches_full_reevaluation(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_formulas=6)
    state = random_secure_state(rng, model)
    assume(state is not None)
    batch = random_requests(rng, model)
    # write one variable twice, the second write winning
    first = rng.choice(batch)
    batch += (
        ActionRequest(first.agent, first.variable, not first.new_value, len(batch)),
    )
    report = simulate(model, state, batch)
    became, implicated, after = reference_simulate(model, state, batch)
    assert report.became_true == became
    assert report.implicated_agents == implicated
    assert dict(report.simulated_state.valuation) == after


# ---------------------------------------------------------------------------
# error edges


def two_agent_model(*formulas):
    return Model(
        ("a1", "a2"), ("x", "y"), {"a1": ("x",), "a2": ("y",)},
        tuple(parse_formula(text) for text in formulas),
    )


@pytest.mark.parametrize(
    "text, error",
    [("x & zz", UnknownVariableError), ("<>{ghost} x & y", UnknownAgentError)],
)
def test_unknown_names_still_raise(text, error):
    # Model raises when it is built, with what eval_formula raises on first use
    base = two_agent_model("x & y")
    state = SystemState(0, {"x": False, "y": False})
    with pytest.raises(error) as reference:
        eval_formula(parse_formula(text), base, state)
    with pytest.raises(error) as raised:
        two_agent_model("x & y", text)
    assert str(raised.value) == str(reference.value)


def test_each_entry_checks_a_modal_formulas_names_once(monkeypatch):
    """A <> trusts the names its entry checked and reads only its own
    coalition's variables: building a model over two nested <>s checks its
    names once, not 3 times, and evaluating it once, not 4 times."""
    calls = []
    check = formula_mod._check_names
    monkeypatch.setattr(formula_mod, "_check_names", lambda *a: calls.append(a) or check(*a))
    f = parse_formula("<>{a1} <>{a2} (x & y)")
    model = two_agent_model(format_formula(f))
    assert len(calls) == 1
    for valuation in ({"x": False, "y": False}, {"x": True, "y": True}):
        calls.clear()
        assert eval_formula(f, model, valuation) and model.compiled.evaluators[0](valuation, True)
        assert len(calls) == 1
    calls.clear()
    assert compile_formula(f, model)({"x": False, "y": False}, True)
    assert len(calls) == 1


BASE = two_agent_model()
ZEROS = {"x": False, "y": False}


def count_walks(monkeypatch):
    """The list that every later formula._walk call appends its formula to."""
    calls = []
    walk = formula_mod._walk
    monkeypatch.setattr(formula_mod, "_walk", lambda f: calls.append(f) or walk(f))
    return calls


def nested_model(k):
    """Agents a1..ak owning x1..xk, and <>{a1} ... <>{ak} (x1 & ... & xk)."""
    agents, variables = [f"a{i}" for i in range(1, k + 1)], [f"x{i}" for i in range(1, k + 1)]
    f = parse_formula(" ".join(f"<>{{{a}}}" for a in agents) + " (" + " & ".join(variables) + ")")
    return Model(agents, variables, dict(zip(agents, ((v,) for v in variables)))), f


TRIPLE = "<>{a1} <>{a2} <>{a3} (x & y & z & w)"
FOUR = Model(("a1", "a2", "a3", "a4"), ("x", "y", "z", "w"),
             {"a1": ("x",), "a2": ("y",), "a3": ("z",), "a4": ("w",)})


def test_each_entry_walks_a_modal_formula_once(monkeypatch):
    """Model(...) and compile_formula walk a formula once at the entry: each
    <> takes its child's variables from the compile recursion, where it
    walked the child again (3, 4 and 5 walks before)."""
    double, triple = parse_formula("<>{a1} <>{a2} (x & y)"), parse_formula(TRIPLE)
    calls = count_walks(monkeypatch)
    Model(BASE.agents, BASE.variables, BASE.partition, (double,))
    assert len(calls) == 1
    calls.clear()
    Model(FOUR.agents, FOUR.variables, FOUR.partition, (triple,))
    assert len(calls) == 1
    calls.clear()
    evaluate = compile_formula(triple, FOUR)
    assert len(calls) == 1
    assert evaluate({"x": 0, "y": 0, "z": 0, "w": 1}, 1) == 1 and len(calls) == 1
    calls.clear()  # eval_formula walks f, then each <> child once: 8 walks before
    assert not eval_formula(triple, FOUR, dict.fromkeys(FOUR.variables, False))
    assert len(calls) == 4
    assert not hasattr(formula_mod, "_diamond_variables")


def outcome(call):
    """What call returns, or the kind and message of the CoalGuardError it raises."""
    try:
        return call()
    except CoalGuardError as exc:
        return type(exc), str(exc)


@given(seeds, st.booleans(), st.booleans())
def test_eval_formula_matches_its_former_recursion(seed, modal, partial):
    """eval_formula against _eval, the recursion it had of its own, on modal
    and propositional formulas over bools and the ints 0 and 1, in a plain
    mapping and a SystemState: the same truth, or, where a partial state
    leaves out a variable that f reads, the same error naming it."""
    rng = random.Random(seed)
    model = random_model(rng, max_vars=7, max_agents=4)
    f = modal_formula(rng, model) if modal else random_formula(rng, list(model.variables))
    for _ in range(4):
        valuation = {v: rng.choice((False, True, 0, 1)) for v in model.variables
                     if not partial or rng.random() < 0.8}
        for state in (valuation, SystemState(0, valuation)):
            expected = outcome(lambda: eval_formula_reference(f, model, state))
            got = outcome(lambda: eval_formula(f, model, state))
            assert got == expected if isinstance(expected, tuple) else got is bool(expected)


def test_a_diamond_stops_at_its_first_holding_assignment():
    """<>{a1} (~x | y) holds at x = false, before any assignment reads y,
    which the state leaves out: true, as under the former recursion, and
    no UnknownVariableError."""
    f, state = parse_formula("<>{a1} (~x | y)"), {"x": True}
    assert eval_formula(f, BASE, state) is eval_formula_reference(f, BASE, state) is True


@pytest.mark.parametrize("value", [2, -1, 1.0, None, "1"])
def test_eval_formula_refuses_a_value_that_is_not_a_bit(value):
    """A plain mapping's values follow SystemState's rule: ~x at x = 2 read
    false under the former recursion, but True ^ 2 would read true."""
    for call in (lambda: eval_formula(parse_formula("~x"), BASE, {"x": value, "y": False}),
                 lambda: SystemState(0, {"x": value, "y": False})):
        with pytest.raises(PreconditionError, match="a bool or the int 0 or 1"):
            call()
    for bit in (False, True, 0, 1):
        assert eval_formula(parse_formula("~x"), BASE, {"x": bit, "y": False}) is (not bit)


@pytest.mark.parametrize("k", range(2, 7))
def test_eval_formula_walks_each_diamond_once_a_call(monkeypatch, k):
    """eval_formula walks each <> child the first time it is evaluated, not
    every time: k nested <>s made 2^k walks, now k + 1."""
    model, f = nested_model(k)
    calls = count_walks(monkeypatch)
    assert eval_formula(f, model, dict.fromkeys(model.variables, False))
    assert len(calls) == k + 1


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda f: compile_formula(f, None), PreconditionError, "model must be a Model, not None"),
        (lambda f: compile_formula(f, BASE), UnknownAgentError, "unknown agents: ['ghost']"),
        (lambda f: eval_formula(f, BASE, ZEROS), UnknownAgentError, "unknown agents: ['ghost']"),
        (lambda f: Model(BASE.agents, BASE.variables, BASE.partition, (f,)),
         UnknownAgentError, "unknown agents: ['ghost']"),
    ],
    ids=["compile_formula-none", "compile_formula", "eval_formula", "Model"],
)
def test_a_modal_formulas_entry_raises_what_its_diamonds_did(call, error, message):
    """The names a <> once checked itself: an inner <> naming an unknown
    agent, or no model at all, raise the same error as before."""
    with pytest.raises(error) as raised:
        call(parse_formula("<>{a1} <>{ghost} x"))
    assert str(raised.value) == message
    if error is UnknownAgentError:  # the unknown variable under two <>s, likewise
        with pytest.raises(UnknownVariableError, match=r"unknown variables: \['zz'\]"):
            call(parse_formula("<>{a1} <>{a2} (x & zz)"))


def test_compile_formula_checks_a_modal_formulas_names_outside_its_diamonds():
    """A name outside every <> was not checked by any <>, so such a formula
    compiled and its closure raised KeyError; the entry refuses it now."""
    with pytest.raises(UnknownVariableError, match=r"unknown variables: \['zz'\]"):
        compile_formula(parse_formula("zz | <>{a1} x"), BASE)
    assert compile_formula(parse_formula("zz | x"), None)({"zz": 0, "x": 1}, 1) == 1


def test_diamond_budget_raises_only_when_evaluated():
    big = tuple(f"y{i}" for i in range(21))
    model = Model(
        ("a1", "big"), ("x",) + big, {"a1": ("x",), "big": big},
        (parse_formula("x | <>{big} (" + " | ".join(big) + ")"),),
    )
    evaluate = model.compiled.evaluators[0]
    quiet = {v: False for v in model.variables}
    assert evaluate({**quiet, "x": True}, True)
    alarmed = SystemState(0, {**quiet, "x": True})
    assert not is_secure(model, alarmed)
    assert simulate(model, alarmed, (ActionRequest("big", "y0", True, 0),)).became_true == ()
    with pytest.raises(BudgetExceededError):
        evaluate(quiet, True)
    with pytest.raises(BudgetExceededError):
        is_secure(model, SystemState(0, quiet))


def rename(f, old, new):
    """f with the variable or coalition member ``old`` renamed to ``new``."""
    if isinstance(f, Var):
        return Var(new) if f.name == old else f
    if isinstance(f, Not):
        return Not(rename(f.child, old, new))
    if isinstance(f, Or):
        return Or(rename(f.left, old, new), rename(f.right, old, new))
    if isinstance(f, Diamond):
        coalition = {new if agent == old else agent for agent in f.coalition}
        return Diamond(coalition, rename(f.child, old, new))
    return f


@given(seeds)
def test_undeclared_names_raise_what_eval_formula_raises(seed):
    rng = random.Random(seed)
    base = random_model(rng, max_formulas=3)
    formulas = list(base.critical_formulas)
    index = rng.randrange(len(formulas))
    if rng.random() < 0.5:
        formulas[index] = modal_formula(rng, base)
    f = formulas[index]
    variables, coalitions = structure(f)
    names = sorted(variables | set().union(*coalitions))
    assume(names)
    formulas[index] = rename(f, rng.choice(names), "ghost")
    state = SystemState(0, {v: rng.random() < 0.5 for v in base.variables})
    with pytest.raises(CoalGuardError) as reference:
        eval_formula(formulas[index], base, state)
    expected = type(reference.value)
    assert expected in (UnknownVariableError, UnknownAgentError)
    with pytest.raises(expected) as raised:
        Model(base.agents, base.variables, base.partition, formulas)
    assert str(raised.value) == str(reference.value)
