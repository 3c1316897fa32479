import random

import pytest
from hypothesis import given, strategies as st

from coalguard import (
    BlockForRandomInterval,
    BlockUntilTick,
    BudgetExceededError,
    CoalGuardError,
    Diamond,
    EngineConfig,
    Model,
    ModalFormulaError,
    OwnershipViolationError,
    PartialValuation,
    PreconditionError,
    SystemState,
    TOP,
    UnknownAgentError,
    UnknownVariableError,
    Var,
    audit_vulnerabilities,
    diamond_holds,
    eval_formula,
    is_secure,
    parse_formula,
    validate_model,
)
from helpers import brute_diamond, random_formula, random_model, truth_eval


def kinds(violations):
    return {v.kind for v in violations}


def test_example1_is_valid(example1_model):
    assert validate_model(example1_model) == ()


TWO = (("a1", "a2"), ("x", "y"), {"a1": ("x",), "a2": ("y",)})


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((("a1", "a2"), ("x",), {"a1": ("x",), "a2": ("x",)}),
         OwnershipViolationError, "doubly-owned"),
        ((("a1",), ("x",), {"a1": ("x", "x")}), OwnershipViolationError, "doubly-owned"),
        ((("a1",), ("x", "y"), {"a1": ("x",)}), UnknownVariableError, "no agent controls 'y'"),
        ((("a1",), ("x",), {"a1": ("x", "z")}), UnknownVariableError, "undeclared variable 'z'"),
        ((("a1",), ("x",), {"a1": ("x",), "a9": ()}), UnknownAgentError, "undeclared agent 'a9'"),
        ((("a1", "a1"), ("x",), {"a1": ("x",)}), PreconditionError, "agent 'a1'"),
        ((("a1",), ("x", "x"), {"a1": ("x",)}), PreconditionError, "variable 'x'"),
        ((("a",), (["x"],), {"a": (["x"],)}), PreconditionError, "variable names must be strings"),
        (((1,), ("x",), {1: ("x",)}), PreconditionError, "agent names must be strings"),
        ((("a1",), ("x",), {"a1": ("x", ["x"])}),
         UnknownVariableError, r"undeclared variable \['x'\]"),
        ((("a",), ("x",), {"a": 5}), PreconditionError, "not iterable"),
        ((("a",), ("x",), [("a", ("x",))]), PreconditionError, "partition a mapping"),
        (TWO + ("x & y",), PreconditionError, "must be formulas, got 'x'"),
        (TWO + ((f for f in (parse_formula("x & y"), "y")),),
         PreconditionError, "must be formulas, got 'y'"),
    ],
    ids=["two-owners", "listed-twice", "uncovered", "undeclared-variable",
         "undeclared-agent", "repeated-agent", "repeated-variable", "list-variable",
         "int-agent", "list-claimed", "int-owned", "list-partition", "string-formulas",
         "generator-formulas"],
)
def test_partition_faults_raise_at_construction(args, error, message):
    with pytest.raises(error, match=message):
        Model(*args)


def test_formulas_passed_as_a_generator_are_kept():
    formulas = (parse_formula(text) for text in ("x & y", "x | y"))
    model = Model(*TWO, formulas)
    assert model.critical_formulas == (parse_formula("x & y"), parse_formula("x | y"))


def test_formula_mentioning_undeclared_variable():
    # rejected when the model is built, with what eval_formula raises on first use
    f = parse_formula("x & w")
    with pytest.raises(UnknownVariableError) as reference:
        eval_formula(f, Model(*TWO), SystemState(0, {"x": False, "y": False}))
    with pytest.raises(UnknownVariableError) as raised:
        Model(*TWO, (f,))
    assert str(raised.value) == str(reference.value) == "unknown variables: ['w']"


def test_system_state_rejects_a_non_mapping_valuation():
    with pytest.raises(PreconditionError, match="valuation must be a mapping"):
        SystemState(0, [1, 2])


@pytest.mark.parametrize("tick", ["0", True, 0.0])
def test_system_state_rejects_a_tick_that_is_not_an_int(tick):
    with pytest.raises(PreconditionError, match="tick must be an int"):
        SystemState(tick, {})


def test_partial_valuation_rejects_malformed_parts():
    for coalition, assignment in ((5, {}), (("a1",), 5)):
        with pytest.raises(CoalGuardError, match="malformed partial valuation"):
            PartialValuation(coalition, assignment)


def test_single_agent_formula_downgrades():
    m = Model(("a1", "a2"), ("x", "y"), {"a1": ("x",), "a2": ("y",)},
              (parse_formula("~x"),))
    strict = validate_model(m)
    assert "single-agent-formula" in kinds(strict)


def test_empty_model():
    found = kinds(validate_model(Model((), (), {})))
    assert {"empty-agent-set", "empty-variable-set"} <= found


# ---------------------------------------------------------------------------
# state + security


def test_state_lookup_errors(example1_model, example1_state):
    assert example1_state.value("v2") is True
    with pytest.raises(UnknownVariableError):
        example1_state.value("nope")


def test_example1_start_secure(example1_model, example1_state):
    assert is_secure(example1_model, example1_state)


@pytest.mark.parametrize(
    "call",
    [
        is_secure,
        lambda m, s: eval_formula(m.critical_formulas[0], m, s),
        lambda m, s: diamond_holds(m, s, ("a2",), m.critical_formulas[0]),
    ],
    ids=["is_secure", "eval_formula", "diamond_holds"],
)
def test_is_secure_on_a_state_that_leaves_a_variable_unassigned(example1_model, call):
    with pytest.raises(UnknownVariableError, match="state does not assign 'v1'"):
        call(example1_model, SystemState(0, {}))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: is_secure(m, None),
        lambda m: audit_vulnerabilities(m, None),
        lambda m: diamond_holds(m, None, ("a1",), m.critical_formulas[0]),
        lambda m: Var(5),
        lambda m: Var("1x"),
        lambda m: Diamond([], TOP),
        lambda m: Diamond(5, TOP),
        lambda m: EngineConfig(blocking_strategy=5),
        lambda m: BlockUntilTick("3"),
        lambda m: BlockForRandomInterval(0.5, 2.5),
    ],
    ids=["is_secure-none", "audit-none", "diamond_holds-none", "var-int", "var-digit-first",
         "diamond-empty", "diamond-int", "config-strategy", "until-string", "interval-floats"],
)
def test_malformed_arguments_raise_precondition_error(example1_model, call):
    with pytest.raises(PreconditionError):
        call(example1_model)


def test_eval_rejects_unknown_names(example1_model, example1_state):
    with pytest.raises(UnknownVariableError):
        eval_formula(parse_formula("v1 & zz"), example1_model, example1_state)
    with pytest.raises(UnknownAgentError):
        eval_formula(parse_formula("<>{ghost} v1"), example1_model, example1_state)


# ---------------------------------------------------------------------------
# coalition ability


def test_lone_agent_cannot_reach_formula(example1_model, example1_state):
    phi2 = example1_model.critical_formulas[1]
    holds, witness = diamond_holds(example1_model, example1_state, ("a4",), phi2)
    assert not holds and witness is None


def test_witness_restricted_to_relevant_variables(example1_model, example1_state):
    phi2 = example1_model.critical_formulas[1]
    holds, witness = diamond_holds(example1_model, example1_state, ("a3",), phi2)
    assert holds
    assert witness.assignment == {"v6": False}
    merged = dict(example1_state.valuation)
    merged.update(witness.assignment)
    assert truth_eval(phi2, merged)


def test_top_gets_empty_witness(example1_model, example1_state):
    holds, witness = diamond_holds(example1_model, example1_state, ("a5",), TOP)
    assert holds and witness.assignment == {}


def test_diamond_nested_is_rejected(example1_model, example1_state):
    with pytest.raises(ModalFormulaError):
        diamond_holds(
            example1_model, example1_state, ("a1",), parse_formula("<>{a2} v3")
        )


def test_diamond_budget():
    n = 21
    variables = tuple(f"x{i}" for i in range(n))
    m = Model(("a1",), variables, {"a1": variables})
    state = SystemState(0, {v: False for v in variables})
    f = parse_formula(" | ".join(variables))
    with pytest.raises(BudgetExceededError):
        diamond_holds(m, state, ("a1",), f)


def test_modal_semantics_via_eval(example1_model, example1_state):
    assert eval_formula(
        parse_formula("<>{a2, a3} ((~v5 | ~v3) & ~v6)"), example1_model, example1_state
    )
    assert not eval_formula(
        parse_formula("<>{a4} ((~v5 | ~v3) & ~v6)"), example1_model, example1_state
    )


@given(st.integers(0, 2**32 - 1))
def test_diamond_matches_exhaustive_reference(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=6, max_agents=4, max_formulas=1)
    valuation = {v: rng.random() < 0.5 for v in model.variables}
    state = SystemState(0, valuation)
    coalition = tuple(rng.sample(model.agents, rng.randint(1, len(model.agents))))
    f = random_formula(rng, list(model.variables), depth=3)
    holds, witness = diamond_holds(model, state, coalition, f)
    assert holds == brute_diamond(model, state, coalition, f)
    if holds:
        owned = set(model.coalition_variables(coalition))
        assert set(witness.assignment) <= owned
        merged = dict(valuation)
        merged.update(witness.assignment)
        assert truth_eval(f, merged)


@given(st.integers(0, 2**32 - 1))
def test_diamond_monotone_in_coalition(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=6, max_agents=4, max_formulas=1)
    state = SystemState(0, {v: rng.random() < 0.5 for v in model.variables})
    f = random_formula(rng, list(model.variables), depth=3)
    small = tuple(rng.sample(model.agents, rng.randint(1, len(model.agents) - 1)))
    grown = small + tuple(a for a in model.agents if a not in small)
    held_small, _ = diamond_holds(model, state, small, f)
    held_grown, _ = diamond_holds(model, state, grown, f)
    if held_small:
        assert held_grown
