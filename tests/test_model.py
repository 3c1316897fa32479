import copy
import dataclasses
import inspect
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from coalguard import (
    ActionQueue,
    ActionRequest,
    BlockForRandomInterval,
    BlockUntilTick,
    BudgetExceededError,
    CoalGuardError,
    Diamond,
    EngineConfig,
    Formula,
    Model,
    ModalFormulaError,
    Not,
    Or,
    OwnershipViolationError,
    PartialValuation,
    PreconditionError,
    SystemState,
    TOP,
    UnknownAgentError,
    UnknownVariableError,
    Var,
    audit_vulnerabilities,
    build_cycle_instance,
    conjoin,
    diamond_holds,
    eval_formula,
    is_secure,
    nondet_block,
    parse_formula,
    single_flip_agents,
    tick,
    validate_model,
)
from coalguard import formula as formula_mod, model as model_mod
from coalguard.formula import DIAMOND_VARIABLE_CAP
from helpers import (
    brute_diamond,
    random_formula,
    random_model,
    truth_eval,
)


def zeros(model):
    return SystemState(0, dict.fromkeys(model.variables, False))


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


@pytest.mark.parametrize("value", [2, -1, "x", None, 1.0], ids=repr)
def test_system_state_rejects_a_value_that_is_not_a_bit(value):
    with pytest.raises(PreconditionError, match="bool or the int 0 or 1"):
        SystemState(0, {"x": False, "y": value})


def test_system_state_keeps_bools_and_the_ints_0_and_1():
    valuation = {"a": True, "b": False, "c": 0, "d": 1}
    assert SystemState(0, valuation).valuation == valuation


@pytest.mark.parametrize(
    "changes, tick, message",
    [({"x": 2}, None, "bool or the int 0 or 1"), ({"y": None}, 3, "bool or the int 0 or 1"),
     ({"x": True}, True, "tick must be an int"), ([1, 2], None, "valuation must be a mapping")],
    ids=["value 2", "value None", "bool tick", "not a mapping"],
)
def test_with_updates_checks_the_tick_and_the_changes(changes, tick, message):
    state = SystemState(4, {"x": False, "y": 1})
    with pytest.raises(PreconditionError, match=message):
        state.with_updates(changes, tick)
    assert state == SystemState(4, {"x": False, "y": 1})  # left as it was


@pytest.mark.parametrize("tick", [None, 0, 9])
def test_with_updates_equals_the_state_the_constructor_builds(tick):
    state = SystemState(4, {"x": False, "y": 1, "z": True})
    changes = {"z": 0, "x": True, "w": False}  # one new variable, appended last
    updated = state.with_updates(changes, tick)
    built = SystemState(4 if tick is None else tick, {**state.valuation, **changes})
    assert updated == built
    assert list(updated.valuation.items()) == list(built.valuation.items())
    assert state.valuation == {"x": False, "y": 1, "z": True}
    changes["x"] = False  # the new state holds a copy of the changes
    assert updated.valuation["x"] is True


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
        lambda m: diamond_holds(m, zeros(m), 5, m.critical_formulas[0]),
        lambda m: Var(5),
        lambda m: Var("1x"),
        lambda m: Diamond([], TOP),
        lambda m: Diamond(5, TOP),
        lambda m: EngineConfig(blocking_strategy=5),
        lambda m: BlockUntilTick("3"),
        lambda m: BlockForRandomInterval(0.5, 2.5),
        lambda m: EngineConfig(random_seed=[1]),
        lambda m: EngineConfig(random_seed=True),
        lambda m: BlockForRandomInterval(0, 2, seed=[1]),
        lambda m: eval_formula(m.critical_formulas[0], m, None),
        lambda m: single_flip_agents(m, None, m.critical_formulas[0]),
        lambda m: nondet_block(m, zeros(m), (), rng=5),
        lambda m: nondet_block(m, zeros(m), (), seed=[1]),
        lambda m: tick(m, zeros(m), None, EngineConfig()),
        lambda m: tick(m, zeros(m), ActionQueue(m), EngineConfig(), 5),
        lambda m: tick(m, zeros(m), ActionQueue(m), EngineConfig(), {"a1": "x"}),
    ],
    ids=["is_secure-none", "audit-none", "diamond_holds-none", "diamond_holds-coalition-int",
         "var-int", "var-digit-first", "diamond-empty", "diamond-int", "config-strategy",
         "until-string", "interval-floats",
         "config-seed-list", "config-seed-bool", "interval-seed-list", "eval_formula-none",
         "single_flip-none", "nondet-rng-int", "nondet-seed-list", "tick-queue-none",
         "tick-registry-int", "tick-registry-str"],
)
def test_malformed_arguments_raise_precondition_error(example1_model, call):
    with pytest.raises(PreconditionError):
        call(example1_model)


def test_owned_rejects_an_unknown_agent(example1_model):
    assert example1_model.owned("a3") == ("v2", "v6")
    with pytest.raises(UnknownAgentError, match="unknown agent: 'ghost'"):
        example1_model.owned("ghost")


def test_eval_rejects_unknown_names(example1_model, example1_state):
    with pytest.raises(UnknownVariableError):
        eval_formula(parse_formula("v1 & zz"), example1_model, example1_state)
    with pytest.raises(UnknownAgentError):
        eval_formula(parse_formula("<>{ghost} v1"), example1_model, example1_state)


def test_unknown_agent_names_that_do_not_order_raise_unknown_agent_error():
    model, state, _ = build_cycle_instance(5)
    with pytest.raises(UnknownAgentError, match="unknown agents"):
        diamond_holds(model, state, [5, None], Var("x1"))
    with pytest.raises(UnknownAgentError, match="unknown agents"):
        eval_formula(Diamond([5, None], TOP), model, state)
    with pytest.raises(UnknownAgentError, match="unknown agents"):
        Model(("a",), ("x",), {"a": ("x",)}, critical_formulas=(Diamond(["b", 5], Var("x")),))


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
    assert holds == (brute_diamond(model, state, coalition, f) is not None)
    if holds:
        owned = {v for v in model.variables if model.owner_of(v) in coalition}
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


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_diamond_holds_returns_the_first_witness_in_product_order(seed, empty, already_true):
    """The verdict is brute_diamond's, and the witness its first holding
    assignment: in itertools.product order over the coalition's variables of
    f in model order, listed in that order, for the empty coalition too and
    for formulas already true at the state."""
    rng = random.Random(seed)
    model = random_model(rng, max_vars=8, max_agents=4, max_formulas=1)
    valuation = {v: rng.random() < 0.5 for v in model.variables}
    state = SystemState(0, valuation)
    coalition = () if empty else rng.sample(model.agents, rng.randint(1, len(model.agents)))
    f = random_formula(rng, list(model.variables), depth=4)
    if already_true:
        v = rng.choice(model.variables)
        f = Or(f, Var(v) if valuation[v] else Not(Var(v)))
    expected = brute_diamond(model, state, coalition, f)
    holds, witness = diamond_holds(model, state, coalition, f)
    if expected is None:
        assert (holds, witness) == (False, None)
    else:
        assert holds is True and witness == PartialValuation(coalition, expected)
        assert list(witness.assignment.items()) == list(expected.items())


def test_diamond_holds_names_the_first_unassigned_variable_outside_its_scope():
    """A variable of f outside the coalition's scope that the state leaves
    unassigned raises, the first in model order, as single_flip_agents does
    (the former loop named z, the first its evaluation read); a scope
    variable the state leaves out is assigned by the coalition anyway."""
    model = Model(("a1", "a2"), ("x", "y", "z"), {"a1": ("x",), "a2": ("y", "z")})
    f = parse_formula("x & (z | y)")
    state = SystemState(0, {"x": False})
    for call in (lambda: diamond_holds(model, state, ("a1",), f),
                 lambda: single_flip_agents(model, state, f)):
        with pytest.raises(UnknownVariableError, match="does not assign 'y'"):
            call()
    holds, witness = diamond_holds(model, SystemState(0, {"y": True, "z": False}), ("a1",), f)
    assert holds and witness.assignment == {"x": True}


def test_diamond_holds_at_the_cap_of_scope_variables_is_one_pass(monkeypatch):
    """At DIAMOND_VARIABLE_CAP scope variables diamond_holds enters the
    truth-table recursion once, at the root, and visits each node once: the
    former loop called a compiled closure once per assignment, 2^20 times
    here, since only the last assignment makes f true."""
    names = tuple(f"x{i}" for i in range(DIAMOND_VARIABLE_CAP))
    model = Model(("a", "b"), names + ("y",), {"a": names, "b": ("y",)})
    f = Or(conjoin(Var(v) for v in names), Var("y"))
    roots, below = [], []
    recursion = formula_mod._truth_table
    monkeypatch.setattr(model_mod, "_truth_table", lambda g, *a: roots.append(g) or recursion(g, *a))
    monkeypatch.setattr(formula_mod, "_truth_table", lambda g, *a: below.append(g) or recursion(g, *a))
    holds, witness = diamond_holds(model, zeros(model), ("a",), f)
    assert holds and witness.assignment == dict.fromkeys(names, True)
    assert roots == [f]
    nodes = lambda g: 1 + sum(nodes(c) for c in vars(g).values() if isinstance(c, Formula))
    assert len(below) == nodes(f) - 1


def test_action_request_keeps_its_frozen_slotted_dataclass_contract():
    """Its hand-written __init__ changes none of what the dataclass promised,
    and assigning or deleting any name raises FrozenInstanceError, on every
    supported Python (3.10 to 3.12), where slots=True alone raised TypeError
    for a name that is not a field on 3.11."""
    request = ActionRequest("a1", "x", True, 3)
    by_keyword = ActionRequest(agent="a1", variable="x", new_value=True, arrival_index=3)
    assert request == by_keyword and hash(request) == hash(by_keyword)
    assert repr(request) == repr(by_keyword) == (
        "ActionRequest(agent='a1', variable='x', new_value=True, arrival_index=3)")
    assert request != ActionRequest("a1", "x", True, 4) and request != ("a1", "x", True, 3)
    names = ("agent", "variable", "new_value", "arrival_index")
    for name in (*names, "extra", "__dict__"):  # a field or not, as a plain frozen dataclass
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(request, name, "y")
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(request, name)
    assert request == by_keyword and not hasattr(request, "extra")
    assert not hasattr(request, "__dict__") and ActionRequest.__slots__ == names
    assert tuple(f.name for f in dataclasses.fields(request)) == names == ActionRequest.__match_args__
    assert tuple(inspect.signature(ActionRequest).parameters) == names
    assert dataclasses.replace(request, agent="a2") == ActionRequest("a2", "x", True, 3)
    assert dataclasses.astuple(request) == ("a1", "x", True, 3)
    assert dataclasses.asdict(request) == dict(zip(names, ("a1", "x", True, 3)))
    for twin in (copy.copy(request), copy.deepcopy(request), pickle.loads(pickle.dumps(request))):
        assert twin == request and twin is not request and repr(twin) == repr(request)
    with pytest.raises(TypeError):
        ActionRequest("a1", "x", True)
    with pytest.raises(TypeError):
        ActionRequest("a1", "x", True, 3, arrival=4)
