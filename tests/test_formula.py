import itertools
import random

import pytest
from hypothesis import given, strategies as st

from coalguard import (
    BudgetExceededError,
    Diamond,
    FormulaSyntaxError,
    HornLabeling,
    Literal,
    ModalFormulaError,
    Model,
    Not,
    Or,
    PreconditionError,
    TOP,
    Var,
    compile_formula,
    conjoin,
    disjoin,
    eval_formula,
    find_horn_labeling,
    format_formula,
    has_diamond,
    parse_formula,
    to_cnf,
    validate_model,
    vars_of,
)
from coalguard.formula import CNF_CLAUSE_CAP, FORMULA_DEPTH_CAP, valuation_masks
from helpers import clauses_hold, enumerate_labelings, random_formula, truth_eval, vars_in

# one agent owning the variables formulas() draws from
PQRS = Model(("a",), ("p", "q", "r", "s"), {"a": ("p", "q", "r", "s")})


# ---------------------------------------------------------------------------
# parsing


def test_parse_atoms():
    assert parse_formula("true") == TOP
    assert parse_formula("p") == Var("p")
    assert parse_formula("~p") == Not(Var("p"))


def test_conjunction_is_sugar():
    assert parse_formula("a & b") == Not(Or(Not(Var("a")), Not(Var("b"))))


def test_precedence_unary_over_and_over_or():
    assert parse_formula("~a & b | c") == Or(
        Not(Or(Not(Not(Var("a"))), Not(Var("b")))), Var("c")
    )
    # parenthesized version differs
    assert parse_formula("~a & (b | c)") != parse_formula("~a & b | c")


def test_left_associativity():
    assert parse_formula("a | b | c") == Or(Or(Var("a"), Var("b")), Var("c"))


def test_parse_diamond():
    f = parse_formula("<>{a1, a2} (p | q)")
    assert isinstance(f, Diamond)
    assert f.coalition == frozenset({"a1", "a2"})
    assert f.child == Or(Var("p"), Var("q"))


def test_syntax_errors_carry_position():
    for text in ("", "p |", "( p", "<>{} p", "p q", "&p", "<>p"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


@pytest.mark.parametrize(
    "at_cap, past_cap",
    [
        # 252 negations over x & y, whose tree ~(~x | ~y) has four levels
        ("~" * 252 + "(x & y)", "~" * 253 + "(x & y)"),
        # a left-leaning chain of n terms has n levels
        (" | ".join(["x", "y"] * 128), " | ".join(["x", "y"] * 128 + ["x"])),
    ],
    ids=["negations", "or-chain"],
)
def test_formula_at_depth_cap_is_usable(at_cap, past_cap):
    assert FORMULA_DEPTH_CAP == 256
    f = parse_formula(at_cap)
    model = Model(("a1", "a2"), ("x", "y"), {"a1": ("x",), "a2": ("y",)}, (f,))
    assert validate_model(model) == ()
    for x, y in itertools.product((False, True), repeat=2):
        valuation = {"x": x, "y": y}
        assert model.compiled.evaluators[0](valuation) == eval_formula(f, model, valuation)
    assert parse_formula(format_formula(f)) == f
    with pytest.raises(BudgetExceededError, match="deeper than 256"):
        parse_formula(past_cap)


def test_format_examples():
    assert format_formula(parse_formula("v1 & v2 & (~v3 | v5 | ~v4)")) == "v1 & v2 & (~v3 | v5 | ~v4)"
    assert format_formula(parse_formula("(~v5 | ~v3) & ~v6")) == "(~v5 | ~v3) & ~v6"
    assert format_formula(parse_formula("(~A & B) | (A & ~B)")) == "~A & B | A & ~B"


@st.composite
def formulas(draw, names=("p", "q", "r", "s"), max_depth=4, modal=False):
    depth = draw(st.integers(0, max_depth))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    f = random_formula(rng, list(names), depth)
    if modal and draw(st.booleans()):
        f = Diamond(draw(st.sets(st.sampled_from(("a1", "a2")), min_size=1)), f)
    return f


@given(formulas(modal=True))
def test_format_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas())
def test_vars_of_matches_reference(f):
    assert set(vars_of(f)) == vars_in(f)


# ---------------------------------------------------------------------------
# propositional evaluation


@given(formulas(), st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()))
def test_evaluate_matches_reference(f, bits):
    valuation = dict(zip(("p", "q", "r", "s"), bits))
    assert compile_formula(f, PQRS)(valuation) == truth_eval(f, valuation)


def test_has_diamond():
    assert not has_diamond(parse_formula("a & ~b"))
    assert has_diamond(parse_formula("a | <>{c1} b"))


# ---------------------------------------------------------------------------
# CNF


def test_to_cnf_drops_tautologies_and_merges():
    f = parse_formula("(~A & B) | (A & ~B)")
    clauses = to_cnf(f).clauses
    assert set(clauses) == {
        frozenset({Literal("A", True), Literal("B", True)}),
        frozenset({Literal("A", False), Literal("B", False)}),
    }


def test_to_cnf_of_contradiction_is_empty_clause():
    assert to_cnf(Not(TOP)).clauses == (frozenset(),)
    assert to_cnf(TOP).clauses == ()


def test_to_cnf_rejects_modal():
    with pytest.raises(ModalFormulaError):
        to_cnf(parse_formula("<>{a} p"))


@pytest.mark.parametrize("bad", [5, [5]], ids=["int", "list"])
@pytest.mark.parametrize(
    "call",
    [parse_formula, format_formula, lambda f: compile_formula(f, PQRS), to_cnf],
    ids=["parse_formula", "format_formula", "compile_formula", "to_cnf"],
)
def test_non_formulas_raise_precondition_error(call, bad):
    with pytest.raises(PreconditionError, match="formula"):
        call(bad)


def test_vars_of_and_eval_formula_reject_an_unhashable_argument():
    model = Model(("a",), ("x",), {"a": ("x",)})
    with pytest.raises(PreconditionError, match="not a formula"):
        vars_of([5])
    with pytest.raises(PreconditionError, match="not a formula"):
        eval_formula([5], model, {"x": False})


def test_built_trees_stay_within_the_recursive_walkers():
    names = tuple(f"x{i}" for i in range(10))
    # the 1023 satisfying minterms of x0 | ... | x9, one conjunction each
    expanded = disjoin(
        conjoin(Var(v) if bits >> i & 1 else Not(Var(v)) for i, v in enumerate(names))
        for bits in range(1, 1024)
    )
    assert parse_formula(format_formula(expanded)) == expanded
    assert vars_of(expanded) == set(names)
    model = Model(("a",), names, {"a": names})
    evaluate = compile_formula(expanded, model)
    for bits in (0, 1, 0b1010000000, 1023):
        valuation = {v: bool(bits >> i & 1) for i, v in enumerate(names)}
        assert evaluate(valuation) == eval_formula(expanded, model, valuation) == (bits != 0)
    wide = disjoin([Var(f"v{i}") for i in range(2000)])
    assert vars_of(wide) == {f"v{i}" for i in range(2000)}


def test_valuation_masks_are_variable_truth_tables():
    for n in range(0, 9):
        expected = tuple(sum(1 << i for i in range(1 << n) if (i >> j) & 1) for j in range(n))
        assert valuation_masks(n) == expected


def test_to_cnf_clause_cap():
    # (p1 & ... & pk) | (q1 & ... & qm) distributes to k * m two-literal clauses
    def conjunction(prefix, k):
        return conjoin(Var(f"{prefix}{i}") for i in range(k))

    assert CNF_CLAUSE_CAP == 64 * 64 == 17 * 241 - 1
    at_cap = to_cnf(conjunction("p", 64) | conjunction("q", 64))
    assert len(at_cap.clauses) == CNF_CLAUSE_CAP
    with pytest.raises(BudgetExceededError, match="17 x 241 clauses, cap is 4096"):
        to_cnf(conjunction("p", 17) | conjunction("q", 241))


@given(formulas(names=("p", "q", "r", "s", "t", "u"), max_depth=4))
def test_cnf_equivalent_on_all_rows(f):
    names = sorted(vars_in(f))
    clauses = to_cnf(f)
    for mask in range(1 << len(names)):
        valuation = {v: bool((mask >> j) & 1) for j, v in enumerate(names)}
        assert clauses_hold(clauses, valuation) == truth_eval(f, valuation)


# ---------------------------------------------------------------------------
# Horn labeling


def test_xor_labeling_flips_one_side():
    f = parse_formula("(~A & B) | (A & ~B)")
    labeling = find_horn_labeling(f)
    assert labeling is not None
    assert labeling.flipped in ({"A"}, {"B"})
    assert to_cnf(f).is_horn(labeling)


def test_flip_a_xor_labeling_is_accepted():
    f = parse_formula("(~A & B) | (A & ~B)")
    assert to_cnf(f).is_horn(HornLabeling(("A", "B"), frozenset({"A"})))


def test_three_way_parity_has_no_labeling():
    f = parse_formula(
        "(A & ~B & ~C) | (~A & B & ~C) | (~A & ~B & C) | (A & B & C)"
    )
    assert find_horn_labeling(f) is None
    assert enumerate_labelings(to_cnf(f)) == []


def test_already_horn_needs_no_flip():
    labeling = find_horn_labeling(parse_formula("(~a | ~b | c) & ~d"))
    assert labeling is not None
    assert labeling.flipped == frozenset()


@given(formulas(names=("p", "q", "r", "s"), max_depth=4))
def test_labeling_agrees_with_enumeration(f):
    clauses = to_cnf(f)
    witnesses = enumerate_labelings(clauses)
    labeling = find_horn_labeling(f)
    if labeling is None:
        assert witnesses == []
    else:
        assert clauses.is_horn(labeling)
