import itertools
import random

import pytest
from hypothesis import given, strategies as st

from coalguard import (
    BudgetExceededError,
    Diamond,
    FormulaSyntaxError,
    HornLabeling,
    ModalFormulaError,
    Model,
    Not,
    Or,
    PreconditionError,
    SystemState,
    TOP,
    Var,
    compile_formula,
    conjoin,
    diamond_holds,
    disjoin,
    eval_formula,
    find_horn_labeling,
    format_formula,
    formula_from_truth_table,
    parse_formula,
    single_flip_agents,
    validate_model,
)
from coalguard.formula import (
    FORMULA_DEPTH_CAP,
    TRUTH_TABLE_VARIABLE_CAP,
    _clause_codes,
    _decode,
    _prime_implicates,
    horn_renaming,
    structure,
    valuation_masks,
)
import helpers
from helpers import (
    enumerate_labelings,
    formula_prime_implicates,
    formula_table,
    horn_renaming_2sat,
    random_formula,
    scan_prime_implicates,
    truth_eval,
    vars_in,
)

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
        assert model.compiled.evaluators[0](valuation, True) == eval_formula(f, model, valuation)
    assert parse_formula(format_formula(f)) == f
    with pytest.raises(BudgetExceededError, match="deeper than 256"):
        parse_formula(past_cap)


def not_chain(levels):
    """~~...~x with ``levels`` levels, built in code rather than parsed."""
    f = Var("x")
    for _ in range(levels - 1):
        f = Not(f)
    return f


XY = Model(("a1", "a2"), ("x", "y"), {"a1": ("x",), "a2": ("y",)})
XY_STATE = SystemState(0, {"x": True, "y": False})  # a chain of an even number of levels is false

# every entry the library offers a formula through; the cap holds however it was built
TALL_FORMULA_CALLS = {
    "parse_formula": lambda f, levels: parse_formula("~" * (levels - 1) + "x"),
    "Model": lambda f, levels: Model(XY.agents, XY.variables, XY.partition, (f,)),
    "eval_formula": lambda f, levels: eval_formula(f, XY, XY_STATE),
    "compile_formula": lambda f, levels: compile_formula(f, XY)(XY_STATE.valuation, True),
    "format_formula": lambda f, levels: format_formula(f),
    "str": lambda f, levels: str(f),
    "find_horn_labeling": lambda f, levels: find_horn_labeling(f),
    "diamond_holds": lambda f, levels: diamond_holds(XY, XY_STATE, ("a1",), f),
    "single_flip_agents":  # takes a formula false at the state
        lambda f, levels: single_flip_agents(XY, XY_STATE, Not(f) if levels % 2 else f),
}


@pytest.mark.parametrize("levels", [300, 5000])
@pytest.mark.parametrize("call", TALL_FORMULA_CALLS.values(), ids=TALL_FORMULA_CALLS.keys())
def test_a_formula_past_the_cap_is_refused_however_it_was_built(call, levels):
    with pytest.raises(BudgetExceededError, match="deeper than 256"):
        call(not_chain(levels), levels)


@pytest.mark.parametrize("call", TALL_FORMULA_CALLS.values(), ids=TALL_FORMULA_CALLS.keys())
def test_a_built_formula_at_the_cap_is_usable(call):
    assert call(not_chain(FORMULA_DEPTH_CAP), FORMULA_DEPTH_CAP) is not None


# wraps that put one level (three for a conjunction) on top of a formula
WRAPS = [Not, lambda f: Diamond(("a1",), f), lambda f: Or(f, Var("p")),
         lambda f: Or(Var("q"), f), lambda f: f & Var("r"), lambda f: Var("s") & f]


@given(st.data())
def test_a_formula_a_model_accepts_prints_back_to_itself(data):
    f = data.draw(formulas(modal=True))
    for _ in range(data.draw(st.integers(0, 300))):
        f = data.draw(st.sampled_from(WRAPS))(f)
    names = ("p", "q", "r", "s")
    try:
        Model(("a1", "a2"), names, {"a1": names[:2], "a2": names[2:]}, (f,))
    except BudgetExceededError:  # past the cap: it cannot be printed either
        with pytest.raises(BudgetExceededError, match="deeper than 256"):
            format_formula(f)
        return
    assert parse_formula(format_formula(f)) == f


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
def test_structure_variables_match_reference(f):
    assert set(structure(f)[0]) == vars_in(f)


# ---------------------------------------------------------------------------
# propositional evaluation


@given(formulas(), st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()))
def test_evaluate_matches_reference(f, bits):
    valuation = dict(zip(("p", "q", "r", "s"), bits))
    assert compile_formula(f, PQRS)(valuation, True) == truth_eval(f, valuation)


def test_structure_tells_modal_from_propositional():
    assert not structure(parse_formula("a & ~b"))[1]
    assert structure(parse_formula("a | <>{c1} b"))[1]


def test_structure_walks_any_depth_and_names_a_bad_node():
    f = parse_formula("<>{c1, c2} (a | ~<>{c3} b) & a")
    assert structure(f) == ({"a", "b"}, {frozenset({"c1", "c2"}), frozenset({"c3"})})
    deep = Var("x")
    for i in range(5000):  # past Python's recursion limit: the walk keeps its own stack
        deep = Or(Not(deep), Var(f"y{i % 3}")) if i % 2 else Diamond(("c",), deep)
    assert structure(deep) == ({"x", "y0", "y1", "y2"}, {frozenset({"c"})})
    with pytest.raises(PreconditionError, match="not a formula: 5"):
        structure(Or(Var("x"), Not(5)))


@pytest.mark.parametrize("bad", [5, [5]], ids=["int", "list"])
@pytest.mark.parametrize(
    "call",
    [parse_formula, format_formula, lambda f: compile_formula(f, PQRS), find_horn_labeling],
    ids=["parse_formula", "format_formula", "compile_formula", "find_horn_labeling"],
)
def test_non_formulas_raise_precondition_error(call, bad):
    with pytest.raises(PreconditionError, match="formula"):
        call(bad)


def test_structure_and_eval_formula_reject_an_unhashable_argument():
    model = Model(("a",), ("x",), {"a": ("x",)})
    with pytest.raises(PreconditionError, match="not a formula"):
        structure([5])
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
    assert structure(expanded)[0] == set(names)
    model = Model(("a",), names, {"a": names})
    evaluate = compile_formula(expanded, model)
    for bits in (0, 1, 0b1010000000, 1023):
        valuation = {v: bool(bits >> i & 1) for i, v in enumerate(names)}
        assert evaluate(valuation, True) == eval_formula(expanded, model, valuation) == (bits != 0)
    wide = disjoin([Var(f"v{i}") for i in range(2000)])
    assert structure(wide)[0] == {f"v{i}" for i in range(2000)}


def test_valuation_masks_are_variable_truth_tables():
    for n in range(0, 9):
        expected = tuple(sum(1 << i for i in range(1 << n) if (i >> j) & 1) for j in range(n))
        assert valuation_masks(n) == expected


# ---------------------------------------------------------------------------
# Horn labeling


XOR = parse_formula("(~A & B) | (A & ~B)")
# the prime implicates of exclusive-or: A | B and ~A | ~B
XOR_PRIMES = [{("A", True), ("B", True)}, {("A", False), ("B", False)}]


def test_xor_labeling_flips_one_side():
    labeling = find_horn_labeling(XOR)
    assert labeling is not None
    assert labeling.flipped in ({"A"}, {"B"})
    assert labeling.flipped in enumerate_labelings(XOR_PRIMES)


def test_flip_a_xor_labeling_is_accepted():
    assert formula_prime_implicates(XOR) == {frozenset(c) for c in XOR_PRIMES}
    assert frozenset({"A"}) in enumerate_labelings(XOR_PRIMES)
    assert find_horn_labeling(XOR) == HornLabeling(("A", "B"), frozenset({"A"}))


def test_three_way_parity_has_no_labeling():
    f = parse_formula(
        "(A & ~B & ~C) | (~A & B & ~C) | (~A & ~B & C) | (A & B & C)"
    )
    assert find_horn_labeling(f) is None
    assert enumerate_labelings(formula_prime_implicates(f)) == []


def test_already_horn_needs_no_flip():
    labeling = find_horn_labeling(parse_formula("(~a | ~b | c) & ~d"))
    assert labeling is not None
    assert labeling.flipped == frozenset()


def test_labeling_is_decided_on_the_function_not_its_clauses():
    # the two three-literal clauses are not Horn under any flip of x, y, z
    # together, but the whole formula equals x & ~y, which is Horn already
    f = parse_formula("(x | y | z) & (~x | ~y | ~z) & x & ~y")
    assert find_horn_labeling(f) == HornLabeling(("x", "y", "z"), frozenset())


def test_constants_are_horn_without_flips():
    for f in (TOP, Not(TOP)):
        assert find_horn_labeling(f) == HornLabeling((), frozenset())


def test_find_horn_labeling_rejects_modal():
    with pytest.raises(ModalFormulaError):
        find_horn_labeling(parse_formula("<>{a} p"))


def test_horn_labeling_truth_table_cap():
    # ten variables, the cap, still answer; eleven raise before any table is built
    names = tuple(f"v{i}" for i in range(10))
    labeling = find_horn_labeling(disjoin(Var(v) for v in names))
    assert labeling == HornLabeling(names, frozenset(names))  # one clause, all flipped
    with pytest.raises(BudgetExceededError, match="11 variables exceed the truth-table cap of 10"):
        find_horn_labeling(conjoin(Var(f"v{i}") for i in range(11)))


def _tables(num_vars):
    """Every table up to 3 variables; from 4 on, random, sparse and dense ones
    and the two constants."""
    full = (1 << (1 << num_vars)) - 1
    if num_vars <= 3:
        return range(full + 1)
    rng = random.Random(num_vars)
    draw = lambda: rng.getrandbits(1 << num_vars)  # noqa: E731
    return ([draw() for _ in range(3)] + [draw() & draw() & draw() for _ in range(2)]
            + [draw() | draw() | draw() for _ in range(2)] + [0, full])


@pytest.mark.parametrize("num_vars", range(11))
def test_prime_implicates_merged_on_bitsets_match_the_clause_scan(num_vars):
    """The bitset merge lists the primes the clause-by-clause scan listed, in
    its order (lowest clause code first), from no variables up to the cap."""
    literals, steps, _ = _clause_codes(num_vars)
    assert len(literals) == 3 ** num_vars and len(steps) == num_vars
    for table in _tables(num_vars):
        primes = _decode(literals, _prime_implicates(steps, table))
        assert primes == scan_prime_implicates(num_vars, table), (num_vars, table)
    if num_vars == TRUTH_TABLE_VARIABLE_CAP:
        helpers._all_clauses.cache_clear()  # the scan's clauses hold 56 MiB at 10


def test_no_variables_have_the_empty_clause_or_no_prime():
    literals, steps, horn_breaking = _clause_codes(0)
    assert (literals, steps, horn_breaking) == (((),), (), 0)
    assert _decode(literals, _prime_implicates(steps, 0)) == [()]  # false implies the empty clause
    assert _decode(literals, _prime_implicates(steps, 1)) == []
    assert find_horn_labeling(TOP) == find_horn_labeling(Not(TOP)) == HornLabeling((), frozenset())


def test_the_horn_bit_test_is_horn_renamings_own():
    """A table is Horn as it stands, with no renaming, exactly when no prime
    implicate's code is in the mask of codes with two positive literals."""
    literals, steps, horn_breaking = _clause_codes(3)
    verdicts = set()
    for table in range(256):
        primes = _prime_implicates(steps, table)
        already = horn_renaming(_decode(literals, primes)) == frozenset()
        assert (not primes & horn_breaking) == already, table
        verdicts.add(already)
    assert verdicts == {True, False}


def test_horn_renaming_on_its_truth_table_matches_the_2sat_search():
    """The renaming's truth table picks the solution the 2-SAT search
    committed to: on every table's primes up to 3 variables, on sampled
    4-variable tables, and on random clause sets over named variables."""
    samples = [(n, table) for n in range(4) for table in _tables(n)]
    samples += [(4, table) for table in random.Random(0).sample(range(1 << 16), 300)]
    for num_vars, table in samples:
        literals, steps, _ = _clause_codes(num_vars)
        clauses = _decode(literals, _prime_implicates(steps, table))
        assert horn_renaming(clauses) == horn_renaming_2sat(clauses), (num_vars, table)
    rng = random.Random(5)
    outcomes = set()
    for _ in range(3000):
        names = [f"v{i}" for i in range(rng.randint(1, 7))]
        widths = [rng.randint(0, min(4, len(names))) for _ in range(rng.randint(0, 8))]
        clauses = [tuple((v, rng.random() < 0.6) for v in rng.sample(names, k)) for k in widths]
        found = horn_renaming(clauses)
        assert found == horn_renaming_2sat(clauses), clauses
        outcomes.add("none" if found is None else "flips" if found else "kept")
    assert outcomes == {"none", "flips", "kept"}


def test_horn_renaming_past_the_truth_table_cap_raises():
    # eleven variables in pairs of positive literals: a truth table of 2^11 rows
    clauses = [((f"v{i}", True), (f"v{i + 1}", True)) for i in range(10)]
    with pytest.raises(BudgetExceededError, match="11 variables exceed the truth-table cap"):
        horn_renaming(clauses)
    assert horn_renaming(clauses[:9]) is not None


@given(formulas(names=("p", "q", "r", "s"), max_depth=4))
def test_labeling_agrees_with_enumeration(f):
    witnesses = enumerate_labelings(formula_prime_implicates(f))
    labeling = find_horn_labeling(f)
    if labeling is None:
        assert witnesses == []
    else:
        assert labeling.variables == tuple(sorted(vars_in(f)))
        assert labeling.flipped in witnesses


@given(formulas(names=("p", "q", "r", "s"), max_depth=4))
def test_equivalent_formulas_get_the_same_verdict(f):
    # formula_from_truth_table writes the same function over x1..x4
    names = {"p": "x1", "q": "x2", "r": "x3", "s": "x4"}
    table = formula_table(f, sorted(names))
    labeling = find_horn_labeling(f)
    other = find_horn_labeling(formula_from_truth_table(4, table))
    assert (labeling is None) == (other is None)
    if labeling is not None:
        assert {names[v] for v in labeling.flipped} == other.flipped
