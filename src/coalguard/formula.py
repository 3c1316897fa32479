"""Propositional formulas with a coalition-ability modality.

Surface syntax accepted by :func:`parse_formula`:

    true            constant truth
    v3              variable (letters, digits, underscore; not starting with a digit)
    ~f              negation, binds tightest
    f & g           conjunction, desugared to ~(~f | ~g)
    f | g           disjunction
    <>{a1,a2} f     the coalition {a1, a2} can make f true on its own
    ( f )           grouping

Binary operators associate to the left and ``&`` binds tighter than ``|``.
The AST keeps five node kinds only (Top, Var, Not, Or, Diamond); ``&`` is
surface sugar and never appears in a parsed tree, so formatting a formula
prints negations and disjunctions instead.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    BudgetExceededError,
    FormulaSyntaxError,
    ModalFormulaError,
    PreconditionError,
    UnknownAgentError,
    UnknownVariableError,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"true"}

DIAMOND_VARIABLE_CAP = 20
# Most clauses one step of to_cnf may build: a | b distributes p clauses of a
# over q of b into p * q, so k two-literal conjunctions joined by | need 2^k.
CNF_CLAUSE_CAP = 4096
# Deepest formula parse_formula accepts; evaluators and printers recurse on
# trees, so this keeps them far from Python's recursion limit.
FORMULA_DEPTH_CAP = 256

Evaluator = Callable[[Mapping[str, bool]], bool]


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def __invert__(self) -> "Formula":
        return Not(self)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __and__(self, other: "Formula") -> "Formula":
        # Conjunction is sugar; keep the core AST at five node kinds.
        return Not(Or(Not(self), Not(other)))

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    pass


TOP = Top()


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def __post_init__(self):
        name = self.name
        if not isinstance(name, str) or not _IDENT_RE.fullmatch(name) or name in _RESERVED:
            raise PreconditionError(f"invalid variable name: {name!r}")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    """<>{C} f: the coalition C can choose values for its variables making f true."""

    coalition: frozenset[str]
    child: Formula

    def __init__(self, coalition: Iterable[str], child: Formula):
        try:
            names = frozenset(coalition)
        except TypeError:
            raise PreconditionError(f"coalition must be iterable, not {coalition!r}") from None
        if not names:
            raise PreconditionError("coalition must be nonempty")
        object.__setattr__(self, "coalition", names)
        object.__setattr__(self, "child", child)


def _halves(parts: Sequence[Formula], join: Callable[[Formula, Formula], Formula]) -> Formula:
    """Join nonempty ``parts`` as a tree split in halves, so n parts nest
    only ceil(log2 n) joins deep and the recursive walkers stay shallow."""
    if len(parts) == 1:
        return parts[0]
    half = (len(parts) + 1) // 2
    return join(_halves(parts[:half], join), _halves(parts[half:], join))


def conjoin(parts: Iterable[Formula]) -> Formula:
    """Conjunction of ``parts``; Top for an empty sequence."""
    parts = tuple(parts)
    if not parts:
        return TOP
    return _halves(parts, lambda a, b: a & b)


def disjoin(parts: Iterable[Formula]) -> Formula:
    """Disjunction of ``parts``; ~true for an empty sequence."""
    parts = tuple(parts)
    if not parts:
        return Not(TOP)
    return _halves(parts, Or)


# ---------------------------------------------------------------------------
# parsing


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<>", i):
            tokens.append(_Token("<>", "<>", i))
            i += 2
            continue
        if ch in "~&|(){},":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group()
            kind = "true" if word == "true" else "ident"
            tokens.append(_Token(kind, word, i))
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise FormulaSyntaxError(f"expected {what}", token.pos)
        return self.advance()

    def parse(self) -> Formula:
        node, height = self.expression(_DISJ, 0)
        token = self.peek()
        if token.kind != "end":
            raise FormulaSyntaxError(f"unexpected {token.text!r}", token.pos)
        if height > FORMULA_DEPTH_CAP:
            raise _too_deep()
        return node

    def expression(self, floor: int, nesting: int) -> tuple[Formula, int]:
        """Operands joined by binary operators binding at least as tightly as
        floor, with the height of their tree. A chain loops instead of
        recursing, so only ~, <> and ( nest calls."""
        node, height = self.operand(nesting)
        while _BINDING.get(self.peek().kind, -1) >= floor:
            op = self.advance().kind
            right, right_height = self.expression(_BINDING[op] + 1, nesting)  # left associative
            if op == "|":
                node, height = Or(node, right), max(height, right_height) + 1
            else:  # ~(~a | ~b) puts three levels above a and b
                node, height = node & right, max(height, right_height) + 3
        return node, height

    def operand(self, nesting: int) -> tuple[Formula, int]:
        token = self.advance()
        if token.kind in ("~", "<>", "(") and nesting == FORMULA_DEPTH_CAP:
            raise _too_deep()  # checked before recursing, unlike the height
        if token.kind == "~":
            child, height = self.operand(nesting + 1)
            return Not(child), height + 1
        if token.kind == "<>":
            self.expect("{", "'{' after '<>'")
            names = [self.expect("ident", "agent name").text]
            while self.peek().kind == ",":
                self.advance()
                names.append(self.expect("ident", "agent name").text)
            self.expect("}", "'}' closing the coalition")
            child, height = self.operand(nesting + 1)
            return Diamond(names, child), height + 1
        if token.kind == "(":
            inner = self.expression(_DISJ, nesting + 1)
            self.expect(")", "')'")
            return inner
        if token.kind == "true":
            return TOP, 1
        if token.kind == "ident":
            return Var(token.text), 1
        raise FormulaSyntaxError("expected a formula", token.pos)


def _too_deep() -> BudgetExceededError:
    return BudgetExceededError(f"formula nests deeper than {FORMULA_DEPTH_CAP} levels")


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into a five-node-kind AST.

    Raises FormulaSyntaxError with a character position on malformed input,
    and BudgetExceededError when the tree has more levels, or the text nests
    ~, <> or parentheses more deeply, than FORMULA_DEPTH_CAP; text that is
    not a str raises PreconditionError.
    """
    if not isinstance(text, str):
        raise PreconditionError(f"formula text must be a str, not {text!r}")
    return _Parser(_tokenize(text)).parse()


def format_formula(f: Formula) -> str:
    """Render a formula so that parse_formula(format_formula(f)) == f.

    The conjunction pattern ~(~a | ~b) that & builds is printed back as
    a & b; parentheses appear only where precedence or associativity needs
    them.
    """
    return _fmt(f, _DISJ)


_DISJ, _CONJ, _UNARY = 0, 1, 2  # binding strength, loosest first
_BINDING = {"|": _DISJ, "&": _CONJ}


def as_conjunction(f: Formula) -> Optional[tuple[Formula, Formula]]:
    if (
        isinstance(f, Not)
        and isinstance(f.child, Or)
        and isinstance(f.child.left, Not)
        and isinstance(f.child.right, Not)
    ):
        return f.child.left.child, f.child.right.child
    return None


def _fmt(f: Formula, need: int) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Var):
        return f.name
    pair = as_conjunction(f)
    if pair is not None:
        left, right = pair
        text = f"{_fmt(left, _CONJ)} & {_fmt(right, _UNARY)}"
        own = _CONJ
    elif isinstance(f, Or):
        text = f"{_fmt(f.left, _DISJ)} | {_fmt(f.right, _CONJ)}"
        own = _DISJ
    elif isinstance(f, Not):
        text = "~" + _fmt(f.child, _UNARY)
        own = _UNARY
    elif isinstance(f, Diamond):
        names = ",".join(sorted(f.coalition))
        text = "<>{" + names + "}" + _fmt(f.child, _UNARY)
        own = _UNARY
    else:
        raise PreconditionError(f"not a formula: {f!r}")
    return f"({text})" if own < need else text


# ---------------------------------------------------------------------------
# structure queries


def vars_of(f: Formula) -> frozenset[str]:
    """Variables occurring in f. Coalition names are agents, not variables."""
    if isinstance(f, (Top,)):
        return frozenset()
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, Not):
        return vars_of(f.child)
    if isinstance(f, Or):
        return vars_of(f.left) | vars_of(f.right)
    if isinstance(f, Diamond):
        return vars_of(f.child)
    raise PreconditionError(f"not a formula: {f!r}")


def coalitions_of(f: Formula) -> frozenset[frozenset[str]]:
    if isinstance(f, (Top, Var)):
        return frozenset()
    if isinstance(f, Not):
        return coalitions_of(f.child)
    if isinstance(f, Or):
        return coalitions_of(f.left) | coalitions_of(f.right)
    if isinstance(f, Diamond):
        return coalitions_of(f.child) | frozenset((f.coalition,))
    raise PreconditionError(f"not a formula: {f!r}")


def has_diamond(f: Formula) -> bool:
    return bool(coalitions_of(f))


# ---------------------------------------------------------------------------
# evaluation


def eval_formula(f: Formula, model, state) -> bool:
    """Evaluate f at a state of the model.

    Diamond nodes quantify existentially over assignments to the coalition's
    variables, everything else held fixed. ``state`` may be a SystemState or
    a plain variable -> bool mapping; one that leaves a variable f reads
    unassigned raises UnknownVariableError.
    """
    check_names(f, model)
    try:
        return _eval(f, model, getattr(state, "valuation", state))
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None


def unassigned(variable: str) -> UnknownVariableError:
    """The error for reading a variable a state leaves unassigned."""
    return UnknownVariableError(f"state does not assign {variable!r}")


def check_names(f: Formula, model) -> None:
    """Raise for the first undeclared variable or agent that f names."""
    unknown = vars_of(f) - model.variable_set
    if unknown:
        raise UnknownVariableError(f"unknown variables: {sorted(unknown)}")
    for coalition in coalitions_of(f):
        missing = coalition - model.agent_set
        if missing:
            raise UnknownAgentError(f"unknown agents: {sorted(missing)}")


def _eval(f: Formula, model, valuation: Mapping[str, bool]) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Var):
        return valuation[f.name]
    if isinstance(f, Not):
        return not _eval(f.child, model, valuation)
    if isinstance(f, Or):
        return _eval(f.left, model, valuation) or _eval(f.right, model, valuation)
    if isinstance(f, Diamond):
        relevant = [v for v in model.coalition_variables(f.coalition) if v in vars_of(f.child)]
        return first_witness(partial(_eval, f.child, model), valuation, relevant) is not None
    raise PreconditionError(f"not a formula: {f!r}")


def compile_formula(f: Formula, model) -> Evaluator:
    """A closure evaluating f over a valuation mapping of the model as
    eval_formula does, without its name checks, which callers make once. A <>
    node checks its budget only when it is evaluated."""
    if isinstance(f, Top):
        return lambda valuation: True
    if isinstance(f, Var):
        return itemgetter(f.name)
    pair = as_conjunction(f)
    if pair is not None:  # the ~(~a | ~b) that & builds, in one call instead of four
        left, right = compile_formula(pair[0], model), compile_formula(pair[1], model)
        return lambda valuation: left(valuation) and right(valuation)
    if isinstance(f, Not):
        child = compile_formula(f.child, model)
        return lambda valuation: not child(valuation)
    if isinstance(f, Or):
        left, right = compile_formula(f.left, model), compile_formula(f.right, model)
        return lambda valuation: left(valuation) or right(valuation)
    if isinstance(f, Diamond):
        child = compile_formula(f.child, model)
        inner = vars_of(f.child)
        relevant = tuple(v for v in model.coalition_variables(f.coalition) if v in inner)
        return lambda valuation: first_witness(child, valuation, relevant) is not None
    raise PreconditionError(f"not a formula: {f!r}")


def first_witness(
    evaluate: Evaluator, valuation: Mapping[str, bool], relevant: Sequence[str]
) -> Optional[dict[str, bool]]:
    """The first assignment to ``relevant`` making ``evaluate`` true, or None.

    Assignments are tried in itertools.product order, False before True, the
    rest of the valuation held fixed. Capped at DIAMOND_VARIABLE_CAP variables.
    """
    if len(relevant) > DIAMOND_VARIABLE_CAP:
        raise BudgetExceededError(
            f"coalition controls {len(relevant)} variables of the formula, "
            f"cap is {DIAMOND_VARIABLE_CAP}"
        )
    trial = dict(valuation)
    for combo in itertools.product((False, True), repeat=len(relevant)):
        assignment = dict(zip(relevant, combo))
        trial.update(assignment)
        if evaluate(trial):
            return assignment
    return None


# ---------------------------------------------------------------------------
# truth tables (Knuth, TAOCP Vol. 4A, 7.1.1-7.1.3)


def valuation_masks(num_vars: int) -> tuple[int, ...]:
    """Mask j has bit i set exactly when bit j of i is set, for i < 2^num_vars.

    Numbering valuations so that bit j of valuation i is the value of the
    j-th variable makes mask j that variable's truth table.
    """
    size = 1 << num_vars
    full = (1 << size) - 1
    masks = [0] * num_vars
    zeros = full
    for j in reversed(range(num_vars)):
        # halve the runs of set bits: zeros marks the valuations with variable j false
        zeros = (zeros ^ (zeros << (1 << j))) & full
        masks[j] = full ^ zeros
    return tuple(masks)


def flip_across(bits: int, j: int, mask: int) -> int:
    """Move every set bit across variable j: bit i of the result is bit
    i ^ (1 << j) of bits. mask is valuation_masks(n)[j]."""
    shift = 1 << j
    return ((bits >> shift) & ~mask) | ((bits << shift) & mask)


def truth_tables(formulas: Iterable[Formula], model) -> tuple[int, ...]:
    """Each formula's value at all 2^n valuations of model.variables, as one int.

    Bit i is the value where variables[j] is bit j of i. <>{C} g cofactors
    g's table over each variable of C that g mentions. A table takes 2^n
    bits, so callers bound n (up to DIAMOND_VARIABLE_CAP the tables agree
    with eval_formula). Names are not checked: pass the model's own formulas,
    which Model checks when it is built.
    """
    variables = model.variables
    masks = valuation_masks(len(variables))
    full = (1 << (1 << len(variables))) - 1
    slot = {variable: j for j, variable in enumerate(variables)}

    def table(f: Formula) -> int:
        if isinstance(f, Top):
            return full
        if isinstance(f, Var):
            return masks[slot[f.name]]
        pair = as_conjunction(f)
        if pair is not None:
            return table(pair[0]) & table(pair[1])
        if isinstance(f, Not):
            return full ^ table(f.child)
        if isinstance(f, Or):
            return table(f.left) | table(f.right)
        if isinstance(f, Diamond):
            result = table(f.child)
            inner = vars_of(f.child)
            for variable in model.coalition_variables(f.coalition):
                if variable in inner:
                    # valuation i may take the value of its neighbour across variable j
                    j = slot[variable]
                    result |= flip_across(result, j, masks[j])
            return result
        raise PreconditionError(f"not a formula: {f!r}")

    return tuple(table(f) for f in formulas)


# ---------------------------------------------------------------------------
# clause form


class Literal(NamedTuple):
    variable: str
    positive: bool


@dataclass(frozen=True)
class ClauseSet:
    """A CNF as a canonically ordered tuple of literal sets.

    Tautological clauses are dropped and duplicate clauses merged at
    construction. The empty tuple is truth; a member empty clause is falsity.
    """

    clauses: tuple[frozenset[Literal], ...]

    @classmethod
    def from_clauses(cls, clauses: Iterable[Iterable[Literal]]) -> "ClauseSet":
        cleaned = set()
        for clause in clauses:
            clause = frozenset(clause)
            variables = [lit.variable for lit in clause]
            if len(set(variables)) < len(variables):  # v and ~v together
                continue
            cleaned.add(clause)
        ordered = sorted(cleaned, key=lambda c: sorted((l.variable, l.positive) for l in c))
        return cls(tuple(ordered))

    def is_horn(self, labeling: Optional["HornLabeling"] = None) -> bool:
        """True when every clause has at most one positive literal.

        With a labeling, positivity is judged after flipping the labeled
        variables.
        """
        flipped = labeling.flipped if labeling is not None else frozenset()
        for clause in self.clauses:
            if sum(1 for variable, positive in clause if positive != (variable in flipped)) > 1:
                return False
        return True


def to_cnf(f: Formula) -> ClauseSet:
    """Convert a Diamond-free formula to an equivalent clause set.

    Raises BudgetExceededError before distributing | over two clause lists
    whose product exceeds CNF_CLAUSE_CAP clauses.
    """
    if has_diamond(f):
        raise ModalFormulaError("cannot convert a modal formula to clauses")
    return ClauseSet.from_clauses(_cnf(f, False))


def _cnf(f: Formula, negated: bool) -> list[frozenset[Literal]]:
    if isinstance(f, Top):
        return [frozenset()] if negated else []
    if isinstance(f, Var):
        return [frozenset((Literal(f.name, not negated),))]
    if isinstance(f, Not):
        return _cnf(f.child, not negated)
    if isinstance(f, Or):
        if negated:  # ~(a|b) = ~a & ~b
            return _cnf(f.left, True) + _cnf(f.right, True)
        left = _cnf(f.left, False)
        right = _cnf(f.right, False)
        if len(left) * len(right) > CNF_CLAUSE_CAP:
            raise BudgetExceededError(
                f"clause form needs {len(left)} x {len(right)} clauses, "
                f"cap is {CNF_CLAUSE_CAP}"
            )
        return [l | r for l in left for r in right]
    raise PreconditionError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Horn tooling


@dataclass(frozen=True)
class HornLabeling:
    """Per-variable polarity: names in ``flipped`` are renamed, the rest kept."""

    variables: tuple[str, ...]
    flipped: frozenset[str]


def find_horn_labeling(f: Formula) -> Optional[HornLabeling]:
    """The horn_renaming of to_cnf(f) as a labeling of f's variables, or None.

    Renamability is judged on the clause form produced by to_cnf, not on
    every equivalent CNF.
    """
    flipped = horn_renaming(to_cnf(f).clauses)
    return None if flipped is None else HornLabeling(tuple(sorted(vars_of(f))), flipped)


def horn_renaming(clauses: Iterable[Iterable[tuple]]) -> Optional[frozenset]:
    """The variables to flip so that every clause keeps at most one positive
    literal, or None when no renaming does (Lewis, JACM 1978).

    A literal is a (variable, positive) pair, such as a Literal. Clauses
    already Horn need no flip; otherwise the standard 2-SAT reduction decides.
    """
    clauses = tuple(clauses)
    if ClauseSet(clauses).is_horn():
        return frozenset()
    # For every pair of literals in a clause, at most one may stay positive
    # after renaming: flip-literal(l) = s_v when l is positive, ~s_v when
    # negative; each pair contributes (flip(l1) | flip(l2)).
    constraints = [pair for c in clauses for pair in itertools.combinations(sorted(c), 2)]
    constrained = {v for pair in constraints for v, _ in pair}
    solution = _solve_2sat(sorted(constrained), constraints)
    if solution is None:
        return None
    return frozenset(v for v, flip in solution.items() if flip)


def _solve_2sat(variables, clauses):
    """Satisfy clauses of pairs of (variable, wanted-value) literals.

    Tries each variable's True branch first; if its implication closure
    conflicts, the opposite value is forced. A consistent closure can always
    be committed in 2-SAT, so no deeper backtracking is needed.
    """
    implications: dict[tuple[str, bool], list[tuple[str, bool]]] = {}
    for a, b in clauses:
        implications.setdefault((a[0], not a[1]), []).append(b)
        implications.setdefault((b[0], not b[1]), []).append(a)

    assignment: dict[str, bool] = {}
    for variable in variables:
        if variable in assignment:
            continue
        closure = None
        for value in (True, False):
            closure = _close((variable, value), assignment, implications)
            if closure is not None:
                break
        if closure is None:
            return None
        assignment.update(closure)
    return assignment


def _close(start, assignment, implications):
    trial: dict[str, bool] = {}
    stack = [start]
    while stack:
        variable, value = stack.pop()
        current = assignment.get(variable, trial.get(variable))
        if current is not None:
            if current != value:
                return None
            continue
        trial[variable] = value
        stack.extend(implications.get((variable, value), ()))
    return trial
