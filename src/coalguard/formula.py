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
The AST keeps five node kinds only (Top, Var, Not, Or, Diamond): ``&`` is
surface sugar, parsed to ~(~f | ~g) and printed back as f & g.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

from .errors import (
    BudgetExceededError,
    FormulaSyntaxError,
    ModalFormulaError,
    PreconditionError,
    UnknownAgentError,
    UnknownVariableError,
    require,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

DIAMOND_VARIABLE_CAP = 20
# Most levels any formula's tree may have; evaluators and printers recurse
# on trees, so this keeps them far from Python's recursion limit.
FORMULA_DEPTH_CAP = 256
_TOO_DEEP = f"formula nests deeper than {FORMULA_DEPTH_CAP} levels"

Evaluator = Callable[[Mapping[str, int], int], int]
Structure = tuple[frozenset[str], frozenset[frozenset[str]]]  # variables, coalitions


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
        if not isinstance(name, str) or not _IDENT_RE.fullmatch(name) or name == "true":
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
        names = coalition_names(coalition)
        if not names:
            raise PreconditionError("coalition must be nonempty")
        vars(self).update(coalition=names, child=child)


def coalition_names(coalition: Iterable[str]) -> frozenset[str]:
    """The coalition as a frozenset; PreconditionError if it is not iterable."""
    try:
        return frozenset(coalition)
    except TypeError:
        raise PreconditionError(f"coalition must be iterable, not {coalition!r}") from None


def _halves(parts: Sequence[Formula], join: Callable[..., Formula], empty: Formula) -> Formula:
    """``parts`` joined as a tree split in halves, ``empty`` if there are none:
    n parts nest only ceil(log2 n) joins deep, so the recursive walkers stay shallow."""
    if len(parts) < 2:
        return require(parts[0], Formula, "a part") if parts else empty
    half = (len(parts) + 1) // 2
    return join(_halves(parts[:half], join, empty), _halves(parts[half:], join, empty))


def conjoin(parts: Iterable[Formula]) -> Formula:
    """Conjunction of ``parts``; Top for an empty sequence."""
    return _halves(tuple(require(parts, Iterable, "parts")), lambda a, b: a & b, TOP)


def disjoin(parts: Iterable[Formula]) -> Formula:
    """Disjunction of ``parts``; ~true for an empty sequence."""
    return _halves(tuple(require(parts, Iterable, "parts")), Or, Not(TOP))


# ---------------------------------------------------------------------------
# parsing


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


# a symbol (group 1), a name (group 2) or any other non-space character (group
# 3); finditer skips the whitespace between them
_TOKEN_RE = re.compile(r"(<>|[~&|(){},])|(" + _IDENT_RE.pattern + r")|(\S)")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word = m.group()
        if m.lastindex == 3:
            raise FormulaSyntaxError(f"unexpected character {word!r}", m.start())
        kind = word if m.lastindex == 1 else "true" if word == "true" else "ident"
        tokens.append(_Token(kind, word, m.start()))
    tokens.append(_Token("end", "", len(text)))
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
        node = self.expression(_DISJ, 0)
        token = self.peek()
        if token.kind != "end":
            raise FormulaSyntaxError(f"unexpected {token.text!r}", token.pos)
        return node

    def expression(self, floor: int, nesting: int) -> Formula:
        """Operands joined by binary operators binding at least as tightly as
        floor. A chain loops instead of recursing, so only ~, <> and ( nest
        calls."""
        node = self.operand(nesting)
        while _BINDING.get(self.peek().kind, -1) >= floor:
            op = self.advance().kind
            right = self.expression(_BINDING[op] + 1, nesting)  # left associative
            node = Or(node, right) if op == "|" else node & right
        return node

    def operand(self, nesting: int) -> Formula:
        token = self.advance()
        if token.kind in ("~", "<>", "(") and nesting == FORMULA_DEPTH_CAP:
            raise BudgetExceededError(_TOO_DEEP)  # the parser's own calls nest this deep
        if token.kind == "~":
            return Not(self.operand(nesting + 1))
        if token.kind == "<>":
            self.expect("{", "'{' after '<>'")
            names = [self.expect("ident", "agent name").text]
            while self.peek().kind == ",":
                self.advance()
                names.append(self.expect("ident", "agent name").text)
            self.expect("}", "'}' closing the coalition")
            return Diamond(names, self.operand(nesting + 1))
        if token.kind == "(":
            inner = self.expression(_DISJ, nesting + 1)
            self.expect(")", "')'")
            return inner
        if token.kind == "true":
            return TOP
        if token.kind == "ident":
            return Var(token.text)
        raise FormulaSyntaxError("expected a formula", token.pos)


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into a five-node-kind AST.

    Raises FormulaSyntaxError with a character position on malformed input,
    and BudgetExceededError when the tree has more levels, or the text nests
    ~, <> or parentheses more deeply, than FORMULA_DEPTH_CAP; text that is
    not a str raises PreconditionError.
    """
    require(text, str, "formula text")
    f = _Parser(_tokenize(text)).parse()
    checked_structure(f)  # the tree's height, as for a formula built in code
    return f


def format_formula(f: Formula) -> str:
    """Render a formula so that parse_formula(format_formula(f)) == f.

    The conjunction pattern ~(~a | ~b) that & builds is printed back as
    a & b; parentheses appear only where precedence or associativity needs
    them. A formula past FORMULA_DEPTH_CAP levels raises BudgetExceededError,
    and one whose coalition names an agent by other than a str PreconditionError."""
    if not all(isinstance(name, str) for c in checked_structure(f)[1] for name in c):
        raise PreconditionError("a coalition names its agents by str")
    return _fmt(f, _DISJ)


_DISJ, _CONJ, _UNARY = 0, 1, 2  # binding strength, loosest first
_BINDING = {"|": _DISJ, "&": _CONJ}


def as_conjunction(f: Formula) -> Optional[tuple[Formula, Formula]]:
    if isinstance(f, Not) and isinstance(f.child, Or):
        left, right = f.child.left, f.child.right
        if isinstance(left, Not) and isinstance(right, Not):
            return left.child, right.child
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
    else:  # a Diamond: format_formula's walk refused any other node
        text = "<>{" + ",".join(sorted(f.coalition)) + "}" + _fmt(f.child, _UNARY)
        own = _UNARY
    return f"({text})" if own < need else text


# ---------------------------------------------------------------------------
# structure queries


def _walk(f: Formula) -> tuple[frozenset[str], frozenset[frozenset[str]], int]:
    """f's variables, coalitions and height, a level at a time, so depth does
    not matter. A leaf is one level and each ~, | or <> node adds one, so
    a & b, stored as ~(~a | ~b), adds three."""
    variables, coalitions, level, height = set(), set(), [f], 0
    while level:
        height += 1
        below = []
        for node in level:
            if isinstance(node, Not):
                below.append(node.child)
            elif isinstance(node, Or):
                below += (node.left, node.right)
            elif isinstance(node, Var):
                variables.add(node.name)
            elif isinstance(node, Diamond):
                coalitions.add(node.coalition)
                below.append(node.child)
            elif not isinstance(node, Top):
                raise PreconditionError(f"not a formula: {node!r}")
        level = below
    return frozenset(variables), frozenset(coalitions), height


def structure(f: Formula) -> Structure:
    """The variables and the coalitions occurring in f, at any depth.
    Coalition names are agents, not variables."""
    return _walk(f)[:2]


def checked_structure(f: Formula) -> Structure:
    """structure(f), or BudgetExceededError past FORMULA_DEPTH_CAP levels: every
    formula entering the library passes here once, before anything recurses."""
    variables, coalitions, height = _walk(f)
    if height > FORMULA_DEPTH_CAP:
        raise BudgetExceededError(_TOO_DEEP)
    return variables, coalitions


# ---------------------------------------------------------------------------
# evaluation


def eval_formula(f: Formula, model, state) -> bool:
    """Evaluate f at a state of the model.

    Diamond nodes quantify existentially over assignments to the coalition's
    variables, everything else held fixed. ``state`` may be a SystemState or
    a plain mapping to bits (check_bits); one that leaves a variable f reads
    unassigned raises UnknownVariableError. The reference for compile_formula,
    sharing none of its closures: f is walked once, to check its names, and
    each <> child once a call, the first time that <> is evaluated.
    """
    check_names(f, model)
    valuation = require(getattr(state, "valuation", state), Mapping, "a state's valuation")
    if valuation is state:  # a SystemState checked its own values
        check_bits(valuation.values())
    try:
        return bool(_truth_table(f, model, valuation, True, {}))
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None


def check_bits(values: Iterable) -> None:
    """PreconditionError for a value not a bool or the int 0 or 1: ~ is ``ones ^ value``."""
    for value in values:
        if value is not True and value is not False and (type(value) is not int or value >> 1):
            raise PreconditionError(f"a value must be a bool or the int 0 or 1, not {value!r}")


def unassigned(variable: str) -> UnknownVariableError:
    """The error for reading a variable a state leaves unassigned."""
    return UnknownVariableError(f"state does not assign {variable!r}")


def check_names(f: Formula, model, modal: Optional[str] = None) -> Structure:
    """Raise PreconditionError for a model that is not a Model, then what
    checked_structure raises, then ModalFormulaError(modal) for a modal f if
    modal is given, then for the first undeclared variable or agent that f
    names; else return f's structure."""
    return _check_names(f, model, modal, None)


def _check_names(f: Formula, model, modal: Optional[str], found: Optional[Structure]) -> Structure:
    """check_names, reading f's structure from found when its entry walked f already."""
    if not isinstance(getattr(model, "variable_set", None), frozenset):  # Model is a layer up
        raise PreconditionError(f"model must be a Model, not {model!r}")
    used, coalitions = found or checked_structure(f)
    if modal is not None and coalitions:
        raise ModalFormulaError(modal)
    unknown = used - model.variable_set
    if unknown:
        raise UnknownVariableError(f"unknown variables: {sorted(unknown)}")
    for coalition in coalitions:
        missing = coalition - model.agent_set
        if missing:
            raise UnknownAgentError(f"unknown agents: {sorted(missing, key=repr)}")
    return used, coalitions


def _truth_table(f: Formula, model, lanes: Mapping[str, int], ones: int, scopes: dict) -> int:
    """f over the lanes, as compile_formula's closure computes it, but by recursion; scopes
    maps id(<> node) to the variables it assigns, so a <> walks its child once a call."""
    if isinstance(f, Not):
        return ones ^ _truth_table(f.child, model, lanes, ones, scopes)
    if isinstance(f, Or):
        left = _truth_table(f.left, model, lanes, ones, scopes)
        return left if left == ones else left | _truth_table(f.right, model, lanes, ones, scopes)
    if isinstance(f, Var):
        return lanes[f.name]
    if isinstance(f, Top):
        return ones
    relevant = scopes.get(id(f))  # a Diamond: the entry refused any other node
    if relevant is None:
        relevant = scopes[id(f)] = _scope(model, f.coalition, structure(f.child)[0])
    return _exists(partial(_truth_table, f.child, model, scopes=scopes), lanes, ones, relevant)


def compile_formula(f: Formula, model) -> Evaluator:
    """A closure ``(lanes, ones) -> int`` evaluating f in every lane at once
    (Knuth, TAOCP 4A, 7.1.3), where ``ones`` sets bit 0 of each lane and
    ``lanes[v]`` holds v's values; ``(valuation, True)`` is truthy exactly
    when eval_formula holds. ``&`` and ``|`` stop at a left side of 0 and of
    ``ones``; <>{C} g ORs g over the assignments to C's variables that g
    mentions until all lanes hold, checking its budget only when evaluated.
    A propositional f needs no model and has no names checked; a modal f's
    are, here, from the one walk that also measures f's height. One past
    FORMULA_DEPTH_CAP levels raises BudgetExceededError."""
    found = checked_structure(f)
    if found[1]:
        _check_names(f, model, None, found)
    return _compile(f, model, set())


def _compile(f: Formula, model, found: set) -> Evaluator:
    """f's closure. Adds the variables f mentions to found, so that a <>
    takes its child's from this recursion instead of walking the child."""
    if isinstance(f, Top):
        return lambda lanes, ones: ones
    if isinstance(f, Var):
        name = f.name
        found.add(name)
        return lambda lanes, ones: lanes[name]
    pair = as_conjunction(f)
    if pair is not None:  # the ~(~a | ~b) that & builds, in one call instead of four
        left, right = _compile(pair[0], model, found), _compile(pair[1], model, found)
        return lambda lanes, ones: (x := left(lanes, ones)) and x & right(lanes, ones)
    if isinstance(f, Not):
        child = _compile(f.child, model, found)
        return lambda lanes, ones: ones ^ child(lanes, ones)
    if isinstance(f, Or):
        left, right = _compile(f.left, model, found), _compile(f.right, model, found)
        return lambda lanes, ones: x if (x := left(lanes, ones)) == ones else x | right(lanes, ones)
    inner = set()  # a Diamond: the entry walk refused any other node
    child = _compile(f.child, model, inner)
    found |= inner
    relevant = _scope(model, f.coalition, inner)
    return lambda lanes, ones: _exists(child, lanes, ones, relevant)


def _exists(child: Evaluator, lanes: Mapping[str, int], ones: int, relevant: Sequence[str]) -> int:
    """A <>: child ORed over relevant's assignments, in product order, until all lanes hold."""
    _check_budget(relevant)
    trial, result = dict(lanes), 0
    for combo in itertools.product((0, ones), repeat=len(relevant)):
        trial.update(zip(relevant, combo))
        result |= child(trial, ones)
        if result == ones:
            break
    return result


def _scope(model, coalition: frozenset[str], used) -> tuple[str, ...]:
    """The variables in used that coalition owns, in model order."""
    return tuple(v for v in model.variables if v in used and model.owner_of(v) in coalition)


def _check_budget(relevant: Sequence[str]) -> None:
    """Raise BudgetExceededError for more than DIAMOND_VARIABLE_CAP variables."""
    if len(relevant) > DIAMOND_VARIABLE_CAP:
        raise BudgetExceededError(f"coalition controls {len(relevant)} variables of the "
                                  f"formula, cap is {DIAMOND_VARIABLE_CAP}")


# ---------------------------------------------------------------------------
# truth tables (Knuth, TAOCP Vol. 4A, 7.1.1-7.1.3)


def valuation_masks(num_vars: int) -> tuple[int, ...]:
    """Mask j has bit i set exactly when bit j of i is set, for i < 2^num_vars.

    Numbering valuations so that bit j of valuation i is the value of the
    j-th variable makes mask j that variable's truth table. Kept up to 16 variables (256 KiB).
    """
    return _masks(num_vars) if num_vars <= 16 else _masks.__wrapped__(num_vars)


@lru_cache(maxsize=None)
def _masks(num_vars: int) -> tuple[int, ...]:
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


# ---------------------------------------------------------------------------
# Horn tooling


# Most variables a truth table may span for prime implicates: the bitsets
# run over all 3^n clauses, about 3x the work per extra variable.
TRUTH_TABLE_VARIABLE_CAP = 10


@lru_cache(maxsize=None)  # one entry per variable count, at most the cap + 1
def _clause_codes(num_vars: int) -> tuple[tuple, tuple, int]:
    """The clauses over n variables as bitsets, bit c for the clause whose code
    c sums 3^j for a literal x{j+1} and 2 * 3^j for its negation: each code's
    literals, as (variable, positive) pairs; per variable j, top first, 3^j,
    the codes without x{j+1}, the table bits with bit j set once the bits above
    j are spread, and their shift; and the codes with two positive literals."""
    if num_vars > TRUTH_TABLE_VARIABLE_CAP:
        raise BudgetExceededError(f"{num_vars} variables exceed the truth-table cap of "
                                  f"{TRUTH_TABLE_VARIABLE_CAP}")
    full, literals, steps = (1 << 3 ** num_vars) - 1, [()], []
    one = two = 0  # the codes with at least one, and at least two, positive literals
    for j in range(num_vars):
        power, low, positive, negative = 3 ** j, 1 << j, (j, True), (j, False)
        literals += [c + (positive,) for c in literals] + [c + (negative,) for c in literals]
        period = full // ((1 << 3 * power) - 1)  # bit 0 of each run of 3^(j+1): no loop over codes
        missing = ((1 << power) - 1) * period
        two |= one & missing << power
        one |= missing << power
        # spread above j, an index with bit j set lies 2^j.. past a multiple of 3^(j+1)
        steps.insert(0, (power, missing, (((1 << low) - 1) << low) * period, 2 * power - low))
    return tuple(literals), tuple(steps), two


def _prime_implicates(steps: tuple, table: int) -> int:
    """The codes of the table's prime implicates, by Quine-McCluskey's merge on
    bitsets (Quine 1952; McCluskey 1956). Valuation i falsifies one full clause,
    code sum((1 + bit j of i) * 3^j), implied when bit i of the table is 0; a
    shorter clause is implied when both its extensions by a missing variable
    are, and prime when it drops to no implied clause."""
    implied = ((1 << (1 << len(steps))) - 1) ^ table
    for power, _, moving, shift in steps:  # bit j of each index becomes digit 1 + bit j
        moved = implied & moving
        implied = (implied ^ moved) << power | moved << shift
    for power, missing, _, _ in steps:
        implied |= implied >> power & implied >> 2 * power & missing
    covered = 0
    for power, missing, _, _ in steps:
        covered |= (shorter := implied & missing) << power | shorter << 2 * power
    return implied & ~covered


def _decode(literals: tuple, clauses: int) -> list[tuple[tuple[int, bool], ...]]:
    """The literals of each clause whose code is set in clauses, lowest code first."""
    return [literals[m.start()] for m in re.finditer("1", format(clauses, "b")[::-1])]


@dataclass(frozen=True)
class HornLabeling:
    """Per-variable polarity: names in ``flipped`` are renamed, the rest kept."""

    variables: tuple[str, ...]
    flipped: frozenset[str]


def find_horn_labeling(f: Formula) -> Optional[HornLabeling]:
    """The horn_renaming of f's prime implicates as a labeling of f's
    variables, or None when no renaming makes them Horn.

    The prime implicates are read off f's truth table, so equivalent
    formulas get the same verdict: a function has a renamable Horn clause
    form exactly when its prime implicates do (Lewis, JACM 1978). Raises
    ModalFormulaError for a modal formula and BudgetExceededError past
    FORMULA_DEPTH_CAP levels or TRUTH_TABLE_VARIABLE_CAP variables.
    """
    used, coalitions = checked_structure(f)
    if coalitions:
        raise ModalFormulaError("cannot decide Horn renamability of a modal formula")
    names = tuple(sorted(used))
    literals, steps, horn_breaking = _clause_codes(len(names))  # the cap, before any table
    full = (1 << (1 << len(names))) - 1
    table = _truth_table(f, None, dict(zip(names, valuation_masks(len(names)))), full, {})
    primes = _prime_implicates(steps, table)
    if not primes & horn_breaking:  # Horn already: no clause tuples are built
        return HornLabeling(names, frozenset())
    flipped = horn_renaming(_decode(literals, primes))
    return None if flipped is None else HornLabeling(names, frozenset(names[j] for j in flipped))


def horn_renaming(clauses: Iterable[Iterable[tuple]]) -> Optional[frozenset]:
    """The variables to flip so that every clause keeps at most one positive
    literal, or None when no renaming does (Lewis, JACM 1978).

    A literal is a (variable, positive) pair. Clauses already Horn need no
    flip. Otherwise of each pair of literals in a clause one must end negative,
    flipped if positive and kept if not: a 2-SAT instance, whose truth table
    over its variables (the first in sorted order the highest bit) gives the
    greatest solution. BudgetExceededError past TRUTH_TABLE_VARIABLE_CAP of them.
    """
    clauses = tuple(clauses)
    if all(sum(positive for _, positive in clause) <= 1 for clause in clauses):
        return frozenset()
    pairs = [pair for clause in clauses for pair in itertools.combinations(clause, 2)]
    names = sorted({v for pair in pairs for v, _ in pair}, reverse=True)
    if len(names) > TRUTH_TABLE_VARIABLE_CAP:
        raise BudgetExceededError(f"{len(names)} variables exceed the truth-table cap")
    full = (1 << (1 << len(names))) - 1
    flips = dict(zip(names, valuation_masks(len(names))))  # where each variable is flipped
    solutions = full
    for (u, p), (v, q) in pairs:
        solutions &= (flips[u] if p else full ^ flips[u]) | (flips[v] if q else full ^ flips[v])
    if not solutions:
        return None
    best = solutions.bit_length() - 1
    return frozenset(v for j, v in enumerate(names) if best >> j & 1)
