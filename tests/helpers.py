"""Shared test oracles, deliberately independent of the library internals,
except for the earlier library code kept as references, which imports the
internals it used."""

import itertools
import random
from collections import deque
from collections.abc import Mapping
from functools import lru_cache

from coalguard import (
    ActionRequest,
    BudgetExceededError,
    BlockForRandomInterval,
    BlockUntilTick,
    BlockingMatrix,
    Diamond,
    GreedyIteration,
    ModalFormulaError,
    Model,
    Not,
    OracleRound,
    Or,
    PartialValuation,
    SystemState,
    TickRecord,
    Top,
    UnknownAgentError,
    Var,
    VulnerabilityFinding,
    build_matrix,
    eval_formula,
    rank_agents,
    simulate,
)
from coalguard.analysis import AUDIT_AGENT_CAP
from coalguard.errors import require
from coalguard.formula import (
    DIAMOND_VARIABLE_CAP,
    TRUTH_TABLE_VARIABLE_CAP,
    _check_budget,
    _compile,
    _scope,
    check_names,
    coalition_names,
    structure,
    unassigned,
    valuation_masks,
)


# ---------------------------------------------------------------------------
# plain recursive evaluation (no model, no caches)


def truth_eval(f, valuation):
    if isinstance(f, Top):
        return True
    if isinstance(f, Var):
        return valuation[f.name]
    if isinstance(f, Not):
        return not truth_eval(f.child, valuation)
    if isinstance(f, Or):
        return truth_eval(f.left, valuation) or truth_eval(f.right, valuation)
    raise ValueError(f"no modal nodes here: {f!r}")


def vars_in(f):
    if isinstance(f, Top):
        return set()
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Not):
        return vars_in(f.child)
    if isinstance(f, Or):
        return vars_in(f.left) | vars_in(f.right)
    if isinstance(f, Diamond):
        return vars_in(f.child)
    raise ValueError(f"not a formula: {f!r}")


def brute_diamond(model, state, coalition, f):
    """Exhaustive check of the coalition ability operator."""
    owned = [v for v in model.variables if model.owner_of(v) in set(coalition)]
    for bits in itertools.product((False, True), repeat=len(owned)):
        merged = dict(state.valuation)
        merged.update(zip(owned, bits))
        if truth_eval(f, merged):
            return True
    return False


# ---------------------------------------------------------------------------
# clause sets as sets of (name, positive) literals


def read_clauses(f):
    """The clauses of a conjunction of disjunctions of literals, such as
    formula_from_truth_table builds: true has none, ~true is the empty clause."""
    if isinstance(f, Top):
        return set()
    if f == Not(Top()):
        return {frozenset()}
    if isinstance(f, Not) and isinstance(f.child, Or):  # a & b is ~(~a | ~b)
        return read_clauses(f.child.left.child) | read_clauses(f.child.right.child)
    return {frozenset(_read_literals(f))}


def _read_literals(f):
    if isinstance(f, Var):
        return {(f.name, True)}
    if isinstance(f, Not) and isinstance(f.child, Var):
        return {(f.child.name, False)}
    if isinstance(f, Or):
        return _read_literals(f.left) | _read_literals(f.right)
    raise ValueError(f"not a clause: {f!r}")


# ---------------------------------------------------------------------------
# Horn labeling by brute force


def enumerate_labelings(clauses):
    """All flip sets of the clauses' names under which every clause has <= 1
    positive literal; a clause is an iterable of (name, positive) pairs."""
    clauses = [tuple(clause) for clause in clauses]
    names = sorted({name for clause in clauses for name, _ in clause})
    good = []
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            flipped = frozenset(combo)
            if all(
                sum(positive != (name in flipped) for name, positive in clause) <= 1
                for clause in clauses
            ):
                good.append(flipped)
    return good


def formula_table(f, names):
    """f's truth table over names: bit m is f where names[j] is bit j of m."""
    return sum(
        truth_eval(f, {v: bool((m >> j) & 1) for j, v in enumerate(names)}) << m
        for m in range(1 << len(names))
    )


def formula_prime_implicates(f):
    """brute_prime_implicates of f's truth table over its own variables."""
    names = sorted(vars_in(f))
    return brute_prime_implicates(len(names), formula_table(f, names), names)


def brute_prime_implicates(num_vars, table, names=None):
    """Prime implicates of a truth table, one valuation at a time.

    Tries all 3^num_vars clauses over names (x1..xn by default) as sets of
    (name, positive): a clause is implied when every model of the table
    (bit m set, names[j] being bit j of m) satisfies it, and prime when, in
    addition, no clause with one literal dropped is implied.
    """
    names = names or [f"x{j + 1}" for j in range(num_vars)]
    models = [m for m in range(1 << num_vars) if (table >> m) & 1]

    def implied(clause):
        return all(
            any(bool((m >> names.index(name)) & 1) == positive for name, positive in clause)
            for m in models
        )

    primes = set()
    for signs in itertools.product((None, True, False), repeat=num_vars):
        clause = frozenset((name, s) for name, s in zip(names, signs) if s is not None)
        if implied(clause) and not any(implied(clause - {lit}) for lit in clause):
            primes.add(clause)
    return primes


# ---------------------------------------------------------------------------
# random structures


def random_formula(rng, names, depth=3):
    """Random Diamond-free formula over the given variable names."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.05:
            return Top()
        return Var(rng.choice(names))
    pick = rng.random()
    if pick < 0.3:
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    if pick < 0.65:
        return Or(left, right)
    return left & right


def random_model(rng, max_vars=10, max_agents=6, max_formulas=4):
    """Random model whose critical formulas each span >= 2 agents.

    Formulas are small disjunctions of literal conjunctions: the shape a
    coalition attack takes, and easy to falsify so secure starts exist.
    """
    num_vars = rng.randint(2, max_vars)
    num_agents = rng.randint(2, min(max_agents, num_vars))
    variables = tuple(f"v{i + 1}" for i in range(num_vars))
    agents = tuple(f"a{i + 1}" for i in range(num_agents))
    dealt = list(variables)
    rng.shuffle(dealt)
    partition = {a: [] for a in agents}
    for i, v in enumerate(dealt):
        partition[agents[i % num_agents]].append(v)

    def literal_conjunction(span_vars):
        parts = [
            Var(v) if rng.random() < 0.5 else Not(Var(v)) for v in span_vars
        ]
        out = parts[0]
        for p in parts[1:]:
            out = out & p
        return out

    formulas = []
    for _ in range(rng.randint(1, max_formulas)):
        a, b = rng.sample(agents, 2)
        span = [rng.choice(partition[a]), rng.choice(partition[b])]
        extras = rng.randint(0, 2)
        span += rng.sample(variables, min(extras, len(variables)))
        seen = []
        for v in span:
            if v not in seen:
                seen.append(v)
        f = literal_conjunction(seen)
        if rng.random() < 0.3:
            f = Or(f, literal_conjunction(rng.sample(variables, rng.randint(1, 2))))
        formulas.append(f)
    return Model(
        agents=agents,
        variables=variables,
        partition={a: tuple(vs) for a, vs in partition.items()},
        critical_formulas=tuple(formulas),
    )


def random_secure_state(rng, model):
    """A valuation falsifying every critical formula, or None."""
    names = model.variables
    masks = list(range(1 << len(names)))
    rng.shuffle(masks)
    for mask in masks[: min(len(masks), 2048)]:
        valuation = {v: bool((mask >> j) & 1) for j, v in enumerate(names)}
        if not any(truth_eval(f, valuation) for f in model.critical_formulas):
            return SystemState(0, valuation)
    return None


def random_requests(rng, model, max_requests=8):
    requests = []
    for arrival in range(rng.randint(1, max_requests)):
        agent = rng.choice(model.agents)
        variable = rng.choice(model.owned(agent))
        requests.append(ActionRequest(agent, variable, rng.random() < 0.5, arrival))
    return tuple(requests)


def random_scenario(rng, max_vars=10, max_agents=6, max_formulas=4, max_requests=8):
    """(model, secure state, request batch); retries until the start is secure."""
    while True:
        model = random_model(rng, max_vars, max_agents, max_formulas)
        state = random_secure_state(rng, model)
        if state is None:
            continue
        return model, state, random_requests(rng, model, max_requests)


def reference_secure_path(graph, source, target):
    """Vertex indices of a shortest secure single-flip path, or None.

    Breadth-first search one vertex at a time over graph.secure, flipping
    variables in index order.
    """
    parents = {source: -1}
    frontier = deque([source])
    while frontier and target not in parents:
        current = frontier.popleft()
        for j in range(len(graph.variables)):
            neighbor = current ^ (1 << j)
            if graph.secure[neighbor] and neighbor not in parents:
                parents[neighbor] = current
                frontier.append(neighbor)
    if target not in parents:
        return None
    indices = [target]
    while indices[-1] != source:
        indices.append(parents[indices[-1]])
    return indices[::-1]


# ---------------------------------------------------------------------------
# independent blocking oracles


def run_batch(valuation, batch, blocked=()):
    """Final valuation after executing the unblocked requests in order."""
    out = dict(valuation)
    banned = set(blocked)
    for request in batch:
        if request.agent not in banned:
            out[request.variable] = request.new_value
    return out


def stays_secure(model, state, batch, blocked):
    after = run_batch(state.valuation, batch, blocked)
    return not any(truth_eval(f, after) for f in model.critical_formulas)


def oracle_min_block(model, state, batch):
    """Smallest blocked set keeping every critical formula false."""
    requesters = []
    for request in batch:
        if request.agent not in requesters:
            requesters.append(request.agent)
    for size in range(len(requesters) + 1):
        for blocked in itertools.combinations(requesters, size):
            if stays_secure(model, state, batch, blocked):
                return frozenset(blocked)
    raise AssertionError("even blocking every requester fails; start was insecure")


def assert_counts_match_reference(model, state, batch, report):
    """Each oracle round lists every keep-set of its size once, in name
    order, each with the count of critical formulas ``eval_formula`` finds
    false after the batch restricted to it; the frontier is the keep-sets
    with the highest count, and the representative one of them."""
    asking = {r.agent for r in batch}
    requesters = [a for a in model.agents if a in asking]
    for round_ in report.iterations:
        keeps = [keep for keep, _ in round_.evaluated]
        assert keeps == sorted(itertools.combinations(requesters, round_.cardinality))
        for keep, count in round_.evaluated:
            after = run_batch(state.valuation, batch, asking - set(keep))
            assert count == sum(
                not eval_formula(f, model, after) for f in model.critical_formulas
            )
        best = max(count for _, count in round_.evaluated)
        assert round_.frontier == tuple(keep for keep, count in round_.evaluated if count == best)
        assert round_.representative in round_.frontier


# ---------------------------------------------------------------------------
# a reference engine across ticks


def reference_run(model, state, requests, config, pushes):
    """(tick, batch, blocked, executed, valuation, secure) of each tick of a
    plain engine under the "greedy" or "none" policy; ``pushes[t]`` is a
    sequence of requests that join the queue before tick t, one tick each.

    The queue is a list. Each tick drops from its front the requests of the
    agents still blocked, takes up to the cap, blocks the top-ranked agent
    of ``simulate``, ``build_matrix`` and ``rank_agents`` on what is kept
    until nothing would become true (blocking no one under "none"), applies
    the kept writes and sets each blocked agent's release: the tick named by
    BlockUntilTick, or the tick after this one plus a draw from the
    strategy's own seed if it has one, else from the run's. Under DropTick
    an agent is blocked for its tick only."""
    strategy = config.blocking_strategy
    own_seed = getattr(strategy, "seed", None)
    draws = random.Random(config.random_seed if own_seed is None else own_seed)
    cap = config.max_actions_per_tick
    cap = len(model.critical_formulas) if cap == "auto" else cap
    queue, release, records = list(requests), {}, []
    for pushed in pushes:
        queue += pushed
        now = state.tick + 1
        batch = []
        while queue and len(batch) < cap:
            request = queue.pop(0)
            if release.get(request.agent, now) <= now:
                batch.append(request)
        blocked = []
        while config.policy == "greedy":
            kept = [r for r in batch if r.agent not in blocked]
            report = simulate(model, state, kept)
            if not report.became_true:
                break
            blocked.append(rank_agents(build_matrix(model, report), config.tie_break, kept)[0])
        for agent in blocked:
            if isinstance(strategy, BlockUntilTick):
                release[agent] = strategy.release_tick
            elif isinstance(strategy, BlockForRandomInterval):
                release[agent] = now + 1 + draws.randint(strategy.low, strategy.high)
        executed = tuple(r for r in batch if r.agent not in blocked)
        state = SystemState(now, run_batch(state.valuation, executed))
        secure = not any(truth_eval(f, state.valuation) for f in model.critical_formulas)
        records.append((now, tuple(batch), tuple(blocked), executed, state.valuation, secure))
    return records


# ---------------------------------------------------------------------------
# trace replay


def replay_matches(initial_valuation, records):
    """Re-apply each tick's executed actions; valuations must match exactly."""
    current = dict(initial_valuation)
    for record in records:
        current = run_batch(current, record.executed)
        if current != dict(record.valuation):
            return False
    return True


# ---------------------------------------------------------------------------
# trace records as dicts: ``json.dumps(record_to_dict(record), sort_keys=True,
# separators=(",", ":"))`` is the reference for the bytes trace_line writes


def request_to_dict(request: ActionRequest) -> dict:
    return {
        "agent": request.agent,
        "var": request.variable,
        "value": request.new_value,
        "arrival": request.arrival_index,
    }


def _matrix_to_dict(matrix: BlockingMatrix) -> dict:
    return {
        "formulas": list(matrix.formula_indices),
        "agents": list(matrix.agents),
        "marks": [list(row) for row in matrix.marks],
        "counters": list(matrix.counters),
    }


def iteration_to_dict(item) -> dict:
    if isinstance(item, GreedyIteration):
        return {
            "kind": "greedy",
            "became_true": list(item.became_true),
            "implicated": list(item.implicated),
            "matrix": _matrix_to_dict(item.matrix),
            "ranking": list(item.ranking),
            "blocked": item.blocked_agent,
        }
    if isinstance(item, OracleRound):
        return {
            "kind": "oracle",
            "cardinality": item.cardinality,
            "candidates": [
                {"subset": list(subset), "false_count": count}
                for subset, count in item.evaluated
            ],
            "frontier": [list(subset) for subset in item.frontier],
            "representative": list(item.representative),
            "success": item.success,
        }
    raise TypeError(f"unknown iteration snapshot {type(item).__name__}")


def record_to_dict(record: TickRecord) -> dict:
    return {
        "tick": record.tick,
        "batch": [request_to_dict(r) for r in record.batch],
        "iterations": [iteration_to_dict(i) for i in record.iterations],
        "blocked": list(record.blocked),
        "executed": [request_to_dict(r) for r in record.executed],
        "valuation": dict(record.valuation),
        "secure": record.secure,
    }


# ---------------------------------------------------------------------------
# the audit as it was before truth tables: one assignment search per coalition


def first_witness(evaluate, valuation, relevant):
    """The first assignment to ``relevant`` making ``evaluate(trial, True)`` true, or None.

    Assignments are tried in itertools.product order, False before True, the
    rest of the valuation held fixed. Capped at DIAMOND_VARIABLE_CAP variables.
    """
    if len(relevant) > DIAMOND_VARIABLE_CAP:
        raise BudgetExceededError(f"coalition controls {len(relevant)} variables of the formula")
    trial = dict(valuation)
    for combo in itertools.product((False, True), repeat=len(relevant)):
        assignment = dict(zip(relevant, combo))
        trial.update(assignment)
        if evaluate(trial, True):
            return assignment
    return None


def reference_audit_loop(model, state):
    """audit_vulnerabilities by first_witness on each candidate coalition.

    Coalitions are enumerated by ascending size; supersets of an already
    reported coalition are skipped, which is exact because ability is
    monotone under adding agents. An agent owning none of a formula's
    variables adds nothing to a coalition, so only the formula's own agents
    are combined, in model order, and an agent able alone joins no larger
    coalition. A formula already true at the state is the exception: there
    every agent alone is able, so no larger coalition is tried.
    AUDIT_AGENT_CAP bounds the agents combined for one formula.
    """
    require(model, Model, "model")
    require(state, SystemState, "state")
    compiled = model.compiled
    if any(compiled.coalitions):
        raise ModalFormulaError("the audit requires propositional critical formulas")
    for variable in model.variables:
        state.value(variable)  # raises for a variable the state leaves unassigned
    findings = []
    for index, f in enumerate(model.critical_formulas):
        used = compiled.variables[index]
        owners = [(v, model.owner_of(v)) for v in model.variables if v in used]  # model order
        if compiled.evaluators[index](state.valuation, True):
            candidates = model.agents
        else:
            candidates = tuple(a for a in model.agents if a in compiled.agents[index])
            if len(candidates) > AUDIT_AGENT_CAP:
                raise BudgetExceededError(
                    f"formula {index}: {len(candidates)} agents exceed the audit cap "
                    f"of {AUDIT_AGENT_CAP}"
                )
        minimal: list[frozenset[str]] = []
        for size in range(1, len(candidates) + 1):
            for combo in itertools.combinations(candidates, size):
                members = frozenset(combo)
                if any(found <= members for found in minimal):
                    continue
                relevant = tuple(v for v, owner in owners if owner in members)
                assignment = first_witness(compiled.evaluators[index], state.valuation, relevant)
                if assignment is not None:
                    minimal.append(members)
                    witness = PartialValuation(members, assignment)
                    findings.append(VulnerabilityFinding(index, f, combo, witness))
            if size == 1:  # an agent able alone is in no larger minimal coalition
                candidates = tuple(a for a in candidates if frozenset((a,)) not in minimal)
    return tuple(findings)


# ---------------------------------------------------------------------------
# prime implicates clause by clause, and Horn renaming by 2-SAT: the code the
# bitset merge and the renaming's truth table in coalguard.formula replaced


@lru_cache(maxsize=None)  # one entry per variable count, at most the cap + 1
def _all_clauses(
    num_vars: int,
) -> tuple[tuple[int, tuple[tuple[int, bool], ...], tuple[int, ...]], ...]:
    """Every clause over x1..x{num_vars} as (falsified, literals, drops).

    falsified is the bitset of the valuations that falsify the clause,
    literals its (variable index, positive) pairs by index, and drops the
    positions of the clauses with one literal dropped. A clause's position
    sums 3^j for a literal x{j+1} and 2 * 3^j for its negation. Raises
    BudgetExceededError past TRUTH_TABLE_VARIABLE_CAP variables.
    """
    if num_vars > TRUTH_TABLE_VARIABLE_CAP:
        raise BudgetExceededError(
            f"{num_vars} variables exceed the truth-table cap of {TRUTH_TABLE_VARIABLE_CAP}"
        )
    full = (1 << (1 << num_vars)) - 1
    clauses = [(full, (), ())]
    for j, mask in enumerate(valuation_masks(num_vars)):
        size = len(clauses)
        for digit, positive, falsified in ((1, True, full ^ mask), (2, False, mask)):
            for code, (bits, literals, drops) in enumerate(clauses[:size]):
                dropped = (*(d + digit * size for d in drops), code)
                clauses.append((bits & falsified, (*literals, (j, positive)), dropped))
    return tuple(clauses)


def _prime_implicates(clauses, table: int) -> list[tuple[tuple[int, bool], ...]]:
    """The literals of each clause of _all_clauses that the table implies (no
    model falsifies it) while it implies none of the clause's drops."""
    implied = [not bits & table for bits, _, _ in clauses]
    return [
        literals
        for (_, literals, drops), holds in zip(clauses, implied)
        if holds and not any(map(implied.__getitem__, drops))
    ]


def scan_prime_implicates(num_vars, table):
    """The prime implicates of a truth table, as the clause scan lists them."""
    return _prime_implicates(_all_clauses(num_vars), table)


def horn_renaming_2sat(clauses):
    """The variables to flip so that every clause keeps at most one positive
    literal, or None when no renaming does (Lewis, JACM 1978).

    A literal is a (variable, positive) pair. Clauses already Horn need no
    flip; otherwise the standard 2-SAT reduction decides.
    """
    clauses = tuple(clauses)
    if all(sum(positive for _, positive in clause) <= 1 for clause in clauses):
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
        closure = (_close((variable, True), assignment, implications)
                   or _close((variable, False), assignment, implications))
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


# ---------------------------------------------------------------------------
# eval_formula and diamond_holds as they were before formula._truth_table
# served both, copied from the library as its references


def eval_formula_reference(f, model, state):
    """eval_formula over its own recursion, _eval."""
    check_names(f, model)
    valuation = getattr(state, "valuation", state)
    require(valuation, Mapping, "a state's valuation")
    try:
        return _eval(f, model, valuation, {})
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None


def _eval(f, model, valuation, scopes):
    """f's truth; scopes maps id(<> node) to the variables it assigns."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Var):
        return valuation[f.name]
    if isinstance(f, Not):
        return not _eval(f.child, model, valuation, scopes)
    if isinstance(f, Or):
        return _eval(f.left, model, valuation, scopes) or _eval(f.right, model, valuation, scopes)
    relevant = scopes.get(id(f))  # a Diamond: check_names refused any other node
    if relevant is None:
        relevant = scopes[id(f)] = _scope(model, f.coalition, structure(f.child)[0])
    _check_budget(relevant)
    trials = ({**valuation, **dict(zip(relevant, combo))}
              for combo in itertools.product((False, True), repeat=len(relevant)))
    return any(_eval(f.child, model, trial, scopes) for trial in trials)


def diamond_holds_reference(model, state, coalition, f):
    """diamond_holds by a compiled closure called once per assignment."""
    require(state, SystemState, "state")
    used, _ = check_names(f, model, "ability checks take a propositional formula")
    members = coalition_names(coalition)
    missing = members - model.agent_set
    if missing:
        raise UnknownAgentError(f"unknown agents: {sorted(missing, key=repr)}")
    relevant = _scope(model, members, used)
    _check_budget(relevant)
    evaluate, trial = _compile(f, model, set()), dict(state.valuation)
    try:
        for combo in itertools.product((False, True), repeat=len(relevant)):
            trial.update(zip(relevant, combo))
            if evaluate(trial, True):
                return True, PartialValuation(members, zip(relevant, combo))
    except KeyError as exc:
        raise unassigned(exc.args[0]) from None
    return False, None
