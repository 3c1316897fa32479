"""Shared test oracles, deliberately independent of the library internals."""

import itertools
from collections import deque

from coalguard import (
    ActionRequest,
    BlockingMatrix,
    Diamond,
    GreedyIteration,
    Model,
    Not,
    OracleRound,
    Or,
    SystemState,
    TickRecord,
    Top,
    Var,
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
# clause sets read directly


def clause_variables(clause_set):
    return frozenset(lit.variable for clause in clause_set.clauses for lit in clause)


def clauses_hold(clause_set, assignment):
    """Every clause has a literal the assignment makes true."""
    return all(
        any(assignment[lit.variable] == lit.positive for lit in clause)
        for clause in clause_set.clauses
    )


# ---------------------------------------------------------------------------
# Horn labeling by brute force


def enumerate_labelings(clause_set):
    """All flip sets under which every clause has <= 1 positive literal."""
    names = sorted(clause_variables(clause_set))
    good = []
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            flipped = frozenset(combo)
            ok = True
            for clause in clause_set.clauses:
                positives = sum(
                    1 for lit in clause if lit.positive != (lit.variable in flipped)
                )
                if positives > 1:
                    ok = False
                    break
            if ok:
                good.append(flipped)
    return good


def brute_prime_implicates(num_vars, table):
    """Prime implicates of a truth table, one valuation at a time.

    Tries all 3^num_vars clauses over x1..xn as sets of (name, positive):
    a clause is implied when every model of the table (bit m set, variable
    x{j+1} being bit j of m) satisfies it, and prime when, in addition, no
    clause with one literal dropped is implied.
    """
    names = [f"x{j + 1}" for j in range(num_vars)]
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
