"""Shared test oracles, written from the definitions and independent of the
library's internals: they use only names coalguard exports.

There is one oracle per semantics: truth_eval for a formula's value, modal
included; brute_diamond for <>'s witness; brute_audit for the audit's minimal
coalitions; brute_prime_implicates for prime implicates; enumerate_labelings
for Horn renamings; reference_simulate for a batch's flips; reference_greedy
for greedy blocking's rounds. Each enumerates its cases one by one.
"""

import itertools
import random
from collections import deque

from coalguard import (
    ActionRequest,
    BlockForRandomInterval,
    BlockUntilTick,
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
# plain recursive evaluation (no caches)


def truth_eval(f, valuation, model=None):
    """f's value at the valuation, read left to right: ``|`` stops at a true
    left side and a <> at its first holding assignment, so the variables
    never read may be left out; the first one read and missing raises
    KeyError. A <>{C} g holds when one of assignments(model, C, g), over the
    valuation, makes g true; only a modal f needs the model."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Var):
        return valuation[f.name]
    if isinstance(f, Not):
        return not truth_eval(f.child, valuation, model)
    if isinstance(f, Or):
        return truth_eval(f.left, valuation, model) or truth_eval(f.right, valuation, model)
    if isinstance(f, Diamond):
        return any(truth_eval(f.child, {**valuation, **assignment}, model)
                   for assignment in assignments(model, f.coalition, f.child))
    raise ValueError(f"not a formula: {f!r}")


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


def assignments(model, coalition, f):
    """Each assignment a coalition can make to the variables of f that it
    owns, taken in model order: dicts in itertools.product order, False
    before True, the first variable changing slowest."""
    mentioned = vars_in(f)
    scope = [v for v in model.variables if v in mentioned and model.owner_of(v) in coalition]
    return (dict(zip(scope, bits)) for bits in itertools.product((False, True), repeat=len(scope)))


def brute_diamond(model, state, coalition, f):
    """The first of assignments(model, coalition, f) that makes f true at the
    state, or None when none does: <>{coalition} f holds exactly when one does."""
    return next((assignment for assignment in assignments(model, coalition, f)
                 if truth_eval(f, {**state.valuation, **assignment}, model)), None)


def brute_audit(model, state):
    """(formula index, coalition, witness) of each inclusion-minimal coalition
    that can make a critical formula true: formula by formula, then by size,
    then in itertools.combinations order over the agents in model order. The
    witness is brute_diamond's. A coalition with an able proper subset is not
    minimal, so it is not tried."""
    found = []
    for index, f in enumerate(model.critical_formulas):
        able = []
        for size in range(1, len(model.agents) + 1):
            for combo in itertools.combinations(model.agents, size):
                if any(set(other) < set(combo) for other in able):
                    continue
                witness = brute_diamond(model, state, combo, f)
                if witness is not None:
                    able.append(combo)
                    found.append((index, combo, witness))
    return found


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


def true_sets(num_vars):
    """For each variable j, the valuations m < 2^num_vars with bit j of m set,
    as a bitset: bit m is set when variable j is true at m."""
    return [sum(1 << m for m in range(1 << num_vars) if (m >> j) & 1) for j in range(num_vars)]


def falsified(clause, true_at, num_vars):
    """The valuations, as a bitset, at which every literal of the clause is
    false; a literal is a (key, positive) pair and true_at[key] the
    valuations where key is true."""
    out = (1 << (1 << num_vars)) - 1
    for key, positive in clause:
        out &= ~true_at[key] if positive else true_at[key]
    return out


def brute_prime_implicates(num_vars, table, names=None):
    """Prime implicates of a truth table, from the definition.

    Tries all 3^num_vars clauses over names (x1..xn by default) as sets of
    (name, positive), where bit m of the table is the function at the
    valuation giving names[j] bit j of m. A clause is implied when no
    valuation of the table falsifies it, and prime when, in addition, no
    clause with one literal dropped is implied.
    """
    names = names or [f"x{j + 1}" for j in range(num_vars)]
    true_at = dict(zip(names, true_sets(num_vars)))

    def implied(clause):
        return not falsified(clause, true_at, num_vars) & table

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


def reference_simulate(model, state, batch):
    """(became, implicated, after): the critical formulas false at the state
    and true after the batch, every one evaluated in full; the requesters
    owning a variable of one of them, in model order; the valuation after."""
    after = run_batch(state.valuation, batch)
    became = tuple(index for index, f in enumerate(model.critical_formulas)
                   if not truth_eval(f, state.valuation, model) and truth_eval(f, after, model))
    flipped = set().union(*(vars_in(model.critical_formulas[i]) for i in became))
    requesters = {r.agent for r in batch}
    implicated = tuple(a for a in model.agents if a in requesters and set(model.owned(a)) & flipped)
    return became, implicated, after


def reference_greedy(model, state, batch, tie_break):
    """(rounds, kept batch) of greedy blocking. While the kept batch makes
    critical formulas true, a round has them as rows, each with the agents
    owning its variables, and as columns reference_simulate's implicated
    requesters, each counting the rows it is in. It ranks them by higher
    count, then by first request ("fifo") or by name ("lex"), and blocks the
    first. A round is a dict of a GreedyIteration's and its matrix's fields."""
    kept, rounds = tuple(batch), []
    while True:
        rows, columns, _ = reference_simulate(model, state, kept)
        if not rows:
            return rounds, kept
        row_agents = tuple(frozenset(map(model.owner_of, vars_in(model.critical_formulas[i])))
                           for i in rows)
        marks = tuple(tuple(a in row for a in columns) for row in row_agents)
        counts = dict(zip(columns, map(sum, zip(*marks))))  # each column's marked rows
        tie = [r.agent for r in kept].index if tie_break == "fifo" else str  # position or name
        ranking = tuple(sorted(columns, key=lambda a: (-counts[a], tie(a))))
        rounds.append(dict(became_true=rows, implicated=columns, row_agents=row_agents,
                           marks=marks, counters=tuple(counts.values()), ranking=ranking,
                           blocked_agent=ranking[0]))
        kept = tuple(r for r in kept if r.agent != ranking[0])


def assert_counts_match_reference(model, state, batch, report):
    """Each oracle round lists every keep-set of its size once, in name
    order, each with the count of critical formulas ``truth_eval`` finds
    false after the batch restricted to it; the frontier is the keep-sets
    with the highest count, and the representative one of them."""
    asking = {r.agent for r in batch}
    requesters = [a for a in model.agents if a in asking]
    for round_ in report.iterations:
        keeps = [keep for keep, _ in round_.evaluated]
        assert keeps == sorted(itertools.combinations(requesters, round_.cardinality))
        for keep, count in round_.evaluated:
            after = run_batch(state.valuation, batch, asking - set(keep))
            assert count == sum(not truth_eval(f, after, model) for f in model.critical_formulas)
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
    agents still blocked, takes up to the cap, blocks reference_greedy's
    agents (no one under "none"), applies the kept writes and sets each
    blocked agent's release: the tick named by BlockUntilTick, or the tick
    after this one plus a draw from the strategy's own seed if it has one,
    else from the run's. Under DropTick an agent is blocked for its tick only."""
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
        rounds = reference_greedy(model, state, batch, config.tie_break)[0]
        blocked = [item["blocked_agent"] for item in rounds] if config.policy == "greedy" else []
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
