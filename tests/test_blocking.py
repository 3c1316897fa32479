import json
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from coalguard import (
    ActionQueue,
    ActionRequest,
    BudgetExceededError,
    Diamond,
    EngineConfig,
    GreedyIteration,
    Model,
    OwnershipViolationError,
    PreconditionError,
    SimulationReport,
    SystemState,
    UnknownVariableError,
    Var,
    apply_actions,
    brute_force_min_block,
    build_cycle_instance,
    build_matrix,
    eval_formula,
    greedy_block,
    is_secure,
    nondet_block,
    parse_formula,
    rank_agents,
    simulate,
    tick,
    trace_line,
)
from coalguard import blocking as blocking_mod, scenario as scenario_mod
from coalguard.engine import POLICIES
from helpers import (
    assert_counts_match_reference,
    oracle_min_block,
    random_model,
    random_requests,
    random_scenario,
    record_to_dict,
    stays_secure,
)


# ---------------------------------------------------------------------------
# matrix + ranking


def test_iteration1_matrix_and_ranking(example1_model, example1_state, example1_batch):
    report = simulate(example1_model, example1_state, example1_batch)
    matrix = build_matrix(example1_model, report)
    assert matrix.formula_indices == (0, 1, 2, 3)
    assert matrix.agents == ("a1", "a2", "a3", "a4")
    assert matrix.marks == (
        (True, True, True, True),
        (False, True, True, True),
        (True, False, True, False),
        (True, False, True, True),
    )
    assert matrix.counters == (3, 2, 4, 3)
    assert rank_agents(matrix, "fifo", example1_batch) == ("a3", "a1", "a4", "a2")


def test_lex_tie_break(example1_model, example1_state, example1_batch):
    report = simulate(example1_model, example1_state, example1_batch)
    matrix = build_matrix(example1_model, report)
    assert rank_agents(matrix, "lex") == ("a3", "a1", "a4", "a2")


def test_rank_agents_rejects_empty():
    from coalguard import BlockingMatrix

    with pytest.raises(PreconditionError):
        rank_agents(BlockingMatrix((), (), (), ()))


# ---------------------------------------------------------------------------
# greedy


def test_greedy_golden_run(example1_model, example1_state, example1_batch):
    report = greedy_block(example1_model, example1_state, example1_batch)
    assert report.method == "greedy"
    assert report.blocked == ("a3", "a1")
    assert [(r.agent, r.variable, r.new_value) for r in report.allowed_batch] == [
        ("a2", "v3", False),
        ("a4", "v4", False),
    ]
    first, second = report.iterations
    assert first.became_true == (0, 1, 2, 3)
    assert first.implicated == ("a1", "a2", "a3", "a4")
    assert first.ranking == ("a3", "a1", "a4", "a2")
    assert first.blocked_agent == "a3"
    assert second.became_true == (0, 3)
    assert second.matrix.agents == ("a1", "a2", "a4")
    assert second.matrix.marks == ((True, True, True), (True, False, True))
    assert second.matrix.counters == (2, 1, 2)
    assert second.ranking == ("a1", "a4", "a2")
    assert second.blocked_agent == "a1"


def test_greedy_no_threat_blocks_nobody(example1_model, example1_state):
    batch = (ActionRequest("a2", "v3", False, 0),)
    report = greedy_block(example1_model, example1_state, batch)
    assert report.blocked == ()
    assert report.allowed_batch == batch
    assert report.iterations == ()


def test_greedy_and_ranking_reject_an_unknown_tie_break(
    example1_model, example1_state, example1_batch
):
    with pytest.raises(PreconditionError, match="tie_break must be one of"):
        greedy_block(example1_model, example1_state, example1_batch, tie_break="FIFO")
    matrix = build_matrix(example1_model, simulate(example1_model, example1_state, example1_batch))
    with pytest.raises(PreconditionError, match="tie_break must be one of"):
        rank_agents(matrix, "FIFO", example1_batch)


@pytest.mark.parametrize("batch", [5, None, "ab", [5]])
def test_greedy_rejects_a_batch_that_is_not_a_sequence_of_requests(
    batch, example1_model, example1_state
):
    with pytest.raises(PreconditionError, match="a batch holds ActionRequests, not"):
        greedy_block(example1_model, example1_state, batch)


# Formula 1 reads w only once x is true and y false: the state below leaves w
# unassigned, which the full batch never reveals (simulate reads x & ~y as
# false first), but blocking b, keeping a alone, does.
LATE_READ = Model(
    ("a", "b", "c"),
    ("x", "y", "w"),
    {"a": ("x",), "b": ("y",), "c": ("w",)},
    (parse_formula("x & y"), parse_formula("x & ~y & w")),
)
LATE_READ_BATCH = (ActionRequest("b", "y", True, 0), ActionRequest("a", "x", True, 1))


@pytest.mark.parametrize("block", [greedy_block, nondet_block, brute_force_min_block])
@pytest.mark.parametrize(
    "valuation, batch, error",
    [
        ({"x": False, "y": False, "w": False}, (ActionRequest("a", "y", True, 0),),
         OwnershipViolationError),
        ({"x": False, "y": False, "w": False}, (ActionRequest("a", "z", True, 0),),
         UnknownVariableError),
        ({"x": False, "y": False, "w": False}, "ab", PreconditionError),
        ({"x": False, "y": False, "w": False}, 5, PreconditionError),
        ({}, LATE_READ_BATCH, UnknownVariableError),
        ({"x": False, "y": False}, LATE_READ_BATCH, UnknownVariableError),
    ],
    ids=["foreign-writer", "undeclared-variable", "str-batch", "int-batch", "empty-state",
         "partial-state"],
)
def test_blocking_functions_check_the_batch_and_the_state(block, valuation, batch, error):
    with pytest.raises(error):
        block(LATE_READ, SystemState(0, valuation), batch)


# ---------------------------------------------------------------------------
# nondeterministic search


def test_nondet_golden_trace(example1_model, example1_state, example1_batch):
    report = nondet_block(
        example1_model, example1_state, example1_batch, seed=0
    )
    assert report.method == "nondeterministic"
    assert report.blocked == ("a1", "a3")
    assert [(r.agent, r.variable) for r in report.allowed_batch] == [
        ("a2", "v3"),
        ("a4", "v4"),
    ]
    rounds = report.iterations
    assert [r.cardinality for r in rounds] == [3, 2]
    # every keep-set with the number of critical formulas it leaves false
    assert rounds[0].evaluated == (
        (("a1", "a2", "a3"), 0),
        (("a1", "a2", "a4"), 2),
        (("a1", "a3", "a4"), 0),
        (("a2", "a3", "a4"), 2),
    )
    assert rounds[1].evaluated == (
        (("a1", "a2"), 2),
        (("a1", "a3"), 1),
        (("a1", "a4"), 2),
        (("a2", "a3"), 2),
        (("a2", "a4"), 4),
        (("a3", "a4"), 2),
    )
    assert rounds[0].frontier == (("a1", "a2", "a4"), ("a2", "a3", "a4"))
    assert not rounds[0].success
    assert rounds[1].frontier == (("a2", "a4"),)
    assert rounds[1].success
    assert rounds[1].representative == ("a2", "a4")


def test_nondet_trace_is_seed_stable(example1_model, example1_state, example1_batch):
    reports = [
        nondet_block(example1_model, example1_state, example1_batch, seed=9)
        for _ in range(3)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_nondet_no_threat_short_circuits(example1_model, example1_state):
    batch = (ActionRequest("a2", "v3", False, 0),)
    report = nondet_block(example1_model, example1_state, batch, seed=0)
    assert report.blocked == ()
    assert report.iterations == ()


def test_nondet_budget_cap():
    big = Model(
        agents=tuple(f"b{i}" for i in range(17)),
        variables=tuple(f"w{i}" for i in range(17)),
        partition={f"b{i}": (f"w{i}",) for i in range(17)},
        critical_formulas=(parse_formula("w0 & w1"),),
    )
    state = SystemState(0, {v: False for v in big.variables})
    batch = tuple(ActionRequest(f"b{i}", f"w{i}", True, i) for i in range(17))
    with pytest.raises(BudgetExceededError):
        nondet_block(big, state, batch, seed=0)


def test_nondet_diamond_over_the_cap():
    """simulate short-circuits past the <> (x is false before, ~z after), so
    only the oracle's own evaluation of the keep-set {a} reaches it."""
    wide = tuple(f"y{i}" for i in range(21))
    model = Model(
        agents=("a", "b", "c"),
        variables=("x", "z") + wide,
        partition={"a": ("x",), "b": wide, "c": ("z",)},
        critical_formulas=(
            parse_formula("x & ~z & <>{b}(" + " & ".join(wide) + ")"),
            parse_formula("x & z"),
        ),
    )
    state = SystemState(0, {v: False for v in model.variables})
    batch = (ActionRequest("a", "x", True, 0), ActionRequest("c", "z", True, 1))
    with pytest.raises(BudgetExceededError, match="cap is 20"):
        nondet_block(model, state, batch, seed=0)


# ---------------------------------------------------------------------------
# exact minimum


def test_brute_force_matches_oracle(example1_model, example1_state, example1_batch):
    report = brute_force_min_block(example1_model, example1_state, example1_batch)
    assert report.blocked == ("a1", "a3")
    assert len(report.blocked) == len(
        oracle_min_block(example1_model, example1_state, example1_batch)
    )


def test_brute_force_rejects_insecure_start(example1_model, example1_batch):
    hot = SystemState(
        0,
        {
            "v1": True, "v2": True, "v3": False, "v4": False, "v5": False,
            "v6": True, "v7": True, "v8": True, "v9": True,
        },
    )
    with pytest.raises(PreconditionError):
        brute_force_min_block(example1_model, hot, example1_batch)


# ---------------------------------------------------------------------------
# the late-danger regression: an agent outside the initially implicated set
# must still be blockable


def _late_danger_case():
    model = Model(
        agents=("P", "Q", "U"),
        variables=("p", "q", "u"),
        partition={"P": ("p",), "Q": ("q",), "U": ("u",)},
        critical_formulas=(
            parse_formula("p & q"),
            parse_formula("u & (~p | ~q)"),
        ),
    )
    state = SystemState(0, {"p": False, "q": False, "u": False})
    batch = (
        ActionRequest("P", "p", True, 0),
        ActionRequest("Q", "q", True, 1),
        ActionRequest("U", "u", True, 2),
    )
    return model, state, batch


def test_late_danger_simulation_misses_u():
    model, state, batch = _late_danger_case()
    report = simulate(model, state, batch)
    assert report.implicated_agents == ("P", "Q")


def test_late_danger_nondet_still_sound():
    model, state, batch = _late_danger_case()
    report = nondet_block(model, state, batch, seed=0)
    assert stays_secure(model, state, batch, report.blocked)
    assert len(report.blocked) == len(oracle_min_block(model, state, batch)) == 2


def test_late_danger_greedy_still_sound():
    model, state, batch = _late_danger_case()
    report = greedy_block(model, state, batch)
    assert stays_secure(model, state, batch, report.blocked)


# ---------------------------------------------------------------------------
# bundled strict gap: greedy over-blocks where the exact searches do not


def test_greedy_gap_instance(scenario_dir):
    from coalguard import load_scenario

    scn = load_scenario(scenario_dir / "greedy_gap.yaml")
    batch = tuple(scn.queue)
    greedy = greedy_block(scn.model, scn.initial_state, batch)
    exact = brute_force_min_block(scn.model, scn.initial_state, batch)
    nondet = nondet_block(scn.model, scn.initial_state, batch, seed=0)
    assert len(exact.blocked) == len(nondet.blocked) == 2
    assert len(greedy.blocked) == 3
    for report in (greedy, exact, nondet):
        assert stays_secure(scn.model, scn.initial_state, batch, report.blocked)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 2**32 - 1))
def test_blocking_soundness_and_optimality(seed):
    rng = random.Random(seed)
    model, state, batch = random_scenario(
        rng, max_vars=8, max_agents=5, max_formulas=3, max_requests=6
    )
    greedy = greedy_block(model, state, batch)
    nondet = nondet_block(model, state, batch, seed=seed)
    assert stays_secure(model, state, batch, greedy.blocked)
    assert stays_secure(model, state, batch, nondet.blocked)
    best = oracle_min_block(model, state, batch)
    assert len(nondet.blocked) == len(best)
    assert len(greedy.blocked) >= len(best)
    # greedy terminates within one block per requester
    assert len(greedy.iterations) <= len({r.agent for r in batch})


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_blocked_agents_are_requesters(seed, foreign):
    rng = random.Random(seed)
    model, state, batch = random_scenario(rng, max_vars=6, max_agents=4)
    if foreign:  # another agent writes a batch variable: every policy refuses, as a queue does
        request = rng.choice(batch)
        other = rng.choice([a for a in model.agents if a != request.agent])
        batch += (ActionRequest(other, request.variable, True, len(batch)),)
        for block in (greedy_block, nondet_block, brute_force_min_block):
            with pytest.raises(OwnershipViolationError):
                block(model, state, batch)
        return
    requesters = {r.agent for r in batch}
    for report in (
        greedy_block(model, state, batch),
        nondet_block(model, state, batch, seed=seed),
    ):
        assert set(report.blocked) <= requesters
        allowed_agents = {r.agent for r in report.allowed_batch}
        assert allowed_agents.isdisjoint(report.blocked)


@given(st.integers(0, 2**32 - 1))
def test_every_report_and_tick_carry_the_state_after_the_allowed_batch(seed):
    """The reference is apply_actions on the kept requests, from any start,
    a secure one or not, and with one agent writing twice."""
    rng = random.Random(seed)
    model = random_model(rng, max_vars=8, max_agents=5, max_formulas=4)
    state = SystemState(rng.randint(0, 5), {v: rng.random() < 0.5 for v in model.variables})
    batch = random_requests(rng, model, max_requests=6)
    twice = rng.choice(batch).agent
    batch += (ActionRequest(twice, rng.choice(model.owned(twice)), rng.random() < 0.5, len(batch)),)
    reports = [greedy_block(model, state, batch), nondet_block(model, state, batch, seed=seed)]
    try:
        reports.append(brute_force_min_block(model, state, batch))
    except PreconditionError:  # no keep-set helps: a formula already holds at the start
        assert not is_secure(model, state)
    for report in reports:
        assert report.state == apply_actions(state, report.allowed_batch), report.method
    for policy in POLICIES:
        config = EngineConfig(max_actions_per_tick=len(batch), policy=policy, random_seed=seed)
        outcome = tick(model, state, ActionQueue(model, batch), config)
        after = apply_actions(state, outcome.record.executed)
        assert outcome.state == after, policy
        assert outcome.record.valuation == after.valuation
        assert outcome.record.secure == is_secure(model, after)


# ---------------------------------------------------------------------------
# batch locality against the references: lane counts in the oracle,
# incremental rounds in greedy


def modal_case(rng):
    """A random model whose formulas include ``lit & <>{C} conj`` nodes, a
    secure start, and a batch that writes one variable twice."""
    base = random_model(rng, max_vars=7, max_agents=4, max_formulas=3)
    formulas = list(base.critical_formulas)
    for _ in range(rng.randint(1, 2)):
        guard = Var(rng.choice(base.variables))
        coalition = rng.sample(base.agents, rng.randint(1, len(base.agents)))
        span = rng.sample(base.variables, rng.randint(1, min(3, len(base.variables))))
        inner = span[0] if rng.random() < 0.5 else "~" + span[0]
        for name in span[1:]:
            inner += (" & " if rng.random() < 0.7 else " | ") + name
        formulas.append(guard & Diamond(coalition, parse_formula(inner)))
    model = Model(base.agents, base.variables, base.partition, tuple(formulas))
    for _ in range(256):
        valuation = {v: rng.random() < 0.5 for v in model.variables}
        if not any(eval_formula(f, model, valuation) for f in model.critical_formulas):
            break
    else:
        return None
    state = SystemState(0, valuation)
    batch = random_requests(rng, model, max_requests=7)
    first = rng.choice(batch)
    batch += (ActionRequest(first.agent, first.variable, not first.new_value, len(batch)),)
    return model, state, batch


def reference_greedy(model, state, batch, tie_break):
    """Greedy as one full simulate, matrix and ranking per surviving batch."""
    current, iterations = tuple(batch), []
    while True:
        report = simulate(model, state, current)
        if not report.became_true:
            return tuple(iterations), current
        matrix = build_matrix(model, report)
        ranking = rank_agents(matrix, tie_break, current)
        top = ranking[0]
        iterations.append(
            GreedyIteration(report.became_true, report.implicated_agents, matrix, ranking, top)
        )
        current = tuple(r for r in current if r.agent != top)


def hub_case(rng, size, count):
    """``size`` agents owning one variable each, all requesting, and ``count``
    formulas ``h & body`` over one or two hub variables h, which start false
    and are written true; bodies mix ~, &, | and <> over the other variables.
    The last agent in model order writes a hub, so the top mask bit decides
    every count, and the search ends once it blocks every hub."""
    agents = tuple(f"a{i:02}" for i in range(size))
    variables = tuple(f"v{i:02}" for i in range(size))
    hubs = variables[-rng.randint(1, 2):]
    others = variables[:-len(hubs)]

    def body():
        span = rng.sample(others, rng.randint(1, min(3, len(others))))
        inner = Var(span[0]) if rng.random() < 0.5 else ~Var(span[0])
        for name in span[1:]:
            inner = inner & Var(name) if rng.random() < 0.6 else inner | ~Var(name)
        if rng.random() < 0.3:
            return Diamond(rng.sample(agents, rng.randint(1, 3)), inner)
        return inner

    formulas = [Var(h) & Var(others[0]) for h in hubs]  # true once the batch is applied
    formulas += [Var(rng.choice(hubs)) & body() for _ in range(count - len(hubs))]
    model = Model(agents, variables, dict(zip(agents, zip(variables))), tuple(formulas))
    state = SystemState(0, {v: v not in hubs and rng.random() < 0.5 for v in variables})
    values = [v in hubs or v == others[0] or rng.random() < 0.5 for v in variables]
    writes = list(zip(agents, variables, values))
    rng.shuffle(writes)
    agent, variable, value = rng.choice(writes)  # a second write; the last one counts
    writes.insert(0, (agent, variable, not value))
    batch = tuple(ActionRequest(*write, arrival) for arrival, write in enumerate(writes))
    return model, state, batch, len(hubs)


@given(st.integers(0, 2**32 - 1))
def test_oracle_counts_match_reference_evaluation(seed):
    rng = random.Random(seed)
    case = modal_case(rng)
    assume(case is not None)
    model, state, batch = case
    report = nondet_block(model, state, batch, seed=seed)
    assert_counts_match_reference(model, state, batch, report)
    exact = brute_force_min_block(model, state, batch)
    assert len(report.blocked) == len(exact.blocked)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(16, 12), (5, 260)]))
def test_oracle_counts_in_wide_lanes_match_reference_evaluation(seed, shape):
    """All 16 requesters, so every mask bit is in use, or 260 formulas, so
    counts need more than a byte although masks need fewer than eight bits."""
    model, state, batch, hubs = hub_case(random.Random(seed), *shape)
    report = nondet_block(model, state, batch, seed=seed)
    assert [r.cardinality for r in report.iterations][-1] == shape[0] - hubs
    assert report.iterations[-1].success
    assert_counts_match_reference(model, state, batch, report)


def renamed_cycle(size, names):
    """``build_cycle_instance(size)`` with agent i named ``names[i]``."""
    model, state, batch = build_cycle_instance(size)
    rename = dict(zip(model.agents, names))
    partition = {rename[a]: model.owned(a) for a in model.agents}
    renamed = Model(tuple(names), model.variables, partition, model.critical_formulas)
    return renamed, state, tuple(replace(r, agent=rename[r.agent]) for r in batch)


def test_oracle_caches_serve_interleaved_models_with_other_names():
    """The levels' masks are cached per pattern of the requesters' name ranks,
    their plans per requester tuple and the trace's subset text per keep
    tuple. Four 6-cycles take turns: two name their agents in name order, two
    against it, each pair with other names, so a tick reads masks that a tick
    of another model cached, and a plan that an earlier tick of its own built."""
    plain = build_cycle_instance(6)
    forwards = renamed_cycle(6, [f"q{i + 1}" for i in range(6)])
    backwards = renamed_cycle(6, [f"r{6 - i}" for i in range(6)])
    reversed_too = renamed_cycle(6, [f"s{6 - i}" for i in range(6)])
    assert list(backwards[0].agents) != sorted(backwards[0].agents)
    blocking_mod._level.cache_clear()
    blocking_mod._plan.cache_clear()
    text_hits = scenario_mod._subset_json.cache_info().hits
    for seed in range(3):
        for model, state, batch in (plain, backwards, forwards, reversed_too):
            queue = ActionQueue(model, batch)
            config = EngineConfig(len(batch), "nondeterministic", random_seed=seed)
            record = tick(model, state, queue, config).record
            report = nondet_block(model, state, batch, rng=random.Random(seed))
            assert record.iterations == report.iterations and len(report.blocked) == 3
            assert_counts_match_reference(model, state, batch, report)
            assert trace_line(record) == json.dumps(
                record_to_dict(record), sort_keys=True, separators=(",", ":")
            )
    # 4 models x 3 levels (six requesters, three blocked), met by 3 seeds x 2
    # calls: each model plans its levels once; the plans share two rank patterns
    plans, levels = blocking_mod._plan.cache_info(), blocking_mod._level.cache_info()
    assert (plans.misses, plans.hits) == (4 * 3, 4 * 3 * 3 * 2 - 4 * 3)
    assert (levels.misses, levels.hits) == (2 * 3, 4 * 3 - 2 * 3)
    assert scenario_mod._subset_json.cache_info().hits > text_hits


@given(st.integers(0, 2**32 - 1), st.integers(3, 12),
       st.sampled_from(("numbered", "reversed", "shuffled")))
def test_oracle_rounds_with_agents_out_of_name_order(seed, size, naming):
    """Cycles of agents a1..aN, whose names sort a1, a10, a11, a2, ... once
    N >= 10, and the same names reversed or shuffled, with a random subset of
    them requesting in a random order: every round lists its keep-sets in
    name order with their reference counts, and the tick's trace line is the
    text json.dumps writes. A call that plans its levels (cold) and one that
    reads the plans (warm) give the same rounds and the same trace line."""
    rng = random.Random(seed)
    names = [f"a{i + 1}" for i in range(size)]
    if naming == "reversed":
        names.reverse()
    elif naming == "shuffled":
        rng.shuffle(names)
    model, state, batch = renamed_cycle(size, names)
    kept = [r for r in batch if rng.random() < 0.8]
    rng.shuffle(kept)
    batch = tuple(replace(r, arrival_index=i) for i, r in enumerate(kept))
    blocking_mod._plan.cache_clear()
    cold = nondet_block(model, state, batch, rng=random.Random(seed))
    report = nondet_block(model, state, batch, rng=random.Random(seed))
    assert report == cold
    for warm, planned in zip(report.iterations, cold.iterations):  # the plan's own keep tuples
        assert all(a is b for (a, _), (b, _) in zip(warm.evaluated, planned.evaluated))
    assert_counts_match_reference(model, state, batch, report)
    config = EngineConfig(max(len(batch), 1), "nondeterministic", random_seed=seed)
    blocking_mod._plan.cache_clear()
    first, record = (tick(model, state, ActionQueue(model, batch), config).record for _ in range(2))
    assert record.iterations == report.iterations
    assert trace_line(first) == trace_line(record) == json.dumps(
        record_to_dict(record), sort_keys=True, separators=(",", ":")
    )


@given(st.integers(0, 2**32 - 1), st.sampled_from(("fifo", "lex")))
def test_greedy_rounds_match_full_resimulation(seed, tie_break):
    rng = random.Random(seed)
    case = modal_case(rng)
    assume(case is not None)
    model, state, batch = case
    report = greedy_block(model, state, batch, tie_break)
    iterations, allowed = reference_greedy(model, state, batch, tie_break)
    assert report.iterations == iterations
    assert report.blocked == tuple(item.blocked_agent for item in iterations)
    assert report.allowed_batch == allowed


def test_greedy_rounds_on_the_cycle_match_full_resimulation():
    model, state, batch = build_cycle_instance(30, seed=3)
    report = greedy_block(model, state, batch)
    assert report.iterations == reference_greedy(model, state, batch, "fifo")[0]


def flip_in_case():
    """Five agents owning one variable each, listed in model order c, d, b, e,
    a and asking in batch order b, d, e, a, c. Four of the five formulas are
    true after the batch, each agent in two of them, so the first round is a
    four-way tie. Blocking b resets vb, which flips vc & ~vb in: c joins the
    columns first, in model order, although it never was a column before."""
    agents = ("c", "d", "b", "e", "a")
    variables = tuple(f"v{a}" for a in agents)
    formulas = tuple(parse_formula(text) for text in (
        "vb & vd", "ve & va", "vd & va", "vc & ~vb", "vb & ve"))
    model = Model(agents, variables, {a: (f"v{a}",) for a in agents}, formulas)
    state = SystemState(0, dict.fromkeys(variables, False))
    batch = tuple(ActionRequest(a, f"v{a}", True, i) for i, a in enumerate("bdeac"))
    return model, state, batch


@pytest.mark.parametrize("tie_break, rounds", [
    # fifo: first batch position breaks every tie, against name and model order
    ("fifo", [((0, 1, 2, 4), ("d", "b", "e", "a"), ("b", "d", "e", "a")),
              ((1, 2, 3), ("c", "d", "e", "a"), ("a", "d", "e", "c")),
              ((3,), ("c",), ("c",))]),
    ("lex", [((0, 1, 2, 4), ("d", "b", "e", "a"), ("a", "b", "d", "e")),
             ((0, 4), ("d", "b", "e"), ("b", "d", "e")),
             ((3,), ("c",), ("c",))]),
])
def test_greedy_ranks_a_formula_flipping_in_mid_loop_as_the_reference(tie_break, rounds):
    model, state, batch = flip_in_case()
    report = greedy_block(model, state, batch, tie_break)
    iterations, allowed = reference_greedy(model, state, batch, tie_break)
    assert report.iterations == iterations
    assert report.allowed_batch == allowed == batch[1:3]  # d and e write
    got = [(item.became_true, item.implicated, item.ranking) for item in report.iterations]
    assert got == rounds
    assert report.blocked == tuple(ranking[0] for _, _, ranking in rounds)


@pytest.mark.parametrize("size, rounds", [(200, 113), (400, 233), (800, 459)])
def test_greedy_rounds_on_growing_cycles(size, rounds):
    model, state, batch = build_cycle_instance(size, 0)
    report = greedy_block(model, state, batch)
    assert len(report.iterations) == len(report.blocked) == rounds


@pytest.mark.parametrize("tie_break", ["fifo", "lex"])
def test_greedy_on_a_200_cycle_matches_the_reference_field_by_field(tie_break):
    model, state, batch = build_cycle_instance(200, 0)
    report = greedy_block(model, state, batch, tie_break)
    iterations, allowed = reference_greedy(model, state, batch, tie_break)
    assert len(report.iterations) == len(iterations)
    for got, want in zip(report.iterations, iterations):
        assert got.became_true == want.became_true
        assert got.implicated == want.implicated
        assert got.matrix.formula_indices == want.matrix.formula_indices
        assert got.matrix.agents == want.matrix.agents
        assert got.matrix.row_agents == want.matrix.row_agents
        assert got.matrix.marks == want.matrix.marks
        assert got.matrix.counters == want.matrix.counters
        assert got.ranking == want.ranking
        assert got.blocked_agent == want.blocked_agent
    assert report.allowed_batch == allowed


@given(st.integers(0, 2**32 - 1), st.sampled_from(("fifo", "lex")))
def test_greedy_marks_are_derived_from_row_agents(seed, tie_break):
    rng = random.Random(seed)
    case = modal_case(rng)
    assume(case is not None)
    model, state, batch = case
    for item in greedy_block(model, state, batch, tie_break).iterations:
        matrix = item.matrix
        assert matrix.marks == tuple(
            tuple(a in row for a in matrix.agents) for row in matrix.row_agents
        )
        report = SimulationReport(item.became_true, item.implicated, state)
        assert matrix.marks == build_matrix(model, report).marks
