import random
import sys
from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from coalguard import (
    ActionQueue,
    ActionRequest,
    BlockForRandomInterval,
    BlockUntilTick,
    CoalGuardError,
    DropTick,
    EngineConfig,
    Model,
    OwnershipViolationError,
    PreconditionError,
    QueueOrderError,
    SystemState,
    UnknownVariableError,
    apply_actions,
    brute_force_min_block,
    load_scenario,
    run_ticks,
    scenario_from_mapping,
    simulate,
    tick,
    trace_text,
)
from coalguard import engine
from helpers import random_model, random_requests, random_scenario, reference_run
from helpers import replay_matches, truth_eval


# ---------------------------------------------------------------------------
# queue


def test_push_assigns_arrivals(example1_model):
    q = ActionQueue(example1_model).push("a1", "v1", True).push("a2", "v3", False)
    assert [r.arrival_index for r in q] == [0, 1]
    assert len(q) == 2


def test_push_rejects_foreign_variable(example1_model):
    with pytest.raises(OwnershipViolationError):
        ActionQueue(example1_model).push("a2", "v1", True)


def test_push_rejects_unhashable_variable(example1_model):
    with pytest.raises(UnknownVariableError, match=r"no agent controls \['v1'\]"):
        ActionQueue(example1_model).push("a1", ["v1"], True)


def test_push_appends_in_place_and_older_views_never_change(example1_model):
    empty = ActionQueue(example1_model)
    one = empty.push("a1", "v1", True)
    two = one.push("a2", "v3", False)
    assert two.buffer is one.buffer  # a push at the view's end shares the buffer
    other = one.push("a4", "v4", True)  # one no longer ends where the buffer does
    assert other.buffer is not one.buffer
    assert [(r.variable, r.arrival_index) for r in two] == [("v1", 0), ("v3", 1)]
    assert [(r.variable, r.arrival_index) for r in other] == [("v1", 0), ("v4", 1)]
    assert len(one) == 1 and one.requests == (ActionRequest("a1", "v1", True, 0),)
    assert len(empty) == 0 and empty.requests == ()
    _, _, rest = two.take_batch_excluding(1, ())
    three = rest.push("a5", "v9", True)  # a view left by a take still appends in place
    assert three.buffer is two.buffer and len(two) == 2
    assert [r.arrival_index for r in three] == [1, 2]
    given = [ActionRequest("a1", "v1", True, 0)]  # a buffer passed in is never written to
    assert len(ActionQueue(example1_model, given).push("a2", "v3", False)) == 2
    assert given == [ActionRequest("a1", "v1", True, 0)]


def test_push_onto_a_drained_queue_numbers_after_the_last_request(scenario_dir):
    s = load_scenario(scenario_dir / "example1.yaml")
    result = run_ticks(s.model, s.initial_state, s.queue, s.config, 1)
    assert len(result.queue) == 0
    last = result.records[-1].batch[-1].arrival_index
    again = result.queue.push("a1", "v1", False)
    assert [r.arrival_index for r in again] == [last + 1]
    assert [r.arrival_index for r in again.push("a2", "v3", True)] == [last + 1, last + 2]
    with pytest.raises(QueueOrderError):  # enqueue checks against the same last request
        result.queue.enqueue(ActionRequest("a1", "v1", False, last))


def test_enqueue_rejects_stale_arrival(example1_model):
    q = ActionQueue(example1_model).push("a1", "v1", True)
    with pytest.raises(QueueOrderError):
        q.enqueue(ActionRequest("a1", "v7", True, 0))


def test_queue_rejects_a_string_arrival_index():
    model = Model(("a",), ("x",), {"a": ("x",)}, ())
    requests = [ActionRequest("a", "x", True, "0"), ActionRequest("a", "x", True, 1)]
    with pytest.raises(QueueOrderError, match=r"^queue\[0\]: arrival index must be an int"):
        ActionQueue(model, requests)
    with pytest.raises(QueueOrderError, match="arrival index must be an int"):
        ActionQueue(model).push("a", "x", True).enqueue(ActionRequest("a", "x", True, "5"))


def test_queue_rejects_a_bool_arrival_index():
    model = Model(("a",), ("x",), {"a": ("x",)}, ())
    with pytest.raises(QueueOrderError, match="arrival index must be an int, not True"):
        ActionQueue(model, [ActionRequest("a", "x", True, True)])


def test_queue_rejects_a_value_that_is_not_a_bool():
    model = Model(("a",), ("x",), {"a": ("x",)}, ())
    with pytest.raises(PreconditionError, match="new value must be a bool, not 3"):
        ActionQueue(model, [ActionRequest("a", "x", 3, 0)])
    with pytest.raises(PreconditionError, match="new value must be a bool"):
        ActionQueue(model).enqueue(ActionRequest("a", "x", 1, 0))
    with pytest.raises(PreconditionError, match="new value must be a bool, not 'false'"):
        ActionQueue(model).push("a", "x", "false")


def test_queue_built_from_requests_checks_ownership_once():
    # x is a's; b's write to it must never reach run_ticks
    model = Model(("a", "b"), ("x", "y"), {"a": ("x",), "b": ("y",)}, ())
    foreign = (ActionRequest("a", "x", True, 0), ActionRequest("b", "x", True, 1))
    with pytest.raises(OwnershipViolationError, match=r"^queue\[1\]: 'b' does not control 'x'"):
        ActionQueue(model, foreign)
    with pytest.raises(QueueOrderError, match=r"^queue\[1\]: "):
        ActionQueue(model, (ActionRequest("a", "x", True, 1), ActionRequest("b", "y", True, 1)))
    with pytest.raises(PreconditionError, match=r"^queue\[0\]: not an ActionRequest"):
        ActionQueue(model, [("a", "x", True, 0)])
    for malformed in (5, None):
        with pytest.raises(PreconditionError):
            ActionQueue(model, malformed)


def test_queue_views_are_not_rechecked(monkeypatch, example1_model, example1_batch):
    calls = []
    checked = engine.check_request
    monkeypatch.setattr(
        engine, "check_request", lambda *args: calls.append(args[1]) or checked(*args)
    )
    queue = ActionQueue(example1_model, example1_batch)
    assert calls == list(example1_batch)
    _, _, rest = queue.take_batch_excluding(2, ())
    rest.push("a5", "v9", True)
    assert len(calls) == len(example1_batch) + 1  # only the push is checked
    assert ActionQueue(example1_model, example1_batch, 1, 3).requests == example1_batch[1:3]


@pytest.mark.parametrize(
    "start, end",
    [(0, "b"), (5, 1), (0, 99), (-1, 2), (True, 2), (0, 2.0), ("0", 2)],
    ids=["str-end", "start-past-end", "end-past-buffer", "negative", "bool", "float", "str-start"],
)
def test_a_view_of_a_checked_buffer_refuses_bounds_outside_it(example1_queue, start, end):
    # the buffer is trusted, so only the bounds are checked, when the view is built
    with pytest.raises(PreconditionError, match="not in 0:4"):
        ActionQueue(example1_queue.model, example1_queue.buffer, start, end)
    for start, end in ((0, 0), (1, 3), (4, 4)):
        view = ActionQueue(example1_queue.model, example1_queue.buffer, start, end)
        assert len(view) == end - start


def test_take_batch_excluding_consumes_dropped(example1_queue, example1_batch):
    batch, dropped, rest = example1_queue.take_batch_excluding(2, {"a1"})
    assert batch == example1_batch[1:3]
    assert dropped == example1_batch[:1]
    assert tuple(rest) == example1_batch[3:]


def test_chained_takes_match_tuple_slicing():
    rng = random.Random(11)
    model = random_model(rng, max_vars=10, max_agents=6)
    requests = []
    for arrival in range(3000):
        agent = rng.choice(model.agents)
        variable = rng.choice(model.owned(agent))
        requests.append(ActionRequest(agent, variable, rng.random() < 0.5, arrival))
    pending = tuple(requests)
    queue = ActionQueue(model, pending)
    pushed = False
    while pending:
        n = rng.randint(1, 9)
        blocked = set(rng.sample(model.agents, rng.randint(0, 2)))
        expected_batch, expected_dropped, index = [], [], 0
        while index < len(pending) and len(expected_batch) < n:
            request = pending[index]
            (expected_dropped if request.agent in blocked else expected_batch).append(request)
            index += 1
        pending = pending[index:]
        batch, dropped, queue = queue.take_batch_excluding(n, blocked)
        assert batch == tuple(expected_batch)
        assert dropped == tuple(expected_dropped)
        assert queue.requests == tuple(queue) == pending
        assert len(queue) == len(pending)
        assert queue == ActionQueue(model, pending)
        if pending and not pushed:  # a push after a take continues the arrival order
            pushed = True
            agent = rng.choice(model.agents)
            grown = queue.push(agent, model.owned(agent)[0], True)
            assert grown.requests[:-1] == pending
            assert grown.requests[-1].arrival_index == requests[-1].arrival_index + 1


# ---------------------------------------------------------------------------
# apply + simulate


def test_apply_actions_last_write_wins(example1_model, example1_state):
    batch = (
        ActionRequest("a1", "v1", True, 0),
        ActionRequest("a1", "v1", False, 1),
    )
    after = apply_actions(example1_state, batch)
    assert after.value("v1") is False
    assert after.tick == example1_state.tick + 1


@given(st.integers(0, 2**32 - 1))
def test_apply_actions_frame_property(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=8, max_agents=5, max_formulas=2)
    state = SystemState(0, {v: rng.random() < 0.5 for v in model.variables})
    batch = random_requests(rng, model)
    after = apply_actions(state, batch)
    touched = {r.variable: r.new_value for r in batch}
    for v in model.variables:
        expected = touched[v] if v in touched else state.value(v)
        assert after.value(v) == expected
    # input state untouched
    assert state.tick == 0


def test_apply_actions_and_simulate_reject_what_is_not_a_state_or_a_batch(
    example1_model, example1_state, example1_batch
):
    with pytest.raises(PreconditionError, match="a batch holds ActionRequests"):
        apply_actions(example1_state, [5])
    with pytest.raises(PreconditionError, match="state must be a SystemState"):
        apply_actions(None, ())
    with pytest.raises(PreconditionError, match="state must be a SystemState"):
        simulate(example1_model, None, ())
    with pytest.raises(UnknownVariableError, match="state does not assign"):
        simulate(example1_model, SystemState(0, {}), example1_batch)


def test_simulate_full_batch_flips_everything(example1_model, example1_state, example1_batch):
    report = simulate(example1_model, example1_state, example1_batch)
    assert report.became_true == (0, 1, 2, 3)
    assert report.implicated_agents == ("a1", "a2", "a3", "a4")
    assert report.simulated_state.tick == 1


def test_simulate_subset_batch(example1_model, example1_state, example1_batch):
    without_a3 = tuple(r for r in example1_batch if r.agent != "a3")
    report = simulate(example1_model, example1_state, without_a3)
    assert report.became_true == (0, 3)
    assert report.implicated_agents == ("a1", "a2", "a4")


def test_simulate_does_not_commit(example1_model, example1_state, example1_batch):
    before = dict(example1_state.valuation)
    simulate(example1_model, example1_state, example1_batch)
    assert dict(example1_state.valuation) == before


# ---------------------------------------------------------------------------
# ticks


def test_tick_with_greedy_policy(example1_model, example1_state, example1_queue, example1_config):
    outcome = tick(example1_model, example1_state, example1_queue, example1_config)
    record = outcome.record
    assert record.blocked == ("a3", "a1")
    assert [(r.agent, r.variable, r.new_value) for r in record.executed] == [
        ("a2", "v3", False),
        ("a4", "v4", False),
    ]
    assert record.secure
    assert record.tick == 1
    assert outcome.state.value("v3") is False and outcome.state.value("v1") is False
    assert len(outcome.queue) == 0


def test_tick_without_policy_goes_insecure(example1_model, example1_state, example1_queue):
    config = EngineConfig(policy="none")
    outcome = tick(example1_model, example1_state, example1_queue, config)
    assert outcome.record.blocked == ()
    assert not outcome.record.secure


def test_auto_cap_is_formula_count(example1_model, example1_queue, example1_state):
    config = EngineConfig(max_actions_per_tick="auto", policy="none")
    outcome = tick(example1_model, example1_state, example1_queue, config)
    assert len(outcome.record.batch) == len(example1_model.critical_formulas)


def test_zero_formula_model_takes_empty_batches():
    m = Model(("a1", "a2"), ("x", "y"), {"a1": ("x",), "a2": ("y",)})
    q = ActionQueue(m).push("a1", "x", True)
    outcome = tick(m, SystemState(0, {"x": False, "y": False}), q, EngineConfig())
    assert outcome.record.batch == ()
    assert outcome.record.secure
    assert len(outcome.queue) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_actions_per_tick=0)
    with pytest.raises(ValueError):
        EngineConfig(policy="other")
    with pytest.raises(ValueError):
        EngineConfig(tie_break="random")
    for malformed in ({"max_actions_per_tick": "2"}, {"policy": "other"}, {"tie_break": 1}):
        with pytest.raises(CoalGuardError):
            EngineConfig(**malformed)


def test_tick_rejects_a_config_that_is_not_an_engine_config(
    example1_model, example1_state, example1_queue
):
    with pytest.raises(PreconditionError, match="config must be an EngineConfig, not 'greedy'"):
        tick(example1_model, example1_state, example1_queue, "greedy")


@pytest.mark.parametrize("generators", [(5, None), (None, 5)], ids=["rng", "strategy_rng"])
def test_tick_rejects_a_generator_that_is_not_a_random_under_any_policy(
    example1_model, example1_state, example1_queue, generators
):
    """Greedy never reads ``rng``, and the strategy reads ``strategy_rng``
    only once it blocks someone, which greedy does here."""
    config = EngineConfig(policy="greedy", blocking_strategy=BlockForRandomInterval(0, 2))
    with pytest.raises(PreconditionError, match="must be random.Randoms: 5"):
        tick(example1_model, example1_state, example1_queue, config, None, *generators)


def test_run_ticks_rejects_a_config_that_is_not_an_engine_config(
    example1_model, example1_state, example1_queue
):
    with pytest.raises(PreconditionError, match="config must be an EngineConfig"):
        run_ticks(example1_model, example1_state, example1_queue, None, 1)


@pytest.mark.parametrize("ticks", [0, 1])
def test_tick_and_run_ticks_reject_a_state_that_is_not_a_system_state(
    ticks, example1_model, example1_queue, example1_config
):
    with pytest.raises(PreconditionError, match="state must be a SystemState, not 5"):
        tick(example1_model, 5, example1_queue, example1_config)
    with pytest.raises(PreconditionError, match="state must be a SystemState, not None"):
        run_ticks(example1_model, None, example1_queue, example1_config, ticks)


@pytest.mark.parametrize("ticks", ["3", True, -1, 2.0, None])
def test_run_ticks_rejects_a_tick_count_that_is_not_a_non_negative_int(
    ticks, example1_model, example1_state, example1_queue, example1_config
):
    with pytest.raises(PreconditionError, match="ticks must be a non-negative int"):
        run_ticks(example1_model, example1_state, example1_queue, example1_config, ticks)


# ---------------------------------------------------------------------------
# blocking strategies and the registry


def _single_formula_model():
    from coalguard import Model, parse_formula

    return Model(
        ("a1", "a2"),
        ("x", "y"),
        {"a1": ("x",), "a2": ("y",)},
        (parse_formula("x & y"),),
    )


def test_drop_tick_allows_retry_next_tick():
    m = _single_formula_model()
    state = SystemState(0, {"x": False, "y": True})
    q = ActionQueue(m).push("a1", "x", True).push("a1", "x", True)
    config = EngineConfig(policy="greedy", blocking_strategy=DropTick())
    result = run_ticks(m, state, q, config, 2)
    # both writes blocked independently; agent was free to ask again
    assert [r.blocked for r in result.records] == [("a1",), ("a1",)]
    assert result.all_secure


def test_block_until_tick_holds_requests_back():
    m = _single_formula_model()
    state = SystemState(0, {"x": False, "y": True})
    q = ActionQueue(m).push("a1", "x", True).push("a1", "x", True)
    config = EngineConfig(policy="greedy", blocking_strategy=BlockUntilTick(3))
    result = run_ticks(m, state, q, config, 3)
    blocked = [r.blocked for r in result.records]
    batches = [len(r.batch) for r in result.records]
    assert blocked[0] == ("a1",)
    # tick 2 consumes the second request without considering it
    assert batches[1] == 0 and blocked[1] == ()
    assert result.all_secure


def _pair_then_interleaved(m, pairs):
    """a1 and a2 both write true, which greedy answers by blocking a1 (the
    fifo tie-break); then pairs of harmless writes, a1's first. While a1 is
    blocked each of its writes is dropped at the front and a2's fill the
    batch, so the first later batch holding a1 is the tick a1 is released in."""
    q = ActionQueue(m).push("a1", "x", True).push("a2", "y", True)
    for _ in range(pairs):
        q = q.push("a1", "x", False).push("a2", "y", False)
    return q


def _first_tick_with_a1(records):
    return next(r.tick for r in records[1:] if any(q.agent == "a1" for q in r.batch))


def test_block_until_tick_considers_a_request_in_exactly_its_release_tick():
    m = _single_formula_model()
    state = SystemState(0, {"x": False, "y": False})
    config = EngineConfig(2, "greedy", BlockUntilTick(3))
    result = run_ticks(m, state, _pair_then_interleaved(m, 4), config, 4)
    assert result.records[0].blocked == ("a1",)
    assert [[q.agent for q in r.batch] for r in result.records[1:3]] == [["a2", "a2"], ["a1", "a2"]]
    assert _first_tick_with_a1(result.records) == 3
    assert result.all_secure


def test_run_ticks_draws_release_ticks_from_a_strategys_own_seed():
    strategy = BlockForRandomInterval(0, 5, seed=3)
    drawn = 2 + random.Random(strategy.seed).randint(0, 5)  # blocked at tick 0
    assert drawn != 2 + random.Random(0).randint(0, 5)  # what the run's own seed would draw
    m = _single_formula_model()
    state = SystemState(0, {"x": False, "y": False})
    config = EngineConfig(2, "greedy", strategy)
    result = run_ticks(m, state, _pair_then_interleaved(m, 12), config, 9)
    assert result.records[0].blocked == ("a1",)
    assert _first_tick_with_a1(result.records) == drawn


def test_silent_freeze_drops_like_drop_tick(scenario_dir):
    # scenario files may still say silent_freeze: it is a synonym of drop_tick
    data = yaml.safe_load((scenario_dir / "example1.yaml").read_text())
    for policy in ("greedy", "nondeterministic"):
        traces = []
        for strategy in ("drop_tick", "silent_freeze"):
            data["config"].update(policy=policy, blocking_strategy=strategy)
            scenario = scenario_from_mapping(data)
            result = run_ticks(
                scenario.model, scenario.initial_state, scenario.queue, scenario.config, 3
            )
            traces.append(trace_text(result.records))
        assert traces[0] == traces[1]


def test_random_interval_schedule_bounds():
    strategy = BlockForRandomInterval(1, 3, seed=5)
    rng = random.Random(5)
    schedule = strategy.schedule(("a1", "a2"), current_tick=4, rng=rng)
    for release in schedule.values():
        assert 4 + 2 + 1 <= release <= 4 + 2 + 3
    with pytest.raises(ValueError):
        BlockForRandomInterval(3, 1)
    with pytest.raises(CoalGuardError, match="interval must satisfy"):
        BlockForRandomInterval(-1, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: BlockUntilTick(2).schedule(5, 0, rng),
        lambda rng: BlockUntilTick(2).schedule([["a1"]], 0, rng),
        lambda rng: BlockForRandomInterval(0, 2, 1).schedule(("a1",), "x", rng),
        lambda rng: BlockForRandomInterval(0, 2, 1).schedule(("a1",), 0, None),
        lambda rng: BlockForRandomInterval(0, 2, 1).schedule(5, 0, rng),
    ],
    ids=["until-int-agents", "until-unhashable", "interval-str-tick", "interval-no-rng",
         "interval-int-agents"],
)
def test_a_schedule_of_the_wrong_kinds_raises_a_precondition_error(call):
    with pytest.raises(PreconditionError, match="cannot schedule"):
        call(random.Random(0))


def test_run_ticks_replay_invariant(example1_model, example1_state, example1_queue, example1_config):
    result = run_ticks(example1_model, example1_state, example1_queue, example1_config, 2)
    assert replay_matches(example1_state.valuation, result.records)
    assert result.all_secure


@given(st.integers(0, 2**32 - 1))
def test_random_runs_stay_secure_under_greedy(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_vars=8, max_agents=4, max_formulas=3)
    names = model.variables
    masks = list(range(1 << len(names)))
    rng.shuffle(masks)
    state = None
    for mask in masks:
        valuation = {v: bool((mask >> j) & 1) for j, v in enumerate(names)}
        if not any(truth_eval(f, valuation) for f in model.critical_formulas):
            state = SystemState(0, valuation)
            break
    if state is None:
        return
    q = ActionQueue(model)
    for r in random_requests(rng, model, 6):
        q = q.push(r.agent, r.variable, r.new_value)
    result = run_ticks(model, state, q, EngineConfig(policy="greedy"), 4)
    assert result.all_secure
    assert replay_matches(state.valuation, result.records)


@pytest.mark.parametrize("policy", ["none", "greedy", "nondeterministic"])
def test_run_ticks_applies_each_batch_at_most_once(monkeypatch, scenario_dir, policy):
    calls = []

    def counting(state, batch):
        calls.append(batch)
        return apply_actions(state, batch)

    for name, module in list(sys.modules.items()):  # every module holding it, as a tracer patches
        if name.split(".")[0] == "coalguard" and vars(module).get("apply_actions") is apply_actions:
            monkeypatch.setattr(module, "apply_actions", counting)
    for name in ("example1.yaml", "greedy_gap.yaml", "xor_pair.yaml"):
        s = load_scenario(scenario_dir / name)
        for cap in ("auto", 2):  # every scenario blocks in its first tick under either cap
            calls.clear()
            config = replace(s.config, policy=policy, max_actions_per_tick=cap)
            result = run_ticks(s.model, s.initial_state, s.queue, config, 4)
            assert 0 < len(calls) <= len(result.records) == 4, (name, cap)


# ---------------------------------------------------------------------------
# runs across ticks: tick, run_ticks and a reference engine


def test_a_lone_tick_draws_releases_from_a_strategys_own_seed(scenario_dir):
    """A lone tick is run_ticks' first: with its own seed, a strategy draws
    from Random(5), not from the config's Random(1)."""
    s = load_scenario(scenario_dir / "example1.yaml")
    config = EngineConfig(policy="greedy", random_seed=1,
                          blocking_strategy=BlockForRandomInterval(0, 9, seed=5))
    outcome = tick(s.model, s.initial_state, s.queue, config)
    assert outcome.registry == {"a3": 11, "a1": 6}
    run = run_ticks(s.model, s.initial_state, s.queue, config, 1)
    assert (outcome.record, outcome.state, outcome.queue) == (run.records[0], run.final_state, run.queue)


def _tick_loop(model, state, queue, config, pushes):
    """Ticks one at a time, threading the queue, the registry and both
    generators as run_ticks does; pushes[t] is pushed before tick t. Returns
    the outcomes, the state before each tick and the requests pushed."""
    rng = random.Random(config.random_seed)
    own_seed = getattr(config.blocking_strategy, "seed", None)
    strategy_rng = rng if own_seed is None else random.Random(own_seed)
    registry, outcomes, states, pushed = None, [], [], []
    for writes in pushes:
        for agent, variable, value in writes:
            queue = queue.push(agent, variable, value)
        pushed.append(queue.requests[len(queue) - len(writes):])
        states.append(state)
        outcomes.append(tick(model, state, queue, config, registry, rng, strategy_rng))
        state, queue, registry = outcomes[-1].state, outcomes[-1].queue, outcomes[-1].registry
    return outcomes, states, pushed


STRATEGIES = [DropTick(), BlockUntilTick(3), BlockForRandomInterval(0, 2),
              BlockForRandomInterval(0, 3, seed=7)]


@settings(max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(engine.POLICIES),
    st.sampled_from(STRATEGIES),
    st.sampled_from(["auto", 1, 2, 3]),
    st.sampled_from(["fifo", "lex"]),
    st.integers(0, 3),
    st.integers(0, 8),
)
def test_ticks_match_run_ticks_and_a_reference_run(
    seed, policy, strategy, cap, tie_break, random_seed, ticks
):
    """A tick loop is run_ticks, and a lone tick its first tick. With pushes
    between ticks, greedy and "none" records equal reference_run's, and each
    nondeterministic tick blocks as few agents as brute force."""
    rng = random.Random(seed)
    model, state, requests = random_scenario(rng, 8, 5, 3, 12)
    queue = ActionQueue(model, requests)
    config = EngineConfig(cap, policy, strategy, tie_break, random_seed)

    run = run_ticks(model, state, queue, config, ticks)
    outcomes, _, _ = _tick_loop(model, state, queue, config, [()] * ticks)
    assert [o.record for o in outcomes] == run.records
    if outcomes:
        assert (outcomes[-1].state, outcomes[-1].queue) == (run.final_state, run.queue)
        lone = tick(model, state, queue, config)
        assert (lone.record, lone.state, lone.queue, lone.registry) == (
            outcomes[0].record, outcomes[0].state, outcomes[0].queue, outcomes[0].registry)

    pushes = [[(r.agent, r.variable, r.new_value) for r in random_requests(rng, model, 4)]
              if rng.random() < 0.7 else [] for _ in range(ticks)]
    outcomes, states, pushed = _tick_loop(model, state, queue, config, pushes)
    records = [o.record for o in outcomes]
    if policy == "nondeterministic":
        for before, record in zip(states, records):
            least = brute_force_min_block(model, before, record.batch)
            assert len(record.blocked) == len(least.blocked) and record.secure
    else:
        assert [(r.tick, r.batch, r.blocked, r.executed, r.valuation, r.secure)
                for r in records] == reference_run(model, state, requests, config, pushed)
