"""Arguments are checked once, at the public boundary.

Every public function refuses a wrong kind with a CoalGuardError (mostly
PreconditionError, a ValueError too) on entry, and the code under it trusts
what was checked: a batch taken from an ActionQueue is not checked again by
the blocking policies, and run_ticks checks its arguments once per run.
"""

import inspect
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import coalguard
from coalguard import (
    ActionQueue,
    BudgetExceededError,
    CoalGuardError,
    Diamond,
    EngineConfig,
    Model,
    PreconditionError,
    StateGraph,
    SystemState,
    TOP,
    TickRecord,
    Var,
    audit_vulnerabilities,
    brute_force_min_block,
    build_cycle_instance,
    build_matrix,
    build_state_graph,
    conjoin,
    diamond_holds,
    disjoin,
    eval_formula,
    fit_loglog_slope,
    format_formula,
    greedy_block,
    is_connected,
    is_secure,
    iter_edge_lines,
    load_scenario,
    nondet_block,
    parse_formula,
    rank_agents,
    run_bench,
    run_ticks,
    secure_path,
    simulate,
    single_flip_agents,
    tick,
    trace_line,
    trace_text,
    validate_model,
    write_trace,
)
from coalguard.analysis import GRAPH_VARIABLE_CAP
from coalguard.model import check_batch

EXAMPLE = load_scenario(pathlib.Path(__file__).parent.parent / "scenarios" / "example1.yaml")
MODEL, STATE, QUEUE, CONFIG = EXAMPLE.model, EXAMPLE.initial_state, EXAMPLE.queue, EXAMPLE.config
BATCH = QUEUE.requests
FORMULA = MODEL.critical_formulas[0]
REPORT = simulate(MODEL, STATE, BATCH)
MATRIX = build_matrix(MODEL, REPORT)
GRAPH = build_state_graph(MODEL)
RECORDS = run_ticks(MODEL, STATE, QUEUE, CONFIG, 1).records

# a model over other names, and a queue and a state of its own
OTHER = Model(("b1", "b2"), ("x1", "x2"), {"b1": ("x1",), "b2": ("x2",)},
              (parse_formula("x1 & x2"),))
OTHER_STATE = SystemState(0, {"x1": False, "x2": False})
OTHER_QUEUE = ActionQueue(OTHER).push("b1", "x1", True).push("b2", "x2", True)
# tick records whose batch, blocked agents or valuation are not of their kinds
MALFORMED_RECORDS = [
    TickRecord(1, (5,), (), (), (), {}, True),
    TickRecord(1, (), (), 5, (), {}, True),
    TickRecord(1, (), (), (), (), 5, True),
]


@pytest.mark.parametrize(
    "call",
    [
        # a model slot holding something else, in each callable that takes a model
        lambda: ActionQueue(5, ()),
        lambda: is_secure(5, STATE),
        lambda: eval_formula(FORMULA, 5, STATE),
        lambda: diamond_holds(None, STATE, ("a1",), FORMULA),
        lambda: simulate("model", STATE, BATCH),
        lambda: tick(5, STATE, QUEUE, CONFIG),
        lambda: run_ticks(5, STATE, QUEUE, CONFIG, 1),
        lambda: greedy_block(5, STATE, BATCH),
        lambda: greedy_block(5, STATE, QUEUE.take_batch_excluding(4, ())[0]),
        lambda: nondet_block(5, STATE, BATCH),
        lambda: brute_force_min_block(5, STATE, BATCH),
        lambda: build_matrix(5, REPORT),
        lambda: audit_vulnerabilities(5, STATE),
        lambda: single_flip_agents(5, STATE, FORMULA),
        lambda: build_state_graph(5),
        lambda: validate_model([MODEL]),
        # a graph slot holding something else
        lambda: is_connected(5),
        lambda: secure_path(MODEL, STATE, STATE),
        lambda: iter_edge_lines(None),
        # rank_agents: no matrix, a batch that is not iterable, or not of requests
        lambda: rank_agents(REPORT),
        lambda: rank_agents(MATRIX, "fifo", 5),
        lambda: rank_agents(MATRIX, "fifo", [5]),
        # joins of something that is not iterable
        lambda: conjoin(5),
        lambda: disjoin(None),
        # a scenario path or trace records of the wrong kind
        lambda: load_scenario(5),
        lambda: trace_text(5),
        # a queue built for another model
        lambda: tick(MODEL, STATE, OTHER_QUEUE, CONFIG),
        lambda: run_ticks(MODEL, STATE, OTHER_QUEUE, CONFIG, 1),
        # a report of another model, whose formula indices run past the 3-cycle's
        lambda: build_matrix(build_cycle_instance(3)[0], REPORT),
        # the bench inputs it cannot fit, and a seed that is not an int
        lambda: fit_loglog_slope((10, 100), ()),
        lambda: fit_loglog_slope((0, 10), (1.0, 2.0)),
        lambda: fit_loglog_slope((10, 100), (1.0, "2")),
        lambda: run_bench((3, 4), seed=[1]),
        # a coalition naming an agent by other than a str, printed
        lambda: str(Diamond([5], TOP)),
        lambda: format_formula(Diamond(["b", 5], Var("x"))),
    ],
    ids=[
        "ActionQueue", "is_secure", "eval_formula", "diamond_holds", "simulate", "tick",
        "run_ticks", "greedy_block", "greedy_block-queue-batch", "nondet_block",
        "brute_force_min_block", "build_matrix", "audit_vulnerabilities", "single_flip_agents",
        "build_state_graph", "validate_model", "is_connected", "secure_path", "iter_edge_lines",
        "rank_agents-matrix", "rank_agents-int-batch", "rank_agents-int-request", "conjoin",
        "disjoin", "load_scenario", "trace_text", "tick-other-queue", "run_ticks-other-queue",
        "build_matrix-other-report", "fit-no-times", "fit-zero-size", "fit-str-time",
        "run_bench-list-seed", "str-int-agent", "format_formula-mixed-agents",
    ],
)
def test_a_wrong_kind_is_refused_on_entry(call):
    with pytest.raises(PreconditionError):
        call()


@pytest.mark.parametrize("record", MALFORMED_RECORDS, ids=["batch", "blocked", "valuation"])
def test_a_malformed_tick_record_is_refused_by_the_trace_writer(record):
    with pytest.raises(PreconditionError, match="malformed tick record"):
        trace_line(record)
    with pytest.raises(PreconditionError, match="malformed tick record"):
        trace_text([RECORDS[0], record])


@pytest.mark.parametrize("policy", ["none", "greedy", "nondeterministic"])
def test_a_queue_of_another_model_writes_nothing(policy):
    # under "none" no policy checked the batch, so the other model's writes were applied
    config = EngineConfig(policy=policy)
    with pytest.raises(PreconditionError, match="built for another model"):
        tick(OTHER, OTHER_STATE, QUEUE, config)
    with pytest.raises(PreconditionError, match="built for another model"):
        run_ticks(OTHER, OTHER_STATE, QUEUE, config, 1)


def test_a_queue_of_an_equal_model_is_accepted():
    twin = Model(MODEL.agents, MODEL.variables, MODEL.partition, MODEL.critical_formulas)
    assert twin is not MODEL
    run = run_ticks(twin, STATE, QUEUE, CONFIG, 2)
    assert [r.blocked for r in run.records] == [r.blocked for r in RECORDS] + [()]


@pytest.mark.parametrize("policy", ["greedy", "nondeterministic"])
def test_batches_taken_from_the_queue_are_not_checked_again(monkeypatch, policy):
    queue = ActionQueue(MODEL, BATCH)
    for agent, variable in [("a5", "v9"), ("a2", "v3"), ("a1", "v7"), ("a3", "v2")] * 3:
        queue = queue.push(agent, variable, True)
    calls = []
    owner_of = Model.owner_of
    monkeypatch.setattr(Model, "owner_of", lambda self, v: calls.append(v) or owner_of(self, v))
    config = EngineConfig(policy=policy, max_actions_per_tick=3)
    run = run_ticks(MODEL, STATE, queue, config, 6)
    assert len(run.queue) == 0 and sum(len(r.batch) for r in run.records) == len(queue)
    assert calls == []  # the queue checked each request once, when it was pushed
    batch, _, _ = queue.take_batch_excluding(3, ())
    assert check_batch(MODEL, batch) is batch
    monkeypatch.undo()
    # a batch taken from a queue of another model is checked in full
    other_batch, _, _ = OTHER_QUEUE.take_batch_excluding(2, ())
    with pytest.raises(CoalGuardError):
        greedy_block(MODEL, STATE, other_batch)
    with pytest.raises(CoalGuardError):
        nondet_block(MODEL, STATE, other_batch)


def test_a_buffer_of_another_models_queue_is_checked_again():
    with pytest.raises(CoalGuardError):  # example1's requests name no variable of OTHER
        ActionQueue(OTHER, QUEUE.buffer)
    view = ActionQueue(MODEL, QUEUE.buffer, 1, 3)
    assert view.buffer is QUEUE.buffer and view.requests == BATCH[1:3]


@pytest.mark.parametrize(
    "n, blocked",
    [("a", ()), (1.5, ()), (True, ()), (None, ()), (2, 5), (2, None), (2, [["a1"]])],
    ids=["str-n", "float-n", "bool-n", "none-n", "int-blocked", "none-blocked",
         "unhashable-agent"],
)
def test_take_batch_excluding_refuses_a_count_or_blocked_set_of_another_kind(n, blocked):
    # a float n took whole requests while len(batch) < n: 1.5 took 2
    with pytest.raises(PreconditionError):
        QUEUE.take_batch_excluding(n, blocked)


@pytest.mark.parametrize(
    "variables, labels, bits",
    [
        (("x",), ("a",), "zz"),  # is_connected raised a raw TypeError
        (5, ("a",), 1),  # so did iter_edge_lines
        (("x", "y"), ("a",), 15),  # num_edges said 4 where edges() yielded 2
        (["x"], ("a",), 1),
        (("x", 5), ("a", "b"), 1),
        (("x",), ["a"], 1),
        (("x",), ("a",), 4),  # a vertex past the graph's two
        (("x",), ("a",), -1),
        (("x",), ("a",), True),
    ],
)
def test_a_malformed_state_graph_is_refused_when_built(variables, labels, bits):
    with pytest.raises(PreconditionError):
        StateGraph(variables, labels, bits)


def test_a_state_graph_past_the_variable_cap_is_refused_when_built():
    # built near the cap only: its secure view formats a bit per vertex
    names = tuple(f"x{j}" for j in range(GRAPH_VARIABLE_CAP + 1))
    with pytest.raises(BudgetExceededError, match="state-graph cap of 16"):
        StateGraph(names, ("a",) * len(names), 0)
    everything = (1 << (1 << GRAPH_VARIABLE_CAP)) - 1
    graph = StateGraph(names[:-1], ("a",) * GRAPH_VARIABLE_CAP, everything)
    assert graph.num_edges == GRAPH_VARIABLE_CAP << (GRAPH_VARIABLE_CAP - 1)
    assert is_connected(graph, restrict_to_secure=True)


# ---------------------------------------------------------------------------
# a fuzz of every callable the package exports (Claessen & Hughes, ICFP 2000)


def _exported_callables():
    found = []
    for name in sorted(vars(coalguard)):
        obj = getattr(coalguard, name)
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__.startswith("coalguard"):
            found.append(obj)
    return found


CALLABLES = _exported_callables()
# these two run slow defaults (the four-variable survey, the default bench
# sizes), so the fuzz always passes every argument to them
EVERY_ARGUMENT = {coalguard.run_bench, coalguard.survey_secure_connectivity}

GOOD = [
    MODEL, STATE, QUEUE, CONFIG, BATCH, QUEUE.take_batch_excluding(2, ())[0], FORMULA,
    parse_formula("<>{a1} v1 & v2"), REPORT, MATRIX, GRAPH, RECORDS, RECORDS[0],
    {"a1": 2}, random.Random(0), coalguard.BlockUntilTick(2), ("a1",), (3, 4), (0.1, 0.2),
    (1, 2), 0, 1, 2, 3, "x", "fifo", "greedy", "falsifying",
    {"agents": {"a": ["x"], "b": ["y"]}, "formulas": ["x & y"],
     "initial": {"x": False, "y": False}, "queue": [{"agent": "a", "var": "x", "value": True}]},
]
BAD = [None, -1, True, 1.5, "", [5], {}, object(), OTHER_QUEUE, OTHER_STATE, *MALFORMED_RECORDS]


@settings(max_examples=800)
@given(st.sampled_from(CALLABLES), st.data())
def _call_with_pool_arguments(function, data):
    parameters = [
        p for p in inspect.signature(function).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    required = sum(p.default is p.empty for p in parameters)
    least = len(parameters) if function in EVERY_ARGUMENT else required
    count = data.draw(st.integers(least, len(parameters)))
    args = [data.draw(st.sampled_from(GOOD + BAD)) for _ in range(count)]
    try:
        result = function(*args)
        if inspect.isgenerator(result):
            list(result)
    except CoalGuardError:
        pass
    except OSError:  # reading or writing a file the pool's strings name
        assert function in (coalguard.load_scenario, coalguard.write_trace)


def test_exported_callables_return_or_raise_coalguard_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # write_trace may write a file a pool string names
    assert {tick, run_ticks, greedy_block, write_trace, fit_loglog_slope} <= set(CALLABLES)
    _call_with_pool_arguments()
