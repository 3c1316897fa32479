import copy
import dataclasses
import json
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coalguard import (
    ActionQueue,
    ActionRequest,
    BlockForRandomInterval,
    BlockingMatrix,
    BlockUntilTick,
    CoalGuardError,
    DropTick,
    EngineConfig,
    GreedyIteration,
    InsecureStartError,
    Model,
    PreconditionError,
    ScenarioError,
    SystemState,
    TickRecord,
    apply_actions,
    build_cycle_instance,
    fit_loglog_slope,
    is_secure,
    load_scenario,
    nondet_block,
    run_bench,
    run_ticks,
    scenario_from_mapping,
    trace_line,
    trace_text,
)
import coalguard
from coalguard import BenchReport, BenchRow, cli
from coalguard.cli import main
from coalguard import scenario as scenario_mod
from coalguard.scenario import config_from_mapping, override_config, parse_strategy
from helpers import random_model, random_secure_state, record_to_dict, replay_matches


def minimal_mapping():
    return {
        "agents": {"a1": ["x"], "a2": ["y"]},
        "formulas": ["x & y"],
        "initial": {"x": False, "y": True},
        "queue": [{"agent": "a1", "var": "x", "value": True}],
    }


# ---------------------------------------------------------------------------
# loading


def test_load_example1_matches_fixture(scenario_dir, example1_model, example1_state):
    scenario = load_scenario(scenario_dir / "example1.yaml")
    assert scenario.model == example1_model
    assert dict(scenario.initial_state.valuation) == dict(example1_state.valuation)
    assert [(r.agent, r.variable, r.new_value) for r in scenario.queue] == [
        ("a1", "v1", True),
        ("a2", "v3", False),
        ("a4", "v4", False),
        ("a3", "v6", False),
    ]
    assert scenario.config.policy == "greedy"
    assert scenario.config.max_actions_per_tick == "auto"


def test_config_defaults_when_absent():
    scenario = scenario_from_mapping(minimal_mapping())
    assert scenario.config.policy == "none"
    assert isinstance(scenario.config.blocking_strategy, DropTick)


def test_unknown_keys_rejected():
    data = minimal_mapping()
    data["extra"] = 1
    with pytest.raises(ScenarioError, match="extra"):
        scenario_from_mapping(data)
    data = minimal_mapping()
    data["queue"][0]["when"] = 3
    with pytest.raises(ScenarioError, match="when"):
        scenario_from_mapping(data)
    data = minimal_mapping()
    data["config"] = {"policy": "greedy", "mystery": True}
    with pytest.raises(ScenarioError, match="mystery"):
        scenario_from_mapping(data)


def test_missing_sections_rejected():
    for key in ("agents", "formulas", "initial", "queue"):
        data = minimal_mapping()
        del data[key]
        with pytest.raises(ScenarioError):
            scenario_from_mapping(data)


def test_doubly_owned_variable_rejected():
    data = minimal_mapping()
    data["agents"] = {"a1": ["x", "y"], "a2": ["y"]}
    with pytest.raises(ScenarioError, match="doubly-owned"):
        scenario_from_mapping(data)


def test_single_agent_formula_rejected():
    data = minimal_mapping()
    data["formulas"] = ["~x"]
    with pytest.raises(ScenarioError, match="formula 0"):
        scenario_from_mapping(data)


@pytest.mark.parametrize("formula, name", [("x & w", "w"), ("x & <>{ghost} y", "ghost")])
def test_undeclared_formula_names_rejected(formula, name):
    data = minimal_mapping()
    data["formulas"] = [formula]
    with pytest.raises(ScenarioError, match=rf"invalid model: unknown \w+: \['{name}'\]"):
        scenario_from_mapping(data)


def test_formula_errors_carry_index():
    data = minimal_mapping()
    data["formulas"] = ["x &"]
    with pytest.raises(ScenarioError, match=r"formulas\[0\]"):
        scenario_from_mapping(data)


def test_initial_must_cover_exact_variables():
    data = minimal_mapping()
    del data["initial"]["y"]
    with pytest.raises(ScenarioError):
        scenario_from_mapping(data)
    data = minimal_mapping()
    data["initial"]["zz"] = False
    with pytest.raises(ScenarioError):
        scenario_from_mapping(data)
    data = minimal_mapping()
    data["initial"]["x"] = "maybe"
    with pytest.raises(ScenarioError):
        scenario_from_mapping(data)


def test_insecure_start_flag():
    data = minimal_mapping()
    data["initial"] = {"x": True, "y": True}
    with pytest.raises(InsecureStartError, match="0"):
        scenario_from_mapping(data)
    scenario = scenario_from_mapping(data, allow_insecure_start=True)
    assert scenario.initial_state.value("x") is True


def test_queue_ownership_checked():
    data = minimal_mapping()
    data["queue"] = [{"agent": "a1", "var": "y", "value": True}]
    with pytest.raises(ScenarioError, match=r"^queue\[0\]: 'a1' does not control 'y'"):
        scenario_from_mapping(data)
    data["queue"].insert(0, {"agent": "a1", "var": "x", "value": True})
    with pytest.raises(ScenarioError, match=r"^queue\[1\]: 'a1' does not control 'y'"):
        scenario_from_mapping(data)


def xor_mapping():
    """The bundled exclusive-or scenario, with every config key set."""
    return {
        "agents": {"alice": ["A"], "bob": ["B"]},
        "formulas": ["(~A & B) | (A & ~B)"],
        "initial": {"A": False, "B": False},
        "queue": [
            {"agent": "alice", "var": "A", "value": True},
            {"agent": "bob", "var": "B", "value": True},
        ],
        "config": {
            "max_actions_per_tick": 2,
            "policy": "greedy",
            "blocking_strategy": {"block_for_random_interval": {"low": 1, "high": 2, "seed": 3}},
            "tie_break": "fifo",
            "seed": 1,
        },
    }


def paths(node, prefix=()):
    """Every section and leaf of a nested mapping, as a key path."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from paths(child, prefix + (key,))


def replaced(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


leaves = st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
json_like = st.recursive(
    leaves | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(-2, 2), children, max_size=3),
    max_leaves=8,
)
formula_text = st.text(alphabet="AB&|~()<>{},alicebob true", max_size=24)


@pytest.mark.parametrize(
    "path, value",
    [
        (("queue", 0, "var"), ["A"]),
        (("queue", 0, "agent"), 7),
        (("config", "blocking_strategy", "block_for_random_interval", "low"), [1]),
        (("config", "blocking_strategy", "block_for_random_interval", "low"), 1.7),
        (("config", "blocking_strategy", "block_for_random_interval", "high"), True),
        (("config", "blocking_strategy", "block_for_random_interval", "seed"), [1]),
        ((4,), 1),  # an int key beside the string keys
        (("agents", 5), ["C"]),  # an int agent name, which Model rejects
    ],
)
def test_mistyped_input_rejected(path, value):
    with pytest.raises(ScenarioError):
        scenario_from_mapping(replaced(xor_mapping(), path, value))


@settings(max_examples=400)
@given(st.sampled_from(list(paths(xor_mapping()))), json_like | formula_text)
def test_malformed_scenarios_load_and_run_or_raise_coalguard_errors(path, value):
    try:
        scenario = scenario_from_mapping(replaced(xor_mapping(), path, value))
        run_ticks(scenario.model, scenario.initial_state, scenario.queue, scenario.config, 3)
    except CoalGuardError:
        pass


def test_variable_order_is_first_appearance(scenario_dir):
    scenario = load_scenario(scenario_dir / "example1.yaml")
    assert scenario.model.variables == (
        "v1", "v7", "v8", "v3", "v2", "v6", "v4", "v5", "v9"
    )


def test_load_errors(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(OSError):
        load_scenario(missing)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ScenarioError, match="empty"):
        load_scenario(empty)
    broken = tmp_path / "broken.yaml"
    broken.write_text("agents: [unclosed\n")
    with pytest.raises(ScenarioError):
        load_scenario(broken)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_strategy_variants():
    assert isinstance(parse_strategy("drop_tick"), DropTick)
    assert parse_strategy("silent_freeze") == DropTick()
    until = parse_strategy({"block_until_tick": 7})
    assert isinstance(until, BlockUntilTick) and until.release_tick == 7
    interval = parse_strategy(
        {"block_for_random_interval": {"low": 1, "high": 4, "seed": 2}}
    )
    assert isinstance(interval, BlockForRandomInterval)
    assert (interval.low, interval.high, interval.seed) == (1, 4, 2)
    for bad in ("melt", {"block_until_tick": "soon"}, {"x": 1, "y": 2}):
        with pytest.raises(ScenarioError):
            parse_strategy(bad)


def test_config_from_mapping_maps_seed():
    config = config_from_mapping({"policy": "greedy", "seed": 11})
    assert config.policy == "greedy" and config.random_seed == 11
    with pytest.raises(ScenarioError):
        config_from_mapping({"policy": "wat"})


def test_override_config():
    base = config_from_mapping({"policy": "none", "seed": 3})
    bumped = override_config(base, policy="greedy", seed=9)
    assert (bumped.policy, bumped.random_seed) == ("greedy", 9)
    same = override_config(base)
    assert same == base


# ---------------------------------------------------------------------------
# traces


def run_example1(scenario_dir, policy=None, seed=None):
    scenario = load_scenario(scenario_dir / "example1.yaml")
    config = override_config(scenario.config, policy, seed)
    return scenario, run_ticks(
        scenario.model, scenario.initial_state, scenario.queue, config, 1
    )


def test_trace_record_keys_and_canonical_form(scenario_dir):
    scenario, result = run_example1(scenario_dir)
    line = trace_line(result.records[0])
    decoded = json.loads(line)
    assert sorted(decoded) == [
        "batch", "blocked", "executed", "iterations", "secure", "tick", "valuation",
    ]
    assert line == json.dumps(decoded, sort_keys=True, separators=(",", ":"))
    assert decoded["blocked"] == ["a3", "a1"]
    assert decoded["secure"] is True
    assert [i["kind"] for i in decoded["iterations"]] == ["greedy", "greedy"]
    matrix = decoded["iterations"][0]["matrix"]
    assert matrix["counters"] == [3, 2, 4, 3]
    assert decoded["iterations"][0]["ranking"] == ["a3", "a1", "a4", "a2"]


def test_oracle_trace_shape(scenario_dir):
    scenario, result = run_example1(scenario_dir, policy="nondeterministic")
    decoded = json.loads(trace_line(result.records[0]))
    rounds = decoded["iterations"]
    assert [r["kind"] for r in rounds] == ["oracle", "oracle"]
    assert rounds[0]["cardinality"] == 3
    assert rounds[0]["frontier"] == [["a1", "a2", "a4"], ["a2", "a3", "a4"]]
    assert rounds[0]["success"] is False
    assert rounds[1]["frontier"] == [["a2", "a4"]]
    assert rounds[1]["success"] is True
    assert decoded["blocked"] == ["a1", "a3"]


def test_trace_replay_invariant(scenario_dir):
    scenario, result = run_example1(scenario_dir)
    assert replay_matches(scenario.initial_state.valuation, result.records)


def reference_line(record):
    return json.dumps(record_to_dict(record), sort_keys=True, separators=(",", ":"))


ODD_PARTS = ("é", '"', "\\", "\x00", "\n", "\x1f", "\u2028", "☃", "\U0001d11e", "/")


def odd_name(rng, stem):
    """The stem plus characters JSON must escape. None is a digit, and every
    stem ends in one, so distinct stems stay distinct."""
    return stem + "".join(rng.choice(ODD_PARTS) for _ in range(rng.randint(0, 3)))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("none", "greedy", "nondeterministic")),
    st.sampled_from((DropTick(), BlockUntilTick(3), BlockForRandomInterval(0, 2, seed=5))),
)
def test_trace_line_writes_the_reference_bytes(seed, policy, strategy):
    rng = random.Random(seed)
    base = random_model(rng, max_vars=7, max_agents=5, max_formulas=3)
    # Var admits only identifiers, so the formulas keep the plain variable
    # names; agents, and variables no formula reads, take odd names
    agents = {a: odd_name(rng, a) for a in base.agents}
    owned = {agents[a]: list(base.owned(a)) for a in base.agents}
    extra = tuple(odd_name(rng, f"w{i}") for i in range(rng.randint(1, 3)))
    for variable in extra:
        owned[rng.choice(list(owned))].append(variable)
    model = Model(tuple(owned), base.variables + extra, owned, base.critical_formulas)
    state = random_secure_state(rng, model)
    if state is None:
        return
    # a library valuation may hold the ints 0 and 1, which stay ints in the trace
    valuation = {v: int(b) if rng.random() < 0.3 else b for v, b in state.valuation.items()}
    queue = ActionQueue(model)
    for _ in range(rng.randint(1, 16)):  # mostly flips, so that formulas come under threat
        agent = rng.choice(model.agents)
        variable = rng.choice(model.owned(agent))
        queue = queue.push(agent, variable, (rng.random() < 0.8) != bool(valuation[variable]))
    config = EngineConfig(rng.randint(2, 8), policy, strategy, random_seed=seed)
    result = run_ticks(model, SystemState(0, valuation), queue, config, rng.randint(1, 6))
    for record in result.records:
        assert trace_line(record) == reference_line(record)


def test_trace_line_writes_hand_built_records_as_json_does(scenario_dir):
    _, result = run_example1(scenario_dir)
    record = dataclasses.replace(
        result.records[0],
        executed=(ActionRequest("a9", "x", 1, 7),),  # not in the batch
        valuation={10: True, 2: 0},  # keys that are not strings
    )
    assert trace_line(record) == reference_line(record)
    assert '"executed":[{"agent":"a9","arrival":7,"value":1,"var":"x"}]' in trace_line(record)
    assert trace_line(record).endswith('"valuation":{"2":0,"10":true}}')


KEY_TEXT = st.text(st.characters(codec="utf-8"), min_size=1, max_size=3)


@given(
    st.lists(KEY_TEXT, min_size=1, max_size=6, unique=True),
    st.lists(KEY_TEXT, min_size=1, max_size=6, unique=True),
    st.data(),
)
def test_trace_line_writes_key_sets_and_executed_requests_as_json_does(first, second, data):
    """Records of two models' key sets take turns, each valuation inserted in
    an order of its own and drawn through SystemState, which keeps the ints 0
    and 1; one record in three has int keys, which only json.dumps writes.
    Executed is the batch itself, an equal but distinct tuple, a strict
    subset, or holds a request not in the batch. The key-set texts are
    served from the cache when a key tuple comes back."""
    key_sets = [data.draw(st.permutations(keys)) for keys in (first, second)]
    value = st.sampled_from((True, False, 0, 1))
    hits = scenario_mod._valuation_texts.cache_info().hits
    for tick in range(6):
        keys = key_sets[tick % 2] if tick % 3 else data.draw(st.permutations([10, 2, 7]))
        state = SystemState(tick, {k: data.draw(value) for k in keys})
        batch = tuple(ActionRequest(f"a{i}", f"v{i}", data.draw(value), data.draw(st.integers()))
                      for i in range(data.draw(st.integers(0, 4))))
        executed = data.draw(st.sampled_from((
            batch, tuple(list(batch)), batch[: len(batch) - 1], (ActionRequest("z", "w", 1, 7),),
        )))
        record = TickRecord(tick, batch, (), ("a0",), executed, state.valuation, tick % 2 == 0)
        assert trace_line(record) == reference_line(record)
    # ticks 2 and 4 ask with the first key tuple, and no tick between them adds one
    assert scenario_mod._valuation_texts.cache_info().hits > hits


def hand_built_rounds():
    """Greedy rounds built by hand, keyed by what their matrices exercise."""
    rows = (frozenset({"a1", "a3"}), frozenset({"a2"}), frozenset({"a1", "a2", "a3"}))
    wide = BlockingMatrix((0, 2, 5), ("a1", "a2", "a3"), rows, (2, 2, 2))
    return {
        # tuples equal to the matrix's but distinct objects, so not shared
        "equal copies": GreedyIteration(
            tuple(list(wide.formula_indices)), tuple(list(wide.agents)), wide,
            ("a2", "a1", "a3"), "a2"),
        # lists that differ from the matrix's: each is written as it is
        "different lists": GreedyIteration((7,), ("a9", "é\n"), wide, ("a3",), "a3"),
        "one column": GreedyIteration(
            (1, 4), ("a2",), BlockingMatrix((1, 4), ("a2",), rows[1:], (1,)), ("a2",), "a2"),
        "no columns": GreedyIteration((3,), (), BlockingMatrix((3,), (), rows[:2], ()), (), "a1"),
        "no rows": GreedyIteration((), ("a1",), BlockingMatrix((), ("a1",), (), (0,)), (), "a1"),
        "one cell": GreedyIteration(
            (0,), ("a1",), BlockingMatrix((0,), ("a1",), rows[:1], (1,)), ("a1",), "a1"),
        # an agent named in two columns marks both
        "repeated column": GreedyIteration(
            (0, 2), ("a1", "a3", "a1"),
            BlockingMatrix((0, 2), ("a1", "a3", "a1"), rows[::2], (2, 2, 2)), ("a1",), "a1"),
    }


@pytest.mark.parametrize("kind", list(hand_built_rounds()))
def test_trace_line_writes_hand_built_greedy_rounds_as_json_does(kind):
    item = hand_built_rounds()[kind]
    if kind == "equal copies":
        assert item.became_true == item.matrix.formula_indices
        assert item.became_true is not item.matrix.formula_indices
        assert item.implicated is not item.matrix.agents
    request = ActionRequest("a1", "x", True, 0)
    for iterations in ((item,), (item, item)):  # alone, and followed by another round
        record = TickRecord(1, (request,), iterations, ("a1",), (), {"x": False}, True)
        assert trace_line(record) == reference_line(record)


def test_trace_line_writes_rounds_larger_than_the_subset_memo_as_json_does():
    """The trace writer keeps 4,096 keep-set texts, and a record asks for
    them only when its rounds list no more keep-sets than that in all: the
    12-cycle's 2,509 ask for every text, the 13-cycle's 5,811 (no round over
    1,716) and the 15-cycle's 22,818 (its last two rounds 6,435 each) for
    none. Each line is still the one json.dumps writes."""
    for n, listed in ((12, 2509), (13, 5811), (15, 22818)):
        model, state, batch = build_cycle_instance(n)
        report = nondet_block(model, state, batch, seed=0)
        assert sum(len(r.evaluated) for r in report.iterations) == listed
        after = apply_actions(state, report.allowed_batch)
        record = TickRecord(after.tick, batch, report.iterations, report.blocked,
                            report.allowed_batch, after.valuation, is_secure(model, after))
        texts = sum(len(r.evaluated) + len(r.frontier) + 1 for r in report.iterations)
        before = scenario_mod._subset_json.cache_info()
        line, reference = trace_line(record), reference_line(record)
        after_line = scenario_mod._subset_json.cache_info()
        asked = after_line.hits + after_line.misses - before.hits - before.misses
        assert asked == (texts if listed <= 4096 else 0), n
        # the first differing position, not a diff of two 1.5 MB lines
        mismatch = next((i for i, (a, b) in enumerate(zip(line, reference)) if a != b), None)
        assert (mismatch, len(line)) == (None, len(reference)), n


def test_trace_text_round_trips(tmp_path, scenario_dir):
    from coalguard import write_trace

    scenario, result = run_example1(scenario_dir)
    text = trace_text(result.records)
    assert text.endswith("\n") and text.count("\n") == len(result.records)
    out = tmp_path / "trace.jsonl"
    write_trace(result.records, out)
    assert out.read_text(encoding="utf-8") == text


def test_trace_line_refuses_what_is_not_a_tick_record():
    with pytest.raises(PreconditionError, match="from a TickRecord, not 5"):
        trace_line(5)


def test_trace_line_refuses_an_iteration_that_is_neither_a_greedy_nor_an_oracle_round():
    record = TickRecord(1, (), (5,), (), (), {}, True)
    with pytest.raises(PreconditionError, match="unknown iteration snapshot int"):
        trace_line(record)


@pytest.mark.parametrize(
    "spoil", [lambda records: [*records, 5], lambda records: 5], ids=["bad-record", "not-iterable"]
)
def test_write_trace_checks_records_before_it_opens_the_file(tmp_path, scenario_dir, spoil):
    """A refused call leaves an existing trace as it was."""
    from coalguard import write_trace

    out = tmp_path / "trace.jsonl"
    _, result = run_example1(scenario_dir)
    write_trace(result.records, out)
    before = out.read_text(encoding="utf-8")
    with pytest.raises(PreconditionError, match="TickRecord, not 5|iterable, not 5"):
        write_trace(spoil(result.records), out)
    assert out.read_text(encoding="utf-8") == before != ""


def test_write_trace_leaves_an_existing_trace_whole_when_a_record_fails(tmp_path, scenario_dir):
    """An oracle run's record is written before the malformed one after it
    fails; the new file is removed and the greedy trace keeps every byte."""
    from coalguard import write_trace

    out = tmp_path / "trace.jsonl"
    write_trace(run_example1(scenario_dir, policy="greedy")[1].records, out)
    before = out.read_bytes()
    malformed = TickRecord(1, (5,), (), (), (), {}, True)
    records = run_example1(scenario_dir, policy="nondeterministic")[1].records
    with pytest.raises(PreconditionError, match="malformed tick record"):
        write_trace([*records, malformed], out)
    assert out.read_bytes() == before != b""
    assert os.listdir(tmp_path) == ["trace.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_write_trace_writes_a_pipe_in_place(tmp_path, scenario_dir):
    """A pipe cannot be replaced by a file, so its reader gets the lines."""
    from coalguard import write_trace

    pipe = tmp_path / "trace.pipe"
    os.mkfifo(pipe)
    _, result = run_example1(scenario_dir)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_text(encoding="utf-8")),
                              daemon=True)
    reader.start()
    write_trace(result.records, pipe)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert read == [trace_text(result.records)]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode) and os.listdir(tmp_path) == ["trace.pipe"]


def test_write_trace_refuses_a_path_that_is_not_a_str_or_path_like():
    """open() takes an int, or a bool, as a file descriptor, so write_trace
    once wrote to descriptor 1 and closed it; a child process shows that
    standard output is still open after the refusals."""
    script = (
        "from coalguard import PreconditionError, write_trace\n"
        "for path in (True, 1, None):\n"
        "    try:\n"
        "        write_trace([], path)\n"
        "    except PreconditionError as exc:\n"
        "        print('refused', exc)\n"
        "print('stdout still open')\n"
    )
    src = str(Path(coalguard.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "refused a trace path is a str or os.PathLike, not True",
        "refused a trace path is a str or os.PathLike, not 1",
        "refused a trace path is a str or os.PathLike, not None",
        "stdout still open",
    ]


# ---------------------------------------------------------------------------
# command line


def test_cli_validate_ok(capsys, scenario_dir):
    code = main(["validate", str(scenario_dir / "example1.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "ok: 5 agents, 9 variables, 4 critical formulas, 4 queued requests"


def test_cli_validate_invalid(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "agents: {a1: [x], a2: [y]}\nformulas: ['~x']\n"
        "initial: {x: false, y: false}\nqueue: []\n"
    )
    code = main(["validate", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("invalid:")


def test_cli_run_secure(capsys, scenario_dir, tmp_path):
    trace = tmp_path / "out.jsonl"
    code = main(["run", str(scenario_dir / "example1.yaml"), "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tick 1: batch=4 blocked=[a3,a1] executed=2 secure" in out
    assert "run: secure after 1 tick(s)" in out
    assert trace.exists() and trace.read_text().count("\n") == 1


def test_cli_run_policy_none_goes_insecure(capsys, scenario_dir):
    code = main(["run", str(scenario_dir / "example1.yaml"), "--policy", "none"])
    out = capsys.readouterr().out
    assert code == 1
    assert "INSECURE" in out


def test_cli_run_negative_ticks(capsys, scenario_dir):
    # run_ticks rejects the count; main turns that into one error line
    code = main(["run", str(scenario_dir / "example1.yaml"), "--ticks", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ticks must be a non-negative int, not -1\n"


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("25", "need at least two distinct sizes"),
        ("25,25", "need at least two distinct sizes"),
        ("2,3", "cycle instances need at least 3 positions"),
    ],
    ids=["one-size", "repeated-size", "too-small"],
)
def test_bench_rejects_sizes_it_cannot_fit(capsys, sizes, message):
    with pytest.raises(PreconditionError, match=message):
        run_bench(tuple(map(int, sizes.split(","))))
    assert main(["bench", "--sizes", sizes]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.out + captured.err


def test_bench_warns_past_the_slope_gate_and_exits_0(capsys, monkeypatch):
    rows = (BenchRow(25, 0.001, 12, 12), BenchRow(50, 0.5, 25, 25))
    report = BenchReport(rows, cli.SLOPE_GATE + 0.5)
    monkeypatch.setattr(cli, "run_bench", lambda sizes, seed: report)
    assert main(["bench", "--sizes", "25,50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"log-log slope: {cli.SLOPE_GATE + 0.5:.3f}",
                          f"warning: slope exceeds the soft gate of {cli.SLOPE_GATE}"]


def test_fit_loglog_slope_needs_two_distinct_sizes_before_it_divides():
    with pytest.raises(PreconditionError, match="need at least two distinct sizes"):
        fit_loglog_slope({}, {})
    assert fit_loglog_slope((10, 100), (1.0, 10.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("size", [None, True, 5.0, "5"])
def test_build_cycle_instance_refuses_a_size_that_is_not_an_int(size):
    with pytest.raises(PreconditionError, match="cycle instances need at least 3 positions"):
        build_cycle_instance(size)


def test_cli_run_missing_file(capsys, tmp_path):
    code = main(["run", str(tmp_path / "ghost.yaml")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "formula",
    ["~" * 4000 + "x | y", " | ".join(["x", "y"] * 1500)],
    ids=["4000-nested-not", "3000-term-or"],
)
def test_cli_rejects_formulas_past_the_depth_cap(capsys, tmp_path, formula):
    deep = tmp_path / "deep.yaml"
    deep.write_text(
        "agents: {a1: [x], a2: [y]}\n"
        f"formulas: ['{formula}']\n"
        "initial: {x: false, y: false}\nqueue: []\n"
    )
    assert main(["validate", str(deep)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: formulas[0]: formula nests deeper than 256 levels")
    assert main(["run", str(deep)]) == 2
    assert capsys.readouterr().err.startswith("error: formulas[0]:")


def test_cli_zero_formulas_admit_nothing_under_auto(capsys, tmp_path):
    # "auto" caps a batch at the number of critical formulas: with none, no
    # request is ever admitted and the queue never drains
    text = (
        "agents: {a1: [x], a2: [y]}\nformulas: []\n"
        "initial: {x: false, y: false}\n"
        "queue: [{agent: a1, var: x, value: true}, {agent: a2, var: y, value: true}]\n"
    )
    idle = tmp_path / "idle.yaml"
    idle.write_text(text)
    assert main(["run", str(idle), "--ticks", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"tick {t}: batch=0 blocked=[-] executed=0 secure" for t in (1, 2, 3)]
    # an explicit cap drains it
    drained = tmp_path / "drained.yaml"
    drained.write_text(text + "config: {max_actions_per_tick: 1}\n")
    assert main(["run", str(drained), "--ticks", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines[:3]] == ["batch=1", "batch=1", "batch=0"]


def test_cli_analyze_xor(capsys, scenario_dir, tmp_path):
    edges = tmp_path / "edges.txt"
    code = main(
        ["analyze", str(scenario_dir / "xor_pair.yaml"), "--export-edges", str(edges)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "vertices: 4" in out
    assert "edges: 4" in out
    assert "full graph: connected" in out
    assert "secure vertices: 2 (disconnected)" in out
    assert "renamable Horn" in out
    assert "vulnerability audit" in out
    assert edges.read_text().strip().count("\n") == 3


def test_cli_analyze_sections_are_selectable(capsys, scenario_dir):
    code = main(["analyze", str(scenario_dir / "example1.yaml"), "--horn"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Horn relabelings:" in out
    assert "state graph:" not in out
    assert "vulnerability audit" not in out


HORN_SECTIONS = {
    "example1.yaml": [
        "  formula[0] v1 & v2 & (~v3 | v5 | ~v4): renamable Horn (already Horn, no flips)",
        "  formula[1] (~v5 | ~v3) & ~v6: renamable Horn (already Horn, no flips)",
        "  formula[2] v7 & (~v8 | ~v6): renamable Horn (already Horn, no flips)",
        "  formula[3] (v8 | v5 | ~v9) & v2 & v1: renamable Horn "
        "(v1: keep, v2: keep, v5: flip, v8: flip, v9: flip)",
    ],
    "greedy_gap.yaml": [
        "  formula[0] x1 & x2 & ~z1: renamable Horn (already Horn, no flips)",
        "  formula[1] x3 & x4 & ~z2: renamable Horn (already Horn, no flips)",
    ],
    "xor_pair.yaml": ["  formula[0] ~A & B | A & ~B: renamable Horn (A: flip, B: keep)"],
}


@pytest.mark.parametrize("name", sorted(HORN_SECTIONS))
def test_cli_analyze_horn_output_of_the_bundled_scenarios(capsys, scenario_dir, name):
    assert main(["analyze", str(scenario_dir / name), "--horn"]) == 0
    lines = ["Horn relabelings:", *HORN_SECTIONS[name]]
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_cli_analyze_reports_modal_unrenamable_and_unreachable_formulas(capsys, tmp_path):
    """The Horn section skips a modal formula and names one no renaming
    makes Horn; the audit reports that no coalition can satisfy a formula
    that nothing satisfies, and refuses a modal model with one error line."""
    modal = tmp_path / "modal.yaml"
    modal.write_text(
        "agents: {a1: [x, z], a2: [y]}\n"
        "formulas: ['<>{a1} x & y', '(x | y | z) & (~x | ~y | ~z)']\n"
        "initial: {x: false, y: false, z: false}\nqueue: []\n"
    )
    assert main(["analyze", str(modal), "--horn"]) == 0
    assert capsys.readouterr().out == (
        "Horn relabelings:\n"
        "  formula[0] <>{a1}x & y: skipped (modal operator)\n"
        "  formula[1] (x | y | z) & (~x | ~y | ~z): not renamable Horn\n"
    )
    assert main(["analyze", str(modal), "--audit"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the audit requires propositional critical formulas\n"
    never = tmp_path / "never.yaml"
    never.write_text(
        "agents: {a1: [x], a2: [y]}\nformulas: ['x & ~x | y & ~y']\n"
        "initial: {x: false, y: false}\nqueue: []\n"
    )
    assert main(["analyze", str(never), "--audit"]) == 0
    assert capsys.readouterr().out == (
        "vulnerability audit (minimal coalitions at the initial state):\n"
        "  none: no coalition can make any critical formula true\n"
    )


def test_cli_analyze_horn_past_the_clause_cap(capsys, tmp_path):
    # (x0&y0) | ... | (x17&y17) spans 36 variables, past the truth-table cap
    xs, ys = [f"x{i}" for i in range(18)], [f"y{i}" for i in range(18)]
    wide = tmp_path / "wide.yaml"
    wide.write_text(
        f"agents: {{a: [{', '.join(xs)}], b: [{', '.join(ys)}]}}\n"
        f"formulas: ['{' | '.join(f'({x}&{y})' for x, y in zip(xs, ys))}']\n"
        f"initial: {{{', '.join(f'{v}: false' for v in xs + ys)}}}\nqueue: []\n"
    )
    assert main(["analyze", str(wide), "--horn"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "Horn relabelings:\n"
    assert captured.err == "error: 36 variables exceed the truth-table cap of 10\n"


def test_cli_bench(capsys):
    code = main(["bench", "--sizes", "5,8,12", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split() == ["size", "seconds", "iterations", "blocked"]
    assert "log-log slope:" in out


def test_cli_bench_rejects_garbage_sizes(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--sizes", "ten"])
