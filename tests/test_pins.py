"""Machine-independent pins: trace bytes, cycle counts, the CLI's exit
contract on malformed scenarios, the size of the source, and the test
oracles' independence from it.

Seconds are not pinned here; the CI workflow prints them.
"""

import ast
import hashlib
import pathlib
import re
import sys
import tokenize

import pytest

from coalguard import (
    ActionRequest,
    apply_actions,
    build_cycle_instance,
    engine,
    greedy_block,
    model as model_mod,
    nondet_block,
    run_ticks,
    scenario_from_mapping,
    trace_text,
)
from coalguard.cli import main

ROOT = pathlib.Path(__file__).parent.parent
# the most lines src/coalguard/*.py may hold; it may fall, but not grow
SOURCE_LINES_CAP = 2846
# the most Python tokens they may hold, as stdlib tokenize reads them, less the
# layout and comment tokens (NL, NEWLINE, INDENT, DEDENT, COMMENT, ENDMARKER):
# joining lines to fit under the line cap does not lower it
SOURCE_TOKENS_CAP = 16878
# the most lines tests/helpers.py may hold: one oracle per semantics
HELPERS_LINES_CAP = 529


@pytest.mark.parametrize(
    "name, ticks, digest",
    [
        ("guard_greedy", 72, "f46835a2667e396fd93464063123f12ec5328d12bc27918ca7cf75b219713dbd"),
        ("guard_stream", 2485, "cc8652ae7181abd8ae6a159304816cd39a1512bc5f34e661d0b7f6e19c834b86"),
        ("guard_oracle", 40, "39dadaa547934e708942b9c30e980879905cf800feb07c81d0535dd599759af3"),
    ],
    ids=["guard_greedy", "guard_stream", "guard_oracle"],
)
def test_benchmark_traffic_writes_the_pinned_trace(monkeypatch, name, ticks, digest):
    """Each guard generator at seed 1, run for the ticks that drain its queue,
    writes the trace the dict-and-sort writer wrote, and applies a batch once
    a tick, counted in every module that holds apply_actions."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import workloads

    applies = []
    counted = lambda state, batch: applies.append(batch) or apply_actions(state, batch)
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "coalguard" and vars(module).get("apply_actions") is apply_actions:
            monkeypatch.setattr(module, "apply_actions", counted)
    assert model_mod.apply_actions is counted
    s = scenario_from_mapping(getattr(workloads, name)(1))
    result = run_ticks(s.model, s.initial_state, s.queue, s.config, ticks)
    assert len(result.queue) == 0
    assert hashlib.sha256(trace_text(result.records).encode("utf-8")).hexdigest() == digest
    assert len(applies) == ticks


def test_oracle_on_the_16_cycle():
    model, state, batch = build_cycle_instance(16)
    report = nondet_block(model, state, batch, seed=0)
    assert sum(len(item.evaluated) for item in report.iterations) == 39202
    assert len(report.blocked) == 8


def test_greedy_on_the_200_cycle_in_cycle_order():
    model, state, batch = build_cycle_instance(200)
    report = greedy_block(model, state, batch)
    assert len(report.iterations) == 100 and len(report.blocked) == 100


def test_loading_a_valid_queue_builds_each_request_once_and_checks_none_again(monkeypatch):
    """A valid N-request queue costs N ActionRequests, no check_request call in
    any module that holds it, and one buffer: the one the queue then holds."""
    n = 1000
    data = {"agents": {"a1": ["x"], "a2": ["y"]}, "formulas": ["x & y"],
            "initial": {"x": False, "y": False},
            "queue": [{"agent": f"a{1 + i % 2}", "var": "xy"[i % 2], "value": i % 3 == 0}
                      for i in range(n)]}
    built, checks, buffers = [], [], []
    init = ActionRequest.__init__
    monkeypatch.setattr(ActionRequest, "__init__", lambda r, *a: built.append(a) or init(r, *a))
    check = model_mod.check_request
    counted = lambda *args: checks.append(args) or check(*args)
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "coalguard" and vars(module).get("check_request") is check:
            monkeypatch.setattr(module, "check_request", counted)
    monkeypatch.setattr(engine._Buffer, "__init__",
                        lambda b, *a: buffers.append(b) or list.__init__(b, *a))
    queue = scenario_from_mapping(data).queue
    assert len(built) == len(queue) == n and checks == []
    assert len(buffers) == 1 and queue.buffer is buffers[0] and (queue.start, queue.end) == (0, n)
    queue.push("a1", "x", True)  # a push is still checked, once
    assert len(checks) == 1 and len(built) == n + 1


MALFORMED = {
    "doubly_owned": ["agents: {a1: [x, y], a2: [y]}", "formulas: ['x & y']",
                     "initial: {x: false, y: false}", "queue: []"],
    "list_var": ["agents: {a1: [x], a2: [y]}", "formulas: ['x & y']",
                 "initial: {x: false, y: false}",
                 "queue: [{agent: a1, var: [x], value: true}]"],
    "undeclared": ["agents: {a1: [x], a2: [y]}", "formulas: ['x & w']",
                   "initial: {x: false, y: false}", "queue: []"],
    "int_value": ["agents: {a1: [x], a2: [y]}", "formulas: ['x & y']",
                  "initial: {x: false, y: false}", "queue: [{agent: a1, var: x, value: 1}]"],
    "owner_then_list": ["agents: {a1: [x], a2: [y]}", "formulas: ['x & y']",
                        "initial: {x: false, y: false}",
                        "queue: [{agent: a2, var: x, value: true}, [x]]"],
}


def one_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_scenario_is_refused_with_one_line(capsys, tmp_path, name):
    """validate prints one "invalid:" line and exits 1; run prints one
    "error:" line on stderr and exits 2."""
    path = tmp_path / f"{name}.yaml"
    path.write_text("\n".join(MALFORMED[name]) + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("invalid: ")
    assert main(["run", str(path)]) == 2
    one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [["run", str(ROOT / "scenarios" / "example1.yaml"), "--ticks", "-1"],
     ["bench", "--sizes", "25"]],
    ids=["negative-ticks", "one-bench-size"],
)
def test_an_argument_the_library_refuses_exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    one_error_line(capsys)


def test_the_source_stays_within_its_line_cap():
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("src/coalguard/*.py")))
    assert text.count("\n") <= SOURCE_LINES_CAP


def test_the_source_stays_within_its_token_cap():
    layout = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT,
              tokenize.ENDMARKER}
    count = 0
    for path in sorted(ROOT.glob("src/coalguard/*.py")):
        with path.open(encoding="utf-8") as handle:
            count += sum(t.type not in layout for t in tokenize.generate_tokens(handle.readline))
    assert count <= SOURCE_TOKENS_CAP


def test_the_test_oracles_stay_small_and_apart_from_the_library():
    """tests/helpers.py keeps within its line cap, imports no private
    coalguard name, and keeps no copy of retired library code: no docstring
    or comment there calls its code a copy of the library's."""
    text = (ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    assert text.count("\n") <= HELPERS_LINES_CAP
    assert not re.search(r"verbatim|copied from the library|as it was before", text, re.I)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coalguard":
            assert not any(part.startswith("_") for part in node.module.split(".")), node.module
            assert not [alias.name for alias in node.names if alias.name.startswith("_")]
