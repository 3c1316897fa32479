"""Mutation testing of coalguard's fast paths, on a temporary copy of the tree.

Each mutant changes one spot of one target function:

- a comparison moved across its boundary or negated: ``<`` and ``<=``, ``>``
  and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
- an arithmetic or bitwise operator swapped, in an expression or an augmented
  assignment: ``+`` and ``-``, ``*`` and ``//``, ``<<`` and ``>>``, ``&`` and
  ``|``, ``^`` to ``|``;
- ``and`` and ``or`` exchanged;
- an int constant plus 1;
- a ``not`` dropped.

For each mutant, the test files in TESTS run with ``-x`` under a timeout. A
mutant is killed when they fail or time out, and survives when they pass.
Pytest does not collect this file, and it is not part of the tier-1 run:

    python tests/mutate.py
    python tests/mutate.py --root ../other-checkout --out mutants.json

The timeout per mutant is 5 times the unmutated run, at least 30 s, and
JOBS trees are tested at once.

``--root`` mutates and tests another checkout of the repository, so that two
revisions' results can be compared mutant by mutant: a mutant is named by its
function, its place in the function's source order and its kind, not by line.
"""

import argparse
import ast
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TARGETS = {
    "formula": ("_truth_table", "eval_formula", "_compile", "_exists", "_clause_codes",
                "_prime_implicates", "_decode", "find_horn_labeling", "horn_renaming"),
    "model": ("diamond_holds", "simulate"),
    "analysis": ("audit_vulnerabilities",),
    "blocking": ("greedy_block", "_false_counter"),
}
TESTS = ("tests/test_formula.py", "tests/test_compiled.py", "tests/test_model.py",
         "tests/test_analysis.py", "tests/test_blocking.py", "tests/test_engine.py")
JOBS = min(2, os.cpu_count() or 1)

COMPARISONS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
               ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
               ast.In: ast.NotIn, ast.NotIn: ast.In}
OPERATORS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
             ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
             ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr}


def _copy(node, **changes):
    twin = type(node)(**{name: getattr(node, name) for name in node._fields})
    for name, value in changes.items():
        setattr(twin, name, value)
    return twin


def _variants(node):
    """(kind, replacement node) for each mutant of node itself."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARISONS:
                ops = [*node.ops[:i], COMPARISONS[type(op)](), *node.ops[i + 1:]]
                yield "compare", _copy(node, ops=ops)
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
        yield "operator", _copy(node, op=OPERATORS[type(node.op)]())
    elif isinstance(node, ast.BoolOp):
        yield "boolean", _copy(node, op=ast.Or() if isinstance(node.op, ast.And) else ast.And())
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not", node.operand
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield "constant", ast.Constant(node.value + 1)


def _nodes(function):
    """function's nodes in source order, leaving out f-strings' parts, whose
    positions Python before 3.12 does not give."""
    skip = {id(n) for f in ast.walk(function) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    found = [n for n in ast.walk(function) if hasattr(n, "lineno") and id(n) not in skip]
    return sorted(found, key=lambda n: (n.lineno, n.col_offset, -n.end_lineno, -n.end_col_offset))


def mutants(module, source):
    """(function, ordinal, kind, line, before, after, mutated source) of each
    mutant of module's targets. Only the mutated node's text changes, so the
    rest of the file keeps its bytes and its line numbers."""
    tree, data = ast.parse(source), source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in TARGETS[module]:
        ordinal = 0
        for node in _nodes(functions[name]):
            for kind, new in _variants(node):
                begin = starts[node.lineno - 1] + node.col_offset
                end = starts[node.end_lineno - 1] + node.end_col_offset
                text = ast.unparse(new)
                if isinstance(node, ast.expr):
                    text = f"({text})"
                mutated = data[:begin] + text.encode("utf-8") + data[end:]
                before = data[begin:end].decode("utf-8")
                yield name, ordinal, kind, node.lineno, before, text, mutated.decode("utf-8")
                ordinal += 1


def _run_tests(tree, timeout):
    """True when the tests pass in tree within timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    process = subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return process.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return False


def _copy_tree(root, into):
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(root, into, ignore=ignore)
    return into


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout to mutate (default: this one)")
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sources = {m: (root / "src" / "coalguard" / f"{m}.py").read_text(encoding="utf-8")
               for m in TARGETS}
    todo = [(module, *mutant) for module in TARGETS for mutant in mutants(module, sources[module])]

    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="coalguard-mutants-") as scratch:
        trees = [_copy_tree(root, Path(scratch) / f"tree{i}") for i in range(JOBS)]
        unmutated = time.perf_counter()
        if not _run_tests(trees[0], None):
            print("the unmutated tests fail; no mutant was run", file=sys.stderr)
            return 1
        timeout = max(30.0, 5 * (time.perf_counter() - unmutated))
        free = queue.Queue()  # the trees no mutant is being tested in
        for tree in trees:
            free.put(tree)

        def run(item):
            module, function, ordinal, kind, line, before, after, mutated = item
            tree = free.get()
            target = tree / "src" / "coalguard" / f"{module}.py"
            try:
                target.write_text(mutated, encoding="utf-8")
                killed = not _run_tests(tree, timeout)
            finally:
                target.write_text(sources[module], encoding="utf-8")
                free.put(tree)
            return {"module": module, "function": function, "ordinal": ordinal, "kind": kind,
                    "line": line, "before": before, "after": after, "killed": killed}

        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(run, todo))

    summary = {}
    for r in results:
        entry = summary.setdefault(f"{r['module']}.{r['function']}",
                                   {"mutants": 0, "killed": 0, "survivors": []})
        entry["mutants"] += 1
        entry["killed"] += r["killed"]
        if not r["killed"]:
            entry["survivors"].append(f"#{r['ordinal']} {r['kind']} line {r['line']}: "
                                      f"{r['before']} -> {r['after']}")
    seconds = round(time.perf_counter() - began, 1)
    for name, entry in summary.items():
        print(f"{name}: {entry['killed']}/{entry['mutants']} killed")
        for survivor in entry["survivors"]:
            print(f"    survived {survivor}")
    total = sum(r["killed"] for r in results)
    print(f"total: {total}/{len(results)} killed in {seconds} s")
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "summary": summary,
                                        "mutants": results}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
