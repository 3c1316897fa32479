"""The package's modules stack one way: errors, formula, model, blocking,
engine, then scenario, analysis and bench, then cli. Read from the source
with ``ast``, so nothing is imported to check it."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "coalguard"


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported(node: ast.AST, modules) -> set:
    """The package modules one import statement names."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("coalguard")):
        module = (node.module or "").removeprefix("coalguard").lstrip(".")
        return ({module} if module else {alias.name for alias in node.names}) & modules
    if isinstance(node, ast.Import):
        return {alias.name.removeprefix("coalguard.") for alias in node.names} & modules
    return set()


def test_package_imports_form_no_cycle():
    trees = _trees()
    modules = set(trees) - {"__init__"}
    graph = {name: set().union(*(_imported(node, modules) for node in ast.walk(tree)))
             for name, tree in trees.items() if name in modules}
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path[path.index(name):] + [name])}"
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
    assert {"blocking", "model"} <= graph["engine"]  # so neither imports engine


def test_no_function_imports_in_its_body():
    found = []
    for name, tree in _trees().items():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{name}.py:{node.lineno} in {getattr(function, 'name', 'lambda')}"
                          for node in ast.walk(function)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found
