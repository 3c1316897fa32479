"""README's code runs, so its asserts keep the example honest, and its
table of caps names every cap with the value the code holds."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_use_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library use)", "exec"), {})


def test_readme_caps_table_matches_the_constants():
    section = README.read_text(encoding="utf-8").split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([\w.]+)` \| (\d+) \| [^|]+ \| `(\w+)` \|$", section, re.M)
    assert len(rows) == 7
    for name, module, value, error in rows:
        assert getattr(importlib.import_module(module), name) == int(value), name
        assert error == "BudgetExceededError"
    source = README.parent / "src" / "coalguard"
    defined = {m for p in source.glob("*.py") for m in re.findall(r"^(\w+_CAP) = ", p.read_text(), re.M)}
    assert defined == {name for name, *_ in rows}
