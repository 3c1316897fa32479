"""README's code runs, so its asserts keep the example honest."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_use_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library use)", "exec"), {})
