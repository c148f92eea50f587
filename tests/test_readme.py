"""The README's Library example runs and gives the values its comments show.

A line of the example commented with a number (``# 0.6864…``) must
evaluate to a value whose repr starts with that number: the assigned name
for an assignment, else the line's expression.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first ``python`` block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_gives_its_commented_values():
    source = library_example()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    shown = []
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        number = re.fullmatch(r"\s*([0-9.]+)…\s*", comment)
        if number:
            target, assigned, _ = code.partition("=")
            value = eval(target if assigned and target.strip().isidentifier() else code, namespace)
            shown.append(number.group(1))
            assert repr(value).startswith(number.group(1)), (line, value)
    assert shown == ["0.6864", "0.2317"]
