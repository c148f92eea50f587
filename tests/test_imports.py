"""Every name a module of the package imports is used in it.

No linter runs on the sources, so this walks each module's syntax tree
with the standard library's `ast`.  ``__init__.py`` is exempt: it imports
names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vrpl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom a.b import c as d\nprint(path)\n"
    assert unused_imports(source) == ["line 1: math", "line 2: sep", "line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
