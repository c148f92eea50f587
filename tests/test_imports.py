"""What the modules of the package and of the tests import, and what the
package keeps.

Every name a module imports is used in it, but for the names the benchmark
hooks there (`HOOKED_ONLY`); every name a test module imports is used in
it, but for the imports kept for their side effect (`FOR_EFFECT`).  Every
private function or class of the package is read by the package, so none
is kept for the tests alone.  No linter runs on the sources, so this walks
each module's syntax tree with the standard library's `ast`.
``__init__.py`` is exempt: it imports names to re-export them.  No module
imports `dataclasses`, and ``import vrpl.cli`` loads every module.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vrpl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

#: Imported names a module keeps unused, each with its reason.
#: `perfbench/tracer.py` times a layer by replacing the global it hooks in a
#: module, so a hooked name stays bound where the module no longer calls it.
HOOKED_ONLY = {
    ("cli.py", "load_traces"): "`trace` streams its CSV through `traces._stream_traces`",
}

#: Imported names a test module keeps unused, each with its reason.
FOR_EFFECT = {
    ("test_records.py", "vrpl"): "`import vrpl.cli` loads every module, so every record class exists",
}


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


def _unused_names(path: Path) -> set[str]:
    return {entry.split(": ")[1] for entry in unused_imports(path.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES + TESTS])
def test_module_uses_every_import(path):
    kept = HOOKED_ONLY | FOR_EFFECT
    assert _unused_names(path) == {name for module, name in kept if module == path.name}


def test_every_import_kept_unused_is_hooked_by_the_benchmark():
    tracer_path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooked = {(f"{module.rsplit('.', 1)[-1]}.py", name) for module, name, _, _ in tracer.HOOKS}
    assert set(HOOKED_ONLY) <= hooked


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes of ``sources`` (file name to
    source) whose names start with ``_`` and that no source reads, as a name
    or an attribute, outside their own definition."""
    def reads(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))

    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = sum((reads(tree) for tree in trees.values()), Counter())
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and not node.name.endswith("__") and read[node.name] == reads(node)[node.name]]


def test_the_check_finds_an_unread_private_definition():
    sources = {"a.py": "def _used(): pass\ndef _unused(): return _unused()\nclass _Kept: pass\n",
               "b.py": "import a\na._used()\n"}
    assert unread_private_definitions(sources) == ["a.py: _unused", "a.py: _Kept"]


def test_the_package_reads_every_private_definition():
    # a private helper nothing in the package calls is kept for the tests alone
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_definitions(sources) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, relative imports aside."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    return {name.split(".")[0] for name in names}


def test_the_check_finds_an_imported_module():
    source = "import os.path\nfrom dataclasses import field\nfrom . import sphere\nimport a as b\n"
    assert imported_modules(source) == {"os", "dataclasses", "a"}


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    # the records derive from `sphere.Record`: a dataclass generates and
    # compiles its methods when its module is imported, on every cold start
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_cli_import_loads_every_module_and_not_dataclasses():
    # Every module is loaded by `import vrpl.cli`, before any command runs, so
    # no command's run pays for importing one; `dataclasses` is not loaded.
    probe = "import json, sys, vrpl.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    loaded = set(json.loads(out.stdout))
    assert "dataclasses" not in loaded
    assert {f"vrpl.{p.stem}" for p in MODULES} <= loaded
