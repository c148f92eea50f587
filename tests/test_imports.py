"""What the modules of the package and of the tests import.

Every name a module imports is used in it, but for the names the benchmark
hooks there (`HOOKED_ONLY`); every name a test module imports is used in
it, but for the imports kept for their side effect (`FOR_EFFECT`).  No
linter runs on the sources, so this walks each module's syntax tree with
the standard library's `ast`.
``__init__.py`` is exempt: it imports names to re-export them.  No module
imports `dataclasses`, and ``import vrpl.cli`` loads every module.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
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
