"""The benchmark's layer hooks name callables of the program.

`perfbench/tracer.py` times each layer by replacing the module globals its
``HOOKS`` list names.  A name the program no longer defines is skipped, and
its layer then reads 0 in every traced pass, with no failure.  So every
hooked name must resolve to a callable, but for the stale hooks below.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Hooked names the program no longer defines, each with its reason.  An
#: entry goes once the benchmark stops hooking the name.
STALE_HOOKS = {
    "vrpl.aggregate.cap_overlap_area_vec": (
        "the population sweep sums its lens with `sphere._half_lens` instead; "
        "moving the hook is a change to the benchmark"
    ),
}


def _hooked_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, _, _ in tracer.HOOKS]


def test_every_perfbench_hook_resolves_to_a_callable():
    hooks = _hooked_names()
    unresolved = {
        f"{module}.{name}"
        for module, name in hooks
        if not callable(getattr(importlib.import_module(module), name, None))
    }
    assert len(hooks) > len(STALE_HOOKS)
    assert unresolved == set(STALE_HOOKS)
