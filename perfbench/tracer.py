"""Per-layer timing by wrapping the names each ``vrpl`` module looks up.

``vrpl`` modules call each other through module globals (``cli`` calls
``predict_all``, ``leakage`` calls ``qoe``, ``qoe`` calls
``cap_overlap_area``), so replacing those globals times every call across a
layer boundary without editing the program.  Hot scalar calls (hundreds of
thousands per pass) are not stored as spans: each (caller layer, callee)
pair keeps a call count, an inclusive time and a self time, where self time
is the call's duration minus that of the wrapped calls it made.  Self times
over all layers therefore add up to the time spent inside the root hook.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

#: Counter hook: (counters, args, result) -> None, run inside the callee's interval.
Work = Callable[[dict, tuple, object], None]


def _count_rows(key: str) -> Work:
    def work(counters, args, result):
        counters[key] += sum(len(trace) for trace in result)
    return work


def _count_inversions(counters, args, result):
    counters["leakage.inversions"] += result.kind.name == "EXACT"


def _count_vec(counters, args, result):
    counters["sphere.overlap_vec_elems"] += result.size


def _count_pairs(counters, args, result):
    counters["aggregate.pairs"] += len(args[0]) * len(result)


def _count_errors(counters, args, result):
    counters["traces.error_samples"] += len(result)


def _count_mc(counters, args, result):
    counters["resources.mc_samples"] += args[1]


def _count_table(counters, args, result):
    counters["tables.rows"] += len(args[2])


#: (module, global name, layer, counter).  The layer names the module the
#: callee belongs to; ``cli.main`` is the root every pass enters through.
HOOKS: list[tuple[str, str, str, Work | None]] = [
    ("vrpl.cli", "main", "cli", None),
    ("vrpl.cli", "load_config", "config", None),
    ("vrpl.cli", "resolve_scenario", "config", None),
    ("vrpl.cli", "leak_prob_from_error", "leakage", None),
    ("vrpl.cli", "leak_prob_from_qoe", "leakage", None),
    ("vrpl.leakage", "infer_error_from_qoe", "leakage", _count_inversions),
    ("vrpl.cli", "qoe", "qoe", None),
    ("vrpl.cli", "classify", "qoe", None),
    ("vrpl.leakage", "qoe", "qoe", None),
    ("vrpl.qoe", "cap_overlap_area", "sphere", None),
    ("vrpl.aggregate", "cap_overlap_area_vec", "sphere.vec", _count_vec),
    ("vrpl.cli", "build_report", "aggregate.report", None),
    ("vrpl.aggregate", "average_leakage_sweep", "aggregate.sweep", _count_pairs),
    ("vrpl.cli", "generate_synthetic_traces", "traces.synth", _count_rows("traces.samples_generated")),
    ("vrpl.cli", "load_traces", "traces.load", _count_rows("traces.rows_read")),
    ("vrpl.cli", "predict_all", "traces.predict", _count_errors),
    ("vrpl.cli", "write_csv", "tables", _count_table),
    ("vrpl.cli", "write_json", "tables", None),
    ("vrpl.cli", "mc_avg_rate", "resources", _count_mc),
]


class Tracer:
    """Wraps hooked names for the lifetime of a ``with`` block."""

    def __init__(self, hooks=HOOKS, keep: tuple[str, ...] = ()):
        self.hooks = hooks
        #: (caller layer, callee) -> [calls, inclusive s, self s]
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = defaultdict(int)
        #: Results of the callees named in ``keep``, by callee name.
        self.kept: dict[str, object] = {}
        self._keep = keep
        self.unhooked: list[str] = []
        self._stack = [["harness", 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.unhooked = []
        for module_name, name, layer, work in self.hooks:
            module = importlib.import_module(module_name)
            fn = getattr(module, name, None)
            if not callable(fn):
                self.unhooked.append(f"{module_name}.{name}")
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, name, layer, work))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str, work: Work | None):
        stack, stats, counters, clock = self._stack, self.stats, self.counters, time.perf_counter
        kept = self.kept if name in self._keep else None

        def wrapper(*args, **kwargs):
            caller = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    work(counters, args, result)
                if kept is not None:
                    kept[name] = result
            finally:
                dt = clock() - t0
                stack.pop()
                caller[1] += dt
                key = (caller[0], name)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` the benchmark spent inside the current call out of its self time."""
        self._stack[-1][1] += seconds

    def layer_of(self, name: str) -> str | None:
        for _, hook_name, layer, _ in self.hooks:
            if hook_name == name:
                return layer
        return None

    def self_s(self, layer: str) -> float:
        """Self time of every callee in a layer."""
        return sum(e[2] for (_, name), e in self.stats.items() if self.layer_of(name) == layer)

    def calls_into(self, layer: str) -> int:
        """Calls into a layer from other layers."""
        return sum(e[0] for (caller, name), e in self.stats.items()
                   if self.layer_of(name) == layer and caller != layer)

    def calls(self, caller: str, name: str) -> int:
        entry = self.stats.get((caller, name))
        return entry[0] if entry else 0
