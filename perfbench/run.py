"""Benchmark of the ``vrpl`` CLI on three seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analytic-grid --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Every pass calls ``vrpl.cli.main`` in this process, one thread, with
``VRPL_THREADS`` unset and BLAS/OpenMP pinned to one thread.  A run makes

1. (``--trace 0``) ``setup_s``: fresh interpreters timing ``import vrpl.cli``,
   scaled to the reference host speed;
2. a warm-up pass on the default seed's inputs, whose outputs must match
   ``reference.json``;
3. (``--trace 0``) ``peak_rss_mib``: one pass in a fresh interpreter, which
   reports how far the pass raised its peak resident set size above the
   peak after ``import vrpl.cli``;
4. warm passes on ``--seed``'s inputs within ``--seconds`` (at least
   ``MIN_PASSES``), timed without tracing but with ``speed.py``'s host-speed
   probe; ``norm_wall_s`` is the median of their wall times scaled to the
   probe's reference speed.  Every pass's outputs are checked, and a single
   hook keeps ``predict_all``'s result for the input properties;
5. (``--trace 1``) one more pass with every layer hook of ``tracer.py``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  An attempt is one CLI call; it fails on a non-zero exit or
on any failed output check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
SETUP_SAMPLES = 15
#: Allowed gap between the traced pass's wall time and its summed self times.
SELF_SUM_TOL = 0.02
#: ``import vrpl.cli`` in a fresh interpreter, scaled to the reference host
#: speed like a pass.  ``speed`` imports nothing that ``vrpl`` would.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = ['src', 'perfbench']
from speed import SpeedProbe
with SpeedProbe(period=float(sys.argv[1])) as probe:
    t = time.perf_counter()
    import vrpl.cli
    wall = time.perf_counter() - t
print(probe.scaled(wall))
"""
#: Probe period while importing, which takes about 0.1 s.
SETUP_PERIOD_S = 0.01
#: Peak RSS is read from VmHWM: ``ru_maxrss`` would carry the parent's peak
#: across the spawn.
MEMORY_PROBE = """
import contextlib, io, json, sys
def hwm_kib():
    with open('/proc/self/status') as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))
sys.path.insert(0, 'src')
import vrpl.cli
base = hwm_kib()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [vrpl.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "grew_kib": hwm_kib() - base}))
"""

#: Per-layer metric -> (unit, hooks it needs).  Read as "unhooked" when a
#: hook is missing, instead of a silent zero.
LAYER_METRICS = {
    "leakage.calls": ("count", ("leak_prob_from_error", "leak_prob_from_qoe")),
    "leakage.self_s": ("s", ("leak_prob_from_error", "leak_prob_from_qoe", "infer_error_from_qoe")),
    "leakage.inversions": ("count", ("infer_error_from_qoe",)),
    "leakage.qoe_evals_per_inversion": ("ratio", ("infer_error_from_qoe", "qoe")),
    "qoe.calls": ("count", ("qoe", "classify")),
    "qoe.self_s": ("s", ("qoe", "classify")),
    "sphere.overlap_calls": ("count", ("cap_overlap_area",)),
    "sphere.overlap_self_s": ("s", ("cap_overlap_area",)),
    "sphere.overlap_vec_elems": ("count", ("cap_overlap_area_vec",)),
    "sphere.overlap_vec_s": ("s", ("cap_overlap_area_vec",)),
    "aggregate.sweep_s": ("s", ("average_leakage_sweep",)),
    "aggregate.pairs": ("count", ("average_leakage_sweep",)),
    "aggregate.ns_per_pair": ("ns", ("average_leakage_sweep", "cap_overlap_area_vec")),
    "aggregate.partial_share": ("ratio", ("average_leakage_sweep", "cap_overlap_area_vec")),
    "aggregate.report_s": ("s", ("build_report",)),
    "traces.synth_s": ("s", ("generate_synthetic_traces",)),
    "traces.samples_generated": ("count", ("generate_synthetic_traces",)),
    "traces.predict_s": ("s", ("predict_all",)),
    "traces.error_samples": ("count", ("predict_all",)),
    "traces.load_s": ("s", ("load_traces",)),
    "traces.rows_read": ("count", ("load_traces",)),
    "tables.write_s": ("s", ("write_csv", "write_json")),
    "tables.rows": ("count", ("write_csv",)),
    "tables.bytes": ("bytes", ()),
    "config.resolve_s": ("s", ("load_config", "resolve_scenario")),
    "resources.mc_s": ("s", ("mc_avg_rate",)),
    "resources.mc_samples": ("count", ("mc_avg_rate",)),
    "cli.self_s": ("s", ("main",)),
    "trace.wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.self_sum_share": ("ratio", ()),
    "trace.unhooked": ("count", ()),
}


def pin_environment() -> None:
    """One thread everywhere; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("VRPL_THREADS", None)


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "VRPL_THREADS": os.environ.get("VRPL_THREADS", "unset"),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup() -> list[float]:
    """``import vrpl.cli`` in fresh interpreters; the first (bytecode compile) is dropped."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, repr(SETUP_PERIOD_S)], cwd=ROOT,
                             env=os.environ, capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(out.stdout.strip()))
    return samples


class Bench:
    """One run of one workload: passes, checks and their tallies."""

    def __init__(self, name: str, seed: int, size: str = "full", work: Path = WORK):
        import workloads

        self.name = name
        self.work = work / name
        shutil.rmtree(self.work, ignore_errors=True)
        make = workloads.WORKLOADS[name]
        (self.work / "ref").mkdir(parents=True)
        (self.work / "run").mkdir(parents=True)
        self.ref_inputs = make(self.work / "ref", workloads.DEFAULT_SEED, size)
        # the CLI takes seeds in [0, 2**31)
        self.inputs = make(self.work / "run", seed % 2**31, size)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _argvs(self, inputs, tag: str) -> tuple[Path, list[list[str]]]:
        out = self.work / tag
        out.mkdir(exist_ok=True)
        return out, [list(inv.argv) + ["--out", str(out)] for inv in inputs.invocations]

    def run_pass(self, inputs, tag: str, around=(), reference: dict | None = None) -> float:
        """Every invocation once, in this process, inside the ``around`` contexts;
        returns the wall time of the CLI calls."""
        import vrpl.cli as cli

        out, argvs = self._argvs(inputs, tag)
        codes: list[object] = []
        gc.collect()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            for context in around:
                stack.enter_context(context)
            t0 = time.perf_counter()
            for argv in argvs:
                try:
                    codes.append(cli.main(argv))
                except (Exception, SystemExit):
                    codes.append(traceback.format_exc())
            wall = time.perf_counter() - t0
        self._tally(inputs, tag, out, codes, reference)
        return wall

    def memory_pass(self, inputs, tag: str) -> int:
        """Every invocation once in a fresh interpreter; returns its peak RSS growth in KiB."""
        out, argvs = self._argvs(inputs, tag)
        proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE, json.dumps(argvs)], cwd=ROOT,
                              env=os.environ, capture_output=True, text=True, timeout=600)
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            codes, grew = report["codes"], report["grew_kib"]
        except (IndexError, ValueError, KeyError):
            codes, grew = [f"child exit {proc.returncode}: {proc.stderr[-500:]}"] * len(argvs), 0
        self._tally(inputs, tag, out, codes, None)
        return grew

    def _tally(self, inputs, tag: str, out: Path, codes: list, reference: dict | None) -> None:
        for inv, code in zip(inputs.invocations, codes):
            self.attempted += 1
            problems = [f"exit {code!r}"] if code != 0 else self._check(inv, out, reference)
            if problems:
                self.failed += 1
                self.problems += [f"{self.name} {tag} {inv.argv[0]}: {p}" for p in problems]

    @staticmethod
    def _check(inv, out: Path, reference: dict | None) -> list[str]:
        import checks

        try:
            problems = inv.check(out)
            if reference is not None:
                problems += checks.compare_outputs(out, list(inv.outputs), reference)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return problems

    def output_bytes(self, tag: str) -> int:
        return sum(p.stat().st_size for p in (self.work / tag).iterdir() if p.is_file())


def error_quantiles(result) -> dict:
    import numpy as np

    try:
        errors = np.asarray([getattr(e, "error", e) for e in result], dtype=float)
    except (TypeError, ValueError):
        return {"unavailable": type(result).__name__}
    qs = np.quantile(errors, [0.1, 0.25, 0.5, 0.75, 0.9])
    return {f"p{int(q * 100)}": float(v) for q, v in zip((0.1, 0.25, 0.5, 0.75, 0.9), qs)}


def input_properties(bench: Bench, kept: dict) -> dict:
    import workloads

    props = dict(bench.inputs.properties)
    out = bench.work / "timed"
    if bench.name == "analytic-grid":
        header, rows = workloads.read_table(out / "leakage_sweep.csv")
        cases = workloads.column(header, rows, "case")
        props["case_shares"] = {c: cases.count(c) / len(cases) for c in sorted(set(cases))}
        props["partial_share"] = props["case_shares"].get("remaining", 0.0)
    else:
        props["partial_share"] = workloads.partial_share(out)
        if "predict_all" in kept:
            props["error_quantiles_rad"] = error_quantiles(kept["predict_all"])
    return props


def layer_metrics(tracer, bench: Bench, traced_wall: float, overhead: float) -> dict:
    """``traced_wall`` excludes the speed probes; ``overhead`` is at the reference host speed."""
    c = tracer.counters
    inversions = c["leakage.inversions"]
    pairs = c["aggregate.pairs"]
    sweep_s = tracer.self_s("aggregate.sweep")
    vec_s = tracer.self_s("sphere.vec")
    self_total = sum(entry[2] for entry in tracer.stats.values())
    values = {
        "leakage.calls": tracer.calls_into("leakage"),
        "leakage.self_s": tracer.self_s("leakage"),
        "leakage.inversions": inversions,
        "leakage.qoe_evals_per_inversion": tracer.calls("leakage", "qoe") / inversions if inversions else 0.0,
        "qoe.calls": tracer.calls_into("qoe"),
        "qoe.self_s": tracer.self_s("qoe"),
        "sphere.overlap_calls": tracer.calls_into("sphere"),
        "sphere.overlap_self_s": tracer.self_s("sphere"),
        "sphere.overlap_vec_elems": c["sphere.overlap_vec_elems"],
        "sphere.overlap_vec_s": vec_s,
        "aggregate.sweep_s": sweep_s,
        "aggregate.pairs": pairs,
        "aggregate.ns_per_pair": (sweep_s + vec_s) / pairs * 1e9 if pairs else 0.0,
        "aggregate.partial_share": c["sphere.overlap_vec_elems"] / pairs if pairs else 0.0,
        "aggregate.report_s": tracer.self_s("aggregate.report"),
        "traces.synth_s": tracer.self_s("traces.synth"),
        "traces.samples_generated": c["traces.samples_generated"],
        "traces.predict_s": tracer.self_s("traces.predict"),
        "traces.error_samples": c["traces.error_samples"],
        "traces.load_s": tracer.self_s("traces.load"),
        "traces.rows_read": c["traces.rows_read"],
        "tables.write_s": tracer.self_s("tables"),
        "tables.rows": c["tables.rows"],
        "tables.bytes": bench.output_bytes("traced"),
        "config.resolve_s": tracer.self_s("config"),
        "resources.mc_s": tracer.self_s("resources"),
        "resources.mc_samples": c["resources.mc_samples"],
        "cli.self_s": tracer.self_s("cli"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.self_sum_share": self_total / traced_wall,
        "trace.unhooked": len(tracer.unhooked),
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}


def unhooked_metrics(tracer) -> list[str]:
    missing = {name.rsplit(".", 1)[1] for name in tracer.unhooked}
    return [m for m, (_, hooks) in LAYER_METRICS.items() if missing.intersection(hooks)]


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str = "full",
                 work: Path = WORK) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and its human-readable lines."""
    from speed import SpeedProbe
    from tracer import HOOKS, Tracer

    bench = Bench(name, seed, size, work)
    lines = [f"perfbench {name} seed={seed} trace={trace} size={size}",
             f"env {json.dumps(environment(), sort_keys=True)}"]
    setup = measure_setup() if trace == 0 else []

    reference = None
    if size == "full":
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[name]
    bench.run_pass(bench.ref_inputs, "warmup", reference=reference)
    grew_kib = bench.memory_pass(bench.inputs, "memory") if trace == 0 else 0

    keeper = Tracer([h for h in HOOKS if h[1] == "predict_all"], keep=("predict_all",))
    walls: list[float] = []
    scaled: list[float] = []
    speeds: list[float] = []
    started = time.perf_counter()
    # Stop before a pass that, at the mean pass time so far, would end past ``seconds``.
    while len(walls) < MIN_PASSES or (
            (time.perf_counter() - started) * (len(walls) + 1) / len(walls) <= seconds):
        probe = SpeedProbe()
        wall = bench.run_pass(bench.inputs, "timed", around=(keeper, probe))
        walls.append(wall - probe.spent)
        scaled.append(probe.scaled(wall))
        speeds.append(probe.speed)
    kept = keeper.kept
    q1, median, q3 = statistics.quantiles(walls, n=4)
    scaled_q1, scaled_median, scaled_q3 = statistics.quantiles(scaled, n=4)
    summary = f"median {median:.4g} s of {len(walls)} warm passes; q1 {q1:.4g} s, q3 {q3:.4g} s"
    lines.append("passes_s " + " ".join(f"{w:.4f}" for w in walls))
    lines.append("host_speed " + " ".join(f"{v:.4f}" for v in speeds))
    lines.append("norm_passes_s " + " ".join(f"{v:.4f}" for v in scaled))

    if trace == 0:
        setup_q1, setup_s, setup_q3 = statistics.quantiles(setup, n=4)
        metrics = {
            # Neighbours on a shared host change its speed twofold within
            # seconds; speed.py scales each pass to a fixed reference speed.
            "norm_wall_s": ({"value": scaled_median, "unit": "s"},
                            f"median of {len(scaled)} warm passes at the reference host speed; "
                            f"q1 {scaled_q1:.4g} s, q3 {scaled_q3:.4g} s; unscaled {summary}"),
            "items_per_s": ({"value": bench.inputs.items / scaled_median, "unit": "1/s"},
                            f"{bench.inputs.items} items per pass / norm_wall_s"),
            "peak_rss_mib": ({"value": grew_kib / 1024, "unit": "MiB"},
                             "peak RSS growth of 1 untimed pass in a fresh interpreter"),
            "success_rate": ({"value": (bench.attempted - bench.failed) / bench.attempted,
                              "unit": "ratio"},
                             f"error_rate {bench.failed / bench.attempted:.4g}: "
                             f"{bench.failed} failed of {bench.attempted} CLI calls"),
            "setup_s": ({"value": setup_s, "unit": "s"},
                        f"median of {len(setup)} fresh-interpreter imports of vrpl.cli at the "
                        f"reference host speed; q1 {setup_q1:.4g} s, q3 {setup_q3:.4g} s"),
        }
    else:
        tracer = Tracer(keep=("predict_all",))
        probe = SpeedProbe(on_sample=tracer.exclude)
        traced_wall = bench.run_pass(bench.inputs, "traced", around=(tracer, probe))
        unhooked = unhooked_metrics(tracer)
        layer = layer_metrics(tracer, bench, traced_wall - probe.spent,
                              probe.scaled(traced_wall) - scaled_median)
        notes = {m: "unhooked" for m in unhooked}
        share = layer["trace.self_sum_share"]["value"]
        notes["trace.self_sum_share"] = (f"summed layer self times over trace.wall_s; "
                                         f"{'within' if abs(share - 1) <= SELF_SUM_TOL else 'OUTSIDE'} "
                                         f"the {SELF_SUM_TOL:.0%} tolerance")
        notes["trace.overhead_s"] = ("traced pass minus norm_wall_s, both at the reference host "
                                     f"speed; norm_wall_s is the median of {len(scaled)} warm passes")
        metrics = {m: (v, notes.get(m, "")) for m, v in layer.items()}
        for name_ in tracer.unhooked:
            lines.append(f"unhooked {name_}")

    lines.append(f"inputs {json.dumps(input_properties(bench, kept), sort_keys=True)}")
    for metric, (entry, note) in metrics.items():
        shown = "unhooked" if note == "unhooked" else f"{entry['value']:.6g} {entry['unit']}"
        lines.append(f"metric {metric} = {shown}" + (f"  ({note})" if note and note != "unhooked" else ""))
    lines += [f"problem {p}" for p in bench.problems[:20]]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: entry for m, (entry, _) in metrics.items()},
    }
    shutil.rmtree(bench.work, ignore_errors=True)
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analytic-grid", "synthetic-population", "csv-population", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vrpl" / "cli.py").is_file():
        print(f"perfbench: no vrpl sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import vrpl

    if Path(vrpl.__file__).resolve().parent != SRC / "vrpl":
        print(f"perfbench: imported vrpl from {vrpl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = (["analytic-grid", "synthetic-population", "csv-population"]
             if args.workload == "all" else [args.workload])
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
