"""Fast self-test of the benchmark harness at tiny sizes (a few seconds).

Run from the root of a checkout::

    python3 perfbench/smoke.py

It runs every workload once with and once without tracing, and checks
that each metric ``BENCHMARK.json`` names is reported with its unit.  It
then shows that the output check catches a perturbed float cell and a
changed categorical cell, while a change in the 12th digit passes, and
that a hooked name missing from its module is reported as unhooked.
"""

from __future__ import annotations

import contextlib
import csv
import json
import shutil
import sys
from pathlib import Path

import run


def perturb(path: Path, column: str, row: int, change) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = change(rows[row + 1][col])
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def check_metrics(result: dict, declared: list[dict], label: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    problems = [f"{label}: {n} missing" for n in want if n not in got]
    problems += [f"{label}: {n} has unit {got[n]!r}, declared {u!r}"
                 for n, u in want.items() if n in got and got[n] != u]
    problems += [f"{label}: {n} not declared" for n in got if n not in want]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} attempts failed")
    return problems


def reference_self_test(work: Path) -> list[str]:
    import checks

    bench = run.Bench("analytic-grid", 7, size="tiny", work=work)
    bench.run_pass(bench.inputs, "timed")
    out = bench.work / "timed"
    files = [f for inv in bench.inputs.invocations for f in inv.outputs]
    ref = checks.digest_outputs(out, files)
    problems = [f"unperturbed outputs fail: {p}" for p in checks.compare_outputs(out, files, ref)]

    cases = [
        ("qoe 1e-6 off", "qoe_sweep.csv", "qoe", 40, lambda v: repr(float(v) + 1e-6), True),
        ("zone_kind changed", "leakage_sweep.csv", "zone_kind", 40, lambda v: "cap" if v != "cap" else "circle", True),
        ("leak_prob 12th digit", "error_sweep.csv", "leak_prob", 40, lambda v: repr(float(v) * (1 + 1e-12)), False),
    ]
    for label, name, column, row, change, should_fail in cases:
        copy = bench.work / "perturbed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        perturb(copy / name, column, row, change)
        found = checks.compare_outputs(copy, files, ref)
        if bool(found) != should_fail:
            problems.append(f"{label}: check {'missed it' if should_fail else 'failed it'} ({found})")
        else:
            print(f"ok  reference check, {label}: {'caught' if should_fail else 'passed'}")
    return problems


def unhooked_self_test() -> list[str]:
    """A name moved out of a module must show up as unhooked, not as a zero."""
    import vrpl.cli
    from tracer import Tracer

    moved = vrpl.cli.predict_all
    del vrpl.cli.predict_all
    try:
        with Tracer() as tracer:
            pass
    finally:
        vrpl.cli.predict_all = moved
    if tracer.unhooked != ["vrpl.cli.predict_all"]:
        return [f"unhooked names: {tracer.unhooked!r}"]
    metrics = run.unhooked_metrics(tracer)
    if metrics != ["traces.predict_s", "traces.error_samples"]:
        return [f"metrics read as unhooked: {metrics!r}"]
    print(f"ok  a missing hook marks {metrics} unhooked")
    return []


def main() -> int:
    if not (run.SRC / "vrpl" / "cli.py").is_file():
        print(f"smoke: no vrpl sources under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import workloads

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = run.WORK / "smoke"
    problems: list[str] = []
    for name in workloads.WORKLOADS:
        for trace, metrics in ((0, declared["end_to_end"]), (1, declared["per_layer"])):
            result, _ = run.run_workload(name, 2, 0.0, trace, size="tiny", work=work)
            found = check_metrics(result, metrics, f"{name} trace={trace}")
            problems += found
            if not found:
                print(f"ok  {name} trace={trace}: {len(result['metrics'])} metrics with declared units")
    problems += reference_self_test(work)
    problems += unhooked_self_test()
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        run.WORK.rmdir()
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
