"""Record ``reference.json``: digests of every workload's outputs at the default seed.

Run from the root of a checkout, only at a commit whose outputs are the
accepted reference::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if not (run.SRC / "vrpl" / "cli.py").is_file():
        print(f"record_reference: no vrpl sources under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(name, workloads.DEFAULT_SEED)
        bench.run_pass(bench.ref_inputs, "warmup")
        if bench.failed:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        files = [f for inv in bench.ref_inputs.invocations for f in inv.outputs]
        reference[name] = checks.digest_outputs(bench.work / "warmup", files)
    run.shutil.rmtree(run.WORK, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
