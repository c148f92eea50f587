"""The contracts of the `vrpl` commands, one row each; a new refusal is one more row.

A row gives a command line, its config document, the exit code, how stderr
starts (a refusal's field path) and a check that may rerun the row with more
flags or config fields.  Rows run in-process through `vrpl.cli.main` under
the ``error::RuntimeWarning`` filter of ``pyproject.toml``; no run leaves a
``Traceback`` or numpy scalar on stderr, and ``--out`` holds just the
command's `_FILES` on exit 0 and does not exist otherwise."""

import itertools
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from vrpl.cli import main

from support import CHANNEL, RESOURCES, TILE, read_csv, write_drifting_csv

#: What each command writes to ``--out`` on exit 0, ``fmt`` being ``--format``'s.
_FILES = {"sweep-error": ["error_sweep.{fmt}"], "sweep-qoe": ["qoe_sweep.{fmt}"], "validate": [],
          "sweep-leakage": ["leakage_sweep.{fmt}"], "resource": ["resource_summary.json"],
          "trace": ["aggregate_sweep.{fmt}", "figures.csv", "report.json"]}


class Row(NamedTuple):
    argv: str  # the command and its flags but --config and --out
    doc: dict | None = None
    code: int = 0
    err: str = ""  # how stderr starts, ``{csv}`` being the trace file; on exit 0 stderr is empty
    check: Callable | None = None  # true of run, where run(*flags, **fields) gives the --out of a run
    traces: Callable | None = None  # writes the file that ``traces_csv`` names, given its path


def _json(out: Path, name: str):
    return json.loads((out / name).read_text(encoding="utf-8"))


def _rerun(run) -> bool:
    a, b = ({p.name: p.read_bytes() for p in run().iterdir()} for _ in range(2))
    return a == b


def _cells(outer: int, inner: int) -> Callable:
    """Check: a sweep's table as CSV and as JSON has the same cells, outer-major, errors inner."""
    def check(run) -> bool:
        head, rows = read_csv(next(run("--format", "csv").iterdir()))
        doc = json.loads(next(run("--format", "json").iterdir()).read_text(encoding="utf-8"))
        assert head == doc["columns"] and len(rows) == len(doc["rows"]) == outer * inner, len(rows)
        for r, s in zip(rows, doc["rows"]):
            assert [c if isinstance(j, str) else float(c) for c, j in zip(r, s)] == s, (r, s)
        e = head.index("e_rad")
        return len({r[1 - e] for r in rows}) == outer and len({r[e] for r in rows}) == inner and all(
            r[1 - e] == rows[i - i % inner][1 - e] and r[e] == rows[i % inner][e] for i, r in enumerate(rows))
    return check


def _epsilon_moves_leakage_only(run) -> bool:
    """Only the sweep's odds stage reads epsilon: case ratios and mean QoE keep their bits."""
    a, b = (dict(zip(head, zip(*rows))) for head, rows in (
        read_csv(run(epsilon_frac_of_fov=f) / "aggregate_sweep.csv") for f in (0.2, 0.6)))
    same = [k for k in a if k.startswith("ratio_")] + ["mean_qoe"]
    return len(same) > 1 and all(a[k] == b[k] for k in same) and a["leak_total"] != b["leak_total"]


def _case_counts(out: Path) -> list:
    return [len(p["case_ratios"]) for p in _json(out, "report.json")["points"]]


def _samples(n: int) -> Callable:
    return lambda run: _json(run(), "report.json")["n_samples"] == n


def _walk(kappa: float, n_traces: int, duration_s: float, radii, rate_hz: float = 5.0, **doc) -> dict:
    """Random walks swept at the r_sv values ``radii``, or at that many from 0 to pi."""
    walk = {"model": "random_walk", "kappa": kappa, "n_traces": n_traces, "duration_s": duration_s}
    grid = {"lo": 0.0, "hi": math.pi, "n": radii} if isinstance(radii, int) else radii
    return {"synthetic": {**walk, "rate_hz": rate_hz}, "grids": {"r_sv": grid}, **doc}


def _trace_file(rows: list, eol: str = "\n") -> Callable:
    def write(path: Path) -> None:
        with path.open("w", newline="") as fh:
            fh.write(eol.join(["user_id,video_id,timestamp_s,theta_rad,phi_rad", *rows]) + eol)
    return write


_CSV = {"grids": {"r_sv": [0.5, 1.0]}}
_A_4HZ = [f"a,v,{i / 4},{0.01 * i},0.0" for i in range(48)]  # a 4 Hz trace of 12 s
_SUMMARY = "resource_summary.json"
_BENCH_CHANNEL = {**CHANNEL, "bandwidth": 2e7, "tx_power": 1.0, "distance": 100.0,
                  "pathloss_exp": 3.0, "noise_power": 1e-9}

CONTRACTS = {
    "sweep-leakage-5x5": Row("sweep-leakage --grid error=0:3.14159:5,r_sv=0:3.14159:5", check=_cells(5, 5)),
    "sweep-error-5x5": Row("sweep-error --grid error=0:3.14159:5,epsilon=0:0.8:5", check=_cells(5, 5)),
    # 3,721 rows in two 2,048-row chunks, and the axes are written once per table
    "sweep-qoe-61x61": Row("sweep-qoe --grid error=0:3.14159:61,r_sv=0:3.14159:61", check=_cells(61, 61)),
    # two kernel blocks of at most 32,768 rows
    "sweep-leakage-200x200": Row("sweep-leakage --grid error=0:3.14159:200,r_sv=0:3.14159:200",
                                 check=_cells(200, 200)),
    # the second and third kernel blocks begin mid-row; the 30,000-point error axis is a float column
    "sweep-qoe-3x30000": Row("sweep-qoe --grid r_sv=0.5:2.5:3,error=0:3.14159:30000",
                             check=_cells(3, 30_000)),
    # the QoE inversion at 90 and 1 degree, where its Newton slope divides by sin a_sv, 0 at a tangency
    **{f"sweep-leakage-fov{fov}": Row("sweep-leakage --grid error=0:3.14159:41,r_sv=0:3.14159:41",
                                      {"r_fov_deg": fov}) for fov in (90, 1)},
    # the default grid at 1 degree bisects the roots that fail their certification (the self-check's 2)
    "sweep-leakage-fov1-default": Row("sweep-leakage", {"r_fov_deg": 1}),
    "resource-channel": Row("resource", {"resources": RESOURCES, "tile": TILE, "channel": CHANNEL},
                            check=lambda run: "r_sv_rad_with_channel_rate" in _json(run(), _SUMMARY)),
    # the benchmark's scenario pins the Monte Carlo stream, drawn in blocks of 16,384 samples
    "resource-seed-1": Row("resource", {"seed": 1, "resources": RESOURCES, "channel": _BENCH_CHANNEL,
                                        "tile": {**TILE, "bits_per_pixel": 24, "compression_ratio": 10.0}},
                           check=lambda run: (_json(run(), _SUMMARY)["channel_avg_rate_bit_s"]
                                              == 242727584.516)),
    # a 4 Hz walk runs under the default windows, whose sample counts follow the trace rate
    "trace-4hz-epsilon": Row("trace", _walk(100.0, 3, 20.0, [0.5, 1.0], 4.0),
                             check=_epsilon_moves_leakage_only),
    # the degenerate radii 0 and pi report their own case only; the sweep table keeps all seven
    "trace-degenerate-radii": Row(
        "trace --format json", _walk(100.0, 2, 10.0, [0.0, 0.5, math.pi]),
        check=lambda run: _case_counts(out := run()) == [1, 5, 1] and 7 == sum(
            c.startswith("ratio_") for c in _json(out, "aggregate_sweep.json")["columns"])),
    # r_sv exactly 0, r_fov, pi - r_fov and pi: the cap-zone odds at zone radius 0 divide by 0
    "trace-zone-radius-0": Row(
        "trace", _walk(100.0, 2, 10.0, [0.0, 0.8, math.pi - 0.8, math.pi], r_fov_rad=0.8),
        check=lambda run: _case_counts(run()) == [1, 5, 5, 1]),
    # the lens takes its arccos of unclamped arguments: 1% partial overlap at 1 degree, 62% at 90
    **{f"trace-lens-fov{fov}": Row("trace", _walk(2.0, 20, 20.0, 61, r_fov_deg=fov)) for fov in (1, 90)},
    # and redoes clamped a block where one rounds past ±1, as at r_sv = r_fov = 0.15 and an error of 1.49e-8
    "trace-lens-past-1": Row("trace", {"r_fov_rad": 0.15, "grids": {"r_sv": [0.15]}},
                             traces=_trace_file([f"u,v,{i / 5},{i * 1e-9!r},0.0" for i in range(20)])),
    # reruns byte for byte: random walks at extreme concentrations, 149 steps across two 64-step blocks
    **{f"trace-walk-kappa-{k}": Row("trace", _walk(float(k), 7, 30.0, 31), check=_rerun)
       for k in ("0.01", "1e6")},
    # and 120 drifting traces, 34,800 errors, whose partial-overlap runs cross 16,384-error lens blocks
    "trace-drift-120": Row("trace", {"predictor": "great_circle_extrapolation",
                                     "grids": {"r_sv": {"lo": 0.0, "hi": math.pi, "n": 361}}},
                           check=_rerun, traces=lambda path: write_drifting_csv(path, 120, 60.0, seed=3)),
    # CRLF endings and a quoted key: the block parse refuses the file and the row loop reads it
    "crlf-quoted-key": Row("trace", _CSV, check=_samples(10), traces=_trace_file(
        [f'"u 1",v,{i / 5},{0.01 * i},0.0' for i in range(20)], "\r\n")),
    # a 4 Hz trace of 12 s and a 5 Hz one of 9 s are two groups: 10 segments of 4 and 7 of 5
    "two-rate-groups": Row("trace", _CSV, check=_samples(10 * 4 + 7 * 5), traces=_trace_file(
        _A_4HZ + [f"b,v,{i / 5},0.0,{0.01 * i}" for i in range(45)])),
    # a second trace too short for one predicted segment (14 samples at 5 Hz, 15 needed)
    "too-short": Row("trace", _CSV, 3, "data error: trace b/v has 14 samples", traces=_trace_file(
        _A_4HZ + [f"b,v,{i / 5},0.0,{0.01 * i}" for i in range(14)])),
    # a bad latitude on line 5 names the line
    "latitude-line-5": Row("trace", _CSV, 3, "data error: {csv}:5: ", traces=_trace_file(
        [f"u,v,{i / 5},0.0,{2.0 if i == 3 else 0.0}" for i in range(20)])),
    # a second trace that skips a sample on line 32 names the line, its spacings as plain floats
    "uneven-line-32": Row("trace", _CSV, 3, "data error: {csv}:32: trace b/v: non-uniform sample spacing",
                          traces=_trace_file([f"a,v,{i / 5},0.0,0.0" for i in range(20)]
                                             + [f"b,v,{(i + (i >= 10)) / 5},0.0,0.0" for i in range(20)])),
    # a blank line, then a first row longer than a block: the first block holds no row
    "blank-then-long-row": Row("trace", _CSV, check=_samples(10), traces=_trace_file(
        [""] + [f"{'u' * 70000},v,{i / 5},0.0,0.0" for i in range(20)])),
    # a block of blank lines before the first row
    "blank-block": Row("trace", _CSV, check=_samples(10), traces=_trace_file(
        [""] * 70000 + [f"u,v,{i / 5},0.0,0.0" for i in range(20)])),
    # a field over the csv module's 131,072-character limit on line 5 names the line
    "over-long-field-line-5": Row("trace", _CSV, 3, "data error: {csv}:5: ", traces=_trace_file(
        [("u" * 140000 if i == 3 else "u") + f",v,{i / 5},0.0,0.0" for i in range(20)])),
}


@pytest.mark.parametrize("name", list(CONTRACTS))
def test_cli_contract(tmp_path, capsys, name):
    row, runs, trace_csv = CONTRACTS[name], itertools.count(), tmp_path / "traces.csv"
    if row.traces:
        row.traces(trace_csv)

    def run(*flags, **fields) -> Path:
        out = tmp_path / f"out{next(runs)}"
        argv = [*row.argv.split(), *flags, "--out", str(out)]
        if row.doc is not None:
            doc = {**row.doc, **fields, **({"traces_csv": str(trace_csv)} if row.traces else {})}
            out.with_suffix(".json").write_text(json.dumps(doc), encoding="utf-8")
            argv += ["--config", str(out.with_suffix(".json"))]
        code, err = main(argv), capsys.readouterr().err
        assert code == row.code, err
        assert err.startswith(row.err.format(csv=trace_csv)) if code else err == "", err
        assert "Traceback" not in err and "np.float64" not in err, err
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        files = [f.format(fmt=fmt) for f in _FILES[argv[0]]] if code == 0 else []
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else []) == sorted(files)
        return out

    assert row.check(run) if row.check else run()
