import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vrpl

from vrpl import (
    CASES,
    AggregateReport,
    ConfigError,
    OverlapCase,
    Predictor,
    PrivacyRequirement,
    SweepTable,
    build_report,
    leakage_regions,
    parse_grid_override,
    resolve_scenario,
)
from vrpl.cli import InternalInconsistencyError, _check_report, _write_report, main
from vrpl import config
from vrpl.config import MAX_ELEMENTS, load_config
from vrpl.qoe import CASE_CODE, PARTITION_CASES
from vrpl.tables import round_floats, write_json

from support import CHANNEL, DRIFT, RESOURCES, TILE, read_csv, stage_peaks, write_drifting_csv
from test_cli_contracts import named_tests

FOV = math.radians(50.0)

# The contract rows that were this module's parametrized tests keep those tests' names and ids.
globals().update(named_tests())


# ---------------------------------------------------------------------------
# scenario resolution


def test_scenario_defaults():
    s = resolve_scenario({})
    assert s.r_fov == pytest.approx(FOV, abs=1e-15)
    assert s.epsilon == pytest.approx(0.4 * FOV, abs=1e-15)
    assert s.max_leak_prob is None
    assert s.seed == 0
    assert s.predictor == Predictor.LAST_POSITION
    assert len(s.grids["error"]) == 181
    assert s.grids["epsilon"].tolist() == [s.epsilon]
    assert len(s.grids["r_sv"]) == 181
    assert s.grids["error"][0] == 0.0
    assert s.grids["error"][-1] == pytest.approx(math.pi, abs=1e-12)


def test_scenario_unit_tags_equivalent():
    a = resolve_scenario({"r_fov_deg": 40.0, "epsilon_deg": 10.0})
    b = resolve_scenario({"r_fov_rad": math.radians(40.0), "epsilon_rad": math.radians(10.0)})
    assert a.r_fov == b.r_fov
    assert a.epsilon == b.epsilon


def test_scenario_tag_conflicts():
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_scenario({"r_fov_deg": 40.0, "r_fov_rad": 0.7})
    with pytest.raises(ConfigError, match="epsilon"):
        resolve_scenario({"epsilon_deg": 10.0, "epsilon_frac_of_fov": 0.4})


def test_scenario_epsilon_frac():
    s = resolve_scenario({"epsilon_frac_of_fov": 0.25})
    assert s.epsilon == pytest.approx(0.25 * FOV, abs=1e-15)
    with pytest.raises(ConfigError, match="epsilon_frac_of_fov"):
        resolve_scenario({"epsilon_frac_of_fov": 1.5})


def test_scenario_epsilon_bounded_by_fov():
    with pytest.raises(ConfigError, match="epsilon"):
        resolve_scenario({"r_fov_deg": 30.0, "epsilon_deg": 40.0})


def test_scenario_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="config.fov"):
        resolve_scenario({"fov": 1.0})
    with pytest.raises(ConfigError, match="config.grids.theta"):
        resolve_scenario({"grids": {"theta": {"lo": 0, "hi": 1, "n": 3}}})
    with pytest.raises(ConfigError, match="config.windowing.gap"):
        resolve_scenario({"windowing": {"gap": 1.0}})
    with pytest.raises(ConfigError, match="config.r_sv_rad: unknown field"):
        resolve_scenario({"r_sv_rad": 1.0})
    with pytest.raises(ConfigError, match="config.windowing.sample_rate: unknown field"):
        resolve_scenario({"windowing": {"sample_rate": 5.0}})
    with pytest.raises(ConfigError, match="config.grids.error.step: unknown field"):
        resolve_scenario({"grids": {"error": {"lo": 0, "hi": 1, "n": 3, "step": 9}}})
    with pytest.raises(ConfigError, match="config.grids.error.values: unknown field"):
        resolve_scenario({"grids": {"error": {"values": [0.5], "lo": 7}}})


def test_scenario_grids_are_float_arrays():
    # A range grid holds the same bits as lo + i * step taken one value at a time.
    lo, hi, n = 0.1, 3.0, 181
    s = resolve_scenario({"grids": {"r_sv": {"lo": lo, "hi": hi, "n": n}, "error": [0.5, 1]}})
    step = (hi - lo) / (n - 1)
    want = np.array([lo + i * step for i in range(n)])
    assert s.grids["r_sv"].view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for grid in s.grids.values():
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.ndim == 1
    assert s.grids["error"].tolist() == [0.5, 1.0]


def test_scenario_grid_forms():
    s = resolve_scenario({"grids": {"error": {"lo": 0.0, "hi": 1.0, "n": 5}}})
    assert s.grids["error"].tolist() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-15)
    s = resolve_scenario({"grids": {"error": [0.1, 0.2]}})
    assert s.grids["error"].tolist() == [0.1, 0.2]
    with pytest.raises(ConfigError, match="config.grids.error"):
        resolve_scenario({"grids": {"error": {"lo": 0.0, "hi": 5.0, "n": 5}}})
    # Protection radii are capped at pi/2, tighter than the other grids.
    with pytest.raises(ConfigError, match="config.grids.epsilon"):
        resolve_scenario({"grids": {"epsilon": [2.0]}})


def test_scenario_overrides_win():
    doc = {"seed": 3, "grids": {"error": [0.5]}}
    s = resolve_scenario(doc, {"seed": 7, "grids": {"error": [0.1, 0.2]}})
    assert s.seed == 7
    assert s.grids["error"].tolist() == [0.1, 0.2]


def test_scenario_windows_fit_the_synthetic_rate():
    synth = {"model": "random_walk", "kappa": 100.0, "n_traces": 2, "duration_s": 10.0}
    assert resolve_scenario({"synthetic": {**synth, "rate_hz": 4.0}}).synthetic.rate == 4.0
    # 1 s is 2.5 sample periods at 2.5 Hz
    with pytest.raises(ConfigError, match="config.windowing: t_obw 1.0 s is not a whole number"):
        resolve_scenario({"synthetic": {**synth, "rate_hz": 2.5}})


def test_scenario_source_exclusivity():
    synth = {
        "model": "random_walk",
        "kappa": 100.0,
        "n_traces": 2,
        "duration_s": 10.0,
        "rate_hz": 5.0,
    }
    with pytest.raises(ConfigError, match="only one"):
        resolve_scenario({"traces_csv": "x.csv", "synthetic": synth})
    with pytest.raises(ConfigError, match="config.tile"):
        resolve_scenario({"resources": RESOURCES})
    with pytest.raises(ConfigError, match="config.resources"):
        resolve_scenario({"tile": TILE})


def test_parse_grid_override():
    grids = parse_grid_override("error=0:1:3,epsilon=0.1:0.2:2")
    assert grids == {"error": {"lo": 0.0, "hi": 1.0, "n": 3}, "epsilon": {"lo": 0.1, "hi": 0.2, "n": 2}}
    with pytest.raises(ConfigError, match="^--grid error: given twice"):
        parse_grid_override("error=0:1:3,error=0:2:3")
    with pytest.raises(ConfigError, match="lo:hi:n"):
        parse_grid_override("error=0:1")
    with pytest.raises(ConfigError, match="name=lo"):
        parse_grid_override("garbage")
    # names and values are checked where the specs resolve
    with pytest.raises(ConfigError, match="^--grid theta: unknown grid"):
        resolve_scenario({}, {"grids": parse_grid_override("theta=0:1:3")})


_GRID_BOUNDS = {name: (0.0, config.GRIDS[name].hi) for name in config.GRIDS}


@st.composite
def _grid_specs(draw):
    name = draw(st.sampled_from(sorted(_GRID_BOUNDS)))
    lo, hi = sorted(draw(st.floats(*_GRID_BOUNDS[name])) for _ in range(2))
    return name, lo, hi, draw(st.integers(1, 4096))


@given(_grid_specs())
@settings(max_examples=300)
def test_range_grid_ends_at_hi_with_the_inner_points_of_lo_plus_i_step(spec):
    name, lo, hi, n = spec
    for doc, flags in (({"grids": {name: {"lo": lo, "hi": hi, "n": n}}}, None),
                       ({}, {"grids": parse_grid_override(f"{name}={lo!r}:{hi!r}:{n}")})):
        grid = resolve_scenario(doc, flags).grids[name]
        assert grid.size == n and grid[0] == lo and grid[-1] == (hi if n > 1 else lo)
        step = (hi - lo) / max(n - 1, 1)
        if step > 0.0 or hi == lo:
            inner = [lo + i * step for i in range(1, n - 1)]
            assert grid[1:-1].view(np.uint64).tolist() == np.array(inner).view(np.uint64).tolist()
        else:  # numpy spreads a span whose step underflows to 0 instead
            assert (np.diff(grid) >= 0.0).all()


def test_every_range_grid_up_to_5000_points_ends_at_hi():
    # lo + (n - 1) * step rounds one ulp above hi for 287 of these sizes
    # (26, 42, 51, ...), outside the grid's domain; the range ends at hi.
    his = {"error": math.pi, "r_sv": math.pi, "epsilon": math.pi / 2}
    sizes = range(1, 5001)
    for hi in set(his.values()):
        above = [n for n in sizes[1:] if (n - 1) * (hi / (n - 1)) > hi]
        assert len(above) == 287 and above[:3] == [26, 42, 51]
    for n in sizes:
        doc = {"grids": {name: {"lo": 0, "hi": hi, "n": n} for name, hi in his.items()}}
        flags = {"grids": parse_grid_override(",".join(f"{k}=0:{hi!r}:{n}" for k, hi in his.items()))}
        for scenario in (resolve_scenario(doc), resolve_scenario({}, flags)):
            for name, hi in his.items():
                grid = scenario.grids[name]
                assert grid[-1] == (hi if n > 1 else 0.0) and grid.size == n
                assert np.array_equal(grid[:-1], np.arange(n - 1) * (hi / max(n - 1, 1))), (name, n)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="top-level"):
        load_config(arr)


# ---------------------------------------------------------------------------
# CLI end to end


def _cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_cli_validate_ok(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"r_fov_deg": 50.0})
    assert main(["validate", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["r_fov_rad"] == pytest.approx(FOV, abs=1e-12)
    assert summary["predictor"] == "last_position"


def test_cli_grid_flag_repeats(capsys):
    # each --grid flag adds its grids; a name given in two flags is refused at the flag
    assert main(["validate", "--grid", "r_sv=0:1:4", "--grid", "error=0:1:3"]) == 0
    sizes = json.loads(capsys.readouterr().out)["grid_sizes"]
    assert (sizes["r_sv"], sizes["error"]) == (4, 3)
    assert main(["validate", "--grid", "r_sv=0:1:4", "--grid", "r_sv=0:1:5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --grid r_sv: given twice") and "Traceback" not in err


def test_cli_validate_unit_tag_equivalence(tmp_path, capsys):
    cfg_deg = _cfg(tmp_path, {"r_fov_deg": 50.0, "epsilon_deg": 20.0}, "deg.json")
    assert main(["validate", "--config", cfg_deg]) == 0
    out_deg = capsys.readouterr().out
    cfg_rad = _cfg(
        tmp_path,
        {"r_fov_rad": math.radians(50.0), "epsilon_rad": math.radians(20.0)},
        "rad.json",
    )
    assert main(["validate", "--config", cfg_rad]) == 0
    assert capsys.readouterr().out == out_deg


def test_cli_rejects_oversized_grid_list(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "MAX_ELEMENTS", 200)
    cfg = _cfg(tmp_path, {"grids": {"error": [0.5] * 201}})
    assert main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.grids.error: the grid gives 201 values")
    cfg = _cfg(tmp_path, {"grids": {"error": [0.5] * 200}})
    assert main(["validate", "--config", cfg]) == 0


def test_sizes_at_the_limit_pass():
    config.check_size(MAX_ELEMENTS, "config.grids", "the table")
    with pytest.raises(ConfigError, match="^config.grids: the table gives 4194305 values"):
        config.check_size(MAX_ELEMENTS + 1, "config.grids", "the table")
    # 150 samples per trace
    spec = {**DRIFT, "n_traces": MAX_ELEMENTS // 150}
    assert resolve_scenario({"synthetic": spec}).synthetic.n_traces == MAX_ELEMENTS // 150
    with pytest.raises(ConfigError, match="^config.synthetic: n_traces"):
        resolve_scenario({"synthetic": {**spec, "n_traces": MAX_ELEMENTS // 150 + 1}})


def _sweep_with(**row) -> SweepTable:
    """A consistent two-radius sweep whose second row takes the cells in ``row``."""
    remaining = CASE_CODE[OverlapCase.REMAINING]
    ratios, components = np.zeros((2, 2, len(CASES)))
    ratios[:, remaining] = 1.0
    components[:, remaining] = [0.2, row.pop("component", 0.2)]
    ratios[1, remaining] = row.pop("ratio", 1.0)
    total = np.array([0.2, row.pop("total", 0.2)])
    mean_qoe = np.array([0.5, row.pop("mean_qoe", 0.5)])
    assert not row
    return SweepTable(np.array([0.5, 1.25]), ratios, components, total, mean_qoe)


@pytest.mark.parametrize(
    "row, claim",
    [
        ({"ratio": 0.5}, "case ratios sum to 1"),
        ({"total": 0.3}, "leakage components sum to the total"),
        ({"component": 1.5, "total": 1.5}, "lie in \\[0, 1\\]"),
        ({"component": -0.25, "total": -0.25}, "lie in \\[0, 1\\]"),
        ({"mean_qoe": math.nan}, "lie in \\[0, 1\\]"),
    ],
    ids=["ratio-sum", "component-sum", "total-above-1", "total-below-0", "nan-qoe"],
)
def test_check_report_catches_corruption(row, claim):
    with pytest.raises(InternalInconsistencyError, match=f"{claim} at r_sv=1.25:"):
        _check_report(_sweep_with(**row))


def _report_oracle(report) -> dict:
    """The whole report as one document of per-radius dicts, for `write_json`."""
    points = []
    for i, r_sv in enumerate(report.sweep.r_sv.tolist()):
        if r_sv in (0.0, math.pi):
            cases = (OverlapCase.DEGENERATE_EMPTY if r_sv == 0.0 else OverlapCase.DEGENERATE_FULL,)
        else:
            cases = PARTITION_CASES
        points.append({
            "r_sv_rad": r_sv,
            "case_ratios": {c.value: float(report.sweep.ratios[i, CASE_CODE[c]]) for c in cases},
            "leakage_components": {
                c.value: float(report.sweep.components[i, CASE_CODE[c]]) for c in cases
            },
            "leakage_total": float(report.sweep.total[i]),
            "mean_qoe": float(report.sweep.mean_qoe[i]),
        })
    regions = report.regions
    return {
        "n_samples": report.n_samples,
        "r_fov_rad": report.r_fov,
        "epsilon_rad": report.epsilon,
        "mean_error_subset_rad": report.mean_error_subset,
        "gamma_tradeoff": report.gamma_tradeoff,
        "gamma_consist": report.gamma_consist,
        "regions": {name: list(getattr(regions, name)) for name in ("i1", "d2", "c", "i2", "d1")},
        "points": points,
    }


@pytest.mark.parametrize(
    "grid",
    [[math.pi], [0.0, 0.5, 2.0, math.pi], [0.0, 0.5, 1.0, 2.0, math.pi]],
    ids=["one-radius", "one-chunk", "one-chunk-plus-one"],
)
@pytest.mark.parametrize("req", [None, PrivacyRequirement(0.4 * FOV, 0.2)], ids=["bare", "req"])
def test_streamed_report_matches_whole_document(tmp_path, monkeypatch, grid, req):
    monkeypatch.setattr("vrpl.cli.CHUNK_ROWS", 4)
    errors = np.random.default_rng(5).uniform(0.0, math.pi, 60)
    report = build_report(errors, FOV, 0.4 * FOV, grid, req=req)
    _write_report(argparse.Namespace(out=str(tmp_path)), report)
    write_json(tmp_path / "whole.json", _report_oracle(report))
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


#: Report cells: signed zeros, a subnormal, NaN and infinities (JSON null),
#: and values whose 12-digit rendering rounds.
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0 / 3.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(-2.0, 2.0),
)


@st.composite
def _sweep_tables(draw) -> SweepTable:
    """Sweep tables of 1 to 12 radii, the degenerate radii 0, -0.0 and pi among them."""
    radius = st.one_of(st.sampled_from([0.0, -0.0, math.pi]), st.floats(0.0, math.pi))
    r_sv = np.array(draw(st.lists(radius, min_size=1, max_size=12)))
    n = r_sv.size
    blocks = [np.array(draw(st.lists(_CELLS, min_size=n * k, max_size=n * k))).reshape(n, k)
              for k in (len(CASES), len(CASES), 1, 1)]
    return SweepTable(r_sv, *blocks[:2], blocks[2][:, 0], blocks[3][:, 0])


@given(sweep=_sweep_tables(), chunk=st.integers(1, 5))
@example(
    sweep=SweepTable(np.array([0.0, 0.5, math.pi]), np.full((3, len(CASES)), -0.0),
                     np.zeros((3, len(CASES))), np.array([-0.0, 0.25, 1.0]), np.full(3, -0.0)),
    chunk=2,
)
@settings(max_examples=100)
def test_report_json_is_json_dumps_of_the_points(tmp_path_factory, sweep, chunk):
    # the columnar rendering against json.dumps of per-radius dicts, across chunks
    out = tmp_path_factory.mktemp("report")
    report = AggregateReport(3, FOV, 0.4 * FOV, leakage_regions(FOV, 0.4 * FOV), sweep)
    with patch("vrpl.cli.CHUNK_ROWS", chunk):
        _write_report(argparse.Namespace(out=str(out)), report)
    want = json.dumps(round_floats(_report_oracle(report)), indent=2, sort_keys=True) + "\n"
    assert (out / "report.json").read_text(encoding="utf-8") == want


_TRACE_MEMORY_PROBE = """
import contextlib, io, json, sys
def hwm_kib():
    with open('/proc/self/status') as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))
import vrpl.cli
base = hwm_kib()
with contextlib.redirect_stdout(io.StringIO()):
    code = vrpl.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "grew_kib": hwm_kib() - base}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_trace_memory_does_not_grow_per_radius(tmp_path):
    # Peak memory over the import, in a fresh interpreter per run: 9,000
    # more radii may cost arrays of a few floats each, not Python objects.
    src = str(Path(vrpl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    grew = []
    for n in (1_000, 10_000):
        grid = {"lo": 0.0, "hi": math.pi, "n": n}
        cfg = _cfg(tmp_path, {"synthetic": DRIFT, "grids": {"r_sv": grid}}, name=f"{n}.json")
        argv = ["trace", "--config", cfg, "--out", str(tmp_path / str(n))]
        proc = subprocess.run(
            [sys.executable, "-c", _TRACE_MEMORY_PROBE, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["code"] == 0, proc.stderr
        grew.append(result["grew_kib"])
    assert (grew[1] - grew[0]) / 1024 < 20, grew


def test_cli_trace_peak_memory_per_csv_row(tmp_path, capsys):
    # tracemalloc's peak over a warm `trace` of 100 drifting traces of 60 s:
    # 41.1 B per CSV row on numpy 2.4, 38.0 B while the file is streamed into
    # errors and 41.1 B in the sweep, over the errors and its lens's block;
    # against 62.5 B while the whole file was held as columns through
    # prediction, and 92 B while the traces, the lens's trigonometry of every
    # error and the leakage's zone arrays were all held through the sweep.
    # A failure names the stage that grew.
    rows = write_drifting_csv(tmp_path / "traces.csv", 100, 60.0)
    grid = {"lo": 0.0, "hi": math.pi, "n": 181}
    doc = {"traces_csv": str(tmp_path / "traces.csv"), "predictor": "great_circle_extrapolation",
           "grids": {"r_sv": grid}}
    argv = ["trace", "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o")]
    assert main(argv) == 0  # a first call also fills numpy's caches
    stages = {
        "stream": [(vrpl.cli, "predict_all")],
        "sweep": [(vrpl.cli, "build_report")],
        "writes": [(vrpl.cli, "_write_report"), (vrpl.cli, "_emit_table")],
    }
    peaks = stage_peaks(lambda: main(argv), stages)
    capsys.readouterr()
    assert peaks["all"] / rows <= 50.0, {stage: round(peak / rows, 1) for stage, peak in peaks.items()}


#: Each sweep with a 61 x 61 grid (3,721 rows) and the table it writes.
_SWEEPS_61 = [
    ("sweep-qoe", "r_sv=0:3.14159:61,error=0:3.14159:61", "qoe_sweep"),
    ("sweep-leakage", "r_sv=0:3.14159:61,error=0:3.14159:61", "leakage_sweep"),
    ("sweep-error", "epsilon=0:0.8:61,error=0:3.14159:61", "error_sweep"),
]


#: The same sweeps with an inner axis of 2,500 points: 1,000-row blocks
#: start and end mid-row, and one spans two outer rows.
_SWEEPS_3x2500 = [
    ("sweep-qoe", "r_sv=0.5:2.5:3,error=0:3.14159:2500", "qoe_sweep"),
    ("sweep-leakage", "r_sv=0.5:2.5:3,error=0:3.14159:2500", "leakage_sweep"),
    ("sweep-error", "epsilon=0.1:0.3:3,error=0:3.14159:2500", "error_sweep"),
]


@pytest.mark.parametrize("block, command, grid, table", [
    *(pytest.param(block, *sweep, id=f"{sweep[0]}-{name}")
      for block, name in ((1_000, "blocks-of-1000"), (3_720, "last-block-one-row"))
      for sweep in _SWEEPS_61),
    *(pytest.param(1_000, *sweep, id=f"{sweep[0]}-inner-axis-past-a-block") for sweep in _SWEEPS_3x2500),
])
def test_sweep_row_blocks_write_the_tables_of_one_block(tmp_path, capsys, monkeypatch, block,
                                                        command, grid, table):
    tables = {}
    for rows in (block, 10**9):
        monkeypatch.setattr("vrpl.cli.SWEEP_BLOCK_ROWS", rows)
        for fmt in ("csv", "json"):
            out = tmp_path / f"{rows}-{fmt}"
            assert main([command, "--grid", grid, "--format", fmt, "--out", str(out)]) == 0
            tables[rows, fmt] = (out / f"{table}.{fmt}").read_bytes()
    capsys.readouterr()
    for fmt in ("csv", "json"):
        assert tables[block, fmt] == tables[10**9, fmt]


def test_sweep_leakage_peak_memory_per_row(tmp_path, capsys, monkeypatch):
    # tracemalloc's peak over a warm 128 x 128 `sweep-leakage` in 2,048-row
    # blocks: 90 B per row on numpy 2.4 (the whole grid, output and table
    # columns), against 199 B with the kernels' temporaries of every row.
    monkeypatch.setattr("vrpl.cli.SWEEP_BLOCK_ROWS", 2_048)
    argv = ["sweep-leakage", "--grid", "r_sv=0:3.14159:128,error=0:3.14159:128",
            "--out", str(tmp_path)]
    assert main(argv) == 0  # a first call also fills numpy's caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak / 128**2 <= 120.0, peak / 128**2


@pytest.mark.parametrize("command, grid, bound", [
    ("sweep-qoe", "r_sv=0:3.14159:128,error=0:3.14159:128", 50.0),
    ("sweep-error", "epsilon=0:0.8:128,error=0:3.14159:128", 66.0),
], ids=["sweep-qoe", "sweep-error"])
def test_sweep_peak_memory_per_row(tmp_path, capsys, monkeypatch, command, grid, bound):
    # tracemalloc's peak over a warm 128 x 128 sweep in 2,048-row blocks:
    # 40.8 B per row for `sweep-qoe` and 57.9 B for `sweep-error` on numpy
    # 2.4 (output and table columns, one block's inputs gathered from the
    # axes), against 57 and 74 B while two whole float columns of the grid
    # fed the blocks.
    monkeypatch.setattr("vrpl.cli.SWEEP_BLOCK_ROWS", 2_048)
    argv = [command, "--grid", grid, "--out", str(tmp_path)]
    assert main(argv) == 0  # a first call also fills numpy's caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak / 128**2 <= bound, peak / 128**2


#: Bytes a fuzzed trace file is edited with: the CSV's own syntax, number
#: syntax, and a byte that is not UTF-8.
_EDIT_BYTES = b',\n\r" -.e0159nax\xff'


@st.composite
def _byte_edits(draw, size: int) -> list:
    """One to three edits of a file of ``size`` bytes: (at, bytes to put, bytes to drop)."""
    edit = st.tuples(
        st.integers(0, size - 1),
        st.binary(max_size=2).map(lambda b: bytes(_EDIT_BYTES[x % len(_EDIT_BYTES)] for x in b)),
        st.integers(0, 2),
    )
    return draw(st.lists(edit, min_size=1, max_size=3))


_FUZZ_ROWS = ["user_id,video_id,timestamp_s,theta_rad,phi_rad"] + [
    f"{user},v,{k / 5!r},{0.03 * k + shift!r},{0.2 * math.sin(0.1 * k)!r}"
    for user, shift in (("a", 0.0), ("b", 1.0)) for k in range(100)
]
_FUZZ_CSV = ("\n".join(_FUZZ_ROWS) + "\n").encode()


@given(edits=_byte_edits(len(_FUZZ_CSV)))
@settings(max_examples=150, deadline=None)
def test_cli_trace_byte_edited_csv_ends_in_a_named_data_error(tmp_path_factory, edits):
    # Every edit of a valid trace file either still parses (exit 0) or is a
    # data error (exit 3) that names the file and line, the file alone (its
    # header, encoding or lack of traces) or the trace; never a traceback.
    work = tmp_path_factory.mktemp("fuzz")
    data = bytearray(_FUZZ_CSV)
    for at, put, drop in edits:
        data[at : at + drop] = put
    path = work / "traces.csv"
    path.write_bytes(bytes(data))
    argv = ["trace", "--config", _cfg(work, {"traces_csv": str(path), "grids": {"r_sv": [0.5, 1.0]}}),
            "--out", str(work / "o")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), err.getvalue()
    if code == 3:
        where = rf"data error: ({re.escape(str(path))}:(\d+:)? |trace )"
        assert re.match(where, err.getvalue()), err.getvalue()


_FUZZ_AXIS = {"lo": 0.0, "hi": math.pi, "n": 9}

#: A valid config per command, small enough to run in a few milliseconds.
_FUZZ_CONFIGS = {
    "validate": {
        "r_fov_deg": 50.0, "epsilon_frac_of_fov": 0.4, "max_leak_prob": 0.5, "seed": 3,
        "windowing": {"t_obw": 1.0, "t_cc": 1.0, "t_pdw": 1.0}, "predictor": "last_position",
        "grids": {"error": _FUZZ_AXIS, "r_sv": [0.5, 1.0], "epsilon": {"lo": 0.0, "hi": 0.5, "n": 3}},
        "synthetic": DRIFT, "resources": RESOURCES, "tile": TILE, "channel": CHANNEL,
    },
    "sweep-error": {"epsilon_deg": 20.0, "grids": {"error": _FUZZ_AXIS, "epsilon": [0.1, 0.3]}},
    "sweep-qoe": {"r_fov_rad": 0.8, "grids": {"error": _FUZZ_AXIS, "r_sv": _FUZZ_AXIS}},
    "sweep-leakage": {
        "r_fov_deg": 50.0, "epsilon_rad": 0.3, "grids": {"error": _FUZZ_AXIS, "r_sv": _FUZZ_AXIS},
    },
    "trace": {
        "r_fov_rad": 0.8, "max_leak_prob": 0.5, "predictor": "great_circle",
        "synthetic": {"model": "random_walk", "kappa": 50.0, "n_traces": 2, "duration_s": 20.0,
                      "rate_hz": 5.0},
        "grids": {"r_sv": [0.0, 0.5, 1.0, math.pi]},
    },
    "resource": {"resources": RESOURCES, "tile": TILE},
}

#: What a fuzzed config puts in a field: every JSON type, the ends of the
#: number line (10**400 is past every float), and values some fields accept.
_FUZZ_VALUES = [
    None, True, False, -1, 0, 0.5, 1, 3, 1e308, 10**400, math.nan, math.inf, -math.inf,
    "", "x", "random_walk", [], {}, [0.5, 1.0], {"lo": 0.0, "hi": 1.0, "n": 3},
]

#: Keys a fuzzed config adds: fields of every block, and one of none.
_FUZZ_KEYS = [
    "r_fov_deg", "r_fov_rad", "epsilon_deg", "epsilon_frac_of_fov", "max_leak_prob", "seed",
    "grids", "windowing", "predictor", "traces_csv", "synthetic", "resources", "tile", "channel",
    "error", "r_sv", "epsilon", "lo", "n", "t_obw", "model", "kappa", "rate_rad_s", "n_traces",
    "users", "px_w", "bogus",
]


def _fuzz_slots(node, out: list) -> list:
    """Every ``(container, key)`` of a JSON document, depth first."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _fuzz_slots(value, out)
    return out


@st.composite
def _mutated_configs(draw):
    """A command and its valid config after one to three edits: a value set, dropped or added."""
    command = draw(st.sampled_from(sorted(_FUZZ_CONFIGS)))
    doc = copy.deepcopy(_FUZZ_CONFIGS[command])
    for _ in range(draw(st.integers(1, 3))):
        slots = _fuzz_slots(doc, [])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["set", "drop", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(_FUZZ_VALUES)))
        if action == "drop":
            del node[key]
        elif action == "set":
            node[key] = value
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_FUZZ_KEYS))] = value
        else:
            node.append(value)
    return command, doc


@given(case=_mutated_configs())
@settings(max_examples=400, deadline=None)
def test_cli_mutated_config_ends_in_a_named_config_error(tmp_path_factory, case):
    # Every edit of a valid config either still runs (exit 0), is a config
    # error (exit 2) that names its field, or is a data error (exit 3) in the
    # trace file it names; never a traceback.
    command, doc = case
    work = tmp_path_factory.mktemp("fuzz")
    argv = [command, "--config", _cfg(work, doc), "--out", str(work / "o")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (doc, err.getvalue())
    if code == 2:
        assert re.match(r"config error: config[.:]", err.getvalue()), (doc, err.getvalue())
    if code == 3:
        assert err.getvalue().startswith("data error: ") and "traces_csv" in doc, (doc, err.getvalue())


@pytest.mark.parametrize("fov_deg", [1.0, 0.1])
def test_cli_sweep_leakage_self_check_certifies_roots_at_small_fov(tmp_path, capsys, monkeypatch, fov_deg):
    # On a 61 x 61 grid below a few degrees every exact report's error is
    # its bracket's midpoint, Newton's first iterate, so each scalar
    # inversion of the self-check evaluates qoe there and at one or two
    # certification points; the bisection is a rare fallback.
    newton, bisect, scalar_qoe = vrpl.leakage._newton_error, vrpl.leakage._bisect_error_vec, vrpl.leakage.qoe
    evaluations, bisected, running = [], [], []

    def scalar_newton(*args):
        evaluations.append(0)
        running.append(True)
        try:
            return newton(*args)
        finally:
            running.pop()

    def counted_qoe(*args):
        if running:
            evaluations[-1] += 1
        return scalar_qoe(*args)

    def hooked_bisect(*args):
        if running:
            bisected.append(len(evaluations))
        return bisect(*args)

    monkeypatch.setattr(vrpl.leakage, "_newton_error", scalar_newton)
    monkeypatch.setattr(vrpl.leakage, "qoe", counted_qoe)
    monkeypatch.setattr(vrpl.leakage, "_bisect_error_vec", hooked_bisect)
    axis = {"lo": 0.0, "hi": math.pi, "n": 61}
    cfg = _cfg(tmp_path, {"r_fov_deg": fov_deg, "grids": {"r_sv": axis, "error": axis}})
    assert main(["sweep-leakage", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert evaluations and max(evaluations) <= 3
    assert len(bisected) <= 0.05 * len(evaluations)


def _run_with_closed_stdout(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``vrpl`` in a child whose stdout pipe has no reader left."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(vrpl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        return subprocess.run(
            [sys.executable, "-m", "vrpl.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


def test_cli_validate_survives_closed_stdout():
    done = _run_with_closed_stdout(["validate"])
    assert (done.returncode, done.stderr) == (0, b"")


def test_cli_trace_survives_closed_stdout(tmp_path):
    cfg = _cfg(tmp_path, {"synthetic": DRIFT, "grids": {"r_sv": [0.5, 1.0]}})
    out = tmp_path / "o"
    done = _run_with_closed_stdout(["trace", "--config", cfg, "--out", str(out)])
    assert (done.returncode, done.stderr) == (0, b"")
    assert sorted(p.name for p in out.iterdir()) == [
        "aggregate_sweep.csv", "figures.csv", "report.json",
    ]


def test_main_calls_share_no_parser_state(tmp_path, capsys):
    grid = "r_sv=0.5:2.0:3,error=0:3:3"
    assert main(["sweep-qoe", "--format", "json", "--grid", grid, "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep-qoe", "--out", str(tmp_path / "b")]) == 0
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["qoe_sweep.json"]
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["qoe_sweep.csv"]
    # the second call has the default 181 x 181 grid, not the first call's
    assert len(read_csv(tmp_path / "b" / "qoe_sweep.csv")[1]) == 181 * 181


def test_cli_import_builds_no_parser():
    # the parser is built by the first `main` call, so importing the CLI does not pay for it
    probe = "import vrpl.cli; print(vrpl.cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(vrpl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "0"
