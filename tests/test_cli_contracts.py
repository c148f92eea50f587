"""The contracts of the `vrpl` commands, one row each; a new refusal is one more row.

A row gives a command line, its config document (or the config file's raw
bytes), the exit code, how stderr starts (a refusal's field path) or all of
it, and a check that may rerun the row with more flags or config fields.
The rows of `trace` on a trace file are made from `support.TRACE_FILES`,
which ``tests/test_traces.py`` runs through the reader's layers.  Rows run
in-process through `vrpl.cli.main` under the ``error::RuntimeWarning``
filter of ``pyproject.toml``; no run leaves a ``Traceback`` or numpy scalar
on stderr, and ``--out`` exists only on exit 0, to hold just the
command's `_FILES`."""

import itertools
import json
import math
import time
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from vrpl import leak_prob_from_error, qoe
from vrpl.cli import main
from vrpl.config import MAX_ELEMENTS

from support import CHANNEL, DRIFT, HEADER, RESOURCES, TILE, TRACE_FILES, lines, read_csv, write_drifting_csv

#: What each command writes to ``--out`` on exit 0, ``fmt`` being ``--format``'s.
_FILES = {"sweep-error": ["error_sweep.{fmt}"], "sweep-qoe": ["qoe_sweep.{fmt}"], "validate": [],
          "sweep-leakage": ["leakage_sweep.{fmt}"], "resource": ["resource_summary.json"],
          "trace": ["aggregate_sweep.{fmt}", "figures.csv", "report.json"]}


class Row(NamedTuple):
    argv: str  # the command and its flags but --config and --out
    doc: dict | bytes | None = None  # bytes are the config file's contents as they are
    code: int = 0
    # how stderr starts, or all of it if this ends in a newline, ``{csv}`` being the trace file and
    # ``{cfg}`` the config; on exit 0 stderr is empty
    err: str = ""
    check: Callable | None = None  # true of run, where run(*flags, **fields) gives the --out of a run
    traces: Callable | None = None  # writes the file that ``traces_csv`` names, given its path


FOV = math.radians(50.0)

#: An integer no float can hold.
_HUGE = 10**400


def _json(out: Path, name: str):
    return json.loads((out / name).read_text(encoding="utf-8"))


def _rerun(run) -> bool:
    a, b = ({p.name: p.read_bytes() for p in run().iterdir()} for _ in range(2))
    return a == b


def _fast(run) -> bool:
    """Check: the run is refused within a second, before it allocates what it asks for."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start < 1.0


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


def _error_cells_are_the_scalars(run) -> bool:
    """Check: each cell of a 16-row `sweep-error` is `leak_prob_from_error`'s, and its
    12-significant-digit text re-formats to itself."""
    head, rows = read_csv(run() / "error_sweep.csv")
    assert head == ["e_rad", "epsilon_rad", "leak_prob", "zone_kind", "zone_measure"] and len(rows) == 16
    for e, eps, prob, kind, _ in rows:
        want = leak_prob_from_error(float(e), float(eps))
        assert float(prob) == pytest.approx(want.probability, rel=1e-11, abs=1e-11), (e, eps)
        assert kind == want.zone_kind.value and f"{float(prob):.12g}" == prob, (e, eps)
    return True


def _qoe_cells_are_the_scalars(run) -> bool:
    head, rows = read_csv(run() / "qoe_sweep.csv")
    return head == ["r_sv_rad", "e_rad", "qoe", "case"] and len(rows) == 16 and all(
        float(q) == pytest.approx(qoe(FOV, float(r), float(e)), rel=1e-11, abs=1e-11) for r, e, q, _ in rows)


def _leakage_follows_the_error(run) -> bool:
    """Check: in the partial-overlap case the inverted error, not the streamed radius,
    fixes the leakage, equal across r_sv at one error up to the inversion tolerance."""
    _, rows = read_csv(run() / "leakage_sweep.csv")
    probs, direct = [float(r[4]) for r in rows], leak_prob_from_error(1.0, 0.4 * FOV).probability
    return [r[3] for r in rows] == ["remaining"] * 3 and max(probs) - min(probs) < 1e-9 and all(
        p == pytest.approx(direct, abs=1e-8) for p in probs)


def _trace_pipeline(run) -> bool:
    out = run()
    report = _json(out, "report.json")
    # 30 s at 5 Hz gives 30 segments, 2 played passively: 28 * 5 per trace
    assert report["n_samples"] == 2 * 28 * 5 and report["gamma_tradeoff"] is not None
    head, rows = read_csv(out / "aggregate_sweep.csv")
    assert head[0] == "r_sv_rad" and len(rows) == len(report["points"]) == 21
    # the drift-matched predictor leaves errors ~0: a streamed cap wider than the field of view holds it
    ratio = head.index("ratio_fov_in_sfov")
    assert all(float(r[ratio]) == 1.0 for r in rows if FOV + 0.01 < float(r[0]) < math.pi)
    head, rows = read_csv(out / "figures.csv")
    return head == ["figure", "series", "x", "y"] and {r[0] for r in rows} == {
        "avg_leakage_vs_r_sv", "case_ratio_vs_r_sv", "mean_qoe_vs_r_sv"}


def _resource_summary(run) -> bool:
    # cc_duration is half the full-sphere stream time: capability one half
    doc = _json(run(), _SUMMARY)
    return doc["capability"] == pytest.approx(0.5, abs=1e-9) and doc["tile_compute_bits"] == 49152 and (
        doc["r_sv_rad"] == pytest.approx(math.pi / 2, abs=1e-9))


def _rate_doubles_with_bandwidth(run) -> bool:
    """Check: at the same seed, doubling the bandwidth doubles the rate estimate to 12 digits."""
    a, b = (_json(run(channel={**CHANNEL, "bandwidth": bw}), _SUMMARY) for bw in (1e7, 2e7))
    return all(0.0 < d["capability_with_channel_rate"] <= 1.0 for d in (a, b)) and (
        b["channel_avg_rate_bit_s"] == pytest.approx(2.0 * a["channel_avg_rate_bit_s"], rel=1e-11))


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


def _out_of_domain(block: str, key: str, value) -> Row:
    """A config block's field outside its domain, refused at ``config.<block>.<key>``."""
    if block in ("windowing", "synthetic"):
        walk = {"model": "random_walk", "kappa": 100.0, "n_traces": 2, "duration_s": 30.0, "rate_hz": 5.0}
        command, doc = "trace", {"synthetic": walk if key == "kappa" else DRIFT, "windowing": {}}
    else:
        command, doc = "resource", {"resources": RESOURCES, "tile": TILE, "channel": CHANNEL}
    doc[block] = {**doc[block], key: value}
    return Row(command, doc, 2, f"config error: config.{block}.{key}: {key} ")


def _oversized(argv: str, doc: dict, path: str, what: str, count: int) -> Row:
    """A run refused at ``path``, within a second, for the ``count`` values it would allocate."""
    return Row(argv, doc, 2, f"config error: {path}: {what} gives {count} values, above the limit of "
                             f"{MAX_ELEMENTS}\n", check=_fast)


def _trace_file(row) -> Row:
    """`vrpl trace` on a `TRACE_FILES` row: refused with its fault, or its ``predicted`` errors."""
    if row.fault:
        return Row("trace", _CSV, 3, f"data error: {row.fault}\n", traces=row.write)
    return Row("trace", _CSV, check=_samples(row.predicted), traces=row.write)


def _grid(n) -> dict:
    return {"lo": 0.0, "hi": 1.0, "n": n}


_CSV = {"grids": {"r_sv": [0.5, 1.0]}}
_SUMMARY = "resource_summary.json"
_RESOURCE = {"resources": RESOURCES, "tile": TILE}
_BENCH_CHANNEL = {**CHANNEL, "bandwidth": 2e7, "tx_power": 1.0, "distance": 100.0,
                  "pathloss_exp": 3.0, "noise_power": 1e-9}

#: Each numeric field of a config block with a value outside its domain: the
#: floats at 0, below it, ±inf or NaN, the counts at 0 or past 2**53.
_FIELDS_OUT_OF_DOMAIN = [
    ("tile", "px_w", 0), ("tile", "px_h", -1), ("tile", "bits_per_pixel", 2**53 + 1),
    ("tile", "compression_ratio", 0.5),
    ("resources", "compute_flops", 0.0), ("resources", "users", 0),
    ("resources", "flops_per_bit", -1.0), ("resources", "avg_data_rate", math.inf),
    ("resources", "cc_duration", -1e-300), ("resources", "frames_per_segment", 0),
    ("resources", "tiles_per_frame", 2**53 + 1),
    ("channel", "bandwidth", 0.0), ("channel", "tx_power", -1.0), ("channel", "distance", math.nan),
    ("channel", "pathloss_exp", -math.inf), ("channel", "noise_power", 0.0),
    ("channel", "antennas", 0), ("channel", "users", 0),
    ("windowing", "t_obw", -1.0), ("windowing", "t_cc", 0.0), ("windowing", "t_pdw", math.inf),
    ("synthetic", "kappa", 0.0), ("synthetic", "rate_rad_s", -0.1),
    ("synthetic", "n_traces", 0), ("synthetic", "rate_hz", 0.0),
]

#: A field of a config block `validate` refuses, and the path it names.
_BAD_BLOCK_FIELDS = {
    "list-window": ({"windowing": {"t_obw": [1]}}, "config.windowing.t_obw"),
    "unknown-prefix-key": ({"windowing": {"passive_prefix": 2}}, "config.windowing.passive_prefix"),
    "unknown-rate-key": ({"windowing": {"sample_rate_hz": 5.0}}, "config.windowing.sample_rate_hz"),
    "prefix-under-one-segment": ({"windowing": {"t_obw": 0.2, "t_cc": 0.2}}, "config.windowing"),
    "bool-window": ({"windowing": {"t_obw": True}}, "config.windowing.t_obw"),
    "string-window": ({"windowing": {"t_obw": "1"}}, "config.windowing.t_obw"),
    "unknown-resource-key": ({"resources": {**RESOURCES, "gpus": 1}, "tile": TILE}, "config.resources.gpus"),
    "unknown-tile-key": ({"resources": RESOURCES, "tile": {**TILE, "depth": 3}}, "config.tile.depth"),
    "unknown-synthetic-key": ({"synthetic": {**DRIFT, "kappa": 5.0}}, "config.synthetic.kappa"),
    "synthetic-under-one-segment": ({"synthetic": {**DRIFT, "duration_s": 2.0}},
                                    "config.synthetic.duration_s"),
}

#: `sweep-qoe`'s flags and config, refused with one line at the flag or field that gave the grid or seed.
_WHERE_GIVEN = {
    "grid-bound-config-hi": ("", {"grids": {"error": {"lo": 0, "hi": math.inf, "n": 3}}},
                             "config.grids.error.hi: viewpoint error inf outside [0, pi]"),
    "grid-bound-config-lo": ("", {"grids": {"r_sv": {"lo": -math.inf, "hi": 1, "n": 3}}},
                             "config.grids.r_sv.lo: streamed-cap radius -inf outside [0, pi]"),
    "grid-bound-config-nan": ("", {"grids": {"error": {"lo": math.nan, "hi": 1, "n": 3}}},
                              "config.grids.error.lo: viewpoint error nan outside [0, pi]"),
    "grid-bound-flag-hi": ("--grid error=0:inf:3", {},
                           "--grid error.hi: viewpoint error inf outside [0, pi]"),
    "where-given-config-hi": ("", {"grids": {"error": {"lo": 0, "hi": 5, "n": 5}}},
                              "config.grids.error.hi: viewpoint error 5.0 outside [0, pi]"),
    "where-given-config-n1-hi": ("", {"grids": {"error": {"lo": 0.5, "hi": 99, "n": 1}}},
                                 "config.grids.error.hi: viewpoint error 99.0 outside [0, pi]"),
    "where-given-flag-hi": ("--grid r_sv=0:3.2:2", {},
                            "--grid r_sv.hi: streamed-cap radius 3.2 outside [0, pi]"),
    "where-given-config-list": ("", {"grids": {"epsilon": [2.0]}},
                                "config.grids.epsilon: protection radius 2.0 outside [0, pi/2]"),
    "where-given-flag-twice": ("--grid error=0:1:3,error=0:2:3", {}, "--grid error: given twice"),
    "where-given-flag-name": ("--grid theta=0:1:3", {}, "--grid theta: unknown grid"),
    "where-given-flag-seed": ("--seed -1", {"seed": 3}, "--seed: seed -1 outside [0, inf)"),
    "where-given-config-seed": ("", {"seed": -1}, "config.seed: seed -1 outside [0, inf)"),
}

#: Numbers too large to run, each refused at its field: the command, the config and the path.
_OVERSIZED_NUMBERS = {
    "fov": ("validate", {"r_fov_rad": _HUGE}, "config.r_fov_rad"),
    "leak-budget": ("validate", {"max_leak_prob": _HUGE}, "config.max_leak_prob"),
    "kappa": ("validate", {"synthetic": {"model": "random_walk", "kappa": _HUGE, "n_traces": 1,
                                         "duration_s": 10.0, "rate_hz": 5.0}}, "config.synthetic.kappa"),
    "grid-bound": ("validate", {"grids": {"error": {"lo": 0, "hi": _HUGE, "n": 3}}}, "config.grids.error.hi"),
    "grid-value": ("validate", {"grids": {"r_sv": [0.5, _HUGE]}}, "config.grids.r_sv[1]"),
    # the JSON parser's own limits: an integer of 5,001 digits and 100,000 nested lists
    "seed-digits": ("validate", b'{"seed": ' + b"1" * 5001 + b"}", "config: {cfg} is not valid JSON"),
    "deep-nesting": ("validate", b"[" * 100_000, "config: {cfg} is not valid JSON"),
    "tile-pixels": ("resource", {"resources": RESOURCES, "tile": {**TILE, "px_w": _HUGE}},
                    "config.tile.px_w"),
    "frames": ("resource", {"resources": {**RESOURCES, "frames_per_segment": _HUGE}, "tile": TILE},
               "config.resources.frames_per_segment"),
    "compute-rate": ("resource", {"resources": {**RESOURCES, "flops_per_bit": 1e308}, "tile": TILE},
                     "config.resources: compute_flops / (users * flops_per_bit) rounds to 0.0"),
    # an infinite rate and a tile of ~0 transmit bits would cost nothing per tile
    "compute-rate-inf": ("resource", {"resources": {**RESOURCES, "compute_flops": 1e10, "users": 1,
                                                    "flops_per_bit": 1e-320, "avg_data_rate": 1e300},
                                      "tile": {**TILE, "compression_ratio": 1e308}},
                         "config.resources: compute_flops / (users * flops_per_bit) rounds to inf"),
}

#: A synthetic block too small to predict from, and the field `trace` refuses.
_SYNTHETIC_SIZES = {
    "no-traces": ("n_traces", 0, "config.synthetic.n_traces"),
    "fractional-samples": ("duration_s", 10.3, "config.synthetic.duration_s"),  # 51.5 samples at 5 Hz
    "one-sample": ("duration_s", 0.2, "config.synthetic.duration_s"),
    "under-one-segment": ("duration_s", 2.0, "config.synthetic.duration_s"),  # 10 of the 15 one segment needs
}

#: Runs too large to make: the command line, the config, the path that sizes
#: the run, what it counts and how many values that gives.
_OVERSIZED_RUNS = {
    "flag-n": ("validate --grid error=0:1:1000000000000", {}, "--grid error.n", "the grid", 10**12),
    "config-n": ("validate", {"grids": {"r_sv": _grid(MAX_ELEMENTS + 1)}}, "config.grids.r_sv.n",
                 "the grid", MAX_ELEMENTS + 1),
    "huge-n": ("validate", {"grids": {"epsilon": _grid(_HUGE)}}, "config.grids.epsilon.n", "the grid", _HUGE),
    "qoe-table": ("sweep-qoe", {"grids": {"r_sv": _grid(4096), "error": _grid(2048)}},
                  "config.grids.r_sv, config.grids.error", "the r_sv x error table", 2**23),
    "leakage-table": ("sweep-leakage --grid r_sv=0:1:4096,error=0:1:2048", {}, "--grid r_sv, --grid error",
                      "the r_sv x error table", 2**23),
    "error-table": ("sweep-error", {"grids": {"epsilon": _grid(2048), "error": _grid(4096)}},
                    "config.grids.epsilon, config.grids.error", "the epsilon x error table", 2**23),
    # 150 samples per trace
    "n-traces": ("trace", {"synthetic": {**DRIFT, "n_traces": 10**9}}, "config.synthetic",
                 "n_traces * duration_s * rate_hz", 150 * 10**9),
    "duration": ("validate", {"synthetic": {**DRIFT, "duration_s": 1e7}}, "config.synthetic",
                 "n_traces * duration_s * rate_hz", 2 * 10**7 * 5),
}

_NO_EPSILON_GRID = "the trace pipeline takes no epsilon grid; it runs at config.epsilon = 0.2 alone\n"

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
    "sweep-error-cells": Row("sweep-error --grid error=0.2:3.0:8,epsilon=0.1:0.3:2",
                             check=_error_cells_are_the_scalars),
    "sweep-error-json": Row(
        "sweep-error --format json --grid error=0.2:3.0:4,epsilon=0.3:0.3:1",
        check=lambda run: (doc := _json(run(), "error_sweep.json"))["columns"][0] == "e_rad"
        and len(doc["rows"]) == 4),
    "sweep-qoe-cells": Row("sweep-qoe --grid r_sv=0.5:2.0:4,error=0:3:4", check=_qoe_cells_are_the_scalars),
    "sweep-leakage-one-error": Row("sweep-leakage --grid r_sv=0.5:1.3:3,error=1.0:1.0:1",
                                   check=_leakage_follows_the_error),
    # the default grid holds r_sv = 130 deg, tangent to the 50 deg field of view's antipode up to
    # rounding, where the disjoint-case zone is a point
    "sweep-leakage-zero-epsilon": Row(
        "sweep-leakage", {"epsilon_frac_of_fov": 0},
        check=lambda run: len(rows := read_csv(run() / "leakage_sweep.csv")[1]) == 181 * 181
        and all(0.0 <= float(r[4]) <= 1.0 for r in rows)),
    # the QoE inversion at 90 and 1 degree, where its Newton slope divides by sin a_sv, 0 at a tangency
    **{f"sweep-leakage-fov{fov}": Row("sweep-leakage --grid error=0:3.14159:41,r_sv=0:3.14159:41",
                                      {"r_fov_deg": fov}) for fov in (90, 1)},
    # the default grid at 1 degree bisects the roots that fail their certification (the self-check's 2)
    "sweep-leakage-fov1-default": Row("sweep-leakage", {"r_fov_deg": 1}),
    # every command runs at the smallest field of view, 1e-6 rad
    **{f"min-fov-{command}": Row(f"{command} --grid error=0:3.14159:9,r_sv=0:3.14159:9",
                                 {"r_fov_rad": 1e-6, "max_leak_prob": 0.5, "synthetic": DRIFT, **_RESOURCE})
       for command in ("validate", "sweep-error", "sweep-qoe", "sweep-leakage", "trace", "resource")},
    # and refuses one whose 1 - cos(r_fov) rounds to 0, which the QoE would divide by
    **{f"fov-below-min-{command}": Row(command, {"r_fov_rad": 1e-9, "synthetic": DRIFT}, 2,
                                       "config error: config.r_fov: field-of-view radius 1e-09 outside ")
       for command in ("sweep-leakage", "trace")},
    "validate-bad-fov": Row("validate", {"r_fov_deg": 120.0}, 2,
                            "config error: config.r_fov: field-of-view radius 2.0943951023931953 outside "),
    "resource": Row("resource", _RESOURCE, check=_resource_summary),
    "resource-channel": Row("resource", {**_RESOURCE, "channel": CHANNEL},
                            check=lambda run: "r_sv_rad_with_channel_rate" in _json(run(), _SUMMARY)),
    "resource-bandwidth": Row("resource", _RESOURCE, check=_rate_doubles_with_bandwidth),
    # the benchmark's scenario pins the Monte Carlo stream, drawn in blocks of 16,384 samples
    "resource-seed-1": Row("resource", {"seed": 1, "resources": RESOURCES, "channel": _BENCH_CHANNEL,
                                        "tile": {**TILE, "bits_per_pixel": 24, "compression_ratio": 10.0}},
                           check=lambda run: (_json(run(), _SUMMARY)["channel_avg_rate_bit_s"]
                                              == 242727584.516)),
    "resource-needs-its-block": Row("resource", None, 2,
                                    "config error: config.resources: required for the resource subcommand"),
    **{f"channel-rate-{name}": Row("resource", {**_RESOURCE, "channel": {**CHANNEL, **change}}, 2,
                                   "config error: config.channel: rate estimate: ")
       for name, change in (("path-loss-overflow", {"distance": 0.5, "pathloss_exp": 2000}),
                            ("rate-overflow", {"bandwidth": 1e308}), ("zero-power", {"tx_power": 0}))},
    "trace-pipeline": Row("trace", {"synthetic": DRIFT, "predictor": "great_circle_extrapolation",
                                    "max_leak_prob": 0.2,
                                    "grids": {"r_sv": {"lo": 0.0, "hi": math.pi, "n": 21}}},
                          check=_trace_pipeline),
    "trace-rerun": Row("trace", {"synthetic": DRIFT, "grids": {"r_sv": {"lo": 0.0, "hi": math.pi, "n": 11}}},
                       check=_rerun),
    # 20 segments of 4 samples per trace, 2 of them played passively
    "trace-synthetic-rate": Row("trace", {"synthetic": {**DRIFT, "n_traces": 3, "duration_s": 20.0,
                                                        "rate_hz": 4.0}, **_CSV}, check=_samples(3 * 18 * 4)),
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
                             traces=lambda path: path.write_text(
                                 HEADER + lines(f"u,v,{i / 5},{i * 1e-9!r},0.0" for i in range(20)))),
    # reruns byte for byte: random walks at extreme concentrations, 149 steps across two 64-step blocks
    **{f"trace-walk-kappa-{k}": Row("trace", _walk(float(k), 7, 30.0, 31), check=_rerun)
       for k in ("0.01", "1e6")},
    # and 120 drifting traces, 34,800 errors, whose partial-overlap runs cross 16,384-error lens blocks
    "trace-drift-120": Row("trace", {"predictor": "great_circle_extrapolation",
                                     "grids": {"r_sv": {"lo": 0.0, "hi": math.pi, "n": 361}}},
                           check=_rerun, traces=lambda path: write_drifting_csv(path, 120, 60.0, seed=3)),
    "trace-needs-a-source": Row("trace", None, 2,
                                "config error: config: trace pipeline needs traces_csv or a synthetic block"),
    "trace-zero-epsilon": Row(
        "trace", {"epsilon_frac_of_fov": 0, "synthetic": DRIFT}, 2,
        "config error: config.epsilon: the trace pipeline needs a protection radius above 0"),
    # at r_fov 50 deg and eps 0.4 * r_fov no error leaks less than eps/pi
    "trace-leak-budget": Row("trace", {"max_leak_prob": 0.01, "synthetic": DRIFT}, 2,
                             "config error: config.max_leak_prob: 0.01 is below the attainable minimum "
                             f"epsilon/pi = {0.4 * FOV / math.pi!r}\n"),
    # rate_rad_s * duration_s overflows: a config error on the rate, with no warning
    "trace-drift-overflow": Row("trace", {"synthetic": {**DRIFT, "rate_rad_s": 1e308, "duration_s": 10.0}}, 2,
                                "config error: config.synthetic.rate_rad_s: 1e+308 rad/s"),
    **{f"synthetic-size-{name}": Row("trace", {"synthetic": {**DRIFT, key: value}}, 2,
                                     f"config error: {path}: ")
       for name, (key, value, path) in _SYNTHETIC_SIZES.items()},
    # trace runs at config.epsilon alone, so it takes an epsilon grid of that value and refuses any other
    "trace-epsilon-alone": Row("trace", {"epsilon_rad": 0.2, "synthetic": DRIFT,
                                         "grids": {"r_sv": [0.5], "epsilon": [0.2]}}),
    **{f"epsilon-grid-config-{name}": Row(
        "trace", {"epsilon_rad": 0.2, "synthetic": DRIFT, "grids": {"r_sv": [0.5], "epsilon": grid}}, 2,
        f"config error: config.grids.epsilon: {_NO_EPSILON_GRID}")
       for name, grid in (("two", [0.1, 0.2]), ("one", [0.1]))},
    **{f"epsilon-grid-flag-{name}": Row(
        f"trace --grid {flag}", {"epsilon_rad": 0.2, "synthetic": DRIFT, "grids": {"r_sv": [0.5]}}, 2,
        f"config error: --grid epsilon: {_NO_EPSILON_GRID}")
       for name, flag in (("two", "epsilon=0.1:0.2:2"), ("one", "epsilon=0.3:0.3:1"))},
    # an empty path would name the working directory, and pathlib refuses a NUL with a bare ValueError
    **{f"{name}-path-{command}": Row(command, {"traces_csv": path, **_CSV}, 2,
                                     "config error: config.traces_csv: ")
       for name, path in (("empty", ""), ("nul", "a\0b.csv")) for command in ("trace", "validate")},
    "non-utf8-config": Row("validate", b'{"seed": 1, "note": "\xff"}', 2,
                           "config error: config: {cfg} is not UTF-8"),
    **{name: _trace_file(row) for name, row in TRACE_FILES.items()},
    **{f"bad-block-{name}": Row("validate", doc, 2, f"config error: {path}: ")
       for name, (doc, path) in _BAD_BLOCK_FIELDS.items()},
    **{f"domain-{block}.{key}": _out_of_domain(block, key, value)
       for block, key, value in _FIELDS_OUT_OF_DOMAIN},
    **{name: Row(f"sweep-qoe {flags}", doc, 2, f"config error: {message}\n")
       for name, (flags, doc, message) in _WHERE_GIVEN.items()},
    **{f"oversized-number-{name}": Row(command, doc, 2, f"config error: {path}")
       for name, (command, doc, path) in _OVERSIZED_NUMBERS.items()},
    **{f"oversized-run-{name}": _oversized(*spec) for name, spec in _OVERSIZED_RUNS.items()},
}


#: The rows that run under the names they had as tests of ``tests/test_cli.py``: each
#: such test runs the rows whose names start with its prefix, by the rest of the name.
NAMED = {
    "test_cli_validate_rejects_bad_block_field": "bad-block-",
    "test_cli_names_the_block_field_outside_its_domain": "domain-",
    "test_cli_rejects_non_finite_grid_bound": "grid-bound-",
    "test_cli_reports_a_grid_or_seed_where_it_was_given": "where-given-",
    "test_cli_rejects_oversized_numbers": "oversized-number-",
    "test_cli_rejects_oversized_runs": "oversized-run-",
    "test_cli_accepts_minimum_fov": "min-fov-",
    "test_cli_rejects_fov_below_minimum": "fov-below-min-",
    "test_cli_trace_rejects_bad_synthetic_size": "synthetic-size-",
    "test_cli_resource_rejects_unusable_channel_rate": "channel-rate-",
    "test_cli_rejects_empty_traces_path": "empty-path-",
    "test_cli_rejects_nul_in_traces_path": "nul-path-",
}


def contract_test(rows: dict[str, Row]) -> Callable:
    """A test of each of ``rows``, by its test id: the runner every row goes through."""
    @pytest.mark.parametrize("name", list(rows))
    def test(tmp_path, capsys, name):
        row, runs, trace_csv = rows[name], itertools.count(), tmp_path / "traces.csv"
        if row.traces:
            row.traces(trace_csv)

        def run(*flags, **fields) -> Path:
            out = tmp_path / f"out{next(runs)}"
            cfg, argv = out.with_suffix(".json"), [*row.argv.split(), *flags, "--out", str(out)]
            if row.doc is not None:
                doc = row.doc if isinstance(row.doc, bytes) else json.dumps(
                    {**row.doc, **fields, **({"traces_csv": str(trace_csv)} if row.traces else {})}).encode()
                cfg.write_bytes(doc)
                argv += ["--config", str(cfg)]
            code, err = main(argv), capsys.readouterr().err
            assert code == row.code, err
            want = row.err.format(csv=trace_csv, cfg=cfg)
            assert (err == want if want.endswith("\n") else err.startswith(want)) if code else err == "", err
            assert "Traceback" not in err and "np.float64" not in err, err
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
            files = sorted(f.format(fmt=fmt) for f in _FILES[argv[0]]) if code == 0 else []
            assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == (files or None)
            return out

        assert row.check(run) if row.check else run()
    return test


def named_tests() -> dict[str, Callable]:
    """The tests of `NAMED`, each of its rows under the rest of the row's name."""
    return {test: contract_test({name[len(prefix):]: row for name, row in CONTRACTS.items()
                                 if name.startswith(prefix)}) for test, prefix in NAMED.items()}


test_cli_contract = contract_test({name: row for name, row in CONTRACTS.items()
                                   if not name.startswith(tuple(NAMED.values()))})
