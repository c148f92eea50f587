"""The benchmark's three workloads: seeded inputs, CLI invocations, output checks.

Every workload is a list of ``vrpl`` CLI invocations driven by a generated
JSON scenario (and, for ``csv-population``, a generated trace CSV).  The
program only ever sees these generated files; the seed never reaches it as
a flag.

Why these three: ``analytic-grid`` runs the scalar sphere/qoe/leakage path,
the QoE->error bisection and table writes, and touches neither ``traces``
nor ``aggregate``.  ``synthetic-population`` is dominated by random-walk
synthesis and per-frame prediction, with tiny errors that leave the
population sweep little partial-overlap work.  ``csv-population`` reads a
CSV, runs the great-circle predictor, and its large, spread errors put most
of the time in ``average_leakage_sweep`` and ``cap_overlap_area_vec``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Seed of the reference outputs in ``reference.json``.
DEFAULT_SEED = 1

R_FOV_DEG = 50.0
R_FOV = math.radians(R_FOV_DEG)
EPSILON_FRAC = 0.4
SAMPLE_RATE_HZ = 5.0
#: Leakage budget given to the population runs, so the report's
#: requirement subset and tradeoff/consistency ratios are computed too.
MAX_LEAK_PROB = 0.3

CASES = (
    "fov_in_sfov",
    "sfov_in_fov",
    "disjoint",
    "sfov_complement_in_fov",
    "remaining",
    "degenerate_empty",
    "degenerate_full",
)
ZONE_KINDS = ("circle", "cap", "full_sphere", "single_point")

#: Resource block of the ``resource`` run; the channel block makes it draw
#: the CLI's fixed 200k Monte Carlo samples.
RESOURCES = {
    "compute_flops": 1e12,
    "users": 4,
    "flops_per_bit": 100.0,
    "avg_data_rate": 4e8,
    "cc_duration": 0.0820224,
    "frames_per_segment": 30,
    "tiles_per_frame": 200,
}
TILE = {"px_w": 64, "px_h": 64, "bits_per_pixel": 24, "compression_ratio": 10.0}
CHANNEL = {
    "bandwidth": 2e7,
    "tx_power": 1.0,
    "distance": 100.0,
    "pathloss_exp": 3.0,
    "noise_power": 1e-9,
    "antennas": 8,
    "users": 4,
}

#: Float columns of each emitted CSV table; every other column is categorical.
FLOAT_COLUMNS = {
    "error_sweep.csv": {"e_rad", "epsilon_rad", "leak_prob", "zone_measure"},
    "qoe_sweep.csv": {"r_sv_rad", "e_rad", "qoe"},
    "leakage_sweep.csv": {"r_sv_rad", "e_rad", "qoe", "leak_prob", "zone_measure"},
    "figures.csv": {"x", "y"},
}

#: Sizes per workload: "full" is the benchmark, "tiny" the harness smoke test.
SIZES = {
    "full": {"grid": 181, "synth_traces": 200, "csv_traces": 300, "duration_s": 60.0,
             "synth_radii": 181, "csv_radii": 361},
    "tiny": {"grid": 9, "synth_traces": 3, "csv_traces": 4, "duration_s": 6.0,
             "synth_radii": 7, "csv_radii": 9},
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call; the runner appends ``--out <dir>``."""

    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]
    #: Files the call writes, relative to its output directory.
    outputs: tuple[str, ...]


@dataclass
class Inputs:
    """Generated inputs of one workload at one seed."""

    invocations: list[Invocation]
    #: Work done per pass: grid points or error samples.
    items: int
    properties: dict


# --- reading outputs ---------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path.name}: empty table")
    return rows[0], rows[1:]


def column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    i = header.index(name)
    return [row[i] for row in rows]


def floats(cells: list[str]) -> np.ndarray:
    return np.array([float(c) for c in cells], dtype=float)


def _in_unit(name: str, values: np.ndarray, problems: list[str], hi: float = 1.0) -> None:
    """Values within [0, hi], allowing the 12-digit rendering to overshoot by 1e-9."""
    if values.size and not (np.isfinite(values).all() and values.min() >= 0.0
                            and values.max() <= hi + 1e-9):
        problems.append(f"{name} leaves [0, {hi}]: min {values.min()!r}, max {values.max()!r}")


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# --- analytic-grid -----------------------------------------------------------


def _check_grid_table(name: str, header_want: list[str], n_rows: int,
                      unit_cols: tuple[str, ...], cat_cols: dict[str, tuple[str, ...]]):
    def check(out: Path) -> list[str]:
        problems: list[str] = []
        header, rows = read_table(out / name)
        _expect(problems, f"{name} header", header, header_want)
        _expect(problems, f"{name} rows", len(rows), n_rows)
        if problems:
            return problems
        for col in unit_cols:
            _in_unit(f"{name}:{col}", floats(column(header, rows, col)), problems)
        if "zone_measure" in header:
            _in_unit(f"{name}:zone_measure", floats(column(header, rows, "zone_measure")),
                     problems, hi=4.0 * math.pi)
        for col, allowed in cat_cols.items():
            bad = set(column(header, rows, col)) - set(allowed)
            if bad:
                problems.append(f"{name}:{col} has unknown values {sorted(bad)!r}")
        return problems

    return check


def _check_resource(out: Path) -> list[str]:
    problems: list[str] = []
    doc = json.loads((out / "resource_summary.json").read_text(encoding="utf-8"))
    for key in ("capability", "capability_with_channel_rate"):
        _in_unit(key, np.array([doc.get(key, math.nan)], dtype=float), problems)
    for key in ("r_sv_rad", "r_sv_rad_with_channel_rate"):
        _in_unit(key, np.array([doc.get(key, math.nan)], dtype=float), problems, hi=math.pi)
    rate = doc.get("channel_avg_rate_bit_s")
    if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0):
        problems.append(f"channel_avg_rate_bit_s is {rate!r}, expected a positive rate")
    return problems


def analytic_grid(work: Path, seed: int, size: str) -> Inputs:
    n = SIZES[size]["grid"]
    grid = {"lo": 0.0, "hi": math.pi, "n": n}
    cfg = {
        "r_fov_deg": R_FOV_DEG,
        "epsilon_frac_of_fov": EPSILON_FRAC,
        "seed": seed,
        "grids": {"error": grid, "r_sv": grid, "epsilon": {"lo": 0.0, "hi": R_FOV, "n": n}},
        "resources": RESOURCES,
        "tile": TILE,
        "channel": CHANNEL,
    }
    path = work / "analytic.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    base = ("--config", str(path))
    points = n * n
    return Inputs(
        invocations=[
            Invocation(("sweep-error",) + base, _check_grid_table(
                "error_sweep.csv", ["e_rad", "epsilon_rad", "leak_prob", "zone_kind", "zone_measure"],
                points, ("leak_prob",), {"zone_kind": ZONE_KINDS}), ("error_sweep.csv",)),
            Invocation(("sweep-qoe",) + base, _check_grid_table(
                "qoe_sweep.csv", ["r_sv_rad", "e_rad", "qoe", "case"],
                points, ("qoe",), {"case": CASES}), ("qoe_sweep.csv",)),
            Invocation(("sweep-leakage",) + base, _check_grid_table(
                "leakage_sweep.csv",
                ["r_sv_rad", "e_rad", "qoe", "case", "leak_prob", "zone_kind", "zone_measure"],
                points, ("qoe", "leak_prob"), {"case": CASES, "zone_kind": ZONE_KINDS}),
                ("leakage_sweep.csv",)),
            Invocation(("resource",) + base, _check_resource, ("resource_summary.json",)),
        ],
        items=3 * points,
        properties={"grid_points": {"error": n, "epsilon": n, "r_sv": n},
                    "r_fov_deg": R_FOV_DEG, "epsilon_frac_of_fov": EPSILON_FRAC,
                    "mc_seed": seed},
    )


# --- population workloads ----------------------------------------------------


def expected_errors(n_traces: int, duration_s: float) -> int:
    """Error samples the CLI's default windowing yields (1 s segments, 2 passive)."""
    per_segment = round(SAMPLE_RATE_HZ)
    return n_traces * (round(duration_s * SAMPLE_RATE_HZ) // per_segment - 2) * per_segment


def _check_trace(n_samples: int, n_radii: int):
    def check(out: Path) -> list[str]:
        problems: list[str] = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        _expect(problems, "report n_samples", report.get("n_samples"), n_samples)
        points = report.get("points", [])
        _expect(problems, "report points", len(points), n_radii)
        fig_rows = 0
        for p in points:
            ratios, comps = p["case_ratios"], p["leakage_components"]
            fig_rows += 2 + len(ratios) + len(comps)
            if abs(math.fsum(ratios.values()) - 1.0) > 1e-9:
                problems.append(f"report: case ratios at r_sv={p['r_sv_rad']!r} do not sum to 1")
            if abs(math.fsum(comps.values()) - p["leakage_total"]) > 1e-9:
                problems.append(f"report: components at r_sv={p['r_sv_rad']!r} do not sum to the total")
            _in_unit("report probabilities", np.array(
                [*ratios.values(), *comps.values(), p["leakage_total"], p["mean_qoe"]], dtype=float),
                problems)

        header, rows = read_table(out / "aggregate_sweep.csv")
        _expect(problems, "aggregate_sweep rows", len(rows), n_radii)
        if rows:
            values = {name: floats(column(header, rows, name)) for name in header}
            ratio = sum(v for k, v in values.items() if k.startswith("ratio_"))
            leak = sum(v for k, v in values.items() if k.startswith("leak_") and k != "leak_total")
            if np.abs(ratio - 1.0).max() > 1e-9:
                problems.append("aggregate_sweep: ratio columns do not sum to 1")
            if np.abs(leak - values["leak_total"]).max() > 1e-9:
                problems.append("aggregate_sweep: leak columns do not sum to leak_total")
            for name, v in values.items():
                if name != "r_sv_rad":
                    _in_unit(f"aggregate_sweep:{name}", v, problems)
        header, rows = read_table(out / "figures.csv")
        _expect(problems, "figures rows", len(rows), fig_rows)
        return problems

    return check


def partial_share(out: Path) -> float:
    """Share of (error, radius) pairs in the partial-overlap case, from the sweep table."""
    header, rows = read_table(out / "aggregate_sweep.csv")
    if "ratio_remaining" not in header:
        return 0.0
    return float(floats(column(header, rows, "ratio_remaining")).mean())


def _trace_inputs(work: Path, name: str, cfg: dict, n_traces: int, duration_s: float,
                  n_radii: int, properties: dict) -> Inputs:
    cfg = {
        "r_fov_deg": R_FOV_DEG,
        "epsilon_frac_of_fov": EPSILON_FRAC,
        "max_leak_prob": MAX_LEAK_PROB,
        "grids": {"r_sv": {"lo": 0.0, "hi": math.pi, "n": n_radii}},
        **cfg,
    }
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    n_errors = expected_errors(n_traces, duration_s)
    return Inputs(
        invocations=[Invocation(("trace", "--config", str(path)), _check_trace(n_errors, n_radii),
                                ("report.json", "aggregate_sweep.csv", "figures.csv"))],
        items=n_errors,
        properties={"n_traces": n_traces, "duration_s": duration_s, "rate_hz": SAMPLE_RATE_HZ,
                    "radii": n_radii, **properties},
    )


def synthetic_population(work: Path, seed: int, size: str) -> Inputs:
    s = SIZES[size]
    kappa = 5e4
    synth = {"model": "random_walk", "kappa": kappa, "n_traces": s["synth_traces"],
             "duration_s": s["duration_s"], "rate_hz": SAMPLE_RATE_HZ}
    return _trace_inputs(work, "synthetic", {"seed": seed, "synthetic": synth,
                                             "predictor": "last_position"},
                         s["synth_traces"], s["duration_s"], s["synth_radii"],
                         {"model": "random_walk", "kappa": kappa, "predictor": "last_position",
                          "synthesis_seed": seed})


def write_drifting_traces(path: Path, seed: int, n_traces: int, duration_s: float) -> None:
    """Write head-movement traces in the CLI's CSV schema, with plain numpy.

    Each trace moves at a speed drawn uniformly from 0 to 1.5 rad/s along a
    path whose heading turns at a per-trace rate (about 1.5 rad/s spread)
    plus per-step noise, and is observed with about 0.06 rad of jitter.
    The great-circle predictor's errors then have a median near 1 rad and
    fall in every overlap case.
    """
    rng = np.random.default_rng(seed)
    n = round(duration_s * SAMPLE_RATE_HZ)
    dt = 1.0 / SAMPLE_RATE_HZ
    p = rng.normal(size=(n_traces, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    d = rng.normal(size=(n_traces, 3))
    d -= np.sum(d * p, axis=1, keepdims=True) * p
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    speed = rng.uniform(0.0, 1.5, size=(n_traces, 1))
    turn = rng.normal(0.0, 1.5, size=(n_traces, 1))
    observed = np.empty((n, n_traces, 3))
    for k in range(n):
        jitter = rng.normal(0.0, 0.06, size=(n_traces, 3))
        obs = p + jitter - np.sum(jitter * p, axis=1, keepdims=True) * p
        observed[k] = obs / np.linalg.norm(obs, axis=1, keepdims=True)
        a = speed * dt
        p, d = np.cos(a) * p + np.sin(a) * d, np.cos(a) * d - np.sin(a) * p
        b = turn * dt + rng.normal(0.0, 0.15, size=(n_traces, 1))
        d = np.cos(b) * d + np.sin(b) * np.cross(p, d)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        d -= np.sum(d * p, axis=1, keepdims=True) * p
        d /= np.linalg.norm(d, axis=1, keepdims=True)
    theta = np.arctan2(observed[..., 1], observed[..., 0])
    phi = np.arcsin(np.clip(observed[..., 2], -1.0, 1.0))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "video_id", "timestamp_s", "theta_rad", "phi_rad"])
        for i in range(n_traces):
            user = f"user-{i:03d}"
            for k in range(n):
                writer.writerow([user, "drift", repr(k * dt), repr(float(theta[k, i])),
                                 repr(float(phi[k, i]))])


def csv_population(work: Path, seed: int, size: str) -> Inputs:
    s = SIZES[size]
    path = work / "traces.csv"
    write_drifting_traces(path, seed, s["csv_traces"], s["duration_s"])
    rows = s["csv_traces"] * round(s["duration_s"] * SAMPLE_RATE_HZ)
    return _trace_inputs(work, "csv", {"traces_csv": str(path),
                                       "predictor": "great_circle_extrapolation"},
                         s["csv_traces"], s["duration_s"], s["csv_radii"],
                         {"predictor": "great_circle_extrapolation", "csv_rows": rows,
                          "csv_bytes": path.stat().st_size, "trace_seed": seed})


WORKLOADS = {
    "analytic-grid": analytic_grid,
    "synthetic-population": synthetic_population,
    "csv-population": csv_population,
}
