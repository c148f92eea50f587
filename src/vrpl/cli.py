"""Command-line interface.

Subcommands::

    sweep-error    error-upload leakage over error and protection grids
    sweep-qoe      QoE over streamed-radius and error grids
    sweep-leakage  QoE-upload leakage over streamed-radius and error grids
    trace          trace pipeline: predict, aggregate, sweep, report
    resource       capability and streamed-radius from a resource budget
    validate       resolve and echo the scenario, checking every field

The three sweeps evaluate their grids with the array kernels
(`qoe_vec`, `classify_vec`, `leak_prob_from_qoe_vec`,
`leak_prob_from_error_vec`).  Before a table is written, about
`SELF_CHECK_ROWS` evenly spaced rows are recomputed with the scalar
functions; a mismatch beyond `SELF_CHECK_TOL` exits with code 4.

Common flags: ``--config`` (JSON scenario), ``--out`` (output directory),
``--format`` (csv or json tables), ``--seed`` and ``--grid`` overrides.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .aggregate import AggregateReport, build_report
from .config import (
    ConfigError,
    Scenario,
    load_config,
    parse_grid_override,
    resolve_scenario,
)
from .leakage import (
    ZONE_KINDS,
    PrivacyRequirement,
    QoeInconsistencyError,
    leak_prob_from_error,
    leak_prob_from_error_vec,
    leak_prob_from_qoe,
    leak_prob_from_qoe_vec,
    min_leak_prob_error,
)
from .qoe import CASES, classify, classify_vec, qoe, qoe_vec
from .resources import capability, mc_avg_rate, sfov_radius
from .tables import Categorical, write_csv, write_json
from .traces import TraceFormatError, generate_synthetic_traces, load_traces, predict_all

#: Samples for the optional channel-rate estimate in ``resource``.
MC_RATE_SAMPLES = 200_000

#: Tolerance for the self-checks guarding emitted reports.
SELF_CHECK_TOL = 1e-9

#: Rows of each sweep table recomputed by the scalar functions before emission.
SELF_CHECK_ROWS = 64


class InternalInconsistencyError(RuntimeError):
    """An emitted report failed a structural self-check."""


def _say(text: str) -> None:
    """Print to stdout; once its reader is gone, echo to the null device and go on."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def _load_scenario(args: argparse.Namespace) -> Scenario:
    doc = load_config(args.config) if args.config else {}
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.grid is not None:
        overrides["grids"] = parse_grid_override(args.grid)
    return resolve_scenario(doc, overrides)


def _emit_table(args: argparse.Namespace, name: str, header: list[str], columns: list) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        path = out_dir / f"{name}.json"
        write_json(path, header, columns)
    else:
        path = out_dir / f"{name}.csv"
        write_csv(path, header, columns)
    _say(f"wrote {path}")
    return path


def _grid_pairs(outer: list[float], inner: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Every (outer, inner) grid pair, outer-major, as two columns."""
    return np.repeat(outer, len(inner)), np.tile(inner, len(outer))


def _names(codes: np.ndarray, members: tuple) -> Categorical:
    """The enum values of int8 kernel codes, as a table column."""
    return Categorical(codes, [m.value for m in members])


def _cell(column, i: int):
    """Row ``i`` of a table column, as a Python value."""
    if isinstance(column, Categorical):
        return column.vocabulary[column.codes[i]]
    return column[i].item()


def _check_rows(table: str, header: list[str], columns: list, reference) -> None:
    """Compare evenly spaced emitted rows with the scalar reference.

    About `SELF_CHECK_ROWS` rows, at fixed positions, are read from the
    columns and recomputed by ``reference(row)`` from their input cells;
    floats must agree within `SELF_CHECK_TOL` (absolute or relative) and
    every other cell exactly.
    """
    n = len(columns[0])
    for i in range(0, n, max(1, n // SELF_CHECK_ROWS)):
        row = [_cell(c, i) for c in columns]
        for column, got, want in zip(header, row, reference(row)):
            same = (
                math.isclose(got, want, rel_tol=SELF_CHECK_TOL, abs_tol=SELF_CHECK_TOL)
                if isinstance(want, float)
                else got == want
            )
            if not same:
                raise InternalInconsistencyError(
                    f"{table} row {i}, {column}: array kernel gave {got!r}, "
                    f"scalar reference {want!r}"
                )


def cmd_sweep_error(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    eps, e = _grid_pairs(scenario.grids["epsilon"], scenario.grids["error"])
    res = leak_prob_from_error_vec(e, eps)
    header = ["e_rad", "epsilon_rad", "leak_prob", "zone_kind", "zone_measure"]
    columns = [e, eps, res.probability, _names(res.zone_kind, ZONE_KINDS), res.zone_measure]

    def reference(row: list) -> list:
        ref = leak_prob_from_error(row[0], row[1])
        return [row[0], row[1], ref.probability, ref.zone_kind.value, ref.zone_measure]

    _check_rows("error_sweep", header, columns, reference)
    _emit_table(args, "error_sweep", header, columns)
    return 0


def cmd_sweep_qoe(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    fov = scenario.r_fov
    sv, e = _grid_pairs(scenario.grids["r_sv"], scenario.grids["error"])
    header = ["r_sv_rad", "e_rad", "qoe", "case"]
    columns = [sv, e, qoe_vec(fov, sv, e), _names(classify_vec(fov, sv, e), CASES)]

    def reference(row: list) -> list:
        return [row[0], row[1], qoe(fov, row[0], row[1]), classify(fov, row[0], row[1]).value]

    _check_rows("qoe_sweep", header, columns, reference)
    _emit_table(args, "qoe_sweep", header, columns)
    return 0


def cmd_sweep_leakage(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    fov, eps = scenario.r_fov, scenario.epsilon
    sv, e = _grid_pairs(scenario.grids["r_sv"], scenario.grids["error"])
    q = qoe_vec(fov, sv, e)
    res = leak_prob_from_qoe_vec(q, fov, sv, eps)
    header = ["r_sv_rad", "e_rad", "qoe", "case", "leak_prob", "zone_kind", "zone_measure"]
    columns = [
        sv, e, q, _names(res.case, CASES), res.probability, _names(res.zone_kind, ZONE_KINDS),
        res.zone_measure,
    ]

    def reference(row: list) -> list:
        # The leakage is recomputed from the emitted QoE, which is itself
        # checked against the scalar model.
        ref = leak_prob_from_qoe(row[2], fov, row[0], eps)
        return [
            row[0], row[1], qoe(fov, row[0], row[1]), ref.case.value, ref.probability,
            ref.zone_kind.value, ref.zone_measure,
        ]

    _check_rows("leakage_sweep", header, columns, reference)
    _emit_table(args, "leakage_sweep", header, columns)
    return 0


def _report_to_dict(report: AggregateReport) -> dict:
    return {
        "n_samples": report.n_samples,
        "r_fov_rad": report.r_fov,
        "epsilon_rad": report.epsilon,
        "mean_error_subset_rad": report.mean_error_subset,
        "gamma_tradeoff": report.gamma_tradeoff,
        "gamma_consist": report.gamma_consist,
        "regions": {
            name: list(getattr(report.regions, name)) for name in ("i1", "d2", "c", "i2", "d1")
        },
        "points": [
            {
                "r_sv_rad": p.r_sv,
                "case_ratios": {case.value: ratio for case, ratio in p.case_ratios.items()},
                "leakage_components": {
                    case.value: comp for case, comp in p.leakage_components.items()
                },
                "leakage_total": p.leakage_total,
                "mean_qoe": p.mean_qoe,
            }
            for p in report.points
        ],
    }


def _check_report(report: AggregateReport) -> None:
    """Structural self-checks on an aggregate report before emission."""
    for p in report.points:
        ratio_sum = sum(p.case_ratios.values())
        comp_sum = sum(p.leakage_components.values())
        if abs(ratio_sum - 1.0) > SELF_CHECK_TOL:
            raise InternalInconsistencyError(
                f"case ratios at r_sv={p.r_sv!r} sum to {ratio_sum!r}, expected 1"
            )
        if abs(comp_sum - p.leakage_total) > SELF_CHECK_TOL:
            raise InternalInconsistencyError(
                f"leakage components at r_sv={p.r_sv!r} sum to {comp_sum!r}, "
                f"expected total {p.leakage_total!r}"
            )
        if not 0.0 <= p.leakage_total <= 1.0 or not 0.0 <= p.mean_qoe <= 1.0:
            raise InternalInconsistencyError(
                f"averages at r_sv={p.r_sv!r} left [0, 1]: "
                f"leakage {p.leakage_total!r}, qoe {p.mean_qoe!r}"
            )


def cmd_trace(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    if scenario.epsilon <= 0.0:
        raise ConfigError(
            f"config.epsilon: the trace pipeline needs a protection radius above 0, "
            f"got {scenario.epsilon!r}"
        )
    min_leak = min_leak_prob_error(scenario.epsilon)
    if scenario.max_leak_prob is not None and scenario.max_leak_prob < min_leak:
        raise ConfigError(
            f"config.max_leak_prob: {scenario.max_leak_prob!r} is below the attainable "
            f"minimum epsilon/pi = {min_leak!r}"
        )
    if scenario.traces_csv is not None:
        traces = load_traces(scenario.traces_csv)
    elif scenario.synthetic is not None:
        spec = scenario.synthetic
        traces = generate_synthetic_traces(
            spec.model, spec.n_traces, spec.duration, spec.rate, scenario.seed
        )
    else:
        raise ConfigError("config: trace pipeline needs traces_csv or a synthetic block")
    errors = predict_all(traces, scenario.windowing, scenario.predictor)
    req = (
        PrivacyRequirement(scenario.epsilon, scenario.max_leak_prob)
        if scenario.max_leak_prob is not None
        else None
    )
    report = build_report(errors, scenario.r_fov, scenario.epsilon, scenario.grids["r_sv"], req=req)
    _check_report(report)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    write_json(report_path, _report_to_dict(report))
    _say(f"wrote {report_path}")

    case_order = sorted({case for p in report.points for case in p.case_ratios}, key=lambda c: c.value)
    header = (
        ["r_sv_rad"]
        + [f"ratio_{c.value}" for c in case_order]
        + [f"leak_{c.value}" for c in case_order]
        + ["leak_total", "mean_qoe"]
    )
    points = report.points
    columns = (
        [[p.r_sv for p in points]]
        + [[p.case_ratios.get(c, 0.0) for p in points] for c in case_order]
        + [[p.leakage_components.get(c, 0.0) for p in points] for c in case_order]
        + [[p.leakage_total for p in points], [p.mean_qoe for p in points]]
    )
    _emit_table(args, "aggregate_sweep", header, columns)

    fig_rows = []
    for p in points:
        fig_rows.append(("avg_leakage_vs_r_sv", "total", p.r_sv, p.leakage_total))
        for c, comp in p.leakage_components.items():
            fig_rows.append(("avg_leakage_vs_r_sv", f"component:{c.value}", p.r_sv, comp))
        for c, ratio in p.case_ratios.items():
            fig_rows.append(("case_ratio_vs_r_sv", c.value, p.r_sv, ratio))
        fig_rows.append(("mean_qoe_vs_r_sv", "mean_qoe", p.r_sv, p.mean_qoe))
    fig_path = out_dir / "figures.csv"
    write_csv(fig_path, ["figure", "series", "x", "y"], list(zip(*fig_rows)))
    _say(f"wrote {fig_path}")
    return 0


def cmd_resource(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    if scenario.resource is None or scenario.tile is None:
        raise ConfigError("config.resources: required for the resource subcommand")
    cfg, tile = scenario.resource, scenario.tile
    cap = capability(cfg, tile)
    doc = {
        "tile_compute_bits": tile.compute_bits,
        "tile_transmit_bits": tile.transmit_bits,
        "compute_rate_bit_s": cfg.compute_rate,
        "avg_data_rate_bit_s": cfg.avg_data_rate,
        "capability": cap,
        "r_sv_rad": sfov_radius(cap),
    }
    if scenario.channel is not None:
        est = mc_avg_rate(scenario.channel, MC_RATE_SAMPLES, scenario.seed)
        cap_est = capability(dataclasses.replace(cfg, avg_data_rate=est), tile)
        doc["channel_avg_rate_bit_s"] = est
        doc["capability_with_channel_rate"] = cap_est
        doc["r_sv_rad_with_channel_rate"] = sfov_radius(cap_est)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resource_summary.json"
    write_json(path, doc)
    _say(f"wrote {path}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    summary = {
        "r_fov_rad": scenario.r_fov,
        "epsilon_rad": scenario.epsilon,
        "max_leak_prob": scenario.max_leak_prob,
        "seed": scenario.seed,
        "predictor": scenario.predictor.value,
        "windowing": {
            "t_obw": scenario.windowing.t_obw,
            "t_cc": scenario.windowing.t_cc,
            "t_pdw": scenario.windowing.t_pdw,
            "sample_rate_hz": scenario.windowing.sample_rate,
            "passive_prefix": scenario.windowing.passive_prefix,
        },
        "grid_sizes": {name: len(grid) for name, grid in scenario.grids.items()},
        "traces_csv": scenario.traces_csv,
        "synthetic": None
        if scenario.synthetic is None
        else {
            "model": type(scenario.synthetic.model).__name__,
            "n_traces": scenario.synthetic.n_traces,
            "duration_s": scenario.synthetic.duration,
            "rate_hz": scenario.synthetic.rate,
        },
        "has_resources": scenario.resource is not None,
        "has_channel": scenario.channel is not None,
    }
    _say(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrpl",
        description="Viewpoint-privacy leakage analysis for proactive VR streaming",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "sweep-error": (cmd_sweep_error, "error-upload leakage over error/protection grids"),
        "sweep-qoe": (cmd_sweep_qoe, "QoE over streamed-radius and error grids"),
        "sweep-leakage": (cmd_sweep_leakage, "QoE-upload leakage over streamed-radius and error grids"),
        "trace": (cmd_trace, "trace pipeline: predict, aggregate, sweep, report"),
        "resource": (cmd_resource, "capability and streamed radius from a resource budget"),
        "validate": (cmd_validate, "resolve and echo the scenario"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON scenario file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
        p.add_argument("--seed", type=int, help="RNG seed override")
        p.add_argument("--grid", help="grid override, e.g. error=0:3.14159:100,r_sv=0:3.14159:50")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QoeInconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 4
    except TraceFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
