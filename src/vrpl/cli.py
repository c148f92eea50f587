"""Command-line interface.

Subcommands::

    sweep-error    error-upload leakage over error and protection grids
    sweep-qoe      QoE over streamed-radius and error grids
    sweep-leakage  QoE-upload leakage over streamed-radius and error grids
    trace          trace pipeline: predict, aggregate, sweep, report
    resource       capability and streamed-radius from a resource budget
    validate       resolve and echo the scenario, checking every field

The three sweeps run the array kernels (`qoe_vec`, `classify_vec`,
`leak_prob_from_qoe_vec`, `leak_prob_from_error_vec`) on blocks of
`SWEEP_BLOCK_ROWS` rows gathered from the grid's two axes, so the kernels'
inputs and temporaries are those of one block whatever the grid size;
``resource`` draws its Monte Carlo samples in blocks too
(`resources.MC_BLOCK_SAMPLES`).  Before a table is written, about
`SELF_CHECK_ROWS` evenly spaced rows are recomputed with the scalar
functions; a mismatch beyond `SELF_CHECK_TOL` exits with code 4.

Common flags: ``--config`` (JSON scenario), ``--out`` (output directory),
``--format`` (csv or json tables), ``--seed`` and ``--grid`` overrides.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from itertools import compress
from pathlib import Path

import numpy as np

from .aggregate import AggregateReport, SweepTable, build_report
from .config import (
    ConfigError,
    Scenario,
    check_size,
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
from .tables import CHUNK_ROWS, Categorical, json_cells, round_floats, write_csv, write_json
from .traces import TraceFormatError, generate_synthetic_traces, load_traces, predict_all

#: Samples for the optional channel-rate estimate in ``resource``.
MC_RATE_SAMPLES = 200_000

#: Tolerance for the self-checks guarding emitted reports.
SELF_CHECK_TOL = 1e-9

#: Rows of each sweep table recomputed by the scalar functions before emission.
SELF_CHECK_ROWS = 64

#: Rows of a sweep's grid that one kernel call evaluates at most: the
#: default 181 x 181 grid (32,761 rows) is one block.
SWEEP_BLOCK_ROWS = 2**15


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
        overrides["grids"] = parse_grid_override(",".join(args.grid))
    return resolve_scenario(doc, overrides)


def _emit_table(args: argparse.Namespace, name: str, header: list[str], columns: list,
                fmt: str | None = None) -> None:
    """Write a table in ``fmt``, by default the ``--format`` asked for."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.{fmt or args.format}"
    (write_json if path.suffix == ".json" else write_csv)(path, header, columns)
    _say(f"wrote {path}")


def _grid_pairs(scenario: Scenario, outer: str, inner: str) -> tuple[tuple, list]:
    """The two named grid axes, which `_in_row_blocks` gathers each block's
    kernel inputs from, and every pair of them, outer-major, as two table
    columns: a `Categorical` for an axis of at most `CHUNK_ROWS` points, so
    each value is rendered once per table, else its float column.  A table
    too large is refused at the paths of its given grids."""
    a, b = scenario.grids[outer], scenario.grids[inner]
    paths = [scenario.grid_paths[g] for g in (outer, inner) if g in scenario.grid_paths]
    check_size(len(a) * len(b), ", ".join(paths), f"the {outer} x {inner} table")
    codes = [np.arange(len(g), dtype=np.min_scalar_type(len(g) - 1)) for g in (a, b)]
    table = [
        Categorical(np.repeat(codes[0], len(b)), a) if len(a) <= CHUNK_ROWS else np.repeat(a, len(b)),
        Categorical(np.tile(codes[1], len(a)), b) if len(b) <= CHUNK_ROWS else np.tile(b, len(a)),
    ]
    return (a, b), table


def _in_row_blocks(kernel, outer: np.ndarray, inner: np.ndarray) -> list[np.ndarray]:
    """The output columns of ``kernel`` over every pair of the two axes,
    outer-major, called on blocks of at most `SWEEP_BLOCK_ROWS` rows.  Each
    block gathers its two input columns from the axes by row index, so no
    input outlives its block; ``kernel`` returns one array per column."""
    n, step = len(outer) * len(inner), SWEEP_BLOCK_ROWS
    columns: list = []
    for start in range(0, n, step):
        block = np.arange(start, min(start + step, n))  # freed once it picks the inputs
        block = outer[block // len(inner)], inner[block % len(inner)]
        outputs = kernel(*block)
        if n <= step:
            return list(outputs)
        columns = columns or [np.empty(n, dtype=out.dtype) for out in outputs]
        for column, out in zip(columns, outputs):
            column[start:start + step] = out
    return columns


def _names(codes: np.ndarray, members: tuple) -> Categorical:
    """The enum values of int8 kernel codes, as a table column."""
    return Categorical(codes, [m.value for m in members])


def _cell(column, i: int):
    """Row ``i`` of a table column, as a Python value."""
    value = column.vocabulary[column.codes[i]] if isinstance(column, Categorical) else column[i]
    return value.item() if isinstance(value, np.generic) else value


def _check_rows(table: str, header: list[str], columns: list, reference) -> None:
    """Compare evenly spaced emitted rows with the scalar reference.

    About `SELF_CHECK_ROWS` rows, at fixed positions, are read from the
    columns and recomputed by ``reference(row)`` from their input cells;
    floats must agree within `SELF_CHECK_TOL` (absolute or relative) and
    every other cell exactly.
    """
    first = columns[0]
    n = len(first.codes if isinstance(first, Categorical) else first)
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
    (eps, e), (eps_column, e_column) = _grid_pairs(scenario, "epsilon", "error")

    def kernel(eps: np.ndarray, e: np.ndarray) -> tuple:
        res = leak_prob_from_error_vec(e, eps)
        return res.probability, res.zone_kind, res.zone_measure

    prob, kind, measure = _in_row_blocks(kernel, eps, e)
    header = ["e_rad", "epsilon_rad", "leak_prob", "zone_kind", "zone_measure"]
    columns = [e_column, eps_column, prob, _names(kind, ZONE_KINDS), measure]

    def reference(row: list) -> list:
        ref = leak_prob_from_error(row[0], row[1])
        return [row[0], row[1], ref.probability, ref.zone_kind.value, ref.zone_measure]

    _check_rows("error_sweep", header, columns, reference)
    _emit_table(args, "error_sweep", header, columns)
    return 0


def cmd_sweep_qoe(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    fov = scenario.r_fov
    (sv, e), grid_columns = _grid_pairs(scenario, "r_sv", "error")
    q, case = _in_row_blocks(lambda sv, e: (qoe_vec(fov, sv, e), classify_vec(fov, sv, e)), sv, e)
    header = ["r_sv_rad", "e_rad", "qoe", "case"]
    columns = [*grid_columns, q, _names(case, CASES)]

    def reference(row: list) -> list:
        return [row[0], row[1], qoe(fov, row[0], row[1]), classify(fov, row[0], row[1]).value]

    _check_rows("qoe_sweep", header, columns, reference)
    _emit_table(args, "qoe_sweep", header, columns)
    return 0


def cmd_sweep_leakage(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    fov, eps = scenario.r_fov, scenario.epsilon
    (sv, e), grid_columns = _grid_pairs(scenario, "r_sv", "error")

    def kernel(sv: np.ndarray, e: np.ndarray) -> tuple:
        q = qoe_vec(fov, sv, e)
        res = leak_prob_from_qoe_vec(q, fov, sv, eps)
        return q, res.case, res.probability, res.zone_kind, res.zone_measure

    q, case, prob, kind, measure = _in_row_blocks(kernel, sv, e)
    header = ["r_sv_rad", "e_rad", "qoe", "case", "leak_prob", "zone_kind", "zone_measure"]
    columns = [*grid_columns, q, _names(case, CASES), prob, _names(kind, ZONE_KINDS), measure]

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


def _json_objects(names: list[str], block: np.ndarray, keep: np.ndarray) -> list[str]:
    """Per row of ``block`` (row, name), the JSON object of the ``names``
    (sorted) that ``keep`` marks, at a point's depth; every radius reports
    at least one case."""
    keys = [f'\n        "{name}": ' for name in names]
    return [
        "{" + ",".join(compress(map(operator.add, keys, cells), kept)) + "\n      }"
        for cells, kept in zip(zip(*map(json_cells, block.T)), keep.tolist())
    ]


def _write_report(args: argparse.Namespace, report: AggregateReport) -> None:
    """Write ``report.json``: the bytes of ``json.dumps(round_floats(doc), indent=2,
    sort_keys=True)``, with the points rendered from the sweep's columns
    `CHUNK_ROWS` radii at a time."""
    path = Path(args.out) / "report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    head = {
        "n_samples": report.n_samples,
        "r_fov_rad": report.r_fov,
        "epsilon_rad": report.epsilon,
        "mean_error_subset_rad": report.mean_error_subset,
        "gamma_tradeoff": report.gamma_tradeoff,
        "gamma_consist": report.gamma_consist,
        "regions": report.regions._asdict(),
        "points": None,
    }
    before, after = json.dumps(round_floats(head), indent=2, sort_keys=True).split('"points": null')
    sweep, reported = report.sweep, report.sweep.reported
    order = sorted(range(len(CASES)), key=lambda k: CASES[k].value)
    names = [CASES[k].value for k in order]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(before + '"points": [')
        for a in range(0, len(sweep), CHUNK_ROWS):
            rows = slice(a, a + CHUNK_ROWS)
            keep = reported[rows, order]
            ratios = _json_objects(names, sweep.ratios[rows, order], keep)
            components = _json_objects(names, sweep.components[rows, order], keep)
            scalars = map(json_cells, (sweep.total[rows], sweep.mean_qoe[rows], sweep.r_sv[rows]))
            points = [
                f'{{\n      "case_ratios": {r},\n      "leakage_components": {c},\n      '
                f'"leakage_total": {t},\n      "mean_qoe": {q},\n      "r_sv_rad": {s}\n    }}'
                for r, c, t, q, s in zip(ratios, components, *scalars)
            ]
            fh.write(("," if a else "") + "\n    " + ",\n    ".join(points))
        fh.write(("\n  ]" if len(sweep) else "]") + after + "\n")
    _say(f"wrote {path}")


def _check_report(sweep: SweepTable) -> None:
    """Structural self-checks on an aggregate sweep before emission."""
    averages = np.column_stack([sweep.total, sweep.mean_qoe])
    claims = {
        "case ratios sum to 1": np.abs(sweep.ratios.sum(axis=1) - 1.0) <= SELF_CHECK_TOL,
        "leakage components sum to the total":
            np.abs(sweep.components.sum(axis=1) - sweep.total) <= SELF_CHECK_TOL,
        "average leakage and QoE lie in [0, 1]": ((0.0 <= averages) & (averages <= 1.0)).all(axis=1),
    }
    for claim, holds in claims.items():
        if not holds.all():
            i = int(np.argmin(holds))  # the first radius where it fails
            cells = {name: column[i].tolist() for name, column in sweep._asdict().items()}
            raise InternalInconsistencyError(f"expected {claim} at r_sv={cells.pop('r_sv')!r}: {cells}")


def _population_traces(scenario: Scenario) -> list:
    """The scenario's traces: read from ``traces_csv``, else synthesized."""
    if scenario.traces_csv is not None:
        return load_traces(scenario.traces_csv)
    if scenario.synthetic is not None:
        spec = scenario.synthetic
        return generate_synthetic_traces(
            spec.model, spec.n_traces, spec.duration, spec.rate, scenario.seed
        )
    raise ConfigError("config: trace pipeline needs traces_csv or a synthetic block")


def cmd_trace(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    if scenario.epsilon <= 0.0:
        raise ConfigError(
            f"config.epsilon: the trace pipeline needs a protection radius above 0, "
            f"got {scenario.epsilon!r}"
        )
    if scenario.grids["epsilon"].tolist() != [scenario.epsilon]:
        raise ConfigError(
            f"{scenario.grid_paths['epsilon']}: the trace pipeline takes no epsilon grid; "
            f"it runs at config.epsilon = {scenario.epsilon!r} alone"
        )
    min_leak = min_leak_prob_error(scenario.epsilon)
    if scenario.max_leak_prob is not None and scenario.max_leak_prob < min_leak:
        raise ConfigError(
            f"config.max_leak_prob: {scenario.max_leak_prob!r} is below the attainable "
            f"minimum epsilon/pi = {min_leak!r}"
        )
    # the traces are an argument only: their last reference goes when predict_all returns
    errors = predict_all(_population_traces(scenario), scenario.windowing, scenario.predictor)
    req = (
        PrivacyRequirement(scenario.epsilon, scenario.max_leak_prob)
        if scenario.max_leak_prob is not None
        else None
    )
    report = build_report(errors, scenario.r_fov, scenario.epsilon, scenario.grids["r_sv"], req=req)
    _check_report(report.sweep)
    _write_report(args, report)

    sweep, reported = report.sweep, report.sweep.reported
    order = sorted(np.flatnonzero(reported.any(axis=0)), key=lambda k: CASES[k].value)
    names = [CASES[k].value for k in order]
    header = ["r_sv_rad", *(f"ratio_{c}" for c in names), *(f"leak_{c}" for c in names),
              "leak_total", "mean_qoe"]
    columns = [sweep.r_sv, *(sweep.ratios[:, k] for k in order),
               *(sweep.components[:, k] for k in order), sweep.total, sweep.mean_qoe]
    _emit_table(args, "aggregate_sweep", header, columns)

    # A figures.csv row per kept cell of this block, radius by radius: the total,
    # the components and ratios of the cases the radius reports, the mean QoE.
    block = np.column_stack([sweep.total, sweep.components, sweep.ratios, sweep.mean_qoe])
    keep = np.pad(np.tile(reported, 2), ((0, 0), (1, 1)), constant_values=True)
    series = np.broadcast_to(np.arange(block.shape[1], dtype=np.int8), block.shape)[keep]
    figures = ["avg_leakage_vs_r_sv"] * (1 + len(CASES)) + ["case_ratio_vs_r_sv"] * len(CASES)
    labels = ["total", *(f"component:{c.value}" for c in CASES), *(c.value for c in CASES)]
    columns = [
        Categorical(series, figures + ["mean_qoe_vs_r_sv"]), Categorical(series, labels + ["mean_qoe"]),
        np.repeat(sweep.r_sv, keep.sum(axis=1)), block[keep],
    ]
    _emit_table(args, "figures", ["figure", "series", "x", "y"], columns, "csv")
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
        try:
            est = mc_avg_rate(scenario.channel, MC_RATE_SAMPLES, scenario.seed)
            cap_est = capability(cfg._replace(avg_data_rate=est), tile)
        except ValueError as exc:
            raise ConfigError(f"config.channel: rate estimate: {exc}") from None
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
            **scenario.windowing._asdict(),
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call of a process."""
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
        p.add_argument("--grid", action="append",
                       help="grid override, e.g. error=0:3.14159:100,r_sv=0:3.14159:50 (repeatable)")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QoeInconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 4
    except (TraceFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
