"""Reference digests of CLI outputs, and their comparison.

A byte hash would fail on the 12th-digit changes a faithful vectorization
may make, so outputs are compared column by column instead:

- categorical columns exactly, through a sha256 of the column;
- float columns through sums over at most ``BUCKETS`` contiguous row
  blocks.  Each cell ``v`` may differ by ``TOL * max(1, |v|)``, and a block
  may differ by the sum of its cells' allowances.  So outputs whose every
  cell is within tolerance of the reference always pass, and a single
  cell off by more than a whole block's allowance always fails (about
  ``TOL * 256`` on the 32,761-row grid tables).

JSON documents are flattened to (path, value) rows first.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import FLOAT_COLUMNS, read_table

TOL = 1e-9
BUCKETS = 128


def _flatten(obj, prefix: str, out: list[tuple[str, object]]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out.append((prefix, obj))


def output_columns(path: Path) -> dict[str, list]:
    """Columns of one output file: float lists or string lists."""
    if path.suffix == ".json":
        leaves: list[tuple[str, object]] = []
        _flatten(json.loads(path.read_text(encoding="utf-8")), "", leaves)
        numeric = [(k, v) for k, v in leaves if isinstance(v, (int, float)) and not isinstance(v, bool)]
        other = [(k, v) for k, v in leaves if not (isinstance(v, (int, float)) and not isinstance(v, bool))]
        return {
            "num_path": [k for k, _ in numeric],
            "num_value": [float(v) for _, v in numeric],
            "other_path": [k for k, _ in other],
            "other_value": [json.dumps(v) for _, v in other],
        }
    header, rows = read_table(path)
    float_cols = FLOAT_COLUMNS.get(path.name)
    cols: dict[str, list] = {}
    for i, name in enumerate(header):
        cells = [row[i] for row in rows]
        # tables without a listed schema (the aggregate sweep) are all floats
        is_float = name in float_cols if float_cols is not None else True
        cols[name] = [float(c) for c in cells] if is_float else cells
    return cols


def _is_float_column(values: list) -> bool:
    return bool(values) and isinstance(values[0], float)


def _sha256(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


def _blocks(n: int) -> list[tuple[int, int]]:
    b = min(BUCKETS, n)
    return [(i * n // b, (i + 1) * n // b) for i in range(b)]


def digest(columns: dict[str, list]) -> dict:
    out: dict = {"rows": {name: len(v) for name, v in columns.items()}, "columns": {}}
    for name, values in columns.items():
        if _is_float_column(values):
            out["columns"][name] = {"sums": [math.fsum(values[a:b]) for a, b in _blocks(len(values))]}
        else:
            out["columns"][name] = {"sha256": _sha256(values)}
    return out


def compare(columns: dict[str, list], ref: dict, label: str) -> list[str]:
    """Problems found comparing columns with a reference digest."""
    problems: list[str] = []
    if sorted(columns) != sorted(ref["columns"]):
        return [f"{label}: columns {sorted(columns)!r} differ from reference {sorted(ref['columns'])!r}"]
    for name, values in columns.items():
        want_rows = ref["rows"][name]
        if len(values) != want_rows:
            problems.append(f"{label}:{name}: {len(values)} rows, reference has {want_rows}")
            continue
        spec = ref["columns"][name]
        if "sha256" in spec:
            if _is_float_column(values) or _sha256(values) != spec["sha256"]:
                problems.append(f"{label}:{name}: categorical values differ from reference")
            continue
        for (a, b), want in zip(_blocks(len(values)), spec["sums"]):
            block = values[a:b]
            got = math.fsum(block)
            slack = math.fsum(TOL * max(1.0, abs(v)) + 4e-16 * abs(v) for v in block)
            if not abs(got - want) <= slack:
                problems.append(
                    f"{label}:{name}: rows {a}..{b - 1} sum to {got!r}, reference {want!r} "
                    f"(allowed {slack:.3g})"
                )
                break
    return problems


def digest_outputs(out: Path, files: list[str]) -> dict:
    return {name: digest(output_columns(out / name)) for name in files}


def compare_outputs(out: Path, files: list[str], ref: dict) -> list[str]:
    problems: list[str] = []
    for name in files:
        if name not in ref:
            problems.append(f"{name}: not in the reference")
            continue
        problems += compare(output_columns(out / name), ref[name], name)
    return problems
