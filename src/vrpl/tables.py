"""Table and report emission.

All emitted floats are rendered with 12 significant digits, identically in
CSV cells and JSON documents, so reruns with identical inputs and seeds
are byte-identical and every table re-parses with `read_csv`.

Tables are written from columns.  A column holds one kind of value:

- floats: a float array or a list of floats (a sweep grid, say);
- integers or booleans: an integer or bool array or list;
- strings: a list of strings, or a `Categorical` of codes into a
  vocabulary.

Tables are written in chunks of `CHUNK_ROWS` rows, so memory beyond the
columns does not grow with the table.  Within a chunk each distinct value
of a column is rendered once and every row reuses its text; floats are
told apart by their bit pattern, so ``-0.0`` and ``0.0`` keep their own
text (``-0`` and ``0``).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

#: Rows rendered and written per chunk.
CHUNK_ROWS = 2048


def format_float(x: float) -> str:
    """Render a float with 12 significant digits."""
    return f"{x:.12g}"


class Categorical(NamedTuple):
    """A string column stored as integer codes into its vocabulary."""

    codes: np.ndarray
    vocabulary: Sequence[str]


class _Style(NamedTuple):
    """How one output format renders a float and a string cell."""

    float: Callable[[float], str]
    string: Callable[[str], str]


def _csv_string(s: str) -> str:
    """A cell as the csv module's minimal quoting writes it."""
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _json_float(x: float) -> str:
    """A float as ``json.dump(round_floats(x))`` writes it."""
    return repr(float(format_float(x))) if math.isfinite(x) else "null"


_CSV = _Style(format_float, _csv_string)
#: In a one-column table an empty cell is quoted, so its row does not read
#: back as a blank line (the csv module does the same).
_CSV_ONE_COLUMN = _Style(format_float, lambda s: _csv_string(s) or '""')
_JSON = _Style(_json_float, json.dumps)


def _cells(column, style: _Style) -> list[str]:
    """The rendered cells of a column (an array or a `Categorical`).

    Each distinct value is rendered once; floats are keyed on their bit
    pattern, since a value key would merge ``-0.0`` into ``0.0``.
    """
    if isinstance(column, Categorical):
        text, index = map(style.string, column.vocabulary), column.codes
    elif column.dtype.kind == "f":
        keys, index = np.unique(column.astype(np.float64).view(np.uint64), return_inverse=True)
        text = map(style.float, keys.view(np.float64).tolist())
    else:
        # integers and booleans read the same in both formats: 3, true, false
        keys, index = np.unique(column, return_inverse=True)
        text = map(style.string if column.dtype.kind == "U" else json.dumps, keys.tolist())
    return np.array(list(text), dtype=object)[index].tolist()


def json_cells(column: np.ndarray) -> list[str]:
    """The cells of a float column as `write_json` renders them."""
    return _cells(column, _JSON)


def _table(header: Sequence[str], columns: Sequence) -> tuple[list, int]:
    """Columns as arrays (a `Categorical` as is), and their common length."""
    columns = [c if isinstance(c, Categorical) else np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"table has {len(header)} column names but {len(columns)} columns")
    lengths = {len(c.codes if isinstance(c, Categorical) else c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    return columns, lengths.pop() if lengths else 0


def _write_rows(fh, columns: list, n: int, style: _Style, cell_sep: str, row_sep: str) -> None:
    """Write ``n`` rows, ``row_sep`` between rows and ``cell_sep`` between cells.

    Each chunk of `CHUNK_ROWS` rows is rendered, joined and written before
    the next one starts.
    """
    for a in range(0, n, CHUNK_ROWS):
        chunk = [
            Categorical(c.codes[a:a + CHUNK_ROWS], c.vocabulary)
            if isinstance(c, Categorical) else c[a:a + CHUNK_ROWS]
            for c in columns
        ]
        if a:
            fh.write(row_sep)
        fh.write(row_sep.join(map(cell_sep.join, zip(*(_cells(c, style) for c in chunk)))))


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a table with a fixed column order and formatted floats.

    The bytes are those of the csv module's default writer (minimal
    quoting, ``\\r\\n`` line ends) over the rendered cells.
    """
    columns, n = _table(header, columns)
    style = _CSV_ONE_COLUMN if len(columns) == 1 else _CSV
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(style.string, header)) + "\r\n")
        _write_rows(fh, columns, n, style, ",", "\r\n")
        if n:
            fh.write("\r\n")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read back a table written by `write_csv` (header, string rows)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty table")
        rows = [row for row in reader if row]
    return header, rows


def round_floats(obj: Any) -> Any:
    """Recursively round floats to 12 significant digits for JSON output."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def write_json(path: str | Path, obj: Any, columns: Sequence | None = None) -> None:
    """Write a JSON report with sorted keys and rounded floats.

    With ``columns``, ``obj`` is a table header and the document is
    ``{"columns": header, "rows": [[...], ...]}``, written from the
    columns with the bytes ``json.dump`` gives that document.
    """
    if columns is not None:
        columns, n = _table(obj, columns)
    with Path(path).open("w", encoding="utf-8") as fh:
        if columns is None:
            json.dump(round_floats(obj), fh, indent=2, sort_keys=True)
        else:
            names = ",\n    ".join(map(json.dumps, obj))
            fh.write('{\n  "columns": ' + (f"[\n    {names}\n  ]" if obj else "[]") + ',\n  "rows": ')
            if n:
                fh.write("[\n    [\n      ")
                _write_rows(fh, columns, n, _JSON, ",\n      ", "\n    ],\n    [\n      ")
                fh.write("\n    ]\n  ]\n}")
            else:
                fh.write("[]\n}")
        fh.write("\n")
