import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrpl.cli
from vrpl.cli import main
from vrpl.config import DEFAULT_R_FOV_RAD
from vrpl.qoe import CASES, classify_vec, qoe_vec
from support import read_csv
from vrpl.tables import (
    CHUNK_ROWS,
    Categorical,
    format_float,
    round_floats,
    write_csv,
    write_json,
)


# ---------------------------------------------------------------------------
# reference: the row-at-a-time writer the columnar one replaced


def _ref_cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _ref_csv(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_ref_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _ref_json(header, rows) -> bytes:
    doc = round_floats({"columns": list(header), "rows": [list(r) for r in rows]})
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _python_rows(columns) -> list[tuple]:
    """The rows of table columns as Python values."""
    def values(c):
        if isinstance(c, Categorical):
            return [c.vocabulary[k] for k in np.asarray(c.codes).tolist()]
        return c.tolist() if isinstance(c, np.ndarray) else list(c)

    return list(zip(*map(values, columns)))


def _written(tmp_path, header, columns) -> tuple[bytes, bytes]:
    write_csv(tmp_path / "t.csv", header, columns)
    write_json(tmp_path / "t.json", header, columns)
    return (tmp_path / "t.csv").read_bytes(), (tmp_path / "t.json").read_bytes()


def _assert_matches_reference(tmp_path, header, columns):
    rows = _python_rows(columns)
    got_csv, got_json = _written(tmp_path, header, columns)
    assert got_csv == _ref_csv(header, rows)
    assert got_json == _ref_json(header, rows)


def test_format_float():
    assert format_float(0.1) == "0.1"
    assert format_float(math.pi) == "3.14159265359"
    assert format_float(1.0) == "1"
    assert format_float(1e-15) == "1e-15"
    # Idempotent: re-formatting the parsed value reproduces the string.
    for x in (math.pi, 2.0 / 3.0, 1.23456789e-7, 12345.6789):
        s = format_float(x)
        assert format_float(float(s)) == s


def test_csv_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    header = ["a", "b", "c"]
    labels = Categorical(np.array([0, 1], dtype=np.int8), ["label", "x,y"])
    columns = [[0.5, math.pi], labels, np.array([3.0, -1.0])]
    write_csv(p, header, columns)
    assert read_csv(p) == (header, [["0.5", "label", "3"], ["3.14159265359", "x,y", "-1"]])
    assert p.read_bytes() == _ref_csv(header, _python_rows(columns))


def test_round_floats_nested():
    doc = {"a": math.pi, "b": [1.0 / 3.0, {"c": math.inf}], "d": "keep", "e": True}
    out = round_floats(doc)
    assert out["a"] == float("3.14159265359")
    assert out["b"][0] == float("0.333333333333")
    assert out["b"][1]["c"] is None
    assert out["d"] == "keep"
    assert out["e"] is True


def test_write_json_deterministic(tmp_path):
    doc = {"z": 0.1, "a": [1.5, 2.5]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, doc)
    write_json(p2, dict(reversed(list(doc.items()))))
    # Sorted keys make key order irrelevant.
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["a"] == [1.5, 2.5]
    assert p1.read_text().endswith("\n")


# ---------------------------------------------------------------------------
# the columnar writer against the reference


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-15]
_floats = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
_strings = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\xe9-')), max_size=6)


@st.composite
def _tables(draw):
    """A header and float, list and `Categorical` columns.  A one-column
    table holds floats under a name that is not empty: the csv module
    quotes a lone empty cell, and the writer does not."""
    n = draw(st.integers(0, 6))
    width = draw(st.integers(1, 5))
    header, columns = [], []
    for j in range(width):
        kind = draw(st.sampled_from(["float", "list", "categorical"] if width > 1 else ["float", "list"]))
        if kind == "float":
            column = np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=float)
        elif kind == "list":
            column = draw(st.lists(_floats, min_size=n, max_size=n))
        else:
            vocabulary = draw(st.lists(_strings, min_size=1, max_size=3, unique=True))
            codes = draw(st.lists(st.integers(0, len(vocabulary) - 1), min_size=n, max_size=n))
            column = Categorical(np.array(codes, dtype=np.int8), vocabulary)
        header.append(draw(_strings.filter(bool) if width == 1 else _strings))
        columns.append(column)
    return header, columns


@settings(max_examples=150)
@given(_tables())
def test_columnar_writer_matches_row_writer(tmp_path_factory, table):
    header, columns = table
    _assert_matches_reference(tmp_path_factory.mktemp("t"), header, columns)


def test_header_only_table_matches_row_writer(tmp_path):
    header = ["a", "b,c"]
    _assert_matches_reference(tmp_path, header, [np.array([]), []])
    assert _written(tmp_path, header, [np.array([]), []]) == (
        b'a,"b,c"\r\n', b'{\n  "columns": [\n    "a",\n    "b,c"\n  ],\n  "rows": []\n}\n'
    )


def test_tables_longer_than_a_chunk_match_row_writer(tmp_path):
    n = 2 * CHUNK_ROWS + 3
    x = np.linspace(0.0, 1.0, n)
    codes = (np.arange(n) % len(CASES)).astype(np.int8)
    _assert_matches_reference(
        tmp_path, ["x", "case", "i"], [x, Categorical(codes, [c.value for c in CASES]), np.arange(n) / 7.0]
    )


def test_signed_zero_and_non_finite_cells(tmp_path):
    header, column = ["v"], np.array(_SPECIAL)
    got_csv, got_json = _written(tmp_path, header, [column])
    assert [row[0] for row in read_csv(tmp_path / "t.csv")[1]] == [format_float(x) for x in _SPECIAL]
    assert got_csv.decode().split("\r\n")[1:3] == ["0", "-0"]
    cells = re.findall(r"^      (.*)$", got_json.decode(), flags=re.M)
    assert cells == [json.dumps(round_floats(x)) for x in _SPECIAL]
    assert cells[:3] == ["0.0", "-0.0", "null"]
    assert (got_csv, got_json) == (_ref_csv(header, [(x,) for x in _SPECIAL]),
                                   _ref_json(header, [(x,) for x in _SPECIAL]))


def test_quoted_cells_round_trip(tmp_path):
    cells = ['a"b', "two\nlines", "", "cr\rx", "x,y"]
    p = tmp_path / "q.csv"
    codes = np.arange(len(cells), dtype=np.int8)[::-1]
    columns = [Categorical(codes, cells), np.arange(len(cells), dtype=float)]
    write_csv(p, ["s", "n"], columns)
    assert read_csv(p) == (["s", "n"], [[c, str(i)] for i, c in enumerate(reversed(cells))])
    assert p.read_bytes() == _ref_csv(["s", "n"], _python_rows(columns))


def test_malformed_tables_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError, match="1 column names but 2 columns"):
        write_json(tmp_path / "t.json", ["a"], [[1.0], [2.0]])
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "t.json").exists()


#: A float vocabulary: signed zeros, non-finite values and values that
#: 12 significant digits round.
_VOCABULARY = _SPECIAL + [math.pi, 1.0 / 3.0, 0.5]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [0, 12, 2 * CHUNK_ROWS + 3])
def test_float_vocabulary_writes_the_bytes_of_its_float_column(tmp_path, n, dtype):
    vocabulary = np.array(_VOCABULARY, dtype=dtype)
    codes = (np.arange(n) * 3 % len(vocabulary)).astype(np.uint8)  # every value in the first 10 rows
    column = Categorical(codes, vocabulary)
    for header, columns, plain in [
        (["x"], [column], [vocabulary[codes]]),  # one column
        (["i", "x,y"], [np.arange(n), column], [np.arange(n), vocabulary[codes]]),
    ]:
        got = _written(tmp_path, header, columns)
        assert got == _written(tmp_path, header, plain)
        if n:
            cells = re.findall(r"^      (.*?),?$", got[1].decode(), flags=re.M)[len(header) - 1::len(header)]
            assert cells[:len(_VOCABULARY)] == [
                json.dumps(round_floats(float(x))) for x in vocabulary[codes[:len(_VOCABULARY)]]
            ]
            assert {"-0.0", "0.0", "null"} <= set(cells)


def test_vocabulary_longer_than_a_chunk_is_refused(tmp_path):
    codes = np.zeros(3, dtype=np.uint16)
    too_long = [Categorical(codes, np.arange(CHUNK_ROWS + 1.0)), Categorical(codes, ["s"] * (CHUNK_ROWS + 1))]
    for column in too_long:
        for write, name in ((write_csv, "t.csv"), (write_json, "t.json")):
            with pytest.raises(ValueError, match=f"vocabulary holds {CHUNK_ROWS + 1} values"):
                write(tmp_path / name, ["x"], [column])
            assert not (tmp_path / name).exists()
    write_csv(tmp_path / "t.csv", ["x"], [Categorical(codes, np.arange(float(CHUNK_ROWS)))])
    assert (tmp_path / "t.csv").read_bytes() == b"x\r\n0\r\n0\r\n0\r\n"


_SWEEP_TABLES = {"sweep-error": "error_sweep", "sweep-qoe": "qoe_sweep", "sweep-leakage": "leakage_sweep"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(_SWEEP_TABLES))
def test_sweep_grid_axes_write_the_bytes_of_their_float_columns(tmp_path, monkeypatch, capsys, command, fmt):
    # 61 x 61 = 3,721 rows, two chunks; each grid axis goes to the writer as a
    # Categorical of its values, and must read as the plain float column would
    tables = []

    def keeping(write):
        return lambda path, header, columns: tables.append((header, columns)) or write(path, header, columns)

    monkeypatch.setattr(vrpl.cli, "write_csv", keeping(write_csv))
    monkeypatch.setattr(vrpl.cli, "write_json", keeping(write_json))
    grid = "error=0:3.14159:61,r_sv=0:3.14159:61,epsilon=0:0.8:61"
    assert main([command, "--grid", grid, "--format", fmt, "--out", str(tmp_path)]) == 0
    [(header, columns)] = tables
    axes = [isinstance(c, Categorical) and isinstance(c.vocabulary, np.ndarray) for c in columns]
    assert axes[:2] == [True, True] and not any(axes[2:])
    assert [len(c.codes) for c in columns[:2]] == [61 * 61] * 2
    plain = [c.vocabulary[c.codes] if axis else c for c, axis in zip(columns, axes)]
    (write_csv if fmt == "csv" else write_json)(tmp_path / f"plain.{fmt}", header, plain)
    got = (tmp_path / f"{_SWEEP_TABLES[command]}.{fmt}").read_bytes()
    assert got == (tmp_path / f"plain.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_signed_zero_grid_keeps_each_sign(tmp_path, fmt):
    grid = [0.5, -0.0, 0.0, -0.0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grids": {"r_sv": grid, "error": [0.0, 1.0]}}), encoding="utf-8")
    assert main(["sweep-qoe", "--config", str(cfg), "--out", str(tmp_path), "--format", fmt]) == 0
    got = (tmp_path / f"qoe_sweep.{fmt}").read_bytes()
    # the row writer over the grid's floats and the kernels' outputs
    sv, e = [s for s in grid for _ in (0, 1)], [0.0, 1.0] * len(grid)
    cases = [CASES[c].value for c in classify_vec(DEFAULT_R_FOV_RAD, sv, e)]
    rows = list(zip(sv, e, qoe_vec(DEFAULT_R_FOV_RAD, sv, e).tolist(), cases))
    assert got == (_ref_csv if fmt == "csv" else _ref_json)(["r_sv_rad", "e_rad", "qoe", "case"], rows)
    if fmt == "csv":
        first = [row[0] for row in read_csv(tmp_path / "qoe_sweep.csv")[1]]
        assert first == ["0.5", "0.5", "-0", "-0", "0", "0", "-0", "-0"]
    else:
        signs = [math.copysign(1.0, row[0]) for row in json.loads(got)["rows"]]
        assert signs == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]


def test_every_command_writes_tables_of_float64_and_categorical_columns(tmp_path, monkeypatch, capsys):
    # the writer renders these two column kinds alone, so every table a command writes holds only them
    tables, documents = [], []

    def keeping(write):
        def wrapped(path, obj, columns=None):
            (documents if columns is None else tables).append((Path(path).name, obj, columns))
            return write(path, obj, columns)
        return wrapped

    monkeypatch.setattr(vrpl.cli, "write_csv", keeping(write_csv))
    monkeypatch.setattr(vrpl.cli, "write_json", keeping(write_json))
    doc = {
        "synthetic": {"model": "random_walk", "kappa": 100.0, "n_traces": 2, "duration_s": 10.0,
                      "rate_hz": 5.0},
        "grids": {"r_sv": [0.0, 0.5, math.pi], "error": [0.0, 0.5, 1.0]},
        "resources": {"compute_flops": 1e12, "users": 4, "flops_per_bit": 100.0, "avg_data_rate": 4e8,
                      "cc_duration": 0.0820224, "frames_per_segment": 30, "tiles_per_frame": 200},
        "tile": {"px_w": 64, "px_h": 64, "bits_per_pixel": 12, "compression_ratio": 16.0},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("sweep-error", "sweep-qoe", "sweep-leakage", "trace", "resource", "validate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    names = ["error_sweep.csv", "qoe_sweep.csv", "leakage_sweep.csv", "aggregate_sweep.csv", "figures.csv"]
    assert [name for name, _, _ in tables] == names
    assert [name for name, _, _ in documents] == ["resource_summary.json"]
    for name, header, columns in tables:
        assert len(header) == len(columns) >= 2, name
        for column in columns:
            assert isinstance(column, Categorical) or (
                isinstance(column, np.ndarray) and column.dtype == np.float64
            ), (name, type(column))
