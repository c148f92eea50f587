import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrpl import (
    GreatCircleDrift,
    Predictor,
    RandomWalk,
    TraceFormatError,
    ViewpointTrace,
    WindowingConfig,
    generate_synthetic_traces,
    load_traces,
    predict,
    predict_all,
    save_traces,
)
from vrpl import cli as cli_module
from vrpl import traces as traces_module
from vrpl.cli import main
from vrpl.traces import _points, _unit_tangents, _unit_vectors

from support import reference_random_walk, scalar_synthetic_unit_vectors

WIN = WindowingConfig(t_obw=1.0, t_cc=1.0, t_pdw=1.0)


def _write(tmp_path, text: str):
    p = tmp_path / "traces.csv"
    p.write_text(text, encoding="utf-8")
    return p


HEADER = "user_id,video_id,timestamp_s,theta_rad,phi_rad\n"


def test_load_basic(tmp_path):
    rows = "".join(
        f"u1,v1,{i * 0.2},{0.01 * i},{0.005 * i}\n" for i in range(300)
    )
    traces = load_traces(_write(tmp_path, HEADER + rows))
    assert len(traces) == 1
    tr = traces[0]
    assert (tr.user_id, tr.video_id) == ("u1", "v1")
    assert len(tr) == 300
    assert tr.sample_rate == pytest.approx(5.0, abs=1e-9)


def test_load_groups_consecutive_keys(tmp_path):
    text = HEADER + (
        "a,v,0.0,0.0,0.0\n"
        "a,v,0.2,0.1,0.0\n"
        "b,v,0.0,0.0,0.0\n"
        "b,v,0.2,0.1,0.0\n"
        "a,w,0.0,0.0,0.0\n"
        "a,w,0.2,0.1,0.0\n"
    )
    traces = load_traces(_write(tmp_path, text))
    assert [(t.user_id, t.video_id) for t in traces] == [("a", "v"), ("b", "v"), ("a", "w")]


def test_load_rejects_non_contiguous_key_with_line(tmp_path):
    text = HEADER + (
        "a,v,0.0,0.0,0.0\n"
        "a,v,0.2,0.1,0.0\n"
        "b,v,0.0,0.0,0.0\n"
        "b,v,0.2,0.1,0.0\n"
        "a,v,0.4,0.0,0.0\n"
        "a,v,0.6,0.1,0.0\n"
    )
    with pytest.raises(TraceFormatError, match=r":6: rows of trace a/v are not contiguous"):
        load_traces(_write(tmp_path, text))


def test_load_rejects_bad_header(tmp_path):
    with pytest.raises(TraceFormatError, match="header"):
        load_traces(_write(tmp_path, "user,video,t,theta,phi\nu,v,0,0,0\n"))


def test_load_rejects_empty(tmp_path):
    with pytest.raises(TraceFormatError, match="zero traces"):
        load_traces(_write(tmp_path, ""))
    with pytest.raises(TraceFormatError, match="zero traces"):
        load_traces(_write(tmp_path, HEADER))


def test_load_rejects_bad_latitude_with_line(tmp_path):
    text = HEADER + "u,v,0.0,0.0,0.0\nu,v,0.2,0.0,0.0\nu,v,0.4,0.0,2.0\n"
    with pytest.raises(TraceFormatError, match=":4:"):
        load_traces(_write(tmp_path, text))


def test_load_rejects_non_numeric_with_line(tmp_path):
    text = HEADER + "u,v,0.0,0.0,0.0\nu,v,abc,0.0,0.0\n"
    with pytest.raises(TraceFormatError, match=":3:"):
        load_traces(_write(tmp_path, text))


@pytest.mark.parametrize("line", [1, 5], ids=["header", "row"])
def test_load_rejects_oversized_field_with_line(tmp_path, line):
    # a field over csv.field_size_limit() (131,072 characters) stops the csv reader
    lines = [HEADER.strip()] + [f"u,v,{i / 5},0.0,0.0" for i in range(20)]
    lines[line - 1] = "u" * 140_000 + lines[line - 1][1:]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    message = _outcome(load_traces, path)
    assert message.startswith(f"{path}:{line}: field larger than field limit")
    assert _outcome(_by_rows, path) == message


def test_load_rejects_column_mismatch(tmp_path):
    text = HEADER + "u,v,0.0,0.0\n"
    with pytest.raises(TraceFormatError, match="columns"):
        load_traces(_write(tmp_path, text))


def test_load_rejects_non_monotone_time(tmp_path):
    text = HEADER + "u,v,0.0,0.0,0.0\nu,v,0.2,0.0,0.0\nu,v,0.2,0.1,0.0\n"
    with pytest.raises(TraceFormatError, match="increasing"):
        load_traces(_write(tmp_path, text))


def test_trace_validation():
    with pytest.raises(TraceFormatError, match="fewer than 2"):
        ViewpointTrace("u", "v", np.array([0.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(TraceFormatError, match="non-uniform"):
        ViewpointTrace(
            "u",
            "v",
            np.array([0.0, 0.2, 0.5]),
            np.zeros(3),
            np.zeros(3),
        )
    tr = ViewpointTrace("u", "v", np.array([0.0, 0.2]), np.array([4.0, 0.0]), np.zeros(2))
    # Longitudes are normalized into [-pi, pi).
    assert tr.theta[0] == pytest.approx(4.0 - 2.0 * math.pi, abs=1e-12)
    assert not tr.theta.flags.writeable


def test_trace_leaves_the_callers_arrays_alone(tmp_path):
    ts, th, ph = np.array([0.0, 0.2]), np.array([4.0, 0.0]), np.zeros(2)
    tr = ViewpointTrace("u", "v", ts, th, ph)
    assert all(a.flags.writeable for a in (ts, th, ph))
    ts[0], th[0], ph[0] = -1.0, 1.0, 1.0
    assert (tr.timestamps[0], tr.phi[0]) == (0.0, 0.0)
    assert tr.theta[0] == pytest.approx(4.0 - 2.0 * math.pi, abs=1e-12)
    # traces built from checked columns stay views of them, not copies
    other = ViewpointTrace("w", "v", np.array([0.0, 0.2]), np.zeros(2), np.zeros(2))
    save_traces(tmp_path / "two.csv", [tr, other])
    loaded = load_traces(tmp_path / "two.csv")[0]
    assert not any(a.flags.owndata for a in (loaded.timestamps, loaded.theta, loaded.phi))


def test_save_load_round_trip(tmp_path):
    traces = generate_synthetic_traces(RandomWalk(kappa=100.0), 3, 10.0, 5.0, seed=4)
    p = tmp_path / "out.csv"
    save_traces(p, traces)
    back = load_traces(p)
    assert len(back) == 3
    for a, b in zip(traces, back):
        assert (a.user_id, a.video_id) == (b.user_id, b.video_id)
        np.testing.assert_allclose(a.timestamps, b.timestamps, atol=0)
        np.testing.assert_allclose(a.theta, b.theta, atol=0)
        np.testing.assert_allclose(a.phi, b.phi, atol=0)


def test_synthetic_deterministic():
    a = generate_synthetic_traces(RandomWalk(kappa=50.0), 2, 10.0, 5.0, seed=9)
    b = generate_synthetic_traces(RandomWalk(kappa=50.0), 2, 10.0, 5.0, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.theta, y.theta)
        np.testing.assert_array_equal(x.phi, y.phi)
    c = generate_synthetic_traces(RandomWalk(kappa=50.0), 2, 10.0, 5.0, seed=10)
    assert not np.array_equal(a[0].theta, c[0].theta)


def _wrap_longitude(theta: float) -> float:
    """Scalar reference: ``theta`` mapped to [-pi, pi) with an exact fmod."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
def test_trace_longitude_wrap_is_bit_identical_to_scalar(draws):
    thetas = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, *draws]
    n = len(thetas)
    tr = ViewpointTrace("u", "v", np.arange(n) / 5.0, np.array(thetas), np.zeros(n))
    want = np.array([_wrap_longitude(x) for x in thetas])
    assert tr.theta.tobytes() == want.tobytes()


def test_synthetic_ids_and_length():
    traces = generate_synthetic_traces(GreatCircleDrift(rate=0.1), 3, 12.0, 5.0, seed=0)
    assert [t.user_id for t in traces] == ["synthetic-000", "synthetic-001", "synthetic-002"]
    assert all(t.video_id == "greatcircledrift" for t in traces)
    assert all(len(t) == 60 for t in traces)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic_traces(RandomWalk(kappa=10.0), 0, 10.0, 5.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_traces(RandomWalk(kappa=10.0), 1, 10.3, 5.0, seed=0)
    with pytest.raises(ValueError):
        RandomWalk(kappa=0.0)
    with pytest.raises(ValueError):
        GreatCircleDrift(rate=-0.1)


def test_overflowing_drift_is_a_format_error_with_no_warning():
    # 1e308 rad/s overflows its angles past the first sample; the suite turns a warning into an error
    message = "^trace synthetic-000/greatcircledrift has non-finite samples$"
    with pytest.raises(TraceFormatError, match=message):
        generate_synthetic_traces(GreatCircleDrift(rate=1e308), 2, 10.0, 5.0, seed=0)


def _step_angles(tr: ViewpointTrace) -> np.ndarray:
    v = _unit_vectors(tr.theta, tr.phi)
    return np.arccos(np.clip(np.einsum("ij,ij->i", v[:-1], v[1:]), -1.0, 1.0))


def test_random_walk_step_size():
    # Very high concentration keeps consecutive samples close together.
    (tr,) = generate_synthetic_traces(RandomWalk(kappa=1e6), 1, 20.0, 5.0, seed=3)
    assert _step_angles(tr).max() < 0.01


def test_drift_step_size_exact():
    (tr,) = generate_synthetic_traces(GreatCircleDrift(rate=0.1), 1, 20.0, 5.0, seed=3)
    np.testing.assert_allclose(_step_angles(tr), 0.02, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "model",
    [
        RandomWalk(1.0),
        RandomWalk(100.0),
        RandomWalk(5e4),
        GreatCircleDrift(0.1),
        GreatCircleDrift(3.0),
    ],
    ids=repr,
)
@pytest.mark.parametrize("seed", range(5))
def test_synthetic_matches_scalar_reference(model, seed):
    traces = generate_synthetic_traces(model, 20, 60.0, 5.0, seed)
    ref = scalar_synthetic_unit_vectors(model, 20, 60.0, 5.0, seed)
    assert len(traces) == len(ref) == 20
    for tr, want in zip(traces, ref):
        np.testing.assert_allclose(_unit_vectors(tr.theta, tr.phi), want, rtol=0, atol=1e-10)


class _RecordingRng:
    """Stands in for `np.random.default_rng`: records each ``uniform`` size
    and result, and returns ``draws`` instead of fresh numbers when given."""

    def __init__(self, draws=None):
        self.draws, self.sizes, self.results = draws, [], []
        self.default_rng = np.random.default_rng

    def __call__(self, seed):
        self.rng = self.default_rng(seed)
        return self

    def uniform(self, low, high, size):
        self.sizes.append(size)
        self.results.append(self.rng.uniform(low, high, size) if self.draws is None else self.draws)
        return self.results[-1]


def test_synthetic_draws_one_block(monkeypatch):
    rec = _RecordingRng()
    monkeypatch.setattr(np.random, "default_rng", rec)
    generate_synthetic_traces(RandomWalk(kappa=50.0), 4, 10.0, 5.0, seed=1)
    generate_synthetic_traces(GreatCircleDrift(rate=0.1), 4, 10.0, 5.0, seed=1)
    # 2 start draws plus 3 per step for each of 50 samples; 4 for a drift.
    assert rec.sizes == [(4, 2 + 3 * 49), (4, 4)]


def _walk_draws(n_traces: int, n: int, seed: int) -> np.ndarray:
    """The draws of ``n_traces`` random walks of ``n`` samples, laid out as
    `generate_synthetic_traces` draws them."""
    lo, hi = np.array(traces_module._POINT_DRAWS + traces_module._STEP_DRAWS * (n - 1)).T
    return np.random.default_rng(seed).uniform(lo, hi, size=(n_traces, len(lo)))


def _einsum_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


@pytest.mark.parametrize("kappa", [5e4, 5.0, 0.01])
@pytest.mark.parametrize("n_traces", [1, 7, 200])
# 1 step; 64, one whole block; then across 1, 2 and 4 block edges
@pytest.mark.parametrize("n", [2, 65, 66, 130, 300])
def test_random_walk_matches_reference_bit_for_bit(kappa, n_traces, n):
    d = _walk_draws(n_traces, n, seed=1000 * n_traces + n)
    vecs = traces_module._random_walk(d, kappa)
    assert vecs.shape == (n_traces, n, 3)
    assert vecs.tobytes() == reference_random_walk(d, kappa).tobytes()
    # summed in whatever order np.einsum takes, the walk moves by rounding only
    einsum_walk = reference_random_walk(d, kappa, dot=_einsum_dot)
    np.testing.assert_allclose(vecs, einsum_walk, rtol=0, atol=1e-15)


def test_random_walk_degenerate_steps_among_regular_ones():
    kappa, k = 5.0, 70  # step k lies in the second block
    d = _walk_draws(7, 100, seed=5)
    # at step 0, trace 2's point is its start point and trace 5's is the antipode
    d[2, 3:5] = d[2, 0:2]
    d[5, 3:5] = -d[5, 0], d[5, 1] + math.pi
    # at step k, trace 3's point is where its walk then is
    x, y, z = traces_module._random_walk(d, kappa)[3, k]
    d[3, 3 + 3 * k : 5 + 3 * k] = z, math.atan2(y, x)
    vecs = traces_module._random_walk(d, kappa)
    assert vecs.tobytes() == reference_random_walk(d, kappa).tobytes()
    floor = math.exp(-2.0 * kappa)
    for trace, step in ((2, 0), (5, 0), (3, k)):
        u, z, t = d[trace, 2 + 3 * step : 5 + 3 * step]
        v = vecs[trace, step]
        assert np.linalg.norm(np.cross(_points(z, t), v)) < 1e-6
        # the fallback tangent still takes the step acos(w) off the point
        w = 1.0 + math.log(u * (1.0 - floor) + floor) / kappa
        assert vecs[trace, step + 1] @ v == pytest.approx(w, abs=1e-12)


def test_random_walk_memory_stays_flat():
    # The walk holds one block of steps' points, w and s at a time: a 3.7 MiB
    # peak on numpy 2.4, against 6.5 MiB with one block of every step, and
    # 4.6 MiB for the walk that took w and s for every step at once.
    args = (RandomWalk(5e4), 200, 60.0, 5.0, 3)
    generate_synthetic_traces(*args)  # a first call also fills numpy's caches
    tracemalloc.start()
    try:
        generate_synthetic_traces(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.0 * 2**20, peak / 2**20


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["same", "antipode"])
def test_degenerate_tangent_uses_axis_fallback(monkeypatch, sign):
    # A step point drawn as the current point itself, or as its antipode.
    z, t = sign * 0.3, 1.1 + (sign < 0) * math.pi
    v = _points(np.array([0.3]), np.array([1.1]))
    p = _points(np.array([z]), np.array([t]))
    assert np.linalg.norm(np.cross(p, v)) < 1e-6
    (tangent,) = _unit_tangents(v, p)
    assert np.linalg.norm(tangent) == pytest.approx(1.0, abs=1e-15)
    assert abs(tangent @ v[0]) < 1e-15
    # The fallback leans on the coordinate axis least aligned with v.
    assert np.argmax(np.abs(tangent)) == np.argmin(np.abs(v[0]))

    # In a walk the step still moves acos(w) off the start and draws nothing more.
    rec = _RecordingRng(np.array([[0.3, 1.1, 0.5, z, t]]))
    monkeypatch.setattr(np.random, "default_rng", rec)
    (tr,) = generate_synthetic_traces(RandomWalk(kappa=10.0), 1, 0.4, 5.0, seed=0)
    assert rec.sizes == [(1, 5)]
    w = 1.0 + math.log(0.5 * (1.0 - math.exp(-20.0)) + math.exp(-20.0)) / 10.0
    start, step = _unit_vectors(tr.theta, tr.phi)
    np.testing.assert_allclose(start, v[0], rtol=0, atol=1e-15)
    assert step @ start == pytest.approx(w, abs=1e-12)


def test_windowing_validation():
    assert WIN.samples(5.0) == (5, 5, 5)
    assert WIN.passive_prefix == 2
    with pytest.raises(ValueError, match="t_obw \\+ t_cc"):
        WindowingConfig(t_obw=1.0, t_cc=0.5, t_pdw=1.0)
    with pytest.raises(ValueError, match="whole number"):
        WindowingConfig(t_obw=0.33, t_cc=0.33, t_pdw=0.33).samples(5.0)
    # less than one segment ahead: no passive prefix
    with pytest.raises(ValueError, match="t_obw \\+ t_cc"):
        WindowingConfig(t_obw=0.2, t_cc=0.2, t_pdw=1.0)
    with pytest.raises(ValueError, match="t_obw \\+ t_cc"):
        WindowingConfig(t_obw=1e308, t_cc=1e308, t_pdw=1.0)
    # a window shorter than one sample period rounds to no samples at all
    with pytest.raises(ValueError, match="t_obw 1e-07 s is not a whole number"):
        WindowingConfig(t_obw=1e-7, t_cc=1e-7, t_pdw=1e-7).samples(5.0)


def test_predict_sample_count():
    (tr,) = generate_synthetic_traces(RandomWalk(kappa=100.0), 1, 60.0, 5.0, seed=1)
    errors = predict(tr, WIN, Predictor.LAST_POSITION)
    # 60 segments of 5 samples, the first two played passively.
    assert errors.shape == (290,) and errors.dtype == np.float64
    assert all(0.0 <= e <= math.pi for e in errors)


def test_predict_drops_trailing_partial_segment():
    (tr,) = generate_synthetic_traces(RandomWalk(kappa=100.0), 1, 61.4, 5.0, seed=1)
    errors = predict(tr, WIN, Predictor.LAST_POSITION)
    # 307 samples hold 61 whole segments; 59 of them are predicted.
    assert len(errors) == 295


def test_predict_constant_trace_zero_error():
    n = 150
    tr = ViewpointTrace(
        "u", "v", np.arange(n) / 5.0, np.full(n, 0.3), np.full(n, -0.2)
    )
    for predictor in Predictor:
        assert all(e == 0.0 for e in predict(tr, WIN, predictor))


def test_predict_last_position_lead_error():
    # Under steady drift the repeated last point lags by the lead time:
    # the k-th frame of a predicted segment sits (cc + k + 1)
    # sample periods past the last observed sample.
    (tr,) = generate_synthetic_traces(GreatCircleDrift(rate=0.1), 1, 60.0, 5.0, seed=5)
    errors = predict(tr, WIN, Predictor.LAST_POSITION)
    per_step = 0.1 / 5.0
    _, cc, spseg = WIN.samples(5.0)
    for k, error in enumerate(errors[:25]):
        expected = (cc + k % spseg + 1) * per_step
        assert error == pytest.approx(expected, abs=1e-9)
    assert max(errors) == pytest.approx(0.2, abs=1e-9)


def test_predict_great_circle_tracks_drift():
    (tr,) = generate_synthetic_traces(GreatCircleDrift(rate=0.1), 1, 60.0, 5.0, seed=5)
    assert max(predict(tr, WIN, Predictor.GREAT_CIRCLE)) < 1e-6


def test_predict_counts_samples_at_the_trace_rate():
    (tr,) = generate_synthetic_traces(RandomWalk(kappa=100.0), 1, 60.0, 4.0, seed=1)
    # 60 segments of 4 samples, the first two played passively.
    assert len(predict(tr, WIN, Predictor.LAST_POSITION)) == (60 - 2) * 4
    (tr,) = generate_synthetic_traces(RandomWalk(kappa=100.0), 1, 60.0, 3.0, seed=1)
    half = WindowingConfig(t_obw=0.5, t_cc=0.5, t_pdw=1.0)
    whole = "synthetic-000/randomwalk: t_obw 0.5 s is not a whole number"
    with pytest.raises(TraceFormatError, match=whole):
        predict(tr, half, Predictor.LAST_POSITION)


def test_predict_short_trace():
    tr = ViewpointTrace("u", "v", np.arange(14) / 5.0, np.zeros(14), np.zeros(14))
    with pytest.raises(TraceFormatError, match="needs at least"):
        predict(tr, WIN, Predictor.LAST_POSITION)


def test_predict_all_concatenates_in_order():
    traces = generate_synthetic_traces(RandomWalk(kappa=100.0), 3, 60.0, 5.0, seed=2)
    errors = predict_all(traces, WIN, Predictor.LAST_POSITION)
    assert errors.shape == (3 * 290,)
    for i, tr in enumerate(traces):
        solo = predict(tr, WIN, Predictor.LAST_POSITION)
        np.testing.assert_array_equal(errors[290 * i : 290 * (i + 1)], solo)


# ---------------------------------------------------------------------------
# the columnar parse against the row loop


def _outcome(load, path):
    """What ``load`` makes of ``path``: each trace's key and sample bits, or its error."""
    try:
        traces = load(path)
    except TraceFormatError as exc:
        return str(exc)
    return [
        (t.user_id, t.video_id, *(a.tobytes() for a in (t.timestamps, t.theta, t.phi)))
        for t in traces
    ]


def _by_rows(path):
    """`load_traces` with the block parse refusing every file."""

    def refuse(path):
        raise ValueError("refused")

    with patch.object(traces_module, "_block_pieces", refuse):
        return load_traces(path)


def _by_columns(path):
    """`load_traces` with the row loop failing the test if the file reaches it."""

    def refuse(path):
        raise AssertionError("the row loop read the file again")

    with patch.object(traces_module, "_row_pieces", refuse):
        return load_traces(path)


def _tokens(tokenize, path):
    """What tokenizer ``tokenize`` makes of ``path``: keys, sample bits,
    bounds, and for each line after the header that starts no row (up to
    the last row) the number of rows before it."""
    keys, firsts, n = [], [], 0
    values, lines = [np.empty((3, 0))], [np.empty(0, dtype=int)]
    for piece_values, piece_lines, changes in tokenize(path):
        keys += [key for _, key in changes]
        firsts += [n + i for i, _ in changes]
        n += piece_lines.size
        values.append(piece_values)
        lines.append(piece_lines)
    ts, th, ph = np.concatenate(values, axis=1)
    lines = np.concatenate(lines)
    skips = np.repeat(np.arange(n), np.diff(lines, prepend=1) - 1)  # the header is line 1
    return keys, ts.tobytes(), th.tobytes(), ph.tobytes(), firsts + [n], skips.tolist()


#: Numeric fields the row loop and ``np.loadtxt`` may read differently, or
#: reject, made from a valid field ``v``: most keep its value under ``float``.
_ODD_VALUES = [
    lambda v: f"{v}\x1c",
    lambda v: f"\x1f{v}",
    lambda v: f" {v}\t",
    lambda v: f"\x0c{v}",
    lambda v: v.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda v: v[0] + "_" + v[1:] if v[1:2].isdigit() else f"{v}_0",
    lambda v: f"{v}#",
    lambda v: f"#{v}",
    lambda v: "nan",
    lambda v: "-inf",
    lambda v: "1e400",
    lambda v: "1.6",  # a latitude beyond pi/2
    lambda v: "",
    lambda v: "0x1",
]
#: Keys, some as wide as others, with spaces, non-ASCII letters or a ``#``.
_KEYS = [("u", "v"), ("w", "v"), ("u", "x"), ("a b", "v"), (" u", "v "), ("ü", "v"), ("u#", "v")]
#: Ways a trace file can depart from the clean schema, one or two per text.
_CHANGES = [
    "quoted key", "4 columns", "6 columns", "odd value", "blank line", "repeated key",
    "CRLF", "lone CR", "header spaces", "no final newline",
]


@st.composite
def _trace_csv_texts(draw):
    """Valid trace files, each with one or two `_CHANGES`."""
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4, unique=True))
    # one clock for all traces, so two traces read as one are still a valid trace
    lengths = [draw(st.integers(2, 6)) for _ in keys]
    rows = [
        [*key, repr(t * 0.2), repr(draw(st.floats(-4.0, 4.0))), repr(draw(st.floats(-1.5, 1.5)))]
        for t, key in enumerate(k for k, n in zip(keys, lengths) for _ in range(n))
    ]
    header, eol, last_eol = HEADER.strip(), "\n", True
    changes = draw(st.lists(st.sampled_from(_CHANGES), min_size=1, max_size=2))
    for change in changes:
        # a row that a "blank line" change inserted has no fields to change
        i = draw(st.sampled_from([k for k, row in enumerate(rows) if row]))
        if change == "quoted key":
            for row in rows:
                if row[:2] == rows[i][:2]:
                    row[0] = f'"{row[0]}"'
        elif change in ("4 columns", "6 columns"):
            rows[i] = rows[i][:4] if change == "4 columns" else rows[i] + ["0"]
        elif change == "odd value":
            j = draw(st.integers(2, min(4, len(rows[i]) - 1)))  # a "4 columns" row has 2 numbers
            rows[i][j] = draw(st.sampled_from(_ODD_VALUES))(rows[i][j])
        elif change == "blank line":
            rows.insert(i, [])
        elif change == "repeated key":
            rows += [[*rows[0][:2], "0.0", "0.0", "0.0"], [*rows[0][:2], "0.2", "0.0", "0.0"]]
        elif change == "CRLF":
            eol = "\r\n"
        elif change == "header spaces":
            header = " user_id ,video_id, timestamp_s,theta_rad,phi_rad"
        elif change == "no final newline":
            last_eol = False
    text = eol.join([header] + [",".join(row) for row in rows]) + (eol if last_eol else "")
    if "lone CR" in changes:
        at = draw(st.sampled_from([k for k, c in enumerate(text) if c in ",\n"]))
        text = text[:at] + "\r" + text[at:]
    return text


@given(text=_trace_csv_texts(), chunk=st.sampled_from([64, 128, 1 << 16]))
# each a way splitting at commas and loadtxt read a line otherwise than csv and float
@example(text=HEADER + "u,v,0,0,0\nu,v,1,0,0,0\n", chunk=1 << 16)
@example(text=HEADER + '"u",v,0,0,0\n"u",v,0.2,0,0\n', chunk=1 << 16)
@example(text=HEADER + "u,v,0,0,0\nu,v,0.2\x1c,0,0\n", chunk=1 << 16)
@example(text=HEADER.replace(",", "\r,", 1) + "u,v,0,0,0\nu,v,0.2,0,0\n", chunk=1 << 16)
@example(text=HEADER + "u,v,0,0,0\nu,v,0.2,0,0\nw,v,0,0,0\nw,v,0.2,0,0\nu,v,0.4,0,0\nu,v,0.6,0,0\n", chunk=64)
# keys of equal width that differ in their last byte alone, the change on the first row of a block
@example(text=HEADER + "".join(f"u,v{c},{i / 5},0,0\n" for c in "ab" for i in range(6)), chunk=64)
# a first block of blank lines alone: the first row is longer than a block, or past a block of them
@example(text=HEADER + "\n" + "".join(f"{'u' * 64},v,{i / 5},0,0\n" for i in range(3)), chunk=64)
@example(text=HEADER + "\n" * 70 + "u,v,0,0,0\nu,v,0.2,0,0\n", chunk=64)
@settings(max_examples=300)
def test_columnar_parse_agrees_with_row_loop(text, chunk):
    with tempfile.TemporaryDirectory() as tmp, patch.object(traces_module, "_CHUNK_BYTES", chunk):
        path = Path(tmp) / "traces.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_traces, path) == _outcome(_by_rows, path)
        try:
            columns = _tokens(traces_module._block_pieces, path)
        except ValueError:
            return
        # what the columnar parse takes, the row loop reads the same
        assert columns == _tokens(traces_module._row_pieces, path)


_CRLF_HEADER = HEADER.replace("\n", "\r\n")


@pytest.mark.parametrize(
    "text",
    [
        HEADER + "u,v,0,0,0\ru,v,0.2,0,0\n",
        HEADER + "u,v\r,0,0,0\nu,v\r,0.2,0,0\n",
        _CRLF_HEADER + "u,v,0,0,0\r\nu,v,0.2,0,0\r\r\n",
        _CRLF_HEADER + "u,v,0,0,0\r\nu,v,0.2,0\r,0\r\n",
        HEADER.replace("\n", "\r\r\n") + "u,v,0,0,0\r\nu,v,0.2,0,0\r\n",
        HEADER.replace(",", "\r,", 1) + "u,v,0,0,0\nu,v,0.2,0,0\n",
    ],
    ids=["row end", "in a key", "before a CRLF", "in a value", "header end", "in the header"],
)
def test_lone_cr_falls_back_to_the_row_loop(tmp_path, text):
    # a CR outside a CRLF, in a row or in the header: the columnar parse
    # refuses the file, and load_traces reads it as the row loop does
    path = tmp_path / "traces.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError, match="line ending|header"):
        _tokens(traces_module._block_pieces, path)
    assert _outcome(load_traces, path) == _outcome(_by_rows, path)


def test_columnar_parse_takes_clean_files_of_many_blocks(tmp_path):
    # 3 traces of 1,000 rows: about 50 KB each, so several blocks, with CRLF
    # endings, blank lines and spaces in a key
    lines = [HEADER.strip()]
    for user in ("a", "b c", "d"):
        lines += [f"{user},v,{i * 0.2!r},{math.sin(i)!r},{0.5 * math.cos(i)!r}" for i in range(1000)]
        lines.append("")
    path = _write(tmp_path, "\r\n".join(lines))
    assert path.stat().st_size > 2 * traces_module._CHUNK_BYTES
    columns = _tokens(traces_module._block_pieces, path)
    assert columns == _tokens(traces_module._row_pieces, path)
    assert columns[0] == [("a", "v"), ("b c", "v"), ("d", "v")]
    # the blank lines after the first two traces; the last "" only ends the file
    assert columns[4:] == ([0, 1000, 2000, 3000], [1000, 2000])
    assert _outcome(load_traces, path) == _outcome(_by_rows, path)


# ---------------------------------------------------------------------------
# the batched prediction kernel against the per-trace one it replaced


def _predict_reference(trace: ViewpointTrace, win: WindowingConfig, predictor: Predictor) -> np.ndarray:
    """One trace's errors, computed on that trace alone (the kernel before batching)."""
    try:
        obw, cc, spseg = win.samples(trace.sample_rate)
    except ValueError as exc:
        raise TraceFormatError(f"trace {trace.user_id}/{trace.video_id}: {exc}") from None
    if len(trace) < obw + cc + spseg:
        raise TraceFormatError(
            f"trace {trace.user_id}/{trace.video_id} has {len(trace)} samples, "
            f"needs at least {obw + cc + spseg} for one predicted segment"
        )
    vecs = _unit_vectors(trace.theta, trace.phi)
    segments = np.arange(win.passive_prefix, len(trace) // spseg)
    frames = np.arange(spseg)
    seg_start = segments * spseg
    last_i = seg_start - cc - 1
    last = vecs[last_i]
    actual = vecs[seg_start[:, None] + frames]
    pred = np.repeat(last[:, None, :], spseg, axis=1)
    if predictor is Predictor.GREAT_CIRCLE and obw >= 2:
        prev = vecs[last_i - 1]
        gap = np.arccos(np.clip(np.einsum("ij,ij->i", prev, last), -1.0, 1.0))
        moving = gap > 1e-7
        gap, prev, last = gap[moving], prev[moving], last[moving]
        cos_gap, sin_gap = np.cos(gap)[:, None], np.sin(gap)[:, None]
        side = last - prev * cos_gap
        side /= np.linalg.norm(side, axis=1, keepdims=True)
        t_hat = side * cos_gap - prev * sin_gap
        angles = (gap[:, None] * (frames + cc + 1))[:, :, None]
        pred[moving] = np.cos(angles) * last[:, None, :] + np.sin(angles) * t_hat[:, None, :]
    dots = np.clip(np.einsum("ijk,ijk->ij", actual, pred), -1.0, 1.0)
    return np.arccos(dots).ravel()


def _errors_or_message(run):
    """``run()``'s result bytes, or its `TraceFormatError` message."""
    try:
        return run().tobytes()
    except TraceFormatError as exc:
        return str(exc)


#: Windows whole at 4, 5 and 10 Hz; (0.5, 0.5, 1.0) is not whole at 3 Hz.
_WINDOWS = [WIN, WindowingConfig(t_obw=0.4, t_cc=0.6, t_pdw=0.5), WindowingConfig(0.5, 0.5, 1.0)]


@st.composite
def _populations(draw):
    """Runs of traces sharing a length and rate, some moving, some holding
    position (or creeping by at most 1e-7 rad a sample), a short or odd-rate
    trace among them now and then."""
    traces = []
    for run in range(draw(st.integers(1, 4))):
        rate = draw(st.sampled_from([4.0, 5.0, 10.0, 3.0] if run else [4.0, 5.0, 10.0]))
        n = draw(st.integers(12, 70))
        for _ in range(draw(st.integers(1, 4))):
            steps = draw(st.sampled_from([0.0, 1e-9, 5e-8, 1e-7, 1e-3, 0.05, 0.4]))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            theta = np.cumsum(rng.normal(0.0, steps, n)) + draw(st.floats(-4.0, 4.0))
            phi = np.clip(np.cumsum(rng.normal(0.0, steps, n)), -1.5, 1.5)
            if draw(st.booleans()):  # hold position over a stretch
                lo = draw(st.integers(0, n - 1))
                theta[lo:], phi[lo:] = theta[lo], phi[lo]
            traces.append(ViewpointTrace(f"u{len(traces)}", "v", np.arange(n) / rate, theta, phi))
    return traces


@given(
    traces=_populations(),
    win=st.sampled_from(_WINDOWS),
    predictor=st.sampled_from(list(Predictor)),
    chunk=st.sampled_from([1, 7, 64, 8192]),
)
@example(  # a segment whose two last observed points are 1e-7 apart holds position
    traces=[ViewpointTrace("u", "v", np.arange(40) / 5.0, np.arange(40) * 1e-7, np.zeros(40))],
    win=WIN, predictor=Predictor.GREAT_CIRCLE, chunk=8192,
)
@example(  # two runs, the first shorter than a chunk
    traces=[ViewpointTrace(u, "v", np.arange(n) / 5.0, np.linspace(0.0, 1.0, n), np.zeros(n))
            for u, n in (("a", 30), ("b", 30), ("c", 40))],
    win=WIN, predictor=Predictor.LAST_POSITION, chunk=64,
)
@settings(max_examples=300, deadline=None)
def test_predict_all_is_bit_identical_to_per_trace_prediction(traces, win, predictor, chunk):
    def outcomes(population):
        """What the batched kernel and the per-trace one make of ``population``."""
        return (
            _errors_or_message(lambda: predict_all(population, win, predictor)),
            _errors_or_message(lambda: np.concatenate(
                [_predict_reference(tr, win, predictor) for tr in population]
            )),
        )

    short = ViewpointTrace("short", "v", np.arange(6) / 5.0, np.zeros(6), np.zeros(6))
    with patch.object(traces_module, "_CHUNK_FRAMES", chunk):
        got, want = outcomes(traces)
        assert got == want
        # a too-short trace among them: the first bad trace in order is reported
        for at in (0, len(traces) // 2, len(traces)):
            got, want = outcomes(traces[:at] + [short] + traces[at:])
            assert got == want and isinstance(got, str)


# ---------------------------------------------------------------------------
# the population check against one trace at a time


def _reference_fault(name: str, ts: np.ndarray, th: np.ndarray, ph: np.ndarray):
    """What checking one trace on its own says of it (the check before
    populations), and the sample it names; None for a good trace."""
    if len(ts) < 2:
        return f"trace {name} has fewer than 2 samples", 0
    finite = np.isfinite(ts) & np.isfinite(th) & np.isfinite(ph)
    if not finite.all():
        return f"trace {name} has non-finite samples", int(np.argmin(finite))
    if np.any(np.abs(ph) > math.pi / 2):
        bad = int(np.argmax(np.abs(ph) > math.pi / 2))
        return f"trace {name} sample {bad}: latitude {float(ph[bad])!r} outside [-pi/2, pi/2]", bad
    gaps = np.diff(ts)
    if np.any(gaps <= 0):
        bad = int(np.argmax(gaps <= 0))
        return f"trace {name} sample {bad + 1}: timestamps not strictly increasing", bad + 1
    tol = traces_module.SPACING_TOL
    if np.max(gaps) - np.min(gaps) > tol:
        # the first sample whose spacing takes the spread past the tolerance
        bad = next(j for j in range(1, len(gaps) + 1) if max(gaps[:j]) - min(gaps[:j]) > tol)
        return (f"trace {name}: non-uniform sample spacing "
                f"(min {float(np.min(gaps))!r}, max {float(np.max(gaps))!r})", bad)
    return None


#: Ways a trace's samples can be bad, injected at a drawn sample.
_FAULTS = ["nan", "inf", "latitude", "pole", "repeat", "backwards", "uneven", "jitter", "short"]


@st.composite
def _sample_blocks(draw, min_traces=1):
    """Traces as (key, timestamps, theta, phi), each with a few `_FAULTS`."""
    blocks = []
    for i in range(draw(st.integers(min_traces, 5))):
        n = draw(st.integers(2, 8))
        start, dt = draw(st.sampled_from([0.0, 3.5, -1e3])), draw(st.sampled_from([0.2, 0.25, 1 / 3]))
        ts = start + np.arange(n) * dt
        th = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
        ph = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
        for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
            j = draw(st.integers(0, n - 1))
            if fault == "nan":
                draw(st.sampled_from([ts, th, ph]))[j] = math.nan
            elif fault == "inf":
                draw(st.sampled_from([ts, th, ph]))[j] = draw(st.sampled_from([math.inf, -math.inf]))
            elif fault == "latitude":
                ph[j] = draw(st.sampled_from([1.6, -1.6, np.nextafter(math.pi / 2, 2.0)]))
            elif fault == "pole":  # on the bound: still good
                ph[j] = draw(st.sampled_from([math.pi / 2, -math.pi / 2]))
            elif fault == "repeat" and j:
                ts[j] = ts[j - 1]
            elif fault == "backwards":
                ts[j:] -= draw(st.sampled_from([dt, 2 * dt, 5.0]))
            elif fault == "uneven":
                ts[j:] += draw(st.sampled_from([2e-6, 0.05]))
            elif fault == "jitter":  # within SPACING_TOL: still good
                ts[j:] += 4e-7
            elif fault == "short":
                ts, th, ph = ts[:1], th[:1], ph[:1]
                break
        blocks.append(((f"u{i}", "v"), ts, th, ph))
    return blocks


def _population_fault(blocks):
    """`_check_population` over ``blocks`` laid end to end: its message and
    row, and the wrapped theta."""
    keys = [key for key, *_ in blocks]
    ts, th, ph = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3))
    bounds = np.cumsum([0] + [len(b[1]) for b in blocks])
    return traces_module._check_population(keys, ts, th, ph, bounds), th


@given(blocks=_sample_blocks())
@example(blocks=[(("u", "v"), np.array([0.0, 0.2, 0.3]), np.zeros(3), np.zeros(3)),
                 (("w", "v"), np.array([0.0]), np.zeros(1), np.zeros(1))])
@settings(max_examples=300)
def test_population_check_matches_one_trace_at_a_time(blocks):
    want, start = None, 0  # the first bad trace's message, and the row it names
    for key, *cols in blocks:
        fault = _reference_fault("/".join(key), *cols)
        if fault is not None:
            want = fault[0], start + fault[1]
            break
        start += len(cols[0])
    got, theta = _population_fault(blocks)
    assert got == want
    for key, ts, th, ph in blocks:  # each trace on its own: the same message, the same theta
        fault = _reference_fault("/".join(key), ts, th, ph)
        try:
            tr = ViewpointTrace(*key, ts, th, ph)
        except TraceFormatError as exc:
            assert str(exc) == fault[0]
            continue
        assert fault is None
        want_theta = np.array([_wrap_longitude(x) for x in th])
        assert tr.theta.tobytes() == want_theta.tobytes()
    if want is None:
        wrapped = np.array([_wrap_longitude(x) for _, _, th, _ in blocks for x in th])
        assert theta.tobytes() == wrapped.tobytes()


#: Trace b's rows, after trace a's two and a blank line (line 4), holding one
#: fault each; the line and the message naming it.
_BAD_TRACE_B = {
    "non-finite": (["b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0", "b,v,0.4,nan,0.0"],
                   7, "trace b/v has non-finite samples"),
    "latitude": (["b,v,0.0,0.0,0.0", "b,v,0.2,0.0,1.6", "b,v,0.4,0.0,0.0"],
                 6, "trace b/v sample 1: latitude 1.6 outside [-pi/2, pi/2]"),
    "not increasing": (["b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0", "b,v,0.2,0.0,0.0"],
                       7, "trace b/v sample 2: timestamps not strictly increasing"),
    "uneven": (["b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0", "b,v,0.5,0.0,0.0", "b,v,0.8,0.0,0.0"],
               7, "trace b/v: non-uniform sample spacing (min 0.2, max 0.30000000000000004)"),
    "one sample": (["b,v,0.0,0.0,0.0", "c,v,0.0,0.0,0.0", "c,v,0.2,0.0,0.0"],
                   5, "trace b/v has fewer than 2 samples"),
    "key again": (["b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0", "a,v,0.4,0.0,0.0"],
                  7, "rows of trace a/v are not contiguous (the trace already ended on an earlier line)"),
}


def _after_trace_a(path, rows):
    """``path``, holding trace a's two rows, a blank line and ``rows``."""
    path.write_text(HEADER + "a,v,0.0,0.0,0.0\na,v,0.2,0.0,0.0\n\n" + "\n".join(rows) + "\n")
    return path


def test_bad_csv_trace_is_reported_without_the_row_loop(tmp_path):
    # the columnar parse takes each file, and the one check names the line
    for fault, (rows, line, message) in _BAD_TRACE_B.items():
        path = _after_trace_a(tmp_path / f"{fault}.csv", rows)
        assert _outcome(_by_columns, path) == f"{path}:{line}: {message}", fault
        assert _outcome(_by_rows, path) == f"{path}:{line}: {message}", fault


def test_a_columnar_file_is_parsed_and_checked_once(tmp_path):
    checks, check_population = [], traces_module._check_population

    def check(keys, *columns):
        checks.append(keys)
        return check_population(keys, *columns)

    good = _after_trace_a(tmp_path / "good.csv", ["b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0"])
    rows, line, message = _BAD_TRACE_B["uneven"]
    bad = _after_trace_a(tmp_path / "bad.csv", rows)
    with patch.object(traces_module, "_check_population", check):
        assert [t.user_id for t in _by_columns(good)] == ["a", "b"]
        assert _outcome(_by_columns, bad) == f"{bad}:{line}: {message}"
    assert checks == [[("a", "v"), ("b", "v")]] * 2


#: Trace files whose faults rank against each other: the rows after the
#: header, the line of the first fault and the start of its message.
_RANKED_FAULTS = {
    # a tokenizer fault wins over a reappearing key and a bad trace before it
    "tokenizer": (["a,v,0.0,0.0,2.0", "a,v,0.2,0.0,0.0", "b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0",
                   "a,v,0.4,0.0,0.0", "a,v,0.6,abc,0.0"], 7, "non-numeric sample: could not convert"),
    # a reappearing key wins over a bad trace before it
    "contiguity": (["a,v,0.0,0.0,2.0", "a,v,0.2,0.0,0.0", "b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0",
                    "a,v,0.4,0.0,0.0", "a,v,0.6,nan,0.0"], 6, "rows of trace a/v are not contiguous"),
    # the first bad trace in file order wins, with the first check it fails:
    # b's latitude (sample 3) over its uneven spacing (sample 2) and c's non-finite sample
    "first trace": (["a,v,0.0,0.0,0.0", "a,v,0.2,0.0,0.0", "b,v,0.0,0.0,0.0", "b,v,0.2,0.0,0.0",
                     "b,v,0.5,0.0,0.0", "b,v,0.8,0.0,-1.6", "c,v,0.0,inf,0.0", "c,v,0.2,0.0,0.0"],
                    7, "trace b/v sample 3: latitude -1.6 outside [-pi/2, pi/2]"),
}


@pytest.mark.parametrize("rows, line, message", list(_RANKED_FAULTS.values()), ids=list(_RANKED_FAULTS))
def test_csv_faults_take_precedence_in_order(tmp_path, rows, line, message):
    path = _write(tmp_path, HEADER + "\n".join(rows) + "\n")
    assert _outcome(load_traces, path).startswith(f"{path}:{line}: {message}")
    assert _outcome(_by_rows, path) == _outcome(load_traces, path)


#: Windows under which some of `_trace_csv_texts`' 5 Hz traces (2 to 6 rows)
#: are long enough for a predicted segment and some are too short, and one
#: that is not a whole number of their sample periods.
_STREAM_WINDOWS = [WindowingConfig(0.2, 0.2, 0.2), WindowingConfig(0.4, 0.2, 0.2),
                   WindowingConfig(0.3, 0.3, 0.3)]


@given(
    text=_trace_csv_texts(),
    chunk=st.sampled_from([64, 128, 1 << 16]),
    rows=st.sampled_from([1, 4, 1024]),
    win=st.sampled_from(_STREAM_WINDOWS),
    predictor=st.sampled_from(list(Predictor)),
)
@settings(max_examples=300)
def test_streamed_prediction_agrees_with_the_row_loop(text, chunk, rows, win, predictor):
    # the same error bits, or the same first fault, as the row loop's traces
    # predicted once loaded: blocks of 64 bytes hand the file to the row loop
    # after some traces were checked, in batches of `rows` rows
    with (tempfile.TemporaryDirectory() as tmp, patch.object(traces_module, "_CHUNK_BYTES", chunk),
          patch.object(traces_module, "_CHECK_ROWS", rows)):
        path = Path(tmp) / "traces.csv"
        path.write_bytes(text.encode("utf-8"))
        streamed = _errors_or_message(lambda: predict_all(traces_module._stream_traces(path), win, predictor))
        assert streamed == _errors_or_message(lambda: predict_all(_by_rows(path), win, predictor))


#: `_RANKED_FAULTS`, and a trace too short for a predicted segment, which
#: prediction reaches before the file's malformed row: the rows after the
#: header, the line of the first fault and the start of its message.
_STREAMED_FAULTS = {
    **_RANKED_FAULTS,
    "too short, then a malformed row": (
        [f"a,v,{i / 5},0.0,0.0" for i in range(20)] + [f"b,v,{i / 5},0.0,0.0" for i in range(5)]
        + [f"c,v,{i / 5},{'abc' if i == 9 else 0.0},0.0" for i in range(20)],
        36, "non-numeric sample: could not convert string to float: 'abc'"),
}


def _trace_exit(tmp_path, path) -> int:
    """`main`'s exit code for ``trace`` on trace file ``path``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"traces_csv": str(path), "grids": {"r_sv": [0.5]}}), encoding="utf-8")
    return main(["trace", "--config", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("chunk", [64, 1 << 16])
@pytest.mark.parametrize("name", list(_STREAMED_FAULTS))
def test_cli_trace_reports_a_streamed_files_first_fault(tmp_path, capsys, monkeypatch, name, chunk):
    # traces are checked, and predicted, as the file is read; a fault of a
    # higher rank found later still wins
    rows, line, message = _STREAMED_FAULTS[name]
    path = _write(tmp_path, HEADER + "\n".join(rows) + "\n")
    monkeypatch.setattr(traces_module, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(traces_module, "_CHECK_ROWS", 1)
    read, stream = [], cli_module._stream_traces

    def recorded(path):
        for trace in stream(path):
            read.append(trace.user_id)
            yield trace

    monkeypatch.setattr(cli_module, "_stream_traces", recorded)
    assert _trace_exit(tmp_path, path) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}:{line}: {message}")
    assert err == f"data error: {_outcome(_by_rows, path)}\n"
    if name == "too short, then a malformed row":
        # checked a row at a time, by blocks or by the row loop, the too-short
        # trace reaches prediction before the malformed row is read
        assert read == ["a", "b"]


def test_cli_trace_hands_a_file_to_the_row_loop_after_predicting_traces(tmp_path, capsys, monkeypatch):
    # 20 clean traces of 300 rows fill several blocks; the last trace's key is
    # quoted, so the block parse refuses its block, after a chunk of the clean
    # traces was predicted, and the row loop finds its bad latitude
    rows = [f"u{k},v,{i / 5!r},{math.sin(0.1 * i)!r},{0.5 * math.cos(0.1 * i)!r}"
            for k in range(20) for i in range(300)]
    rows += [f'"u 20",v,{i / 5},0.0,{2.0 if i == 2 else 0.0}' for i in range(300)]
    path = _write(tmp_path, HEADER + "\n".join(rows) + "\n")
    assert path.stat().st_size > 4 * traces_module._CHUNK_BYTES
    predicted, kernel = [], traces_module._predict_block

    def counted(vecs, *args):
        predicted.append(len(vecs))
        kernel(vecs, *args)

    monkeypatch.setattr(traces_module, "_predict_block", counted)
    assert _trace_exit(tmp_path, path) == 3
    message = "trace u 20/v sample 2: latitude 2.0 outside [-pi/2, pi/2]"
    assert capsys.readouterr().err == f"data error: {path}:6004: {message}\n"
    # one chunk of the clean traces (290 frames each) was predicted, no more
    assert predicted == [traces_module._CHUNK_FRAMES // 290]


def test_save_load_round_trips_quoted_keys(tmp_path):
    # only the csv module reads these keys back, which is why the row loop stays
    keys = [("a,b", "v"), ('say "hi"', "v"), ("two\nlines", 'x"y')]
    traces = [
        ViewpointTrace(u, v, np.arange(3) * 0.2, np.array([0.0, -1.0, 2.5]) * k, np.full(3, 0.1 * k))
        for k, (u, v) in enumerate(keys)
    ]
    path = tmp_path / "quoted.csv"
    save_traces(path, traces)
    assert _outcome(load_traces, path) == _outcome(lambda p: traces, path)
    # the key with a newline spans two lines a row: header, 3 + 3 + 6 lines, then c's rows
    with path.open("a", newline="") as fh:
        fh.write("c,v,0.0,0.0,0.0\r\nc,v,0.2,0.0,2.0\r\n")
    message = f"{path}:15: trace c/v sample 1: latitude 2.0 outside [-pi/2, pi/2]"
    assert _outcome(load_traces, path) == message


@given(thetas=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=12), split=st.integers(1, 11))
@settings(max_examples=100)
def test_loaded_longitudes_are_the_scalar_wrap(thetas, split):
    thetas = [math.pi, -math.pi, 3 * math.pi, *thetas]
    cut = min(split, len(thetas) - 3)  # two samples at least in each trace
    rows = [f"{'a' if i <= cut else 'b'},v,{i / 5!r},{x!r},0.0\n" for i, x in enumerate(thetas)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.csv"
        path.write_text(HEADER + "".join(rows), encoding="utf-8")
        traces = _by_columns(path)
    got = np.concatenate([tr.theta for tr in traces])
    assert got.tobytes() == np.array([_wrap_longitude(x) for x in thetas]).tobytes()


@pytest.mark.parametrize("model", [RandomWalk(5.0), GreatCircleDrift(0.7)], ids=repr)
def test_synthetic_longitudes_are_the_scalar_wrap(monkeypatch, model):
    rec = _RecordingRng()
    monkeypatch.setattr(np.random, "default_rng", rec)
    traces = generate_synthetic_traces(model, 30, 40.0, 5.0, seed=2)
    (d,) = rec.results
    if isinstance(model, GreatCircleDrift):
        start = _points(d[:, 0], d[:, 1])
        tangent = _unit_tangents(start, _points(d[:, 2], d[:, 3]))
        angles = (model.rate * (np.arange(200) / 5.0))[:, None]
        vecs = np.cos(angles) * start[:, None, :] + np.sin(angles) * tangent[:, None, :]
    else:
        vecs = traces_module._random_walk(d, model.kappa)
    raw = np.arctan2(vecs[:, :, 1], vecs[:, :, 0])
    for tr, row in zip(traces, raw):
        assert tr.theta.tobytes() == np.array([_wrap_longitude(x) for x in row]).tobytes()
