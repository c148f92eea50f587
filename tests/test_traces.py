import math

import numpy as np
import pytest
from hypothesis import given
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
from vrpl.traces import _points, _unit_tangents

from support import scalar_synthetic_unit_vectors

WIN = WindowingConfig(t_obw=1.0, t_cc=1.0, t_pdw=1.0, sample_rate=5.0, passive_prefix=2)


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


def _step_angles(tr: ViewpointTrace) -> np.ndarray:
    v = tr.unit_vectors()
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
        np.testing.assert_allclose(tr.unit_vectors(), want, rtol=0, atol=1e-10)


class _RecordingRng:
    """Stands in for `np.random.default_rng`: records each ``uniform`` size
    and returns ``draws`` instead of fresh numbers when given."""

    def __init__(self, draws=None):
        self.draws, self.sizes = draws, []
        self.default_rng = np.random.default_rng

    def __call__(self, seed):
        self.rng = self.default_rng(seed)
        return self

    def uniform(self, low, high, size):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size) if self.draws is None else self.draws


def test_synthetic_draws_one_block(monkeypatch):
    rec = _RecordingRng()
    monkeypatch.setattr(np.random, "default_rng", rec)
    generate_synthetic_traces(RandomWalk(kappa=50.0), 4, 10.0, 5.0, seed=1)
    generate_synthetic_traces(GreatCircleDrift(rate=0.1), 4, 10.0, 5.0, seed=1)
    # 2 start draws plus 3 per step for each of 50 samples; 4 for a drift.
    assert rec.sizes == [(4, 2 + 3 * 49), (4, 4)]


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
    start, step = tr.unit_vectors()
    np.testing.assert_allclose(start, v[0], rtol=0, atol=1e-15)
    assert step @ start == pytest.approx(w, abs=1e-12)


def test_windowing_validation():
    assert WIN.samples_per_segment == 5
    assert WIN.obw_samples == 5
    assert WIN.cc_samples == 5
    assert WIN.min_samples == 15
    with pytest.raises(ValueError, match="t_obw \\+ t_cc"):
        WindowingConfig(t_obw=1.0, t_cc=0.5, t_pdw=1.0, sample_rate=5.0, passive_prefix=2)
    with pytest.raises(ValueError, match="whole number"):
        WindowingConfig(t_obw=0.33, t_cc=0.33, t_pdw=0.33, sample_rate=5.0, passive_prefix=2)
    with pytest.raises(ValueError):
        WindowingConfig(t_obw=1.0, t_cc=1.0, t_pdw=1.0, sample_rate=5.0, passive_prefix=0)


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
    # the k-th frame of a predicted segment sits (cc_samples + k + 1)
    # sample periods past the last observed sample.
    (tr,) = generate_synthetic_traces(GreatCircleDrift(rate=0.1), 1, 60.0, 5.0, seed=5)
    errors = predict(tr, WIN, Predictor.LAST_POSITION)
    per_step = 0.1 / 5.0
    for k, error in enumerate(errors[:25]):
        frame = k % WIN.samples_per_segment
        expected = (WIN.cc_samples + frame + 1) * per_step
        assert error == pytest.approx(expected, abs=1e-9)
    assert max(errors) == pytest.approx(0.2, abs=1e-9)


def test_predict_great_circle_tracks_drift():
    (tr,) = generate_synthetic_traces(GreatCircleDrift(rate=0.1), 1, 60.0, 5.0, seed=5)
    assert max(predict(tr, WIN, Predictor.GREAT_CIRCLE)) < 1e-6


def test_predict_rate_mismatch():
    (tr,) = generate_synthetic_traces(RandomWalk(kappa=100.0), 1, 60.0, 4.0, seed=1)
    with pytest.raises(TraceFormatError, match="rate"):
        predict(tr, WIN, Predictor.LAST_POSITION)


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
