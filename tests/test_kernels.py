"""The array kernels against the scalar reference.

Every array kernel must reproduce its scalar counterpart: case codes,
inferred cases and zone kinds exactly, floats within 1e-12.  The grids are
the CLI's default 181 x 181 (r_sv, e) sweep at two field-of-view radii;
hypothesis adds errors placed exactly on the case boundaries and the
degenerate streamed-cap radii.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vrpl.cli
import vrpl.leakage
from vrpl import OverlapCase, classify, infer_error_from_qoe, leak_prob_from_error, leak_prob_from_qoe, qoe
from vrpl.cli import SELF_CHECK_ROWS, main
from vrpl.leakage import (
    BISECT_TOL,
    ZONE_CODE,
    InferenceKind,
    QoeInconsistencyError,
    _bisect_error,
    _bisect_error_vec,
    infer_error_from_qoe_vec,
    leak_prob_from_error_vec,
    leak_prob_from_qoe_vec,
)
from vrpl.qoe import CASE_CODE, CASES, classify_vec, qoe_vec

TOL = 1e-12
FOVS = (math.radians(50.0), math.pi / 2)
EPS_FRACS = (0.0, 0.4, 1.0)
N = 181

# The scalar QoE inversion dominates the reference's cost and does not
# depend on epsilon, so the three epsilon cases share one cached copy.
_infer_cached = functools.lru_cache(maxsize=None)(infer_error_from_qoe)


@pytest.fixture(scope="module", params=FOVS, ids=("fov50deg", "fov90deg"))
def grid(request):
    """The (r_sv, e) grid at one field of view, with scalar QoE and cases."""
    fov = request.param
    axis = np.linspace(0.0, math.pi, N)
    sv, e = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    q = np.array([qoe(fov, s, x) for s, x in zip(sv, e)])
    codes = np.array([CASE_CODE[classify(fov, s, x)] for s, x in zip(sv, e)], dtype=np.int8)
    return fov, sv, e, q, codes


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.abs(got[ok] - want[ok]).max(initial=0.0) <= TOL


def _assert_leakage_matches(arrays, scalars):
    _assert_close(arrays.probability, [r.probability for r in scalars])
    _assert_close(arrays.zone_measure, [r.zone_measure for r in scalars])
    assert arrays.zone_kind.tolist() == [ZONE_CODE[r.zone_kind] for r in scalars]
    if arrays.case is None:
        assert all(r.case is None for r in scalars)
    else:
        assert arrays.case.tolist() == [CASE_CODE[r.case] for r in scalars]


def _assert_inference_matches(arrays, q, fov, sv):
    for i, (qi, si) in enumerate(zip(q, sv)):
        ref = _infer_cached(float(qi), fov, float(si))
        assert arrays.case[i] == CASE_CODE[ref.case]
        if ref.kind is InferenceKind.EXACT:
            assert abs(arrays.value[i] - ref.value) <= TOL
        else:
            assert math.isnan(arrays.value[i])


# ---------------------------------------------------------------------------
# the default grid


def test_classify_and_qoe_on_grid(grid):
    fov, sv, e, q, codes = grid
    assert np.array_equal(classify_vec(fov, sv, e), codes)
    _assert_close(qoe_vec(fov, sv, e), q)


def test_inference_on_grid(grid):
    fov, sv, _, q, _ = grid
    live = (sv > 0.0) & (sv < math.pi)
    _assert_inference_matches(infer_error_from_qoe_vec(q[live], fov, sv[live]), q[live], fov, sv[live])


@pytest.mark.parametrize("eps_frac", EPS_FRACS)
def test_qoe_leakage_on_grid(grid, eps_frac, monkeypatch):
    fov, sv, _, q, _ = grid
    eps = eps_frac * fov
    monkeypatch.setattr(vrpl.leakage, "infer_error_from_qoe", _infer_cached)
    scalars = [leak_prob_from_qoe(qi, fov, si, eps) for qi, si in zip(q.tolist(), sv.tolist())]
    _assert_leakage_matches(leak_prob_from_qoe_vec(q, fov, sv, eps), scalars)


@pytest.mark.parametrize("fov", FOVS)
def test_error_leakage_on_grid(fov):
    e, eps = (a.ravel() for a in np.meshgrid(np.linspace(0.0, math.pi, N), np.linspace(0.0, fov, N)))
    scalars = [leak_prob_from_error(x, p) for x, p in zip(e.tolist(), eps.tolist())]
    _assert_leakage_matches(leak_prob_from_error_vec(e, eps), scalars)


def test_error_leakage_zero_epsilon_zero_error_is_silent():
    with np.errstate(all="raise"):
        res = leak_prob_from_error_vec([0.0, 1.0, math.pi], 0.0)
    assert res.probability.tolist() == [1.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# case boundaries and degenerate radii


def _boundary_errors(fov: float, sv: float) -> list[float]:
    """Errors exactly on each case boundary that lies in [0, pi]."""
    edges = (sv - fov, fov - sv, fov + sv, 2.0 * math.pi - fov - sv)
    return [x for x in edges if 0.0 <= x <= math.pi]


fovs = st.one_of(st.sampled_from(FOVS), st.floats(0.05, math.pi / 2))
radii = st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi))


@settings(max_examples=200, deadline=None)
@given(fovs, radii, st.floats(0.0, 1.0))
def test_kernels_on_boundaries(fov, sv, eps_frac):
    e = np.array(_boundary_errors(fov, sv) + [0.0, math.pi])
    q = [qoe(fov, sv, x) for x in e.tolist()]
    assert classify_vec(fov, sv, e).tolist() == [CASE_CODE[classify(fov, sv, x)] for x in e.tolist()]
    _assert_close(qoe_vec(fov, sv, e), q)
    eps = eps_frac * fov
    scalars = [leak_prob_from_qoe(qi, fov, sv, eps) for qi in q]
    _assert_leakage_matches(leak_prob_from_qoe_vec(np.array(q), fov, sv, eps), scalars)
    _assert_leakage_matches(
        leak_prob_from_error_vec(e, eps), [leak_prob_from_error(x, eps) for x in e.tolist()]
    )
    if 0.0 < sv < math.pi:
        _assert_inference_matches(infer_error_from_qoe_vec(np.array(q), fov, sv), q, fov, [sv] * len(q))


def test_rounding_size_cap_zone_is_a_point():
    # r_sv + r_fov misses pi by one rounding step: the disjoint zone is a point.
    fov, sv = math.radians(50.0), math.radians(130.0)
    assert 0.0 < abs(math.pi - sv - fov) < 1e-15
    ref = leak_prob_from_qoe(0.0, fov, sv, 0.0)
    assert (ref.probability, ref.case) == (1.0, OverlapCase.DISJOINT)
    _assert_leakage_matches(leak_prob_from_qoe_vec([0.0], fov, sv, 0.0), [ref])


@settings(max_examples=200, deadline=None)
@given(fovs, st.floats(1e-3, math.pi - 1e-3), st.floats(0.0, 1.0))
@example(0.23696113497054547, 0.23696113497054547, 0.5)
@example(0.8125, 0.8125, 0.5)
def test_bisection_matches_scalar(fov, sv, t):
    """The two bisections land within `BISECT_TOL` of each other.

    Both halve the same starting bracket and take the same step wherever
    ``qoe`` and ``qoe_vec`` agree on which side of the report a midpoint
    lies.  The two QoEs differ at the ulp level only, so they can disagree
    only at a midpoint ``m`` in a band around the true error far narrower
    than `BISECT_TOL` / 4.  Every later midpoint lies at least that far from
    ``m``, so both bisections keep ``m`` as a bracket end: one ends in
    ``[m, m + w]`` and the other in ``[m - w', m]``, each no wider than
    `BISECT_TOL`, and their midpoints are ``(w + w') / 2 <= BISECT_TOL``
    apart.  With ``r_fov == r_sv`` and ``t = 0.5`` (the examples) the true
    error is the first midpoint, and the answers are 0.88 and 0.76 times
    `BISECT_TOL` apart.
    """
    lo, hi = abs(fov - sv), min(fov + sv, 2.0 * math.pi - fov - sv)
    e = lo + t * (hi - lo)
    q = qoe(fov, sv, e)
    got = _bisect_error_vec(np.array([q]), np.array([fov]), np.array([sv]))
    assert abs(got[0] - _bisect_error(q, fov, sv)) <= BISECT_TOL


def test_bisection_stops_each_element_at_tolerance():
    fov = FOVS[0]
    sv = np.array([0.5, 0.9, 1.3, 2.0])
    e = np.array([0.6, 0.5, 1.0, 1.4])
    q = qoe_vec(fov, sv, e)
    got = _bisect_error_vec(q, np.full(4, fov), sv)
    want = [_bisect_error(qi, fov, si) for qi, si in zip(q.tolist(), sv.tolist())]
    assert got.tolist() == pytest.approx(want, abs=TOL)
    assert np.abs(got - e).max() <= BISECT_TOL


# ---------------------------------------------------------------------------
# domains


def test_vec_domain_errors():
    with pytest.raises(ValueError, match="field-of-view"):
        qoe_vec(0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="viewpoint error"):
        classify_vec(1.0, 0.5, [0.5, 3.5])
    with pytest.raises(ValueError, match="streamed-cap"):
        infer_error_from_qoe_vec(0.5, 1.0, [0.5, 0.0])
    with pytest.raises(ValueError, match="protection radius"):
        leak_prob_from_qoe_vec(0.5, 0.5, 0.9, 0.6)
    with pytest.raises(QoeInconsistencyError, match="unreachable"):
        # an SFoV inside the FoV cannot cover all of it
        infer_error_from_qoe_vec([0.5, 1.0], 1.0, 0.3)


def test_codes_name_every_case():
    assert set(CASES) == set(OverlapCase)
    assert [CASE_CODE[c] for c in CASES] == list(range(len(CASES)))


# ---------------------------------------------------------------------------
# the CLI's scalar self-check


def _perturb(fn, field=None):
    """Wrap a kernel so the first emitted row (always checked) is 1e-6 off."""

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        target = out if field is None else getattr(out, field)
        target.flat[0] += 1e-6
        return out

    return wrapped


@pytest.mark.parametrize(
    "command, kernel, field",
    [
        ("sweep-error", "leak_prob_from_error_vec", "zone_measure"),
        ("sweep-qoe", "qoe_vec", None),
        ("sweep-leakage", "qoe_vec", None),
        ("sweep-leakage", "leak_prob_from_qoe_vec", "probability"),
    ],
)
def test_cli_self_check_catches_a_perturbed_cell(tmp_path, capsys, monkeypatch, command, kernel, field):
    grid = "r_sv=0.5:2.5:9,error=0.5:2.5:9,epsilon=0.2:0.3:2"
    assert main([command, "--out", str(tmp_path / "ok"), "--grid", grid]) == 0
    monkeypatch.setattr(vrpl.cli, kernel, _perturb(getattr(vrpl.cli, kernel), field))
    assert main([command, "--out", str(tmp_path / "bad"), "--grid", grid]) == 4
    err = capsys.readouterr().err
    assert "internal inconsistency" in err and "row 0" in err
    assert not (tmp_path / "bad").exists()


def test_cli_self_check_samples_about_64_rows(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(vrpl.cli, "classify", lambda *a: calls.append(a) or classify(*a))
    assert main(["sweep-qoe", "--out", str(tmp_path)]) == 0
    assert SELF_CHECK_ROWS <= len(calls) <= SELF_CHECK_ROWS + 1
