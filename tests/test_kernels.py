"""The array kernels against the scalar reference.

Every array kernel must reproduce its scalar counterpart: case codes,
inferred cases and zone kinds exactly, floats within 1e-12.  The QoE
inversion on the default grids is the exception: its scalar and array
Newton iterations may land on different floats where the QoE is flat, so
their errors are compared as roots, by residual against bisection and the
lens's rounding (`support.assert_roots`), and each root must carry
bisection's own guarantee (`_assert_certified`).  The grids are the CLI's
default 181 x 181 (r_sv, e) sweep at two field-of-view radii; hypothesis
adds errors placed exactly on the case boundaries and the degenerate
streamed-cap radii.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vrpl.cli
import vrpl.leakage
from vrpl import OverlapCase, classify, infer_error_from_qoe, leak_prob_from_error, leak_prob_from_qoe, qoe
from vrpl.cli import SELF_CHECK_ROWS, main
from vrpl.leakage import (
    _NEWTON_MAX_ITER,
    BISECT_TOL,
    QOE_MATCH_TOL,
    ZONE_CODE,
    InferenceKind,
    QoeInconsistencyError,
    _newton_error,
    _newton_error_vec,
    infer_error_from_qoe_vec,
    leak_prob_from_error_vec,
    leak_prob_from_qoe_vec,
)
from vrpl.qoe import CASE_CODE, CASES, classify_vec, qoe_vec
from vrpl.sphere import SPHERE_AREA, cap_area, cap_overlap_area, lens_area, lens_terms

from support import (
    RESIDUAL_SLACK,
    assert_roots,
    boundary_neighbours,
    halve_with_qoe_vec,
    inversion_bracket,
    reference_lens,
    residuals,
    rounding_bound,
)

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


def _assert_inference_roots(arrays, q, fov, sv):
    """`_assert_inference_matches`, with the exact errors compared as roots.

    Cases and ranges as there; each array error is a root (`assert_roots`),
    and so is every 4th scalar one in the scalar arithmetic: that oracle
    bisects report by report through ``qoe``, and the hypothesis batches
    check the scalar mirror on every report.
    """
    refs = [_infer_cached(float(qi), fov, float(si)) for qi, si in zip(q, sv)]
    assert arrays.case.tolist() == [CASE_CODE[r.case] for r in refs]
    exact = np.array([r.kind is InferenceKind.EXACT for r in refs], dtype=bool)
    assert np.isnan(arrays.value[~exact]).all()
    q, sv = np.asarray(q, dtype=float)[exact], np.asarray(sv, dtype=float)[exact]
    fov = np.full(q.size, fov)
    assert_roots(q, fov, sv, arrays.value[exact])
    scalar = np.array([r.value for r in refs if r.kind is InferenceKind.EXACT])
    assert_roots(q[::4], fov[::4], sv[::4], scalar[::4], scalar=True)


# ---------------------------------------------------------------------------
# the default grid


def test_classify_and_qoe_on_grid(grid):
    fov, sv, e, q, codes = grid
    assert np.array_equal(classify_vec(fov, sv, e), codes)
    _assert_close(qoe_vec(fov, sv, e), q)


def test_inference_on_grid(grid):
    fov, sv, _, q, _ = grid
    live = (sv > 0.0) & (sv < math.pi)
    q, sv = q[live], sv[live]
    _assert_inference_roots(infer_error_from_qoe_vec(q, fov, sv), q, fov, sv)


def test_newton_roots_reach_the_rounding_on_grid(grid):
    """Each array root's residual is within the lens's rounding at it, or is bisection's own.

    `rounding_bound` is where the Newton iteration stops; a root that fails
    its certification is bisected, and may have a residual beyond it.
    """
    fov, sv, _, q, _ = grid
    live = (sv > 0.0) & (sv < math.pi)
    q, sv = q[live], sv[live]
    exact = _reports_inverted_exactly(q, fov, sv)
    q, sv, f = q[exact], sv[exact], np.full(np.count_nonzero(exact), fov)
    e = _newton_error_vec(q, f, sv)
    res, bound = residuals(q, f, sv, e), rounding_bound(f, sv, e)
    oracle = residuals(q, f, sv, halve_with_qoe_vec(q, f, sv)[0])
    assert (res <= np.maximum(bound, oracle) + RESIDUAL_SLACK).all()
    # and the bisection's answer is the rare exception
    assert np.count_nonzero(res > bound + RESIDUAL_SLACK) <= q.size // 1000


@pytest.mark.parametrize("eps_frac", EPS_FRACS)
def test_qoe_leakage_on_grid(grid, eps_frac, monkeypatch):
    """Array leakages against scalar ones, the exact reports' through their roots.

    Where a report pins the error down, the array leakage is the error
    upload's at the array inversion's root (`test_inference_on_grid` checks
    those roots against bisection); every other leakage matches the scalar
    one within `TOL`.
    """
    fov, sv, _, q, _ = grid
    eps = eps_frac * fov
    monkeypatch.setattr(vrpl.leakage, "infer_error_from_qoe", _infer_cached)
    scalars = [leak_prob_from_qoe(qi, fov, si, eps) for qi, si in zip(q.tolist(), sv.tolist())]
    arrays = leak_prob_from_qoe_vec(q, fov, sv, eps)
    assert arrays.zone_kind.tolist() == [ZONE_CODE[r.zone_kind] for r in scalars]
    assert arrays.case.tolist() == [CASE_CODE[r.case] for r in scalars]
    exact = arrays.case == CASE_CODE[OverlapCase.REMAINING]
    circle = leak_prob_from_error_vec(infer_error_from_qoe_vec(q[exact], fov, sv[exact]).value, eps)
    assert np.array_equal(arrays.probability[exact], circle.probability)
    assert np.array_equal(arrays.zone_measure[exact], circle.zone_measure)
    others = [r for r, x in zip(scalars, exact.tolist()) if not x]
    _assert_close(arrays.probability[~exact], [r.probability for r in others])
    _assert_close(arrays.zone_measure[~exact], [r.zone_measure for r in others])


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
@example(0.2748920272228339, 2.9414402245006444, 0.5).xfail(
    raises=AssertionError,
    reason="ROADMAP direction 1 (a well-conditioned lens): the containment boundary rounds into "
    "partial overlap where the QoE is nearly flat, and the two inversions' certified roots "
    "differ by 8.4e-11",
)
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
        # in the closed case classify names, the overlap area is that case's
        closed = {
            OverlapCase.FOV_IN_SFOV: cap_area(fov),
            OverlapCase.SFOV_IN_FOV: cap_area(sv),
            OverlapCase.DISJOINT: 0.0,
            OverlapCase.SFOV_COMPLEMENT_IN_FOV: cap_area(fov) + cap_area(sv) - SPHERE_AREA,
        }
        for x in e.tolist():
            case = classify(fov, sv, x)
            assert case not in closed or cap_overlap_area(fov, sv, x) == closed[case], (x, case)


@pytest.mark.xfail(
    strict=True,
    raises=QoeInconsistencyError,
    reason="ROADMAP direction 1 (a well-conditioned lens): at the complement tangency the lens's "
    "arccos is ill-conditioned, and qoe puts the boundary report 1.04e-9 below its own band",
)
def test_complement_tangency_report_is_consistent():
    fov, sv = 1.4977861741794256, 2.8728768593783167
    q = qoe(fov, sv, 2.0 * math.pi - fov - sv)
    leak_prob_from_qoe_vec([q], fov, sv, 0.5 * fov)
    leak_prob_from_qoe(q, fov, sv, 0.5 * fov)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 1 (a well-conditioned lens): at the containment tangency the lens's "
    "arccos is ill-conditioned, and qoe puts the boundary report 1.11e-8 below its band's top, so "
    "it inverts to an exact error 1.01e-5 above the boundary",
)
def test_containment_tangency_report_infers_the_containment_interval():
    fov, sv = 0.99999, 0.23188840876711264
    e = fov - sv
    assert classify(fov, sv, e) is OverlapCase.REMAINING  # the case test rounds it inside
    inference = infer_error_from_qoe(qoe(fov, sv, e), fov, sv)
    assert (inference.kind, inference.case) == (InferenceKind.RANGE, OverlapCase.SFOV_IN_FOV)


def test_rounding_size_cap_zone_is_a_point():
    # r_sv + r_fov misses pi by one rounding step: the disjoint zone is a point.
    fov, sv = math.radians(50.0), math.radians(130.0)
    assert 0.0 < abs(math.pi - sv - fov) < 1e-15
    ref = leak_prob_from_qoe(0.0, fov, sv, 0.0)
    assert (ref.probability, ref.case) == (1.0, OverlapCase.DISJOINT)
    _assert_leakage_matches(leak_prob_from_qoe_vec([0.0], fov, sv, 0.0), [ref])


def _scalar_roots(q, fov, sv):
    args = (np.broadcast_to(x, q.shape).tolist() for x in (q, fov, sv))
    return np.array([_newton_error(*a) for a in zip(*args)])


def _assert_roots(q, fov, sv):
    """The array and scalar inversions of reports ``q`` both give roots (`assert_roots`)."""
    assert_roots(q, fov, sv, _newton_error_vec(q, fov, sv))
    assert_roots(q, fov, sv, _scalar_roots(q, fov, sv), scalar=True)


@settings(max_examples=200, deadline=None)
@given(fovs, st.floats(1e-3, math.pi - 1e-3), st.floats(0.0, 1.0))
@example(0.23696113497054547, 0.23696113497054547, 0.5)
@example(0.8125, 0.8125, 0.5)
def test_newton_matches_scalar_by_residual(fov, sv, t):
    """The array and scalar Newton iterations both find roots (`assert_roots`).

    They take the same steps wherever ``qoe`` and ``qoe_vec`` agree, but
    the two QoEs differ at the ulp level, so where the QoE is flat their
    roots can be floats apart: each is compared by residual with bisecting
    and with the lens's rounding, in its own arithmetic.  ``t`` places the
    error in the partial-overlap interval; reports the inversion answers
    with a case's interval (within `QOE_MATCH_TOL` of a band end) are
    skipped.  With ``r_fov == r_sv`` and ``t = 0.5`` (the examples) the
    error is the bisection's first midpoint.
    """
    lo, hi = abs(fov - sv), min(fov + sv, 2.0 * math.pi - fov - sv)
    q, f, s = (np.array([x]) for x in (qoe(fov, sv, lo + t * (hi - lo)), fov, sv))
    assume(_reports_inverted_exactly(q, f, s).all())
    _assert_roots(q, f, s)


def test_bisection_stops_each_element_at_tolerance():
    """Each report stops on its own root, within 1e-13 of the error it came from."""
    fov = FOVS[0]
    sv = np.array([0.5, 0.9, 1.3, 2.0])
    e = np.array([0.6, 0.5, 1.0, 1.4])
    q = qoe_vec(fov, sv, e)
    f = np.full(4, fov)
    _assert_roots(q, f, sv)
    assert np.abs(_newton_error_vec(q, f, sv) - e).max() <= 1e-13
    assert np.abs(_scalar_roots(q, f, sv) - e).max() <= 1e-13


def _reports_inverted_exactly(q, fov, sv):
    """Which reports lie more than `QOE_MATCH_TOL` from both ends of their band."""
    q_high, q_low = qoe_vec(fov, sv, 0.0), qoe_vec(fov, sv, math.pi)
    return (np.abs(q - q_high) > QOE_MATCH_TOL) & (np.abs(q - q_low) > QOE_MATCH_TOL)


def _reports(triples):
    """Two reports for each ``(r_fov, r_sv, u)``, and which ones the QoE inversion inverts exactly.

    The first of each pair sits at the fraction ``u`` of the band of
    attainable QoE; the second ties with the QoE at the oracle's first
    midpoint, where the oracle's first comparison is a tie.  Returns
    ``(q, r_fov, r_sv, exact)`` arrays, the ``u`` reports first, with
    ``exact`` from `_reports_inverted_exactly`.
    """
    fov, sv, u = (np.tile(np.array(x, dtype=float), 2) for x in zip(*triples))
    q_high, q_low = qoe_vec(fov, sv, 0.0), qoe_vec(fov, sv, math.pi)
    q = q_low + u * (q_high - q_low)
    tie = slice(len(triples), None)
    lo, hi = inversion_bracket(fov[tie], sv[tie])
    q[tie] = qoe_vec(fov[tie], sv[tie], 0.5 * (lo + hi))
    return q, fov, sv, _reports_inverted_exactly(q, fov, sv)


def _exact(triples):
    """The reports of `_reports` that the QoE inversion inverts exactly, as ``(q, r_fov, r_sv)``."""
    q, fov, sv, exact = _reports(triples)
    return q[exact], fov[exact], sv[exact]


#: Reports at the edges of the domain, one list per batch: the smallest
#: field of view, a hemisphere, r_sv within 1e-12 of r_fov, the thinnest
#: band still inverted exactly (r_sv about 4.5e-5 r_fov, and pi - r_sv
#: alike), r_fov + r_sv within 1e-9 of pi on either side, and a report whose
#: tie at the oracle's first midpoint moves when the lens takes the radii
#: the other way round.  A batch mixes reports that stop after different
#: numbers of iterations.
_EDGE_REPORTS = [
    [(1e-6, 5e-7, 0.5), (1e-6, 1.5e-6, 0.3), (1e-6, 2.0, 0.7)],
    [(math.pi / 2, 1.0, 0.5), (math.pi / 2, math.pi / 2, 0.999), (math.pi / 2, 3.0, 1e-3)],
    [(0.8, 0.8 + 5e-13, 0.5), (0.8, 0.8 - 5e-13, 0.5), (0.8, 0.8, 0.25)],
    [(0.01, 4.5e-7, 0.5), (0.01, math.pi - 4.5e-7, 0.5), (1e-3, 4.6e-8, 0.5), (1.0, 0.5, 0.5)],
    [(1.0, math.pi - 1.0 - 5e-10, 0.5), (1.0, math.pi - 1.0 + 5e-10, 0.5), (0.3, 1.0, 0.5)],
    [(FOVS[0], 2.0, 0.5)],
]

_inversion_reports = st.lists(
    st.tuples(
        st.one_of(st.sampled_from((1e-6, FOVS[0], math.pi / 2)), st.floats(1e-6, math.pi / 2)),
        st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=6,
)


def _over_the_domain(test):
    """``test`` as a property over batches of reports, `_EDGE_REPORTS` among them."""
    for triples in _EDGE_REPORTS:
        test = example(triples)(test)
    return settings(max_examples=200, deadline=None)(given(_inversion_reports)(test))


def test_edge_reports_are_bisected():
    """Every edge report reaches the exact inversion."""
    for triples in _EDGE_REPORTS:
        assert _reports(triples)[3][: len(triples)].all()


@_over_the_domain
def test_lens_area_is_the_full_expression_bit_for_bit(triples):
    """The lens, evaluated halved and doubled, is the full expression's bit for bit.

    At the fraction ``u`` of each report's partial-overlap interval and
    within 2 floats of its ends, where the arccos arguments round past ±1
    and the clamp to ``[0, cap]`` binds.
    """
    points = []
    for fov, sv, u in triples:
        lo, hi = abs(fov - sv), min(fov + sv, 2.0 * math.pi - fov - sv)
        points += [(fov, sv, e) for e in (lo + u * (hi - lo), *boundary_neighbours(fov, sv))]
    fov, sv, e = (np.array(x) for x in zip(*points))
    partial = classify_vec(fov, sv, e) == CASE_CODE[OverlapCase.REMAINING]
    fov, sv, e = fov[partial], sv[partial], e[partial]
    got = lens_area(lens_terms(fov, sv), np.cos(e), np.sin(e), np.empty((3, e.size)))
    assert np.array_equal(got, reference_lens(fov, sv, e)[0])


@_over_the_domain
def test_newton_root_is_within_the_rounding_with_qoe_vec(triples):
    """Array and scalar roots lie inside the interval, with residuals
    within the lens's rounding or no worse than bisecting (`assert_roots`)."""
    _assert_roots(*_exact(triples))


def _one_degree_grid():
    """The reports of a 721 x 721 (r_sv, e) grid at a 1-degree field of
    view that the inversion inverts exactly, as ``(q, r_fov, r_sv)``."""
    fov = math.radians(1.0)
    axis = np.linspace(0.0, math.pi, 721)
    sv, e = (a.ravel() for a in np.meshgrid(axis[1:-1], axis, indexing="ij"))
    f = np.full(sv.size, fov)
    q = qoe_vec(f, sv, e)
    exact = _reports_inverted_exactly(q, f, sv)
    assert np.count_nonzero(exact) > 5000
    return q[exact], f[exact], sv[exact]


def test_newton_root_is_within_the_rounding_at_one_degree():
    """At a 1-degree field of view the lens's rounding, in QoE, is thousands
    of times a hemisphere's: the roots are still within it, or no worse
    than bisecting."""
    _assert_roots(*_one_degree_grid())


def _assert_certified(q, fov, sv, scalar=False):
    """Each root of the reports ``q`` carries bisection's guarantee; returns how many were bisected.

    Bisection's answer sees the computed QoE change side of the report
    within ``BISECT_TOL / 2`` of it: two points ``a < b`` that close, and
    the QoE above the report at ``a`` and not above it at ``b``.  The
    points are those the kernel decided, with the QoE its own arithmetic
    gives there.  A root is certified by the array kernel's bracket after
    `_certify_vec`, or by the scalar mirror's calls to the module-global
    ``qoe`` (one report at a time).  A root that fails its certification
    is the midpoint of the final bracket of the fallback
    `_bisect_error_vec`, whose ends the array lens (``qoe_vec``) decides.
    Both brackets are read back after the kernels update them in place.
    The starting bracket's ends count as on their sides unevaluated, as in
    bisection: where the lens's rounding swamps the QoE (``r_fov`` 1e-6),
    a root can lie at one.
    """
    reports = list(zip(q.tolist(), fov.tolist(), sv.tolist()))
    starts = zip(reports, *(end.tolist() for end in inversion_bracket(fov, sv)))
    seen = {key: {lo: math.inf, hi: -math.inf} for key, lo, hi in starts}  # report -> {error: its QoE}
    bisected = []
    certify_vec, bisect_vec = vrpl.leakage._certify_vec, vrpl.leakage._bisect_error_vec

    def decided(qs, fs, ss, lo, hi):
        keys = list(zip(qs.tolist(), fs.tolist(), ss.tolist()))
        for e in (lo, hi):
            for key, x, v in zip(keys, e.tolist(), qoe_vec(fs, ss, e).tolist()):
                seen[key].setdefault(x, v)

    def certify(qs, fs, ss, x, lo, hi):
        out = certify_vec(qs, fs, ss, x, lo, hi)
        decided(qs, fs, ss, lo, hi)
        return out

    def bisect(qs, fs, ss, lo, hi):
        out = bisect_vec(qs, fs, ss, lo, hi)
        bisected.append(qs.size)
        decided(qs, fs, ss, lo, hi)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vrpl.leakage, "_certify_vec", certify)
        mp.setattr(vrpl.leakage, "_bisect_error_vec", bisect)
        if scalar:
            roots = []
            for key in reports:
                log = seen[key]
                mp.setattr(vrpl.leakage, "qoe", lambda f, s, e, log=log: log.setdefault(e, qoe(f, s, e)))
                roots.append(_newton_error(*key))
        else:
            roots = _newton_error_vec(q, fov, sv).tolist()
    half = 0.5 * BISECT_TOL
    for key, root in zip(reports, roots):
        near = [(e, v) for e, v in seen[key].items() if abs(e - root) <= half + math.ulp(root)]
        assert any(a < b and va > key[0] >= vb for a, va in near for b, vb in near), (key, root, near)
    return sum(bisected)


@_over_the_domain
def test_every_root_is_certified_or_bisected(triples):
    """Every array and scalar root carries bisection's guarantee (`_assert_certified`)."""
    q, fov, sv = _exact(triples)
    _assert_certified(q, fov, sv)
    _assert_certified(q, fov, sv, scalar=True)


def test_every_root_is_certified_or_bisected_at_one_degree():
    """So does every root where the lens's rounding is widest, and few are bisected."""
    q, fov, sv = _one_degree_grid()
    assert _assert_certified(q, fov, sv) <= q.size // 200
    assert _assert_certified(q, fov, sv, scalar=True) <= q.size // 200


def _hook_evaluations(monkeypatch):
    """Hooks on the inversions' QoE evaluations.

    Returns two lists: one entry per evaluation of the array kernels'
    partial-overlap QoE (`_lens_qoe`), its number of elements, with a
    ``None`` where the array kernel's certification (`_certify_vec`)
    starts, and one per evaluation of the module-global ``qoe``, its
    ``(r_fov, r_sv, e)``.  The scalar mirror evaluates ``qoe`` at its
    Newton iterates and certification points only: its fallback bisection
    is the array one.
    """
    sizes, evals = [], []
    leakage = vrpl.leakage
    lens_qoe, certify_vec = leakage._lens_qoe, leakage._certify_vec
    monkeypatch.setattr(
        vrpl.leakage, "_lens_qoe", lambda t, c, s, w: sizes.append(c.size) or lens_qoe(t, c, s, w)
    )
    monkeypatch.setattr(vrpl.leakage, "qoe", lambda *a: evals.append(a) or qoe(*a))
    monkeypatch.setattr(vrpl.leakage, "_certify_vec", lambda *a: sizes.append(None) or certify_vec(*a))
    return sizes, evals


@_over_the_domain
def test_every_newton_iterate_is_partial_overlap(triples):
    """What lets the kernels take the lens at every iterate without classifying it.

    The scalar mirror's Newton iterates and certification points are what
    the hooked qoe sees; the array kernel's (one report at a time), and
    the midpoints where either kernel bisects a root that fails its
    certification, are the angles of the hooked `_lens_qoe`'s cosines and
    sines.  The array oracle's midpoints are partial overlap too.
    """
    q, fov, sv = _exact(triples)
    for report in zip(q, fov, sv):
        iterates = []
        with pytest.MonkeyPatch.context() as mp:
            _, evals = _hook_evaluations(mp)
            lens_qoe = vrpl.leakage._lens_qoe
            mp.setattr(vrpl.leakage, "_lens_qoe", lambda t, c, s, w: iterates.extend(
                (report[1], report[2], float(x)) for x in np.arctan2(s, c)) or lens_qoe(t, c, s, w))
            _newton_error_vec(*(np.array([x]) for x in report))
            _newton_error(*report)
        iterates += evals
        assert all(classify(*x) is OverlapCase.REMAINING for x in iterates), iterates
    for f, s, mid in halve_with_qoe_vec(q, fov, sv)[1]:
        assert (classify_vec(f, s, mid) == CASE_CODE[OverlapCase.REMAINING]).all()


@_over_the_domain
def test_newton_never_reaches_the_iteration_cap(triples):
    q, fov, sv = _exact(triples)
    with pytest.MonkeyPatch.context() as mp:
        sizes, evals = _hook_evaluations(mp)
        _newton_error_vec(q, fov, sv)
        assert sizes.index(None) < _NEWTON_MAX_ITER
        for report in zip(q, fov, sv):
            evals.clear()
            _newton_error(*report)
            assert len(evals) < _NEWTON_MAX_ITER


def test_newton_takes_about_six_evaluations_on_the_grid(grid, monkeypatch):
    """About 6 QoE evaluations per report, the root's certification
    included, where bisection took 35.7."""
    fov, sv, _, q, _ = grid
    live = (sv > 0.0) & (sv < math.pi)
    q, sv = q[live], sv[live]
    exact = _reports_inverted_exactly(q, fov, sv)
    q, sv, f = q[exact], sv[exact], np.full(np.count_nonzero(exact), fov)
    sizes, evals = _hook_evaluations(monkeypatch)
    _newton_error_vec(q, f, sv)
    newton, certified = sizes[: sizes.index(None)], sizes[sizes.index(None) + 1 :]
    assert sum(newton) + sum(certified) <= 6.0 * q.size and len(newton) <= 20
    _scalar_roots(q[::25], f[::25], sv[::25])
    assert len(evals) <= 6.0 * len(q[::25])


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


#: One ``(r_sv, e)`` in each case at ``FOVS[0]``, in code order.
_CASE_POINTS = [(2.0, 0.5), (0.3, 0.2), (0.5, 2.0), (3.0, 2.9), (0.8, 0.6), (0.0, 0.5), (math.pi, 0.5)]


def test_kernels_on_0d_and_empty_inputs():
    """0-d inputs give 0-d arrays that match the scalar functions; empty inputs give empty arrays."""
    fov = FOVS[0]
    for code, (sv, e) in enumerate(_CASE_POINTS):
        case, q = classify_vec(fov, sv, e), qoe_vec(fov, sv, e)
        assert (type(case), case.dtype, case.shape) == (np.ndarray, np.int8, ())
        assert (type(q), q.dtype, q.shape) == (np.ndarray, np.float64, ())
        assert case == code and CASES[code] is classify(fov, sv, e)
        _assert_close(q, qoe(fov, sv, e))
    for kernel, dtype in ((classify_vec, np.int8), (qoe_vec, np.float64)):
        got = kernel(fov, [], 0.5)
        assert (type(got), got.dtype, got.shape) == (np.ndarray, dtype, (0,))


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
