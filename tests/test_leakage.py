import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import assert_roots, random_view_triples
from vrpl import (
    InferenceKind,
    Monotonicity,
    OverlapCase,
    PrivacyRequirement,
    QoeInconsistencyError,
    RangeKind,
    ZoneKind,
    case_leakage_profile,
    classify,
    error_range_for_requirement,
    full_leak_error_range,
    infer_error_from_qoe,
    infer_error_from_qoe_vec,
    leak_prob_from_error,
    leak_prob_from_error_vec,
    leak_prob_from_qoe,
    min_leak_prob_error,
    min_leak_prob_qoe,
    min_prob_comparison,
    qoe,
)
from vrpl.leakage import _error_upload_prob
from vrpl.qoe import CASES

FOV = math.radians(50.0)
EPS = 0.4 * FOV  # 0.34906585039886595


def test_error_upload_basic_values():
    res = leak_prob_from_error(math.pi / 2, EPS)
    assert res.probability == EPS / math.pi
    assert res.zone_kind == ZoneKind.CIRCLE
    assert res.zone_measure == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert min_leak_prob_error(EPS) == pytest.approx(0.11111111111111113, abs=1e-15)


def test_error_upload_degenerate_errors():
    for e in (0.0, math.pi):
        res = leak_prob_from_error(e, EPS)
        assert res.probability == 1.0
        assert res.zone_kind == ZoneKind.SINGLE_POINT
        assert res.zone_measure == 0.0


def test_error_upload_clamped_near_poles():
    # Tiny circles cannot dilute the guess: the probability clamps at 1.
    assert leak_prob_from_error(0.05, EPS).probability == 1.0
    assert leak_prob_from_error(math.pi - 0.05, EPS).probability == 1.0


def test_error_upload_mirror_symmetry():
    for e in np.linspace(0.3, math.pi - 0.3, 50):
        a = leak_prob_from_error(float(e), EPS).probability
        b = leak_prob_from_error(math.pi - float(e), EPS).probability
        assert a == pytest.approx(b, abs=1e-13)


def test_error_upload_prob_kernel_is_the_vector_probability_bit_for_bit():
    # the sweep's probability-only kernel against `leak_prob_from_error_vec`
    # and the expression it replaced there, at the ends, a float off each and at random
    rng = np.random.default_rng(67)
    edges = [0.0, math.pi, 5e-324, float(np.nextafter(math.pi, 0.0))]
    e = np.concatenate([edges, rng.uniform(0.0, math.pi, 500)])
    for eps in (0.0, 1e-300, EPS, math.pi / 2, rng.uniform(0.0, math.pi / 2, e.size)):
        got = _error_upload_prob(e, eps)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = np.where((e == 0.0) | (e == math.pi), 1.0,
                            np.minimum(eps / (math.pi * np.sin(e)), 1.0))
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == leak_prob_from_error_vec(e, eps).probability.tobytes()
    for x in edges:  # 0-d errors keep their shape
        got = _error_upload_prob(np.array(x), EPS)
        assert got.shape == () and got == leak_prob_from_error_vec(x, EPS).probability


@given(st.floats(1e-6, math.pi - 1e-6), st.floats(0.0, math.pi / 2))
def test_error_upload_prob_in_range(e, eps):
    p = leak_prob_from_error(e, eps).probability
    assert 0.0 <= p <= 1.0
    assert p >= min_leak_prob_error(eps) - 1e-15


def test_error_upload_monotone_in_epsilon():
    probs = [
        leak_prob_from_error(1.0, float(ep)).probability
        for ep in np.linspace(0.0, math.pi / 2, 50)
    ]
    assert all(x <= y for x, y in zip(probs, probs[1:]))


def test_full_leak_range():
    (lo1, hi1), (lo2, hi2) = full_leak_error_range(EPS)
    assert lo1 == 0.0 and hi2 == math.pi
    assert hi1 == pytest.approx(0.11134101434096391, abs=1e-12)
    assert lo2 == pytest.approx(math.pi - hi1, abs=1e-12)
    # Just inside the edges the leakage is still 1; just outside it drops.
    assert leak_prob_from_error(hi1 - 1e-9, EPS).probability == 1.0
    assert leak_prob_from_error(hi1 + 1e-6, EPS).probability < 1.0
    # Zero protection radius collapses both intervals to points.
    (z0, z1), (z2, z3) = full_leak_error_range(0.0)
    assert (z0, z1, z2, z3) == (0.0, 0.0, math.pi, math.pi)


def test_requirement_range_branches():
    full = error_range_for_requirement(PrivacyRequirement(EPS, 1.0))
    assert full.kind == RangeKind.FULL
    assert (full.lo, full.hi) == (0.0, math.pi)

    zero = error_range_for_requirement(PrivacyRequirement(0.0, 0.3))
    assert zero.kind == RangeKind.INTERVAL
    assert (zero.lo, zero.hi) == (0.0, math.pi)

    bad = error_range_for_requirement(PrivacyRequirement(EPS, 0.05))
    assert bad.kind == RangeKind.INFEASIBLE

    rng = error_range_for_requirement(PrivacyRequirement(EPS, 0.2))
    assert rng.kind == RangeKind.INTERVAL
    assert rng.lo == pytest.approx(0.5890309702162739, abs=1e-12)
    assert rng.hi == pytest.approx(2.5525616833735194, abs=1e-12)
    # The boundary error meets the cap exactly and the interval is tight.
    assert leak_prob_from_error(rng.lo, EPS).probability == pytest.approx(0.2, abs=1e-12)
    assert leak_prob_from_error(rng.lo - 1e-6, EPS).probability > 0.2
    assert leak_prob_from_error(rng.lo + 1e-6, EPS).probability < 0.2


def test_requirement_range_exact_minimum():
    # A cap exactly at the global minimum admits only e = pi/2.
    req = PrivacyRequirement(EPS, EPS / math.pi)
    rng = error_range_for_requirement(req)
    assert rng.kind == RangeKind.INTERVAL
    assert rng.lo == pytest.approx(math.pi / 2, abs=1e-6)
    assert rng.hi == pytest.approx(math.pi / 2, abs=1e-6)


def test_requirement_validation():
    with pytest.raises(ValueError):
        PrivacyRequirement(-0.1, 0.5)
    with pytest.raises(ValueError):
        PrivacyRequirement(math.pi / 2 + 0.1, 0.5)
    with pytest.raises(ValueError):
        PrivacyRequirement(0.3, 1.5)


def test_infer_constant_cases():
    inf = infer_error_from_qoe(1.0, FOV, 2.0)
    assert inf.kind == InferenceKind.RANGE
    assert inf.case == OverlapCase.FOV_IN_SFOV
    assert inf.lo == 0.0
    assert inf.hi == pytest.approx(2.0 - FOV, abs=1e-12)
    assert not inf.ambiguous

    q = (1.0 - math.cos(0.3)) / (1.0 - math.cos(FOV))
    inf = infer_error_from_qoe(q, FOV, 0.3)
    assert inf.case == OverlapCase.SFOV_IN_FOV
    assert inf.lo == 0.0
    assert inf.hi == pytest.approx(FOV - 0.3, abs=1e-12)

    inf = infer_error_from_qoe(0.0, FOV, 0.5)
    assert inf.case == OverlapCase.DISJOINT
    assert inf.lo == pytest.approx(FOV + 0.5, abs=1e-12)
    assert inf.hi == math.pi

    sv = 3.0
    q = (-math.cos(sv) - math.cos(FOV)) / (1.0 - math.cos(FOV))
    inf = infer_error_from_qoe(q, FOV, sv)
    assert inf.case == OverlapCase.SFOV_COMPLEMENT_IN_FOV
    assert inf.lo == pytest.approx(2.0 * math.pi - FOV - sv, abs=1e-12)
    assert inf.hi == math.pi


def test_infer_complement_range_starts_in_its_case():
    # 2 pi - (fov + sv) is exact (Sterbenz); the twice-rounded 2 pi - fov - sv
    # starts 25 of these ranges in the partial-overlap case.
    rng = np.random.default_rng(24)
    checked = 0
    for fov, u in rng.uniform(0.0, 1.0, (5000, 2)):
        fov = 1e-6 + fov * (math.pi / 2 - 1e-6)
        sv = math.pi - fov * u
        if not 0.0 < sv < math.pi:
            continue
        inf = infer_error_from_qoe(qoe(fov, sv, math.pi), fov, sv)
        if inf.case is OverlapCase.SFOV_COMPLEMENT_IN_FOV:
            checked += 1
            assert classify(fov, sv, inf.lo) is inf.case, (fov, sv, inf.lo)
    assert checked > 4000


def test_infer_nested_range_ends_in_its_case():
    # The case test adds the error back to a radius, which can round past the
    # other radius: |sv - fov| itself classifies as partial overlap for 65 of
    # these 3,731 fov_in_sfov and 15 of 1,269 sfov_in_fov reports.  The range
    # ends at the largest float at most |sv - fov| that is still in its case;
    # a larger error may be in the case too (at fov 1.0, sv 1.5 the range
    # ends at 0.5, and classify puts nextafter(0.5, pi) in fov_in_sfov).
    rng = np.random.default_rng(24)
    checked = dict.fromkeys((OverlapCase.FOV_IN_SFOV, OverlapCase.SFOV_IN_FOV), 0)
    for fov, sv in rng.uniform(0.0, 1.0, (5000, 2)):
        fov = 1e-6 + fov * (math.pi / 2 - 1e-6)
        sv *= math.pi
        if not 0.0 < sv < math.pi:
            continue
        inf = infer_error_from_qoe(qoe(fov, sv, 0.0), fov, sv)
        checked[inf.case] += 1
        assert inf.lo == 0.0 and inf.hi <= abs(sv - fov), (fov, sv, inf.hi)
        assert classify(fov, sv, inf.hi) is inf.case, (fov, sv, inf.hi)
        if inf.hi < abs(sv - fov):
            assert classify(fov, sv, math.nextafter(inf.hi, math.pi)) is not inf.case
    assert min(checked.values()) > 1000


_HALF_PI = math.pi / 2


@pytest.mark.parametrize(
    ("q", "fov", "sv", "case", "lo", "hi"),
    [
        # equal radii: fov_in_sfov wins the top end over sfov_in_fov
        (1.0, 0.7, 0.7, OverlapCase.FOV_IN_SFOV, 0.0, 0.0),
        # fov + sv == pi: disjoint wins the bottom end over the complement case
        (0.0, _HALF_PI, _HALF_PI, OverlapCase.DISJOINT, math.pi, math.pi),
        (qoe(_HALF_PI, _HALF_PI, math.pi), _HALF_PI, _HALF_PI, OverlapCase.DISJOINT, math.pi,
         math.pi),
        (qoe(_HALF_PI, 2.5, math.pi), _HALF_PI, 2.5, OverlapCase.SFOV_COMPLEMENT_IN_FOV,
         2.2123889803846897, math.pi),
        # a tiny streamed cap: both ends match 0, and the top end wins
        (0.0, 1.0, 1e-6, OverlapCase.SFOV_IN_FOV, 0.0, 1.0 - 1e-6),
    ],
)
def test_infer_band_end_precedence(q, fov, sv, case, lo, hi):
    inf = infer_error_from_qoe(q, fov, sv)
    assert (inf.kind, inf.case, inf.lo, inf.hi) == (InferenceKind.RANGE, case, lo, hi)
    assert CASES[int(infer_error_from_qoe_vec(q, fov, sv).case)] is case


def test_infer_exact_case_round_trip():
    rng = np.random.default_rng(7)
    for fov, sv, e in random_view_triples(rng, 200):
        q = qoe(fov, sv, e)
        inf = infer_error_from_qoe(q, fov, sv)
        assert inf.kind == InferenceKind.EXACT
        assert inf.case == OverlapCase.REMAINING
        assert inf.value == pytest.approx(e, abs=1e-6)
        # The recovered error reproduces the report.
        assert qoe(fov, sv, inf.value) == pytest.approx(q, abs=1e-8)


def test_infer_inconsistent_reports():
    # sv < fov cannot reach QoE 1.
    with pytest.raises(QoeInconsistencyError):
        infer_error_from_qoe(1.0, FOV, 0.3)
    # fov + sv > pi cannot reach QoE 0.
    with pytest.raises(QoeInconsistencyError):
        infer_error_from_qoe(0.0, FOV, 3.0)
    # Degenerate radii are rejected outright.
    with pytest.raises(ValueError):
        infer_error_from_qoe(0.5, FOV, 0.0)
    with pytest.raises(ValueError):
        infer_error_from_qoe(0.5, FOV, math.pi)


def test_infer_ambiguity_flag():
    # Constant-case values sit on the edge of the attainable band, so an
    # exact match is unambiguous ...
    assert not infer_error_from_qoe(1.0, FOV, 2.0).ambiguous
    q = (1.0 - math.cos(0.3)) / (1.0 - math.cos(FOV))
    assert not infer_error_from_qoe(q, FOV, 0.3).ambiguous
    # ... but a report within matching tolerance of the constant while
    # strictly inside the band could equally come from partial overlap.
    inf = infer_error_from_qoe(q - 1e-10, FOV, 0.3)
    assert inf.kind == InferenceKind.RANGE
    assert inf.ambiguous


def test_qoe_upload_degenerate_radii():
    for sv, case in ((0.0, OverlapCase.DEGENERATE_EMPTY), (math.pi, OverlapCase.DEGENERATE_FULL)):
        res = leak_prob_from_qoe(0.5 if sv == 0.0 else 1.0, FOV, sv, EPS)
        assert res.probability == pytest.approx(0.03015368960704584, abs=1e-15)
        assert res.zone_kind == ZoneKind.FULL_SPHERE
        assert res.zone_measure == pytest.approx(4.0 * math.pi, abs=1e-12)
        assert res.case == case
    assert min_leak_prob_qoe(EPS) == pytest.approx(0.03015368960704584, abs=1e-15)


def test_qoe_upload_cap_zone_values():
    # Containment of the streamed cap: zone radius fov - sv.
    q = (1.0 - math.cos(0.3)) / (1.0 - math.cos(FOV))
    res = leak_prob_from_qoe(q, FOV, 0.3, EPS)
    assert res.zone_kind == ZoneKind.CAP
    assert res.case == OverlapCase.SFOV_IN_FOV
    assert res.probability == pytest.approx(0.37800805966269657, abs=1e-12)
    assert res.zone_measure == pytest.approx(
        2.0 * math.pi * (1.0 - math.cos(FOV - 0.3)), abs=1e-12
    )
    # Matches the closed form directly.
    assert res.probability == pytest.approx(
        (1.0 - math.cos(EPS)) / (1.0 - math.cos(FOV - 0.3)), abs=1e-15
    )


def test_qoe_upload_cap_zone_saturates():
    # Zone radius at most the protection radius: certain leak, exactly 1.
    sv = FOV - 0.9 * EPS
    q = (1.0 - math.cos(sv)) / (1.0 - math.cos(FOV))
    assert leak_prob_from_qoe(q, FOV, sv, EPS).probability == 1.0


def test_qoe_upload_far_case_formula():
    # Disjoint and complement cases share the |pi - sv - fov| zone radius.
    res = leak_prob_from_qoe(0.0, FOV, 0.5, EPS)
    assert res.case == OverlapCase.DISJOINT
    expected = (1.0 - math.cos(EPS)) / (1.0 + math.cos(FOV + 0.5))
    assert res.probability == pytest.approx(expected, abs=5e-15)

    sv = 3.0
    q = (-math.cos(sv) - math.cos(FOV)) / (1.0 - math.cos(FOV))
    res = leak_prob_from_qoe(q, FOV, sv, EPS)
    assert res.case == OverlapCase.SFOV_COMPLEMENT_IN_FOV
    expected = (1.0 - math.cos(EPS)) / (1.0 + math.cos(FOV + sv))
    assert res.probability == pytest.approx(expected, abs=5e-15)


def test_qoe_upload_partial_overlap_matches_error_upload():
    """A partial-overlap report leaks what its root's error upload leaks.

    The root lies inside the interval with a residual no worse than the
    bisection oracle's.  It lands within 4e-15 of the error the report came
    from (the lens's rounding floor over the QoE's slope, about 2e-15), so
    the leakage matches the direct one to 2e-15.
    """
    q = qoe(FOV, 0.9, 0.5)
    res = leak_prob_from_qoe(q, FOV, 0.9, EPS)
    assert res.case == OverlapCase.REMAINING
    assert res.zone_kind == ZoneKind.CIRCLE
    root = infer_error_from_qoe(q, FOV, 0.9).value
    assert_roots(q, FOV, 0.9, root, scalar=True)
    assert root == pytest.approx(0.5, abs=4e-15)
    assert res.probability == leak_prob_from_error(root, EPS).probability
    assert res.probability == pytest.approx(leak_prob_from_error(0.5, EPS).probability, abs=2e-15)


def test_qoe_upload_epsilon_cannot_exceed_fov():
    with pytest.raises(ValueError):
        leak_prob_from_qoe(0.5, FOV, 0.9, FOV + 0.01)


def test_case_profile_directions():
    prof = case_leakage_profile(FOV, EPS, 2.0, OverlapCase.FOV_IN_SFOV)
    assert prof.monotonicity == Monotonicity.DECREASING
    prof = case_leakage_profile(FOV, EPS, 0.3, OverlapCase.SFOV_IN_FOV)
    assert prof.monotonicity == Monotonicity.INCREASING
    prof = case_leakage_profile(FOV, EPS, 0.5, OverlapCase.DISJOINT)
    assert prof.monotonicity == Monotonicity.INCREASING
    prof = case_leakage_profile(FOV, EPS, 3.0, OverlapCase.SFOV_COMPLEMENT_IN_FOV)
    assert prof.monotonicity == Monotonicity.DECREASING
    with pytest.raises(ValueError):
        case_leakage_profile(FOV, EPS, 0.9, OverlapCase.REMAINING)


def test_case_profile_is_max_condition():
    # Saturated exactly when the zone radius is within the protection radius.
    prof = case_leakage_profile(FOV, EPS, FOV + 0.5 * EPS, OverlapCase.FOV_IN_SFOV)
    assert prof.is_max
    prof = case_leakage_profile(FOV, EPS, FOV + 2.0 * EPS, OverlapCase.FOV_IN_SFOV)
    assert not prof.is_max
    prof = case_leakage_profile(FOV, EPS, math.pi - FOV - 0.5 * EPS, OverlapCase.DISJOINT)
    assert prof.is_max


def test_case_profile_infima():
    in_like = (1.0 - math.cos(EPS)) / (1.0 + math.cos(FOV))
    out_like = (1.0 - math.cos(EPS)) / (1.0 - math.cos(FOV))
    assert case_leakage_profile(FOV, EPS, 2.0, OverlapCase.FOV_IN_SFOV).infimum == pytest.approx(
        in_like, abs=1e-15
    )
    assert case_leakage_profile(FOV, EPS, 0.5, OverlapCase.DISJOINT).infimum == pytest.approx(
        in_like, abs=1e-15
    )
    assert case_leakage_profile(FOV, EPS, 0.3, OverlapCase.SFOV_IN_FOV).infimum == pytest.approx(
        out_like, abs=1e-15
    )
    assert case_leakage_profile(
        FOV, EPS, 3.0, OverlapCase.SFOV_COMPLEMENT_IN_FOV
    ).infimum == pytest.approx(out_like, abs=1e-15)


def test_case_profile_matches_sweep():
    # The declared direction matches an actual sweep of the probability
    # over the unsaturated part of each case's radius range.
    cases = {
        OverlapCase.FOV_IN_SFOV: np.linspace(FOV + EPS + 1e-6, math.pi - 1e-6, 50),
        OverlapCase.SFOV_IN_FOV: np.linspace(1e-6, FOV - EPS - 1e-6, 50),
        OverlapCase.DISJOINT: np.linspace(1e-6, math.pi - FOV - EPS - 1e-6, 50),
        OverlapCase.SFOV_COMPLEMENT_IN_FOV: np.linspace(
            math.pi - FOV + EPS + 1e-6, math.pi - 1e-6, 50
        ),
    }
    for case, svs in cases.items():
        probs = []
        for sv in svs:
            sv = float(sv)
            if case in (OverlapCase.FOV_IN_SFOV, OverlapCase.SFOV_IN_FOV):
                r_z = abs(sv - FOV)
            else:
                r_z = abs(math.pi - sv - FOV)
            probs.append((1.0 - math.cos(EPS)) / (1.0 - math.cos(r_z)))
        direction = case_leakage_profile(FOV, EPS, float(svs[0]), case).monotonicity
        if direction == Monotonicity.INCREASING:
            assert all(x < y for x, y in zip(probs, probs[1:]))
        else:
            assert all(x > y for x, y in zip(probs, probs[1:]))


def test_min_prob_comparison():
    cmp = min_prob_comparison(EPS, FOV)
    assert cmp.qoe_upload_min == pytest.approx(0.03015368960704584, abs=1e-15)
    assert cmp.error_upload_min == pytest.approx(EPS / math.pi, abs=1e-15)
    assert cmp.qoe_upload_smaller
    # Strict inequality across the open range of protection radii.
    for ep in np.linspace(1e-4, math.pi / 2 - 1e-4, 200):
        c = min_prob_comparison(float(ep), math.pi / 2)
        assert c.qoe_upload_min < c.error_upload_min
    # The two minima meet at the closure corner (up to rounding).
    corner = min_prob_comparison(math.pi / 2, math.pi / 2)
    assert corner.qoe_upload_min == pytest.approx(corner.error_upload_min, abs=1e-15)
