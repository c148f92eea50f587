import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from support import boundary_neighbours, random_view_triples
from vrpl import (
    OverlapCase,
    cap_area,
    classify,
    mc_cap_overlap,
    qoe,
    qoe_vec,
)
from vrpl.qoe import CASE_CODE, _classify_codes, classify_vec
from vrpl.sphere import TWO_PI, lens_area, lens_terms

FOV = 0.8726646259971648  # 50 degrees


def test_classify_examples():
    assert classify(FOV, 2.0, 0.5) == OverlapCase.FOV_IN_SFOV
    assert classify(FOV, 0.3, 0.2) == OverlapCase.SFOV_IN_FOV
    assert classify(FOV, 0.5, 2.0) == OverlapCase.DISJOINT
    assert classify(FOV, 3.0, 2.9) == OverlapCase.SFOV_COMPLEMENT_IN_FOV
    assert classify(FOV, 0.9, 0.5) == OverlapCase.REMAINING
    assert classify(FOV, 0.0, 0.5) == OverlapCase.DEGENERATE_EMPTY
    assert classify(FOV, math.pi, 0.5) == OverlapCase.DEGENERATE_FULL


def test_classify_boundary_ties():
    # Exactly on a boundary, the first closed case in precedence order wins.
    # Differences are formed so the boundary identity is exact in floats.
    sv = FOV + 0.25
    assert classify(FOV, sv, sv - FOV) == OverlapCase.FOV_IN_SFOV
    sv = FOV - 0.25
    assert classify(FOV, sv, FOV - sv) == OverlapCase.SFOV_IN_FOV
    assert classify(FOV, 0.5, FOV + 0.5) == OverlapCase.DISJOINT


def test_fov_validation():
    with pytest.raises(ValueError):
        classify(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        classify(math.pi / 2 + 1e-9, 0.5, 0.5)
    with pytest.raises(ValueError):
        qoe(FOV, 0.5, -0.1)
    with pytest.raises(ValueError):
        qoe(FOV, 3.5, 0.5)


def test_qoe_closed_case_values():
    assert qoe(FOV, 2.0, 0.5) == 1.0
    assert qoe(FOV, 0.5, 2.0) == 0.0
    got = qoe(FOV, 0.3, 0.2)
    assert got == pytest.approx((1.0 - math.cos(0.3)) / (1.0 - math.cos(FOV)), abs=1e-15)
    got = qoe(FOV, 3.0, 2.9)
    expected = (-math.cos(3.0) - math.cos(FOV)) / (1.0 - math.cos(FOV))
    assert got == pytest.approx(expected, abs=1e-15)


def test_qoe_degenerate_radii():
    assert qoe(FOV, 0.0, 1.0) == 0.0
    assert qoe(FOV, math.pi, 1.0) == 1.0


def test_qoe_constant_within_closed_cases():
    # The covered fraction ignores the error inside each closed case.
    for sv, errs in [
        (2.0, np.linspace(0.0, 2.0 - FOV - 1e-9, 10)),
        (0.3, np.linspace(0.0, FOV - 0.3 - 1e-9, 10)),
        (3.0, np.linspace(2.0 * math.pi - FOV - 3.0 + 1e-9, math.pi, 10)),
    ]:
        vals = {qoe(FOV, sv, float(e)) for e in errs}
        assert len(vals) == 1
    assert {qoe(FOV, 0.5, float(e)) for e in np.linspace(FOV + 0.5, math.pi, 10)} == {0.0}


def test_qoe_partial_overlap_value():
    # Re-derived by hand from the lens formula for (0.8726646..., 0.9, 0.5).
    assert qoe(FOV, 0.9, 0.5) == pytest.approx(0.686407761881015, abs=1e-12)


def test_qoe_partial_overlap_matches_monte_carlo():
    rng = np.random.default_rng(13)
    for i, (fov, sv, e) in enumerate(random_view_triples(rng, 40)):
        est, se = mc_cap_overlap(fov, sv, e, n=1_000_000, seed=500 + i)
        frac = est / cap_area(fov)
        # floor at the 2-hit SE: the sample SE collapses for thin lenses
        frac_se = max(se, 2.0 * 4.0 * math.pi / 1_000_000.0) / cap_area(fov)
        assert qoe(fov, sv, e) == pytest.approx(frac, abs=4.0 * frac_se)


def test_qoe_monotone_in_error():
    for sv in (0.6, 0.9, 1.4):
        lo = abs(FOV - sv) + 1e-6
        hi = min(FOV + sv, 2.0 * math.pi - FOV - sv) - 1e-6
        vals = [qoe(FOV, sv, float(e)) for e in np.linspace(lo, hi, 100)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_qoe_monotone_in_streamed_radius():
    e = 0.7
    svs = np.linspace(abs(FOV - e) + 1e-6, FOV + e - 1e-6, 100)
    vals = [qoe(FOV, float(sv), e) for sv in svs]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_qoe_continuous_at_case_boundaries():
    # Approaching each boundary from the partial-overlap side converges to
    # the adjacent closed-case constant.
    delta = 1e-7
    sv = 1.2
    assert qoe(FOV, sv, sv - FOV + delta) == pytest.approx(1.0, abs=1e-4)
    sv = 0.5
    assert qoe(FOV, sv, FOV - sv + delta) == pytest.approx(
        (1.0 - math.cos(sv)) / (1.0 - math.cos(FOV)), abs=1e-4
    )
    assert qoe(FOV, sv, FOV + sv - delta) == pytest.approx(0.0, abs=1e-4)
    sv = 2.9
    e = 2.0 * math.pi - FOV - sv + delta
    expected = (-math.cos(sv) - math.cos(FOV)) / (1.0 - math.cos(FOV))
    assert qoe(FOV, sv, e) == pytest.approx(expected, abs=1e-4)


def test_qoe_range():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        fov = rng.uniform(1e-3, math.pi / 2)
        sv = rng.uniform(0.0, math.pi)
        e = rng.uniform(0.0, math.pi)
        assert 0.0 <= qoe(fov, sv, e) <= 1.0


@pytest.mark.parametrize("fov", [1e-4, 0.01, math.radians(1.0), math.radians(50.0), math.pi / 2])
def test_lens_lies_within_the_fov_area_bit_for_bit(fov):
    # The QoE divides the lens by the field of view's area with no clip: the
    # lens's clamp to the smaller cap keeps it in [0, area] exactly, at
    # random partial-overlap points and within 2 floats of each case end.
    rng = np.random.default_rng(28)
    sv = rng.uniform(0.0, math.pi, 2000)
    lo, hi = np.abs(sv - fov), np.minimum(fov + sv, TWO_PI - fov - sv)
    points = list(zip(sv, lo + rng.uniform(0.0, 1.0, sv.size) * (hi - lo)))
    points += [(s, e) for s in sv[:500] for e in boundary_neighbours(fov, s)]
    sv, e = (np.array(x) for x in zip(*points))
    partial = classify_vec(fov, sv, e) == CASE_CODE[OverlapCase.REMAINING]
    sv, e = sv[partial], e[partial]
    assert sv.size > 2000
    terms = lens_terms(np.full(sv.size, fov), sv)
    lens = lens_area(terms, np.cos(e), np.sin(e), np.empty((3, e.size)))
    assert (lens >= 0.0).all() and (lens <= TWO_PI * (1.0 - terms[0])).all()
    q = qoe_vec(fov, sv, e)
    assert (q >= 0.0).all() and (q <= 1.0).all()
    assert all(0.0 <= qoe(fov, s, x) <= 1.0 for s, x in zip(sv[::10], e[::10]))


#: The float just past pi: a sum of radii that rounds to it covers the sphere
#: at antipodal error only because fl(sum + pi) rounds down to 2 pi.
_PAST_PI = math.nextafter(math.pi, 4.0)


def _radius_past_pi(fov: float) -> float:
    """The streamed radius ``sv`` with ``fl(fov + sv)`` the float just past pi, if
    there is one: a sum halfway between two floats rounds to the even one."""
    sv = _PAST_PI - fov
    while fov + sv < _PAST_PI:
        sv = math.nextafter(sv, 4.0)
    while fov + sv > _PAST_PI:
        sv = math.nextafter(sv, 0.0)
    return sv


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1e-6, math.pi / 2),
    st.one_of(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), st.none()),
)
@example(0.5, None)
@example(math.pi / 2, None)
def test_band_ends_are_never_partial_overlap(fov, sv):
    # The inversions take the QoE at zero and antipodal error, the ends of the
    # band of attainable QoE, from the constant cases alone: at 0 one cap
    # contains the other, and at pi the caps are disjoint or cover the sphere.
    # None draws the tie where fov + sv rounds to the float just past pi.
    if sv is None:
        sv = _radius_past_pi(fov)
        assume(fov + sv == _PAST_PI)
        assert fov + sv + math.pi == TWO_PI
    codes = _classify_codes(np.full(2, fov), np.full(2, sv), np.array([0.0, math.pi]))
    assert CASE_CODE[OverlapCase.REMAINING] not in codes.tolist(), (fov, sv, codes)
