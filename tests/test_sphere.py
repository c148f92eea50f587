import math

import numpy as np
import pytest

from support import boundary_neighbours, random_partial_overlap_triples
from vrpl import SPHERE_AREA, cap_area, cap_overlap_area, mc_cap_overlap
from vrpl.sphere import cap_overlap_area_vec, lens_area_sum, lens_terms


def test_cap_radius_validation():
    for r in (0.0, math.pi):
        cap_area(r)
        cap_overlap_area(r, 0.5, 0.3)
        cap_overlap_area(0.5, r, 0.3)
    for bad in (-1e-9, math.pi + 1e-9, math.nan):
        with pytest.raises(ValueError):
            cap_area(bad)
        with pytest.raises(ValueError):
            cap_overlap_area(bad, 0.5, 0.3)
        with pytest.raises(ValueError):
            cap_overlap_area(0.5, bad, 0.3)


def test_cap_area_values():
    assert cap_area(0.0) == 0.0
    assert cap_area(math.pi / 2) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert cap_area(math.pi) == pytest.approx(SPHERE_AREA, abs=1e-12)
    # Monotone in the radius.
    rs = np.linspace(0.0, math.pi, 200)
    areas = [cap_area(r) for r in rs]
    assert all(x < y for x, y in zip(areas, areas[1:]))


def test_overlap_closed_cases():
    # Concentric containment: the smaller cap is the overlap.
    assert cap_overlap_area(0.4, 1.0, 0.0) == pytest.approx(cap_area(0.4), abs=1e-12)
    assert cap_overlap_area(1.0, 0.4, 0.3) == pytest.approx(cap_area(0.4), abs=1e-12)
    # Disjoint caps.
    assert cap_overlap_area(0.5, 0.6, 2.0) == 0.0
    # Caps that jointly cover the sphere.
    r1, r2, d = 2.8, 2.9, 1.0
    assert r1 + r2 + d >= 2.0 * math.pi
    expected = cap_area(r1) + cap_area(r2) - SPHERE_AREA
    assert cap_overlap_area(r1, r2, d) == pytest.approx(expected, abs=1e-12)


def test_overlap_orthogonal_hemispheres():
    # Two hemispheres whose centres are a quarter circle apart overlap in
    # exactly a quarter of the sphere.
    got = cap_overlap_area(math.pi / 2, math.pi / 2, math.pi / 2)
    assert got == pytest.approx(math.pi, abs=1e-9)


def test_overlap_case_boundaries_continuous():
    # Crossing each case boundary changes the area continuously.
    eps = 1e-7
    cases = [
        (0.8, 0.5, 0.8 - 0.5),  # containment boundary
        (0.5, 0.9, 0.5 + 0.9),  # disjoint boundary
        (2.5, 2.9, 2.0 * math.pi - 2.5 - 2.9),  # covering boundary
    ]
    for r1, r2, d in cases:
        inner = cap_overlap_area(r1, r2, d - eps)
        outer = cap_overlap_area(r1, r2, d + eps)
        at = cap_overlap_area(r1, r2, d)
        assert abs(inner - at) < 1e-5
        assert abs(outer - at) < 1e-5


def test_overlap_monotone_in_distance():
    rs = np.linspace(0.31, 1.49, 300)
    areas = [cap_overlap_area(0.9, 0.6, d) for d in rs]
    assert all(x >= y - 1e-12 for x, y in zip(areas, areas[1:]))


def test_overlap_bounds():
    rng = np.random.default_rng(5)
    for _ in range(500):
        r1 = rng.uniform(0.0, math.pi)
        r2 = rng.uniform(0.0, math.pi)
        d = rng.uniform(0.0, math.pi)
        a = cap_overlap_area(r1, r2, d)
        assert 0.0 <= a <= min(cap_area(r1), cap_area(r2)) + 1e-12


def test_overlap_matches_monte_carlo():
    rng = np.random.default_rng(77)
    triples = random_partial_overlap_triples(rng, 500)
    for i, (r1, r2, d) in enumerate(triples):
        exact = cap_overlap_area(r1, r2, d)
        est, se = mc_cap_overlap(r1, r2, d, n=100_000, seed=1000 + i)
        # the 2-hit SE floor keeps the band honest when a thin lens
        # collects no Monte Carlo hits and the sample SE collapses to 0
        assert abs(exact - est) <= 4.0 * max(se, 2.0 * SPHERE_AREA / 100_000.0)


def test_overlap_vectorised_matches_scalar():
    rng = np.random.default_rng(21)
    r1, r2, d = np.array(random_partial_overlap_triples(rng, 400)).T
    vec = cap_overlap_area_vec(r1, r2, np.cos(d), np.sin(d))
    for i in range(len(d)):
        assert vec[i] == pytest.approx(cap_overlap_area(r1[i], r2[i], d[i]), abs=1e-12)


def test_lens_area_sum_matches_fsum_across_blocks():
    """A run's lens sum is `math.fsum` of its lenses, to a few ulps of the sum per element.

    Runs of 1 to 2,000 distances, some within a few floats of the interval's
    ends, are summed in work rows 7, 500 and 16,384 wide.
    """
    rng = np.random.default_rng(61)
    for r1, r2, _ in random_partial_overlap_triples(rng, 40):
        lo, hi = abs(r1 - r2), min(r1 + r2, 2.0 * math.pi - r1 - r2)
        near = [x for x in boundary_neighbours(r1, r2, ulps=3) if lo < x < hi]
        d = np.sort(np.concatenate([rng.uniform(lo, hi, rng.integers(1, 2000)), near]))
        cos_d, sin_d = np.cos(d), np.sin(d)
        values = cap_overlap_area_vec(r1, r2, cos_d, sin_d)
        want = math.fsum(values)
        terms = lens_terms(r1, r2)
        for width in (7, 500, 16384):
            got = lens_area_sum(terms, cos_d, sin_d, cos_d * terms[0], sin_d * terms[2], np.empty((3, width)))
            assert abs(got - want) <= 4 * d.size * math.ulp(want), (r1, r2, width)


def test_mc_overlap_full_sphere():
    est, se = mc_cap_overlap(math.pi, math.pi, 0.7, n=10_000, seed=0)
    assert est == pytest.approx(SPHERE_AREA, abs=1e-12)
    assert se == 0.0
