import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrpl import (
    OverlapCase,
    PrivacyRequirement,
    RangeKind,
    average_leakage_sweep,
    build_report,
    classify,
    error_subset_for_requirement,
    leak_prob_from_error,
    leakage_regions,
    min_leak_prob_qoe,
    qoe,
    qoe_vec,
    tradeoff_consistency_ratios,
)
from vrpl.leakage import cap_zone
from vrpl.qoe import PARTITION_CASES

FOV = math.radians(50.0)
EPS = 0.4 * FOV


def test_error_subset_full():
    values = np.linspace(0.0, math.pi, 11)
    sub = error_subset_for_requirement(values, PrivacyRequirement(EPS, 1.0))
    assert sub.feasible
    assert sub.error_range.kind == RangeKind.FULL
    assert len(sub.errors) == 11
    assert sub.mean == pytest.approx(float(values.mean()), abs=1e-15)


def test_error_subset_interval():
    values = np.linspace(0.0, math.pi, 101)
    loose = error_subset_for_requirement(values, PrivacyRequirement(EPS, 0.5))
    tight = error_subset_for_requirement(values, PrivacyRequirement(EPS, 0.2))
    assert loose.feasible and tight.feasible
    # A stricter cap keeps a subset of the looser cap's errors.
    assert set(tight.errors) <= set(loose.errors)
    assert len(tight.errors) < len(loose.errors) < len(values)
    rng = tight.error_range
    assert all(rng.lo <= e <= rng.hi for e in tight.errors)


def test_error_subset_infeasible():
    sub = error_subset_for_requirement([0.5, 1.0], PrivacyRequirement(EPS, 0.05))
    assert not sub.feasible
    assert len(sub.errors) == 0
    assert math.isnan(sub.mean)


def test_error_subset_accepts_samples_and_floats():
    a = error_subset_for_requirement(0.1 * np.arange(1, 6), PrivacyRequirement(EPS, 1.0))
    b = error_subset_for_requirement([0.1, 0.2, 0.3, 0.4, 0.5], PrivacyRequirement(EPS, 1.0))
    np.testing.assert_allclose(a.errors, b.errors, atol=1e-15)
    with pytest.raises(ValueError):
        error_subset_for_requirement([], PrivacyRequirement(EPS, 1.0))
    with pytest.raises(ValueError):
        error_subset_for_requirement([3.5], PrivacyRequirement(EPS, 1.0))


def test_tradeoff_consistency_example():
    # Nine errors at pi/10 steps; with the boundary at arcsin(5/9) four land
    # in each half, the pi/2 sample counting in both.
    errors = [math.pi * (k / 10.0) for k in range(1, 10)]
    g_t, g_c = tradeoff_consistency_ratios(errors, PrivacyRequirement(EPS, 0.2))
    assert g_t == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert g_c == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_tradeoff_consistency_midpoint_in_both():
    g_t, g_c = tradeoff_consistency_ratios([math.pi / 2], PrivacyRequirement(EPS, 0.5))
    assert g_t == 1.0 and g_c == 1.0


def test_tradeoff_consistency_full_cap_counts_every_error():
    # At cap 1 every error is feasible, so the halves split all six errors
    # exactly as the feasible subset does; no arcsin(eps/pi) cut applies.
    errors = [0.01, 0.1, 0.5, 1.0, 2.0, 3.1]
    req = PrivacyRequirement(EPS, 1.0)
    g_t, g_c = tradeoff_consistency_ratios(errors, req)
    assert (g_t, g_c) == (4 / 6, 2 / 6)
    sub = error_subset_for_requirement(errors, req)
    assert len(sub.errors) == len(errors)
    # no error sits at pi/2, so the two halves partition the feasible subset
    assert g_t + g_c == len(sub.errors) / len(errors)


def test_tradeoff_consistency_infeasible():
    with pytest.raises(ValueError, match="minimum"):
        tradeoff_consistency_ratios([0.5], PrivacyRequirement(EPS, 0.05))


def test_tradeoff_consistency_zero_cap_zero_epsilon():
    # A zero protection radius makes every error feasible even at cap 0.
    g_t, g_c = tradeoff_consistency_ratios([0.1, 2.0], PrivacyRequirement(0.0, 0.0))
    assert g_t == 0.5 and g_c == 0.5


def test_leakage_regions_layout():
    reg = leakage_regions(FOV, EPS)
    plateau = math.asin(EPS / math.pi)
    assert reg.i1 == (0.0, FOV - EPS)
    assert reg.d2[1] == pytest.approx(FOV - plateau, abs=1e-15)
    assert reg.c == pytest.approx((FOV - plateau, FOV + plateau), abs=1e-15)
    assert reg.i2[1] == pytest.approx(FOV + EPS, abs=1e-15)
    assert reg.d1 == (FOV + EPS, math.pi)
    # Contiguous, increasing regions.
    bounds = [*reg.i1, *reg.d2, *reg.c, *reg.i2, *reg.d1]
    assert bounds == sorted(bounds)
    with pytest.raises(ValueError):
        leakage_regions(FOV, FOV + 0.1)
    with pytest.raises(ValueError):
        leakage_regions(FOV, 0.0)


def test_sweep_degenerate_endpoints():
    pts = average_leakage_sweep([0.5, 1.0], FOV, EPS, [0.0, math.pi])
    empty, full = pts
    assert empty.case_ratios == {OverlapCase.DEGENERATE_EMPTY: 1.0}
    assert empty.leakage_total == pytest.approx((1.0 - math.cos(EPS)) / 2.0, abs=1e-15)
    assert empty.mean_qoe == 0.0
    assert full.case_ratios == {OverlapCase.DEGENERATE_FULL: 1.0}
    assert full.leakage_total == empty.leakage_total
    assert full.mean_qoe == 1.0


def test_sweep_single_error_containment():
    # One error, streamed cap big enough to contain the whole field of view.
    (pt,) = average_leakage_sweep([0.2], FOV, EPS, [FOV + 0.3])
    assert pt.case_ratios[OverlapCase.FOV_IN_SFOV] == 1.0
    # Zone radius 0.3 is inside the protection radius: certain leak.
    assert pt.leakage_total == 1.0
    assert pt.mean_qoe == 1.0

    (pt,) = average_leakage_sweep([0.2], FOV, EPS, [FOV + 0.6])
    assert pt.case_ratios[OverlapCase.FOV_IN_SFOV] == 1.0
    expected = (1.0 - math.cos(EPS)) / (1.0 - math.cos(0.6))
    assert pt.leakage_total == pytest.approx(expected, abs=1e-12)


def test_sweep_partition_and_component_sums():
    rng = np.random.default_rng(17)
    errors = rng.uniform(0.0, math.pi, 400)
    pts = average_leakage_sweep(errors, FOV, EPS, np.linspace(0.0, math.pi, 41))
    for pt in pts:
        assert sum(pt.case_ratios.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(pt.leakage_components.values()) == pt.leakage_total
        assert 0.0 <= pt.leakage_total <= 1.0
        assert 0.0 <= pt.mean_qoe <= 1.0


def test_sweep_remaining_component_matches_direct():
    errors = np.array([0.5, 0.8, 1.2, 2.0, 3.0])
    sv = 0.9
    (pt,) = average_leakage_sweep(errors, FOV, EPS, [sv])
    remaining = [e for e in errors if abs(sv - FOV) < e < min(FOV + sv, 2 * math.pi - FOV - sv)]
    direct = sum(min(EPS / (math.pi * math.sin(e)), 1.0) for e in remaining) / len(errors)
    assert pt.leakage_components[OverlapCase.REMAINING] == pytest.approx(direct, abs=1e-14)


def test_sweep_mean_qoe_matches_pointwise():
    rng = np.random.default_rng(23)
    errors = rng.uniform(0.0, math.pi, 50)
    for sv in (0.4, 0.9, 2.0, 2.9):
        (pt,) = average_leakage_sweep(errors, FOV, EPS, [sv])
        direct = float(np.mean([qoe(FOV, sv, float(e)) for e in errors]))
        assert pt.mean_qoe == pytest.approx(direct, abs=1e-12)


def test_sweep_deterministic_and_parallel_equal():
    rng = np.random.default_rng(31)
    errors = rng.uniform(0.0, math.pi, 200)
    grid = np.linspace(0.0, math.pi, 21)
    serial = average_leakage_sweep(errors, FOV, EPS, grid)
    again = average_leakage_sweep(errors, FOV, EPS, grid)
    assert serial == again


def test_sweep_points_do_not_depend_on_grid_order():
    # The lens work rows are reused from radius to radius: a short run after a
    # long one must not read what the long one left behind.
    rng = np.random.default_rng(37)
    errors = rng.uniform(0.0, math.pi, 2000)
    grid = np.linspace(0.0, math.pi, 37)
    forward = average_leakage_sweep(errors, FOV, EPS, grid)
    assert forward == [average_leakage_sweep(errors, FOV, EPS, [sv])[0] for sv in grid]
    assert average_leakage_sweep(errors, FOV, EPS, grid[::-1]) == forward[::-1]
    partial = [pt.case_ratios.get(OverlapCase.REMAINING, 0.0) for pt in forward]
    order = np.argsort(partial, kind="stable")[::-1]  # the longest partial-overlap run first
    assert partial[order[0]] > partial[order[-1]]
    assert average_leakage_sweep(errors, FOV, EPS, grid[order]) == [forward[i] for i in order]


def test_sweep_mean_qoe_matches_qoe_vec_in_every_case():
    rng = np.random.default_rng(43)
    errors = rng.uniform(0.0, math.pi, 3000)
    grid = np.linspace(0.0, math.pi, 73)
    points = average_leakage_sweep(errors, FOV, EPS, grid)
    reached = {case for pt in points for case, ratio in pt.case_ratios.items() if ratio > 0.0}
    assert reached >= set(PARTITION_CASES)
    for sv, pt in zip(grid, points):
        assert abs(pt.mean_qoe - float(np.mean(qoe_vec(FOV, sv, errors)))) <= 1e-13


def _pointwise_sweep(errors: list[float], fov: float, eps: float, sv: float):
    """Scalar reference: classify, score and average every error on its own."""
    n = len(errors)
    cases = [classify(fov, sv, e) for e in errors]
    if sv in (0.0, math.pi):
        probs = [min_leak_prob_qoe(eps)] * n
    else:
        nested, far = cap_zone(fov, sv, eps, True)[1], cap_zone(fov, sv, eps, False)[1]
        by_case = {
            OverlapCase.FOV_IN_SFOV: nested,
            OverlapCase.SFOV_IN_FOV: nested,
            OverlapCase.DISJOINT: far,
            OverlapCase.SFOV_COMPLEMENT_IN_FOV: far,
        }
        probs = [
            leak_prob_from_error(e, eps).probability if c is OverlapCase.REMAINING else by_case[c]
            for e, c in zip(errors, cases)
        ]
    keys = PARTITION_CASES if 0.0 < sv < math.pi else (cases[0],)
    ratios = {k: sum(c is k for c in cases) / n for k in keys}
    components = {k: sum(p for p, c in zip(probs, cases) if c is k) / n for k in keys}
    return ratios, components, sum(qoe(fov, sv, e) for e in errors) / n


_FOVS = st.one_of(st.sampled_from((math.pi / 2, FOV)), st.floats(0.01, math.pi / 2))
_RADII = st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi))


@st.composite
def _sweep_inputs(draw):
    """A radius grid and errors on, beside and between its case boundaries."""
    fov = draw(_FOVS)
    eps = draw(st.one_of(st.just(fov), st.floats(0.01, 1.0).map(lambda f: f * fov)))
    grid = draw(st.lists(_RADII, min_size=1, max_size=3))
    edges = [0.0, math.pi / 2, math.pi]
    for sv in grid:
        for t in (sv - fov, fov - sv, fov + sv, 2.0 * math.pi - fov - sv):
            edges += [float(np.nextafter(t, -np.inf)), t, float(np.nextafter(t, np.inf))]
    edges = [x for x in edges if 0.0 <= x <= math.pi]
    errors = draw(
        st.lists(st.one_of(st.sampled_from(edges), st.floats(0.0, math.pi)), min_size=1, max_size=40)
    )
    return fov, eps, grid, errors + errors[: draw(st.integers(0, len(errors)))]


@settings(max_examples=300, deadline=None)
@given(_sweep_inputs())
# fov + sv rounds to pi: both far cases are live at one radius
@example((math.pi / 2, math.pi / 2, [math.pi / 2], [float(np.nextafter(math.pi, 0)), math.pi, 1.0]))
# a nested error that also passes the disjoint test
@example((math.pi / 2, math.pi / 2, [1.4091702570048054e-196], [math.pi / 2]))
def test_sorted_sweep_matches_pointwise_reference(inputs):
    fov, eps, grid, errors = inputs
    for sv, pt in zip(grid, average_leakage_sweep(errors, fov, eps, grid)):
        ratios, components, mean_qoe = _pointwise_sweep(errors, fov, eps, sv)
        assert pt.r_sv == sv
        assert pt.case_ratios == ratios
        assert pt.leakage_components.keys() == components.keys()
        for case, value in components.items():
            assert abs(pt.leakage_components[case] - value) <= 1e-12
        assert abs(pt.leakage_total - sum(components.values())) <= 1e-12
        assert abs(pt.mean_qoe - mean_qoe) <= 1e-12


def test_sweep_validation():
    with pytest.raises(ValueError):
        average_leakage_sweep([0.5], FOV, EPS, [3.5])
    with pytest.raises(ValueError):
        average_leakage_sweep([0.5], FOV, 0.0, [0.5])
    with pytest.raises(ValueError):
        average_leakage_sweep([-0.1], FOV, EPS, [0.5])


def test_build_report():
    rng = np.random.default_rng(41)
    errors = rng.uniform(0.0, math.pi, 300)
    grid = np.linspace(0.0, math.pi, 19)
    bare = build_report(errors, FOV, EPS, grid)
    assert bare.n_samples == 300
    assert len(bare.points) == 19
    assert bare.mean_error_subset is None
    assert bare.gamma_tradeoff is None and bare.gamma_consist is None

    req = PrivacyRequirement(EPS, 0.2)
    full = build_report(errors, FOV, EPS, grid, req=req)
    assert full.gamma_tradeoff is not None and full.gamma_consist is not None
    assert 0.0 <= full.gamma_tradeoff <= 1.0
    sub = error_subset_for_requirement(errors, req)
    assert full.mean_error_subset == pytest.approx(sub.mean, abs=1e-15)
