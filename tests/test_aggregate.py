import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrpl import (
    CASES,
    OverlapCase,
    PrivacyRequirement,
    RangeKind,
    SweepTable,
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
from vrpl import aggregate
from vrpl.leakage import cap_zone
from vrpl.qoe import CASE_CODE, PARTITION_CASES, classify_vec
from vrpl.sphere import lens_area, lens_terms

from support import boundary_neighbours, reference_lens

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


def _reported_cells(table: SweepTable, i: int) -> tuple[dict, dict]:
    """The ratios and components of the cases row ``i`` reports, by case.

    Every cell of a case the row does not report must be exactly +0.0.
    """
    keep = table.reported[i]
    for cells in (table.ratios[i], table.components[i]):
        assert not cells[~keep].view(np.uint64).any(), cells
    cases = [case for case, kept in zip(CASES, keep) if kept]
    return (
        {case: table.ratios[i, CASE_CODE[case]] for case in cases},
        {case: table.components[i, CASE_CODE[case]] for case in cases},
    )


def _rows(table: SweepTable, index) -> SweepTable:
    """The rows ``index`` of a sweep table, as a table."""
    return SweepTable(*(getattr(table, name)[index] for name in SweepTable._fields))


def _stack(tables: list[SweepTable]) -> SweepTable:
    """Sweep tables one after another, as one table."""
    return SweepTable(*(np.concatenate([getattr(t, name) for t in tables]) for name in SweepTable._fields))


def _assert_same(a: SweepTable, b: SweepTable) -> None:
    for name in SweepTable._fields:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_sweep_degenerate_endpoints():
    table = average_leakage_sweep([0.5, 1.0], FOV, EPS, [0.0, math.pi])
    assert len(table) == 2
    assert _reported_cells(table, 0)[0] == {OverlapCase.DEGENERATE_EMPTY: 1.0}
    assert table.total[0] == pytest.approx((1.0 - math.cos(EPS)) / 2.0, abs=1e-15)
    assert table.mean_qoe[0] == 0.0
    assert _reported_cells(table, 1)[0] == {OverlapCase.DEGENERATE_FULL: 1.0}
    assert table.total[1] == table.total[0]
    assert table.mean_qoe[1] == 1.0


def test_sweep_single_error_containment():
    # One error, streamed cap big enough to contain the whole field of view.
    table = average_leakage_sweep([0.2], FOV, EPS, [FOV + 0.3])
    assert table.ratios[0, CASE_CODE[OverlapCase.FOV_IN_SFOV]] == 1.0
    # Zone radius 0.3 is inside the protection radius: certain leak.
    assert table.total[0] == 1.0
    assert table.mean_qoe[0] == 1.0

    table = average_leakage_sweep([0.2], FOV, EPS, [FOV + 0.6])
    assert table.ratios[0, CASE_CODE[OverlapCase.FOV_IN_SFOV]] == 1.0
    expected = (1.0 - math.cos(EPS)) / (1.0 - math.cos(0.6))
    assert table.total[0] == pytest.approx(expected, abs=1e-12)


def test_sweep_partition_and_component_sums():
    rng = np.random.default_rng(17)
    errors = rng.uniform(0.0, math.pi, 400)
    table = average_leakage_sweep(errors, FOV, EPS, np.linspace(0.0, math.pi, 41))
    for i in range(len(table)):
        ratios, components = _reported_cells(table, i)
        assert sum(ratios.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(components.values()) == table.total[i]
        assert 0.0 <= table.total[i] <= 1.0
        assert 0.0 <= table.mean_qoe[i] <= 1.0


def test_sweep_remaining_component_matches_direct():
    errors = np.array([0.5, 0.8, 1.2, 2.0, 3.0])
    sv = 0.9
    table = average_leakage_sweep(errors, FOV, EPS, [sv])
    remaining = [e for e in errors if abs(sv - FOV) < e < min(FOV + sv, 2 * math.pi - FOV - sv)]
    direct = sum(min(EPS / (math.pi * math.sin(e)), 1.0) for e in remaining) / len(errors)
    got = table.components[0, CASE_CODE[OverlapCase.REMAINING]]
    assert got == pytest.approx(direct, abs=1e-14)


def test_sweep_mean_qoe_matches_pointwise():
    rng = np.random.default_rng(23)
    errors = rng.uniform(0.0, math.pi, 50)
    for sv in (0.4, 0.9, 2.0, 2.9):
        table = average_leakage_sweep(errors, FOV, EPS, [sv])
        direct = float(np.mean([qoe(FOV, sv, float(e)) for e in errors]))
        assert table.mean_qoe[0] == pytest.approx(direct, abs=1e-12)


def test_sweep_reruns_to_the_same_table():
    rng = np.random.default_rng(31)
    errors = rng.uniform(0.0, math.pi, 200)
    grid = np.linspace(0.0, math.pi, 21)
    first = average_leakage_sweep(errors, FOV, EPS, grid)
    again = average_leakage_sweep(errors, FOV, EPS, grid)
    _assert_same(first, again)


def test_sweep_points_do_not_depend_on_grid_order():
    # The lens work rows are reused from radius to radius: a short run after a
    # long one must not read what the long one left behind.
    rng = np.random.default_rng(37)
    errors = rng.uniform(0.0, math.pi, 2000)
    grid = np.linspace(0.0, math.pi, 37)
    forward = average_leakage_sweep(errors, FOV, EPS, grid)
    _assert_same(forward, _stack([average_leakage_sweep(errors, FOV, EPS, [sv]) for sv in grid]))
    backward = average_leakage_sweep(errors, FOV, EPS, grid[::-1])
    _assert_same(backward, _rows(forward, slice(None, None, -1)))
    partial = forward.ratios[:, CASE_CODE[OverlapCase.REMAINING]]
    order = np.argsort(partial, kind="stable")[::-1]  # the longest partial-overlap run first
    assert partial[order[0]] > partial[order[-1]]
    _assert_same(average_leakage_sweep(errors, FOV, EPS, grid[order]), _rows(forward, order))


def test_sweep_mean_qoe_matches_qoe_vec_in_every_case():
    rng = np.random.default_rng(43)
    errors = rng.uniform(0.0, math.pi, 3000)
    grid = np.linspace(0.0, math.pi, 73)
    table = average_leakage_sweep(errors, FOV, EPS, grid)
    reached = {CASES[k] for k in np.flatnonzero((table.ratios > 0.0).any(axis=0))}
    assert reached >= set(PARTITION_CASES)
    for sv, mean_qoe in zip(grid, table.mean_qoe):
        assert abs(mean_qoe - float(np.mean(qoe_vec(FOV, sv, errors)))) <= 1e-13


def test_sweep_lens_redoes_a_block_whose_arccos_rounds_past_one():
    """Errors within 2 floats of the partial-overlap ends, where arccos arguments round past ±1.

    The sweep takes the arccos of unclamped arguments and redoes with
    clamping a block whose sum is NaN; its mean QoE still matches `qoe_vec`.
    """
    rng = np.random.default_rng(59)
    past_one = 0
    for fov in (FOV, math.pi / 2, *rng.uniform(0.01, math.pi / 2, 4)):
        grid = rng.uniform(0.0, math.pi, 8)
        errors = np.array([e for sv in grid for e in boundary_neighbours(fov, sv)])
        table = average_leakage_sweep(errors, fov, EPS * fov / FOV, grid)
        for sv, mean_qoe in zip(grid, table.mean_qoe):
            assert abs(mean_qoe - float(np.mean(qoe_vec(fov, sv, errors)))) <= 1e-13
            partial = errors[classify_vec(fov, sv, errors) == CASE_CODE[OverlapCase.REMAINING]]
            args = reference_lens(fov, sv, partial)[1]
            past_one += np.count_nonzero(np.any(np.abs(args) > 1.0, axis=0))
    assert past_one > 0


@pytest.mark.parametrize("block", [5, 7])
def test_sweep_lens_blocks_meet_runs_at_every_edge(monkeypatch, block):
    """The block-major lens with blocks of 5 and 7 errors still matches `qoe_vec`.

    Its runs start and end mid-block, span three blocks or more, miss some
    blocks, and hold a single error (the error at ``r_fov``, at
    ``r_sv = 1e-3``); and a block holds errors within 2 floats of the run
    ends at ``r_sv = 0.1``, whose arccos arguments round past ±1, beside the
    run at ``r_sv = 0.3``, whose do not.  At ``r_sv = 2.9`` complement
    containment errors, whose clamped lens is not 0, follow the run, so a
    run end one error late is seen too.
    """
    monkeypatch.setattr(aggregate, "_LENS_BLOCK", block)
    rng = np.random.default_rng(5)
    grid = np.array([1e-3, 0.1, 0.3, 0.9, 1.7, 2.6, 2.9])
    errors = np.sort(np.concatenate([
        rng.uniform(0.0, math.pi, 40), [FOV], boundary_neighbours(FOV, 0.1)
    ]))
    table = average_leakage_sweep(errors, FOV, EPS, grid)
    for sv, mean_qoe in zip(grid, table.mean_qoe):
        assert abs(mean_qoe - float(np.mean(qoe_vec(FOV, sv, errors)))) <= 1e-13

    # the runs meet the blocks in every way the docstring names
    partial = CASE_CODE[OverlapCase.REMAINING]
    runs = [np.flatnonzero(classify_vec(FOV, sv, errors) == partial) for sv in grid]
    assert all(run.size == run[-1] - run[0] + 1 for run in runs)
    lo = min(run[0] for run in runs)
    n_blocks = (max(run[-1] for run in runs) - lo) // block + 1
    blocks = [set(((run - lo) // block).tolist()) for run in runs]
    assert any((run[0] - lo) % block and (run[-1] + 1 - lo) % block for run in runs)
    assert max(map(len, blocks)) >= 3
    assert any(len(met) < n_blocks for met in blocks)
    assert min(run.size for run in runs) == 1
    past_one = [set(((run[np.any(np.abs(reference_lens(FOV, sv, errors[run])[1]) > 1.0, axis=0)]
                      - lo) // block).tolist()) for sv, run in zip(grid, runs)]
    assert past_one[1] & blocks[2] and not past_one[2]


@pytest.mark.parametrize("block", [7, 500, 16384])
def test_sweep_lens_sums_match_fsum_across_blocks(monkeypatch, block):
    """Each radius's lens sum is `math.fsum` of its lenses, to a few ulps of the sum per error.

    Runs of up to about 3,000 errors, some within 3 floats of the
    partial-overlap ends, where arccos arguments round past ±1, summed in
    blocks of 7, 500 and 16,384 errors.
    """
    monkeypatch.setattr(aggregate, "_LENS_BLOCK", block)
    rng = np.random.default_rng(63)
    partial = CASE_CODE[OverlapCase.REMAINING]
    sizes, past_one = [], 0
    for fov in (math.pi / 2, *rng.uniform(1e-3, math.pi / 2, 7)):
        grid = rng.uniform(0.0, math.pi, 5)
        near = [e for sv in grid for e in boundary_neighbours(fov, sv, ulps=3)]
        errors = np.sort(np.concatenate([rng.uniform(0.0, math.pi, rng.integers(1, 4000)), near]))
        runs = [np.flatnonzero(classify_vec(fov, sv, errors) == partial) for sv in grid]
        b = np.array([run[0] if run.size else 0 for run in runs])
        d = np.array([run[-1] + 1 if run.size else 0 for run in runs])
        assert (d - b == [run.size for run in runs]).all()
        for sv, run, got in zip(grid, runs, aggregate._lens_sums(errors, fov, grid, b, d)):
            e = errors[run]
            want = math.fsum(lens_area(lens_terms(fov, sv), np.cos(e), np.sin(e), np.empty((3, e.size))))
            assert abs(got - want) <= 4 * e.size * math.ulp(want), (fov, sv, block)
            sizes.append(e.size)
            past_one += np.any(np.abs(reference_lens(fov, sv, e)[1]) > 1.0)
    assert max(sizes) > 1000 and min(sizes) < 100 and past_one


def _pointwise_sweep(errors: list[float], fov: float, eps: float, sv: float):
    """Scalar reference: classify, score and average every error on its own."""
    n = len(errors)
    cases = [classify(fov, sv, e) for e in errors]
    if sv in (0.0, math.pi):
        probs = [min_leak_prob_qoe(eps)] * n
    else:
        nested, far = (
            cap_zone(fov, sv, eps, CASE_CODE[case])[1]
            for case in (OverlapCase.FOV_IN_SFOV, OverlapCase.DISJOINT)
        )
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


def _nudged(values) -> list[float]:
    """Each value and its two floating-point neighbours, inside [0, pi]."""
    out = [float(np.nextafter(t, side)) for t in values for side in (-np.inf, t, np.inf)]
    return [x for x in out if 0.0 <= x <= math.pi]


@st.composite
def _sweep_inputs(draw):
    """A grid of up to eight radii, and errors on, beside and between its case boundaries.

    Radii are drawn at random, at 0, pi, ``r_fov`` and ``pi - r_fov``, and
    where a few anchor errors sit on a case boundary, so that at one grid
    some run ends must move down and others up before they agree with the
    case tests.
    """
    fov = draw(_FOVS)
    eps = draw(st.one_of(st.just(fov), st.floats(0.01, 1.0).map(lambda f: f * fov)))
    anchors = draw(st.lists(st.floats(0.0, math.pi), max_size=3))
    special = [0.0, math.pi, fov, math.pi - fov]
    special += [t for a in anchors for t in (fov + a, fov - a, a - fov, 2.0 * math.pi - fov - a)]
    radii = st.one_of(st.sampled_from(_nudged(special)), st.floats(0.0, math.pi))
    grid = draw(st.lists(radii, min_size=1, max_size=8))
    edges = [0.0, math.pi / 2, math.pi, *anchors]
    for sv in grid:
        edges += _nudged((sv - fov, fov - sv, fov + sv, 2.0 * math.pi - fov - sv))
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
# an error one float past the containment tangency at r_sv = 2 r_fov, where the lens is
# ill-conditioned: only a per-element clamp holds its run's sum to 1e-12
@example((FOV, FOV, [math.pi / 2, 2 * FOV], [float(np.nextafter(FOV, 4.0)), math.pi / 2]))
@example((0.01171875, 0.01171875, [3.1298739035897936, 3.1415926535897927], [3.1298739035897922])).xfail(
    raises=AssertionError,
    reason="ROADMAP direction 1 (a well-conditioned lens): near the complement tangency the lens's "
    "arccos is ill-conditioned, and mean_qoe is 2.06e-12 from the pointwise reference",
)
def test_sorted_sweep_matches_pointwise_reference(inputs):
    fov, eps, grid, errors = inputs
    table = average_leakage_sweep(errors, fov, eps, grid)
    assert len(table) == len(grid)
    for i, sv in enumerate(grid):
        ratios, components, mean_qoe = _pointwise_sweep(errors, fov, eps, sv)
        got_ratios, got_components = _reported_cells(table, i)
        assert table.r_sv[i] == sv
        assert got_ratios == ratios
        assert got_components.keys() == components.keys()
        for case, value in components.items():
            assert abs(got_components[case] - value) <= 1e-12
        assert abs(table.total[i] - sum(components.values())) <= 1e-12
        assert abs(table.mean_qoe[i] - mean_qoe) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_sweep_inputs(), st.floats(0.01, 1.0))
def test_run_ends_and_lens_do_not_read_eps(inputs, frac):
    # Only the odds stage reads eps: the case ratios and the mean QoE keep their
    # bits, and the run ends' fix-up asks the cases of the same errors at either eps.
    fov, eps, grid, errors = inputs
    classify_codes, runs = aggregate._classify_codes, []
    for x in (eps, frac * fov):
        asked = []

        def asking(*args):
            asked.append(np.ravel(args[2]).tolist())
            return classify_codes(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aggregate, "_classify_codes", asking)
            runs.append((average_leakage_sweep(errors, fov, x, grid), asked))
    (one, asked_one), (other, asked_other) = runs
    assert np.array_equal(one.ratios, other.ratios)
    assert np.array_equal(one.mean_qoe, other.mean_qoe)
    assert asked_one == asked_other


def test_degenerate_radii_do_not_walk_the_population(monkeypatch):
    # A degenerate cap's one run holds every error.  Were its run ends to
    # start at the threshold |sv - fov|, the tie fix-up would step over every
    # distinct error above it, one `_classify_codes` call per step.
    calls = []
    classify_codes = aggregate._classify_codes

    def counting(*args):
        calls.append(args)
        return classify_codes(*args)

    monkeypatch.setattr(aggregate, "_classify_codes", counting)
    rng = np.random.default_rng(53)
    grid = [0.0, math.pi, 1.0]
    counts = []
    for n in (500, 50_000):
        errors = rng.uniform(0.0, math.pi, n)
        assert np.unique(errors).size == n
        calls.clear()
        table = average_leakage_sweep(errors, FOV, EPS, grid)
        counts.append(len(calls))
        assert table.ratios[0, CASE_CODE[OverlapCase.DEGENERATE_EMPTY]] == 1.0
        assert table.ratios[1, CASE_CODE[OverlapCase.DEGENERATE_FULL]] == 1.0
    assert counts[0] == counts[1] <= 5, counts


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
    assert len(bare.sweep) == 19
    assert bare.mean_error_subset is None
    assert bare.gamma_tradeoff is None and bare.gamma_consist is None

    req = PrivacyRequirement(EPS, 0.2)
    full = build_report(errors, FOV, EPS, grid, req=req)
    assert full.gamma_tradeoff is not None and full.gamma_consist is not None
    assert 0.0 <= full.gamma_tradeoff <= 1.0
    sub = error_subset_for_requirement(errors, req)
    assert full.mean_error_subset == pytest.approx(sub.mean, abs=1e-15)


def _sweep_bits(sweep) -> dict:
    """The columns of a `SweepTable` as bytes."""
    return {name: column.tobytes() for name, column in sweep._asdict().items()}


def _report_bits(report) -> dict:
    """Every field of an `AggregateReport`, its sweep's columns as bytes."""
    return report._asdict() | {"sweep": _sweep_bits(report.sweep)}


@pytest.mark.parametrize("max_leak", [0.3, 1.0], ids=["interval", "full"])
def test_sweep_and_report_leave_the_callers_errors_alone(max_leak):
    # unsorted, read-only, sorted read-only and list inputs keep their values
    # and order, and give the bits of the one population sorted beforehand
    errors = np.random.default_rng(12).uniform(0.0, math.pi, 400)
    errors[:3] = [0.0, math.pi / 2, math.pi]
    ordered = np.sort(errors)
    frozen, frozen_ordered = errors.copy(), ordered.copy()
    frozen.flags.writeable = frozen_ordered.flags.writeable = False
    grid, req = np.linspace(0.0, math.pi, 25), PrivacyRequirement(EPS, max_leak)
    want_sweep = average_leakage_sweep(ordered.copy(), FOV, EPS, grid)
    want_report = _report_bits(build_report(ordered.copy(), FOV, EPS, grid, req=req))
    for given in (errors, frozen, frozen_ordered, errors.tolist(), ordered):
        before = np.array(given)
        sweep = average_leakage_sweep(given, FOV, EPS, grid)
        assert _sweep_bits(sweep) == _sweep_bits(want_sweep)
        assert _report_bits(build_report(given, FOV, EPS, grid, req=req)) == want_report
        assert np.array(given).tobytes() == before.tobytes()
    # the subset keeps the order given, in a new array, and so does its mean
    sub = error_subset_for_requirement(errors, req)
    rng = sub.error_range
    kept = errors[(errors >= rng.lo) & (errors <= rng.hi)]
    assert sub.errors.tobytes() == kept.tobytes() and not np.shares_memory(sub.errors, errors)
    assert sub.mean == float(kept.mean())
    # the report checks the errors once, in the sweep; its subset's mean reads
    # the subset in increasing order, and its ratios are tradeoff_consistency_ratios'
    with patch.object(aggregate, "_checked", wraps=aggregate._checked) as checked:
        report = build_report(errors, FOV, EPS, grid, req=req)
    assert checked.call_count == 1
    assert report.mean_error_subset == float(ordered[(ordered >= rng.lo) & (ordered <= rng.hi)].mean())
    assert (report.gamma_tradeoff, report.gamma_consist) == tradeoff_consistency_ratios(errors, req)
    half = math.pi / 2
    assert report.gamma_tradeoff == float(np.mean((errors >= rng.lo) & (errors <= half)))
    assert report.gamma_consist == float(np.mean((errors >= half) & (errors <= rng.hi)))
