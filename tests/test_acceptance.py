"""Acceptance gate: one test per documented behaviour guarantee.

Each test prints a single ``[PASS] criterion N`` line (visible with
``pytest -s``) and enforces the stated tolerance and runtime budget; the
``pytest -v`` status line doubles as the per-criterion pass/fail record.
"""

import math
import time

import numpy as np
import pytest

from support import random_partial_overlap_triples, random_view_triples
from vrpl import (
    InferenceKind,
    Monotonicity,
    OverlapCase,
    Predictor,
    PrivacyRequirement,
    RandomWalk,
    RangeKind,
    ResourceConfig,
    TileSpec,
    WindowingConfig,
    average_leakage_sweep,
    cap_overlap_area,
    capability,
    case_leakage_profile,
    error_range_for_requirement,
    generate_synthetic_traces,
    infer_error_from_qoe,
    leak_prob_from_error,
    leak_prob_from_qoe,
    leakage_regions,
    min_leak_prob_error,
    min_leak_prob_qoe,
    mc_cap_overlap,
    predict_all,
    qoe,
    sfov_radius,
)

R_FOV = math.radians(50.0)
EPS = 0.4 * R_FOV


def _passed(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s)")


def test_criterion_01_error_upload_extrema():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for eps in rng.uniform(1e-6, R_FOV, 100):
        eps = float(eps)
        res = leak_prob_from_error(math.pi / 2, eps)
        assert abs(res.probability - eps / math.pi) <= 1e-12
        assert abs(min_leak_prob_error(eps) - eps / math.pi) <= 1e-12
        assert abs(min_leak_prob_qoe(eps) - (1.0 - math.cos(eps)) / 2.0) <= 1e-12
        # The error-upload probability never undercuts its minimum.
        for e in rng.uniform(1e-6, math.pi - 1e-6, 20):
            assert leak_prob_from_error(float(e), eps).probability >= eps / math.pi - 1e-12
    _passed(1, "error-upload leakage extrema match closed forms to 1e-12", t0, 1.0)


def test_criterion_02_overlap_area_vs_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    triples = random_partial_overlap_triples(rng, 500)
    worst = 0.0
    n = 100_000
    # sample SE degenerates when a thin lens gets zero hits; floor it at
    # the two-hit-equivalent SE so the 4-SE band stays honest there
    floor = 2.0 * 4.0 * math.pi / n
    for i, (r1, r2, d) in enumerate(triples):
        exact = cap_overlap_area(r1, r2, d)
        est, se = mc_cap_overlap(r1, r2, d, n=n, seed=3000 + i)
        dev = abs(exact - est) / max(se, floor)
        worst = max(worst, dev)
        assert dev <= 4.0, f"triple {(r1, r2, d)} deviates {dev:.2f} standard errors"
    _passed(2, f"overlap area within 4 SE of Monte Carlo on 500 triples (worst {worst:.2f})", t0, 60.0)


def test_criterion_03_qoe_inversion_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    triples = random_view_triples(rng, 10_000)
    for fov, sv, e in triples:
        inf = infer_error_from_qoe(qoe(fov, sv, e), fov, sv)
        assert inf.kind == InferenceKind.EXACT, f"({fov}, {sv}, {e}) gave a range"
        assert abs(inf.value - e) <= 1e-6, f"({fov}, {sv}, {e}) -> {inf.value}"
    _passed(3, "QoE inversion recovers the error within 1e-6 on 10000 triples", t0, 10.0)


def test_criterion_04_per_case_leakage_behaviour():
    t0 = time.perf_counter()
    # (a) certain leak, exactly 1.0, whenever the zone radius is inside the
    # protection radius; configurations approach the boundary from inside.
    ts = np.linspace(1e-6, 0.999 * EPS, 25)
    for t in ts:
        # error grids stop just short of the case boundary so rounding in
        # the boundary comparison cannot push a pair into the wrong case
        sv = R_FOV + float(t)
        for e in np.linspace(0.0, 0.98 * float(t), 4):
            res = leak_prob_from_qoe(qoe(R_FOV, sv, float(e)), R_FOV, sv, EPS)
            assert res.case == OverlapCase.FOV_IN_SFOV
            assert res.probability == 1.0
        sv = R_FOV - float(t)
        for e in np.linspace(0.0, 0.98 * float(t), 4):
            res = leak_prob_from_qoe(qoe(R_FOV, sv, float(e)), R_FOV, sv, EPS)
            assert res.case == OverlapCase.SFOV_IN_FOV
            assert res.probability == 1.0
        sv = math.pi - R_FOV - float(t)
        for e in np.linspace(R_FOV + sv + 1e-9, math.pi, 4):
            res = leak_prob_from_qoe(qoe(R_FOV, sv, float(e)), R_FOV, sv, EPS)
            assert res.case == OverlapCase.DISJOINT
            assert res.probability == 1.0
        sv = math.pi - R_FOV + float(t)
        for e in np.linspace(2.0 * math.pi - R_FOV - sv + 1e-9, math.pi, 4):
            res = leak_prob_from_qoe(qoe(R_FOV, sv, float(e)), R_FOV, sv, EPS)
            assert res.case == OverlapCase.SFOV_COMPLEMENT_IN_FOV
            assert res.probability == 1.0

    # (b) below saturation the probability moves with the streamed radius
    # in the direction the per-case profile declares.
    sweeps = {
        OverlapCase.FOV_IN_SFOV: (
            np.linspace(R_FOV + EPS + 1e-4, math.pi - 1e-4, 200),
            lambda sv: 0.0,
        ),
        OverlapCase.SFOV_IN_FOV: (
            np.linspace(1e-4, R_FOV - EPS - 1e-4, 200),
            lambda sv: 0.0,
        ),
        OverlapCase.DISJOINT: (
            np.linspace(1e-4, math.pi - R_FOV - EPS - 1e-4, 200),
            lambda sv: math.pi,
        ),
        OverlapCase.SFOV_COMPLEMENT_IN_FOV: (
            np.linspace(math.pi - R_FOV + EPS + 1e-4, math.pi - 1e-4, 200),
            lambda sv: math.pi,
        ),
    }
    for case, (svs, pick_e) in sweeps.items():
        probs = []
        for sv in svs:
            sv = float(sv)
            prof = case_leakage_profile(R_FOV, EPS, sv, case)
            assert not prof.is_max
            res = leak_prob_from_qoe(qoe(R_FOV, sv, pick_e(sv)), R_FOV, sv, EPS)
            assert res.case == case
            assert res.probability < 1.0
            probs.append(res.probability)
        direction = case_leakage_profile(R_FOV, EPS, float(svs[0]), case).monotonicity
        if direction == Monotonicity.INCREASING:
            assert all(x < y for x, y in zip(probs, probs[1:])), case
        else:
            assert all(x > y for x, y in zip(probs, probs[1:])), case

    # (c) approaching each case's radius limit, the probability lands on
    # the declared infimum.
    delta = 1e-4
    checks = [
        (OverlapCase.FOV_IN_SFOV, math.pi - delta, 0.0),
        (OverlapCase.SFOV_IN_FOV, delta, 0.0),
        (OverlapCase.DISJOINT, delta, math.pi),
        (OverlapCase.SFOV_COMPLEMENT_IN_FOV, math.pi - delta, math.pi),
    ]
    for case, sv, e in checks:
        res = leak_prob_from_qoe(qoe(R_FOV, sv, e), R_FOV, sv, EPS)
        assert res.case == case
        inf = case_leakage_profile(R_FOV, EPS, sv, case).infimum
        assert abs(res.probability - inf) <= 1e-3, case
    _passed(4, "per-case leakage: saturation set, direction, and infima", t0, 5.0)


def test_criterion_05_requirement_feasibility_boundary():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for eps in rng.uniform(0.01, math.pi / 2, 100):
        eps = float(eps)
        just_above = error_range_for_requirement(PrivacyRequirement(eps, eps / math.pi + 1e-9))
        assert just_above.kind == RangeKind.INTERVAL
        just_below = error_range_for_requirement(PrivacyRequirement(eps, eps / math.pi - 1e-9))
        assert just_below.kind == RangeKind.INFEASIBLE
        p = float(rng.uniform(eps / math.pi * 1.01, 0.999))
        rng_out = error_range_for_requirement(PrivacyRequirement(eps, p))
        assert rng_out.kind == RangeKind.INTERVAL
        expected_lo = math.asin(eps / (p * math.pi))
        assert abs(rng_out.lo - expected_lo) <= 1e-12
        assert abs(rng_out.hi - (math.pi - expected_lo)) <= 1e-12
    _passed(5, "feasibility flips at max_leak_prob = eps/pi; interval endpoints exact", t0, 5.0)


def test_criterion_06_qoe_upload_minimum_smaller():
    t0 = time.perf_counter()
    eps = np.linspace(1e-6, math.pi / 2 - 1e-6, 100_000)
    qoe_min = (1.0 - np.cos(eps)) / 2.0
    err_min = eps / math.pi
    violations = int(np.count_nonzero(qoe_min >= err_min))
    assert violations == 0
    _passed(6, "QoE-upload minimum strictly beats error-upload minimum (1e5 radii)", t0, 5.0)


@pytest.fixture(scope="module")
def population_sweep():
    """Random-walk error population swept over the five leakage regions."""
    t0 = time.perf_counter()
    traces = generate_synthetic_traces(RandomWalk(kappa=5e4), 8, 60.0, 5.0, seed=707)
    win = WindowingConfig(t_obw=1.0, t_cc=1.0, t_pdw=1.0)
    errors = predict_all(traces, win, Predictor.LAST_POSITION)
    regions = leakage_regions(R_FOV, EPS)
    grids = {
        name: np.linspace(lo + 1e-6, hi - 1e-6, 50)
        for name, (lo, hi) in (
            ("i1", regions.i1),
            ("d2", regions.d2),
            ("c", regions.c),
            ("i2", regions.i2),
            ("d1", regions.d1),
        )
    }
    points = {
        name: average_leakage_sweep(errors, R_FOV, EPS, grid) for name, grid in grids.items()
    }
    return {"errors": errors, "points": points, "elapsed": time.perf_counter() - t0}


def test_criterion_07_average_leakage_region_shape(population_sweep):
    t0 = time.perf_counter()
    errors = population_sweep["errors"]
    assert errors.max() < 0.3, "population precondition: every error below 0.3 rad"
    points = population_sweep["points"]
    totals = {name: [p.leakage_total for p in pts] for name, pts in points.items()}
    for name in ("i1", "i2"):
        seq = totals[name]
        assert all(x <= y for x, y in zip(seq, seq[1:])), f"{name} not non-decreasing"
    for name in ("d2", "d1"):
        seq = totals[name]
        assert all(x >= y for x, y in zip(seq, seq[1:])), f"{name} not non-increasing"
    plateau = totals["c"]
    assert max(plateau) - min(plateau) <= 0.02
    budget = 120.0 - population_sweep["elapsed"]
    _passed(7, "average leakage rises/falls/plateaus across the five regions", t0, budget)


def test_criterion_08_predicted_sample_count():
    t0 = time.perf_counter()
    (trace,) = generate_synthetic_traces(RandomWalk(kappa=1e3), 1, 60.0, 5.0, seed=808)
    win = WindowingConfig(t_obw=1.0, t_cc=1.0, t_pdw=1.0)
    samples = predict_all([trace], win, Predictor.LAST_POSITION)
    assert len(samples) == 290
    _passed(8, "60 s at 5 Hz with a 2-segment passive prefix yields 290 samples", t0, 5.0)


def test_criterion_09_case_ratios_partition(population_sweep):
    t0 = time.perf_counter()
    for pts in population_sweep["points"].values():
        for p in pts:
            assert abs(sum(p.case_ratios.values()) - 1.0) <= 1e-12
    _passed(9, "case ratios sum to 1 within 1e-12 at every sweep radius", t0, 5.0)


def test_criterion_10_resource_radius_endpoints():
    t0 = time.perf_counter()
    tile = TileSpec(px_w=64, px_h=64, bits_per_pixel=12, compression_ratio=16.0)

    def cfg(cc: float) -> ResourceConfig:
        return ResourceConfig(
            compute_flops=1e12,
            users=4,
            flops_per_bit=100.0,
            avg_data_rate=4e8,
            cc_duration=cc,
            frames_per_segment=30,
            tiles_per_frame=200,
        )

    per_tile = 3072 / 4e8 + 49152 / 2.5e9
    full = 30 * 200 * per_tile

    c = capability(cfg(2.0 * full), tile)
    assert c == 1.0
    assert abs(float(sfov_radius(c)) - math.pi) <= 1e-12

    c = capability(cfg(full / 2.0), tile)
    assert abs(c - 0.5) <= 1e-12
    assert abs(float(sfov_radius(c)) - math.pi / 2) <= 1e-12

    c = capability(cfg(0.0), tile)
    assert c == 0.0
    assert abs(float(sfov_radius(c))) <= 1e-12
    _passed(10, "budget endpoints map to streamed radii 0, pi/2, pi to 1e-12", t0, 5.0)
