"""The input domain of every public analysis function, probed at its ends.

Each row names a function, a call that succeeds, and the domain of one of
its arguments.  The argument is replaced by each end of its domain, the
float just outside each end, NaN and ±inf; the call must then succeed
exactly when the value lies in the domain, and otherwise raise
`ValueError`.  The ``*_vec`` functions get the probe as the second element
of an array whose first element is the base value.

The array lens, `vrpl.sphere.lens_terms` and `lens_area`, has no row: it
is the unchecked partial-overlap lens kernel the checked functions feed.
"""

import inspect
import math

import numpy as np
import pytest

from vrpl import (
    ChannelConfig,
    OverlapCase,
    PrivacyRequirement,
    RandomWalk,
    average_leakage_sweep,
    build_report,
    cap_area,
    cap_overlap_area,
    capability_from_radius,
    case_leakage_profile,
    classify,
    classify_vec,
    error_subset_for_requirement,
    full_leak_error_range,
    generate_synthetic_traces,
    infer_error_from_qoe,
    infer_error_from_qoe_vec,
    leak_prob_from_error,
    leak_prob_from_error_vec,
    leak_prob_from_qoe,
    leak_prob_from_qoe_vec,
    leakage_regions,
    mc_avg_rate,
    mc_cap_overlap,
    min_leak_prob_error,
    min_leak_prob_qoe,
    min_prob_comparison,
    qoe,
    qoe_vec,
    sfov_radius,
    tradeoff_consistency_ratios,
)

PI, HALF_PI = math.pi, math.pi / 2
FOV, SV, E, EPS = 0.8, 1.0, 0.5, 0.3
# rows probing r_fov down to its 1e-6 minimum need a protection radius below it
SMALL_EPS = 1e-7
REQ = PrivacyRequirement(EPS, 1.0)
CHANNEL = ChannelConfig(1e7, 1.0, 10.0, 2.0, 1e-9, 4, 2)
# one user, so that a single antenna serves them
CHANNEL_ARGS = (1e7, 1.0, 10.0, 2.0, 1e-9, 4, 1)
WALK = (RandomWalk(100.0), 2, 2.0, 5.0, 0)

# (lo, hi, open_lo, open_hi); ANY accepts every float, COUNT every int >= 1
# and SEED every int >= 0, neither a bool.
RADIUS = (0.0, PI, False, False)
OPEN_RADIUS = (0.0, PI, True, True)
FOV_DOMAIN = (1e-6, HALF_PI, False, False)
EPS_DOMAIN = (0.0, HALF_PI, False, False)
EPS_UP_TO_FOV = (0.0, FOV, False, False)
POSITIVE_EPS_UP_TO_FOV = (0.0, FOV, True, False)
UNIT = (0.0, 1.0, False, False)
ANY = "any"
COUNT = "count"
SEED = "seed"

# (function, base arguments, index of the probed argument, its domain)
ROWS = [
    (cap_area, (SV,), 0, RADIUS),
    (cap_overlap_area, (0.5, 0.6, E), 0, RADIUS),
    (cap_overlap_area, (0.5, 0.6, E), 1, RADIUS),
    (cap_overlap_area, (0.5, 0.6, E), 2, RADIUS),
    (mc_cap_overlap, (0.5, 0.6, E, 100, 0), 0, RADIUS),
    (mc_cap_overlap, (0.5, 0.6, E, 100, 0), 1, RADIUS),
    (mc_cap_overlap, (0.5, 0.6, E, 100, 0), 2, RADIUS),
    (mc_cap_overlap, (0.5, 0.6, E, 100, 0), 3, COUNT),
    (mc_cap_overlap, (0.5, 0.6, E, 100, 0), 4, SEED),
    (classify, (FOV, SV, E), 0, FOV_DOMAIN),
    (classify, (FOV, SV, E), 1, RADIUS),
    (classify, (FOV, SV, E), 2, RADIUS),
    (qoe, (FOV, SV, E), 0, FOV_DOMAIN),
    (qoe, (FOV, SV, E), 1, RADIUS),
    (qoe, (FOV, SV, E), 2, RADIUS),
    (classify_vec, (FOV, SV, E), 0, FOV_DOMAIN),
    (classify_vec, (FOV, SV, E), 1, RADIUS),
    (classify_vec, (FOV, SV, E), 2, RADIUS),
    (qoe_vec, (FOV, SV, E), 0, FOV_DOMAIN),
    (qoe_vec, (FOV, SV, E), 1, RADIUS),
    (qoe_vec, (FOV, SV, E), 2, RADIUS),
    (PrivacyRequirement, (EPS, 0.5), 0, EPS_DOMAIN),
    (PrivacyRequirement, (EPS, 0.5), 1, UNIT),
    (leak_prob_from_error, (E, EPS), 0, RADIUS),
    (leak_prob_from_error, (E, EPS), 1, EPS_DOMAIN),
    (leak_prob_from_error_vec, (E, EPS), 0, RADIUS),
    (leak_prob_from_error_vec, (E, EPS), 1, EPS_DOMAIN),
    (min_leak_prob_error, (EPS,), 0, EPS_DOMAIN),
    (min_leak_prob_qoe, (EPS,), 0, EPS_DOMAIN),
    (full_leak_error_range, (EPS,), 0, EPS_DOMAIN),
    (infer_error_from_qoe, (0.0, FOV, SV), 0, UNIT),
    (infer_error_from_qoe, (0.0, FOV, SV), 1, FOV_DOMAIN),
    (infer_error_from_qoe, (0.0, FOV, SV), 2, OPEN_RADIUS),
    (infer_error_from_qoe_vec, (0.0, FOV, SV), 0, UNIT),
    (infer_error_from_qoe_vec, (0.0, FOV, SV), 1, FOV_DOMAIN),
    (infer_error_from_qoe_vec, (0.0, FOV, SV), 2, OPEN_RADIUS),
    (leak_prob_from_qoe, (0.0, FOV, SV, EPS), 0, UNIT),
    (leak_prob_from_qoe, (0.0, FOV, SV, SMALL_EPS), 1, FOV_DOMAIN),
    (leak_prob_from_qoe, (0.0, FOV, SV, EPS), 2, RADIUS),
    (leak_prob_from_qoe, (0.0, FOV, SV, EPS), 3, EPS_UP_TO_FOV),
    # a degenerate streamed cap reveals nothing, so the report is not read
    (leak_prob_from_qoe, (0.0, FOV, 0.0, EPS), 0, ANY),
    (leak_prob_from_qoe, (0.0, FOV, PI, EPS), 0, ANY),
    (leak_prob_from_qoe_vec, (0.0, FOV, SV, EPS), 0, UNIT),
    (leak_prob_from_qoe_vec, (0.0, FOV, SV, SMALL_EPS), 1, FOV_DOMAIN),
    (leak_prob_from_qoe_vec, (0.0, FOV, SV, EPS), 2, RADIUS),
    (leak_prob_from_qoe_vec, (0.0, FOV, SV, EPS), 3, EPS_UP_TO_FOV),
    (leak_prob_from_qoe_vec, (0.0, FOV, 0.0, EPS), 0, ANY),
    (leak_prob_from_qoe_vec, (0.0, FOV, PI, EPS), 0, ANY),
    (case_leakage_profile, (FOV, SMALL_EPS, SV, OverlapCase.FOV_IN_SFOV), 0, FOV_DOMAIN),
    (case_leakage_profile, (FOV, EPS, SV, OverlapCase.FOV_IN_SFOV), 1, EPS_UP_TO_FOV),
    (case_leakage_profile, (FOV, EPS, SV, OverlapCase.FOV_IN_SFOV), 2, RADIUS),
    (min_prob_comparison, (EPS, FOV), 0, EPS_UP_TO_FOV),
    (min_prob_comparison, (SMALL_EPS, FOV), 1, FOV_DOMAIN),
    (leakage_regions, (FOV, SMALL_EPS), 0, FOV_DOMAIN),
    (leakage_regions, (FOV, EPS), 1, POSITIVE_EPS_UP_TO_FOV),
    (average_leakage_sweep, ([E], FOV, EPS, [SV]), 0, RADIUS),
    (average_leakage_sweep, ([E], FOV, SMALL_EPS, [SV]), 1, FOV_DOMAIN),
    (average_leakage_sweep, ([E], FOV, EPS, [SV]), 2, POSITIVE_EPS_UP_TO_FOV),
    (average_leakage_sweep, ([E], FOV, EPS, [SV]), 3, RADIUS),
    (build_report, ([E], FOV, EPS, [SV], REQ), 0, RADIUS),
    (build_report, ([E], FOV, SMALL_EPS, [SV], REQ), 1, FOV_DOMAIN),
    (build_report, ([E], FOV, EPS, [SV], REQ), 2, POSITIVE_EPS_UP_TO_FOV),
    (build_report, ([E], FOV, EPS, [SV], REQ), 3, RADIUS),
    (error_subset_for_requirement, ([E], REQ), 0, RADIUS),
    (tradeoff_consistency_ratios, ([E], REQ), 0, RADIUS),
    (sfov_radius, (0.5,), 0, UNIT),
    (capability_from_radius, (SV,), 0, RADIUS),
    (mc_avg_rate, (CHANNEL, 100, 0), 1, COUNT),
    (mc_avg_rate, (CHANNEL, 100, 0), 2, SEED),
    (ChannelConfig, CHANNEL_ARGS, 5, COUNT),
    (ChannelConfig, CHANNEL_ARGS, 6, COUNT),
    (generate_synthetic_traces, WALK, 1, COUNT),
    (generate_synthetic_traces, WALK, 4, SEED),
]


def _probes(domain) -> list[tuple[float, bool]]:
    """(value, inside the domain) at both ends, just outside them, and non-finite."""
    if domain == COUNT:
        return [(1, True), (0, False), (True, False)]
    if domain == SEED:
        return [(0, True), (2**128, True), (-1, False), (1.5, False), (True, False)]
    special = [math.nan, math.inf, -math.inf]
    if domain == ANY:
        return [(v, True) for v in [-1.0, 0.0, 1.0, 2.0, *special]]
    lo, hi, open_lo, open_hi = domain
    return [
        (lo, not open_lo),
        (math.nextafter(lo, -math.inf), False),
        (hi, not open_hi),
        (math.nextafter(hi, math.inf), False),
        *((v, False) for v in special),
    ]


def _with(args: tuple, index: int, value, func) -> tuple:
    base = args[index]
    if isinstance(base, list):
        value = base + [value]
    elif func.__name__.endswith("_vec"):
        value = np.array([base, value])
    return args[:index] + (value,) + args[index + 1 :]


def _row_id(row) -> str:
    func, args, index, domain = row
    name = f"{func.__name__}-{list(inspect.signature(func).parameters)[index]}"
    return f"{name}-at-r_sv-{args[2]:g}" if domain == ANY else name


@pytest.mark.parametrize("func, args, index, domain", ROWS, ids=[_row_id(r) for r in ROWS])
def test_argument_domain(func, args, index, domain):
    func(*args)
    for value, inside in _probes(domain):
        call = _with(args, index, value, func)
        if inside:
            func(*call)
        else:
            with pytest.raises(ValueError):
                func(*call)
