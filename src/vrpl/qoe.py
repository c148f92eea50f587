"""QoE model: the fraction of the user's field of view covered by the
streamed cap.

Given the field-of-view radius ``r_fov``, the streamed-cap radius ``r_sv``
and the prediction error ``e`` (the orthodromic distance between the true
and predicted viewpoints), the covered fraction decomposes into five
geometric cases plus two degenerate streamed-cap radii.  Case boundaries
are closed: a configuration lying on a boundary belongs to the first
matching case in the order below.

`classify_vec` and `qoe_vec` evaluate the same model elementwise over
numpy-broadcastable inputs; cases are reported as int8 codes indexing
`CASES`.  The scalar functions stay the reference the array kernels are
tested against.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .sphere import (
    ERROR,
    FOV,
    STREAMED_RADIUS,
    TWO_PI,
    cap_area,
    cap_overlap_area,
    cap_overlap_area_vec,
)


class OverlapCase(enum.Enum):
    """Geometric relation between the field of view and the streamed cap."""

    FOV_IN_SFOV = "fov_in_sfov"
    SFOV_IN_FOV = "sfov_in_fov"
    DISJOINT = "disjoint"
    SFOV_COMPLEMENT_IN_FOV = "sfov_complement_in_fov"
    REMAINING = "remaining"
    DEGENERATE_EMPTY = "degenerate_empty"
    DEGENERATE_FULL = "degenerate_full"


# The five non-degenerate cases, in boundary-tie precedence order.
PARTITION_CASES = (
    OverlapCase.FOV_IN_SFOV,
    OverlapCase.SFOV_IN_FOV,
    OverlapCase.DISJOINT,
    OverlapCase.SFOV_COMPLEMENT_IN_FOV,
    OverlapCase.REMAINING,
)

#: The case of each int8 code the array kernels return: the partition
#: cases in tie order, then the two degenerate streamed caps.
CASES = PARTITION_CASES + (OverlapCase.DEGENERATE_EMPTY, OverlapCase.DEGENERATE_FULL)
CASE_CODE = {case: i for i, case in enumerate(CASES)}


def classify(r_fov: float, r_sv: float, e: float) -> OverlapCase:
    """Classify the field-of-view / streamed-cap configuration.

    Args:
        r_fov: field-of-view radius, in (0, pi/2].
        r_sv: streamed-cap radius, in [0, pi].
        e: viewpoint prediction error, in [0, pi].

    Returns:
        The matching `OverlapCase`.  Degenerate streamed caps (radius 0 or
        pi) are reported as such before the five-way split; ties between
        the closed cases resolve in the listed order.
    """
    fov, sv, err = FOV.check(r_fov), STREAMED_RADIUS.check(r_sv), ERROR.check(e)
    if sv == 0.0:
        return OverlapCase.DEGENERATE_EMPTY
    if sv == math.pi:
        return OverlapCase.DEGENERATE_FULL
    if sv >= fov + err:
        return OverlapCase.FOV_IN_SFOV
    if fov >= sv + err:
        return OverlapCase.SFOV_IN_FOV
    if err >= fov + sv:
        return OverlapCase.DISJOINT
    if fov + sv + err >= TWO_PI:
        return OverlapCase.SFOV_COMPLEMENT_IN_FOV
    return OverlapCase.REMAINING


def qoe(r_fov: float, r_sv: float, e: float) -> float:
    """Fraction of the field of view covered by the streamed cap, in [0, 1].

    Constant in ``e`` inside the four closed cases; in the partial-overlap
    case it is the cap-overlap area divided by the field-of-view area,
    strictly decreasing in ``e`` and strictly increasing in ``r_sv``.
    """
    fov, sv, err = FOV.check(r_fov), STREAMED_RADIUS.check(r_sv), ERROR.check(e)
    case = classify(fov, sv, err)
    if case in (OverlapCase.FOV_IN_SFOV, OverlapCase.DEGENERATE_FULL):
        return 1.0
    if case == OverlapCase.SFOV_IN_FOV:
        return (1.0 - math.cos(sv)) / (1.0 - math.cos(fov))
    if case in (OverlapCase.DISJOINT, OverlapCase.DEGENERATE_EMPTY):
        return 0.0
    if case == OverlapCase.SFOV_COMPLEMENT_IN_FOV:
        return (-math.cos(sv) - math.cos(fov)) / (1.0 - math.cos(fov))
    value = cap_overlap_area(fov, sv, err) / cap_area(fov)
    return min(max(value, 0.0), 1.0)


def _classify_codes(fov: np.ndarray, sv: np.ndarray, err: np.ndarray) -> np.ndarray:
    """`classify` on validated, broadcast arrays: the first true test wins."""
    tests = [
        (sv == 0.0, OverlapCase.DEGENERATE_EMPTY),
        (sv == math.pi, OverlapCase.DEGENERATE_FULL),
        (sv >= fov + err, OverlapCase.FOV_IN_SFOV),
        (fov >= sv + err, OverlapCase.SFOV_IN_FOV),
        (err >= fov + sv, OverlapCase.DISJOINT),
        (fov + sv + err >= TWO_PI, OverlapCase.SFOV_COMPLEMENT_IN_FOV),
    ]
    codes = np.select(
        [test for test, _ in tests],
        [CASE_CODE[case] for _, case in tests],
        default=CASE_CODE[OverlapCase.REMAINING],
    )
    return codes.astype(np.int8)


def _qoe_from_codes(
    fov: np.ndarray, sv: np.ndarray, err: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """`qoe` on validated, broadcast arrays whose cases are already known."""
    denom = 1.0 - np.cos(fov)
    constants = [
        (OverlapCase.FOV_IN_SFOV, 1.0),
        (OverlapCase.DEGENERATE_FULL, 1.0),
        (OverlapCase.SFOV_IN_FOV, (1.0 - np.cos(sv)) / denom),
        (OverlapCase.SFOV_COMPLEMENT_IN_FOV, (-np.cos(sv) - np.cos(fov)) / denom),
    ]
    out = np.select(
        [codes == CASE_CODE[case] for case, _ in constants], [v for _, v in constants], default=0.0
    )
    m = codes == CASE_CODE[OverlapCase.REMAINING]
    if m.any():
        fov_m, err_m = fov[m], err[m]
        overlap = cap_overlap_area_vec(fov_m, sv[m], np.cos(err_m), np.sin(err_m))
        out[m] = np.clip(overlap / (TWO_PI * (1.0 - np.cos(fov_m))), 0.0, 1.0)
    return out


def classify_vec(r_fov, r_sv, e) -> np.ndarray:
    """`classify` elementwise over broadcastable arrays, as int8 codes into `CASES`.

    Same domains, degenerate radii and closed-tie order as the scalar
    function; any element outside its domain raises `ValueError`.
    """
    fov, sv, err = np.broadcast_arrays(
        FOV.check_array(r_fov), STREAMED_RADIUS.check_array(r_sv), ERROR.check_array(e)
    )
    return _classify_codes(fov, sv, err)


def qoe_vec(r_fov, r_sv, e) -> np.ndarray:
    """`qoe` elementwise over broadcastable arrays.

    Matches the scalar function to rounding (the lens area's arccos may
    differ by an ulp); any element outside its domain raises `ValueError`.
    """
    fov, sv, err = np.broadcast_arrays(
        FOV.check_array(r_fov), STREAMED_RADIUS.check_array(r_sv), ERROR.check_array(e)
    )
    return _qoe_from_codes(fov, sv, err, _classify_codes(fov, sv, err))
