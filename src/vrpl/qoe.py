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
`CASES`.  Both paths share the case tests (`_case_tests`) and the constant
cases' QoE (`_case_qoe`); their lenses and cosines may differ in the last bit.
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
    _overlap_tests,
    cap_area,
    cap_overlap_area,
    lens_area,
    lens_terms,
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


#: The case code each test of `_case_tests` gives; if none holds, the caps overlap partially.
_TESTED = [CASE_CODE[case] for case in (*CASES[5:], *PARTITION_CASES[:4])]
_REMAINING = CASE_CODE[OverlapCase.REMAINING]


def _case_tests(fov, sv, err) -> tuple:
    """The case tests in tie order, floats or arrays: degenerate radii, then the overlap tests."""
    return (sv == 0.0, sv == math.pi, *_overlap_tests(fov, sv, err))


def _case_code(fov: float, sv: float, err: float) -> int:
    """The case code of checked floats: the first of `_case_tests` to hold."""
    return next((c for c, hit in zip(_TESTED, _case_tests(fov, sv, err)) if hit), _REMAINING)


def _case_qoe(c1, c2) -> tuple:
    """Each case code's QoE from ``c1 = cos r_fov``, ``c2 = cos r_sv``; 0 in place of the lens's."""
    denom = 1.0 - c1
    return (1.0, (1.0 - c2) / denom, 0.0, (-c2 - c1) / denom, 0.0, 0.0, 1.0)


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
    return CASES[_case_code(FOV.check(r_fov), STREAMED_RADIUS.check(r_sv), ERROR.check(e))]


def qoe(r_fov: float, r_sv: float, e: float) -> float:
    """Fraction of the field of view covered by the streamed cap, in [0, 1].

    Constant in ``e`` inside the four closed cases; in the partial-overlap
    case it is the cap-overlap area divided by the field-of-view area,
    strictly decreasing in ``e`` and strictly increasing in ``r_sv``.
    """
    fov, sv, err = FOV.check(r_fov), STREAMED_RADIUS.check(r_sv), ERROR.check(e)
    code = _case_code(fov, sv, err)
    if code != _REMAINING:
        return _case_qoe(math.cos(fov), math.cos(sv))[code]
    value = cap_overlap_area(fov, sv, err) / cap_area(fov)
    return min(max(value, 0.0), 1.0)


def _lens_qoe(terms: tuple, area, cos_d, sin_d, work: np.ndarray) -> np.ndarray:
    """`lens_area` over the field of view's ``area``, clipped to [0, 1], in place and unchecked."""
    lens = lens_area(terms, cos_d, sin_d, work)
    return np.clip(np.divide(lens, area, out=lens), 0.0, 1.0, out=lens)


def _classify_codes(fov: np.ndarray, sv: np.ndarray, err: np.ndarray) -> np.ndarray:
    """`classify` on validated, broadcast arrays: the first true test wins."""
    return np.select(_case_tests(fov, sv, err), _TESTED, default=_REMAINING).astype(np.int8)


def _qoe_from_codes(
    fov: np.ndarray, sv: np.ndarray, err: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """`qoe` on validated, broadcast arrays whose cases are already known."""
    out = np.choose(codes, _case_qoe(np.cos(fov), np.cos(sv)), out=np.empty(codes.shape))
    m = codes == _REMAINING
    if m.any():
        err_m = err[m]
        terms = lens_terms(fov[m], sv[m])
        area = TWO_PI * (1.0 - terms[0])
        out[m] = _lens_qoe(terms, area, np.cos(err_m), np.sin(err_m), np.empty((3, err_m.size)))
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

    Matches the scalar function to rounding: both take `_case_qoe` outside
    the partial-overlap case, and their lenses' arccos may differ by an ulp
    inside it; any element outside its domain raises `ValueError`.
    """
    fov, sv, err = np.broadcast_arrays(
        FOV.check_array(r_fov), STREAMED_RADIUS.check_array(r_sv), ERROR.check_array(e)
    )
    return _qoe_from_codes(fov, sv, err, _classify_codes(fov, sv, err))
