"""Viewpoint-leakage model for the two upload policies.

An adversarial server tries to locate the user's actual viewpoint within
an angular protection radius ``epsilon``.  What it can infer depends on
what the client uploads after each segment:

* error upload: the client reports the scalar prediction error ``e``.
  The viewpoint is then confined to the circle of points at distance
  ``e`` from the predicted viewpoint, and a uniform guess on that circle
  succeeds with probability ``min(epsilon / (pi * sin e), 1)``.

* QoE upload: the client reports the covered fraction ``q``.  The server
  inverts the QoE model: in the four constant cases only an interval of
  errors is learned and the viewpoint is confined to a cap, while in the
  partial-overlap case ``q`` pins the error down exactly (monotone
  bisection) and the error-upload analysis applies.

Probabilities are clamped to [0, 1].  Degenerate inputs (zero error,
antipodal error, empty or full streamed cap) collapse the zone to a single
point or expand it to the full sphere.

The ``*_vec`` functions evaluate the same analysis elementwise over
numpy-broadcastable inputs, with cases and zone kinds as int8 codes into
`CASES` and `ZONE_KINDS`; the scalar functions remain the reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .qoe import CASE_CODE, OverlapCase, _classify_codes, _qoe_from_codes, classify, qoe
from .sphere import (
    EPSILON,
    ERROR,
    FOV,
    PROBABILITY,
    QOE,
    SPHERE_AREA,
    STREAMED_RADIUS,
    TWO_PI,
    cap_area,
    lens_area,
    lens_terms,
)

#: Absolute tolerance for matching a reported QoE to a constant-case value.
QOE_MATCH_TOL = 1e-9

#: Absolute tolerance (in radians of error) for the bisection inversion.
BISECT_TOL = 1e-9

_BISECT_MAX_ITER = 64

#: Streamed radii a QoE report can be inverted at: the degenerate caps 0
#: and pi give the same report for every error.
_INVERTIBLE_RADIUS = replace(STREAMED_RADIUS, open_lo=True, open_hi=True)

#: The leakage budget of a `PrivacyRequirement`.
_MAX_LEAK_PROB = replace(PROBABILITY, name="max_leak_prob")


class QoeInconsistencyError(ValueError):
    """Raised when a reported QoE is impossible for the given geometry."""


class ZoneKind(enum.Enum):
    """Shape of the region the adversary narrows the viewpoint down to."""

    CIRCLE = "circle"
    CAP = "cap"
    FULL_SPHERE = "full_sphere"
    SINGLE_POINT = "single_point"


#: The zone kind of each int8 code the array kernels return.
ZONE_KINDS = tuple(ZoneKind)
ZONE_CODE = {kind: i for i, kind in enumerate(ZONE_KINDS)}


@dataclass(frozen=True)
class LeakageResult:
    """Outcome of one leakage analysis.

    ``zone_measure`` is the circumference for a circle zone (the viewpoint
    is confined to a curve) and the area for cap / full-sphere zones; a
    single-point zone has measure zero and probability one.
    """

    probability: float
    zone_kind: ZoneKind
    zone_measure: float
    case: OverlapCase | None = None


@dataclass(frozen=True)
class PrivacyRequirement:
    """Protection radius and the highest acceptable leakage probability."""

    epsilon: float
    max_leak_prob: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", EPSILON.check(self.epsilon))
        object.__setattr__(self, "max_leak_prob", _MAX_LEAK_PROB.check(self.max_leak_prob))


class RangeKind(enum.Enum):
    FULL = "full"
    INTERVAL = "interval"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ErrorRange:
    """Set of prediction errors compatible with a privacy requirement."""

    kind: RangeKind
    lo: float | None = None
    hi: float | None = None


class InferenceKind(enum.Enum):
    EXACT = "exact"
    RANGE = "range"


@dataclass(frozen=True)
class ErrorInference:
    """What a reported QoE reveals about the prediction error.

    ``ambiguous`` is set when the report matched a constant-case value
    within tolerance but the value also lies strictly inside the band the
    partial-overlap case can produce, so an interval answer was chosen
    over a nearby exact solution (the interval reveals less).
    """

    kind: InferenceKind
    case: OverlapCase
    value: float | None = None
    lo: float | None = None
    hi: float | None = None
    ambiguous: bool = False


def cap_zone(fov: float, sv: float, ep: float, nested: bool) -> tuple[float, float]:
    """Cap zone of a constant-case QoE report and the odds of guessing in it.

    The report confines the viewpoint to a cap of radius ``r_z``: the gap
    ``|r_sv - r_fov|`` when the caps nest (``nested``: the two containment
    cases) and ``|pi - r_sv - r_fov|`` otherwise (disjoint caps or
    complement containment).  A cap guess of radius ``ep`` succeeds with
    probability ``(1 - cos ep) / (1 - cos r_z)``, or 1 once ``r_z <= ep`` or
    the zone's ``1 - cos r_z`` rounds to 0 (a tangency gap of rounding size
    leaves a single point).  Inputs are validated radians.

    Returns:
        ``(r_z, probability)``.
    """
    r_z = abs(sv - fov) if nested else abs(math.pi - sv - fov)
    cap = 1.0 - math.cos(r_z)
    if r_z <= ep or cap == 0.0:
        return r_z, 1.0
    return r_z, (1.0 - math.cos(ep)) / cap


def leak_prob_from_error(e: float, eps: float) -> LeakageResult:
    """Leakage probability when the client uploads the prediction error.

    The viewpoint is uniformly likely over the circle at distance ``e``
    from the predicted viewpoint (circumference ``2*pi*sin(e)``); an
    adversarial guess covers an arc of length ``2*epsilon``, giving
    success probability ``min(eps / (pi * sin e), 1)``.  Zero or antipodal
    error collapses the circle to a single point, which leaks outright.
    """
    err, ep = ERROR.check(e), EPSILON.check(eps)
    if err == 0.0 or err == math.pi:
        return LeakageResult(1.0, ZoneKind.SINGLE_POINT, 0.0)
    sin_e = math.sin(err)
    return LeakageResult(min(ep / (math.pi * sin_e), 1.0), ZoneKind.CIRCLE, TWO_PI * sin_e)


def min_leak_prob_error(eps: float) -> float:
    """Lowest error-upload leakage over all errors: eps / pi, at e = pi/2."""
    return EPSILON.check(eps) / math.pi


def min_leak_prob_qoe(eps: float) -> float:
    """Lowest QoE-upload leakage over all configurations: (1 - cos eps) / 2.

    Attained when the streamed cap degenerates (radius 0 or pi) and the
    report confines the viewpoint to nothing smaller than the full sphere.
    """
    return (1.0 - math.cos(EPSILON.check(eps))) / 2.0


def error_range_for_requirement(req: PrivacyRequirement) -> ErrorRange:
    """Errors whose error-upload leakage stays within the requirement.

    A cap on the leakage probability at ``max_leak_prob`` is met by: every
    error when the cap is 1; the symmetric interval
    ``[arcsin(eps / (p*pi)), pi - arcsin(eps / (p*pi))]`` when the cap is
    at least the global minimum ``eps / pi``; no error otherwise.
    """
    if req.max_leak_prob >= 1.0:
        return ErrorRange(RangeKind.FULL, 0.0, math.pi)
    if req.epsilon == 0.0:
        return ErrorRange(RangeKind.INTERVAL, 0.0, math.pi)
    if req.max_leak_prob < min_leak_prob_error(req.epsilon):
        return ErrorRange(RangeKind.INFEASIBLE)
    lo = math.asin(min(req.epsilon / (req.max_leak_prob * math.pi), 1.0))
    return ErrorRange(RangeKind.INTERVAL, lo, math.pi - lo)


def full_leak_error_range(eps: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two error intervals where error-upload leakage equals 1.

    Returns ``([0, arcsin(eps/pi)], [pi - arcsin(eps/pi), pi])``; both
    collapse to single points when ``eps`` is zero.
    """
    ep = EPSILON.check(eps)
    edge = math.asin(ep / math.pi)
    return (0.0, edge), (math.pi - edge, math.pi)


def _bisect_error(q: float, fov: float, sv: float) -> float:
    """Invert the partial-overlap QoE for the error by monotone bisection.

    The QoE is continuous and strictly decreasing in the error across the
    partial-overlap interval, so plain interval halving converges; the
    bracket is pulled marginally inside the interval to keep every
    evaluation in the regime where the overlap formula is defined.
    """
    lo = max(1e-12, abs(fov - sv))
    hi = min(fov + sv, TWO_PI - (fov + sv)) - 1e-12
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if qoe(fov, sv, mid) > q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECT_TOL:
            break
    return 0.5 * (lo + hi)


def infer_error_from_qoe(q: float, r_fov: float, r_sv: float) -> ErrorInference:
    """Infer the prediction error from a reported QoE.

    A constant-case report is one end of the band of attainable QoE: the
    containment case `classify` gives at zero error for the top end, and
    the disjoint or complement case it gives at antipodal error for the
    bottom end.  A report matching an end (within `QOE_MATCH_TOL`, top end
    first) yields the full error interval of that case; otherwise the
    report is inverted exactly by bisection inside the partial-overlap
    interval.

    Args:
        q: reported covered fraction, in [0, 1].
        r_fov: field-of-view radius, in (0, pi/2].
        r_sv: streamed-cap radius, strictly inside (0, pi).

    Raises:
        QoeInconsistencyError: if ``q`` lies outside the band of values the
            geometry can produce (beyond `QOE_MATCH_TOL`).
    """
    fov, sv, qv = FOV.check(r_fov), _INVERTIBLE_RADIUS.check(r_sv), QOE.check(q)
    tol = QOE_MATCH_TOL
    # The band's ends are the QoE at zero and antipodal error: containment
    # at e = 0, and at e = pi disjoint caps or complement containment.
    q_high, q_low = qoe(fov, sv, 0.0), qoe(fov, sv, math.pi)
    if qv > q_high + tol or qv < q_low - tol:
        raise QoeInconsistencyError(
            f"QoE {qv!r} unreachable for r_fov={fov!r}, r_sv={sv!r}: "
            f"attainable band is [{q_low!r}, {q_high!r}]"
        )
    # Strictly inside the band the partial-overlap case could explain the
    # report too; constant-case matches there are flagged as ambiguous.
    interior = q_low < qv < q_high

    if abs(qv - q_high) <= tol:
        return ErrorInference(
            InferenceKind.RANGE, classify(fov, sv, 0.0), lo=0.0, hi=abs(sv - fov), ambiguous=interior
        )
    if abs(qv - q_low) <= tol:
        case = classify(fov, sv, math.pi)
        lo = fov + sv if case is OverlapCase.DISJOINT else TWO_PI - fov - sv
        return ErrorInference(InferenceKind.RANGE, case, lo=lo, hi=math.pi, ambiguous=interior)
    return ErrorInference(InferenceKind.EXACT, OverlapCase.REMAINING, value=_bisect_error(qv, fov, sv))


def leak_prob_from_qoe(q: float, r_fov: float, r_sv: float, eps: float) -> LeakageResult:
    """Leakage probability when the client uploads the QoE.

    Constant-case reports confine the viewpoint to a cap of radius
    ``|r_sv - r_fov|`` (one cap inside the other) or ``|pi - r_sv - r_fov|``
    (disjoint caps or complement containment); the adversary's cap guess
    succeeds with probability ``min((1 - cos eps) / (1 - cos r_z), 1)``.
    A partial-overlap report reveals the exact error and reduces to the
    error-upload analysis.  A degenerate streamed cap reveals nothing: the
    zone is the full sphere and the probability reaches the global minimum
    ``(1 - cos eps) / 2``.
    """
    fov = FOV.check(r_fov)
    sv, ep = STREAMED_RADIUS.check(r_sv), EPSILON.check(eps, hi=fov)
    if sv == 0.0 or sv == math.pi:
        case = OverlapCase.DEGENERATE_EMPTY if sv == 0.0 else OverlapCase.DEGENERATE_FULL
        return LeakageResult(min_leak_prob_qoe(ep), ZoneKind.FULL_SPHERE, SPHERE_AREA, case)
    inferred = infer_error_from_qoe(q, fov, sv)
    if inferred.kind == InferenceKind.EXACT:
        base = leak_prob_from_error(inferred.value, ep)
        return LeakageResult(base.probability, base.zone_kind, base.zone_measure, inferred.case)
    nested = inferred.case in (OverlapCase.FOV_IN_SFOV, OverlapCase.SFOV_IN_FOV)
    r_z, prob = cap_zone(fov, sv, ep, nested)
    return LeakageResult(prob, ZoneKind.CAP, cap_area(r_z), inferred.case)


# --- array kernels -----------------------------------------------------------

_REMAINING = CASE_CODE[OverlapCase.REMAINING]


@dataclass(frozen=True)
class LeakageArrays:
    """Elementwise `LeakageResult`s from the array kernels.

    ``zone_kind`` holds int8 codes into `ZONE_KINDS` and ``case`` int8
    codes into `CASES` (None for error upload, which has no case).
    """

    probability: np.ndarray
    zone_kind: np.ndarray
    zone_measure: np.ndarray
    case: np.ndarray | None = None


@dataclass(frozen=True)
class ErrorInferenceArrays:
    """Elementwise inferred cases and errors from `infer_error_from_qoe_vec`.

    Where ``case`` is the partial-overlap code the inference is exact and
    ``value`` is the bisected error; elsewhere the report matched a constant
    case and ``value`` is nan.
    """

    case: np.ndarray
    value: np.ndarray


def leak_prob_from_error_vec(e, eps) -> LeakageArrays:
    """`leak_prob_from_error` elementwise over broadcastable arrays."""
    err, ep = np.broadcast_arrays(ERROR.check_array(e), EPSILON.check_array(eps))
    return _leak_from_checked_errors(err, ep)


def _leak_from_checked_errors(err: np.ndarray, ep) -> LeakageArrays:
    """`leak_prob_from_error_vec` on errors and radii already checked."""
    point = (err == 0.0) | (err == math.pi)
    sin_e = np.sin(err)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        prob = np.where(point, 1.0, np.minimum(ep / (math.pi * sin_e), 1.0))
    kind = np.where(point, ZONE_CODE[ZoneKind.SINGLE_POINT], ZONE_CODE[ZoneKind.CIRCLE])
    return LeakageArrays(prob, kind.astype(np.int8), np.where(point, 0.0, TWO_PI * sin_e))


def _bisect_error_vec(q: np.ndarray, fov: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """`_bisect_error` over 1-d arrays, halving every unfinished bracket at once.

    Same bracket and update rule as the scalar loop; an element freezes
    after the halving that brings its bracket within `BISECT_TOL`, or after
    `_BISECT_MAX_ITER` halvings.  The result is bit for bit that of halving
    with ``qoe_vec``, but the lens's radius terms (`lens_terms`) and the
    field-of-view area are taken once per report, and a halving evaluates,
    over every report, only the midpoints, their cosine and sine, the lens
    (`lens_area`), the divide, the clip and the comparison; only the live
    reports move their bracket.

    No case is classified per halving: every midpoint lies strictly inside
    the partial-overlap interval, where ``qoe_vec`` takes the lens.  The
    starting bracket lies in the interval, its top end 1e-12 below it and
    its bottom end on the containment boundary (or at 1e-12).  A midpoint
    is half its bracket's width from each end; the first halves the
    starting bracket, of width ``w0``, and every later one a live bracket,
    wider than `BISECT_TOL`, so each is at least ``min(w0, BISECT_TOL) / 2``
    from the interval's ends.  A report reaches bisection only when its band
    of attainable QoE is wider than ``2 * QOE_MATCH_TOL``; the thinnest such
    band, at ``r_sv`` about ``4.5e-5 * r_fov`` (or ``pi - r_sv`` alike), has
    ``w0 = 2 r_sv``, no less than about 9e-11.  Both margins exceed the
    rounding of the case tests, about 4e-16 for sums up to ``2 pi``, by five
    orders of magnitude.  A frozen report's midpoints halve its last
    bracket, at least ``min(w0, BISECT_TOL) / 2`` wide, so they stay inside
    too; their values are not used.
    """
    lo = np.maximum(1e-12, np.abs(fov - sv))
    hi = np.minimum(fov + sv, TWO_PI - (fov + sv)) - 1e-12
    terms = lens_terms(fov, sv)
    area = TWO_PI * (1.0 - terms[0])
    mid, cos_d, sin_d = (np.empty(q.size) for _ in range(3))
    work = np.empty((3, q.size))
    above, move = np.empty((2, q.size), dtype=bool)
    live = np.ones(q.size, dtype=bool)
    for _ in range(_BISECT_MAX_ITER):
        if not live.any():
            break
        np.multiply(0.5, np.add(lo, hi, out=mid), out=mid)
        qm = lens_area(terms, np.cos(mid, out=cos_d), np.sin(mid, out=sin_d), work)
        np.clip(np.divide(qm, area, out=qm), 0.0, 1.0, out=qm)
        np.greater(qm, q, out=above)
        np.copyto(lo, mid, where=np.logical_and(live, above, out=move))
        np.copyto(hi, mid, where=np.logical_and(live, ~above, out=move))
        np.logical_and(live, np.subtract(hi, lo, out=qm) > BISECT_TOL, out=live)
    return 0.5 * (lo + hi)


def infer_error_from_qoe_vec(q, r_fov, r_sv) -> ErrorInferenceArrays:
    """`infer_error_from_qoe` elementwise over broadcastable arrays.

    Same constant-case matching within `QOE_MATCH_TOL` and precedence as the
    scalar function; the remaining reports are bisected together.

    Raises:
        ValueError: if any element lies outside its domain.
        QoeInconsistencyError: if any report lies outside the band its
            geometry can produce (beyond `QOE_MATCH_TOL`); the first one is
            named.
    """
    fov, sv, qv = np.broadcast_arrays(
        FOV.check_array(r_fov), _INVERTIBLE_RADIUS.check_array(r_sv), QOE.check_array(q)
    )
    return _infer_from_checked(qv, fov, sv)


def _infer_from_checked(qv: np.ndarray, fov: np.ndarray, sv: np.ndarray) -> ErrorInferenceArrays:
    """`infer_error_from_qoe_vec` on broadcast arrays already checked."""
    tol = QOE_MATCH_TOL
    ends = (np.zeros(fov.shape), np.full(fov.shape, math.pi))
    codes = [_classify_codes(fov, sv, e) for e in ends]
    q_high, q_low = (_qoe_from_codes(fov, sv, e, c) for e, c in zip(ends, codes))
    bad = (qv > q_high + tol) | (qv < q_low - tol)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        qi, fi, si = (float(x.flat[i]) for x in (qv, fov, sv))
        raise QoeInconsistencyError(
            f"QoE {qi!r} unreachable for r_fov={fi!r}, r_sv={si!r}: "
            f"attainable band is [{float(q_low.flat[i])!r}, {float(q_high.flat[i])!r}]"
        )
    # A report at an end of the band takes the case there; the top end wins a tie.
    ends_matched = [np.abs(qv - q_high) <= tol, np.abs(qv - q_low) <= tol]
    case = np.select(ends_matched, codes, default=_REMAINING).astype(np.int8)
    exact = case == _REMAINING
    value = np.full(case.shape, math.nan)
    value[exact] = _bisect_error_vec(qv[exact], fov[exact], sv[exact])
    return ErrorInferenceArrays(case, value)


def leak_prob_from_qoe_vec(q, r_fov, r_sv, eps) -> LeakageArrays:
    """`leak_prob_from_qoe` elementwise over broadcastable arrays.

    Degenerate streamed caps skip the inversion, as in the scalar function;
    every other report is inverted as by `infer_error_from_qoe_vec`.
    """
    fov = FOV.check_array(r_fov)
    fov, sv, ep, qv = np.broadcast_arrays(
        fov,
        STREAMED_RADIUS.check_array(r_sv),
        EPSILON.check_array(eps, hi=fov),
        np.asarray(q, dtype=float),
    )
    prob = np.array((1.0 - np.cos(ep)) / 2.0)
    kind = np.full(prob.shape, ZONE_CODE[ZoneKind.FULL_SPHERE], dtype=np.int8)
    measure = np.full(prob.shape, SPHERE_AREA)
    case = np.where(
        sv == 0.0, CASE_CODE[OverlapCase.DEGENERATE_EMPTY], CASE_CODE[OverlapCase.DEGENERATE_FULL]
    ).astype(np.int8)

    live = (sv != 0.0) & (sv != math.pi)
    f, s, e = fov[live], sv[live], ep[live]
    # the report is read only where the streamed cap is not degenerate
    inferred = _infer_from_checked(QOE.check_array(qv[live]), f, s)
    exact = inferred.case == _REMAINING
    nested = np.isin(
        inferred.case, (CASE_CODE[OverlapCase.FOV_IN_SFOV], CASE_CODE[OverlapCase.SFOV_IN_FOV])
    )
    r_z = np.where(nested, np.abs(s - f), np.abs(math.pi - s - f))
    cap = 1.0 - np.cos(r_z)
    with np.errstate(divide="ignore", invalid="ignore"):
        cap_prob = np.where((r_z <= e) | (cap == 0.0), 1.0, (1.0 - np.cos(e)) / cap)
    circle = _leak_from_checked_errors(np.where(exact, inferred.value, 0.0), e)
    prob[live] = np.where(exact, circle.probability, cap_prob)
    kind[live] = np.where(exact, circle.zone_kind, ZONE_CODE[ZoneKind.CAP])
    measure[live] = np.where(exact, circle.zone_measure, TWO_PI * cap)
    case[live] = inferred.case
    return LeakageArrays(prob, kind, measure, case)


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class CaseLeakageProfile:
    """How QoE-upload leakage behaves within one constant case.

    ``is_max``: the probability equals 1 at the given streamed-cap radius.
    ``monotonicity``: direction of the probability in the streamed-cap
    radius on the sub-region where it is below 1.
    ``infimum``: the limiting value as the radius approaches the end of
    the case's range (pi for the containment-of-FoV and complement cases,
    0 for the containment-of-SFoV and disjoint cases).
    """

    is_max: bool
    monotonicity: Monotonicity
    infimum: float


def case_leakage_profile(
    r_fov: float, eps: float, r_sv: float, case: OverlapCase
) -> CaseLeakageProfile:
    """Summarize QoE-upload leakage behaviour for one constant case.

    Only the four constant cases have a cap zone whose radius depends on
    the streamed-cap radius; the partial-overlap case is rejected because
    its leakage depends on the error alone.
    """
    fov = FOV.check(r_fov)
    sv, ep = STREAMED_RADIUS.check(r_sv), EPSILON.check(eps, hi=fov)
    if case not in (
        OverlapCase.FOV_IN_SFOV,
        OverlapCase.SFOV_IN_FOV,
        OverlapCase.DISJOINT,
        OverlapCase.SFOV_COMPLEMENT_IN_FOV,
    ):
        raise ValueError(f"no per-case leakage profile for {case!r}")
    r_z, _ = cap_zone(fov, sv, ep, case in (OverlapCase.FOV_IN_SFOV, OverlapCase.SFOV_IN_FOV))
    if case in (OverlapCase.FOV_IN_SFOV, OverlapCase.SFOV_COMPLEMENT_IN_FOV):
        # zone radius grows with the streamed cap, so leakage falls
        mono = Monotonicity.DECREASING
    else:
        mono = Monotonicity.INCREASING
    if case in (OverlapCase.FOV_IN_SFOV, OverlapCase.DISJOINT):
        infimum = (1.0 - math.cos(ep)) / (1.0 + math.cos(fov))
    else:
        infimum = (1.0 - math.cos(ep)) / (1.0 - math.cos(fov))
    return CaseLeakageProfile(is_max=r_z <= ep, monotonicity=mono, infimum=infimum)


@dataclass(frozen=True)
class MinProbComparison:
    """Global leakage minima of the two upload policies, compared."""

    qoe_upload_min: float
    error_upload_min: float
    qoe_upload_smaller: bool


def min_prob_comparison(eps: float, r_fov: float) -> MinProbComparison:
    """Compare the best-case leakage of QoE upload against error upload.

    For any protection radius in (0, r_fov] with r_fov at most pi/2 the
    QoE-upload minimum ``(1 - cos eps) / 2`` is strictly below the
    error-upload minimum ``eps / pi``; the two meet only at the closure
    corner eps = pi/2.
    """
    fov = FOV.check(r_fov)
    ep = EPSILON.check(eps, hi=fov)
    q_min = min_leak_prob_qoe(ep)
    e_min = min_leak_prob_error(ep)
    return MinProbComparison(q_min, e_min, q_min < e_min)
