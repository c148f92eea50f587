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
  partial-overlap case ``q`` pins the error down exactly (safeguarded
  Newton on the monotone QoE, its root certified to change the QoE's side
  of the report within ``BISECT_TOL / 2``, as bisection's answer would)
  and the error-upload analysis applies.

Probabilities are clamped to [0, 1].  Degenerate inputs (zero error,
antipodal error, empty or full streamed cap) collapse the zone to a single
point or expand it to the full sphere.

The ``*_vec`` functions evaluate the same analysis elementwise over
numpy-broadcastable inputs, with cases and zone kinds as int8 codes into
`CASES` and `ZONE_KINDS`.  The scalar inversion keeps its own Newton loop on
`qoe`: separate arithmetic, at 45-70 µs a report against the kernel's 0.6-1 ms.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .qoe import CASE_CODE, OverlapCase, _case_qoe, _classify_codes, _lens_qoe, _partial_interval, classify, qoe
from .sphere import (
    EPSILON,
    ERROR,
    FOV,
    PROBABILITY,
    QOE,
    SPHERE_AREA,
    STREAMED_RADIUS,
    TWO_PI,
    Record,
    lens_terms,
)

#: Absolute tolerance for matching a reported QoE to a constant-case value.
QOE_MATCH_TOL = 1e-9

#: Width (in radians of error) the QoE inversion's bisection halves its
#: bracket to, and so twice the distance within which a Newton root must
#: see the QoE change side of the report to be certified.
BISECT_TOL = 1e-9

_BISECT_MAX_ITER = 64

#: The QoE inversion's Newton iteration stops once its step is at most
#: this many ulps of the error, or its bracket is that narrow.
_STEP_ULPS = 4.0

#: A report takes at most this many Newton iterations; the tests check
#: that none needs all of them.
_NEWTON_MAX_ITER = 64

#: Ulps of an arccos argument in the lens's rounding (see `_floor_sum`).
_ACOS_ULPS = 2.0

_ULP = math.ulp(1.0)

#: Streamed radii a QoE report can be inverted at: the degenerate caps 0
#: and pi give the same report for every error.
_INVERTIBLE_RADIUS = STREAMED_RADIUS._replace(open_lo=True, open_hi=True)

#: The leakage budget of a `PrivacyRequirement`.
_MAX_LEAK_PROB = PROBABILITY._replace(name="max_leak_prob")


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

#: The case codes whose cap zone is the radii's gap, and the full sphere's.
_NESTED = (CASE_CODE[OverlapCase.FOV_IN_SFOV], CASE_CODE[OverlapCase.SFOV_IN_FOV])
_DEGENERATE = (CASE_CODE[OverlapCase.DEGENERATE_EMPTY], CASE_CODE[OverlapCase.DEGENERATE_FULL])


class LeakageResult(Record):
    """Outcome of one leakage analysis.

    ``zone_measure`` is the circumference for a circle zone (the viewpoint
    is confined to a curve) and the area for cap / full-sphere zones; a
    single-point zone has measure zero and probability one.
    """

    probability: float
    zone_kind: ZoneKind
    zone_measure: float
    case: OverlapCase | None = None


class PrivacyRequirement(Record):
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


class ErrorRange(Record):
    """Set of prediction errors compatible with a privacy requirement."""

    kind: RangeKind
    lo: float | None = None
    hi: float | None = None


class InferenceKind(enum.Enum):
    EXACT = "exact"
    RANGE = "range"


class ErrorInference(Record):
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


def cap_zone(fov, sv, ep, case):
    """Cap zone of a constant-case QoE report and the odds of guessing in it.

    The report confines the viewpoint to a cap of radius ``r_z``: the gap
    ``|r_sv - r_fov|`` when the caps nest (the two containment cases),
    ``pi``, the full sphere, when the streamed cap is degenerate, and
    ``|pi - r_sv - r_fov|`` otherwise (disjoint caps or complement
    containment).  Its area is ``2 pi (1 - cos r_z)``, the full sphere's
    ``4 pi`` at ``r_z = pi``.  A cap guess of radius ``ep`` succeeds with
    probability ``(1 - cos ep) / (1 - cos r_z)``, or 1 once ``r_z <= ep`` or
    the zone's ``1 - cos r_z`` rounds to 0 (a tangency gap of rounding size
    leaves a single point); at ``r_z = pi`` that is `min_leak_prob_qoe`.
    Inputs are validated radians and int8 codes into `CASES`, as floats or
    broadcastable arrays; floats give floats, and any array, 0-d included,
    gives arrays.

    Returns:
        ``(r_z, probability, area)``.
    """
    nested, full = ((case == a) | (case == b) for a, b in (_NESTED, _DEGENERATE))
    r_z = np.where(nested, np.abs(sv - fov), np.where(full, math.pi, np.abs(math.pi - sv - fov)))
    cap = 1.0 - np.cos(r_z)
    with np.errstate(divide="ignore", invalid="ignore"):
        prob = np.where((r_z <= ep) | (cap == 0.0), 1.0, (1.0 - np.cos(ep)) / cap)
    area = np.multiply(TWO_PI, cap, out=np.empty_like(r_z))
    if any(isinstance(x, np.ndarray) for x in (fov, sv, ep, case)):
        return r_z, prob, area
    return float(r_z), float(prob), float(area)


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


def _floor_sum(c1, c2):
    """The part of the lens's rounding that the radii fix.

    The rounding of one lens evaluation, in area units, is this part, a
    quarter ulp of the magnitudes of the lens's terms, plus `_ACOS_ULPS`
    ulps of an arccos argument magnified by the arccos's slope, which the
    sine rule puts within the radii's sines of ``1 / (sin e sin r_sv sin
    a_sv)`` for each arccos of the lens (``a_sv`` as in `_newton_error`).
    The two weights are calibrated: over 12,000 random partial-overlap
    points with ``r_fov`` from 1e-6 to pi/2, the lens's largest departure
    from its tangent within 32 ulps of the error was a median 0.15-0.54
    times this rounding and at most 2.1 times.  ``c1 = cos r_fov`` and
    ``c2 = cos r_sv``, as floats or arrays.
    """
    return 0.25 * _ULP * (abs(TWO_PI - TWO_PI * c1 - TWO_PI * c2) + TWO_PI * (1.0 + abs(c1) + abs(c2)))


def _newton_bracket(fov, sv) -> tuple:
    """The QoE inversion's starting bracket, floats or arrays.

    The partial-overlap interval pulled marginally inside: its top end
    1e-12 below it, its bottom end on the containment boundary (or at
    1e-12).  A report is inverted only when its band of attainable QoE is
    wider than ``2 * QOE_MATCH_TOL``; the thinnest such band, at ``r_sv``
    about ``4.5e-5 * r_fov`` (or ``pi - r_sv`` alike), has a bracket of
    width ``2 r_sv``, no less than about 9e-11: five orders of magnitude
    above the rounding of the case tests, about 4e-16 for sums up to
    ``2 pi``.
    """
    near, far = _partial_interval(fov, sv)
    return np.maximum(1e-12, near), far - 1e-12


def _newton_error(q: float, fov: float, sv: float) -> float:
    """Invert the partial-overlap QoE for the error by safeguarded Newton.

    The scalar mirror of `_newton_error_vec`, which describes it: the same
    bracket, start, update, safeguard and stopping rules, and the same
    certification of the root, with the QoE of each point from the
    module-global `qoe`, so that a hook on it counts the evaluations.  A
    root that fails its certification is bisected by the kernel's own
    `_bisect_error_vec`, on 1-element arrays.

    The QoE falls with the error at the rate ``2 sin r_sv sin a_sv / area``,
    where ``a_sv`` is the angle at the streamed cap's center between the
    other center and an intersection point: the lens's own ``t2`` is
    ``pi - a_sv``, so ``cos a_sv = -(cos e cos r_sv - cos r_fov) / (sin e
    sin r_sv)``, from the cosine and sine of the error the lens takes.
    """
    lo, hi = [float(end) for end in _newton_bracket(fov, sv)]
    c1, c2, s2 = math.cos(fov), math.cos(sv), math.sin(sv)
    area = TWO_PI * (1.0 - c1)
    floor_sum = _floor_sum(c1, c2)
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAX_ITER):
        r = qoe(fov, sv, x) - q
        if r > 0.0:
            lo = x
        else:
            hi = x
        cd, sd = math.cos(x), math.sin(x)
        denom = sd * s2
        cos_a = (cd * c2 - c1) / denom
        sin_a = math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
        if sin_a == 0.0:
            break
        noise = _ACOS_ULPS * _ULP / (denom * sin_a) + floor_sum
        step = r * area / (2.0 * s2 * sin_a)
        tol = _STEP_ULPS * _ULP * x
        if abs(r) * area <= noise or abs(step) <= tol or hi - lo <= tol:
            break
        nxt = x + step
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    below, above = x - 0.5 * BISECT_TOL, x + 0.5 * BISECT_TOL
    for side in (below, above):
        if lo < side < hi:
            lo, hi = (side, hi) if qoe(fov, sv, side) > q else (lo, side)
    if below <= lo and hi <= above:
        return x
    return float(_bisect_error_vec(*(np.array([v]) for v in (q, fov, sv, lo, hi)))[0])


def infer_error_from_qoe(q: float, r_fov: float, r_sv: float) -> ErrorInference:
    """Infer the prediction error from a reported QoE.

    A constant-case report is one end of the band of attainable QoE: the
    containment case `classify` gives at zero error for the top end, and
    the disjoint or complement case it gives at antipodal error for the
    bottom end.  A report matching an end (within `QOE_MATCH_TOL`, top end
    first) yields a range of errors in that case: ``[0, hi]`` at the top,
    ``hi`` the largest float at most ``|r_sv - r_fov|`` that `classify`
    puts in the case (not always its last: at ``r_fov = 1``, ``r_sv = 1.5``
    it is 0.5, and the next float is ``fov_in_sfov`` too), and from
    ``r_fov + r_sv`` or ``2 pi - r_fov - r_sv`` to ``pi`` at the bottom.
    Any other report is inverted exactly inside the partial-overlap
    interval, by the safeguarded Newton iteration `_newton_error` (the
    scalar mirror of `_newton_error_vec`, which describes it).  The root
    carries bisection's guarantee, certified by `qoe` itself: the QoE
    changes side of the report within ``BISECT_TOL / 2`` of it.  A root
    that fails the certification, rare and only at small fields of view, is
    bisected to `BISECT_TOL` on the array lens instead.

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
    # the top end's range ends where the partial-overlap interval starts, the bottom's starts where it ends
    hi, lo = (float(end) for end in _partial_interval(fov, sv))

    if abs(qv - q_high) <= tol:
        case = classify(fov, sv, 0.0)
        # the case test adds the error back to a radius, which can round past the other
        while classify(fov, sv, hi) is not case:
            hi = math.nextafter(hi, 0.0)
        return ErrorInference(InferenceKind.RANGE, case, lo=0.0, hi=hi, ambiguous=interior)
    if abs(qv - q_low) <= tol:
        # exact, as fov + sv lies in [pi, 2 pi]: classify(fov, sv, lo) is the case
        case = classify(fov, sv, math.pi)
        return ErrorInference(InferenceKind.RANGE, case, lo=lo, hi=math.pi, ambiguous=interior)
    return ErrorInference(InferenceKind.EXACT, OverlapCase.REMAINING, value=_newton_error(qv, fov, sv))


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
    _, prob, area = cap_zone(fov, sv, ep, CASE_CODE[inferred.case])
    return LeakageResult(prob, ZoneKind.CAP, area, inferred.case)


# --- array kernels -----------------------------------------------------------

_REMAINING = CASE_CODE[OverlapCase.REMAINING]


class LeakageArrays(Record):
    """Elementwise `LeakageResult`s from the array kernels.

    ``zone_kind`` holds int8 codes into `ZONE_KINDS` and ``case`` int8
    codes into `CASES` (None for error upload, which has no case).
    """

    probability: np.ndarray
    zone_kind: np.ndarray
    zone_measure: np.ndarray
    case: np.ndarray | None = None


class ErrorInferenceArrays(Record):
    """Elementwise inferred cases and errors from `infer_error_from_qoe_vec`.

    Where ``case`` is the partial-overlap code the inference is exact and
    ``value`` is the inverted error; elsewhere the report matched a constant
    case and ``value`` is nan.
    """

    case: np.ndarray
    value: np.ndarray


def leak_prob_from_error_vec(e, eps) -> LeakageArrays:
    """`leak_prob_from_error` elementwise over broadcastable arrays."""
    err, ep = np.broadcast_arrays(ERROR.check_array(e), EPSILON.check_array(eps))
    point = (err == 0.0) | (err == math.pi)
    kind = np.where(point, ZONE_CODE[ZoneKind.SINGLE_POINT], ZONE_CODE[ZoneKind.CIRCLE])
    measure = np.where(point, 0.0, TWO_PI * np.sin(err))
    return LeakageArrays(_error_upload_prob(err, ep), kind.astype(np.int8), measure)


def _error_upload_prob(err: np.ndarray, ep) -> np.ndarray:
    """The probability of `leak_prob_from_error_vec` alone, in one new array.

    ``min(ep / (pi sin e), 1)``, and 1 where ``e`` is 0 or pi, on errors and
    radii already checked; ``ep`` is a float or an array of ``err``'s shape.
    """
    prob = np.sin(err, out=np.empty(np.shape(err)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(ep, np.multiply(prob, math.pi, out=prob), out=prob)
        np.minimum(prob, 1.0, out=prob)
    prob[(err == 0.0) | (err == math.pi)] = 1.0
    return prob


def _qoe_above(terms: tuple, q, e, i) -> np.ndarray:
    """Whether `_lens_qoe` at the errors ``e`` of the reports ``i`` exceeds their reports ``q[i]``."""
    work = np.empty((3, i.size))
    return _lens_qoe(tuple(t[i] for t in terms), np.cos(e), np.sin(e), work) > q[i]


def _bisect_error_vec(q, fov, sv, lo, hi) -> np.ndarray:
    """Bisect the QoE inversion's brackets ``[lo, hi]``, in place.

    Every unfinished bracket of the 1-d arrays is halved at once: a
    midpoint whose QoE exceeds the report becomes its bottom, any other
    its top.  An element answers its bracket's midpoint after the halving
    that brings the bracket within `BISECT_TOL` (or after
    `_BISECT_MAX_ITER` halvings), so the computed QoE changes side of the
    report within ``BISECT_TOL / 2`` of the answer.  No case is
    classified: a bracket handed in lies inside `_newton_bracket`'s, with
    ends that are its ends or points evaluated strictly inside it, and
    every midpoint lies between two such ends.
    """
    terms = lens_terms(fov, sv)
    i = np.arange(q.size)
    for _ in range(_BISECT_MAX_ITER):
        if not i.size:
            break
        mid = 0.5 * (lo[i] + hi[i])
        above = _qoe_above(terms, q, mid, i)
        lo[i[above]], hi[i[~above]] = mid[above], mid[~above]
        i = i[hi[i] - lo[i] > BISECT_TOL]
    return 0.5 * (lo + hi)


def _newton_error_vec(q: np.ndarray, fov: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Invert the partial-overlap QoE for the error of every report at once.

    A safeguarded Newton iteration, written again for floats as
    `_newton_error`, on the bracket `_newton_bracket`, from its midpoint.
    An iteration evaluates the QoE at the iterate, moves the bracket's
    bottom there if the QoE exceeds the report and its top otherwise, and
    steps by the residual over the slope, which `_newton_error` derives,
    taken from the cosine and sine of the iterate that the lens uses.
    Where the step leaves the open bracket it takes the bracket's midpoint
    instead.  A report stops at its iterate once the residual is within
    the lens's rounding (see `_floor_sum`), or once the step or the
    bracket is at most `_STEP_ULPS` ulps of the iterate; a report whose
    slope is 0 (a tangency) stops at once.  Every root, and the next
    iterate of a report still running after `_NEWTON_MAX_ITER`
    iterations, is then certified by `_certify_vec`.

    No case is classified per iteration: every iterate lies strictly inside
    the starting bracket, so strictly inside the partial-overlap interval,
    where the QoE is the lens's.  The first iterate is the starting
    bracket's midpoint.  Every later bracket lies inside the starting one,
    since its ends are the starting ends or earlier iterates, and a running
    report's bracket is wider than `_STEP_ULPS` ulps; each later iterate is
    a Newton step kept only strictly inside the current bracket, or that
    bracket's midpoint, which is strictly inside too.

    The QoE is that of ``qoe_vec``, its `_lens_qoe`.
    """
    lo, hi, x = _newton_iterate_vec(q, fov, sv)
    return _certify_vec(q, fov, sv, x, lo, hi)


def _newton_iterate_vec(q, fov, sv) -> np.ndarray:
    """The iteration of `_newton_error_vec`: each report's last bracket and iterate.

    Rows ``(lo, hi, x)``.  Every row is allocated once; an iteration works
    in place on the first ``m`` columns, the running reports, and the
    reports that stop leave them by compaction.  Its own function so that
    these rows are freed before the certification allocates its own.
    """
    n = q.size
    lo0, hi0 = _newton_bracket(fov, sv)
    terms = lens_terms(fov, sv)
    state = np.empty((5, n))
    state[:3] = q, lo0, hi0
    np.multiply(0.5, lo0 + hi0, out=state[3])
    state[4] = _floor_sum(terms[0], terms[1])
    rows = (*state, *terms)
    # each report's bracket and root, once it stops
    ends = np.empty((3, n))
    where = np.arange(n)
    work = np.empty((6, n))
    flags = np.empty((3, n), dtype=bool)
    m = n
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            if not m:
                break
            q_m, lo, hi, x, floor_sum = state[:, :m]
            terms = tuple(t[:m] for t in rows[5:])
            c1, c2, s2, area = terms[0], terms[1], terms[3], terms[8]
            cos_d, sin_d, r, step, noise, tol = work[:, :m]
            above, done, spare = flags[:, :m]
            r = _lens_qoe(terms, np.cos(x, out=cos_d), np.sin(x, out=sin_d), work[2:5, :m])
            np.subtract(r, q_m, out=r)
            np.greater(r, 0.0, out=above)
            np.copyto(lo, x, where=above)
            np.copyto(hi, x, where=np.logical_not(above, out=above))
            # sin a_sv, from the lens's t2 argument (cos_d c2 - c1) / (sin_d s2)
            denom = np.multiply(sin_d, s2, out=step)
            sin_a = np.subtract(np.multiply(cos_d, c2, out=cos_d), c1, out=cos_d)
            np.divide(sin_a, denom, out=sin_a)
            np.subtract(1.0, np.multiply(sin_a, sin_a, out=sin_a), out=sin_a)
            np.sqrt(np.maximum(sin_a, 0.0, out=sin_a), out=sin_a)
            # the lens's rounding at x, in area units, infinite where the slope is 0
            np.divide(_ACOS_ULPS * _ULP, np.multiply(denom, sin_a, out=noise), out=noise)
            np.add(noise, floor_sum, out=noise)
            # the slope 2 sin r_sv sin a_sv, in area units, and the step
            slope = np.multiply(np.multiply(2.0, s2, out=sin_d), sin_a, out=sin_d)
            np.divide(np.multiply(r, area, out=step), slope, out=step)
            # stop within the rounding, or at a step or bracket of a few ulps
            np.multiply(_STEP_ULPS * _ULP, x, out=tol)
            np.less_equal(np.multiply(np.abs(r, out=r), area, out=r), noise, out=done)
            done |= np.less_equal(np.abs(step, out=r), tol, out=spare)
            done |= np.less_equal(np.subtract(hi, lo, out=r), tol, out=spare)
            # the Newton iterate, or the midpoint where it leaves the open bracket
            np.add(x, step, out=step)
            np.logical_and(np.greater(step, lo, out=above), np.less(step, hi, out=spare), out=above)
            np.multiply(0.5, np.add(lo, hi, out=r), out=r)
            np.copyto(step, r, where=np.logical_not(above, out=above))
            if done.any():
                stop = where[:m][done]
                for end, row in zip(ends, (lo, hi, x)):
                    end[stop] = row[done]
                running = np.flatnonzero(np.logical_not(done, out=done))
                x[running] = step[running]
                m = running.size
                for row in (*rows, where):
                    row[:m] = row[running]
            else:
                np.copyto(x, step)
    for end, row in zip(ends, state[1:4, :m]):
        end[where[:m]] = row
    return ends


def _certify_vec(q, fov, sv, x, lo, hi) -> np.ndarray:
    """Certify the roots ``x`` of the brackets ``[lo, hi]``, or bisect them.

    A root is certified when, as at bisection's answer, the computed QoE
    changes side of the report within ``BISECT_TOL / 2`` of it.  The
    bracket update of `_bisect_error_vec` is applied at ``x - BISECT_TOL /
    2`` and then at ``x + BISECT_TOL / 2``, evaluating only where the point
    lies strictly inside the bracket: beyond it, the bracket's end is
    already nearer ``x``.  One end of Newton's bracket is its root, so
    most reports take one evaluation.  A report whose bracket then lies
    within ``BISECT_TOL / 2`` of ``x`` keeps ``x``; any other is bisected
    from that bracket.  Over 1-d arrays, in place.
    """
    terms = lens_terms(fov, sv)
    below, above = x - 0.5 * BISECT_TOL, x + 0.5 * BISECT_TOL
    for side in (below, above):
        i = np.flatnonzero((lo < side) & (side < hi))
        at = side[i]
        over = _qoe_above(terms, q, at, i)
        lo[i[over]], hi[i[~over]] = at[over], at[~over]
    i = np.flatnonzero((lo < below) | (hi > above))
    x[i] = _bisect_error_vec(q[i], fov[i], sv[i], lo[i], hi[i])
    return x


def infer_error_from_qoe_vec(q, r_fov, r_sv) -> ErrorInferenceArrays:
    """`infer_error_from_qoe` elementwise over broadcastable arrays.

    Same constant-case matching within `QOE_MATCH_TOL` and precedence as the
    scalar function; the remaining reports are inverted together, by
    `_newton_error_vec`.  Where the QoE is flat, the root may be floats
    away from the scalar function's; each is certified (`_certify_vec`) in
    its own arithmetic.

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
    # the band's ends, at zero and antipodal error, are never partial overlap
    codes = [_classify_codes(fov, sv, e) for e in (0.0, math.pi)]
    q_high, q_low = np.choose(codes, _case_qoe(np.cos(fov), np.cos(sv)))
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
    value[exact] = _newton_error_vec(qv[exact], fov[exact], sv[exact])
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
    live = (sv != 0.0) & (sv != math.pi)
    case = np.where(sv == 0.0, *_DEGENERATE).astype(np.int8)
    # the report is read only where the streamed cap is not degenerate
    inferred = _infer_from_checked(QOE.check_array(qv[live]), fov[live], sv[live])
    case[live] = inferred.case
    # a degenerate cap's zone, of radius pi, is the full sphere, of area 4 pi
    _, prob, measure = cap_zone(fov, sv, ep, case)
    kind = np.where(live, ZONE_CODE[ZoneKind.CAP], ZONE_CODE[ZoneKind.FULL_SPHERE]).astype(np.int8)
    # an inverted error lies within Newton's bracket, so strictly inside (0, pi): its zone is a circle
    exact = case == _REMAINING
    err = inferred.value[exact[live]]
    prob[exact], kind[exact] = _error_upload_prob(err, ep[exact]), ZONE_CODE[ZoneKind.CIRCLE]
    measure[exact] = TWO_PI * np.sin(err)
    return LeakageArrays(prob, kind, measure, case)


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class CaseLeakageProfile(Record):
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
    r_z = cap_zone(fov, sv, ep, CASE_CODE[case])[0]
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


class MinProbComparison(Record):
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
