"""Aggregate leakage statistics over a population of prediction errors.

Given the per-frame errors produced by the prediction pipeline, this
module answers the ensemble questions: which errors satisfy a privacy
requirement, how the error mass splits between the tradeoff and
consistency halves of the feasible interval, and how the average
QoE-upload leakage behaves as the streamed-cap radius sweeps its range.

The sweep decomposes the average by geometric case.  Within each constant
case the leakage probability does not depend on the error, so the case
contributes its probability times the fraction of errors falling in the
case; partial-overlap errors contribute their individual error-upload
probabilities.  At a fixed radius every case is a run of the sorted
errors, so the sweep sorts the errors once and composes three stages over
the whole grid.  (a) `_run_ends` finds the run ends of all radii
together; it reads neither the protection radius nor the lens.  (b)
`_lens_sums` sums the lens area of each radius's partial-overlap run,
block-major: the errors some run holds are walked once, in blocks of
`_LENS_BLOCK`, each block's trigonometry is taken once, and every run
that meets the block adds the sum of the lens over its part; with the
constant cases' QoE it gives the mean QoE.  (c) `_leakage_odds`, the one
stage that reads the protection radius, gives the case ratios, the
constant cases' odds times their ratios, and the partial-overlap leakage
from one prefix sum of the error-upload probabilities.  No array the size
of the population is made for the lens, and the lens's arrays are freed
before the prefix sum is made, so the sweep holds little beyond its
sorted errors.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .leakage import (
    ErrorRange,
    PrivacyRequirement,
    RangeKind,
    _error_upload_prob,
    cap_zone,
    error_range_for_requirement,
    min_leak_prob_error,
)
from .qoe import CASE_CODE, CASES, PARTITION_CASES, _case_qoe, _classify_codes, _partial_interval
from .sphere import (
    EPSILON,
    ERROR,
    FOV,
    STREAMED_RADIUS,
    Record,
    _half_lens,
    cap_area,
    lens_terms,
)

#: The population sweep and its regions take a protection radius above 0 only.
_SWEEP_EPSILON = EPSILON._replace(open_lo=True)

#: Errors per block of the sweep's lens: the block's four rows of
#: trigonometry and three work rows take 896 KiB.
_LENS_BLOCK = 16384

#: The codes of the partition cases after the two nested ones.
_DISJOINT, _COMPLEMENT, _REMAINING = (CASE_CODE[case] for case in PARTITION_CASES[2:])


def _checked(errors: Sequence[float] | np.ndarray) -> np.ndarray:
    """A non-empty population of prediction errors, checked, as a float array."""
    values = ERROR.check_array(errors)
    if not values.size:
        raise ValueError("no error samples given")
    return values


def _population(errors: Sequence[float] | np.ndarray) -> np.ndarray:
    """A checked population of prediction errors in increasing order:
    ``errors`` itself when it is a sorted 1-d float64 array, else a sorted
    copy, so the caller's array is never changed."""
    values = _checked(errors)
    if values.ndim != 1 or np.any(values[1:] < values[:-1]):
        values = np.sort(values, axis=None)
    return values


class ErrorSubset(Record):
    """Errors compatible with a privacy requirement under error upload."""

    feasible: bool
    errors: np.ndarray
    mean: float  # nan when the subset is empty or infeasible
    error_range: ErrorRange


def error_subset_for_requirement(
    errors: Sequence[float] | np.ndarray, req: PrivacyRequirement
) -> ErrorSubset:
    """Select the errors whose error-upload leakage meets the requirement,
    into a new array, in the order given."""
    values = _checked(errors)
    rng = error_range_for_requirement(req)
    if rng.kind is RangeKind.INFEASIBLE:
        return ErrorSubset(False, np.empty(0), math.nan, rng)
    subset = _within(values, rng)
    mean = float(subset.mean()) if subset.size else math.nan
    return ErrorSubset(True, subset, mean, rng)


def _within(values: np.ndarray, rng: ErrorRange) -> np.ndarray:
    """The errors of ``values`` in the feasible interval ``rng``, into a new array."""
    return values[(values >= rng.lo) & (values <= rng.hi)]


def tradeoff_consistency_ratios(
    errors: Sequence[float] | np.ndarray, req: PrivacyRequirement
) -> tuple[float, float]:
    """Fractions of errors in the tradeoff and consistency sub-intervals.

    Within the feasible interval of `error_range_for_requirement`, leakage
    falls while QoE falls for errors up to ``pi/2`` (privacy traded against
    quality) and both move together beyond it.  The two fractions are over
    all errors; an error of exactly ``pi/2`` counts in both, so they need
    not sum to 1.

    Raises:
        ValueError: if the requirement is infeasible.
    """
    return _ratios(_checked(errors), req)


def _ratios(values: np.ndarray, req: PrivacyRequirement) -> tuple[float, float]:
    rng = error_range_for_requirement(req)
    if rng.kind is RangeKind.INFEASIBLE:
        raise ValueError(
            f"requirement max_leak_prob={req.max_leak_prob!r} below the attainable "
            f"minimum {min_leak_prob_error(req.epsilon)!r}"
        )
    half = math.pi / 2
    tradeoff = float(np.mean((values >= rng.lo) & (values <= half)))
    consistency = float(np.mean((values >= half) & (values <= rng.hi)))
    return tradeoff, consistency


class RegionBounds(Record):
    """The five streamed-cap radius regions of the average-leakage sweep.

    In increasing radius: rising (below ``r_fov - eps``), falling, the
    constant plateau around ``r_fov`` of half-width ``arcsin(eps/pi)``,
    rising again (up to ``r_fov + eps``), and falling out to ``pi``.
    """

    i1: tuple[float, float]
    d2: tuple[float, float]
    c: tuple[float, float]
    i2: tuple[float, float]
    d1: tuple[float, float]


def leakage_regions(r_fov: float, eps: float) -> RegionBounds:
    """Region boundaries of the average QoE-upload leakage in ``r_sv``."""
    fov = FOV.check(r_fov)
    eps = _SWEEP_EPSILON.check(eps, hi=fov)
    plateau = math.asin(eps / math.pi)
    return RegionBounds(
        i1=(0.0, fov - eps),
        d2=(fov - eps, fov - plateau),
        c=(fov - plateau, fov + plateau),
        i2=(fov + plateau, fov + eps),
        d1=(fov + eps, math.pi),
    )


class SweepTable(Record, eq=False):
    """Average leakage decomposition over a grid of streamed-cap radii.

    One row per radius.  The columns of ``ratios`` (the fraction of errors
    in each case) and ``components`` (each case's contribution to the
    average leakage, summing to ``total``) are the cases of `CASES` in code
    order; a case the radius does not report (`reported`) reads 0.0.
    """

    r_sv: np.ndarray
    ratios: np.ndarray
    components: np.ndarray
    total: np.ndarray
    mean_qoe: np.ndarray

    def __len__(self) -> int:
        return self.r_sv.size

    @property
    def reported(self) -> np.ndarray:
        """Per radius, its own case at 0 and pi, else the five partition cases."""
        empty, full = self.r_sv == 0.0, self.r_sv == math.pi
        return np.column_stack([~(empty | full)] * len(PARTITION_CASES) + [empty, full])


def _run_ends(e: np.ndarray, fov: float, sv: np.ndarray) -> tuple:
    """The sweep's geometry stage: where each radius's case runs end in sorted ``e``.

    Returns the rows ``(near, b, d, c)``: at radius ``sv[i]`` the errors
    ``e[:b[i]]`` are in its nested case ``near[i]`` (only one is live at a
    radius), ``e[b[i]:d[i]]`` in the partial-overlap one, ``e[d[i]:c[i]]``
    in complement containment and ``e[c[i]:]`` disjoint.  It reads neither
    the protection radius nor the lens.  The ends ``b`` and ``d`` start at
    their thresholds, the ends of `qoe._partial_interval`, found by
    `searchsorted`; a degenerate cap's one run holds every error, so its
    ends start at ``e.size``.  Then every end moves over whole runs of equal
    errors until `_classify_codes` agrees: down while the error below it is
    outside its run, else up while the error at it is inside (the threshold
    and the case tests differ for errors within an ulp of the boundary).
    Each step asks `_classify_codes` once, for the ends still moving.  The
    disjoint run starts where the errors reach ``r_fov + r_sv``, not before
    ``d``.
    """
    near = _classify_codes(fov, sv, 0.0)
    starts = np.searchsorted(e, _partial_interval(fov, sv), side="right")
    ends = np.where((sv == 0.0) | (sv == math.pi), e.size, starts).ravel()
    # errors below b are in the case `near`, those below d in `near` or `_REMAINING`
    radii, nears = np.tile(sv, 2), np.tile(near, 2)
    also = np.concatenate([near, np.full_like(near, _REMAINING)])
    for down in (True, False):
        k = np.flatnonzero(ends > 0 if down else ends < e.size)
        while k.size:
            x = e[ends[k] - 1] if down else e[ends[k]]
            codes = _classify_codes(fov, radii[k], x)
            step = ((codes == nears[k]) | (codes == also[k])) != down
            k, x = k[step], x[step]
            ends[k] = np.searchsorted(e, x, side="left" if down else "right")
            k = k[ends[k] > 0] if down else k[ends[k] < e.size]
    b, d = ends.reshape(2, -1)
    return near, b, d, np.maximum(d, np.searchsorted(e, fov + sv, side="left"))


def _lens_sums(e: np.ndarray, fov: float, sv: np.ndarray, b: np.ndarray, d: np.ndarray):
    """Per radius, the sum of the lens area over its partial-overlap run ``e[b:d]``.

    0 where the run is empty.  The errors that some run holds are walked in
    blocks of `_LENS_BLOCK`: each block's cosine and sine, and their
    products with the field of view's, are taken once, into rows allocated
    once, and every run that meets the block adds twice the sum of
    `sphere._half_lens` over its part, unclamped, or clamped where that sum
    is NaN (an arccos argument rounded past ±1): each element is
    `sphere.lens_area`'s bit for bit.  The memory held does not grow with
    the population.
    """
    lens, runs = np.zeros(sv.size), np.flatnonzero(d > b)
    if not runs.size:
        return lens
    b, d = b[runs], d[runs]
    # one row of radius terms per radius; c1 and s1 are the same on every row
    terms = np.column_stack(np.broadcast_arrays(*lens_terms(fov, sv[runs])))
    c1, s1, terms = terms[0, 0], terms[0, 2], terms.tolist()
    lo, hi = int(b.min()), int(d.max())
    rows = np.empty((7, min(hi - lo, _LENS_BLOCK)))  # the block's trigonometry, then work rows
    for start in range(lo, hi, _LENS_BLOCK):
        stop = min(start + _LENS_BLOCK, hi)
        cos_e, sin_e, cos_e_c1, sin_e_s1 = rows[:4, : stop - start]
        np.cos(e[start:stop], out=cos_e)
        np.sin(e[start:stop], out=sin_e)
        np.multiply(cos_e, c1, out=cos_e_c1)
        np.multiply(sin_e, s1, out=sin_e_s1)
        for k in np.flatnonzero((b < stop) & (d > start)).tolist():
            run = slice(max(b[k], start) - start, min(d[k], stop) - start)
            args = (terms[k], cos_e[run], sin_e[run], cos_e_c1[run], sin_e_s1[run])
            work = rows[4:, : run.stop - run.start]
            part = _half_lens(*args, work, clip=False).sum()
            if math.isnan(part):
                part = _half_lens(*args, work, clip=True).sum()
            lens[runs[k]] += 2.0 * part
    return lens


def average_leakage_sweep(
    errors: Sequence[float] | np.ndarray,
    r_fov: float,
    eps: float,
    r_sv_grid: Sequence[float] | np.ndarray,
) -> SweepTable:
    """Average QoE-upload leakage over the error population per radius.

    The inputs are checked and the errors sorted once: a sorted float64
    array is taken as it is, and any other into a sorted copy, so the
    caller's errors are never changed.  At each radius the
    cases are runs of the sorted errors, in the order nested, partial
    overlap, complement containment, disjoint, and three stages make the
    columns over the grid: `_run_ends` finds the run ends of all radii
    together, from the geometry alone; `_lens_sums` sums the lens area of
    each radius's partial-overlap run, a block of errors at a time, which
    with the constant cases' QoE gives ``mean_qoe``; and `_leakage_odds`,
    the only stage that reads ``eps``, gives ``ratios``, ``components`` and
    ``total`` from the constant cases' odds (`cap_zone`) and a prefix sum of
    the partial-overlap leakage.  The lens runs first, so its arrays are
    freed before the prefix sum is made.  Each lens value is
    `sphere.lens_area`'s bit for bit, clamped to the smaller cap, so the
    run's sum is divided by the field of view's area once, with no clip.
    Rows follow the grid order.

    Args:
        errors: prediction errors in radians, all in [0, pi].
        r_fov: field-of-view radius in (0, pi/2].
        eps: protection radius in (0, r_fov].
        r_sv_grid: streamed-cap radii in [0, pi]; the degenerate endpoints
            0 and pi are allowed and reported as their own case.
    """
    fov = FOV.check(r_fov)
    eps = _SWEEP_EPSILON.check(eps, hi=fov)
    e = _population(errors)
    sv = STREAMED_RADIUS.check_array(np.array(r_sv_grid, dtype=float))
    near, b, d, c = _run_ends(e, fov, sv)
    # the lens before the odds, so its arrays are freed before the prefix sum is made;
    # QoE is constant on each run but the partial-overlap one
    lens = _lens_sums(e, fov, sv, b, d)
    case_qoe = _case_qoe(np.cos(fov), np.cos(sv))
    qoe_near, qoe_far = np.choose(near, case_qoe), case_qoe[_COMPLEMENT]
    mean_qoe = (b * qoe_near + (c - d) * qoe_far + lens / cap_area(fov)) / e.size
    return SweepTable(sv, *_leakage_odds(e, fov, eps, sv, near, b, d, c), mean_qoe)


def _leakage_odds(e: np.ndarray, fov: float, eps: float, sv: np.ndarray, near, b, d, c) -> tuple:
    """The sweep's one stage that reads ``eps``: rows ``(ratios, components, total)``.

    From the runs of `_run_ends`, each case's ratio is its run's length
    over the population.  The nested run and the two far runs take their
    `cap_zone` odds, which the far cases share, times their ratios; the
    partial-overlap run's component is the difference of one prefix sum of
    the sorted errors' error-upload leakage, which is made in the one array
    it ends in.  ``total`` adds the components in case order.
    """
    n, rows, far = e.size, np.arange(sv.size), [_DISJOINT, _COMPLEMENT]
    leak_csum = np.zeros(n + 1)
    np.cumsum(_error_upload_prob(e, eps, out=leak_csum[1:]), out=leak_csum[1:])
    ratios, components = np.zeros((2, sv.size, len(CASES)))
    ratios[rows, near] = b / n
    ratios[:, far + [_REMAINING]] = np.column_stack([n - c, c - d, d - b]) / n
    prob_near, prob_far = (cap_zone(fov, sv, eps, code)[1] for code in (near, _COMPLEMENT))
    components[rows, near] = prob_near * ratios[rows, near]
    components[:, far] = prob_far[:, None] * ratios[:, far]
    components[:, _REMAINING] = (leak_csum[d] - leak_csum[b]) / n
    return ratios, components, sum(components.T)  # a running sum, in case order


class AggregateReport(Record):
    """Full aggregate view of one error population.

    ``mean_error_subset``, ``gamma_tradeoff`` and ``gamma_consist`` are
    None when no privacy requirement was supplied.
    """

    n_samples: int
    r_fov: float
    epsilon: float
    regions: RegionBounds
    sweep: SweepTable
    mean_error_subset: float | None = None
    gamma_tradeoff: float | None = None
    gamma_consist: float | None = None


def build_report(
    errors: Sequence[float] | np.ndarray,
    r_fov: float,
    eps: float,
    r_sv_grid: Sequence[float] | np.ndarray,
    req: PrivacyRequirement | None = None,
) -> AggregateReport:
    """Run the full aggregate pipeline over one error population.

    The errors are checked once, by `average_leakage_sweep`, which takes a
    sorted float64 array as it is and sorts any other into a copy, so the
    caller's errors are never changed; the requirement statistics then read
    them unchecked.  The subset's mean is taken over its errors in
    increasing order, so a population reads the same bits in any order.
    """
    sweep = average_leakage_sweep(errors, r_fov, eps, r_sv_grid)
    values = np.asarray(errors, dtype=float)
    mean_error = gamma_t = gamma_c = None
    if req is not None:
        gamma_t, gamma_c = _ratios(values, req)
        subset = _within(values, error_range_for_requirement(req))
        subset.sort()
        mean_error = float(subset.mean()) if subset.size else math.nan
    return AggregateReport(
        n_samples=int(values.size),
        r_fov=float(r_fov),
        epsilon=float(eps),
        regions=leakage_regions(r_fov, eps),
        sweep=sweep,
        mean_error_subset=mean_error,
        gamma_tradeoff=gamma_t,
        gamma_consist=gamma_c,
    )
