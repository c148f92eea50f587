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
probabilities.  At a fixed radius every case is an interval of errors
that ends where `classify` changes, and the partial-overlap leakage does
not depend on the radius, so the sweep sorts the errors and sums their
leakage once for the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .leakage import (
    ErrorRange,
    PrivacyRequirement,
    RangeKind,
    _leak_from_checked_errors,
    cap_zone,
    error_range_for_requirement,
    min_leak_prob_error,
    min_leak_prob_qoe,
)
from .qoe import CASE_CODE, CASES, PARTITION_CASES, classify, qoe
from .sphere import EPSILON, ERROR, FOV, STREAMED_RADIUS, TWO_PI, cap_area, cap_overlap_area_vec

#: The population sweep and its regions take a protection radius above 0 only.
_SWEEP_EPSILON = replace(EPSILON, open_lo=True)

#: The partition cases after the two nested ones, in `PARTITION_CASES` order.
_DISJOINT, _COMPLEMENT, _REMAINING = PARTITION_CASES[2:]


def _population(errors: Sequence[float] | np.ndarray) -> np.ndarray:
    """A checked copy of a non-empty population of prediction errors."""
    values = ERROR.check_array(np.array(errors, dtype=float))
    if not values.size:
        raise ValueError("no error samples given")
    return values


@dataclass(frozen=True)
class ErrorSubset:
    """Errors compatible with a privacy requirement under error upload."""

    feasible: bool
    errors: np.ndarray
    mean: float  # nan when the subset is empty or infeasible
    error_range: ErrorRange


def error_subset_for_requirement(
    errors: Sequence[float] | np.ndarray, req: PrivacyRequirement
) -> ErrorSubset:
    """Select the errors whose error-upload leakage meets the requirement."""
    return _subset(_population(errors), req)


def _subset(values: np.ndarray, req: PrivacyRequirement) -> ErrorSubset:
    rng = error_range_for_requirement(req)
    if rng.kind is RangeKind.INFEASIBLE:
        return ErrorSubset(False, np.empty(0), math.nan, rng)
    if rng.kind is RangeKind.FULL:
        subset = values
    else:
        subset = values[(values >= rng.lo) & (values <= rng.hi)]
    mean = float(subset.mean()) if subset.size else math.nan
    return ErrorSubset(True, subset, mean, rng)


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
    return _ratios(_population(errors), req)


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


@dataclass(frozen=True)
class RegionBounds:
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


@dataclass(frozen=True, eq=False)
class SweepTable:
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


def _sweep_row(
    table: SweepTable, i: int, e: np.ndarray, leak_csum: np.ndarray, trig: tuple, fov: float, eps: float
) -> None:
    """Fill row ``i`` of ``table`` with the averages at its radius.

    ``e`` is sorted, and ``leak_csum[k]`` is the sum of the error-upload
    leakage ``min(eps / (pi sin e), 1)`` over ``e[:k]``.  At a fixed radius
    every case is a contiguous run of ``e``, and each run ends where
    `classify` changes, so the closed-tie order is its own.  ``trig`` holds
    the cosine and sine of ``e`` and the lens work rows (`average_leakage_sweep`).
    """
    n, sv = e.size, float(table.r_sv[i])
    near = classify(fov, sv, 0.0)
    if sv == 0.0 or sv == math.pi:
        # a degenerate cap: every error shares one case, leakage and QoE
        table.ratios[i, CASE_CODE[near]] = 1.0
        table.components[i, CASE_CODE[near]] = table.total[i] = min_leak_prob_qoe(eps)
        table.mean_qoe[i] = qoe(fov, sv, 0.0)
        return
    # Runs in e: [0, b) the nested case `near` (only one is live at a radius),
    # [b, d) remaining, [d, c) sfov_complement_in_fov and [c, n) disjoint,
    # each ending where `classify` changes.
    s = fov + sv
    b = _split(e, abs(sv - fov), lambda x: classify(fov, sv, x) is near)
    d = _split(e, min(s, TWO_PI - s), lambda x: classify(fov, sv, x) in (near, _REMAINING))
    c = max(d, int(np.searchsorted(e, s, side="left")))
    counts = dict.fromkeys(PARTITION_CASES, 0)
    counts.update({near: b, _DISJOINT: n - c, _COMPLEMENT: c - d, _REMAINING: d - b})
    ratios = [count / n for count in counts.values()]

    prob_near, prob_far = (cap_zone(fov, sv, eps, nested)[1] for nested in (True, False))
    probs = {_DISJOINT: prob_far, _COMPLEMENT: prob_far}
    components = [probs.get(case, prob_near) * ratio for case, ratio in zip(counts, ratios)]
    components[-1] = float(leak_csum[d] - leak_csum[b]) / n  # _REMAINING, the last
    table.ratios[i, : len(ratios)], table.components[i, : len(ratios)] = ratios, components
    table.total[i] = sum(components)

    # QoE is constant on each run but the partial-overlap one.
    qoe_sum = 0.0
    for lo, hi in ((0, b), (d, c)):
        if hi > lo:
            qoe_sum += (hi - lo) * qoe(fov, sv, e[lo])
    if d > b:
        cos_e, sin_e, work = trig
        overlap = cap_overlap_area_vec(fov, sv, cos_e[b:d], sin_e[b:d], work[:, : d - b])
        np.divide(overlap, cap_area(fov), out=overlap)
        qoe_sum += float(np.clip(overlap, 0.0, 1.0, out=overlap).sum())
    table.mean_qoe[i] = qoe_sum / n


def _split(e: np.ndarray, guess: float, holds: Callable[[float], bool]) -> int:
    """First index of sorted ``e`` where ``holds`` fails; it holds on a prefix.

    ``guess`` is the threshold ``holds`` tests up to rounding: `searchsorted`
    finds it, then the index moves over whole runs of equal values until
    ``holds`` agrees (``e <= |sv - fov|`` and `classify` giving a nested
    case, say, differ for errors within an ulp of the boundary).
    """
    i = int(np.searchsorted(e, guess, side="right"))
    while i > 0 and not holds(e[i - 1]):
        i = int(np.searchsorted(e, e[i - 1], side="left"))
    while i < e.size and holds(e[i]):
        i = int(np.searchsorted(e, e[i], side="right"))
    return i


def average_leakage_sweep(
    errors: Sequence[float] | np.ndarray,
    r_fov: float,
    eps: float,
    r_sv_grid: Iterable[float],
) -> SweepTable:
    """Average QoE-upload leakage over the error population per radius.

    The errors are sorted once, with a running sum of their error-upload
    leakage, and their cosine and sine are taken once; each radius then
    needs a few binary searches, one prefix-sum difference, and the lens
    area of its partial-overlap errors only, evaluated in place in work
    rows allocated once for the grid.  Rows follow the grid order.

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
    grid = STREAMED_RADIUS.check_array(list(r_sv_grid))
    e.sort()
    leak_csum = np.zeros(e.size + 1)
    np.cumsum(_leak_from_checked_errors(e, eps).probability, out=leak_csum[1:])
    trig = np.cos(e), np.sin(e), np.empty((3, e.size))
    table = SweepTable(grid, *np.zeros((2, grid.size, len(CASES))), *np.empty((2, grid.size)))
    for i in range(grid.size):
        _sweep_row(table, i, e, leak_csum, trig, fov, eps)
    return table


@dataclass(frozen=True)
class AggregateReport:
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
    r_sv_grid: Iterable[float],
    req: PrivacyRequirement | None = None,
) -> AggregateReport:
    """Run the full aggregate pipeline over one error population.

    The errors are checked once, by `average_leakage_sweep`; the
    requirement statistics then read them unchecked.
    """
    sweep = average_leakage_sweep(errors, r_fov, eps, r_sv_grid)
    values = np.asarray(errors, dtype=float)
    mean_error = gamma_t = gamma_c = None
    if req is not None:
        mean_error = _subset(values, req).mean
        gamma_t, gamma_c = _ratios(values, req)
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
