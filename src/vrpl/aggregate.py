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
probabilities.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .leakage import (
    ErrorRange,
    PrivacyRequirement,
    RangeKind,
    cap_zone,
    error_range_for_requirement,
)
from .qoe import OverlapCase, _validate_fov
from .sphere import TWO_PI, cap_overlap_area_vec
from .traces import ErrorSample


def _error_values(errors: Sequence[ErrorSample] | Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce error samples or raw radians to a validated float array."""
    if isinstance(errors, np.ndarray):
        arr = errors.astype(float)
    else:
        arr = np.array(
            [e.error if isinstance(e, ErrorSample) else float(e) for e in errors], dtype=float
        )
    if arr.size == 0:
        raise ValueError("no error samples given")
    if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > math.pi:
        raise ValueError("error samples must lie in [0, pi]")
    return arr


@dataclass(frozen=True)
class ErrorSubset:
    """Errors compatible with a privacy requirement under error upload."""

    feasible: bool
    errors: np.ndarray
    mean: float  # nan when the subset is empty or infeasible
    error_range: ErrorRange


def error_subset_for_requirement(
    errors: Sequence[ErrorSample] | Sequence[float] | np.ndarray, req: PrivacyRequirement
) -> ErrorSubset:
    """Select the errors whose error-upload leakage meets the requirement."""
    values = _error_values(errors)
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
    errors: Sequence[ErrorSample] | Sequence[float] | np.ndarray, req: PrivacyRequirement
) -> tuple[float, float]:
    """Fractions of errors in the tradeoff and consistency sub-intervals.

    Within the feasible interval ``[e_lo, pi - e_lo]`` (with
    ``e_lo = arcsin(eps / (max_leak_prob * pi))``), leakage falls while QoE
    falls for errors up to ``pi/2`` (privacy traded against quality) and
    both move together beyond it.  The two fractions are over all errors;
    an error of exactly ``pi/2`` counts in both, so they need not sum to 1.

    Raises:
        ValueError: if the requirement is infeasible.
    """
    values = _error_values(errors)
    if req.max_leak_prob < req.epsilon / math.pi:
        raise ValueError(
            f"requirement max_leak_prob={req.max_leak_prob!r} below the attainable "
            f"minimum {req.epsilon / math.pi!r}"
        )
    e_lo = math.asin(min(req.epsilon / (req.max_leak_prob * math.pi), 1.0)) if req.max_leak_prob > 0 else 0.0
    e_hi = math.pi - e_lo
    half = math.pi / 2
    tradeoff = float(np.mean((values >= e_lo) & (values <= half)))
    consistency = float(np.mean((values >= half) & (values <= e_hi)))
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
    fov = _validate_fov(r_fov)
    if not (math.isfinite(eps) and 0.0 < eps <= fov):
        raise ValueError(f"protection radius {eps!r} outside (0, r_fov]")
    plateau = math.asin(eps / math.pi)
    return RegionBounds(
        i1=(0.0, fov - eps),
        d2=(fov - eps, fov - plateau),
        c=(fov - plateau, fov + plateau),
        i2=(fov + plateau, fov + eps),
        d1=(fov + eps, math.pi),
    )


@dataclass(frozen=True)
class SweepPoint:
    """Average leakage decomposition at one streamed-cap radius.

    ``case_ratios`` holds the fraction of errors classified into each
    case; away from the degenerate radii the five partition cases sum to
    one.  ``leakage_components`` are the per-case contributions to the
    average leakage probability and sum to ``leakage_total``.
    """

    r_sv: float
    case_ratios: dict[OverlapCase, float]
    leakage_components: dict[OverlapCase, float]
    leakage_total: float
    mean_qoe: float


def _sweep_point(e: np.ndarray, fov: float, eps: float, sv: float) -> SweepPoint:
    """Evaluate classification, leakage and QoE averages at one radius."""
    n = e.size
    min_qoe_leak = (1.0 - math.cos(eps)) / 2.0
    if sv == 0.0:
        return SweepPoint(
            sv,
            {OverlapCase.DEGENERATE_EMPTY: 1.0},
            {OverlapCase.DEGENERATE_EMPTY: min_qoe_leak},
            min_qoe_leak,
            0.0,
        )
    if sv == math.pi:
        return SweepPoint(
            sv,
            {OverlapCase.DEGENERATE_FULL: 1.0},
            {OverlapCase.DEGENERATE_FULL: min_qoe_leak},
            min_qoe_leak,
            1.0,
        )
    # masks in boundary-tie precedence order
    m_a = e <= sv - fov
    m_b = ~m_a & (e <= fov - sv)
    m_c = ~m_a & ~m_b & (e >= fov + sv)
    m_d = ~m_a & ~m_b & ~m_c & (fov + sv + e >= TWO_PI)
    m_rm = ~(m_a | m_b | m_c | m_d)
    ratios = {
        OverlapCase.FOV_IN_SFOV: np.count_nonzero(m_a) / n,
        OverlapCase.SFOV_IN_FOV: np.count_nonzero(m_b) / n,
        OverlapCase.DISJOINT: np.count_nonzero(m_c) / n,
        OverlapCase.SFOV_COMPLEMENT_IN_FOV: np.count_nonzero(m_d) / n,
        OverlapCase.REMAINING: np.count_nonzero(m_rm) / n,
    }

    _, prob_contained = cap_zone(fov, sv, eps, True)
    _, prob_far = cap_zone(fov, sv, eps, False)
    e_rm = e[m_rm]
    rm_probs = np.minimum(eps / (math.pi * np.sin(e_rm)), 1.0) if e_rm.size else np.empty(0)
    components = {
        OverlapCase.FOV_IN_SFOV: prob_contained * ratios[OverlapCase.FOV_IN_SFOV],
        OverlapCase.SFOV_IN_FOV: prob_contained * ratios[OverlapCase.SFOV_IN_FOV],
        OverlapCase.DISJOINT: prob_far * ratios[OverlapCase.DISJOINT],
        OverlapCase.SFOV_COMPLEMENT_IN_FOV: prob_far * ratios[OverlapCase.SFOV_COMPLEMENT_IN_FOV],
        OverlapCase.REMAINING: float(rm_probs.sum()) / n,
    }
    total = sum(components.values())

    fov_area_frac = 1.0 - math.cos(fov)
    qoe_sum = (
        np.count_nonzero(m_a) * 1.0
        + np.count_nonzero(m_b) * ((1.0 - math.cos(sv)) / fov_area_frac)
        + np.count_nonzero(m_d) * ((-math.cos(sv) - math.cos(fov)) / fov_area_frac)
    )
    if e_rm.size:
        overlap = cap_overlap_area_vec(fov, sv, e_rm)
        qoe_sum += float(np.clip(overlap / (TWO_PI * fov_area_frac), 0.0, 1.0).sum())
    return SweepPoint(sv, ratios, components, total, qoe_sum / n)


def average_leakage_sweep(
    errors: Sequence[ErrorSample] | Sequence[float] | np.ndarray,
    r_fov: float,
    eps: float,
    r_sv_grid: Iterable[float],
    workers: int | None = None,
) -> list[SweepPoint]:
    """Average QoE-upload leakage over the error population per radius.

    Each grid radius is evaluated independently (optionally on a thread
    pool); output order always follows the grid order.

    Args:
        errors: error samples (or raw radians), all in [0, pi].
        r_fov: field-of-view radius in (0, pi/2].
        eps: protection radius in (0, r_fov].
        r_sv_grid: streamed-cap radii in [0, pi]; the degenerate endpoints
            0 and pi are allowed and reported as their own case.
        workers: thread count; None or 1 evaluates serially.
    """
    fov = _validate_fov(r_fov)
    if not (math.isfinite(eps) and 0.0 < eps <= fov):
        raise ValueError(f"protection radius {eps!r} outside (0, r_fov]")
    values = _error_values(errors)
    grid = [float(r) for r in r_sv_grid]
    for r in grid:
        if not (math.isfinite(r) and 0.0 <= r <= math.pi):
            raise ValueError(f"streamed-cap radius {r!r} outside [0, pi]")
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda r: _sweep_point(values, fov, eps, r), grid))
    return [_sweep_point(values, fov, eps, r) for r in grid]


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
    points: tuple[SweepPoint, ...]
    mean_error_subset: float | None = None
    gamma_tradeoff: float | None = None
    gamma_consist: float | None = None


def build_report(
    errors: Sequence[ErrorSample] | Sequence[float] | np.ndarray,
    r_fov: float,
    eps: float,
    r_sv_grid: Iterable[float],
    req: PrivacyRequirement | None = None,
    workers: int | None = None,
) -> AggregateReport:
    """Run the full aggregate pipeline over one error population."""
    values = _error_values(errors)
    points = average_leakage_sweep(values, r_fov, eps, r_sv_grid, workers=workers)
    mean_error = gamma_t = gamma_c = None
    if req is not None:
        subset = error_subset_for_requirement(values, req)
        mean_error = subset.mean
        gamma_t, gamma_c = tradeoff_consistency_ratios(values, req)
    return AggregateReport(
        n_samples=int(values.size),
        r_fov=float(r_fov),
        epsilon=float(eps),
        regions=leakage_regions(r_fov, eps),
        points=tuple(points),
        mean_error_subset=mean_error,
        gamma_tradeoff=gamma_t,
        gamma_consist=gamma_c,
    )
