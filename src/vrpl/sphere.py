"""Spherical geometry primitives.

Points live on the unit sphere and are addressed by longitude/latitude in
radians: longitude ``theta`` in [-pi, pi), latitude ``phi`` in
[-pi/2, pi/2] with zero at the equator.  A cap of angular radius ``r``
around a center point is the set of points within orthodromic distance
``r`` of the center.  All areas are on the unit sphere, so the full
sphere has area ``4*pi``.

The closed-form cap/cap overlap area is cross-checked by a seeded
Monte-Carlo estimator (`mc_cap_overlap`) that shares no code with the
analytic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
SPHERE_AREA = 4.0 * math.pi


def _wrap_longitude(theta: float) -> float:
    """Map an angle to the canonical longitude range [-pi, pi)."""
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


@dataclass(frozen=True)
class SphericalPoint:
    """Point on the unit sphere; longitude is normalized on construction."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"non-finite coordinates ({self.theta!r}, {self.phi!r})")
        if not -math.pi / 2 <= self.phi <= math.pi / 2:
            raise ValueError(f"latitude {self.phi!r} outside [-pi/2, pi/2]")
        object.__setattr__(self, "theta", _wrap_longitude(float(self.theta)))
        object.__setattr__(self, "phi", float(self.phi))


@dataclass(frozen=True)
class CapRadius:
    """Angular radius of a spherical cap, constrained to [0, pi]."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (math.isfinite(v) and 0.0 <= v <= math.pi):
            raise ValueError(f"cap radius {self.value!r} outside [0, pi]")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def _radius(r: CapRadius | float) -> float:
    """Coerce a cap radius argument to a validated float."""
    if isinstance(r, CapRadius):
        return r.value
    v = float(r)
    if not (math.isfinite(v) and 0.0 <= v <= math.pi):
        raise ValueError(f"cap radius {r!r} outside [0, pi]")
    return v


def spherical_distance(a: SphericalPoint, b: SphericalPoint) -> float:
    """Orthodromic (great-circle) distance between two points, in [0, pi].

    The spherical law of cosines is evaluated with its argument clamped to
    [-1, 1] so rounding near coincident or antipodal pairs cannot produce
    a domain error.
    """
    cos_dist = math.cos(a.phi) * math.cos(b.phi) * math.cos(abs(a.theta - b.theta)) + math.sin(
        a.phi
    ) * math.sin(b.phi)
    return math.acos(min(1.0, max(-1.0, cos_dist)))


def cap_area(r: CapRadius | float) -> float:
    """Area of a spherical cap of angular radius ``r``: 2*pi*(1 - cos r)."""
    return TWO_PI * (1.0 - math.cos(_radius(r)))


def _lens_area(r1: float, r2: float, d: float) -> float:
    """Overlap area of two partially intersecting caps (scalar fast path).

    Valid only strictly inside the partial-overlap regime, where all three
    sines are positive.  Arccos arguments are clamped against rounding.
    """

    def _acos(x: float) -> float:
        return math.acos(min(1.0, max(-1.0, x)))

    c1, c2, cd = math.cos(r1), math.cos(r2), math.cos(d)
    s1, s2, sd = math.sin(r1), math.sin(r2), math.sin(d)
    return (
        TWO_PI
        - TWO_PI * c1
        - TWO_PI * c2
        - 2.0 * _acos((cd - c1 * c2) / (s1 * s2))
        + 2.0 * c1 * _acos((-c2 + cd * c1) / (sd * s1))
        + 2.0 * c2 * _acos((-c1 + cd * c2) / (sd * s2))
    )


def cap_overlap_area(r1: CapRadius | float, r2: CapRadius | float, d: float) -> float:
    """Overlap area of two caps of radii ``r1`` and ``r2`` at center distance ``d``.

    Total over all configurations: containment returns the smaller cap's
    area, disjoint caps return zero, caps whose union covers the sphere
    (r1 + r2 + d >= 2*pi) return area(r1) + area(r2) - 4*pi, and the
    partial-overlap regime evaluates the closed-form lens area.  Boundary
    ties resolve to the closed case tested first, in the order
    containment-of-1, containment-of-2, disjoint, covering.

    Args:
        r1, r2: cap radii in [0, pi].
        d: center separation in [0, pi].

    Returns:
        Overlap area in [0, min(area(r1), area(r2))].
    """
    a, b = _radius(r1), _radius(r2)
    dist = float(d)
    if not (math.isfinite(dist) and 0.0 <= dist <= math.pi):
        raise ValueError(f"center distance {d!r} outside [0, pi]")
    if b >= a + dist:
        return cap_area(a)
    if a >= b + dist:
        return cap_area(b)
    if dist >= a + b:
        return 0.0
    if a + b + dist >= TWO_PI:
        return cap_area(a) + cap_area(b) - SPHERE_AREA
    raw = _lens_area(a, b, dist)
    return min(max(raw, 0.0), min(cap_area(a), cap_area(b)))


def cap_overlap_area_vec(r1, r2, d) -> np.ndarray:
    """Vectorized `cap_overlap_area` over numpy-broadcastable inputs.

    Identical case logic and lens expression as the scalar path; intended
    for sweeps over many configurations at once.  The trigonometry runs on
    each input before broadcasting, so a scalar radius costs one ``cos``
    and one ``sin``, not one per element.
    """
    a, b, dist = (np.asarray(x, dtype=float) for x in (r1, r2, d))
    c1, c2, cd = np.cos(a), np.cos(b), np.cos(dist)
    s1, s2, sd = np.sin(a), np.sin(b), np.sin(dist)
    area_a = TWO_PI * (1.0 - c1)
    area_b = TWO_PI * (1.0 - c2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = np.arccos(np.clip((cd - c1 * c2) / (s1 * s2), -1.0, 1.0))
        t1 = np.arccos(np.clip((-c2 + cd * c1) / (sd * s1), -1.0, 1.0))
        t2 = np.arccos(np.clip((-c1 + cd * c2) / (sd * s2), -1.0, 1.0))
        lens = TWO_PI - TWO_PI * c1 - TWO_PI * c2 - 2.0 * t0 + 2.0 * c1 * t1 + 2.0 * c2 * t2
    lens = np.minimum(np.maximum(lens, 0.0), np.minimum(area_a, area_b))
    return np.select(
        [b >= a + dist, a >= b + dist, dist >= a + b, a + b + dist >= TWO_PI],
        [area_a, area_b, 0.0, area_a + area_b - SPHERE_AREA],
        default=lens,
    )


def mc_cap_overlap(
    r1: CapRadius | float, r2: CapRadius | float, d: float, n: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the cap/cap overlap area.

    One cap is centered at the north pole and the other at latitude
    ``pi/2 - d`` on the same meridian; uniform samples are counted when
    they land in both caps.

    Args:
        r1, r2: cap radii in [0, pi].
        d: center separation in [0, pi].
        n: number of samples, >= 1.
        seed: RNG seed; identical seeds give identical estimates.

    Returns:
        (estimate, std_error) where estimate = 4*pi * hit_fraction and
        std_error is the binomial standard error scaled by 4*pi.
    """
    a, b = _radius(r1), _radius(r2)
    dist = float(d)
    if not (math.isfinite(dist) and 0.0 <= dist <= math.pi):
        raise ValueError(f"center distance {d!r} outside [0, pi]")
    if n < 1:
        raise ValueError(f"sample count {n!r} must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n)  # sine of latitude
    theta = rng.uniform(-math.pi, math.pi, n)
    # cos(distance to second center) via the law of cosines; cos(lat) >= 0
    cos_d2 = np.sqrt(1.0 - z * z) * math.sin(dist) * np.cos(theta) + z * math.cos(dist)
    hits = np.count_nonzero((z >= math.cos(a)) & (cos_d2 >= math.cos(b)))
    p = hits / n
    estimate = SPHERE_AREA * p
    std_error = SPHERE_AREA * math.sqrt(p * (1.0 - p) / n)
    return estimate, std_error
