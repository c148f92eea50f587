"""Shared samplers for the test suite.

Random configurations are drawn with seeded generators so every run is
reproducible; margins keep sampled configurations away from case
boundaries where a different branch could legitimately answer.
"""

from __future__ import annotations

import math

import numpy as np

from vrpl.traces import GreatCircleDrift, MotionModel

TWO_PI = 2.0 * math.pi


def random_partial_overlap_triples(
    rng: np.random.Generator,
    n: int,
    margin: float = 1e-3,
    r1_range: tuple[float, float] = (0.05, math.pi - 0.05),
) -> list[tuple[float, float, float]]:
    """Sample (r1, r2, d) strictly inside the partial-overlap regime.

    ``d`` stays at least ``margin`` away from every case boundary.
    """
    out: list[tuple[float, float, float]] = []
    while len(out) < n:
        r1 = rng.uniform(*r1_range)
        r2 = rng.uniform(0.05, math.pi - 0.05)
        lo = abs(r1 - r2) + margin
        hi = min(r1 + r2, TWO_PI - r1 - r2) - margin
        if hi <= lo:
            continue
        out.append((r1, r2, rng.uniform(lo, hi)))
    return out


def random_view_triples(
    rng: np.random.Generator, n: int, margin: float = 1e-3
) -> list[tuple[float, float, float]]:
    """Sample (r_fov, r_sv, e) strictly inside the partial-overlap case,
    with the field-of-view radius restricted to its API range."""
    return [
        (r1, r2, d)
        for r1, r2, d in random_partial_overlap_triples(
            rng, n, margin=margin, r1_range=(0.2, math.pi / 2)
        )
    ]


# ---------------------------------------------------------------------------
# scalar reference of synthetic trace generation


def _scalar_point(rng: np.random.Generator) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0)
    t = rng.uniform(-math.pi, math.pi)
    c = math.sqrt(1.0 - z * z)
    return np.array([c * math.cos(t), c * math.sin(t), z])


def _scalar_tangent(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector orthogonal to ``v``, redrawn when degenerate."""
    while True:
        w = _scalar_point(rng)
        w = w - np.dot(w, v) * v
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            return w / norm


def scalar_synthetic_unit_vectors(
    model: MotionModel, n_traces: int, duration: float, rate: float, seed: int
) -> list[np.ndarray]:
    """Unit vectors (sample, xyz) per trace, one scalar draw and step at a time.

    This is the per-step loop `generate_synthetic_traces` replaced; it draws
    the same numbers in the same order except after a degenerate tangent,
    which it redraws.
    """
    rng = np.random.default_rng(seed)
    n = round(duration * rate)
    out = []
    for _ in range(n_traces):
        v = _scalar_point(rng)
        if isinstance(model, GreatCircleDrift):
            tangent = _scalar_tangent(v, rng)
            angles = model.rate * np.arange(n) / rate
            out.append(np.outer(np.cos(angles), v) + np.outer(np.sin(angles), tangent))
            continue
        vecs = np.empty((n, 3))
        vecs[0] = v
        for k in range(1, n):
            u = rng.uniform()
            floor = math.exp(-2.0 * model.kappa)
            w = 1.0 + math.log(u * (1.0 - floor) + floor) / model.kappa
            w = min(1.0, max(-1.0, w))
            step = w * v + math.sqrt(max(0.0, 1.0 - w * w)) * _scalar_tangent(v, rng)
            v = step / np.linalg.norm(step)
            vecs[k] = v
        out.append(vecs)
    return out
