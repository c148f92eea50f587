"""Shared samplers for the test suite.

Random configurations are drawn with seeded generators so every run is
reproducible; margins keep sampled configurations away from case
boundaries where a different branch could legitimately answer.
"""

from __future__ import annotations

import contextlib
import csv
import math
import tracemalloc
from pathlib import Path
from typing import NamedTuple
from unittest.mock import patch

import numpy as np

from vrpl.qoe import qoe, qoe_vec
from vrpl.traces import (
    _TANGENT_MIN_NORM,
    GreatCircleDrift,
    MotionModel,
    _points,
    _unit_tangents,
)

TWO_PI = 2.0 * math.pi
ULP = float(np.finfo(float).eps)

#: A resource budget, its tile and a channel, as the config blocks of `vrpl resource`.
TILE = {"px_w": 64, "px_h": 64, "bits_per_pixel": 12, "compression_ratio": 16.0}
RESOURCES = {"compute_flops": 1e12, "users": 4, "flops_per_bit": 100.0, "avg_data_rate": 4e8,
             "cc_duration": 0.0820224, "frames_per_segment": 30, "tiles_per_frame": 200}
CHANNEL = {"bandwidth": 1e7, "tx_power": 4.0, "distance": 2.0, "pathloss_exp": 2.5,
           "noise_power": 1e-3, "antennas": 8, "users": 4}

#: Two drifting synthetic traces of 30 s at 5 Hz, the `synthetic` block of a `vrpl trace`.
DRIFT = {"model": "great_circle_drift", "rate_rad_s": 0.1, "n_traces": 2, "duration_s": 30.0,
         "rate_hz": 5.0}


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


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read back a table written by `vrpl.tables.write_csv` (header, string rows)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty table")
        rows = [row for row in reader if row]
    return header, rows


def reference_lens(r1, r2, d):
    """The array lens as one expression, in full, and its three arccos arguments.

    The partial-overlap lens ``2 pi - 2 pi c1 - 2 pi c2 - 2 t0 + 2 c1 t1 +
    2 c2 t2`` clamped to ``[0, cap]``, each term doubled in place: since
    scaling by 2 is exact, ``vrpl.sphere.lens_area``, which evaluates the
    lens halved and doubles it last, must match it bit for bit.  Returns
    ``(lens, (a0, a1, a2))``, the arguments before they are clamped to
    [-1, 1].
    """
    r1, r2, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (r1, r2, d)))
    c1, c2, s1, s2, cd, sd = np.cos(r1), np.cos(r2), np.sin(r1), np.sin(r2), np.cos(d), np.sin(d)
    args = ((cd - c1 * c2) / (s1 * s2), (cd * c1 - c2) / (sd * s1), (cd * c2 - c1) / (sd * s2))
    t0, t1, t2 = (np.arccos(np.clip(a, -1.0, 1.0)) for a in args)
    lens = TWO_PI - TWO_PI * c1 - TWO_PI * c2 - 2.0 * t0 + 2.0 * c1 * t1 + 2.0 * c2 * t2
    cap = np.minimum(TWO_PI * (1.0 - c1), TWO_PI * (1.0 - c2))
    return np.minimum(np.maximum(lens, 0.0), cap), args


def boundary_neighbours(fov, sv, ulps: int = 2):
    """Errors within ``ulps`` floats of each end of the partial-overlap interval, in [0, pi]."""
    out = []
    for end in (abs(fov - sv), fov + sv, TWO_PI - fov - sv):
        x = y = end
        for _ in range(ulps):
            x, y = math.nextafter(x, -math.inf), math.nextafter(y, math.inf)
            out += [x, y]
    return [x for x in out if 0.0 <= x <= math.pi]


# ---------------------------------------------------------------------------
# the QoE inversion's references


#: Width the oracles halve their brackets to, the QoE inversion's own
#: bisection tolerance.
ORACLE_TOL = 1e-9

#: Slack of a residual comparison, about two ulps of a QoE near 1.
RESIDUAL_SLACK = 4e-16


def inversion_bracket(fov, sv):
    """The QoE inversion's starting bracket: the partial-overlap interval,
    1e-12 inside at the top, and at the bottom where that end is 0."""
    lo = np.maximum(1e-12, np.abs(fov - sv))
    return lo, np.minimum(fov + sv, TWO_PI - (fov + sv)) - 1e-12


def halve_with_qoe_vec(q, fov, sv):
    """The array oracle of the QoE inversion: bisection on ``qoe_vec``.

    The inversion's bracket and update rule (a QoE above the report moves
    the bottom end); each halving gathers the live brackets and asks
    ``qoe_vec``, and a bracket stops once at most `ORACLE_TOL` wide (or
    after 64 halvings).  Returns the midpoints of the last brackets and,
    for each halving, the field-of-view and streamed radii and the
    midpoints it evaluated.
    """
    lo, hi = inversion_bracket(fov, sv)
    active = np.arange(q.size)
    halvings = []
    for _ in range(64):
        if not active.size:
            break
        f, s, a, b = fov[active], sv[active], lo[active], hi[active]
        mid = 0.5 * (a + b)
        halvings.append((f, s, mid))
        above = qoe_vec(f, s, mid) > q[active]
        a, b = np.where(above, mid, a), np.where(above, b, mid)
        lo[active], hi[active] = a, b
        active = active[b - a > ORACLE_TOL]
    return 0.5 * (lo + hi), halvings


def halve_with_qoe(q, fov, sv):
    """The scalar oracle of the QoE inversion: `halve_with_qoe_vec`'s
    bisection report by report on ``qoe``, returning the roots only."""
    roots = []
    for qi, f, s in zip(q.tolist(), fov.tolist(), sv.tolist()):
        lo, hi = (float(x) for x in inversion_bracket(f, s))
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if qoe(f, s, mid) > qi:
                lo = mid
            else:
                hi = mid
            if hi - lo <= ORACLE_TOL:
                break
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


def residuals(q, fov, sv, e, scalar=False):
    """``|QoE(e) - q|`` elementwise, by ``qoe`` if ``scalar`` else by ``qoe_vec``."""
    if scalar:
        return np.abs([qoe(*a) for a in zip(fov.tolist(), sv.tolist(), e.tolist())] - q)
    return np.abs(qoe_vec(fov, sv, e) - q)


def assert_roots(q, fov, sv, e, scalar=False):
    """``e``, the QoE inversion's errors for reports ``q``, are roots.

    Each lies strictly inside the partial-overlap interval, and its
    residual is within the lens's rounding at it (`rounding_bound`) or no
    worse than its oracle's, plus `RESIDUAL_SLACK`: the array kernel's, by
    ``qoe_vec``, than `halve_with_qoe_vec`'s; the scalar one's
    (``scalar``), by ``qoe``, than `halve_with_qoe`'s.  A certified root
    lies within ``ORACLE_TOL / 2`` of where the computed QoE changes side
    of the report, as the oracle's does, but not at the oracle's float:
    where the lens's rounding spans that width, its residual can be the
    larger.  The two lenses differ in the arccos's last bit, which the QoE
    magnifies where it is flat, so each is held to its own arithmetic.
    Returns the residuals.
    """
    q, fov, sv, e = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in (q, fov, sv, e)))
    inside = (np.abs(fov - sv) < e) & (e < np.minimum(fov + sv, TWO_PI - (fov + sv)))
    assert inside.all(), e[~inside]
    oracle = halve_with_qoe(q, fov, sv) if scalar else halve_with_qoe_vec(q, fov, sv)[0]
    res, best = residuals(q, fov, sv, e, scalar), residuals(q, fov, sv, oracle, scalar)
    worse = res > np.maximum(best, rounding_bound(fov, sv, e)) + RESIDUAL_SLACK
    assert not worse.any(), list(zip(q[worse], fov[worse], sv[worse], res[worse], best[worse]))
    return res


def rounding_bound(fov, sv, e, step_ulps=4.0):
    """The residual at which the QoE inversion's Newton iteration stops, for a root ``e``.

    Twice the lens's rounding at ``e``, plus ``|dQoE/de|`` times
    ``step_ulps`` ulps of ``e``.  The slope is ``2 sin r_sv sin a_sv /
    area``, with ``a_sv`` the angle at the streamed cap's center between
    the other center and an intersection point (law of cosines).  The
    rounding is a quarter ulp of the magnitudes of the lens's terms, plus
    two ulps of an arccos argument magnified by ``1 / (sin e sin r_sv sin
    a_sv)``, over the field-of-view area, and infinite where ``sin a_sv``
    rounds to 0.
    """
    c1, c2, s2 = np.cos(fov), np.cos(sv), np.sin(sv)
    area = TWO_PI * (1.0 - c1)
    sin_e = np.sin(e)
    cos_a = (c1 - np.cos(e) * c2) / (sin_e * s2)
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
    magnitude = np.abs(TWO_PI * (1.0 - c1 - c2)) + TWO_PI * (1.0 + np.abs(c1) + np.abs(c2))
    with np.errstate(divide="ignore"):
        floor = (0.25 * ULP * magnitude + 2.0 * ULP / (sin_e * s2 * sin_a)) / area
    return 2.0 * floor + 2.0 * s2 * sin_a / area * step_ulps * ULP * e


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


def dot_xzy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of ``(n, 3)`` arrays, summed ``(x·x′ + z·z′) + y·y′``."""
    return (a[:, 0] * b[:, 0] + a[:, 2] * b[:, 2]) + a[:, 1] * b[:, 1]


def reference_random_walk(draws: np.ndarray, kappa: float, dot=dot_xzy) -> np.ndarray:
    """`vrpl.traces._random_walk` as a loop over steps on (trace, xyz) rows.

    Each step allocates its arrays, and ``dot`` sums each dot product: the
    fixed order of `dot_xzy` by default, which ``_random_walk`` must match
    bit for bit on every platform.  The step points, ``w`` and ``s`` are
    taken for all steps at once, and a trace whose tangent is no longer
    than `_TANGENT_MIN_NORM` takes `_unit_tangents`' fallback.
    """
    n_traces = len(draws)
    steps = draws[:, 2:].reshape(n_traces, -1, 3)
    floor = math.exp(-2.0 * kappa)
    w = np.clip(1.0 + np.log(steps[:, :, 0] * (1.0 - floor) + floor) / kappa, -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    points = _points(steps[:, :, 1], steps[:, :, 2]).transpose(1, 0, 2)  # (step, trace, xyz)
    vecs = np.empty((n_traces, steps.shape[1] + 1, 3))
    v = vecs[:, 0] = _points(draws[:, 0], draws[:, 1])
    for k, p in enumerate(points):
        tangent = p - dot(p, v)[:, None] * v
        norm = np.sqrt(dot(tangent, tangent))
        bad = norm <= _TANGENT_MIN_NORM
        tangent[bad] = _unit_tangents(v[bad], p[bad])
        norm[bad] = 1.0
        v = w[:, k, None] * v + s[:, k, None] * (tangent / norm[:, None])
        v = v / np.sqrt(dot(v, v))[:, None]
        vecs[:, k + 1] = v
    return vecs


def write_drifting_csv(path: str | Path, n_traces: int, duration_s: float, seed: int = 0) -> int:
    """Write drifting 5 Hz head traces in the trace-CSV schema; return the row count.

    Each trace turns in longitude at a steady rate of up to 1.5 rad/s,
    swings in latitude, and is observed with 0.06 rad of jitter, so the
    great-circle predictor's errors fall in every overlap case.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(round(5.0 * duration_s)) / 5.0
    jitter = rng.normal(0.0, 0.06, (2, n_traces, t.size))
    theta = rng.uniform(-3.0, 3.0, (n_traces, 1)) + rng.uniform(-1.5, 1.5, (n_traces, 1)) * t
    phi = 0.7 * np.sin(rng.uniform(0.0, 2.0, (n_traces, 1)) * t + rng.uniform(0.0, 6.0, (n_traces, 1)))
    rows = ["user_id,video_id,timestamp_s,theta_rad,phi_rad"] + [
        f"u{i},drift,{s!r},{a!r},{b!r}"
        for i in range(n_traces)
        for s, a, b in zip(t.tolist(), (theta[i] + jitter[0, i]).tolist(), (phi[i] + jitter[1, i]).tolist())
    ]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return len(rows) - 1


def one_array_avg_rate(ch, n: int, seed: int) -> float:
    """`vrpl.resources.mc_avg_rate` with all ``n`` gain samples in one array.

    The estimator before the samples were drawn in blocks: one ``gamma``
    call of size ``n`` and `np.mean`, so the sum is numpy's pairwise sum of
    every sample.  Not finite where the blocked estimate is not.
    """
    gain = np.random.default_rng(seed).gamma(shape=ch.antennas - ch.users + 1, scale=1.0, size=n)
    with np.errstate(over="ignore", invalid="ignore"):
        snr = ch.tx_power * np.float64(ch.distance) ** -ch.pathloss_exp / ch.noise_power
        return float(np.mean(ch.bandwidth * np.log2(gain * snr + 1.0)))


def stage_peaks(run, stages: dict[str, list[tuple[object, str]]]) -> dict[str, int]:
    """`tracemalloc`'s peak over ``run()``, as ``"all"``, and within each stage.

    A stage is the calls made through the ``(module, name)`` globals listed
    for it, wrapped for the run; stages must not nest.  Between and within
    stages the peak is read and reset, so ``"all"`` is the largest of the
    parts.  ``run()`` must return 0.
    """
    peaks = dict.fromkeys(stages, 0) | {"all": 0}

    def wrap(stage, fn):
        def staged(*args, **kwargs):
            peaks["all"] = max(peaks["all"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                peaks[stage], peaks["all"] = max(peaks[stage], peak), max(peaks["all"], peak)
                tracemalloc.reset_peak()
        return staged

    with contextlib.ExitStack() as stack:
        for stage, names in stages.items():
            for module, name in names:
                stack.enter_context(patch.object(module, name, wrap(stage, getattr(module, name))))
        tracemalloc.start()
        try:
            assert run() == 0
            peaks["all"] = max(peaks["all"], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


# ---------------------------------------------------------------------------
# trace files, and what the reader's layers make of them


#: A trace file's header line.
HEADER = "user_id,video_id,timestamp_s,theta_rad,phi_rad\n"


def lines(rows) -> str:
    """``rows`` as the lines of a file."""
    return "".join(f"{row}\n" for row in rows)


def steady(key: str, n: int, rate: float = 5.0) -> list[str]:
    """The rows of a trace keyed ``user,video`` of ``n`` samples at ``rate`` Hz, holding still."""
    return [f"{key},{i / rate},0.0,0.0" for i in range(n)]


class TraceFile(NamedTuple):
    """A trace file, its rows after `HEADER` or, as bytes, all of it; and its contract.

    ``loaded`` is `vrpl.load_traces`' whole message, ``{csv}`` being the
    file, or each trace's sample count by its ``user_id/video_id``, in file
    order; ``predicted``
    what `vrpl.predict_all` then gives under the default windows, the number
    of errors or its whole message (None if loading fails); ``blocks``
    whether the block parse takes the whole file.
    """

    text: str | bytes
    loaded: str | dict[str, int]
    predicted: int | str | None = None
    blocks: bool = True

    def write(self, path: Path) -> None:
        path.write_bytes(self.text if isinstance(self.text, bytes) else (HEADER + self.text).encode())

    @property
    def fault(self) -> str | None:
        """The first fault's message, loading's or prediction's, if any."""
        return next((m for m in (self.loaded, self.predicted) if isinstance(m, str)), None)


def _short(key: str, n: int) -> str:
    return f"trace {key} has {n} samples, needs at least 15 for one predicted segment"  # 5 Hz, 1 s windows


_A = lines(steady("a,v", 2) + [""])  # trace a and a blank line, line 4
_AB = _A + lines(steady("b,v", 2))  # and trace b's first rows, on lines 5 and 6
_CRLF_HEADER = HEADER.replace("\n", "\r\n")
_AGAIN = "rows of trace a/v are not contiguous (the trace already ended on an earlier line)"
_ABC = "non-numeric sample: could not convert string to float: 'abc'"
_LIMIT = "field larger than field limit (131072)"
_LAT = "outside [-pi/2, pi/2]"
_UNEVEN = "trace b/v: non-uniform sample spacing"
_WANTED = "expected ['user_id', 'video_id', 'timestamp_s', 'theta_rad', 'phi_rad']"
_RANKED = "a,v,0.0,0.0,2.0\na,v,0.2,0.0,0.0\nb,v,0.0,0.0,0.0\nb,v,0.2,0.0,0.0\na,v,0.4,0.0,0.0\n"

#: Every trace-file contract, by name; each is a row of the `vrpl trace` contracts too.
TRACE_FILES = {
    # the rows of one key in a row are a trace, sampled at its own rate
    "groups-consecutive-keys": TraceFile(lines(steady("a,v", 2) + steady("b,v", 2) + steady("a,w", 2)),
                                         {"a/v": 2, "b/v": 2, "a/w": 2}, _short("a/v", 2)),
    # a 4 Hz trace of 12 s and a 5 Hz one of 9 s are two groups: 10 segments of 4 and 7 of 5
    "two-rate-groups": TraceFile(lines(steady("a,v", 48, 4.0) + steady("b,v", 45)), {"a/v": 48, "b/v": 45},
                                 10 * 4 + 7 * 5),
    # 10 segments per trace, 2 passive: 8 of 5 samples plus 8 of 10
    "two-rates": TraceFile(lines(steady("a,v", 50) + steady("b,v", 100, 10.0)), {"a/v": 50, "b/v": 100},
                           8 * 5 + 8 * 10),
    # a 1 s window is half a period of a 0.5 Hz trace
    "two-rates-half-period": TraceFile(
        lines(steady("a,v", 50) + steady("b,v", 20, 0.5)), {"a/v": 50, "b/v": 20},
        "trace b/v: t_obw 1.0 s is not a whole number of sample periods at 0.5 Hz"),
    # a second trace too short for one predicted segment (14 samples at 5 Hz, 15 needed)
    "too-short": TraceFile(lines(steady("a,v", 48, 4.0) + steady("b,v", 14)), {"a/v": 48, "b/v": 14},
                           _short("b/v", 14)),
    # CRLF endings and a quoted key: the block parse refuses the file and the row loop reads it
    "crlf-quoted-key": TraceFile(lines(f'"u 1",v,{i / 5},0.0,0.0\r' for i in range(20)), {"u 1/v": 20}, 10, False),
    # a blank line, then a first row longer than a block: the first block holds no row
    "blank-then-long-row": TraceFile("\n" + lines(steady("u" * 70000 + ",v", 20)), {"u" * 70000 + "/v": 20}, 10,
                                     False),
    # a block of blank lines before the first row
    "blank-block": TraceFile("\n" * 70000 + lines(steady("u,v", 20)), {"u/v": 20}, 10),
    # faults of the whole file
    "empty-file": TraceFile(b"", "{csv}: empty file, no header and zero traces", blocks=False),
    "header-only": TraceFile("", "{csv}: file contains zero traces"),
    "bad-header": TraceFile(b"wrong,header\n1,2\n", f"{{csv}}: unexpected header ['wrong', 'header'], {_WANTED}",
                            blocks=False),
    "non-utf8-csv": TraceFile(HEADER.encode() + b"a,v,0.0,0.1,0.2\n\xff,v,0.2,0.1,0.2\n", blocks=False, loaded=(
        "{csv}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 63: invalid start byte")),
    # a field over the csv module's 131,072-character limit, in the header or on line 5, names the line
    "over-long-field-line-1": TraceFile(("u" * 140000 + HEADER[1:] + lines(steady("u,v", 20))).encode(),
                                        f"{{csv}}:1: {_LIMIT}", blocks=False),
    "over-long-field-line-5": TraceFile(lines(("u" * 140000 if i == 3 else "u") + f",v,{i / 5},0.0,0.0"
                                              for i in range(20)), f"{{csv}}:5: {_LIMIT}", blocks=False),
    # rows the tokenizer refuses
    "four-columns": TraceFile("u,v,0.0,0.0\n", "{csv}:2: expected 5 columns", blocks=False),
    "non-numeric-line-3": TraceFile("u,v,0.0,0.0,0.0\nu,v,abc,0.0,0.0\n", f"{{csv}}:3: {_ABC}", blocks=False),
    # a key that comes back on line 102, after 50 rows of b/v
    "non-contiguous": TraceFile(lines(steady("a,v", 50) + steady("b,v", 50) + steady("a,v", 50)),
                                f"{{csv}}:102: {_AGAIN}"),
    # bad traces name the line of their first bad sample
    "latitude-line-5": TraceFile(lines(f"u,v,{i / 5},0.0,{2.0 if i == 3 else 0.0}" for i in range(20)),
                                 f"{{csv}}:5: trace u/v sample 3: latitude 2.0 {_LAT}"),
    "time-repeats": TraceFile(lines(steady("u,v", 2) + ["u,v,0.2,0.1,0.0"]),
                              "{csv}:4: trace u/v sample 2: timestamps not strictly increasing"),
    # a second trace that skips a sample on line 32, its spacings as plain floats
    "uneven-line-32": TraceFile(lines(steady("a,v", 20) + [f"b,v,{(i + (i >= 10)) / 5},0.0,0.0" for i in range(20)]),
                                f"{{csv}}:32: {_UNEVEN} (min 0.19999999999999973, max 0.40000000000000013)"),
    # trace b, after trace a and a blank line, with one fault each
    "b-non-finite": TraceFile(_AB + "b,v,0.4,nan,0.0\n", "{csv}:7: trace b/v has non-finite samples"),
    "b-latitude": TraceFile(_A + "b,v,0.0,0.0,0.0\nb,v,0.2,0.0,1.6\nb,v,0.4,0.0,0.0\n",
                            f"{{csv}}:6: trace b/v sample 1: latitude 1.6 {_LAT}"),
    "b-not-increasing": TraceFile(_AB + "b,v,0.2,0.0,0.0\n",
                                  "{csv}:7: trace b/v sample 2: timestamps not strictly increasing"),
    "b-uneven": TraceFile(_AB + "b,v,0.5,0.0,0.0\nb,v,0.8,0.0,0.0\n",
                          f"{{csv}}:7: {_UNEVEN} (min 0.2, max 0.30000000000000004)"),
    "b-one-sample": TraceFile(_A + "b,v,0.0,0.0,0.0\nc,v,0.0,0.0,0.0\nc,v,0.2,0.0,0.0\n",
                              "{csv}:5: trace b/v has fewer than 2 samples"),
    "b-key-again": TraceFile(_AB + "a,v,0.4,0.0,0.0\n", f"{{csv}}:7: {_AGAIN}"),
    # faults that rank: a tokenizer fault wins over a reappearing key and a bad trace before it, and a
    # reappearing key over a bad trace before it; the first bad trace in file order wins, with the first
    # check it fails: b's latitude (sample 3) over its uneven spacing (sample 2) and c's non-finite sample
    "ranked-tokenizer": TraceFile(_RANKED + "a,v,0.6,abc,0.0\n", f"{{csv}}:7: {_ABC}", blocks=False),
    "ranked-contiguity": TraceFile(_RANKED + "a,v,0.6,nan,0.0\n", f"{{csv}}:6: {_AGAIN}"),
    "ranked-first-trace": TraceFile(
        lines(steady("a,v", 2) + steady("b,v", 2)) + "b,v,0.5,0.0,0.0\nb,v,0.8,0.0,-1.6\n"
        "c,v,0.0,inf,0.0\nc,v,0.2,0.0,0.0\n", f"{{csv}}:7: trace b/v sample 3: latitude -1.6 {_LAT}"),
    # a trace too short for a predicted segment, which a stream predicts before it reads the malformed row
    "too-short-then-malformed": TraceFile(lines(
        steady("a,v", 20) + steady("b,v", 5) + [f"c,v,{i / 5},{'abc' if i == 9 else 0.0},0.0" for i in range(20)]),
        f"{{csv}}:36: {_ABC}", blocks=False),
    # a CR outside a CRLF, in a row or in the header: the block parse refuses the file
    "lone-cr-row-end": TraceFile("u,v,0,0,0\ru,v,0.2,0,0\n", {"u/v": 2}, _short("u/v", 2), False),
    "lone-cr-in-key": TraceFile("u,v\r,0,0,0\nu,v\r,0.2,0,0\n", "{csv}:2: expected 5 columns", blocks=False),
    "lone-cr-before-crlf": TraceFile((_CRLF_HEADER + "u,v,0,0,0\r\nu,v,0.2,0,0\r\r\n").encode(),
                                     {"u/v": 2}, _short("u/v", 2), False),
    "lone-cr-in-value": TraceFile((_CRLF_HEADER + "u,v,0,0,0\r\nu,v,0.2,0\r,0\r\n").encode(),
                                  "{csv}:3: expected 5 columns", blocks=False),
    "lone-cr-header-end": TraceFile((HEADER.replace("\n", "\r\r\n") + "u,v,0,0,0\r\nu,v,0.2,0,0\r\n").encode(),
                                    {"u/v": 2}, _short("u/v", 2), False),
    "lone-cr-in-header": TraceFile((HEADER.replace(",", "\r,", 1) + "u,v,0,0,0\nu,v,0.2,0,0\n").encode(),
                                   f"{{csv}}: unexpected header ['user_id'], {_WANTED}", blocks=False),
}
