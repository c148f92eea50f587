"""Head-movement traces: CSV ingestion, synthetic generation, and the
segment-wise prediction pipeline that turns traces into per-frame
prediction errors.

A trace is a uniformly sampled viewpoint path.  Proactive streaming plays
the first ``passive_prefix`` segments without prediction; every later
segment is predicted from an observation window that ends ``t_cc`` seconds
before the segment starts (that gap is consumed by computing and
communication), i.e. ``t_obw + t_cc = passive_prefix * t_pdw``.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sphere import TWO_PI

TRACE_HEADER = ["user_id", "video_id", "timestamp_s", "theta_rad", "phi_rad"]

#: Allowed jitter between consecutive sample spacings, seconds.
SPACING_TOL = 1e-6


class TraceFormatError(ValueError):
    """Raised for malformed trace files or inconsistent trace samples."""


@dataclass(frozen=True)
class ViewpointTrace:
    """One user/video viewpoint path, uniformly sampled.

    Coordinate arrays are radians; timestamps are seconds, strictly
    increasing with uniform spacing.
    """

    user_id: str
    video_id: str
    timestamps: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        ph = np.asarray(self.phi, dtype=float)
        if not (ts.ndim == th.ndim == ph.ndim == 1) or not (len(ts) == len(th) == len(ph)):
            raise TraceFormatError("timestamps/theta/phi must be 1-d arrays of equal length")
        if len(ts) < 2:
            raise TraceFormatError(f"trace {self.user_id}/{self.video_id} has fewer than 2 samples")
        if not (np.isfinite(ts).all() and np.isfinite(th).all() and np.isfinite(ph).all()):
            raise TraceFormatError(f"trace {self.user_id}/{self.video_id} has non-finite samples")
        if np.any(np.abs(ph) > math.pi / 2):
            bad = int(np.argmax(np.abs(ph) > math.pi / 2))
            raise TraceFormatError(
                f"trace {self.user_id}/{self.video_id} sample {bad}: "
                f"latitude {ph[bad]!r} outside [-pi/2, pi/2]"
            )
        gaps = np.diff(ts)
        if np.any(gaps <= 0):
            bad = int(np.argmax(gaps <= 0))
            raise TraceFormatError(
                f"trace {self.user_id}/{self.video_id} sample {bad + 1}: "
                "timestamps not strictly increasing"
            )
        if np.max(gaps) - np.min(gaps) > SPACING_TOL:
            raise TraceFormatError(
                f"trace {self.user_id}/{self.video_id}: non-uniform sample spacing "
                f"(min {np.min(gaps)!r}, max {np.max(gaps)!r})"
            )
        # wrap the longitude to [-pi, pi) with an exact fmod
        th = np.fmod(th + math.pi, TWO_PI)
        th = np.where(th < 0.0, th + TWO_PI, th) - math.pi
        for name, arr in (("timestamps", ts), ("theta", th), ("phi", ph)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.timestamps[1] - self.timestamps[0])

    def unit_vectors(self) -> np.ndarray:
        """Samples as rows of unit 3-vectors."""
        return np.stack(
            [
                np.cos(self.phi) * np.cos(self.theta),
                np.cos(self.phi) * np.sin(self.theta),
                np.sin(self.phi),
            ],
            axis=1,
        )


def load_traces(path: str | Path) -> list[ViewpointTrace]:
    """Load viewpoint traces from CSV.

    Expected schema (exact header): ``user_id,video_id,timestamp_s,
    theta_rad,phi_rad``, UTF-8, one sample per row.  Consecutive rows with
    the same (user_id, video_id) form one trace, and each key's rows must
    be contiguous.  Malformed rows, and a key that reappears after its
    trace ended, are reported with their line number.
    """
    path = Path(path)
    traces: list[ViewpointTrace] = []
    key: tuple[str, str] | None = None
    closed: set[tuple[str, str]] = set()  # keys whose run of rows has ended
    buf: list[tuple[float, float, float]] = []

    def _flush() -> None:
        if key is None:
            return
        ts, th, ph = (np.array(col, dtype=float) for col in zip(*buf))
        traces.append(ViewpointTrace(key[0], key[1], ts, th, ph))

    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise TraceFormatError(f"{path}: empty file, no header and zero traces")
            if [h.strip() for h in header] != TRACE_HEADER:
                raise TraceFormatError(
                    f"{path}: unexpected header {header!r}, expected {TRACE_HEADER!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(TRACE_HEADER):
                    raise TraceFormatError(f"{path}:{lineno}: expected {len(TRACE_HEADER)} columns")
                user, video = row[0], row[1]
                try:
                    t, theta, phi = float(row[2]), float(row[3]), float(row[4])
                except ValueError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: non-numeric sample: {exc}") from None
                if not (math.isfinite(t) and math.isfinite(theta) and math.isfinite(phi)):
                    raise TraceFormatError(f"{path}:{lineno}: non-finite sample")
                if abs(phi) > math.pi / 2:
                    raise TraceFormatError(
                        f"{path}:{lineno}: latitude {phi!r} outside [-pi/2, pi/2]"
                    )
                if (user, video) != key:
                    if (user, video) in closed:
                        raise TraceFormatError(
                            f"{path}:{lineno}: rows of trace {user}/{video} are not contiguous "
                            "(the trace already ended on an earlier line)"
                        )
                    _flush()
                    if key is not None:
                        closed.add(key)
                    key, buf = (user, video), []
                buf.append((t, theta, phi))
            _flush()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8: {exc}") from None
    if not traces:
        raise TraceFormatError(f"{path}: file contains zero traces")
    return traces


def save_traces(path: str | Path, traces: list[ViewpointTrace]) -> None:
    """Write traces in the same CSV schema `load_traces` reads."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for tr in traces:
            for t, th, ph in zip(tr.timestamps, tr.theta, tr.phi):
                writer.writerow(
                    [tr.user_id, tr.video_id, repr(float(t)), repr(float(th)), repr(float(ph))]
                )


# ---------------------------------------------------------------------------
# synthetic motion


@dataclass(frozen=True)
class RandomWalk:
    """Spherical random walk: each step perturbs the current point with a
    von-Mises-Fisher draw of concentration ``kappa`` (larger = stiller)."""

    kappa: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be > 0, got {self.kappa!r}")


@dataclass(frozen=True)
class GreatCircleDrift:
    """Steady rotation along a random great circle at ``rate`` rad/s."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"rate must be >= 0, got {self.rate!r}")


MotionModel = RandomWalk | GreatCircleDrift


#: Draw ranges of a uniform point on the sphere: height ``z``, longitude ``t``.
_POINT_DRAWS = ((-1.0, 1.0), (-math.pi, math.pi))
#: Draw ranges of one random-walk step: deviation quantile ``u``, then a point.
_STEP_DRAWS = ((0.0, 1.0), *_POINT_DRAWS)
#: Tangents whose component off the current point is no longer than this
#: are replaced by the deterministic fallback of `_unit_tangents`.
_TANGENT_MIN_NORM = 1e-6


def sample_count(duration: float, rate: float) -> int:
    """Number of samples in ``duration`` seconds at ``rate`` Hz.

    Raises:
        ValueError: unless ``rate > 0`` and ``duration * rate`` is a whole
            number of at least 2.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be > 0, got {rate!r}")
    count = duration * rate
    if not math.isfinite(count) or round(count) < 2 or abs(round(count) - count) > 1e-9:
        raise ValueError(f"duration {duration!r} at rate {rate!r} must give >= 2 whole samples")
    return round(count)


def _points(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit vectors (..., xyz) at height ``z`` and longitude ``t``."""
    c = np.sqrt(1.0 - z * z)
    return np.stack((c * np.cos(t), c * np.sin(t), z), axis=-1)


def _unit_tangents(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Unit vectors orthogonal to the rows of ``v``, one per row of ``p``.

    Each row of ``p`` loses its component along ``v`` and is normalized.
    Where too little is left (``p`` within about 1e-6 of ``±v``), the
    tangent is the coordinate axis least aligned with ``v``, orthogonalized
    against it, so a degenerate draw is replaced without drawing again.
    """
    p = p - np.einsum("ij,ij->i", p, v)[:, None] * v
    norm = np.sqrt(np.einsum("ij,ij->i", p, p))
    bad = norm <= _TANGENT_MIN_NORM
    if bad.any():
        vb = v[bad]
        rows = np.arange(len(vb))
        axis = np.argmin(np.abs(vb), axis=1)
        q = -vb[rows, axis][:, None] * vb
        q[rows, axis] += 1.0
        p[bad] = q
        norm[bad] = np.sqrt(np.einsum("ij,ij->i", q, q))
    return p / norm[:, None]


def _random_walk(draws: np.ndarray, kappa: float) -> np.ndarray:
    """Unit vectors (trace, sample, xyz) of von-Mises-Fisher random walks.

    Row ``i`` of ``draws`` holds trace ``i``'s start point ``(z, t)``, then
    ``(u, z, t)`` per step.  A step deviates from the current point by an
    angle whose cosine is drawn by inverse CDF from ``u`` (exact on the
    2-sphere, stable for large kappa where exp(-2*kappa) underflows),
    toward the tangent given by the random point ``(z, t)``.  All traces
    take each step together.
    """
    n_traces = len(draws)
    steps = draws[:, 2:].reshape(n_traces, -1, 3)
    floor = math.exp(-2.0 * kappa)
    w = 1.0 + np.log(steps[:, :, 0] * (1.0 - floor) + floor) / kappa
    np.clip(w, -1.0, 1.0, out=w)
    s = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    vecs = np.empty((n_traces, steps.shape[1] + 1, 3))
    v = _points(draws[:, 0], draws[:, 1])
    vecs[:, 0] = v
    for k in range(steps.shape[1]):
        tangent = _unit_tangents(v, _points(steps[:, k, 1], steps[:, k, 2]))
        v = w[:, k, None] * v + s[:, k, None] * tangent
        v /= np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        vecs[:, k + 1] = v
    return vecs


def generate_synthetic_traces(
    model: MotionModel, n_traces: int, duration: float, rate: float, seed: int
) -> list[ViewpointTrace]:
    """Generate deterministic synthetic traces under a motion model.

    All random numbers come from one ``uniform`` call on a generator seeded
    with ``seed``: per trace, a random walk draws its start point then
    ``(u, z, t)`` per step, and a great-circle drift its start point and
    the point fixing its direction.

    Args:
        model: `RandomWalk` or `GreatCircleDrift`.
        n_traces: number of traces, >= 1.
        duration: seconds per trace; duration * rate must be integral.
        rate: samples per second.
        seed: RNG seed; identical inputs give identical traces.
    """
    if n_traces < 1:
        raise ValueError(f"n_traces must be >= 1, got {n_traces!r}")
    n = sample_count(duration, rate)
    times = np.arange(n) / rate
    if isinstance(model, GreatCircleDrift):
        ranges = _POINT_DRAWS * 2
    else:
        ranges = _POINT_DRAWS + _STEP_DRAWS * (n - 1)
    lo, hi = np.array(ranges).T
    draws = np.random.default_rng(seed).uniform(lo, hi, size=(n_traces, len(ranges)))
    if isinstance(model, GreatCircleDrift):
        start = _points(draws[:, 0], draws[:, 1])
        tangent = _unit_tangents(start, _points(draws[:, 2], draws[:, 3]))
        angles = (model.rate * times)[:, None]
        vecs = np.cos(angles) * start[:, None, :] + np.sin(angles) * tangent[:, None, :]
    else:
        vecs = _random_walk(draws, model.kappa)
    del draws
    theta = np.arctan2(vecs[:, :, 1], vecs[:, :, 0])
    phi = np.arcsin(np.clip(vecs[:, :, 2], -1.0, 1.0))
    del vecs
    label = type(model).__name__.lower()
    return [
        ViewpointTrace(f"synthetic-{i:03d}", label, times, theta[i], phi[i])
        for i in range(n_traces)
    ]


# ---------------------------------------------------------------------------
# windowing and prediction


@dataclass(frozen=True)
class WindowingConfig:
    """Timing of the observe / compute-and-communicate / play cycle.

    ``t_obw`` observation window, ``t_cc`` computing-plus-communication
    gap, ``t_pdw`` segment (prediction window) duration, all seconds.
    The passive prefix covers the first segments played before any
    prediction completes, so ``t_obw + t_cc = passive_prefix * t_pdw``.
    Window lengths must be whole numbers of sample periods.
    """

    t_obw: float
    t_cc: float
    t_pdw: float
    sample_rate: float
    passive_prefix: int

    def __post_init__(self) -> None:
        for name in ("t_obw", "t_cc", "t_pdw", "sample_rate"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be > 0, got {v!r}")
        if not isinstance(self.passive_prefix, int) or self.passive_prefix < 1:
            raise ValueError(
                f"passive_prefix must be a positive integer, got {self.passive_prefix!r}"
            )
        if abs(self.t_obw + self.t_cc - self.passive_prefix * self.t_pdw) > 1e-9:
            raise ValueError(
                "t_obw + t_cc must equal passive_prefix * t_pdw "
                f"({self.t_obw} + {self.t_cc} != {self.passive_prefix} * {self.t_pdw})"
            )
        for name in ("t_obw", "t_cc", "t_pdw"):
            counts = getattr(self, name) * self.sample_rate
            if abs(counts - round(counts)) > 1e-6:
                raise ValueError(f"{name} must span a whole number of sample periods")

    @property
    def samples_per_segment(self) -> int:
        return round(self.t_pdw * self.sample_rate)

    @property
    def obw_samples(self) -> int:
        return round(self.t_obw * self.sample_rate)

    @property
    def cc_samples(self) -> int:
        return round(self.t_cc * self.sample_rate)

    @property
    def min_samples(self) -> int:
        """Samples a trace needs for one predicted segment."""
        return self.obw_samples + self.cc_samples + self.samples_per_segment


class Predictor(enum.Enum):
    """Viewpoint predictor applied per segment."""

    LAST_POSITION = "last_position"
    GREAT_CIRCLE = "great_circle_extrapolation"


def predict(trace: ViewpointTrace, win: WindowingConfig, predictor: Predictor) -> np.ndarray:
    """Run segment-wise prediction over a trace and emit per-frame errors.

    For each predicted segment the observation window ends ``t_cc`` before
    the segment starts; the predictor sees only those samples.
    ``LAST_POSITION`` repeats the final observed point.  ``GREAT_CIRCLE``
    continues the great circle through the last two observed points at
    their observed angular rate (holding position when they coincide).
    Trailing samples that do not fill a whole segment are ignored.

    Returns:
        The errors in radians, one per frame of every predicted segment,
        segment-major: ``(len(trace) // samples_per_segment -
        passive_prefix) * samples_per_segment`` of them.
    """
    if abs(trace.sample_rate - win.sample_rate) > 1e-6:
        raise TraceFormatError(
            f"trace rate {trace.sample_rate!r} != windowing rate {win.sample_rate!r}"
        )
    if len(trace) < win.min_samples:
        raise TraceFormatError(
            f"trace {trace.user_id}/{trace.video_id} has {len(trace)} samples, "
            f"needs at least {win.min_samples} for one predicted segment"
        )
    spseg = win.samples_per_segment
    vecs = trace.unit_vectors()
    segments = np.arange(win.passive_prefix, len(trace) // spseg)
    frames = np.arange(spseg)
    seg_start = segments * spseg
    # the observation window ends cc_samples before each segment starts
    last_i = seg_start - win.cc_samples - 1
    last = vecs[last_i]
    actual = vecs[seg_start[:, None] + frames]  # (segment, frame, xyz)
    pred = np.repeat(last[:, None, :], spseg, axis=1)
    if predictor is Predictor.GREAT_CIRCLE and win.obw_samples >= 2:
        prev = vecs[last_i - 1]
        gap = np.arccos(np.clip(np.einsum("ij,ij->i", prev, last), -1.0, 1.0))
        # below ~1e-7 rad/sample, 1 - cos(gap) drowns in rounding and the
        # frame construction degenerates; those segments hold position
        moving = gap > 1e-7
        gap, prev, last = gap[moving], prev[moving], last[moving]
        cos_gap, sin_gap = np.cos(gap)[:, None], np.sin(gap)[:, None]
        # orthonormal frame (prev, side) spanning the observed circle;
        # t_hat is the unit tangent at `last` along the motion
        side = last - prev * cos_gap
        side /= np.linalg.norm(side, axis=1, keepdims=True)
        t_hat = side * cos_gap - prev * sin_gap
        # frame k leads the last observed sample by cc_samples + k + 1 periods
        angles = (gap[:, None] * (frames + win.cc_samples + 1))[:, :, None]
        pred[moving] = np.cos(angles) * last[:, None, :] + np.sin(angles) * t_hat[:, None, :]
    dots = np.clip(np.einsum("ijk,ijk->ij", actual, pred), -1.0, 1.0)
    return np.arccos(dots).ravel()


def predict_all(
    traces: list[ViewpointTrace], win: WindowingConfig, predictor: Predictor
) -> np.ndarray:
    """Concatenate `predict` over one or more traces, in trace order."""
    if not traces:
        raise ValueError("no traces given")
    return np.concatenate([predict(tr, win, predictor) for tr in traces])
