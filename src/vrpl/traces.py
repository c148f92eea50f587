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

from .sphere import TWO_PI, SphericalPoint

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
        # the same exact fmod as `sphere._wrap_longitude`, elementwise
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

    def point(self, i: int) -> SphericalPoint:
        return SphericalPoint(float(self.theta[i]), float(self.phi[i]))

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


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _random_point_vec(rng: np.random.Generator) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0)
    t = rng.uniform(-math.pi, math.pi)
    c = math.sqrt(1.0 - z * z)
    return np.array([c * math.cos(t), c * math.sin(t), z])


def _orthonormal_to(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector orthogonal to ``v``."""
    while True:
        w = _random_point_vec(rng)
        w = w - np.dot(w, v) * v
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            return w / norm


def _vmf_step(v: np.ndarray, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """One von-Mises-Fisher draw around mean direction ``v``.

    Inverse-CDF sampling of the cosine of the deviation; exact on the
    2-sphere, stable for large kappa where exp(-2*kappa) underflows.
    """
    u = rng.uniform()
    w = 1.0 + math.log(u * (1.0 - math.exp(-2.0 * kappa)) + math.exp(-2.0 * kappa)) / kappa
    w = min(1.0, max(-1.0, w))
    tangent = _orthonormal_to(v, rng)
    return _unit(w * v + math.sqrt(max(0.0, 1.0 - w * w)) * tangent)


def generate_synthetic_traces(
    model: MotionModel, n_traces: int, duration: float, rate: float, seed: int
) -> list[ViewpointTrace]:
    """Generate deterministic synthetic traces under a motion model.

    Args:
        model: `RandomWalk` or `GreatCircleDrift`.
        n_traces: number of traces, >= 1.
        duration: seconds per trace; duration * rate must be integral.
        rate: samples per second.
        seed: RNG seed; identical inputs give identical traces.
    """
    if n_traces < 1:
        raise ValueError(f"n_traces must be >= 1, got {n_traces!r}")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be > 0, got {rate!r}")
    n = round(duration * rate)
    if n < 2 or abs(n - duration * rate) > 1e-9:
        raise ValueError(f"duration {duration!r} at rate {rate!r} must give >= 2 whole samples")
    rng = np.random.default_rng(seed)
    times = np.arange(n) / rate
    label = type(model).__name__.lower()
    traces = []
    for i in range(n_traces):
        if isinstance(model, GreatCircleDrift):
            start = _random_point_vec(rng)
            tangent = _orthonormal_to(start, rng)
            angles = model.rate * times
            vecs = np.outer(np.cos(angles), start) + np.outer(np.sin(angles), tangent)
        else:
            v = _random_point_vec(rng)
            vecs = np.empty((n, 3))
            vecs[0] = v
            for k in range(1, n):
                v = _vmf_step(v, model.kappa, rng)
                vecs[k] = v
        theta = np.arctan2(vecs[:, 1], vecs[:, 0])
        phi = np.arcsin(np.clip(vecs[:, 2], -1.0, 1.0))
        traces.append(ViewpointTrace(f"synthetic-{i:03d}", label, times, theta, phi))
    return traces


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


class Predictor(enum.Enum):
    """Viewpoint predictor applied per segment."""

    LAST_POSITION = "last_position"
    GREAT_CIRCLE = "great_circle_extrapolation"


@dataclass(frozen=True, eq=False)
class PredictionErrors:
    """Per-frame prediction errors as columns, one entry per predicted frame.

    ``error`` holds the errors in radians; ``trace`` the index of each
    frame's trace in the list given to `predict_all` (0 from `predict`),
    ``segment`` its segment and ``frame`` its position in the segment.
    """

    error: np.ndarray
    trace: np.ndarray
    segment: np.ndarray
    frame: np.ndarray

    def __len__(self) -> int:
        return len(self.error)


def predict(
    trace: ViewpointTrace, win: WindowingConfig, predictor: Predictor
) -> PredictionErrors:
    """Run segment-wise prediction over a trace and emit per-frame errors.

    For each predicted segment the observation window ends ``t_cc`` before
    the segment starts; the predictor sees only those samples.
    ``LAST_POSITION`` repeats the final observed point.  ``GREAT_CIRCLE``
    continues the great circle through the last two observed points at
    their observed angular rate (holding position when they coincide).
    Trailing samples that do not fill a whole segment are ignored.

    Returns:
        One entry per frame of every predicted segment, segment-major:
        ``(len(trace) // samples_per_segment - passive_prefix) *
        samples_per_segment`` entries.
    """
    if abs(trace.sample_rate - win.sample_rate) > 1e-6:
        raise TraceFormatError(
            f"trace rate {trace.sample_rate!r} != windowing rate {win.sample_rate!r}"
        )
    spseg = win.samples_per_segment
    minimum = win.obw_samples + win.cc_samples + spseg
    if len(trace) < minimum:
        raise TraceFormatError(
            f"trace {trace.user_id}/{trace.video_id} has {len(trace)} samples, "
            f"needs at least {minimum} for one predicted segment"
        )
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
    return PredictionErrors(
        error=np.arccos(dots).ravel(),
        trace=np.zeros(dots.size, dtype=np.intp),
        segment=np.repeat(segments, spseg),
        frame=np.tile(frames, len(segments)),
    )


def predict_all(
    traces: list[ViewpointTrace], win: WindowingConfig, predictor: Predictor
) -> PredictionErrors:
    """Concatenate `predict` over one or more traces, in trace order."""
    if not traces:
        raise ValueError("no traces given")
    parts = [predict(tr, win, predictor) for tr in traces]
    return PredictionErrors(
        error=np.concatenate([p.error for p in parts]),
        trace=np.repeat(np.arange(len(parts)), [len(p) for p in parts]),
        segment=np.concatenate([p.segment for p in parts]),
        frame=np.concatenate([p.frame for p in parts]),
    )
