"""Head-movement traces: CSV ingestion, synthetic generation, and the
segment-wise prediction pipeline that turns traces into error samples.

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

from .sphere import SphericalPoint, _wrap_longitude

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
        th = np.array([_wrap_longitude(x) for x in th], dtype=float)
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


@dataclass(frozen=True)
class ErrorSample:
    """Prediction error for one frame sample of one predicted segment."""

    user_id: str
    video_id: str
    segment: int
    frame: int
    error: float
    r_sv: float | None = None
    qoe: float | None = None


def predict(trace: ViewpointTrace, win: WindowingConfig, predictor: Predictor) -> list[ErrorSample]:
    """Run segment-wise prediction over a trace and emit per-frame errors.

    For each predicted segment the observation window ends ``t_cc`` before
    the segment starts; the predictor sees only those samples.
    ``LAST_POSITION`` repeats the final observed point.  ``GREAT_CIRCLE``
    continues the great circle through the last two observed points at
    their observed angular rate (holding position when they coincide).
    Trailing samples that do not fill a whole segment are ignored.

    Returns:
        One `ErrorSample` per frame of every predicted segment:
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
    n_segments = len(trace) // spseg
    out: list[ErrorSample] = []
    for seg in range(win.passive_prefix, n_segments):
        seg_start = seg * spseg
        obw_end = seg_start - win.cc_samples  # exclusive index past the window
        last = vecs[obw_end - 1]
        # samples ahead of the last observed point, one per frame
        steps = np.arange(seg_start, seg_start + spseg) - (obw_end - 1)
        if predictor is Predictor.GREAT_CIRCLE and win.obw_samples >= 2:
            prev = vecs[obw_end - 2]
            gap = math.acos(min(1.0, max(-1.0, float(np.dot(prev, last)))))
            # below ~1e-7 rad/sample, 1 - cos(gap) drowns in rounding and the
            # frame construction degenerates; hold position instead
            if gap > 1e-7:
                # orthonormal frame (prev, side) spanning the observed circle;
                # t_hat is the unit tangent at `last` along the motion
                side = _unit(last - prev * math.cos(gap))
                t_hat = side * math.cos(gap) - prev * math.sin(gap)
                angles = gap * steps  # one observed gap per sample period of lead
                pred = np.outer(np.cos(angles), last) + np.outer(np.sin(angles), t_hat)
            else:
                pred = np.broadcast_to(last, (spseg, 3))
        else:
            pred = np.broadcast_to(last, (spseg, 3))
        actual = vecs[seg_start : seg_start + spseg]
        dots = np.clip(np.einsum("ij,ij->i", actual, pred), -1.0, 1.0)
        errors = np.arccos(dots)
        for frame, err in enumerate(errors):
            out.append(
                ErrorSample(
                    trace.user_id, trace.video_id, segment=seg, frame=frame, error=float(err)
                )
            )
    return out


def predict_all(
    traces: list[ViewpointTrace], win: WindowingConfig, predictor: Predictor
) -> list[ErrorSample]:
    """Concatenate `predict` over traces, in trace order."""
    out: list[ErrorSample] = []
    for tr in traces:
        out.extend(predict(tr, win, predictor))
    return out
