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
import itertools
import math
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .sphere import COUNT, NON_NEGATIVE, POSITIVE, SEED, TWO_PI, Record

TRACE_HEADER = ["user_id", "video_id", "timestamp_s", "theta_rad", "phi_rad"]

#: Allowed jitter between consecutive sample spacings, seconds.
SPACING_TOL = 1e-6


class TraceFormatError(ValueError):
    """Raised for malformed trace files or inconsistent trace samples."""


class ViewpointTrace(Record):
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
        # copies: the longitude wrap works in place, and the trace's arrays
        # are made read-only, which must not freeze the caller's
        ts, th, ph = (np.array(a, dtype=float) for a in (self.timestamps, self.theta, self.phi))
        if not (ts.ndim == th.ndim == ph.ndim == 1) or not (len(ts) == len(th) == len(ph)):
            raise TraceFormatError("timestamps/theta/phi must be 1-d arrays of equal length")
        key, bounds = [(self.user_id, self.video_id)], np.array([0, len(ts)])
        fault = _check_population(key, ts, th, ph, bounds)
        if fault is not None:
            raise TraceFormatError(fault[0])
        for name, arr in (("timestamps", ts), ("theta", th), ("phi", ph)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.timestamps[1] - self.timestamps[0])


def _unit_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit 3-vectors (..., xyz) at longitude ``theta`` and latitude ``phi``."""
    cos_phi = np.cos(phi)
    return np.stack([cos_phi * np.cos(theta), cos_phi * np.sin(theta), np.sin(phi)], axis=-1)


def _check_population(
    keys: list[tuple[str, str]], ts: np.ndarray, th: np.ndarray, ph: np.ndarray,
    bounds: np.ndarray,
) -> tuple[str, int] | None:
    """Check traces laid end to end in flat float64 columns, then wrap their
    longitudes to [-pi, pi) in place.

    Trace ``i`` is rows ``bounds[i]:bounds[i + 1]``, keyed ``keys[i]``.  A
    trace is bad when it has fewer than 2 samples, a non-finite sample, a
    latitude beyond pi/2, timestamps not strictly increasing, or sample
    spacings differing by more than `SPACING_TOL`, in that order.  Returns
    the `TraceFormatError` message of the first bad trace and the row it
    names (the first failing; for uneven spacing, the first taking the
    spread past the tolerance), leaving ``th`` as it was, or None once
    ``th`` is wrapped with an exact fmod.
    """
    starts = bounds[:-1]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 - -1e308
        finite = np.isfinite(ts)
        finite &= np.isfinite(th)
        finite &= np.isfinite(ph)
        # gaps[j] = ts[j + 1] - ts[j] within a trace; NaN after each trace's last
        # sample (and one past the end), which the comparisons and fmin/fmax skip
        gaps = np.full(len(ts) + 1, np.nan)
        np.subtract(ts[1:], ts[:-1], out=gaps[: len(ts) - 1])
        gaps[bounds[1:] - 1] = np.nan
        lo, hi = np.fmin.reduceat(gaps, starts), np.fmax.reduceat(gaps, starts)
        uneven = hi - lo > SPACING_TOL
    # the first row failing each row check
    bad, steep, back = (
        np.flatnonzero(mask)[:1]
        for mask in (~finite, (ph > math.pi / 2) | (ph < -math.pi / 2), gaps <= 0.0)
    )

    def trace_of(rows: np.ndarray) -> np.ndarray:
        return np.searchsorted(bounds, rows, side="right") - 1

    def spread_row(i: int) -> int:
        spacing = gaps[starts[i] : bounds[i + 1] - 1]
        spread = np.fmax.accumulate(spacing) - np.fmin.accumulate(spacing)
        return starts[i] + 1 + np.flatnonzero(spread > SPACING_TOL)[0]

    checks = [  # each check's first failing trace, if any, what is said of it and its row
        (np.flatnonzero(np.diff(bounds) < 2)[:1], lambda i: (" has fewer than 2 samples", starts[i])),
        (trace_of(bad), lambda i: (" has non-finite samples", bad[0])),
        (trace_of(steep), lambda i: (f" sample {steep[0] - starts[i]}: latitude "
                                     f"{float(ph[steep[0]])!r} outside [-pi/2, pi/2]", steep[0])),
        (trace_of(back), lambda i: (
            f" sample {back[0] - starts[i] + 1}: timestamps not strictly increasing", back[0] + 1)),
        (np.flatnonzero(uneven)[:1], lambda i: (
            f": non-uniform sample spacing (min {float(lo[i])!r}, max {float(hi[i])!r})",
            spread_row(i))),
    ]
    failing = [(int(first[0]), k) for k, (first, _) in enumerate(checks) if first.size]
    if failing:
        i, k = min(failing)  # the first bad trace, and the first check it fails
        message, row = checks[k][1](i)
        return f"trace {keys[i][0]}/{keys[i][1]}{message}", int(row)
    th += math.pi
    np.fmod(th, TWO_PI, out=th)
    np.add(th, TWO_PI, out=th, where=th < 0.0)
    th -= math.pi
    return None


def _trusted(*values) -> ViewpointTrace:
    """A trace of the field ``values``, its arrays read-only ones that
    `_check_population` passed, not checked again."""
    trace = object.__new__(ViewpointTrace)
    trace.__dict__.update(zip(ViewpointTrace._fields, values))
    return trace


def load_traces(path: str | Path) -> list[ViewpointTrace]:
    """Load viewpoint traces from CSV: every trace `_stream_traces` yields.

    Expected schema (exact header): ``user_id,video_id,timestamp_s,
    theta_rad,phi_rad``, UTF-8, one sample per row.  Consecutive rows with
    the same (user_id, video_id) form one trace; each key's rows must be
    contiguous.  The first fault raises `TraceFormatError`: one the
    tokenizer sees (header, encoding, csv error, column count, non-numeric
    value); else the first key that reappears after its trace ended; else
    the first bad trace in file order, with the first `_check_population`
    check it fails.  A fault in the rows reads ``{path}:{line}:
    {message}``, naming the physical line its row starts on.  `predict_all`
    over the traces adds the last rank: a window that is not a whole number
    of a trace's sample periods, or a trace too short for one predicted
    segment.
    """
    return list(_stream_traces(path))


def _stream_traces(path: str | Path) -> Iterator[ViewpointTrace]:
    """The traces of a trace file, each yielded once it is checked.

    The file is read once, in the pieces of `_pieces`.  The traces that end
    are checked together by `_check_population` once they hold `_CHECK_ROWS`
    rows, and at the end of the file, so only the unfinished trace, the rows
    of one such batch and the keys already seen are held.  The faults rank
    as in `load_traces`.  A tokenizer fault is raised as it is met; of the
    others the first of each rank is held, and once one is, no trace is
    checked or yielded and the file is only tokenized to its end, for a
    fault that outranks it.
    """
    path = Path(path)
    seen: set[tuple[str, str]] = set()
    keys: list[tuple[str, str]] = []  # the traces whose rows `pieces` hold, the last unfinished
    starts: list[int] = []  # their first rows
    pieces: list[tuple[np.ndarray, np.ndarray]] = []  # the rows not yet checked, with their lines
    n = 0
    again = bad = None  # the first reappearing key and the first bad trace: (message, line)
    end = (np.empty((3, 0)), np.empty(0, dtype=int), [])  # an empty piece after the last
    for piece in itertools.chain(_pieces(path), [end]):
        values, lines, changes = piece
        for i, key in changes:
            if key in seen and again is None:
                again = (f"rows of trace {key[0]}/{key[1]} are not contiguous "
                         "(the trace already ended on an earlier line)", int(lines[i]))
            seen.add(key)
        if again or bad:
            continue
        keys += [key for _, key in changes]
        starts += [n + i for i, _ in changes]
        pieces.append((values, lines))
        n += lines.size
        done = len(keys) - (piece is not end)  # the traces that ended; -1 before the first row
        if done <= 0 or piece is not end and starts[done] < _CHECK_ROWS:
            continue
        cut = n if piece is end else starts[done]
        columns = np.concatenate([v for v, _ in pieces], axis=1, out=np.empty((3, n)))
        batch_lines = np.concatenate([lines for _, lines in pieces])
        ts, th, ph = columns[:, :cut]
        fault = _check_population(keys[:done], ts, th, ph, np.array(starts[:done] + [cut]))
        if fault is not None:
            bad = fault[0], int(batch_lines[fault[1]])
            continue
        columns.flags.writeable = False
        for (user, video), lo, hi in zip(keys, starts, starts[1:done] + [cut]):
            yield _trusted(user, video, ts[lo:hi], th[lo:hi], ph[lo:hi])
        pieces = [(columns[:, cut:], batch_lines[cut:])]
        keys, starts, n = keys[done:], [i - cut for i in starts[done:]], n - cut
    if not seen:
        raise TraceFormatError(f"{path}: file contains zero traces")
    if again or bad:
        message, line = again or bad
        raise TraceFormatError(f"{path}:{line}: {message}")


def _pieces(path: Path) -> Iterator[tuple[np.ndarray, np.ndarray, list]]:
    """The rows of a trace file, in pieces ``(values, lines, changes)``.

    ``values`` holds a piece's timestamps, longitudes and latitudes as three
    float64 rows, ``lines`` the physical line each row starts on, and
    ``changes`` ``(row, key)`` for each row whose key differs from the row
    before it in the file.  The pieces come from the block parse
    `_block_pieces`; from the first block it refuses on, from the row loop
    `_row_pieces`, which reads the file again from its start and skips the
    rows the block parse gave.  Each of those is a row of the row loop too,
    and no record spans the end of a block the parse took, since such a
    block holds no quote, so the row loop's faults are those of a file read
    by it alone.
    """
    done = 0
    try:
        for piece in _block_pieces(path):
            yield piece
            done += piece[1].size
    except ValueError:
        for values, lines, changes in _row_pieces(path):
            skip = min(done, lines.size)
            done -= skip
            if skip < lines.size:
                changes = [(i - skip, key) for i, key in changes if i >= skip]
                yield values[:, skip:], lines[skip:], changes


def _row_pieces(path: Path) -> Iterator[tuple[np.ndarray, np.ndarray, list]]:
    """`_pieces` by the csv module, one record at a time, `_CHECK_ROWS` rows
    a piece: the tokenizer of the files the block parse does not take.  Its
    `TraceFormatError` for a malformed record names the line the record
    starts on."""
    samples: list[tuple[float, float, float]] = []
    lines: list[int] = []
    changes: list[tuple[int, tuple[str, str]]] = []
    key = None
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
            last = reader.line_num
            for row in reader:
                lineno, last = last + 1, reader.line_num  # a record starts on the line after the last
                if not row:
                    continue
                if len(row) != len(TRACE_HEADER):
                    raise TraceFormatError(f"{path}:{lineno}: expected {len(TRACE_HEADER)} columns")
                try:
                    samples.append((float(row[2]), float(row[3]), float(row[4])))
                except ValueError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: non-numeric sample: {exc}") from None
                if (row[0], row[1]) != key:
                    key = row[0], row[1]
                    changes.append((len(lines), key))
                lines.append(lineno)
                if len(lines) == _CHECK_ROWS:
                    yield np.array(samples).T, np.array(lines), changes
                    samples, lines, changes = [], [], []
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8: {exc}") from None
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise TraceFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if lines:
        yield np.array(samples).T, np.array(lines), changes


#: Bytes `_block_pieces` reads at a time: about a thousand 60-byte rows.
_CHUNK_BYTES = 1 << 16

#: Rows of ended traces `_stream_traces` checks at a time, about a block's.
_CHECK_ROWS = 1024

#: Bytes on which commas and ``np.loadtxt`` could read a line otherwise than
#: csv and ``float``: a quote (csv strips it), NUL (some csv versions reject
#: it) and 0x1c-0x1f (``loadtxt`` strips them around a number, ``float`` not).
_UNSAFE = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b'"')


def _vouch(block: bytes) -> bytes:
    """``block``, if it holds no `_UNSAFE` byte (`_block_rows` looks for lone CRs)."""
    if any(c in block for c in _UNSAFE):
        raise ValueError("a byte the row loop reads otherwise")
    return block


def _blocks(fh) -> Iterator[bytes]:
    """The whole lines of binary file ``fh``, `_vouch`ed a block of about
    `_CHUNK_BYTES` at a time; the last line gets the newline it may lack."""
    carry = b""
    while data := fh.read(_CHUNK_BYTES):
        data = carry + data
        cut = data.rfind(b"\n") + 1
        if not cut and len(data) > _CHUNK_BYTES:
            raise ValueError("a line longer than a block")
        carry = data[cut:]
        if cut:
            yield _vouch(data[:cut])
    if carry:
        yield _vouch(carry + b"\n")


def _block_rows(block: bytes, key: bytes, line: int) -> tuple[tuple, bytes, int]:
    """The `_pieces` piece of a block of whole lines, the first of them line
    ``line``, whose row before holds ``key``; the key of its last row; and
    the number of the line after the block.

    A row's key is its ``user_id,video_id`` bytes, compared as a byte
    string.  Blank lines hold no row, as in the csv module; every other line
    must have exactly five fields.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    newlines = np.flatnonzero(a == ord("\n"))
    crlf = a[newlines - 1] == ord("\r")
    if np.count_nonzero(a == ord("\r")) != np.count_nonzero(crlf):  # a CR outside a CRLF
        raise ValueError("a line ending the row loop reads otherwise")
    starts = np.concatenate(([0], newlines + 1))[:-1]
    ends = newlines - crlf
    rows = ends > starts
    commas = np.flatnonzero(a == ord(","))
    if np.any(np.diff(np.searchsorted(commas, ends), prepend=0) != 4 * rows):
        raise ValueError("a row without five fields")
    lines = line + np.flatnonzero(rows)
    starts = starts[rows]
    if not starts.size:
        return (np.empty((3, 0)), lines, []), key, line + newlines.size
    key_ends = commas[np.searchsorted(commas, starts) + 1]
    changed = _key_changes(a, starts, key_ends).tolist()
    if block[starts[0] : key_ends[0]] != key:
        changed.insert(0, 0)
    changes = [(i, tuple(block[starts[i] : key_ends[i]].decode("utf-8").split(","))) for i in changed]
    samples = np.loadtxt(
        block.decode("utf-8").split("\n"), delimiter=",", usecols=(2, 3, 4), comments=None, ndmin=2
    )
    if len(samples) != len(starts):  # a guard: the rows must line up with their keys
        raise ValueError("a row loadtxt skipped")
    return (samples.T, lines, changes), block[starts[-1] : key_ends[-1]], line + newlines.size


def _key_changes(a: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The rows, after the first, whose key bytes ``a[starts[i]:ends[i]]``
    differ from the row before's.

    Keys of one length are compared byte by byte, side by side in one flat
    run of their bytes; keys are never empty, since a key holds its comma.
    """
    lens = ends - starts
    changed = lens[1:] != lens[:-1]
    rows = np.flatnonzero(~changed) + 1
    if rows.size:
        n = lens[rows]
        heads = np.cumsum(n) - n  # where each row's bytes start in the run
        at = np.arange(heads[-1] + n[-1]) + np.repeat(starts[rows] - heads, n)
        back = np.repeat(starts[rows] - starts[rows - 1], n)  # to the same byte of the row before
        changed[rows - 1] = np.logical_or.reduceat(a[at] != a[at - back], heads)
    return np.flatnonzero(changed) + 1


def _block_pieces(path: Path) -> Iterator[tuple[np.ndarray, np.ndarray, list]]:
    """`_pieces` by the block parse, a block of about `_CHUNK_BYTES` at a time.

    Raises a plain `ValueError`, never `TraceFormatError`, at the first
    block the row loop might read otherwise: a header that does not match,
    `_UNSAFE` bytes, lone CRs, rows without five fields, values ``loadtxt``
    rejects (``1_0``, full-width digits); and for a file that is not a
    regular one, which the row loop reads once.
    """
    if not path.is_file():
        raise ValueError("not a regular file")
    with path.open("rb") as fh:
        header = _vouch(fh.readline(_CHUNK_BYTES + 1))
        if len(header) > _CHUNK_BYTES:
            raise ValueError("a line longer than a block")
        header = header.removesuffix(b"\n").removesuffix(b"\r")
        if b"\r" in header or [f.strip() for f in header.decode("utf-8").split(",")] != TRACE_HEADER:
            raise ValueError("a header the row loop reads otherwise")
        key, line = b"", 2
        for block in _blocks(fh):
            piece, key, line = _block_rows(block, key, line)
            block = None  # not held while the piece is used
            yield piece


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


class RandomWalk(Record):
    """Spherical random walk: each step perturbs the current point with a
    von-Mises-Fisher draw of concentration ``kappa`` (larger = stiller)."""

    kappa: float

    def __post_init__(self) -> None:
        POSITIVE.check_fields(self, "kappa")


class GreatCircleDrift(Record):
    """Steady rotation along a random great circle at ``rate`` rad/s."""

    rate: float

    def __post_init__(self) -> None:
        NON_NEGATIVE.check_fields(self, "rate")


MotionModel = RandomWalk | GreatCircleDrift


#: Draw ranges of a uniform point on the sphere: height ``z``, longitude ``t``.
_POINT_DRAWS = ((-1.0, 1.0), (-math.pi, math.pi))
#: Draw ranges of one random-walk step: deviation quantile ``u``, then a point.
_STEP_DRAWS = ((0.0, 1.0), *_POINT_DRAWS)
#: Tangents whose component off the current point is no longer than this
#: are replaced by the deterministic fallback of `_unit_tangents`.
_TANGENT_MIN_NORM = 1e-6
#: The domains of a synthetic population's sample rate and trace count.
_RATE = POSITIVE._replace(name="rate")
_TRACE_COUNT = COUNT._replace(name="n_traces")


def sample_count(duration: float, rate: float) -> int:
    """Number of samples in ``duration`` seconds at ``rate`` Hz.

    Raises:
        ValueError: unless ``rate`` is positive and finite and ``duration *
            rate`` is a whole number of at least 2.
    """
    count = duration * _RATE.check(rate)
    if not math.isfinite(count) or round(count) < 2 or abs(round(count) - count) > 1e-9:
        raise ValueError(f"duration {duration!r} at rate {rate!r} must give >= 2 whole samples")
    return round(count)


def _points(
    z: np.ndarray, t: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Unit vectors at height ``z`` and longitude ``t``, xyz along ``axis``,
    into ``out`` if given."""
    c = np.sqrt(1.0 - z * z)
    return np.stack((c * np.cos(t), c * np.sin(t), z), axis=axis, out=out)


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


#: Steps whose random points, ``w`` and ``s`` `_random_walk` takes at a time.
_STEP_BLOCK = 64


def _random_walk(draws: np.ndarray, kappa: float) -> np.ndarray:
    """Unit vectors (trace, sample, xyz) of von-Mises-Fisher random walks.

    Row ``i`` of ``draws`` holds trace ``i``'s start point ``(z, t)``, then
    ``(u, z, t)`` per step.  A step deviates from the current point by an
    angle whose cosine ``w`` is drawn by inverse CDF from ``u`` (exact on
    the 2-sphere, stable for large kappa where exp(-2*kappa) underflows),
    toward the tangent given by the random point ``(z, t)``.

    All traces take each step together, on component rows (xyz, trace) in
    buffers made once per walk; the points, ``w`` and ``s = sqrt(1 - w²)``
    are taken `_STEP_BLOCK` steps at a time.  Each dot product is summed in
    one fixed order, ``(x·x′ + z·z′) + y·y′``, so the walk does not depend
    on the order a numpy build's ``einsum`` takes.  The traces whose
    tangent is degenerate at a step take `_unit_tangents`' fallback.
    """
    n_traces = len(draws)
    steps = draws[:, 2:].reshape(n_traces, -1, 3)
    n_steps = steps.shape[1]
    floor = math.exp(-2.0 * kappa)
    vecs = np.empty((n_traces, n_steps + 1, 3))
    vecs[:, 0] = _points(draws[:, 0], draws[:, 1])
    v = start = vecs[:, 0].T.copy()  # (xyz, trace)
    block = np.empty((min(_STEP_BLOCK, n_steps), 3, n_traces))  # (step, xyz, trace)
    tangent, prod = np.empty((2, 3, n_traces))
    dot = np.empty(n_traces)
    prod_x, prod_y, prod_z = prod

    def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The dot products of the columns of ``a`` and ``b``, into ``dot``."""
        np.multiply(a, b, out=prod)
        np.add(prod_x, prod_z, out=dot)
        return np.add(dot, prod_y, out=dot)

    for k in range(0, n_steps, _STEP_BLOCK):
        u, z_draw, t_draw = steps[:, k : k + _STEP_BLOCK].T  # each (step, trace)
        w = 1.0 + np.log(u * (1.0 - floor) + floor) / kappa
        np.clip(w, -1.0, 1.0, out=w)
        s = np.sqrt(np.maximum(0.0, 1.0 - w * w))
        # each step's random point is overwritten by the point the step reaches
        walked = _points(z_draw, t_draw, axis=1, out=block[: len(u)])
        for j, p in enumerate(walked):
            # the tangent: p less its component along v, normalized
            np.multiply(v, dot_rows(p, v), out=tangent)
            np.subtract(p, tangent, out=tangent)
            norm = np.sqrt(dot_rows(tangent, tangent), out=dot)
            if norm.min() <= _TANGENT_MIN_NORM:
                bad = norm <= _TANGENT_MIN_NORM
                tangent[:, bad] = _unit_tangents(v.T[bad], p.T[bad]).T
                norm[bad] = 1.0
            tangent /= norm
            tangent *= s[j]
            np.multiply(v, w[j], out=p)
            p += tangent
            p /= np.sqrt(dot_rows(p, p), out=dot)
            v = p
        vecs[:, k + 1 : k + 1 + len(walked)] = walked.transpose(2, 0, 1)
        start[...] = v  # the next block's points overwrite v
        v = start
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
        n_traces: number of traces, an integer in [1, 2**53].
        duration: seconds per trace; duration * rate must be integral.
        rate: samples per second.
        seed: RNG seed, a non-negative integer; identical inputs give
            identical traces.
    """
    n_traces, n = _TRACE_COUNT.check(n_traces), sample_count(duration, rate)
    times = np.arange(n) / rate
    if isinstance(model, GreatCircleDrift):
        ranges = _POINT_DRAWS * 2
    else:
        ranges = _POINT_DRAWS + _STEP_DRAWS * (n - 1)
    lo, hi = np.array(ranges).T
    draws = np.random.default_rng(SEED.check(seed)).uniform(lo, hi, size=(n_traces, len(ranges)))
    if isinstance(model, GreatCircleDrift):
        start = _points(draws[:, 0], draws[:, 1])
        tangent = _unit_tangents(start, _points(draws[:, 2], draws[:, 3]))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite angle fails the check below
            angles = (model.rate * times)[:, None]
            vecs = np.cos(angles) * start[:, None, :] + np.sin(angles) * tangent[:, None, :]
    else:
        vecs = _random_walk(draws, model.kappa)
    del draws
    theta = np.arctan2(vecs[:, :, 1], vecs[:, :, 0])
    phi = np.arcsin(np.clip(vecs[:, :, 2], -1.0, 1.0))
    del vecs
    label = type(model).__name__.lower()
    keys = [(f"synthetic-{i:03d}", label) for i in range(n_traces)]
    bounds = np.arange(n_traces + 1) * n
    fault = _check_population(keys, np.tile(times, n_traces), theta.ravel(), phi.ravel(), bounds)
    if fault is not None:
        raise TraceFormatError(fault[0])
    for column in (times, theta, phi):
        column.flags.writeable = False
    return [_trusted(user, video, times, theta[i], phi[i]) for i, (user, video) in enumerate(keys)]


# ---------------------------------------------------------------------------
# windowing and prediction


class WindowingConfig(Record):
    """Timing of the observe / compute-and-communicate / play cycle.

    ``t_obw`` observation window, ``t_cc`` computing-plus-communication
    gap, ``t_pdw`` segment (prediction window) duration, all seconds.
    ``t_obw + t_cc`` must be a whole number of segments: the passive
    prefix, played before any prediction completes.
    """

    t_obw: float
    t_cc: float
    t_pdw: float

    def __post_init__(self) -> None:
        POSITIVE.check_fields(self, "t_obw", "t_cc", "t_pdw")
        lead = self.t_obw + self.t_cc
        whole = math.isfinite(lead / self.t_pdw) and self.passive_prefix >= 1
        if not whole or abs(lead - self.passive_prefix * self.t_pdw) > 1e-9:
            raise ValueError(
                "t_obw + t_cc must be a whole number (at least 1) of t_pdw segments "
                f"({self.t_obw} + {self.t_cc} over {self.t_pdw})"
            )

    @property
    def passive_prefix(self) -> int:
        """Segments played before the first prediction completes."""
        return round((self.t_obw + self.t_cc) / self.t_pdw)

    def samples(self, rate: float) -> tuple[int, int, int]:
        """Samples in the observation window, the gap and one segment at ``rate`` Hz;
        a ``ValueError`` unless each is a whole number (at least 1)."""
        for name in ("t_obw", "t_cc", "t_pdw"):
            count = getattr(self, name) * rate
            whole = math.isfinite(count) and abs(count - round(count)) <= 1e-6
            if not whole or round(count) < 1:
                raise ValueError(
                    f"{name} {getattr(self, name)!r} s is not a whole number of sample periods "
                    f"at {rate!r} Hz"
                )
        return round(self.t_obw * rate), round(self.t_cc * rate), round(self.t_pdw * rate)


class Predictor(enum.Enum):
    """Viewpoint predictor applied per segment."""

    LAST_POSITION = "last_position"
    GREAT_CIRCLE = "great_circle_extrapolation"


#: Frames `predict_all` predicts at a time, about 100 KiB per work array.
_CHUNK_FRAMES = 4096


def predict(trace: ViewpointTrace, win: WindowingConfig, predictor: Predictor) -> np.ndarray:
    """`predict_all` of the one trace."""
    return predict_all([trace], win, predictor)


def predict_all(
    traces: Iterable[ViewpointTrace], win: WindowingConfig, predictor: Predictor
) -> np.ndarray:
    """Run segment-wise prediction over traces and emit per-frame errors.

    For each predicted segment the observation window ends ``t_cc`` before
    the segment starts; the predictor sees only those samples.
    ``LAST_POSITION`` repeats the final observed point.  ``GREAT_CIRCLE``
    continues the great circle through the last two observed points at
    their observed angular rate (holding position when they coincide).
    Trailing samples that do not fill a whole segment are ignored.  Window
    sample counts are `WindowingConfig.samples` at each trace's own rate; a
    window that is not a whole number of them, or a trace too short for one
    predicted segment, raises `TraceFormatError` for the first such trace,
    once ``traces`` is used up: a fault that iterating them raises, such as
    `load_traces`' faults of a trace file, comes first.

    ``traces`` may be any iterable, such as the stream of a trace file:
    consecutive traces of one length and rate are predicted together, a
    chunk of about `_CHUNK_FRAMES` frames at a time, as they come, and only
    the chunk's traces are held.

    Returns:
        The errors in radians, in trace order, and per trace one per frame
        of every predicted segment, segment-major:
        ``(len(trace) // spseg - passive_prefix) * spseg`` of them,
        ``spseg`` being the samples per segment.
    """
    parts: list[np.ndarray] = []
    chunk: list[ViewpointTrace] = []
    shape = windows = fault = None
    frames = step = 0

    def predict_chunk() -> None:
        if chunk:
            theta, phi = (np.stack([getattr(tr, name) for tr in chunk]) for name in ("theta", "phi"))
            vecs = _unit_vectors(theta, phi)
            del theta, phi  # these and the chunk's traces go before the kernel's work arrays come
            chunk.clear()
            parts.append(np.empty(vecs.shape[0] * frames))
            _predict_block(vecs, win.passive_prefix, windows, predictor, parts[-1])

    for trace in traces:
        if fault is not None:
            continue
        n, rate = len(trace), trace.sample_rate
        if (n, rate) != shape:  # a run of traces of one length and rate starts
            predict_chunk()
            shape, name = (n, rate), f"{trace.user_id}/{trace.video_id}"
            try:
                windows = win.samples(rate)
            except ValueError as exc:
                fault = TraceFormatError(f"trace {name}: {exc}")
                continue
            obw, cc, spseg = windows
            if n < obw + cc + spseg:
                fault = TraceFormatError(
                    f"trace {name} has {n} samples, "
                    f"needs at least {obw + cc + spseg} for one predicted segment"
                )
                continue
            frames = max(0, n // spseg - win.passive_prefix) * spseg
            step = max(1, _CHUNK_FRAMES // max(1, frames))  # traces per chunk
        chunk.append(trace)
        if len(chunk) == step:
            predict_chunk()
    if fault is not None:
        raise fault
    if shape is None:
        raise ValueError("no traces given")
    predict_chunk()
    return np.concatenate(parts)


def _predict_block(
    vecs: np.ndarray, prefix: int, windows: tuple[int, int, int], predictor: Predictor,
    out: np.ndarray,
) -> None:
    """`predict_all` over the unit vectors (trace, sample, xyz) of traces of
    one length and rate, into ``out``."""
    obw, cc, spseg = windows
    # the predicted frames run from the first predicted segment to the last whole one
    first, stop = prefix * spseg, vecs.shape[1] // spseg * spseg
    frames = np.arange(spseg)
    # the observation window ends cc samples before each segment starts
    last = vecs[:, first - cc - 1 : stop - cc - 1 : spseg].reshape(-1, 3)  # (trace and segment, xyz)
    actual = vecs[:, first:stop]  # (trace, frame, xyz), a view
    pred = np.repeat(last[:, None, :], spseg, axis=1)
    if predictor is Predictor.GREAT_CIRCLE and obw >= 2:
        prev = vecs[:, first - cc - 2 : stop - cc - 2 : spseg].reshape(-1, 3)
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
        # frame k leads the last observed sample by cc + k + 1 periods
        angles = (gap[:, None] * (frames + cc + 1))[:, :, None]
        turned = np.cos(angles) * last[:, None, :]
        turned += np.sin(angles) * t_hat[:, None, :]
        pred[moving] = turned
    dots = np.clip(np.einsum("ijk,ijk->ij", actual, pred.reshape(actual.shape)), -1.0, 1.0)
    np.arccos(dots, out=out.reshape(dots.shape))
