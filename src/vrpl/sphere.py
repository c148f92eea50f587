"""Spherical geometry primitives, the domain of each analysis input, and
`Record`, the frozen base of the package's records.

A cap of angular radius ``r`` around a center point is the set of points
within orthodromic distance ``r`` of the center.  All areas are on the
unit sphere, so the full sphere has area ``4*pi``.

The closed-form cap/cap overlap area is cross-checked by a seeded
Monte-Carlo estimator (`mc_cap_overlap`) that shares no code with the
analytic path.  The scalar lens `_lens_area` stays apart from the array
lens as the self-check's separate arithmetic (3 µs against 75 µs).
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

TWO_PI = 2.0 * math.pi
SPHERE_AREA = 4.0 * math.pi


#: How interval ends print in domain errors.
_END_NAMES = {0.0: "0", 1.0: "1", math.pi / 2: "pi/2", math.pi: "pi", 2.0**53: "2**53"}


class Record:
    """A frozen record of the fields its class annotates, in order.

    A subclass lists its fields as annotations, each with a class-level
    default where it has one, as a dataclass does.  A record is built from
    its fields by position or keyword, then runs the class's
    ``__post_init__``.  It refuses assignment and deletion (a
    ``__post_init__`` stores a normalized field with ``object.__setattr__``).
    It compares and hashes as its fields do, in order, and only against its
    own class; ``class T(Record, eq=False)`` keeps identity instead.  It
    prints as ``Name(field=value, ...)``, and `inspect.signature` gives its
    fields as parameters.  ``_fields`` names the fields,
    ``_asdict()`` maps them to their values (not copied) and
    ``_replace(**changes)`` builds a new record through ``__init__``.
    Nothing is generated per class, so defining one costs about what a
    plain class does.
    """

    # not annotated: a class's annotations are its fields
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(inspect.get_annotations(cls))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        cls.__signature__ = inspect.Signature(
            [inspect.Parameter(name, kind, default=cls._defaults.get(name, empty)) for name in cls._fields]
        )
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        names, rest = self._fields, self._fields[len(args):]
        if len(args) > len(names) or not kwargs.keys() <= set(rest):
            raise TypeError(
                f"{type(self).__name__} takes the fields ({', '.join(names)}), "
                f"got {len(args)} by position and {sorted(kwargs)} by keyword"
            )
        given = {**self._defaults, **kwargs}
        try:
            self.__dict__.update(zip(names, args), **{name: given[name] for name in rest})
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__} is missing the field {missing}") from None
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalize the fields; a subclass's own rules go here."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        """The fields' values by name, in field order."""
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        """A record of this class with ``changes`` to its fields, checked again."""
        return type(self)(**{**self._asdict(), **changes})


class Domain(Record):
    """The interval one kind of input must lie in.

    Every public function checks each argument once, with `check` for a
    scalar or `check_array` for broadcastable arrays; both reject NaN and
    ±inf and raise ``ValueError("<name> <value> outside <interval>")``.
    ``hi`` narrows the upper end for one call, as the field-of-view radius
    caps the protection radius.  An ``integer`` domain compares an integer
    as it is, so ``10**400`` lies outside rather than overflowing a float,
    and refuses a ``bool``, which is an integer to Python but no count.
    """

    name: str
    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False
    integer: bool = False

    def _inside(self, v, top):
        """Elementwise test of ``v`` against the domain up to ``top``; NaN fails."""
        above = v > self.lo if self.open_lo else v >= self.lo
        return above & (v < top if self.open_hi else v <= top)

    def _error(self, value, top: float, name: str) -> ValueError:
        lo, hi = (_END_NAMES.get(v, repr(v)) for v in (self.lo, top))
        interval = f"{'(' if self.open_lo else '['}{lo}, {hi}{')' if self.open_hi else ']'}"
        return ValueError(f"{name} {value!r} outside {interval}")

    def _checked(self, x, top: float, name: str):
        """``x`` as a float, or an int for an integer domain, if it lies in the domain up to ``top``."""
        if self.integer and (not isinstance(x, numbers.Integral) or isinstance(x, bool)):
            raise ValueError(f"{name} {x!r} is not an integer")
        v = int(x) if self.integer else float(x)
        if not self._inside(v, top):
            raise self._error(x, top, name)
        return v

    def check(self, x, hi: float | None = None) -> float:
        """``x`` as a float (an int, for an integer domain), if it lies in the domain."""
        return self._checked(x, self.hi if hi is None else hi, self.name)

    def check_fields(self, record, *names: str) -> None:
        """Check the fields ``names`` of ``record``: the ``ValueError`` names the
        field where `check` names the domain, and holds it as ``field``."""
        for name in names:
            value = getattr(record, name)
            try:
                if not isinstance(value, numbers.Real):  # as float() would take "5"
                    raise ValueError(f"{name} {value!r} is not a number")
                self._checked(value, self.hi, name)
            except ValueError as exc:
                exc.field = name
                raise

    def check_array(self, x, hi=None) -> np.ndarray:
        """``x`` as a float array, if every element lies in the domain.

        ``hi`` may be an array broadcastable against ``x``.
        """
        arr = np.asarray(x, dtype=float)
        top = self.hi if hi is None else hi
        ok = self._inside(arr, top)
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            bad, cap = (float(np.broadcast_to(a, ok.shape).flat[i]) for a in (arr, top))
            raise self._error(bad, cap, self.name)
        return arr


#: The domain of each analysis input, in radians or as a fraction.  The
#: field of view starts at 1e-6 rad: below about 1.05e-8, 1 - cos(r_fov)
#: rounds to 0, and the QoE and the sweep divide by it.
FOV = Domain("field-of-view radius", 1e-6, math.pi / 2)
CAP_RADIUS = Domain("cap radius", 0.0, math.pi)
STREAMED_RADIUS = CAP_RADIUS._replace(name="streamed-cap radius")
ERROR = Domain("viewpoint error", 0.0, math.pi)
DISTANCE = ERROR._replace(name="center distance")
EPSILON = Domain("protection radius", 0.0, math.pi / 2)
PROBABILITY = Domain("probability", 0.0, 1.0)
QOE = PROBABILITY._replace(name="QoE")

#: The domains of the scenario records' numbers; a count is an integer up to
#: 2**53, the largest a float holds exactly.
POSITIVE = Domain("positive number", 0.0, math.inf, open_lo=True, open_hi=True)
NON_NEGATIVE = POSITIVE._replace(name="non-negative number", open_lo=False)
AT_LEAST_1 = NON_NEGATIVE._replace(name="compression ratio", lo=1.0)
COUNT = Domain("sample count", 1, 2**53, integer=True)
#: A random generator's seed: any non-negative integer, as numpy takes.
SEED = Domain("seed", 0, math.inf, open_hi=True, integer=True)


def cap_area(r: float) -> float:
    """Area of a spherical cap of angular radius ``r``: 2*pi*(1 - cos r)."""
    return TWO_PI * (1.0 - math.cos(CAP_RADIUS.check(r)))


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


def _overlap_tests(r1, r2, d) -> tuple:
    """The closed overlap tests in tie order, floats or arrays: 1 in 2, 2 in 1, disjoint, covering."""
    return r2 >= r1 + d, r1 >= r2 + d, d >= r1 + r2, r1 + r2 + d >= TWO_PI


def cap_overlap_area(r1: float, r2: float, d: float) -> float:
    """Overlap area of two caps of radii ``r1`` and ``r2`` at center distance ``d``.

    Total over all configurations: containment returns the smaller cap's
    area, disjoint caps return zero, caps whose union covers the sphere
    (r1 + r2 + d >= 2*pi) return area(r1) + area(r2) - 4*pi, and the
    partial-overlap regime evaluates the closed-form lens area.  Boundary
    ties resolve to the closed case tested first (`_overlap_tests`), in the
    order containment-of-1, containment-of-2, disjoint, covering.

    Args:
        r1, r2: cap radii in [0, pi].
        d: center separation in [0, pi].

    Returns:
        Overlap area in [0, min(area(r1), area(r2))].
    """
    a, b, dist = CAP_RADIUS.check(r1), CAP_RADIUS.check(r2), DISTANCE.check(d)
    a_in_b, b_in_a, disjoint, covering = _overlap_tests(a, b, dist)
    if a_in_b:
        return cap_area(a)
    if b_in_a:
        return cap_area(b)
    if disjoint:
        return 0.0
    if covering:
        return cap_area(a) + cap_area(b) - SPHERE_AREA
    raw = _lens_area(a, b, dist)
    return min(max(raw, 0.0), min(cap_area(a), cap_area(b)))


def _arccos_clipped(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The arccos of ``x``'s values clamped to [-1, 1], into ``out``."""
    return np.arccos(np.clip(x, -1.0, 1.0, out=out), out=out)


def lens_terms(r1, r2) -> tuple:
    """The radius step of the array lens: its terms of ``r1`` and ``r2`` alone.

    ``(c1, c2, s1, s2, c1 c2, s1 s2, pi - pi c1 - pi c2, cap / 2)``, with
    ``c = cos r``, ``s = sin r`` and ``cap`` the smaller cap's area,
    elementwise over the radii as given (not broadcast).  The last two are
    halves of the lens's constant term and of its clamp, exactly, since
    scaling by 2 is exact: the lens is evaluated halved and doubled last.
    """
    a, b = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
    c1, c2, s1, s2 = np.cos(a), np.cos(b), np.sin(a), np.sin(b)
    half_base = math.pi - math.pi * c1 - math.pi * c2
    half_cap = np.minimum(math.pi * (1.0 - c1), math.pi * (1.0 - c2))
    return c1, c2, s1, s2, c1 * c2, s1 * s2, half_base, half_cap


def _half_lens(terms: tuple, cos_d, sin_d, cos_d_c1, sin_d_s1, work: np.ndarray, clip: bool):
    """Half the lens, clamped to ``[0, cap / 2]``, written into ``work[0]``.

    The one array form of `_lens_area`'s expression: ``(pi - pi c1 - pi c2
    - t0) + c1 t1 + c2 t2``, term by term in its order, from `lens_terms`'
    ``terms`` and the distances' cosine ``cos_d`` and sine ``sin_d``.  The
    products ``cos_d c1`` and ``sin_d s1`` of ``t1``'s argument come in
    ready, so a caller that holds ``r1`` fixed takes them once.  Twice the
    result is the full expression's lens (with ``2 pi``, ``2 c1``, ``2 c2``
    and the whole cap) bit for bit, as scaling by 2 is exact.

    With ``clip`` each arccos argument is clamped to [-1, 1] first.
    Without it, an argument that rounds past ±1 gives NaN, which the clamp
    (`np.maximum`, `np.minimum`) carries through: the caller sees it in
    the result and evaluates again with ``clip``.  ``work`` holds three
    rows of the broadcast shape; the last two are scratch, and may hold
    ``cos_d_c1`` and ``sin_d_s1`` on entry, as `lens_area` passes them.
    """
    c1, c2, s1, s2, c1c2, s1s2, half_base, half_cap = terms
    lens, term, denom = work
    arccos = _arccos_clipped if clip else np.arccos
    with np.errstate(divide="ignore", invalid="ignore"):
        # pi - pi c1 - pi c2 - t0, with t0 = acos((cd - c1 c2) / (s1 s2))
        np.subtract(cos_d, c1c2, out=lens)
        arccos(np.divide(lens, s1s2, out=lens), out=lens)
        np.subtract(half_base, lens, out=lens)
        # + c1 t1, with t1 = acos((-c2 + cd c1) / (sd s1)); cd c1 - c2 rounds alike
        np.subtract(cos_d_c1, c2, out=term)
        arccos(np.divide(term, sin_d_s1, out=term), out=term)
        np.add(lens, np.multiply(c1, term, out=term), out=lens)
        # + c2 t2, with t2 = acos((-c1 + cd c2) / (sd s2))
        np.subtract(np.multiply(cos_d, c2, out=term), c1, out=term)
        np.divide(term, np.multiply(sin_d, s2, out=denom), out=term)
        arccos(term, out=term)
        np.add(lens, np.multiply(c2, term, out=term), out=lens)
        np.maximum(lens, 0.0, out=lens)
        return np.minimum(lens, half_cap, out=lens)


def lens_area(terms: tuple, cos_d, sin_d, work: np.ndarray) -> np.ndarray:
    """The per-distance step of the array lens, from `lens_terms`' ``terms``.

    `cap_overlap_area`'s partial-overlap expression and clamp at the
    distances of cosine ``cos_d`` and sine ``sin_d``: twice `_half_lens`
    with every arccos argument clamped, in the three rows of ``work`` (a
    ``(3, *shape)`` float array for the inputs' broadcast shape), returned
    in ``work[0]``.  Unchecked: every element must lie strictly inside the
    partial-overlap case.
    """
    _, term, denom = work
    np.multiply(cos_d, terms[0], out=term)
    np.multiply(sin_d, terms[2], out=denom)
    half = _half_lens(terms, cos_d, sin_d, term, denom, work, clip=True)
    return np.multiply(2.0, half, out=half)


def mc_cap_overlap(r1: float, r2: float, d: float, n: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the cap/cap overlap area.

    One cap is centered at the north pole and the other at latitude
    ``pi/2 - d`` on the same meridian; uniform samples are counted when
    they land in both caps.

    Args:
        r1, r2: cap radii in [0, pi].
        d: center separation in [0, pi].
        n: number of samples, an integer in [1, 2**53].
        seed: RNG seed, a non-negative integer; identical seeds give
            identical estimates.

    Returns:
        (estimate, std_error) where estimate = 4*pi * hit_fraction and
        std_error is the binomial standard error scaled by 4*pi.
    """
    a, b, dist = CAP_RADIUS.check(r1), CAP_RADIUS.check(r2), DISTANCE.check(d)
    rng = np.random.default_rng(SEED.check(seed))
    z = rng.uniform(-1.0, 1.0, COUNT.check(n))  # sine of latitude
    theta = rng.uniform(-math.pi, math.pi, n)
    # cos(distance to second center) via the law of cosines; cos(lat) >= 0
    cos_d2 = np.sqrt(1.0 - z * z) * math.sin(dist) * np.cos(theta) + z * math.cos(dist)
    hits = np.count_nonzero((z >= math.cos(a)) & (cos_d2 >= math.cos(b)))
    p = hits / n
    estimate = SPHERE_AREA * p
    std_error = SPHERE_AREA * math.sqrt(p * (1.0 - p) / n)
    return estimate, std_error
