"""Scenario configuration.

A scenario is a single declarative JSON document; command-line flags
override individual fields.  Angles are unit-tagged: every angular field
accepts a ``*_rad`` or ``*_deg`` key (exactly one), and the protection
radius additionally accepts ``epsilon_frac_of_fov`` as a fraction of the
field-of-view radius.  Tag choice never changes the resolved value.

Validation failures carry the offending field path.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from pathlib import Path

import numpy as np

from .resources import ChannelConfig, ResourceConfig, TileSpec
from .sphere import COUNT, EPSILON, ERROR, FOV, POSITIVE, PROBABILITY, STREAMED_RADIUS, Record
from .traces import (
    GreatCircleDrift,
    MotionModel,
    Predictor,
    RandomWalk,
    WindowingConfig,
    sample_count,
)

#: Baseline scenario: 50 degree field of view, protection radius 0.4 of it,
#: 1 s segments with a 1 s observation window and a 1 s
#: computing-plus-communication gap (2 segments played passively).
DEFAULT_R_FOV_RAD = math.radians(50.0)
DEFAULT_EPSILON_FRAC = 0.4
DEFAULT_WINDOWING = dict(t_obw=1.0, t_cc=1.0, t_pdw=1.0)
DEFAULT_GRID_N = 181

#: The most values a grid, a sweep table or a synthetic population may
#: hold; a run at the limit stays near 1 GiB.
MAX_ELEMENTS = 2**22

#: The domain of each sweep grid, by grid name.
GRIDS = {"error": ERROR, "epsilon": EPSILON, "r_sv": STREAMED_RADIUS}

#: The domain of ``epsilon_frac_of_fov``.
_FRACTION = PROBABILITY._replace(name="fraction")


class ConfigError(ValueError):
    """Configuration parse or validation failure, with a field path."""


def _float(value, path: str) -> float:
    """A JSON number as a float; an integer too large for one is a `ConfigError`."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected float, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float") from None


def check_size(count: int, path: str, what: str) -> None:
    """Reject ``count`` values above `MAX_ELEMENTS`, before they are allocated."""
    if count > MAX_ELEMENTS:
        raise ConfigError(f"{path}: {what} gives {count} values, above the limit of {MAX_ELEMENTS}")


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = doc[key]
    if kind is float:
        return _float(value, f"{path}.{key}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _optional(doc: dict, key: str, kind, path: str, default=None):
    if key not in doc:
        return default
    return _require(doc, key, kind, path)


def _in_domain(check, value, path: str, **kwargs):
    """Run a check such as a `Domain`'s; its ``ValueError`` becomes a `ConfigError` on ``path``."""
    try:
        return check(value, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _angle(doc: dict, base: str, path: str, default: float | None = None) -> float | None:
    """Resolve a unit-tagged angle (``<base>_rad`` or ``<base>_deg``)."""
    rad_key, deg_key = f"{base}_rad", f"{base}_deg"
    present = [k for k in (rad_key, deg_key) if k in doc]
    if len(present) > 1:
        raise ConfigError(f"{path}.{base}: give exactly one of {rad_key} or {deg_key}")
    if not present:
        return default
    value = _require(doc, present[0], float, path)
    return value if present[0] == rad_key else math.radians(value)


class SyntheticSpec(Record):
    """Synthetic-trace generation parameters."""

    model: MotionModel
    n_traces: int
    duration: float
    rate: float

    def __post_init__(self) -> None:
        COUNT.check_fields(self, "n_traces")
        POSITIVE.check_fields(self, "duration", "rate")


class Scenario(Record):
    """Fully resolved scenario; angular fields are radians."""

    r_fov: float
    epsilon: float
    max_leak_prob: float | None
    seed: int
    grids: dict[str, np.ndarray]
    windowing: WindowingConfig
    predictor: Predictor
    traces_csv: str | None
    synthetic: SyntheticSpec | None
    resource: ResourceConfig | None
    tile: TileSpec | None
    channel: ChannelConfig | None


def load_config(path: str | Path) -> dict:
    """Read a JSON scenario document."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path} is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or deep nesting
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config: top-level document must be an object")
    return doc


def _resolve_grid(spec, path: str) -> np.ndarray:
    """A grid given as a non-empty list of values or as ``{lo, hi, n}``, as a float array."""
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{path}: expected a non-empty list")
        check_size(len(spec), path, "the grid")
        return np.array([_float(v, f"{path}[{i}]") for i, v in enumerate(spec)])
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object or list")
    for key in spec:
        if key not in ("lo", "hi", "n"):
            raise ConfigError(f"{path}.{key}: unknown field")
    lo = _require(spec, "lo", float, path)
    hi = _require(spec, "hi", float, path)
    n = _require(spec, "n", int, path)
    for key, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ConfigError(f"{path}.{key}: must be finite, got {value!r}")
    if n < 1:
        raise ConfigError(f"{path}.n: must be >= 1")
    check_size(n, f"{path}.n", "the grid")
    if hi < lo:
        raise ConfigError(f"{path}: hi {hi!r} below lo {lo!r}")
    if n == 1:
        return np.array([lo])
    step = (hi - lo) / (n - 1)
    return lo + np.arange(n) * step


def parse_grid_override(spec: str) -> dict[str, np.ndarray]:
    """Parse a ``--grid`` flag: ``name=lo:hi:n`` terms, comma separated.

    Valid names are ``error``, ``epsilon`` and ``r_sv``.
    """
    grids: dict[str, np.ndarray] = {}
    for term in spec.split(","):
        if "=" not in term:
            raise ConfigError(f"--grid: term {term!r} is not name=lo:hi:n")
        name, _, rng = term.partition("=")
        name = name.strip()
        if name not in GRIDS:
            raise ConfigError(f"--grid: unknown grid name {name!r}")
        parts = rng.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--grid: range {rng!r} is not lo:hi:n")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"--grid: range {rng!r} is not numeric lo:hi:n") from None
        grids[name] = _resolve_grid({"lo": lo, "hi": hi, "n": n}, f"--grid {name}")
    return grids


#: The annotated type of each field of a record class, found once per class.
_field_types = functools.cache(typing.get_type_hints)


def _resolve_block(cls, doc: dict, path: str, keys: dict[str, str] | None = None, **given):
    """Build the record ``cls`` from the config block ``doc``.

    Each field not passed in ``given`` is required, with its annotated type,
    under the key ``keys`` names for it (the field name by default); any
    other key is rejected.  A ``ValueError`` from ``cls`` becomes a
    `ConfigError`: on the field's key, named as the key, for a field
    outside its `Domain` (`Domain.check_fields`), else on ``path``.
    """
    keys = keys or {}
    types = _field_types(cls)
    known = {keys.get(name, name) for name in types}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
    args = {
        name: given[name] if name in given else _require(doc, keys.get(name, name), kind, path)
        for name, kind in types.items()
    }
    try:
        return cls(**args)
    except ValueError as exc:
        field = getattr(exc, "field", None)
        if field is None:  # a rule across fields
            raise ConfigError(f"{path}: {exc}") from None
        key = keys.get(field, field)
        raise ConfigError(f"{path}.{key}: {key} {str(exc).partition(' ')[2]}") from None


#: Motion model of each synthetic ``model`` name, and the config key of
#: each of its fields.
_MOTION_MODELS = {
    "random_walk": (RandomWalk, {"kappa": "kappa"}),
    "great_circle_drift": (GreatCircleDrift, {"rate": "rate_rad_s"}),
}


def _resolve_synthetic(doc: dict, windowing: WindowingConfig) -> SyntheticSpec:
    """The synthetic block, with traces long enough for one predicted segment."""
    path = "config.synthetic"
    kind = _require(doc, "model", str, path)
    if kind not in _MOTION_MODELS:
        raise ConfigError(
            f"{path}.model: unknown model {kind!r} (expected random_walk or great_circle_drift)"
        )
    cls, keys = _MOTION_MODELS[kind]
    own = set(keys.values())
    model = _resolve_block(cls, {k: v for k, v in doc.items() if k in own}, path, keys)
    spec = _resolve_block(
        SyntheticSpec,
        {k: v for k, v in doc.items() if k not in own},
        path,
        {"duration": "duration_s", "rate": "rate_hz"},
        model=model,
    )
    n = _in_domain(sample_count, spec.duration, f"{path}.duration_s", rate=spec.rate)
    check_size(spec.n_traces * n, path, "n_traces * duration_s * rate_hz")
    needs = sum(_in_domain(windowing.samples, spec.rate, "config.windowing"))
    if n < needs:
        raise ConfigError(
            f"{path}.duration_s: {spec.duration!r} s gives {n} samples, "
            f"needs at least {needs} for one predicted segment"
        )
    return spec


def resolve_scenario(doc: dict, overrides: dict | None = None) -> Scenario:
    """Validate a config document and apply flag overrides (flags win).

    Recognized override keys: ``seed`` (int) and ``grids``
    (name -> resolved grid).
    """
    overrides = overrides or {}
    known = {
        "r_fov_rad", "r_fov_deg", "epsilon_rad", "epsilon_deg", "epsilon_frac_of_fov",
        "max_leak_prob", "seed", "grids", "windowing", "predictor", "traces_csv",
        "synthetic", "resources", "tile", "channel",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(f"config.{key}: unknown field")

    r_fov = _angle(doc, "r_fov", "config", default=DEFAULT_R_FOV_RAD)
    _in_domain(FOV.check, r_fov, "config.r_fov")

    eps_tags = [k for k in ("epsilon_rad", "epsilon_deg", "epsilon_frac_of_fov") if k in doc]
    if len(eps_tags) > 1:
        raise ConfigError("config.epsilon: give exactly one epsilon tag")
    if not eps_tags:
        epsilon = DEFAULT_EPSILON_FRAC * r_fov
    elif eps_tags[0] == "epsilon_frac_of_fov":
        frac = _require(doc, "epsilon_frac_of_fov", float, "config")
        epsilon = _in_domain(_FRACTION.check, frac, "config.epsilon_frac_of_fov") * r_fov
    else:
        epsilon = _angle(doc, "epsilon", "config")
    _in_domain(EPSILON.check, epsilon, "config.epsilon", hi=r_fov)

    max_leak = _optional(doc, "max_leak_prob", float, "config")
    if max_leak is not None:
        _in_domain(PROBABILITY.check, max_leak, "config.max_leak_prob")

    seed = overrides.get("seed")
    if seed is None:
        seed = _optional(doc, "seed", int, "config", default=0)
    if seed < 0:
        raise ConfigError(f"config.seed: {seed!r} must be >= 0")

    win_doc = _optional(doc, "windowing", dict, "config", default={})
    windowing = _resolve_block(WindowingConfig, {**DEFAULT_WINDOWING, **win_doc}, "config.windowing")

    predictor_name = _optional(doc, "predictor", str, "config", default=Predictor.LAST_POSITION.value)
    try:
        predictor = Predictor(predictor_name)
    except ValueError:
        raise ConfigError(
            f"config.predictor: unknown predictor {predictor_name!r} "
            f"(expected one of {[p.value for p in Predictor]})"
        ) from None

    traces_csv = _optional(doc, "traces_csv", str, "config")
    if traces_csv == "":
        raise ConfigError("config.traces_csv: expected a file path, got ''")
    synthetic = None
    if "synthetic" in doc:
        synthetic = _resolve_synthetic(_require(doc, "synthetic", dict, "config"), windowing)
    if traces_csv is not None and synthetic is not None:
        raise ConfigError("config: give only one of traces_csv and synthetic")

    resource = tile = None
    if "resources" in doc:
        if "tile" not in doc:
            raise ConfigError("config.tile: required when config.resources is given")
        res_doc = _require(doc, "resources", dict, "config")
        resource = _resolve_block(ResourceConfig, res_doc, "config.resources")
        tile = _resolve_block(TileSpec, _require(doc, "tile", dict, "config"), "config.tile")
    elif "tile" in doc:
        raise ConfigError("config.resources: required when config.tile is given")

    channel = None
    if "channel" in doc:
        ch_doc = _require(doc, "channel", dict, "config")
        channel = _resolve_block(ChannelConfig, ch_doc, "config.channel")

    grid_doc = _optional(doc, "grids", dict, "config", default={})
    grids: dict[str, np.ndarray] = {}
    for name in GRIDS:
        if name in grid_doc:
            grids[name] = _resolve_grid(grid_doc[name], f"config.grids.{name}")
    for name in grid_doc:
        if name not in GRIDS:
            raise ConfigError(f"config.grids.{name}: unknown grid")
    grids.update(overrides.get("grids", {}))
    grids.setdefault("error", _resolve_grid({"lo": 0.0, "hi": math.pi, "n": DEFAULT_GRID_N}, "default"))
    grids.setdefault("epsilon", np.array([epsilon]))
    grids.setdefault("r_sv", _resolve_grid({"lo": 0.0, "hi": math.pi, "n": DEFAULT_GRID_N}, "default"))
    for name, grid in grids.items():
        grids[name] = _in_domain(GRIDS[name].check_array, grid, f"config.grids.{name}")

    return Scenario(
        r_fov=r_fov,
        epsilon=epsilon,
        max_leak_prob=max_leak,
        seed=int(seed),
        grids=grids,
        windowing=windowing,
        predictor=predictor,
        traces_csv=traces_csv,
        synthetic=synthetic,
        resource=resource,
        tile=tile,
        channel=channel,
    )
