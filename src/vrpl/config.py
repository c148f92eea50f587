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
from .sphere import COUNT, EPSILON, ERROR, FOV, POSITIVE, PROBABILITY, SEED, STREAMED_RADIUS, Record
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


def _angle(doc: dict, base: str, path: str, default: float, r_fov: float | None = None) -> float:
    """Resolve a unit-tagged angle: ``<base>_rad``, ``<base>_deg`` or, given ``r_fov``,
    ``<base>_frac_of_fov``, a fraction of it checked by `_FRACTION`; at most one tag."""
    tags = [f"{base}_rad", f"{base}_deg"] + ([f"{base}_frac_of_fov"] if r_fov is not None else [])
    present = [k for k in tags if k in doc]
    if len(present) > 1:
        names = f"{', '.join(tags[:-1])} or {tags[-1]}"
        raise ConfigError(f"{path}.{base}: give exactly one of {names}")
    if not present:
        return default
    key = present[0]
    value = _require(doc, key, float, path)
    if key == tags[0]:
        return value
    if key == tags[1]:
        return math.radians(value)
    return _in_domain(_FRACTION.check, value, f"{path}.{key}") * r_fov


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
    #: Where each grid given by the config or a flag was resolved
    #: (``config.grids.<name>`` or ``--grid <name>``); a default grid has none.
    grid_paths: dict[str, str]


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


def _resolve_grid(spec, name: str, path: str) -> np.ndarray:
    """The grid ``name`` from ``spec``, a non-empty list or ``{lo, hi, n}``, as a float array.

    Values are checked in the grid's domain (`GRIDS`): a list's at ``path``,
    a range's ``lo`` and ``hi`` at ``<path>.lo`` and ``<path>.hi``.
    """
    if name not in GRIDS:
        raise ConfigError(f"{path}: unknown grid")
    domain = GRIDS[name]
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{path}: expected a non-empty list")
        check_size(len(spec), path, "the grid")
        values = [_float(v, f"{path}[{i}]") for i, v in enumerate(spec)]
        return _in_domain(domain.check_array, values, path)
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object or list")
    for key in spec:
        if key not in ("lo", "hi", "n"):
            raise ConfigError(f"{path}.{key}: unknown field")
    lo = _in_domain(domain.check, _require(spec, "lo", float, path), f"{path}.lo")
    hi = _in_domain(domain.check, _require(spec, "hi", float, path), f"{path}.hi")
    n = _require(spec, "n", int, path)
    if n < 1:
        raise ConfigError(f"{path}.n: must be >= 1")
    check_size(n, f"{path}.n", "the grid")
    if hi < lo:
        raise ConfigError(f"{path}: hi {hi!r} below lo {lo!r}")
    return np.linspace(lo, hi, n)


def parse_grid_override(spec: str) -> dict[str, dict]:
    """Parse a ``--grid`` flag, ``name=lo:hi:n`` terms comma separated, into ``{lo, hi, n}``
    specs, each name at most once; `resolve_scenario` checks the names and values."""
    grids: dict[str, dict] = {}
    for term in spec.split(","):
        if "=" not in term:
            raise ConfigError(f"--grid: term {term!r} is not name=lo:hi:n")
        name, _, rng = term.partition("=")
        name = name.strip()
        if name in grids:
            raise ConfigError(f"--grid {name}: given twice")
        parts = rng.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--grid: range {rng!r} is not lo:hi:n")
        try:
            grids[name] = {"lo": float(parts[0]), "hi": float(parts[1]), "n": int(parts[2])}
        except ValueError:
            raise ConfigError(f"--grid: range {rng!r} is not numeric lo:hi:n") from None
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
    if isinstance(model, GreatCircleDrift) and not math.isfinite(model.rate * spec.duration):
        raise ConfigError(
            f"{path}.rate_rad_s: {model.rate!r} rad/s for {spec.duration!r} s "
            f"turns through a non-finite angle"
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


def _optional_block(doc: dict, key: str, cls):
    """The record ``cls`` from the optional block ``config.<key>``, or None if absent."""
    if key not in doc:
        return None
    return _resolve_block(cls, _require(doc, key, dict, "config"), f"config.{key}")


def resolve_scenario(doc: dict, overrides: dict | None = None) -> Scenario:
    """Validate a config document and apply flag overrides (flags win).

    Recognized override keys, checked at ``--seed`` and ``--grid <name>``: ``seed``
    (int) and ``grids`` (name -> grid spec: a list or ``{lo, hi, n}``).
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
    epsilon = _angle(doc, "epsilon", "config", default=DEFAULT_EPSILON_FRAC * r_fov, r_fov=r_fov)
    _in_domain(EPSILON.check, epsilon, "config.epsilon", hi=r_fov)

    max_leak = _optional(doc, "max_leak_prob", float, "config")
    if max_leak is not None:
        _in_domain(PROBABILITY.check, max_leak, "config.max_leak_prob")

    seed, seed_path = overrides.get("seed"), "--seed"
    if seed is None:
        seed, seed_path = _optional(doc, "seed", int, "config", default=0), "config.seed"
    seed = _in_domain(SEED.check, seed, seed_path)

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
    # an empty path names the working directory, and no file path holds a NUL
    if traces_csv is not None and (not traces_csv or "\0" in traces_csv):
        raise ConfigError(f"config.traces_csv: expected a file path, got {traces_csv!r}")
    synthetic = None
    if "synthetic" in doc:
        synthetic = _resolve_synthetic(_require(doc, "synthetic", dict, "config"), windowing)
    if traces_csv is not None and synthetic is not None:
        raise ConfigError("config: give only one of traces_csv and synthetic")

    if ("resources" in doc) != ("tile" in doc):
        missing, given = ("tile", "resources") if "resources" in doc else ("resources", "tile")
        raise ConfigError(f"config.{missing}: required when config.{given} is given")
    resource = _optional_block(doc, "resources", ResourceConfig)
    tile = _optional_block(doc, "tile", TileSpec)
    channel = _optional_block(doc, "channel", ChannelConfig)

    grids: dict[str, np.ndarray] = {}
    grid_paths: dict[str, str] = {}
    given = _optional(doc, "grids", dict, "config", default={}), overrides.get("grids", {})
    for prefix, specs in zip(("config.grids.", "--grid "), given):
        for name, spec in specs.items():
            grid_paths[name] = prefix + name
            grids[name] = _resolve_grid(spec, name, grid_paths[name])
    default = {"lo": 0.0, "hi": math.pi, "n": DEFAULT_GRID_N}
    for name in ("error", "r_sv"):
        if name not in grids:
            grids[name] = _resolve_grid(default, name, "default")
    grids.setdefault("epsilon", np.array([epsilon]))

    return Scenario(
        r_fov=r_fov,
        epsilon=epsilon,
        max_leak_prob=max_leak,
        seed=seed,
        grids=grids,
        windowing=windowing,
        predictor=predictor,
        traces_csv=traces_csv,
        synthetic=synthetic,
        resource=resource,
        tile=tile,
        channel=channel,
        grid_paths=grid_paths,
    )
