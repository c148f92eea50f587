"""Scenario configuration.

A scenario is a single declarative JSON document; command-line flags
override individual fields.  Angles are unit-tagged: every angular field
accepts a ``*_rad`` or ``*_deg`` key (exactly one), and the protection
radius additionally accepts ``epsilon_frac_of_fov`` as a fraction of the
field-of-view radius.  Tag choice never changes the resolved value.

Validation failures carry the offending field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .resources import ChannelConfig, ResourceConfig, TileSpec
from .traces import (
    GreatCircleDrift,
    MotionModel,
    Predictor,
    RandomWalk,
    WindowingConfig,
    sample_count,
)

#: Baseline scenario: 50 degree field of view, protection radius 0.4 of it,
#: 5 Hz sampling, 1 s segments with a 1 s observation window and a 1 s
#: computing-plus-communication gap (2 segments played passively).
DEFAULT_R_FOV_RAD = math.radians(50.0)
DEFAULT_EPSILON_FRAC = 0.4
DEFAULT_WINDOWING = dict(t_obw=1.0, t_cc=1.0, t_pdw=1.0, sample_rate=5.0, passive_prefix=2)
DEFAULT_GRID_N = 181


class ConfigError(ValueError):
    """Configuration parse or validation failure, with a field path."""


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _optional(doc: dict, key: str, kind, path: str, default=None):
    if key not in doc:
        return default
    return _require(doc, key, kind, path)


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


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic-trace generation parameters."""

    model: MotionModel
    n_traces: int
    duration: float
    rate: float


@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario; angular fields are radians."""

    r_fov: float
    epsilon: float
    max_leak_prob: float | None
    seed: int
    grids: dict[str, list[float]]
    windowing: WindowingConfig
    predictor: Predictor
    traces_csv: str | None
    synthetic: SyntheticSpec | None
    resource: ResourceConfig | None
    tile: TileSpec | None
    channel: ChannelConfig | None
    r_sv: float | None


def load_config(path: str | Path) -> dict:
    """Read a JSON scenario document."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config: top-level document must be an object")
    return doc


def _resolve_grid(spec, path: str) -> list[float]:
    if isinstance(spec, list):
        spec = {"values": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object or list")
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.values: expected a non-empty list")
        out = []
        for i, v in enumerate(values):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"{path}.values[{i}]: expected a number")
            out.append(float(v))
        return out
    lo = _require(spec, "lo", float, path)
    hi = _require(spec, "hi", float, path)
    n = _require(spec, "n", int, path)
    if n < 1:
        raise ConfigError(f"{path}.n: must be >= 1")
    if hi < lo:
        raise ConfigError(f"{path}: hi {hi!r} below lo {lo!r}")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def parse_grid_override(spec: str) -> dict[str, list[float]]:
    """Parse a ``--grid`` flag: ``name=lo:hi:n`` terms, comma separated.

    Valid names are ``error``, ``epsilon`` and ``r_sv``.
    """
    grids: dict[str, list[float]] = {}
    for term in spec.split(","):
        if "=" not in term:
            raise ConfigError(f"--grid: term {term!r} is not name=lo:hi:n")
        name, _, rng = term.partition("=")
        name = name.strip()
        if name not in ("error", "epsilon", "r_sv"):
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


def _resolve_tile(doc: dict, path: str) -> TileSpec:
    try:
        return TileSpec(
            px_w=_require(doc, "px_w", int, path),
            px_h=_require(doc, "px_h", int, path),
            bits_per_pixel=_require(doc, "bits_per_pixel", int, path),
            compression_ratio=_require(doc, "compression_ratio", float, path),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve_resource(doc: dict, path: str) -> ResourceConfig:
    try:
        return ResourceConfig(
            compute_flops=_require(doc, "compute_flops", float, path),
            users=_require(doc, "users", int, path),
            flops_per_bit=_require(doc, "flops_per_bit", float, path),
            avg_data_rate=_require(doc, "avg_data_rate", float, path),
            cc_duration=_require(doc, "cc_duration", float, path),
            frames_per_segment=_require(doc, "frames_per_segment", int, path),
            tiles_per_frame=_require(doc, "tiles_per_frame", int, path),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve_channel(doc: dict, path: str) -> ChannelConfig:
    try:
        return ChannelConfig(
            bandwidth=_require(doc, "bandwidth", float, path),
            tx_power=_require(doc, "tx_power", float, path),
            distance=_require(doc, "distance", float, path),
            pathloss_exp=_require(doc, "pathloss_exp", float, path),
            noise_power=_require(doc, "noise_power", float, path),
            antennas=_require(doc, "antennas", int, path),
            users=_require(doc, "users", int, path),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve_synthetic(doc: dict, path: str) -> SyntheticSpec:
    kind = _require(doc, "model", str, path)
    try:
        if kind == "random_walk":
            model: MotionModel = RandomWalk(kappa=_require(doc, "kappa", float, path))
        elif kind == "great_circle_drift":
            model = GreatCircleDrift(rate=_require(doc, "rate_rad_s", float, path))
        else:
            raise ConfigError(
                f"{path}.model: unknown model {kind!r} "
                "(expected random_walk or great_circle_drift)"
            )
        spec = SyntheticSpec(
            model=model,
            n_traces=_require(doc, "n_traces", int, path),
            duration=_require(doc, "duration_s", float, path),
            rate=_require(doc, "rate_hz", float, path),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if spec.n_traces < 1:
        raise ConfigError(f"{path}.n_traces: {spec.n_traces!r} must be >= 1")
    if not (math.isfinite(spec.rate) and spec.rate > 0.0):
        raise ConfigError(f"{path}.rate_hz: {spec.rate!r} must be > 0")
    try:
        sample_count(spec.duration, spec.rate)
    except ValueError as exc:
        raise ConfigError(f"{path}.duration_s: {exc}") from None
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
        "synthetic", "resources", "tile", "channel", "r_sv_rad", "r_sv_deg",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(f"config.{key}: unknown field")

    r_fov = _angle(doc, "r_fov", "config", default=DEFAULT_R_FOV_RAD)
    if not (math.isfinite(r_fov) and 0.0 < r_fov <= math.pi / 2):
        raise ConfigError(f"config.r_fov: {r_fov!r} outside (0, pi/2]")

    eps_tags = [k for k in ("epsilon_rad", "epsilon_deg", "epsilon_frac_of_fov") if k in doc]
    if len(eps_tags) > 1:
        raise ConfigError("config.epsilon: give exactly one epsilon tag")
    if not eps_tags:
        epsilon = DEFAULT_EPSILON_FRAC * r_fov
    elif eps_tags[0] == "epsilon_frac_of_fov":
        frac = _require(doc, "epsilon_frac_of_fov", float, "config")
        if not (math.isfinite(frac) and 0.0 <= frac <= 1.0):
            raise ConfigError(f"config.epsilon_frac_of_fov: {frac!r} outside [0, 1]")
        epsilon = frac * r_fov
    else:
        epsilon = _angle(doc, "epsilon", "config")
    if not (math.isfinite(epsilon) and 0.0 <= epsilon <= r_fov):
        raise ConfigError(f"config.epsilon: {epsilon!r} outside [0, r_fov={r_fov!r}]")

    max_leak = _optional(doc, "max_leak_prob", float, "config")
    if max_leak is not None and not (math.isfinite(max_leak) and 0.0 <= max_leak <= 1.0):
        raise ConfigError(f"config.max_leak_prob: {max_leak!r} outside [0, 1]")

    seed = overrides.get("seed")
    if seed is None:
        seed = _optional(doc, "seed", int, "config", default=0)
    if seed < 0:
        raise ConfigError(f"config.seed: {seed!r} must be >= 0")

    win_doc = dict(_optional(doc, "windowing", dict, "config", default={}))
    win_args = dict(DEFAULT_WINDOWING)
    for key in list(win_doc):
        target = "sample_rate" if key == "sample_rate_hz" else key
        if target not in win_args:
            raise ConfigError(f"config.windowing.{key}: unknown field")
        win_args[target] = win_doc[key]
    try:
        windowing = WindowingConfig(
            t_obw=float(win_args["t_obw"]),
            t_cc=float(win_args["t_cc"]),
            t_pdw=float(win_args["t_pdw"]),
            sample_rate=float(win_args["sample_rate"]),
            passive_prefix=int(win_args["passive_prefix"]),
        )
    except ValueError as exc:
        raise ConfigError(f"config.windowing: {exc}") from None

    predictor_name = _optional(doc, "predictor", str, "config", default=Predictor.LAST_POSITION.value)
    try:
        predictor = Predictor(predictor_name)
    except ValueError:
        raise ConfigError(
            f"config.predictor: unknown predictor {predictor_name!r} "
            f"(expected one of {[p.value for p in Predictor]})"
        ) from None

    traces_csv = _optional(doc, "traces_csv", str, "config")
    synthetic = None
    if "synthetic" in doc:
        synthetic = _resolve_synthetic(_require(doc, "synthetic", dict, "config"), "config.synthetic")
        if abs(synthetic.rate - windowing.sample_rate) > 1e-9:
            raise ConfigError(
                f"config.synthetic.rate_hz: {synthetic.rate!r} does not match "
                f"windowing sample rate {windowing.sample_rate!r}"
            )
    if traces_csv is not None and synthetic is not None:
        raise ConfigError("config: give only one of traces_csv and synthetic")

    resource = tile = None
    if "resources" in doc:
        res_doc = _require(doc, "resources", dict, "config")
        resource = _resolve_resource(res_doc, "config.resources")
        tile = _resolve_tile(_require(doc, "tile", dict, "config"), "config.tile") if "tile" in doc else None
        if tile is None:
            raise ConfigError("config.tile: required when config.resources is given")
    elif "tile" in doc:
        raise ConfigError("config.resources: required when config.tile is given")

    channel = None
    if "channel" in doc:
        channel = _resolve_channel(_require(doc, "channel", dict, "config"), "config.channel")

    r_sv = _angle(doc, "r_sv", "config")
    if r_sv is not None:
        if not (math.isfinite(r_sv) and 0.0 <= r_sv <= math.pi):
            raise ConfigError(f"config.r_sv: {r_sv!r} outside [0, pi]")
        if resource is not None:
            raise ConfigError("config: give only one of r_sv and resources")

    grid_doc = _optional(doc, "grids", dict, "config", default={})
    grids: dict[str, list[float]] = {}
    for name in ("error", "epsilon", "r_sv"):
        if name in grid_doc:
            grids[name] = _resolve_grid(grid_doc[name], f"config.grids.{name}")
    for name in grid_doc:
        if name not in ("error", "epsilon", "r_sv"):
            raise ConfigError(f"config.grids.{name}: unknown grid")
    grids.update(overrides.get("grids", {}))
    grids.setdefault("error", _resolve_grid({"lo": 0.0, "hi": math.pi, "n": DEFAULT_GRID_N}, "default"))
    grids.setdefault("epsilon", [epsilon])
    grids.setdefault("r_sv", _resolve_grid({"lo": 0.0, "hi": math.pi, "n": DEFAULT_GRID_N}, "default"))
    for name, grid in grids.items():
        # protection radii live in [0, pi/2]; errors and streamed radii in [0, pi]
        upper = math.pi / 2 if name == "epsilon" else math.pi
        for v in grid:
            if not (math.isfinite(v) and 0.0 <= v <= upper):
                raise ConfigError(f"config.grids.{name}: value {v!r} outside [0, {upper!r}]")

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
        r_sv=r_sv,
    )
