"""The contract every record of the package keeps, on `sphere.Record`.

Each record is built from its fields by position or keyword, with the
defaults its class gives, which `inspect.signature` shows; it refuses assignment and deletion; it compares,
hashes and prints as its fields do (`SweepTable` compares by identity); and
`_replace` and `_asdict` round-trip.  A validating record rejects a bad
field with a ``ValueError`` that names the field as ``field``.
"""

import inspect
import math
import pickle

import numpy as np
import pytest

import vrpl.cli  # noqa: F401  (loads every module, so every record class exists)
from vrpl.aggregate import AggregateReport, ErrorSubset, RegionBounds, SweepTable
from vrpl.config import Scenario, SyntheticSpec
from vrpl.leakage import (
    CaseLeakageProfile,
    ErrorInference,
    ErrorInferenceArrays,
    ErrorRange,
    InferenceKind,
    LeakageArrays,
    LeakageResult,
    MinProbComparison,
    Monotonicity,
    PrivacyRequirement,
    RangeKind,
    ZoneKind,
)
from vrpl.qoe import OverlapCase
from vrpl.resources import ChannelConfig, ResourceConfig, TileSpec
from vrpl.sphere import Domain, Record
from vrpl.traces import (
    GreatCircleDrift,
    Predictor,
    RandomWalk,
    TraceFormatError,
    ViewpointTrace,
    WindowingConfig,
)

_WINDOWING = WindowingConfig(t_obw=1.0, t_cc=1.0, t_pdw=1.0)
_REGIONS = RegionBounds((0.0, 0.5), (0.5, 0.8), (0.8, 1.0), (1.0, 1.2), (1.2, math.pi))
_SWEEP = SweepTable(
    np.array([0.5, 1.0]), np.eye(2, 7), np.zeros((2, 7)), np.array([0.1, 0.2]), np.array([0.3, 0.4])
)

#: Per record: its required fields and then its defaulted ones, each in field
#: order with a valid value; a valid change to one field; and bad changes,
#: each with the ``field`` its ``ValueError`` names (None for a rule that
#: names no field).
RECORDS = [
    (Domain, {"name": "x", "lo": 0.0, "hi": 1.0},
     {"open_lo": False, "open_hi": False, "integer": False}, {"hi": 2.0}, []),
    (LeakageResult, {"probability": 0.5, "zone_kind": ZoneKind.CIRCLE, "zone_measure": 1.0},
     {"case": None}, {"case": OverlapCase.REMAINING}, []),
    (PrivacyRequirement, {"epsilon": 0.3, "max_leak_prob": 0.2}, {}, {"max_leak_prob": 0.5},
     [({"epsilon": -0.1}, None), ({"max_leak_prob": 1.5}, None)]),
    (ErrorRange, {"kind": RangeKind.INTERVAL}, {"lo": None, "hi": None}, {"lo": 0.1}, []),
    (ErrorInference, {"kind": InferenceKind.RANGE, "case": OverlapCase.FOV_IN_SFOV},
     {"value": None, "lo": None, "hi": None, "ambiguous": False}, {"hi": 0.3}, []),
    (LeakageArrays,
     {"probability": np.array([0.5, 1.0]), "zone_kind": np.array([0, 3], np.int8),
      "zone_measure": np.array([2.0, 0.0])},
     {"case": None}, {"case": np.array([4, 4], np.int8)}, []),
    (ErrorInferenceArrays, {"case": np.array([4, 0], np.int8), "value": np.array([0.5, math.nan])},
     {}, {"value": np.array([0.6, math.nan])}, []),
    (CaseLeakageProfile,
     {"is_max": False, "monotonicity": Monotonicity.INCREASING, "infimum": 0.1},
     {}, {"is_max": True}, []),
    (MinProbComparison,
     {"qoe_upload_min": 0.01, "error_upload_min": 0.1, "qoe_upload_smaller": True},
     {}, {"qoe_upload_min": 0.2}, []),
    (TileSpec, {"px_w": 64, "px_h": 64, "bits_per_pixel": 12, "compression_ratio": 16.0},
     {}, {"px_w": 32},
     [({"px_w": 0}, "px_w"), ({"px_h": 64.0}, "px_h"), ({"compression_ratio": 0.5}, "compression_ratio")]),
    (ResourceConfig,
     {"compute_flops": 1e12, "users": 4, "flops_per_bit": 100.0, "avg_data_rate": 4e8,
      "cc_duration": 0.0820224, "frames_per_segment": 30, "tiles_per_frame": 200},
     {}, {"cc_duration": 0.0},
     [({"cc_duration": -1.0}, "cc_duration"), ({"users": 0}, "users"),
      ({"compute_flops": 5e-324, "flops_per_bit": 1e300}, None)]),
    (ChannelConfig,
     {"bandwidth": 1e7, "tx_power": 4.0, "distance": 2.0, "pathloss_exp": 2.5,
      "noise_power": 1e-3, "antennas": 8, "users": 4},
     {}, {"users": 8},
     [({"bandwidth": 0.0}, "bandwidth"), ({"tx_power": math.nan}, "tx_power"), ({"users": 9}, None)]),
    (SyntheticSpec, {"model": RandomWalk(100.0), "n_traces": 3, "duration": 20.0, "rate": 5.0},
     {}, {"n_traces": 4}, [({"n_traces": 0}, "n_traces"), ({"rate": math.inf}, "rate")]),
    (Scenario,
     {"r_fov": 0.8, "epsilon": 0.3, "max_leak_prob": None, "seed": 0,
      "grids": {"r_sv": np.array([0.5, 1.0])}, "windowing": _WINDOWING,
      "predictor": Predictor.LAST_POSITION, "traces_csv": None, "synthetic": None,
      "resource": None, "tile": None, "channel": None},
     {}, {"seed": 1}, []),
    (ErrorSubset,
     {"feasible": True, "errors": np.array([0.5, 0.6]), "mean": 0.55,
      "error_range": ErrorRange(RangeKind.FULL)},
     {}, {"mean": math.nan}, []),
    (RegionBounds,
     {"i1": (0.0, 0.5), "d2": (0.5, 0.8), "c": (0.8, 1.0), "i2": (1.0, 1.2), "d1": (1.2, math.pi)},
     {}, {"c": (0.7, 1.1)}, []),
    (SweepTable,
     {"r_sv": np.array([0.5, 1.0]), "ratios": np.eye(2, 7), "components": np.zeros((2, 7)),
      "total": np.array([0.1, 0.2]), "mean_qoe": np.array([0.3, 0.4])},
     {}, {"total": np.array([0.2, 0.3])}, []),
    (AggregateReport,
     {"n_samples": 2, "r_fov": 0.8, "epsilon": 0.3, "regions": _REGIONS, "sweep": _SWEEP},
     {"mean_error_subset": None, "gamma_tradeoff": None, "gamma_consist": None},
     {"gamma_tradeoff": 0.5}, []),
    (ViewpointTrace,
     {"user_id": "u", "video_id": "v", "timestamps": np.arange(4) / 5.0,
      "theta": np.zeros(4), "phi": np.linspace(0.0, 0.3, 4)},
     {}, {"user_id": "w"},
     [({"phi": [0.0, 0.0, 0.0, 2.0]}, None), ({"timestamps": [0.0, 0.2, 0.4, 0.4]}, None)]),
    (RandomWalk, {"kappa": 2.0}, {}, {"kappa": 3.0}, [({"kappa": 0.0}, "kappa")]),
    (GreatCircleDrift, {"rate": 0.1}, {}, {"rate": 0.0}, [({"rate": -1.0}, "rate")]),
    (WindowingConfig, {"t_obw": 1.0, "t_cc": 1.0, "t_pdw": 1.0}, {}, {"t_cc": 2.0},
     [({"t_pdw": 0.0}, "t_pdw"), ({"t_cc": 0.5}, None)]),
]


def _same(x, y) -> bool:
    """Whether two field values hold the same data (arrays by value, NaN equal to itself)."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return type(x) is type(y) and x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, Record) and type(x) is type(y):  # a SweepTable compares by identity
        return _same(x._asdict(), y._asdict())
    return x is y or x == y or (x != x and y != y)


def _assert_fields(record, expected: dict) -> None:
    assert record._fields == tuple(expected)
    for name, value in expected.items():
        assert _same(getattr(record, name), value), name


def _field_equal(a, b):
    """What comparing the records' fields in order gives: a bool, or the exception's type."""
    try:
        return tuple(a._asdict().values()) == tuple(b._asdict().values())
    except ValueError:  # an array field of more than one element
        return ValueError


def test_every_record_is_listed():
    def subclasses(cls):
        return {cls} | set().union(*(subclasses(sub) for sub in cls.__subclasses__()))

    listed = {cls for cls, *_ in RECORDS}
    assert len(listed) == 22
    assert subclasses(Record) - {Record} == listed


@pytest.mark.parametrize(("cls", "required", "defaults", "change", "bad"), RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_record_contract(cls, required, defaults, change, bad):
    every = {**required, **defaults}
    names = tuple(every)

    # construction by keyword, by position, and with the defaults
    params = inspect.signature(cls).parameters
    assert list(params) == list(names)
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == defaults
    record = cls(**every)
    _assert_fields(record, every)
    _assert_fields(cls(*every.values()), every)
    _assert_fields(cls(**required), every)
    with pytest.raises(TypeError):
        cls(*every.values(), 0)
    with pytest.raises(TypeError):
        cls(**every, no_such_field=0)
    with pytest.raises(TypeError):
        cls(*every.values(), **{names[0]: every[names[0]]})
    if required:
        with pytest.raises(TypeError):
            cls()

    # frozen: no field (or other attribute) may be set or deleted
    for name in (names[0], names[-1], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    _assert_fields(record, every)

    # _asdict, _replace and pickling round-trip
    assert list(record._asdict()) == list(names)
    assert all(record._asdict()[name] is getattr(record, name) for name in names)
    _assert_fields(cls(**record._asdict()), every)
    changed = record._replace(**change)
    assert type(changed) is cls and changed is not record
    _assert_fields(changed, {**every, **change})
    _assert_fields(record, every)
    _assert_fields(pickle.loads(pickle.dumps(record)), every)

    # equality, hash and repr, as the fields in order
    copy, other = cls(**every), record._replace(**change)
    values = tuple(record._asdict().values())
    if cls is SweepTable:
        assert record == record and record != copy and record != other
        assert hash(record) == object.__hash__(record)
    else:
        for a, b in ((record, record), (record, copy), (record, other), (copy, other)):
            want = _field_equal(a, b)
            if want is ValueError:
                with pytest.raises(ValueError):
                    _ = a == b
            else:
                assert (a == b) is want and (a != b) is (not want)
        try:
            want_hash = hash(values)
        except TypeError:  # an array or dict field
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == want_hash == hash(copy)
    assert record != values and record.__eq__(values) is NotImplemented
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__qualname__}({fields})"

    # a validating record names the field it rejects
    for changes, field in bad:
        with pytest.raises(ValueError) as info:
            record._replace(**changes)
        assert getattr(info.value, "field", None) == field, info.value
        if cls is ViewpointTrace:
            assert isinstance(info.value, TraceFormatError)

