"""Analytical model of viewpoint-privacy leakage in proactive VR streaming.

The package answers, in closed form, how much an adversarial streaming
server learns about a user's viewpoint from the feedback the client
uploads (prediction error or QoE), how server resources bound the
streamed-cap radius, and how the leakage averages over real or synthetic
head-movement traces.
"""

from .aggregate import (
    AggregateReport,
    ErrorSubset,
    RegionBounds,
    SweepTable,
    average_leakage_sweep,
    build_report,
    error_subset_for_requirement,
    leakage_regions,
    tradeoff_consistency_ratios,
)
from .config import (
    ConfigError,
    Scenario,
    SyntheticSpec,
    load_config,
    parse_grid_override,
    resolve_scenario,
)
from .leakage import (
    ZONE_KINDS,
    CaseLeakageProfile,
    ErrorInference,
    ErrorRange,
    InferenceKind,
    LeakageArrays,
    LeakageResult,
    MinProbComparison,
    Monotonicity,
    PrivacyRequirement,
    QoeInconsistencyError,
    RangeKind,
    ZoneKind,
    case_leakage_profile,
    error_range_for_requirement,
    full_leak_error_range,
    infer_error_from_qoe,
    infer_error_from_qoe_vec,
    leak_prob_from_error,
    leak_prob_from_error_vec,
    leak_prob_from_qoe,
    leak_prob_from_qoe_vec,
    min_leak_prob_error,
    min_leak_prob_qoe,
    min_prob_comparison,
)
from .qoe import CASES, OverlapCase, classify, classify_vec, qoe, qoe_vec
from .resources import (
    ChannelConfig,
    ResourceConfig,
    TileSpec,
    capability,
    capability_from_radius,
    mc_avg_rate,
    sfov_radius,
)
from .sphere import SPHERE_AREA, cap_area, cap_overlap_area, mc_cap_overlap
from .traces import (
    GreatCircleDrift,
    Predictor,
    RandomWalk,
    TraceFormatError,
    ViewpointTrace,
    WindowingConfig,
    generate_synthetic_traces,
    load_traces,
    predict,
    predict_all,
    save_traces,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
