"""Risk-perception-aware safety filtering toolkit.

Perceived-risk models (expected risk, CVaR, cumulative prospect theory)
over uncertain spatial cost fields, barrier-based safety filtering with
a closed-form QP, and a 2D simulator for agents avoiding moving
obstacles.
"""

from .barrier import (
    BarrierConfig,
    barrier_constraint,
    feasibility_margin,
    qp_filter,
)
from .config import Config, ConfigError, load_config
from .field import (
    CostFieldParams,
    FieldGrid,
    InclusivenessReport,
    VersatilityReport,
    cost_mean,
    cost_sigma,
    evaluate,
    inclusiveness_audit,
    level_set,
    rasterize,
    safe_mask,
    safe_masks,
    versatility_audit,
)
from .risk import (
    CPT,
    CVaR,
    ExpectedRisk,
    RiskSpec,
    decision_weights,
    moment_risk,
    parse_spec,
    prob_weight,
    spec_label,
    weighting,
)
from .sim import (
    ObstacleModel,
    Scenario,
    SimLog,
    SingleIntegrator,
    Unicycle,
    default_obstacle_speed,
    nominal_control,
    obstacle_motion,
    simulate,
    unicycle_transform,
)

__version__ = "0.1.0"
