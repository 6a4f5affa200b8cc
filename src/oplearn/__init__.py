"""Optimal policy learning for multi-action treatments with risk preferences.

Estimates per-arm conditional means/variances and propensity scores from
observational (outcome, action, features) data, assigns first-best optimal
actions under risk-neutral, linear risk-averse, and quadratic risk-averse
utilities, and evaluates policy welfare with regression-adjustment,
inverse-probability-weighting, and doubly robust estimators, including
regret against the first-best rule.
"""

from .data import (
    ColumnSchema,
    DataFormatError,
    Dataset,
    ValidationReport,
    canonical_schema,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .moments import (
    ArmMoments,
    LinearLearner,
    MomentLearner,
    build_arm_moments,
    default_variance_floor,
    estimate_conditional_means,
)
from .policies import (
    PolicyAssignment,
    RiskPreference,
    assign_policy,
    risk_utility,
)
from .regression import (
    LinearModel,
    MultinomialLogitModel,
    QuasiSeparationError,
    RankDeficiencyError,
    fit_mnlogit,
    fit_ols,
    predict_ols,
    predict_proba,
)
from .simulate import DGPSpec, OracleData, generate, oracle_policy, softplus, true_value
from .values import (
    PropensityMatrix,
    ValueEstimate,
    clip_propensities,
    regret,
    value_dr,
    value_ipw,
    value_ra,
)

__version__ = "0.1.0"

__all__ = [
    "ArmMoments",
    "ColumnSchema",
    "DGPSpec",
    "DataFormatError",
    "Dataset",
    "LinearLearner",
    "LinearModel",
    "MomentLearner",
    "MultinomialLogitModel",
    "OracleData",
    "PolicyAssignment",
    "PropensityMatrix",
    "QuasiSeparationError",
    "RankDeficiencyError",
    "RiskPreference",
    "ValidationReport",
    "ValueEstimate",
    "assign_policy",
    "build_arm_moments",
    "canonical_schema",
    "clip_propensities",
    "default_variance_floor",
    "estimate_conditional_means",
    "fit_mnlogit",
    "fit_ols",
    "generate",
    "load_dataset",
    "oracle_policy",
    "predict_ols",
    "predict_proba",
    "regret",
    "risk_utility",
    "save_dataset",
    "softplus",
    "true_value",
    "validate_dataset",
    "value_dr",
    "value_ipw",
    "value_ra",
]
