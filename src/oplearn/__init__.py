"""Optimal policy learning for multi-action treatments with risk preferences.

Estimates per-arm conditional means/variances and propensity scores from
observational (outcome, action, features) data, assigns first-best optimal
actions under risk-neutral, linear risk-averse, and quadratic risk-averse
utilities, and evaluates policy welfare with regression-adjustment,
inverse-probability-weighting, and doubly robust estimators, including
regret against the first-best rule.

Each public name below is read from its submodule on every access (PEP 562),
so ``import oplearn`` loads no submodule until a name is used, and a name
replaced on its submodule is the one ``oplearn.<name>`` returns.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "data": "ColumnSchema DataFormatError Dataset ValidationReport load_dataset "
        "save_dataset validate_dataset",
        "moments": "ArmMoments build_arm_moments estimate_conditional_means",
        "policies": "PolicyAssignment RiskPreference assign_policy risk_utility",
        "regression": "MultinomialLogitModel QuasiSeparationError fit_mnlogit fit_ols "
        "predict_proba",
        "simulate": "DGPSpec OracleData generate oracle_policy true_value",
        "values": "PropensityMatrix ValueEstimate clip_propensities score_policies value_dr "
        "value_ipw value_ra",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
