"""Welfare (value-function) estimators and regret.

The value of a policy pi is the population mean outcome obtained when every
unit is treated according to pi. Three estimators are provided, each a plain
mean over units:

* regression adjustment (RA), the direct plug-in
      V_RA = mean_i q_hat[i, pi_i]

* inverse-probability weighting (IPW), the Horvitz-Thompson form with no
  weight renormalisation
      V_IPW = mean_i 1{A_i = pi_i} * Y_i / p_hat[i, A_i]

* doubly robust (DR), RA plus an IPW-weighted residual correction
      V_DR = mean_i ( q_hat[i, pi_i]
                      + 1{A_i = pi_i} * (Y_i - q_hat[i, A_i]) / p_hat[i, A_i] )

DR stays consistent when either the outcome model or the propensity model is
correct. Propensities close to 0 or 1 blow up the weighted terms, so the
estimators take an already-clipped :class:`PropensityMatrix`; clipping does
not renormalise rows, since only the scalar p_hat[i, A_i] enters the
formulas and renormalising would silently change the estimator.

Regret is the welfare lost by following a risk-averse rule instead of the
first-best: R = V(first-best) - V(alternative), compared within a single
estimator kind.

:func:`score_policies` builds ``oplearn evaluate``'s value table: each policy's
value under each estimator and its regret against the ``neutral`` policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset, _freeze, _ids, _require_units
from .policies import PolicyAssignment

ESTIMATOR_KINDS = ("RA", "IPW", "DR")


@dataclass(frozen=True)
class ValueEstimate:
    """A scalar welfare estimate, labelled by its estimator kind."""

    estimator: str
    value: float

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(
                f"estimator must be one of {ESTIMATOR_KINDS}, got {self.estimator!r}"
            )
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")


@dataclass(frozen=True, eq=False)
class PropensityMatrix:
    """Estimated assignment probabilities after clipping into [low, high]."""

    p: np.ndarray
    clip_bounds: tuple[float, float]
    clipped_count: int

    def __post_init__(self) -> None:
        p = _freeze(self, "p", np.float64)
        low, high = self.clip_bounds
        if p.ndim != 2:
            raise ValueError("propensity matrix must be 2-d")
        _require_units(p.shape[0], "PropensityMatrix")
        _require_units(p.shape[1], "PropensityMatrix", "arm")
        if not np.isfinite(p).all():
            raise ValueError("propensities contain non-finite entries")
        if p.min() < low or p.max() > high:
            raise ValueError("propensities outside the clip bounds")
        object.__setattr__(self, "clip_bounds", (float(low), float(high)))


def clip_propensities(
    p: np.ndarray, low: float = 0.01, high: float = 0.99
) -> PropensityMatrix:
    """Clamp raw propensities into [low, high] without renormalising.

    ``p`` must be a valid probability matrix of at least one unit and one
    arm (rows summing to 1) before clipping; the number of entries actually
    moved is recorded.
    """
    p = np.asarray(p, dtype=np.float64)
    if not (0.0 < low < high < 1.0):
        raise ValueError(f"invalid clip bounds ({low}, {high})")
    if p.ndim != 2:
        raise ValueError("propensity matrix must be 2-d")
    _require_units(p.shape[0], "clip_propensities")
    _require_units(p.shape[1], "clip_propensities", "arm")
    row_sums = p.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-8:
        raise ValueError("propensity rows must sum to 1 before clipping")
    clipped = np.clip(p, low, high)
    moved = int((clipped != p).sum())
    return PropensityMatrix(p=clipped, clip_bounds=(low, high), clipped_count=moved)


def _policy_actions(
    policy: PolicyAssignment | np.ndarray, n_units: int, n_actions: int
) -> np.ndarray:
    """The policy's actions, checked to be one arm id in 0..n_actions-1 per
    unit by :func:`oplearn.data._ids`."""
    if isinstance(policy, PolicyAssignment):
        policy = policy.actions
    if np.shape(policy) != (n_units,):
        raise ValueError(f"policy needs one action for each of {n_units} units")
    return _ids(policy, n_actions, "policy")


def _observed_propensity(dataset: Dataset, propensities: PropensityMatrix) -> np.ndarray:
    """p_hat[i, A_i], the propensity of each unit's observed action."""
    if propensities.p.shape != (dataset.n_units, dataset.n_actions):
        raise ValueError("dataset and propensities disagree on shape")
    observed_p = propensities.p[np.arange(dataset.n_units), dataset.actions]
    zero = observed_p <= 0
    if zero.any():
        raise ValueError(f"zero propensity of the observed action at row {int(zero.argmax()) + 1}")
    return observed_p


def value_ra(q_hat: np.ndarray, policy: PolicyAssignment | np.ndarray) -> ValueEstimate:
    """Regression-adjustment value: mean of q_hat at the policy's actions,
    over at least one unit."""
    q_hat = np.asarray(q_hat, dtype=np.float64)
    if q_hat.ndim != 2:
        raise ValueError("q_hat must be 2-d")
    _require_units(q_hat.shape[0], "value_ra")
    actions = _policy_actions(policy, *q_hat.shape)
    value = float(np.mean(q_hat[np.arange(q_hat.shape[0]), actions]))
    return ValueEstimate(estimator="RA", value=value)


def value_ipw(
    dataset: Dataset,
    policy: PolicyAssignment | np.ndarray,
    propensities: PropensityMatrix,
) -> ValueEstimate:
    """Horvitz-Thompson value of the policy under the observed assignment."""
    actions = _policy_actions(policy, dataset.n_units, dataset.n_actions)
    observed_p = _observed_propensity(dataset, propensities)
    match = (dataset.actions == actions).astype(np.float64)
    value = float(np.mean(match * dataset.outcomes / observed_p))
    return ValueEstimate(estimator="IPW", value=value)


def value_dr(
    dataset: Dataset,
    policy: PolicyAssignment | np.ndarray,
    q_hat: np.ndarray,
    propensities: PropensityMatrix,
) -> ValueEstimate:
    """Doubly robust value: plug-in plus the weighted residual correction.

    The correction residual is taken at the observed action A_i, so a
    q_hat that interpolates the observed outcomes makes DR coincide with RA.
    """
    actions = _policy_actions(policy, dataset.n_units, dataset.n_actions)
    q_hat = np.asarray(q_hat, dtype=np.float64)
    if q_hat.shape != (dataset.n_units, dataset.n_actions):
        raise ValueError("q_hat shape mismatch")
    observed_p = _observed_propensity(dataset, propensities)
    idx = np.arange(dataset.n_units)
    match = (dataset.actions == actions).astype(np.float64)
    plug_in = q_hat[idx, actions]
    residual = match * (dataset.outcomes - q_hat[idx, dataset.actions]) / observed_p
    value = float(np.mean(plug_in + residual))
    return ValueEstimate(estimator="DR", value=value)


def score_policies(
    dataset: Dataset,
    policies: Mapping[str, PolicyAssignment | np.ndarray],
    q_hat: np.ndarray,
    propensities: PropensityMatrix,
) -> list[dict]:
    """The value table: one ``{policy_label, estimator, value, regret_vs_fb}``
    row per policy, in mapping order, and per estimator, in
    ``ESTIMATOR_KINDS`` order. ``regret_vs_fb`` is the ``neutral`` policy's
    value minus the row's, under the same estimator, None without one."""
    scorers = {
        "RA": lambda actions: value_ra(q_hat, actions),
        "IPW": lambda actions: value_ipw(dataset, actions, propensities),
        "DR": lambda actions: value_dr(dataset, actions, q_hat, propensities),
    }
    values = {
        label: {kind: score(actions).value for kind, score in scorers.items()}
        for label, actions in policies.items()
    }
    first_best = values.get("neutral")
    return [
        {
            "policy_label": label,
            "estimator": kind,
            "value": value,
            "regret_vs_fb": None if first_best is None else first_best[kind] - value,
        }
        for label, per_kind in values.items()
        for kind, value in per_kind.items()
    ]
