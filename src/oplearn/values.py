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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .policies import PolicyAssignment

ESTIMATOR_KINDS = ("RA", "IPW", "DR")


@dataclass(frozen=True)
class ValueEstimate:
    """A scalar welfare estimate, labelled by estimator kind and policy."""

    estimator: str
    policy_label: str
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
        p = np.ascontiguousarray(self.p, dtype=np.float64)
        low, high = self.clip_bounds
        if p.ndim != 2:
            raise ValueError("propensity matrix must be 2-d")
        if not np.isfinite(p).all():
            raise ValueError("propensities contain non-finite entries")
        if p.min() < low or p.max() > high:
            raise ValueError("propensities outside the clip bounds")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "clip_bounds", (float(low), float(high)))

    @property
    def n_units(self) -> int:
        return self.p.shape[0]

    @property
    def n_actions(self) -> int:
        return self.p.shape[1]


def clip_propensities(
    p: np.ndarray, low: float = 0.01, high: float = 0.99
) -> PropensityMatrix:
    """Clamp raw propensities into [low, high] without renormalising.

    ``p`` must be a valid probability matrix (rows summing to 1) before
    clipping; the number of entries actually moved is recorded.
    """
    p = np.asarray(p, dtype=np.float64)
    if not (0.0 < low < high < 1.0):
        raise ValueError(f"invalid clip bounds ({low}, {high})")
    if p.ndim != 2:
        raise ValueError("propensity matrix must be 2-d")
    row_sums = p.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-8:
        raise ValueError("propensity rows must sum to 1 before clipping")
    clipped = np.clip(p, low, high)
    moved = int((clipped != p).sum())
    return PropensityMatrix(p=clipped, clip_bounds=(low, high), clipped_count=moved)


def _actions_and_label(
    policy: PolicyAssignment | np.ndarray, label: str | None
) -> tuple[np.ndarray, str]:
    if isinstance(policy, PolicyAssignment):
        return policy.actions, label if label is not None else policy.label
    actions = np.asarray(policy, dtype=np.int64)
    if actions.ndim != 1:
        raise ValueError("policy actions must be a 1-d integer vector")
    return actions, label if label is not None else "custom"


def value_ra(
    q_hat: np.ndarray,
    policy: PolicyAssignment | np.ndarray,
    label: str | None = None,
) -> ValueEstimate:
    """Regression-adjustment value: mean of q_hat at the policy's actions."""
    q_hat = np.asarray(q_hat, dtype=np.float64)
    actions, label = _actions_and_label(policy, label)
    if q_hat.ndim != 2 or actions.shape != (q_hat.shape[0],):
        raise ValueError("q_hat and policy disagree on the number of units")
    value = float(np.mean(q_hat[np.arange(q_hat.shape[0]), actions]))
    return ValueEstimate(estimator="RA", policy_label=label, value=value)


def value_ipw(
    dataset: Dataset,
    policy: PolicyAssignment | np.ndarray,
    propensities: PropensityMatrix,
    label: str | None = None,
) -> ValueEstimate:
    """Horvitz-Thompson value of the policy under the observed assignment."""
    actions, label = _actions_and_label(policy, label)
    n = dataset.n_units
    if actions.shape != (n,) or propensities.p.shape != (n, dataset.n_actions):
        raise ValueError("dataset, policy, and propensities disagree on shape")
    observed_p = propensities.p[np.arange(n), dataset.actions]
    if (observed_p <= 0).any():  # pragma: no cover - impossible post-clip
        raise RuntimeError("internal error: zero propensity at an observed action")
    match = (dataset.actions == actions).astype(np.float64)
    value = float(np.mean(match * dataset.outcomes / observed_p))
    return ValueEstimate(estimator="IPW", policy_label=label, value=value)


def value_dr(
    dataset: Dataset,
    policy: PolicyAssignment | np.ndarray,
    q_hat: np.ndarray,
    propensities: PropensityMatrix,
    label: str | None = None,
) -> ValueEstimate:
    """Doubly robust value: plug-in plus the weighted residual correction.

    The correction residual is taken at the observed action A_i, so a
    q_hat that interpolates the observed outcomes makes DR coincide with RA.
    """
    actions, label = _actions_and_label(policy, label)
    q_hat = np.asarray(q_hat, dtype=np.float64)
    n = dataset.n_units
    if q_hat.shape != (n, dataset.n_actions):
        raise ValueError("q_hat shape mismatch")
    if actions.shape != (n,) or propensities.p.shape != q_hat.shape:
        raise ValueError("dataset, policy, and propensities disagree on shape")
    idx = np.arange(n)
    observed_p = propensities.p[idx, dataset.actions]
    if (observed_p <= 0).any():  # pragma: no cover - impossible post-clip
        raise RuntimeError("internal error: zero propensity at an observed action")
    match = (dataset.actions == actions).astype(np.float64)
    plug_in = q_hat[idx, actions]
    residual = match * (dataset.outcomes - q_hat[idx, dataset.actions]) / observed_p
    value = float(np.mean(plug_in + residual))
    return ValueEstimate(estimator="DR", policy_label=label, value=value)


def regret(v_first_best: ValueEstimate, v_alternative: ValueEstimate) -> float:
    """Welfare lost by the alternative policy, within one estimator kind."""
    if v_first_best.estimator != v_alternative.estimator:
        raise ValueError(
            "regret compares values from the same estimator kind, got "
            f"{v_first_best.estimator!r} vs {v_alternative.estimator!r}"
        )
    return v_first_best.value - v_alternative.value
