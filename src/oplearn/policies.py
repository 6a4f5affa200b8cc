"""Optimal action assignment under risk preferences.

Given the per-arm return/risk pair (mu, sigma), each unit is assigned the
arm maximising a utility that encodes the decision maker's attitude toward
outcome uncertainty:

* ``neutral``    U = mu            (first-best: highest expected return)
* ``linear``     U = mu / sigma    (return per unit of risk)
* ``quadratic``  U = mu / sigma^2  (return per unit of variance)

Ties are broken deterministically toward the smallest arm index and
counted. The utility matrix is (N, M) in arm-major (Fortran) order, like the
moments it comes from, and the arm choice takes one pass over its M
contiguous columns after the row maximum; C-ordered inputs are accepted and
copied once. The risk-averse ratios assume a generally non-negative reward, so
their ordering is fragile where mean estimates go negative; the rule is
never altered there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .moments import ArmMoments


class RiskPreference(str, Enum):
    NEUTRAL = "neutral"
    LINEAR = "linear"
    QUADRATIC = "quadratic"


def risk_utility(
    mu: np.ndarray,
    sigma: np.ndarray,
    sigma2: np.ndarray,
    preference: RiskPreference,
) -> np.ndarray:
    """Elementwise utility for the given risk preference."""
    if preference == RiskPreference.NEUTRAL:
        return np.array(mu, dtype=np.float64)
    if preference == RiskPreference.LINEAR:
        return mu / sigma
    if preference == RiskPreference.QUADRATIC:
        return mu / sigma2
    raise ValueError(f"unknown risk preference: {preference!r}")


@dataclass(frozen=True, eq=False)
class PolicyAssignment:
    """Chosen action per unit plus the utility matrix that produced it.

    ``actions[i]`` is always the smallest index maximising row i of
    ``utility``; ``ties_broken`` counts rows where the maximum was not
    unique. ``utility`` is held arm-major (Fortran order); a C-ordered input
    is copied once, and an F-ordered one is held as a read-only view, so the
    caller's array stays writeable.
    """

    preference: RiskPreference
    actions: np.ndarray
    utility: np.ndarray
    ties_broken: int = 0

    def __post_init__(self) -> None:
        actions = np.ascontiguousarray(self.actions, dtype=np.int64).view()
        utility = np.asfortranarray(self.utility, dtype=np.float64).view()
        if utility.ndim != 2 or actions.shape != (utility.shape[0],):
            raise ValueError("actions and utility disagree on shape")
        if not np.isfinite(utility).all():
            raise ValueError("utility contains non-finite entries")
        if not np.array_equal(_smallest_maximisers(utility)[0], actions):
            raise ValueError("actions do not maximise the utility rows")
        actions.setflags(write=False)
        utility.setflags(write=False)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "utility", utility)

    @property
    def n_units(self) -> int:
        return self.actions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.utility.shape[1]

    def action_shares(self) -> np.ndarray:
        return np.bincount(self.actions, minlength=self.n_actions) / self.n_units


def _smallest_maximisers(utility: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a finite ``utility``, the smallest index of the maximum and
    whether the maximum is tied. One pass over the columns after the row
    maximum, so each column is read contiguously when ``utility`` is
    arm-major; ``np.argmax(axis=1)`` would first copy such a matrix to put
    the arm axis last. The index counts the columns before the first one
    holding the maximum."""
    best = utility.max(axis=1)
    first = np.zeros(utility.shape[0], dtype=np.int64)
    seen = np.zeros(utility.shape[0], dtype=bool)
    tied = np.zeros(utility.shape[0], dtype=bool)
    for a in range(utility.shape[1]):
        hit = utility[:, a] == best
        tied |= seen & hit
        seen |= hit
        first += ~seen
    return first, tied


def assign_policy(moments: ArmMoments, preference: RiskPreference) -> PolicyAssignment:
    """Per-unit argmax of the utility matrix, smallest index on ties. The
    utilities are finite by construction thanks to the variance floor."""
    utility = risk_utility(moments.mu, moments.sigma, moments.sigma2, preference)
    actions, tied = _smallest_maximisers(utility)
    ties = int(np.count_nonzero(tied))
    return PolicyAssignment(
        preference=preference, actions=actions, utility=utility, ties_broken=ties
    )
