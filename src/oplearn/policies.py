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
contiguous columns after the row maximum. A :class:`PolicyAssignment` holds
the chosen arms only; :func:`risk_utility` gives the utilities behind them
from the moments. The risk-averse ratios assume a generally non-negative reward, so
their ordering is fragile where mean estimates go negative; the rule is
never altered there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .data import _freeze, _ids, _require_units

if TYPE_CHECKING:
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
    """Chosen arm per unit, for at least one unit, among ``n_actions`` arms.

    ``actions[i]``, checked to lie in ``0..n_actions-1``, is the arm of
    unit i; from :func:`assign_policy` it is the smallest index maximising
    the unit's utility, and ``ties_broken`` counts units whose maximum was
    not unique.
    """

    preference: RiskPreference
    actions: np.ndarray
    n_actions: int
    ties_broken: int = 0

    def __post_init__(self) -> None:
        if np.ndim(self.actions) != 1:
            raise ValueError("actions must hold one arm per unit")
        _require_units(len(self.actions), "PolicyAssignment")
        object.__setattr__(self, "actions", _ids(self.actions, self.n_actions, "actions"))
        _freeze(self, "actions", np.int64)

    @property
    def n_units(self) -> int:
        return self.actions.shape[0]

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
    return PolicyAssignment(
        preference, actions, moments.n_actions, int(np.count_nonzero(tied))
    )
