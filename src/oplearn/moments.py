"""Per-arm conditional means and variances of the outcome.

For every unit i and every action a the pipeline needs the return/risk pair
(mu[i, a], sigma[i, a]): the conditional mean outcome under action a and its
conditional standard deviation. Because treatment is unconfounded given the
features, the mean is estimated by a least-squares fit
(:func:`oplearn.regression.fit_ols`, which takes no keyword) on the
subsample that actually received arm a, predicted for all N units
(counterfactual imputation). A singular design is always ridged, never
refused, and the ridge acts in each feature's own units. The variance is
the plug-in difference of two conditional means,

    sigma2(a, x) = E[Y^2 | A=a, x] - E[Y | A=a, x]^2,

fit the same way. The plug-in difference can be non-positive, and sigma
appears in utility denominators, so sigma2 is clamped below at a strictly
positive floor; the clamp mask is kept so that reports can surface how
often it fired.

Each arm's subsample is cut once and serves both moment fits. The fitted
coefficients of every arm are gathered first, and each moment is then
predicted for all arms at once with one (M, p) x (p, N) matrix product.
Every unit x arm matrix is (N, M) in arm-major (Fortran) order, so each
arm's column is contiguous and a reduction across arms runs element-wise
over M columns; C-ordered inputs are accepted and copied once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _arms_pass, _freeze, _require_units
from .regression import fit_ols


@dataclass(frozen=True, eq=False)
class ArmMoments:
    """Estimated (mu, sigma) pair for every unit x arm cell.

    Invariants, checked at construction: at least one unit and one arm,
    ``sigma2 >= variance_floor > 0`` everywhere, the floor is finite and all
    entries are finite. The matrices are held arm-major (Fortran order); a
    C-ordered input is copied once, and an F-ordered one is held as a
    read-only view, so the caller's array stays writeable. ``sigma``, the elementwise square
    root of ``sigma2``, is computed at construction. ``clamped`` marks the
    cells where the raw plug-in variance fell below the floor.
    """

    mu: np.ndarray
    sigma2: np.ndarray
    variance_floor: float
    clamped: np.ndarray
    sigma: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mu = _freeze(self, "mu", np.float64, "F")
        sigma2 = _freeze(self, "sigma2", np.float64, "F")
        clamped = _freeze(self, "clamped", bool, "F")
        if not (mu.shape == sigma2.shape == clamped.shape):
            raise ValueError("moment matrices disagree on shape")
        if mu.ndim != 2:
            raise ValueError("moment matrices must be 2-d (units x arms)")
        _require_units(mu.shape[0], "ArmMoments")
        _require_units(mu.shape[1], "ArmMoments", "arm")
        if not 0 < self.variance_floor < np.inf:
            raise ValueError("variance_floor must be strictly positive")
        if not (np.isfinite(mu).all() and np.isfinite(sigma2).all()):
            raise ValueError("moments contain non-finite entries")
        if sigma2.min() < self.variance_floor:
            raise ValueError("sigma2 below the variance floor")
        object.__setattr__(self, "sigma", np.sqrt(sigma2))
        _freeze(self, "sigma", np.float64, "F")

    @property
    def n_units(self) -> int:
        return self.mu.shape[0]

    @property
    def n_actions(self) -> int:
        return self.mu.shape[1]

    @property
    def n_clamped(self) -> int:
        return int(self.clamped.sum())


def _default_variance_floor(outcomes: np.ndarray) -> float:
    """1e-8 times the outcome variance, or 1e-8 for constant outcomes."""
    spread = float(np.var(np.asarray(outcomes, dtype=np.float64)))
    return 1e-8 * (spread if spread > 0 else 1.0)


def _require_valid(dataset: Dataset) -> None:
    """The pass rule of :func:`oplearn.data.validate_dataset`, checked
    without building its report, which a caller such as the CLI has already
    built and shown."""
    counts = dataset.arm_counts()
    if not _arms_pass(counts, dataset.n_features):
        raise ValueError(
            "dataset fails validation (an arm is too thin for the learner); "
            f"arm counts: {counts.tolist()}"
        )


def _fit_per_arm(dataset: Dataset, *targets: np.ndarray) -> list[np.ndarray]:
    """For each target, an arm-major N x M matrix of predictions for all
    units. Each arm's subsample is cut once and fitted for every target;
    then each target is predicted for all arms with one matrix product,
    written through the C-ordered (M, N) transpose of its output."""
    n_arms = dataset.n_actions
    outs = [np.empty((dataset.n_units, n_arms), order="F") for _ in targets]
    coef = np.empty((len(targets), n_arms, dataset.n_features + 1))
    for a in range(n_arms):
        rows = np.flatnonzero(dataset.actions == a)
        features = dataset.features.take(rows, axis=0)
        for t, target in enumerate(targets):
            coef[t, a] = fit_ols(features, target.take(rows))
    for out, fitted in zip(outs, coef):
        np.matmul(fitted[:, 1:], dataset.features.T, out=out.T)
        out += fitted[:, 0]
    return outs


def estimate_conditional_means(dataset: Dataset) -> np.ndarray:
    """N x M matrix of imputed conditional mean outcomes, one column per arm,
    in arm-major order."""
    _require_valid(dataset)
    (mu,) = _fit_per_arm(dataset, dataset.outcomes)
    return mu


def build_arm_moments(dataset: Dataset, *, variance_floor: float | None = None) -> ArmMoments:
    """Conditional mean and clamped plug-in variance for all arms.

    Per arm, the subsample is cut once and least squares is fit on it
    twice - once with target Y, once with target Y^2 - and both fits predict
    for all units; the variance is E[Y^2] - mu^2, clamped below at
    ``variance_floor``.
    """
    _require_valid(dataset)
    if variance_floor is None:
        variance_floor = _default_variance_floor(dataset.outcomes)
    mu, second = _fit_per_arm(dataset, dataset.outcomes, dataset.outcomes**2)
    raw = second - mu**2
    clamped = raw < variance_floor
    sigma2 = np.where(clamped, variance_floor, raw)
    return ArmMoments(
        mu=mu,
        sigma2=sigma2,
        variance_floor=variance_floor,
        clamped=clamped,
    )
