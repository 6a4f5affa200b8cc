"""Synthetic data generator with fully known ground truth.

Real observational data never reveals more than one potential outcome per
unit, so correctness of the pipeline is checked against simulated data where
every counterfactual is known. The generator draws, for each unit and each
arm,

    Y_i(a) = mu(a, X_i) + sigma(a, X_i) * eps_ia,      eps_ia ~ N(0, 1)

with linear conditional means mu(a, x) = alpha_a + beta_a' x and strictly
positive noise scales sigma(a, x) = softplus(gamma_a + delta_a' x). Actions
are assigned uniformly or by a softmax (logit) rule on the features; the
noise draws are independent of the assignment given X, so treatment is
unconfounded by construction.

All randomness comes from ``numpy.random.default_rng(seed)`` (the PCG64
generator) with a fixed draw order - one (p, N) feature draw, then (N, M)
noise, then one uniform per unit for the assignment - so a given spec
reproduces bit-identical data.

The "true value" of a policy is reported as the finite-population mean of
the realised potential outcomes rather than the analytic expectation; this
removes Monte Carlo error from dominance comparisons between policies on the
same draw.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .data import Dataset, _freeze

if TYPE_CHECKING:
    from .policies import RiskPreference

FEATURE_DISTRIBUTIONS = ("normal", "uniform")


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), computed stably; strictly positive."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class DGPSpec:
    """Configuration of one synthetic data-generating process.

    ``mean_coeffs`` and ``noise_scale_coeffs`` are (M, p+1) matrices with
    the intercept first in each row. ``assignment`` is ``"uniform"`` or
    ``"logit"``; the logit rule draws actions with probabilities
    ``softmax([1, x] @ assignment_coeffs.T)``. ``feature_dist`` names the
    distribution of every feature column: ``"normal"`` (standard normal) or
    ``"uniform"`` (uniform on [0, 1]). The uniform rule draws no
    coefficients, so it refuses ``assignment_coeffs``.
    """

    n_units: int
    n_actions: int
    n_features: int
    mean_coeffs: np.ndarray
    noise_scale_coeffs: np.ndarray
    assignment: str = "uniform"
    assignment_coeffs: np.ndarray | None = None
    feature_dist: str = "normal"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_units", "n_actions", "n_features", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"DGP option {name!r} must be an integer, got {value!r}")
        if self.n_units < 1 or self.n_actions < 2 or self.n_features < 1:
            raise ValueError("need n_units >= 1, n_actions >= 2, n_features >= 1")
        shape = (self.n_actions, self.n_features + 1)
        mean = _freeze(self, "mean_coeffs", np.float64)
        noise = _freeze(self, "noise_scale_coeffs", np.float64)
        if mean.shape != shape or noise.shape != shape:
            raise ValueError(f"coefficient matrices must have shape {shape}")
        if self.assignment not in ("uniform", "logit"):
            raise ValueError(f"unknown assignment mechanism {self.assignment!r}")
        if self.assignment == "logit" and self.assignment_coeffs is None:
            raise ValueError("logit assignment needs assignment_coeffs")
        if self.assignment == "uniform" and self.assignment_coeffs is not None:
            raise ValueError("uniform assignment takes no assignment_coeffs")
        if self.assignment_coeffs is not None:
            if _freeze(self, "assignment_coeffs", np.float64).shape != shape:
                raise ValueError(f"assignment_coeffs must have shape {shape}")
        for name in ("mean_coeffs", "noise_scale_coeffs", "assignment_coeffs"):
            coeffs = getattr(self, name)
            if coeffs is not None and not np.isfinite(coeffs).all():
                raise ValueError(f"DGP option {name!r} must be finite")
        dist = self.feature_dist
        if not (isinstance(dist, str) and dist in FEATURE_DISTRIBUTIONS):
            raise ValueError(
                f"DGP option 'feature_dist' must be one of {list(FEATURE_DISTRIBUTIONS)}, "
                f"got {dist!r}"
            )

    @classmethod
    def from_dict(cls, cfg: Mapping[str, object]) -> "DGPSpec":
        unknown = set(cfg) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown DGP option(s): {sorted(unknown)}")
        return cls(**cfg)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        """The spec as JSON-ready values: arrays as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in out.items():
            if isinstance(value, np.ndarray):
                out[key] = value.tolist()
        return out


@dataclass(frozen=True, eq=False)
class OracleData:
    """Observed triplets plus the full counterfactual ground truth.

    The four (N, M) matrices are held arm-major (Fortran order), as
    :class:`~oplearn.moments.ArmMoments` holds its own: a C-ordered input is
    copied once, an F-ordered one is held as a read-only view. The
    consistency rule ``outcomes[i] == potential_outcomes[i, actions[i]]``,
    row-stochastic true propensities and strictly positive noise scales are
    checked at construction.
    """

    dataset: Dataset
    potential_outcomes: np.ndarray
    true_mu: np.ndarray
    true_sigma: np.ndarray
    true_propensity: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.dataset.n_units, self.dataset.n_actions)
        for name in ("potential_outcomes", "true_mu", "true_sigma", "true_propensity"):
            if _freeze(self, name, np.float64, "F").shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        idx = np.arange(self.dataset.n_units)
        observed = self.potential_outcomes[idx, self.dataset.actions]
        if not np.array_equal(observed, self.dataset.outcomes):
            raise ValueError("observed outcomes violate the consistency rule")
        # negated, so that a NaN entry fails both checks
        if not np.abs(self.true_propensity.sum(axis=1) - 1.0).max() <= 1e-10:
            raise ValueError("true propensity rows must sum to 1")
        if not self.true_sigma.min() > 0:
            raise ValueError("true noise scales must be strictly positive")

    @property
    def n_units(self) -> int:
        return self.dataset.n_units

    @property
    def n_actions(self) -> int:
        return self.dataset.n_actions


def generate(spec: DGPSpec) -> OracleData:
    """Draw one synthetic dataset with its counterfactual ground truth."""
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n_units, spec.n_actions
    # arm-major: the design is (d, N), so each product below is (M, N) and
    # every reduction over arms runs element-wise along whole rows of units.
    # The features are one (p, N) draw into the design's lower rows, so
    # feature j takes the j-th run of N draws; copied to C order for Dataset
    design = np.empty((spec.n_features + 1, n))
    design[0] = 1.0
    draw = rng.standard_normal if spec.feature_dist == "normal" else rng.random
    draw(out=design[1:])
    features = np.ascontiguousarray(design[1:].T)
    true_mu = spec.mean_coeffs @ design
    true_sigma = _softplus(spec.noise_scale_coeffs @ design)
    # the noise is drawn (N, M), unit by unit, and read through its transpose
    potential = true_sigma * rng.standard_normal((n, m)).T
    potential += true_mu

    if spec.assignment == "uniform":
        propensity = np.full((m, n), 1.0 / m)
    else:
        propensity = spec.assignment_coeffs @ design
        propensity -= propensity.max(axis=0)
        np.exp(propensity, out=propensity)
        propensity /= propensity.sum(axis=0)
    # Inverse-CDF draw keeps a single code path for both mechanisms: a unit's
    # action counts the running sums of its propensities, in arm order, that
    # its uniform exceeds. The sums never fall, so leaving out the last one
    # caps the action at M - 1 even where rounding leaves the total below 1
    u = rng.random(n)
    cdf = propensity[0].copy()
    actions = (u > cdf).astype(np.int64)
    for a in range(1, m - 1):
        cdf += propensity[a]
        actions += u > cdf

    dataset = Dataset(
        outcomes=potential[actions, np.arange(n)],
        actions=actions,
        features=features,
        n_actions=m,
    )
    return OracleData(
        dataset=dataset,
        potential_outcomes=potential.T,
        true_mu=true_mu.T,
        true_sigma=true_sigma.T,
        true_propensity=propensity.T,
    )


def true_value(oracle: OracleData, actions: np.ndarray) -> float:
    """Finite-population welfare of a policy: mean realised potential outcome."""
    # values and policies are imported here and in oracle_policy, so that
    # importing this module, as the simulate command does, loads neither
    from .values import _policy_actions

    actions = _policy_actions(actions, oracle.n_units, oracle.n_actions)
    return float(
        np.mean(oracle.potential_outcomes[np.arange(oracle.n_units), actions])
    )


def oracle_policy(oracle: OracleData, preference: RiskPreference) -> np.ndarray:
    """Per-unit argmax of the *true* utility, smallest index on ties, by the
    rule :func:`oplearn.policies.assign_policy` applies to estimates."""
    from .policies import _smallest_maximisers, risk_utility

    utility = risk_utility(
        oracle.true_mu, oracle.true_sigma, oracle.true_sigma**2, preference
    )
    return _smallest_maximisers(utility)[0]
