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
generator) with a fixed draw order - features, then noise, then assignment -
so a given spec reproduces bit-identical data.

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

    The consistency rule ``outcomes[i] == potential_outcomes[i, actions[i]]``
    and row-stochastic true propensities are checked at construction.
    """

    dataset: Dataset
    potential_outcomes: np.ndarray
    true_mu: np.ndarray
    true_sigma: np.ndarray
    true_propensity: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.dataset.n_units, self.dataset.n_actions)
        for name in ("potential_outcomes", "true_mu", "true_sigma", "true_propensity"):
            if _freeze(self, name, np.float64).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        idx = np.arange(self.dataset.n_units)
        observed = self.potential_outcomes[idx, self.dataset.actions]
        if not np.array_equal(observed, self.dataset.outcomes):
            raise ValueError("observed outcomes violate the consistency rule")
        if np.abs(self.true_propensity.sum(axis=1) - 1.0).max() > 1e-10:
            raise ValueError("true propensity rows must sum to 1")
        if self.true_sigma.min() <= 0:
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
    # one (p, N) draw, so feature j takes the j-th run of N draws; copied to
    # C order here, so that Dataset holds it without a second copy
    draw = rng.standard_normal if spec.feature_dist == "normal" else rng.random
    features = np.ascontiguousarray(draw((spec.n_features, spec.n_units)).T)
    design = np.column_stack([np.ones(spec.n_units), features])
    true_mu = design @ spec.mean_coeffs.T
    true_sigma = _softplus(design @ spec.noise_scale_coeffs.T)
    noise = rng.standard_normal((spec.n_units, spec.n_actions))
    potential = true_mu + true_sigma * noise

    if spec.assignment == "uniform":
        propensity = np.full((spec.n_units, spec.n_actions), 1.0 / spec.n_actions)
    else:
        scores = design @ spec.assignment_coeffs.T
        shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
        propensity = shifted / shifted.sum(axis=1, keepdims=True)
    # Inverse-CDF draw keeps a single code path for both mechanisms.
    u = rng.random(spec.n_units)
    actions = (u[:, None] > np.cumsum(propensity, axis=1)).sum(axis=1)
    actions = np.minimum(actions, spec.n_actions - 1)

    dataset = Dataset(
        outcomes=potential[np.arange(spec.n_units), actions],
        actions=actions,
        features=features,
        n_actions=spec.n_actions,
    )
    return OracleData(
        dataset=dataset,
        potential_outcomes=potential,
        true_mu=true_mu,
        true_sigma=true_sigma,
        true_propensity=propensity,
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
