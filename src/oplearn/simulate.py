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
from typing import Mapping

import numpy as np

from .data import Dataset
from .policies import RiskPreference, risk_utility
from .values import _policy_actions

FEATURE_DISTRIBUTIONS = ("normal", "uniform")


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), computed stably; strictly positive."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class DGPSpec:
    """Configuration of one synthetic data-generating process.

    ``mean_coeffs`` and ``noise_scale_coeffs`` are (M, p+1) matrices with
    the intercept first in each row. ``assignment`` is ``"uniform"`` or
    ``"logit"``; the logit rule draws actions with probabilities
    ``softmax([1, x] @ assignment_coeffs.T)``. ``feature_dist`` is a single
    distribution name or one per feature column, from ``"normal"``
    (standard normal) and ``"uniform"`` (uniform on [0, 1]).
    """

    n_units: int
    n_actions: int
    n_features: int
    mean_coeffs: np.ndarray
    noise_scale_coeffs: np.ndarray
    assignment: str = "uniform"
    assignment_coeffs: np.ndarray | None = None
    feature_dist: str | tuple[str, ...] = "normal"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_units < 1 or self.n_actions < 2 or self.n_features < 1:
            raise ValueError("need n_units >= 1, n_actions >= 2, n_features >= 1")
        shape = (self.n_actions, self.n_features + 1)
        mean = np.ascontiguousarray(self.mean_coeffs, dtype=np.float64)
        noise = np.ascontiguousarray(self.noise_scale_coeffs, dtype=np.float64)
        if mean.shape != shape or noise.shape != shape:
            raise ValueError(f"coefficient matrices must have shape {shape}")
        if self.assignment not in ("uniform", "logit"):
            raise ValueError(f"unknown assignment mechanism {self.assignment!r}")
        coeffs = self.assignment_coeffs
        if self.assignment == "logit":
            if coeffs is None:
                raise ValueError("logit assignment needs assignment_coeffs")
            coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
            if coeffs.shape != shape:
                raise ValueError(f"assignment_coeffs must have shape {shape}")
        dists = self.feature_dist
        if isinstance(dists, str):
            dists = (dists,) * self.n_features
        dists = tuple(dists)
        if len(dists) != self.n_features:
            raise ValueError("feature_dist must name one distribution per column")
        for d in dists:
            if d not in FEATURE_DISTRIBUTIONS:
                raise ValueError(f"unknown feature distribution {d!r}")
        for arr in (mean, noise) + ((coeffs,) if coeffs is not None else ()):
            arr.setflags(write=False)
        object.__setattr__(self, "mean_coeffs", mean)
        object.__setattr__(self, "noise_scale_coeffs", noise)
        object.__setattr__(self, "assignment_coeffs", coeffs)
        object.__setattr__(self, "feature_dist", dists)

    @classmethod
    def from_dict(cls, cfg: Mapping[str, object]) -> "DGPSpec":
        unknown = set(cfg) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown DGP option(s): {sorted(unknown)}")
        kwargs = dict(cfg)
        for key in ("mean_coeffs", "noise_scale_coeffs", "assignment_coeffs"):
            if kwargs.get(key) is not None:
                kwargs[key] = np.asarray(kwargs[key], dtype=np.float64)
        if isinstance(kwargs.get("feature_dist"), list):
            kwargs["feature_dist"] = tuple(kwargs["feature_dist"])
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        """The spec as JSON-ready values: arrays and ``feature_dist`` as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in out.items():
            if isinstance(value, np.ndarray):
                out[key] = value.tolist()
        out["feature_dist"] = list(self.feature_dist)
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
        arrays = {}
        for name in ("potential_outcomes", "true_mu", "true_sigma", "true_propensity"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            arr.setflags(write=False)
            arrays[name] = arr
        idx = np.arange(self.dataset.n_units)
        observed = arrays["potential_outcomes"][idx, self.dataset.actions]
        if not np.array_equal(observed, self.dataset.outcomes):
            raise ValueError("observed outcomes violate the consistency rule")
        if np.abs(arrays["true_propensity"].sum(axis=1) - 1.0).max() > 1e-10:
            raise ValueError("true propensity rows must sum to 1")
        if arrays["true_sigma"].min() <= 0:
            raise ValueError("true noise scales must be strictly positive")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n_units(self) -> int:
        return self.dataset.n_units

    @property
    def n_actions(self) -> int:
        return self.dataset.n_actions


def _draw_features(spec: DGPSpec, rng: np.random.Generator) -> np.ndarray:
    cols = []
    for dist in spec.feature_dist:
        if dist == "normal":
            cols.append(rng.standard_normal(spec.n_units))
        else:
            cols.append(rng.random(spec.n_units))
    return np.column_stack(cols)


def generate(spec: DGPSpec) -> OracleData:
    """Draw one synthetic dataset with its counterfactual ground truth."""
    rng = np.random.default_rng(spec.seed)
    features = _draw_features(spec, rng)
    design = np.column_stack([np.ones(spec.n_units), features])
    true_mu = design @ spec.mean_coeffs.T
    true_sigma = softplus(design @ spec.noise_scale_coeffs.T)
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
    actions = _policy_actions(actions, oracle.n_units, oracle.n_actions)
    return float(
        np.mean(oracle.potential_outcomes[np.arange(oracle.n_units), actions])
    )


def oracle_policy(oracle: OracleData, preference: RiskPreference) -> np.ndarray:
    """Per-unit argmax of the *true* utility, smallest index on ties."""
    utility = risk_utility(
        oracle.true_mu, oracle.true_sigma, oracle.true_sigma**2, preference
    )
    return np.argmax(utility, axis=1)
