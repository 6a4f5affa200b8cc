"""Supervised learners used by the pipeline.

Two estimators cover everything the policy pipeline needs:

* least-squares linear regression, for the per-arm conditional means of the
  outcome and of its square, and
* multinomial logistic regression, for the probability of receiving each
  action given the features.

The least-squares fit solves the normal equations ``(X'X) b = X'y`` over a
design matrix with a leading intercept column. A singular system falls back
to a ridge-stabilised solve with ``lambda = 1e-8 * trace(X'X) / d``; designs
that stay unusable after the fallback raise :class:`RankDeficiencyError`
naming the collinear columns.

The multinomial logit maximises the log-likelihood by Newton ascent with
step halving, softmax probabilities with class 0 as the zero-score baseline,
and an optional ridge penalty on the non-intercept coefficients. The
(penalised) log-likelihood is non-decreasing across accepted iterations.
Its gradient is a sum over all N units, so the default convergence
tolerance, ``LOGIT_TOL_PER_UNIT * N``, grows with N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default logit gradient tolerance per unit. The gradient sums N per-unit
# terms, so its float rounding floor grows with N: an absolute 1e-8 can sit
# below it (1.84e-8 at 15,000 units), and Newton then runs to max_iter with
# the log-likelihood no longer changing.
LOGIT_TOL_PER_UNIT = 1e-10


class RankDeficiencyError(ValueError):
    """The regression design stayed rank-deficient after regularization."""


class QuasiSeparationError(RuntimeError):
    """Logit coefficients diverged; the classes are (nearly) separable."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Fitted least-squares coefficients, intercept first."""

    coefficients: np.ndarray
    training_rows: int

    def __post_init__(self) -> None:
        coef = np.ascontiguousarray(self.coefficients, dtype=np.float64)
        if not np.isfinite(coef).all():
            raise ValueError("coefficients must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[0] - 1


@dataclass(frozen=True, eq=False)
class MultinomialLogitModel:
    """Fitted multinomial logit with class 0 as the softmax baseline.

    ``coefficients`` has shape (M-1, p+1), intercept first in each row;
    class ``m >= 1`` gets the linear score ``coefficients[m-1] @ [1, x]``
    while class 0 is pinned at score zero.
    """

    coefficients: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float
    loglik_path: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        coef = np.ascontiguousarray(self.coefficients, dtype=np.float64)
        if coef.ndim != 2:
            raise ValueError("coefficients must be (M-1, p+1)")
        if not np.isfinite(coef).all():
            raise ValueError("coefficients must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "loglik_path", tuple(self.loglik_path))

    @property
    def n_classes(self) -> int:
        return self.coefficients.shape[0] + 1

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[1] - 1


def _design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    return np.column_stack([np.ones(X.shape[0]), X])


def _dependent_columns(design: np.ndarray, rel_tol: float = 1e-10) -> list[int]:
    """Indices of design columns linearly dependent on earlier ones.

    Modified Gram-Schmidt; column 0 is the intercept.
    """
    basis: list[np.ndarray] = []
    dependent: list[int] = []
    for j in range(design.shape[1]):
        v = design[:, j].astype(np.float64, copy=True)
        norm0 = float(np.linalg.norm(v))
        for q in basis:
            v -= (q @ v) * q
        norm = float(np.linalg.norm(v))
        if norm <= rel_tol * (norm0 + 1.0):
            dependent.append(j)
        else:
            basis.append(v / norm)
    return dependent


def _column_names(indices: list[int]) -> str:
    names = ["intercept" if j == 0 else f"feature {j}" for j in indices]
    return ", ".join(names)


def fit_ols(X: np.ndarray, y: np.ndarray, *, ridge: float | None = None) -> LinearModel:
    """Least-squares fit of ``y`` on ``X`` with an intercept.

    Parameters
    ----------
    X : ndarray, shape (N, p)
    y : ndarray, shape (N,)
    ridge : float or None
        Regularization used only as a fallback when the normal-equation
        system is numerically singular. ``None`` picks the automatic value
        ``1e-8 * trace(X'X) / d``; an explicit ``0.0`` disables the fallback
        so that rank-deficient designs raise instead.

    The returned coefficients satisfy the normal equations: residuals are
    orthogonal to every design column within ``1e-8 * N * scale``.
    """
    design = _design(X)
    y = np.asarray(y, dtype=np.float64)
    n, d = design.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n < d:
        raise ValueError(f"need at least {d} rows to fit {d} coefficients, got {n}")

    gram = design.T @ design
    moment = design.T @ y
    scale = max(1.0, float(np.abs(design).max())) * max(1.0, float(np.abs(y).max()))

    def solve(matrix: np.ndarray) -> np.ndarray | None:
        try:
            beta = np.linalg.solve(matrix, moment)
        except np.linalg.LinAlgError:
            return None
        return beta if np.isfinite(beta).all() else None

    def orthogonal(beta: np.ndarray, tol: float) -> bool:
        gap = np.abs(design.T @ (y - design @ beta)).max()
        return bool(gap <= tol * n * scale)

    beta = solve(gram)
    if beta is None or not orthogonal(beta, 1e-8):
        lam = 1e-8 * float(np.trace(gram)) / d if ridge is None else float(ridge)
        if lam > 0.0:
            beta = solve(gram + lam * np.eye(d))
        else:
            beta = None
        if beta is None or not orthogonal(beta, 1e-6):
            cols = _dependent_columns(design)
            raise RankDeficiencyError(
                f"design is rank-deficient; collinear columns: {_column_names(cols)}"
            )
    return LinearModel(coefficients=beta, training_rows=n)


def predict_ols(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Intercept plus dot product, one prediction per row of ``X``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"model was fit with {model.n_features} features, got {X.shape[1]}"
        )
    return model.coefficients[0] + X @ model.coefficients[1:]


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _class_scores(design: np.ndarray, coef: np.ndarray) -> np.ndarray:
    scores = np.zeros((design.shape[0], coef.shape[0] + 1))
    scores[:, 1:] = design @ coef.T
    return scores


def fit_mnlogit(
    X: np.ndarray,
    actions: np.ndarray,
    *,
    max_iter: int = 100,
    tol: float | None = None,
    ridge: float = 1e-6,
) -> MultinomialLogitModel:
    """Fit a multinomial logit of action on features by Newton ascent.

    Every class in ``0..M-1`` must be present. Convergence is declared when
    the max-norm of the (penalised) gradient drops below ``tol``, by default
    ``LOGIT_TOL_PER_UNIT * N`` (``1e-10 * N``); an explicit ``tol`` is
    absolute. Step halving guarantees the objective never decreases.
    Coefficients beyond ``1e6`` in absolute value abort with
    :class:`QuasiSeparationError`, which usually means the classes are
    separable and a stronger ``ridge`` is needed.
    """
    design = _design(X)
    a = np.asarray(actions, dtype=np.int64)
    n, d = design.shape
    if a.shape != (n,):
        raise ValueError("actions length mismatch")
    if a.min() < 0:
        raise ValueError("class labels must be non-negative integers")
    m = int(a.max()) + 1
    if m < 2:
        raise ValueError("need at least two classes")
    counts = np.bincount(a, minlength=m)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {missing} has no observations")
    if n < m * d:
        raise ValueError(f"need at least {m * d} rows, got {n}")
    if tol is None:
        tol = LOGIT_TOL_PER_UNIT * n

    onehot = np.zeros((n, m))
    onehot[np.arange(n), a] = 1.0
    penalty = np.ones(d)
    penalty[0] = 0.0  # intercepts unpenalised
    coef = np.zeros((m - 1, d))

    def penalised_loglik(b: np.ndarray) -> float:
        scores = _class_scores(design, b)
        shift = scores.max(axis=1)
        lse = shift + np.log(np.exp(scores - shift[:, None]).sum(axis=1))
        ll = float((scores[np.arange(n), a] - lse).sum())
        return ll - 0.5 * ridge * float((b**2 * penalty).sum())

    def gradient(b: np.ndarray, probs: np.ndarray) -> np.ndarray:
        g = design.T @ (onehot[:, 1:] - probs[:, 1:])  # (d, M-1)
        g = g.T - ridge * b * penalty
        return g.reshape(-1)

    loglik_path = [penalised_loglik(coef)]
    iterations = 0
    for _ in range(max_iter):
        probs = _softmax_rows(_class_scores(design, coef))
        grad = gradient(coef, probs)
        if float(np.abs(grad).max()) < tol:
            break
        hess = np.empty(((m - 1) * d, (m - 1) * d))
        for r in range(1, m):
            for c in range(1, m):
                w = probs[:, r] * ((1.0 if r == c else 0.0) - probs[:, c])
                block = design.T @ (design * -w[:, None])
                hess[(r - 1) * d : r * d, (c - 1) * d : c * d] = block
        hess -= ridge * np.diag(np.tile(penalty, m - 1))
        neg_hess = -hess
        try:
            direction = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(neg_hess, grad, rcond=None)[0]
        current = loglik_path[-1]
        step = 1.0
        improved = False
        for _ in range(40):
            candidate = coef + step * direction.reshape(m - 1, d)
            value = penalised_loglik(candidate)
            if np.isfinite(value) and value >= current:
                coef = candidate
                loglik_path.append(value)
                improved = True
                break
            step *= 0.5
        iterations += 1
        if not improved:
            break  # no ascent direction left at float precision
        if np.abs(coef).max() > 1e6:
            raise QuasiSeparationError(
                "logit coefficients exceeded 1e6 without converging; the "
                "classes look separable - increase the ridge penalty"
            )

    probs = _softmax_rows(_class_scores(design, coef))
    grad_norm = float(np.abs(gradient(coef, probs)).max())
    return MultinomialLogitModel(
        coefficients=coef,
        converged=grad_norm < tol,
        iterations=iterations,
        final_gradient_norm=grad_norm,
        loglik_path=tuple(loglik_path),
    )


def predict_proba(model: MultinomialLogitModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities, shape (K, M); rows are strictly positive and sum to 1."""
    design = _design(X)
    if design.shape[1] != model.coefficients.shape[1]:
        raise ValueError(
            f"model was fit with {model.n_features} features, "
            f"got {design.shape[1] - 1}"
        )
    return _softmax_rows(_class_scores(design, model.coefficients))
