"""Supervised learners used by the pipeline.

Two estimators cover everything the policy pipeline needs:

* least-squares linear regression, for the per-arm conditional means of the
  outcome and of its square, and
* multinomial logistic regression, for the probability of receiving each
  action given the features.

Both fits call a symmetric system singular by one rule, ``_cholesky``,
which tests the Cholesky factor of the matrix rescaled to a unit diagonal,
so that no feature's units decide it.

The least-squares fit solves the normal equations ``(X'X) b = X'y`` over a
design matrix with a leading intercept column and returns the coefficient
array ``b``, intercept first; its caller predicts with it. A singular
``X'X`` is always ridged, never refused: each feature coefficient is
penalised by ``1e-8`` times its own diagonal entry of ``X'X``, so the
ridge acts in each feature's own units, and the intercept is left
unpenalised. One refinement step against the unridged equations (Riley,
1955) then takes the ridge's shrinkage off the directions the design does
determine, so the fitted values are the least-squares projection of ``y``.

The multinomial logit maximises the log-likelihood by Newton ascent with
step halving, softmax probabilities with class 0 as the zero-score baseline,
and an optional ridge penalty on the non-intercept coefficients. Its arrays
are held class-major: the design is built once as a (d, N) array, with one
row per design column, and scores and probabilities are (M, N) arrays, so
the max, exp and sum over classes run element-wise across M contiguous
rows of one buffer. ``predict_proba`` scores through the same softmax and
returns its transpose. Each unit's observed score is read with one flat
index, and each class's design-row sums, the constant part of the
gradient, are formed once per fit.

The Hessian is symmetric in its class pairs and in its feature pairs, so it
is built from blocks of ``HESSIAN_BLOCK`` units with one matrix product per
block, between the weights of the unique class pairs and the products of
the unique design-row pairs, and then mirrored. Each block writes both
operands straight into C-contiguous buffers, one run per class or design
row: class ``r``'s weights come from the row slice ``p[r:]``, and design
row ``j``'s products from ``x[j:]``, with no index gather. Each Hessian
serves two Newton steps (Shamanskii's lazy Newton), built on steps 0, 2, 4,
... and reused with the new gradient by the step after; only a fresh one
that finds no ascent ends the loop, a reused one is rebuilt instead. Step 0
starts at zero coefficients, where every unit has probability ``1/M`` for
every class, so its Hessian takes no pass over the blocks: with ``s`` the
M-1 non-baseline probabilities it is ``(diag(s) - s s') kron X'X``
(Böhning's equal-probability curvature), ``X'X`` being one (d, d) product
of the design. Each step-halving candidate is scored once, and the
accepted candidate's probabilities feed the next Newton step, whose
gradient is also the final one reported when the loop stops.

The (penalised) log-likelihood is non-decreasing across accepted iterations
with one bounded exception: a step whose Newton decrement ``g'H^-1 g / 2``
is at most ``FLAT_STEP * |loglik|`` predicts a gain below the rounding of
the summed log-likelihood, and a step that lands at most that much lower
is accepted. Without it, step halving near the optimum can reject
a full step over a rounding step and crawl for many iterations. The
gradient is a sum over all N units, so the default convergence tolerance,
``LOGIT_TOL_PER_UNIT * N``, grows with N. The Newton system is solved by
Cholesky; a step whose Hessian ``_cholesky`` finds singular comes from
least squares instead and is counted in ``lstsq_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _freeze, _ids

# Default logit gradient tolerance per unit. The gradient sums N per-unit
# terms, so its float rounding floor grows with N: an absolute 1e-8 can sit
# below it (1.84e-8 at 15,000 units), and Newton then runs to max_iter with
# the log-likelihood no longer changing.
LOGIT_TOL_PER_UNIT = 1e-10

# Rows per block of the logit Hessian: the block's weight and column-product
# temporaries stay at a few MB whatever N is.
HESSIAN_BLOCK = 4096

# A Newton step counts as flat when its decrement, the ascent 0.5 g'H^-1 g
# its quadratic model predicts, is at most FLAT_STEP * |loglik|: within a
# few rounding steps of the summed log-likelihood.
FLAT_STEP = 64 * np.finfo(np.float64).eps

# A symmetric matrix counts as singular when, rescaled to a unit diagonal,
# its Cholesky factor's squared ratio of smallest to largest diagonal entry,
# about its inverse condition number, is below SINGULAR_RATIO times its size.
# Rounding can leave an exactly singular Gram matrix's squared ratio at a few
# eps times its size (up to 7.2 for a constant column on 2 rows), so the bar
# sits well above that.
SINGULAR_RATIO = 64 * np.finfo(np.float64).eps


class QuasiSeparationError(RuntimeError):
    """Logit coefficients diverged; the classes are (nearly) separable."""


@dataclass(frozen=True, eq=False)
class MultinomialLogitModel:
    """Fitted multinomial logit with class 0 as the softmax baseline.

    ``coefficients`` has shape (M-1, p+1), intercept first in each row;
    class ``m >= 1`` gets the linear score ``coefficients[m-1] @ [1, x]``
    while class 0 is pinned at score zero. ``lstsq_steps`` counts the Newton
    steps whose Hessian was numerically singular, so that the step came from
    ``np.linalg.lstsq`` instead of a Cholesky solve.
    """

    coefficients: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float
    loglik_path: tuple[float, ...] = ()
    lstsq_steps: int = 0

    def __post_init__(self) -> None:
        coef = _freeze(self, "coefficients", np.float64)
        if coef.ndim != 2:
            raise ValueError("coefficients must be (M-1, p+1)")
        if not np.isfinite(coef).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "loglik_path", tuple(self.loglik_path))

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[1] - 1


def _design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    return np.column_stack([np.ones(X.shape[0]), X])


def _cholesky(matrix: np.ndarray) -> np.ndarray | None:
    """Cholesky factor ``L`` of the symmetric ``matrix``, or None when the
    factorisation fails or ``(min r / max r)**2 < SINGULAR_RATIO * size``.
    ``r = diag(L) / sqrt(diag(matrix))`` is the factor diagonal of the matrix
    rescaled to a unit diagonal, as ``S M S = (S L)(S L)'`` for diagonal ``S``.
    """
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    r = np.diagonal(chol) / np.sqrt(np.diagonal(matrix))
    return chol if (r.min() / r.max()) ** 2 >= SINGULAR_RATIO * matrix.shape[0] else None


def fit_ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``y`` on ``X`` with an intercept, shape
    (p+1,), intercept first; coefficients that are not all finite, as from
    a non-finite ``y``, raise ValueError.

    When ``_cholesky`` finds ``X'X`` singular, each feature coefficient is
    penalised by ``1e-8`` times its own diagonal entry of ``X'X``, so no
    feature's units decide how far it shrinks. An all-zero column, whose
    coefficient is 0 at any penalty, takes ``1e-8``; the intercept is not
    penalised. One refinement step then solves the ridged system for the
    residual of the unridged one.
    """
    design = _design(X)
    y = np.asarray(y, dtype=np.float64)
    n, d = design.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n < d:
        raise ValueError(f"need at least {d} rows to fit {d} coefficients, got {n}")

    gram = design.T @ design
    rhs = design.T @ y
    if _cholesky(gram) is not None:
        coefficients = np.linalg.solve(gram, rhs)
    else:
        diagonal = np.diagonal(gram)
        penalty = 1e-8 * np.where(diagonal > 0, diagonal, 1.0)
        penalty[0] = 0.0
        ridged = gram + np.diag(penalty)
        # positive definite by construction; kept as a guard for rounding
        if _cholesky(ridged) is None:
            raise ValueError("normal-equation matrix is singular even with the ridge")
        coefficients = np.linalg.solve(ridged, rhs)
        # one refinement step against the unridged equations (Riley, 1955)
        coefficients += np.linalg.solve(ridged, rhs - gram @ coefficients)
    if not np.isfinite(coefficients).all():
        raise ValueError("coefficients must be finite")
    return coefficients


def _design_rows(X: np.ndarray) -> np.ndarray:
    """The logit design as (d, N): one row per design column, the intercept first."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    design = np.empty((X.shape[1] + 1, X.shape[0]))
    design[0] = 1.0
    design[1:] = X.T
    return design


def _softmax(
    design: np.ndarray, coef: np.ndarray, observed: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Class-major softmax probabilities, shape (M, N), at ``coef``.

    Class 0 is the zero-score baseline. The scores are built in the returned
    buffer, and the max, exp and sum over classes run element-wise across
    its M rows. Given ``observed``, the flat indices ``a_i * N + i`` of each
    unit's observed class, the second value is the summed log-probability
    of those cells; without it, 0.0.
    """
    probs = np.empty((coef.shape[0] + 1, design.shape[1]))
    probs[0] = 0.0
    np.matmul(coef, design, out=probs[1:])
    probs -= probs.max(axis=0)
    shifted = None if observed is None else probs.take(observed)
    np.exp(probs, out=probs)
    total = probs.sum(axis=0)
    probs /= total
    if shifted is None:
        return probs, 0.0
    return probs, float((shifted - np.log(total)).sum())


def _logit_information(design: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Negated log-likelihood Hessian of the multinomial logit, unpenalised.

    ``design`` is the (d, N) class-major design and ``probs`` the (M, N)
    class-major probabilities. Entry ``((r, j), (c, l))``, for classes
    ``r, c >= 1`` and design rows ``j, l``, is
    ``sum_i p_ri (delta_rc - p_ci) x_ji x_li``. Both index pairs are
    symmetric, so each block of ``HESSIAN_BLOCK`` units fills two
    C-contiguous buffers, pair-major in ``np.triu_indices`` order: the
    weights ``W`` of the unique class pairs ``r <= c``, class ``r``'s run
    being ``p_r * (delta - p[r:])``, and the products ``XX`` of the unique
    design-row pairs ``j <= l``, row ``j``'s run being ``x_j * x[j:]``.
    Each run is written with whole-row ufuncs on slices of the block, and
    the block adds ``W @ XX.T`` with one GEMM; the sums are mirrored into
    the full (M-1)d x (M-1)d matrix at the end.
    """
    d, n = design.shape
    k = probs.shape[0] - 1
    rows, cols = np.triu_indices(k)
    left, right = np.triu_indices(d)
    sums = np.zeros((rows.size, left.size))
    for start in range(0, n, HESSIAN_BLOCK):
        p = probs[1:, start : start + HESSIAN_BLOCK]
        x = design[:, start : start + HESSIAN_BLOCK]
        weights = np.empty((rows.size, p.shape[1]))
        products = np.empty((left.size, x.shape[1]))
        at = 0
        for r in range(k):
            run = weights[at : at + k - r]
            np.negative(p[r:], out=run)
            run[0] += 1.0
            run *= p[r]
            at += k - r
        at = 0
        for j in range(d):
            np.multiply(x[j], x[j:], out=products[at : at + d - j])
            at += d - j
        sums += weights @ products.T
    class_pair = np.zeros((k, k), dtype=np.intp)
    class_pair[rows, cols] = class_pair[cols, rows] = np.arange(rows.size)
    column_pair = np.zeros((d, d), dtype=np.intp)
    column_pair[left, right] = column_pair[right, left] = np.arange(left.size)
    full = sums[class_pair[:, None, :, None], column_pair[None, :, None, :]]
    return full.reshape(k * d, k * d)


def _newton_direction(
    neg_hess: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Solve ``neg_hess @ direction = grad``; True with a least-squares solve.

    The direction comes from the Cholesky factor, or from
    ``np.linalg.lstsq`` when ``_cholesky`` finds ``neg_hess`` singular.
    """
    chol = _cholesky(neg_hess)
    if chol is None:
        return np.linalg.lstsq(neg_hess, grad, rcond=None)[0], True
    return np.linalg.solve(chol.T, np.linalg.solve(chol, grad)), False


def fit_mnlogit(
    X: np.ndarray,
    actions: np.ndarray,
    *,
    max_iter: int = 100,
    tol: float | None = None,
    ridge: float = 1e-6,
) -> MultinomialLogitModel:
    """Fit a multinomial logit of action on features by Newton ascent.

    Every class in ``0..M-1`` must be present. A negative or non-finite
    ``ridge``, or a label that is not an id in ``0..N-1`` (``non-integer id
    2.5 in class labels at row 8``, ``id -1 outside 0..59 in class labels at
    row 8``), raises ValueError before any work. Convergence is declared
    when the max-norm of the (penalised) gradient drops below ``tol``, by
    default ``LOGIT_TOL_PER_UNIT * N`` (``1e-10 * N``); an explicit ``tol``
    is absolute. Each Hessian serves two steps, the first one being the
    closed form at the zero start, and a reused one that finds no ascent is
    rebuilt rather than ending the fit; ``iterations`` counts every step. Step halving keeps the objective from decreasing, except
    that a step whose Newton decrement is within ``FLAT_STEP * |loglik|``
    may lower it by at most that much. Coefficients beyond ``1e6`` in
    absolute value abort with :class:`QuasiSeparationError`, which usually
    means the classes are separable and a stronger ``ridge`` is needed.
    """
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and non-negative, not {ridge!r}")
    design = _design_rows(X)
    d, n = design.shape
    if np.shape(actions) != (n,):
        raise ValueError("actions length mismatch")
    # every class is observed, so there are at most N of them
    a = _ids(actions, n, "class labels")
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

    observed = a * n + np.arange(n)
    # design-row sums over each class's units: the gradient's constant part
    class_sums = np.stack(
        [np.bincount(a, weights=row, minlength=m)[1:] for row in design], axis=1
    )
    penalty = np.ones(d)
    penalty[0] = 0.0  # intercepts unpenalised
    coef = np.zeros((m - 1, d))

    def penalised_loglik(b: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective at ``b`` and the softmax probabilities it was scored on."""
        probs, loglik = _softmax(design, b, observed)
        return loglik - 0.5 * ridge * float((b**2 * penalty).sum()), probs

    def gradient(b: np.ndarray, probs: np.ndarray) -> np.ndarray:
        g = class_sums - probs[1:] @ design.T  # (M-1, d)
        g -= ridge * b * penalty
        return g.reshape(-1)

    value, probs = penalised_loglik(coef)
    loglik_path = [value]
    iterations = 0
    lstsq_steps = 0
    for _ in range(max_iter):
        grad = gradient(coef, probs)
        if float(np.abs(grad).max()) < tol:
            break
        # each Hessian serves two steps: built on even steps, reused on odd ones
        fresh = iterations % 2 == 0
        if fresh:
            if iterations == 0:
                # at the zero start every unit has probability 1/M for every
                # class, so sum_i (diag(p_i) - p_i p_i') kron x_i x_i' factors
                s = np.full(m - 1, 1.0 / m)
                neg_hess = np.kron(np.diag(s) - np.outer(s, s), design @ design.T)
            else:
                neg_hess = _logit_information(design, probs)
            neg_hess += ridge * np.diag(np.tile(penalty, m - 1))
        direction, singular = _newton_direction(neg_hess, grad)
        lstsq_steps += singular
        current = loglik_path[-1]
        # A decrement this small predicts a gain the summed log-likelihood
        # cannot resolve, so a step that lands up to ``slack`` lower is
        # taken rather than halved until it barely moves.
        slack = FLAT_STEP * abs(current)
        floor = current - slack if 0.5 * float(grad @ direction) <= slack else current
        step = 1.0
        improved = False
        for _ in range(40):
            candidate = coef + step * direction.reshape(m - 1, d)
            value, candidate_probs = penalised_loglik(candidate)
            if np.isfinite(value) and value >= floor:
                coef, probs = candidate, candidate_probs
                loglik_path.append(value)
                improved = True
                break
            step *= 0.5
        iterations += 1
        if not improved:
            if fresh:
                break  # no ascent direction left at float precision
            continue  # the reused Hessian failed; the next step rebuilds it
        if np.abs(coef).max() > 1e6:
            raise QuasiSeparationError(
                "logit coefficients exceeded 1e6 without converging; the "
                "classes look separable - increase the ridge penalty"
            )
    else:
        # max_iter ran out right after an accepted step or a rejected
        # reused one, or was 0
        grad = gradient(coef, probs)

    grad_norm = float(np.abs(grad).max())
    return MultinomialLogitModel(
        coefficients=coef,
        converged=grad_norm < tol,
        iterations=iterations,
        final_gradient_norm=grad_norm,
        loglik_path=tuple(loglik_path),
        lstsq_steps=lstsq_steps,
    )


def predict_proba(model: MultinomialLogitModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities, shape (K, M); rows are strictly positive and sum to 1."""
    design = _design_rows(X)
    if design.shape[0] != model.coefficients.shape[1]:
        raise ValueError(
            f"model was fit with {model.n_features} features, "
            f"got {design.shape[0] - 1}"
        )
    return np.ascontiguousarray(_softmax(design, model.coefficients)[0].T)
