"""Shared builders and independent numeric oracles for the test suite."""

from __future__ import annotations

import argparse
import csv
import re
from pathlib import Path
from typing import Callable

import numpy as np

from oplearn import ArmMoments, Dataset, OracleData
from oplearn.cli import build_parser
from oplearn.regression import HESSIAN_BLOCK
from oplearn.reporting import SVG_HEIGHT, SVG_WIDTH


def gauss_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by Gaussian elimination with partial pivoting.

    Deliberately independent of ``numpy.linalg``; used to cross-check the
    normal-equation solutions of the least-squares fitter.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = b.shape[0]
    aug = np.column_stack([a, b])
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[pivot, k]) < 1e-13:
            raise ZeroDivisionError("singular system")
        if pivot != k:
            aug[[k, pivot]] = aug[[pivot, k]]
        aug[k] = aug[k] / aug[k, k]
        for r in range(n):
            if r != k:
                aug[r] = aug[r] - aug[r, k] * aug[k]
    return aug[:, n]


def ols_oracle(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via the elimination oracle."""
    design = np.column_stack([np.ones(len(targets)), features])
    return gauss_solve(design.T @ design, design.T @ targets)


def make_dataset(
    rng: np.random.Generator,
    n: int = 120,
    m: int = 2,
    p: int = 2,
    noise: float = 0.5,
) -> Dataset:
    """Random dataset with linear arm means and every arm guaranteed present."""
    features = rng.standard_normal((n, p))
    actions = rng.integers(0, m, n)
    actions[:m] = np.arange(m)
    coeffs = rng.normal(size=(m, p + 1))
    design = np.column_stack([np.ones(n), features])
    outcomes = (design * coeffs[actions]).sum(axis=1) + noise * rng.standard_normal(n)
    return Dataset(outcomes=outcomes, actions=actions, features=features, n_actions=m)


def make_moments(mu: np.ndarray, sigma: np.ndarray) -> ArmMoments:
    """ArmMoments straight from given matrices, with a tiny floor and no clamping."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return ArmMoments(
        mu=mu,
        sigma2=sigma**2,
        variance_floor=1e-12,
        clamped=np.zeros(mu.shape, dtype=bool),
    )


def quadratic_mean_oracle(seed: int, n: int = 5000) -> OracleData:
    """Two-arm ground truth whose arm-1 mean has a genuine quadratic term.

    A dataset built from this oracle exposes only the raw feature x, so a
    linear-in-x outcome learner is misspecified for arm 1 while the uniform
    assignment keeps any propensity model trivially correct.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    mu = np.column_stack([2.0 + 0.5 * x, 1.0 + x + x**2])
    sigma = np.full((n, 2), 1.0)
    potential = mu + sigma * rng.standard_normal((n, 2))
    actions = rng.integers(0, 2, n)
    actions[:2] = (0, 1)
    dataset = Dataset(
        outcomes=potential[np.arange(n), actions],
        actions=actions,
        features=x[:, None],
        n_actions=2,
    )
    return OracleData(
        dataset=dataset,
        potential_outcomes=potential,
        true_mu=mu,
        true_sigma=sigma,
        true_propensity=np.full((n, 2), 0.5),
    )


def logit_hessian_oracle(design: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Negated multinomial-logit Hessian, one N x d product per class pair.

    The straightforward (M-1)^2 loop over class pairs, kept as the reference
    for the blocked builder in ``oplearn.regression``.
    """
    n, d = design.shape
    m = probs.shape[1]
    info = np.empty(((m - 1) * d, (m - 1) * d))
    for r in range(1, m):
        for c in range(1, m):
            w = probs[:, r] * ((1.0 if r == c else 0.0) - probs[:, c])
            block = design.T @ (design * w[:, None])
            info[(r - 1) * d : r * d, (c - 1) * d : c * d] = block
    return info


def exact_newton_logit(
    features: np.ndarray,
    actions: np.ndarray,
    ridge: float = 1e-6,
    max_iter: int = 100,
) -> tuple[np.ndarray, bool]:
    """Multinomial-logit coefficients, (M-1, p+1), by Newton ascent that
    builds the exact information from the units on every step, and whether
    the largest gradient entry fell below ``1e-10 * N``.

    Kept as the reference for ``oplearn.regression.fit_mnlogit``, whose
    steps mostly use BFGS updates of the information. It has the same
    objective, ridge and tolerance, halves a step until the objective does
    not fall, and takes the information from ``logit_hessian_oracle``.
    """
    n = len(actions)
    design = np.column_stack([np.ones(n), features])
    m = int(actions.max()) + 1
    d = design.shape[1]
    observed = np.eye(m)[actions]
    penalty = np.r_[0.0, np.ones(d - 1)]
    coef = np.zeros((m - 1, d))

    def probabilities(b):
        scores = np.column_stack([np.zeros(n), design @ b.T])
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        return probs / probs.sum(axis=1, keepdims=True)

    def objective(b):
        loglik = float(np.log(probabilities(b))[observed == 1].sum())
        return loglik - 0.5 * ridge * float((b**2 * penalty).sum())

    value = objective(coef)
    for _ in range(max_iter):
        probs = probabilities(coef)
        grad = (observed[:, 1:] - probs[:, 1:]).T @ design - ridge * coef * penalty
        if np.abs(grad).max() < 1e-10 * n:
            return coef, True
        information = logit_hessian_oracle(design, probs)
        information += ridge * np.diag(np.tile(penalty, m - 1))
        direction = np.linalg.solve(information, grad.reshape(-1)).reshape(m - 1, d)
        step = 1.0
        for _ in range(40):
            candidate = coef + step * direction
            candidate_value = objective(candidate)
            if candidate_value >= value:
                coef, value = candidate, candidate_value
                break
            step *= 0.5
        else:
            break
    probs = probabilities(coef)
    grad = (observed[:, 1:] - probs[:, 1:]).T @ design - ridge * coef * penalty
    return coef, bool(np.abs(grad).max() < 1e-10 * n)


def gathered_logit_information(design: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The blocked Hessian with its operands built by index gathers.

    ``design`` is (d, N) and ``probs`` (M, N), both class-major. Each block
    gathers its class-pair weights and design-row-pair products through
    ``np.triu_indices`` and adds one GEMM of them. The library must match it
    bit for bit, so that a kernel edit which moves the Hessian's bits fails
    here before it moves a golden hash.
    """
    d, n = design.shape
    k = probs.shape[0] - 1
    rows, cols = np.triu_indices(k)
    left, right = np.triu_indices(d)
    delta = (rows == cols).astype(np.float64)[:, None]
    sums = np.zeros((rows.size, left.size))
    for start in range(0, n, HESSIAN_BLOCK):
        p = probs[1:, start : start + HESSIAN_BLOCK]
        x = design[:, start : start + HESSIAN_BLOCK]
        sums += (p[rows] * (delta - p[cols])) @ (x[left] * x[right]).T
    class_pair = np.zeros((k, k), dtype=np.intp)
    class_pair[rows, cols] = class_pair[cols, rows] = np.arange(rows.size)
    column_pair = np.zeros((d, d), dtype=np.intp)
    column_pair[left, right] = column_pair[right, left] = np.arange(left.size)
    full = sums[class_pair[:, None, :, None], column_pair[None, :, None, :]]
    return full.reshape(k * d, k * d)


# the plot area of oplearn.reporting.scatter_svg's 640 x 480 canvas
PLOT_LEFT, PLOT_TOP, PLOT_W, PLOT_H = 62, 34, 560, 398

_MARK = re.compile(
    r'<circle cx="(\d+)" cy="(\d+)" r="2.5" fill="(#[0-9a-f]{6})" fill-opacity="([0-9.]+)"/>'
)


def svg_marks(svg: str) -> list[tuple[int, int, str, str]]:
    """(cx, cy, fill, fill-opacity text) of each data mark of a scatter SVG, in order."""
    return [(int(cx), int(cy), fill, alpha) for cx, cy, fill, alpha in _MARK.findall(svg)]


def occupied_cells_oracle(
    cx: np.ndarray, cy: np.ndarray, arm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (cx, cy, arm) cells of the units, their unit counts, in the order
    of each cell's first unit, found by ``np.unique``'s stable sort.

    Kept as the reference for the packed-key sort of
    ``oplearn.reporting._occupied_cells``, which must match it exactly.
    """
    key = (arm * SVG_HEIGHT + cy) * SVG_WIDTH + cx
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    return cx[first], cy[first], arm[first], counts[order]


def read_csv_oracle(
    path: Path, usecols: Callable[[str], bool] | None = None, *, delimiter: str = ","
) -> tuple[list[str], np.ndarray]:
    """The kept columns of a delimited table, one cell at a time:
    ``csv.reader`` splits the rows and ``float`` parses each kept cell.

    Kept as the reference for ``oplearn.reporting.read_csv``, which must
    match its values bit for bit and its errors word for word, except on
    the cells ``float`` takes and ``np.loadtxt`` refuses: digit groups such
    as ``1_000`` and non-ASCII digits.
    """
    with path.open(newline="") as fh:
        rows = list(filter(None, csv.reader(fh, delimiter=delimiter)))
    if not rows:
        raise ValueError(f"empty file: {path}")
    header = [h.strip() for h in rows[0]]
    kept = [j for j, name in enumerate(header) if usecols is None or usecols(name)]
    values = np.empty((len(rows) - 1, len(kept)))
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} fields, expected {len(header)}")
        for k, j in enumerate(kept):
            try:
                values[i - 1, k] = float(row[j])
            except ValueError:
                problem = f"non-numeric value {row[j]!r}" if row[j].strip() else "blank value"
                raise ValueError(f"{problem} in column '{header[j]}' at row {i}") from None
    return [header[j] for j in kept], values


def reference_cells(x, y, arms) -> dict[tuple[int, int, int], int]:
    """The units in each (cx, cy, arm) pair of a scatter plot, one unit at a time.

    Each unit's pixel point, rounded half to even, and its arm select a
    pair; pairs keep the order of their first unit.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]

    def span(values):
        lo, hi = min(values), max(values)
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad

    (x_lo, x_hi), (y_lo, y_hi) = span(x), span(y)
    counts: dict[tuple[int, int, int], int] = {}
    for xi, yi, arm in zip(x, y, arms):
        cx = round(PLOT_LEFT + (xi - x_lo) / (x_hi - x_lo) * PLOT_W)
        cy = round(PLOT_TOP + PLOT_H - (yi - y_lo) / (y_hi - y_lo) * PLOT_H)
        key = (cx, cy, int(arm))
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_marks(x, y, arms, palette) -> list[tuple[int, int, str, str]]:
    """The marks ``scatter_svg`` should draw: one per pair of
    ``reference_cells``, a pair of k units at opacity ``1 - 0.3**k`` with
    three decimals."""
    return [
        (cx, cy, palette[arm], f"{1 - 0.3**k:.3f}")
        for (cx, cy, arm), k in reference_cells(x, y, arms).items()
    ]


def offered_flags() -> dict[str, list[str]]:
    """Each ``oplearn`` command's option strings but ``-h``/``--help``, in
    the order its parser adds them."""
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    return {
        command: [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]
        for command, parser in commands.items()
    }
