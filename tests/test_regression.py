"""Least-squares and multinomial-logit solver correctness."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oplearn import (
    DGPSpec,
    MultinomialLogitModel,
    QuasiSeparationError,
    fit_mnlogit,
    fit_ols,
    generate,
    predict_proba,
)
from oplearn import regression
from oplearn.regression import (
    HESSIAN_BLOCK,
    LOGIT_TOL_PER_UNIT,
    _design_rows,
    _logit_information,
    _softmax,
)

from helpers import (
    exact_newton_logit,
    gathered_logit_information,
    logit_hessian_oracle,
    ols_oracle,
)

# A 4-arm, 5-feature logit-assignment draw on which an absolute gradient
# tolerance of 1e-8 stalls (the sample the benchmark's stall probe uses).
STALL_DGP = {
    "n_units": 15000,
    "n_actions": 4,
    "n_features": 5,
    "mean_coeffs": [
        [4.7753, -0.6471, -0.518, -0.3946, -0.0628, 0.5095],
        [3.409, 0.0341, 0.475, 0.033, 0.4202, 0.8795],
        [4.3944, 0.6727, 0.6276, -0.157, -0.1431, 0.7158],
        [4.7619, 0.4878, 0.0035, 0.3815, -0.6861, 0.1926],
    ],
    "noise_scale_coeffs": [
        [0.6626, -0.4371, -0.0414, -0.0789, 0.0168, 0.2199],
        [-0.0357, -0.0432, -0.1874, 0.2833, -0.9257, -0.2142],
        [0.9552, -0.4325, -0.1962, -0.1089, -0.5681, 0.0657],
        [0.8369, -0.2321, 0.0917, -0.0547, 0.0706, 0.0783],
    ],
    "assignment": "logit",
    "assignment_coeffs": [
        [0.0, -0.2133, 0.2478, -0.1392, -0.2029, 0.6862],
        [0.0, 0.1474, 0.1009, -0.0463, -0.05, 0.1524],
        [0.0, 0.4504, 0.0262, 0.0796, -0.1584, -0.0484],
        [0.0, -0.0706, 0.0836, -0.0084, -0.0438, -0.0899],
    ],
    "feature_dist": "normal",
    "seed": 18,
}


def wide_dgp(seed: int) -> dict:
    """20,000 units, 8 arms x 10 normal features, logit assignment: the
    benchmark's wide DGP (coefficient seed 810) at a fifth of its size."""
    rng = np.random.default_rng(810)
    mean = np.column_stack([rng.uniform(3.0, 5.0, 8), rng.normal(0.0, 0.4, (8, 10))])
    noise = np.column_stack([rng.uniform(-0.5, 1.0, 8), rng.normal(0.0, 0.3, (8, 10))])
    assign = np.column_stack([np.zeros(8), rng.normal(0.0, 0.25, (8, 10))])
    return {
        "n_units": 20_000,
        "n_actions": 8,
        "n_features": 10,
        "mean_coeffs": np.round(mean, 4).tolist(),
        "noise_scale_coeffs": np.round(noise, 4).tolist(),
        "assignment": "logit",
        "assignment_coeffs": np.round(assign, 4).tolist(),
        "feature_dist": "normal",
        "seed": seed,
    }


def arm_slope_dgp(seed: int) -> dict:
    """4,000 units, 5 arms x 6 normal features, logit assignment in which
    every non-baseline arm has its own slope on every feature."""
    rng = np.random.default_rng(1000 + seed)
    return {
        "n_units": 4000,
        "n_actions": 5,
        "n_features": 6,
        "mean_coeffs": np.column_stack([np.full(5, 4.0), rng.normal(0.0, 0.4, (5, 6))]).tolist(),
        "noise_scale_coeffs": np.zeros((5, 7)).tolist(),
        "assignment": "logit",
        "assignment_coeffs": np.vstack(
            [np.zeros(7), rng.normal(0.0, 0.5, (4, 7))]
        ).tolist(),
        "feature_dist": "normal",
        "seed": seed,
    }


@st.composite
def singular_designs(draw):
    """An (X, y) pair with at least as many rows as design columns, whose
    feature columns are fresh normal draws, copies of an earlier column,
    all zeros or constants, each then scaled by a power of ten in 1e-8..1e8."""
    kinds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fresh", "copy", "zero", "constant"]),
                st.integers(0, 7),
                st.integers(-8, 8),
            ),
            min_size=1,
            max_size=6,
        )
    )
    n = draw(st.integers(len(kinds) + 1, len(kinds) + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind, source, exponent in kinds:
        if kind == "copy" and columns:
            column = columns[source % len(columns)]
        elif kind == "zero":
            column = np.zeros(n)
        elif kind == "constant":
            column = np.full(n, rng.normal())
        else:
            column = rng.standard_normal(n)
        columns.append(10.0**exponent * column)
    y = 1.0 + rng.standard_normal(n)
    return np.column_stack(columns), y


def weakly_determined_design():
    """Twin columns and a direction ``w - x`` that the design determines
    with a small singular value s: a ridge alone shrinks that direction's
    share of the fit by about lambda / s**2."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40)
    w = x + 0.01 * rng.standard_normal(40)
    y = 1.0 + x + 50.0 * (w - x) + 0.1 * rng.standard_normal(40)
    return np.column_stack([x, x, w]), y


class TestOls:
    def test_noiseless_line(self):
        x = np.linspace(-3, 3, 20)
        assert np.allclose(fit_ols(x[:, None], 2.0 * x), [0.0, 2.0], atol=1e-10)

    def test_constant_outcome_is_intercept_only(self):
        rng = np.random.default_rng(0)
        coef = fit_ols(rng.standard_normal((30, 4)), np.full(30, 7.0))
        assert np.allclose(coef, [7.0, 0, 0, 0, 0], atol=1e-10)

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        assert np.abs(fit_ols(X, y) - ols_oracle(X, y)).max() < 1e-8

    def test_residuals_orthogonal_and_centred(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((80, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(80)
        coef = fit_ols(X, y)
        fitted = coef[0] + X @ coef[1:]
        residuals = y - fitted
        assert abs(residuals.mean()) < 1e-10
        assert np.abs(X.T @ residuals).max() < 1e-8 * 80
        assert np.isclose(fitted.mean(), y.mean())

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 2))
        y = rng.standard_normal(60)
        perm = rng.permutation(60)
        a = fit_ols(X, y)
        b = fit_ols(X[perm], y[perm])
        assert np.abs(a - b).max() < 1e-8

    def test_duplicate_column_falls_back_to_ridge(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        X = np.column_stack([x, x])
        y = 1.0 + 2.0 * x + 0.1 * rng.standard_normal(40)
        coef = fit_ols(X, y)
        assert np.isfinite(coef).all()
        # the minimum-norm answer splits the weight across the twin columns
        assert np.isclose(coef[1], coef[2], atol=1e-6)

    @pytest.mark.parametrize("eps", [1e-10, 1e-12])
    def test_near_twin_columns_split_like_twins(self, eps):
        # the rescaled Gram matrix's smallest singular value, about eps**2,
        # sits far below the truncation bar, so the near-twin direction is
        # cut as the exact twins' is; with no cut, 1e-12 split 23.6/-21.5
        rng = np.random.default_rng(3)
        x, w = rng.standard_normal((2, 40))
        y = 1.0 + 2.0 * x + 0.1 * rng.standard_normal(40)
        twins = fit_ols(np.column_stack([x, x]), y)
        near = fit_ols(np.column_stack([x, x + eps * w]), y)
        assert np.isclose(near[1], near[2], atol=1e-6)
        assert np.allclose(near, twins, atol=1e-6)

    @pytest.mark.parametrize("scale, offset", [(1e-8, 0.0), (1e-4, 0.0), (1e4, 1e5), (1e8, 0.0)])
    def test_feature_units_do_not_trigger_the_ridge(self, scale, offset):
        # _solve tests the Gram matrix rescaled to a unit diagonal; the
        # same ratio test on the raw matrix raised on x1e8 and ridged x1e-8
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 2))
        y = 1.0 + X @ [2.0, -1.0] + 0.1 * rng.standard_normal(200)
        X[:, 1] = scale * X[:, 1] + offset
        design = np.column_stack([np.ones(200), X])
        exact = np.linalg.solve(design.T @ design, design.T @ y)
        assert np.array_equal(fit_ols(X, y), exact)

    @pytest.mark.parametrize("scale", [1e4, 1.0, 1e-4, 1e-8])
    def test_ridge_acts_in_each_features_own_units(self, scale):
        # the twin column makes the design singular; a single ridge set by
        # trace(X'X) / d once shrank b at 1e-4 of its units to a slope of 1.60
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 500))
        y = 1.0 + 2.0 * a + 3.0 * b + 0.1 * rng.standard_normal(500)

        def fit(s):
            X = np.column_stack([a, a, s * b])
            coef = fit_ols(X, y)
            return coef[0] + X @ coef[1:], s * coef[3]

        reference_fitted, reference_slope = fit(1.0)
        fitted, slope = fit(scale)
        assert abs(reference_slope - 3.0) < 0.05
        assert np.abs(fitted - reference_fitted).max() <= 1e-6 * np.abs(y).max()
        assert np.isclose(slope, reference_slope, rtol=1e-6, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(singular_designs())
    @example(weakly_determined_design())
    # rounding left these constant columns' last rescaled Cholesky pivot at
    # about 2 eps times the size, which passed as non-singular, and the LU
    # solve then raised LinAlgError
    @example((np.full((2, 1), 0.21301568260923098), np.array([1.0, 2.0])))
    @example((np.full((2, 1), 0.42438422022236066), np.array([1.0, 2.0])))
    @example((np.full((2, 1), 0.000843788477395181), np.array([1.0, 2.0])))
    def test_fallback_returns_the_least_squares_fit(self, case):
        X, y = case
        coef = fit_ols(X, y)
        assert np.isfinite(coef).all()
        # the projection from equilibrated columns: at raw scale, lstsq's
        # rcond would truncate a small-unit column that carries the fit
        design = np.column_stack([np.ones(len(y)), X])
        norms = np.linalg.norm(design, axis=0)
        unit = design / np.where(norms > 0, norms, 1.0)
        projection = unit @ np.linalg.lstsq(unit, y, rcond=None)[0]
        assert np.abs(design @ coef - projection).max() <= 1e-6 * np.abs(y).max()

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="rows"):
            fit_ols(np.ones((2, 3)), np.ones(2))

    def test_y_of_another_length_rejected(self):
        with pytest.raises(ValueError, match=r"^y has shape \(4,\), expected \(5,\)$"):
            fit_ols(np.ones((5, 1)), np.ones(4))

    def test_non_finite_coefficients_rejected(self):
        y = np.ones(10)
        y[3] = np.inf
        x = np.linspace(0, 1, 10)
        # one regular design and one twin-column design, which takes the
        # singular answer
        for X in (x[:, None], np.column_stack([x, x])):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                fit_ols(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=str)
    def test_non_finite_features_rejected(self, bad):
        # a NaN Gram matrix would reach the singular answer, whose lstsq
        # raises LinAlgError
        X = np.random.default_rng(0).standard_normal((20, 2))
        X[3, 1] = bad
        with pytest.raises(ValueError, match="feature matrix must be finite"):
            fit_ols(X, np.ones(20))


class TestMnlogit:
    def test_two_balanced_classes_no_signal(self):
        n = 40
        X = np.zeros((n, 1))
        a = np.arange(n) % 2
        model = fit_mnlogit(X, a)
        probs = predict_proba(model, X)
        assert np.allclose(probs, 0.5, atol=1e-6)

    def test_three_equal_classes_no_signal(self):
        n = 60
        X = np.zeros((n, 1))
        a = np.arange(n) % 3
        probs = predict_proba(fit_mnlogit(X, a), X)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-6)

    def test_zero_coefficients_give_uniform_probabilities(self):
        model = MultinomialLogitModel(
            coefficients=np.zeros((2, 3)),
            converged=True,
            iterations=0,
            final_gradient_norm=0.0,
        )
        probs = predict_proba(model, np.random.default_rng(0).random((8, 2)))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_probabilities_match_hand_softmax(self):
        coef = np.array([[0.3, -1.2, 0.7], [-0.5, 0.4, 0.2]])  # M=3, p=2
        model = MultinomialLogitModel(
            coefficients=coef,
            converged=True,
            iterations=1,
            final_gradient_norm=0.0,
        )
        X = np.random.default_rng(5).standard_normal((5, 2))
        design = np.column_stack([np.ones(5), X])
        scores = np.column_stack([np.zeros(5), design @ coef.T])
        expected = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        assert np.abs(predict_proba(model, X) - expected).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            (7, 2),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_rows_sum_to_one(self, X):
        coef = np.array([[0.1, -0.4, 0.9], [0.2, 0.3, -0.8]])
        model = MultinomialLogitModel(
            coefficients=coef, converged=True, iterations=1, final_gradient_norm=0.0
        )
        probs = predict_proba(model, X)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-10
        assert probs.min() > 0.0 and probs.max() < 1.0

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(99)
        n = 50_000
        x = rng.standard_normal(n)
        p1 = 1.0 / (1.0 + np.exp(-(0.5 - 1.0 * x)))
        a = (rng.random(n) < p1).astype(int)
        model = fit_mnlogit(x[:, None], a)
        assert model.converged
        assert np.abs(model.coefficients[0] - [0.5, -1.0]).max() < 0.05

    def test_loglik_monotone_across_iterations(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((300, 2))
        scores = np.column_stack([np.zeros(300), X @ [1.0, -1.0], X @ [-0.5, 0.5]])
        a = np.argmax(scores + rng.gumbel(size=(300, 3)), axis=1)
        model = fit_mnlogit(X, a)
        path = np.array(model.loglik_path)
        assert len(path) >= 2
        assert np.all(np.diff(path) >= 0.0)

    def test_converged_implies_small_gradient(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((200, 1))
        a = (rng.random(200) < 0.5).astype(int)
        model = fit_mnlogit(X, a, tol=1e-8)
        assert model.converged
        assert model.final_gradient_norm < 1e-8

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 100])
    def test_final_gradient_is_taken_at_returned_coefficients(self, max_iter):
        # 0, 1 and 2 run out of max_iter (0 before any step, 1 and 2 right
        # after an accepted one); 100 stops on the tolerance
        rng = np.random.default_rng(9)
        X = rng.standard_normal((400, 2))
        a = rng.integers(0, 3, 400)
        ridge = 1e-3
        model = fit_mnlogit(X, a, max_iter=max_iter, ridge=ridge)
        assert model.converged == (max_iter == 100)
        design = _design_rows(X)
        probs, _ = _softmax(design, model.coefficients)
        observed = (a == np.arange(1, 3)[:, None]).astype(float)
        grad = (observed - probs[1:]) @ design.T
        grad[:, 1:] -= ridge * model.coefficients[:, 1:]
        assert np.isclose(np.abs(grad).max(), model.final_gradient_norm, rtol=1e-9, atol=1e-9)

    def test_default_tolerance_scales_with_n_on_stalling_sample(self):
        # 15,000 units where, with NumPy 2.4 on x86-64, the summed gradient's
        # rounding floor (1.84e-8) sits above an absolute 1e-8, so Newton
        # ran to max_iter with a flat log-likelihood; the per-unit default
        # stops after a few steps at the same optimum
        d = generate(DGPSpec.from_dict(STALL_DGP)).dataset
        model = fit_mnlogit(d.features, d.actions)
        assert model.converged and model.iterations == 6
        assert model.final_gradient_norm < LOGIT_TOL_PER_UNIT * d.n_units
        longer = fit_mnlogit(d.features, d.actions, tol=1e-8, max_iter=12)
        assert longer.loglik_path[-1] - model.loglik_path[-1] < 1e-6

    @pytest.mark.parametrize("seed", [28, 29, 30])
    def test_float_flat_full_step_accepted(self, seed, monkeypatch):
        # the full 7th step, on an updated matrix, and the 8th, on an exact
        # one, are flat, and each scored log-likelihood is made to land one
        # rounding step below the last accepted one, as a flat step's can on
        # its own with some BLAS kernels. The updated step is refused without
        # halving; the exact one is taken, since halving it would go on for
        # 20 or more steps
        softmax, scored = regression._softmax, []

        def one_step_lower(design, coef, observed=None):
            probs, loglik = softmax(design, coef, observed)
            if observed is not None:
                scored.append(loglik)
                if len(scored) in (8, 9):  # the start, then one score per full step
                    loglik = float(np.nextafter(min(scored[6], loglik), -np.inf))
            return probs, loglik

        monkeypatch.setattr(regression, "_softmax", one_step_lower)
        d = generate(DGPSpec.from_dict(wide_dgp(seed))).dataset
        model = fit_mnlogit(d.features, d.actions)
        assert model.converged and model.iterations == 8
        assert len(scored) == 9  # no step was halved
        assert model.information_passes == 2  # the refused step's successor is exact
        path = np.array(model.loglik_path)
        assert len(path) == model.iterations  # the start and 7 of the 8 steps
        assert np.all(np.diff(path) >= -regression.FLAT_STEP * np.abs(path[:-1]))
        assert path[-1] < path[-2]

    def test_one_information_pass_per_fit(self, monkeypatch):
        built = []

        def counting(design, probs):
            built.append(probs.shape)
            return _logit_information(design, probs)

        monkeypatch.setattr(regression, "_logit_information", counting)
        d = generate(DGPSpec.from_dict(wide_dgp(28))).dataset
        model = fit_mnlogit(d.features, d.actions)
        assert model.converged and model.iterations > 3
        # exact on steps 0 and 2 only; step 0's is the closed form, not a
        # build, and every other step is a BFGS update
        assert len(built) == model.information_passes == 1

    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("p", [1, 10])
    def test_zero_start_hessian_is_the_uniform_information(self, monkeypatch, m, p):
        # the step-0 Kronecker form equals the blocked build at probability 1/M
        solved, solve = [], regression._solve

        def recording(neg_hess, grad):
            solved.append(neg_hess.copy())
            return solve(neg_hess, grad)

        monkeypatch.setattr(regression, "_solve", recording)
        rng = np.random.default_rng(10 * m + p)
        n = 2 * HESSIAN_BLOCK + 1
        X = rng.standard_normal((n, p))
        a = np.arange(n) % m
        fit_mnlogit(X, a, ridge=0.0, max_iter=1)
        design = _design_rows(X)
        blocked = _logit_information(design, np.full((m, n), 1.0 / m))
        np.testing.assert_allclose(solved[0], blocked, rtol=1e-12)

    def test_rejected_updated_step_is_followed_by_an_exact_one(self, monkeypatch):
        # every step on a BFGS-updated matrix gets a direction whose
        # candidates all score NaN; the fit must take an exact matrix on the
        # next step, not stop
        rng = np.random.default_rng(12)
        X = rng.standard_normal((2000, 3))
        scores = np.column_stack([np.zeros(2000), X @ [1.0, -0.5, 0.2], X @ [0.3, 0.4, -1.0]])
        a = np.argmax(scores + rng.gumbel(size=(2000, 3)), axis=1)
        reference = fit_mnlogit(X, a)
        built, solved, builds_before = [], [], [0]
        information, solve = regression._logit_information, regression._solve

        def building(design, probs):
            built.append(information(design, probs))
            return built[-1]

        def failing_when_updated(neg_hess, grad):
            # exact on step 0, the closed form, and on a step that built the
            # information, i.e. called it after the last solve
            exact = not solved or len(built) > builds_before[-1]
            solved.append(exact)
            builds_before.append(len(built))
            if not exact:
                return np.full_like(grad, np.nan), False
            return solve(neg_hess, grad)

        monkeypatch.setattr(regression, "_logit_information", building)
        monkeypatch.setattr(regression, "_solve", failing_when_updated)
        model = fit_mnlogit(X, a)
        assert model.converged and len(solved) == model.iterations
        assert not all(solved)
        # each updated step failed, and the one after it was exact
        assert all(solved[i + 1] for i, exact in enumerate(solved[:-1]) if not exact)
        assert model.information_passes == len(built) == sum(solved) - 1
        assert len(model.loglik_path) == sum(solved) + 1  # only exact steps were accepted
        assert np.allclose(model.coefficients, reference.coefficients, atol=1e-8)

    def test_lstsq_fallback_counted_on_singular_hessian(self):
        # an all-zero feature column gives the unpenalised Hessian an exactly
        # zero row and column, so np.linalg.solve raises on every Newton step
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        X = np.column_stack([x, np.zeros(300)])
        scores = np.column_stack([np.zeros(300), x, -0.5 * x])
        a = np.argmax(scores + rng.gumbel(size=(300, 3)), axis=1)
        model = fit_mnlogit(X, a, ridge=0.0)
        assert model.converged and model.iterations > 0
        assert model.lstsq_steps == model.iterations
        assert fit_mnlogit(X, a).lstsq_steps == 0

    def test_lstsq_fallback_counted_on_near_singular_hessian(self):
        # twin feature columns make the unpenalised Hessian singular in exact
        # arithmetic, but in float its twin rows differ in the last bits, so
        # a solver that fails only on an exactly singular matrix misses it
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        X = np.column_stack([x, x])
        scores = np.column_stack([np.zeros(300), x, -0.5 * x])
        a = np.argmax(scores + rng.gumbel(size=(300, 3)), axis=1)
        model = fit_mnlogit(X, a, ridge=0.0)
        assert model.converged and model.iterations > 0
        assert model.lstsq_steps == model.iterations

    def test_feature_units_do_not_make_the_hessian_singular(self):
        # on the raw Hessian, a feature x1e8 counted as singular on every
        # step and the fit ran to max_iter on least-squares steps
        rng = np.random.default_rng(4)
        x = rng.standard_normal(300)
        scores = np.column_stack([np.zeros(300), x, -0.5 * x])
        a = np.argmax(scores + rng.gumbel(size=(300, 3)), axis=1)
        unit = fit_mnlogit(x[:, None], a)
        scaled = fit_mnlogit(1e8 * x[:, None], a)
        assert scaled.lstsq_steps == 0
        assert np.allclose(1e8 * scaled.coefficients[:, 1], unit.coefficients[:, 1], atol=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_singular_newton_step_ignores_feature_units(self, scale):
        # twin columns make every Hessian singular; a least-squares step on
        # the raw Hessian cut the twin direction at z x1e8, read x's slopes
        # as 0 and ran to max_iter
        rng = np.random.default_rng(5)
        x, z = rng.standard_normal((2, 600))
        scores = np.column_stack([np.zeros(600), x + z, -0.5 * x + z])
        a = np.argmax(scores + rng.gumbel(size=(600, 3)), axis=1)
        units = np.array([1.0, 1.0, 1.0, scale])
        reference = fit_mnlogit(np.column_stack([x, x, z]), a, ridge=0.0)
        X = np.column_stack([x, x, scale * z])
        model = fit_mnlogit(X, a, ridge=0.0)
        assert reference.converged
        assert model.lstsq_steps == model.iterations > 0
        np.testing.assert_allclose(
            model.coefficients * units, reference.coefficients, rtol=1e-6, atol=1e-9
        )
        # converged in z's own units: its raw gradient entries cancel class
        # sums near 5e9, whose rounding step, 9.5e-7, is above the raw tol
        # of 6e-8, so ``converged`` at x1e8 rests on an exact cancellation
        design = _design_rows(X)
        probs, _ = _softmax(design, model.coefficients)
        observed = (a == np.arange(1, 3)[:, None]).astype(float)
        grad = (observed - probs[1:]) @ design.T / units
        assert np.abs(grad).max() < LOGIT_TOL_PER_UNIT * 600

    def test_predict_proba_is_the_fit_softmax(self, monkeypatch):
        # at the fitted coefficients predict_proba returns, bit for bit, the
        # probabilities the fit's last accepted step was scored on
        rng = np.random.default_rng(12)
        X = rng.standard_normal((2000, 3))
        scores = np.column_stack([np.zeros(2000), X @ [1.0, -0.5, 0.2], X @ [0.3, 0.4, -1.0]])
        a = np.argmax(scores + rng.gumbel(size=(2000, 3)), axis=1)
        scored = []

        def recording(design, coef, observed=None):
            probs, loglik = _softmax(design, coef, observed)
            scored.append((coef.copy(), probs.copy()))
            return probs, loglik

        monkeypatch.setattr(regression, "_softmax", recording)
        model = fit_mnlogit(X, a)
        monkeypatch.undo()
        accepted = [p for coef, p in scored if np.array_equal(coef, model.coefficients)]
        probs = predict_proba(model, X)
        assert model.iterations > 0 and accepted
        assert probs.shape == (2000, 3) and probs.flags.c_contiguous
        assert np.array_equal(probs, accepted[-1].T)

    def test_quasi_separation_raises_without_ridge(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
        X = X * 1e-7  # tiny scale forces huge coefficients before saturation
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(QuasiSeparationError, match="ridge"):
            fit_mnlogit(X, a, ridge=0.0, max_iter=200)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="class 1"):
            fit_mnlogit(np.ones((10, 1)), np.array([0, 0, 2, 2, 0, 2, 0, 2, 0, 2]))

    @pytest.mark.parametrize(
        "n, actions, message",
        [
            (6, [0, 1, 0, 1, 0], "actions length mismatch"),
            (6, [0] * 6, "need at least two classes"),
            # three classes and an intercept and a slope each: 6 rows needed
            (5, [0, 1, 2, 0, 1], "need at least 6 rows, got 5"),
        ],
        ids=["length", "one_class", "too_few_rows"],
    )
    def test_unfittable_sample_rejected(self, n, actions, message):
        X = np.random.default_rng(3).standard_normal((n, 1))
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_mnlogit(X, np.array(actions))

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            (np.zeros(3), r"coefficients must be \(M-1, p\+1\)"),
            (np.array([[0.0, np.nan]]), "coefficients must be finite"),
        ],
        ids=["one_d", "nan"],
    )
    def test_model_coefficients_checked(self, coefficients, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultinomialLogitModel(coefficients, True, 1, 0.0)

    @pytest.mark.parametrize("label", [2.5, np.nan])
    def test_fractional_or_non_finite_label_rejected(self, label):
        # whole float labels fit as their classes; others are not truncated
        X = np.random.default_rng(1).standard_normal((60, 2))
        a = (np.arange(60) % 3).astype(float)
        whole = fit_mnlogit(X, a).coefficients
        assert np.array_equal(whole, fit_mnlogit(X, a.astype(int)).coefficients)
        a[7] = label
        message = rf"^non-integer id {label!r} in class labels at row 8$"
        with pytest.raises(ValueError, match=message):
            fit_mnlogit(X, a)

    @pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf], ids=str)
    def test_ridge_must_be_finite_and_non_negative(self, ridge, capfd):
        # before the check, the logit printed LAPACK errors on inf and
        # "converged" with -1.0
        X = np.random.default_rng(2).standard_normal((60, 1))
        with pytest.raises(ValueError, match="ridge must be finite and non-negative"):
            fit_mnlogit(X, np.arange(60) % 3, ridge=ridge)
        assert capfd.readouterr().out == ""

    def test_non_finite_features_rejected_by_the_fit(self, capfd):
        # a NaN feature reached the singular answer's lstsq, which raised
        # LinAlgError after LAPACK printed DLASCL to stderr
        X = np.random.default_rng(2).standard_normal((60, 2))
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="^feature matrix must be finite$"):
            fit_mnlogit(X, np.arange(60) % 3)
        assert capfd.readouterr() == ("", "")

    def test_non_finite_features_rejected_by_predict_proba(self, capfd):
        # a NaN feature gave that unit a row of NaN probabilities
        X = np.random.default_rng(2).standard_normal((60, 2))
        model = fit_mnlogit(X, np.arange(60) % 3)
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="^feature matrix must be finite$"):
            predict_proba(model, X)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_same_optimum_as_exact_newton(self, seed):
        # logit assignment with arm-specific slopes, 5 arms x 6 features;
        # the BFGS-updated steps must reach the optimum that a Newton fit
        # with the exact information on every step reaches
        dgp = arm_slope_dgp(seed)
        d = generate(DGPSpec.from_dict(dgp)).dataset
        model = fit_mnlogit(d.features, d.actions)
        coefficients, converged = exact_newton_logit(d.features, d.actions)
        assert model.converged and converged
        np.testing.assert_allclose(model.coefficients, coefficients, rtol=0, atol=1e-7)

    def test_predict_dimension_mismatch(self):
        model = fit_mnlogit(np.zeros((20, 1)), np.arange(20) % 2)
        with pytest.raises(ValueError, match="features"):
            predict_proba(model, np.zeros((4, 2)))


class TestLogitHessian:
    @pytest.mark.parametrize(
        "n, m, p",
        [
            (HESSIAN_BLOCK // 3, 4, 3),  # fewer rows than one block
            (2 * HESSIAN_BLOCK + 1, 3, 2),  # whole blocks plus one row
            (500, 2, 4),  # two classes, one class pair
            (3000, 8, 10),  # the benchmark's 8 arms x 10 features
            (700, 3, 0),  # intercept-only design, d = 1
            (2 * HESSIAN_BLOCK, 4, 2),  # whole blocks, no partial one
        ],
    )
    def test_matches_per_pair_oracle(self, n, m, p):
        design, probs = self.draw(n, m, p)
        blocked = _logit_information(design, probs)
        oracle = logit_hessian_oracle(design.T, probs.T)
        assert blocked.shape == ((m - 1) * (p + 1),) * 2
        assert np.abs(blocked - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(blocked, blocked.T)

    @pytest.mark.parametrize(
        "n, m, p",
        [(2 * HESSIAN_BLOCK + 1, 8, 10), (HESSIAN_BLOCK, 3, 0), (1, 2, 1)],
    )
    def test_bit_equal_to_gathered_build(self, n, m, p):
        design, probs = self.draw(n, m, p)
        built = _logit_information(design, probs)
        gathered = gathered_logit_information(design, probs)
        moved = int(np.count_nonzero(built != gathered))
        assert moved == 0, (
            f"{moved} of {built.size} Hessian entries differ from the gathered "
            "build; the fit's coefficients and the golden hashes would move"
        )

    @staticmethod
    def draw(n, m, p):
        rng = np.random.default_rng(n + m + p)
        design = _design_rows(rng.standard_normal((n, p)))
        coef = rng.normal(scale=0.5, size=(m - 1, p + 1))
        probs, _ = _softmax(design, coef)
        return design, probs
