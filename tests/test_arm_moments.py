"""Conditional mean/variance estimation against cell-level oracles."""

from dataclasses import replace

import numpy as np
import pytest

from oplearn import (
    ArmMoments,
    Dataset,
    RiskPreference,
    assign_policy,
    build_arm_moments,
    estimate_conditional_means,
    fit_ols,
    risk_utility,
)
from oplearn import moments

from helpers import make_dataset


def binary_feature_dataset(rng, n=400, cell_means=((0.0, 1.0), (2.0, 5.0)), noise=0.3):
    """Two arms, one binary feature; cell_means[a][x] is the mean of cell (a, x)."""
    x = rng.integers(0, 2, n)
    actions = rng.integers(0, 2, n)
    actions[:2] = (0, 1)
    means = np.array(cell_means, dtype=float)[actions, x]
    outcomes = means + noise * rng.standard_normal(n)
    return Dataset(
        outcomes=outcomes, actions=actions, features=x[:, None].astype(float), n_actions=2
    )


class TestConditionalMeans:
    def test_noiseless_arm_imputes_counterfactually(self):
        rng = np.random.default_rng(0)
        n = 60
        x = rng.standard_normal(n)
        actions = np.arange(n) % 2
        outcomes = np.where(actions == 0, 1.0 + x, 10.0 - 2.0 * x)
        d = Dataset(outcomes=outcomes, actions=actions, features=x[:, None], n_actions=2)
        mu = estimate_conditional_means(d)
        # every unit gets the arm-0 prediction, observed under arm 0 or not
        assert np.abs(mu[:, 0] - (1.0 + x)).max() < 1e-8
        assert np.abs(mu[:, 1] - (10.0 - 2.0 * x)).max() < 1e-8

    def test_intercept_only_repeats_arm_mean(self):
        # no features: each arm's least-squares fit is its intercept, the mean
        d = make_dataset(np.random.default_rng(1), n=50, m=2, p=0)
        mu = estimate_conditional_means(d)
        for a in range(2):
            arm_mean = d.outcomes[d.actions == a].mean()
            assert np.allclose(mu[:, a], arm_mean)

    def test_matches_cell_mean_oracle_on_saturated_design(self):
        rng = np.random.default_rng(2)
        d = binary_feature_dataset(rng)
        mu = estimate_conditional_means(d)
        x = d.features[:, 0].astype(int)
        for a in range(2):
            for cell in (0, 1):
                rows = (d.actions == a) & (x == cell)
                oracle = d.outcomes[rows].mean()
                predicted = mu[x == cell, a]
                assert np.abs(predicted - oracle).max() < 1e-8

    def test_training_rows_average_to_arm_mean(self):
        d = make_dataset(np.random.default_rng(3), n=90, m=3, p=2)
        mu = estimate_conditional_means(d)
        for a in range(3):
            rows = d.actions == a
            assert np.isclose(mu[rows, a].mean(), d.outcomes[rows].mean(), atol=1e-8)

    def test_requires_validated_dataset(self):
        rng = np.random.default_rng(4)
        actions = np.array([0] * 38 + [1] * 2)
        d = Dataset(
            outcomes=rng.random(40),
            actions=actions,
            features=rng.standard_normal((40, 3)),
            n_actions=2,
        )
        with pytest.raises(ValueError, match="validation"):
            estimate_conditional_means(d)


class TestConditionalVariance:
    def test_plugin_arithmetic(self):
        # arm 0 outcomes alternate between 1 and 7: E[Y]=4, E[Y^2]=25, var=9
        outcomes = np.array([1.0, 7.0, 1.0, 7.0, 1.0, 7.0, 2.0, 3.0, 4.0, 5.0])
        actions = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
        d = Dataset(
            outcomes=outcomes,
            actions=actions,
            features=np.zeros((10, 0)),
            n_actions=2,
        )
        m = build_arm_moments(d, variance_floor=1e-10)
        assert np.allclose(m.sigma2[:, 0], 9.0)
        assert np.allclose(m.sigma[:, 0], 3.0)

    def test_constant_arm_clamps_to_floor(self):
        outcomes = np.array([5.0] * 6 + [1.0, 2.0, 3.0, 4.0])
        actions = np.array([0] * 6 + [1] * 4)
        d = Dataset(
            outcomes=outcomes,
            actions=actions,
            features=np.zeros((10, 0)),
            n_actions=2,
        )
        m = build_arm_moments(d, variance_floor=1e-8)
        assert m.clamped[:, 0].all()
        assert np.allclose(m.sigma2[:, 0], 1e-8)
        assert m.n_clamped >= 10

    def test_ridge_fallback_leaves_a_constant_arm_unshrunk(self):
        # an all-zero feature column makes every arm's design singular; the
        # ridge fallback must not pull the intercept, so the constant arm's
        # fit is exactly 5.0 and its variance clamps as without the column
        outcomes = np.array([5.0] * 6 + [1.0, 2.0, 3.0, 4.0])
        actions = np.array([0] * 6 + [1] * 4)
        moments_by_p = [
            build_arm_moments(
                Dataset(outcomes=outcomes, actions=actions, features=np.zeros((10, p)), n_actions=2),
                variance_floor=1e-8,
            )
            for p in (0, 1)
        ]
        zero_column = moments_by_p[1]
        assert (zero_column.mu[:, 0] == 5.0).all()
        assert zero_column.clamped[:, 0].all()
        assert np.array_equal(zero_column.sigma2[:, 0], moments_by_p[0].sigma2[:, 0])
        assert np.array_equal(zero_column.clamped, moments_by_p[0].clamped)

    def test_matches_cell_variance_oracle_heteroskedastic(self):
        # Y = X + (1 + X) * eps with X in {0, 1}: cell X=1 has variance 4
        rng = np.random.default_rng(5)
        n = 50_000
        x = rng.integers(0, 2, n).astype(float)
        actions = rng.integers(0, 2, n)
        actions[:2] = (0, 1)
        outcomes = x + (1.0 + x) * rng.standard_normal(n)
        d = Dataset(outcomes=outcomes, actions=actions, features=x[:, None], n_actions=2)
        m = build_arm_moments(d, variance_floor=1e-10)
        for a in range(2):
            cell = (d.actions == a) & (x == 1.0)
            oracle = np.var(outcomes[cell])
            estimate = m.sigma2[x == 1.0, a][0]
            assert abs(estimate - oracle) / oracle < 0.05

    @pytest.mark.parametrize("floor", [0.0, -1.0, float("nan"), float("inf")])
    def test_floor_must_be_positive(self, floor):
        d = make_dataset(np.random.default_rng(6), n=50)
        with pytest.raises(ValueError, match="variance_floor must be strictly positive"):
            build_arm_moments(d, variance_floor=floor)

    def test_nan_floor_does_not_admit_negative_variance(self):
        with pytest.raises(ValueError, match="variance_floor must be strictly positive"):
            ArmMoments(
                mu=np.zeros((2, 2)),
                sigma2=np.array([[1.0, -1.0], [1.0, 1.0]]),
                variance_floor=float("nan"),
                clamped=np.zeros((2, 2), dtype=bool),
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma2", np.ones((2, 3)), "moment matrices disagree on shape"),
            ("all", np.ones(2), r"moment matrices must be 2-d \(units x arms\)"),
            ("mu", np.array([[0.0, np.inf], [0.0, 0.0]]), "moments contain non-finite entries"),
            ("sigma2", np.array([[1.0, 1.0], [np.nan, 1.0]]), "moments contain non-finite entries"),
            ("sigma2", np.array([[1.0, 0.05], [1.0, 1.0]]), "sigma2 below the variance floor"),
        ],
        ids=["shape", "one_d", "inf_mu", "nan_sigma2", "below_floor"],
    )
    def test_invalid_moments_refused(self, field, value, message):
        args = {
            "mu": np.zeros((2, 2)),
            "sigma2": np.ones((2, 2)),
            "variance_floor": 0.1,
            "clamped": np.zeros((2, 2), dtype=bool),
        }
        if field == "all":
            args.update(mu=value, sigma2=value, clamped=value.astype(bool))
        else:
            args[field] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            ArmMoments(**args)


class TestBuildArmMoments:
    def test_mu_equals_conditional_means(self):
        d = make_dataset(np.random.default_rng(7), n=80, m=3, p=2)
        m = build_arm_moments(d, variance_floor=1e-8)
        assert np.array_equal(m.mu, estimate_conditional_means(d))

    def test_each_moment_fitted_once_per_arm(self, monkeypatch):
        fits = []

        def counting(features, targets):
            fits.append((features, targets))
            return fit_ols(features, targets)

        monkeypatch.setattr(moments, "fit_ols", counting)
        d = make_dataset(np.random.default_rng(7), n=80, m=3, p=2)
        build_arm_moments(d)
        assert len(fits) == 2 * d.n_actions
        # per arm, the Y fit then the Y^2 fit, both on the one subsample cut
        for a in range(d.n_actions):
            (x_mean, y_mean), (x_square, y_square) = fits[2 * a : 2 * a + 2]
            assert x_square is x_mean
            rows = d.actions == a
            assert np.array_equal(x_mean, d.features[rows])
            assert np.array_equal(y_mean, d.outcomes[rows])
            assert np.array_equal(y_square, d.outcomes[rows] ** 2)

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_each_arm_predicts_like_its_own_fit(self, m):
        # the one all-arm product gives each arm's column as predicting with
        # that arm's own fit does, up to the rounding of the product
        d = make_dataset(np.random.default_rng(m), n=60 * m, m=m, p=4)
        built = build_arm_moments(d)
        for a in range(m):
            rows = d.actions == a
            coef = fit_ols(d.features[rows], d.outcomes[rows])
            want = coef[0] + d.features @ coef[1:]
            assert np.abs(built.mu[:, a] - want).max() <= 1e-13 * np.abs(want).max()
        for arr in (built.mu, built.sigma2):
            assert arr.flags.f_contiguous and not arr.flags.writeable

    def test_unit_by_arm_matrices_are_arm_major(self):
        d = make_dataset(np.random.default_rng(10), n=90, m=3, p=2)
        m = build_arm_moments(d)
        for arr in (m.mu, m.sigma2, m.sigma, m.clamped):
            assert arr.flags.f_contiguous and arr.shape == (90, 3)
        assert estimate_conditional_means(d).flags.f_contiguous
        for pref in RiskPreference:
            assert risk_utility(m.mu, m.sigma, m.sigma2, pref).flags.f_contiguous

    def test_c_ordered_inputs_are_accepted(self):
        d = make_dataset(np.random.default_rng(11), n=90, m=3, p=2, noise=1.0)
        m = build_arm_moments(d)
        c = ArmMoments(
            mu=np.ascontiguousarray(m.mu),
            sigma2=np.ascontiguousarray(m.sigma2),
            variance_floor=m.variance_floor,
            clamped=np.ascontiguousarray(m.clamped),
        )
        for name in ("mu", "sigma2", "sigma", "clamped"):
            held = getattr(c, name)
            assert held.flags.f_contiguous and not held.flags.writeable
            assert np.array_equal(held, getattr(m, name))
        for pref in RiskPreference:
            expected, got = assign_policy(m, pref), assign_policy(c, pref)
            assert np.array_equal(got.actions, expected.actions)
            assert got.ties_broken == expected.ties_broken

    @pytest.mark.parametrize("estimate", [build_arm_moments, estimate_conditional_means])
    def test_thin_arm_is_refused(self, estimate):
        # p = 2 features need 4 units per arm; arm 1 has 3
        d = make_dataset(np.random.default_rng(7), n=40, m=2, p=2)
        message = r"too thin for the learner\); arm counts: \[37, 3\]$"
        with pytest.raises(ValueError, match=message):
            estimate(replace(d, actions=np.repeat([0, 1], [37, 3])))
        estimate(replace(d, actions=np.repeat([0, 1], [36, 4])))

    def test_invariants_on_random_instances(self):
        for seed in range(5):
            d = make_dataset(np.random.default_rng(seed), n=70, m=2, p=2)
            m = build_arm_moments(d)
            assert m.sigma2.min() >= m.variance_floor
            assert np.abs(m.sigma - np.sqrt(m.sigma2)).max() <= 1e-12
            assert np.isfinite(m.mu).all()

    def test_affine_shift_moves_mu_not_sigma(self):
        d = make_dataset(np.random.default_rng(8), n=100, m=2, p=2, noise=1.0)
        floor = 1e-12
        base = build_arm_moments(d, variance_floor=floor)
        shifted = build_arm_moments(replace(d, outcomes=d.outcomes + 5.0), variance_floor=floor)
        assert np.abs(shifted.mu - base.mu - 5.0).max() < 1e-8
        keep = ~(base.clamped | shifted.clamped)
        assert np.abs(shifted.sigma2[keep] - base.sigma2[keep]).max() < 1e-7

    def test_positive_scaling_scales_mu_and_sigma(self):
        d = make_dataset(np.random.default_rng(9), n=100, m=2, p=2, noise=1.0)
        floor = 1e-12
        base = build_arm_moments(d, variance_floor=floor)
        scaled = build_arm_moments(replace(d, outcomes=3.0 * d.outcomes), variance_floor=floor)
        keep = ~(base.clamped | scaled.clamped)
        assert np.abs(scaled.mu - 3.0 * base.mu).max() < 1e-8
        assert np.abs(scaled.sigma[keep] - 3.0 * base.sigma[keep]).max() < 1e-6

    def test_default_floor_tracks_outcome_scale(self):
        d = make_dataset(np.random.default_rng(9), n=100, m=2, p=2, noise=1.0)
        for scale in (1.0, 1e-3, 1e3):
            outcomes = scale * d.outcomes
            floor = build_arm_moments(replace(d, outcomes=outcomes)).variance_floor
            assert floor == pytest.approx(1e-8 * np.var(outcomes))
        # constant outcomes have no spread to scale by
        assert build_arm_moments(replace(d, outcomes=np.ones(100))).variance_floor == 1e-8
