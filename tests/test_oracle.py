"""Ground-truth generator: determinism, consistency, and dominance."""

import re

import numpy as np
import pytest

from oplearn import (
    ArmMoments,
    DGPSpec,
    Dataset,
    OracleData,
    RiskPreference,
    assign_policy,
    generate,
    oracle_policy,
    true_value,
)
from oplearn.simulate import _softplus


def constant_spec(seed=0, n=600, noise_raw=-40.0):
    """Three arms with constant means (1, 2, 3); noise_raw -40 is ~noiseless."""
    return DGPSpec(
        n_units=n,
        n_actions=3,
        n_features=1,
        mean_coeffs=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
        noise_scale_coeffs=np.array([[noise_raw, 0.0]] * 3),
        seed=seed,
    )


def logit_spec(m, p, seed, n=3000, feature_dist="normal"):
    """``m`` arms on ``p`` features with logit assignment; coefficients drawn
    from a fixed seed per shape."""
    rng = np.random.default_rng(100 * m + p)
    return DGPSpec(
        n_units=n,
        n_actions=m,
        n_features=p,
        mean_coeffs=rng.normal(3.0, 1.0, (m, p + 1)),
        noise_scale_coeffs=rng.normal(0.0, 0.4, (m, p + 1)),
        assignment="logit",
        assignment_coeffs=rng.normal(0.0, 0.5, (m, p + 1)),
        feature_dist=feature_dist,
        seed=seed,
    )


DRAW_ORDER_SPECS = {
    "logit_3_arms": logit_spec(3, 2, seed=31),
    "logit_8_arms_10_features": logit_spec(8, 10, seed=81),
    "uniform_features": logit_spec(4, 3, seed=43, feature_dist="uniform"),
}


class TestGenerate:
    @pytest.mark.parametrize("spec", DRAW_ORDER_SPECS.values(), ids=DRAW_ORDER_SPECS)
    def test_draw_order_is_features_then_noise_then_uniforms(self, spec):
        # replay the stream: one (p, N) feature draw, (N, M) standard normal
        # noise, then one uniform per unit read against the cumulative
        # propensities; any other order or shape gives other numbers
        oracle = generate(spec)
        n, m, p = spec.n_units, spec.n_actions, spec.n_features
        rng = np.random.default_rng(spec.seed)
        draw = rng.standard_normal if spec.feature_dist == "normal" else rng.random
        features = draw((p, n)).T
        noise = rng.standard_normal((n, m))
        u = rng.random(n)
        assert np.array_equal(oracle.dataset.features, features)
        assert np.array_equal(
            oracle.potential_outcomes, oracle.true_mu + oracle.true_sigma * noise
        )
        cdf = np.cumsum(oracle.true_propensity, axis=1)
        actions = np.minimum((u[:, None] > cdf).sum(axis=1), m - 1)
        assert np.array_equal(oracle.dataset.actions, actions)
        assert np.bincount(actions, minlength=m).min() > 0

    @pytest.mark.parametrize("spec", DRAW_ORDER_SPECS.values(), ids=DRAW_ORDER_SPECS)
    def test_truth_matches_a_unit_major_reference(self, spec):
        # the formulas row by row, on an (N, d) design: sums over arms run in
        # another order, so the propensities may differ by a few ulps
        oracle = generate(spec)
        design = np.column_stack([np.ones(spec.n_units), oracle.dataset.features])
        scores = design @ spec.assignment_coeffs.T
        shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(
            oracle.true_mu, design @ spec.mean_coeffs.T, rtol=64 * eps, atol=64 * eps
        )
        np.testing.assert_allclose(
            oracle.true_sigma, _softplus(design @ spec.noise_scale_coeffs.T), rtol=64 * eps
        )
        np.testing.assert_allclose(
            oracle.true_propensity,
            shifted / shifted.sum(axis=1, keepdims=True),
            rtol=0,
            atol=4 * eps,
        )

    @pytest.mark.parametrize(
        "spec",
        [constant_spec(noise_raw=0.5), logit_spec(8, 10, seed=5, n=200)],
        ids=["uniform", "logit"],
    )
    def test_truth_is_arm_major_and_read_only(self, spec):
        oracle = generate(spec)
        for name in ("potential_outcomes", "true_mu", "true_sigma", "true_propensity"):
            array = getattr(oracle, name)
            assert array.flags.f_contiguous, name
            assert not array.flags.writeable, name

    def test_noiseless_constants(self):
        oracle = generate(constant_spec())
        assert np.abs(oracle.potential_outcomes - [1.0, 2.0, 3.0]).max() < 1e-8
        assert np.abs(oracle.true_mu - [1.0, 2.0, 3.0]).max() == 0.0

    def test_same_seed_bit_identical(self):
        spec = constant_spec(seed=42, noise_raw=0.5)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.potential_outcomes, b.potential_outcomes)
        assert np.array_equal(a.dataset.actions, b.dataset.actions)
        assert np.array_equal(a.dataset.features, b.dataset.features)

    def test_different_seed_differs(self):
        a = generate(constant_spec(seed=1, noise_raw=0.5))
        b = generate(constant_spec(seed=2, noise_raw=0.5))
        assert not np.array_equal(a.potential_outcomes, b.potential_outcomes)

    def test_uniform_assignment_shares(self):
        n = 9000
        oracle = generate(constant_spec(seed=7, n=n, noise_raw=0.5))
        shares = oracle.dataset.arm_counts() / n
        bound = 3.0 * np.sqrt(2.0 / (9.0 * n))
        assert np.abs(shares - 1.0 / 3.0).max() < bound

    def test_noise_has_unit_scale_per_arm(self):
        # (Y(a) - mu_a) / sigma_a is arm a's standard normal draw; arm 0's
        # sigma is near 0.2, arm 1's near 1.7 and arm 2's varies about 0.9,
        # so a noise scale of sigma**2 moves every arm's sd well off 1
        oracle = generate(
            DGPSpec(
                n_units=20_000,
                n_actions=3,
                n_features=2,
                mean_coeffs=np.array([[1.0, 0.5, 0.0], [2.0, 0.0, -0.3], [0.0, 0.4, 0.4]]),
                noise_scale_coeffs=np.array(
                    [[-1.5, 0.5, 0.0], [1.5, 0.0, -0.4], [0.3, 0.2, 0.2]]
                ),
                seed=9,
            )
        )
        z = (oracle.potential_outcomes - oracle.true_mu) / oracle.true_sigma
        assert np.abs(z.mean(axis=0)).max() < 0.05
        assert np.abs(z.std(axis=0) - 1.0).max() < 0.05

    def test_consistency_rule_holds(self):
        oracle = generate(constant_spec(seed=3, noise_raw=1.0))
        idx = np.arange(oracle.n_units)
        observed = oracle.potential_outcomes[idx, oracle.dataset.actions]
        assert np.array_equal(observed, oracle.dataset.outcomes)

    def test_logit_assignment_matches_propensity(self):
        spec = DGPSpec(
            n_units=40_000,
            n_actions=2,
            n_features=1,
            mean_coeffs=np.array([[1.0, 0.0], [2.0, 0.0]]),
            noise_scale_coeffs=np.array([[0.0, 0.0], [0.0, 0.0]]),
            assignment="logit",
            assignment_coeffs=np.array([[0.0, 0.0], [0.5, -1.0]]),
            seed=5,
        )
        oracle = generate(spec)
        assert np.abs(oracle.true_propensity.sum(axis=1) - 1.0).max() < 1e-12
        # empirical arm-1 share in a feature bin tracks the model probability
        x = oracle.dataset.features[:, 0]
        cell = np.abs(x) < 0.25
        expected = oracle.true_propensity[cell, 1].mean()
        empirical = oracle.dataset.actions[cell].mean()
        assert abs(empirical - expected) < 0.02

    def test_softplus_positive_everywhere(self):
        grid = np.array([-100.0, -5.0, 0.0, 5.0, 100.0])
        out = _softplus(grid)
        assert (out > 0).all()
        assert np.isclose(out[2], np.log(2.0))

    def test_cell_means_converge_to_true_mu(self):
        spec = DGPSpec(
            n_units=50_000,
            n_actions=2,
            n_features=1,
            mean_coeffs=np.array([[1.0, 2.0], [3.0, -1.0]]),
            noise_scale_coeffs=np.array([[0.0, 0.0], [0.0, 0.0]]),
            feature_dist="uniform",
            seed=9,
        )
        oracle = generate(spec)
        x = oracle.dataset.features[:, 0]
        cell = (x >= 0.4) & (x < 0.5)
        for a in range(2):
            empirical = oracle.potential_outcomes[cell, a].mean()
            analytic = oracle.true_mu[cell, a].mean()
            assert abs(empirical - analytic) < 0.05

    def test_invalid_spec_dimensions(self):
        with pytest.raises(ValueError, match="shape"):
            DGPSpec(
                n_units=10,
                n_actions=2,
                n_features=1,
                mean_coeffs=np.ones((3, 2)),
                noise_scale_coeffs=np.ones((2, 2)),
            )

    def test_logit_needs_coefficients(self):
        with pytest.raises(ValueError, match="assignment_coeffs"):
            DGPSpec(
                n_units=10,
                n_actions=2,
                n_features=1,
                mean_coeffs=np.ones((2, 2)),
                noise_scale_coeffs=np.ones((2, 2)),
                assignment="logit",
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_units": 0}, "need n_units >= 1, n_actions >= 2, n_features >= 1"),
            ({"assignment": "softmax"}, "unknown assignment mechanism 'softmax'"),
            (
                {"assignment": "logit", "assignment_coeffs": np.zeros((2, 2))},
                "assignment_coeffs must have shape (3, 2)",
            ),
            ({"n_arms": 3}, "unknown DGP option(s): ['n_arms']"),
            (
                {"mean_coeffs": [[1.0, 0.0], [2.0, float("inf")], [3.0, 0.0]]},
                "DGP option 'mean_coeffs' must be finite",
            ),
            (
                {"noise_scale_coeffs": [[0.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]]},
                "DGP option 'noise_scale_coeffs' must be finite",
            ),
            (
                {
                    "assignment": "logit",
                    "assignment_coeffs": [[0.0, 0.0], [0.0, -1e400], [0.0, 0.0]],
                },
                "DGP option 'assignment_coeffs' must be finite",
            ),
        ],
        ids=[
            "no_units",
            "softmax",
            "coeff_shape",
            "unknown_key",
            "infinite_mean",
            "nan_noise_scale",
            "infinite_assignment",
        ],
    )
    def test_invalid_spec_names_the_fault(self, change, message):
        cfg = {**constant_spec().to_dict(), **change}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DGPSpec.from_dict(cfg)

    def test_spec_round_trips_through_dict(self):
        spec = constant_spec(seed=11, noise_raw=0.5)
        clone = DGPSpec.from_dict(spec.to_dict())
        assert np.array_equal(clone.mean_coeffs, spec.mean_coeffs)
        assert clone.seed == spec.seed


class TestTrueValue:
    def test_constant_policy_is_column_mean(self):
        oracle = generate(constant_spec(seed=4, noise_raw=1.0))
        for a in range(3):
            policy = np.full(oracle.n_units, a)
            assert true_value(oracle, policy) == pytest.approx(
                oracle.potential_outcomes[:, a].mean()
            )

    def test_equal_policies_equal_values(self):
        oracle = generate(constant_spec(seed=5, noise_raw=1.0))
        policy = oracle_policy(oracle, RiskPreference.NEUTRAL)
        assert true_value(oracle, policy) == true_value(oracle, policy.copy())

    def test_first_best_dominates_random_policies(self):
        oracle = generate(constant_spec(seed=6))  # noiseless: argmax po == argmax mu
        fb = oracle_policy(oracle, RiskPreference.NEUTRAL)
        v_fb = true_value(oracle, fb)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = true_value(oracle, rng.integers(0, 3, oracle.n_units))
            assert v_fb >= v

    def test_invalid_policy_rejected(self):
        oracle = generate(constant_spec(seed=7))
        with pytest.raises(ValueError, match=r"^id 9 outside 0\.\.2 in policy at row 1$"):
            true_value(oracle, np.full(oracle.n_units, 9))

    def test_risk_averse_true_regret_nonnegative_across_specs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed + 500)
            m = int(rng.integers(2, 4))
            spec = DGPSpec(
                n_units=2000,
                n_actions=m,
                n_features=2,
                mean_coeffs=rng.normal(loc=2.0, scale=1.0, size=(m, 3)),
                noise_scale_coeffs=rng.normal(loc=0.3, scale=0.5, size=(m, 3)),
                seed=seed,
            )
            oracle = generate(spec)
            fb = true_value(oracle, oracle_policy(oracle, RiskPreference.NEUTRAL))
            for pref in (RiskPreference.LINEAR, RiskPreference.QUADRATIC):
                assert fb - true_value(oracle, oracle_policy(oracle, pref)) >= 0.0


class TestOraclePolicy:
    def manual_oracle(self):
        mu = np.array([[2.0, 3.0]] * 4)
        sigma = np.array([[1.0, 3.0]] * 4)
        po = mu.copy()
        actions = np.array([0, 1, 0, 1])
        dataset = Dataset(
            outcomes=po[np.arange(4), actions],
            actions=actions,
            features=np.zeros((4, 1)),
            n_actions=2,
        )
        return OracleData(
            dataset=dataset,
            potential_outcomes=po,
            true_mu=mu,
            true_sigma=sigma,
            true_propensity=np.full((4, 2), 0.5),
        )

    def test_same_arithmetic_as_policy_engine(self):
        oracle = self.manual_oracle()
        assert oracle_policy(oracle, RiskPreference.NEUTRAL).tolist() == [1] * 4
        assert oracle_policy(oracle, RiskPreference.LINEAR).tolist() == [0] * 4
        assert oracle_policy(oracle, RiskPreference.QUADRATIC).tolist() == [0] * 4

    def test_three_rules_pick_three_arms(self):
        # every unit has arms (mu, sigma) = (1, 0.25), (3, 0.6), (4, 1): mu/sigma
        # is 4, 5, 4 and mu/sigma^2 is 16, 8.33, 4, so neutral picks arm 2,
        # linear arm 1 and quadratic arm 0; a rule that squares the wrong
        # sigma picks another rule's arm. Three units, so each arm is observed
        mu = np.tile([1.0, 3.0, 4.0], (3, 1))
        sigma = np.tile([0.25, 0.6, 1.0], (3, 1))
        actions = np.arange(3)
        oracle = OracleData(
            dataset=Dataset(
                outcomes=mu[actions, actions],
                actions=actions,
                features=np.zeros((3, 1)),
                n_actions=3,
            ),
            potential_outcomes=mu,
            true_mu=mu,
            true_sigma=sigma,
            true_propensity=np.full((3, 3), 1 / 3),
        )
        moments = ArmMoments(
            mu=mu, sigma2=sigma**2, variance_floor=1e-8, clamped=np.zeros((3, 3), dtype=bool)
        )
        picks = {RiskPreference.NEUTRAL: 2, RiskPreference.LINEAR: 1, RiskPreference.QUADRATIC: 0}
        for pref, arm in picks.items():
            assert oracle_policy(oracle, pref).tolist() == [arm] * 3, pref
            assert assign_policy(moments, pref).actions.tolist() == [arm] * 3, pref

    def test_constant_sigma_matches_neutral(self):
        spec = DGPSpec(
            n_units=500,
            n_actions=3,
            n_features=2,
            mean_coeffs=np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.5], [1.5, 0.8, 0.8]]),
            noise_scale_coeffs=np.array([[0.5, 0.0, 0.0]] * 3),
            seed=8,
        )
        oracle = generate(spec)
        neutral = oracle_policy(oracle, RiskPreference.NEUTRAL)
        for pref in (RiskPreference.LINEAR, RiskPreference.QUADRATIC):
            assert np.array_equal(oracle_policy(oracle, pref), neutral)

    def test_consistency_violation_rejected(self):
        oracle = self.manual_oracle()
        wrong = oracle.potential_outcomes.copy()
        wrong[0, 0] += 1.0
        with pytest.raises(ValueError, match="consistency"):
            OracleData(
                dataset=oracle.dataset,
                potential_outcomes=wrong,
                true_mu=oracle.true_mu,
                true_sigma=oracle.true_sigma,
                true_propensity=oracle.true_propensity,
            )

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("true_mu", np.zeros((4, 3)), "true_mu must have shape (4, 2)"),
            ("true_propensity", np.full((4, 2), 0.6), "true propensity rows must sum to 1"),
            (
                "true_sigma",
                np.array([[1.0, 0.0]] * 4),
                "true noise scales must be strictly positive",
            ),
            (
                "true_sigma",
                np.array([[1.0, np.nan]] * 4),
                "true noise scales must be strictly positive",
            ),
            (
                "true_propensity",
                np.array([[0.5, 0.5], [np.nan, 0.5], [0.5, 0.5], [0.5, 0.5]]),
                "true propensity rows must sum to 1",
            ),
        ],
        ids=["shape", "propensity_sum", "zero_sigma", "nan_sigma", "nan_propensity"],
    )
    def test_invalid_truth_rejected(self, name, value, message):
        oracle = self.manual_oracle()
        fields = ("potential_outcomes", "true_mu", "true_sigma", "true_propensity")
        args = {field: getattr(oracle, field) for field in fields}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OracleData(dataset=oracle.dataset, **{**args, name: value})
