"""RA / IPW / DR welfare estimators, clipping, and regret."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oplearn import (
    DGPSpec,
    PropensityMatrix,
    RiskPreference,
    ValueEstimate,
    clip_propensities,
    estimate_conditional_means,
    fit_mnlogit,
    generate,
    oracle_policy,
    predict_proba,
    score_policies,
    true_value,
    value_dr,
    value_ipw,
    value_ra,
)
from oplearn import values
from oplearn.values import _unit_scores

from helpers import make_dataset, quadratic_mean_oracle


def exact_propensities(p: np.ndarray) -> PropensityMatrix:
    """Wrap known probabilities without touching them (full [0,1] bounds)."""
    return PropensityMatrix(p=p, clip_bounds=(0.0, 1.0), clipped_count=0)


def interpolating_q_hat(dataset) -> np.ndarray:
    """q_hat that reproduces each observed outcome at the observed action."""
    rng = np.random.default_rng(123)
    q = rng.normal(size=(dataset.n_units, dataset.n_actions))
    q[np.arange(dataset.n_units), dataset.actions] = dataset.outcomes
    return q


class TestValueRA:
    def test_constant_columns(self):
        q = np.tile([1.0, 2.0, 7.5], (10, 1))
        est = value_ra(q, np.full(10, 2))
        assert est.value == pytest.approx(7.5)
        assert est.estimator == "RA"

    def test_observed_policy_with_interpolating_q(self):
        d = make_dataset(np.random.default_rng(0), n=40, m=3)
        q = interpolating_q_hat(d)
        est = value_ra(q, d.actions)
        assert est.value == pytest.approx(d.outcomes.mean())

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(20, 3))
        actions = rng.integers(0, 3, 20)
        brute = 0.0
        for i in range(20):
            for a in range(3):
                brute += q[i, a] * (1.0 if actions[i] == a else 0.0)
        brute /= 20
        assert abs(value_ra(q, actions).value - brute) < 1e-12

    def test_one_dimensional_q_hat_rejected(self):
        with pytest.raises(ValueError, match="^q_hat must be 2-d$"):
            value_ra(np.ones(6), np.zeros(6, dtype=int))

    @settings(max_examples=50, deadline=None)
    @given(
        q=hnp.arrays(np.float64, (8, 3), elements=st.floats(-100, 100, allow_nan=False)),
        actions=hnp.arrays(np.int64, (8,), elements=st.integers(0, 2)),
    )
    def test_double_sum_identity(self, q, actions):
        indicator = np.zeros((8, 3))
        indicator[np.arange(8), actions] = 1.0
        assert abs(value_ra(q, actions).value - (q * indicator).sum() / 8) < 1e-10


class TestPolicyCheck:
    @pytest.mark.parametrize("scorer", ["RA", "IPW", "DR", "true"])
    @pytest.mark.parametrize("damage", ["minus_one", "arm_m", "fractional", "short"])
    def test_bad_policy_rejected(self, scorer, damage):
        # every scorer rejects a policy that is not one arm in 0..M-1 per unit
        spec = DGPSpec(
            n_units=30,
            n_actions=3,
            n_features=1,
            mean_coeffs=np.array([[1.0, 0.5], [2.0, 0.0], [3.0, -0.5]]),
            noise_scale_coeffs=np.zeros((3, 2)),
            seed=4,
        )
        oracle = generate(spec)
        d = oracle.dataset
        q = interpolating_q_hat(d)
        props = exact_propensities(np.full((30, 3), 1.0 / 3.0))
        score = {
            "RA": lambda a: value_ra(q, a),
            "IPW": lambda a: value_ipw(d, a, props),
            "DR": lambda a: value_dr(d, a, q, props),
            "true": lambda a: true_value(oracle, a),
        }[scorer]
        policy = np.zeros(30, dtype=np.int64)
        if damage == "short":
            policy = policy[:-1]
            fragment = "needs one action for each of 30 units"
        elif damage == "fractional":
            # integral floats are arms; 1.7 is not truncated to arm 1
            policy = policy.astype(np.float64)
            score(policy)
            policy[7] = 1.7
            fragment = r"^non-integer id 1\.7 in policy at row 8$"
        else:
            policy[7] = -1 if damage == "minus_one" else 3
            fragment = rf"^id {policy[7]} outside 0\.\.2 in policy at row 8$"
        with pytest.raises(ValueError, match=fragment):
            score(policy)


class TestValueIPW:
    def test_all_matched_unit_propensity(self):
        d = make_dataset(np.random.default_rng(2), n=30, m=2)
        p = np.zeros((30, 2))
        p[np.arange(30), d.actions] = 1.0
        est = value_ipw(d, d.actions, exact_propensities(p))
        assert est.value == pytest.approx(d.outcomes.mean())

    def test_no_match_is_exactly_zero(self):
        d = make_dataset(np.random.default_rng(3), n=30, m=2)
        flipped = 1 - d.actions
        uniform = exact_propensities(np.full((30, 2), 0.5))
        assert value_ipw(d, flipped, uniform).value == 0.0

    def test_close_to_truth_under_randomisation(self):
        spec = DGPSpec(
            n_units=50_000,
            n_actions=3,
            n_features=2,
            mean_coeffs=np.array([[5.0, 1.0, 0.0], [4.0, 0.0, 1.5], [4.5, 0.8, 0.8]]),
            noise_scale_coeffs=np.array([[0.5, 0.0, 0.0]] * 3),
            seed=3,
        )
        oracle = generate(spec)
        policy = oracle_policy(oracle, RiskPreference.NEUTRAL)
        props = exact_propensities(oracle.true_propensity)
        est = value_ipw(oracle.dataset, policy, props)
        truth = true_value(oracle, policy)
        assert abs(est.value - truth) / abs(truth) < 0.02


class TestValueDR:
    def test_interpolating_q_makes_dr_equal_ra(self):
        d = make_dataset(np.random.default_rng(4), n=40, m=3)
        q = interpolating_q_hat(d)
        rng = np.random.default_rng(5)
        policy = rng.integers(0, 3, 40)
        props = exact_propensities(np.full((40, 3), 1.0 / 3.0))
        assert value_dr(d, policy, q, props).value == pytest.approx(
            value_ra(q, policy).value, abs=1e-15
        )

    def test_interpolating_q_makes_each_dr_score_its_ra_score(self):
        # unit by unit, not only in the mean: every residual is exactly zero
        d = make_dataset(np.random.default_rng(4), n=40, m=3)
        q = interpolating_q_hat(d)
        policies = {"random": np.random.default_rng(5).integers(0, 3, 40), "observed": d.actions}
        props = exact_propensities(np.full((40, 3), 1.0 / 3.0))
        for psi in _unit_scores(d, policies, q, props).values():
            assert np.array_equal(psi[2], psi[0])

    def test_no_match_reduces_to_ra(self):
        d = make_dataset(np.random.default_rng(6), n=30, m=2)
        flipped = 1 - d.actions
        q = np.random.default_rng(7).normal(size=(30, 2))
        props = exact_propensities(np.full((30, 2), 0.5))
        assert value_dr(d, flipped, q, props).value == pytest.approx(
            value_ra(q, flipped).value, abs=1e-15
        )

    def test_dr_minus_ra_equals_weighted_residual_mean(self):
        d = make_dataset(np.random.default_rng(8), n=50, m=3)
        q = np.random.default_rng(9).normal(size=(50, 3))
        policy = np.random.default_rng(10).integers(0, 3, 50)
        props = exact_propensities(np.full((50, 3), 1.0 / 3.0))
        idx = np.arange(50)
        match = (d.actions == policy).astype(float)
        correction = match * (d.outcomes - q[idx, d.actions]) / props.p[idx, d.actions]
        gap = value_dr(d, policy, q, props).value - value_ra(q, policy).value
        assert abs(gap - correction.mean()) < 1e-12

    def test_robust_to_misspecified_outcome_model(self):
        oracle = quadratic_mean_oracle(seed=0)
        d = oracle.dataset
        policy = (d.features[:, 0] > 1.0).astype(int)
        truth = true_value(oracle, policy)
        q_hat = estimate_conditional_means(d)  # linear learner omits the x^2 term
        props = exact_propensities(oracle.true_propensity)
        dr = value_dr(d, policy, q_hat, props)
        assert abs(dr.value - truth) / abs(truth) < 0.03


class TestClipPropensities:
    def test_clips_and_counts(self):
        p = np.array([[0.999, 0.001], [0.6, 0.4]])
        clipped = clip_propensities(p, 0.01, 0.99)
        assert clipped.p[0].tolist() == [0.99, 0.01]
        assert clipped.p[1].tolist() == [0.6, 0.4]
        assert clipped.clipped_count == 2

    def test_within_bounds_is_identity(self):
        p = np.array([[0.3, 0.7], [0.5, 0.5]])
        clipped = clip_propensities(p, 0.01, 0.99)
        assert np.array_equal(clipped.p, p)
        assert clipped.clipped_count == 0

    def test_rejects_bad_bounds(self):
        p = np.full((4, 2), 0.5)
        with pytest.raises(ValueError, match="bounds"):
            clip_propensities(p, 0.5, 0.4)

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            clip_propensities(np.array([[0.5, 0.6]]), 0.01, 0.99)

    @pytest.mark.parametrize(
        "p, message",
        [
            (np.full(4, 0.5), "propensity matrix must be 2-d"),
            (np.array([[0.5, np.nan], [0.5, 0.5]]), "propensities contain non-finite entries"),
            (np.array([[0.995, 0.005], [0.5, 0.5]]), "propensities outside the clip bounds"),
        ],
        ids=["one_d", "nan", "below_low"],
    )
    def test_matrix_refuses_invalid_entries(self, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PropensityMatrix(p=p, clip_bounds=(0.01, 0.99), clipped_count=0)

    @settings(max_examples=40, deadline=None)
    @given(
        raw=hnp.arrays(np.float64, (6, 3), elements=st.floats(0.001, 1.0)),
        low=st.floats(0.005, 0.05),
    )
    def test_post_clip_entries_within_bounds(self, raw, low):
        rows = raw / raw.sum(axis=1, keepdims=True)
        clipped = clip_propensities(rows, low, 1.0 - low)
        assert clipped.p.min() >= low
        assert clipped.p.max() <= 1.0 - low


class TestObservedPropensity:
    def test_zero_propensity_at_observed_action_names_the_row(self):
        d = make_dataset(np.random.default_rng(4), n=30, m=2)
        p = np.zeros((30, 2))
        p[np.arange(30), d.actions] = 1.0
        p[[4, 7]] = p[[4, 7], ::-1]
        props = exact_propensities(p)
        for score in (
            lambda: value_ipw(d, d.actions, props),
            lambda: value_dr(d, d.actions, interpolating_q_hat(d), props),
        ):
            with pytest.raises(ValueError, match="^zero propensity of the observed action at row 5$"):
                score()


    def test_propensities_of_another_shape_rejected(self):
        d = make_dataset(np.random.default_rng(5), n=6, m=2)
        props = exact_propensities(np.full((5, 2), 0.5))
        with pytest.raises(ValueError, match="^dataset and propensities disagree on shape$"):
            value_dr(d, d.actions, interpolating_q_hat(d), props)


class TestRegret:
    def test_identical_policies_zero(self):
        d = make_dataset(np.random.default_rng(12), n=40, m=3)
        q = np.random.default_rng(13).normal(size=(40, 3))
        props = clip_propensities(np.full((40, 3), 1 / 3))
        policies = {"neutral": d.actions, "copy": d.actions.copy()}
        rows = score_policies(d, policies, q, props)
        assert [r["regret_vs_fb"] for r in rows] == [0.0] * 6

    def test_unknown_estimator_kind_rejected(self):
        with pytest.raises(ValueError, match="estimator must be one of"):
            ValueEstimate("TRUE", 1.0)
        with pytest.raises(ValueError, match="^value must be finite$"):
            ValueEstimate("RA", float("nan"))

    def test_first_best_dominates_random_policies_under_ra(self):
        # regret is the first-best value minus the policy's, so it is never
        # negative under RA when the first-best maximises q_hat per unit
        rng = np.random.default_rng(11)
        d = make_dataset(rng, n=60, m=4)
        q = rng.normal(size=(60, 4))
        props = clip_propensities(np.full((60, 4), 0.25))
        policies = {"neutral": np.argmax(q, axis=1)}
        policies.update((f"random{i}", rng.integers(0, 4, 60)) for i in range(200))
        rows = score_policies(d, policies, q, props)
        regrets = [r["regret_vs_fb"] for r in rows if r["estimator"] == "RA"]
        assert len(regrets) == 201
        assert regrets[0] == 0.0 and all(r >= 0.0 for r in regrets)

    def test_true_regret_positive_on_tradeoff(self):
        # one arm has the higher mean, the other far lower risk
        spec = DGPSpec(
            n_units=4000,
            n_actions=2,
            n_features=1,
            mean_coeffs=np.array([[2.0, 0.0], [3.0, 0.0]]),
            noise_scale_coeffs=np.array([[-0.7, 0.0], [2.2, 0.0]]),
            seed=13,
        )
        oracle = generate(spec)
        fb = oracle_policy(oracle, RiskPreference.NEUTRAL)
        lra = oracle_policy(oracle, RiskPreference.LINEAR)
        assert not np.array_equal(fb, lra)
        assert true_value(oracle, fb) - true_value(oracle, lra) > 0.0


class TestEstimatorAgreement:
    def test_observed_policy_collapses_all_estimators_to_mean_outcome(self):
        # observed actions + interpolating q_hat + unit propensities
        d = make_dataset(np.random.default_rng(20), n=50, m=3)
        q = interpolating_q_hat(d)
        p = np.zeros((50, 3))
        p[np.arange(50), d.actions] = 1.0
        props = exact_propensities(p)
        target = d.outcomes.mean()
        assert value_ra(q, d.actions).value == pytest.approx(target)
        assert value_ipw(d, d.actions, props).value == pytest.approx(target)
        assert value_dr(d, d.actions, q, props).value == pytest.approx(target)

    def test_ra_ipw_dr_agree_under_randomisation(self):
        spec = DGPSpec(
            n_units=20_000,
            n_actions=3,
            n_features=2,
            mean_coeffs=np.array([[5.0, 1.0, 0.0], [4.0, 0.0, 1.5], [4.5, 0.8, 0.8]]),
            noise_scale_coeffs=np.array([[0.5, 0.0, 0.0]] * 3),
            seed=17,
        )
        oracle = generate(spec)
        d = oracle.dataset
        policy = oracle_policy(oracle, RiskPreference.NEUTRAL)
        q_hat = estimate_conditional_means(d)
        logit = fit_mnlogit(d.features, d.actions)
        props = clip_propensities(predict_proba(logit, d.features))
        values = [
            value_ra(q_hat, policy).value,
            value_ipw(d, policy, props).value,
            value_dr(d, policy, q_hat, props).value,
        ]
        spread = (max(values) - min(values)) / abs(np.mean(values))
        assert spread < 0.03

    def test_row_max_mean_equals_ra_at_neutral_assignment(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q = rng.normal(size=(50, 3))
            neutral = np.argmax(q, axis=1)
            lhs = q.max(axis=1).mean()
            rhs = value_ra(q, neutral).value
            assert abs(lhs - rhs) < 1e-12


class TestUnitScores:
    def test_rows_are_the_per_unit_formulas_bit_for_bit(self):
        # the terms in the order the module docstring writes them: a
        # reordered product such as (match / p) * Y moves their last bits
        d = make_dataset(np.random.default_rng(8), n=50, m=3)
        q = np.random.default_rng(9).normal(size=(50, 3))
        policy = np.random.default_rng(10).integers(0, 3, 50)
        props = clip_propensities(np.random.default_rng(11).dirichlet(np.ones(3), size=50))
        (psi,) = _unit_scores(d, {"p": policy}, q, props).values()
        idx = np.arange(50)
        match = (d.actions == policy).astype(float)
        observed_p = props.p[idx, d.actions]
        ra = q[idx, policy]
        assert psi.shape == (3, 50) and psi.flags.c_contiguous
        assert np.array_equal(psi[0], ra)
        assert np.array_equal(psi[1], match * d.outcomes / observed_p)
        assert np.array_equal(psi[2], ra + match * (d.outcomes - q[idx, d.actions]) / observed_p)
        assert 0 < match.sum() < 50


class TestScorePolicies:
    order = "C"

    def inputs(self):
        d = make_dataset(np.random.default_rng(21), n=80, m=3)
        rng = np.random.default_rng(22)
        q = np.asarray(rng.normal(size=(80, 3)), order=self.order)
        props = clip_propensities(rng.dirichlet(np.ones(3), size=80))
        policies = {
            "linear": rng.integers(0, 3, 80),
            "neutral": np.argmax(q, axis=1),
            "custom": d.actions,
        }
        return d, q, props, policies

    def test_rows_equal_hand_calls_in_mapping_then_kind_order(self):
        d, q, props, policies = self.inputs()

        def by_hand(actions):
            return [value_ra(q, actions), value_ipw(d, actions, props), value_dr(d, actions, q, props)]

        first_best = by_hand(policies["neutral"])
        expected = [
            {
                "policy_label": label,
                "estimator": est.estimator,
                "value": est.value,
                "regret_vs_fb": fb.value - est.value,
            }
            for label, actions in policies.items()
            for fb, est in zip(first_best, by_hand(actions))
        ]
        assert score_policies(d, policies, q, props) == expected

    def test_no_neutral_policy_leaves_regret_none(self):
        d, q, props, policies = self.inputs()
        del policies["neutral"]
        rows = score_policies(d, policies, q, props)
        assert len(rows) == 6
        assert all(r["regret_vs_fb"] is None for r in rows)

    def test_q_hat_checked_then_propensities_then_each_policy(self):
        # one fault at a time, in the order _unit_scores checks them
        d, q, props, policies = self.inputs()
        bad_q, bad_props = q[:-1], exact_propensities(np.full((79, 3), 1 / 3))
        policies["linear"] = policies["linear"][:-1]
        for q_hat, p, message in (
            (bad_q, bad_props, "q_hat shape mismatch"),
            (q, bad_props, "dataset and propensities disagree on shape"),
            (q, props, "policy needs one action for each of 80 units"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                score_policies(d, policies, q_hat, p)

    def test_each_policy_checked_once_and_propensities_gathered_once(self, monkeypatch):
        calls = {"_policy_actions": 0, "_observed_propensity": 0}
        for name in calls:

            def counting(*args, name=name, original=getattr(values, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(values, name, counting)
        d, q, props, policies = self.inputs()
        score_policies(d, policies, q, props)
        assert calls == {"_policy_actions": len(policies), "_observed_propensity": 1}


class TestScorePoliciesFortranQHat(TestScorePolicies):
    """The same checks on a Fortran-ordered q_hat, the layout that
    estimate_conditional_means returns and evaluate scores."""

    order = "F"
