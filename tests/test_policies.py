"""Risk-preference utilities, assignments and tie-breaking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oplearn import (
    DGPSpec,
    PolicyAssignment,
    RiskPreference,
    assign_policy,
    build_arm_moments,
    generate,
    risk_utility,
)

from helpers import make_moments

mu_arrays = hnp.arrays(
    np.float64, (9, 3), elements=st.floats(-50, 50, allow_nan=False)
)
sigma_arrays = hnp.arrays(
    np.float64, (9, 3), elements=st.floats(0.01, 20, allow_nan=False)
)


def utility_matrix(m, preference):
    return risk_utility(m.mu, m.sigma, m.sigma2, preference)


class TestUtilityMatrix:
    def test_worked_example(self):
        m = make_moments([[2.0, 3.0]], [[1.0, 3.0]])
        assert utility_matrix(m, RiskPreference.NEUTRAL).tolist() == [[2.0, 3.0]]
        assert utility_matrix(m, RiskPreference.LINEAR).tolist() == [[2.0, 1.0]]
        assert np.allclose(
            utility_matrix(m, RiskPreference.QUADRATIC), [[2.0, 1.0 / 3.0]]
        )

    def test_unit_sigma_collapses_to_means(self):
        m = make_moments([[4.0, -1.0], [0.5, 2.0]], np.ones((2, 2)))
        for pref in RiskPreference:
            assert np.allclose(utility_matrix(m, pref), m.mu)

    @settings(max_examples=50, deadline=None)
    @given(mu=mu_arrays, sigma=sigma_arrays)
    def test_quadratic_equals_linear_over_sigma(self, mu, sigma):
        m = make_moments(mu, sigma)
        linear = utility_matrix(m, RiskPreference.LINEAR)
        quadratic = utility_matrix(m, RiskPreference.QUADRATIC)
        assert np.abs(quadratic - linear / sigma).max() < 1e-12 * (
            1 + np.abs(quadratic).max()
        )


class TestAssignPolicy:
    def test_return_risk_tradeoff(self):
        # second arm has the higher mean but much larger uncertainty
        m = make_moments([[2.0, 3.0]], [[1.0, 3.0]])
        assert assign_policy(m, RiskPreference.NEUTRAL).actions.tolist() == [1]
        assert assign_policy(m, RiskPreference.LINEAR).actions.tolist() == [0]
        assert assign_policy(m, RiskPreference.QUADRATIC).actions.tolist() == [0]

    def test_tie_breaks_to_smallest_index(self):
        m = make_moments([[5.0, 5.0]], [[1.0, 1.0]])
        for pref in RiskPreference:
            pol = assign_policy(m, pref)
            assert pol.actions.tolist() == [0]
            assert pol.ties_broken == 1

    @settings(max_examples=50, deadline=None)
    @given(mu=mu_arrays, sigma=sigma_arrays)
    def test_chosen_arm_dominates_every_other(self, mu, sigma):
        m = make_moments(mu, sigma)
        for pref in RiskPreference:
            utility = utility_matrix(m, pref)
            chosen = utility[np.arange(len(mu)), assign_policy(m, pref).actions]
            assert np.all(chosen[:, None] >= utility)

    def test_constant_sigma_rows_align_all_preferences(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(40, 3)) + 3.0
        sigma = np.repeat(rng.uniform(0.5, 2.0, size=(40, 1)), 3, axis=1)
        m = make_moments(mu, sigma)
        neutral = assign_policy(m, RiskPreference.NEUTRAL).actions
        for pref in (RiskPreference.LINEAR, RiskPreference.QUADRATIC):
            assert np.array_equal(assign_policy(m, pref).actions, neutral)

    @settings(max_examples=100, deadline=None)
    @given(
        u=st.integers(2, 12).flatmap(
            lambda m: hnp.arrays(
                np.float64, st.tuples(st.integers(1, 30), st.just(m)),
                elements=st.integers(-2, 2).map(float),
            )
        ),
        order=st.sampled_from("CF"),
    )
    def test_one_pass_choice_matches_argmax(self, u, order):
        # few distinct values, so most rows hold ties
        u = np.array(u, order=order)
        expected_ties = int(((u == u.max(1, keepdims=True)).sum(1) > 1).sum())
        pol = assign_policy(make_moments(u, np.ones(u.shape)), RiskPreference.NEUTRAL)
        assert np.array_equal(pol.actions, np.argmax(u, axis=1))
        assert pol.ties_broken == expected_ties

    @pytest.mark.parametrize("arm", [-1, 2, 1.7, 0.5, np.nan])
    def test_assignment_rejects_arm_outside_range(self, arm):
        # a float arm is kept if whole (1.0 is arm 1) and refused, not
        # truncated to an arm, if fractional or NaN
        actions = np.array([0.0, arm, 1.0])
        if arm in (-1, 2):
            message = rf"^id {arm} outside 0\.\.1 in actions at row 2$"
        else:
            message = rf"^non-integer id {arm!r} in actions at row 2$"
        with pytest.raises(ValueError, match=message):
            PolicyAssignment(RiskPreference.NEUTRAL, actions, n_actions=2)
        actions[1] = 1.0
        assert PolicyAssignment(RiskPreference.NEUTRAL, actions, 2).actions.tolist() == [0, 1, 1]

    def test_estimated_assignments_recover_oracle(self):
        spec = DGPSpec(
            n_units=20_000,
            n_actions=3,
            n_features=2,
            mean_coeffs=np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.5], [1.5, 0.8, 0.8]]),
            noise_scale_coeffs=np.array([[0.5, 0.0, 0.0]] * 3),
            seed=314,
        )
        oracle = generate(spec)
        moments = build_arm_moments(oracle.dataset)
        pol = assign_policy(moments, RiskPreference.NEUTRAL)
        truth = np.argmax(oracle.true_mu, axis=1)
        assert np.mean(pol.actions == truth) >= 0.97


class TestTreatmentEffect:
    def test_recovers_constant_additive_effect(self):
        delta = 1.0
        spec = DGPSpec(
            n_units=20_000,
            n_actions=2,
            n_features=1,
            mean_coeffs=np.array([[2.0, 0.7], [2.0 + delta, 0.7]]),
            noise_scale_coeffs=np.array([[0.3, 0.0], [0.3, 0.0]]),
            seed=27,
        )
        oracle = generate(spec)
        m = build_arm_moments(oracle.dataset)
        effect = m.mu[:, 1] - m.mu[:, 0]
        assert abs(effect.mean() - delta) / delta < 0.05
