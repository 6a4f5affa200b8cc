"""Acceptance suite: the release criteria, one test each.

Every test prints one ``[criterion N] PASS/FAIL`` line with the measured
quantity (run pytest with ``-s`` or ``-rA`` to see all lines), then asserts.
Tolerances are fixed here, not tuned at runtime.
"""

import time
from dataclasses import replace

import numpy as np

from oplearn import (
    DGPSpec,
    Dataset,
    PropensityMatrix,
    RiskPreference,
    assign_policy,
    build_arm_moments,
    clip_propensities,
    estimate_conditional_means,
    fit_mnlogit,
    fit_ols,
    generate,
    oracle_policy,
    predict_proba,
    risk_utility,
    score_policies,
    true_value,
    value_ipw,
    value_ra,
)

from helpers import make_dataset, ols_oracle, quadratic_mean_oracle

RECOVERY_SPEC = DGPSpec(
    n_units=20_000,
    n_actions=3,
    n_features=2,
    mean_coeffs=np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.5], [1.5, 0.8, 0.8]]),
    noise_scale_coeffs=np.array([[0.5, 0.0, 0.0]] * 3),
    seed=20_260_808,
)

AGREEMENT_SPEC = DGPSpec(
    n_units=50_000,
    n_actions=3,
    n_features=2,
    mean_coeffs=np.array([[5.0, 1.0, 0.0], [4.0, 0.0, 1.5], [4.5, 0.8, 0.8]]),
    noise_scale_coeffs=np.array([[0.5, 0.0, 0.0]] * 3),
    seed=77,
)


def _criterion(num: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {status} - {description} ({detail})")
    assert passed, f"criterion {num} failed: {description} ({detail})"


def test_criterion_1_oracle_policy_recovery():
    start = time.perf_counter()
    oracle = generate(RECOVERY_SPEC)
    moments = build_arm_moments(oracle.dataset)
    estimated = assign_policy(moments, RiskPreference.NEUTRAL)
    truth = oracle_policy(oracle, RiskPreference.NEUTRAL)
    elapsed = time.perf_counter() - start
    agreement = float(np.mean(estimated.actions == truth))
    _criterion(
        1,
        "first-best assignments recover the oracle policy",
        agreement >= 0.97 and elapsed < 10.0,
        f"agreement={agreement:.4f} (>=0.97), elapsed={elapsed:.2f}s (<10s)",
    )


def test_criterion_2_welfare_recovery():
    oracle = generate(RECOVERY_SPEC)
    moments = build_arm_moments(oracle.dataset)
    estimated = assign_policy(moments, RiskPreference.NEUTRAL)
    ra = value_ra(moments.mu, estimated).value
    truth = true_value(oracle, oracle_policy(oracle, RiskPreference.NEUTRAL))
    rel_err = abs(ra - truth) / abs(truth)
    _criterion(
        2,
        "plug-in welfare of the estimated first-best matches the oracle",
        rel_err < 0.02,
        f"RA={ra:.4f}, truth={truth:.4f}, rel_err={rel_err:.4%} (<2%)",
    )


def test_criterion_3_estimator_agreement():
    oracle = generate(AGREEMENT_SPEC)
    dataset = oracle.dataset
    policy = oracle_policy(oracle, RiskPreference.NEUTRAL)
    truth = true_value(oracle, policy)
    q_hat = estimate_conditional_means(dataset)
    logit = fit_mnlogit(dataset.features, dataset.actions)
    propensities = clip_propensities(predict_proba(logit, dataset.features))
    rows = score_policies(dataset, {"neutral": policy}, q_hat, propensities)
    values = {row["estimator"]: row["value"] for row in rows}
    worst_vs_truth = max(abs(v - truth) / abs(truth) for v in values.values())
    pairwise = max(
        abs(a - b) / abs(truth) for a in values.values() for b in values.values()
    )
    _criterion(
        3,
        "RA, IPW, and DR agree with each other and the truth",
        worst_vs_truth < 0.03 and pairwise < 0.03,
        f"max rel err vs truth={worst_vs_truth:.4%}, pairwise={pairwise:.4%} (<3%)",
    )


def test_criterion_4_dr_robust_to_outcome_misspecification():
    wins = 0
    dr_rel_errors = []
    errors = {"RA": [], "IPW": [], "DR": []}
    for seed in range(50):
        oracle = quadratic_mean_oracle(seed, n=5000)
        dataset = oracle.dataset
        policy = (dataset.features[:, 0] > 1.0).astype(int)
        truth = true_value(oracle, policy)
        q_hat = estimate_conditional_means(dataset)  # omits the quadratic term
        logit = fit_mnlogit(dataset.features, dataset.actions)
        propensities = clip_propensities(predict_proba(logit, dataset.features))
        rows = score_policies(dataset, {"threshold": policy}, q_hat, propensities)
        values = {row["estimator"]: row["value"] for row in rows}
        for kind, value in values.items():
            errors[kind].append(value - truth)
        ra, dr = values["RA"], values["DR"]
        if abs(dr - truth) < abs(ra - truth):
            wins += 1
        dr_rel_errors.append(abs(dr - truth) / abs(truth))
    mean_err = float(np.mean(dr_rel_errors))
    spread = ", ".join(
        f"{kind} mean err={np.mean(errs):.4f} rmse={np.sqrt(np.mean(np.square(errs))):.4f}"
        for kind, errs in errors.items()
    )
    _criterion(
        4,
        "DR beats the misspecified plug-in and stays near the truth",
        wins >= 45 and mean_err < 0.03,
        f"DR closer in {wins}/50 (>=45), mean DR rel err={mean_err:.4%} (<3%); {spread}",
    )


def test_criterion_5_regret_nonnegative_under_ra():
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dataset = make_dataset(rng, n=80, m=int(rng.integers(2, 5)), p=2, noise=1.0)
        moments = build_arm_moments(dataset)
        policies = {pref.value: assign_policy(moments, pref) for pref in RiskPreference}
        props = clip_propensities(np.full(moments.mu.shape, 1 / dataset.n_actions))
        rows = score_policies(dataset, policies, moments.mu, props)
        ra = [r["regret_vs_fb"] for r in rows if r["estimator"] == "RA"]
        assert len(ra) == 3 and ra[0] == 0.0
        failures += sum(value < 0.0 for value in ra[1:])
    _criterion(
        5,
        "RA regret of risk-averse rules vs first-best is never negative",
        failures == 0,
        f"failures={failures}/200 comparisons (must be 0)",
    )


def test_criterion_6_assignments_invariant_to_outcome_scaling():
    mismatched = 0
    total = 0
    for seed in range(20):
        spec = DGPSpec(
            n_units=600,
            n_actions=3,
            n_features=2,
            mean_coeffs=np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.5], [1.5, 0.8, 0.8]]),
            noise_scale_coeffs=np.array([[0.5, 0.3, 0.0]] * 3),
            seed=1000 + seed,
        )
        dataset = generate(spec).dataset
        base = build_arm_moments(dataset)
        scaled = build_arm_moments(replace(dataset, outcomes=3.0 * dataset.outcomes))
        keep = ~(base.clamped.any(axis=1) | scaled.clamped.any(axis=1))
        total += int(keep.sum())
        for pref in RiskPreference:
            a = assign_policy(base, pref).actions
            b = assign_policy(scaled, pref).actions
            mismatched += int((a[keep] != b[keep]).sum())
    _criterion(
        6,
        "tripling the outcome leaves unclamped assignments unchanged",
        mismatched == 0 and total > 0,
        f"mismatches={mismatched} over {total} unclamped units x 3 preferences",
    )


def test_criterion_7_solver_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 80))
        p = int(rng.integers(1, 6))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fitted = fit_ols(X, y)
        worst = max(worst, float(np.abs(fitted - ols_oracle(X, y)).max()))

    X = rng.standard_normal((500, 2))
    scores = np.column_stack([np.zeros(500), X @ [1.0, -0.5], X @ [-0.3, 0.8]])
    actions = np.argmax(scores + rng.gumbel(size=(500, 3)), axis=1)
    model = fit_mnlogit(X, actions)
    probs = predict_proba(model, X)
    row_gap = float(np.abs(probs.sum(axis=1) - 1.0).max())
    monotone = bool(np.all(np.diff(model.loglik_path) >= 0.0))
    _criterion(
        7,
        "least squares matches the elimination oracle; logit is sound",
        worst < 1e-8 and row_gap < 1e-10 and monotone,
        f"max coef gap={worst:.2e} (<1e-8), row-sum gap={row_gap:.2e} (<1e-10), "
        f"monotone={monotone}",
    )


def test_criterion_8_iterated_expectation_identity():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q_hat = rng.normal(size=(200, 4)) * rng.uniform(0.5, 5.0)
        neutral = np.argmax(q_hat, axis=1)
        lhs = float(q_hat.max(axis=1).mean())
        rhs = value_ra(q_hat, neutral).value
        worst = max(worst, abs(lhs - rhs))
    _criterion(
        8,
        "mean row-max of q_hat equals the plug-in value of its argmax policy",
        worst < 1e-12,
        f"max gap={worst:.2e} (<1e-12)",
    )


def test_criterion_9_degenerate_handling():
    rng = np.random.default_rng(9)
    n = 60
    actions = np.arange(n) % 2
    outcomes = np.where(actions == 0, 5.0, 1.0 + rng.random(n))
    dataset = Dataset(
        outcomes=outcomes,
        actions=actions,
        features=rng.standard_normal((n, 1)),
        n_actions=2,
    )
    moments = build_arm_moments(dataset)
    finite = all(
        np.isfinite(risk_utility(moments.mu, moments.sigma, moments.sigma2, pref)).all()
        for pref in RiskPreference
    )
    flipped = 1 - dataset.actions
    uniform = PropensityMatrix(
        p=np.full((n, 2), 0.5), clip_bounds=(0.01, 0.99), clipped_count=0
    )
    ipw_zero = value_ipw(dataset, flipped, uniform).value
    _criterion(
        9,
        "constant arm clamps the variance and zero-match IPW is exactly 0",
        moments.n_clamped > 0 and finite and ipw_zero == 0.0,
        f"clamped cells={moments.n_clamped} (>0), finite utilities={finite}, "
        f"IPW={ipw_zero!r} (==0.0)",
    )
