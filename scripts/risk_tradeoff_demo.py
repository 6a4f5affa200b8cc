"""Return/risk trade-off demo.

Simulates a two-arm setting where one arm pays more on average but with far
larger outcome uncertainty, then runs the full pipeline: moment estimation,
action assignment under all three risk preferences, welfare estimation with
RA / IPW / DR, and regret against the first-best rule. Writes the fit
artifacts (assignments, moments, scatter SVGs) into --outdir.

Usage: python scripts/risk_tradeoff_demo.py [--n 4000] [--seed 7] [--outdir runs/tradeoff]
"""

import argparse
from pathlib import Path

import numpy as np

from oplearn import (
    DGPSpec,
    RiskPreference,
    assign_policy,
    build_arm_moments,
    clip_propensities,
    fit_mnlogit,
    generate,
    oracle_policy,
    predict_proba,
    true_value,
    value_dr,
    value_ipw,
    value_ra,
)
from oplearn.cli import cmd_fit, cmd_report, load_config
from oplearn.data import save_dataset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--outdir", default="runs/tradeoff")
    args = ap.parse_args()

    spec = DGPSpec(
        n_units=args.n,
        n_actions=2,
        n_features=1,
        mean_coeffs=np.array([[2.0, 0.2], [2.6, 0.2]]),  # arm 1: higher return
        noise_scale_coeffs=np.array([[-0.5, 0.0], [2.2, 0.0]]),  # arm 1: higher risk
        seed=args.seed,
    )
    oracle = generate(spec)
    d = oracle.dataset
    print(f"simulated n={d.n_units}, arm counts {d.arm_counts().tolist()}")

    moments = build_arm_moments(d)
    logit = fit_mnlogit(d.features, d.actions)
    props = clip_propensities(predict_proba(logit, d.features))

    policies = {p.value: assign_policy(moments, p) for p in RiskPreference}
    idx = np.arange(d.n_units)

    print("\npreference   shares        mean chosen sigma")
    for label, pol in policies.items():
        shares = ", ".join(f"{s:.3f}" for s in pol.action_shares())
        risk = moments.sigma[idx, pol.actions].mean()
        print(f"{label:<12} [{shares}]  {risk:.3f}")

    def estimates(pol):
        """The RA, IPW and DR values of ``pol``."""
        return (
            value_ra(moments.mu, pol),
            value_ipw(d, pol, props),
            value_dr(d, pol, moments.mu, props),
        )

    print("\npolicy      estimator  value    regret_vs_fb   true value   true regret")
    fb_truth = true_value(oracle, oracle_policy(oracle, RiskPreference.NEUTRAL))
    fb_est = {est.estimator: est.value for est in estimates(policies["neutral"])}
    for label, pol in policies.items():
        truth = true_value(oracle, pol.actions)
        for est in estimates(pol):
            print(
                f"{label:<11} {est.estimator:<9}  {est.value:7.4f}  "
                f"{fb_est[est.estimator] - est.value:12.4f}   "
                f"{truth:9.4f}   {fb_truth - truth:9.4f}"
            )

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_dataset(d, outdir / "dataset.csv")
    config = load_config(
        None,
        {
            "input": str(outdir / "dataset.csv"),
            "outdir": str(outdir),
            "schema": {"outcome": "outcome", "action": "action", "features": ["x1"]},
        },
    )
    cmd_fit(config)
    cmd_report(outdir)
    print(f"\nartifacts written to {outdir}/ (see scatter_*.svg)")


if __name__ == "__main__":
    main()
