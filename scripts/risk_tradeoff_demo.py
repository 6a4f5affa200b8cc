"""Return/risk trade-off demo.

Simulates a two-arm setting where one arm pays more on average but with far
larger outcome uncertainty, then runs the commands on it: ``fit`` into
<outdir>/fit, ``evaluate`` (RA / IPW / DR welfare and regret against the
first-best rule) into <outdir>/eval, and ``report`` on the fit run. Prints
shares, mean chosen sigma, the value table and each policy's true value and
regret. Exits 1 if the propensity model did not converge, as evaluate does.

Usage: python scripts/risk_tradeoff_demo.py [--n 4000] [--seed 7] [--outdir runs/tradeoff]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from oplearn import DGPSpec, RiskPreference, generate, oracle_policy, save_dataset, true_value
from oplearn.cli import cmd_evaluate, cmd_fit, cmd_report, load_config
from oplearn.reporting import read_csv


def main() -> int:
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

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_dataset(d, outdir / "dataset.csv")

    schema = {"outcome": "outcome", "action": "action", "features": ["x1"]}
    run = {"input": str(outdir / "dataset.csv"), "schema": schema}
    fit = cmd_fit(load_config(None, {**run, "outdir": str(outdir / "fit")}))
    eval_config = load_config(None, {**run, "outdir": str(outdir / "eval")})
    evaluation = cmd_evaluate(eval_config, outdir / "fit" / "assignments.csv")
    cmd_report(outdir / "fit")
    for line in [*fit["warnings"], *evaluation["warnings"]]:
        print(f"warning: {line}", file=sys.stderr)

    sigma = json.loads((outdir / "fit" / "summary.json").read_text())["mean_chosen_sigma"]
    print("\npreference   shares        mean chosen sigma")
    for label, shares in fit["action_shares"].items():
        shares = ", ".join(f"{s:.3f}" for s in shares)
        print(f"{label:<12} [{shares}]  {sigma[label]:.3f}")

    names, actions = read_csv(outdir / "fit" / "assignments.csv", lambda h: h.endswith("_action"))
    truth = {
        name[: -len("_action")]: true_value(oracle, column) for name, column in zip(names, actions.T)
    }
    fb_truth = true_value(oracle, oracle_policy(oracle, RiskPreference.NEUTRAL))
    print("\npolicy      estimator  value    regret_vs_fb   true value   true regret")
    for row in evaluation["value_table"]:
        true = truth[row["policy_label"]]
        print(
            f"{row['policy_label']:<11} {row['estimator']:<9}  {row['value']:7.4f}  "
            f"{row['regret_vs_fb']:12.4f}   {true:9.4f}   {fb_truth - true:9.4f}"
        )

    print(f"\nartifacts written to {outdir}/ (fit/, eval/; see fit/scatter_*.svg)")
    return 0 if evaluation["diagnostics"]["propensity_converged"] else 1


if __name__ == "__main__":
    sys.exit(main())
