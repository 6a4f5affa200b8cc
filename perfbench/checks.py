"""Output checks and quality metrics, computed in the runner's own process.

Every check is one attempted operation; a check that does not hold is one
failed operation. The in-memory reference is the library run on the very
dataset the workload's input was written from.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import oplearn as opl
from workloads import PREFERENCES, logit_tol


class Checks:
    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def oracle_for(dgp: dict) -> opl.OracleData:
    return opl.generate(opl.DGPSpec.from_dict(dgp))


def manifest_matches_files(outdir: Path) -> bool:
    """Every artifact hash in ``manifest.json`` matches the file on disk."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    return all(
        hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
        for name, digest in manifest["artifacts"].items()
    )


def manifest_artifacts(run_dir: Path) -> dict:
    return {
        step: json.loads((run_dir / step / "manifest.json").read_text())["artifacts"]
        for step in ("sim", "fit", "eval")
    }


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    if path.suffix == ".json":
        records = json.loads(path.read_text())
        header = list(records[0])
        return header, [[str(r[k]) for k in header] for r in records]
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def reference(oracle: opl.OracleData) -> tuple[dict, dict]:
    """In-memory assignments and RA/IPW/DR values on the oracle's dataset."""
    d = oracle.dataset
    moments = opl.build_arm_moments(d)
    actions = {p: opl.assign_policy(moments, opl.RiskPreference(p)).actions for p in PREFERENCES}
    q_hat = opl.estimate_conditional_means(d)
    logit = opl.fit_mnlogit(d.features, d.actions, tol=logit_tol(d.n_units))
    props = opl.clip_propensities(opl.predict_proba(logit, d.features))
    values = {}
    for p, a in actions.items():
        values[(p, "RA")] = opl.value_ra(q_hat, a).value
        values[(p, "IPW")] = opl.value_ipw(d, a, props).value
        values[(p, "DR")] = opl.value_dr(d, a, q_hat, props).value
    return actions, values


def quality(oracle: opl.OracleData, actions: dict, dr_values: dict) -> dict[str, float]:
    """Agreement of each fitted policy with the oracle policy, and the worst
    DR error against the policy's finite-population true value."""
    out = {}
    for p in PREFERENCES:
        truth = opl.oracle_policy(oracle, opl.RiskPreference(p))
        out[f"agree_{p}"] = float(np.mean(actions[p] == truth))
    out["dr_abs_err"] = max(
        abs(dr_values[p] - opl.true_value(oracle, actions[p])) for p in PREFERENCES
    )
    return out


def check_cli_run(workload, oracle, run_dir: Path, checks: Checks) -> dict[str, float]:
    """Checks on the artifacts of one finished CLI pipeline; returns quality."""
    for step in ("sim", "fit", "eval"):
        checks.add(f"{step} manifest matches files", manifest_matches_files(run_dir / step))

    ref_actions, ref_values = reference(oracle)
    codes = workload.codes
    sorted_codes = np.array(sorted(codes))
    to_oracle = {c: i for i, c in enumerate(codes)}

    ext = "json" if workload.table_format == "json" else "csv"
    header, rows = _read_table(run_dir / "fit" / f"assignments.{ext}")
    cli_actions = {}
    for p in PREFERENCES:
        j = header.index(f"{p}_action")
        labels = sorted_codes[[int(float(r[j])) for r in rows]]
        checks.add(
            f"{p} actions equal in-memory assign_policy",
            np.array_equal(labels, np.array(codes)[ref_actions[p]]),
        )
        cli_actions[p] = np.array([to_oracle[c] for c in labels.tolist()])

    table = json.loads((run_dir / "eval" / "values.json").read_text())
    cli_values = {(r["policy_label"], r["estimator"]): r["value"] for r in table}
    checks.add("values.json equals in-memory RA/IPW/DR", cli_values == ref_values)

    fit_shares = json.loads((run_dir / "fit" / "report.json").read_text())["action_shares"]
    report_shares = json.loads((run_dir / "fit" / "summary.json").read_text())["action_shares"]
    checks.add("report shares equal fit shares", fit_shares == report_shares)

    return quality(oracle, cli_actions, {p: cli_values[(p, "DR")] for p in PREFERENCES})


def check_lib_run(oracle, workdir: Path, checks: Checks) -> dict[str, float]:
    """Checks on the saved outputs of the last library pipeline."""
    with np.load(workdir / "actions.npz") as npz:
        actions = {p: npz[p] for p in PREFERENCES}
    outputs = json.loads((workdir / "outputs.json").read_text())
    n = oracle.n_units
    for p in PREFERENCES:
        counts = np.bincount(actions[p], minlength=oracle.n_actions)
        checks.add(f"{p} shares match actions", outputs["shares"][p] == (counts / n).tolist())
    checks.add("propensity model converged", outputs["converged"])
    checks.add(
        "values finite",
        all(np.isfinite(v) for per in outputs["values"].values() for v in per.values()),
    )
    return quality(oracle, actions, {p: outputs["values"][p]["DR"] for p in PREFERENCES})
