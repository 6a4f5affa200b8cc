"""Workload definitions shared by the benchmark runner and its child processes.

A workload fixes the data-generating process (DGP), the pipeline front end
(the ``oplearn`` CLI, one process per command, or in-process library calls)
and the table format. Only the draw depends on ``--seed``: the coefficient
matrices are fixed per workload so that the quality metrics measure the
estimator, not the luck of the coefficient draw.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PREFERENCES = ("neutral", "linear", "quadratic")
COMMANDS = ("simulate", "fit", "evaluate", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    front_end: str  # "cli" or "lib"
    n_units: int
    n_actions: int
    n_features: int
    coeff_seed: int
    table_format: str = "csv"
    delimiter: str = ","
    # Original action codes written to the input file; None keeps 0..M-1.
    action_codes: tuple[int, ...] | None = None
    # Column order of a hand-built input file; None uses `oplearn simulate`'s
    # own dataset as the input of `fit` and `evaluate`.
    input_columns: tuple[str, ...] | None = None

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"x{j + 1}" for j in range(self.n_features))

    @property
    def codes(self) -> tuple[int, ...]:
        return self.action_codes or tuple(range(self.n_actions))


# Why each workload exists: BENCHMARK.json and README.md in this directory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli_tall",
            front_end="cli",
            n_units=10_000,
            n_actions=4,
            n_features=5,
            coeff_seed=405,
        ),
        Workload(
            name="lib_wide",
            front_end="lib",
            n_units=100_000,
            n_actions=8,
            n_features=10,
            coeff_seed=810,
        ),
        Workload(
            name="cli_messy_json",
            front_end="cli",
            n_units=8_000,
            n_actions=3,
            n_features=3,
            coeff_seed=303,
            table_format="json",
            delimiter=";",
            action_codes=(10, 20, 40),
            input_columns=("x2", "note", "y", "x3", "treat", "x1"),
        ),
    )
}


def dgp_dict(workload: Workload, seed: int, n_units: int) -> dict:
    """DGP config for ``oplearn simulate`` / ``DGPSpec.from_dict``.

    Means have positive intercepts and non-zero slopes, noise scales have
    non-zero slopes, and the logit assignment is mild enough that every arm
    keeps a large share and the propensity fit converges.
    """
    m, p = workload.n_actions, workload.n_features
    rng = np.random.default_rng(workload.coeff_seed)
    mean = np.column_stack([rng.uniform(3.0, 5.0, m), rng.normal(0.0, 0.4, (m, p))])
    noise = np.column_stack([rng.uniform(-0.5, 1.0, m), rng.normal(0.0, 0.3, (m, p))])
    assign = np.column_stack([np.zeros(m), rng.normal(0.0, 0.25, (m, p))])
    return {
        "n_units": n_units,
        "n_actions": m,
        "n_features": p,
        "mean_coeffs": np.round(mean, 4).tolist(),
        "noise_scale_coeffs": np.round(noise, 4).tolist(),
        "assignment": "logit",
        "assignment_coeffs": np.round(assign, 4).tolist(),
        "feature_dist": "normal",
        "seed": seed,
    }


def logit_tol(n_units: int) -> float:
    """Gradient tolerance of the propensity fit: 1e-10 per unit.

    ``fit_mnlogit``'s default is an absolute 1e-8 on a gradient summed over
    all units, and float rounding alone can hold that gradient above 1e-8:
    on ``cli_tall``'s DGP at 15,000 units, seed 18, it stays at 1.84e-8, with the log-likelihood
    unchanged, from the 4th Newton step to the 100th, and ``evaluate``
    exits 1. With the default, 4 of 40 ``cli_tall`` seeds and 6 of 40
    ``lib_wide`` seeds take 7 to 100 Newton steps, so timings would depend
    more on the seed than on the code. ``stall_probe_iterations`` keeps
    measuring the default.
    """
    return 1e-10 * n_units


# (workload, seed, units) of a sample on which the default tolerance stalls.
STALL_PROBE = ("cli_tall", 18, 15_000)


def stall_probe_iterations() -> int:
    """Newton steps ``fit_mnlogit`` takes with its default tolerance on a
    sample where that tolerance is below the gradient's rounding floor:
    100 (the cap) while the default stays absolute, about 5 once it is not."""
    import oplearn as opl

    workload = WORKLOADS[STALL_PROBE[0]]
    dgp = dgp_dict(workload, STALL_PROBE[1], STALL_PROBE[2])
    d = opl.generate(opl.DGPSpec.from_dict(dgp)).dataset
    return opl.fit_mnlogit(d.features, d.actions).iterations


def schema(workload: Workload) -> tuple[str, str]:
    """(outcome column, action column) of the workload's input file."""
    if workload.input_columns is None:
        return "outcome", "action"
    return "y", "treat"


def build_input(workload: Workload, seed: int, n_units: int, workdir: Path) -> None:
    """Write everything the timed commands read: the simulate and evaluate
    configs and, for a hand-built input, the delimited dataset itself."""
    import oplearn as opl

    dgp = dgp_dict(workload, seed, n_units)
    (workdir / "simulate.json").write_text(json.dumps({"dgp": dgp}))
    (workdir / "evaluate.json").write_text(json.dumps({"learner": {"tol": logit_tol(n_units)}}))
    if workload.input_columns is None:
        return
    d = opl.generate(opl.DGPSpec.from_dict(dgp)).dataset
    outcome, action = schema(workload)
    columns = {outcome: map(repr, d.outcomes.tolist())}
    columns[action] = (str(workload.codes[a]) for a in d.actions.tolist())
    columns["note"] = (f"unit-{i}" for i in range(d.n_units))
    for j, name in enumerate(workload.feature_names):
        columns[name] = map(repr, d.features[:, j].tolist())
    order = workload.input_columns
    lines = [workload.delimiter.join(order)]
    lines += map(workload.delimiter.join, zip(*(columns[c] for c in order)))
    (workdir / "input.txt").write_text("\n".join(lines) + "\n")


def cli_argv(workload: Workload) -> dict[str, list[str]]:
    """Per-command ``oplearn`` arguments, relative to the run directory."""
    outcome, action = schema(workload)
    data = "sim/dataset.csv" if workload.input_columns is None else "../input.txt"
    io = ["--format", workload.table_format, "--delimiter", workload.delimiter]
    cols = [
        "--outcome-col", outcome,
        "--action-col", action,
        "--feature-cols", ",".join(workload.feature_names),
    ]
    ext = "json" if workload.table_format == "json" else "csv"
    return {
        "simulate": ["simulate", "--config", "../simulate.json", "--outdir", "sim", *io],
        "fit": ["fit", "--input", data, "--outdir", "fit", *io, *cols],
        "evaluate": [
            "evaluate", "--input", data, "--outdir", "eval",
            "--assignments", f"fit/assignments.{ext}", "--config", "../evaluate.json",
            *io, *cols,
        ],
        "report": ["report", "fit"],
    }


def lib_pipeline(dgp: dict, stage) -> dict:
    """The four pipeline stages as library calls, with no files.

    ``simulate`` is ``generate``; ``fit`` is ``build_arm_moments`` plus
    ``assign_policy`` per preference; ``evaluate`` fits the outcome and
    propensity models and scores each policy with RA/IPW/DR; ``report``
    renders one scatter SVG per preference. ``stage(name)`` is a context
    manager around each stage that times or traces it. Returns the outputs
    the checks compare.
    """
    import oplearn as opl
    from oplearn import reporting

    with stage("simulate"):
        d = opl.generate(opl.DGPSpec.from_dict(dgp)).dataset

    with stage("fit"):
        moments = opl.build_arm_moments(d)
        policies = {p: opl.assign_policy(moments, opl.RiskPreference(p)) for p in PREFERENCES}

    with stage("evaluate"):
        q_hat = opl.estimate_conditional_means(d)
        logit = opl.fit_mnlogit(d.features, d.actions, tol=logit_tol(d.n_units))
        props = opl.clip_propensities(opl.predict_proba(logit, d.features))
        values = {
            label: {
                "RA": opl.value_ra(q_hat, pol).value,
                "IPW": opl.value_ipw(d, pol, props).value,
                "DR": opl.value_dr(d, pol, q_hat, props).value,
            }
            for label, pol in policies.items()
        }

    with stage("report"):
        idx = np.arange(d.n_units)
        svgs = {
            label: reporting.scatter_svg(
                moments.sigma[idx, pol.actions],
                moments.mu[idx, pol.actions],
                pol.actions,
                title=f"optimal policy ({label}): chosen-arm return vs risk",
                legend_labels=[str(a) for a in range(d.n_actions)],
            )
            for label, pol in policies.items()
        }

    return {
        "actions": {label: pol.actions for label, pol in policies.items()},
        "shares": {label: pol.action_shares().tolist() for label, pol in policies.items()},
        "values": values,
        "converged": bool(logit.converged),
        "svg_sha256": {
            label: hashlib.sha256(svg.encode()).hexdigest() for label, svg in svgs.items()
        },
    }
