"""Command-line pipeline: ``fit``, ``evaluate``, ``simulate``, ``report``.

``fit`` loads a dataset, estimates per-arm conditional moments, assigns an
optimal action to every unit under each requested risk preference, and
writes the assignments, moment matrices, and plot data. ``evaluate`` fits a
propensity model and scores saved policy columns with the RA, IPW, and DR
welfare estimators plus regret against the first-best (neutral) column.
``simulate`` draws a synthetic dataset with a ground-truth sidecar, and
``report`` renders one scatter SVG per preference and a summary from a
fit run's ``report.json`` and ``scatter_<pref>`` tables.

Options come from a JSON config file and/or command flags; flags win.
Every command prints a JSON run record of what it computed; ``simulate``,
``fit`` and ``evaluate`` also write it as ``report.json`` under a manifest
of config, input and artifact hashes, and identical inputs reproduce
identical artifact bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import reporting
from .data import (
    ColumnSchema,
    DataFormatError,
    Dataset,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .moments import build_arm_moments, estimate_conditional_means
from .policies import PolicyAssignment, RiskPreference, assign_policy
from .regression import fit_mnlogit, predict_proba
from .simulate import DGPSpec, generate
from .values import ESTIMATOR_KINDS, clip_propensities, regret, value_dr, value_ipw, value_ra


class PipelineError(RuntimeError):
    """A pipeline step could not complete."""


# marks the RunConfig fields that the config nests under its "learner" key
_LEARNER = {"learner": True}


@dataclass
class RunConfig:
    """Resolved options for one command invocation: each field is the
    config key of its name, except that ``ridge``, ``max_iter`` and ``tol``
    nest under ``learner``. These are the only defaults."""

    input: str | None = None
    outdir: str = "run"
    schema: ColumnSchema | None = None
    preferences: tuple[RiskPreference, ...] = tuple(RiskPreference)
    variance_floor: float | None = None
    clip: tuple[float, float] = (0.01, 0.99)
    ridge: float = field(default=1e-6, metadata=_LEARNER)
    max_iter: int = field(default=100, metadata=_LEARNER)
    # None: fit_mnlogit's default, which scales with N
    tol: float | None = field(default=None, metadata=_LEARNER)
    estimators: tuple[str, ...] = ESTIMATOR_KINDS
    seed: int | None = None
    format: str = "csv"
    delimiter: str = ","
    allow_unconverged: bool = False
    dgp: dict | None = None

    def hash_payload(self) -> dict:
        """Config as hashed into the manifest; outdir is excluded so the
        same run into two directories hashes identically."""
        payload = asdict(self)
        del payload["outdir"]
        payload["learner"] = {key: payload.pop(key) for key in _LEARNER_KEYS}
        payload["preferences"] = [p.value for p in self.preferences]
        return payload


_LEARNER_KEYS = tuple(f.name for f in fields(RunConfig) if f.metadata.get("learner"))
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - set(_LEARNER_KEYS) | {"learner"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PipelineError(message)


def _read_json(path: str | Path, valid: Callable[[object], bool], wanted: str) -> object:
    """The JSON value in ``path``; a parse error, or a top-level value that
    ``valid`` rejects, raises a PipelineError that names the file."""
    try:
        value = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PipelineError(f"{path}: {exc}") from None
    _require(valid(value), f"{path}: {wanted}")
    return value


def _is(value: object, *types: type) -> bool:
    """``isinstance``, except that a bool is not an int here."""
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _positive(value: object) -> bool:
    return _is(value, int, float) and 0 < value < math.inf


def _list_of(value: object, choices: Sequence[str]) -> bool:
    """A non-empty list of distinct ``choices``."""
    return (
        _is(value, list, tuple)
        and 0 < len(value) == len(set(value))
        and all(v in choices for v in value)
    )


def _need(ok: bool, value: Any, reason: str = "") -> Any:
    """``value`` unchanged if ``ok``; otherwise a ValueError with ``reason``.
    Converters that hash a number as a float convert it themselves."""
    if not ok:
        raise ValueError(reason)
    return value


def _clip(value: Any) -> tuple[float, float]:
    """``[LOW, HIGH]`` as floats; the --clip flag gives the string LOW,HIGH."""
    if isinstance(value, str):
        value = [float(v) for v in value.split(",")]
    pair = _is(value, list, tuple) and len(value) == 2 and all(_is(v, int, float) for v in value)
    low, high = map(float, _need(pair, value, "expected [LOW, HIGH]"))
    return _need(0.0 < low < high < 1.0, (low, high), "expected 0 < LOW < HIGH < 1")


_PREFERENCES = [p.value for p in RiskPreference]
_FORMATS = ["csv", "json"]

# one converter per config key and per key under "learner"
_CONVERTERS: dict[str, Callable[[Any], object]] = {
    "input": lambda v: _need(v is None or _is(v, str), v),
    "outdir": lambda v: _need(_is(v, str), v),
    "schema": lambda v: None if v is None else ColumnSchema.from_mapping(v),
    "preferences": lambda v: tuple(map(RiskPreference, _need(_list_of(v, _PREFERENCES), v))),
    "variance_floor": lambda v: None if v is None else float(_need(_positive(v), v)),
    "clip": _clip,
    "ridge": lambda v: float(_need(_is(v, int, float) and v >= 0, v)),
    "max_iter": lambda v: _need(_is(v, int) and v > 0, v),
    "tol": lambda v: None if v is None else float(_need(_positive(v), v)),
    "estimators": lambda v: tuple(_need(_list_of(v, ESTIMATOR_KINDS), v)),
    "seed": lambda v: _need(v is None or _is(v, int), v),
    "format": lambda v: _need(v in _FORMATS, v),
    "delimiter": lambda v: _need(
        _is(v, str) and len(v) == 1, v, "a delimiter must be one character"
    ),
    "allow_unconverged": lambda v: _need(_is(v, bool), v),
    "dgp": lambda v: _need(v is None or _is(v, dict), v),
}


def _convert(key: str, value: object) -> object:
    try:
        return _CONVERTERS[key](value)
    except (TypeError, ValueError) as exc:
        message = f"invalid value for config option {key!r}: {value!r}"
        raise PipelineError(f"{message} ({exc})" if str(exc) else message) from None


def load_config(path: str | Path | None, overrides: Mapping[str, object]) -> RunConfig:
    """Merge a JSON config file with command-line overrides (flags win);
    only the keys given are converted, the others keep RunConfig's defaults."""
    merged: dict = {}
    if path is not None:
        merged = _read_json(path, lambda v: isinstance(v, dict), "a config must be a JSON object")
    merged.update((key, value) for key, value in overrides.items() if value is not None)
    learner = merged.pop("learner", {})
    _require(isinstance(learner, dict), f"invalid value for config option 'learner': {learner!r}")
    unknown = set(merged) - _CONFIG_KEYS
    unknown |= {f"learner.{key}" for key in set(learner) - set(_LEARNER_KEYS)}
    _require(not unknown, f"unknown config option(s): {sorted(unknown)}")
    return RunConfig(**{key: _convert(key, value) for key, value in {**merged, **learner}.items()})


def _load_valid_dataset(config: RunConfig) -> tuple[Dataset, list[str]]:
    _require(config.input is not None, "no input dataset configured")
    _require(config.schema is not None, "no column schema configured")
    dataset = load_dataset(config.input, config.schema, delimiter=config.delimiter)
    report = validate_dataset(dataset)
    _require(
        report.passed,
        f"dataset failed validation; arm counts {report.arm_counts.tolist()}",
    )
    return dataset, list(report.warnings)


def _read_table(path: Path, usecols: Callable[[str], bool]) -> tuple[list[str], np.ndarray]:
    """Names and float values of the kept columns of a CSV or JSON table."""
    if path.suffix == ".json":
        records = _read_json(
            path,
            lambda v: isinstance(v, list) and all(isinstance(r, dict) for r in v),
            "a table must be a JSON list of objects",
        )
        if not records:
            raise PipelineError(f"empty table: {path}")
        names = [k for k in records[0] if usecols(k)]
        columns = []
        for name in names:
            try:
                columns.append([float(rec[name]) for rec in records])
            except KeyError:
                raise PipelineError(f"table {path}: a record has no {name!r} key") from None
            except (TypeError, ValueError):
                raise PipelineError(f"table {path}: non-numeric {name!r} value") from None
        return names, np.array(columns).T.reshape(len(records), len(names))
    try:
        return reporting.read_csv(path, usecols)
    except ValueError as exc:
        raise PipelineError(f"table {path}: {exc}") from None


def _ids(path: Path, names: list[str], values: np.ndarray, column: str, bound: int) -> np.ndarray:
    """The ``column`` of the table read from ``path`` as integer ids in
    ``0..bound-1``; the first bad id is reported with its row."""
    ids = values[:, names.index(column)]
    integral = np.isfinite(ids) & (ids == np.trunc(ids))
    bad = ~integral | (ids < 0) | (ids >= bound)
    if bad.any():
        i = int(bad.argmax())
        if integral[i]:
            what = f"id {int(ids[i])} outside 0..{bound - 1}"
        else:
            what = f"non-integer id {float(ids[i])!r}"
        raise PipelineError(f"table {path}: {what} in column '{column}' at row {i + 1}")
    return ids.astype(np.int64)


def _find_table(outdir: Path, stem: str) -> Path:
    for suffix in (".csv", ".json"):
        candidate = outdir / f"{stem}{suffix}"
        if candidate.exists():
            return candidate
    raise PipelineError(f"missing artifact {stem}.csv (or .json) in {outdir}")


def _shares_columns(assignments: Mapping[str, PolicyAssignment]) -> list[object]:
    """preference, action, count, share: one row per (preference, arm)."""
    pols = list(assignments.values())
    m = pols[0].n_actions
    return [
        np.repeat(list(assignments), m),
        np.tile(np.arange(m), len(pols)),
        np.concatenate([np.bincount(p.actions, minlength=m) for p in pols]),
        np.concatenate([p.action_shares() for p in pols]),
    ]


def _write_record(
    outdir: Path, record: dict, payload: dict, input_path: Path | None, artifacts: list[str]
) -> dict:
    """Write the run ``record`` as ``report.json`` and the config as
    ``config.json``, then the manifest that hashes them with the command's
    other ``artifacts``; returns the record."""
    reporting.write_json(outdir / "report.json", record)
    reporting.write_json(outdir / "config.json", payload)
    names = [*artifacts, "report.json", "config.json"]
    reporting.write_manifest(
        outdir, config_payload=payload, input_path=input_path, artifact_names=names
    )
    return record


def cmd_fit(config: RunConfig) -> dict:
    """Load, validate, estimate moments, assign policies, write artifacts."""
    dataset, warnings = _load_valid_dataset(config)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    moments = build_arm_moments(dataset, variance_floor=config.variance_floor)
    assignments = {
        pref.value: assign_policy(moments, pref) for pref in config.preferences
    }
    negative = int((moments.mu < 0).any(axis=1).sum())
    if negative and set(config.preferences) - {RiskPreference.NEUTRAL}:
        warnings.append(
            f"{negative} unit(s) with negative mean estimates; "
            "risk-averse ranking is fragile there"
        )

    n, m = dataset.n_units, dataset.n_actions
    idx = np.arange(n)
    header = ["unit"]
    columns: list[object] = [idx]
    header += [f"{label}_action" for label in assignments]
    columns += [pol.actions for pol in assignments.values()]
    for label, pol in assignments.items():
        header += [f"{label}_utility_{a}" for a in range(m)]
        columns += list(pol.utility.T)
    tables = {
        "assignments": (header, columns),
        "moments": (
            ["unit", "arm", "mu", "sigma"],
            [
                np.repeat(idx, m),
                np.tile(np.arange(m), n),
                moments.mu.ravel(),
                moments.sigma.ravel(),
            ],
        ),
    }
    for label, pol in assignments.items():
        chosen = pol.actions
        tables[f"scatter_{label}"] = (
            ["unit", "action", "mu", "sigma"],
            [idx, chosen, moments.mu[idx, chosen], moments.sigma[idx, chosen]],
        )
    tables["shares"] = (["preference", "action", "count", "share"], _shares_columns(assignments))
    write = reporting.write_json_table if config.format == "json" else reporting.write_csv
    for stem, (header, columns) in tables.items():
        write(outdir / f"{stem}.{config.format}", header, columns)
    artifacts = [f"{stem}.{config.format}" for stem in tables]

    record = {
        "command": "fit",
        "action_shares": {
            label: pol.action_shares().tolist() for label, pol in assignments.items()
        },
        "clamp_count": moments.n_clamped,
        "diagnostics": {
            "n_units": dataset.n_units,
            "n_actions": dataset.n_actions,
            "variance_floor": moments.variance_floor,
            "ties_broken": {
                label: pol.ties_broken for label, pol in assignments.items()
            },
        },
        "warnings": warnings,
    }
    return _write_record(outdir, record, config.hash_payload(), Path(config.input), artifacts)


def _read_assignments(path: Path, n_units: int, n_actions: int) -> dict[str, np.ndarray]:
    names, values = _read_table(path, lambda h: h == "unit" or h.endswith("_action"))
    _require("unit" in names, f"assignments file {path} has no 'unit' column")
    policy_cols = [h for h in names if h.endswith("_action")]
    _require(bool(policy_cols), f"assignments file {path} has no '*_action' column")
    units = _ids(path, names, values, "unit", n_units)
    if len(units) != n_units or not np.array_equal(units, np.arange(n_units)):
        raise PipelineError(
            "assignments do not align with the dataset by unit id "
            f"({len(units)} rows vs {n_units} units)"
        )
    return {
        col[: -len("_action")]: _ids(path, names, values, col, n_actions)
        for col in policy_cols
    }


def cmd_evaluate(config: RunConfig, assignments_path: str | Path) -> dict:
    """Score saved policy columns with the configured welfare estimators."""
    dataset, warnings = _load_valid_dataset(config)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    policies = _read_assignments(Path(assignments_path), dataset.n_units, dataset.n_actions)

    q_hat = estimate_conditional_means(dataset)
    logit = fit_mnlogit(
        dataset.features,
        dataset.actions,
        max_iter=config.max_iter,
        tol=config.tol,
        ridge=config.ridge,
    )
    if not logit.converged:
        warnings.append(
            f"propensity model did not converge in {logit.iterations} iterations "
            f"(gradient norm {logit.final_gradient_norm:.3g})"
        )
    propensities = clip_propensities(
        predict_proba(logit, dataset.features), *config.clip
    )

    scorers = {
        "RA": lambda actions: value_ra(q_hat, actions),
        "IPW": lambda actions: value_ipw(dataset, actions, propensities),
        "DR": lambda actions: value_dr(dataset, actions, q_hat, propensities),
    }
    estimates = {
        label: {
            kind: score(actions)
            for kind, score in scorers.items()
            if kind in config.estimators
        }
        for label, actions in policies.items()
    }

    first_best = estimates.get("neutral")
    if first_best is None:
        warnings.append("no 'neutral' policy column; regret left unreported")
    value_table = [
        {
            "policy_label": label,
            "estimator": kind,
            "value": estimate.value,
            "regret_vs_fb": None if first_best is None else regret(first_best[kind], estimate),
        }
        for label, per_kind in estimates.items()
        for kind, estimate in per_kind.items()
    ]
    reporting.write_json(outdir / "values.json", value_table)

    record = {
        "command": "evaluate",
        "value_table": value_table,
        "clip_count": propensities.clipped_count,
        "diagnostics": {
            "propensity_converged": logit.converged,
            "propensity_iterations": logit.iterations,
            "propensity_lstsq_steps": logit.lstsq_steps,
            "propensity_gradient_norm": logit.final_gradient_norm,
        },
        "warnings": warnings,
    }
    return _write_record(outdir, record, config.hash_payload(), Path(config.input), ["values.json"])


def cmd_simulate(config: RunConfig) -> dict:
    """Draw a synthetic dataset and write it with its ground-truth sidecar."""
    _require(config.dgp is not None, "no 'dgp' section configured for simulate")
    dgp = dict(config.dgp)
    if config.seed is not None:
        dgp["seed"] = config.seed
    spec = DGPSpec.from_dict(dgp)
    oracle = generate(spec)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    save_dataset(oracle.dataset, outdir / "dataset.csv", delimiter=config.delimiter)
    m = oracle.n_actions
    header = ["unit"]
    for stem in ("po", "mu", "sigma", "propensity"):
        header += [f"{stem}_{a}" for a in range(m)]
    columns = [np.arange(oracle.n_units)]
    for matrix in (
        oracle.potential_outcomes,
        oracle.true_mu,
        oracle.true_sigma,
        oracle.true_propensity,
    ):
        columns += list(matrix.T)
    reporting.write_csv(outdir / "oracle.csv", header, columns)

    record = {
        "command": "simulate",
        "diagnostics": {
            "seed": spec.seed,
            "n_units": spec.n_units,
            "n_actions": spec.n_actions,
            "arm_counts": oracle.dataset.arm_counts().tolist(),
        },
        "warnings": [],
    }
    payload = {**config.hash_payload(), "dgp": spec.to_dict()}
    return _write_record(outdir, record, payload, None, ["dataset.csv", "oracle.csv"])


def _valid_shares(shares: object, n_actions: int) -> bool:
    """An object mapping preference names to lists of ``n_actions`` shares
    in [0, 1] that sum to 1."""
    return isinstance(shares, dict) and all(
        label in _PREFERENCES
        and _is(row, list)
        and len(row) == n_actions
        and all(_is(s, int, float) and 0 <= s <= 1 for s in row)
        and abs(sum(row) - 1.0) <= 1e-9
        for label, row in shares.items()
    )


def cmd_report(run_dir: str | Path) -> dict:
    """Render the scatter SVGs and ``summary.json`` of a completed fit run.

    Report renders what ``fit`` recorded: the preference labels, action
    shares and sizes come from fit's ``report.json``, and each chosen arm's
    mu and sigma from its ``scatter_<pref>`` table. The moments and
    assignments tables are not read.
    """
    outdir = Path(run_dir)
    _require(outdir.is_dir(), f"run directory {outdir} does not exist")
    record_path = outdir / "report.json"
    _require(record_path.exists(), f"missing run record {record_path}")
    record = _read_json(
        record_path,
        lambda v: isinstance(v, dict) and v.get("command") == "fit",
        "not the record of a fit run",
    )
    try:
        shares, diagnostics = record["action_shares"], record["diagnostics"]
        n_units, n_actions = diagnostics["n_units"], diagnostics["n_actions"]
    except (KeyError, TypeError):
        raise PipelineError(
            f"{record_path}: lacks action_shares, diagnostics.n_units or diagnostics.n_actions"
        ) from None
    _require(
        _is(n_units, int) and _is(n_actions, int),
        f"{record_path}: diagnostics.n_units and diagnostics.n_actions must be integers",
    )
    _require(
        _valid_shares(shares, n_actions),
        f"{record_path}: action_shares must map preference names to lists of "
        f"{n_actions} shares in [0, 1] that sum to 1",
    )

    arm_labels = [str(a) for a in range(n_actions)]
    artifacts: list[str] = []
    scatter_stats: dict[str, float] = {}
    for label in shares:
        name = f"scatter_{label}"
        path = _find_table(outdir, name)
        names, values = _read_table(path, {"action", "mu", "sigma"}.__contains__)
        _require(len(names) == 3, f"{path} needs action, mu and sigma columns")
        _require(len(values) == n_units, f"{path} has {len(values)} rows for {n_units} units")
        actions = _ids(path, names, values, "action", n_actions)
        chosen_sigma = values[:, names.index("sigma")]
        svg = reporting.scatter_svg(
            chosen_sigma,
            values[:, names.index("mu")],
            actions,
            title=f"optimal policy ({label}): chosen-arm return vs risk",
            legend_labels=arm_labels,
        )
        (outdir / f"{name}.svg").write_text(svg)
        artifacts.append(f"{name}.svg")
        scatter_stats[label] = float(chosen_sigma.mean())

    summary = {"action_shares": shares, "mean_chosen_sigma": scatter_stats}
    reporting.write_json(outdir / "summary.json", summary)
    artifacts.append("summary.json")

    return {
        "command": "report",
        "action_shares": shares,
        "diagnostics": {"artifacts": sorted(artifacts)},
        "warnings": [],
    }


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Each flag's ``dest`` is its config key, except for the schema columns."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--input", help="input dataset (delimited text)")
    parser.add_argument("--outdir", help="output directory")
    parser.add_argument(
        "--pref",
        action="append",
        choices=_PREFERENCES,
        dest="preferences",
        help="risk preference (repeatable)",
    )
    parser.add_argument("--clip", help="propensity clip bounds LOW,HIGH")
    parser.add_argument("--variance-floor", type=float)
    parser.add_argument("--format", choices=_FORMATS)
    parser.add_argument("--delimiter")
    parser.add_argument("--outcome-col")
    parser.add_argument("--action-col")
    parser.add_argument("--feature-cols", help="comma-separated")
    parser.add_argument("--allow-unconverged", action="store_true", default=None)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {key: value for key, value in vars(args).items() if key in _CONFIG_KEYS}
    columns = (args.outcome_col, args.action_col, args.feature_cols)
    if any(columns):
        _require(all(columns), "--outcome-col, --action-col, and --feature-cols go together")
        overrides["schema"] = {
            "outcome": args.outcome_col,
            "action": args.action_col,
            "features": [c.strip() for c in args.feature_cols.split(",")],
        }
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplearn",
        description="first-best optimal policy learning with risk preferences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate moments and assign optimal actions")
    _add_common_flags(fit)

    evaluate = sub.add_parser("evaluate", help="estimate policy welfare and regret")
    _add_common_flags(evaluate)
    evaluate.add_argument("--assignments", required=True, help="assignments table")

    simulate = sub.add_parser("simulate", help="draw a synthetic dataset")
    _add_common_flags(simulate)
    simulate.add_argument("--seed", type=int)

    report = sub.add_parser("report", help="render plots for a completed fit run")
    report.add_argument("run_dir", help="directory written by 'fit'")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    allow_unconverged = False
    try:
        if args.command == "report":
            record = cmd_report(args.run_dir)
        else:
            config = load_config(args.config, _overrides_from_args(args))
            allow_unconverged = config.allow_unconverged
            if args.command == "fit":
                record = cmd_fit(config)
            elif args.command == "evaluate":
                record = cmd_evaluate(config, args.assignments)
            else:
                record = cmd_simulate(config)
    except (PipelineError, DataFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in record["warnings"]:
        print(f"warning: {line}", file=sys.stderr)
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.command == "evaluate" and not record["diagnostics"]["propensity_converged"]:
        return 0 if allow_unconverged else 1
    return 0
