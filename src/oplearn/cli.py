"""Command-line pipeline: ``fit``, ``evaluate``, ``simulate``, ``report``.

``fit`` loads a dataset, estimates per-arm conditional moments, assigns an
optimal action to every unit under each risk preference, and writes the
assignments and each unit's per-arm moments. ``evaluate`` fits the
conditional means and a propensity model, and scores saved policy columns
with :func:`oplearn.values.score_policies`: the RA, IPW, and DR welfare
estimates plus regret against the first-best (neutral) column.
``simulate`` draws a synthetic dataset with a ground-truth sidecar, and
``report`` renders one scatter SVG per preference and a summary from the
``moments`` and ``assignments`` tables that a fit run's manifest lists.

Options come from a JSON config file and/or command flags; flags win.
``_READS`` lists the config keys that each of ``simulate``, ``fit`` and
``evaluate`` reads, and each offers only those keys' flags, besides
``--config``, ``--outdir`` and ``--format``. A config file may hold every
command's keys: each is checked, and those the command does not read are
not hashed. Every command prints a JSON run record of what it computed;
those three also write it as ``report.json``, with the keys they read as
``config.json``, under a manifest of the input's hash and the artifacts'
hashes. Identical inputs reproduce identical artifact bytes, and a key that
a command does not read changes none of them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import data, reporting
from .data import (
    ColumnSchema,
    DataFormatError,
    Dataset,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .policies import PolicyAssignment, RiskPreference, assign_policy
# moments, regression, simulate and values are imported inside the commands
# that run them, so that each command's process loads only the modules it needs


class PipelineError(RuntimeError):
    """A pipeline step could not complete."""


# marks the RunConfig fields that the config nests under its "learner" key
_LEARNER = {"learner": True}


@dataclass
class RunConfig:
    """Resolved options for one command invocation: each field is the
    config key of its name, except that ``ridge``, ``max_iter`` and ``tol``
    nest under ``learner``. These are the only defaults. One config serves
    every command; each command reads, and hashes, only its ``_READS`` keys."""

    input: str | None = None
    outdir: str = "run"
    schema: ColumnSchema | None = None
    clip: tuple[float, float] = (0.01, 0.99)
    ridge: float = field(default=1e-6, metadata=_LEARNER)
    max_iter: int = field(default=100, metadata=_LEARNER)
    # None: fit_mnlogit's default, which scales with N
    tol: float | None = field(default=None, metadata=_LEARNER)
    format: str = "csv"
    delimiter: str = ","
    allow_unconverged: bool = False
    dgp: dict | None = None

    def hash_payload(self, command: str) -> dict:
        """The keys ``command`` reads, as hashed into its manifest; outdir is
        never among them, so the same run into two directories hashes
        identically."""
        payload = asdict(self)
        payload["learner"] = {key: payload.pop(key) for key in _LEARNER_KEYS}
        return {key: payload[key] for key in _READS[command]}


_LEARNER_KEYS = tuple(f.name for f in fields(RunConfig) if f.metadata.get("learner"))
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - set(_LEARNER_KEYS) | {"learner"}

# the config keys each command reads, hashes and offers flags for, besides
# outdir, in RunConfig's order
_READS = {
    "simulate": ("delimiter", "dgp"),
    "fit": ("input", "schema", "format", "delimiter"),
    "evaluate": ("input", "schema", "clip", "learner", "delimiter", "allow_unconverged"),
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PipelineError(message)


def _read_json(path: str | Path, valid: Callable[[object], bool], wanted: str) -> object:
    """The JSON value in ``path``, read as UTF-8 after an optional byte-order
    mark; a decode or parse error, or a top-level value that ``valid``
    rejects, raises a PipelineError that names the file."""
    try:
        value = json.loads(Path(path).read_bytes().decode("utf-8-sig"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise PipelineError(f"{path}: {exc}") from None
    _require(valid(value), f"{path}: {wanted}")
    return value


def _is(value: object, *types: type) -> bool:
    """``isinstance``, except that a bool is not an int here."""
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _positive(value: object) -> bool:
    return _is(value, int, float) and 0 < value < math.inf


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
_MOMENTS = ("mu", "sigma")


def _moments_header(n_actions: int) -> list[str]:
    """The columns of a moments table: ``unit``, ``mu_<a>``, then ``sigma_<a>``."""
    return ["unit", *(f"{stem}_{a}" for stem in _MOMENTS for a in range(n_actions))]


# one converter per config key and per key under "learner"
_CONVERTERS: dict[str, Callable[[Any], object]] = {
    "input": lambda v: _need(v is None or _is(v, str), v),
    "outdir": lambda v: _need(_is(v, str), v),
    "schema": lambda v: None if v is None else ColumnSchema.from_mapping(v),
    "clip": _clip,
    "ridge": lambda v: float(_need(_is(v, int, float) and 0 <= v < math.inf, v)),
    "max_iter": lambda v: _need(_is(v, int) and v > 0, v),
    "tol": lambda v: None if v is None else float(_need(_positive(v), v)),
    "format": lambda v: _need(v in _FORMATS, v),
    "delimiter": reporting._check_delimiter,
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


def _read_table(
    path: Path, usecols: Callable[[str], bool], n_units: int | None = None
) -> tuple[list[str], np.ndarray]:
    """Names and float values of the kept columns of a non-empty CSV or JSON
    table that holds one row per unit: its ``unit`` column runs 0..N-1, with
    N ``n_units`` or, if that is None, the table's row count."""
    if path.suffix == ".json":
        records = _read_json(
            path,
            lambda v: isinstance(v, list) and all(isinstance(r, dict) for r in v),
            "a table must be a JSON list of objects",
        )
        names = [k for k in (records[0] if records else {}) if usecols(k)]
        values = np.empty((len(records), len(names)))
        for j, name in enumerate(names):
            try:
                cells = [rec[name] for rec in records]
            except KeyError:
                raise PipelineError(f"table {path}: a record has no {name!r} key") from None
            # a JSON number parses to an int or a float; a bool is not one
            numeric = {*map(type, cells)} <= {int, float}
            _require(numeric, f"table {path}: non-numeric {name!r} value")
            try:
                values[:, j] = cells
            except OverflowError:  # an int such as 10**400
                raise PipelineError(f"table {path}: {name!r} value beyond the float range") from None
    else:
        try:
            names, values = reporting.read_csv(path, usecols)
        except ValueError as exc:
            raise PipelineError(f"table {path}: {exc}") from None
    _require(len(values) > 0, f"empty table: {path}")
    twice = next((name for name in names if names.count(name) > 1), None)
    _require(twice is None, f"table {path}: duplicate column {twice!r}")
    _require("unit" in names, f"table {path} has no 'unit' column")
    n_units = len(values) if n_units is None else n_units
    units = _ids(path, names, values, "unit", n_units)
    ok = len(units) == n_units and np.array_equal(units, np.arange(n_units))
    _require(ok, f"table {path}: unit ids are not 0..{n_units - 1} in order ({len(units)} rows)")
    return names, values


def _ids(path: Path, names: list[str], values: np.ndarray, column: str, bound: int) -> np.ndarray:
    """The ``column`` of the table read from ``path`` as integer ids in
    ``0..bound-1``; the first bad id is reported with its row."""
    try:
        return data._ids(values[:, names.index(column)], bound, f"column '{column}'")
    except ValueError as exc:
        raise PipelineError(f"table {path}: {exc}") from None


def _own_outdir(config: RunConfig, command: str) -> Path:
    """The configured output directory, created if need be; one that holds
    another command's run record is refused, so that no run overwrites it."""
    outdir, found = Path(config.outdir), command
    if (outdir / "report.json").exists():
        record = _read_json(outdir / "report.json", lambda v: _is(v, dict), "not a run record")
        found = record.get("command")
    _require(
        found == command,
        f"{outdir} holds the run record of {found!r}; {command} would overwrite it",
    )
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_record(
    outdir: Path, record: dict, payload: dict, input_sha256: str | None, artifacts: list[str]
) -> dict:
    """Write the run ``record`` as ``report.json`` and the config as
    ``config.json``, then the manifest that hashes them with the command's
    other ``artifacts``; returns the record."""
    reporting.write_json(outdir / "report.json", record)
    reporting.write_json(outdir / "config.json", payload)
    names = [*artifacts, "report.json", "config.json"]
    reporting.write_manifest(outdir, input_sha256=input_sha256, artifact_names=names)
    return record


def cmd_fit(config: RunConfig) -> dict:
    """Estimate moments and assign policies; write ``assignments`` (per unit,
    each ``<pref>_action``) and ``moments`` (per unit, ``mu_<a>`` then ``sigma_<a>``)."""
    from .moments import build_arm_moments

    dataset, warnings = _load_valid_dataset(config)
    outdir = _own_outdir(config, "fit")

    moments = build_arm_moments(dataset)
    assignments = {pref.value: assign_policy(moments, pref) for pref in RiskPreference}
    negative = int((moments.mu < 0).any(axis=1).sum())
    if negative:
        warnings.append(
            f"{negative} unit(s) with negative mean estimates; "
            "risk-averse ranking is fragile there"
        )

    idx = np.arange(dataset.n_units)
    tables = {
        "assignments": (
            ["unit", *(f"{label}_action" for label in assignments)],
            [idx, *(pol.actions for pol in assignments.values())],
        ),
        "moments": (_moments_header(dataset.n_actions), [idx, *moments.mu.T, *moments.sigma.T]),
    }
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
    input_sha256 = reporting.sha256_file(Path(config.input))
    return _write_record(outdir, record, config.hash_payload("fit"), input_sha256, artifacts)


def _read_assignments(path: Path, n_units: int, n_actions: int) -> dict[str, np.ndarray]:
    """Each ``<pref>_action`` column of an assignments table as arm ids, in
    ``RiskPreference`` order and then any other labels in table order, so a
    CSV and a JSON table of one fit give the same order."""
    names, values = _read_table(path, lambda h: h == "unit" or h.endswith("_action"), n_units)
    labels = [h[: -len("_action")] for h in names if h.endswith("_action")]
    _require(bool(labels), f"assignments file {path} has no '*_action' column")
    rank = {label: i for i, label in enumerate(_PREFERENCES)}
    labels.sort(key=lambda label: rank.get(label, len(rank)))
    return {label: _ids(path, names, values, f"{label}_action", n_actions) for label in labels}


def _read_manifest(path: Path) -> dict:
    """A run's ``manifest.json``: the hashes of its input and artifacts."""
    return _read_json(
        path,
        lambda v: isinstance(v, dict) and "input_sha256" in v and _is(v.get("artifacts"), dict),
        "not a run manifest (no input_sha256 or artifacts)",
    )


def _require_same_input(assignments_path: Path, input_path: Path, input_sha256: str) -> None:
    """If the run that wrote the assignments table left a manifest beside
    it, that run's input must be the file at ``input_path``."""
    manifest_path = assignments_path.with_name("manifest.json")
    if not manifest_path.exists():
        return
    manifest = _read_manifest(manifest_path)
    _require(
        manifest["input_sha256"] == input_sha256,
        f"{assignments_path} was fitted on another input than {input_path} "
        f"(input_sha256 in {manifest_path} differs)",
    )


def cmd_evaluate(config: RunConfig, assignments_path: str | Path) -> dict:
    """Score saved policy columns with the RA, IPW and DR welfare estimators."""
    from .moments import estimate_conditional_means
    from .regression import QuasiSeparationError, fit_mnlogit, predict_proba
    from .values import clip_propensities, score_policies

    dataset, warnings = _load_valid_dataset(config)
    input_sha256 = reporting.sha256_file(Path(config.input))
    _require_same_input(Path(assignments_path), Path(config.input), input_sha256)
    outdir = _own_outdir(config, "evaluate")
    policies = _read_assignments(Path(assignments_path), dataset.n_units, dataset.n_actions)

    q_hat = estimate_conditional_means(dataset)
    try:
        logit = fit_mnlogit(
            dataset.features,
            dataset.actions,
            max_iter=config.max_iter,
            tol=config.tol,
            ridge=config.ridge,
        )
    except QuasiSeparationError as exc:  # a RuntimeError, which main does not catch
        raise PipelineError(f"propensity model: {exc}") from None
    if not logit.converged:
        warnings.append(
            f"propensity model did not converge in {logit.iterations} iterations "
            f"(gradient norm {logit.final_gradient_norm:.3g})"
        )
    propensities = clip_propensities(
        predict_proba(logit, dataset.features), *config.clip
    )

    value_table = score_policies(dataset, policies, q_hat, propensities)
    if "neutral" not in policies:
        warnings.append("no 'neutral' policy column; regret left unreported")
    reporting.write_json(outdir / "values.json", value_table)

    record = {
        "command": "evaluate",
        "value_table": value_table,
        "clip_count": propensities.clipped_count,
        "diagnostics": {
            "propensity_converged": logit.converged,
            "propensity_iterations": logit.iterations,
            "propensity_lstsq_steps": logit.lstsq_steps,
            "propensity_information_passes": logit.information_passes,
            "propensity_gradient_norm": logit.final_gradient_norm,
        },
        "warnings": warnings,
    }
    payload = config.hash_payload("evaluate")
    return _write_record(outdir, record, payload, input_sha256, ["values.json"])


def cmd_simulate(config: RunConfig) -> dict:
    """Draw a synthetic dataset and write it with its ground-truth sidecar."""
    from .simulate import DGPSpec, generate

    _require(config.dgp is not None, "no 'dgp' section configured for simulate")
    spec = DGPSpec.from_dict(config.dgp)
    oracle = generate(spec)
    outdir = _own_outdir(config, "simulate")

    save_dataset(oracle.dataset, outdir / "dataset.csv", delimiter=config.delimiter)
    matrices = {
        "po": oracle.potential_outcomes,
        "mu": oracle.true_mu,
        "sigma": oracle.true_sigma,
        "propensity": oracle.true_propensity,
    }
    header = ["unit", *(f"{stem}_{a}" for stem in matrices for a in range(oracle.n_actions))]
    columns = [np.arange(oracle.n_units), *(c for matrix in matrices.values() for c in matrix.T)]
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
    payload = {**config.hash_payload("simulate"), "dgp": spec.to_dict()}
    return _write_record(outdir, record, payload, None, ["dataset.csv", "oracle.csv"])


def _read_moments(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The (N, M) ``mu`` and ``sigma`` matrices of a moments table: N is its
    row count and M its number of ``mu_<a>`` columns."""
    names, cells = _read_table(path, lambda h: h == "unit" or h.startswith(_MOMENTS))
    n_actions = sum(name.startswith("mu_") for name in names)
    expected = _moments_header(n_actions)
    _require(sorted(names) == sorted(expected), f"table {path}: columns {names}, not {expected}")
    cells = cells[:, [names.index(name) for name in expected[1:]]]
    _require(np.isfinite(cells).all(), f"table {path} has a non-finite mu or sigma")
    return tuple(np.split(cells, 2, axis=1))


def cmd_report(run_dir: str | Path) -> dict:
    """Render the scatter SVGs and ``summary.json`` of a completed fit run.

    Everything comes from the ``moments`` and ``assignments`` tables that
    fit's ``manifest.json`` lists: N and M from ``moments``, the preferences
    from the ``<pref>_action`` columns, and each plot from a unit's
    ``mu_<a>`` and ``sigma_<a>`` at its ``<pref>_action``. Both tables are
    checked before any SVG is written.
    """
    outdir = Path(run_dir)
    _require(outdir.is_dir(), f"run directory {outdir} does not exist")
    manifest_path = outdir / "manifest.json"
    _require(manifest_path.exists(), f"missing run manifest {manifest_path}")
    listed, tables = _read_manifest(manifest_path)["artifacts"], {}
    for stem in ("moments", "assignments"):
        names = [f"{stem}.{fmt}" for fmt in _FORMATS if f"{stem}.{fmt}" in listed]
        _require(bool(names), f"{manifest_path}: lists no {stem} table")
        _require(len(names) == 1, f"{manifest_path}: lists {len(names)} {stem} tables {names}")
        tables[stem] = outdir / names[0]
        _require(tables[stem].exists(), f"missing artifact {names[0]} listed in {manifest_path}")
    mu, sigma = _read_moments(tables["moments"])
    n_units, n_actions = mu.shape
    limit = len(reporting.PALETTE)
    _require(
        n_actions <= limit,
        f"table {tables['moments']}: {n_actions} arms, "
        f"but the scatter plots have colours for at most {limit}",
    )
    policies = _read_assignments(tables["assignments"], n_units, n_actions)
    # a label becomes part of a file name, so only preference names pass
    unknown = [f"{label}_action" for label in policies if label not in _PREFERENCES]
    _require(not unknown, f"table {tables['assignments']}: {unknown} name no risk preference")

    idx = np.arange(n_units)
    arm_labels = [str(a) for a in range(n_actions)]
    artifacts: list[str] = []
    shares: dict[str, list[float]] = {}
    scatter_stats: dict[str, float] = {}
    for label, actions in policies.items():
        name = f"scatter_{label}"
        chosen_sigma = sigma[idx, actions]
        svg = reporting.scatter_svg(
            chosen_sigma,
            mu[idx, actions],
            actions,
            title=f"optimal policy ({label}): chosen-arm return vs risk",
            legend_labels=arm_labels,
        )
        (outdir / f"{name}.svg").write_text(svg, encoding="utf-8")
        artifacts.append(f"{name}.svg")
        shares[label] = PolicyAssignment(actions, n_actions).action_shares().tolist()
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


# the flags of each config key that has any, in RunConfig's order; a flag's
# dest is its key, except for the schema columns
_FLAGS: dict[str, dict[str, dict]] = {
    "input": {"--input": {"help": "input dataset (delimited text)"}},
    "schema": {
        "--outcome-col": {}, "--action-col": {}, "--feature-cols": {"help": "comma-separated"}
    },
    "clip": {"--clip": {"help": "propensity clip bounds LOW,HIGH"}},
    "format": {"--format": {"choices": _FORMATS}},
    "delimiter": {"--delimiter": {}},
    "allow_unconverged": {"--allow-unconverged": {"action": "store_true", "default": None}},
}


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """``--config``, ``--outdir`` and the flags of the keys ``command`` reads.
    Every command also offers ``--format``, which only ``fit`` reads, while
    JSON tables last."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--outdir", help="output directory")
    for key, flags in _FLAGS.items():
        if key in _READS[command] or key == "format":
            for flag, options in flags.items():
                parser.add_argument(flag, **options)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {key: value for key, value in vars(args).items() if key in _CONFIG_KEYS}
    columns = [vars(args).get(dest) for dest in ("outcome_col", "action_col", "feature_cols")]
    if any(columns):
        _require(all(columns), "--outcome-col, --action-col, and --feature-cols go together")
        overrides["schema"] = {
            "outcome": args.outcome_col,
            "action": args.action_col,
            "features": [c.strip() for c in args.feature_cols.split(",")],
        }
    return overrides


class _CommandParser(argparse.ArgumentParser):
    """A command's parser. A flag that the command does not offer is a usage
    error here, reported with the command's own usage, not the top-level
    parser's ``usage: oplearn [-h] {fit,evaluate,simulate,report} ...``."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplearn",
        description="first-best optimal policy learning with risk preferences",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    _add_flags(sub.add_parser("fit", help="estimate moments and assign optimal actions"), "fit")

    evaluate = sub.add_parser("evaluate", help="estimate policy welfare and regret")
    _add_flags(evaluate, "evaluate")
    evaluate.add_argument("--assignments", required=True, help="assignments table")

    _add_flags(sub.add_parser("simulate", help="draw a synthetic dataset"), "simulate")

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
    try:
        print(json.dumps(record, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:  # the reader left early; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.command == "evaluate" and not record["diagnostics"]["propensity_converged"]:
        return 0 if allow_unconverged else 1
    return 0


def entry() -> int:
    """The ``oplearn`` program, both ``python -m oplearn`` and the console
    script: :func:`main` on the command line, then ``gc.freeze()``.

    Freezing moves the objects still alive, most of them made by imports, to
    the collector's permanent generation, so interpreter shutdown no longer
    walks them one at a time. Callers of :func:`main` in process keep their
    collector state.
    """
    code = main()
    gc.freeze()
    return code
