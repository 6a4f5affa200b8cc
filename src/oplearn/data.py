"""Ingestion and validation of the (outcome, action, features) triplet data.

Every downstream step consumes a :class:`Dataset`: one observed outcome per
unit, one action index in ``{0, ..., n_actions - 1}``, and a numeric feature
matrix. Files are delimited text with a single header row, parsed by
:func:`oplearn.reporting.read_csv` like every table of the package; the
identical format is used for output, and a write/read round trip
reproduces the arrays bit-exactly.

Features are passed through unscaled; callers who want standardized inputs
must pre-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np


class DataFormatError(ValueError):
    """An input file could not be parsed into a valid dataset."""


@dataclass(frozen=True)
class ColumnSchema:
    """Maps file columns onto the outcome, action, and feature roles."""

    outcome: str
    action: str
    features: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ValueError("schema needs at least one feature column")
        names = (self.outcome, self.action, *self.features)
        if len(set(names)) != len(names):
            raise ValueError(f"schema column names must be distinct: {names}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "ColumnSchema":
        try:
            features = mapping["features"]
            names = (mapping["outcome"], mapping["action"], *features)  # type: ignore[misc]
        except KeyError as exc:
            raise DataFormatError(f"schema is missing the {exc} entry") from None
        if isinstance(features, str) or not all(isinstance(n, str) for n in names):
            raise DataFormatError("schema column names must be strings, features a list of them")
        return cls(names[0], names[1], names[2:])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable observational triplet (Y, A, X) for N units and M actions.

    Attributes
    ----------
    outcomes : ndarray, shape (N,)
        Observed reward of each unit.
    actions : ndarray, shape (N,)
        Action received, recoded to contiguous integers ``0..M-1``.
    features : ndarray, shape (N, p)
        Numeric covariates, one row per unit.
    n_actions : int
        Number of distinct actions M (at least 2).
    feature_names, action_labels : tuple of str
        Display names; ``action_labels[a]`` is the original label of the
        recoded action ``a``.
    """

    outcomes: np.ndarray
    actions: np.ndarray
    features: np.ndarray
    n_actions: int
    feature_names: tuple[str, ...] = ()
    action_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        outcomes = np.ascontiguousarray(self.outcomes, dtype=np.float64).view()
        actions = np.ascontiguousarray(self.actions, dtype=np.int64).view()
        features = np.ascontiguousarray(self.features, dtype=np.float64).view()
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n = outcomes.shape[0]
        if actions.shape != (n,) or features.shape[0] != n:
            raise ValueError("outcomes, actions, and features disagree on N")
        if self.n_actions < 2:
            raise ValueError("need at least two actions")
        if not np.isfinite(outcomes).all():
            raise ValueError("outcomes contain non-finite entries")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite entries")
        if actions.min(initial=0) < 0 or actions.max(initial=0) >= self.n_actions:
            raise ValueError("actions outside {0..M-1}")
        counts = np.bincount(actions, minlength=self.n_actions)
        for a, c in enumerate(counts):
            if c == 0:
                raise ValueError(f"action {a} unobserved")
        feature_names = tuple(self.feature_names) or tuple(
            f"x{j + 1}" for j in range(features.shape[1])
        )
        action_labels = tuple(self.action_labels) or tuple(
            str(a) for a in range(self.n_actions)
        )
        if len(feature_names) != features.shape[1]:
            raise ValueError("feature_names length mismatch")
        if len(action_labels) != self.n_actions:
            raise ValueError("action_labels length mismatch")
        for arr in (outcomes, actions, features):
            arr.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "feature_names", feature_names)
        object.__setattr__(self, "action_labels", action_labels)

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def arm_counts(self) -> np.ndarray:
        return np.bincount(self.actions, minlength=self.n_actions)


@dataclass
class ValidationReport:
    """Overlap and sanity diagnostics for a dataset."""

    arm_counts: np.ndarray
    warnings: list[str] = field(default_factory=list)
    passed: bool = True


def load_dataset(
    path: str | Path,
    schema: ColumnSchema | Mapping[str, object],
    *,
    delimiter: str = ",",
) -> Dataset:
    """Read a delimited text file into a :class:`Dataset`.

    Action values may be arbitrary integers in the file; they are recoded to
    ``0..M-1`` by ascending original value, with the original labels kept in
    ``action_labels``. :func:`oplearn.reporting.read_csv` parses the schema's
    columns and its errors (ragged row, blank or non-numeric cell, rows
    numbered from 1) are raised as :class:`DataFormatError`, before those
    for a missing column or a non-integer action.
    """
    # imported here, like in save_dataset, so that importing the package
    # does not load the artifact writers
    from .reporting import read_csv

    if not isinstance(schema, ColumnSchema):
        schema = ColumnSchema.from_mapping(schema)
    path = Path(path)
    names = (schema.outcome, schema.action, *schema.features)
    try:
        header, table = read_csv(path, set(names).__contains__, delimiter=delimiter)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    for name in names:
        if name not in header:
            raise DataFormatError(f"missing column '{name}' in {path}")
    if not len(table):
        raise DataFormatError(f"no data rows in {path}")
    cols = [header.index(name) for name in names]
    raw_actions = table[:, cols[1]]
    bad = ~(np.isfinite(raw_actions) & (raw_actions == np.trunc(raw_actions)))
    if bad.any():
        i = int(bad.argmax())
        raise DataFormatError(
            f"non-integer action {float(raw_actions[i])!r} in column '{schema.action}' "
            f"at row {i + 1}"
        )

    levels, actions = np.unique(raw_actions, return_inverse=True)
    return Dataset(
        outcomes=table[:, cols[0]],
        actions=actions,
        features=table[:, cols[2:]],
        n_actions=len(levels),
        feature_names=schema.features,
        action_labels=tuple(str(int(v)) for v in levels),
    )


def save_dataset(dataset: Dataset, path: str | Path, *, delimiter: str = ",") -> None:
    """Write a dataset in the canonical delimited format.

    Columns are ``outcome``, ``action`` (original labels), then the feature
    columns. Floats are written in shortest round-trip form so that
    :func:`load_dataset` reproduces the arrays bit-exactly.
    """
    from .reporting import write_csv

    labels = np.array(dataset.action_labels)
    write_csv(
        Path(path),
        ["outcome", "action", *dataset.feature_names],
        [dataset.outcomes, labels[dataset.actions], *dataset.features.T],
        delimiter=delimiter,
    )


def canonical_schema(dataset: Dataset) -> ColumnSchema:
    """Schema matching the header written by :func:`save_dataset`."""
    return ColumnSchema("outcome", "action", dataset.feature_names)


def min_arm_units(n_features: int) -> int:
    """Fewest observations an arm needs for a per-arm regression fit with
    intercept on ``n_features`` features to be meaningful: ``p + 2``."""
    return n_features + 2


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Check empirical overlap and outcome sanity.

    The report fails (``passed=False``) when any arm has fewer than
    :func:`min_arm_units` observations. Negative outcomes and thin arms are
    warned about but do not fail validation: risk-adjusted utilities assume
    a generally non-negative reward, so negative rewards make the ratio
    ordering fragile without invalidating the estimators.
    """
    counts = dataset.arm_counts()
    need = min_arm_units(dataset.n_features)
    warnings = [
        f"arm {a} has only {int(c)} observations" for a, c in enumerate(counts) if c < 2 * need
    ]
    if np.any(dataset.outcomes < 0):
        warnings.append("negative outcomes present")
    passed = bool(counts.min() >= need)
    return ValidationReport(arm_counts=counts, warnings=warnings, passed=passed)
