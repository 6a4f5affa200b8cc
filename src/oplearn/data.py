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


def _whole(values: np.ndarray) -> np.ndarray:
    """Elementwise: finite and without a fractional part."""
    return np.isfinite(values) & (values == np.trunc(values))


def _ids(values: object, bound: int, where: str) -> np.ndarray:
    """The vector ``values`` as int64 ids in ``0..bound-1``, not copied if
    already int64. The first bad id raises ValueError with its row, counted
    from 1: ``non-integer id 1.7 in <where> at row 3`` for a fraction, NaN
    or infinity (a cast would truncate it), else ``id 3 outside 0..2 in
    <where> at row 3``."""
    ids = np.asarray(values)
    bad = (ids < 0) | (ids >= bound)
    if ids.dtype.kind not in "biu":
        bad |= ~_whole(ids)
    if bad.any():
        i = int(bad.argmax())
        value = ids[i]
        if _whole(value):
            what = f"id {int(value)} outside 0..{bound - 1}"
        else:
            what = f"non-integer id {float(value)!r}"
        raise ValueError(f"{what} in {where} at row {i + 1}")
    return ids.astype(np.int64, copy=False)


def _require_units(n_units: int, where: str, unit: str = "unit") -> None:
    """Refuse zero units (or zero arms, with ``unit="arm"``), before any
    reduction over them would fail inside NumPy: ``<where> needs at least
    one <unit>``."""
    if n_units == 0:
        raise ValueError(f"{where} needs at least one {unit}")


def _freeze(obj: object, name: str, dtype: type, order: str = "C") -> np.ndarray:
    """Hold field ``name`` of the frozen dataclass ``obj`` as a read-only view
    in ``dtype`` and ``order`` (``"C"``, or ``"F"`` for arm-major), and return
    it. An input already in that dtype and order is not copied, and the
    caller's own array stays writeable."""
    convert = np.asfortranarray if order == "F" else np.ascontiguousarray
    arr = convert(getattr(obj, name), dtype=dtype).view()
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


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
        outcomes = _freeze(self, "outcomes", np.float64)
        features = _freeze(self, "features", np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n = outcomes.shape[0]
        if np.shape(self.actions) != (n,) or features.shape[0] != n:
            raise ValueError("outcomes, actions, and features disagree on N")
        object.__setattr__(self, "actions", _ids(self.actions, self.n_actions, "actions"))
        actions = _freeze(self, "actions", np.int64)
        if self.n_actions < 2:
            raise ValueError("need at least two actions")
        if not np.isfinite(outcomes).all():
            raise ValueError("outcomes contain non-finite entries")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite entries")
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
    columns, and its errors (ragged row or trailing delimiter, blank or
    non-numeric cell, rows numbered from 1 without blank lines) are raised
    as :class:`DataFormatError`, before those for a missing or repeated
    schema column, a non-integer action, or a ``nan`` or ``inf`` outcome or
    feature (read_csv accepts those spellings; the first such cell is named).
    """
    # imported here, like in save_dataset, so that a module importing data
    # (every layer does) does not load the artifact writers with it
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
        if header.count(name) != 1:
            problem = "duplicate" if name in header else "missing"
            raise DataFormatError(f"{problem} column '{name}' in {path}")
    if not len(table):
        raise DataFormatError(f"no data rows in {path}")
    cols = [header.index(name) for name in names]
    raw_actions = table[:, cols[1]]
    bad = ~_whole(raw_actions)
    if bad.any():
        i = int(bad.argmax())
        raise DataFormatError(
            f"non-integer action {float(raw_actions[i])!r} in column '{schema.action}' "
            f"at row {i + 1}"
        )
    # the action column holds whole numbers now, so only the others can be hit
    bad = ~np.isfinite(table)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataFormatError(
            f"non-finite value {float(table[i, j])!r} in column '{header[j]}' at row {i + 1}"
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
