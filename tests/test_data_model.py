"""Dataset ingestion, recoding, round trips, and validation."""

import csv
import io
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplearn import (
    ArmMoments,
    ColumnSchema,
    DataFormatError,
    Dataset,
    DGPSpec,
    MultinomialLogitModel,
    OracleData,
    PolicyAssignment,
    PropensityMatrix,
    clip_propensities,
    fit_mnlogit,
    generate,
    load_dataset,
    save_dataset,
    true_value,
    validate_dataset,
    value_dr,
    value_ipw,
    value_ra,
)

from oplearn.reporting import ROW_BLOCK, scatter_svg

from helpers import make_dataset

SCHEMA = ColumnSchema(outcome="y", action="treat", features=("x1",))


def saved_schema(d):
    """The schema of the header that save_dataset writes."""
    return ColumnSchema("outcome", "action", d.feature_names)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoad:
    def test_actions_recoded_by_ascending_label(self, tmp_path):
        path = write(
            tmp_path,
            "y,treat,x1\n"
            "1.0,3,0.1\n"
            "2.0,1,0.2\n"
            "3.0,2,0.3\n"
            "4.0,1,0.4\n"
            "5.0,3,0.5\n"
            "6.0,2,0.6\n",
        )
        d = load_dataset(path, SCHEMA)
        assert d.n_actions == 3
        assert d.action_labels == ("1", "2", "3")
        assert d.actions.tolist() == [2, 0, 1, 0, 2, 1]

    def test_blank_cell_names_row(self, tmp_path):
        path = write(
            tmp_path,
            "y,treat,x1\n"
            "1.0,0,0.1\n"
            "2.0,1,0.2\n"
            "3.0,0,0.3\n"
            ",1,0.4\n"
            "5.0,0,0.5\n"
            "6.0,1,0.6\n",
        )
        with pytest.raises(DataFormatError, match="row 4"):
            load_dataset(path, SCHEMA)

    def test_expected_action_unobserved(self, tmp_path):
        # a file with one action level: Dataset rejects it
        path = write(
            tmp_path,
            "y,treat,x1\n0.5,0,0.1\n0.6,0,0.2\n0.7,0,0.3\n0.8,0,0.4\n",
        )
        with pytest.raises(ValueError, match="need at least two actions"):
            load_dataset(path, SCHEMA)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "y,x1\n1.0,0.1\n")
        with pytest.raises(DataFormatError, match="missing column 'treat'"):
            load_dataset(path, SCHEMA)

    def test_repeated_schema_column(self, tmp_path):
        path = write(tmp_path, "y,treat,x1,x1\n1.0,0,0.1,9.0\n2.0,1,0.2,9.0\n")
        with pytest.raises(DataFormatError, match="duplicate column 'x1' in "):
            load_dataset(path, SCHEMA)
        # a repeated column outside the schema is not read
        path = write(tmp_path, "y,treat,x1,z,z\n1.0,0,0.1,a,b\n2.0,1,0.2,c,d\n")
        assert load_dataset(path, SCHEMA).features.tolist() == [[0.1], [0.2]]

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "y,treat,x1\n1.0,0,abc\n2.0,1,0.2\n")
        with pytest.raises(DataFormatError, match="column 'x1' at row 1"):
            load_dataset(path, SCHEMA)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataFormatError, match="empty file"):
            load_dataset(path, SCHEMA)

    def test_non_integer_action(self, tmp_path):
        path = write(tmp_path, "y,treat,x1\n1.0,0.5,0.1\n2.0,1,0.2\n")
        with pytest.raises(DataFormatError, match="non-integer action"):
            load_dataset(path, SCHEMA)

    def test_semicolon_delimiter(self, tmp_path):
        path = write(tmp_path, "y;treat;x1\n1.0;0;0.1\n2.0;1;0.2\n")
        d = load_dataset(path, SCHEMA, delimiter=";")
        assert d.n_units == 2

    def test_whitespace_padded_cells(self, tmp_path):
        path = write(tmp_path, " y , treat ,x1\n 1.5 , 0 ,\t-2e-05 \n2.0,1 , 0.25\n")
        d = load_dataset(path, SCHEMA)
        assert d.outcomes.tolist() == [1.5, 2.0]
        assert d.actions.tolist() == [0, 1]
        assert d.features[:, 0].tolist() == [-2e-05, 0.25]

    @pytest.mark.parametrize("bad_row", [3, ROW_BLOCK + 2])
    @pytest.mark.parametrize(
        "cells, message",
        [
            ("7.0,1", "row {row} has 2 fields, expected 3"),
            ("7.0,1,0.1,9", "row {row} has 4 fields, expected 3"),
            ("7.0,1,0.1,", "row {row} has 4 fields, expected 3"),
            ("7.0,,0.1", "blank value in column 'treat' at row {row}"),
            ("7.0,1, ", "blank value in column 'x1' at row {row}"),
            ("7.0,1,abc", "non-numeric value 'abc' in column 'x1' at row {row}"),
            ("1e,1,0.1", "non-numeric value '1e' in column 'y' at row {row}"),
            ("7.0,0.5,0.1", "non-integer action 0.5 in column 'treat' at row {row}"),
            ("7.0,inf,0.1", "non-integer action inf in column 'treat' at row {row}"),
            # read_csv takes these spellings; the first such cell is named
            ("7.0,1,nan", "non-finite value nan in column 'x1' at row {row}"),
            ("-inf,1,0.1", "non-finite value -inf in column 'y' at row {row}"),
            ("nan,1,inf", "non-finite value nan in column 'y' at row {row}"),
        ],
    )
    def test_bad_row_message(self, tmp_path, cells, message, bad_row):
        lines = [f"{i}.5,{i % 2},0.{i}" for i in range(ROW_BLOCK + 10)]
        lines[bad_row - 1] = cells
        path = write(tmp_path, "y,treat,x1\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path, SCHEMA)
        assert str(info.value) == message.format(row=bad_row)

    @pytest.mark.parametrize(
        "bad_row, cells, message",
        [
            (50_002, "7.0,1,abc", "non-numeric value 'abc' in column 'x1' at row 50002"),
            (60_001, "7.0,1", "row 60001 has 2 fields, expected 3"),
        ],
    )
    def test_bad_row_past_the_reader_chunks(self, tmp_path, bad_row, cells, message):
        # np.loadtxt reads 50,000 rows per chunk; blank lines are not rows
        lines = [f"{i}.5,{i % 2},0.{i}" for i in range(60_010)]
        lines[bad_row - 1] = cells
        for i in (49_999, 10, 0):
            lines.insert(i, "")
        path = write(tmp_path, "y,treat,x1\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path, SCHEMA)
        assert str(info.value) == message

    def test_first_bad_row_is_reported(self, tmp_path):
        lines = [f"{i}.5,{i % 2},0.{i}" for i in range(20)]
        lines[12] = "8.0,,0.1"
        lines[4] = "7.0,1,0.1,9"
        path = write(tmp_path, "y,treat,x1\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="^row 5 has 4 fields, expected 3$"):
            load_dataset(path, SCHEMA)


class TestRoundTrip:
    @pytest.mark.parametrize("delimiter", [",", ";", ".", "-"])
    def test_save_matches_csv_writer(self, tmp_path, delimiter):
        # "." and "-" occur inside formatted numbers, so csv.writer quotes them
        d = make_dataset(np.random.default_rng(8), n=40, m=3, p=2)
        d = Dataset(
            outcomes=d.outcomes - 1.0,
            actions=d.actions,
            features=d.features * 1e-6,
            n_actions=3,
            feature_names=("x,1", 'x"2'),
            action_labels=("low", "mid,dle", 'hi"gh'),
        )
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["outcome", "action", *d.feature_names])
        for i in range(d.n_units):
            writer.writerow(
                [repr(float(d.outcomes[i])), d.action_labels[d.actions[i]]]
                + [repr(float(v)) for v in d.features[i]]
            )
        path = tmp_path / "out.csv"
        save_dataset(d, path, delimiter=delimiter)
        assert path.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("delimiter", [",", ";", ".", "-"])
    def test_save_load_round_trip_any_delimiter(self, tmp_path, delimiter):
        d = make_dataset(np.random.default_rng(9), n=30, m=3, p=2)
        d = Dataset(
            outcomes=d.outcomes - 1.0,
            actions=d.actions,
            features=d.features * 1e-6,
            n_actions=3,
            action_labels=("-5", "7", "10"),
        )
        path = tmp_path / "out.csv"
        save_dataset(d, path, delimiter=delimiter)
        back = load_dataset(path, saved_schema(d), delimiter=delimiter)
        assert np.array_equal(back.outcomes, d.outcomes)
        assert np.array_equal(back.actions, d.actions)
        assert np.array_equal(back.features, d.features)
        assert back.action_labels == d.action_labels

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
    def test_save_and_load_refuse_a_quote_or_line_break_delimiter(self, tmp_path, delimiter):
        # the CLI refuses these delimiters, and so does the library
        d = make_dataset(np.random.default_rng(9), n=30, m=3, p=2)
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError, match="1-character"):
            save_dataset(d, path, delimiter=delimiter)
        assert not path.exists()
        save_dataset(d, path)
        with pytest.raises(TypeError, match="1-character"):
            load_dataset(path, saved_schema(d), delimiter=delimiter)

    def test_save_load_is_bit_exact(self, tmp_path):
        d = make_dataset(np.random.default_rng(3), n=60, m=3, p=2)
        path = tmp_path / "out.csv"
        save_dataset(d, path)
        back = load_dataset(path, saved_schema(d))
        assert np.array_equal(back.outcomes, d.outcomes)
        assert np.array_equal(back.actions, d.actions)
        assert np.array_equal(back.features, d.features)
        assert back.action_labels == d.action_labels

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=4,
            max_size=12,
        )
    )
    def test_round_trip_arbitrary_floats(self, tmp_path_factory, outcomes):
        n = len(outcomes)
        d = Dataset(
            outcomes=np.array(outcomes),
            actions=np.arange(n) % 2,
            features=np.linspace(-1, 1, n)[:, None],
            n_actions=2,
        )
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        save_dataset(d, path)
        back = load_dataset(path, saved_schema(d))
        assert np.array_equal(back.outcomes, d.outcomes)
        assert np.array_equal(back.features, d.features)

    def test_recode_is_a_bijection(self, tmp_path):
        path = write(
            tmp_path,
            "y,treat,x1\n1,10,0\n2,-5,0\n3,10,0\n4,7,0\n5,-5,0\n6,7,0\n",
        )
        d = load_dataset(path, SCHEMA)
        assert d.action_labels == ("-5", "7", "10")
        # every label maps back to exactly one recoded level and vice versa
        assert sorted(set(d.actions.tolist())) == [0, 1, 2]


class TestDatasetInvariants:
    def test_rejects_single_action(self):
        with pytest.raises(ValueError):
            Dataset(
                outcomes=np.ones(4),
                actions=np.zeros(4, dtype=int),
                features=np.ones((4, 1)),
                n_actions=1,
            )

    def test_rejects_missing_arm(self):
        with pytest.raises(ValueError, match="action 2 unobserved"):
            Dataset(
                outcomes=np.ones(4),
                actions=np.array([0, 1, 0, 1]),
                features=np.ones((4, 1)),
                n_actions=3,
            )

    @pytest.mark.parametrize("action", [1.7, 0.9, np.nan, -np.inf])
    def test_rejects_fractional_or_non_finite_action(self, action):
        # the int64 cast would truncate these to an arm; a whole 1.0 is arm 1
        def build(a):
            actions = np.array([0.0, 1.0, a, 0.0])
            return Dataset(np.ones(4), actions, np.ones((4, 1)), n_actions=2)

        assert build(1.0).actions.tolist() == [0, 1, 1, 0]
        message = re.escape(f"non-integer id {action!r} in actions at row 3")
        with pytest.raises(ValueError, match=message):
            build(action)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(
                outcomes=np.array([1.0, np.nan, 2.0, 3.0]),
                actions=np.array([0, 1, 0, 1]),
                features=np.ones((4, 1)),
                n_actions=2,
            )

    def test_arrays_are_read_only(self):
        d = make_dataset(np.random.default_rng(0), n=20)
        with pytest.raises(ValueError):
            d.outcomes[0] = 99.0


# Per frozen class: its caller-owned arrays, each already in the dtype and
# memory order the class holds (so no conversion copies it), and the rest of
# its constructor arguments.
FROZEN_INPUTS = {
    Dataset: (
        lambda: {
            "outcomes": np.array([1.0, 2.0, 3.0]),
            "actions": np.array([0, 1, 1]),
            "features": np.ones((3, 2)),
        },
        {"n_actions": 2},
    ),
    ArmMoments: (
        lambda: {
            "mu": np.ones((3, 2), order="F"),
            "sigma2": np.ones((3, 2), order="F"),
            "clamped": np.zeros((3, 2), dtype=bool, order="F"),
        },
        {"variance_floor": 0.5},
    ),
    PolicyAssignment: (
        lambda: {"actions": np.array([1, 0])},
        {"n_actions": 2},
    ),
    PropensityMatrix: (
        lambda: {"p": np.full((2, 2), 0.5)},
        {"clip_bounds": (0.01, 0.99), "clipped_count": 0},
    ),
    MultinomialLogitModel: (
        lambda: {"coefficients": np.zeros((1, 2))},
        {"converged": True, "iterations": 1, "final_gradient_norm": 0.0},
    ),
    DGPSpec: (
        lambda: {
            "mean_coeffs": np.ones((2, 2)),
            "noise_scale_coeffs": np.zeros((2, 2)),
            "assignment_coeffs": np.zeros((2, 2)),
        },
        {"n_units": 5, "n_actions": 2, "n_features": 1, "assignment": "logit"},
    ),
    OracleData: (
        lambda: {
            "potential_outcomes": np.array([[1.0, 5.0], [3.0, 2.0]]),
            "true_mu": np.zeros((2, 2)),
            "true_sigma": np.ones((2, 2)),
            "true_propensity": np.full((2, 2), 0.5),
        },
        {
            "dataset": Dataset(
                outcomes=np.array([1.0, 2.0]),
                actions=np.array([0, 1]),
                features=np.ones((2, 1)),
                n_actions=2,
            )
        },
    ),
}


@pytest.mark.parametrize("cls", FROZEN_INPUTS, ids=lambda cls: cls.__name__)
def test_freezes_a_view_not_the_callers_array(cls):
    arrays, others = FROZEN_INPUTS[cls]
    given = arrays()
    held = cls(**given, **others)
    for name, array in given.items():
        kept = getattr(held, name)
        assert array.flags.writeable, f"{cls.__name__}.{name} froze the caller's array"
        assert not kept.flags.writeable, f"{cls.__name__}.{name} is writeable"
        assert np.shares_memory(kept, array), f"{cls.__name__}.{name} was copied"


def id_checks():
    """Per entry point that takes arm ids or class labels: a call on a
    12-unit id vector, the bound its ids lie below and the name its
    messages give them. Class labels are ids in 0..N-1, since each class
    must be observed."""
    n, m = 12, 3
    spec = DGPSpec(
        n_units=n,
        n_actions=m,
        n_features=1,
        mean_coeffs=np.ones((m, 2)),
        noise_scale_coeffs=np.zeros((m, 2)),
        seed=3,
    )
    oracle = generate(spec)
    q = np.zeros((n, m))
    props = clip_propensities(np.full((n, m), 1.0 / m))
    x = np.random.default_rng(3).standard_normal((n, 1))
    return {
        "Dataset": (lambda a: Dataset(np.ones(n), a, x, n_actions=m), m, "actions"),
        "PolicyAssignment": (
            lambda a: PolicyAssignment(a, m),
            m,
            "actions",
        ),
        "value_ra": (lambda a: value_ra(q, a), m, "policy"),
        "value_ipw": (lambda a: value_ipw(oracle.dataset, a, props), m, "policy"),
        "value_dr": (lambda a: value_dr(oracle.dataset, a, q, props), m, "policy"),
        "true_value": (lambda a: true_value(oracle, a), m, "policy"),
        "fit_mnlogit": (lambda a: fit_mnlogit(x, a), n, "class labels"),
    }


@pytest.mark.parametrize("bad", ["1.7", "nan", "-1", "bound"])
@pytest.mark.parametrize("entry", list(id_checks()))
def test_every_id_check_gives_one_message(entry, bad):
    # the same ids pass as int64 and as whole floats; one bad id at row 5
    # gets the same message form wherever it enters
    call, bound, where = id_checks()[entry]
    ids = np.arange(12) % 3
    call(ids)
    if bad in ("1.7", "nan"):
        ids = ids.astype(np.float64)
        call(ids)
        ids[4] = float(bad)
        message = f"non-integer id {bad} in {where} at row 5"
    else:
        ids[4] = -1 if bad == "-1" else bound
        message = f"id {ids[4]} outside 0..{bound - 1} in {where} at row 5"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(ids)


def test_id_shape_checked_before_the_ids():
    # a row is only meaningful in a vector of one id per unit
    bad = np.array([[0, 1], [1, 5]])
    with pytest.raises(ValueError, match="disagree on N"):
        Dataset(np.ones(2), bad, np.ones((2, 1)), n_actions=2)
    with pytest.raises(ValueError, match="one arm per unit"):
        PolicyAssignment(bad, 2)


ZERO_UNITS = {
    "scatter_svg": lambda: scatter_svg(np.empty(0), np.empty(0), np.empty(0, int), title="t"),
    "ArmMoments": lambda: ArmMoments(
        np.empty((0, 2)), np.ones((0, 2)), 0.1, np.zeros((0, 2), dtype=bool)
    ),
    "PropensityMatrix": lambda: PropensityMatrix(np.empty((0, 2)), (0.01, 0.99), 0),
    "clip_propensities": lambda: clip_propensities(np.empty((0, 2))),
    "PolicyAssignment": lambda: PolicyAssignment(np.empty(0, int), 2),
    "value_ra": lambda: value_ra(np.empty((0, 2)), np.empty(0, int)),
}


@pytest.mark.parametrize("entry", list(ZERO_UNITS))
def test_zero_units_refused_before_any_reduction(entry):
    # one message from the package, not NumPy's zero-size reduction error
    # or an empty-mean RuntimeWarning (an error under -W error)
    with pytest.raises(ValueError, match=f"^{entry} needs at least one unit$"):
        ZERO_UNITS[entry]()


ZERO_ARMS = {
    "ArmMoments": lambda: ArmMoments(
        np.empty((3, 0)), np.ones((3, 0)), 0.1, np.zeros((3, 0), dtype=bool)
    ),
    "PropensityMatrix": lambda: PropensityMatrix(np.empty((3, 0)), (0.01, 0.99), 0),
    "clip_propensities": lambda: clip_propensities(np.empty((3, 0))),
}


@pytest.mark.parametrize("entry", list(ZERO_ARMS))
def test_zero_arms_refused_before_any_reduction(entry):
    # not NumPy's zero-size reduction error, nor a row-sum complaint
    with pytest.raises(ValueError, match=f"^{entry} needs at least one arm$"):
        ZERO_ARMS[entry]()


def test_logit_dgp_freezes_listed_assignment_coeffs():
    spec = DGPSpec(
        n_units=5,
        n_actions=2,
        n_features=1,
        mean_coeffs=np.ones((2, 2)),
        noise_scale_coeffs=np.zeros((2, 2)),
        assignment="logit",
        assignment_coeffs=[[0.0, 0.0], [0.0, 0.0]],
    )
    assert not spec.assignment_coeffs.flags.writeable


def test_uniform_dgp_refuses_assignment_coeffs():
    # the uniform draw reads no coefficients, so simulate would hash them
    # into config.json beside byte-identical dataset and oracle files
    with pytest.raises(ValueError, match="^uniform assignment takes no assignment_coeffs$"):
        DGPSpec.from_dict(
            {
                "n_units": 5,
                "n_actions": 2,
                "n_features": 1,
                "mean_coeffs": np.ones((2, 2)),
                "noise_scale_coeffs": np.zeros((2, 2)),
                "assignment": "uniform",
                "assignment_coeffs": np.zeros((2, 2)),
            }
        )


class TestValidate:
    def test_healthy_dataset_passes_clean(self):
        rng = np.random.default_rng(1)
        actions = np.array([0] * 60 + [1] * 40)
        d = Dataset(
            outcomes=rng.random(100) + 1.0,
            actions=actions,
            features=rng.standard_normal((100, 3)),
            n_actions=2,
        )
        report = validate_dataset(d)
        assert report.passed
        assert report.warnings == []
        assert report.arm_counts.tolist() == [60, 40]

    def test_thin_arm_fails(self):
        rng = np.random.default_rng(2)
        actions = np.array([0] * 99 + [1])
        d = Dataset(
            outcomes=rng.random(100),
            actions=actions,
            features=rng.standard_normal((100, 3)),
            n_actions=2,
        )
        report = validate_dataset(d)
        assert not report.passed  # 1 < p + 2

    def test_negative_outcome_warns(self):
        d = make_dataset(np.random.default_rng(3), n=40)
        shifted = replace(d, outcomes=np.where(np.arange(40) == 7, -2.0, d.outcomes))
        report = validate_dataset(shifted)
        assert any("negative outcomes" in w for w in report.warnings)

    def test_arm_counts_sum_to_n(self):
        d = make_dataset(np.random.default_rng(4), n=77, m=3)
        assert validate_dataset(d).arm_counts.sum() == 77
