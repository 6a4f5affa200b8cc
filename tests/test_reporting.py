"""Column-wise table writers and reader, checked against csv.writer and json.dumps."""

import csv
import io
import json

import numpy as np
import pytest

from oplearn.reporting import ROW_BLOCK, read_csv, write_csv, write_json_table

rng = np.random.default_rng(5)
FLOATS = np.concatenate(
    [rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8, 6), [0.0, -0.0, 1e-300, 2.5e16]]
)
LONG = ROW_BLOCK + 3

# name -> (header, columns)
CASES = {
    "numbers": (["unit", "mu"], [np.arange(10), FLOATS]),
    "labels with comma and quote": (
        ["preference", "count"],
        [np.array(["a,b", 'say "hi"', "", "x\ny"]), np.arange(4)],
    ),
    "header with comma, quote and percent": (
        ["x,1", 'x"2', "%s"],
        [FLOATS[:3], FLOATS[3:6], [1, 2, 3]],
    ),
    "no data rows": (["unit", "arm", "mu"], [[], [], []]),
    "single text column with blanks": (["note"], [np.array(["", "a", ""])]),
    "non-finite and non-ascii": (["z", "a"], [[np.nan, np.inf, -np.inf], ["é", "ß", "z"]]),
    "more rows than a block": (["v", "unit"], [rng.standard_normal(LONG), np.arange(LONG)]),
}


def cell(value):
    """Canonical text of one cell: shortest round-trip repr for floats."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_of(columns):
    return list(zip(*(np.asarray(col).tolist() for col in columns)))


def csv_writer_text(header, columns, delimiter):
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows_of(columns))
    return buf.getvalue()


@pytest.mark.parametrize("delimiter", [",", ";", ".", "-"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_write_csv_matches_csv_writer(tmp_path, case, delimiter):
    header, columns = CASES[case]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns, delimiter=delimiter)
    assert path.read_bytes() == csv_writer_text(header, columns, delimiter).encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_write_json_table_matches_json_dumps(tmp_path, case):
    header, columns = CASES[case]
    records = [dict(zip(header, row)) for row in rows_of(columns)]
    path = tmp_path / "t.json"
    write_json_table(path, header, columns)
    assert path.read_text() == json.dumps(records, indent=2, sort_keys=True) + "\n"


def test_write_csv_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError, match="2 column names but 1 columns"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1]])
    with pytest.raises(TypeError, match="1-character"):
        write_csv(tmp_path / "t.csv", ["a"], [[1]], delimiter=";;")


def test_read_csv_round_trip_is_bit_exact(tmp_path):
    header, columns = CASES["more rows than a block"]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    names, values = read_csv(path)
    assert names == header and values.shape == (LONG, 2)
    assert np.array_equal(values[:, 0], columns[0])
    assert np.array_equal(values[:, 1], columns[1])
    names, values = read_csv(path, lambda h: h == "unit")
    assert names == ["unit"] and np.array_equal(values[:, 0], columns[1])


def test_read_csv_header_only_and_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("unit,mu\n")
    names, values = read_csv(path)
    assert names == ["unit", "mu"] and values.shape == (0, 2)
    path.write_text("unit,mu\n\n0,1.5\n\n1,-2e-05\n")
    assert read_csv(path)[1].tolist() == [[0.0, 1.5], [1.0, -2e-05]]


def test_read_csv_ragged_row_names_the_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("unit,mu\n0,1.5\n1\n")
    with pytest.raises(ValueError, match="^row 2 has 1 fields, expected 2$"):
        read_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0;1.5\n1; \n", "blank value in column 'mu' at row 2"),
        ("0;1.5\n1;abc\n", "non-numeric value 'abc' in column 'mu' at row 2"),
        ("0;x;1.5\n", "row 1 has 3 fields, expected 2"),
    ],
)
def test_read_csv_bad_cell_names_row_and_column(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text(" unit ; mu\n" + body)
    with pytest.raises(ValueError) as info:
        read_csv(path, delimiter=";")
    assert str(info.value) == message


def test_read_csv_skips_unkept_columns_and_strips_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" unit ;note; mu\n0;a b;1.5\n1;;2\n")
    names, values = read_csv(path, {"unit", "mu"}.__contains__, delimiter=";")
    assert names == ["unit", "mu"] and values.tolist() == [[0.0, 1.5], [1.0, 2.0]]
