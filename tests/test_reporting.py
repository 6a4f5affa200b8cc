"""Column-wise table writers and reader, checked against csv.writer and
json.dumps, and the binned scatter SVG, checked against a per-unit reference."""

import csv
import io
import json

import numpy as np
import pytest

from oplearn.reporting import (
    PALETTE,
    ROW_BLOCK,
    _occupied_cells,
    read_csv,
    scatter_svg,
    write_csv,
    write_json_table,
)

from helpers import PLOT_H, PLOT_W, reference_marks, svg_marks

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


def test_occupied_cells_group_every_unit_once():
    rng = np.random.default_rng(3)
    cx, cy, arm = rng.integers(62, 70, 5000), rng.integers(34, 40, 5000), rng.integers(0, 3, 5000)
    cells = _occupied_cells(cx, cy, arm)
    triples = list(zip(*(c.tolist() for c in cells[:3])))
    assert cells[3].sum() == 5000 and (cells[3] >= 1).all()
    assert len(set(triples)) == len(triples)
    units = list(zip(cx.tolist(), cy.tolist(), arm.tolist()))
    assert sorted(triples) == sorted(set(units))
    # ordered by the first unit in each triple
    assert triples == list(dict.fromkeys(units))


def on_one_axes(n, m=3):
    """``n`` units near a line, the first two fixing the same axes for every ``n``."""
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, n)
    y = 2.0 * x + 0.01 * rng.standard_normal(n)
    x[:2], y[:2] = (0.0, 1.0), (-0.5, 2.5)
    return x, y, rng.integers(0, m, n)


@pytest.mark.parametrize("n", [2_000, 50_000])
def test_scatter_marks_are_bounded_by_the_canvas(n):
    x, y, arms = on_one_axes(n)
    labels = ["0", "1", "2"]
    svg = scatter_svg(x, y, arms, title="t", legend_labels=labels)
    marks = svg_marks(svg)
    assert marks == reference_marks(x, y, arms, PALETTE)
    assert len(marks) <= PLOT_W * PLOT_H * 3
    assert svg.count("<circle") == len(marks) + len(labels)
    assert scatter_svg(x, y, arms, title="t", legend_labels=labels) == svg
    if n == 50_000:
        # most units share a cell and arm with an earlier one
        assert len(marks) < n // 4


def test_eight_arms_get_eight_colours():
    x, y, arms = on_one_axes(400, m=8)
    svg = scatter_svg(x, y, arms, title="t", legend_labels=[str(a) for a in range(8)])
    legend = [line.split('fill="')[1][:7] for line in svg.splitlines() if 'r="4"' in line]
    assert len(set(legend)) == 8
    assert {fill for _, _, fill, _ in svg_marks(svg)} == set(legend)


@pytest.mark.parametrize(
    "arms, labels",
    [
        (np.arange(13) % 13, []),
        (np.arange(13) % 12, [str(a) for a in range(13)]),
        (np.arange(13) - 1, []),
    ],
    ids=["arm_12", "thirteen_labels", "arm_minus_one"],
)
def test_arms_beyond_the_palette_are_refused(arms, labels):
    x, y, _ = on_one_axes(13)
    with pytest.raises(ValueError, match="colours for at most 12 arms"):
        scatter_svg(x, y, arms, title="t", legend_labels=labels)


def test_non_finite_coordinates_are_refused():
    x, y, arms = on_one_axes(10)
    x[3] = np.nan
    with pytest.raises(ValueError, match="finite coordinates"):
        scatter_svg(x, y, arms, title="t")


@pytest.mark.parametrize("arms", [np.zeros(1, dtype=int), np.zeros(9, dtype=int)])
def test_unequal_lengths_are_refused(arms):
    x, y, _ = on_one_axes(10)
    with pytest.raises(ValueError, match="of one length"):
        scatter_svg(x, y, arms, title="t")
