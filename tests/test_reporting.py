"""Column-wise table writers and reader, checked against csv.writer and
json.dumps, and the binned scatter SVG, checked against a per-unit reference."""

import csv
import io
import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplearn.reporting import (
    PALETTE,
    ROW_BLOCK,
    SVG_HEIGHT,
    SVG_WIDTH,
    _occupied_cells,
    read_csv,
    scatter_svg,
    write_csv,
    write_json_table,
)

from helpers import (
    PLOT_H,
    PLOT_W,
    occupied_cells_oracle,
    read_csv_oracle,
    reference_cells,
    reference_marks,
    svg_marks,
)

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
    "text with NUL bytes": (["note", "v"], [np.array(["a\x00b", "\x00", "c\x00"]), FLOATS[:3]]),
    "float32 column": (
        ["f", "unit"],
        [np.array([0.1, -1e-5, 3.4e38, 1.5, np.nan, 1e-40], dtype=np.float32), np.arange(6)],
    ),
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


@pytest.mark.parametrize("delimiter", ['"', "\r", "\n", ";;", ""])
def test_csv_writer_and_reader_refuse_a_delimiter_no_reader_can_split_on(tmp_path, delimiter):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="1-character"):
        write_csv(path, ["a"], [[0, 1, 2]], delimiter=delimiter)
    assert not path.exists()
    path.write_text("a\n0\n")
    with pytest.raises(TypeError, match="1-character"):
        read_csv(path, delimiter=delimiter)


def edge_floats():
    """At least 10**6 floats around every edge of the fixed-notation range
    of repr, both signs."""
    powers = np.array([float(f"1e{p}") for p in range(-5, 18)])
    up, down, near = powers, powers, [powers]
    for _ in range(60):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    gen = np.random.default_rng(27)
    digits, places = gen.integers(1, 10**6, 300_000), gen.integers(0, 23, 300_000)
    shifts = gen.integers(0, 12, 100_000)
    values = np.concatenate(
        [
            [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            *near,
            twos, np.nextafter(twos[1:], 0.0), np.nextafter(twos[:-1], np.inf),
            np.arange(1, 2000) * 5e-324,  # subnormals
            gen.integers(1, 2**52, 20_000).view(np.float64),
            np.arange(100_000, dtype=float), 2.0**53 - np.arange(20_000),
            gen.integers(0, 2**53, 100_000).astype(float),
            digits / 10.0**places,  # short decimals, correctly rounded
            gen.integers(1, 10**4, 100_000) * 10.0**shifts,
            gen.standard_normal(50_000), gen.lognormal(0.0, 8.0, 50_000),
        ]
    )
    return np.concatenate([values, -values])


def test_write_csv_matches_csv_writer_on_the_edge_floats(tmp_path):
    values = edge_floats()
    assert values.size >= 10**6
    columns = list(values[: values.size // 8 * 8].reshape(8, -1))
    header = [f"c{j}" for j in range(8)]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == csv_writer_text(header, columns, ",").encode()
    # with "." as the delimiter every fixed-notation cell is quoted
    fixed = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
    part = fixed[:: fixed.size // 10**4][: 10**4]
    write_csv(path, ["v"], [part], delimiter=".")
    text = path.read_text()
    assert text == csv_writer_text(["v"], [part], ".")
    assert text.count('"') == 2 * part.size


FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats() | FLOAT_BITS, min_size=1, max_size=40),
    st.sampled_from([",", ";", ".", "-", "5", "e"]),
)
def test_write_csv_float_column_matches_csv_writer(tmp_path_factory, values, delimiter):
    path = tmp_path_factory.mktemp("floats") / "t.csv"
    columns = [values, np.arange(len(values))]
    write_csv(path, ["v", "unit"], columns, delimiter=delimiter)
    assert path.read_bytes() == csv_writer_text(["v", "unit"], columns, delimiter).encode()


def test_read_csv_reads_past_a_byte_order_mark(tmp_path):
    header, columns = CASES["more rows than a block"]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(plain, header, columns)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    names, values = read_csv(marked)
    assert names == header
    assert np.array_equal(values, read_csv(plain)[1])
    marked.write_bytes(b"\xef\xbb\xbfunit,mu\n0,1.5\n1\n")
    with pytest.raises(ValueError, match="^row 2 has 1 fields, expected 2$"):
        read_csv(marked, lambda name: name == "unit")


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


def _read(reader, path, usecols, delimiter):
    """``reader``'s names and value bits, or its ``ValueError`` message."""
    try:
        names, values = reader(path, usecols, delimiter=delimiter)
    except ValueError as exc:
        return str(exc)
    return names, values.shape, values.view(np.uint64).tolist()


NUMBERS = st.one_of(
    st.floats(width=64).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["0", "-0", "+0.0", "-0.0", "nan", "-nan", "NaN", "+NAN", "inf", "-Inf",
         "Infinity", "-INFINITY", "1e400", "-1E400", "5e-324", "2.5e-310", "1.", ".5", "007"]
    ),
)
# cells both readers refuse; the cells only float() takes (digit groups,
# non-ASCII digits) are left to the refusal test below
BAD_CELLS = st.sampled_from(["", " ", "abc", "1 5", "1e", "--1", "0x10", "nan(1)", "in f", '"'])
PADDING = st.sampled_from(["", "", " ", "  ", "\t", "\x0c", "\u00a0", "\u2003"])


@st.composite
def numeric_cells(draw):
    cell = draw(st.one_of(NUMBERS, NUMBERS, NUMBERS, BAD_CELLS))
    if draw(st.booleans()):
        cell = draw(PADDING) + cell + draw(PADDING)
    if draw(st.integers(0, 3)) == 0:
        cell = '"' + cell.replace('"', '""') + '"'
    return draw(PADDING) + cell if draw(st.integers(0, 5)) == 0 else cell


def text_cells(delimiter):
    pieces = st.sampled_from(["a", "Z", "1", " ", '"', "\n", "\r\n", delimiter])
    return st.lists(pieces, max_size=6).map(lambda t: '"' + "".join(t).replace('"', '""') + '"')


@st.composite
def tables(draw):
    """The text of a delimited table, its delimiter and kept column names."""
    delimiter = draw(st.sampled_from([",", ";"]))
    n_numeric = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(n_numeric)]
    note = draw(st.none() | st.integers(0, n_numeric))
    if note is not None:
        header.insert(note, "note")
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        row = [
            draw(text_cells(delimiter)) if name == "note" else draw(numeric_cells())
            for name in header
        ]
        if draw(st.integers(0, 9)) == 0:  # a ragged row
            row = row[:-1] if draw(st.booleans()) else [*row, draw(numeric_cells())]
        rows.append(delimiter.join(row))
        rows.extend([""] * draw(st.sampled_from([0, 0, 0, 1, 2])))  # blank lines
    lines = [delimiter.join(draw(PADDING) + h for h in header), *rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    kept = draw(st.sets(st.sampled_from(header)) | st.none())
    return text, delimiter, kept


@settings(max_examples=300, deadline=None)
@given(tables())
def test_read_csv_matches_the_per_cell_oracle(tmp_path_factory, table):
    text, delimiter, kept = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(text.encode())
    usecols = None if kept is None else kept.__contains__
    assert _read(read_csv, path, usecols, delimiter) == _read(
        read_csv_oracle, path, usecols, delimiter
    )


@pytest.mark.parametrize("cell", ["1_000", "1_0.5", "\u0661", "\uff11", "2\u0660"])
def test_read_csv_refuses_digit_groups_and_non_ascii_digits(tmp_path, cell):
    # float() takes these cells; np.loadtxt does not, and read_csv names them
    path = tmp_path / "t.csv"
    path.write_text(f"unit,mu\n0,1.5\n1,{cell}\n")
    assert read_csv_oracle(path)[1][1, 1] == float(cell)
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert str(info.value) == f"non-numeric value {cell!r} in column 'mu' at row 2"


def test_read_csv_takes_unicode_space_padding(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("unit,mu\n\u20030\u00a0,\u3000-1.5e-3\u2009\n")
    assert read_csv(path)[1].tolist() == [[0.0, -1.5e-3]]


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


def _cells_case(name):
    if name == "one_unit":
        return np.array([300]), np.array([200]), np.array([4])
    if name == "one_cell":
        return np.full(50, 100), np.full(50, 90), np.full(50, 2)
    if name == "corners":
        # arm 11 at the bottom-right pixel is the largest key
        cx = np.tile([0, SVG_WIDTH - 1, 0, SVG_WIDTH - 1], 6)
        cy = np.tile([0, 0, SVG_HEIGHT - 1, SVG_HEIGHT - 1], 6)
        return cx, cy, np.repeat([0, 11, 11, 0, 0, 11], 4)
    rng, n = np.random.default_rng(12), 100_000
    return rng.integers(62, 80, n), rng.integers(34, 50, n), rng.integers(0, 12, n)


@pytest.mark.parametrize("case", ["one_unit", "one_cell", "corners", "random_ties"])
def test_occupied_cells_match_the_unique_oracle(case):
    cx, cy, arm = _cells_case(case)
    got = _occupied_cells(cx, cy, arm)
    want = occupied_cells_oracle(cx, cy, arm)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def on_one_axes(n, m=3):
    """``n`` units near a line, the first two fixing the same axes for every ``n``."""
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, n)
    y = 2.0 * x + 0.01 * rng.standard_normal(n)
    x[:2], y[:2] = (0.0, 1.0), (-0.5, 2.5)
    return x, y, rng.integers(0, m, n)


@pytest.mark.parametrize(
    "n, m",
    [
        pytest.param(2_000, 3, id="2000"),
        pytest.param(50_000, 3, id="50000"),
        pytest.param(200_000, 12, id="200000_12_arms"),
    ],
)
def test_scatter_marks_are_bounded_by_the_canvas(n, m):
    x, y, arms = on_one_axes(n, m)
    labels = [str(a) for a in range(m)]
    svg = scatter_svg(x, y, arms, title="t", legend_labels=labels)
    marks = svg_marks(svg)
    assert marks == reference_marks(x, y, arms, PALETTE)
    assert len(marks) <= PLOT_W * PLOT_H * m
    assert svg.count("<circle") == len(marks) + len(labels)
    assert scatter_svg(x, y, arms, title="t", legend_labels=labels) == svg
    if n > 2_000:
        # most units share a cell and arm with an earlier one
        assert len(marks) < n // 4
    if m == 12:
        # distinct opacities that print alike: 1 - 0.3**k is "1.000" for k >= 7
        crowded = {k for k in reference_cells(x, y, arms).values() if k >= 7}
        assert len(crowded) > 5


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [1.7, np.nan, np.inf])
def test_non_integer_arms_are_refused(bad):
    x, y, _ = on_one_axes(3)
    arms = np.array([0.0, 1.0, bad])
    message = f"non-integer id {bad!r} in color_index at row 3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scatter_svg(x, y, arms, title="t")


def test_title_and_legend_text_are_escaped():
    x, y, arms = on_one_axes(10)
    labels = ["a<b", "c&d", "e>f"]
    svg = scatter_svg(x, y, arms, title="mu < 0 & risk", legend_labels=labels)
    texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "mu < 0 & risk"
    assert texts[-3:] == ["arm a<b", "arm c&d", "arm e>f"]


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
