"""Artifact writers: delimited tables, JSON, SVG scatter plots, manifests.

Everything written here is byte-deterministic: floats use shortest
round-trip formatting, JSON is sorted, SVG coordinates are fixed-precision,
and nothing embeds timestamps or absolute paths. Re-running a command with
identical inputs reproduces identical artifact bytes, which the run manifest
(config hash, input hash, artifact hashes) makes checkable.

Tables and plots are built in bulk, not one cell or one mark at a time.
A scatter plot bins its units into (pixel, arm) cells with one sort of
packed integer keys, and puts each mark's text together from lookup tables
of its pixel coordinates and of its (arm, opacity) tail.
"""

from __future__ import annotations

import csv
import hashlib
import json
from itertools import islice
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# One colour per arm; a plot of more arms than colours is refused rather
# than drawing two arms alike. The first seven are Paul Tol's "bright"
# scheme, the rest from his "muted" and "light" schemes.
PALETTE = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#332288",
    "#882255",
    "#44aa99",
    "#999933",
    "#ee8866",
)


# Rows formatted, written or parsed per step: large enough that the
# per-block overhead is negligible, small enough that one block's text
# stays a small fraction of the table.
ROW_BLOCK = 4096

# Characters that make csv.writer quote a field besides the delimiter. A bare
# "\r" is quoted too: left unquoted it would split the row on reading.
_QUOTE_TRIGGERS = ('"', "\r", "\n")


def _columns(header: Sequence[str], columns: Sequence[object]) -> tuple[list[np.ndarray], int]:
    """Columns as arrays, and their common length."""
    arrays = [np.asarray(col) for col in columns]
    if len(arrays) != len(header):
        raise ValueError(f"{len(header)} column names but {len(arrays)} columns")
    lengths = {len(col) for col in arrays}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return arrays, lengths.pop() if lengths else 0


def _cell_text(column: np.ndarray) -> list[str]:
    """Canonical text of each cell: shortest round-trip repr for floats."""
    values = column.tolist()
    return list(map(repr if column.dtype.kind == "f" else str, values))


def _csv_quoted(cells: list[str], delimiter: str) -> list[str]:
    """``cells`` with csv.writer's minimal quoting; a column none of whose
    cells needs quoting is returned as is."""
    triggers = (delimiter, *_QUOTE_TRIGGERS)
    text = "".join(cells)
    if not any(t in text for t in triggers):
        return cells
    return [
        '"' + c.replace('"', '""') + '"' if any(t in c for t in triggers) else c
        for c in cells
    ]


def _csv_lines(cell_columns: list[list[str]], delimiter: str) -> str:
    """Text of the rows spelled out by ``cell_columns``, one line each."""
    cell_columns = [_csv_quoted(cells, delimiter) for cells in cell_columns]
    if len(cell_columns) == 1:
        # csv.writer quotes a lone empty field so the row is not a blank line
        cell_columns = [['""' if c == "" else c for c in cell_columns[0]]]
    return "\n".join(map(delimiter.join, zip(*cell_columns))) + "\n"


def write_csv(
    path: Path,
    header: Sequence[str],
    columns: Sequence[object],
    *,
    delimiter: str = ",",
) -> None:
    """Write a delimited table from one column per header name.

    Cells are formatted a column at a time, ``ROW_BLOCK`` rows per step:
    floats in shortest round-trip form, everything else with ``str``. The
    bytes equal those of ``csv.writer(fh, delimiter=delimiter,
    lineterminator="\n")`` given the same cell text row by row.
    """
    if len(delimiter) != 1:
        raise TypeError('"delimiter" must be a 1-character string')
    arrays, n_rows = _columns(header, columns)
    with path.open("w", newline="") as fh:
        fh.write(_csv_lines([[str(h)] for h in header], delimiter))
        for start in range(0, n_rows, ROW_BLOCK):
            block = [_cell_text(col[start : start + ROW_BLOCK]) for col in arrays]
            fh.write(_csv_lines(block, delimiter))


def _json_text(column: np.ndarray) -> list[str]:
    """Cell text as ``json.dumps`` spells each value."""
    if column.dtype.kind in "iu" or (
        column.dtype.kind == "f" and np.isfinite(column).all()
    ):
        return _cell_text(column)
    return list(map(json.dumps, column.tolist()))


def write_json_table(path: Path, header: Sequence[str], columns: Sequence[object]) -> None:
    """Write a table as a JSON list of one record per row.

    The bytes equal ``write_json(path, [dict(zip(header, row)) ...])``: each
    row fills a record template whose keys are sorted and indented the way
    ``json.dumps(records, indent=2, sort_keys=True)`` lays them out.
    """
    arrays, n_rows = _columns(header, columns)
    if n_rows == 0:
        write_json(path, [])
        return
    position = {key: j for j, key in enumerate(header)}  # a repeated key keeps its last column
    keys = sorted(position)
    template = "  {\n" + ",\n".join(
        "    " + json.dumps(key).replace("%", "%%") + ": %s" for key in keys
    ) + "\n  }"
    order = [arrays[position[key]] for key in keys]
    with path.open("w") as fh:
        fh.write("[\n")
        for start in range(0, n_rows, ROW_BLOCK):
            block = [_json_text(col[start : start + ROW_BLOCK]) for col in order]
            if start:
                fh.write(",\n")
            fh.write(",\n".join(map(template.__mod__, zip(*block))))
        fh.write("\n]\n")


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _raise_first_bad(rows: list[list[str]], row1: int, header: list[str], kept: list[int]) -> None:
    """Name the first ragged row, or bad ``kept`` cell, of rows ``row1, ...``."""
    for i, row in enumerate(rows, start=row1):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} fields, expected {len(header)}")
        for j in kept:
            try:
                float(row[j])
            except ValueError:
                problem = f"non-numeric value {row[j]!r}" if row[j].strip() else "blank value"
                raise ValueError(f"{problem} in column '{header[j]}' at row {i}") from None


def read_csv(
    path: Path, usecols: Callable[[str], bool] | None = None, *, delimiter: str = ","
) -> tuple[list[str], np.ndarray]:
    """Read the numeric columns of a delimited table: datasets and artifacts.

    Returns the stripped header names kept by ``usecols`` (all by default)
    and their values as an ``(n_rows, n_columns)`` float array, parsed
    ``ROW_BLOCK`` rows and one column at a time with ``float``, so values
    read back bit-exactly. Blank lines are skipped; data rows count from 1.
    A ragged row or a blank or non-numeric kept cell raises ``ValueError``
    naming the first such row and column.
    """
    with path.open(newline="") as fh:
        rows = filter(None, csv.reader(fh, delimiter=delimiter))
        first = next(rows, None)
        if first is None:
            raise ValueError(f"empty file: {path}")
        header = [h.strip() for h in first]
        kept = [j for j, name in enumerate(header) if usecols is None or usecols(name)]
        blocks = []
        while block := list(islice(rows, ROW_BLOCK)):
            try:
                if any(len(row) != len(header) for row in block):
                    raise ValueError
                fields = list(zip(*block))
                values = np.empty((len(block), len(kept)))
                for k, j in enumerate(kept):
                    # float() strips surrounding whitespace itself and rejects blanks
                    values[:, k] = np.fromiter(map(float, fields[j]), np.float64, len(block))
            except ValueError:
                # every block before this one holds ROW_BLOCK rows
                _raise_first_bad(block, len(blocks) * ROW_BLOCK + 1, header, kept)
                raise
            blocks.append(values)
    names = [header[j] for j in kept]
    return names, np.concatenate(blocks) if blocks else np.empty((0, len(kept)))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def write_manifest(
    outdir: Path,
    *,
    config_payload: object,
    input_sha256: str | None,
    artifact_names: Sequence[str],
) -> None:
    """Write ``manifest.json``, the hashes of the run configuration, input and
    artifacts; the caller passes the input's hash, which it may have checked."""
    manifest = {
        "config_sha256": sha256_bytes(
            json.dumps(config_payload, sort_keys=True).encode()
        ),
        "input_sha256": input_sha256,
        "artifacts": {
            name: sha256_file(outdir / name) for name in sorted(artifact_names)
        },
    }
    write_json(outdir / "manifest.json", manifest)


SVG_WIDTH, SVG_HEIGHT = 640, 480
SVG_XLABEL, SVG_YLABEL = "sigma (risk)", "mu (return)"

# A mark's text, '<circle cx="X" cy="Y" r="2.5" fill="C" fill-opacity="O"/>',
# is the head of its x pixel, the text of its y pixel and its (arm, opacity) tail.
_MARK_HEAD = np.array([f'<circle cx="{i}" cy="' for i in range(SVG_WIDTH)], dtype=object)
_MARK_Y = np.array([str(j) for j in range(SVG_HEIGHT)], dtype=object)


def _occupied_cells(
    cx: np.ndarray, cy: np.ndarray, arm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (cx, cy, arm) triples of the units and the number of
    units in each, ordered by the first unit in each triple; ``cx`` and
    ``cy`` are whole pixels inside the canvas.

    Unit ``u`` of the n units, in cell ``key``, is packed as
    ``key * n + u``. The packed values are distinct, so one plain sort
    orders the units by key and then by unit, each run of one key starts
    with its cell's first unit, and an argsort of the first units gives
    the draw order. A key is below ``12 * 480 * 640``, so ``key * n`` stays
    below 2**63 for n < 2.5e12.
    """
    n = cx.size
    key = (arm * SVG_HEIGHT + cy) * SVG_WIDTH + cx
    packed = np.sort(key * n + np.arange(n))
    key = packed // n
    start = np.empty(n, dtype=bool)
    start[:1] = True
    np.not_equal(key[1:], key[:-1], out=start[1:])
    start = np.flatnonzero(start)
    counts = np.diff(start, append=n)
    first = packed[start] - key[start] * n
    order = np.argsort(first)
    first = first[order]
    return cx[first], cy[first], arm[first], counts[order]


def scatter_svg(
    x: np.ndarray,
    y: np.ndarray,
    color_index: np.ndarray,
    *,
    title: str,
    legend_labels: Sequence[str] = (),
) -> str:
    """Static scatter plot as an SVG document string.

    Each unit falls in a 1-px cell, its point rounded to whole pixels, and
    each occupied (cell, arm) pair is drawn as one mark in the arm's
    ``PALETTE`` colour, with the opacity of k stacked single-unit marks,
    ``1 - 0.3**k``. Marks follow the order of the first unit in each pair,
    so the file size is bounded by the canvas and the number of arms, not
    by the number of units. The pairs come from one sort of packed
    ``key * n + unit`` values (see ``_occupied_cells``; exact while
    ``key * n < 2**63``, that is for n < 2.5e12 units). Each mark's text
    is a lookup of its x-pixel head and y-pixel text joined to a tail per
    (arm, distinct opacity), formatted once with ``%.3f``.

    ``color_index`` holds each unit's arm. A whole arm id or a legend
    entry beyond ``PALETTE``, a fractional, NaN or infinite arm id
    (``non-integer id 1.7 in color_index at row 3``, the package's one id
    rule), a non-finite coordinate or inputs of unequal length raise
    ``ValueError``. ``&``, ``<`` and ``>`` in the title and legend labels
    are escaped. Output is deterministic for identical inputs.
    """
    # imported here: data imports this module inside its functions only, so
    # there is no cycle, and commands that draw no plot skip html's entity table
    from html import escape

    from .data import _ids, _whole

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    color_index = np.asarray(color_index)
    limit = len(PALETTE)
    beyond = color_index[(color_index < 0) | (color_index >= limit)]
    if len(legend_labels) > limit or _whole(beyond).any():
        raise ValueError(f"scatter_svg has colours for at most {limit} arms (0..{limit - 1})")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("scatter_svg needs finite coordinates")
    if not x.shape == y.shape == color_index.shape == (len(x),):
        raise ValueError("scatter_svg needs x, y and color_index of one length")
    # what is left to refuse is a fraction, NaN or infinity, which a cast would truncate
    color_index = _ids(color_index, limit, "color_index")
    left, right, top, bottom = 62, 18, 34, 48
    plot_w = SVG_WIDTH - left - right
    plot_h = SVG_HEIGHT - top - bottom

    def span(values: np.ndarray) -> tuple[float, float]:
        lo, hi = float(values.min()), float(values.max())
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad

    x_lo, x_hi = span(x)
    y_lo, y_hi = span(y)

    def px(v):
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return top + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in np.linspace(x_lo, x_hi, 5):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{top + plot_h}" x2="{tx:.2f}" '
            f'y2="{top + plot_h + 4}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{top + plot_h + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tick:.3g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 5):
        ty = py(tick)
        parts.append(
            f'<line x1="{left - 4}" y1="{ty:.2f}" x2="{left}" y2="{ty:.2f}" '
            'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{left - 7}" y="{ty + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{SVG_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{SVG_XLABEL}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">{SVG_YLABEL}</text>'
    )
    cx, cy, arm, count = _occupied_cells(
        np.rint(px(x)).astype(np.int64), np.rint(py(y)).astype(np.int64), color_index
    )
    # the alpha of k stacked single-unit marks at opacity 0.7; from k = 32 on
    # it is 1.0, so there are at most 32 distinct values to format
    opacity, which = np.unique(1.0 - 0.3**count, return_inverse=True)
    tail = np.array(
        [
            [f'" r="2.5" fill="{colour}" fill-opacity="{o:.3f}"/>' for o in opacity.tolist()]
            for colour in PALETTE
        ],
        dtype=object,
    )
    parts += (_MARK_HEAD[cx] + _MARK_Y[cy] + tail[arm, which]).tolist()
    for i, name in enumerate(legend_labels):
        ly = top + 12 + 16 * i
        parts.append(
            f'<circle cx="{left + plot_w - 78}" cy="{ly}" r="4" fill="{PALETTE[i]}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 68}" y="{ly + 4}" '
            f'font-family="sans-serif" font-size="11">{escape(f"arm {name}", quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
