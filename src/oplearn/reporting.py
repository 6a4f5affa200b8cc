"""Artifact writers: delimited tables, JSON, SVG scatter plots, manifests.

Everything written here is byte-deterministic: floats use shortest
round-trip formatting, JSON is sorted, SVG coordinates are fixed-precision,
and nothing embeds timestamps or absolute paths. Re-running a command with
identical inputs reproduces identical artifact bytes, which the run manifest
(input hash, artifact hashes, ``config.json`` among the artifacts) makes
checkable.

Tables and plots are built in bulk, not one cell or one mark at a time.
A CSV table is written a block of rows at a time, each block one byte
matrix of fixed-width cells, and its bytes equal ``csv.writer``'s for the
``repr`` of each float and the ``str`` of every other cell. Floats with
1e-4 <= |x| < 1e16, the range where ``repr`` writes no exponent, get
``repr``'s shortest round-trip digits from exact integer arithmetic on
whole columns (``_shortest``); the other floats (zero, NaN, infinities,
other magnitudes, and exact ties between two shortest candidates) and
number cells that hold the delimiter fall back to ``repr`` one cell at a
time. A scatter plot bins its units into (pixel, arm) cells with one sort
of packed integer keys, and puts each mark's text together from lookup
tables of its pixel coordinates and of its (arm, opacity) tail.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

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


# Rows formatted and written per step: large enough that the per-block
# overhead is small, small enough that a block's byte matrix and the float
# formatter's int64 work arrays stay a few megabytes. At 4096 rows the peak
# RSS of simulating 10,000 units with 4 arms rose by a fifth.
ROW_BLOCK = 2048

# Characters that make csv.writer quote a field besides the delimiter. A bare
# "\r" is quoted too: left unquoted it would split the row on reading.
_QUOTE_TRIGGERS = ('"', "\r", "\n")

# Padding of the fixed-width cell slots of a block: UTF-8 never writes the
# byte 0xFF, so it cannot stand for a byte of any cell, a NUL included.
_PAD = 0xFF

# The characters of a number cell that the vectorised formatters write; a
# delimiter among them means some number cells must be quoted.
_NUMBER_CHARS = "-.0123456789"


def _check_delimiter(delimiter: object) -> str:
    """``delimiter`` if it can separate the fields of a table, else TypeError."""
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in _QUOTE_TRIGGERS:
        raise TypeError(
            "delimiter must be one character, a 1-character string other than "
            "a quote or a line break"
        )
    return delimiter


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


def _digit_groups() -> np.ndarray:
    """The groups 0000..9999 as uint32 words of four ASCII bytes, in five
    tables of 10,000 words: all four digits; leading zeros padded; leading
    zeros padded but 0 written as "0" in the last byte; trailing zeros
    padded; trailing zeros padded but 0 written as "0" in the first byte."""
    group = np.arange(10_000)[:, None]
    text = (group // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    lead = np.where(group < [1000, 100, 10, 1], _PAD, text)
    trail = np.where(group % [10_000, 1000, 100, 10] == 0, _PAD, text)
    last, first = lead.copy(), trail.copy()
    last[0, 3] = first[0, 0] = ord("0")
    return np.stack([text, lead, last, trail, first]).view(np.uint32).reshape(-1)


_GROUPS = _digit_groups()
_LEAD, _LAST, _TRAIL, _FIRST = range(10_000, 50_000, 10_000)  # offsets of the variants

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW5 = 5 ** np.arange(23, dtype=np.int64)
_POW2 = np.ldexp(1.0, np.arange(61))
# 10**k for k <= 22 is a float64 exactly; each is kept with its Veltkamp
# halves, whose products with another double's halves are exact
_FPOW10 = np.array([float(10**k) for k in range(23)])
_VELTKAMP = 134217729.0  # 2**27 + 1
_MANTISSA = np.uint64((1 << 52) - 1)


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: ``v == hi + lo``, each half of at most 26 significant bits."""
    c = _VELTKAMP * v
    hi = c - (c - v)
    return hi, v - hi


_FPOW10_HI, _FPOW10_LO = _halves(_FPOW10)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: ``hi + lo == a * 10**k`` exactly, ``hi`` the
    rounded product; no fused multiply-add needed."""
    hi = a * _FPOW10[k]
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _FPOW10_HI[k], _FPOW10_LO[k]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _outside(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1 where ``hi + lo`` is below 1e16, 1 where it is 1e17 or more, else 0."""
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.int64) - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))


def _shortest(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Python's shortest round-trip digits of the floats ``x``, in exact
    integer arithmetic.

    Returns ``ok``, ``digits``, ``exp`` and ``n_digits``: where ``ok``,
    ``repr(x)`` is written without an exponent (1e-4 <= |x| < 1e16) and its
    digits are the leading ``n_digits`` of the 17-digit ``digits``, the
    first at the power ``exp``. Zero, NaN, infinities, values outside that
    range and exact ties between two shortest candidates are not ``ok``.

    With ``10**k`` (exact for k <= 22) chosen so that ``S = |x| * 10**k``
    lies in [1e16, 1e17), ``S = I + f`` exactly: ``I`` an int64, ``f`` in
    [0, 1). The numbers that parse back to x are ``S`` less the half gap to
    the float below and plus the half gap to the float above, ``10**k`` times
    a power of two; both ends count when x's last mantissa bit is 0, as the
    parse rounds half to even. All of this is exact in units
    ``u = 2**(k + e - 55)`` (``e`` from ``frexp``): the half gap above is
    ``2 * 5**k`` units, and so is the one below unless x is a power of two,
    where it is ``5**k``. The shortest digits are the multiple of the
    largest power of ten in that range, the one nearer S when there are two.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    # log10 may be one off near powers of ten; the exact product corrects it
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    hi, lo = _scaled(a, k)
    off = _outside(hi, lo)
    fix = np.flatnonzero(off)
    if fix.size:
        k[fix] = np.clip(k[fix] - off[fix], 0, 22)
        hi[fix], lo[fix] = _scaled(a[fix], k[fix])
    ok &= _outside(hi, lo) == 0
    floor = np.floor(lo)
    whole = hi.astype(np.int64) + floor.astype(np.int64)  # I; hi >= 2**53 is whole
    # 1 is 2**j units u; f is frac units
    j = 55 - k - np.frexp(a)[1]
    ok &= (j >= 0) & (j <= 59)  # keeps lo * 2**j and unit within int64
    j = np.where(ok, j, 0)
    unit = np.int64(1) << j
    frac = (lo * _POW2[j]).astype(np.int64) - floor.astype(np.int64) * unit
    bits = a.view(np.uint64)
    odd = (bits & np.uint64(1)).astype(np.int64)
    above = 2 * _POW5[k]
    below = np.where((bits & _MANTISSA) == 0, _POW5[k], above)
    # [low, high]: the whole numbers within the range that parses back to x,
    # its ends open when x is odd: ceil(d / unit) is (d + unit - 1) >> j, and
    # the largest whole number below d / unit is (d - 1) >> j
    low = whole + ((frac - below + unit - 1 + odd) >> j)
    high = whole + ((frac + above - odd) >> j)
    # t: the largest power of ten with a multiple in [low, high]
    t = (high - high % 10 >= low) & ok
    live = np.flatnonzero(t)
    t = t.astype(np.int64)
    for power in range(2, 18):
        top = high[live]
        live = live[top - top % _POW10[power] >= low[live]]
        if not live.size:
            break
        t[live] = power
    step = _POW10[t]
    rest = whole % step
    down = whole - rest
    up = down + step
    take_down, take_up = down >= low, up <= high
    # down is nearer when rest + f < step - rest - f
    gap = step - 2 * rest
    twice = frac << 1
    nearer = (gap >= 2) | ((gap == 1) & (twice < unit))
    tie = ((gap == 1) & (twice == unit)) | ((gap == 0) & (frac == 0))
    both = take_down & take_up
    ok &= ~(both & tie) & (take_down | take_up)
    digits = np.where(np.where(both, nearer, take_down), down, up)
    exp = 16 - k
    carry = digits == _POW10[17]  # rounded up to 1e17: one digit, a power higher
    exp += carry
    n_digits = np.where(carry, 1, 17 - t)
    ok &= exp <= 15
    digits = np.where(ok & ~carry, digits, _POW10[16])
    return ok, digits, np.where(ok, exp, 0), n_digits


def _whole_digits(mag: np.ndarray, n_groups: int) -> np.ndarray:
    """Decimal digits of the non-negative integers ``mag`` (below
    ``10**(4 * n_groups)``), right-aligned in ``4 * n_groups`` bytes with
    leading zeros padded; 0 is written "0"."""
    words = np.empty((mag.size, n_groups), np.uint32)
    for i in reversed(range(n_groups)):
        mag, group = np.divmod(mag, 10_000)
        leading = _LAST if i == n_groups - 1 else _LEAD
        words[:, i] = _GROUPS[group.astype(np.intp) + (mag == 0) * leading]
    return words.view(np.uint8)


def _fraction_digits(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The 20 digits after a decimal point, the first 8 in ``head`` and the
    last 12 in ``tail``, with trailing zeros padded; all zeros are "0"."""
    tail_hi, tail_lo = np.divmod(tail, 10**8)
    groups = [*np.divmod(head, 10_000), tail_hi, *np.divmod(tail_lo, 10_000)]
    words = np.empty((head.size, 5), np.uint32)
    zero_after = np.ones(head.size, dtype=bool)
    for i in reversed(range(5)):
        trailing = _FIRST if i == 0 else _TRAIL
        words[:, i] = _GROUPS[groups[i] + zero_after * trailing]
        zero_after &= groups[i] == 0
    return words.view(np.uint8)


def _patched(
    cells: np.ndarray, redo: np.ndarray, column: np.ndarray, delimiter: str
) -> np.ndarray:
    """Number ``cells`` with the rows ``redo`` marks, and those whose text
    holds the delimiter, rewritten one at a time from ``_cell_text`` with
    csv.writer's quoting; widened with padding when a rewritten cell needs it."""
    if delimiter in _NUMBER_CHARS:
        redo = redo | (cells == ord(delimiter)).any(axis=1)
    rows = np.flatnonzero(redo)
    if not rows.size:
        return cells
    text = [c.encode() for c in _csv_quoted(_cell_text(column[rows]), delimiter)]
    extra = max(map(len, text)) - cells.shape[1]
    if extra > 0:
        cells = np.concatenate([cells, np.full((len(cells), extra), _PAD, np.uint8)], axis=1)
    cells[rows] = _PAD
    for row, data in zip(rows.tolist(), text):
        cells[row, : len(data)] = np.frombuffer(data, np.uint8)
    return cells


def _float_cells(columns: list[np.ndarray], delimiter: str) -> list[np.ndarray]:
    """Cell matrices of float columns of one length, laid out as ``repr``
    writes them: ``0.000ddd``, ``dd.ddd`` or ``ddd00.0``. Cells that
    ``_shortest`` leaves are rewritten with ``repr``."""
    x = np.stack(columns, axis=1).astype(np.float64)
    ok, digits, exp, n_digits = _shortest(x.ravel())
    # digits * 10**(exp - 16) is whole + part * 10**-after, part < 10**after
    after = 16 - exp
    whole, part = np.divmod(digits, _POW10[np.minimum(after, 17)])
    head, tail = np.divmod(part, _POW10[np.maximum(after - 8, 0)])
    head *= _POW10[np.maximum(8 - after, 0)]
    tail *= _POW10[np.minimum(20 - after, 12)]
    n_whole = int(np.max(exp, where=ok, initial=0)) // 4 + 1
    n_frac = int(np.max(n_digits - exp - 1, where=ok, initial=1))
    point = 1 + 4 * n_whole
    cells = np.empty((*x.shape, point + 1 + n_frac), np.uint8)
    cells[..., 0] = np.where(np.signbit(x), ord("-"), _PAD)
    cells[..., 1:point] = _whole_digits(whole, n_whole).reshape(*x.shape, -1)
    cells[..., point] = ord(".")
    cells[..., point + 1 :] = _fraction_digits(head, tail)[:, :n_frac].reshape(*x.shape, -1)
    redo = ~ok.reshape(x.shape)
    return [
        _patched(cells[:, j], redo[:, j], col, delimiter) for j, col in enumerate(columns)
    ]


def _int_cells(column: np.ndarray, delimiter: str) -> np.ndarray:
    """Cell matrix of an integer column, as ``str`` writes each value."""
    negative = column < 0
    mag = column.astype(np.uint64)
    mag = np.where(negative, -mag, mag)  # two's complement: -2**63 too
    n_groups = -(-len(str(int(mag.max()))) // 4)
    cells = np.empty((len(column), 1 + 4 * n_groups), np.uint8)
    cells[:, 0] = np.where(negative, ord("-"), _PAD)
    cells[:, 1:] = _whole_digits(mag, n_groups)
    return _patched(cells, np.zeros(len(column), dtype=bool), column, delimiter)


def _text_cells(column: np.ndarray, delimiter: str, lone: bool) -> np.ndarray:
    """Cell matrix of any other column: ``str`` of each value (``repr`` for
    wide floats), quoted as csv.writer quotes it, in UTF-8."""
    cells = _csv_quoted(_cell_text(column), delimiter)
    if lone:
        # csv.writer quotes a lone empty field so the row is not a blank line
        cells = ['""' if c == "" else c for c in cells]
    data = [c.encode() for c in cells]
    raw = np.array(data, dtype=bytes)
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    width = raw.dtype.itemsize
    return np.where(
        np.arange(width) < lengths[:, None], raw.view(np.uint8).reshape(-1, width), _PAD
    )


def _block_bytes(columns: list[np.ndarray], delimiter: str) -> bytes:
    """The rows of ``columns`` (all of one length, at least one row) as
    delimited lines in UTF-8.

    Each column becomes a matrix of fixed-width cells padded with ``_PAD``;
    the matrices are joined with delimiter and newline columns, and one mask
    of the bytes that are not padding compacts the block."""
    if not columns:
        return b"\n"
    cells: list[np.ndarray | None] = [None] * len(columns)
    floats = [
        j for j, col in enumerate(columns)
        if col.ndim == 1 and col.dtype.kind == "f" and col.dtype.itemsize <= 8
    ]
    if floats:
        matrices = _float_cells([columns[j] for j in floats], delimiter)
        for j, matrix in zip(floats, matrices):
            cells[j] = matrix
    for j, col in enumerate(columns):
        if cells[j] is None:
            cells[j] = (
                _int_cells(col, delimiter) if col.ndim == 1 and col.dtype.kind in "iu"
                else _text_cells(col, delimiter, len(columns) == 1)
            )
    separator = np.frombuffer(delimiter.encode(), np.uint8)
    ends = [separator] * (len(cells) - 1) + [np.frombuffer(b"\n", np.uint8)]
    block = np.empty(
        (len(cells[0]), sum(c.shape[1] for c in cells) + sum(e.size for e in ends)), np.uint8
    )
    at = 0
    for matrix, end in zip(cells, ends):
        block[:, at : at + matrix.shape[1]] = matrix
        at += matrix.shape[1]
        block[:, at : at + end.size] = end
        at += end.size
    flat = block.ravel()
    return np.compress(flat != _PAD, flat).tobytes()


def write_csv(
    path: Path,
    header: Sequence[str],
    columns: Sequence[object],
    *,
    delimiter: str = ",",
) -> None:
    """Write a delimited table from one column per header name, in UTF-8.

    The bytes equal those of ``csv.writer(fh, delimiter=delimiter,
    lineterminator="\n")`` given each cell's text row by row: ``repr`` for
    floats, ``str`` for everything else. ``ROW_BLOCK`` rows are built at a
    time as byte matrices. Floats with 1e-4 <= |x| < 1e16, the range where
    ``repr`` writes no exponent, are formatted by exact integer arithmetic
    on whole columns and integers from a table of four-digit groups; other
    floats (zero, NaN, infinities, other magnitudes) and number cells that
    hold the delimiter are rewritten one at a time. A delimiter must be one
    character other than a quote or a line break, else TypeError.
    """
    _check_delimiter(delimiter)
    arrays, n_rows = _columns(header, columns)
    with path.open("wb") as fh:
        fh.write(_block_bytes([np.array([str(h)]) for h in header], delimiter))
        for start in range(0, n_rows, ROW_BLOCK):
            fh.write(_block_bytes([col[start : start + ROW_BLOCK] for col in arrays], delimiter))


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
    with path.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        for start in range(0, n_rows, ROW_BLOCK):
            block = [_json_text(col[start : start + ROW_BLOCK]) for col in order]
            if start:
                fh.write(",\n")
            fh.write(",\n".join(map(template.__mod__, zip(*block))))
        fh.write("\n]\n")


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float: ``float``'s grammar
    in ASCII without underscores, inside optional Unicode whitespace."""
    text = cell.strip()
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def _rows(fh: TextIO, delimiter: str, path: Path) -> Iterator[list[str]]:
    """The non-blank rows of ``fh``; a ``csv.Error`` becomes a ValueError naming ``path``."""
    try:
        yield from filter(None, csv.reader(fh, delimiter=delimiter))
    except csv.Error as exc:
        raise ValueError(f"{exc} in {path}") from None


def _raise_first_bad(path: Path, delimiter: str, header: list[str], kept: list[int]) -> None:
    """Name the first ragged row, or bad ``kept`` cell, of the table at ``path``."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = _rows(fh, delimiter, path)
        next(rows)  # the header
        for i, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise ValueError(f"row {i} has {len(row)} fields, expected {len(header)}")
            for j in kept:
                if not _is_number(row[j]):
                    problem = f"non-numeric value {row[j]!r}" if row[j].strip() else "blank value"
                    raise ValueError(f"{problem} in column '{header[j]}' at row {i}")


def read_csv(
    path: Path, usecols: Callable[[str], bool] | None = None, *, delimiter: str = ","
) -> tuple[list[str], np.ndarray]:
    """Read the numeric columns of a delimited table: datasets and artifacts.

    Returns the stripped header names kept by ``usecols`` (all by default)
    and their values as an ``(n_rows, n_columns)`` float array. The header
    is read with ``csv.reader``, the rows with ``np.loadtxt``, whose
    correctly rounded parse reads values back bit-exactly. A kept cell is
    an ASCII number, ``nan`` or ``inf``, maybe quoted and padded with
    Unicode whitespace; other cells are not parsed, but every row must have
    the header's width. Blank lines are skipped; data rows count from 1.
    A ragged row or a blank or non-numeric kept cell raises ``ValueError``
    naming the first such row and column; a field beyond ``csv``'s size
    limit, one naming the file. The file is UTF-8, maybe starting with a
    byte-order mark; the delimiter is checked as ``write_csv`` checks it.
    """
    _check_delimiter(delimiter)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        first = next(_rows(fh, delimiter, path), None)
        if first is None:
            raise ValueError(f"empty file: {path}")
        header = [h.strip() for h in first]
        kept = [j for j, name in enumerate(header) if usecols is None or usecols(name)]
        # unkept columns are read as a constant: usecols would skip them, and
        # with them the check that every row has the header's width
        unkept = {j: lambda cell: 0.0 for j in range(len(header)) if j not in kept}
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(
                    fh, delimiter=delimiter, comments=None, quotechar='"', ndmin=2,
                    converters=unkept,
                )
            if not len(values):
                values = np.empty((0, len(header)))
            elif values.shape[1] != len(header):
                raise ValueError(f"rows have {values.shape[1]} fields, expected {len(header)}")
        except ValueError:
            _raise_first_bad(path, delimiter, header, kept)
            raise
    return [header[j] for j in kept], values[:, kept] if unkept else values


def sha256_file(path: Path) -> str:
    # imported here: hashlib loads OpenSSL, which ``report`` has no use for
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(
    outdir: Path, *, input_sha256: str | None, artifact_names: Sequence[str]
) -> None:
    """Write ``manifest.json``, the hashes of the run's input and artifacts
    (the caller's ``config.json`` among them); the caller passes the input's
    hash, which it may have checked."""
    manifest = {
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
    rule), a non-finite coordinate, no unit at all or inputs of unequal
    length raise ``ValueError``. ``&``, ``<`` and ``>`` in the title and
    legend labels are escaped. Output is deterministic for identical inputs.
    """
    # imported here: data imports this module inside its functions only, so
    # there is no cycle, and commands that draw no plot skip html's entity table
    from html import escape

    from .data import _ids, _require_units, _whole

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    color_index = np.asarray(color_index)
    _require_units(x.size, "scatter_svg")
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
