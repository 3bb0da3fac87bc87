"""Deterministic CSV/JSON table emission.

CSV floats are rendered with 17 significant digits (lossless for binary64)
in scientific notation, the text of `"{:.16e}".format`; JSON documents are
those of `json.dumps(indent=2, sort_keys=True)`.  Files are UTF-8 with LF
line endings, written as bytes so the platform newline translation never
interferes.  Re-running the same spec on the same platform reproduces files
byte for byte.

A table is a list of blocks, each a list of columns: a numpy array whose
cells are all float, all int or all str, or one value every row shares.
Tables are produced as a stream of byte chunks of at most CHUNK_ROWS rows of
one block, so a writer holds one chunk of text at a time whatever the row
count.  `render_csv` and `render_json_table` join the same chunks into one
document.

A CSV chunk is built as one byte matrix, a row per table row: each column
is a field of fixed width, padded with a byte UTF-8 never produces, and the
chunk is the matrix with the padding removed.  Float columns are formatted
by an array kernel (`_float_field`) that gives the bytes of
`"{:.16e}".format` for a whole column at once; the few cells it cannot
round with certainty are formatted by `"{:.16e}".format` itself.  str and
int cells are encoded per cell.  A JSON cell is formatted per cell, by
`float.__repr__` for a float: its shortest round-trip digits have no equally
simple exact array form.  A shared value is formatted once per block.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

SCHEMA_VERSION = 1

# Rows per streamed chunk: a few hundred kB of text for the widest table.
CHUNK_ROWS = 1024

# The JSON text of a cell, by the cell's type.
_JSON_CELL = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}

# float.__repr__ spells the non-finite floats as json does not.  A JSON cell
# line can start with one of these only for a float: strings are quoted and
# ints are digits.
_JSON_NON_FINITE = (
    ("\n      nan", "\n      NaN"),
    ("\n      inf", "\n      Infinity"),
    ("\n      -inf", "\n      -Infinity"),
)


def _cells(column: Any) -> tuple[type, Any]:
    """The type of every cell of an array, or of a shared value as one cell
    (float, int or str), and the cells: a float64 array as it is, else a
    list of Python values."""
    if isinstance(column, np.ndarray) and column.dtype == float:
        return float, column
    cells = column.tolist() if isinstance(column, np.ndarray) else [column]
    types = set(map(type, cells))
    if len(types) > 1 or not types.issubset(_JSON_CELL):
        names = ", ".join(sorted(kind.__name__ for kind in types))
        raise TypeError(f"table cells must all be float, int or str, got {names}")
    return types.pop(), cells


def _chunks(blocks: Iterable[list], text: Callable[[Any], Any]) -> Iterator[tuple[int, list]]:
    """The row count and the column texts of each chunk of the blocks: at
    most CHUNK_ROWS rows, all from one block.  A column's text is text() of
    the chunk's slice of an array, or of a shared value, once per block."""
    for block in blocks:
        # A ValueError unless the block has arrays, all of one length.
        (count,) = {len(column) for column in block if isinstance(column, np.ndarray)}
        shared = [None if isinstance(value, np.ndarray) else text(value) for value in block]
        for start in range(0, count, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, count)
            yield stop - start, [
                text(column[start:stop]) if value is None else value
                for column, value in zip(block, shared)
            ]


# CSV fields are uint8 matrices, a row per cell, padded with _PAD: UTF-8
# never produces the byte 0xFF, so removing it leaves exactly the text.
_PAD = 0xFF

# Why the float kernel is exact.  Take a float64 x with 1e-11 <= |x| < 1e17
# and p = floor(log10 |x|), so p lies in [-12, 16] (the float 1e-11 is below
# 10^-11) and, for the cells the kernel keeps, in [-11, 16].  The 17
# significant digits of "{:.16e}" are D = the integer nearest to
# Y = |x| 10^s with s = 16 - p in [0, 27], Y in [10^16, 10^17).
# - 10^s = 2^s 5^s, and 5^s <= 5^27 < 2^63, so every 10^s is exact in a long
#   double with a 64-bit significand (nmant >= 63), as is every float64.
# - y = |x| * 10^s is then the only rounded operation.  Rounding is
#   monotonic and 10^16 and 10^17 are representable, so y < 10^16 exactly
#   when Y < 10^16, and y >= 10^17 only when Y >= 10^17 - 2^-8.  Since
#   y <= 10^17 < 2^57, an ulp of y is at most 2^(56 - 63) and |y - Y| <= 2^-8.
# - D = rint(y), and y - D is exact (a multiple of y's ulp, at most 1/2 in
#   size).  D +- 1/2 are representable and rounding is monotonic, so
#   y < D + 1/2 implies Y < D + 1/2, and y > D - 1/2 implies Y > D - 1/2:
#   where |y - D| != 1/2, D is the integer nearest to Y; the cells with
#   y = D +- 1/2 take the exact path.  Where y rounded up to 10^17 from
#   below, D = 10^17 is printed as 10^16 at p + 1, which is Y's rounding too.
# p comes from np.log10, off by at most one near a power of ten; one step
# of y against [10^16, 10^17) corrects it.  A digit count D outside
# [10^16, 10^17) takes the exact path, as do 0 < |x| < 1e-11 (subnormals
# included), |x| >= 1e17, NaN and the infinities.  Zero is exact: D = 0, p = 0.
_EXACT_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_FLOAT_WIDTH = 24  # the longest text, "-1.0000000000000000e-308", in 6 words

# The text of a float cell is written as six 4-byte words, each looked up
# in a table of its texts viewed as uint32: a pad, the sign (or a pad), the
# leading digit and "."; four words of four digits each; and "e", the
# exponent's sign and its two digits.
_DIGITS = np.stack(  # row n: the four digits of n, "0000" to "9999"
    np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"), axis=-1
).reshape(10000, 4)


def _words(text: np.ndarray) -> np.ndarray:
    """The uint32 words of an (..., 4) uint8 array of texts, flattened."""
    return np.ascontiguousarray(text).view(np.uint32).ravel()


def _lead_text() -> np.ndarray:
    """A pad, "-" or a pad, the leading digit and ".", at 10 * sign bit +
    leading digit."""
    text = np.full((2, 10, 4), _PAD, dtype=np.uint8)
    text[1, :, 1] = ord("-")
    text[:, :, 2] = _DIGITS[:10, 3]
    text[:, :, 3] = ord(".")
    return text


def _exponent_text() -> np.ndarray:
    """The text "e", the sign and two digits of the exponent p, at p + 11 for p in
    [-11, 17]."""
    p = np.arange(-11, 18)
    text = np.empty((len(p), 4), dtype=np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(p < 0, ord("-"), ord("+"))
    text[:, 2:] = _DIGITS[np.abs(p), 2:]
    return text


_DIGIT_WORDS = _words(_DIGITS)
_LEAD_WORDS = _words(_lead_text())
_EXPONENT_WORDS = _words(_exponent_text())


def _float_field(x: np.ndarray) -> np.ndarray:
    """The text of "{:.16e}".format of each element of the float64 array x,
    as a field of width _FLOAT_WIDTH (see the exactness note above)."""
    ax = np.abs(x)
    kept = (ax >= 1e-11) & (ax < 1e17) if _EXACT_LONG_DOUBLE else np.zeros(len(x), bool)
    safe = np.where(kept, ax, 1.0)
    wide = safe.astype(np.longdouble)
    p = np.floor(np.log10(safe)).astype(np.int64)
    np.minimum(np.maximum(p, -11, out=p), 16, out=p)
    y = wide * _POW10[16 - p]
    p += y >= 1e17
    p -= y < 1e16
    kept &= p >= -11
    np.maximum(p, -11, out=p)
    y = wide * _POW10[16 - p]
    digits = np.rint(y)
    kept &= np.abs(y - digits) != 0.5
    carry = digits == 1e17
    digits[carry] = 1e16
    p += carry
    digits = digits.astype(np.int64)
    kept &= (digits >= 10 ** 16) & (digits < 10 ** 17)
    digits[~kept] = 0
    p[~kept] = 0
    lead, rest = np.divmod(digits, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    words = np.empty((len(x), _FLOAT_WIDTH // 4), dtype=np.uint32)
    words[:, 0] = _LEAD_WORDS[10 * np.signbit(x) + lead]
    words[:, 1] = _DIGIT_WORDS[high // 10000]
    words[:, 2] = _DIGIT_WORDS[high % 10000]
    words[:, 3] = _DIGIT_WORDS[low // 10000]
    words[:, 4] = _DIGIT_WORDS[low % 10000]
    words[:, 5] = _EXPONENT_WORDS[p + 11]
    field = words.view(np.uint8)
    exact = np.flatnonzero(~kept & (ax != 0.0))
    if len(exact):
        # ASCII of at most _FLOAT_WIDTH bytes, padded with NUL, which no
        # float's text holds.
        text = np.array(list(map("{:.16e}".format, x[exact].tolist())), dtype=f"S{_FLOAT_WIDTH}")
        text = text.view(np.uint8).reshape(len(exact), _FLOAT_WIDTH)
        field[exact] = np.where(text == 0, _PAD, text)
    return field


def _text_field(texts: list[str]) -> np.ndarray:
    """The UTF-8 text of each str as a field as wide as the longest."""
    # Each cell's bytes end at a _PAD, which no cell holds.
    data = np.frombuffer(b"\xff".join(map(str.encode, texts)) + b"\xff", dtype=np.uint8)
    ends = np.flatnonzero(data == _PAD)
    lengths = ends.copy()
    lengths[1:] -= ends[:-1] + 1
    field = np.full((len(texts), lengths.max()), _PAD, dtype=np.uint8)
    field[np.arange(field.shape[1]) < lengths[:, None]] = data[data != _PAD]
    return field


def _csv_field(column: Any) -> np.ndarray:
    """The CSV text of an array's cells, or of a shared value as one cell."""
    kind, cells = _cells(column)
    if kind is float:
        return _float_field(np.asarray(cells, dtype=float))
    return _text_field(cells if kind is str else list(map(str, cells)))


def _json_cells(column: Any) -> list[str]:
    """The JSON text of an array's cells, or of a shared value as one cell."""
    kind, cells = _cells(column)
    return list(map(_JSON_CELL[kind], cells.tolist() if isinstance(cells, np.ndarray) else cells))


def csv_chunks(header: list[str], blocks: Iterable[list]) -> Iterator[bytes]:
    """The CSV document of header and blocks, as UTF-8 chunks of at most
    CHUNK_ROWS rows of one block (the header line is a chunk of its own)."""
    yield (",".join(header) + "\n").encode("utf-8")
    for rows, fields in _chunks(blocks, _csv_field):
        # Each field is followed by a comma, the last by a newline; a shared
        # value's one-row field is broadcast to every row.
        ends = np.cumsum([field.shape[1] + 1 for field in fields])
        matrix = np.empty((rows, ends[-1]), dtype=np.uint8)
        for field, end in zip(fields, ends.tolist()):
            matrix[:, end - 1 - field.shape[1]:end - 1] = field
        matrix[:, ends - 1] = ord(",")
        matrix[:, -1] = ord("\n")
        yield matrix[matrix != _PAD].tobytes()


def json_table_chunks(header: list[str], blocks: Iterable[list], **meta: Any) -> Iterator[bytes]:
    """The JSON table document of header, blocks and meta, as UTF-8 chunks of
    at most CHUNK_ROWS rows of one block; the bytes are those of render_json
    on the whole table."""
    doc = _json_text({**meta, "columns": list(header), "rows": []})
    head, _, tail = doc.partition('"rows": []')
    empty = True
    for rows, columns in _chunks(blocks, _json_cells):
        # A shared value's text is one cell, repeated for every row.
        cells = zip(*[column if len(column) == rows else column * rows for column in columns])
        text = "\n    ],\n    [\n      ".join(map(",\n      ".join, cells))
        text = "    [\n      " + text + "\n    ]"
        for python, json_text in _JSON_NON_FINITE:
            text = text.replace(python, json_text)
        yield ((head + '"rows": [\n' if empty else ",\n") + text).encode("utf-8")
        empty = False
    yield (doc if empty else "\n  ]" + tail).encode("utf-8")


def render_csv(header: list[str], blocks: Iterable[list]) -> bytes:
    return b"".join(csv_chunks(header, blocks))


def render_json_table(header: list[str], blocks: Iterable[list], **meta: Any) -> bytes:
    return b"".join(json_table_chunks(header, blocks, **meta))


def _json_text(doc: dict[str, Any]) -> str:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_json(doc: dict[str, Any]) -> bytes:
    return _json_text(doc).encode("utf-8")


def write_bytes(chunks: Iterable[bytes], out: Path | None) -> None:
    """Write the chunks to a file, or to stdout when no path is given.  A
    file whose writing fails part-way is removed before the error propagates."""
    if out is None:
        for chunk in chunks:
            sys.stdout.buffer.write(chunk)
        sys.stdout.buffer.flush()
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    f = out.open("wb")
    try:
        with f:
            f.writelines(chunks)
    except BaseException:
        out.unlink(missing_ok=True)
        raise
