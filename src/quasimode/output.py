"""Deterministic CSV/JSON table emission.

CSV floats are rendered with 17 significant digits (lossless for binary64)
in scientific notation, the text of `"{:.16e}".format`; JSON documents are
those of `json.dumps(indent=2, sort_keys=True)`.  Files are UTF-8 with LF
line endings, written as bytes so the platform newline translation never
interferes.  Re-running the same spec on the same platform reproduces files
byte for byte.

A table is a list of blocks, each a list of columns: a float64 array;
Labels, a column of float, int or str cells held as small integer codes
into a tuple of values, so that no row is a Python object (a value repeated
over many rows is Labels, not a block of its own); or one float, int or str
value every row shares.  Tables are produced as a stream of byte chunks of
at most CHUNK_ROWS rows of one block, so a writer holds one chunk of text at
a time whatever the row count.  `render_csv` and `render_json_table` join
the same chunks.

The cells of float64 arrays are formatted by two array kernels that share
one front end (`_decimal`): the 17 significant digits of |x|, from Dekker's
error-free product of |x| and 10^(16 - p) in float64 alone, with an error
below 2^-48 in units of the 17th digit.  A chunk's arrays are formatted in
one kernel call.
- CSV (`_float_field`): the 17 digits are those of `"{:.16e}".format`.
- JSON (`_repr_cells`): `float.__repr__` prints the shortest digits that
  read back as x, the nearest to x of those.  At most three interval tests
  find them: the nearest multiple of 100 in units of the 17th digit (15
  digits or fewer), else the nearest multiple of 10 (16), else the 17
  digits.  The text is laid out as repr does.
The few cells a kernel cannot decide with certainty are formatted by
`"{:.16e}".format` or `float.__repr__` itself, as are chunks with too few
array cells to pay for the kernel, and the float values of Labels.  Labels
and shared values are type-checked and encoded once per block (or run of
blocks holding Labels over the same values tuple object, or the same shared
value object); a chunk indexes those texts by its codes.

A CSV chunk is built as one byte matrix, a row per table row: each column
is a field of fixed width, padded with a byte UTF-8 never produces, and the
chunk is the matrix with the padding removed.  A JSON chunk joins the bytes
of its cells, each run of adjacent shared values (or every cell of a
one-row chunk) joined once per chunk.  Each writer keeps its own assembly,
because either one on the other's was slower on a 2-core x86-64 host: JSON
rows laid out in the CSV byte matrix took the 100k-row spectrum JSON sweep
from 238 to 325 ms (a 1-row block of five float columns from 78 to 220 us),
and CSV cells built from the JSON layout tables made `_float_field` 1.9
times as slow per cell (the 400k-row wavenumber CSV sweep from 350 to 439
ms).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import accumulate, groupby, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

SCHEMA_VERSION = 1

# Rows per streamed chunk: a few hundred kB of text for the widest table.
CHUNK_ROWS = 1024

# The types of the cells of Labels and of a shared value.
_LABEL_TYPES = (float, int, str)
_TYPE_ERROR = "table cells must be float, int or str, got {}"


@dataclass(frozen=True, eq=False)
class Labels:
    """A column of float, int or str cells, row i holding values[codes[i]]:
    the codes are unsigned ints as wide as the number of values needs (uint8
    up to 256 values, uint16 up to 65,536), so a row costs a byte or two, not
    a Python object, and a value is encoded once however many rows hold it."""

    codes: np.ndarray
    values: tuple

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> Labels:
        return Labels(self.codes[rows], self.values)


# The columns with a cell per row.
_ARRAYS = (np.ndarray, Labels)
# The codes of a shared value, its one cell: never sliced nor indexed.
_SHARED = np.zeros(1, dtype=np.uint8)


def _cells(column: Any, encode: Callable, last: dict, kept: dict) -> tuple[np.ndarray, Any]:
    """The cells of a column: a float64 array and no texts; or codes, those
    of Labels or _SHARED for a shared value, and the texts of the values
    they index.  The texts are keyed by the id of Labels' values tuple, or
    of the shared value: those in last are reused, others are
    encode(kind, values); either is put in kept.  The type of every cell
    (float, int or str) is checked on the values, never per row."""
    if isinstance(column, np.ndarray):
        if column.dtype == float:
            return column, None
        raise TypeError(_TYPE_ERROR.format(column.dtype))
    codes, key = (column.codes, column.values) if isinstance(column, Labels) else (_SHARED, column)
    # last holds each of its keys, so an id found there is that key's.
    if (entry := last.get(id(key))) is None:
        values = (key,) if codes is _SHARED else key
        types = set(map(type, values))
        if len(types) != 1 or not types.issubset(_LABEL_TYPES):
            raise TypeError(_TYPE_ERROR.format(", ".join(sorted(kind.__name__ for kind in types))))
        entry = key, encode(types.pop(), values)
    kept[id(key)] = entry
    return codes, entry[1]


def _chunks(
    blocks: Iterable[list], floats: Callable, encode: Callable
) -> Iterator[tuple[int, list]]:
    """The row count and the texts of each column of each chunk of the
    blocks: at most CHUNK_ROWS rows, all from one block.  The float64 arrays'
    texts are floats() of their slices.  A Labels column or shared value is
    encoded once per block (by _cells), or not if the last block held Labels
    over the same values tuple object, or the same value, and a chunk's texts
    of it are those indexed by its codes (one for a shared)."""
    last = {}  # the texts of the last block's Labels values and shared values, by their id
    for block in blocks:
        # A ValueError unless the block has arrays, all of one length.
        (count,) = {len(column) for column in block if isinstance(column, _ARRAYS)}
        if not count:  # an empty Labels has no type to check
            continue
        kept = {}
        columns = [_cells(column, encode, last, kept) for column in block]
        last = kept
        for start in range(0, count, CHUNK_ROWS):
            part = slice(start, min(start + CHUNK_ROWS, count))
            float_texts = iter(floats([codes[part] for codes, texts in columns if texts is None]))
            yield part.stop - start, [
                next(float_texts) if texts is None else texts if codes is _SHARED
                else texts[codes[part]]
                for codes, texts in columns
            ]


def _split(texts: Any, values: list) -> list:
    """texts, the texts of the cells of all the entries of values in order,
    split into those of each entry."""
    ends = list(accumulate(map(len, values)))
    return [texts[start:end] for start, end in zip([0, *ends], ends)]


# CSV fields are uint8 matrices, a row per cell, padded with _PAD: UTF-8
# never produces the byte 0xFF, so removing it leaves exactly the text.
_PAD = 0xFF

# Why the kernels' front end is exact.  Take a float64 x with
# 1e-11 <= |x| < 1e17 and p = floor(log10 |x|), so p lies in [-12, 16] (the
# float 1e-11 is below 10^-11) and, for the cells the kernels keep, in
# [-11, 16].  The 17 significant digits of "{:.16e}" are D = the integer
# nearest to Y = |x| 10^s with s = 16 - p in [0, 27], Y in [10^16, 10^17).
# - 10^s = H + L exactly, H the float64 nearest to 10^s and L a float64:
#   10^s = 2^s 5^s and 5^s <= 5^27 < 2^63, so the rest L has at most 10
#   bits.  L = 0 for s <= 22, and |L| <= 2^-53 H.
# - Veltkamp's split cuts |x| and H into halves of at most 26 bits, whose
#   products are exact, so Dekker's product gives |x| H = P + e0 exactly,
#   with P = fl(|x| H) (T. J. Dekker, Numer. Math. 18, 1971).  P >= 2^53
#   where Y >= 10^16 - 32, so P is an integer there.
# - e = fl(e0 + fl(|x| L)): only this product and sum round.  For Y < 2^57,
#   |x L| < 11.2 and |e0| <= 8 (half an ulp of P), so |e| < 32 and the two
#   roundings leave |P + e - Y| <= 2^-50 + 2^-49 < 2^-48.
# - D = P + rint(e) in int64, and r = e - rint(e) is exact, |r| <= 1/2.
#   Where |r| < 1/2 - _MARGIN, rint(e) is also the integer nearest to
#   Y - P, so D is that nearest to Y; other cells take the exact path (for
#   s <= 22, e = e0 and r = Y - D are exact, and only r = +-1/2 is a tie).
# p comes from np.log10, off by at most one near a power of ten.  Where Y
# lies outside [10^16, 10^17), P lies below 10^16 + 32 or above 10^17 - 32,
# and there the sign of Y - 10^16 is that of (P - 10^16) + e: the
# difference is exact where it is small (Sterbenz), and Y is 10^16 itself
# or at least 5^-11 from it, as both are multiples of 5^min(s, 16)
# 2^min(k + s, 16) for |x| = m 2^k, 2^52 <= m < 2^53; so for 10^17.  Such
# a cell steps p by one and is computed again; one step suffices, and a
# cell still outside takes the exact path.  Where Y rounds up to 10^17,
# D = 10^17 is printed as 10^16 at p + 1, which is Y's rounding too.
# 0 < |x| < 1e-11 (subnormals included), |x| >= 1e17, NaN and the
# infinities take the exact path.  Zero is exact: D = 0, p = 0.
_MARGIN = 2.0 ** -30
_FLOAT_WIDTH = 24  # the longest text, "-1.0000000000000000e-308", in 6 words
_SPLITTER = 2.0 ** 27 + 1  # Veltkamp's constant for float64


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into a high and a low half of at most 26 bits
    each, whose sum is a."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


def _powers_of_ten() -> np.ndarray:
    """H, L and H's two halves, a row each, at s for 10^s = H + L, s in
    [0, 27]."""
    h = np.array([float(10 ** s) for s in range(28)])
    low = np.array([float(10 ** s - int(power)) for s, power in enumerate(h.tolist())])
    return np.stack([h, low, *_halves(h)])


_POWERS_OF_TEN = _powers_of_ten()


def _product(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and e of a 10^s (see the note above), for a in [1e-11, 1e17) and s
    in [0, 27]."""
    h, low, h_high, h_low = _POWERS_OF_TEN.take(s, axis=1)
    a_high, a_low = _halves(a)
    big = a * h
    e = a_low * h_low - (((big - a_high * h_high) - a_low * h_high) - a_high * h_low)
    e += a * low
    return big, e


def _misplaced(big: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 where Y = P + e >= 10^17, -1 where Y < 10^16, else 0."""
    below = -e
    return (big - 1e17 >= below).astype(np.int64) - (big - 1e16 < below)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kernels' front end for the float64 array x (see the note above):
    |x|, the cells kept, p, D as int64 and r = Y - D as float64.  Where a
    cell is not kept, p is in [-11, 16] and D and r are of no use."""
    ax = np.abs(x)
    kept = (ax >= 1e-11) & (ax < 1e17)
    a = np.where(kept, ax, 2.0)  # a placeholder whose Y = 2 10^16 needs no edge pass
    p = np.floor(np.log10(a)).astype(np.int64)
    np.minimum(np.maximum(p, -11, out=p), 16, out=p)
    big, e = _product(a, 16 - p)
    edge = np.flatnonzero((big < 1e16 + 32) | (big > 1e17 - 32))
    if len(edge):
        step = _misplaced(big[edge], e[edge])
        moved = edge[step != 0]
        p[moved] += step[step != 0]
        kept[moved] &= (p[moved] >= -11) & (p[moved] <= 16)
        p[moved] = np.clip(p[moved], -11, 16)
        big[moved], e[moved] = _product(a[moved], 16 - p[moved])
        kept[moved] &= _misplaced(big[moved], e[moved]) == 0
    n = np.rint(e)
    d = big.astype(np.int64)
    d += n.astype(np.int64)
    e -= n
    kept &= np.abs(e) < 0.5 - _MARGIN
    return ax, kept, p, d, e


# The CSV text of a float cell is written as six 4-byte words, each looked
# up in a table of its texts viewed as uint32: a pad, the sign (or a pad),
# the leading digit and "."; four words of four digits each; and "e", the
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


_EXPONENT_TEXT = _exponent_text()
_DIGIT_WORDS = _words(_DIGITS)
_LEAD_WORDS = _words(_lead_text())
_EXPONENT_WORDS = _words(_EXPONENT_TEXT)


def _float_field(x: np.ndarray) -> np.ndarray:
    """The text of "{:.16e}".format of each element of the float64 array x,
    as a field of width _FLOAT_WIDTH (see the exactness note above)."""
    ax, kept, p, digits, _ = _decimal(x)
    digits *= kept  # zero is printed as D = 0, p = 0
    p *= kept
    carry = digits == 10 ** 17
    digits -= carry * (9 * 10 ** 16)
    p += carry
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    words = np.empty((len(x), _FLOAT_WIDTH // 4), dtype=np.uint32)
    words[:, 0] = _LEAD_WORDS.take(10 * np.signbit(x) + lead)
    for column, group in [(1, high), (3, low)]:
        quad = group // 10000
        words[:, column] = _DIGIT_WORDS.take(quad)
        words[:, column + 1] = _DIGIT_WORDS.take(group - quad * 10000)
    words[:, 5] = _EXPONENT_WORDS.take(p + 11)
    field = words.view(np.uint8)
    exact = np.flatnonzero(~kept & (ax != 0.0))
    if len(exact):
        # ASCII of at most _FLOAT_WIDTH bytes, padded with NUL, which no
        # float's text holds.
        text = np.array(list(map("{:.16e}".format, x[exact].tolist())), dtype=f"S{_FLOAT_WIDTH}")
        text = text.view(np.uint8).reshape(len(exact), _FLOAT_WIDTH)
        field[exact] = np.where(text == 0, _PAD, text)
    return field


# Why the JSON kernel gives the digits of float.__repr__.  repr prints the
# shortest digits that read back as x and, of those, the nearest to x
# (Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018).  Take p, D and r
# from the front end and count in units of 10^(p - 16), the 17th digit.
# The reals that read back as |x| form the interval Y +- h, with
# h = spacing(x) 10^(16 - p) / 2, its ends included when x's significand
# is even.  Unless |x| is a power of two
# (whose interval is lopsided; such cells take the exact path),
# 2^-54 Y < h <= 2^-53 Y, so 0.55 < h < 11.1.  A candidate of n digits is a
# multiple of 10^(17 - n) there, or of 10^(18 - n) at p + 1; one at p - 1
# lies below 10^16, where the interval reaches only if it holds 10^16.
# - 2h < 100, so the interval holds at most one multiple of 100, which is
#   then the nearest to Y, M100.  Every candidate of 15 digits or fewer is
#   a multiple of 100, so M100 is the shortest, and repr's digits are its
#   own with the trailing zeros dropped (M100 = 10^17 is 1 at p + 1).
# - Else every candidate has 16 digits or more, and those of 16 are the
#   multiples of 10 in the interval.  If the nearest one, M10, is outside,
#   so are the others; if inside, it is the nearest to x.
# - Else D, within 1/2 < h of Y: 17 digits.
# The tests take t = q + r for Y less the multiple of 100 at or below D
# (q = D mod 100): r lies within 2^-48 of Y - D and the sum rounds by at
# most 2^-47, and h is computed to a relative 2^-52, so a test is certain
# unless its distance lies within _MARGIN of h: such cells take the exact
# path, and so the open or closed ends do not matter.  The multiples of 10
# and 100 nearest to t are Y's unless Y is within 2^-44 of halfway between
# two: a cell whose distance to M10 is within _MARGIN of 5 takes the exact
# path, and one halfway between multiples of 100 has neither in its
# interval.
# At p + 11: 2^-53 10^(16 - p), so h = 2^e _HALF_ULP[p + 11] for
# 2^e <= |x| < 2^(e + 1).
_HALF_ULP = np.array([2.0 ** -53 * 10.0 ** s for s in range(27, -1, -1)])
_EXPONENT_BITS = np.uint64(0x7FF << 52)
# Eight digits "0" as a word.
_ZERO_DIGITS = np.uint64(int.from_bytes(b"0" * 8, "little"))

# The JSON text of a kept cell is assembled in four 8-byte words, each an
# array over the cells.  Word 0 holds the prefix, right-aligned: "-" for a negative cell,
# and "0." and -E - 1 zeros for a decimal exponent E in -4 ... -1.  Words 1
# to 3 hold the 17 digits, at bytes 8 to 24, and are then laid out in
# place: cut after the significant digits (at least one after the point in
# fixed notation), with "." inserted after the integer digits, or after the
# first digit in exponent notation, and "e", the exponent's sign and two
# digits appended in exponent notation.  The text is the 24 bytes from the
# prefix's first byte.  Exponents -4 ... 15 use fixed notation, as repr
# does, and the others exponent notation.


def _layouts() -> np.ndarray:
    """The layout of words 1 to 3 at (E + 11) 17 + n - 1, for a decimal
    exponent E in [-11, 17] and n significant digits: rows 0-2 keep bytes
    in place, rows 3-5 take bytes from the digits moved one byte on, and
    rows 6-8 add "." and the exponent."""
    e, n, j = np.arange(-11, 18)[:, None, None], np.arange(1, 18)[:, None], np.arange(24)
    fixed, prefixed = (e >= 0) & (e <= 15), (e >= -4) & (e < 0)
    # the bytes of the point and of the text's end, counted from word 1
    point = np.where(fixed, e + 1, np.where(prefixed | (n == 1), 24, 1))
    end = np.where(fixed, e + 1 + np.maximum(n - e, 2), np.where(prefixed | (n == 1), n, n + 1))
    exponent = np.zeros((29, 5), dtype=np.uint8)  # the text after the digits, at E + 11
    exponent[:, :4] = _EXPONENT_TEXT
    exponent[(fixed | prefixed).ravel()] = 0
    table = np.empty((29, 17, 3, 24), dtype=np.uint8)
    table[:, :, 0] = np.where(j < np.minimum(point, end), 0xFF, 0)
    table[:, :, 1] = np.where((j > point) & (j < end), 0xFF, 0)
    after = np.where(j < end, 4, np.minimum(j - end, 4))
    table[:, :, 2] = np.where(j == point, ord("."), exponent[e + 11, after])
    return np.ascontiguousarray(table.view(np.uint64).reshape(-1, 9).T)


def _prefixes() -> tuple[np.ndarray, np.ndarray]:
    """Word 0 and 8 times the prefix's length, at 29 sign bit + E + 11."""
    sign, e, j = np.meshgrid(np.arange(2), np.arange(-11, 18), np.arange(8), indexing="ij")
    length = sign + np.where((e >= -4) & (e < 0), 1 - e, 0)
    i = j - 8 + length  # the byte's place in the prefix
    text = np.select([i < 0, (i == 0) & (sign == 1), i == sign + 1], [0, ord("-"), ord(".")], ord("0"))
    return text.astype(np.uint8).view(np.uint64).ravel(), 8 * length[..., 0].ravel().astype(np.uint64)


_LAYOUTS = _layouts()
_PREFIX_WORDS, _PREFIX_BITS = _prefixes()


# The float cells per call from which the kernel is cheaper than
# float.__repr__ cell by cell.  Measured with json_table_chunks on a block of
# five float columns, two shared floats and an int column on a 2-core x86-64
# host: both cost the same, to within the host's noise, at 240 to 300 float
# cells a chunk, where the kernel's fixed cost of about 120 us a call is
# repaid at 0.4 us a cell.
_REPR_KERNEL_MIN = 256


def _repr_exact(cells: list[float]) -> list[bytes]:
    """The JSON text of each float: float.__repr__, with json's spelling of
    NaN and the infinities."""
    if not cells:
        return []
    text = "\n".join(map(float.__repr__, cells))
    if "n" in text:  # of repr's texts, only "nan", "inf" and "-inf" hold an "n"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text.encode().split(b"\n")


def _json_floats(values: list[np.ndarray]) -> list[list[bytes]]:
    """The JSON text of the cells of each float64 array of values: from one
    kernel call, or, below the break-even, from float.__repr__."""
    cells = np.concatenate(values) if values else np.empty(0)
    exact = len(cells) < _REPR_KERNEL_MIN
    return _split(_repr_exact(cells.tolist()) if exact else _repr_cells(cells), values)


def _repr_cells(x: np.ndarray) -> list[bytes]:
    """The JSON text of each element of the float64 array x, the text of
    float.__repr__ (see the notes above).  The kernel runs in two stages,
    so that each stage's temporaries are freed before the next."""
    if sys.byteorder != "little":
        return _repr_exact(x.tolist())
    p, digits, exact = _shortest_digits(x)
    field = _repr_field(x, p, digits)
    if len(exact):
        field[exact] = _repr_exact(x[exact].tolist())
    return field.tolist()


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal exponent and the 17 digits, trailing zeros included, of
    repr's shortest digits of each element of x, and the indices of the
    nonzero cells that take the exact path (there the digits and exponent
    are 0, as they are for zero)."""
    ax, kept, p, d, r = _decimal(x)
    q = d - d // 100 * 100
    t = q + r  # Y less the multiple of 100 at or below D, in [-1/2, 100)
    m100, m10 = (t > 50) * 100.0, np.rint(t * 0.1) * 10
    to100, to10 = np.abs(t - m100), np.abs(t - m10)
    # 2^e for 2^e <= |x| < 2^(e + 1): 0 for zero and subnormals, inf where
    # x is not finite
    binade = (ax.view(np.uint64) & _EXPONENT_BITS).view(float)
    h = binade * _HALF_ULP.take(p + 11)
    inside, outside = h - _MARGIN, h + _MARGIN
    in100, in10 = to100 < inside, to10 < inside
    kept &= (in100 | (to100 > outside)) & (in10 | (to10 > outside))
    kept &= (to10 < 5 - _MARGIN) & (binade != ax)
    digits = np.where(in100, m100, np.where(in10, m10, q)).astype(np.int64)
    digits += d - q
    carry = digits == 10 ** 17
    digits -= carry * (9 * 10 ** 16)
    p += carry
    digits *= kept
    p *= kept
    return p, digits, np.flatnonzero(~kept & (ax != 0.0))


def _repr_field(x: np.ndarray, p: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The text of each element of x, of decimal exponent p and 17 digits
    (of _shortest_digits), as repr lays it out, in an array of dtype
    S<_FLOAT_WIDTH> (see the layout note above)."""
    # Words 1 to 3, a row each: digits = 10^9 a + 10 b + last, and a and b
    # in two groups of four digits.
    body = np.empty((3, len(x)), dtype=np.uint64)
    quads = body[:2].view(np.uint32)
    a = digits // 10 ** 9
    b = digits - a * 10 ** 9
    tens = b // 10
    last = b - tens * 10
    body[2] = last + ord("0")
    for row, group in enumerate([a, tens]):
        high = group // 10000
        quads[row, 0::2] = _DIGIT_WORDS.take(high)
        quads[row, 1::2] = _DIGIT_WORDS.take(group - high * 10000)
    # The significant digits run to the last digit other than "0": in words
    # 1 and 2, the highest nonzero byte of their xor with "0"s, whose bit
    # length a float64 holds exactly (no byte exceeds 9).
    _, length = np.frexp((body[:2] ^ _ZERO_DIGITS).astype(float))
    length = (length + 7) >> 3
    n = np.where(length[1] > 0, 8 + length[1], np.maximum(length[0], 1))
    n[last > 0] = 17
    layout = (p + 11) * 17 + n - 1
    # moved is laid out a cell per row, as the text it holds at the end.
    moved = np.left_shift(body, np.uint64(8), out=np.empty((len(x), 3), dtype=np.uint64).T)
    moved[1:] |= body[:2] >> np.uint64(56)
    moved &= np.take(_LAYOUTS[3:6], layout, axis=1)
    body &= np.take(_LAYOUTS[:3], layout, axis=1)
    body |= moved
    body |= np.take(_LAYOUTS[6:], layout, axis=1)
    # The text: the 24 bytes of words 0 to 3 from the prefix's first byte.
    prefix = 29 * np.signbit(x) + p + 11
    bits = _PREFIX_BITS.take(prefix)
    text = np.left_shift(body, bits, out=moved)
    shift = 64 - bits
    text[0] |= _PREFIX_WORDS.take(prefix) >> shift
    text[1:] |= body[:2] >> shift
    return text.T.view(f"S{_FLOAT_WIDTH}").ravel()


def _csv_texts(kind: type, values: tuple) -> np.ndarray:
    """The UTF-8 CSV text of each value, "{:.16e}".format of a float and
    str() of an int or str, as a field as wide as the longest text, padded
    with _PAD."""
    text = "{:.16e}".format if kind is float else str
    texts = [text(value).encode() for value in values]
    width = max(map(len, texts), default=0)
    data = b"".join([text.ljust(width, b"\xff") for text in texts])  # _PAD
    return np.frombuffer(data, dtype=np.uint8).reshape(len(texts), width)


def _json_texts(kind: type, values: tuple) -> np.ndarray:
    """The JSON text of each value, as an object array."""
    if kind is float:
        return np.array(_repr_exact(list(values)), dtype=object)
    text = encode_basestring_ascii if kind is str else int.__repr__
    return np.array([text(value).encode() for value in values], dtype=object)


# The float cells per call from which the CSV kernel is cheaper than
# "{:.16e}".format cell by cell: measured with _csv_floats on five float
# columns on a 2-core x86-64 host, both take about 50 us at 40 to 50 cells.
_FORMAT_KERNEL_MIN = 32


def _csv_floats(values: list[np.ndarray]) -> list[np.ndarray]:
    """The CSV field of the cells of each float64 array of values: from one
    kernel call, or, below the break-even, from "{:.16e}".format."""
    cells = np.concatenate(values) if values else np.empty(0)
    exact = len(cells) < _FORMAT_KERNEL_MIN
    return _split(_csv_texts(float, cells.tolist()) if exact else _float_field(cells), values)


def csv_chunks(header: list[str], blocks: Iterable[list]) -> Iterator[bytes]:
    """The CSV document of header and blocks, as UTF-8 chunks of at most
    CHUNK_ROWS rows of one block (the header line is a chunk of its own)."""
    yield (",".join(header) + "\n").encode("utf-8")
    for rows, fields in _chunks(blocks, _csv_floats, _csv_texts):
        # Each field is followed by a comma, the last by a newline; a shared
        # value's one-row field is broadcast to every row.
        ends = np.cumsum([field.shape[1] + 1 for field in fields])
        matrix = np.empty((rows, ends[-1]), dtype=np.uint8)
        for field, end in zip(fields, ends.tolist()):
            matrix[:, end - 1 - field.shape[1]:end - 1] = field
        matrix[:, ends - 1] = ord(",")
        matrix[:, -1] = ord("\n")
        yield matrix[matrix != _PAD].tobytes()
        del fields, matrix  # not held while the next chunk is formatted


_CELL_SEPARATOR = b",\n      "


def _runs(rows: int, columns: list) -> list:
    """The cells of a JSON chunk's columns, each run of adjacent one-cell
    columns (shared values, or every column of a one-row chunk) joined once
    into one cell repeated on every row.  Labels' texts are object arrays."""
    items = []
    for length, run in groupby(columns, len):
        if length == 1:
            items.append(repeat(_CELL_SEPARATOR.join([column[0] for column in run]), rows))
        else:
            items += [column.tolist() if isinstance(column, np.ndarray) else column for column in run]
    return items


def json_table_chunks(header: list[str], blocks: Iterable[list], **meta: Any) -> Iterator[bytes]:
    """The JSON table document of header, blocks and meta, as UTF-8 chunks of
    at most CHUNK_ROWS rows of one block; the bytes are those of render_json
    on the whole table."""
    doc = _json_text({**meta, "columns": list(header), "rows": []}).encode("utf-8")
    head, _, tail = doc.partition(b'"rows": []')
    empty = True
    for rows, columns in _chunks(blocks, _json_floats, _json_texts):
        text = list(map(_CELL_SEPARATOR.join, zip(*_runs(rows, columns))))
        # The chunk's text is joined once: its ends go into its first and last rows.
        text[0] = (head + b'"rows": [\n' if empty else b",\n") + b"    [\n      " + text[0]
        text[-1] += b"\n    ]"
        yield b"\n    ],\n    [\n      ".join(text)
        empty = False
        del columns, text  # not held while the next chunk is formatted
    yield doc if empty else b"\n  ]" + tail


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
    regular file whose writing fails part-way is removed before the error
    propagates; a device or a pipe is left in place."""
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
        # The path, not the descriptor: a failed close has closed that too.
        if out.is_file():
            out.unlink(missing_ok=True)
        raise
