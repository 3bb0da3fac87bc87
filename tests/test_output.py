import errno
import io
import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasimode.cli
import quasimode.output
from quasimode import Branch, Regime
from quasimode.cli import EXIT_USAGE, main
from quasimode.output import (
    CHUNK_ROWS,
    Labels,
    csv_chunks,
    json_table_chunks,
    render_csv,
    render_json,
    render_json_table,
    write_bytes,
)
from quasimode.params import _SLICE
from quasimode.tables import SweepSpec, sweep_columns

ROW_COUNTS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5]

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]),
)
STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n", ",", "é☃", "\x00\x1f", "\n      nan"]),
)
KINDS = {float: FLOATS, int: st.integers(), str: STRINGS}


def labels(cells) -> Labels:
    """The Labels column of the cells, its values in order of first use."""
    values = tuple(dict.fromkeys(cells))
    return Labels(np.array([values.index(cell) for cell in cells], dtype=np.uint8), values)


def cells_of(column) -> list:
    """The cells of an array column as Python values."""
    if isinstance(column, Labels):
        return [column.values[code] for code in column.codes.tolist()]
    return column.tolist()


@st.composite
def columns(draw, count: int, shared: bool):
    """A column of count rows: a float64 array, or Labels of float, int or
    str cycling through a few drawn cells, or, if shared, one drawn value."""
    kind = draw(st.sampled_from(sorted(KINDS, key=lambda kind: kind.__name__)))
    if shared:
        return draw(KINDS[kind])
    pool = draw(st.lists(KINDS[kind], min_size=1, max_size=5))
    cells = [pool[i % len(pool)] for i in range(count)]
    if kind is float and draw(st.booleans()):
        return np.array(cells, dtype=float)
    return labels(cells)


@st.composite
def tables(draw):
    """(header, blocks): a few blocks of one width, each with at least one
    array column and one of the row counts around the chunk boundaries."""
    width = draw(st.integers(min_value=1, max_value=4))
    header = draw(st.lists(st.text(), min_size=width, max_size=width))
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        count = draw(st.sampled_from(ROW_COUNTS))
        shared = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        shared[draw(st.integers(min_value=0, max_value=width - 1))] = False
        blocks.append([draw(columns(count, flag)) for flag in shared])
    return header, blocks


def rows_of(blocks):
    """The rows of the blocks as lists of Python cells."""
    rows = []
    for block in blocks:
        arrays = (np.ndarray, Labels)
        count = next(len(column) for column in block if isinstance(column, arrays))
        cells = [cells_of(column) if isinstance(column, arrays) else [column] * count
                 for column in block]
        rows += [list(row) for row in zip(*cells)]
    return rows


def csv_cell(value):
    return f"{value:.16e}" if isinstance(value, float) else str(value)


def reference_csv_chunks(header, blocks):
    """csv_chunks as it formatted each cell before the float kernel: one
    "{:.16e}".format call per float cell, and str per int or str cell."""
    text_of = {float: "{:.16e}".format, int: int.__repr__, str: str}

    def text(column):
        array = isinstance(column, (np.ndarray, Labels))
        cells = cells_of(column) if array else [column]
        types = {float} if array and not isinstance(column, Labels) else set(map(type, cells))
        if len(types) > 1 or not types.issubset(text_of):
            names = ", ".join(sorted(kind.__name__ for kind in types))
            raise TypeError(f"table cells must all be float, int or str, got {names}")
        return list(map(text_of[types.pop()], cells))

    yield (",".join(header) + "\n").encode("utf-8")
    for block in blocks:
        (count,) = {len(column) for column in block if isinstance(column, (np.ndarray, Labels))}
        shared = [None if isinstance(value, (np.ndarray, Labels)) else text(value)[0]
                  for value in block]
        for start in range(0, count, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, count)
            rows = zip(*[
                text(column[start:stop]) if cell is None else [cell] * (stop - start)
                for column, cell in zip(block, shared)
            ])
            yield ("\n".join(map(",".join, rows)) + "\n").encode("utf-8")


def kernel_text(values):
    """The CSV text of each float of values, from the float kernel."""
    field = quasimode.output._float_field(np.array(values, dtype=float))
    return [bytes(row[row != 0xFF]).decode() for row in field]


def powers_of_ten_and_neighbours(steps):
    values = []
    for exponent in range(-12, 19):
        low = high = float(f"1e{exponent}")
        values.append(low)
        for _ in range(steps):
            low, high = math.nextafter(low, 0.0), math.nextafter(high, math.inf)
            values += [low, high]
    return values


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    # the kernel's range bounds and their neighbours
    1e-11, math.nextafter(1e-11, 0.0), math.nextafter(1e-11, 1.0),
    1e17, math.nextafter(1e17, 0.0), math.nextafter(1e17, math.inf),
    *powers_of_ten_and_neighbours(8),
    # 17 nines, which round up to the next power of ten, and 1...05
    *(float(f"99999999999999999e{e}") for e in range(-28, 1)),
    *(float(f"10000000000000005e{e}") for e in range(-28, 1)),
    # decimal near-ties: 18 significant digits ending in 5
    1.23456789012345675e3, 9.87654321098765435e-7, 5.00000000000000005e16,
    1.00000000000000005e-11, 2.50000000000000015e0, 7.77777777777777775e10,
    # exact ties of 17 digits, printed with the even digit
    1000000000000000.25, 1000000000000000.75, 1234567890123456.25,
    # near-ties where y = |x| 10^s rounds to a half-integer in a 64-bit
    # significand, though the exact product is no tie, so rint(y) is not
    # the 17 digits (found by a search)
    1.4522851547038875e-11, 8.52914566107174e-07, 3.3259689815599453e-08,
    6.163177127051262e-10, 0.7965286400491878, 0.10961823898227537, 0.18449987003599363,
    0.0008342106289654714, 3014.2495133959033, 7.909825224342916, 48459.44083434984,
    9.331214425550357, 723309.9824436463, 42691678.057201385, 468930825421.88885,
    2293149.3220592597,
]

RAW_FLOATS = st.one_of(
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    # the kernel's range, either sign
    st.builds(lambda bits, sign: bits | sign,
              st.integers(min_value=int(np.float64(1e-11).view(np.uint64)),
                          max_value=int(np.float64(1e17).view(np.uint64))),
              st.sampled_from([0, 2 ** 63])),
)


@given(st.lists(RAW_FLOATS, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_float_kernel_is_format_on_raw_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert kernel_text(values) == list(map("{:.16e}".format, values.tolist()))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_float_kernel_is_format_on_edge_values(sign):
    values = [sign * value for value in EDGE_FLOATS]
    assert kernel_text(values) == list(map("{:.16e}".format, values))


def decade_bounds() -> np.ndarray:
    """The least float64 at or above 10^q, at q + 12 for q in [-12, 18]."""
    bounds = []
    for q in range(-12, 19):
        bound = float(Fraction(10) ** q)
        bounds.append(bound if Fraction(bound) >= Fraction(10) ** q else math.nextafter(bound, math.inf))
    return np.array(bounds)


DECADE_BOUNDS = decade_bounds()


def exact_decade(x: np.ndarray) -> np.ndarray:
    """floor(log10 x) of each float64 in [1e-12, 1e18), by comparisons alone."""
    return np.searchsorted(DECADE_BOUNDS, x, side="right") - 13


FIVES = np.array([5 ** s for s in range(28)], dtype=np.uint64)


def near_half(x: np.ndarray, s: np.ndarray, bits: int) -> np.ndarray:
    """Whether Y = x 10^s lies within 2^-bits of a half-integer, decided in
    integers, for positive normal floats x: with x = m 2^k, Y = m 5^s
    2^(k + s), whose fraction is (m 5^s mod 2^j) / 2^j for j = -(k + s) > 0
    and 0 otherwise.  j <= 62 in the kernels' range, and uint64 products are
    exact modulo 2^64, so they give m 5^s mod 2^j."""
    pattern = x.view(np.uint64)
    m = (pattern & np.uint64(2 ** 52 - 1)) | np.uint64(2 ** 52)
    j = 1075 - (pattern >> np.uint64(52)).astype(np.int64) - s
    assert j.max(initial=0) <= 62
    shift = np.maximum(j, 1).astype(np.uint64)
    fraction = (m * FIVES[s]) & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    distance = np.where(fraction > half, fraction - half, half - fraction)
    return (j > 0) & (distance <= (np.uint64(1) << shift) >> np.uint64(bits))


def test_float_kernel_is_format_near_rounding_ties():
    # A million cells with Y = |x| 10^(16 - p) within 2^-6 of a
    # half-integer, chosen by exact integer arithmetic, at every p the
    # kernel keeps.
    rng = np.random.default_rng(20261019)
    near, count = [], 0
    while count < 1_000_000:
        x = rng.uniform(1.0, 10.0, 1 << 20) * 10.0 ** rng.integers(-11, 17, 1 << 20)
        p = exact_decade(x)
        x, p = x[(p >= -11) & (p <= 16)], p[(p >= -11) & (p <= 16)]
        near.append(x[near_half(x, 16 - p, 6)])
        count += len(near[-1])
    values = np.concatenate(near) * rng.choice([-1.0, 1.0], count)
    texts = list(map("{:.16e}".format, values.tolist()))
    field = quasimode.output._float_field(values)
    kept = field != 0xFF
    assert (kept.sum(axis=1) == np.array(list(map(len, texts)))).all()
    assert field[kept].tobytes() == "".join(texts).encode()


def repr_text(values):
    """The JSON text of each float: float.__repr__, as json spells it."""
    return [text.encode() if math.isfinite(value) else json.dumps(value).encode()
            for value, text in zip(values, map(float.__repr__, values))]


def repr_kernel_text(values):
    """The JSON text of each float from the kernel, in calls of 2^16 cells."""
    values = np.asarray(values, dtype=float)
    return [text for start in range(0, len(values), 1 << 16)
            for text in quasimode.output._repr_cells(values[start:start + (1 << 16)])]


def powers_of_two_and_neighbours(steps):
    values = []
    for exponent in range(-38, 58):
        low = high = 2.0 ** exponent
        values.append(low)
        for _ in range(steps):
            low, high = math.nextafter(low, 0.0), math.nextafter(high, math.inf)
            values += [low, high]
    return values


def interval_ends_on_a_decimal(rng, count):
    """Floats in [2^54, 1e17) whose rounding interval ends exactly on a
    multiple of 10 or of 100: M +- half an ulp, both neighbours of M."""
    values = []
    for ulp, low, high in [(4, 2 ** 54, 2 ** 55), (8, 2 ** 55, 2 ** 56), (16, 2 ** 56, 10 ** 17)]:
        for unit in (10, 100):
            multiples = rng.integers(low // unit + 1, high // unit - 1, 8 * count) * unit
            multiples = multiples[multiples % ulp == ulp // 2][:count]
            values += [float(m + side * ulp // 2) for m in multiples.tolist() for side in (-1, 1)]
    return values


def near_repr_decisions(rng, count):
    """count floats whose y lies within 2^-6 of an end of their rounding
    interval, seen from the multiple of 10 or 100 nearest to y."""
    found, total = [], 0
    while total < count:
        x = rng.uniform(1.0, 10.0, 1 << 18) * 10.0 ** rng.integers(-11, 17, 1 << 18)
        _, kept, p, d, r = quasimode.output._decimal(x)
        t = d % 100 + r
        h = np.spacing(x) / 2 * 10.0 ** (16 - p)
        to100 = np.abs(t - 100 * (t > 50))
        to10 = np.abs(t - 10 * np.floor(t / 10 + 0.5))
        near = kept & ((np.abs(to100 - h) < 2.0 ** -6) | (np.abs(to10 - h) < 2.0 ** -6))
        found.append(x[near])
        total += near.sum()
    return np.concatenate(found)[:count]


def repr_kernel_cases():
    """About a million seeded floats for the JSON kernel, of both signs."""
    rng = np.random.default_rng(20261019)
    n = 150_000
    values = np.concatenate([
        np.exp(rng.uniform(math.log(1e-12), math.log(1e17), 4 * n)),  # log-uniform
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),  # raw bit patterns
        rng.integers(1, 2 ** 30, n) / 2.0 ** rng.integers(0, 60, n),  # dyadic
        np.round(rng.uniform(0.0, 1000.0, n), 3) * 10.0 ** rng.integers(-8, 12, n),  # 3 decimals
        near_repr_decisions(rng, 10_000),
        interval_ends_on_a_decimal(rng, 2_000),
        powers_of_ten_and_neighbours(64),
        powers_of_two_and_neighbours(64),
        EDGE_FLOATS,
    ])
    signs = rng.integers(0, 2, len(values), dtype=np.uint64) << np.uint64(63)
    return (values.view(np.uint64) ^ signs).view(np.float64)


def test_repr_kernel_is_float_repr():
    values = repr_kernel_cases()
    assert len(values) > 1_000_000
    assert repr_kernel_text(values) == repr_text(values.tolist())


def test_repr_kernel_lays_out_each_notation():
    values = [1e-06, 3.5e-05, 0.0001, 0.25, 2.0, -12.5, 1234567890123456.8, 1e16, 1.2345e17,
              0.1, 1 / 3, 1e15, 123456789012345.67, -0.0, 0.0, math.nan, -math.inf, 5e-324]
    values = values * (quasimode.output._REPR_KERNEL_MIN // len(values) + 1)
    assert repr_kernel_text(values) == repr_text(values)


def test_repr_kernel_takes_the_exact_path_where_it_cannot_run(monkeypatch):
    values = repr_kernel_cases()[::50]
    expected = repr_text(values.tolist())
    # the layout shifts bytes within little-endian words
    monkeypatch.setattr(sys, "byteorder", "big")
    assert repr_kernel_text(values) == expected


def assert_kernels_are_format_and_repr(values):
    """Both kernels give the texts of "{:.16e}".format and float.__repr__ on
    values and their negatives."""
    values = np.concatenate([values, -values])
    assert kernel_text(values) == list(map("{:.16e}".format, values.tolist()))
    assert repr_kernel_text(values) == repr_text(values.tolist())


def residues(rng, count, j, residue, width, inverse, k, p):
    """Up to count floats x = m 2^k in the decade p, 2^52 <= m < 2^53, with
    m = (residue + w) inverse modulo 2^j for drawn integers |w| <= width:
    m takes random bits above bit j - 1 where j <= 52, and is kept only if
    it lies in range where j > 52."""
    draws = 1 << 16 if j > 52 else count
    drawn = np.uint64(residue) + rng.integers(-width, width + 1, draws).astype(np.uint64)
    m = (drawn * np.uint64(inverse)) & np.uint64(2 ** j - 1)
    if j <= 52:
        m |= rng.integers(2 ** 52, 2 ** 53, draws, dtype=np.uint64) >> np.uint64(j) << np.uint64(j)
    x = np.ldexp(m.astype(float), k)
    x = x[(m >= 2 ** 52) & (m < 2 ** 53)]
    return x[exact_decade(x) == p][:count]


def near_halves(rng, count):
    """Up to count floats for each s in [0, 27], each binade of the decade
    p = 16 - s and each window, whose Y = x 10^s lies within 2^-30, or
    2^-50 (the front end's error), of a half-integer, exact halves included:
    with x = m 2^k and j = -(k + s) > 0, Y's fraction is (m 5^s mod 2^j) / 2^j."""
    found = []
    for s in range(28):
        low = math.floor(math.log2(10.0 ** (16 - s))) - 52
        for j in range(max(-low - s - 4, 1), -low - s + 1):
            for bits in (30, 50):
                found.append(residues(rng, count, j, 2 ** (j - 1), 2 ** (j - bits) if j >= bits else 0,
                                      pow(5 ** s, -1, 2 ** 64), -j - s, 16 - s))
    return np.concatenate(found)


def near_odd_fives(rng, count):
    """Up to count floats for each s in [2, 27] whose Y = x 10^s lies within
    2^-40 of an odd multiple of 5, and whose rounding interval Y +- h holds
    both multiples of 10 beside it.  With x = m 2^k and j = -(k + s),
    h = 5^s / 2^(j + 1), in (5, 10] for j = floor(log2 5^(s - 1)) - 1, and
    Y = 10 n + 5 + 5 d / 2^j where m 5^(s - 1) = 2^j + d modulo 2^(j + 1)."""
    found = []
    for s in range(2, 28):
        j = math.floor(math.log2(5 ** (s - 1))) - 1
        found.append(residues(rng, count, j + 1, 2 ** j, 2 ** max(j - 40, 0) // 5,
                              pow(5 ** (s - 1), -1, 2 ** 64), -j - s, 16 - s))
    return np.concatenate(found)


def test_kernels_below_1e_minus_6():
    # s >= 23: 10^s is no float64, and its rest L enters every product.
    rng = np.random.default_rng(20261020)
    values = np.exp(rng.uniform(math.log(1e-11), math.log(1e-6), 200_000))
    values = np.concatenate([values, near_halves(rng, 200)])
    values = values[(values < 1e-6) & (values >= 1e-11)]
    assert (16 - exact_decade(values) >= 23).all()
    assert_kernels_are_format_and_repr(values)


def test_kernels_within_2_to_the_minus_30_of_a_half_integer():
    values = near_halves(np.random.default_rng(20261021), 200)
    s = 16 - exact_decade(values)
    assert set(s.tolist()) == set(range(1, 28))  # at s = 0, Y = |x| >= 10^16 is an integer
    assert near_half(values, s, 30).all()
    # and by Python's exact rationals
    assert all(abs(y - math.floor(y) - Fraction(1, 2)) <= Fraction(1, 2 ** 30)
               for y in (Fraction(x) * 10 ** s for x, s in zip(values.tolist(), s.tolist())))
    assert_kernels_are_format_and_repr(values)


def test_repr_kernel_halfway_between_two_multiples_of_10_inside_the_interval():
    values = near_odd_fives(np.random.default_rng(20261024), 200)
    s = 16 - exact_decade(values)
    assert set(s.tolist()) == set(range(2, 28))
    for x, scale in zip(values.tolist(), s.tolist()):
        y = Fraction(x) * 10 ** scale
        assert abs(y % 10 - 5) <= Fraction(1, 2 ** 40)
        assert Fraction(math.ulp(x)) / 2 * 10 ** scale > 5
    assert_kernels_are_format_and_repr(values)


def test_kernels_where_the_product_lands_on_a_power_of_ten():
    # Y within a few units of 10^16 or 10^17, where P = fl(|x| H) is that
    # power and e takes either sign, at the decimal exponent p and at its
    # neighbours, the exponents np.log10 may give before the front end
    # corrects it.
    values = np.array(powers_of_ten_and_neighbours(64))
    values = values[(values >= 1e-11) & (values < 1e17)]
    seen = set()
    for x, p in zip(values.tolist(), exact_decade(values).tolist()):
        for s in range(max(15 - p, 0), min(17 - p, 27) + 1):
            big = x * float(10 ** s)
            if big in (1e16, 1e17):
                seen.add((big, Fraction(x) * 10 ** s > big))
    assert seen == {(1e16, False), (1e16, True), (1e17, False), (1e17, True)}
    assert_kernels_are_format_and_repr(values)


@pytest.mark.parametrize("off", [-1.0, 1.0])
def test_kernels_correct_a_decimal_exponent_off_by_one(off, monkeypatch):
    """Every cell whose np.log10 misses floor(log10 |x|) by one takes one
    corrected step: here np.log10 misses it for every cell."""
    rng = np.random.default_rng(20261022)
    values = np.concatenate([
        np.exp(rng.uniform(math.log(1e-11), math.log(1e17), 20_000)),
        np.array(powers_of_ten_and_neighbours(8)), near_halves(rng, 4),
    ])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + off)
    assert_kernels_are_format_and_repr(values)


def test_kernels_exact_path_shares_on_uniform_data():
    """At most 0.01% of a million cells uniform on [0.01, 3] take either
    kernel's exact path (none do): a kernel whose front end fell back to
    per-cell formatting would take it for all."""
    values = np.random.default_rng(20261023).uniform(0.01, 3.0, 1_000_000)
    csv = json_ = 0
    for start in range(0, len(values), 1 << 16):
        part = values[start:start + (1 << 16)]
        csv += np.count_nonzero(~quasimode.output._decimal(part)[1])
        json_ += len(quasimode.output._shortest_digits(part)[2])
    assert csv <= 1e-4 * len(values)
    assert json_ <= 1e-4 * len(values)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_json_chunks_either_side_of_the_kernel_break_even(offset, monkeypatch):
    """A chunk of one float cell fewer than the break-even is formatted cell
    by cell; one of the break-even or more takes one kernel call.  Only the
    cells of float64 arrays count: shared floats and Labels of floats are
    encoded once per block, apart from the kernel."""
    calls = []
    decimal = quasimode.output._decimal
    monkeypatch.setattr(quasimode.output, "_decimal", lambda x: calls.append(len(x)) or decimal(x))
    cells = quasimode.output._REPR_KERNEL_MIN + offset
    assert cells <= CHUNK_ROWS
    values = repr_kernel_cases()[:cells]
    # one float column, a shared float and Labels of str; then two float
    # columns of cells // 2 each (one below, two at the break-even), a
    # shared float, Labels of floats and a shared int
    half = cells // 2
    for block, floats in [
        ([values, 0.5, labels(["x"] * cells)], cells),
        ([values[:half], 0.5, values[half:2 * half], labels([0.25, 1e300] * half)[:half], 7],
         2 * half),
    ]:
        calls.clear()
        header = list("abcdef"[:len(block)])
        doc = {"schema_version": 1, "columns": header, "rows": rows_of([block])}
        expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        assert render_json_table(header, [block]) == expected
        assert calls == ([floats] if floats >= quasimode.output._REPR_KERNEL_MIN else [])


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_chunks_either_side_of_the_kernel_break_even(offset, monkeypatch):
    """A chunk of one float cell fewer than the CSV break-even is formatted
    by "{:.16e}".format cell by cell; one of the break-even or more takes
    one kernel call.  Only the cells of float64 arrays count."""
    calls = []
    decimal = quasimode.output._decimal
    monkeypatch.setattr(quasimode.output, "_decimal", lambda x: calls.append(len(x)) or decimal(x))
    cells = quasimode.output._FORMAT_KERNEL_MIN + offset
    values = np.array(EDGE_FLOATS[:cells])
    half = cells // 2
    for block, floats in [
        ([values, 0.5, labels(["x"] * cells)], cells),
        ([values[:half], 0.5, values[half:2 * half], labels([0.25, 1e300] * half)[:half], 7],
         2 * half),
    ]:
        calls.clear()
        header = list("abcde"[:len(block)])
        lines = [",".join(header)] + [",".join(map(csv_cell, row)) for row in rows_of([block])]
        assert render_csv(header, [block]) == ("\n".join(lines) + "\n").encode()
        assert calls == ([floats] if floats >= quasimode.output._FORMAT_KERNEL_MIN else [])


# Labels of floats: each edge value, then drawn ones.
LABEL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@given(drawn=st.lists(FLOATS, max_size=20), count=st.sampled_from([1, 7, CHUNK_ROWS + 3]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_float_labels_are_format_in_csv_and_repr_in_json(drawn, count, seed):
    values = (*LABEL_FLOATS, *drawn)
    codes = np.random.default_rng(seed).integers(0, len(values), count)
    column = Labels(codes.astype(np.uint8), values)
    cells = [values[code] for code in codes.tolist()]
    block = [np.arange(count, dtype=float), column, values[-1]]
    csv = "".join(f"{i:.16e},{cell:.16e},{values[-1]:.16e}\n" for i, cell in enumerate(cells))
    assert render_csv(["a", "b", "c"], [block]) == ("a,b,c\n" + csv).encode()
    rows = [[float(i), cell, values[-1]] for i, cell in enumerate(cells)]
    doc = {"schema_version": 1, "columns": ["a", "b", "c"], "rows": rows}
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert render_json_table(["a", "b", "c"], [block]) == json_text.encode()


@pytest.mark.parametrize("chunks,encoder", [
    (csv_chunks, "_csv_texts"), (json_table_chunks, "_json_texts"),
])
def test_labels_values_are_encoded_once_per_block(chunks, encoder, monkeypatch):
    """Each Labels column's values, and each shared value, are encoded once
    per block, however many chunks the block takes, and not again in the
    next block if it holds Labels over the same values tuple object, or the
    same value.  Labels over an equal tuple that is another object are
    encoded again: the rule is identity, never equality."""
    calls = []
    encode = getattr(quasimode.output, encoder)
    monkeypatch.setattr(quasimode.output, encoder,
                        lambda kind, values: calls.append(values) or encode(kind, values))
    count = 3 * CHUNK_ROWS + 100  # every chunk's float cells pass the CSV kernel's break-even
    floats = labels([0.5, 1.5, 2.5] * count)[:count]
    zeros = np.zeros(count, np.uint8)
    # Each block's Labels are new objects: the floats' over the same values
    # tuple, the last two over a new tuple each, equal to the other block's.
    blocks = [[np.arange(count, dtype=float), labels(["plus", "minus"] * count)[:count],
               Labels(floats.codes[::-1 if i else 1].copy(), floats.values), 7,
               -0.0 if i else 0.0, Labels(zeros, (-0.0 if i else 0.0,)),
               Labels(zeros, (1.0 if i else 1,))] for i in range(2)]
    header = ["a", "b", "c", "d", "e", "f", "g"]
    text = b"".join(chunks(header, blocks))
    # the second block's str Labels, -0.0 and the last two Labels' values
    # are new objects, its floats' values and 7 are not
    assert list(map(repr, calls)) == [
        "('plus', 'minus')", "(0.5, 1.5, 2.5)", "(7,)", "(0.0,)", "(0.0,)", "(1,)",
        "('plus', 'minus')", "(-0.0,)", "(-0.0,)", "(1.0,)",
    ]
    rows = rows_of(blocks)
    if chunks is csv_chunks:
        lines = "".join(",".join(map(csv_cell, row)) + "\n" for row in rows)
        assert text.decode() == ",".join(header) + "\n" + lines
    else:
        doc = {"schema_version": 1, "columns": header, "rows": rows}
        assert text == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("layout", ["SSFF", "FSSF", "FFSS", "SLS", "SSFSLSS", "SSS"])
@pytest.mark.parametrize("count", [1, 3, CHUNK_ROWS + 1])
def test_json_runs_of_shared_cells_are_the_bytes_of_json_dumps(layout, count):
    """Adjacent shared values are joined once per chunk, as is every cell of
    a one-row chunk (the last chunk of CHUNK_ROWS + 1 rows, or every chunk
    of one row): runs at the start, middle and end of a row, and a Labels
    column between two runs."""
    shared = iter([0.1, "é\n\"", 7, -0.0, math.nan, 1e300, "x", -3, math.inf, 2.5e-7])
    rng = np.random.default_rng(count)
    make = {"S": lambda: next(shared), "F": lambda: rng.uniform(-3.0, 3.0, count),
            "L": lambda: labels(["plus", "minus"] * count)[:count]}
    block = [make[kind]() for kind in layout]
    if set(layout) == {"S"}:
        block.append(np.arange(count, dtype=float))
    header = [f"c{i}" for i in range(len(block))]
    doc = {"schema_version": 1, "columns": header, "rows": rows_of([block])}
    assert render_json_table(header, [block]) == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@given(table=tables(), meta=st.dictionaries(st.sampled_from(["quantity", "units"]), st.text()))
@settings(max_examples=60, deadline=None)
def test_json_chunks_are_the_bytes_of_json_dumps(table, meta):
    header, blocks = table
    doc = {"schema_version": 1, **meta, "columns": header, "rows": rows_of(blocks)}
    expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert b"".join(json_table_chunks(header, blocks, **meta)) == expected
    assert render_json_table(header, blocks, **meta) == expected


@given(table=tables())
@settings(max_examples=60, deadline=None)
def test_csv_chunks_are_the_bytes_of_the_joined_lines(table):
    header, blocks = table
    lines = [",".join(header)] + [",".join(map(csv_cell, row)) for row in rows_of(blocks)]
    expected = ("\n".join(lines) + "\n").encode("utf-8")
    assert b"".join(csv_chunks(header, blocks)) == expected
    assert render_csv(header, blocks) == expected


@given(table=tables())
@settings(max_examples=60, deadline=None)
def test_csv_chunks_are_the_per_cell_chunks(table):
    header, blocks = table
    assert list(csv_chunks(header, blocks)) == list(reference_csv_chunks(header, blocks))


@pytest.mark.parametrize("counts", [[count] for count in ROW_COUNTS] + [
    [CHUNK_ROWS - 1, 2, CHUNK_ROWS + 1], [0, 3 * CHUNK_ROWS + 5, 0, 1],
])
def test_chunks_hold_at_most_chunk_rows_of_one_block(counts):
    blocks = [[np.arange(count, dtype=float), 7] for count in counts]
    chunks = list(csv_chunks(["a", "b"], blocks))
    assert chunks[0] == b"a,b\n"
    assert [chunk.count(b"\n") for chunk in chunks[1:]] == [
        min(CHUNK_ROWS, count - start)
        for count in counts for start in range(0, count, CHUNK_ROWS)
    ]


def test_renderers_return_whole_documents_as_bytes():
    assert render_csv(["a", "b"], [[np.array([1.5]), "x"]]) == b"a,b\n1.5000000000000000e+00,x\n"
    table = render_json_table(["a"], [[labels(["plus"])]], quantity="q")
    assert isinstance(table, bytes)
    assert json.loads(table) == {"schema_version": 1, "columns": ["a"], "quantity": "q",
                                 "rows": [["plus"]]}
    assert render_json({"a": 1}) == b'{\n  "a": 1,\n  "schema_version": 1\n}\n'


@pytest.mark.parametrize("render", [render_csv, render_json_table])
@pytest.mark.parametrize("column,name", [
    (True, "bool"),
    (None, "NoneType"),
    (Branch.PLUS, "Branch"),
    (np.float64(1.0), "float64"),
    (labels([False]), "bool"),
    (labels([None]), "NoneType"),
    (labels([Regime.TRAVELING]), "Regime"),
    (labels(["plus", 1]), "int, str"),
    (Labels(np.zeros(2, dtype=np.uint8), ("plus", 1)), "int, str"),
    (labels([np.float64(1.0)]), "float64"),
    (labels([1.0, 2]), "float, int"),
    (Labels(np.zeros(2, dtype=np.uint8), (1.0, "1")), "float, str"),
    (Labels(np.zeros(2, dtype=np.uint8), (1.0, np.float64(2.0))), "float, float64"),
    (np.array([True]), "bool"),
    (np.array(["plus"], dtype=object), "object"),
    (np.array([1, 2]), "int64"),
])
def test_unsupported_cell_type_is_a_type_error_naming_it(render, column, name):
    floats = np.zeros(len(column) if isinstance(column, (np.ndarray, Labels)) else 1)
    with pytest.raises(TypeError, match=name):
        render(["a", "b"], [[floats, column]])


@pytest.mark.parametrize("render", [render_csv, render_json_table])
def test_str_cells_keep_the_nul_bytes_numpy_strings_would_drop(render):
    column = labels(["", "\x00", "a\x00", "a"] * 3)
    blocks = [[np.arange(len(column), dtype=float), column]]
    if render is render_csv:
        expected = "a,b\n" + "".join(f"{i:.16e},{cell}\n" for i, cell in enumerate(cells_of(column)))
        assert render(["a", "b"], blocks) == expected.encode()
    else:
        doc = {"schema_version": 1, "columns": ["a", "b"], "rows": rows_of(blocks)}
        assert render(["a", "b"], blocks) == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("block", [[0.5, "x"], [np.zeros(2), np.zeros(3)]])
def test_block_needs_arrays_of_one_length(block):
    with pytest.raises(ValueError):
        render_csv(["a", "b"], [block])


def _fail_after_first_chunk(chunks, error):
    yield next(iter(chunks))
    raise error


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   TypeError("unexpected cell type")])
def test_failed_write_removes_the_partial_file(error, tmp_path):
    out = tmp_path / "new" / "table.csv"
    blocks = [[np.full(2 * CHUNK_ROWS, 0.5), 1]]
    with pytest.raises(type(error)):
        write_bytes(_fail_after_first_chunk(csv_chunks(["a", "b"], blocks), error), out)
    assert not out.exists()


def test_failed_close_removes_the_file(tmp_path, monkeypatch):
    class FailingClose(io.FileIO):
        def close(self):
            super().close()
            raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(Path, "open", lambda path, mode: FailingClose(path, "w"))
    out = tmp_path / "table.csv"
    with pytest.raises(OSError):
        write_bytes([b"a,b\n"], out)
    assert not out.exists()


@pytest.fixture
def unlinked(monkeypatch):
    """The paths given to Path.unlink, os.unlink or os.remove, which are
    recorded and left in place: a failed write to a device must not remove it."""
    calls = []
    for owner, name in [(Path, "unlink"), (os, "unlink"), (os, "remove")]:
        monkeypatch.setattr(owner, name, lambda path, *args, **kwargs: calls.append(Path(path)))
    return calls


@pytest.mark.parametrize("regular", [True, False])
def test_failed_write_removes_only_a_regular_file(regular, tmp_path, unlinked):
    out = tmp_path / "table.csv" if regular else Path(os.devnull)
    blocks = [[np.full(2 * CHUNK_ROWS, 0.5), 1]]
    error = TypeError("unexpected cell type")
    with pytest.raises(TypeError):
        write_bytes(_fail_after_first_chunk(csv_chunks(["a", "b"], blocks), error), out)
    assert unlinked == ([out] if regular else [])


@pytest.mark.skipif(not Path("/dev/full").is_char_device(), reason="no /dev/full")
def test_sweep_to_a_full_device_leaves_it_in_place(unlinked, capsys):
    argv = ["sweep", "dispersion", "--xi", "0.5", "--k", "0.1:2:5000", "--out", "/dev/full"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    assert unlinked == []


@pytest.mark.parametrize("fmt,source", [("csv", "csv_chunks"), ("json", "json_table_chunks")])
def test_failed_sweep_write_leaves_no_file(fmt, source, tmp_path, monkeypatch, capsys):
    real = getattr(quasimode.cli, source)
    error = None

    def failing(header, blocks, **meta):
        return _fail_after_first_chunk(real(header, blocks, **meta), error)

    monkeypatch.setattr(quasimode.cli, source, failing)
    out = tmp_path / "sweep.out"
    argv = ["sweep", "dispersion", "--xi", "0.5", "--k", "0.1:2:3000", "--format", fmt,
            "--out", str(out)]
    error = OSError(errno.ENOSPC, "No space left on device")
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    error = TypeError("unexpected cell type")
    with pytest.raises(TypeError):
        main(argv)
    assert not out.exists()


@pytest.mark.parametrize("chunks", [csv_chunks, json_table_chunks])
def test_write_memory_is_flat_in_row_count(chunks, tmp_path):
    """Peak traced allocation while writing 4N rows exceeds that of N rows by
    less than two chunks of output, where a whole-document writer grows by
    several copies of the 3N extra rows' text."""
    header = ["omega", "xi", "branch", "re_k", "im_k", "regime", "n"]

    def block(n: int) -> list:
        return [
            np.full(n, 0.123456789), 0.5, labels([Branch.MINUS.value] * n),
            np.full(n, 1.25e-7), np.full(n, -3.5), labels([Regime.TRAVELING.value] * n),
            labels([7] * n),
        ]

    chunk_bytes = max(len(chunk) for chunk in chunks(header, [block(CHUNK_ROWS)]))

    def peak(n: int) -> int:
        blocks = [block(n)]
        tracemalloc.start()
        try:
            write_bytes(chunks(header, blocks), tmp_path / "table")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 4 * CHUNK_ROWS
    assert peak(4 * n) - peak(n) < 2 * chunk_bytes


@pytest.mark.parametrize("quantity", ["spectrum", "wavenumber"])
def test_evaluation_memory_is_bounded_by_a_slice(quantity):
    """The traced peak of sweep_columns above the columns it returns is the
    same at 40,000 and 400,000 points, within a bound of one slice's
    temporaries (256 bytes a point of a slice, some four times what the
    kernels hold): a block evaluated in one call holds temporaries of its
    whole grid, 50 to 90 bytes a point, some 20 to 30 MB more at 400,000."""
    def spec(points: int) -> SweepSpec:
        spec = SweepSpec(quantity, (0.5,), np.linspace(0.05, 3.0, points), omega_p=1.3,
                         units="atomic" if quantity == "spectrum" else "reduced")
        spec.validate()
        return spec

    def above_kept(points: int) -> int:
        grid_spec = spec(points)
        tracemalloc.start()
        try:
            table = sweep_columns(grid_spec)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del table
        return peak - kept

    sweep_columns(spec(10))  # imports and caches outside the trace
    assert abs(above_kept(400_000) - above_kept(40_000)) <= 256 * _SLICE


def test_spectrum_sweep_holds_no_python_object_per_row(tmp_path):
    """Peak traced allocation of a 100,000-row spectrum sweep at one level,
    below 80 bytes a row.  Its five float64 columns, the uint8 codes of n
    and the grid take 49 bytes a row, and the evaluation's temporaries are
    one 4,096-point slice's (they were about 48 bytes a row when a block was
    one call over its whole grid); a Python float per row (a grid tuple, a
    whole-array tolist) adds 32 bytes or more, an np.repeat copy of a
    column 8."""
    argv = ["sweep", "spectrum", "--xi", "0.5", "--omega-p", "1.3", "--p", "0.1,0.2,0.3",
            "--out", str(tmp_path / "spectrum.csv")]
    main([*argv, "--omega", "0.05:5:10"])  # imports and caches outside the trace
    rows = 100_000
    tracemalloc.start()
    try:
        assert main([*argv, "--omega", f"0.05:5:{rows}"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * rows
