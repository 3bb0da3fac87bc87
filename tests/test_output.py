import enum
import errno
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasimode.cli
from quasimode import Branch, Regime
from quasimode.cli import EXIT_USAGE, main
from quasimode.output import (
    CHUNK_ROWS,
    csv_chunks,
    format_cell,
    json_table_chunks,
    render_csv,
    render_json,
    render_json_table,
    write_bytes,
)

ROW_COUNTS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5]

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
CELLS = st.one_of(
    FLOATS,
    st.integers(),
    st.booleans(),
    st.none(),
    st.sampled_from([*Branch, *Regime]),
    st.text(),
    st.sampled_from(['"', "\\", "\n", ",", "é☃", "\x00\x1f", "\n      nan"]),
)


@st.composite
def tables(draw):
    """(header, rows): rows cycle through a few drawn rows of the header's
    width, up to one of the row counts around the chunk boundaries."""
    width = draw(st.integers(min_value=0, max_value=4))
    header = draw(st.lists(st.text(), min_size=width, max_size=width))
    pool = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), min_size=1, max_size=5))
    count = draw(st.sampled_from(ROW_COUNTS))
    return header, [pool[i % len(pool)] for i in range(count)]


def _json_value(value):
    return value.value if isinstance(value, enum.Enum) else value


@given(table=tables(), meta=st.dictionaries(st.sampled_from(["quantity", "units"]), st.text()))
@settings(max_examples=60, deadline=None)
def test_json_chunks_are_the_bytes_of_json_dumps(table, meta):
    header, rows = table
    doc = {"schema_version": 1, **meta, "columns": header,
           "rows": [[_json_value(v) for v in row] for row in rows]}
    expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert b"".join(json_table_chunks(header, rows, **meta)) == expected
    assert render_json_table(header, rows, **meta) == expected


@given(table=tables())
@settings(max_examples=60, deadline=None)
def test_csv_chunks_are_the_bytes_of_the_joined_lines(table):
    header, rows = table
    lines = [",".join(header)] + [",".join(format_cell(v) for v in row) for row in rows]
    expected = ("\n".join(lines) + "\n").encode("utf-8")
    assert b"".join(csv_chunks(header, rows)) == expected
    assert render_csv(header, rows) == expected


@pytest.mark.parametrize("count", ROW_COUNTS)
def test_chunks_hold_at_most_chunk_rows(count):
    rows = [[float(i), i] for i in range(count)]
    chunks = list(csv_chunks(["a", "b"], rows))
    assert chunks[0] == b"a,b\n"
    assert [chunk.count(b"\n") for chunk in chunks[1:]] == [
        min(CHUNK_ROWS, count - start) for start in range(0, count, CHUNK_ROWS)
    ]


def test_renderers_return_whole_documents_as_bytes():
    assert render_csv(["a"], [[1.5]]) == b"a\n1.5000000000000000e+00\n"
    table = render_json_table(["a"], [[Branch.PLUS]], quantity="q")
    assert isinstance(table, bytes)
    assert json.loads(table) == {"schema_version": 1, "columns": ["a"], "quantity": "q",
                                 "rows": [["plus"]]}
    assert render_json({"a": 1}) == b'{\n  "a": 1,\n  "schema_version": 1\n}\n'


def _fail_after_first_chunk(chunks, error):
    yield next(iter(chunks))
    raise error


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   TypeError("unexpected cell type")])
def test_failed_write_removes_the_partial_file(error, tmp_path):
    out = tmp_path / "new" / "table.csv"
    rows = [[0.5, 1]] * (2 * CHUNK_ROWS)
    with pytest.raises(type(error)):
        write_bytes(_fail_after_first_chunk(csv_chunks(["a", "b"], rows), error), out)
    assert not out.exists()


@pytest.mark.parametrize("fmt,source", [("csv", "csv_chunks"), ("json", "json_table_chunks")])
def test_failed_sweep_write_leaves_no_file(fmt, source, tmp_path, monkeypatch, capsys):
    real = getattr(quasimode.cli, source)
    error = None

    def failing(header, rows, **meta):
        return _fail_after_first_chunk(real(header, rows, **meta), error)

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
    row = [0.123456789, 0.5, Branch.MINUS, 1.25e-7, -3.5, Regime.TRAVELING, 7]
    chunk_bytes = max(len(chunk) for chunk in chunks(header, [row] * CHUNK_ROWS))

    def peak(n: int) -> int:
        rows = [list(row) for _ in range(n)]
        tracemalloc.start()
        try:
            write_bytes(chunks(header, rows), tmp_path / "table")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 4 * CHUNK_ROWS
    assert peak(4 * n) - peak(n) < 2 * chunk_bytes
