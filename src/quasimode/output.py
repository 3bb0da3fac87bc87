"""Deterministic CSV/JSON table emission.

CSV floats are rendered with 17 significant digits (lossless for binary64)
in scientific notation; JSON documents are those of `json.dumps(indent=2,
sort_keys=True)`.  Files are UTF-8 with LF line endings, written as bytes so
the platform newline translation never interferes.  Re-running the same spec
on the same platform reproduces files byte for byte.

A table is a list of blocks, each a list of columns: a numpy array whose
cells are all float, all int or all str, or one value every row shares.
Tables are produced as a stream of byte chunks of at most CHUNK_ROWS rows of
one block, so a writer holds one chunk of text at a time whatever the row
count.  `render_csv` and `render_json_table` join the same chunks into one
document.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

SCHEMA_VERSION = 1

# Rows per streamed chunk: a few hundred kB of text for the widest table.
CHUNK_ROWS = 1024

# The CSV and the JSON text of a cell, by the cell's type.
_CSV, _JSON = 0, 1
_CELL_TEXT = {
    float: ("{:.16e}".format, float.__repr__),
    int: (int.__repr__, int.__repr__),
    str: (str, encode_basestring_ascii),
}

# float.__repr__ spells the non-finite floats as json does not.  A JSON cell
# line can start with one of these only for a float: strings are quoted and
# ints are digits.
_JSON_NON_FINITE = (
    ("\n      nan", "\n      NaN"),
    ("\n      inf", "\n      Infinity"),
    ("\n      -inf", "\n      -Infinity"),
)


def _text(column: Any, fmt: int) -> list[str]:
    """The text of an array's cells, or of a shared value as one cell."""
    array = isinstance(column, np.ndarray)
    cells = column.tolist() if array else [column]
    types = {float} if array and column.dtype == float else set(map(type, cells))
    if len(types) > 1 or not types.issubset(_CELL_TEXT):
        names = ", ".join(sorted(kind.__name__ for kind in types))
        raise TypeError(f"table cells must all be float, int or str, got {names}")
    return list(map(_CELL_TEXT[types.pop()][fmt], cells))


def _text_rows(blocks: Iterable[list], fmt: int) -> Iterator[Iterator[tuple[str, ...]]]:
    """The cell text of the blocks' rows, one iterator of rows per chunk: at
    most CHUNK_ROWS rows, all from one block."""
    for block in blocks:
        # A ValueError unless the block has arrays, all of one length.
        (count,) = {len(column) for column in block if isinstance(column, np.ndarray)}
        shared = [None if isinstance(value, np.ndarray) else _text(value, fmt)[0]
                  for value in block]
        for start in range(0, count, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, count)
            yield zip(*[
                _text(column[start:stop], fmt) if text is None else [text] * (stop - start)
                for column, text in zip(block, shared)
            ])


def csv_chunks(header: list[str], blocks: Iterable[list]) -> Iterator[bytes]:
    """The CSV document of header and blocks, as UTF-8 chunks of at most
    CHUNK_ROWS rows of one block (the header line is a chunk of its own)."""
    yield (",".join(header) + "\n").encode("utf-8")
    for rows in _text_rows(blocks, _CSV):
        yield ("\n".join(map(",".join, rows)) + "\n").encode("utf-8")


def json_table_chunks(header: list[str], blocks: Iterable[list], **meta: Any) -> Iterator[bytes]:
    """The JSON table document of header, blocks and meta, as UTF-8 chunks of
    at most CHUNK_ROWS rows of one block; the bytes are those of render_json
    on the whole table."""
    doc = _json_text({**meta, "columns": list(header), "rows": []})
    head, _, tail = doc.partition('"rows": []')
    empty = True
    for rows in _text_rows(blocks, _JSON):
        text = "\n    ],\n    [\n      ".join(map(",\n      ".join, rows))
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
