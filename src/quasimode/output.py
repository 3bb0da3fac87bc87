"""Deterministic CSV/JSON table emission.

CSV floats are rendered with 17 significant digits (lossless for binary64)
in scientific notation; JSON documents are those of `json.dumps(indent=2,
sort_keys=True)`.  Files are UTF-8 with LF line endings, written as bytes so
the platform newline translation never interferes.  Re-running the same spec
on the same platform reproduces files byte for byte.

Tables are produced as a stream of byte chunks of CHUNK_ROWS rows each, so a
writer holds one chunk of text at a time whatever the row count.
`render_csv` and `render_json_table` join the same chunks into one document.
"""

from __future__ import annotations

import enum
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator

SCHEMA_VERSION = 1

# Rows per streamed chunk: a few hundred kB of text for the widest table.
CHUNK_ROWS = 1024

_BOOL_TEXT = {True: "true", False: "false"}


def format_cell(value: Any) -> str:
    """The CSV text of one cell, for any cell type."""
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _json_cell(value: Any) -> str:
    """The JSON text of one scalar cell, for any cell type, as json.dumps
    writes it; an enum member is written as its value."""
    if isinstance(value, enum.Enum):
        value = value.value
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Cell formatters by exact type, so that a bool never takes the int
# formatter.  Any other type (an enum member, a numpy float) takes the
# isinstance chain above.
_CSV_CELL = {float: "{:.16e}".format, int: int.__repr__, bool: _BOOL_TEXT.__getitem__, str: str}
_JSON_CELL = {
    float: float.__repr__, int: int.__repr__, bool: _BOOL_TEXT.__getitem__,
    str: encode_basestring_ascii,
}

# float.__repr__ spells the non-finite floats as json does not.  A JSON cell
# line can start with one of these only for a float: strings are quoted and
# every other scalar is a number, true, false or null.
_JSON_NON_FINITE = (
    ("\n      nan", "\n      NaN"),
    ("\n      inf", "\n      Infinity"),
    ("\n      -inf", "\n      -Infinity"),
)


def _batches(rows: Iterable[Iterable[Any]]) -> Iterator[list]:
    rows = iter(rows)
    while batch := list(itertools.islice(rows, CHUNK_ROWS)):
        yield batch


def csv_chunks(header: list[str], rows: Iterable[Iterable[Any]]) -> Iterator[bytes]:
    """The CSV document of header and rows, as UTF-8 chunks of CHUNK_ROWS rows
    (the header line is a chunk of its own)."""
    yield (",".join(header) + "\n").encode("utf-8")
    cell = _CSV_CELL.get
    for batch in _batches(rows):
        lines = [",".join([cell(type(v), format_cell)(v) for v in row]) for row in batch]
        lines.append("")
        yield "\n".join(lines).encode("utf-8")


def _json_row(cells: list[str]) -> str:
    if not cells:
        return "    []"
    return "    [\n      " + ",\n      ".join(cells) + "\n    ]"


def json_table_chunks(
    header: list[str], rows: Iterable[Iterable[Any]], **meta: Any
) -> Iterator[bytes]:
    """The JSON table document of header, rows and meta, as UTF-8 chunks of
    CHUNK_ROWS rows; the bytes are those of render_json on the whole table."""
    doc = _json_text({**meta, "columns": list(header), "rows": []})
    head, _, tail = doc.partition('"rows": []')
    cell = _JSON_CELL.get
    empty = True
    for batch in _batches(rows):
        text = ",\n".join(
            [_json_row([cell(type(v), _json_cell)(v) for v in row]) for row in batch]
        )
        for python, json_text in _JSON_NON_FINITE:
            text = text.replace(python, json_text)
        yield ((head + '"rows": [\n' if empty else ",\n") + text).encode("utf-8")
        empty = False
    yield (doc if empty else "\n  ]" + tail).encode("utf-8")


def render_csv(header: list[str], rows: Iterable[Iterable[Any]]) -> bytes:
    return b"".join(csv_chunks(header, rows))


def render_json_table(
    header: list[str], rows: Iterable[Iterable[Any]], **meta: Any
) -> bytes:
    return b"".join(json_table_chunks(header, rows, **meta))


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
