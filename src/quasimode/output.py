"""Deterministic CSV/JSON table emission.

Floats are rendered with 17 significant digits (lossless for binary64) in
scientific notation; files are UTF-8 with LF line endings, written as bytes
so the platform newline translation never interferes.  Re-running the same
spec on the same platform reproduces files byte for byte.
"""

from __future__ import annotations

import enum
import json
import sys
from pathlib import Path
from typing import Any, Iterable

SCHEMA_VERSION = 1


def format_cell(value: Any) -> str:
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def render_csv(header: list[str], rows: Iterable[Iterable[Any]]) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _jsonable(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    return value


def render_json_table(
    header: list[str], rows: Iterable[Iterable[Any]], **meta: Any
) -> bytes:
    rows = [[_jsonable(v) for v in row] for row in rows]
    return render_json({**meta, "columns": list(header), "rows": rows})


def render_json(doc: dict[str, Any]) -> bytes:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_bytes(data: bytes, out: Path | None) -> None:
    """Write to a file, or to stdout when no path is given."""
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(data)
