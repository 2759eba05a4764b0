"""The one CSV writer behind every trace, summary and census file.

Cells: ``None`` is empty, a string is written as is, a number as the
``repr`` of the Python value (full-precision floats).  Array rows must arrive
through ``ndarray.tolist`` so NumPy scalar reprs never reach the file.
"""

from __future__ import annotations


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(value)


def write_csv(path, header, rows, note: str | None = None) -> None:
    """Write an optional ``# note`` line, the header row and ``rows`` with
    LF line endings."""
    with open(path, "w", newline="\n") as fh:
        if note:
            fh.write(f"# {note}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
