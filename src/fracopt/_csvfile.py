"""The one CSV writer behind every trace, summary and census file.

Cells: ``None`` is empty, a number is the ``repr`` of the Python value
(full-precision floats), and a string is written as is, or quoted by RFC 4180
if it holds ``,``, ``"``, CR or LF.  Array rows must arrive through
``ndarray.tolist`` so NumPy scalar reprs never reach the file.
"""

from __future__ import annotations

from .errors import ConfigError

_NUMBERS = {int, float, bool}  # the cells _cell writes as their repr


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        if any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return repr(value)


def write_csv(path, header, rows, note: str | None = None) -> None:
    """Write an optional ``# note`` line, the header row and ``rows`` with
    LF line endings.  A path that cannot be opened for writing raises
    :class:`ConfigError`."""
    try:
        fh = open(path, "w", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror}") from None
    with fh:
        if note:
            fh.write(f"# {note}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr if set(map(type, row)) <= _NUMBERS else _cell, row)) + "\n")
