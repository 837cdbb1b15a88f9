"""JSONL: one JSON object per line, appended.  The package's only reader
and writer of that format.

The ledger, the progress events, the service audit trail and the
helper-data store are all append-only JSONL files, so they share one
torn-tail and skip policy, written once here:

* :func:`open_append` opens a file for appending.  When a killed writer
  left the last line without its newline, the line is ended first, so
  the torn record stays one malformed line and the next record starts
  a line of its own instead of fusing with it (which would lose both).
  The check costs one ``pread`` per open; a held-open writer pays
  nothing per record, so each writer keeps its own flush policy.
* :func:`parse` / :func:`read` return the records and the number of
  lines that did not load (a torn tail, stray garbage, a non-object
  value, one nested too deeply to decode, or one the caller's ``load``
  rejects, such as an integer too large for a float).  Blank lines
  count as neither.  An absent file reads as empty.  ``strict`` raises at the first bad line instead, naming its
  line number and the reason.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

PathLike = Union[str, pathlib.Path]


def open_append(path: PathLike) -> TextIO:
    """``path`` open for appending, parent directories created, torn tail ended."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a+", encoding="utf-8")
    end = fh.tell()  # append mode opens positioned at the end
    if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
        fh.write("\n")
    return fh


def append(path: PathLike, record: Mapping[str, Any]) -> None:
    """Append one record as a line (open, write, close)."""
    with open_append(path) as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def parse(
    lines: Iterable[str],
    load: Optional[Callable[[Dict[str, Any]], Any]] = None,
    strict: bool = False,
    origin: str = "<lines>",
) -> Tuple[List[Any], int]:
    """``(records, n_skipped)`` for an iterable of lines.

    ``load`` maps each JSON object to the record kept; a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError`` (an integer too
    large for a float) from it makes the line a skipped one, as does a
    value nested too deeply to decode (``RecursionError``).  ``strict``
    raises ``ValueError("<origin>:<lineno>: bad line: <reason>")`` at
    the first such line instead of skipping it.
    """
    records: List[Any] = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"not a JSON object: {line[:40]!r}")
            records.append(record if load is None else load(record))
        except (
            KeyError, TypeError, ValueError, OverflowError, RecursionError
        ) as exc:
            if strict:
                raise ValueError(f"{origin}:{lineno}: bad line: {exc}") from exc
            skipped += 1
    return records, skipped


def read(
    path: PathLike,
    load: Optional[Callable[[Dict[str, Any]], Any]] = None,
    strict: bool = False,
) -> Tuple[List[Any], int]:
    """:func:`parse` over a whole file; absent means empty."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return parse(fh, load, strict, origin=str(path))
    except FileNotFoundError:
        return [], 0
