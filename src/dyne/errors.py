"""Shared exception types, the one reader of input files and the one writer of outputs.

Cluster and hypotheses JSONL, model specs and ``--config`` files are all
read and decoded here, so a fault reads one way whatever the file:
``cannot read <what> <path>: <reason>``, or ``<path>[: line <n>]: <fault>``
with ``invalid JSON: ...``, ``must hold a JSON object``, ``unknown
field(s): ...``, ``missing field '...'`` or, in JSONL, ``duplicate <kind>
id '...' (first seen on line <m>)`` as the fault.

Every output file, from the CLI or a library save, is encoded by `json_text`,
`jsonl_text` or `csv_text` and written by `write_output`. Every real-valued
setting, read from a file or passed in code, is checked by `real_number`, an
integer argument of the library's entry points by `is_integer`, and every
list-or-tuple value by `tuple_of`.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Collection, Iterable, Iterator, Sequence
from numbers import Real
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A file or stream does not match its documented format.

    Messages name the offending line or field so callers can report
    actionable parse errors.
    """


class DecodeError(RuntimeError):
    """Decoding could not produce any viable hypothesis.

    Raised when the active masks (length bounds, n-gram blocking) together
    with the model's zero-probability tokens leave no candidate token at
    some step. The message names the constraints in effect.
    """


def real_number(value, name: str) -> float:
    """``value`` as a plain float: a real number, not a bool, that fits in a
    float (NaN and infinities included; range rules belong to the caller).
    Anything else is a ValueError naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must fit in a float") from None


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer: never a bool or another
    ``int`` subclass such as an ``IntEnum`` member."""
    return type(value) is int or isinstance(value, np.integer)


def tuple_of(values, kind: type | tuple[type, ...], what: str) -> tuple:
    """``values``, a list or tuple whose items are all ``kind`` (a type, or a tuple
    of types named ``<a> or <b>``), as a tuple (a str, dict, set, iterator or
    ndarray would iterate); anything else is a ValueError naming ``what``."""
    name = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list or tuple of {name}, got {values!r}")
    for i, value in enumerate(values):
        if not isinstance(value, kind):
            raise ValueError(f"{what}[{i}] must be a {name}, got {value!r}")
    return tuple(values)


def read_input(path: str | Path, what: str) -> str:
    """The UTF-8 text of an input file; ``what`` names the file's kind."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc


def input_records(path: str | Path, what: str, id_name: str, required: Collection[str],
                  allowed: Collection[str] | None = None) -> Iterator[tuple[str, dict]]:
    """``("<path>: line <n>", record)`` for each non-blank line of a JSONL file:
    a JSON object (see `parse_object`) with a string ``id``, checked before
    the other ``required`` fields, that no earlier line holds; ``id_name``
    names that id in the duplicate message."""
    seen: dict[str, int] = {}  # id -> line of its first record
    for lineno, line in enumerate(read_input(path, what).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        rec = parse_object(line, where, ("id", *required), allowed)
        key = rec["id"]
        if not isinstance(key, str):
            raise FormatError(f"{where}: field 'id' must be a string")
        if key in seen:
            raise FormatError(
                f"{where}: duplicate {id_name} {key!r} (first seen on line {seen[key]})"
            )
        seen[key] = lineno
        yield where, rec


def parse_object(text: str, where: str, required: Collection[str] = (),
                 allowed: Collection[str] | None = None) -> dict:
    """Decode one JSON object: valid JSON, an object, no field outside
    ``allowed`` (when given), every ``required`` field present, checked in
    that order. Each fault is a FormatError that starts with ``where``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: must hold a JSON object")
    unknown = () if allowed is None else doc.keys() - allowed
    if unknown:
        raise FormatError(f"{where}: unknown field(s): {', '.join(sorted(unknown))}")
    for name in required:
        if name not in doc:
            raise FormatError(f"{where}: missing field {name!r}")
    return doc


def write_output(path: str | Path, text: str) -> None:
    """Replace ``path`` (creating its directories) with ``text`` in UTF-8 in one
    step, through a new file beside it, so readers see the old file or the new
    one, never a part; like any file ``open`` creates, it gets 0o666 minus the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")  # never an existing file
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_text(doc) -> str:
    """``doc`` as a JSON document: sorted keys, indent 2, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def jsonl_text(records: Iterable) -> str:
    """One JSON line, with sorted keys, per record."""
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def csv_text(rows: Iterable[Sequence]) -> str:
    """CSV with ``\\n`` line ends; floats as ``%.17g``, enough digits to
    round-trip exactly."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()
