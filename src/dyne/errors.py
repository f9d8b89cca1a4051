"""Exception types shared across the package, and the one reader of input files.

Cluster and hypotheses JSONL, model specs and ``--config`` files are all
read and decoded here, so a fault reads one way whatever the file:
``cannot read <what> <path>: <reason>``, or ``<path>[: line <n>]: <fault>``
with ``invalid JSON: ...``, ``must hold a JSON object``, ``unknown
field(s): ...``, ``missing field '...'`` or, in JSONL, ``duplicate <kind>
id '...' (first seen on line <m>)`` as the fault.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Iterator
from pathlib import Path


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
