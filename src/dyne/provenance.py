"""Per-input contribution tracing for ensemble decodes.

Because the combined score of each generated token is composed from
per-input scores that depend only on (model, that input, shared prefix),
the contribution of every input at every timestep is exact: it can be
reproduced by an independent single-input scoring call. The trace matrix
holds those per-input log-scores, one row per timestep and one column per
input; column sums give the log-likelihood of the whole output under each
input alone. A trace is an immutable value, built from its rows when read
(see ``ScoredHypothesis``) or by ``sequence_score``, and only written out.

Exports carry log-scores. The CSV layout is
``timestep,token,combined,<label_1>,...,<label_n>``; JSON mirrors those
fields and additionally carries token ids. Floats are written with enough
digits to round-trip exactly (non-finite values appear as ``-inf`` in CSV
and ``-Infinity`` in JSON).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import csv_text, json_text, tuple_of


def left_sum(values: Iterable[float]) -> float:
    """Added left to right from 0.0, as a beam adds; Python 3.12's ``sum`` compensates."""
    return functools.reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class TraceRow:
    """One decoding timestep: the chosen token and its log-scores."""

    token_id: int
    token: str
    combined: float
    per_input: tuple[float, ...]


@dataclass(frozen=True)
class TraceMatrix:
    """Timesteps x inputs matrix of per-input chosen-token log-scores.

    The labels, one per input, are a list or tuple of distinct strings, since a
    repeat would name two columns alike. This is the one place the rule is
    stated; the decoder's entry points apply it by building an empty trace
    before anything is scored. The rows are a list or tuple of `TraceRow` values.
    """

    input_labels: tuple[str, ...]
    rows: tuple[TraceRow, ...] = ()

    def __post_init__(self) -> None:
        labels = tuple_of(self.input_labels, str, "input labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"input labels must be distinct, got {labels!r}")
        object.__setattr__(self, "input_labels", labels)
        object.__setattr__(self, "rows", tuple_of(self.rows, TraceRow, "trace rows"))
        width = len(labels)
        for t, row in enumerate(self.rows):
            if len(row.per_input) != width:
                raise ValueError(
                    f"row {t} has {len(row.per_input)} per-input scores but the trace "
                    f"has {width} inputs"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def input_totals(self) -> list[float]:
        """Column sums: the full sequence's log-likelihood under each input."""
        if not self.rows:
            raise ValueError("trace is empty")
        return [left_sum(column) for column in zip(*(row.per_input for row in self.rows))]

    def combined_total(self) -> float:
        """Sum of the combined column; equals the decode's raw score."""
        if not self.rows:
            raise ValueError("trace is empty")
        return left_sum(row.combined for row in self.rows)

    def to_csv(self) -> str:
        return csv_text([
            ["timestep", "token", "combined", *self.input_labels],
            *([t, row.token, row.combined, *row.per_input] for t, row in enumerate(self.rows)),
        ])

    def to_json(self) -> str:
        doc = {
            "input_labels": list(self.input_labels),
            "rows": [
                {
                    "timestep": t,
                    "token_id": row.token_id,
                    "token": row.token,
                    "combined": row.combined,
                    "scores": list(row.per_input),
                }
                for t, row in enumerate(self.rows)
            ],
        }
        return json_text(doc)

    def export(self, fmt: str) -> str:
        """Serialize to ``"csv"`` or ``"json"``."""
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown trace format {fmt!r}; use 'csv' or 'json'")
