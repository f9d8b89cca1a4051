"""Output checks on a CLI run's artifacts.

Two kinds of check, each counted as one operation:

* At the pinned seed, every byte-stable artifact (``summaries.jsonl``,
  ``traces/*``, ``sweep.csv``, ``*/report.json``) must hash to the value
  recorded in ``expected_hashes.json``. ``run_config.json`` is left out: it
  echoes the CLI's flags, which may legitimately change.
* At any seed, for every summary record: the trace's ``combined`` column
  sums to the record's ``raw_score``, and the public ``sequence_score``
  reproduces that score bitwise.

Traces are parsed here with the stdlib, not with dyne's own readers, so
the checks do not depend on the code they check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from dyne import (
    EOS_ID,
    load_model,
    select_document_indices,
    sequence_score,
    tokenize_and_truncate,
)

from workloads import MAX_INPUT_TOKENS, Workload

EXPECTED_HASHES = Path(__file__).with_name("expected_hashes.json")
PINNED_SEED = 0


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every byte-stable artifact under ``out_dir``, by relative path."""
    hashes = {}
    for path in sorted(out_dir.rglob("*")):
        rel = path.relative_to(out_dir).as_posix()
        if not path.is_file() or path.name == "run_config.json":
            continue
        hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def output_bytes(out_dir: Path) -> tuple[int, int]:
    """(files, bytes) of everything the command wrote."""
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _combined_column(text: str, fmt: str) -> list[float]:
    if fmt == "json":
        return [float(row["combined"]) for row in json.loads(text)["rows"]]
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("combined")
    return [float(r[col]) for r in rows[1:]]


def read_summaries(wl: Workload, out_dir: Path) -> list[tuple[int, Path, dict]]:
    """``(max_docs, pass directory, record)`` for every summary written."""
    if wl.command == "sweep":
        passes = [(size, out_dir / f"size_{size}") for size in wl.sizes]
    else:
        passes = [(wl.sizes[0], out_dir)]
    out = []
    for size, d in passes:
        path = d / "summaries.jsonl"
        if path.is_file():
            out.extend((size, d, json.loads(line)) for line in path.read_text().splitlines())
    return out


class CheckResult:
    """Operations attempted and failed: decodes and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def check_invariants(wl: Workload, summaries: list, result: CheckResult) -> None:
    """Trace sums and ``sequence_score`` rescoring, for every summary record."""
    model = load_model(wl.model_path)
    vocab = model.vocab
    index = {c.id: i for i, c in enumerate(wl.clusters)}
    for size, d, rec in summaries:
        cid = rec["id"]
        where = f"{d.name}/{cid}"
        traces = sorted((d / "traces").glob(f"{index[cid]:04d}_*.{wl.trace_format}"))
        if len(traces) != 1:
            result.record(False, f"{where}: expected one trace file, found {len(traces)}")
            continue
        # Summed in row order, as the search accumulates the score.
        total = 0.0
        for c in _combined_column(traces[0].read_text(), wl.trace_format):
            total += c
        result.record(
            total == rec["raw_score"],
            f"{where}: trace sums to {total!r}, record says {rec['raw_score']!r}",
        )
        cluster = wl.clusters.get(cid)
        inputs = [
            tokenize_and_truncate(cluster.documents[i], vocab, MAX_INPUT_TOKENS)
            for i in select_document_indices(cluster, size, wl.params.seed)
        ]
        tokens = tuple(vocab.id_of(t) for t in rec["tokens"]) + (EOS_ID,)
        raw, _ = sequence_score(model, inputs, tokens, wl.params.reduce)
        result.record(
            raw == rec["raw_score"],
            f"{where}: sequence_score gives {raw!r}, record says {rec['raw_score']!r}",
        )


def check_pinned(wl: Workload, hashes: dict[str, str], result: CheckResult) -> None:
    """Compare artifact hashes with the ones pinned for this workload."""
    expected = json.loads(EXPECTED_HASHES.read_text()).get(wl.name, {})
    for rel in sorted(expected.keys() | hashes.keys()):
        result.record(
            expected.get(rel) == hashes.get(rel),
            f"{rel}: sha256 {hashes.get(rel)} differs from pinned {expected.get(rel)}",
        )
