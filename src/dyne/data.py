"""Cluster ingestion, document selection and input tokenization.

Clusters live in a JSONL file: one object per line with fields ``id``,
``documents`` (non-empty list of strings) and ``references`` (list of
strings, optional and possibly empty). When a cluster holds more
documents than a run wants, a uniformly random subset is drawn without
replacement from a generator seeded per cluster, so edits elsewhere in a
dataset never change a cluster's selection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, input_records, jsonl_text, write_output
from .seqmodel import TokenSeq, Vocab, check_utf8


@dataclass(frozen=True)
class Cluster:
    """One decoding unit: related documents plus optional reference summaries."""

    id: str
    documents: tuple[str, ...]
    references: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        object.__setattr__(self, "references", tuple(self.references))
        if not self.id:
            raise ValueError("cluster id must be a non-empty string")
        check_utf8((self.id,), "cluster id")
        if not self.documents:
            raise ValueError(f"cluster {self.id!r} has no documents")


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple[Cluster, ...]
    _by_id: dict[str, Cluster] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", tuple(self.clusters))
        by_id: dict[str, Cluster] = {}
        for c in self.clusters:
            if c.id in by_id:
                raise ValueError(f"duplicate cluster id {c.id!r}")
            by_id[c.id] = c
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def get(self, cluster_id: str) -> Cluster | None:
        return self._by_id.get(cluster_id)


def load_clusters(path: str | Path) -> ClusterSet:
    """Parse a JSONL cluster file, preserving order. Blank lines are skipped.
    Every error names the file and the line."""
    clusters = []
    for where, doc in input_records(path, "cluster file", "cluster id", required=("documents",),
                                    allowed=("id", "documents", "references")):
        for name in ("documents", "references"):
            value = doc.get(name, [])
            if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
                raise FormatError(f"{where}: field {name!r} must be a list of strings")
        try:
            clusters.append(Cluster(doc["id"], tuple(doc["documents"]),
                                    tuple(doc.get("references", []))))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return ClusterSet(tuple(clusters))


def clusters_to_jsonl(clusters: ClusterSet) -> str:
    return jsonl_text({"id": c.id, "documents": list(c.documents), "references": list(c.references)}
                      for c in clusters)


def save_clusters(clusters: ClusterSet, path: str | Path) -> None:
    write_output(path, clusters_to_jsonl(clusters))


def _selection_rng(seed: int, cluster_id: str) -> np.random.Generator:
    # PCG64 seeded from the SHA-256 digest of "<seed>|<cluster id>": the
    # same (seed, id) pair always selects the same subset, on any platform.
    digest = hashlib.sha256(f"{seed}|{cluster_id}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def select_document_indices(cluster: Cluster, max_docs: int, seed: int) -> list[int]:
    """Indices of up to ``max_docs`` documents, drawn uniformly without replacement.

    Clusters at or under the limit are returned whole; larger clusters are
    subsampled deterministically in (seed, cluster id). Indices ascend, so
    the chosen documents keep their original relative order.
    """
    if max_docs < 1:
        raise ValueError(f"max_docs must be >= 1, got {max_docs}")
    n = len(cluster.documents)
    if n <= max_docs:
        return list(range(n))
    rng = _selection_rng(seed, cluster.id)
    chosen = rng.choice(n, size=max_docs, replace=False)
    return sorted(int(i) for i in chosen)


def tokenize_and_truncate(text: str, vocab: Vocab, max_tokens: int) -> TokenSeq:
    """Whitespace-tokenize, map out-of-vocabulary words to UNK, keep the
    first ``max_tokens`` tokens."""
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    return tuple(vocab.encode_token(t) for t in text.split()[:max_tokens])
