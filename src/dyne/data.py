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

from .errors import FormatError, input_records, is_integer, jsonl_text, tuple_of, write_output
from .seqmodel import TokenSeq, Vocab, check_utf8


@dataclass(frozen=True)
class Cluster:
    """One decoding unit: related documents plus optional reference summaries.

    The id is a non-empty string that UTF-8 can encode; ``documents`` and
    ``references`` are lists or tuples of strings, stored as tuples. So a
    cluster built in code builds exactly when its values in a file load, and
    `save_clusters` writes a file that `load_clusters` reads back as equal.
    """

    id: str
    documents: tuple[str, ...]
    references: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (isinstance(self.id, str) and self.id):
            raise ValueError(f"cluster id must be a non-empty string, got {self.id!r}")
        check_utf8((self.id,), "cluster id")
        for name in ("documents", "references"):
            texts = tuple_of(getattr(self, name), str, f"cluster {self.id!r} {name}")
            object.__setattr__(self, name, texts)
        if not self.documents:
            raise ValueError(f"cluster {self.id!r} has no documents")


@dataclass(frozen=True)
class ClusterSet:
    """Clusters with distinct ids, given as a list or tuple of `Cluster` values
    and stored as a tuple in the order given."""

    clusters: tuple[Cluster, ...]
    _by_id: dict[str, Cluster] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", tuple_of(self.clusters, Cluster, "clusters"))
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
        try:
            clusters.append(Cluster(doc["id"], doc["documents"], doc.get("references", [])))
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
    if not isinstance(cluster, Cluster):
        raise ValueError(f"cluster must be a Cluster, got {cluster!r}")
    if not (is_integer(max_docs) and max_docs >= 1):
        raise ValueError(f"max_docs must be an integer >= 1, got {max_docs!r}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    n = len(cluster.documents)
    if n <= max_docs:
        return list(range(n))
    rng = _selection_rng(seed, cluster.id)
    chosen = rng.choice(n, size=max_docs, replace=False)
    return sorted(int(i) for i in chosen)


def tokenize_and_truncate(text: str, vocab: Vocab, max_tokens: int) -> TokenSeq:
    """Whitespace-tokenize, map out-of-vocabulary words to UNK, keep the
    first ``max_tokens`` tokens."""
    if not (is_integer(max_tokens) and max_tokens >= 1):
        raise ValueError(f"max_tokens must be an integer >= 1, got {max_tokens!r}")
    if not isinstance(text, str):  # bytes would split into unknown words
        raise ValueError(f"text must be a str, got {text!r}")
    return tuple(vocab.encode_token(t) for t in text.split()[:max_tokens])
