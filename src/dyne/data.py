"""Cluster ingestion, document selection and input tokenization.

Clusters live in a JSONL file: one object per line with fields ``id``,
``documents`` (non-empty list of strings) and ``references`` (list of
strings, optional and possibly empty). When a cluster holds more
documents than a run wants, a uniformly random subset is drawn without
replacement from a generator seeded per cluster, so edits elsewhere in a
dataset never change a cluster's selection. The draw ports numpy's ``SeedSequence``,
``PCG64`` and ``Generator.choice`` bit for bit, for under ``2**32`` documents, so no
numpy release changes a selection and no run loads ``numpy.random`` or OpenSSL.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .errors import FormatError, input_records, is_integer, jsonl_text, tuple_of, write_output
from .seqmodel import UNK_ID, TokenSeq, Vocab, check_utf8


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


def _builtin_sha256():
    """CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): hashlib maps OpenSSL."""
    for name in ("_sha2", "_sha256", "hashlib"):  # hashlib serves a build without them
        with contextlib.suppress(ImportError):
            return __import__(name).sha256


_SHA256 = _builtin_sha256()
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# SeedSequence's hash i xors with constant i and multiplies by constant i + 1; after
# hashing 4 words, every lane mixes into every other, then each further word into each
_HASH = [0x43B0D7E5 * pow(0x931E8875, i, 2**32) & _M32 for i in range(33)]
_MIX_STEPS = [(s, d, a, b) for (s, d), a, b in zip(
    [(s, d) for s in range(8) for d in range(4) if s != d], _HASH[4:], _HASH[5:])]
_STATE_HASH = [0x8B51F9DD * pow(0x58F38DED, i, 2**32) & _M32 for i in range(9)]


def _pcg64_halves(entropy: int) -> Iterator[int]:
    """The 32-bit values ``Generator`` takes from ``PCG64(SeedSequence(entropy))``,
    ``0 <= entropy < 2**256``: each 64-bit XSL-RR output's low half, then its high."""
    words = [entropy >> s & _M32 for s in range(0, max(entropy.bit_length(), 128), 32)]
    lanes = [(w ^ a) * b & _M32 for w, a, b in zip(words[:4], _HASH, _HASH[1:])]
    lanes = [v ^ v >> 16 for v in lanes] + words[4:]
    for src, dst, a, b in _MIX_STEPS[:4 * len(lanes) - 4]:
        h = (lanes[src] ^ a) * b & _M32
        v = 0xCA01F9DD * lanes[dst] - 0x4973F715 * (h ^ h >> 16) & _M32
        lanes[dst] = v ^ v >> 16
    w = [v ^ v >> 16 for v in ((lanes[i % 4] ^ a) * b & _M32
                               for i, (a, b) in enumerate(zip(_STATE_HASH, _STATE_HASH[1:])))]
    # words 0-3 seed the state: its high 64 bits, then its low, each low half first
    seed, inc = (w[i + 1] << 96 | w[i] << 64 | w[i + 3] << 32 | w[i + 2] for i in (0, 4))
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, inc << 1 & _M128 | 1
    state = ((inc + seed) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        x, turn = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> turn | x << (64 - turn)) & _M64
        yield x & _M32
        yield x >> 32


def _below(halves: Iterator[int], bound: int) -> int:
    """numpy's Lemire draw of a uniform integer in ``[0, bound)``, ``1 < bound < 2**32``."""
    m = next(halves) * bound
    while m & _M32 < (2**32 - bound) % bound:
        m = next(halves) * bound
    return m >> 32


def select_document_indices(cluster: Cluster, max_docs: int, seed: int) -> list[int]:
    """Indices of up to ``max_docs`` documents, drawn uniformly without replacement.

    Clusters at or under the limit are returned whole; from larger ones, of ``n < 2**32``
    documents, ``np.random.default_rng(e).choice(n, max_docs, replace=False)`` picks,
    ``e`` the big-endian SHA-256 of ``"<seed>|<cluster id>"``. Indices ascend, so the
    chosen documents keep their original relative order.
    """
    if not isinstance(cluster, Cluster):
        raise ValueError(f"cluster must be a Cluster, got {cluster!r}")
    if not (is_integer(max_docs) and max_docs >= 1):
        raise ValueError(f"max_docs must be an integer >= 1, got {max_docs!r}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    n, k = len(cluster.documents), max_docs
    if n <= k:
        return list(range(n))
    digest = _SHA256(f"{seed}|{cluster.id}".encode("utf-8")).digest()
    halves = _pcg64_halves(int.from_bytes(digest, "big"))
    if n > 10000 and k > n // 50:  # numpy shuffles the last k places
        idx = list(range(n))
        for i in range(n - 1, n - k - 1, -1):
            j = _below(halves, i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return sorted(idx[n - k:])
    chosen: set[int] = set()  # otherwise numpy runs Floyd's algorithm
    for j in range(n - k, n):
        chosen.add(j if (val := _below(halves, j + 1)) in chosen else val)
    return sorted(chosen)


def tokenize_and_truncate(text: str, vocab: Vocab, max_tokens: int) -> TokenSeq:
    """Whitespace-tokenize only as far as the first ``max_tokens`` tokens, which
    it keeps, mapping out-of-vocabulary words to UNK."""
    if not (is_integer(max_tokens) and max_tokens >= 1):
        raise ValueError(f"max_tokens must be an integer >= 1, got {max_tokens!r}")
    if not isinstance(text, str):  # bytes would split into unknown words
        raise ValueError(f"text must be a str, got {text!r}")
    words = text.split(None, min(max_tokens, len(text)))  # a maxsplit past 2**63 - 1 overflows
    return tuple(map(vocab._index.get, words[:max_tokens], repeat(UNK_ID)))
