"""Synthetic consensus benchmark: clusters where agreement is the signal.

Every cluster carries one signal sentence that appears in all of its
documents, plus noise words unique to each document. Noise words are
injected with a higher within-document count than signal words, so a
copy-based model decoding from a single document prefers the noise; with
several documents ensembled, the signal words are the only tokens that
score well under every input and the decode recovers the signal sentence.
That makes summary quality improve with ensemble size by construction,
which is the property the benchmark exists to measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Cluster, ClusterSet
from .decoder import DecodeParams
from .seqmodel import ToyModelSpec, Vocab


@dataclass(frozen=True)
class ConsensusCorpus:
    clusters: ClusterSet
    model_spec: ToyModelSpec
    decode_params: DecodeParams


# Per-document token counts: noise outnumbers signal, so a single document
# ranks its own noise above the shared signal and the benchmark bites.
_SIGNAL_COPIES, _NOISE_COPIES, _NOISE_WORDS_PER_DOC = 2, 3, 5
_SIGNAL_POOL, _NOISE_POOL, _BEAM_SIZE = 40, 200, 4


def build_consensus_corpus(
    n_clusters: int = 100,
    docs_per_cluster: int = 6,
    signal_len: int = 4,
    seed: int = 0,
) -> ConsensusCorpus:
    """Generate clusters, a matching copy model spec, and decode params.

    Documents inside a cluster never share noise words. Deterministic in
    ``seed``.
    """
    if docs_per_cluster * _NOISE_WORDS_PER_DOC > _NOISE_POOL:
        raise ValueError(
            f"need {docs_per_cluster * _NOISE_WORDS_PER_DOC} distinct noise words "
            f"per cluster but the pool has only {_NOISE_POOL}"
        )
    if signal_len > _SIGNAL_POOL:
        raise ValueError(f"signal_len {signal_len} exceeds the signal pool {_SIGNAL_POOL}")

    signal_words = [f"sig{i:02d}" for i in range(_SIGNAL_POOL)]
    noise_words = [f"nz{i:03d}" for i in range(_NOISE_POOL)]
    vocab = Vocab.from_content(signal_words + noise_words)
    rng = np.random.default_rng(seed)

    clusters = []
    for c in range(n_clusters):
        signal = [signal_words[i] for i in rng.choice(_SIGNAL_POOL, signal_len, replace=False)]
        cluster_noise = [
            noise_words[i]
            for i in rng.choice(_NOISE_POOL, docs_per_cluster * _NOISE_WORDS_PER_DOC, replace=False)
        ]
        documents = []
        for d in range(docs_per_cluster):
            own = cluster_noise[d * _NOISE_WORDS_PER_DOC:(d + 1) * _NOISE_WORDS_PER_DOC]
            bag = signal * _SIGNAL_COPIES + own * _NOISE_COPIES
            order = rng.permutation(len(bag))
            documents.append(" ".join(bag[i] for i in order))
        clusters.append(
            Cluster(id=f"cluster{c:04d}", documents=tuple(documents), references=(" ".join(signal),))
        )

    spec = ToyModelSpec(copy_weight=1.0, smooth_k=1.0, bigram_counts={}, vocab=vocab)
    # Pin the decode length to the signal length: raw scores are sums of
    # negative log-probabilities, so without a length floor the shortest
    # admissible sequence always ranks first.
    params = DecodeParams(
        beam_size=_BEAM_SIZE,
        max_len=signal_len + 1,
        min_len=signal_len,
        block_repeat_ngram=1,
        seed=seed,
    )
    return ConsensusCorpus(ClusterSet(tuple(clusters)), spec, params)
