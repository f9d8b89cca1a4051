"""Seeded inputs for the benchmark workloads.

Each workload is written to its own directory as the files a dyne user
hands to the CLI: ``clusters.jsonl``, ``model.json`` and ``config.json``.
The same seed always gives the same bytes. Paths inside ``config.json``
are relative to the checkout root, so ``run_config.json`` and every other
artifact are byte-identical between checkouts.

Besides the CLI's cluster file, each workload keeps a pool of further
clusters for the per-decode latency loop. Pool clusters are never in the
CLI file, so the latency loop does not replay inputs the CLI runs saw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyne import (
    BOS_ID,
    EOS_ID,
    Cluster,
    ClusterSet,
    DecodeParams,
    Reduce,
    RougeConfig,
    ToyModelSpec,
    Vocab,
    build_consensus_corpus,
    save_clusters,
)

# CLI files are small so that a run holds many commands, and its medians
# many samples. The pools outlast a 60 s run at the commit that introduced
# the benchmark.
SWEEP_CLI_CLUSTERS = 1
SWEEP_SIZES = (1, 2, 5)
SWEEP_POOL = 5000
WIDE_CLI_CLUSTERS = 1
WIDE_POOL = 60

MAX_INPUT_TOKENS = 512

WIDE_VOCAB = 2000
WIDE_BIGRAMS = 20_000
WIDE_DOCS = 8
WIDE_DOC_TOKENS = 400
WIDE_TOPIC = 10
WIDE_TOPIC_SHARE = 0.5
WIDE_PARAMS = dict(beam_size=8, max_len=30, min_len=10)


@dataclass
class Workload:
    """A generated workload: CLI inputs on disk plus an in-memory latency pool."""

    name: str
    command: str  # "decode" or "sweep"
    config_path: str
    model_path: str
    clusters_path: str
    clusters: ClusterSet  # the CLI's cluster file, parsed
    params: DecodeParams
    sizes: tuple[int, ...]  # max_docs per CLI pass; one entry for "decode"
    trace_format: str
    rouge: RougeConfig
    pool: list[Cluster]

    @property
    def units(self) -> int:
        """Cluster decodes one CLI command performs."""
        return len(self.clusters) * len(self.sizes)

    def cli_argv(self, out_dir: str) -> list[str]:
        return [self.command, "--config", self.config_path, "--out", out_dir]


def _write(
    work_dir: Path,
    spec: ToyModelSpec,
    cli: ClusterSet,
    params: DecodeParams,
    extra: dict,
) -> tuple[str, str, str]:
    work_dir.mkdir(parents=True, exist_ok=True)
    model_path = (work_dir / "model.json").as_posix()
    clusters_path = (work_dir / "clusters.jsonl").as_posix()
    config_path = (work_dir / "config.json").as_posix()
    spec.save(model_path)
    save_clusters(cli, clusters_path)
    config = {
        "model": model_path,
        "clusters": clusters_path,
        "beam_size": params.beam_size,
        "max_len": params.max_len,
        "min_len": params.min_len,
        "reduce": params.reduce.value,
        "block_repeat_ngram": params.block_repeat_ngram,
        "seed": params.seed,
        "max_input_tokens": MAX_INPUT_TOKENS,
        **extra,
    }
    Path(config_path).write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return model_path, clusters_path, config_path


def sweep(seed: int, work_dir: Path) -> Workload:
    corpus = build_consensus_corpus(
        n_clusters=SWEEP_CLI_CLUSTERS + SWEEP_POOL, seed=seed
    )
    cli = ClusterSet(corpus.clusters.clusters[:SWEEP_CLI_CLUSTERS])
    base = corpus.decode_params
    params = DecodeParams(
        beam_size=base.beam_size,
        max_len=base.max_len,
        min_len=base.min_len,
        reduce=Reduce.MEAN_PROB,
        block_repeat_ngram=base.block_repeat_ngram,
        seed=base.seed,
    )
    model, clusters, config = _write(
        work_dir, corpus.model_spec, cli, params,
        {"sizes": list(SWEEP_SIZES), "trace_format": "json", "rouge_stemming": True},
    )
    return Workload(
        name="sweep", command="sweep", config_path=config, model_path=model,
        clusters_path=clusters, clusters=cli, params=params, sizes=SWEEP_SIZES,
        trace_format="json", rouge=RougeConfig(use_porter_stemming=True),
        pool=list(corpus.clusters.clusters[SWEEP_CLI_CLUSTERS:]),
    )


def _wide_spec(rng: np.random.Generator) -> ToyModelSpec:
    vocab = Vocab.from_content(f"w{i:04d}" for i in range(WIDE_VOCAB - 3))
    prevs = np.array([BOS_ID, *vocab.content_ids])
    nexts = np.array([EOS_ID, *vocab.content_ids])
    flat = rng.choice(len(prevs) * len(nexts), WIDE_BIGRAMS, replace=False)
    counts = rng.integers(1, 10, WIDE_BIGRAMS)
    bigrams = {
        (int(prevs[f // len(nexts)]), int(nexts[f % len(nexts)])): int(c)
        for f, c in zip(flat, counts)
    }
    return ToyModelSpec(copy_weight=0.5, smooth_k=1.0, bigram_counts=bigrams, vocab=vocab)


def _wide_cluster(rng: np.random.Generator, vocab: Vocab, index: int) -> Cluster:
    content = np.array(vocab.content_ids)
    topic = rng.choice(content, WIDE_TOPIC, replace=False)
    docs = []
    for _ in range(WIDE_DOCS):
        ids = np.where(
            rng.random(WIDE_DOC_TOKENS) < WIDE_TOPIC_SHARE,
            rng.choice(topic, WIDE_DOC_TOKENS),
            rng.choice(content, WIDE_DOC_TOKENS),
        )
        docs.append(" ".join(vocab.tokens[i] for i in ids))
    # The reference repeats each topic word as often as a decode may use
    # it, so ROUGE-1 measures how much of the summary is on topic rather
    # than rewarding one particular word order.
    topic_words = [vocab.tokens[i] for i in topic]
    reference = " ".join(topic_words * WIDE_PARAMS["max_len"])
    return Cluster(id=f"wide{index:04d}", documents=tuple(docs), references=(reference,))


def wide(seed: int, work_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    spec = _wide_spec(rng)
    clusters = [_wide_cluster(rng, spec.vocab, i) for i in range(WIDE_CLI_CLUSTERS + WIDE_POOL)]
    cli = ClusterSet(tuple(clusters[:WIDE_CLI_CLUSTERS]))
    params = DecodeParams(seed=seed, **WIDE_PARAMS)
    model, clusters_path, config = _write(
        work_dir, spec, cli, params, {"max_docs": WIDE_DOCS, "trace_format": "csv"},
    )
    return Workload(
        name="wide", command="decode", config_path=config, model_path=model,
        clusters_path=clusters_path, clusters=cli, params=params, sizes=(WIDE_DOCS,),
        trace_format="csv", rouge=RougeConfig(), pool=clusters[WIDE_CLI_CLUSTERS:],
    )


BUILDERS = {"wide": wide, "sweep": sweep}
