#!/usr/bin/env python3
"""Write the synthetic consensus benchmark to disk.

Produces ``clusters.jsonl``, ``model.json`` and ``decode_config.json`` in
the output directory; the config file can be passed straight to the CLI
via ``--config``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from dyne.data import save_clusters
from dyne.synthetic import ConsensusCorpus, build_consensus_corpus


def write_corpus(corpus: ConsensusCorpus, out: Path) -> Path:
    """Write the corpus files into ``out``; returns the decode config's path."""
    out.mkdir(parents=True, exist_ok=True)
    save_clusters(corpus.clusters, out / "clusters.jsonl")
    corpus.model_spec.save(out / "model.json")
    p = corpus.decode_params
    config = {
        "model": str(out / "model.json"),
        "clusters": str(out / "clusters.jsonl"),
        "beam_size": p.beam_size,
        "max_len": p.max_len,
        "min_len": p.min_len,
        "reduce": p.reduce.value,
        "block_repeat_ngram": p.block_repeat_ngram,
        "seed": p.seed,
    }
    path = out / "decode_config.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("consensus_data"))
    parser.add_argument("--clusters", type=int, default=100)
    parser.add_argument("--docs-per-cluster", type=int, default=6)
    parser.add_argument("--signal-len", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    corpus = build_consensus_corpus(
        n_clusters=args.clusters,
        docs_per_cluster=args.docs_per_cluster,
        signal_len=args.signal_len,
        seed=args.seed,
    )
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus.clusters)} clusters and model spec -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
