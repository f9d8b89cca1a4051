#!/usr/bin/env python3
"""End-to-end consensus experiment: build the corpus, sweep ensemble sizes.

Generates the synthetic benchmark, then runs the CLI sweep over the given
ensemble sizes with the corpus's decode config and reports how summary
quality moves with the number of ensembled documents. Rerunning with the
same seed reproduces every output byte.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from dyne.cli import main as dyne_main
from dyne.synthetic import build_consensus_corpus

from make_consensus_corpus import write_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("consensus_run"))
    parser.add_argument("--clusters", type=int, default=100)
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 5])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = write_corpus(build_consensus_corpus(n_clusters=args.clusters, seed=args.seed),
                          args.out)
    return dyne_main([
        "sweep", "--config", str(config),
        "--sizes", *[str(s) for s in args.sizes],
        "--out", str(args.out / "sweep"),
    ])


if __name__ == "__main__":
    raise SystemExit(main())
