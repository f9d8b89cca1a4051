#!/usr/bin/env python3
"""Paired timing of model loading: a base commit against the working tree.

    python3 scripts/bench_spec_load.py --base REV [--pairs N] [--out FILE]

The base commit ``REV`` (say the parent of the change, ``HEAD~1`` once it is
committed, or ``HEAD`` to measure uncommitted edits) is unpacked with ``git archive REV | tar -x`` into
``.bench_work/`` at the root of the checkout, which the run removes when it
ends. One worker process per side imports ``dyne`` from its own ``src/``,
and both read the same spec files, drawn with the fixed seed ``SEED``:

* ``wide``: the size of the ``wide`` benchmark's spec, V = 2,000 tokens and
  20,000 bigram counts, about 1 MB;
* ``empty``: the shape of the ``sweep`` benchmark's spec, V = 243 tokens
  and no bigram counts, where fixed costs show.

Each pair times one sample on each side, in alternating order: ``load_model``
(``load_s``) and, on the model it loaded, the first ``score_batch`` call,
which builds the bigram table (``first_use_s``, load included). An
``empty`` sample is the mean of 50 loads, since one takes well under a
millisecond. The result file holds, per workload, metric and side, the
median and the quartiles, the pairs each side won, the environment
(Python, numpy, ``nproc``, CPU), both commits, and a sha256 of each side's
bigram-table arrays, which must match when the change keeps every output
bit. Uses only the stdlib and numpy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
#: name -> (vocab size, bigram counts, loads per sample)
WORKLOADS = {"wide": (2000, 20_000, 1), "empty": (243, 0, 50)}
METRICS = ("load_s", "first_use_s")
SEED = 0


def spec_doc(vocab: int, bigrams: int) -> dict:
    """A spec with ``bigrams`` distinct random pairs, built without the model
    code so both sides read the same bytes."""
    rng = np.random.default_rng(SEED)
    tokens = ["<s>", "</s>", "<unk>", *(f"w{i:04d}" for i in range(vocab - 3))]
    prevs = [0, *range(3, vocab)]  # <s> and the content tokens
    nexts = [1, *range(3, vocab)]  # </s> and the content tokens
    flat = rng.choice(len(prevs) * len(nexts), bigrams, replace=False)
    counts = rng.integers(1, 10, bigrams)
    triples = sorted([tokens[prevs[f // len(nexts)]], tokens[nexts[f % len(nexts)]], int(c)]
                     for f, c in zip(flat.tolist(), counts))
    return {"lambda": 0.5, "smooth_k": 1.0, "vocab": tokens, "bigram_counts": triples}


def table_sha256(model) -> str:
    digest = hashlib.sha256()
    for array in getattr(model, "_bigram_table", ()):
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def worker(src: str) -> None:
    """Answer each request line on stdin, ``<loads> <spec path>``, with one
    sample line: the mean seconds of ``loads`` loads and of as many loads
    with first use, and the sha256 of the last model's bigram-table arrays."""
    sys.path.insert(0, src)
    import dyne

    for line in sys.stdin:
        loads, spec = line.rstrip("\n").split(" ", 1)
        gc.collect()
        load_s = first_use_s = 0.0
        for _ in range(int(loads)):
            t0 = time.perf_counter()
            model = dyne.load_model(spec)
            t1 = time.perf_counter()
            model.score_batch([(3,)], (0, 3))
            t2 = time.perf_counter()
            load_s, first_use_s = load_s + (t1 - t0), first_use_s + (t2 - t0)
        print(f"{load_s / int(loads)!r} {first_use_s / int(loads)!r} {table_sha256(model)}",
              flush=True)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_pairs(base_sha: str, pairs: int) -> dict:
    """``{(workload, side): [(load_s, first_use_s, table sha256), ...]}``."""
    from dyne.errors import json_text, write_output  # the working tree's, from main

    samples = {(name, side): [] for name in WORKLOADS for side in ("base", "tree")}
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "base").mkdir(parents=True)
    try:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(WORK / "base")], input=archive, check=True)
        for name, (vocab, bigrams, _) in WORKLOADS.items():
            write_output(WORK / f"{name}.json", json_text(spec_doc(vocab, bigrams)))
        procs = {side: subprocess.Popen([sys.executable, __file__, "--worker", str(src)],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                 for side, src in (("base", WORK / "base" / "src"), ("tree", ROOT / "src"))}
        try:
            for pair in range(pairs):
                for name, (_, _, loads) in WORKLOADS.items():
                    for side in ("base", "tree") if pair % 2 == 0 else ("tree", "base"):
                        procs[side].stdin.write(f"{loads} {WORK / f'{name}.json'}\n")
                        procs[side].stdin.flush()
                        load_s, first_use_s, sha = procs[side].stdout.readline().split()
                        samples[name, side].append((float(load_s), float(first_use_s), sha))
        finally:
            for proc in procs.values():
                proc.communicate("")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_spec_load.json")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sys.path.insert(0, str(ROOT / "src"))  # here, not at import: a worker imports its own
    from dyne.errors import json_text, write_output

    base_sha = git("rev-parse", f"{args.base}^{{commit}}")
    samples = run_pairs(base_sha, args.pairs)
    result = {
        "command": " ".join(["scripts/bench_spec_load.py", *sys.argv[1:]]),
        "pairs": args.pairs,
        "seed": SEED,
        "base": {"sha": base_sha},
        "tree": {"head": git("rev-parse", "HEAD"),
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "cpu": cpu_model(), "machine": platform.machine()},
        "workloads": {},
    }
    for name, (vocab, bigrams, loads) in WORKLOADS.items():
        tables = {side: sorted({s[2] for s in samples[name, side]}) for side in ("base", "tree")}
        entry = result["workloads"][name] = {
            "vocab": vocab, "bigrams": bigrams, "loads_per_sample": loads,
            "table_sha256": tables,
            "tables_equal": tables["base"] == tables["tree"] and len(tables["base"]) == 1,
        }
        for column, metric in enumerate(METRICS):
            base, tree = ([s[column] for s in samples[name, side]] for side in ("base", "tree"))
            won = sum(t < b for t, b in zip(tree, base))
            entry[metric] = {"unit": "s", "base": summary(base), "tree": summary(tree),
                             "pairs_won": {"tree": won, "base": args.pairs - won}}
            b, t = statistics.median(base), statistics.median(tree)
            print(f"{name} {metric}: base {1e3 * b:.4g} ms, tree {1e3 * t:.4g} ms "
                  f"({100 * (t / b - 1):+.1f}%), tree won {won}/{args.pairs} pairs")
        print(f"{name} table arrays equal: {entry['tables_equal']}")
    write_output(args.out, json_text(result))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        raise SystemExit(main())
