#!/usr/bin/env python3
"""Paired timing of model loading and decoding: a base commit against the working tree.

    python3 scripts/bench_paired.py --base REV [--pairs N] [--out FILE]

The base commit ``REV`` (say the parent of the change, ``HEAD~1`` once it is
committed, or ``HEAD`` to measure uncommitted edits) is unpacked with
``git archive REV | tar -x`` into ``.bench_work/`` at the root of the
checkout, which the run removes when it ends. One worker process per side
imports ``dyne`` from its own ``src/``, and both read the same files, drawn
with the fixed seed ``SEED``:

* ``wide``: the size of the ``wide`` benchmark's spec, V = 2,000 tokens and
  20,000 bigram counts, about 1 MB;
* ``empty``: the shape of the ``sweep`` benchmark's spec, V = 243 tokens
  and no bigram counts, where fixed costs show;
* ``decode``: ``beam_search`` on the ``wide`` spec, over ``DECODE_SETS`` input
  sets shaped like the ``wide`` benchmark's clusters (8 inputs of 400 token
  ids, half of them from a 10-token topic) with its settings (beam 8,
  ``max_len`` 30, ``min_len`` 10).

Each pair times one sample on each side, in alternating order. A ``wide`` or
``empty`` sample times ``load_model`` (``load_s``) and, on the model it
loaded, the first ``score_batch`` call, which builds the bigram table
(``first_use_s``, load included); an ``empty`` sample is the mean of 50
loads, since one takes well under a millisecond. A ``decode`` sample is the
mean seconds of one decode (``decode_s``) over every input set, on a model
loaded once per worker. The result file holds, per workload, metric and side,
the median and the quartiles, the pairs each side won, the environment
(Python, numpy, ``nproc``, CPU), both commits, and a sha256 of each side's
outputs: the bigram-table arrays of a load, and every ranked result of a
decode (its tokens, the hex of both scores and every trace cell). When the
two sides' outputs differ, the run still writes the file but exits 1. Uses
only the stdlib and numpy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
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
SEED = 0
DECODE_SETS = 10
DECODE_INPUTS, DECODE_TOKENS, DECODE_TOPIC = 8, 400, 10
#: name -> (kind, vocab size, bigram counts, loads or decodes per sample)
WORKLOADS = {"wide": ("load", 2000, 20_000, 1), "empty": ("load", 243, 0, 50),
             "decode": ("decode", 2000, 20_000, DECODE_SETS)}
METRICS = {"load": ("load_s", "first_use_s"), "decode": ("decode_s",)}
DECODE_PARAMS = {"beam_size": 8, "max_len": 30, "min_len": 10}


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


def decode_inputs(vocab: int, sets: int) -> list[list[list[int]]]:
    """``sets`` input sets of token ids, each topic-heavy like a ``wide`` cluster."""
    rng = np.random.default_rng(SEED)
    content = np.arange(3, vocab)
    out = []
    for _ in range(sets):
        topic = rng.choice(content, DECODE_TOPIC, replace=False)
        out.append([np.where(rng.random(DECODE_TOKENS) < 0.5, rng.choice(topic, DECODE_TOKENS),
                             rng.choice(content, DECODE_TOKENS)).tolist()
                    for _ in range(DECODE_INPUTS)])
    return out


def table_sha256(model) -> str:
    digest = hashlib.sha256()
    for array in getattr(model, "_bigram_table", ()):
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def results_sha256(digest, results) -> None:
    """Feed every ranked result, each float as its exact hex, to ``digest``."""
    for h in results:
        digest.update(repr((h.tokens, h.raw_score.hex(), h.ranked_score.hex(),
                            h.trace.input_labels)).encode())
        for row in h.trace.rows:
            digest.update(repr((row.token_id, row.token, row.combined.hex(),
                                [x.hex() for x in row.per_input])).encode())


def load_sample(dyne, loads: int, spec: str) -> tuple[list[float], str]:
    load_s = first_use_s = 0.0
    for _ in range(loads):
        t0 = time.perf_counter()
        model = dyne.load_model(spec)
        t1 = time.perf_counter()
        model.score_batch([(3,)], (0, 3))
        t2 = time.perf_counter()
        load_s, first_use_s = load_s + (t1 - t0), first_use_s + (t2 - t0)
    return [load_s / loads, first_use_s / loads], table_sha256(model)


def decode_sample(dyne, model, input_sets: list) -> tuple[list[float], str]:
    params = dyne.DecodeParams(**DECODE_PARAMS)
    digest, decode_s = hashlib.sha256(), 0.0
    for inputs in input_sets:
        t0 = time.perf_counter()
        results = dyne.beam_search(model, inputs, params)
        decode_s += time.perf_counter() - t0
        results_sha256(digest, results)
    return [decode_s / len(input_sets)], digest.hexdigest()


def worker(src: str) -> None:
    """Answer each request line on stdin, the tab-separated ``<kind> <count>
    <spec path> [<inputs path>]``, with one sample line: the metric values
    and the sha256 of the outputs, separated by spaces."""
    sys.path.insert(0, src)
    import dyne

    models: dict[str, object] = {}  # a decode's model, loaded once per spec
    for line in sys.stdin:
        kind, count, spec, *inputs = line.rstrip("\n").split("\t")
        gc.collect()
        if kind == "load":
            values, sha = load_sample(dyne, int(count), spec)
        else:
            if spec not in models:
                models[spec] = dyne.load_model(spec)
            input_sets = json.loads(Path(inputs[0]).read_text())[: int(count)]
            values, sha = decode_sample(dyne, models[spec], input_sets)
        print(*map(repr, values), sha, flush=True)


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
    """``{(workload, side): [([metric values], outputs sha256), ...]}``."""
    from dyne.errors import json_text, write_output  # the working tree's, from main

    samples = {(name, side): [] for name in WORKLOADS for side in ("base", "tree")}
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "base").mkdir(parents=True)
    try:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(WORK / "base")], input=archive, check=True)
        requests = {}
        for name in WORKLOADS:
            kind, vocab, bigrams, count = WORKLOADS[name]
            spec = WORK / f"spec_{vocab}_{bigrams}.json"
            if not spec.exists():
                write_output(spec, json_text(spec_doc(vocab, bigrams)))
            requests[name] = [kind, str(count), str(spec)]
            if kind == "decode":
                write_output(WORK / "inputs.json", json_text(decode_inputs(vocab, count)))
                requests[name].append(str(WORK / "inputs.json"))
        procs = {side: subprocess.Popen([sys.executable, __file__, "--worker", str(src)],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                 for side, src in (("base", WORK / "base" / "src"), ("tree", ROOT / "src"))}
        try:
            for pair in range(pairs):
                for name in WORKLOADS:
                    for side in ("base", "tree") if pair % 2 == 0 else ("tree", "base"):
                        procs[side].stdin.write("\t".join(requests[name]) + "\n")
                        procs[side].stdin.flush()
                        *values, sha = procs[side].stdout.readline().split()
                        samples[name, side].append((list(map(float, values)), sha))
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
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_paired.json")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sys.path.insert(0, str(ROOT / "src"))  # here, not at import: a worker imports its own
    from dyne.errors import json_text, write_output

    base_sha = git("rev-parse", f"{args.base}^{{commit}}")
    samples = run_pairs(base_sha, args.pairs)
    result = {
        "command": " ".join(["scripts/bench_paired.py", *sys.argv[1:]]),
        "pairs": args.pairs,
        "seed": SEED,
        "base": {"sha": base_sha},
        "tree": {"head": git("rev-parse", "HEAD"),
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "cpu": cpu_model(), "machine": platform.machine()},
        "workloads": {},
    }
    all_equal = True
    for name in WORKLOADS:
        kind, vocab, bigrams, count = WORKLOADS[name]
        shas = {side: sorted({s[1] for s in samples[name, side]}) for side in ("base", "tree")}
        equal = shas["base"] == shas["tree"] and len(shas["base"]) == 1
        all_equal = all_equal and equal
        entry = result["workloads"][name] = {
            "kind": kind, "vocab": vocab, "bigrams": bigrams, "per_sample": count,
            "output_sha256": shas, "outputs_equal": equal,
        }
        for column, metric in enumerate(METRICS[kind]):
            base, tree = ([s[0][column] for s in samples[name, side]]
                          for side in ("base", "tree"))
            won = sum(t < b for t, b in zip(tree, base))
            entry[metric] = {"unit": "s", "base": summary(base), "tree": summary(tree),
                             "pairs_won": {"tree": won, "base": args.pairs - won}}
            b, t = statistics.median(base), statistics.median(tree)
            print(f"{name} {metric}: base {1e3 * b:.4g} ms, tree {1e3 * t:.4g} ms "
                  f"({100 * (t / b - 1):+.1f}%), tree won {won}/{args.pairs} pairs")
        print(f"{name} outputs equal: {equal}")
    write_output(args.out, json_text(result))
    print(f"wrote {args.out}")
    if not all_equal:
        print("error: the two sides' outputs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        raise SystemExit(main())
