#!/usr/bin/env python3
"""Paired timing of model loading, decoding and stemming: a base commit against the working tree.

    python3 scripts/bench_paired.py --base REV [--pairs N] [--out FILE]

The base commit ``REV`` (say the parent of the change, ``HEAD~1`` once it is
committed, or ``HEAD`` to measure uncommitted edits) is unpacked with
``git archive REV | tar -x`` into ``.bench_work/base/`` at the root of the
checkout, and the working tree's ``src/`` is copied to ``.bench_work/tree/``,
so both sides import ``dyne`` from paths of one length (where the files sit
moved an A/A run's ``decode`` by 1-3% on one side); the run removes
``.bench_work/`` when it ends. Each pair starts one fresh
worker process per side, which imports ``dyne`` from that side's ``src/``, so
no state of one process (its heap layout, say) stays on one side for the
whole run. Both workers of a pair are pinned to one CPU, and the pairs take
the CPUs in turn, two pairs each, so each CPU runs both orders: on a shared
host one CPU can run a third slower than another for seconds at a time, which
decided the pairs whose sides landed apart. Before the pairs, one more worker
per side builds the same counts, drawn with the fixed seed ``SEED``, and saves
them through its own ``ToyModelSpec.save``, so each side reads a spec file in
its own format; each decode workload's input sets are one file that both
sides read:

* ``wide``: the size of the ``wide`` benchmark's spec, V = 2,000 tokens and
  20,000 bigram counts, about 0.8 MB as columns (1 MB as the older triple list);
* ``empty``: the shape of the ``sweep`` benchmark's spec, V = 243 tokens
  and no bigram counts, where fixed costs show;
* ``decode``: ``beam_search`` on the ``wide`` spec, over ``DECODE_SETS`` input
  sets shaped like the ``wide`` benchmark's clusters (8 inputs of 400 token
  ids, half of them from a 10-token topic) with its settings (beam 8,
  ``max_len`` 30, ``min_len`` 10);
* ``decode_sweep``: ``beam_search`` on the ``empty`` spec, over ``SWEEP_SETS``
  input sets shaped like the ``sweep`` benchmark's pool decodes (5 inputs of
  23 token ids: 4 shared words twice and 5 words of each input's own three
  times, shuffled) with its settings (beam 4, ``max_len`` 5, ``min_len`` 4,
  ``block_repeat_ngram`` 1, ``mean_prob``), where many small decodes show
  the search's own per-step costs;
* ``decode_prob``: ``decode`` under ``mean_prob``, whose output hash covers
  the pairwise sum numpy makes over the 8 inputs of each column;
* ``stem``: ``porter_stem`` over the ``STEM_WORDS`` words of `stem_corpus`,
  one file that both sides read.

Each pair times one sample of each workload on each side. A sample is the
mean over ``BUDGET_S`` seconds of timed work, taken in ``SLICES`` slices that
the two sides run in turn, the side that goes first alternating from pair to
pair, so that both sides' samples span the same phases of the host; a slice
repeats its unit of work as many times as fill its share of the budget, and
at least once. A ``wide`` or ``empty`` unit times ``load_model``
(``load_s``) and, on the model it loaded, the first ``score_batch`` call,
which builds the bigram table (``first_use_s``, load included). A ``decode``
unit is a pass through the input sets, and the metric the seconds of one
decode (``decode_s``); the model is loaded once per worker, which decodes the
first input set once, untimed, so its bigram table is built before the timer
starts, and each slice hashes its first pass, after each decode and outside
the timer. A ``stem`` unit is one pass over the corpus (``stem_s``). The
result file holds, per workload, metric and side, the median and the
quartiles, the pairs each side won, the environment (Python, numpy,
``nproc``, CPU), both commits, and a sha256 of each side's outputs: the
bigram-table arrays of a load, every ranked result of a decode (its tokens,
the hex of both scores and every trace cell), and the stems of a ``stem``
pass, one per line. When the two sides' outputs differ, the run still writes
the file but exits 1. Uses only the stdlib and numpy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import string
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
SWEEP_SETS = 50
SWEEP_INPUTS, SWEEP_SHARED, SWEEP_OWN = 5, 4, 5
BUDGET_S, SLICES = 0.5, 10
#: name -> (kind, vocab size, bigram counts, input sets of a decode)
WORKLOADS = {"wide": ("load", 2000, 20_000, 0), "empty": ("load", 243, 0, 0),
             "decode": ("decode", 2000, 20_000, DECODE_SETS),
             "decode_sweep": ("decode", 243, 0, SWEEP_SETS),
             "decode_prob": ("decode", 2000, 20_000, DECODE_SETS), "stem": ("stem", 0, 0, 0)}
METRICS = {"load": ("load_s", "first_use_s"), "decode": ("decode_s",), "stem": ("stem_s",)}
#: decode workload -> its ``DecodeParams`` fields, ``reduce`` by value
DECODE_PARAMS = {
    "decode": {"beam_size": 8, "max_len": 30, "min_len": 10},
    "decode_sweep": {"beam_size": 4, "max_len": 5, "min_len": 4, "block_repeat_ngram": 1,
                     "reduce": "mean_prob"},
    "decode_prob": {"beam_size": 8, "max_len": 30, "min_len": 10, "reduce": "mean_prob"},
}
STEM_WORDS = 30_000
#: every suffix of Porter's rule tables, with the endings step 1b's tidy-up
#: rules and step 5 test
STEM_SUFFIXES = (
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli", "ousli",
    "ization", "ation", "ator", "alism", "iveness", "fulness", "ousness", "aliti", "iviti",
    "biliti", "icate", "ative", "alize", "iciti", "ical", "ful", "ness", "al", "ance",
    "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion", "ou", "ism",
    "ate", "iti", "ous", "ive", "ize", "e", "ll",
)


def spec_counts(vocab: int, bigrams: int) -> tuple[list[str], dict]:
    """The tokens of a ``vocab``-token spec and ``bigrams`` distinct random
    ``(prev id, next id) -> count`` pairs, drawn alike on both sides."""
    rng = np.random.default_rng(SEED)
    tokens = ["<s>", "</s>", "<unk>", *(f"w{i:04d}" for i in range(vocab - 3))]
    prevs = [0, *range(3, vocab)]  # <s> and the content tokens
    nexts = [1, *range(3, vocab)]  # </s> and the content tokens
    flat = rng.choice(len(prevs) * len(nexts), bigrams, replace=False)
    counts = rng.integers(1, 10, bigrams)
    return tokens, {(prevs[f // len(nexts)], nexts[f % len(nexts)]): int(c)
                    for f, c in zip(flat.tolist(), counts)}


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


def sweep_inputs(vocab: int, sets: int) -> list[list[list[int]]]:
    """``sets`` input sets of token ids, each shaped like a ``sweep`` pool
    cluster: every input holds the set's shared words twice and its own
    words three times, shuffled."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(sets):
        words = rng.choice(np.arange(3, vocab), SWEEP_SHARED + SWEEP_INPUTS * SWEEP_OWN,
                           replace=False)
        shared, own = words[:SWEEP_SHARED], words[SWEEP_SHARED:].reshape(SWEEP_INPUTS, -1)
        out.append([rng.permutation(np.concatenate([np.repeat(shared, 2), np.repeat(mine, 3)]))
                    .tolist() for mine in own])
    return out


def stem_corpus() -> list[str]:
    """``STEM_WORDS`` lowercase words, drawn with the fixed seed ``SEED``: a root
    of 0 to 6 letters (the vowels and ``y`` twice as likely as the other
    letters), its last letter doubled one time in four, then 0 to 3 of
    ``STEM_SUFFIXES``."""
    rng = random.Random(SEED)
    letters = string.ascii_lowercase + "aeiouy"
    words = []
    for _ in range(STEM_WORDS):
        root = "".join(rng.choices(letters, k=rng.randint(0, 6)))
        if root and rng.random() < 0.25:
            root += root[-1]
        words.append(root + "".join(rng.choices(STEM_SUFFIXES, k=rng.randint(0, 3))))
    return words


def stems_sha256(stems: list[str]) -> str:
    return hashlib.sha256("\n".join(stems).encode()).hexdigest()


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


# Each ``*_slice`` function returns its metrics' total seconds, then the
# count they are the total of, and a sha256 of its outputs.

def load_slice(dyne, spec: str, budget_s: float) -> tuple[list[float], str]:
    load_s = first_use_s = 0.0
    loads = 0
    while not loads or first_use_s < budget_s:
        t0 = time.perf_counter()
        model = dyne.load_model(spec)
        t1 = time.perf_counter()
        model.score_batch([(3,)], (0, 3))
        t2 = time.perf_counter()
        load_s, first_use_s, loads = load_s + (t1 - t0), first_use_s + (t2 - t0), loads + 1
    return [load_s, first_use_s, loads], table_sha256(model)


def decode_slice(dyne, model, input_sets: list, name: str,
                 budget_s: float) -> tuple[list[float], str]:
    params = dyne.DecodeParams(**{key: dyne.Reduce(value) if key == "reduce" else value
                                  for key, value in DECODE_PARAMS[name].items()})
    digest, decode_s, passes = hashlib.sha256(), 0.0, 0
    while not passes or decode_s < budget_s:
        for inputs in input_sets:
            t0 = time.perf_counter()
            results = dyne.beam_search(model, inputs, params)
            decode_s += time.perf_counter() - t0
            if not passes:
                results_sha256(digest, results)
        passes += 1
    return [decode_s, passes * len(input_sets)], digest.hexdigest()


def stem_slice(dyne, words: str, budget_s: float) -> tuple[list[float], str]:
    corpus = json.loads(Path(words).read_text())
    stem_s, passes = 0.0, 0
    while not passes or stem_s < budget_s:
        t0 = time.perf_counter()
        stems = [dyne.stemmer.porter_stem(w) for w in corpus]
        stem_s, passes = stem_s + (time.perf_counter() - t0), passes + 1
    return [stem_s, passes], stems_sha256(stems)


def worker(src: str) -> None:
    """Answer each request line on stdin, tab-separated: ``save <vocab>
    <bigrams> <spec path>`` with ``saved`` once this side's ``ToyModelSpec``
    wrote that spec, and ``<kind> <spec or words path> [<inputs path> <workload>]``
    with one slice line: what its ``*_slice`` function returns,
    separated by spaces."""
    sys.path.insert(0, src)
    import dyne

    models: dict[str, object] = {}  # a decode's model, loaded once per spec
    for line in sys.stdin:
        kind, *fields = line.rstrip("\n").split("\t")
        gc.collect()
        if kind == "save":
            vocab, bigrams, spec = fields
            tokens, counts = spec_counts(int(vocab), int(bigrams))
            dyne.ToyModelSpec(0.5, 1.0, counts, dyne.Vocab(tokens)).save(spec)
            print("saved", flush=True)
            continue
        spec, *inputs = fields
        budget_s = BUDGET_S / SLICES
        if kind == "load":
            values, sha = load_slice(dyne, spec, budget_s)
        elif kind == "stem":
            values, sha = stem_slice(dyne, spec, budget_s)
        else:
            path, name = inputs
            input_sets = json.loads(Path(path).read_text())
            if spec not in models:  # loaded, and its first decode run, before any timing
                models[spec] = dyne.load_model(spec)
                decode_slice(dyne, models[spec], input_sets[:1], name, budget_s=0.0)
            values, sha = decode_slice(dyne, models[spec], input_sets, name, budget_s)
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


SIDES = ("base", "tree")


class Workers:
    """One worker process per side, each importing ``dyne`` from its own ``src/``,
    both pinned to CPU ``cpu`` when one is given; closed on leaving the ``with``
    block."""

    def __init__(self, cpu: int | None = None):
        self.cpu = cpu

    def __enter__(self) -> "Workers":
        self.procs = {side: subprocess.Popen([sys.executable, __file__, "--worker", str(src)],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                             text=True)
                      for side, src in ((side, WORK / side / "src") for side in SIDES)}
        for proc in self.procs.values() if self.cpu is not None else ():
            os.sched_setaffinity(proc.pid, {self.cpu})
        return self

    def ask(self, side: str, request: list[str]) -> str:
        self.procs[side].stdin.write("\t".join(request) + "\n")
        self.procs[side].stdin.flush()
        return self.procs[side].stdout.readline()

    def __exit__(self, *exc) -> None:
        for proc in self.procs.values():
            proc.communicate("")


def run_pairs(base_sha: str, pairs: int) -> dict:
    """``{(workload, side): [([metric values], outputs sha256), ...]}``."""
    from dyne.errors import json_text, write_output  # the working tree's, from main

    samples = {(name, side): [] for name in WORKLOADS for side in SIDES}
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "base").mkdir(parents=True)
    try:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(WORK / "base")], input=archive, check=True)
        shutil.copytree(ROOT / "src", WORK / "tree" / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        requests = {}
        with Workers() as workers:  # saves each side's specs, in its own format
            for name, (kind, vocab, bigrams, count) in WORKLOADS.items():
                if kind == "stem":
                    write_output(WORK / "words.json", json_text(stem_corpus()))
                    requests[name] = {side: [kind, str(WORK / "words.json")] for side in SIDES}
                    continue
                requests[name] = {}
                for side in SIDES:
                    spec = str(WORK / f"spec_{side}_{vocab}_{bigrams}.json")
                    if workers.ask(side, ["save", str(vocab), str(bigrams), spec]) != "saved\n":
                        raise RuntimeError(f"the {side} worker could not save {spec}")
                    requests[name][side] = [kind, spec]
                if kind == "decode":
                    make = sweep_inputs if name == "decode_sweep" else decode_inputs
                    path = WORK / f"inputs_{name}.json"
                    write_output(path, json_text(make(vocab, count)))
                    for request in requests[name].values():
                        request += [str(path), name]
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
        for pair in range(pairs):
            with Workers(cpus[pair // 2 % len(cpus)]) as workers:  # fresh for each pair
                for name in WORKLOADS:
                    parts = {side: [] for side in SIDES}
                    for _ in range(SLICES):
                        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                            *values, sha = workers.ask(side, requests[name][side]).split()
                            parts[side].append((list(map(float, values)), sha))
                    for side, part in parts.items():  # each metric's seconds over the count
                        *seconds, count = np.sum([values for values, _ in part], axis=0)
                        sha = "/".join(sorted({sha for _, sha in part}))  # one, if slices agree
                        samples[name, side].append(((np.array(seconds) / count).tolist(), sha))
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
            "kind": kind, "budget_s": BUDGET_S, "slices": SLICES, "output_sha256": shas,
            "outputs_equal": equal, **({"input_sets": count} if kind == "decode" else {}),
            **({"words": STEM_WORDS} if kind == "stem" else {"vocab": vocab, "bigrams": bigrams}),
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
