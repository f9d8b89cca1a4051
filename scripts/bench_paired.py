#!/usr/bin/env python3
"""Paired timing of model loading, decoding and stemming, and the peak memory of
the benchmark's CLI commands: a base commit against the working tree.

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
decided the pairs whose sides landed apart.

Each worker builds the benchmark's own ``wide`` and ``sweep`` workloads with
``BUILDERS`` of ``perfbench/workloads.py`` at the fixed seed ``SEED``, in its
side's directory under ``.bench_work/``, so each side's ``ToyModelSpec.save``
writes the spec in its own format. Both sides run the working tree's
``workloads.py`` (so a base must have the ``dyne`` names it imports), read
with bytecode writing off, so a run writes nothing under ``perfbench/``:

* ``wide``: the ``wide`` benchmark's spec, V = 2,000 tokens and 20,000
  bigram counts;
* ``empty``: the ``sweep`` benchmark's spec, V = 243 tokens and no bigram
  counts, where fixed costs show;
* ``decode``: ``beam_search`` with the ``wide`` benchmark's parameters on its
  first 10 pool clusters;
* ``decode_sweep``: the same on the ``sweep`` benchmark's first 50 pool
  clusters, where many small decodes show the search's own per-step costs;
* ``decode_prob``: ``decode`` under ``mean_prob``, whose output hash covers
  the pairwise sum numpy makes over the 8 inputs of each column;
* ``decode_shift``: ``decode`` on the first 5 pool clusters, on a model of
  `shift_model_type`, which reads the whole prefix and re-ranks the inputs
  within a column from prefix to prefix, as a seq2seq model does, so a
  search's column order goes stale at most steps;
* ``stem``: ``porter_stem`` over the ``STEM_WORDS`` words of `stem_corpus`;
* ``peak_wide`` and ``peak_sweep``: the ``wide`` and ``sweep`` benchmarks'
  CLI commands, each run by a fresh child process, since a worker has
  imported ``hashlib`` and numpy's kernels for itself.

A decode's input sets are built as perfbench's ``decode_round`` builds them:
``select_document_indices`` at the workload's largest size and its seed,
then ``tokenize_and_truncate`` at ``MAX_INPUT_TOKENS``.

Each pair times one sample of each workload on each side. A sample is the
mean over ``BUDGET_S`` seconds of timed work, taken in ``SLICES`` slices that
the two sides run in turn, the side that goes first alternating from pair to
pair, so that both sides' samples span the same phases of the host; a slice
repeats its unit of work as many times as fill its share of the budget, and
at least once. A ``wide`` or ``empty`` unit times ``load_model``
(``load_s``) and, on the model it loaded, the first ``score_batch`` call,
which builds the copy table and the first bigram row (``first_use_s``, load
included). A ``decode`` unit is a pass through the input sets, and the metric
the seconds of one decode (``decode_s``); as in the gated ``decode_p50_ms``,
each decode runs on a model loaded fresh outside the timer, so the bigram rows
it reads are built inside it. Each slice hashes its first pass, after each
decode and outside the timer. A ``stem`` unit is one pass over the corpus
(``stem_s``). A ``peak`` slice is one child, which imports ``dyne`` from the
side's ``src/``, runs the command as perfbench's ``reference_run`` does, and
reports its own ``VmHWM`` (``peak_mb``); its sample is the mean over
``SLICES`` children.

The result file holds, per workload and metric, each side's median and
quartiles, the median and quartiles of the per-pair ``tree/base`` ratios
(none when a base value is 0; the host's drift between pairs moves them less
than either side's median), the pairs each side won with the lower value (a
tie counts for neither), the environment (Python, numpy, ``nproc``, CPU),
both commits, each side's ``src_lines`` (the lines of its ``src/dyne/*.py``)
and ``src_file_lines`` (the same per file, by name), both also printed with
the tree's change, and a sha256 of each side's outputs: a load's scores of one
input after every previous token, every ranked result of a decode (its
tokens, the hex of both scores and every trace cell), the stems of a ``stem``
pass, one per line, and every artifact of a ``peak`` child but
``run_config.json``, which records the side's paths. When the two sides'
outputs differ, the run still writes the file but exits 1. Uses only the
stdlib and numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
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
BUDGET_S, SLICES = 0.5, 10
#: name -> (kind, benchmark workload, pool clusters in a decode's pass)
WORKLOADS = {"wide": ("load", "wide", 0), "empty": ("load", "sweep", 0),
             "decode": ("decode", "wide", 10), "decode_sweep": ("decode", "sweep", 50),
             "decode_prob": ("decode", "wide", 10), "decode_shift": ("decode", "wide", 5),
             "stem": ("stem", None, 0),
             "peak_wide": ("peak", "wide", 0), "peak_sweep": ("peak", "sweep", 0)}
#: kind -> {metric: unit}, in the order a slice returns them
METRICS = {"load": {"load_s": "s", "first_use_s": "s"}, "decode": {"decode_s": "s"},
           "stem": {"stem_s": "s"}, "peak": {"peak_mb": "MB"}}
#: a peak child's code: it imports ``dyne`` from the ``src/`` named first on its
#: command line, runs the CLI on the rest, then prints its peak resident memory
#: (the child's own ``VmHWM``, as perfbench's ``reference_run`` reads it) in kB
PEAK_CHILD = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); from dyne.cli import main; "
    "status = main(sys.argv[1:]); "
    "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
    "print('peak', hwm[0].split()[1]); sys.exit(status)"
)
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


def shift_model_type(dyne) -> type:
    """`CopyBigramModel` made to read the whole prefix (``context = None``), input
    ``x``'s row lowered by ``hash((prefix, x)) % 1024 / 1024``: each row still
    depends only on its input and the prefix, as `SequenceModel` requires, and a
    tuple of ints hashes alike in every process."""

    class ShiftModel(dyne.CopyBigramModel):
        context = None

        @classmethod
        def load(cls, spec: str) -> "ShiftModel":
            return cls(dyne.ToyModelSpec.load(spec))

        def score_batch(self, inputs, prefix):
            offsets = [hash((tuple(prefix), tuple(x))) % 1024 / 1024 for x in inputs]
            return super().score_batch(inputs, prefix) - np.array(offsets)[:, None]

    return ShiftModel


def workload_cases(dyne, work: Path) -> dict:
    """Each workload's input to its ``*_slice`` function, taken from the
    benchmark's workloads, which are written under ``work``."""
    sys.dont_write_bytecode = True  # so the import writes nothing under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    built = {name: workloads.BUILDERS[name](SEED, work / name) for name in ("wide", "sweep")}
    shift_model, cases = shift_model_type(dyne), {}
    for name, (kind, bench, clusters) in WORKLOADS.items():
        if kind == "stem":
            cases[name] = stem_corpus()
        elif kind == "load":
            cases[name] = built[bench].model_path
        elif kind == "peak":
            cases[name] = built[bench]
        else:
            wl = built[bench]
            params = wl.params
            if name == "decode_prob":
                params = dataclasses.replace(params, reduce=dyne.Reduce.MEAN_PROB)
            load = functools.partial(shift_model.load if name == "decode_shift" else
                                     dyne.load_model, wl.model_path)
            vocab = load().vocab
            cases[name] = load, params, [
                [dyne.tokenize_and_truncate(cluster.documents[j], vocab, workloads.MAX_INPUT_TOKENS)
                 for j in dyne.select_document_indices(cluster, wl.sizes[-1], wl.params.seed)]
                for cluster in wl.pool[:clusters]]
    return cases


def stems_sha256(stems: list[str]) -> str:
    return hashlib.sha256("\n".join(stems).encode()).hexdigest()


def rows_sha256(model) -> str:
    """A sha256 of ``model``'s scores of one input after each previous token, read
    through the public ``score_batch``, so that it hashes every bigram row."""
    digest, inputs = hashlib.sha256(), ((3,),)  # one input object: one copy table
    for prev in range(len(model.vocab)):
        digest.update(model.score_batch(inputs, (0, prev)).tobytes())
    return digest.hexdigest()


def results_sha256(digest, results) -> None:
    """Feed every ranked result, each float as its exact hex, to ``digest``."""
    for h in results:
        digest.update(repr((h.tokens, h.raw_score.hex(), h.ranked_score.hex(),
                            h.trace.input_labels)).encode())
        for row in h.trace.rows:
            digest.update(repr((row.token_id, row.token, row.combined.hex(),
                                [x.hex() for x in row.per_input])).encode())


# Each ``*_slice`` function returns its metrics' totals, then the count they
# are the totals of, and a sha256 of its outputs.

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
    return [load_s, first_use_s, loads], rows_sha256(model)


def decode_slice(dyne, case: tuple, budget_s: float) -> tuple[list[float], str]:
    load, params, input_sets = case
    digest, decode_s, passes = hashlib.sha256(), 0.0, 0
    while not passes or decode_s < budget_s:
        for inputs in input_sets:
            model = load()
            t0 = time.perf_counter()
            results = dyne.beam_search(model, inputs, params)
            decode_s += time.perf_counter() - t0
            if not passes:
                results_sha256(digest, results)
        passes += 1
    return [decode_s, passes * len(input_sets)], digest.hexdigest()


def peak_slice(dyne, wl, budget_s: float) -> tuple[list[float], str]:
    """One fresh child runs ``wl``'s CLI command with this side's ``dyne``; the
    sha256 covers every artifact but ``run_config.json``, which records the
    side's paths."""
    out = Path(wl.config_path).with_name("out_peak")
    shutil.rmtree(out, ignore_errors=True)
    src = Path(dyne.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", PEAK_CHILD, str(src), *wl.cli_argv(str(out))],
                          capture_output=True, text=True, check=False)
    peak = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("peak ")]
    if proc.returncode != 0 or not peak:
        raise RuntimeError(f"the {wl.name} child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "run_config.json":
            digest.update(f"{path.relative_to(out).as_posix()}\n".encode())
            digest.update(path.read_bytes())
    shutil.rmtree(out)
    return [int(peak[-1]) / 1024, 1], digest.hexdigest()


def stem_slice(dyne, corpus: list[str], budget_s: float) -> tuple[list[float], str]:
    stem_s, passes = 0.0, 0
    while not passes or stem_s < budget_s:
        t0 = time.perf_counter()
        stems = [dyne.stemmer.porter_stem(w) for w in corpus]
        stem_s, passes = stem_s + (time.perf_counter() - t0), passes + 1
    return [stem_s, passes], stems_sha256(stems)


def worker(side_dir: str) -> None:
    """Build the workloads in ``side_dir``, with the ``dyne`` of its ``src/``,
    then answer each workload name on stdin with one slice line: what its
    ``*_slice`` function returns, separated by spaces."""
    sys.path.insert(0, str(Path(side_dir) / "src"))
    import dyne

    cases = workload_cases(dyne, Path(side_dir) / "bench")
    gc.collect()
    gc.freeze()  # as perfbench does, so no timed call scans what lives all run
    slices = {"load": load_slice, "decode": decode_slice, "stem": stem_slice,
              "peak": peak_slice}
    for line in sys.stdin:
        name = line.rstrip("\n")
        gc.collect()
        values, sha = slices[WORKLOADS[name][0]](dyne, cases[name], BUDGET_S / SLICES)
        print(*map(repr, values), sha, flush=True)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_file_lines(src: Path) -> dict[str, int]:
    """The lines of each ``dyne/*.py`` file under ``src``, by file name."""
    return {path.name: len(path.read_bytes().splitlines())
            for path in sorted((src / "dyne").glob("*.py"))}


def lines_report(file_lines: dict) -> list[str]:
    """Both sides' ``src/dyne`` lines (see `src_file_lines`), in total and then per
    file, each with the tree's change; a file one side lacks counts 0 there."""
    rows = [("src/dyne", *(sum(file_lines[side].values()) for side in SIDES))]
    rows += [(f"  {name}", *(file_lines[side].get(name, 0) for side in SIDES))
             for name in sorted(set().union(*file_lines.values()))]
    return [f"{label} lines: base {base}, tree {tree} ({tree - base:+d})"
            for label, base, tree in rows]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(base: list[float], tree: list[float], unit: str) -> dict:
    """One metric's per-pair values: each side's summary, the summary of the
    per-pair ``tree/base`` ratios (``None`` when a base value is 0), and the
    pairs each side won with the lower value (a tie counts for neither)."""
    ratios = [t / b for t, b in zip(tree, base)] if all(base) else None
    return {"unit": unit, "base": summary(base), "tree": summary(tree),
            "ratio": summary(ratios) if ratios else None,
            "pairs_won": {"tree": sum(t < b for t, b in zip(tree, base)),
                          "base": sum(b < t for t, b in zip(tree, base))}}


def report_line(name: str, metric: str, entry: dict) -> str:
    """``entry`` (see `compare`) as one line: both sides' medians, the per-pair
    ratios' median and q1-q3, and the pairs the tree won."""
    scale, shown = {"s": (1e3, " ms"), "MB": (1.0, " MB")}.get(entry["unit"], (1.0, ""))
    line = (f"{name} {metric}: base {scale * entry['base']['median']:.4g}{shown}, "
            f"tree {scale * entry['tree']['median']:.4g}{shown}")
    ratio = entry["ratio"]
    if ratio:
        line += (f", tree/base per pair {ratio['median']:.4f} "
                 f"(q1-q3 {ratio['q1']:.4f}-{ratio['q3']:.4f})")
    pairs = len(entry["base"]["values"])
    return line + f", tree won {entry['pairs_won']['tree']}/{pairs} pairs"


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
        self.procs = {side: subprocess.Popen([sys.executable, __file__, "--worker",
                                              str(WORK / side)],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                             text=True)
                      for side in SIDES}
        for proc in self.procs.values() if self.cpu is not None else ():
            os.sched_setaffinity(proc.pid, {self.cpu})
        return self

    def ask(self, side: str, name: str) -> str:
        proc = self.procs[side]
        try:
            proc.stdin.write(name + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            raise RuntimeError(f"the {side} worker died on the request {name!r}")
        return line

    def __exit__(self, *exc) -> None:
        for proc in self.procs.values():
            proc.communicate("")


def run_pairs(base_sha: str, pairs: int) -> tuple[dict, dict]:
    """``{(workload, side): [([metric values], outputs sha256), ...]}``, and
    ``{side: {file name: lines}}`` of each side's ``src/dyne/*.py``."""
    samples = {(name, side): [] for name in WORKLOADS for side in SIDES}
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "base").mkdir(parents=True)
    try:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(WORK / "base")], input=archive, check=True)
        shutil.copytree(ROOT / "src", WORK / "tree" / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        file_lines = {side: src_file_lines(WORK / side / "src") for side in SIDES}
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
        for pair in range(pairs):
            with Workers(cpus[pair // 2 % len(cpus)]) as workers:  # fresh for each pair
                for name in WORKLOADS:
                    parts = {side: [] for side in SIDES}
                    for _ in range(SLICES):
                        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                            *values, sha = workers.ask(side, name).split()
                            parts[side].append((list(map(float, values)), sha))
                    for side, part in parts.items():  # each metric's total over the count
                        *seconds, count = np.sum([values for values, _ in part], axis=0)
                        sha = "/".join(sorted({sha for _, sha in part}))  # one, if slices agree
                        samples[name, side].append(((np.array(seconds) / count).tolist(), sha))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return samples, file_lines


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
    samples, file_lines = run_pairs(base_sha, args.pairs)
    print(*lines_report(file_lines), sep="\n")
    result = {
        "command": " ".join(["scripts/bench_paired.py", *sys.argv[1:]]),
        "pairs": args.pairs,
        "seed": SEED,
        "base": {"sha": base_sha},
        "tree": {"head": git("rev-parse", "HEAD"),
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "cpu": cpu_model(), "machine": platform.machine()},
        "src_lines": {side: sum(lines.values()) for side, lines in file_lines.items()},
        "src_file_lines": file_lines,
        "workloads": {},
    }
    all_equal = True
    for name, (kind, bench, clusters) in WORKLOADS.items():
        shas = {side: sorted({s[1] for s in samples[name, side]}) for side in ("base", "tree")}
        equal = shas["base"] == shas["tree"] and len(shas["base"]) == 1
        all_equal = all_equal and equal
        entry = result["workloads"][name] = {
            "kind": kind, "budget_s": BUDGET_S, "slices": SLICES, "output_sha256": shas,
            "outputs_equal": equal, **({"benchmark": bench} if bench else {"words": STEM_WORDS}),
            **({"input_sets": clusters} if kind == "decode" else {}),
        }
        for column, (metric, unit) in enumerate(METRICS[kind].items()):
            base, tree = ([s[0][column] for s in samples[name, side]]
                          for side in ("base", "tree"))
            entry[metric] = compare(base, tree, unit)
            print(report_line(name, metric, entry[metric]))
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
