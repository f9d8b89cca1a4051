"""Package-level checks: the public export list, the README's examples and the
bundled scripts."""

from __future__ import annotations

import ast
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyne
from dyne.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in dyne.__all__ if not hasattr(dyne, name)]
    assert missing == []
    assert len(set(dyne.__all__)) == len(dyne.__all__)


def test_readme_python_examples_run():
    # each ```python block runs alone, so an example the API has left fails here
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text("utf-8"),
                        flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def unused_imports(source: str, filename: str) -> list[str]:
    """``<filename>:<line>: <name>`` for each name a module imports and never
    uses. Names listed in ``__all__`` count as used; ``__future__`` is skipped."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{filename}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted((ROOT / "src" / "dyne").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(modules) > 2
    hits = [hit for path in modules
            for hit in unused_imports(path.read_text("utf-8"), str(path.relative_to(ROOT)))]
    assert hits == []


def test_unused_import_guard_names_file_line_and_name():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from pathlib import Path as P\n"
              "from typing import Any\n"
              "__all__ = ['P']\n"
              "sep = os.sep\n")
    assert unused_imports(source, "m.py") == ["m.py:2: json", "m.py:5: Any"]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``<filename>:<line>: <name>`` for each module-level ``_name`` (def, class
    or assignment) that no module in ``sources`` loads as a name or attribute."""
    defined: list[tuple[str, int, str]] = []
    loaded: set[str] = set()
    for filename, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(filename, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [f"{filename}:{line}: {name}" for filename, line, name in defined
            if name not in loaded]


def test_no_unused_private_names():
    modules = sorted((ROOT / "src" / "dyne").glob("*.py"))
    assert len(modules) > 2
    sources = {str(path.relative_to(ROOT)): path.read_text("utf-8") for path in modules}
    assert unused_private_names(sources) == []


def test_unused_private_name_guard_names_file_line_and_name():
    sources = {
        "a.py": ("__all__ = []\n"
                 "_LIMIT = 3\n"
                 "def _helper():\n"
                 "    return _LIMIT\n"
                 "class _Orphan:\n"
                 "    pass\n"
                 "_table: dict = {}\n"
                 "_stored = 1\n"
                 "_stored = 2\n"),
        "b.py": ("from a import _helper\n"
                 "import a\n"
                 "x = a._table\n"
                 "y = _helper()\n"
                 "a._Orphan = None\n"),
    }
    assert unused_private_names(sources) == [
        "a.py:5: _Orphan", "a.py:8: _stored", "a.py:9: _stored",
    ]


# (module, name) pairs that encode or write output: only dyne/errors.py uses them
OUTPUT_NAMES = {("json", "dumps"), ("json", "dump"), ("csv", "writer"), ("os", "replace")}


def output_writes(source: str, filename: str) -> list[str]:
    """``<filename>:<line>: <what>`` for each place a module encodes or writes
    output itself: any of `OUTPUT_NAMES`, any use of ``tempfile``,
    ``.write_text(``/``.write_bytes(`` or ``open(`` in a write mode."""
    hits: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, "tempfile") for a in node.names if a.name == "tempfile"]
        elif isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                     if node.module == "tempfile" or (node.module, a.name) in OUTPUT_NAMES]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id == "tempfile" or (node.value.id, node.attr) in OUTPUT_NAMES):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes"):
                hits.append((node.lineno, f".{name}("))
            elif name == "open":  # open(file, mode) or Path.open(mode)
                modes = [k.value for k in node.keywords if k.arg == "mode"]
                modes += node.args[isinstance(func, ast.Name):][:1]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                    hits.append((node.lineno, f"open(..., {ast.unparse(mode)})"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits)]


def test_only_the_errors_module_writes_output():
    modules = sorted((ROOT / "src" / "dyne").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    writer = ROOT / "src" / "dyne" / "errors.py"
    assert writer in modules and len(modules) > 3
    hits = [hit for path in modules if path != writer
            for hit in output_writes(path.read_text("utf-8"), str(path.relative_to(ROOT)))]
    assert hits == []


def test_output_writer_guard_names_file_line_and_call():
    source = ("import json, os, tempfile\n"
              "from csv import writer\n"
              "from pathlib import Path\n"
              "text = json.dumps({})\n"
              "json.loads(text)\n"
              "Path('a').write_text(text)\n"
              "open('a', 'w').close()\n"
              "open('a').read() + open('a', mode='rb').read()\n"
              "Path('a').open(mode='a')\n"
              "Path('a').open('rt')\n"
              "os.replace('a', 'b')\n"
              "os.path.join('a', 'b')\n"
              "open('a', text)\n")
    assert output_writes(source, "m.py") == [
        "m.py:1: tempfile", "m.py:2: csv.writer", "m.py:4: json.dumps", "m.py:6: .write_text(",
        "m.py:7: open(..., 'w')", "m.py:9: open(..., 'a')", "m.py:11: os.replace",
        "m.py:13: open(..., text)",
    ]


# words of the list-or-tuple input rule, which only errors.tuple_of states
LIST_RULE_WORDS = ("list or tuple", "must be a list")


def list_rule_raises(source: str, filename: str) -> list[str]:
    """``<filename>:<line>`` for each ``raise`` whose message text (its string
    constants and f-string parts) holds any of `LIST_RULE_WORDS`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(n.value for n in ast.walk(node.exc)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if any(word in text for word in LIST_RULE_WORDS):
                hits.append(f"{filename}:{node.lineno}")
    return hits


def test_only_the_errors_module_states_the_list_rule():
    modules = sorted((ROOT / "src" / "dyne").glob("*.py"))
    rule = ROOT / "src" / "dyne" / "errors.py"
    assert rule in modules and len(modules) > 3
    hits = [hit for path in modules if path != rule
            for hit in list_rule_raises(path.read_text("utf-8"), str(path.relative_to(ROOT)))]
    assert hits == []


def test_list_rule_guard_names_file_and_line():
    source = ('"""Values come as a list or tuple."""\n'
              "def check(xs, what):\n"
              "    if not isinstance(xs, list):\n"
              "        raise ValueError(f'{what} must be a list of strings, got {xs!r}')\n"
              "    if not xs:\n"
              "        raise ValueError('need a list or tuple' ' of one item or more')\n"
              "    if len(xs) > 9:\n"
              "        raise ValueError(f'{what} must be a short list')\n"
              "    try:\n"
              "        return tuple(xs)\n"
              "    except TypeError:\n"
              "        raise\n")
    assert list_rule_raises(source, "m.py") == ["m.py:4", "m.py:6"]


def unfrozen_dataclasses(source: str, filename: str) -> list[str]:
    """``<filename>:<line>: <Class>`` for each class decorated with ``dataclass``
    (bare, called, or as ``dataclasses.dataclass``) without ``frozen=True``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            frozen = isinstance(dec, ast.Call) and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in dec.keywords)
            if name == "dataclass" and not frozen:
                hits.append(f"{filename}:{node.lineno}: {node.name}")
    return hits


def test_every_dataclass_is_frozen():
    # a value that cannot change after its checks stays checked
    modules = sorted((ROOT / "src" / "dyne").glob("*.py"))
    assert len(modules) > 2
    hits = [hit for path in modules
            for hit in unfrozen_dataclasses(path.read_text("utf-8"), str(path.relative_to(ROOT)))]
    assert hits == []


def test_frozen_dataclass_guard_names_file_line_and_class():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int\n"
              "@dataclass(frozen=True)\n"
              "class B:\n"
              "    x: int\n"
              "@dataclasses.dataclass(order=True)\n"
              "class C:\n"
              "    x: int\n"
              "@dataclasses.dataclass(eq=True, frozen=True)\n"
              "class D:\n"
              "    x: int\n"
              "@dataclass(frozen=False)\n"
              "class E:\n"
              "    x: int\n"
              "@staticmethod\n"
              "class F:\n"
              "    pass\n")
    assert unfrozen_dataclasses(source, "m.py") == ["m.py:4: A", "m.py:10: C", "m.py:16: E"]


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src/`` first on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


# modules that cost memory when imported and that only some runs use
LAZY_MODULES = ("hashlib",)


def eager_imports(source: str, filename: str) -> list[str]:
    """``<filename>:<line>: <module>`` for each import of one of `LAZY_MODULES`
    that runs when the module loads: any outside a function body."""
    hits: list[tuple[int, str]] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            hits.extend((child.lineno, name.split(".")[0]) for name in names
                        if name.split(".")[0] in LAZY_MODULES)
            visit(child)

    visit(ast.parse(source))
    return [f"{filename}:{line}: {name}" for line, name in sorted(hits)]


def test_no_module_level_import_of_a_lazy_module():
    # importing hashlib maps OpenSSL, about 3.6 MB of a run's peak memory
    modules = sorted((ROOT / "src" / "dyne").glob("*.py"))
    assert len(modules) > 2
    hits = [hit for path in modules
            for hit in eager_imports(path.read_text("utf-8"), str(path.relative_to(ROOT)))]
    assert hits == []


def test_lazy_import_guard_names_file_line_and_module():
    source = ("import os, hashlib\n"
              "from hashlib import sha256\n"
              "def f():\n"
              "    import hashlib\n"
              "    return hashlib\n"
              "if os.name:\n"
              "    import hashlib.x as h\n"
              "class C:\n"
              "    from hashlib import md5\n"
              "    def g(self):\n"
              "        from hashlib import md5\n"
              "import hashlibs\n"
              "from . import hashlib\n"
              "g = lambda: __import__('hashlib')\n")
    assert eager_imports(source, "m.py") == [
        "m.py:1: hashlib", "m.py:2: hashlib", "m.py:7: hashlib", "m.py:9: hashlib",
    ]


# (seed, cluster id, documents, max_docs) -> the indices the selection returned
# when hashlib was imported with dyne.data
SELECTIONS = {(0, "c", 8, 3): [0, 1, 5], (7, "cluster-42", 20, 5): [4, 12, 13, 16, 18],
              (-3, "k\u00e9", 6, 2): [1, 3], (2**70, "x", 10, 9): [0, 1, 2, 3, 5, 6, 7, 8, 9]}

OPENSSL_CHILD = """
import json, sys
openssl = ['_hashlib' in sys.modules]
import numpy
eager = 'numpy.random' in sys.modules
from dyne.cli import main
from dyne.data import Cluster, select_document_indices
work, selections = sys.argv[1], json.loads(sys.argv[2])
flags = ['--model', work + '/model.json', '--max-len', '3']
assert main(['decode', *flags, '--clusters', work + '/fits.jsonl', '--max-docs', '2',
             '--out', work + '/fits']) == 0
assert main(['evaluate', '--clusters', work + '/fits.jsonl',
             '--hypotheses', work + '/fits/summaries.jsonl']) == 0
openssl.append('_hashlib' in sys.modules)
assert main(['decode', *flags, '--clusters', work + '/subsampled.jsonl', '--max-docs', '2',
             '--out', work + '/subsampled']) == 0
openssl.append('_hashlib' in sys.modules)
drawn = [[name for name in ('_hashlib', 'numpy.random') if name in sys.modules]]
assert main(['sweep', *flags, '--clusters', work + '/subsampled.jsonl', '--sizes', '1', '2',
             '--out', work + '/sweep']) == 0
drawn.append([name for name in ('_hashlib', 'numpy.random') if name in sys.modules])
assert main(['trace', *flags, '--clusters', work + '/subsampled.jsonl', '--max-docs', '2',
             '--cluster-id', 'c', '--output', work + '/trace.csv']) == 0
drawn.append([name for name in ('_hashlib', 'numpy.random') if name in sys.modules])
chosen = [select_document_indices(Cluster(cid, ('w',) * n), k, seed)
          for seed, cid, n, k in selections]
print(repr((openssl, eager, drawn, chosen)))
"""


def test_no_run_loads_hashlib_or_numpy_random(tmp_path):
    dyne.ToyModelSpec(1.0, 1.0, {}, dyne.Vocab.from_content(["a", "b"])).save(
        tmp_path / "model.json")
    for name, docs in (("fits", ["a b", "b a"]), ("subsampled", ["a", "b", "a b"])):
        (tmp_path / f"{name}.jsonl").write_text(
            json.dumps({"id": "c", "documents": docs, "references": ["a b"]}) + "\n")
    child = subprocess.run(
        [sys.executable, "-c", OPENSSL_CHILD, str(tmp_path), json.dumps(list(SELECTIONS))],
        env=src_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    openssl, eager, drawn, chosen = ast.literal_eval(child.stdout.splitlines()[-1])
    if openssl[0] or eager:
        pytest.skip("the interpreter or numpy loaded _hashlib or numpy.random itself")
    # dyne draws a cluster's documents with its own PCG64 and hashes with CPython's
    # built-in SHA-256, so not even a run that subsamples loads either module
    assert openssl == [False, False, False]
    assert drawn == [[], [], []]  # after the subsampling decode, a sweep, then a trace
    assert chosen == list(SELECTIONS.values())


def numeric_digests(work: Path) -> dict[str, str]:
    """sha256 digests of fixed numeric work: a decode under each reduce (8 inputs,
    V = 303 and 3,000 bigram counts, so the model's log and mean_prob's exp and log
    run over many values; every trace cell's hex) and every artifact but
    ``run_config.json`` of a mean_prob ``sweep`` with JSON traces, run in ``work``."""
    rng, digests = np.random.default_rng(0), {}
    pairs = rng.integers(3, 304, (3000, 2)) % 303  # 303 -> 0 as a prev, 1 as a next
    counts = {(a, b or 1): c for (a, b), c in zip(pairs.tolist(), rng.integers(1, 9, 3000).tolist())}
    vocab = dyne.Vocab.from_content(f"w{i}" for i in range(300))
    model = dyne.CopyBigramModel(dyne.ToyModelSpec(0.5, 1.0, counts, vocab))
    inputs = [tuple(rng.integers(3, 303, 100).tolist()) for _ in range(8)]
    for reduce in dyne.Reduce:
        params = dyne.DecodeParams(beam_size=8, max_len=12, min_len=6, reduce=reduce)
        digests[reduce.value] = hashlib.sha256(repr([
            (h.tokens, h.raw_score.hex(), [(r.combined.hex(), [x.hex() for x in r.per_input])
                                            for r in h.trace.rows])
            for h in dyne.beam_search(model, inputs, params)]).encode()).hexdigest()
    corpus = dyne.build_consensus_corpus(n_clusters=12, seed=1)
    dyne.save_clusters(corpus.clusters, work / "clusters.jsonl")
    corpus.model_spec.save(work / "model.json")
    p = corpus.decode_params
    assert main(["sweep", "--model", str(work / "model.json"), "--clusters",
                 str(work / "clusters.jsonl"), "--beam-size", str(p.beam_size), "--max-len",
                 str(p.max_len), "--min-len", str(p.min_len), "--block-repeat-ngram",
                 str(p.block_repeat_ngram), "--reduce", "mean_prob", "--trace-format", "json",
                 "--sizes", "1", "2", "5", "--out", str(work / "sweep")]) == 0
    digest = hashlib.sha256()
    for path in sorted((work / "sweep").rglob("*")):
        if path.is_file() and path.name != "run_config.json":
            digest.update(path.relative_to(work).as_posix().encode() + path.read_bytes())
    digests["sweep"] = digest.hexdigest()
    return digests


# a child that imports this module from the directory named first on its command
# line, then prints `numeric_digests` of the work directory named second
DISPATCH_CHILD = """
import sys; sys.path.insert(0, sys.argv[1])
from pathlib import Path
from test_package import numeric_digests
print(repr(numeric_digests(Path(sys.argv[2]))))
"""


def test_numpy_simd_dispatch_changes_no_output(tmp_path, capsys):
    # numpy picks its SIMD kernels (for exp and log among them) when it is imported, and
    # two kernels can round one value apart; a child with every feature numpy dispatches
    # on turned off runs the baseline kernels. The names come from this numpy build, and
    # disabling one the host lacks is no error, so any host runs this
    try:
        umath = importlib.import_module("numpy._core._multiarray_umath")
    except ImportError:  # numpy 1.x
        umath = importlib.import_module("numpy.core._multiarray_umath")
    (tmp_path / "child").mkdir()
    (tmp_path / "parent").mkdir()
    child = subprocess.run(
        [sys.executable, "-c", DISPATCH_CHILD, str(ROOT / "tests"), str(tmp_path / "child")],
        env=dict(src_env(), NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__)),
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert ast.literal_eval(child.stdout.splitlines()[-1]) == numeric_digests(tmp_path / "parent")


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )


def sweep_rows(path: Path) -> list[list[str]]:
    header, *rows = csv.reader(io.StringIO(path.read_text()))
    assert header[:2] == ["size", "rouge-1_precision"]
    return rows


def test_consensus_scripts_run_end_to_end(tmp_path):
    data = tmp_path / "data"
    made = run_script("make_consensus_corpus.py", "--out", str(data), "--clusters", "3")
    assert made.returncode == 0, made.stderr
    assert len((data / "clusters.jsonl").read_text().splitlines()) == 3
    # the written config drives the CLI as it is
    assert main(["sweep", "--config", str(data / "decode_config.json"), "--sizes", "1", "2",
                 "--out", str(tmp_path / "via_config")]) == 0
    assert [row[0] for row in sweep_rows(tmp_path / "via_config" / "sweep.csv")] == ["1", "2"]

    run = tmp_path / "run"
    swept = run_script("run_consensus_sweep.py", "--out", str(run), "--clusters", "3",
                       "--sizes", "1", "2", "5")
    assert swept.returncode == 0, swept.stderr
    rows = sweep_rows(run / "sweep" / "sweep.csv")
    assert [row[0] for row in rows] == ["1", "2", "5"]
    # the same corpus and decode config: both sweeps agree on their shared sizes
    assert rows[:2] == sweep_rows(tmp_path / "via_config" / "sweep.csv")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def files_under(root: Path) -> dict[str, tuple[int, int]]:
    return {str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.rglob("*")}


def test_paired_timing_decodes_the_benchmarks_pool_clusters(tmp_path, monkeypatch):
    bench = load_script("bench_paired.py")
    for name, value in (("path", [*sys.path]), ("dont_write_bytecode", False)):
        monkeypatch.setattr(sys, name, value)  # restored when the test ends
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    before = files_under(ROOT / "perfbench")
    cases = bench.workload_cases(dyne, tmp_path / "script")
    assert files_under(ROOT / "perfbench") == before  # no bytecode, no work files
    workloads = sys.modules["workloads"]
    calls = []

    def beam_search(model, inputs, params):
        calls.append((model, len(model._rows), inputs, params))  # rows built before it
        return []

    monkeypatch.setattr(dyne, "beam_search", beam_search)
    built = {name: workloads.BUILDERS[name](0, tmp_path / name) for name in ("wide", "sweep")}
    wide, sweep = built["wide"], built["sweep"]
    expected_params = {"decode": wide.params, "decode_sweep": sweep.params,
                       "decode_prob": dataclasses.replace(wide.params,
                                                          reduce=dyne.Reduce.MEAN_PROB),
                       "decode_shift": wide.params}
    decodes = [name for name, (kind, *_) in bench.WORKLOADS.items() if kind == "decode"]
    assert decodes == list(expected_params)
    for name in decodes:
        _, benchmark, clusters = bench.WORKLOADS[name]
        wl = built[benchmark]
        calls.clear()
        bench.decode_slice(dyne, cases[name], budget_s=0.0)
        # perfbench/run.py's decode_round, written out: the first pool clusters
        # in order, each on a freshly loaded model
        model = dyne.load_model(wl.model_path)
        input_sets = [
            [dyne.tokenize_and_truncate(cluster.documents[j], model.vocab,
                                        workloads.MAX_INPUT_TOKENS)
             for j in dyne.select_document_indices(cluster, wl.sizes[-1], wl.params.seed)]
            for cluster in wl.pool[:clusters]
        ]
        assert 0 < clusters < len(wl.pool)
        assert [inputs for _, _, inputs, _ in calls] == input_sets
        assert all(params == expected_params[name] for *_, params in calls)
        assert len({id(model) for model, *_ in calls}) == len(calls)
        assert not any(built for _, built, _, _ in calls)
        assert all(m.vocab == model.vocab for m, *_ in calls)
        assert all(isinstance(m, dyne.CopyBigramModel) for m, *_ in calls)
        # the sweep spec is copy-only, so its rows read no prefix token
        assert {m.context for m, *_ in calls} == {
            {"decode_shift": None, "decode_sweep": 0}.get(name, 1)}
    assert files_under(ROOT / "perfbench") == before
    # decode_shift lowers input x's row by hash((prefix, x)) % 1024 / 1024, so the
    # inputs' order within a column changes and a search's stack rows go stale
    load, _, input_sets = cases["decode_shift"]
    plain, shift, prefix = dyne.load_model(wide.model_path), load(), (dyne.BOS_ID, 7, 9)
    offsets = [hash((prefix, tuple(x))) % 1024 / 1024 for x in input_sets[0]]
    assert shift.score_batch(input_sets[0], prefix).tobytes() == (
        plain.score_batch(input_sets[0], prefix) - np.array(offsets)[:, None]).tobytes()
    rows, combine = [], dyne.decoder._combine

    def spy(stack, reduce):
        rows.extend((stack[:, :-1] <= stack[:, 1:]).reshape(len(stack), -1).all(axis=1))
        return combine(stack, reduce)

    monkeypatch.setattr(dyne.decoder, "_combine", spy)
    dyne.decoder.beam_search(load(), input_sets[0], wide.params)
    assert sum(not fits for fits in rows) > len(rows) / 2


def test_paired_timing_names_a_worker_that_died(tmp_path, monkeypatch):
    bench = load_script("bench_paired.py")
    monkeypatch.setattr(bench, "WORK", tmp_path)
    for side in bench.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "src").symlink_to(ROOT / "src")
    with bench.Workers() as workers:
        # an unknown name kills the worker; the run once failed with
        # "ValueError: not enough values to unpack" on the empty reply
        with pytest.raises(RuntimeError, match="the base worker died on the request 'nope'"):
            workers.ask("base", "nope")
        with pytest.raises(RuntimeError, match="the base worker died on the request 'wide'"):
            workers.ask("base", "wide")


def test_paired_timing_reports_the_per_pair_ratios():
    bench = load_script("bench_paired.py")
    entry = bench.compare([2.0, 4.0, 4.0, 8.0], [1.0, 4.0, 5.0, 4.0], "s")
    assert (entry["base"]["median"], entry["tree"]["median"]) == (4.0, 4.0)
    assert entry["ratio"] == {"median": 0.75, "q1": 0.5, "q3": 1.1875,
                              "values": [0.5, 1.0, 1.25, 0.5]}
    assert entry["pairs_won"] == {"tree": 2, "base": 1}  # the tie counts for neither
    assert bench.report_line("decode", "decode_s", entry) == (
        "decode decode_s: base 4000 ms, tree 4000 ms, tree/base per pair 0.7500 "
        "(q1-q3 0.5000-1.1875), tree won 2/4 pairs")
    # no ratio when a base value is 0
    entry = bench.compare([0.0, 1.0], [0.0, 0.0], "MB")
    assert entry["ratio"] is None
    assert bench.report_line("peak_wide", "peak_mb", entry) == (
        "peak_wide peak_mb: base 0.5 MB, tree 0 MB, tree won 1/2 pairs")


def test_paired_timing_counts_each_sides_lines_per_file(tmp_path):
    bench = load_script("bench_paired.py")
    (tmp_path / "dyne").mkdir()
    (tmp_path / "dyne" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "dyne" / "b.py").write_text("z = 3")  # no final newline
    (tmp_path / "dyne" / "notes.txt").write_text("not code\n")
    assert bench.src_file_lines(tmp_path) == {"a.py": 3, "b.py": 1}
    file_lines = {"base": {"a.py": 3, "b.py": 5}, "tree": {"a.py": 4, "c.py": 2}}
    assert bench.lines_report(file_lines) == [
        "src/dyne lines: base 8, tree 6 (-2)",
        "  a.py lines: base 3, tree 4 (+1)",
        "  b.py lines: base 5, tree 0 (-5)",
        "  c.py lines: base 0, tree 2 (+2)",
    ]
    counts = bench.src_file_lines(ROOT / "src")
    assert set(counts) == {path.name for path in (ROOT / "src" / "dyne").glob("*.py")}
    assert bench.lines_report({"base": counts, "tree": counts})[0] == (
        f"src/dyne lines: base {sum(counts.values())}, tree {sum(counts.values())} (+0)")


def test_paired_peak_child_reports_its_peak_and_removes_its_output(tmp_path, monkeypatch):
    bench = load_script("bench_paired.py")
    for name, value in (("path", [*sys.path]), ("dont_write_bytecode", False)):
        monkeypatch.setattr(sys, name, value)  # restored when the test ends
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    cases = bench.workload_cases(dyne, tmp_path)
    for name in ("peak_wide", "peak_sweep"):
        (peak_mb, count), sha = bench.peak_slice(dyne, cases[name], 0.0)
        assert peak_mb > 10 and count == 1 and re.fullmatch("[0-9a-f]{64}", sha)
        assert not (tmp_path / bench.WORKLOADS[name][1] / "out_peak").exists()


def test_mutation_run_on_a_tiny_module(tmp_path, monkeypatch, capsys):
    mutate = load_script("mutate.py")
    monkeypatch.setattr(sys, "path", [*sys.path])  # restored when the test ends
    (tmp_path / "pyproject.toml").write_text('[tool.pytest.ini_options]\npythonpath = ["src"]\n')
    source = ("def below(a, b):\n    return a < b\n\n\ndef total(a, b):\n    return a + b * 1\n"
              "\n\ndef countdown(n):\n    while n:\n        n = n - 1\n    return n\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tiny.py").write_text(source)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tiny.py").write_text(
        "import os\n\nfrom tiny import below, countdown, total\n\n\n"
        "def test_below():\n    assert below(1, 2)\n\n\n"  # 1 <= 2 too: `<=` survives
        "def test_total():\n    assert total(2, 1) == 3\n\n\n"
        "def test_countdown():\n    assert countdown(3) == 0\n\n\n"  # n + 1 never ends
        "def test_no_plugins_autoloaded():\n"  # in the children's environment alone
        "    assert os.environ['PYTEST_DISABLE_PLUGIN_AUTOLOAD'] == '1'\n")
    autoload = os.environ.get("PYTEST_DISABLE_PLUGIN_AUTOLOAD")
    assert mutate.mutants(source) == [(2, 13, "<", "<="), (6, 13, "+", "-"), (6, 17, "*", "/"),
                                      (11, 14, "-", "+")]
    # an f-string's operator formats a message, and 3.11 gives it no token
    assert mutate.mutants('m = f"{a + b:>{w - 1}}"\nok = a < b\n') == [(2, 7, "<", "<=")]
    for module in (ROOT / "src" / "dyne").glob("*.py"):  # each mutant flips its own operator
        text = module.read_text(encoding="utf-8")
        assert all(mutate.apply(text, *m) != text for m in mutate.mutants(text)), module.name
    monkeypatch.setattr(mutate, "TEST_FLOOR_S", 1.0)  # the hung test's limit
    assert mutate.main([str(tmp_path / "src" / "tiny.py"), "tests/test_tiny.py"]) == 0
    result = json.loads((tmp_path / "MUTATION_tiny.json").read_text())
    assert [(r["line"], r["operator"], r["killed_by"]) for r in result["results"]] == [
        (2, "< -> <=", "survived"), (6, "+ -> -", "tests/test_tiny.py::test_total"),
        (6, "* -> /", "survived"),  # b / 1 == b * 1
        (11, "- -> +", "timeout")]
    assert result["results"][-1]["seconds"] < 30  # the test's limit ended it, not the run's
    assert (result["mutants"], result["killed"], result["survived"]) == (4, 2, 2)
    assert result["module_sha256"] == hashlib.sha256(source.encode()).hexdigest()
    # the run mutated only its copy, which it removed
    assert (tmp_path / "src" / "tiny.py").read_text() == source
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "MUTATION_tiny.json", "pyproject.toml", "src", "tests"]
    assert "2/4 killed" in capsys.readouterr().out
    assert os.environ.get("PYTEST_DISABLE_PLUGIN_AUTOLOAD") == autoload
