"""Package-level checks: the public export list and the bundled scripts."""

from __future__ import annotations

import ast
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import dyne
from dyne.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in dyne.__all__ if not hasattr(dyne, name)]
    assert missing == []
    assert len(set(dyne.__all__)) == len(dyne.__all__)


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


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
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
