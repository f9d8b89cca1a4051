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
