"""Package-level checks: the public export list and the bundled scripts."""

from __future__ import annotations

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
