#!/usr/bin/env python3
"""Mutation testing of one module against chosen test files.

    python3 scripts/mutate.py MODULE TEST [TEST ...]

    e.g. python3 scripts/mutate.py src/dyne/decoder.py tests/test_decoder.py \\
             tests/test_acceptance.py

Each mutant changes one operator of ``MODULE``, found with ``ast``:

* each comparison flips between its strict and non-strict form (``<`` and
  ``<=``, ``>`` and ``>=``) or between ``==`` and ``!=``;
* each binary ``+`` and ``-`` swap, as do ``*`` and ``/``.

An operator inside an f-string's replacement field is left alone: it only
formats a message, and Python 3.11's tokenizer gives it no token of its own.

The project that holds ``MODULE`` (the nearest directory up from it with a
``pyproject.toml``) is copied whole into ``.mutate_work/`` at its root, which
the run removes when it ends: the tests run in the copy, never in the working
tree, since ``pytest``'s ``pythonpath`` setting would import the unmutated
``src/`` ahead of any ``PYTHONPATH``. The tests first run on the unmutated
copy, and must pass. Then, one mutant at a time, the copy's module is
rewritten with the mutant and the tests run with ``-x``, no bytecode (a
mutant can keep its file's size and mtime second, which a ``.pyc`` check
would miss) and no plugin autoloading, which would take most of a small
run's time. A mutant is killed by the first test that fails, by an error
that stops the run, or by a timeout, and survives when every test passes.
A timeout is a test that runs ten times as long as it did in the unmutated
run (at least `TEST_FLOOR_S`), which ``scripts/mutate_timer.py`` stops, or a
whole run ten times as long as the unmutated one (at least 60 s), which
stops a hang outside any test.

The result, ``MUTATION_<module>.json`` at the project's root, holds each
mutant's line, column, operator and source line, what killed it (a test id,
``error`` or ``timeout``) or ``survived``, and its time; with the command,
the commit and the SHA-256 of the module it mutated. A survivor must be
killed by a new test or shown equivalent; the file records the run alone, so
an equivalent survivor's reason goes where the run is quoted.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import os
import platform
import re
import shutil
import subprocess
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]  # this checkout, whose ``dyne`` writes the result
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*"}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
WORK = ".mutate_work"
TIMER = "mutate_timer"  # the pytest plugin, beside this script, that limits each test's time
TEST_FLOOR_S = 2.0  # the least time a mutant's test gets, however fast it ran unmutated
DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(.+)$", re.M)  # --durations
COPY_IGNORE = shutil.ignore_patterns(".git", WORK, ".bench_work", ".perfbench_work",
                                     "__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")


def mutants(source: str) -> list[tuple[int, int, str, str]]:
    """``(line, column, operator, flipped)`` for each operator `FLIPS` maps, in
    source order; line counts from 1 and column from 0, in characters."""
    spans = []  # (left operand, right operand, operator symbol)
    tree = ast.parse(source)
    formatted = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for inner in ast.walk(node)}  # what f-strings hold
    for node in ast.walk(tree):
        if id(node) in formatted:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SYMBOLS:
            spans.append((node.left, node.right, SYMBOLS[type(node.op)]))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spans += [(a, b, SYMBOLS[type(op)]) for a, b, op
                      in zip(operands, operands[1:], node.ops) if type(op) in SYMBOLS]
    lines = source.splitlines(keepends=True)

    def chars(line: int, byte_col: int) -> tuple[int, int]:  # ast counts UTF-8 bytes
        return line, len(lines[line - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    ops = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP and tok.string in FLIPS]
    found = set()
    for left, right, symbol in spans:
        after = chars(left.end_lineno, left.end_col_offset)
        before = chars(right.lineno, right.col_offset)
        tok = next(t for t in ops if t.string == symbol and after <= t.start and t.end <= before)
        found.add((*tok.start, symbol, FLIPS[symbol]))
    return sorted(found)


def apply(source: str, line: int, col: int, symbol: str, flipped: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(symbol)] == symbol, (line, col, symbol)
    lines[line - 1] = text[:col] + flipped + text[col + len(symbol):]
    return "".join(lines)


def project_root(module: Path) -> Path:
    for parent in module.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    raise SystemExit(f"error: no pyproject.toml above {module}")


def run_tests(copy: Path, tests: list[str], limits: Path | None,
              timeout: float | None) -> tuple[str, float, str]:
    """``passed``, the id of the first failing test, ``error`` or ``timeout``; the
    seconds the run took; and its output. ``limits`` names the JSON file of each test's
    time limit, which `TIMER` enforces; a run without it reports every test's duration."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MUTATE_LIMITS")}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
    if limits is None:
        command += ["--durations=0", "--durations-min=0"]
    else:
        env.update(PYTHONPATH=str(Path(__file__).resolve().parent), MUTATE_LIMITS=str(limits))
        command += ["-p", TIMER]
    start = time.perf_counter()
    try:
        done = subprocess.run([*command, *tests], cwd=copy, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "passed", seconds, done.stdout
    if re.search(r"^Timeout \(", done.stderr, re.M):  # faulthandler's banner
        return "timeout", seconds, done.stdout
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return (failed[0] if done.returncode == 1 and failed else "error"), seconds, done.stdout


def per_test_limits(output: str) -> dict[str, float]:
    """Each test's time limit in a mutant's run, from the unmutated run's durations: ten
    times its setup, call and teardown together, and at least `TEST_FLOOR_S`."""
    seconds: dict[str, float] = {}
    for duration, nodeid in DURATION.findall(output):
        seconds[nodeid] = seconds.get(nodeid, 0.0) + float(duration)
    return {nodeid: max(TEST_FLOOR_S, 10 * s) for nodeid, s in seconds.items()}


def git(root: Path, *args: str) -> str | None:
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="the Python file to mutate")
    parser.add_argument("tests", nargs="+", help="test files, relative to the project root")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from dyne.errors import json_text, write_output

    module = args.module.resolve()
    root = project_root(module)
    source = module.read_text(encoding="utf-8")
    found = mutants(source)
    work = root / WORK
    if work.exists():
        raise SystemExit(f"error: {work} exists; remove it or wait for the run that made it")
    copy = work / root.name
    started = time.time()
    try:
        shutil.copytree(root, copy, ignore=COPY_IGNORE)
        target = copy / module.relative_to(root)
        outcome, base_s, output = run_tests(copy, args.tests, None, None)
        if outcome != "passed":
            raise SystemExit(f"error: the unmutated tests do not pass ({outcome})")
        limits = work / "limits.json"  # outside the copy, which the tests see
        write_output(limits, json_text(per_test_limits(output)))
        print(f"unmutated tests pass in {base_s:.1f} s; {len(found)} mutants", flush=True)
        results = []
        for i, (line, col, symbol, flipped) in enumerate(found, 1):
            write_output(target, apply(source, line, col, symbol, flipped))
            outcome, seconds, _ = run_tests(copy, args.tests, limits, max(60.0, 10 * base_s))
            killed_by = "survived" if outcome == "passed" else outcome
            results.append({"line": line, "col": col, "operator": f"{symbol} -> {flipped}",
                            "source": source.splitlines()[line - 1].strip(),
                            "killed_by": killed_by, "seconds": round(seconds, 2)})
            print(f"[{i}/{len(found)}] {module.name}:{line}:{col} {symbol} -> {flipped}: "
                  f"{killed_by} ({seconds:.1f} s)", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    survivors = [r for r in results if r["killed_by"] == "survived"]
    command = ["python3", "scripts/mutate.py", *(sys.argv[1:] if argv is None else argv)]
    result = {
        "command": " ".join(command),
        "module": str(module.relative_to(root)),
        "module_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "head": git(root, "rev-parse", "HEAD"),
        "tests": args.tests,
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "machine": platform.machine()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "seconds": round(time.time() - started, 1),
        "unmutated_seconds": round(base_s, 2),
        "mutants": len(results),
        "killed": len(results) - len(survivors),
        "survived": len(survivors),
        "results": results,
    }
    out = root / f"MUTATION_{module.stem}.json"
    write_output(out, json_text(result))
    print(f"{result['killed']}/{len(results)} killed; wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
