#!/usr/bin/env python3
"""dyne benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload wide|sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: dyne is imported from ``src/`` there and
nowhere else. The run writes its seeded inputs under ``.perfbench_work/``
(see ``workloads.py``) and drives dyne the way its users do:

* batch users run the workload's ``dyne decode`` or ``dyne sweep``
  command, called in-process through ``dyne.cli.main``
  (``clusters_per_s``);
* library and ``dyne trace`` users call ``beam_search`` on one cluster's
  inputs, selected and tokenized before the timer starts
  (``decode_p50_ms``);
* both first pay ``load_model`` plus ``load_clusters`` (``setup_s``).

These three alternate for ``--seconds``, with bursts of a fixed probe
between them that read the shared host's speed; the gated timings are
medians scaled by that speed (``HostClock``). One more run of the
command, in a fresh child process, gives ``peak_rss_mb`` and the
artifacts the output checks read (``checks.py``); ``rouge1_f`` is scored
on those summaries.

With ``--trace 1``, untraced and traced commands alternate instead; the
traced ones run under span wrappers (``tracing.py``) and the result holds
the per-layer metrics and the tracing overhead.

The last line of standard output is the JSON result. Without ``src/dyne``
the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
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
WORK = Path(".perfbench_work")
MIN_COMMANDS = 3
MIN_DECODES = 11  # rounds, each of one call or more; the tail needs ten beyond it
ROUND_S = 0.25  # beam_search calls alternate with commands in rounds this long
SETUPS_PER_ROUND = 3
SPEED_BURSTS = 3  # speed probes per calibration step
REFERENCE_PROBE_S = 0.005  # about the probe's median time on a 2-vCPU Xeon VM
SPEED_ARRAY = np.linspace(0.1, 1.0, 243)

END_TO_END_UNITS = {
    "clusters_per_s": "1/s",
    "decode_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "rouge1_f": "ratio",
}


def import_dyne():
    src = ROOT / "src"
    if not (src / "dyne" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'dyne'} not found; run from a dyne checkout")
    sys.path.insert(0, str(src))
    import dyne
    import dyne.cli  # noqa: F401 - the CLI is driven in-process

    if Path(dyne.__file__).resolve().parent != src / "dyne":
        sys.exit(f"error: imported dyne from {dyne.__file__}, not from {src}")
    return dyne


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _alternate(seconds: float, steps: list[tuple[int, object]]) -> list[list]:
    """Call each ``(min_calls, fn)`` step in turn, round after round.

    Rounds go on until ``seconds`` have passed and every step has been
    called ``min_calls`` times; a round that would overrun the time left
    runs only the steps still short of their minimum. Returns each step's
    results.
    """
    results: list[list] = [[] for _ in steps]
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while True:
        t0 = time.perf_counter()
        in_time = t0 + last_round <= deadline
        due = [i for i, (least, _) in enumerate(steps) if in_time or len(results[i]) < least]
        if not due:
            return results
        for i in due:
            results[i].append(steps[i][1]())
        last_round = time.perf_counter() - t0


def _speed_probe() -> float:
    """Wall time of fixed work that runs no dyne code.

    The work is of the three kinds a decode does, in about equal parts:
    interpreter arithmetic, allocation of small objects, and numpy calls
    on short vectors. The host's drift slows each kind by a different
    share, so one kind alone would follow dyne less closely.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(2):
        rows = [(i, float(i), (i,)) for i in range(2_500)]
        index = {row[0]: row for row in rows}
    del rows, index
    x = SPEED_ARRAY
    for _ in range(150):
        y = np.log(x + 1e-3)
        x = np.exp(y - y.max())
        x.argsort()
    return time.perf_counter() - t0


class HostClock:
    """Wall times scaled to a host of fixed speed.

    The benchmark shares a host whose speed drifts by up to 2x over
    seconds to minutes, so the raw medians of whole runs spread by 0.2 or
    more. ``calibrate`` times a fixed probe in bursts between the samples,
    which reads the host's speed at that moment. ``scaled`` multiplies
    each sample by ``REFERENCE_PROBE_S`` over the median of the probes
    nearest to it, up to three before and three after. A change to dyne
    moves the samples and not the probe, so it shows in full.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def calibrate(self) -> None:
        for _ in range(SPEED_BURSTS):
            self.at.append(time.perf_counter())
            self.probe_s.append(_speed_probe())

    def scaled(self, samples: list[tuple[float, float]]) -> list[float]:
        """``(start, wall)`` samples as wall times at the reference speed."""
        out = []
        for start, wall in samples:
            i = bisect.bisect(self.at, start)
            near = self.probe_s[max(i - SPEED_BURSTS, 0) : i + SPEED_BURSTS]
            out.append(wall * REFERENCE_PROBE_S / statistics.median(near))
        return out


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    pct = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return pct, ordered[k]


def _plain_call(main, argv):
    return main(argv)


class Bench:
    def __init__(self, dyne, workload: str, seed: int, seconds: float):
        import checks
        import workloads

        self.dyne = dyne
        self.checks = checks
        self.seconds = seconds
        self.seed = seed
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.wl = workloads.BUILDERS[workload](seed, self.work)
        self.result = checks.CheckResult()
        self.reference_hashes: dict[str, str] = {}
        self.rouge1_f = 0.0
        self.pool_calls = 0
        # The generated inputs live as long as the run: keep the garbage
        # collector from scanning them during timed calls.
        gc.collect()
        gc.freeze()

    def reference_run(self) -> float:
        """Run the command once in a fresh child process and check what it
        wrote. Returns the child's peak resident memory in MB.

        The child reports its own ``VmHWM``: the parent's memory at the
        fork would otherwise count towards the child's ``ru_maxrss``.
        """
        out = self.work / "out_reference"
        code = (
            "import sys; sys.path.insert(0, 'src'); from dyne.cli import main; "
            "status = main(sys.argv[1:]); "
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
            "print('VmHWM_kB=' + hwm[0].split()[1]); sys.exit(status)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *self.wl.cli_argv(out.as_posix())],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"reference run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        hwm = [ln for ln in proc.stdout.splitlines() if ln.startswith("VmHWM_kB=")]
        self.result.record(bool(hwm), "the reference run reported no peak memory")
        peak_mb = int(hwm[-1].split("=")[1]) / 1024.0 if hwm else 0.0
        summaries = self._count_decodes(out)
        self.checks.check_invariants(self.wl, summaries, self.result)
        self.reference_hashes = self.checks.artifact_hashes(out)
        if self.seed == self.checks.PINNED_SEED:
            self.checks.check_pinned(self.wl, self.reference_hashes, self.result)
        compute_metric = self.dyne.rouge.compute_metric
        scores = [
            compute_metric(
                "rouge-1", rec["text"], list(self.wl.clusters.get(rec["id"]).references),
                self.wl.rouge,
            ).f
            for _, _, rec in summaries
        ]
        self.rouge1_f = statistics.fmean(scores) if scores else 0.0
        return peak_mb

    def _count_decodes(self, out: Path) -> list:
        summaries = self.checks.read_summaries(self.wl, out)
        missing = self.wl.units - len(summaries)
        self.result.attempted += self.wl.units
        self.result.failed += missing
        if missing:
            self.result.messages.append(f"{missing} cluster decode(s) failed")
        return summaries

    def cli_once(self, call=_plain_call) -> tuple[float, float]:
        """One in-process command; returns its start and wall time in seconds.

        ``call(main, argv)`` runs the command, so that a traced run can
        wrap it in a span. The timer covers only that call.
        """
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = self.wl.cli_argv(out.as_posix())
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            call(self.dyne.cli.main, argv)
            wall = time.perf_counter() - t0
        self._count_decodes(out)
        self.result.record(
            self.checks.artifact_hashes(out) == self.reference_hashes,
            "in-process artifacts differ from the reference run's",
        )
        return t0, wall

    def setup_round(self) -> list[tuple[float, float]]:
        """``load_model`` plus ``load_clusters`` on the workload's files,
        timed SETUPS_PER_ROUND times."""
        samples = []
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            t0 = time.perf_counter()
            self.dyne.load_model(self.wl.model_path)
            self.dyne.load_clusters(self.wl.clusters_path)
            samples.append((t0, time.perf_counter() - t0))
        return samples

    def decode_round(self) -> list[tuple[float, float]]:
        """Time ``beam_search`` on fresh pool clusters for at least ROUND_S.

        Each call gets a freshly loaded model, as a ``dyne trace`` user
        does, so model caches do not grow over the run. The sweep workload
        decodes its pool at its largest ensemble size.
        """
        from workloads import MAX_INPUT_TOKENS

        dyne = self.dyne
        pool = self.wl.pool
        samples: list[tuple[float, float]] = []
        while sum(wall for _, wall in samples) < ROUND_S:
            cluster = pool[self.pool_calls % len(pool)]
            self.pool_calls += 1
            model = dyne.load_model(self.wl.model_path)
            inputs = [
                dyne.tokenize_and_truncate(cluster.documents[j], model.vocab, MAX_INPUT_TOKENS)
                for j in dyne.select_document_indices(
                    cluster, self.wl.sizes[-1], self.wl.params.seed
                )
            ]
            gc.collect()
            self.result.attempted += 1
            t0 = time.perf_counter()
            try:
                dyne.beam_search(model, inputs, self.wl.params)
            except dyne.DecodeError as exc:
                self.result.failed += 1
                self.result.messages.append(f"beam_search on {cluster.id}: {exc}")
            samples.append((t0, time.perf_counter() - t0))
        return samples


def run_end_to_end(bench: Bench) -> dict[str, float]:
    """The gated metrics: medians of the samples, scaled by ``HostClock``.

    The raw medians and the tail are printed beside them.
    """
    peak_mb = bench.reference_run()
    clock = HostClock()
    _, setup_rounds, walls, _, rounds = _alternate(
        bench.seconds,
        [(1, clock.calibrate), (1, bench.setup_round), (MIN_COMMANDS, bench.cli_once),
         (1, clock.calibrate), (MIN_DECODES, bench.decode_round)],
    )
    setups = [x for r in setup_rounds for x in r]
    calls = [x for r in rounds for x in r]
    units = bench.wl.units
    scaled_calls = clock.scaled(calls)
    pct, tail = _tail(scaled_calls)
    if bench.pool_calls > len(bench.wl.pool):
        print(f"note: the latency pool of {len(bench.wl.pool)} clusters was reused")
    print(
        f"speed probe: median {1000.0 * statistics.median(clock.probe_s):.6g} ms of "
        f"{len(clock.probe_s)}; reference {1000.0 * REFERENCE_PROBE_S:.6g} ms"
    )
    print(f"commands: {len(walls)}, each of {units} cluster decodes")
    print(f"unscaled clusters_per_s = {units / statistics.median(w for _, w in walls):.6g} 1/s")
    print(f"beam_search calls: {len(calls)}")
    print(f"unscaled decode_p50_ms = {1000.0 * statistics.median(w for _, w in calls):.6g} ms")
    print(f"decode_tail_ms = {1000.0 * tail:.6g} ms (p{pct:.1f} of n={len(calls)}, scaled)")
    return {
        "clusters_per_s": units / statistics.median(clock.scaled(walls)),
        "decode_p50_ms": 1000.0 * statistics.median(scaled_calls),
        "setup_s": statistics.median(clock.scaled(setups)),
        "peak_rss_mb": peak_mb,
        "ok_share": 1.0 - bench.result.failed / bench.result.attempted,
        "rouge1_f": bench.rouge1_f,
    }


def run_traced(bench: Bench) -> dict[str, float]:
    import tracing

    bench.reference_run()
    rec = tracing.Recorder()
    per_command: list[dict] = []

    def traced_once() -> float:
        first, hypotheses = len(rec.names), rec.hypotheses
        rec.install()
        try:
            _, wall = bench.cli_once(lambda main, argv: rec.call("cli", main, (argv,), {}))
        finally:
            rec.uninstall()
        m = tracing.layer_metrics(rec, first, rec.hypotheses - hypotheses)
        out = bench.work / "out"
        m["cli.files_written"], m["cli.bytes_written"] = bench.checks.output_bytes(out)
        m["cli.clusters_attempted"] = bench.wl.units
        m["cli.clusters_failed"] = bench.wl.units - len(bench.checks.read_summaries(bench.wl, out))
        per_command.append(m)
        return wall

    untraced, traced = _alternate(
        bench.seconds, [(1, lambda: bench.cli_once()[1]), (2, traced_once)]
    )
    for name in sorted(rec.missing):
        print(f"note: {name} not found; its spans and counts read 0")
    print(
        "note: one process and one worker, so no module waits on another; "
        "no wait times are reported"
    )
    for key in tracing.COUNTS:
        values = {m[key] for m in per_command}
        if len(values) != 1:
            print(f"warning: {key} differs between traced commands: {sorted(values)}")
    # Times come from one traced command, the median one, so that they add
    # up to its wall time. Traced and untraced commands alternate, so the
    # host's drift falls on both sides of the overhead ratio alike.
    traced_s, untraced_s = statistics.median_low(traced), statistics.median_low(untraced)
    metrics = dict(per_command[traced.index(traced_s)])
    metrics["trace.untraced_clusters_per_s"] = bench.wl.units / untraced_s
    metrics["trace.traced_clusters_per_s"] = bench.wl.units / traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    print(
        f"seqmodel.rescore_rows_share is {metrics['seqmodel.rescore_rows']} rescore rows "
        f"of {metrics['seqmodel.rows']} rows scored; "
        f"{len(traced)} traced and {len(untraced)} untraced commands"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["wide", "sweep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    dyne = import_dyne()
    os.chdir(ROOT)
    print("env: " + json.dumps(_environment(), sort_keys=True))
    bench = Bench(dyne, args.workload, args.seed, args.seconds)
    if args.trace:
        import tracing

        values, units = run_traced(bench), tracing.LAYER_UNITS
    else:
        values, units = run_end_to_end(bench), END_TO_END_UNITS
    shutil.rmtree(bench.work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()

    res = bench.result
    for msg in res.messages:
        print(f"check failed: {msg}")
    print(f"failed_share = {res.failed}/{res.attempted} = {res.failed / res.attempted:.6g}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": res.failed == 0,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
