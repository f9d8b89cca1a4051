"""Command-line front end for reproducible ensemble-decoding runs.

Commands:

* ``decode``   - decode every cluster in a file, writing one summary record
                 per cluster plus a per-cluster provenance trace.
* ``evaluate`` - score a decode's hypotheses against cluster references.
* ``sweep``    - decode + evaluate across several ensemble sizes.
* ``trace``    - decode a single cluster and emit its contribution matrix.

Each command is declared once, by ``command()`` in `build_parser`, with the
flags its run requires and the flags it writes to. Every command accepts
``--config FILE`` (a JSON object of flags by dest name); explicit flags override
file values, and a required flag may come from either. Given the same config and
seed, all output artifacts are byte-identical across runs.

``decode`` and ``sweep`` record every setting (all flags but ``--config`` and
those they write to, keyed as ``--config`` reads them) in one ``run_config.json``,
so ``--config run_config.json --out DIR`` replays the run. A sweep has no
``--max-docs``: each size decodes with max_docs = size.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import re
import shutil
import sys
from collections.abc import Iterator
from pathlib import Path

from .data import Cluster, ClusterSet, load_clusters, select_document_indices, tokenize_and_truncate
from .decoder import DecodeParams, Reduce, beam_search, check_beam_memory
from .errors import (DecodeError, FormatError, csv_text, input_records, json_text, jsonl_text,
                     parse_object, read_input, write_output)
from .rouge import (
    DEFAULT_METRICS, MultiRefStrategy, RougeConfig, mean_score, parse_metric, score_tokens,
    tokenize, tokenize_references,
)
from .seqmodel import SequenceModel, load_model


_UNSAFE_ID = re.compile(r"[^0-9A-Za-z_.-]+")


def _trace_filename(index: int, cluster_id: str, fmt: str) -> str:
    safe = _UNSAFE_ID.sub("_", cluster_id)[:40] or "cluster"
    return f"{index:04d}_{safe}.{fmt}"


@contextlib.contextmanager
def _out_dir(path: str, settings: dict) -> Iterator[Path]:
    """``--out``, new or an empty directory. A run that succeeds ends by writing ``settings``
    to ``run_config.json``; any exception removes what it wrote, new parents included."""
    out = Path(path)
    existed = out.exists()
    if existed and not (out.is_dir() and not any(out.iterdir())):
        raise ValueError(f"--out {path} already exists and is not an empty directory")
    new_parents = [p for p in out.parents if not p.exists()]  # nearest first
    try:
        yield out
        write_output(out / "run_config.json", json_text(settings))
    except BaseException:
        with contextlib.suppress(OSError):  # the run's own exception is the one to see
            for made in (out.iterdir() if existed else [out]):
                shutil.rmtree(made) if made.is_dir() else made.unlink(missing_ok=True)
            for parent in new_parents:  # rmdir keeps one that another run has written in
                parent.rmdir()
        raise


def _rouge_setup(args) -> tuple[RougeConfig, tuple[str, ...]]:
    """The ROUGE config and metric names, checked before anything is loaded."""
    for metric in args.metrics:
        parse_metric(metric)
    cfg = RougeConfig(
        lowercase=args.rouge_lowercase,
        strip_punctuation=args.rouge_strip_punctuation,
        use_porter_stemming=args.rouge_stemming,
        multi_ref_strategy=MultiRefStrategy(args.multi_ref),
        beta=args.beta,
    )
    return cfg, tuple(args.metrics)


def _load_run(args, max_docs: int) -> tuple[DecodeParams, SequenceModel, ClusterSet]:
    """The decode settings, checked with the run sizes before anything is loaded, then
    the model and the clusters (only the one ``--cluster-id`` names, if given). A beam too
    wide for the largest ensemble of up to ``max_docs`` documents is refused at once."""
    for name in ("max_docs", "max_input_tokens", "sizes"):
        value = getattr(args, name, None)
        if value is not None and min(value if isinstance(value, list) else [value]) < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    params = DecodeParams(
        beam_size=args.beam_size, max_len=args.max_len, min_len=args.min_len,
        reduce=Reduce(args.reduce), length_penalty_alpha=args.length_penalty,
        block_repeat_ngram=args.block_repeat_ngram, seed=args.seed,
    )
    model = load_model(args.model)
    clusters = load_clusters(args.clusters)
    if getattr(args, "cluster_id", None) is not None:
        clusters = ClusterSet([c for c in clusters if c.id == args.cluster_id])
        if not clusters:
            raise ValueError(f"no cluster with id {args.cluster_id!r}")
    largest = min(max_docs, max((len(c.documents) for c in clusters), default=0))
    check_beam_memory(params, len(model.vocab), largest)
    return params, model, clusters


def _decode_cluster(model: SequenceModel, cluster: Cluster, args, params: DecodeParams,
                    max_docs: int):
    """Decode one cluster; returns (summary record, provenance trace)."""
    vocab = model.vocab
    indices = select_document_indices(cluster, max_docs, params.seed)
    inputs = []
    for i in indices:
        ids = tokenize_and_truncate(cluster.documents[i], vocab, args.max_input_tokens)
        if not ids:
            raise ValueError(f"document {i} tokenizes to nothing")
        inputs.append(ids)
    labels = tuple(f"doc{i}" for i in indices)
    best = beam_search(model, inputs, params, input_labels=labels)[0]
    content = [row.token for row in best.trace.rows[:-1]]
    record = {
        "id": cluster.id,
        "tokens": content,
        "text": " ".join(content),
        "raw_score": best.raw_score,
        "ranked_score": best.ranked_score,
        "num_inputs": len(inputs),
    }
    return record, best.trace


def _decode_run(model: SequenceModel, clusters: ClusterSet, args, params: DecodeParams,
                max_docs: int, out_dir: Path) -> tuple[list[dict], list[tuple[str, str]]]:
    """Decode all clusters into ``out_dir``, one after another in input order.

    Returns the summary records written and the (id, error) pairs of the
    clusters that failed: a ValueError or DecodeError fails its cluster and
    not the run, while any other exception is a defect and stops the run.
    """
    records: list[dict] = []
    failures: list[tuple[str, str]] = []
    for index, cluster in enumerate(clusters):
        try:
            record, trace = _decode_cluster(model, cluster, args, params, max_docs)
            trace_text = trace.export(args.trace_format)
        except (ValueError, DecodeError) as exc:
            failures.append((cluster.id, f"{type(exc).__name__}: {exc}"))
            continue
        records.append(record)
        name = _trace_filename(index, cluster.id, args.trace_format)
        write_output(out_dir / "traces" / name, trace_text)
    write_output(out_dir / "summaries.jsonl", jsonl_text(records))
    return records, failures


def _report_failures(failures: list[tuple[str, str]]) -> None:
    for cid, err in failures:
        print(f"cluster {cid}: {err}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} cluster(s) failed", file=sys.stderr)


def cmd_decode(args, settings: dict) -> int:
    with _out_dir(args.out, settings) as out_dir:
        params, model, clusters = _load_run(args, args.max_docs)
        _, failures = _decode_run(model, clusters, args, params, args.max_docs, out_dir)
    print(f"decoded {len(clusters) - len(failures)}/{len(clusters)} clusters -> {args.out}")
    _report_failures(failures)
    return 1 if failures else 0


def _load_hypotheses(path: Path) -> list[dict]:
    records = []
    for where, rec in input_records(path, "hypotheses file", "hypothesis id", required=("text",)):
        if not isinstance(rec["text"], str):
            raise FormatError(f"{where}: field 'text' must be a string")
        records.append(rec)
    if not records:
        raise FormatError(f"{path}: holds no records")
    return records


def _reference_tokens(clusters: ClusterSet, ids: list[str],
                      cfg: RougeConfig) -> dict[str, list[list[str]]]:
    """The references of each named cluster, tokenized under ``cfg``; checked
    before anything is decoded or scored."""
    missing = [cid for cid in ids if clusters.get(cid) is None]
    if missing:
        raise ValueError(f"hypothesis ids not present in cluster file: {', '.join(missing)}")
    unreferenced = [cid for cid in ids if not clusters.get(cid).references]
    if unreferenced:
        raise ValueError(
            f"clusters without references cannot be evaluated: {', '.join(unreferenced)}"
        )
    ref_tokens = {}
    for cid in ids:
        try:
            ref_tokens[cid] = tokenize_references(list(clusters.get(cid).references), cfg)
        except ValueError as exc:
            raise ValueError(f"cluster {cid}: {exc}") from exc
    return ref_tokens


def _evaluate_records(records: list[dict], cfg: RougeConfig, metrics: tuple[str, ...],
                      ref_tokens: dict[str, list[list[str]]]) -> dict:
    """Score every record against ``ref_tokens`` (see `_reference_tokens`)."""
    per_cluster = []
    scores: dict[str, list] = {metric: [] for metric in metrics}
    for rec in records:
        cid = rec["id"]
        hyp_tokens = tokenize(rec["text"], cfg)
        row: dict = {"id": cid}
        for metric in metrics:
            s = score_tokens(metric, hyp_tokens, ref_tokens[cid], cfg)
            scores[metric].append(s)
            row[metric] = dataclasses.asdict(s)
        per_cluster.append(row)
    means = {metric: dataclasses.asdict(mean_score(scores[metric])) for metric in metrics}
    return {"mean": means, "per_cluster": per_cluster}


def cmd_evaluate(args, settings: dict) -> int:
    rouge_cfg, metrics = _rouge_setup(args)
    records = _load_hypotheses(Path(args.hypotheses))
    clusters = load_clusters(args.clusters)
    ref_tokens = _reference_tokens(clusters, [r["id"] for r in records], rouge_cfg)
    report = _evaluate_records(records, rouge_cfg, metrics, ref_tokens)
    print(f"{'metric':<10} {'precision':>10} {'recall':>10} {'f':>10}")
    for metric, comps in report["mean"].items():
        print(f"{metric:<10} {comps['precision']:>10.6f} "
              f"{comps['recall']:>10.6f} {comps['f']:>10.6f}")
    if args.report:
        write_output(args.report, json_text(report))
        print(f"report -> {args.report}")
    return 0


def cmd_sweep(args, settings: dict) -> int:
    with _out_dir(args.out, settings) as out_dir:
        rouge_cfg, metrics = _rouge_setup(args)
        params, model, clusters = _load_run(args, max(args.sizes))
        ref_tokens = _reference_tokens(clusters, [c.id for c in clusters], rouge_cfg)

        failed = False
        rows = []
        for size in args.sizes:
            size_dir = out_dir / f"size_{size}"
            records, failures = _decode_run(model, clusters, args, params, size, size_dir)
            _report_failures(failures)
            if not records:
                raise ValueError(f"no cluster decoded at size {size} ({len(failures)} failed)")
            failed = failed or bool(failures)
            report = _evaluate_records(records, rouge_cfg, metrics, ref_tokens)
            write_output(size_dir / "report.json", json_text(report))
            rows.append((size, report["mean"]))

        comps = ("precision", "recall", "f")
        write_output(out_dir / "sweep.csv", csv_text([
            ["size", *(f"{m}_{c}" for m in metrics for c in comps)],
            *([size, *(means[m][c] for m in metrics for c in comps)] for size, means in rows),
        ]))

    print(f"{'size':<6}" + "".join(f"{m + ' f':>14}" for m in metrics))
    for size, means in rows:
        print(f"{size:<6}" + "".join(f"{means[m]['f']:>14.6f}" for m in metrics))
    print(f"sweep table -> {out_dir / 'sweep.csv'}")
    return 1 if failed else 0


def cmd_trace(args, settings: dict) -> int:
    params, model, (cluster,) = _load_run(args, args.max_docs)
    record, trace = _decode_cluster(model, cluster, args, params, args.max_docs)
    text = trace.export(args.trace_format)
    if args.output:
        write_output(args.output, text)
        print(f"trace -> {args.output}")
    else:
        sys.stdout.write(text)
    print(f"decoded: {record['text']}")
    print(f"raw score: {record['raw_score']:.6f}")
    for label, total in zip(trace.input_labels, trace.input_totals()):
        print(f"  {label}: {total:.6f}")
    return 0


def _add_decode_flags(p: argparse.ArgumentParser, max_docs: bool = True) -> None:
    d = DecodeParams()
    p.add_argument("--beam-size", type=int, default=d.beam_size, help="beam width")
    p.add_argument("--max-len", type=int, default=d.max_len,
                   help="max generated tokens, end marker included")
    p.add_argument("--min-len", type=int, default=d.min_len,
                   help="min content tokens before the end marker is allowed")
    p.add_argument("--reduce", default=d.reduce.value,
                   choices=[r.value for r in Reduce],
                   help="per-step combination of per-input distributions")
    p.add_argument("--length-penalty", type=float, default=d.length_penalty_alpha,
                   help="rank by raw_score / content_length**alpha")
    p.add_argument("--block-repeat-ngram", type=int, default=d.block_repeat_ngram,
                   help="forbid repeating any n-gram of this size")
    p.add_argument("--seed", type=int, default=d.seed, help="seed for document selection")
    if max_docs:  # a sweep sets it from each of its sizes
        p.add_argument("--max-docs", type=int, default=5,
                       help="documents sampled per cluster")
    p.add_argument("--max-input-tokens", type=int, default=512,
                   help="tokens kept per input document")
    p.add_argument("--trace-format", default="csv", choices=["csv", "json"],
                   help="provenance trace file format")


def _add_rouge_flags(p: argparse.ArgumentParser) -> None:
    d = RougeConfig()
    p.add_argument("--rouge-lowercase", action=argparse.BooleanOptionalAction,
                   default=d.lowercase, help="case-fold before matching")
    p.add_argument("--rouge-strip-punctuation", action=argparse.BooleanOptionalAction,
                   default=d.strip_punctuation, help="drop non-alphanumeric characters")
    p.add_argument("--rouge-stemming", action=argparse.BooleanOptionalAction,
                   default=d.use_porter_stemming, help="Porter-stem tokens")
    p.add_argument("--multi-ref", default=d.multi_ref_strategy.value,
                   choices=[s.value for s in MultiRefStrategy],
                   help="combine scores over multiple references")
    p.add_argument("--beta", type=float, default=d.beta, help="F-measure weight")
    p.add_argument("--metrics", nargs="+", default=list(DEFAULT_METRICS),
                   help="rouge-<n> and/or rouge-l")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="dyne",
        description="Ensemble beam-search decoding over clusters of related inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    @contextlib.contextmanager
    def command(name: str, func, summary: str, required: tuple[str, ...],
                writes: tuple[str, ...]) -> Iterator[argparse.ArgumentParser]:
        """Declare a command. ``required`` names (by dest) the flags its run needs, in the
        order the missing-flag error lists them; ``writes``, those its recorded settings leave
        out. ``set_defaults`` stores both with no flag, so a ``--config`` cannot set them.
        Adds ``--clusters``, ``--model`` if required, and ``--config`` after the block."""
        p = subparsers[name] = sub.add_parser(
            name, help=summary, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func, required=required, writes=writes)
        # required flags stay optional at parse time so a --config file can supply them
        p.add_argument("--clusters", default=None, help="JSONL cluster file")
        if "model" in required:
            p.add_argument("--model", default=None, help="path to the model spec file")
        yield p
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults; explicit flags win")

    with command("decode", cmd_decode, "decode every cluster in a file",
                 ("model", "clusters", "out"), ("out",)) as p:
        _add_decode_flags(p)
        p.add_argument("--out", default=None, help="output directory")

    with command("evaluate", cmd_evaluate, "score hypotheses against references",
                 ("hypotheses", "clusters"), ("report",)) as p:
        p.add_argument("--hypotheses", default=None, help="summaries.jsonl from decode")
        _add_rouge_flags(p)
        p.add_argument("--report", default=None, help="write a JSON report here")

    with command("sweep", cmd_sweep, "decode + evaluate across ensemble sizes",
                 ("model", "clusters", "sizes", "out"), ("out",)) as p:
        _add_decode_flags(p, max_docs=False)
        _add_rouge_flags(p)
        p.add_argument("--sizes", type=int, nargs="+", default=None,
                       help="ensemble sizes to decode with")
        p.add_argument("--out", default=None, help="output directory")

    with command("trace", cmd_trace, "decode one cluster and emit its trace matrix",
                 ("model", "clusters", "cluster_id"), ("output",)) as p:
        p.add_argument("--cluster-id", default=None, help="cluster to trace")
        _add_decode_flags(p)
        p.add_argument("--output", default=None, help="trace file (stdout when omitted)")
    return parser, subparsers


def _config_value_ok(action: argparse.Action, value) -> bool:
    """Whether the flag could produce ``value``: ``set_defaults`` skips the
    ``type`` and ``choices`` checks that argparse gives command-line values."""
    if value is None:
        return action.default is None
    listed = action.nargs == "+"
    if listed and not (isinstance(value, list) and value):
        return False
    types = {int: int, float: (int, float)}
    kind = bool if isinstance(action.default, bool) else types.get(action.type, str)
    return all(isinstance(v, kind) and isinstance(v, bool) == (kind is bool)
               and v in (action.choices or [v]) for v in (value if listed else [value]))


def _settings_table(sp: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The command's settings by config key (flag dest name): every flag of
    the command but ``--help`` and ``--config``."""
    return {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}


def _apply_config_file(args: argparse.Namespace, parser, subparsers, argv: list[str]):
    """Re-parse the command with defaults taken from the config file.

    Config keys are flag dest names (``beam_size``, ``max_docs``, ...);
    flags present on the command line keep precedence.
    """
    sp = subparsers[args.command]
    actions = _settings_table(sp)
    doc = parse_object(read_input(args.config, "config file"), args.config, allowed=actions)
    invalid = [f"{k}={v!r}" for k, v in doc.items() if not _config_value_ok(actions[k], v)]
    if invalid:
        raise FormatError(f"{args.config}: invalid value(s): {', '.join(invalid)}")
    sp.set_defaults(**doc)
    return parser.parse_args(argv)


def _require_flags(args: argparse.Namespace) -> None:
    missing = ["--" + name.replace("_", "-") for name in args.required
               if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing required argument(s) for {args.command}: "
                         f"{', '.join(missing)} (set them as flags or in --config)")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config_file(args, parser, subparsers, argv)
        _require_flags(args)
        settings = {name: getattr(args, name) for name in _settings_table(subparsers[args.command])
                    if name not in args.writes}
        for name, values in settings.items():  # sizes, metrics: each value once
            if isinstance(values, list) and len(set(values)) < len(values):
                twice = next(v for i, v in enumerate(values) if v in values[:i])
                raise ValueError(f"{name} must not repeat a value, got {twice!r} twice")
        return args.func(args, settings)
    except (FormatError, ValueError, OSError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
