"""Command-line front end for reproducible ensemble-decoding runs.

Commands:

* ``decode``   - decode every cluster in a file, writing one summary record
                 per cluster plus a per-cluster provenance trace.
* ``evaluate`` - score a decode's hypotheses against cluster references.
* ``sweep``    - decode + evaluate across several ensemble sizes.
* ``trace``    - decode a single cluster and emit its contribution matrix.

Every command accepts ``--config FILE`` (JSON object of flag names);
explicit flags override file values. Given the same config and seed, all
output artifacts are byte-identical across runs.

``decode`` and ``sweep`` record every setting (all flags but ``--config``
and the output location, keyed as ``--config`` reads them) in one
``run_config.json``, so ``--config run_config.json --out DIR`` replays the
run. A sweep has no ``--max-docs``: each size decodes with max_docs = size.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from .data import Cluster, ClusterSet, load_clusters, select_document_indices, tokenize_and_truncate
from .decoder import DecodeParams, Reduce, beam_search
from .errors import DecodeError, FormatError
from .rouge import (
    DEFAULT_METRICS, MultiRefStrategy, RougeConfig, mean_score, parse_metric, score_tokens,
    tokenize, tokenize_references,
)
from .seqmodel import SequenceModel, load_model


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


_UNSAFE_ID = re.compile(r"[^0-9A-Za-z_.-]+")


def _trace_filename(index: int, cluster_id: str, fmt: str) -> str:
    safe = _UNSAFE_ID.sub("_", cluster_id)[:40] or "cluster"
    return f"{index:04d}_{safe}.{fmt}"


def _decode_params(args) -> DecodeParams:
    """The decode settings, with the run sizes checked before anything is loaded."""
    for name in ("max_docs", "max_input_tokens", "sizes"):
        value = getattr(args, name, None)
        if value is not None and min(value if isinstance(value, list) else [value]) < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    return DecodeParams(
        beam_size=args.beam_size, max_len=args.max_len, min_len=args.min_len,
        reduce=Reduce(args.reduce), length_penalty_alpha=args.length_penalty,
        block_repeat_ngram=args.block_repeat_ngram, seed=args.seed,
    )


def _rouge_setup(args) -> tuple[RougeConfig, tuple[str, ...]]:
    """The ROUGE config and metric names, checked before anything is loaded."""
    for i, metric in enumerate(args.metrics):
        parse_metric(metric)
        if metric in args.metrics[:i]:
            raise ValueError(f"metrics must not repeat a name, got {metric!r} twice")
    cfg = RougeConfig(
        lowercase=args.rouge_lowercase,
        strip_punctuation=args.rouge_strip_punctuation,
        use_porter_stemming=args.rouge_stemming,
        multi_ref_strategy=MultiRefStrategy(args.multi_ref),
        beta=args.beta,
    )
    return cfg, tuple(args.metrics)


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
    content = [vocab.token(t) for t in best.tokens[:-1]]
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
    clusters that failed; a failed cluster does not stop the run.
    """
    records: list[dict] = []
    failures: list[tuple[str, str]] = []
    for index, cluster in enumerate(clusters):
        try:
            record, trace = _decode_cluster(model, cluster, args, params, max_docs)
            trace_text = trace.export(args.trace_format)
        except Exception as exc:  # noqa: BLE001 - isolate per-cluster failures
            failures.append((cluster.id, f"{type(exc).__name__}: {exc}"))
            continue
        records.append(record)
        _atomic_write(
            out_dir / "traces" / _trace_filename(index, cluster.id, args.trace_format),
            trace_text,
        )
    _atomic_write(out_dir / "summaries.jsonl", "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return records, failures


def _report_failures(failures: list[tuple[str, str]]) -> None:
    for cid, err in failures:
        print(f"cluster {cid}: {err}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} cluster(s) failed", file=sys.stderr)


def cmd_decode(args, settings: dict) -> int:
    params = _decode_params(args)
    model = load_model(args.model)
    clusters = load_clusters(args.clusters)
    _, failures = _decode_run(model, clusters, args, params, args.max_docs, Path(args.out))
    _write_json(Path(args.out) / "run_config.json", settings)
    done = len(clusters) - len(failures)
    print(f"decoded {done}/{len(clusters)} clusters -> {args.out}")
    _report_failures(failures)
    return 1 if failures else 0


def _load_hypotheses(path: Path) -> list[dict]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read hypotheses file {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        if not (isinstance(rec, dict) and isinstance(rec.get("id"), str)
                and isinstance(rec.get("text"), str)):
            raise FormatError(f"{path}: line {lineno}: record needs string 'id' and 'text' fields")
        records.append(rec)
    return records


def _evaluate_records(
    records: list[dict],
    clusters: ClusterSet,
    cfg: RougeConfig,
    metrics: tuple[str, ...],
    ref_tokens: dict[str, list[list[str]]],
) -> dict:
    """Score every record. ``ref_tokens`` maps cluster ids to reference tokens
    under ``cfg``; it fills on first use, so one command can share it."""
    missing = [r["id"] for r in records if clusters.get(r["id"]) is None]
    if missing:
        raise ValueError(f"hypothesis ids not present in cluster file: {', '.join(missing)}")
    unreferenced = [r["id"] for r in records if not clusters.get(r["id"]).references]
    if unreferenced:
        raise ValueError(
            f"clusters without references cannot be evaluated: {', '.join(unreferenced)}"
        )
    per_cluster = []
    scores: dict[str, list] = {metric: [] for metric in metrics}
    for rec in records:
        cid = rec["id"]
        if cid not in ref_tokens:
            ref_tokens[cid] = tokenize_references(list(clusters.get(cid).references), cfg)
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
    if not records:
        print("hypotheses file holds no records", file=sys.stderr)
        return 1
    clusters = load_clusters(args.clusters)
    report = _evaluate_records(records, clusters, rouge_cfg, metrics, {})
    print(f"{'metric':<10} {'precision':>10} {'recall':>10} {'f':>10}")
    for metric, comps in report["mean"].items():
        print(f"{metric:<10} {comps['precision']:>10.6f} "
              f"{comps['recall']:>10.6f} {comps['f']:>10.6f}")
    if args.report:
        _write_json(Path(args.report), report)
        print(f"report -> {args.report}")
    return 0


def cmd_sweep(args, settings: dict) -> int:
    params = _decode_params(args)
    rouge_cfg, metrics = _rouge_setup(args)
    model = load_model(args.model)
    clusters = load_clusters(args.clusters)
    out_dir = Path(args.out)

    failed = False
    rows = []
    ref_tokens: dict[str, list[list[str]]] = {}
    for size in args.sizes:
        size_dir = out_dir / f"size_{size}"
        records, failures = _decode_run(model, clusters, args, params, size, size_dir)
        _report_failures(failures)  # before evaluating, which fails if none decoded
        failed = failed or bool(failures)
        report = _evaluate_records(records, clusters, rouge_cfg, metrics, ref_tokens)
        _write_json(size_dir / "report.json", report)
        rows.append((size, report["mean"]))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    comps = ("precision", "recall", "f")
    writer.writerow(["size", *(f"{m}_{c}" for m in metrics for c in comps)])
    for size, means in rows:
        writer.writerow([size, *(f"{means[m][c]:.17g}" for m in metrics for c in comps)])
    _atomic_write(out_dir / "sweep.csv", buf.getvalue())
    _write_json(out_dir / "run_config.json", settings)

    print(f"{'size':<6}" + "".join(f"{m + ' f':>14}" for m in metrics))
    for size, means in rows:
        print(f"{size:<6}" + "".join(f"{means[m]['f']:>14.6f}" for m in metrics))
    print(f"sweep table -> {out_dir / 'sweep.csv'}")
    return 1 if failed else 0


def cmd_trace(args, settings: dict) -> int:
    params = _decode_params(args)
    model = load_model(args.model)
    clusters = load_clusters(args.clusters)
    cluster = clusters.get(args.cluster_id)
    if cluster is None:
        print(f"no cluster with id {args.cluster_id!r}", file=sys.stderr)
        return 1
    record, trace = _decode_cluster(model, cluster, args, params, args.max_docs)
    text = trace.export(args.trace_format)
    if args.output:
        _atomic_write(Path(args.output), text)
        print(f"trace -> {args.output}")
    else:
        sys.stdout.write(text)
    print(f"decoded: {record['text']}")
    print(f"raw score: {record['raw_score']:.6f}")
    for label, total in zip(trace.input_labels, trace.input_totals()):
        print(f"  {label}: {total:.6f}")
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    # "required" flags stay optional at parse time so a --config file can
    # supply them; _require_flags enforces presence after merging.
    p.add_argument("--model", default=None, help="path to the model spec file")


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
    p.add_argument("--block-repeat-ngram", type=int, default=None,
                   help="forbid repeating any n-gram of this size")
    p.add_argument("--seed", type=int, default=0, help="seed for document selection")
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

    p = sub.add_parser("decode", help="decode every cluster in a file",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_model_flags(p)
    p.add_argument("--clusters", default=None, help="JSONL cluster file")
    _add_decode_flags(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_decode)
    subparsers["decode"] = p

    p = sub.add_parser("evaluate", help="score hypotheses against references",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--hypotheses", default=None, help="summaries.jsonl from decode")
    p.add_argument("--clusters", default=None, help="JSONL cluster file")
    _add_rouge_flags(p)
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_evaluate)
    subparsers["evaluate"] = p

    p = sub.add_parser("sweep", help="decode + evaluate across ensemble sizes",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_model_flags(p)
    p.add_argument("--clusters", default=None, help="JSONL cluster file")
    _add_decode_flags(p, max_docs=False)
    _add_rouge_flags(p)
    p.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="ensemble sizes to decode with")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_sweep)
    subparsers["sweep"] = p

    p = sub.add_parser("trace", help="decode one cluster and emit its trace matrix",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_model_flags(p)
    p.add_argument("--clusters", default=None, help="JSONL cluster file")
    p.add_argument("--cluster-id", default=None, help="cluster to trace")
    _add_decode_flags(p)
    p.add_argument("--output", default=None, help="trace file (stdout when omitted)")
    p.set_defaults(func=cmd_trace)
    subparsers["trace"] = p

    for sp in subparsers.values():
        sp.add_argument("--config", default=None,
                        help="JSON file of flag defaults; explicit flags win")
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


# Where a command writes; the one part of its settings a run does not record.
_OUTPUT_FLAGS = ("out", "output", "report")


def _settings_table(sp: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The command's settings by config key (flag dest name): every flag of
    the command but ``--help`` and ``--config``."""
    return {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}


def _apply_config_file(args: argparse.Namespace, subparsers, argv: list[str]):
    """Re-parse the command with defaults taken from the config file.

    Config keys are flag dest names (``beam_size``, ``max_docs``, ...);
    flags present on the command line keep precedence.
    """
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read config file {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"config file {args.config} must hold a JSON object")
    sp = subparsers[args.command]
    actions = _settings_table(sp)
    unknown = doc.keys() - actions.keys()
    if unknown:
        raise FormatError(
            f"config file {args.config} has unknown key(s): {', '.join(sorted(unknown))}"
        )
    invalid = [f"{k}={v!r}" for k, v in doc.items() if not _config_value_ok(actions[k], v)]
    if invalid:
        raise FormatError(f"config file {args.config} has invalid value(s): {', '.join(invalid)}")
    sp.set_defaults(**doc)
    sub_argv = list(argv)
    sub_argv.remove(args.command)
    merged = sp.parse_args(sub_argv)
    merged.command = args.command
    return merged


_REQUIRED_FLAGS = {
    "decode": ("model", "clusters", "out"),
    "evaluate": ("hypotheses", "clusters"),
    "sweep": ("model", "clusters", "sizes", "out"),
    "trace": ("model", "clusters", "cluster_id"),
}


def _require_flags(args: argparse.Namespace) -> None:
    missing = [
        "--" + name.replace("_", "-")
        for name in _REQUIRED_FLAGS[args.command]
        if getattr(args, name) is None
    ]
    if missing:
        raise ValueError(
            f"missing required argument(s) for {args.command}: {', '.join(missing)} "
            f"(set them as flags or in --config)"
        )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config_file(args, subparsers, argv)
        _require_flags(args)
        settings = {name: getattr(args, name) for name in _settings_table(subparsers[args.command])
                    if name not in _OUTPUT_FLAGS}
        return args.func(args, settings)
    except (FormatError, ValueError, OSError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
