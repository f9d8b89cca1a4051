"""Span tracing around dyne's public functions, installed only in traced runs.

Wrappers are set from the benchmark's own code; dyne is not edited. A span
records its name, start, end and parent span; spans stay in memory until
the run ends. ``Hypothesis`` constructions are counted without a span,
since a wide decode builds hundreds of thousands of them.

The loaded model's class is wrapped method by method: every public
function on it gets a span, whatever it is called, and the rows it scored
are read from the shape of what it returns (one row for a ``[V]`` vector,
``B*N`` rows for a ``[B, N, V]`` array).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) pairs wrapped with a span. A wrapper replaces the
# function under every dyne module name bound to it, so a call through a
# re-export or from another dyne module is traced as well.
SPAN_TARGETS = [
    ("dyne.cli", "beam_search"),
    ("dyne.cli", "load_model"),
    ("dyne.cli", "load_clusters"),
    ("dyne.cli", "select_document_indices"),
    ("dyne.cli", "tokenize_and_truncate"),
    ("dyne.cli", "compute_metric"),
    ("dyne.decoder", "ensemble_step"),
    ("dyne.decoder", "sequence_score"),
    ("dyne.rouge", "porter_stem"),
]
MODEL_SPAN = "model"

# Every per-layer metric of a traced run, with its unit. The cli.* file and
# cluster counts and the trace.* figures are added by run.py.
LAYER_UNITS = {
    "cli.wall_s": "s",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "cli.clusters_attempted": "count",
    "cli.clusters_failed": "count",
    "seqmodel.score_calls": "count",
    "seqmodel.rows": "count",
    "seqmodel.rescore_rows": "count",
    "seqmodel.rescore_rows_share": "ratio",
    "seqmodel.score_s": "s",
    "seqmodel.load_s": "s",
    "decoder.decodes": "count",
    "decoder.steps": "count",
    "decoder.search_self_s": "s",
    "decoder.hypotheses_built": "count",
    "decoder.reduce_s": "s",
    "decoder.rescore_s": "s",
    "decoder.traces_per_decode": "count",
    "data.load_s": "s",
    "data.prep_s": "s",
    "data.prep_calls": "count",
    "provenance.export_calls": "count",
    "provenance.export_s": "s",
    "provenance.bytes": "B",
    "rouge.pairs": "count",
    "rouge.compute_s": "s",
    "stemmer.calls": "count",
    "stemmer.stem_s": "s",
    "trace.untraced_clusters_per_s": "1/s",
    "trace.traced_clusters_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}
# Metrics that are counts of work and must repeat exactly for a given seed.
COUNTS = [
    name for name, unit in LAYER_UNITS.items()
    if unit in ("count", "B") or name == "seqmodel.rescore_rows_share"
]


@dataclass
class Recorder:
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    # Per span: rows scored by a model call, or bytes returned by export.
    sizes: list[int] = field(default_factory=list)
    hypotheses: int = 0
    missing: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)
    _wrapped_classes: set = field(default_factory=set)

    def call(self, name: str, fn, args, kwargs, size_of=None):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sizes.append(0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()
        if size_of is not None:
            self.sizes[i] = size_of(out)
        return out

    def _wrap(self, name: str, fn, size_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size_of)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dyne" and not mod_name.startswith("dyne."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_model_class(self, model) -> None:
        cls = type(model)
        if cls in self._wrapped_classes:
            return
        self._wrapped_classes.add(cls)
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            self._set(cls, attr, self._wrap(MODEL_SPAN, fn, _rows_scored))

    def install(self) -> None:
        import dyne.decoder
        import dyne.provenance

        for mod_name, attr in SPAN_TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            if attr == "load_model":
                wrapper = self._model_loader(original)
            else:
                wrapper = self._wrap(attr, original)
            self._rebind_everywhere(original, wrapper)

        export = getattr(dyne.provenance.TraceMatrix, "export", None)
        if export is None:
            self.missing.add("dyne.provenance.TraceMatrix.export")
        else:
            self._set(
                dyne.provenance.TraceMatrix, "export",
                self._wrap("export", export, lambda text: len(text.encode())),
            )

        hyp = getattr(dyne.decoder, "Hypothesis", None)
        if hyp is None:
            self.missing.add("dyne.decoder.Hypothesis")
        else:
            init = hyp.__init__

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                self.hypotheses += 1
                init(obj, *args, **kwargs)

            self._set(hyp, "__init__", counted_init)

    def _model_loader(self, load_model):
        @functools.wraps(load_model)
        def wrapper(*args, **kwargs):
            model = self.call("load_model", load_model, args, kwargs)
            self._wrap_model_class(model)
            return model

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._wrapped_classes.clear()


def _rows_scored(out) -> int:
    shape = np.shape(out)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def layer_metrics(rec: Recorder, first: int, hypotheses: int) -> dict[str, float]:
    """Per-layer counts and times for the spans recorded from index ``first`` on."""
    n = len(rec.names)
    child = [0.0] * (n - first)
    in_rescore = [False] * (n - first)
    in_model = [False] * (n - first)
    for i in range(first, n):
        p = rec.parents[i]
        if p >= first:
            child[p - first] += rec.ends[i] - rec.starts[i]
            in_rescore[i - first] = in_rescore[p - first] or rec.names[p] == "sequence_score"
            in_model[i - first] = in_model[p - first] or rec.names[p] == MODEL_SPAN

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows = rescore_rows = steps = 0
    for i in range(first, n):
        name = rec.names[i]
        k = i - first
        if name == MODEL_SPAN and in_model[k]:
            continue  # a model method calling another: count the outer call only
        dur = rec.ends[i] - rec.starts[i]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[k]
        calls[name] = calls.get(name, 0) + 1
        if name == MODEL_SPAN:
            rows += rec.sizes[i]
            if in_rescore[k]:
                rescore_rows += rec.sizes[i]
        if name == "ensemble_step" and not in_rescore[k]:
            steps += 1

    decodes = calls.get("beam_search", 0)
    return {
        "cli.wall_s": total.get("cli", 0.0),
        "cli.self_s": self_time.get("cli", 0.0),
        "seqmodel.score_calls": calls.get(MODEL_SPAN, 0),
        "seqmodel.rows": rows,
        "seqmodel.rescore_rows": rescore_rows,
        "seqmodel.rescore_rows_share": rescore_rows / rows if rows else 0.0,
        "seqmodel.score_s": total.get(MODEL_SPAN, 0.0),
        "seqmodel.load_s": total.get("load_model", 0.0),
        "decoder.decodes": decodes,
        "decoder.steps": steps,
        "decoder.search_self_s": self_time.get("beam_search", 0.0),
        "decoder.hypotheses_built": hypotheses,
        "decoder.reduce_s": self_time.get("ensemble_step", 0.0),
        "decoder.rescore_s": total.get("sequence_score", 0.0),
        "decoder.traces_per_decode": (
            calls.get("sequence_score", 0) / decodes if decodes else 0.0
        ),
        "data.load_s": total.get("load_clusters", 0.0),
        "data.prep_s": total.get("select_document_indices", 0.0)
        + total.get("tokenize_and_truncate", 0.0),
        "data.prep_calls": calls.get("select_document_indices", 0)
        + calls.get("tokenize_and_truncate", 0),
        "provenance.export_calls": calls.get("export", 0),
        "provenance.export_s": total.get("export", 0.0),
        "provenance.bytes": sum(
            rec.sizes[i] for i in range(first, n) if rec.names[i] == "export"
        ),
        "rouge.pairs": calls.get("compute_metric", 0),
        "rouge.compute_s": total.get("compute_metric", 0.0),
        "stemmer.calls": calls.get("porter_stem", 0),
        "stemmer.stem_s": total.get("porter_stem", 0.0),
    }
