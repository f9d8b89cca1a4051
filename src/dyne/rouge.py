"""Self-contained ROUGE-1/2/N and ROUGE-L metrics.

Published evaluation pipelines disagree on preprocessing (case folding,
punctuation handling, stemming) and on how multiple references are
combined, so those conventions are explicit configuration here rather
than hard-coded. The default profile is: lowercase on, punctuation
stripped, stemming off, best reference taken per pair, beta = 1.

Scores returned for a single hypothesis/reference computation satisfy the
F-measure identity f = (1+b^2)PR / (R + b^2 P). Aggregates (the average
over references, or over a corpus) are componentwise arithmetic means and
are not required to satisfy that identity themselves.

Scoring runs on token lists (`score_tokens`); `compute_metric`, `rouge_n`
and `rouge_l` tokenize and call it. The CLI tokenizes each text once per
command: a hypothesis once for all metrics, a cluster's references once.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from dataclasses import dataclass

from .stemmer import porter_stem

_TOKEN_CLEAN = re.compile(r"[^0-9a-zA-Z]+")


class MultiRefStrategy(enum.Enum):
    """How scores against several references combine into one."""

    MAX_OVER_REFS = "max"
    AVERAGE_OVER_REFS = "average"


@dataclass(frozen=True)
class RougeConfig:
    lowercase: bool = True
    strip_punctuation: bool = True
    use_porter_stemming: bool = False
    multi_ref_strategy: MultiRefStrategy = MultiRefStrategy.MAX_OVER_REFS
    beta: float = 1.0

    def __post_init__(self) -> None:
        # a square past the float range would turn every F score into NaN
        if not (self.beta > 0 and math.isfinite(self.beta * self.beta)):
            raise ValueError(f"beta must be positive with a finite square, got {self.beta}")


DEFAULT_CONFIG = RougeConfig()


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f: float


def _score(overlap: float, hyp_total: int, ref_total: int, beta: float) -> RougeScore:
    precision = overlap / hyp_total if hyp_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    if precision + recall == 0.0:
        return RougeScore(precision, recall, 0.0)
    b2 = beta * beta
    f = (1.0 + b2) * precision * recall / (recall + b2 * precision)
    return RougeScore(precision, recall, f)


def tokenize(text: str, cfg: RougeConfig = DEFAULT_CONFIG) -> list[str]:
    """Whitespace tokenization with the configured normalizations applied."""
    if cfg.lowercase:
        text = text.lower()
    tokens = text.split()
    if cfg.strip_punctuation:
        tokens = [t for t in (_TOKEN_CLEAN.sub("", tok) for tok in tokens) if t]
    if cfg.use_porter_stemming:
        tokens = [porter_stem(t) for t in tokens]
    return tokens


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _lcs_length(xs: list[str], ys: list[str]) -> int:
    prev = [0] * (len(ys) + 1)
    for x in xs:
        cur = [0]
        for j, y in enumerate(ys, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def mean_score(scores: list[RougeScore]) -> RougeScore:
    """Componentwise arithmetic mean, summed exactly so order never matters."""
    if not scores:
        raise ValueError("a mean needs at least one score")
    return RougeScore(
        math.fsum(s.precision for s in scores) / len(scores),
        math.fsum(s.recall for s in scores) / len(scores),
        math.fsum(s.f for s in scores) / len(scores),
    )


def _combine(per_ref: list[RougeScore], cfg: RougeConfig) -> RougeScore:
    if cfg.multi_ref_strategy is MultiRefStrategy.MAX_OVER_REFS:
        return max(per_ref, key=lambda s: s.f)
    return mean_score(per_ref)


def tokenize_references(references: list[str], cfg: RougeConfig) -> list[list[str]]:
    """Tokenize a reference set, rejecting an empty set or an empty reference."""
    if not references:
        raise ValueError("at least one reference is required")
    tokenized = [tokenize(r, cfg) for r in references]
    for i, toks in enumerate(tokenized):
        if not toks:
            raise ValueError(f"reference {i} is empty after tokenization")
    return tokenized


_METRIC_RE = re.compile(r"^rouge-([0-9]+|l)$")


def parse_metric(metric: str) -> int | None:
    """The n of a ``rouge-<n>`` name (n >= 1), or None for ``rouge-l``."""
    m = _METRIC_RE.match(metric)
    if not m:
        raise ValueError(f"unknown metric {metric!r}; metrics are rouge-<n> or rouge-l")
    n = None if m.group(1) == "l" else int(m.group(1))
    if n is not None and n < 1:
        raise ValueError(f"n must be >= 1 in metrics rouge-<n>, got {metric!r}")
    return n


def score_tokens(metric: str, hyp_tokens: list[str], ref_tokens: list[list[str]],
                 cfg: RougeConfig = DEFAULT_CONFIG) -> RougeScore:
    """Score one metric on a tokenized hypothesis against tokenized references."""
    n = parse_metric(metric)
    hyp_grams = None if n is None else _ngrams(hyp_tokens, n)
    per_ref = []
    for toks in ref_tokens:
        if hyp_grams is None:
            counts = _lcs_length(hyp_tokens, toks), len(hyp_tokens), len(toks)
        else:
            ref_grams = _ngrams(toks, n)
            overlap = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
            counts = overlap, sum(hyp_grams.values()), sum(ref_grams.values())
        per_ref.append(_score(*counts, cfg.beta))
    return _combine(per_ref, cfg)


def compute_metric(metric: str, hypothesis: str, references: list[str],
                   cfg: RougeConfig = DEFAULT_CONFIG) -> RougeScore:
    """Score a metric name, ``rouge-<n>`` or ``rouge-l``, on raw texts."""
    ref_tokens = tokenize_references(references, cfg)
    return score_tokens(metric, tokenize(hypothesis, cfg), ref_tokens, cfg)


def rouge_n(hypothesis: str, references: list[str], n: int,
            cfg: RougeConfig = DEFAULT_CONFIG) -> RougeScore:
    """Clipped n-gram overlap score against one or more references."""
    return compute_metric(f"rouge-{n}", hypothesis, references, cfg)


def rouge_l(hypothesis: str, references: list[str],
            cfg: RougeConfig = DEFAULT_CONFIG) -> RougeScore:
    """Longest-common-subsequence score against one or more references."""
    return compute_metric("rouge-l", hypothesis, references, cfg)


DEFAULT_METRICS = ("rouge-1", "rouge-2", "rouge-l")
