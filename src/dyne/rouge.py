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


def _fmeasure(precision: float, recall: float, beta: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1.0 + b2) * precision * recall / (recall + b2 * precision)


def _score(overlap: float, hyp_total: int, ref_total: int, beta: float) -> RougeScore:
    precision = overlap / hyp_total if hyp_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    return RougeScore(precision, recall, _fmeasure(precision, recall, beta))


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
    if not xs or not ys:
        return 0
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


def _check_references(references: list[str], cfg: RougeConfig) -> list[list[str]]:
    if not references:
        raise ValueError("at least one reference is required")
    tokenized = [tokenize(r, cfg) for r in references]
    for i, toks in enumerate(tokenized):
        if not toks:
            raise ValueError(f"reference {i} is empty after tokenization")
    return tokenized


def rouge_n(
    hypothesis: str,
    references: list[str],
    n: int,
    cfg: RougeConfig = DEFAULT_CONFIG,
) -> RougeScore:
    """Clipped n-gram overlap score against one or more references."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ref_tokens = _check_references(references, cfg)
    hyp_grams = _ngrams(tokenize(hypothesis, cfg), n)
    hyp_total = sum(hyp_grams.values())
    per_ref = []
    for toks in ref_tokens:
        ref_grams = _ngrams(toks, n)
        overlap = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        per_ref.append(_score(overlap, hyp_total, sum(ref_grams.values()), cfg.beta))
    return _combine(per_ref, cfg)


def rouge_l(
    hypothesis: str,
    references: list[str],
    cfg: RougeConfig = DEFAULT_CONFIG,
) -> RougeScore:
    """Longest-common-subsequence score against one or more references."""
    ref_tokens = _check_references(references, cfg)
    hyp_tokens = tokenize(hypothesis, cfg)
    per_ref = []
    for toks in ref_tokens:
        lcs = _lcs_length(hyp_tokens, toks)
        per_ref.append(_score(lcs, len(hyp_tokens), len(toks), cfg.beta))
    return _combine(per_ref, cfg)


METRIC_RE = re.compile(r"^rouge-([0-9]+|l)$")


def compute_metric(
    metric: str,
    hypothesis: str,
    references: list[str],
    cfg: RougeConfig = DEFAULT_CONFIG,
) -> RougeScore:
    """Dispatch on a metric name: ``rouge-<n>`` or ``rouge-l``."""
    m = METRIC_RE.match(metric)
    if not m:
        raise ValueError(f"unknown metric {metric!r}; expected rouge-<n> or rouge-l")
    if m.group(1) == "l":
        return rouge_l(hypothesis, references, cfg)
    return rouge_n(hypothesis, references, int(m.group(1)), cfg)


DEFAULT_METRICS = ("rouge-1", "rouge-2", "rouge-l")
