"""Shared-prefix ensemble beam search.

One conditional model is applied independently to several inputs; at every
timestep the per-input next-token distributions are combined by a reduce
function into a single distribution, so all inputs extend the same output
prefix. The cumulative combined log-score of the chosen tokens is the
sequence score. The search records each chosen token's combined and
per-input scores as it goes, so every result carries its provenance trace
without rescoring. A brute-force enumerator over the same scoring rules
serves as an exact search oracle at desk scale.

Two reduce functions are provided: the arithmetic mean of log-probabilities
and the (log of the) arithmetic mean of probabilities. They generally
disagree; the log-space mean is the default because sequence scores compose
additively in log space. Both sum each column in sorted order, which makes
decoding bitwise invariant to permuting or duplicating inputs; a search keeps
one `ColumnOrder` per call, so a step seldom sorts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, real_number
from .provenance import TraceMatrix, TraceRow
from .seqmodel import (
    BOS_ID,
    EOS_ID,
    LogProbVector,
    SequenceModel,
    TokenSeq,
    Vocab,
    check_token_seq,
)


class Reduce(enum.Enum):
    """How per-input distributions are combined at each timestep."""

    MEAN_LOGPROB = "mean_logprob"
    MEAN_PROB = "mean_prob"


@dataclass(frozen=True)
class DecodeParams:
    """Knobs for one decoding run.

    ``max_len`` bounds the generated tokens including the end marker;
    ``min_len`` is the minimum number of content tokens before the end
    marker may be produced. ``length_penalty_alpha`` divides the raw score
    by ``content_length ** alpha`` at ranking time (0 disables it, the
    default, since raw scores are plain sums); it is a real number, stored
    as a float, such that ``(max_len - 1) ** alpha`` is a finite float, so
    no ranking overflows. ``seed``, any integer, feeds any seeded
    preprocessing (e.g. document selection); the search itself is
    deterministic and ignores it. Every integer field takes an ``int`` or a
    numpy integer, never a bool or another ``int`` subclass such as an enum.
    """

    beam_size: int = 4
    max_len: int = 32
    min_len: int = 1
    reduce: Reduce = Reduce.MEAN_LOGPROB
    length_penalty_alpha: float = 0.0
    block_repeat_ngram: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("beam_size", 1), ("max_len", 1), ("min_len", 0)):
            value = getattr(self, name)
            if not (type(value) is int or isinstance(value, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (type(self.seed) is int or isinstance(self.seed, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not self.min_len < self.max_len:
            raise ValueError(
                f"min_len must be smaller than max_len, got {self.min_len} >= {self.max_len}"
            )
        alpha = real_number(self.length_penalty_alpha, "length_penalty_alpha")
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"length_penalty_alpha must be finite and >= 0, got {alpha}")
        if alpha:  # alpha 0 makes every divisor 1.0, whatever max_len is
            try:
                max(1, self.max_len - 1) ** alpha  # the largest divisor a ranking can use
            except OverflowError:
                raise ValueError(
                    f"length_penalty_alpha {alpha} makes the length penalty "
                    f"(max_len - 1) ** alpha overflow at max_len={self.max_len}") from None
        object.__setattr__(self, "length_penalty_alpha", alpha)
        n = self.block_repeat_ngram
        if n is not None and not ((type(n) is int or isinstance(n, np.integer)) and n >= 1):
            raise ValueError(f"block_repeat_ngram must be a positive integer or None, got {n!r}")
        if not isinstance(self.reduce, Reduce):
            raise ValueError(f"reduce must be a Reduce member, got {self.reduce!r}")


@dataclass(frozen=True)
class Hypothesis:
    """A live beam entry: shared prefix, running score and provenance rows.

    ``prefix`` starts with BOS and does not end with EOS: a hypothesis that
    takes EOS becomes a `ScoredHypothesis` result at once.
    ``ensemble_score`` accumulates the combined log-score of each chosen
    token. ``rows`` holds one trace row per generated token: the combined
    and per-input log-scores the search used when it chose that token.
    """

    prefix: TokenSeq
    ensemble_score: float
    rows: tuple[TraceRow, ...] = ()

    def __post_init__(self) -> None:
        if not self.prefix or self.prefix[0] != BOS_ID:
            raise ValueError("hypothesis prefix must begin with BOS")
        if self.prefix[-1] == EOS_ID:
            raise ValueError("a live hypothesis prefix must not end with EOS")
        if len(self.rows) != len(self.prefix) - 1:
            raise ValueError("a hypothesis needs one trace row per generated token")


@dataclass(frozen=True)
class ScoredHypothesis:
    """A finished decode: generated tokens (ending in EOS) and its scores."""

    tokens: TokenSeq
    raw_score: float
    ranked_score: float
    trace: TraceMatrix


class ColumnOrder:
    """One call's last ``[N, V]`` column sort order, as flat gather indices
    ``order * V + arange(V)``. A stack gathered through them is kept if every
    column comes out non-decreasing, else argsorted afresh. A non-decreasing
    column is the sorted one up to where -0.0 and 0.0 fall, which no reduce
    bit depends on. Under `CopyBigramModel` a row rises with its input's fixed
    copy weight, so the order seldom goes stale within a decode."""

    flat: np.ndarray | None = None

    def sorted(self, arr: np.ndarray) -> np.ndarray:
        if self.flat is not None and self.flat.shape == arr.shape:
            out = arr.ravel().take(self.flat)
            if (out[:-1] <= out[1:]).all():
                return out
        self.flat = np.argsort(arr, axis=0, kind="stable") * arr.shape[1] + np.arange(arr.shape[1])
        return arr.ravel().take(self.flat)


def _canonical(per_input: list[LogProbVector] | np.ndarray,
               order: ColumnOrder | None) -> np.ndarray:
    """The checked ``[N, V]`` stack with sorted columns, C-contiguous, so a
    reduce does not depend on input order; one row when every row is equal."""
    if len(per_input) == 0:
        raise ValueError("reduce needs at least one distribution")
    widths = {len(v) for v in per_input}
    if len(widths) != 1:
        raise ValueError(f"distributions disagree on vocabulary size: {sorted(widths)}")
    arr = np.asarray(per_input, dtype=float)
    if not (arr < np.inf).all():  # false for NaN and +inf alike
        raise ValueError("model returned NaN or +inf; log-probabilities must be finite or -inf")
    if len(arr) > 1:  # a reducer called on its own sorts afresh
        arr = (order if order is not None else ColumnOrder()).sorted(arr)
    # after the column sort, equal end rows mean equal values in every row; the
    # bit test then tells -0.0 from 0.0, which the sort leaves in either order
    bits = arr.view(np.int64)
    return arr[:1] if np.array_equal(arr[0], arr[-1]) and (bits == bits[0]).all() else arr


def reduce_mean_logprob(per_input: list[LogProbVector] | np.ndarray,
                        order: ColumnOrder | None = None) -> LogProbVector:
    """Elementwise arithmetic mean in log space; not renormalized.

    Masked (-inf) entries propagate. Columns are sorted before summation so
    the result does not depend on input order, and a run of identical
    distributions reduces to that distribution exactly.
    """
    arr = _canonical(per_input, order)
    if len(arr) == 1:  # np.sum starts from 0.0, which would turn -0.0 into 0.0
        return arr[0].copy()
    return np.sum(arr, axis=0) / arr.shape[0]


def reduce_mean_prob(per_input: list[LogProbVector] | np.ndarray,
                     order: ColumnOrder | None = None) -> LogProbVector:
    """Log of the elementwise arithmetic mean of probabilities.

    Computed with a max shift for stability; normalized whenever the inputs
    are. Order-canonical for the same reason as `reduce_mean_logprob`.
    """
    arr = _canonical(per_input, order)
    if len(arr) == 1:  # exp/log would turn -0.0 into 0.0
        return arr[0].copy()
    top = arr[-1]
    out = np.full(arr.shape[1], -np.inf)
    live = top > -np.inf
    shifted = np.exp(arr[:, live] - top[live])
    out[live] = top[live] + np.log(np.sum(shifted, axis=0) / arr.shape[0])
    return out


_REDUCERS = {
    Reduce.MEAN_LOGPROB: reduce_mean_logprob,
    Reduce.MEAN_PROB: reduce_mean_prob,
}


def ensemble_step(
    model: SequenceModel,
    inputs: list[TokenSeq],
    prefix: TokenSeq,
    reduce: Reduce = Reduce.MEAN_LOGPROB,
    order: ColumnOrder | None = None,
) -> tuple[LogProbVector, np.ndarray]:
    """Score the next token for every input in one model call, then combine.

    Returns the combined distribution and the ``[N, V]`` per-input
    distributions in input order. The combination is order-canonical, so
    results never depend on input order; ``order`` is the caller's
    `ColumnOrder` for these inputs, if it keeps one. A model result of any
    other type or shape is a ValueError.
    """
    if not inputs:
        raise ValueError("ensemble needs at least one input")
    per_input = model.score_batch(inputs, prefix)
    expected = (len(inputs), len(model.vocab))
    if not isinstance(per_input, np.ndarray) or per_input.shape != expected:
        got = per_input.shape if isinstance(per_input, np.ndarray) else type(per_input).__name__
        raise ValueError(f"score_batch returned {got}; expected an ndarray of shape {expected}")
    per_input = per_input.astype(float, copy=False)  # the floats the reduce and trace see
    return _REDUCERS[reduce](per_input, order), per_input


def ranked_score(raw: float, content_length: int, alpha: float) -> float:
    """Length-penalized ranking score: raw / max(1, content_length)**alpha.

    The bare end marker (content length 0) uses divisor 1. With alpha = 0
    the divisor is 1.0, so the result is the raw score bit for bit.
    """
    return raw / max(1, content_length) ** alpha


def _banned_next_tokens(prefix: TokenSeq, n: int) -> set[int]:
    """Tokens that would complete an n-gram already present in the prefix:
    each token that follows an occurrence of the prefix's last n - 1 tokens."""
    tail = prefix[len(prefix) - n + 1:]
    return {prefix[i + n - 1] for i in range(len(prefix) - n + 1) if prefix[i:i + n - 1] == tail}


def _allowed_tokens(
    combined: LogProbVector,
    prefix: TokenSeq,
    params: DecodeParams,
) -> np.ndarray:
    """Boolean mask of selectable next tokens for an unfinished prefix.

    BOS is never selectable; EOS is masked until min_len content tokens
    exist; once only one content slot remains, everything except EOS is
    masked; optional n-gram blocking removes repeats. Tokens the model
    scores at -inf are unselectable (their score could never recover).
    """
    content_len = len(prefix) - 1
    allowed = combined > -np.inf
    allowed[BOS_ID] = False
    if content_len < params.min_len:
        allowed[EOS_ID] = False
    if content_len == params.max_len - 1:
        keep_eos = allowed[EOS_ID]
        allowed[:] = False
        allowed[EOS_ID] = keep_eos
    if params.block_repeat_ngram is not None:
        for t in _banned_next_tokens(prefix, params.block_repeat_ngram):
            allowed[t] = False
    return allowed


def _constraint_summary(prefix: TokenSeq, params: DecodeParams) -> str:
    content_len = len(prefix) - 1
    parts = [f"content length {content_len}"]
    if content_len < params.min_len:
        parts.append(f"min_len={params.min_len} masks EOS")
    if content_len == params.max_len - 1:
        parts.append(f"max_len={params.max_len} forces EOS")
    if params.block_repeat_ngram is not None:
        parts.append(f"block_repeat_ngram={params.block_repeat_ngram}")
    return ", ".join(parts)


def _checked_inputs(
    inputs: list[TokenSeq], input_labels: tuple[str, ...] | None
) -> tuple[tuple[TokenSeq, ...], tuple[str, ...]]:
    """The inputs as tuples and one distinct string label per input
    (``input_<i>`` by default), checked before anything is scored, so each
    trace column is named apart."""
    if not inputs:
        raise ValueError("ensemble needs at least one input")
    inputs = tuple(tuple(x) for x in inputs)
    if input_labels is None:
        input_labels = tuple(f"input_{i}" for i in range(len(inputs)))
    labels = TraceMatrix(input_labels).input_labels  # the trace states the label rule
    if len(labels) != len(inputs):
        raise ValueError(f"got {len(labels)} input labels for {len(inputs)} inputs")
    return inputs, labels


def _scored(
    tokens: TokenSeq, raw: float, trace: TraceMatrix, params: DecodeParams
) -> ScoredHypothesis:
    return ScoredHypothesis(
        tokens=tokens,
        raw_score=raw,
        ranked_score=ranked_score(raw, len(tokens) - 1, params.length_penalty_alpha),
        trace=trace,
    )


def _trace_row(w: int, combined: LogProbVector, per_input: np.ndarray, vocab: Vocab) -> TraceRow:
    """The trace row of token ``w``: the combined and per-input scores that chose it."""
    return TraceRow(
        token_id=int(w),  # numpy integer tokens would not export to JSON
        token=vocab.token(w),
        combined=float(combined[w]),
        per_input=tuple(per_input[:, w].tolist()),
    )


STEP_BYTES_LIMIT = 2**30  # what a decode's step arrays may take (see `beam_search`)


def check_beam_memory(params: DecodeParams, width: int, n_inputs: int) -> None:
    """Refuse a ``beam_size`` whose decode over ``n_inputs`` inputs and ``width``
    tokens would hold more than `STEP_BYTES_LIMIT` bytes of step arrays. At most
    ``(width - 3) ** t`` prefixes of t content tokens exist, and t < max_len."""
    beam = int(params.beam_size)
    live = min(beam, (width - 3) ** min(params.max_len - 1, beam.bit_length()))
    need = live * width * (n_inputs + 2) * 8
    if need > STEP_BYTES_LIMIT:
        raise ValueError(f"beam_size {beam} lets {live} prefixes live, whose step arrays need "
                         f"about {need:,} bytes for {n_inputs} input(s) over {width} tokens; "
                         f"the limit is {STEP_BYTES_LIMIT:,}")


def beam_search(
    model: SequenceModel,
    inputs: list[TokenSeq],
    params: DecodeParams,
    input_labels: tuple[str, ...] | None = None,
) -> list[ScoredHypothesis]:
    """Ensemble beam search over a shared output prefix.

    Returns up to ``beam_size`` finished hypotheses, best ranked first.
    Each step scores every live prefix once and ranks all their selectable
    continuations together; a hypothesis that takes EOS is a result at
    once and joins the pool. The search stops once the pool holds
    ``beam_size`` results or no live hypothesis remains; the mask alone
    enforces ``max_len`` (see `_allowed_tokens`). A step with nothing
    selectable and an empty pool is a DecodeError naming the constraints
    in effect. All tie-breaks (pruning and final ranking) prefer the
    lexicographically smaller token-id sequence, so output is fully
    deterministic. Each trace holds exactly the scores the search used for
    the chosen tokens; nothing is rescored.

    Memory: a step holds ``(N + 2) * V`` floats for each live prefix (N
    inputs, V tokens), and at most ``beam_size`` prefixes live. A ``beam_size``
    that puts this past `STEP_BYTES_LIMIT` (1 GiB) is a ValueError before
    anything is scored (see `check_beam_memory`).
    """
    inputs, input_labels = _checked_inputs(inputs, input_labels)
    vocab = model.vocab
    width = len(vocab)
    check_beam_memory(params, width, len(inputs))

    order = ColumnOrder()
    live = [Hypothesis((BOS_ID,), 0.0)]
    pool: list[ScoredHypothesis] = []

    # Live prefixes grow together; at content length max_len - 1 the mask
    # leaves only EOS, so after at most max_len steps nothing is live.
    while live:
        steps = [ensemble_step(model, inputs, hyp.prefix, params.reduce, order) for hyp in live]
        scores = np.empty((len(live), width))
        allowed = np.empty((len(live), width), dtype=bool)
        for i, (hyp, (combined, per_input)) in enumerate(zip(live, steps)):
            # the mask, not a -inf score, marks what is selectable: two finite
            # scores near -1e308 can sum to -inf and must still rank. Masked
            # entries are never read, so they are not summed (-inf + inf is NaN)
            allowed[i] = _allowed_tokens(combined, hyp.prefix, params)
            np.add(hyp.ensemble_score, combined, out=scores[i], where=allowed[i])
            if allowed[i, EOS_ID]:
                row = _trace_row(EOS_ID, combined, per_input, vocab)
                trace = TraceMatrix(input_labels, hyp.rows + (row,))
                pool.append(_scored(hyp.prefix[1:] + (EOS_ID,), float(scores[i, EOS_ID]),
                                    trace, params))
        allowed[:, EOS_ID] = False
        flat = np.flatnonzero(allowed)
        if not len(flat) and not pool:
            raise DecodeError(
                "no viable continuation for any hypothesis "
                f"({_constraint_summary(live[0].prefix, params)})"
            )
        if len(pool) >= params.beam_size:
            break
        # Live prefixes share one length and stay in sequence order, so flat
        # index order is (prefix, token) order: the stable sort breaks score
        # ties toward the smaller sequence, and the survivors in ascending
        # flat index keep ``live`` in sequence order. Only entries scoring at
        # least the beam_size-th best are sorted; ties at the cut all stay.
        picked = scores.ravel()[flat]
        if len(flat) > params.beam_size:
            keep = picked >= np.partition(picked, -params.beam_size)[-params.beam_size]
            flat, picked = flat[keep], picked[keep]
        survivors = np.sort(flat[np.argsort(-picked, kind="stable")[: params.beam_size]])
        extended = []
        for i, w in zip(*np.divmod(survivors, width)):
            hyp, (combined, per_input) = live[i], steps[i]
            row = _trace_row(w, combined, per_input, vocab)
            extended.append(Hypothesis(hyp.prefix + (int(w),), float(scores[i, w]),
                                       hyp.rows + (row,)))
        live = extended

    pool.sort(key=lambda h: (-h.ranked_score, h.tokens))
    return pool[: params.beam_size]


MAX_BRUTE_FORCE_VOCAB = 8
MAX_BRUTE_FORCE_LEN = 8


def brute_force_search(
    model: SequenceModel,
    inputs: list[TokenSeq],
    params: DecodeParams,
    input_labels: tuple[str, ...] | None = None,
) -> ScoredHypothesis:
    """Exact search oracle: enumerate every admissible finished sequence.

    Walks the full tree of content-token prefixes under the same masking
    rules as the beam, scores every EOS-terminated leaf, and returns the
    best ranked one (ties to the lexicographically smallest token
    sequence). Its trace comes from `sequence_score`, independently of the
    beam. Guarded to desk scale.
    """
    inputs, input_labels = _checked_inputs(inputs, input_labels)
    if len(model.vocab) > MAX_BRUTE_FORCE_VOCAB or params.max_len > MAX_BRUTE_FORCE_LEN:
        raise ValueError(
            "brute-force search is limited to vocabularies of at most "
            f"{MAX_BRUTE_FORCE_VOCAB} tokens and max_len <= {MAX_BRUTE_FORCE_LEN}"
        )

    best_key: tuple[float, TokenSeq] | None = None
    best_raw = 0.0
    order = ColumnOrder()

    def walk(prefix: TokenSeq, score: float) -> None:
        nonlocal best_key, best_raw
        combined, _ = ensemble_step(model, inputs, prefix, params.reduce, order)
        allowed = _allowed_tokens(combined, prefix, params)
        for w in np.flatnonzero(allowed):
            w = int(w)
            new_score = score + float(combined[w])
            if w == EOS_ID:
                tokens = prefix[1:] + (w,)
                key = (
                    -ranked_score(new_score, len(tokens) - 1, params.length_penalty_alpha),
                    tokens,
                )
                if best_key is None or key < best_key:
                    best_key, best_raw = key, new_score
            else:
                walk(prefix + (w,), new_score)

    walk((BOS_ID,), 0.0)
    if best_key is None:
        raise DecodeError(
            "no admissible finished sequence exists under the given constraints"
        )
    tokens = best_key[1]
    _, trace = sequence_score(model, inputs, tokens, params.reduce, input_labels=input_labels)
    return _scored(tokens, best_raw, trace, params)


def sequence_score(
    model: SequenceModel,
    inputs: list[TokenSeq],
    tokens: TokenSeq,
    reduce: Reduce = Reduce.MEAN_LOGPROB,
    input_labels: tuple[str, ...] | None = None,
) -> tuple[float, TraceMatrix]:
    """Score an EOS-terminated sequence and record its provenance trace.

    The raw score is the sum over timesteps of the combined log-score of
    each token; the trace keeps the matching per-input log-scores. No
    length masks apply here: any well-formed sequence can be scored, and
    rescoring a beam search result reproduces its raw score.
    """
    inputs, input_labels = _checked_inputs(inputs, input_labels)
    tokens = tuple(tokens)
    vocab = model.vocab
    check_token_seq(tokens, vocab, "tokens")
    if tokens[-1] != EOS_ID:
        raise ValueError("sequence must end with the EOS id")
    for pos, t in enumerate(tokens[:-1]):
        if t == EOS_ID:
            raise ValueError(f"EOS appears mid-sequence at position {pos}")
        if t == BOS_ID:
            raise ValueError(f"BOS appears inside the sequence at position {pos}")

    raw = 0.0
    rows = []
    order = ColumnOrder()
    prefix: TokenSeq = (BOS_ID,)
    for t in tokens:
        combined, per_input = ensemble_step(model, inputs, prefix, reduce, order)
        rows.append(_trace_row(t, combined, per_input, vocab))
        raw += rows[-1].combined
        prefix = prefix + (t,)
    return raw, TraceMatrix(input_labels, rows)
