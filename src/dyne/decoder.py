"""Shared-prefix ensemble beam search.

One conditional model is applied independently to several inputs; at every
timestep the per-input next-token distributions are combined by a reduce
function into a single distribution, so all inputs extend the same output
prefix. The cumulative combined log-score of the chosen tokens is the
sequence score. A beam step makes one model call per distinct key per step,
a key being the prefix tokens the model reads (its ``context``): it checks and
reduces the new keys' ``[N, V]`` scores as one stack, keeps each key's scores
while a live prefix has it, and masks all live prefixes at once. Each step
keeps, per survivor, a back-pointer to its parent and the combined and
per-input scores of the token it took, as small arrays; a result's provenance
trace is built when read, by walking back-pointers, so nothing is rescored. A
brute-force enumerator over the same scoring rules is an exact search oracle.

Two reduce functions are provided: the arithmetic mean of log-probabilities
and the (log of the) arithmetic mean of probabilities. They generally
disagree; the log-space mean is the default because sequence scores compose
additively in log space. Both sum each column in sorted order, which makes
decoding bitwise invariant to permuting or duplicating inputs; a search's
steps share one `ColumnOrder`, so a step seldom sorts.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DecodeError, is_integer, real_number, tuple_of
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
            if not is_integer(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not is_integer(self.seed):
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
        if n is not None and not (is_integer(n) and n >= 1):
            raise ValueError(f"block_repeat_ngram must be a positive integer or None, got {n!r}")
        if not isinstance(self.reduce, Reduce):
            raise ValueError(f"reduce must be a Reduce member, got {self.reduce!r}")


@dataclass(frozen=True)
class ScoredHypothesis:
    """A finished decode: tokens (ending in EOS), scores, and a trace built when first read."""

    tokens: TokenSeq
    raw_score: float
    ranked_score: float
    _build_trace: Callable[[], TraceMatrix] = field(compare=False, repr=False)

    @functools.cached_property
    def trace(self) -> TraceMatrix:
        return self._build_trace()


class ColumnOrder:
    """A search's ``[N, V]`` column sort order, shared by all its steps, as flat
    gather indices ``order * V + arange(V)``, and the ``[B, N, V]`` stack each step
    gathers its new keys' scores into (see `_step`). A stack row with a column out
    of order is argsorted afresh, not stably (a non-decreasing column is the sorted
    one up to where equal values, -0.0 and 0.0, fall, which no reduce bit depends
    on), and its order shared from then on. Under `CopyBigramModel` a row rises
    with its input's fixed copy weight, so the order seldom goes stale in a decode."""

    flat: np.ndarray | None = None
    stack: np.ndarray = np.empty((0, 0, 0))

    def gather(self, arr: np.ndarray, out: np.ndarray, fresh: bool = False) -> None:
        """``arr`` into ``out`` through the shared order, sorted afresh if ``fresh`` or stale."""
        if fresh or self.flat is None or self.flat.shape != arr.shape:
            self.flat = np.argsort(arr, axis=0) * arr.shape[1] + np.arange(arr.shape[1])
        arr.take(self.flat, out=out)


def _combine(per_inputs: list[np.ndarray], stack: np.ndarray, reduce: Reduce,
             order: ColumnOrder) -> np.ndarray:
    """The ``[B, V]`` reduce of ``stack``, whose row b is ``per_inputs[b]`` gathered
    through ``order``, sorted, then checked on its top row: a rising column holds no
    NaN (NaN compares false) and +inf only on top, and an argsort puts NaN last. A
    row of inputs that all hold the same bits reduces to that input."""
    rising = stack[:, :-1] <= stack[:, 1:]
    if not rising.all():  # re-sort each stale row alone
        for b in np.flatnonzero(~rising.reshape(len(stack), -1).all(axis=1)).tolist():
            order.gather(per_inputs[b], stack[b], fresh=True)
    if not (stack[:, -1] < np.inf).all():  # false for NaN and +inf alike
        raise ValueError("model returned NaN or +inf; log-probabilities must be finite or -inf")
    # after the column sort, equal end rows mean equal values in every row; the
    # bit test then tells -0.0 from 0.0, which the sort leaves in either order
    same = (stack[:, 0] == stack[:, -1]).all(axis=1)
    if not same.any():
        return _REDUCERS[reduce](stack)
    bits = stack[same].view(np.int64)
    same[same] = (bits == bits[:, :1]).all(axis=(1, 2))
    out = stack[:, 0].copy()  # np.sum and exp/log would turn -0.0 into 0.0
    if not same.all():
        out[~same] = _REDUCERS[reduce](stack[~same])
    return out


def _mean_prob(stack: np.ndarray) -> np.ndarray:
    top = stack[:, -1]
    shift = np.where(top > -np.inf, top, 0.0)  # a column all -inf shifts by 0
    # a lone [N, V] stack's columns sum along their contiguous axis: pairwise from
    # N = 8 on, kept by a C-ordered [B, V, N]; below 8 row by row, alike and faster
    pairwise = stack.shape[1] >= 8
    shifted = (np.subtract(stack.transpose(0, 2, 1), shift[:, :, None], order="C") if pairwise
               else stack - shift[:, None])
    total = np.sum(np.exp(shifted, out=shifted), axis=2 if pairwise else 1)
    del shifted  # the step's one temporary of B * N * V floats
    np.maximum(total, 1.0, out=total)  # a live column sums to >= 1, one all -inf to 0
    return top + np.log(total / stack.shape[1])


_REDUCERS = {Reduce.MEAN_LOGPROB: lambda s: np.sum(s, axis=1) / s.shape[1],  # row by row
             Reduce.MEAN_PROB: _mean_prob}


def _reduce(per_input, order: ColumnOrder | None, reduce: Reduce) -> LogProbVector:
    """A checked ``[N, V]`` stack, combined as the one-prefix step of a search."""
    if isinstance(per_input, (list, tuple)):  # a list's rows may differ in length
        widths = {len(v) if np.ndim(v) else 0 for v in per_input}  # a scalar row has no len
        if len(widths) > 1:
            raise ValueError(f"distributions disagree on vocabulary size: {sorted(widths)}")
    arr = np.asarray(per_input, dtype=float)  # None or a scalar: shape ()
    if arr.shape[:1] == (0,):
        raise ValueError("reduce needs at least one distribution")
    if arr.ndim != 2:
        raise ValueError(f"reduce needs an [N, V] stack of distributions, got shape {arr.shape}")
    order = order or ColumnOrder()  # a reducer on its own sorts afresh
    stack = np.empty((1, *arr.shape))
    order.gather(arr, stack[0])
    return _combine([arr], stack, reduce, order)[0]


def reduce_mean_logprob(per_input: list[LogProbVector] | np.ndarray,
                        order: ColumnOrder | None = None) -> LogProbVector:
    """Elementwise arithmetic mean in log space; not renormalized.

    Masked (-inf) entries propagate. Columns are sorted before summation so
    the result does not depend on input order, and a run of identical
    distributions reduces to that distribution exactly.
    """
    return _reduce(per_input, order, Reduce.MEAN_LOGPROB)


def reduce_mean_prob(per_input: list[LogProbVector] | np.ndarray,
                     order: ColumnOrder | None = None) -> LogProbVector:
    """Log of the elementwise arithmetic mean of probabilities.

    Computed with a max shift for stability; normalized whenever the inputs
    are. Order-canonical for the same reason as `reduce_mean_logprob`.
    """
    return _reduce(per_input, order, Reduce.MEAN_PROB)


def _step(model: SequenceModel, inputs: tuple[TokenSeq, ...], prefixes: list[TokenSeq],
          reduce: Reduce, order: ColumnOrder, memo: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """One model call per distinct key (a prefix's last ``model.context`` tokens, see
    `SequenceModel`) that ``memo`` lacks, and one combine of their scores: the ``[B, V]``
    combined rows and each prefix's ``[N, V]`` scores. ``memo`` maps a key to its scores
    and combined row, first dropping each key no prefix here has, so it holds at most B
    entries. A result of another type or shape is a ValueError."""
    context = getattr(model, "context", None)
    if context is not None and not (is_integer(context) and context >= 0):
        raise ValueError(f"model context must be an integer >= 0 or None, got {context!r}")
    keys = [p if context is None else p[max(0, len(p) - context):] for p in prefixes]
    for key in memo.keys() - set(keys):
        del memo[key]
    # the new keys in first-occurrence order; their prefixes score alike by contract
    fresh = {key: prefix for key, prefix in zip(keys, prefixes) if key not in memo}
    expected = (len(inputs), len(model.vocab))
    if len(order.stack) < len(fresh) or order.stack.shape[1:] != expected:
        order.stack = np.empty((len(fresh), *expected))  # reused while it fits
    stack, per_inputs = order.stack[: len(fresh)], []
    for b, prefix in enumerate(fresh.values()):
        scores = model.score_batch(inputs, prefix)
        if not isinstance(scores, np.ndarray) or scores.shape != expected:
            got = scores.shape if isinstance(scores, np.ndarray) else type(scores).__name__
            raise ValueError(f"score_batch returned {got}; expected an ndarray of shape {expected}")
        per_inputs.append(scores.astype(float, copy=False))  # the floats the reduce and trace see
        order.gather(per_inputs[b], stack[b])  # while the scores are still in cache
    if fresh:  # each row is copied, so no entry keeps a whole step's combine alive
        memo.update((key, (scores, row.copy())) for key, scores, row
                    in zip(fresh, per_inputs, _combine(per_inputs, stack, reduce, order)))
    return np.array([memo[key][1] for key in keys]), [memo[key][0] for key in keys]


def ensemble_step(
    model: SequenceModel,
    inputs: list[TokenSeq],
    prefix: TokenSeq,
    reduce: Reduce = Reduce.MEAN_LOGPROB,
    order: ColumnOrder | None = None,
) -> tuple[LogProbVector, np.ndarray]:
    """Score the next token for every input in one model call, then combine.

    Returns the combined distribution and the ``[N, V]`` per-input
    distributions in input order: the one-prefix step of a search, on inputs
    checked as `beam_search` checks them. The combination is order-canonical;
    ``order`` is the caller's `ColumnOrder` for these inputs, if it keeps one.
    """
    inputs, _ = _checked_inputs(inputs, None)
    combined, per_input = _step(model, inputs, [prefix], reduce, order or ColumnOrder(), {})
    return combined[0], per_input[0]


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


def _allowed_tokens(combined: np.ndarray, prefixes: list[TokenSeq],
                    params: DecodeParams) -> np.ndarray:
    """``[B, V]`` mask of selectable next tokens for unfinished prefixes of one length.

    BOS is never selectable; EOS is masked until min_len content tokens
    exist; once only one content slot remains, everything except EOS is
    masked; optional n-gram blocking removes repeats, prefix by prefix. Tokens
    the model scores at -inf are unselectable (their score could never recover).
    """
    content_len = len(prefixes[0]) - 1
    allowed = combined > -np.inf
    allowed[:, BOS_ID] = False
    if content_len < params.min_len:
        allowed[:, EOS_ID] = False
    if content_len == params.max_len - 1:
        allowed[:, np.arange(allowed.shape[1]) != EOS_ID] = False
    if params.block_repeat_ngram is not None:
        for b, prefix in enumerate(prefixes):
            allowed[b, list(_banned_next_tokens(prefix, params.block_repeat_ngram))] = False
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
    """The inputs, a list or tuple of token lists or tuples (see `tuple_of`), as
    tuples, and one distinct string label per input (``input_<i>`` by default),
    checked before anything is scored, so each trace column is named apart."""
    checked = tuple(map(tuple, tuple_of(inputs, (list, tuple), "inputs")))
    inputs = inputs if checked == inputs else checked  # a tuple of tuples never changes
    if not inputs:
        raise ValueError("ensemble needs at least one input")
    if input_labels is None:
        input_labels = tuple(f"input_{i}" for i in range(len(inputs)))
    labels = TraceMatrix(input_labels).input_labels  # the trace states the label rule
    if len(labels) != len(inputs):
        raise ValueError(f"got {len(labels)} input labels for {len(inputs)} inputs")
    return inputs, labels


def _trace(labels: tuple[str, ...], vocab: Vocab, tokens: TokenSeq, combined: np.ndarray,
           per_input: np.ndarray) -> TraceMatrix:
    """Row t of the trace of ``tokens`` holds ``int(tokens[t])`` (JSON takes no numpy
    integer), its name in ``vocab``, ``combined[t]`` and the ``[N]`` ``per_input[t]``."""
    return TraceMatrix(labels, [TraceRow(int(w), vocab.tokens[w], c, tuple(p)) for w, c, p
                                in zip(tokens, combined.tolist(), per_input.tolist())])


STEP_BYTES_LIMIT = 2**30  # what a decode's step arrays may take (see `beam_search`)


def check_beam_memory(params: DecodeParams, width: int, n_inputs: int) -> None:
    """Refuse a ``beam_size`` whose decode over ``n_inputs`` inputs and ``width``
    tokens would hold more than `STEP_BYTES_LIMIT` bytes of step arrays, counted
    per live prefix as in `beam_search`. At most ``(width - 3) ** t`` prefixes of
    t content tokens exist, and t < max_len."""
    beam = int(params.beam_size)
    live = min(beam, (width - 3) ** min(params.max_len - 1, beam.bit_length()))
    need = live * width * ((3 * n_inputs + 9) * 8 + n_inputs)
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
    Each step scores each distinct key of the live prefixes at most once (see
    `_step`) and ranks all their selectable continuations together; a prefix
    that takes EOS is a result at once and joins the pool. The search stops
    once the pool holds ``beam_size`` results or no prefix is live; the mask
    alone enforces ``max_len`` (see `_allowed_tokens`). A step with nothing
    selectable and an empty pool is a DecodeError naming the constraints in
    effect. All tie-breaks (pruning and final ranking) prefer the
    lexicographically smaller token-id sequence, so output is deterministic.

    Each step records three small arrays: per survivor, its parent's slot,
    and copies of the combined score and ``[N]`` per-input column of the
    token it took; a pool entry keeps the same for its EOS. A result's trace
    is built when read, by walking back-pointers: it holds exactly the
    scores the search used, and nothing is rescored.

    Memory: per live prefix (N inputs, V tokens) a step holds ``(3 * N + 9) * V``
    floats and ``N * V`` bools: a memo entry's ``[N, V]`` scores and ``[V]`` row, a
    new key's ``[B, N, V]`` stack row, column-order test and mean_prob temporary;
    ``[V]`` rows for the reduce, the combined and running scores, their mask, and
    the ranking's negated scores, partitioned copy and cut test; at most ``beam_size``
    prefixes live. A ``beam_size`` putting this past `STEP_BYTES_LIMIT` (1 GiB) is
    a ValueError before anything is scored (see `check_beam_memory`).
    """
    inputs, input_labels = _checked_inputs(inputs, input_labels)
    vocab = model.vocab
    width = len(vocab)
    check_beam_memory(params, width, len(inputs))

    order, memo = ColumnOrder(), {}
    prefixes: list[TokenSeq] = [(BOS_ID,)]
    raw = np.zeros(1)  # each live prefix's running raw score
    history = []  # per step: [B] parent slots, [B] combined and [B, N] per-input scores
    pool = []  # (-ranked, tokens, raw, slot, EOS combined score, EOS per-input scores)

    # Live prefixes grow together; at content length max_len - 1 the mask
    # leaves only EOS, so after at most max_len steps nothing is live.
    while prefixes:
        combined, per_inputs = _step(model, inputs, prefixes, params.reduce, order, memo)
        # the mask, not a -inf score, marks what is selectable: two finite
        # scores near -1e308 can sum to -inf and must still rank. Masked
        # entries are NaN, never summed (-inf + inf is NaN) and never ranked
        allowed = _allowed_tokens(combined, prefixes, params)
        scores = np.full_like(combined, np.nan)
        np.add(raw[:, None], combined, out=scores, where=allowed)
        for i in np.flatnonzero(allowed[:, EOS_ID]).tolist():
            tokens, eos_raw = prefixes[i][1:] + (EOS_ID,), float(scores[i, EOS_ID])
            pool.append((-ranked_score(eos_raw, len(tokens) - 1, params.length_penalty_alpha),
                         tokens, eos_raw, i, combined[i, EOS_ID], per_inputs[i][:, EOS_ID].copy()))
        scores[:, EOS_ID] = np.nan
        if len(pool) >= params.beam_size:
            break
        # Only entries at or above the beam_size-th best score are sorted, ties
        # included; a partition puts NaN last, so a NaN cut means every entry ranks.
        # Live prefixes share one length and stay in sequence order, so flat index
        # order is (prefix, token) order: the stable sort breaks score ties toward
        # the smaller sequence, and survivors in flat order keep ``prefixes`` so.
        neg, k = -scores.ravel(), min(params.beam_size, scores.size) - 1  # sums stay in scores
        cut = np.partition(neg, k)[k]
        flat = np.flatnonzero(neg <= (np.inf if np.isnan(cut) else cut))
        if not len(flat) and not pool:
            raise DecodeError("no viable continuation for any hypothesis "
                              f"({_constraint_summary(prefixes[0], params)})")
        survivors = np.sort(flat[np.argsort(neg[flat], kind="stable")[: params.beam_size]])
        parents, taken = np.divmod(survivors, width)
        pairs = list(zip(parents.tolist(), taken.tolist()))
        history.append((parents, combined[parents, taken],
                        np.array([per_inputs[i][:, w] for i, w in pairs])))
        prefixes = [prefixes[i] + (w,) for i, w in pairs]
        raw = scores[parents, taken]
        del combined, per_inputs, scores, neg  # not held through the next step

    def trace_of(tokens: TokenSeq, slot: int, *eos) -> TraceMatrix:
        """The trace of the result that live prefix ``slot`` ended with EOS, scored
        ``eos``, after ``len(tokens) - 1`` steps, read back along its back-pointers."""
        rows = [eos]
        for parents, chosen, columns in reversed(history[: len(tokens) - 1]):
            rows.append((chosen[slot], columns[slot]))
            slot = parents[slot]
        return _trace(input_labels, vocab, tokens, *map(np.array, zip(*rows[::-1])))

    pool.sort(key=lambda entry: entry[:2])
    return [ScoredHypothesis(tokens, eos_raw, -neg, functools.partial(trace_of, tokens, *entry))
            for neg, tokens, eos_raw, *entry in pool[: params.beam_size]]


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

    best = None  # (-ranked, tokens, raw) of the best finished sequence so far
    order = ColumnOrder()

    def walk(prefix: TokenSeq, score: float) -> None:
        nonlocal best
        combined = _step(model, inputs, [prefix], params.reduce, order, {})[0][0]
        allowed = _allowed_tokens(combined[None], [prefix], params)[0]
        for w in np.flatnonzero(allowed).tolist():
            new_score = score + float(combined[w])
            if w != EOS_ID:
                walk(prefix + (w,), new_score)
                continue
            tokens = prefix[1:] + (w,)
            neg = -ranked_score(new_score, len(tokens) - 1, params.length_penalty_alpha)
            if best is None or (neg, tokens) < best[:2]:
                best = (neg, tokens, new_score)

    walk((BOS_ID,), 0.0)
    if best is None:
        raise DecodeError("no admissible finished sequence exists under the given constraints")
    neg, tokens, raw = best
    _, trace = sequence_score(model, inputs, tokens, params.reduce, input_labels=input_labels)
    return ScoredHypothesis(tokens, raw, -neg, lambda: trace)


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

    prefixes = [(BOS_ID, *tokens[:i]) for i in range(len(tokens))]
    combined, per_inputs = _step(model, inputs, prefixes, reduce, ColumnOrder(), {})
    chosen = combined[np.arange(len(tokens)), tokens]
    raw = functools.reduce(float.__add__, chosen.tolist(), 0.0)  # the beam's sum, left to right
    return raw, _trace(input_labels, vocab, tokens, chosen,
                       np.array([scores[:, t] for scores, t in zip(per_inputs, tokens)]))
