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
brute-force enumerator, carrying those scores down its walk, is an exact oracle.

Two reduce functions are provided: the arithmetic mean of log-probabilities
and the (log of the) arithmetic mean of probabilities. They generally
disagree; the log-space mean is the default because sequence scores compose
additively in log space. Both sum each column in sorted order, which makes
decoding bitwise invariant to permuting or duplicating inputs; a search's
steps gather through one column order, set from its first key (see `_Search`).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DecodeError, is_integer, real_number, tuple_of
from .provenance import TraceMatrix, TraceRow, left_sum
from .seqmodel import (
    BOS_ID,
    EOS_ID,
    LogProbVector,
    SequenceModel,
    TokenSeq,
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


def _combine(stack: np.ndarray, reduce: Reduce) -> np.ndarray:
    """The ``[B, V]`` reduce of the ``[B, N, V]`` ``stack``, a row with a column out of
    order sorted in place first (a non-decreasing column is the sorted one up to where
    -0.0 and 0.0 fall, which no reduce bit depends on), then checked on its top row: a
    sorted column holds no NaN (NaN compares false and sorts last) and +inf only on
    top. A row of inputs that all hold the same bits reduces to that input. Any other
    row under mean_logprob sums each column row by row from -0.0, so a column of -0.0
    alone reduces to -0.0; mean_prob adds log(1.0) = 0.0 to such a column's top, 0.0."""
    rising = stack[:, :-1] <= stack[:, 1:]
    if not rising.all():  # re-sort each stale row alone
        for b in np.flatnonzero(~rising.reshape(len(stack), -1).all(axis=1)).tolist():
            stack[b].sort(axis=0)
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


_REDUCERS = {Reduce.MEAN_LOGPROB: lambda s: np.sum(s, axis=1, initial=-0.0) / s.shape[1],
             Reduce.MEAN_PROB: _mean_prob}


def _reduce(per_input, reduce: Reduce) -> LogProbVector:
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
    return _combine(np.sort(arr, axis=0)[None], reduce)[0]


def reduce_mean_logprob(per_input: list[LogProbVector] | np.ndarray) -> LogProbVector:
    """Elementwise arithmetic mean in log space; not renormalized.

    Masked (-inf) entries propagate. Columns are sorted before summation so
    the result does not depend on input order, and a run of identical
    distributions reduces to that distribution exactly.
    """
    return _reduce(per_input, Reduce.MEAN_LOGPROB)


def reduce_mean_prob(per_input: list[LogProbVector] | np.ndarray) -> LogProbVector:
    """Log of the elementwise arithmetic mean of probabilities.

    Computed with a max shift for stability; normalized whenever the inputs
    are. Order-canonical for the same reason as `reduce_mean_logprob`.
    """
    return _reduce(per_input, Reduce.MEAN_PROB)


class _Search:
    """One search's inputs, a list or tuple of token lists or tuples (see `tuple_of`) made
    tuples, one distinct string label per input (``input_<i>`` by default, so each trace
    column is named apart) and its model's ``context``, all checked before anything is
    scored; its memo; and its column order, the ``[N, V]`` sort order as flat gather
    indices ``order * V + arange(V)``, set once from the first key scored, in the shape
    `step` checks. `_combine` sorts a row left out of order. Under `CopyBigramModel` a
    row rises with its input's fixed copy weight: 0 of 629 and 0 of 500 rows went
    stale in 60 ``wide`` and 500 ``sweep`` pool decodes."""

    def __init__(self, model: SequenceModel, inputs: list[TokenSeq],
                 input_labels: tuple[str, ...] | None, reduce: Reduce):
        checked = tuple(map(tuple, tuple_of(inputs, (list, tuple), "inputs")))
        self.inputs = inputs if checked == inputs else checked  # a tuple of tuples never changes
        if not self.inputs:
            raise ValueError("ensemble needs at least one input")
        if input_labels is None:
            input_labels = tuple(f"input_{i}" for i in range(len(self.inputs)))
        self.labels = TraceMatrix(input_labels).input_labels  # the trace states the label rule
        if len(self.labels) != len(self.inputs):
            raise ValueError(f"got {len(self.labels)} input labels for {len(self.inputs)} inputs")
        context = getattr(model, "context", None)
        if context is not None and not (is_integer(context) and context >= 0):
            raise ValueError(f"model context must be an integer >= 0 or None, got {context!r}")
        self.model, self.vocab, self.reduce, self.context = model, model.vocab, reduce, context
        self.shape = (len(self.inputs), len(self.vocab))
        self.flat, self.memo = None, {}

    def step(self, prefixes: list[TokenSeq]) -> tuple[np.ndarray, list[np.ndarray]]:
        """One model call per distinct key (a prefix's last ``context`` tokens, see
        `SequenceModel`) that the memo lacks, and one combine of their scores: the ``[B,
        V]`` combined rows and each prefix's ``[N, V]`` scores. The memo maps a key to its
        scores and combined row, first dropping each key no prefix here has, so it holds
        at most B entries. A result of another type or shape is a ValueError."""
        context, memo, shape = self.context, self.memo, self.shape
        keys = [p if context is None else p[max(0, len(p) - context):] for p in prefixes]
        for key in memo.keys() - set(keys):
            del memo[key]
        # the new keys in first-occurrence order; their prefixes score alike by contract
        fresh = {key: prefix for key, prefix in zip(keys, prefixes) if key not in memo}
        stack, per_inputs = np.empty((len(fresh), *shape)), []
        for b, prefix in enumerate(fresh.values()):
            scores = self.model.score_batch(self.inputs, prefix)
            if not isinstance(scores, np.ndarray) or scores.shape != shape:
                got = scores.shape if isinstance(scores, np.ndarray) else type(scores).__name__
                raise ValueError(f"score_batch returned {got}; expected an ndarray of shape "
                                 f"{shape}")
            per_inputs.append(scores.astype(float, copy=False))  # what the reduce and trace see
            if self.flat is None:
                self.flat = np.argsort(per_inputs[b], axis=0) * shape[1] + np.arange(shape[1])
            per_inputs[b].take(self.flat, out=stack[b], mode="clip")  # unbuffered; never clips
        if fresh:  # each row is copied, so no entry keeps a whole step's combine alive
            memo.update((key, (scores, row.copy())) for key, scores, row
                        in zip(fresh, per_inputs, _combine(stack, self.reduce)))
        return np.array([memo[key][1] for key in keys]), [memo[key][0] for key in keys]


def _trace(labels: tuple[str, ...], names: tuple[str, ...], tokens: TokenSeq,
           combined: np.ndarray, per_input: np.ndarray) -> TraceMatrix:
    """Row t of the trace of ``tokens`` holds ``int(tokens[t])`` (JSON takes no numpy
    integer), its name in ``names``, ``combined[t]`` and the ``[N]`` ``per_input[t]``."""
    return TraceMatrix(labels, [TraceRow(int(w), names[w], c, tuple(p)) for w, c, p
                                in zip(tokens, combined.tolist(), per_input.tolist())])


def ranked_score(raw: float, content_length: int, alpha: float) -> float:
    """Length-penalized ranking score: raw / max(1, content_length)**alpha.

    The bare end marker (content length 0) uses divisor 1. With alpha = 0
    the divisor is 1.0, so the result is the raw score bit for bit.
    """
    return raw / max(1, content_length) ** alpha


def _allowed_tokens(combined: np.ndarray, prefixes: list[TokenSeq],
                    params: DecodeParams) -> tuple[np.ndarray, list[str]]:
    """``[B, V]`` mask of selectable next tokens for unfinished prefixes of one length,
    and the content length and rules it applied, named as a DecodeError names them.

    BOS is never selectable; EOS is masked until min_len content tokens exist; once
    only one content slot remains, every column but EOS's is masked; n-gram blocking
    bans each token that follows an occurrence of a prefix's last n - 1 tokens, found
    by n - 1 comparisons over the ``[B, L]`` prefix matrix and cleared at once (a miss
    clears BOS), so a mask takes the same few array operations for any B and L. Tokens
    the model scores at -inf are unselectable (their score could never recover).
    """
    content_len, n = len(prefixes[0]) - 1, params.block_repeat_ngram
    allowed, rules = combined > -np.inf, [f"content length {content_len}"]
    allowed[:, BOS_ID] = False
    if content_len < params.min_len:
        allowed[:, EOS_ID] = False
        rules.append(f"min_len={params.min_len} masks EOS")
    if content_len == params.max_len - 1:
        allowed[:, :EOS_ID] = allowed[:, EOS_ID + 1:] = False
        rules.append(f"max_len={params.max_len} forces EOS")
    if n is not None:
        starts = len(prefixes[0]) - n + 1  # the n-grams in a prefix
        if starts > 0:  # hit[b, i]: prefix b's n-gram at i begins with its last n - 1 tokens
            live, hit = np.array(prefixes), np.ones((len(prefixes), starts), bool)  # [B, L]
            for j in range(n - 1):
                hit &= live[:, j:j + starts] == live[:, starts + j, None]
            allowed[np.arange(len(live))[:, None], np.where(hit, live[:, n - 1:], BOS_ID)] = False
        rules.append(f"block_repeat_ngram={n}")
    return allowed, rules


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
    `_Search.step`), masks them all with one `_allowed_tokens` call and ranks all
    their selectable continuations together; a prefix that takes EOS is a result at
    once and joins the pool. The search stops once the pool holds ``beam_size``
    results or no prefix is live; the mask alone enforces ``max_len``. A step with nothing
    selectable and an empty pool is a DecodeError naming the constraints in
    effect. All tie-breaks (pruning and final ranking) prefer the
    lexicographically smaller token-id sequence, so output is deterministic.

    Each step records three small arrays: per survivor, its parent's slot,
    and copies of the combined score and ``[N]`` per-input column of the
    token it took; a pool entry keeps the same for its EOS. A result's trace
    is built when read, by walking back-pointers: it holds exactly the
    scores the search used, and nothing is rescored. A result keeps those arrays,
    labels and token names, never the model, the inputs or an ``[N, V]`` array.

    Memory: per live prefix (N inputs, V tokens) a step holds ``(3 * N + 9) * V``
    floats and ``N * V`` bools: a memo entry's ``[N, V]`` scores and ``[V]`` row, a
    new key's ``[B, N, V]`` stack row, column-order test and mean_prob temporary;
    ``[V]`` rows for the reduce, the combined and running scores, their mask, and
    the ranking's negated scores, partitioned copy and cut test; at most ``beam_size``
    prefixes live. A ``beam_size`` putting this past `STEP_BYTES_LIMIT` (1 GiB) is
    a ValueError before anything is scored (see `check_beam_memory`).
    """
    search = _Search(model, inputs, input_labels, params.reduce)
    width = len(search.vocab)
    check_beam_memory(params, width, len(search.inputs))

    prefixes: list[TokenSeq] = [(BOS_ID,)]
    raw = np.zeros(1)  # each live prefix's running raw score
    history = []  # per step: [B] parent slots, [B] combined and [B, N] per-input scores
    pool = []  # (-ranked, tokens, raw, slot, EOS combined score, EOS per-input scores)

    # Live prefixes grow together; at content length max_len - 1 the mask
    # leaves only EOS, so after at most max_len steps nothing is live.
    while prefixes:
        combined, per_inputs = search.step(prefixes)
        # the mask, not a -inf score, marks what is selectable: two finite
        # scores near -1e308 can sum to -inf and must still rank. Masked
        # entries are NaN, never summed (-inf + inf is NaN) and never ranked
        allowed, rules = _allowed_tokens(combined, prefixes, params)
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
            raise DecodeError(f"no viable continuation for any hypothesis ({', '.join(rules)})")
        survivors = np.sort(flat[np.argsort(neg[flat], kind="stable")[: params.beam_size]])
        parents, taken = np.divmod(survivors, width)
        pairs = list(zip(parents.tolist(), taken.tolist()))
        history.append((parents, combined[parents, taken],
                        np.array([per_inputs[i][:, w] for i, w in pairs])))
        prefixes = [prefixes[i] + (w,) for i, w in pairs]
        raw = scores[parents, taken]
        del combined, per_inputs, scores, neg  # not held through the next step
    labels, names = search.labels, search.vocab.tokens  # what a trace needs of the search

    def trace_of(tokens: TokenSeq, slot: int, *eos) -> TraceMatrix:
        """The trace of the result that live prefix ``slot`` ended with EOS, scored
        ``eos``, after ``len(tokens) - 1`` steps, read back along its back-pointers."""
        rows = [eos]
        for parents, chosen, columns in reversed(history[: len(tokens) - 1]):
            rows.append((chosen[slot], columns[slot]))
            slot = parents[slot]
        return _trace(labels, names, tokens, *map(np.array, zip(*rows[::-1])))

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
    sequence). It asks the model once per prefix it visits, independently of
    the beam and of any memo, and its trace holds the scores its walk chose,
    which are the ones `sequence_score` gives. Guarded to desk scale.
    """
    search = _Search(model, inputs, input_labels, params.reduce)
    if len(search.vocab) > MAX_BRUTE_FORCE_VOCAB or params.max_len > MAX_BRUTE_FORCE_LEN:
        raise ValueError(
            "brute-force search is limited to vocabularies of at most "
            f"{MAX_BRUTE_FORCE_VOCAB} tokens and max_len <= {MAX_BRUTE_FORCE_LEN}"
        )

    best = None  # (-ranked, tokens, raw, rows) of the best finished sequence so far

    def walk(prefix: TokenSeq, score: float, rows: tuple) -> None:
        """Rank each finish of ``prefix``, whose tokens took (combined, [N]) ``rows``."""
        nonlocal best
        search.memo.clear()  # the oracle scores every prefix itself
        (combined,), (scores,) = search.step([prefix])  # [V] and [N, V]
        for w in np.flatnonzero(_allowed_tokens(combined[None], [prefix], params)[0][0]).tolist():
            new_score, new_rows = score + float(combined[w]), (*rows, (combined[w], scores[:, w]))
            if w != EOS_ID:
                walk(prefix + (w,), new_score, new_rows)
                continue
            tokens = prefix[1:] + (w,)
            neg = -ranked_score(new_score, len(tokens) - 1, params.length_penalty_alpha)
            if best is None or (neg, tokens) < best[:2]:
                best = (neg, tokens, new_score, new_rows)

    walk((BOS_ID,), 0.0, ())
    if best is None:
        raise DecodeError("no admissible finished sequence exists under the given constraints")
    neg, tokens, raw, rows = best
    return ScoredHypothesis(tokens, raw, -neg, functools.partial(
        _trace, search.labels, search.vocab.tokens, tokens, *map(np.array, zip(*rows))))


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
    search, tokens = _Search(model, inputs, input_labels, reduce), tuple(tokens)
    check_token_seq(tokens, search.vocab, "tokens")
    if tokens[-1] != EOS_ID:
        raise ValueError("sequence must end with the EOS id")
    for pos, t in enumerate(tokens[:-1]):
        if t == EOS_ID:
            raise ValueError(f"EOS appears mid-sequence at position {pos}")
        if t == BOS_ID:
            raise ValueError(f"BOS appears inside the sequence at position {pos}")
    combined, per_inputs = search.step([(BOS_ID, *tokens[:i]) for i in range(len(tokens))])
    chosen = combined[np.arange(len(tokens)), tokens]
    raw = left_sum(chosen.tolist())  # the beam's sum
    return raw, _trace(search.labels, search.vocab.tokens, tokens, chosen,
                       np.array([s[:, t] for s, t in zip(per_inputs, tokens)]))
