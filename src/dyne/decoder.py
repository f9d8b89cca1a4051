"""Shared-prefix ensemble beam search.

One model scores several inputs; at every timestep a reduce function combines
the per-input next-token distributions into one, so all inputs extend the same
output prefix, and the sum of the chosen tokens' combined log-scores is the
sequence score. A beam step makes one model call per distinct key (the prefix
tokens the model reads, its ``context``), reduces the new keys' ``[N, V]`` scores
as one stack, and ranks the live prefixes' candidates from each key's ranked head,
never a ``[B, V]`` array. A result's provenance trace is built when read, by
walking the steps' back-pointers, so nothing is rescored; a brute-force
enumerator is an exact oracle.

The reducers are the arithmetic mean of log-probabilities (the default, since
sequence scores add in log space) and the log of the mean of probabilities.
Both sum each column in sorted order, so decoding is bitwise invariant to
permuting or duplicating inputs; a search gathers through one column order.
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

    ``max_len`` bounds the generated tokens including the end marker; ``min_len``
    is the content tokens needed before it. ``length_penalty_alpha``, a real number
    stored as a float (0, the default, disables it), divides the raw score by
    ``content_length ** alpha`` at ranking time; ``(max_len - 1) ** alpha`` must be
    a finite float. ``seed`` feeds seeded preprocessing (document selection); the
    search ignores it. An integer field takes an ``int`` or a numpy integer, never
    a bool or another ``int`` subclass such as an enum.
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
    """The ``[B, V]`` reduce of the ``[B, N, V]`` ``stack``: a row with a column out of
    order is sorted in place (no reduce bit depends on where -0.0 and 0.0 fall), then
    the top row is checked, since a sorted column holds NaN and +inf only on top. A row
    of inputs that all hold the same bits (tested in place, row by row) reduces to that
    input, written over the one reduce of the whole stack unless every row is such a row;
    mean_logprob sums any other from -0.0 (a column of -0.0 stays -0.0), and mean_prob
    gives such a column 0.0."""
    rising = stack[:, :-1] <= stack[:, 1:]
    if not rising.all():  # re-sort each stale row alone
        for b in np.flatnonzero(~rising.reshape(len(stack), -1).all(axis=1)).tolist():
            stack[b].sort(axis=0)
    if not (stack[:, -1] < np.inf).all():  # false for NaN and +inf alike
        raise ValueError("model returned NaN or +inf; log-probabilities must be finite or -inf")
    # after the column sort, equal end rows mean equal values in every row; the
    # bit test then tells -0.0 from 0.0, which the sort leaves in either order
    bits = stack.view(np.int64)
    same = [b for b in (stack[:, 0] == stack[:, -1]).all(axis=1).nonzero()[0].tolist()
            if (bits[b] == bits[b, 0]).all()]
    if len(same) == len(stack):  # np.sum and exp/log would turn -0.0 into 0.0
        return stack[:, 0].copy()
    out = _REDUCERS[reduce](stack)
    if same:
        out[same] = stack[same, 0]
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
    """Elementwise arithmetic mean in log space, not renormalized; -inf propagates.
    Columns are summed sorted, so input order does not matter, and a run of
    identical distributions reduces to that distribution exactly."""
    return _reduce(per_input, Reduce.MEAN_LOGPROB)


def reduce_mean_prob(per_input: list[LogProbVector] | np.ndarray) -> LogProbVector:
    """Log of the elementwise arithmetic mean of probabilities, with a max shift for
    stability; normalized whenever the inputs are, and order-canonical."""
    return _reduce(per_input, Reduce.MEAN_PROB)


class _Search:
    """One search's inputs (a list or tuple of token lists or tuples, made tuples), one
    distinct string label per input (``input_<i>`` by default) and its model's
    ``context``, all checked before anything is scored; its memo; and its column order,
    the first key's ``[N, V]`` sort order as flat gather indices ``order * V + arange(V)``
    (`_combine` sorts a row it leaves out of order)."""

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

    def step(self, prefixes: list[TokenSeq]) -> list[list]:
        """Each prefix's memo entry ``[scores, row, head]``: its key's (its last ``context``
        tokens') ``[N, V]`` scores, ``[V]`` combined row and `_head` (None until built), by
        one model call per key the memo lacks, all combined at once. The memo first drops
        the keys no prefix has. A result of another type or shape is a ValueError."""
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
            if self.flat is None:  # in place: one [N, V] array, held to the search's end
                self.flat = np.argsort(per_inputs[b], axis=0)
                self.flat *= shape[1]
                self.flat += np.arange(shape[1])
            per_inputs[b].take(self.flat, out=stack[b], mode="clip")  # unbuffered; never clips
        if fresh:  # each row is copied, so no entry keeps a whole step's combine alive
            memo.update((key, [scores, row.copy(), None]) for key, scores, row
                        in zip(fresh, per_inputs, _combine(stack, self.reduce)))
        return [memo[key] for key in keys]


def _head(entry: list, m: int) -> np.ndarray:
    """A memo entry's new ``[2, m + 1]`` head, by one `np.partition` of its row over the
    tokens after EOS's id (BOS and EOS come first in every vocabulary): the (m + 1)-th
    largest value (-inf when m takes every token), then the values and ids (as floats)
    of the at most m tokens above it, in id order; -inf and an empty slot are NaN."""
    content, entry[2] = entry[1][EOS_ID + 1:], None  # a narrower head goes first
    head, cut = np.full((2, m + 1), np.nan), len(content) - m - 1
    below = np.partition(content, cut)[cut] if cut >= 0 else -np.inf
    ids = (content > below).nonzero()[0]
    head[0, 1:len(ids) + 1], head[1, 1:len(ids) + 1] = content[ids], ids + EOS_ID + 1
    head[0, 0] = below if below > -np.inf else np.nan
    entry[2] = head
    return head


def _trace(labels: tuple[str, ...], names: tuple[str, ...], tokens: TokenSeq,
           combined: np.ndarray, per_input: np.ndarray) -> TraceMatrix:
    """Row t of the trace of ``tokens`` holds ``int(tokens[t])`` (JSON takes no numpy
    integer), its name in ``names``, ``combined[t]`` and the ``[N]`` ``per_input[t]``."""
    return TraceMatrix(labels, [TraceRow(int(w), names[w], c, tuple(p)) for w, c, p
                                in zip(tokens, combined.tolist(), per_input.tolist())])


def ranked_score(raw: float, content_length: int, alpha: float) -> float:
    """raw / max(1, content_length) ** alpha; alpha 0 gives the raw score bit for bit."""
    return raw / max(1, content_length) ** alpha


def _rules(prefixes: list[TokenSeq], params: DecodeParams) -> tuple:
    """For unfinished prefixes of one length: whether EOS may follow (min_len content
    tokens exist) and whether it must (one content slot is left); the ``[B, S]`` ids that
    n-gram blocking bans, or None: each token after an occurrence of a prefix's last
    n - 1 tokens, by n - 1 comparisons over the ``[B, L]`` prefixes (a miss bans BOS,
    never a candidate); and the content length and rules, named as a DecodeError does."""
    content_len, n = len(prefixes[0]) - 1, params.block_repeat_ngram
    eos, forced, banned = content_len >= params.min_len, content_len == params.max_len - 1, None
    rules = [f"content length {content_len}", *[f"min_len={params.min_len} masks EOS"] * (not eos),
             *[f"max_len={params.max_len} forces EOS"] * forced]
    if n is not None:
        starts = len(prefixes[0]) - n + 1  # the n-grams in a prefix
        if starts > 0:  # hit[b, i]: prefix b's n-gram at i begins with its last n - 1 tokens
            live, hit = np.array(prefixes), np.ones((len(prefixes), starts), bool)  # [B, L]
            for j in range(n - 1):
                hit &= live[:, j:j + starts] == live[:, starts + j, None]
            banned = np.where(hit, live[:, n - 1:], BOS_ID)
        rules.append(f"block_repeat_ngram={n}")
    return eos, forced, banned, rules


def _rank(entries: list, m: int, raw: np.ndarray, banned, beam_size: int) -> tuple:
    """For live prefixes with memo ``entries``, running scores ``raw`` and `_rules` bans:
    their ``[B, 2, m + 1]`` heads; each head token's ``-(raw[b] + value)`` flat in (prefix,
    token) order, NaN if masked (never summed, as -inf + inf is NaN; sorted last); the
    best beam_size, ties to the smaller (prefix, token) by a stable sort; and whether a
    head must widen: a token row b leaves out sums to at most ``raw[b] + below[b]``, and
    might rank unless that is short of the beam_size-th best sum (a tie is not)."""
    heads = np.array([e[2] if e[2] is not None and e[2].shape[1] == m + 1 else _head(e, m)
                      for e in entries])
    neg = raw[:, None] + heads[:, 0, 1:]  # two finite scores near -1e308 can sum to -inf
    if banned is not None:  # a [B, m, S] test of each head token against its row's bans
        neg[(heads[:, 1, 1:, None] == banned[:, None]).any(axis=2)] = np.nan
    neg = np.negative(neg, out=neg).ravel()  # -(raw + c), not (-raw) - c, at signed zeros
    order, k = neg.argsort(kind="stable"), min(beam_size, len(neg))
    cut = neg[order[k - 1]]
    if math.isnan(cut):  # fewer candidates than beam_size: each ranks
        k, cut = len(neg) - np.isnan(neg).sum(), np.inf
    return heads, neg, order[:k], (raw + heads[:, 0, 0] >= -cut).any()


STEP_BYTES_LIMIT = 2**30  # what a decode's step arrays may take (see `beam_search`)


def check_beam_memory(params: DecodeParams, width: int, n_inputs: int) -> None:
    """Refuse a ``beam_size`` whose decode over ``n_inputs`` inputs and ``width`` tokens
    would hold more than `STEP_BYTES_LIMIT` bytes of step arrays and column order, counted
    as in `beam_search`: at most ``(width - 3) ** t`` prefixes of t < max_len tokens live."""
    beam, n = int(params.beam_size), params.block_repeat_ngram
    live = min(beam, (width - 3) ** min(params.max_len - 1, beam.bit_length()))
    bans = 0 if n is None else max(0, params.max_len - n)
    need = width * (live * ((3 * n_inputs + 9) * 8 + n_inputs + bans) + 8 * n_inputs)
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
    """Ensemble beam search over a shared output prefix: up to ``beam_size`` finished
    hypotheses, best ranked first. Each step scores each distinct key of the live
    prefixes at most once (see `_Search.step`); a prefix whose row scores EOS above
    -inf, where `_rules` allow it, joins the pool of results at once; and `_rank`
    ranks the other candidates from each key's head of m tokens (m starts at
    ``2 * beam_size`` and doubles while a token left out might rank). The search stops
    once the pool holds ``beam_size`` results or nothing is live; a step with nothing
    to extend and an empty pool is a DecodeError naming the rules in effect. Every
    tie goes to the lexicographically smaller token-id sequence.

    Each step records, per survivor, its parent's slot and copies of the combined
    score and ``[N]`` per-input column of the token it took; a pool entry, those of
    its EOS. A result's trace is built when read, by walking back-pointers; a result
    keeps those arrays, labels and token names, never the model or the inputs.

    Memory: per live prefix (N inputs, V tokens) a step holds ``(3 * N + 9) * V``
    floats and ``N * V`` bools: a memo entry's ``[N, V]`` scores, ``[V]`` row and head
    (at most 2 V + 2 floats); a new key's ``[B, N, V]`` stack row, column-order test
    and mean_prob temporary; and ``[V]`` rows for the reduce's shift, column sums,
    their quotient and log, the result and its copy in the memo. A ranking holds less,
    even at m = V, but for its n-gram ban test's bool per head token and ban (at most
    ``max_len - n`` bans). The search holds its ``[N, V]`` int64 column order once. A
    ``beam_size`` putting all this past `STEP_BYTES_LIMIT` (1 GiB) is a ValueError
    before anything is scored (see `check_beam_memory`).
    """
    search = _Search(model, inputs, input_labels, params.reduce)
    width = len(search.vocab)
    check_beam_memory(params, width, len(search.inputs))

    prefixes: list[TokenSeq] = [(BOS_ID,)]
    raw = np.zeros(1)  # each live prefix's running raw score
    history = []  # per step: [B] parent slots, [B] combined and [B, N] per-input scores
    pool = []  # (-ranked, tokens, raw, slot, EOS combined score, EOS per-input scores)
    m = min(width - EOS_ID - 1, 2 * params.beam_size)  # the heads' width; it only grows

    # Live prefixes grow together; at content length max_len - 1 the rules
    # leave only EOS, so after at most max_len steps nothing is live.
    while prefixes:
        entries = search.step(prefixes)
        eos, forced, banned, rules = _rules(prefixes, params)
        for i, end in enumerate(entry[1][EOS_ID] for entry in entries if eos):
            if end > -np.inf:  # a prefix that takes EOS is a result at once
                tokens, eos_raw = prefixes[i][1:] + (EOS_ID,), float(raw[i] + end)
                pool.append((-ranked_score(eos_raw, len(tokens) - 1, params.length_penalty_alpha),
                             tokens, eos_raw, i, end, entries[i][0][:, EOS_ID].copy()))
        if len(pool) >= params.beam_size:
            break
        while not forced:  # widen the heads until no token left out might rank
            heads, neg, top, grow = _rank(entries, m, raw, banned, params.beam_size)
            if not grow:
                break
            m = min(2 * m, width - EOS_ID - 1)
        if forced or not len(top):  # nothing to extend
            if pool:
                break
            raise DecodeError(f"no viable continuation for any hypothesis ({', '.join(rules)})")
        top.sort()  # (prefix, token) order, so that ``prefixes`` stay in sequence order
        parents, column = np.divmod(top, m)
        chosen = heads[parents, :, column + 1]  # past the column of what a head leaves out
        pairs = list(zip(parents.tolist(), chosen[:, 1].astype(int).tolist()))
        history.append((parents, chosen[:, 0],
                        np.array([entries[i][0][:, w] for i, w in pairs])))
        prefixes = [prefixes[i] + (w,) for i, w in pairs]
        raw = -neg[top]  # negation is exact: these are the sums
        del entries, heads, neg  # not held through the next step
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
    """Exact search oracle: walk every content-token prefix under the beam's rules
    (`_rules`) and return the best ranked finished sequence, ties to the smaller
    token sequence. It asks the model once per prefix it visits, with no memo, and
    its trace holds the scores its walk chose. Guarded to desk scale."""
    search = _Search(model, inputs, input_labels, params.reduce)
    if len(search.vocab) > MAX_BRUTE_FORCE_VOCAB or params.max_len > MAX_BRUTE_FORCE_LEN:
        raise ValueError("brute-force search is limited to vocabularies of at most "
                         f"{MAX_BRUTE_FORCE_VOCAB} tokens and max_len <= {MAX_BRUTE_FORCE_LEN}")

    best = None  # (-ranked, tokens, raw, rows) of the best finished sequence so far

    def walk(prefix: TokenSeq, score: float, rows: tuple) -> None:
        """Rank each finish of ``prefix``, whose tokens took (combined, [N]) ``rows``."""
        nonlocal best
        search.memo.clear()  # the oracle scores every prefix itself
        ((scores, combined, _),) = search.step([prefix])  # [N, V] and [V]
        eos, forced, banned, _ = _rules([prefix], params)
        allowed = combined > -np.inf  # a token scored -inf could never recover
        allowed[[BOS_ID, *[EOS_ID] * (not eos), *([] if banned is None else banned[0])]] = False
        allowed[EOS_ID + 1:] &= not forced  # a forced EOS is all that may follow
        for w in np.flatnonzero(allowed).tolist():
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
    """The raw score of an EOS-terminated sequence, the left-to-right sum of its
    tokens' combined log-scores, and its provenance trace. No length rule applies,
    and rescoring a beam search result reproduces its raw score and trace."""
    search, tokens = _Search(model, inputs, input_labels, reduce), tuple(tokens)
    check_token_seq(tokens, search.vocab, "tokens")
    if tokens[-1] != EOS_ID:
        raise ValueError("sequence must end with the EOS id")
    for pos, t in enumerate(tokens[:-1]):
        if t == EOS_ID:
            raise ValueError(f"EOS appears mid-sequence at position {pos}")
        if t == BOS_ID:
            raise ValueError(f"BOS appears inside the sequence at position {pos}")
    entries = search.step([(BOS_ID, *tokens[:i]) for i in range(len(tokens))])
    chosen = np.array([row[t] for (_, row, _), t in zip(entries, tokens)])
    raw = left_sum(chosen.tolist())  # the beam's sum
    return raw, _trace(search.labels, search.vocab.tokens, tokens, chosen,
                       np.array([s[:, t] for (s, _, _), t in zip(entries, tokens)]))
