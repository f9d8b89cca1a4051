"""Shared test helpers: a uniform test model, random toy models, plain
reference reducers and a plain reference decoder, a JSON mutator for loader
fuzzing and an ``IntEnum`` for the integer rule."""

from __future__ import annotations

import enum
import json
import math

import numpy as np
from hypothesis import strategies as st

from dyne import CopyBigramModel, DecodeParams, Reduce, ToyModelSpec, Vocab
from dyne.seqmodel import BOS_ID, EOS_ID, UNK_ID, check_token_seq


class Level(enum.IntEnum):
    """An ``int`` subclass, so never an integer argument under the library's rule."""

    HIGH = 2


class UniformModel:
    """Assigns probability 1/|vocab| to every token, everywhere: every
    sequence of one length ties exactly."""

    def __init__(self, vocab: Vocab):
        self._vocab = vocab
        self._dist = np.full(len(vocab), -math.log(len(vocab)))

    @property
    def vocab(self) -> Vocab:
        return self._vocab

    def score_batch(self, inputs, prefix) -> np.ndarray:
        for x in inputs:
            check_token_seq(tuple(x), self._vocab, "input")
        check_token_seq(tuple(prefix), self._vocab, "prefix", require_bos=True)
        return np.tile(self._dist, (len(inputs), 1))

    def score_next(self, input_ids, prefix) -> np.ndarray:
        return self.score_batch([input_ids], prefix)[0]


def random_toy_model(rng: np.random.Generator, max_content: int = 2, cls=CopyBigramModel):
    """A seeded copy/bigram model over a tiny vocabulary, of class ``cls``."""
    n_content = int(rng.integers(1, max_content + 1))
    vocab = Vocab.from_content([f"w{i}" for i in range(n_content)])
    alphabet = [EOS_ID, *vocab.content_ids]
    counts = {}
    for prev in range(len(vocab)):
        for nxt in alphabet:
            if rng.random() < 0.5:
                counts[(prev, nxt)] = int(rng.integers(0, 50))
    spec = ToyModelSpec(
        copy_weight=float(rng.random()),
        smooth_k=float(rng.choice([0.1, 0.5, 1.0, 2.0])),
        bigram_counts=counts,
        vocab=vocab,
    )
    return cls(spec), vocab


def random_inputs(rng: np.random.Generator, vocab: Vocab, max_inputs: int = 3):
    """1..max_inputs random input sequences over content tokens and UNK."""
    choices = [*vocab.content_ids, UNK_ID]
    return [
        tuple(int(rng.choice(choices)) for _ in range(int(rng.integers(1, 6))))
        for _ in range(int(rng.integers(1, max_inputs + 1)))
    ]


def exhaustive_beam_size(vocab: Vocab, params: DecodeParams) -> int:
    """Upper bound on the number of admissible finished sequences."""
    content = len(vocab) - 2
    return sum(content**length for length in range(params.min_len, params.max_len)) + 1


def mean_logprob_by_rows(arr):
    """`reduce_mean_logprob` of one ``[N, V]`` stack, written plainly: sort each
    column, then add the rows one after another to 0.0, as ``np.sum`` does (so a
    column of -0.0 sums to 0.0), and divide by N."""
    arr = np.sort(arr, axis=0)
    bits = arr.view(np.int64)
    if (bits == bits[0]).all():  # a run of equal rows reduces to that row
        return arr[0].copy()
    total = np.zeros(arr.shape[1])
    for row in arr:
        total = total + row
    return total / len(arr)


def mean_prob_by_columns(arr):
    """`reduce_mean_prob` of one ``[N, V]`` stack as a lone-stack formula: sort
    each column, then sum each column of the shifted probabilities as one
    contiguous run (a Fortran-ordered array summed over axis 0)."""
    arr = np.take_along_axis(arr, np.argsort(arr, axis=0, kind="stable"), axis=0)
    bits = arr.view(np.int64)
    if (bits == bits[0]).all():  # a run of equal rows reduces to that row
        return arr[0].copy()
    top, out = arr[-1], np.full(arr.shape[1], -np.inf)
    live = top > -np.inf
    shifted = np.asfortranarray(np.exp(arr[:, live] - top[live]))
    out[live] = top[live] + np.log(np.sum(shifted, axis=0) / len(arr))
    return out


def plain_ensemble_beam_search(model, inputs, params: DecodeParams):
    """Reference ensemble beam search, written without the decoder's machinery:
    one ``model.score_batch`` call per live prefix, each ``[N, V]`` result
    reduced on its own (`mean_logprob_by_rows` or `mean_prob_by_columns`), and
    one sort of all of a step's candidates by (-score, sequence). Returns
    (tokens, raw_score, ranked_score, trace rows) per result, best ranked
    first; a trace row is (token id, token, combined score, per-input scores).

    Mirrors the documented search semantics: BOS never selectable, EOS
    masked below min_len, EOS forced at the last content slot, -inf tokens
    unselectable, repeated n-grams blocked, finished hypotheses pooled, stop
    once the pool reaches beam_size, all ties to the lexicographically
    smaller sequence. An empty list stands for a search with no result.
    """
    reduce = mean_prob_by_columns if params.reduce is Reduce.MEAN_PROB else mean_logprob_by_rows

    def ranked(raw, content_len):
        if params.length_penalty_alpha == 0.0:
            return raw
        return raw / max(1, content_len) ** params.length_penalty_alpha

    def banned(prefix):
        n = params.block_repeat_ngram
        if n is None or len(prefix) < n:
            return set()
        tail = prefix[len(prefix) - (n - 1):] if n > 1 else ()
        return {
            prefix[i + n - 1]
            for i in range(len(prefix) - n + 1)
            if prefix[i:i + n - 1] == tail
        }

    live = [((BOS_ID,), 0.0, ())]
    pool = []
    while live:
        candidates = []
        for prefix, score, rows in live:
            per_input = np.asarray(model.score_batch(inputs, prefix), dtype=float)
            combined = reduce(per_input)
            content_len = len(prefix) - 1
            blocked = banned(prefix)
            for w in range(len(combined)):
                if w == BOS_ID or combined[w] == -np.inf or w in blocked:
                    continue
                if w == EOS_ID and content_len < params.min_len:
                    continue
                if w != EOS_ID and content_len >= params.max_len - 1:
                    continue
                row = (w, model.vocab.tokens[w], float(combined[w]),
                       tuple(per_input[:, w].tolist()))
                cand = (prefix + (w,), score + row[2], rows + (row,))
                (pool if w == EOS_ID else candidates).append(cand)
        if len(pool) >= params.beam_size:
            break
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = candidates[: params.beam_size]
    pool.sort(key=lambda c: (-ranked(c[1], len(c[0]) - 2), c[0]))
    return [
        (prefix[1:], score, ranked(score, len(prefix) - 2), rows)
        for prefix, score, rows in pool[: params.beam_size]
    ]


def plain_beam_search(model, input_ids, params: DecodeParams):
    """`plain_ensemble_beam_search` on the one input ``input_ids``, as
    (tokens, raw_score, ranked_score) triples, best ranked first."""
    return [result[:3] for result in plain_ensemble_beam_search(model, [input_ids], params)]


def _json_paths(node, path=()):
    """Every position in a parsed JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


# JSON that a file can hold but json.dumps cannot write, each drawn as the string
# that names it: arrays nested past the parser's recursion limit, and an integer
# past the 4300 digits that int's str conversion takes
UNWRITABLE_JSON = {"<too deep>": "[" * 100_000 + "]" * 100_000, "<too long>": "9" * 5000}


def mutate_json(data, doc, values, serialize=json.dumps) -> str:
    """``doc`` after 1-3 random deletions or replacements drawn from ``values``,
    serialized with each `UNWRITABLE_JSON` name in place of its JSON, then maybe
    with a character-level edit on top."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(values)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    text = serialize(doc)
    for name, raw in UNWRITABLE_JSON.items():
        text = text.replace(json.dumps(name), raw)
    if data.draw(st.booleans()):
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + data.draw(st.text(max_size=3)) + text[end:]
    return text
