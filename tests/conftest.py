"""Shared test helpers: a uniform test model, random toy models, a reference
plain decoder and a JSON mutator for loader fuzzing."""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import strategies as st

from dyne import CopyBigramModel, DecodeParams, ToyModelSpec, Vocab
from dyne.seqmodel import BOS_ID, EOS_ID, UNK_ID, check_token_seq


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


def random_toy_model(rng: np.random.Generator, max_content: int = 2):
    """A seeded copy/bigram model over a tiny vocabulary."""
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
    return CopyBigramModel(spec), vocab


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


def plain_beam_search(model, input_ids, params: DecodeParams):
    """Reference single-input beam search, written without the ensemble
    machinery: scores come straight from ``model.score_next``. Returns
    (tokens, raw_score, ranked_score) triples, best ranked first.

    Mirrors the documented search semantics: BOS never selectable, EOS
    masked below min_len, EOS forced at the last content slot, -inf tokens
    unselectable, finished hypotheses pooled, stop once the pool reaches
    beam_size, all ties to the lexicographically smaller sequence.
    """
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

    live = [((BOS_ID,), 0.0)]
    pool = []
    for _ in range(params.max_len):
        if not live:
            break
        survivors = []
        for prefix, score in live:
            scores = model.score_next(input_ids, prefix)
            content_len = len(prefix) - 1
            blocked = banned(prefix)
            for w in range(len(scores)):
                if w == BOS_ID or scores[w] == -np.inf or w in blocked:
                    continue
                if w == EOS_ID and content_len < params.min_len:
                    continue
                if w != EOS_ID and content_len >= params.max_len - 1:
                    continue
                cand = (prefix + (w,), score + float(scores[w]))
                if w == EOS_ID:
                    pool.append(cand)
                else:
                    survivors.append(cand)
        if len(pool) >= params.beam_size:
            break
        survivors.sort(key=lambda c: (-c[1], c[0]))
        live = survivors[: params.beam_size]
    pool.sort(key=lambda c: (-ranked(c[1], len(c[0]) - 2), c[0]))
    return [
        (prefix[1:], score, ranked(score, len(prefix) - 2))
        for prefix, score in pool[: params.beam_size]
    ]



def _json_paths(node, path=()):
    """Every position in a parsed JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def mutate_json(data, doc, values, serialize=json.dumps) -> str:
    """``doc`` after 1-3 random deletions or replacements drawn from
    ``values``, serialized, then maybe with a character-level edit on top."""
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
    if data.draw(st.booleans()):
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + data.draw(st.text(max_size=3)) + text[end:]
    return text
