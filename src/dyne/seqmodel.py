"""Conditional sequence models over a fixed vocabulary.

The decoder asks a model one question: given several inputs and their shared
output prefix, what is each input's log-probability of every next token?
Models here are small closed-form constructions whose distributions can be
checked by hand, which makes every decoder property exactly testable.

``CopyBigramModel`` mixes an add-k smoothed copy distribution over the
input's tokens with an add-k smoothed bigram distribution conditioned on the
last prefix token. It is deterministic and safe for concurrent read-only
scoring.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import (FormatError, is_integer, json_text, parse_object, read_input, real_number,
                     tuple_of, write_output)

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
UNK_TOKEN = "<unk>"

RESERVED_TOKENS = (BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

#: A token sequence is a tuple of vocabulary ids.
TokenSeq = tuple[int, ...]

#: A next-token distribution in log space, one entry per vocabulary id.
#: Entries may be ``-inf`` (masked) but never NaN or ``+inf``, either of
#: which stops a decode; model outputs satisfy ``|logsumexp(v)| <= 1e-6``.
LogProbVector = np.ndarray


_SURROGATE = re.compile("[\ud800-\udfff]")


def check_utf8(texts: Sequence[str], what: str) -> None:
    """Raise ValueError naming the first of ``texts`` that holds an unpaired
    surrogate: UTF-8 cannot encode it, so no output file could carry it."""
    if "".join(texts).isascii():  # the common case, one pass
        return
    for text in texts:
        if _SURROGATE.search(text):
            raise ValueError(f"{what} {text!r} holds an unpaired surrogate, "
                             "which UTF-8 cannot encode")


@dataclass(frozen=True)
class Vocab:
    """Ordered inventory of string tokens with reserved begin/end/unknown markers.

    Ids are positions in ``tokens`` (a list or tuple of strings, stored as a
    tuple); the first three are the reserved markers, so content ids start at 3.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple_of(self.tokens, str, "vocab tokens"))
        if len(self.tokens) < 4:
            raise ValueError(
                f"vocab needs the 3 reserved tokens plus at least one content "
                f"token, got {len(self.tokens)} entries"
            )
        if self.tokens[:3] != RESERVED_TOKENS:
            raise ValueError(
                f"vocab must start with the reserved tokens {RESERVED_TOKENS}, "
                f"got {self.tokens[:3]}"
            )
        index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            seen: set[str] = set()
            dup = next(t for t in self.tokens if t in seen or seen.add(t))
            raise ValueError(f"duplicate vocab token {dup!r}")
        check_utf8(self.tokens, "vocab token")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_content(cls, content: Iterable[str]) -> "Vocab":
        """Build a vocab from content tokens, any iterable but a str, prepending
        the reserved markers."""
        if isinstance(content, str):  # would give one token per character
            raise ValueError(f"vocab content must be an iterable of strings, got {content!r}")
        return cls(RESERVED_TOKENS + tuple(content))

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        """Exact lookup; raises KeyError for unknown tokens."""
        return self._index[token]

    def encode_token(self, token: str) -> int:
        """Lookup with out-of-vocabulary tokens mapped to the unknown id."""
        return self._index.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        if not (is_integer(idx) and 0 <= idx < len(self.tokens)):
            raise ValueError(f"token id {idx!r} out of range for vocab of size {len(self)}")
        return self.tokens[idx]

    @property
    def content_ids(self) -> tuple[int, ...]:
        """Ids of the non-reserved tokens."""
        return tuple(range(3, len(self.tokens)))


def check_token_seq(
    ids: TokenSeq,
    vocab: Vocab,
    name: str = "sequence",
    *,
    require_bos: bool = False,
) -> None:
    """Validate ids against a vocab; raises ValueError with context."""
    if not ids:
        raise ValueError(f"{name} must not be empty")
    size = len(vocab)
    for pos, t in enumerate(ids):  # DecodeParams' integer rule: never a bool or a float
        if not ((type(t) is int or isinstance(t, np.integer)) and 0 <= t < size):
            raise ValueError(f"{name}[{pos}] = {t!r} is not an integer token id, or out of "
                             f"vocabulary range [0, {size})")
    if require_bos and ids[0] != BOS_ID:
        raise ValueError(f"{name} must begin with the BOS id {BOS_ID}")


class SequenceModel(Protocol):
    """Anything that can score the next token for several inputs sharing one
    prefix; each row of a batch depends only on its own input and the prefix.
    A model may declare ``context``, an integer >= 0: its scores then depend only
    on the prefix's last ``context`` tokens, and the decoder makes one model call
    per distinct such key per step. ``None``, or no attribute, means the whole prefix."""

    @property
    def vocab(self) -> Vocab: ...

    def score_batch(self, inputs: Sequence[TokenSeq], prefix: TokenSeq) -> np.ndarray:
        """``[len(inputs), len(vocab)]`` next-token log-scores, one row per input;
        a NaN or ``+inf`` entry stops the decode with a ValueError."""


_SPEC_FIELDS = ("lambda", "smooth_k", "vocab", "bigram_counts")
_COLUMNS = {"prev": str, "next": str, "count": int}  # a file's bigram columns, by value type


class _BigramCounts(Mapping):
    """A read-only ``(prev, next) -> count`` view over three read-only arrays; a
    spec holds its own sorted by the pair key ``prev * V + next``."""

    def __init__(self, prev: np.ndarray, nxt: np.ndarray, count: np.ndarray):
        for array in (prev, nxt, count):
            array.setflags(write=False)
        self.prev, self.next, self.count = prev, nxt, count

    @functools.cached_property
    def _lookup(self) -> dict:  # built by the first lookup; loading and scoring never look up
        return dict(zip(self, self.count.tolist()))

    def __getitem__(self, pair):
        return self._lookup[pair]

    def __iter__(self):
        return zip(self.prev.tolist(), self.next.tolist())

    def __len__(self) -> int:
        return len(self.count)

    def __repr__(self) -> str:
        return f"bigram_counts({self._lookup!r})"


_NO_COUNTS = _BigramCounts(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, np.int64))


def _repeats(keys: np.ndarray) -> np.ndarray:
    """The positions of the keys that repeat an earlier key; the sort's
    temporaries are freed on return, before the spec is built."""
    order = np.argsort(keys, kind="stable")  # a key's first position leads its run
    runs = keys[order]
    return order[1:][runs[1:] == runs[:-1]]


@dataclass(frozen=True)
class ToyModelSpec:
    """Parameters of the copy/bigram mixture model.

    ``copy_weight`` interpolates between copying tokens from the input
    (weight 1) and a bigram continuation of the prefix (weight 0). Both
    component distributions are add-``smooth_k`` smoothed over the
    predictable alphabet: every content token plus the end marker. The
    begin and unknown markers are never predicted and carry probability
    zero (they are excluded from the alphabet rather than renormalized).

    Construction checks every value, so a spec built in code builds exactly
    when the same values in a file load, and round-trips through its file
    form. Both numbers are real (not bools), stored as plain floats, and
    ``smooth_k * (len(vocab) - 2)`` is finite. Counts map pairs of vocabulary
    ids (ints or numpy integers) to ``int`` counts in ``[0, 2**53)``, and
    ``<s>`` and ``<unk>`` are never a successor; the first pair given that
    breaks a rule is named. The spec is frozen and holds its counts as three
    read-only arrays, ``bigram_counts.prev``, ``.next`` and ``.count``, sorted
    by the pair key ``prev * V + next``; ``bigram_counts`` is a read-only
    mapping view over them.
    """

    copy_weight: float
    smooth_k: float
    bigram_counts: Mapping[tuple[int, int], int]
    vocab: Vocab

    def __post_init__(self) -> None:
        if not isinstance(self.vocab, Vocab):
            raise ValueError(f"vocab must be a Vocab, got {self.vocab!r}")
        for name, what in (("copy_weight", "copy weight (lambda)"), ("smooth_k", "smooth_k")):
            object.__setattr__(self, name, real_number(getattr(self, name), what))
        counts, given = self.bigram_counts, None
        if not isinstance(counts, _BigramCounts):  # not a loaded file's columns or a spec's
            given = [(p, n, c) for (p, n), c in dict(counts).items()]
            # a mistyped value becomes -1, which fails the range rule that names it
            typed = [[v if type(v) is int or (j < 2 and isinstance(v, np.integer)) else -1
                      for j, v in enumerate(item)] for item in given]
            counts = _BigramCounts(*np.array(typed, object).reshape(-1, 3).T)
        if not 0.0 <= self.copy_weight <= 1.0:
            raise ValueError(f"copy weight must lie in [0, 1], got {self.copy_weight}")
        alphabet = len(self.vocab) - 2  # both components divide by smooth_k * alphabet
        if not (self.smooth_k > 0 and math.isfinite(self.smooth_k * alphabet)):
            raise ValueError(f"smooth_k must be positive and finite times the {alphabet} "
                             f"predictable tokens, got {self.smooth_k}")
        object.__setattr__(self, "bigram_counts",  # no counts: no array passes
                           self._checked(counts, given) if len(counts) else _NO_COUNTS)

    def _checked(self, counts: _BigramCounts, given: list | None) -> _BigramCounts:
        """``counts`` sorted by pair key, after the value rules: one row of array
        tests per rule, in the order a pair is checked, so a fault names the first
        pair, in the order given, that breaks a rule, and the first rule it breaks."""
        prev, nxt, count, size = counts.prev, counts.next, counts.count, len(self.vocab)
        # a float holds every count below 2**53 exactly, and their sums stay finite
        faults = np.array([(prev < 0) | (prev >= size), (nxt < 0) | (nxt >= size),
                           (nxt == BOS_ID) | (nxt == UNK_ID), (count < 0) | (count >= 2**53)], bool)
        if faults.any():
            i = int(faults.any(axis=0).argmax())
            p, n, c = (given[i] if given is not None
                       else (int(prev[i]), int(nxt[i]), int(count[i])))
            rule, tokens = int(faults[:, i].argmax()), self.vocab.tokens
            if rule < 2:
                raise ValueError(f"bigram count id {(p, n)[rule]!r} not an integer in "
                                 "vocabulary range")
            pair = f"bigram count {tokens[p]!r}->{tokens[n]!r}"
            raise ValueError(f"{pair} targets unpredictable token {tokens[n]!r} as successor"
                             if rule == 2 else
                             f"{pair} must be a nonnegative integer below 2**53, got {c!r}")
        prev, nxt = prev.astype(np.intp, copy=False), nxt.astype(np.intp, copy=False)
        order = np.argsort(prev * size + nxt)
        return _BigramCounts(prev[order], nxt[order], count[order].astype(np.int64))

    def to_json_text(self) -> str:
        """Canonical serialization: sorted fields, and the counts as three
        columns in pair-key order."""
        tokens, counts = self.vocab.tokens, self.bigram_counts
        doc = {
            "lambda": self.copy_weight,
            "smooth_k": self.smooth_k,
            "vocab": list(tokens),
            "bigram_counts": {"prev": [tokens[p] for p in counts.prev.tolist()],
                              "next": [tokens[n] for n in counts.next.tolist()],
                              "count": counts.count.tolist()},
        }
        return json_text(doc)

    @classmethod
    def from_json_text(cls, text: str) -> "ToyModelSpec":
        """Parse a spec; every fault is a FormatError that starts with ``model spec: ``."""
        doc = parse_object(text, "model spec", required=_SPEC_FIELDS, allowed=_SPEC_FIELDS)
        try:
            return cls._from_doc(doc)
        except ValueError as exc:
            raise FormatError(f"model spec: {exc}") from exc

    @classmethod
    def _from_doc(cls, doc: dict) -> "ToyModelSpec":
        """The checks JSON adds, the columns' shape and types, token names and no
        repeated pair, as array tests with one hash per token; a fault is named by
        column and index. The counts are read into int64 unless one is past it."""
        vocab = Vocab(doc["vocab"])
        cols = doc["bigram_counts"]
        lists = [*cols.values()] if type(cols) is dict and cols.keys() == _COLUMNS.keys() else ()
        if not (lists and {*map(type, lists)} == {list} and len({*map(len, lists)}) == 1):
            raise FormatError("field 'bigram_counts' must be an object of three equal-length "
                              'lists, {"prev": [tokens], "next": [tokens], "count": [ints]}')
        if not cols["count"]:  # array checks need an entry, and would slow the load by a third
            return cls(doc["lambda"], doc["smooth_k"], _NO_COUNTS, vocab)
        n, ids, lookup = len(cols["count"]), {}, vocab._index.get
        for col in ("prev", "next"):  # one hash per value; -1 marks a miss
            try:
                ids[col] = np.fromiter(map(lookup, cols[col], itertools.repeat(-1)), np.intp, n)
            except TypeError:  # an unhashable list or dict, which the type scan names
                ids[col] = np.array([-1])
        unknown = {col: int(a.argmin()) for col, a in ids.items() if a.min() < 0}  # first misses
        for col, typ in _COLUMNS.items():  # json.loads yields exact types, so no bools
            # a column of hits holds only strs: json.loads makes nothing else equal to one
            if (col in unknown or col == "count") and not set(map(type, cols[col])) <= {typ}:
                i, v = next((i, v) for i, v in enumerate(cols[col]) if type(v) is not typ)
                raise FormatError(f"bigram_counts.{col}[{i}] = {v!r} is not of type {typ.__name__}")
        for col, i in unknown.items():
            raise FormatError(f"bigram_counts.{col}[{i}] names unknown token {cols[col][i]!r}")
        i = int(_repeats(ids["prev"] * len(vocab) + ids["next"]).min(initial=n))
        if i < n:
            raise FormatError(f"bigram_counts.prev[{i}] and .next[{i}] repeat pair "
                              f"{cols['prev'][i]!r}->{cols['next'][i]!r}")
        try:
            count = np.fromiter(cols["count"], np.int64, n)
        except OverflowError:  # past int64: a Python int, which the range rule names
            count = np.array(cols["count"], object)
        return cls(doc["lambda"], doc["smooth_k"], _BigramCounts(*ids.values(), count), vocab)

    def save(self, path: str | Path) -> None:
        write_output(path, self.to_json_text())

    @classmethod
    def load(cls, path: str | Path) -> "ToyModelSpec":
        text = read_input(path, "model spec")
        try:
            return cls.from_json_text(text)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc


class CopyBigramModel:
    """Mixture of an input-copy distribution and a prefix-bigram distribution.

    For a next token w over the predictable alphabet A (content tokens plus
    the end marker):

        p(w | x, prefix) = cw * copy(w | x) + (1 - cw) * bigram(w | prefix[-1])
        copy(w | x)      = (count(w in x, over A) + k) / (|x over A| + k * |A|)
        bigram(w | prev) = (C[prev, w] + k) / (sum_w' C[prev, w'] + k * |A|)

    Input tokens outside A (the unknown marker) do not contribute to the
    copy counts, keeping the distribution normalized. All the model holds
    derives from its frozen spec: the ``[V]`` mask of A (0 at ``<s>`` and
    ``<unk>``, so ``|A| = V - 2``), one copy-matrix entry for the last input
    set and the bigram table, built on first use from the spec's key-sorted
    count arrays with no pass over the pairs in Python; so its memory is bounded.
    """

    context = 1  # the bigram part reads the prefix's last token, the copy part none

    def __init__(self, spec: ToyModelSpec):
        self._spec = spec
        self._on_alphabet = np.ones(len(spec.vocab))
        self._on_alphabet[[BOS_ID, UNK_ID]] = 0.0
        self._copy_entry: tuple[tuple[TokenSeq, ...], np.ndarray] | None = None

    @property
    def vocab(self) -> Vocab:
        return self._spec.vocab

    def _copy_part(self, inputs: tuple[TokenSeq, ...]) -> np.ndarray:
        """``[N, V]`` weighted copy distributions; validates each new input set."""
        entry = self._copy_entry
        if entry is not None and entry[0] == inputs:
            return entry[1]
        for x in inputs:
            check_token_seq(x, self._spec.vocab, "input")
        mask, k = self._on_alphabet, self._spec.smooth_k
        counts = np.stack([np.bincount(x, minlength=len(mask)) for x in inputs]) * mask
        totals = counts.sum(axis=-1, keepdims=True) + k * (len(mask) - 2)
        part = self._spec.copy_weight * ((counts + k * mask) / totals)
        self._copy_entry = (inputs, part)
        return part

    @functools.cached_property
    def _bigram_table(self) -> tuple[np.ndarray, ...]:
        """The spec's key-sorted pairs, so equal specs sum each row in one order,
        with ``starts`` offsets, each row's fill ``w * (k / total)`` and each
        pair's ``w * ((c + k) / total)``."""
        counts, size = self._spec.bigram_counts, len(self._spec.vocab)
        prevs, raw = counts.prev, counts.count.astype(float)
        k, w = self._spec.smooth_k, 1.0 - self._spec.copy_weight
        totals = np.bincount(prevs, weights=raw, minlength=size) + k * (size - 2)
        starts = np.searchsorted(prevs, np.arange(size + 1))
        return w * (k / totals), starts, counts.next, w * ((raw + k) / totals[prevs])

    def _bigram_part(self, prev: int) -> np.ndarray:
        fill, starts, nexts, values = self._bigram_table
        row = self._on_alphabet * fill[prev]
        lo, hi = starts[prev], starts[prev + 1]
        row[nexts[lo:hi]] = values[lo:hi]
        return row

    def score_batch(self, inputs: Sequence[TokenSeq], prefix: TokenSeq) -> np.ndarray:
        inputs = tuple(map(tuple, tuple_of(inputs, (list, tuple), "inputs")))
        prefix = tuple(prefix)
        check_token_seq(prefix, self._spec.vocab, "prefix", require_bos=True)
        if not inputs:
            raise ValueError("score_batch needs at least one input")
        probs = self._copy_part(inputs) + self._bigram_part(prefix[-1])
        with np.errstate(divide="ignore"):
            return np.log(probs)

    def score_next(self, input_ids: TokenSeq, prefix: TokenSeq) -> LogProbVector:
        return self.score_batch([input_ids], prefix)[0]


def load_model(path: str | Path) -> CopyBigramModel:
    """Load the copy/bigram mixture model from a spec file."""
    return CopyBigramModel(ToyModelSpec.load(path))
