"""Conditional sequence models over a fixed vocabulary.

The decoder asks a model one question: given several inputs and their shared
output prefix, what is each input's log-probability of every next token?
Models here are small closed-form constructions whose distributions can be
checked by hand, which makes every decoder property exactly testable.

Two model kinds are provided:

* ``UniformModel`` assigns every vocabulary entry the same probability,
  regardless of input or prefix.
* ``CopyBigramModel`` mixes an add-k smoothed copy distribution over the
  input's tokens with an add-k smoothed bigram distribution conditioned on
  the last prefix token.

Both are deterministic and safe for concurrent read-only scoring.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from .errors import FormatError, json_text, parse_object, read_input, write_output

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
    """Ordered token inventory with reserved begin/end/unknown markers.

    Ids are contiguous positions in ``tokens``; the first three entries are
    always the reserved markers, so content tokens start at id 3.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
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
        """Build a vocab from content tokens, prepending the reserved markers."""
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
        if not 0 <= idx < len(self.tokens):
            raise ValueError(f"token id {idx} out of range for vocab of size {len(self)}")
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
    for pos, t in enumerate(ids):
        if not 0 <= t < size:
            raise ValueError(f"{name}[{pos}] = {t} out of vocabulary range [0, {size})")
    if require_bos and ids[0] != BOS_ID:
        raise ValueError(f"{name} must begin with the BOS id {BOS_ID}")


class SequenceModel(Protocol):
    """Anything that can score the next token for several inputs sharing one prefix."""

    @property
    def vocab(self) -> Vocab: ...

    def score_batch(self, inputs: Sequence[TokenSeq], prefix: TokenSeq) -> np.ndarray:
        """``[len(inputs), len(vocab)]`` next-token log-scores, one row per input;
        a NaN or ``+inf`` entry stops the decode with a ValueError."""


_SPEC_FIELDS = ("lambda", "smooth_k", "vocab", "bigram_counts")


@dataclass
class ToyModelSpec:
    """Parameters of the copy/bigram mixture model.

    ``copy_weight`` interpolates between copying tokens from the input
    (weight 1) and a bigram continuation of the prefix (weight 0). Both
    component distributions are add-``smooth_k`` smoothed over the
    predictable alphabet: every content token plus the end marker. The
    begin and unknown markers are never predicted and carry probability
    zero (they are excluded from the alphabet rather than renormalized).
    """

    copy_weight: float
    smooth_k: float
    bigram_counts: dict[tuple[int, int], int]
    vocab: Vocab

    def __post_init__(self) -> None:
        if not 0.0 <= self.copy_weight <= 1.0:
            raise ValueError(f"copy weight must lie in [0, 1], got {self.copy_weight}")
        if not (self.smooth_k > 0 and math.isfinite(self.smooth_k)):
            raise ValueError(f"smooth_k must be finite and positive, got {self.smooth_k}")
        size = len(self.vocab)
        for pair, count in self.bigram_counts.items():
            prev, nxt = pair
            if not (type(prev) is int and type(nxt) is int and type(count) is int
                    and 0 <= count < 2**53 and 0 <= prev < size and 0 <= nxt < size
                    and BOS_ID != nxt != UNK_ID):
                self._check_count(pair, count)  # names the fault, or accepts numpy ids

    def _check_count(self, pair: tuple[int, int], count: int) -> None:
        """Raise ValueError naming what is wrong with one bigram count, if anything."""
        for t in pair:
            if isinstance(t, bool) or not isinstance(t, Integral) or not 0 <= t < len(self.vocab):
                raise ValueError(f"bigram count id {t!r} not an integer in vocabulary range")
        if pair[1] in (BOS_ID, UNK_ID):
            raise ValueError(
                f"bigram count targets unpredictable token "
                f"{self.vocab.token(pair[1])!r} as successor"
            )
        # a float holds every count below 2**53 exactly, and their sums stay finite
        if isinstance(count, bool) or not isinstance(count, int) or not 0 <= count < 2**53:
            raise ValueError(f"bigram count for {pair} must be a nonnegative integer below 2**53")

    def to_json_text(self) -> str:
        """Canonical serialization: sorted fields, sorted count triples."""
        triples = sorted(
            [self.vocab.token(p), self.vocab.token(n), c]
            for (p, n), c in self.bigram_counts.items()
        )
        doc = {
            "lambda": self.copy_weight,
            "smooth_k": self.smooth_k,
            "vocab": list(self.vocab.tokens),
            "bigram_counts": triples,
        }
        return json_text(doc)

    @classmethod
    def from_json_text(cls, text: str) -> "ToyModelSpec":
        """Parse a spec; every fault is a ValueError that starts with ``model spec: ``."""
        doc = parse_object(text, "model spec", required=_SPEC_FIELDS, allowed=_SPEC_FIELDS)
        try:
            return cls._from_doc(doc)
        except ValueError as exc:
            raise type(exc)(f"model spec: {exc}") from exc

    @classmethod
    def _from_doc(cls, doc: dict) -> "ToyModelSpec":
        if not (isinstance(doc["vocab"], list) and all(isinstance(t, str) for t in doc["vocab"])):
            raise FormatError("field 'vocab' must be a list of strings")
        vocab = Vocab(tuple(doc["vocab"]))
        for f in ("lambda", "smooth_k"):
            if type(doc[f]) not in (int, float):
                raise FormatError(f"field {f!r} must be a number")
        try:
            copy_weight, smooth_k = float(doc["lambda"]), float(doc["smooth_k"])
        except OverflowError:
            raise FormatError("fields 'lambda' and 'smooth_k' must fit in a float") from None
        counts: dict[tuple[int, int], int] = {}
        if not isinstance(doc["bigram_counts"], list):
            raise FormatError("field 'bigram_counts' must be a list of [prev, next, count] triples")
        index = vocab._index
        # json.loads yields exact types, so ``type(...) is`` also rejects bools
        for i, triple in enumerate(doc["bigram_counts"]):
            if not (type(triple) is list and len(triple) == 3 and type(triple[0]) is str
                    and type(triple[1]) is str and type(triple[2]) is int):
                raise FormatError(
                    f"bigram_counts[{i}] must be a [prev_token, next_token, count] triple"
                )
            prev_tok, next_tok, count = triple
            prev, nxt = index.get(prev_tok), index.get(next_tok)
            if prev is None or nxt is None:
                tok = prev_tok if prev is None else next_tok
                raise FormatError(f"bigram_counts[{i}] names unknown token {tok!r}")
            if (prev, nxt) in counts:
                raise FormatError(f"bigram_counts[{i}] repeats pair {prev_tok!r}->{next_tok!r}")
            counts[prev, nxt] = count
        return cls(
            copy_weight=copy_weight,
            smooth_k=smooth_k,
            bigram_counts=counts,
            vocab=vocab,
        )

    def save(self, path: str | Path) -> None:
        write_output(path, self.to_json_text())

    @classmethod
    def load(cls, path: str | Path) -> "ToyModelSpec":
        text = read_input(path, "model spec")
        try:
            return cls.from_json_text(text)
        except ValueError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


class UniformModel:
    """Assigns probability 1/|vocab| to every token, everywhere."""

    def __init__(self, vocab: Vocab):
        self._vocab = vocab
        self._dist = np.full(len(vocab), -math.log(len(vocab)))

    @property
    def vocab(self) -> Vocab:
        return self._vocab

    def score_batch(self, inputs: Sequence[TokenSeq], prefix: TokenSeq) -> np.ndarray:
        for x in inputs:
            check_token_seq(tuple(x), self._vocab, "input")
        check_token_seq(tuple(prefix), self._vocab, "prefix", require_bos=True)
        return np.tile(self._dist, (len(inputs), 1))

    def score_next(self, input_ids: TokenSeq, prefix: TokenSeq) -> LogProbVector:
        return self.score_batch([input_ids], prefix)[0]


class CopyBigramModel:
    """Mixture of an input-copy distribution and a prefix-bigram distribution.

    For a next token w over the predictable alphabet A (content tokens plus
    the end marker):

        p(w | x, prefix) = cw * copy(w | x) + (1 - cw) * bigram(w | prefix[-1])
        copy(w | x)      = (count(w in x, over A) + k) / (|x over A| + k * |A|)
        bigram(w | prev) = (C[prev, w] + k) / (sum_w' C[prev, w'] + k * |A|)

    Input tokens outside A (the unknown marker) do not contribute to the
    copy counts, keeping the distribution normalized. The model holds one
    copy-matrix entry, for the last input set, and one bigram table built
    on first use, so its memory is bounded by the spec; each is set in one
    assignment, so concurrent scoring stays deterministic.
    """

    def __init__(self, spec: ToyModelSpec):
        self._spec = spec
        self._vocab = spec.vocab
        self._alphabet = np.array((EOS_ID,) + spec.vocab.content_ids, dtype=np.intp)
        self._copy_entry: tuple[tuple[TokenSeq, ...], np.ndarray] | None = None
        self._bigram_table: tuple[np.ndarray, ...] | None = None

    @property
    def vocab(self) -> Vocab:
        return self._vocab

    def _copy_part(self, inputs: tuple[TokenSeq, ...]) -> np.ndarray:
        """``[N, V]`` weighted copy distributions; validates each new input set."""
        entry = self._copy_entry
        if entry is not None and entry[0] == inputs:
            return entry[1]
        for x in inputs:
            check_token_seq(x, self._vocab, "input")
        counts = np.stack([np.bincount(x, minlength=len(self._vocab)) for x in inputs])
        counts = counts[:, self._alphabet].astype(float)
        k = self._spec.smooth_k
        probs = (counts + k) / (counts.sum(axis=-1, keepdims=True) + k * len(self._alphabet))
        part = np.zeros((len(inputs), len(self._vocab)))
        part[:, self._alphabet] = self._spec.copy_weight * probs
        self._copy_entry = (inputs, part)
        return part

    def _build_bigram_table(self) -> tuple[np.ndarray, ...]:
        """Pairs sorted by previous token with ``starts`` offsets, each row's fill
        ``w * (k / total)`` and each pair's ``w * ((c + k) / total)``."""
        counts = self._spec.bigram_counts
        pairs = np.fromiter(itertools.chain.from_iterable(counts), np.intp, 2 * len(counts))
        order = np.argsort(pairs[0::2], kind="stable")
        prevs, nexts = pairs[0::2][order], pairs[1::2][order]
        raw = np.fromiter(counts.values(), float, len(counts))[order]
        k, w, size = self._spec.smooth_k, 1.0 - self._spec.copy_weight, len(self._vocab)
        # sums of integer counts below 2**53 are exact in any order
        totals = np.bincount(prevs, weights=raw, minlength=size) + k * len(self._alphabet)
        on_alphabet = np.bincount(self._alphabet, minlength=size).astype(float)
        starts = np.searchsorted(prevs, np.arange(size + 1))
        return on_alphabet, w * (k / totals), starts, nexts, w * ((raw + k) / totals[prevs])

    def _bigram_part(self, prev: int) -> np.ndarray:
        if self._bigram_table is None:  # built on first use, not at load
            self._bigram_table = self._build_bigram_table()
        on_alphabet, fill, starts, nexts, values = self._bigram_table
        row = on_alphabet * fill[prev]
        lo, hi = starts[prev], starts[prev + 1]
        row[nexts[lo:hi]] = values[lo:hi]
        return row

    def score_batch(self, inputs: Sequence[TokenSeq], prefix: TokenSeq) -> np.ndarray:
        prefix = tuple(prefix)
        check_token_seq(prefix, self._vocab, "prefix", require_bos=True)
        probs = self._copy_part(tuple(map(tuple, inputs))) + self._bigram_part(prefix[-1])
        with np.errstate(divide="ignore"):
            return np.log(probs)

    def score_next(self, input_ids: TokenSeq, prefix: TokenSeq) -> LogProbVector:
        return self.score_batch([input_ids], prefix)[0]


def load_model(path: str | Path) -> CopyBigramModel:
    """Load the copy/bigram mixture model from a spec file."""
    return CopyBigramModel(ToyModelSpec.load(path))
