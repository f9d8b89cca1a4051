"""Model-layer tests: vocab, toy spec round-trips, scoring arithmetic."""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyne import (
    CopyBigramModel,
    DecodeParams,
    FormatError,
    ToyModelSpec,
    Vocab,
    beam_search,
    load_model,
)
from dyne import seqmodel
from dyne.seqmodel import BOS_ID, EOS_ID, UNK_ID

from conftest import Level, UniformModel, mutate_json, random_inputs, random_toy_model


def logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(np.sum(np.exp(v - m))))


def held_bytes(model) -> int:
    """Bytes of the numpy arrays a model holds in its attributes."""
    def size(obj):
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, dict):
            return sum(size(v) for v in obj.values())
        if isinstance(obj, (tuple, list)):
            return sum(size(v) for v in obj)
        return 0
    return sum(size(v) for v in vars(model).values())


def dense_reference(spec: ToyModelSpec, x, prev: int) -> np.ndarray:
    """``log(cw * copy + (1 - cw) * bigram)`` from a dense count matrix, in the
    operation order of the documented formula."""
    vocab, k, cw = spec.vocab, spec.smooth_k, spec.copy_weight
    alphabet = np.array((EOS_ID,) + vocab.content_ids)
    dense = np.zeros((len(vocab), len(vocab)))
    for (p, n), c in spec.bigram_counts.items():
        dense[p, n] = c

    def weighted(counts, weight):
        probs = (counts + k) / (counts.sum() + k * len(alphabet))
        full = np.zeros(len(vocab))
        full[alphabet] = weight * probs
        return full

    copy_counts = np.bincount(x, minlength=len(vocab))[alphabet].astype(float)
    probs = weighted(copy_counts, cw) + weighted(dense[prev][alphabet], 1.0 - cw)
    with np.errstate(divide="ignore"):
        return np.log(probs)


@pytest.fixture
def ab_vocab() -> Vocab:
    return Vocab.from_content(["a", "b"])


class TestVocab:
    def test_reserved_positions(self, ab_vocab):
        assert ab_vocab.tokens[:3] == ("<s>", "</s>", "<unk>")
        assert ab_vocab.id_of("a") == 3
        assert ab_vocab.content_ids == (3, 4)

    def test_too_small(self):
        with pytest.raises(ValueError, match="content token"):
            Vocab(("<s>", "</s>", "<unk>"))

    def test_duplicate_token(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocab.from_content(["a", "a"])

    def test_missing_reserved_prefix(self):
        with pytest.raises(ValueError, match="reserved"):
            Vocab(("a", "b", "c", "d"))

    @pytest.mark.parametrize("token", [5, None, 1.5, ["a"]], ids=["int", "none", "float", "list"])
    def test_non_string_token_named(self, token):
        # an int raised TypeError from the UTF-8 check, a list from the index
        with pytest.raises(ValueError) as info:
            Vocab(("<s>", "</s>", "<unk>", "a", token))
        assert str(info.value) == f"vocab tokens[4] must be a str, got {token!r}"

    @pytest.mark.parametrize("tokens", [
        5, None, "<s></s><unk>a", {"<s>": 0, "</s>": 1, "<unk>": 2, "a": 3},
    ], ids=["int", "none", "str", "dict"])
    def test_tokens_must_be_a_list(self, tokens):
        # an int or None raised TypeError, and a dict built from its keys
        with pytest.raises(ValueError) as info:
            Vocab(tokens)
        assert str(info.value) == f"vocab tokens must be a list or tuple of str, got {tokens!r}"
        assert Vocab(["<s>", "</s>", "<unk>", "a"]).tokens == ("<s>", "</s>", "<unk>", "a")

    def test_unpaired_surrogate_token_rejected(self):
        assert Vocab.from_content(["café", "a\U0001F600"]).id_of("café") == 3
        with pytest.raises(ValueError, match=r"vocab token 'c\\ud800' holds an unpaired surrogate"):
            Vocab.from_content(["a", "c\ud800"])

    def test_token_id_out_of_range_rejected(self, ab_vocab):
        assert ab_vocab.token(4) == "b"
        for idx in (-1, 5):
            with pytest.raises(ValueError, match=f"token id {idx} out of range for vocab of"):
                ab_vocab.token(idx)

    @pytest.mark.parametrize("idx", [True, False, 3.5, 3.0, None, "3", Level.HIGH])
    def test_token_id_must_be_an_integer(self, ab_vocab, idx):
        # True read as id 1, '</s>'; 3.5 raised TypeError from the tuple index
        with pytest.raises(ValueError) as info:
            ab_vocab.token(idx)
        assert str(info.value) == f"token id {idx!r} out of range for vocab of size 5"
        assert ab_vocab.token(np.int64(3)) == "a"

    def test_content_as_a_bare_str_rejected(self):
        # "storm" built five one-letter tokens
        with pytest.raises(ValueError) as info:
            Vocab.from_content("storm")
        assert str(info.value) == "vocab content must be an iterable of strings, got 'storm'"
        assert Vocab.from_content(t for t in ("storm", "flood")).tokens[3:] == ("storm", "flood")

    def test_encode_token_maps_oov_to_unk(self, ab_vocab):
        assert ab_vocab.encode_token("a") == 3
        assert ab_vocab.encode_token("zebra") == UNK_ID

    @given(st.lists(st.text(alphabet="xyz", min_size=1, max_size=4), min_size=1,
                    max_size=8, unique=True))
    def test_bijection(self, content):
        vocab = Vocab.from_content(content)
        for i in range(len(vocab)):
            assert vocab.id_of(vocab.token(i)) == i


class TestUniformModel:
    def test_four_token_vocab_scores(self):
        model = UniformModel(Vocab.from_content(["a"]))
        v = model.score_next((3,), (BOS_ID,))
        assert np.array_equal(v, np.full(4, math.log(0.25)))

    def test_input_independent(self):
        model = UniformModel(Vocab.from_content(["a", "b"]))
        v1 = model.score_next((3,), (BOS_ID,))
        v2 = model.score_next((4, 4, 3), (BOS_ID, 3))
        assert np.array_equal(v1, v2)


class TestCopyBigramModel:
    def test_copy_only_hand_arithmetic(self, ab_vocab):
        # copy-only over input "a a b"; alphabet {EOS, a, b}, k = 1:
        # p(a) = (2+1)/(3+3) = 1/2, p(b) = (1+1)/6 = 1/3, p(EOS) = 1/6
        spec = ToyModelSpec(1.0, 1.0, {}, ab_vocab)
        model = CopyBigramModel(spec)
        a, b = ab_vocab.id_of("a"), ab_vocab.id_of("b")
        v = model.score_next((a, a, b), (BOS_ID,))
        assert v[a] == pytest.approx(math.log(0.5), abs=1e-12)
        assert v[b] == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert v[EOS_ID] == pytest.approx(math.log(1 / 6), abs=1e-12)
        assert v[BOS_ID] == -np.inf
        assert v[UNK_ID] == -np.inf
        assert abs(logsumexp(v)) <= 1e-12

    def test_bigram_only_ignores_input(self, ab_vocab):
        a, b = 3, 4
        spec = ToyModelSpec(0.0, 1.0, {(a, b): 2}, ab_vocab)
        model = CopyBigramModel(spec)
        v1 = model.score_next((a,), (BOS_ID, a))
        v2 = model.score_next((b, b, b), (BOS_ID, b, a))
        assert np.array_equal(v1, v2)
        # row for prev=a: counts {b: 2}; p(b) = (2+1)/(2+3) = 0.6
        assert v1[b] == pytest.approx(math.log(0.6), abs=1e-12)

    def test_zero_counts_give_uniform_over_alphabet(self, ab_vocab):
        spec = ToyModelSpec(0.0, 1.0, {}, ab_vocab)
        model = CopyBigramModel(spec)
        v = model.score_next((3,), (BOS_ID,))
        for t in (EOS_ID, 3, 4):
            assert v[t] == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_mixture_hand_arithmetic(self, ab_vocab):
        # copy gives p(a) = 0.5 on "a a b"; bigram row for BOS with one
        # (BOS, b) count gives p(a) = 1/4; mixture at 0.5 -> 0.375
        a, b = 3, 4
        spec = ToyModelSpec(0.5, 1.0, {(BOS_ID, b): 1}, ab_vocab)
        model = CopyBigramModel(spec)
        v = model.score_next((a, a, b), (BOS_ID,))
        assert math.exp(v[a]) == pytest.approx(0.375, abs=1e-12)

    def test_mixture_linearity(self, ab_vocab):
        a, b = 3, 4
        counts = {(BOS_ID, a): 3, (a, b): 1}
        copy_only = CopyBigramModel(ToyModelSpec(1.0, 0.5, counts, ab_vocab))
        bigram_only = CopyBigramModel(ToyModelSpec(0.0, 0.5, counts, ab_vocab))
        for cw in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = CopyBigramModel(ToyModelSpec(cw, 0.5, counts, ab_vocab))
            x, prefix = (a, b, a), (BOS_ID, a)
            expected = cw * np.exp(copy_only.score_next(x, prefix)) + (1 - cw) * np.exp(
                bigram_only.score_next(x, prefix)
            )
            assert np.exp(mixed.score_next(x, prefix)) == pytest.approx(expected, abs=1e-12)

    def test_unknown_tokens_in_input_do_not_leak_mass(self, ab_vocab):
        model = CopyBigramModel(ToyModelSpec(1.0, 1.0, {}, ab_vocab))
        v = model.score_next((3, UNK_ID, UNK_ID), (BOS_ID,))
        assert abs(logsumexp(v)) <= 1e-9
        # only the in-alphabet token counts: p(a) = (1+1)/(1+3)
        assert v[3] == pytest.approx(math.log(0.5), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_normalized_and_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        x = random_inputs(rng, vocab)[0]
        prefix = (BOS_ID,) + tuple(
            int(rng.choice(vocab.content_ids)) for _ in range(int(rng.integers(0, 3)))
        )
        v = model.score_next(x, prefix)
        assert abs(logsumexp(v)) <= 1e-6
        assert not np.any(np.isnan(v))
        assert np.array_equal(v, model.score_next(x, prefix))

    def test_input_validation(self, ab_vocab):
        model = CopyBigramModel(ToyModelSpec(1.0, 1.0, {}, ab_vocab))
        with pytest.raises(ValueError, match="out of vocabulary"):
            model.score_next((99,), (BOS_ID,))
        with pytest.raises(ValueError, match="BOS"):
            model.score_next((3,), (3,))
        with pytest.raises(ValueError, match="empty"):
            model.score_next((), (BOS_ID,))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_score_batch_rows_equal_score_next_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng, max_content=4)
        # random_inputs draws UNK as well as content tokens
        inputs = random_inputs(rng, vocab, max_inputs=5) + [(UNK_ID, 3, UNK_ID)]
        prefix = (BOS_ID,) + tuple(int(rng.choice(vocab.content_ids)) for _ in range(2))
        for m in (model, UniformModel(vocab)):
            batch = m.score_batch(inputs, prefix)
            rows = np.stack([m.score_next(x, prefix) for x in inputs])
            assert batch.shape == (len(inputs), len(vocab))
            assert batch.tobytes() == rows.tobytes()

    def test_score_batch_without_inputs_rejected(self, ab_vocab):
        # raised numpy's "need at least one array to stack"
        model = CopyBigramModel(ToyModelSpec(0.5, 1.0, {(3, 4): 2}, ab_vocab))
        for inputs in ([], ()):
            with pytest.raises(ValueError, match=r"^score_batch needs at least one input$"):
                model.score_batch(inputs, (BOS_ID, 3))

    @pytest.mark.parametrize("inputs", [{(3, 4): 1}, {(3, 4)}, iter([(3, 4)])],
                             ids=["dict", "set", "iterator"])
    def test_score_batch_takes_a_list_or_tuple_of_inputs(self, ab_vocab, inputs):
        # a dict scored its keys, a set in set-iteration order, an iterator whole
        model = CopyBigramModel(ToyModelSpec(0.5, 1.0, {(3, 4): 2}, ab_vocab))
        with pytest.raises(ValueError, match=r"^inputs must be a list or tuple of list or tuple"):
            model.score_batch(inputs, (BOS_ID, 3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rows_depend_only_on_the_last_prefix_token(self, seed):
        # what CopyBigramModel.context = 1 claims: the decoder shares one call's
        # rows between all the live prefixes that end in the same token
        assert CopyBigramModel.context == 1
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng, max_content=4)
        inputs = random_inputs(rng, vocab, max_inputs=4)
        last = int(rng.choice([EOS_ID, *vocab.content_ids]))
        first, second = (
            model.score_batch(inputs, (BOS_ID, *rng.choice(vocab.content_ids, size).tolist(), last))
            for size in (0, int(rng.integers(1, 6))))  # two prefixes of different lengths
        assert first.tobytes() == second.tobytes()

    def test_memory_bounded_over_many_input_sets(self, ab_vocab):
        model = CopyBigramModel(ToyModelSpec(0.5, 1.0, {(3, 4): 2}, ab_vocab))
        model.score_batch([(3, 4)], (BOS_ID, 3))
        one_set = held_bytes(model)
        for i in range(1, 200):
            model.score_batch([(3,) * i, (4, 3)], (BOS_ID, 3))
        model.score_batch([(4, 4)], (BOS_ID, 3))
        assert held_bytes(model) == one_set

    def test_memory_bounded_over_every_previous_token(self):
        vocab = Vocab.from_content([f"w{i}" for i in range(40)])
        counts = {(p, n): p + n for p in range(0, len(vocab), 3) for n in (EOS_ID, 5, 9)}
        model = CopyBigramModel(ToyModelSpec(0.5, 1.0, counts, vocab))
        model.score_batch([(3, 4)], (BOS_ID,))
        first_use = held_bytes(model)
        for prev in range(len(vocab)):
            model.score_batch([(3, 4)], (BOS_ID, prev))
        assert held_bytes(model) == first_use

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_dense_formula(self, data):
        n_content = data.draw(st.integers(1, 5))
        vocab = Vocab.from_content([f"w{i}" for i in range(n_content)])
        targets = (EOS_ID, *vocab.content_ids)
        counts = data.draw(st.dictionaries(
            st.tuples(st.integers(0, len(vocab) - 1), st.sampled_from(targets)),
            st.integers(0, 1000), max_size=12,
        ))
        cw = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        k = data.draw(st.sampled_from([1e-3, 0.1, 0.5, 1.0]) | st.floats(1e-3, 5.0))
        spec = ToyModelSpec(cw, k, counts, vocab)
        model = CopyBigramModel(spec)
        x = tuple(data.draw(st.lists(st.integers(1, len(vocab) - 1), min_size=1, max_size=6)))
        # every previous token, BOS and EOS included, with and without counts
        for prev in data.draw(st.permutations(range(len(vocab)))):
            prefix = (BOS_ID,) if prev == BOS_ID else (BOS_ID, prev)
            assert np.array_equal(model.score_next(x, prefix), dense_reference(spec, x, prev))

    @pytest.mark.parametrize("seed", range(24))
    def test_rows_pinned_bitwise_to_the_documented_formulas(self, seed):
        # every value is rebuilt in scalar floats, in the model's operation
        # order, then goes through the same np.log on an array of the same shape
        rng = np.random.default_rng(seed)
        vocab = Vocab.from_content([f"w{i}" for i in range(int(rng.integers(1, 14)))])
        size, alphabet = len(vocab), len(vocab) - 2
        successors = [EOS_ID, *vocab.content_ids]
        counts = {}
        for _ in range(int(rng.integers(0, 3 * size))):
            pair = (int(rng.integers(size)), int(rng.choice(successors)))
            # up to 2**48 each: the row sums stay below 2**53, so they are exact
            counts[pair] = int(rng.integers(0, 2 ** int(rng.choice([3, 20, 48]))))
        cw = float(rng.choice([0.0, 1.0, rng.random(), rng.random()]))
        k = float(rng.choice([1e-3, 1.0, rng.uniform(1e-3, 5.0), rng.uniform(1e-3, 5.0)]))
        model = CopyBigramModel(ToyModelSpec(cw, k, counts, vocab))
        inputs = [tuple(int(t) for t in rng.integers(0, size, int(rng.integers(1, 7))))
                  for _ in range(int(rng.integers(1, 5)))]
        for prev in range(size):
            total = sum(c for (p, _), c in counts.items() if p == prev) + k * alphabet
            probs = []
            for x in inputs:
                own = [x.count(w) if w in successors else 0 for w in range(size)]
                denom = sum(own) + k * alphabet
                probs.append([cw * ((own[w] + k) / denom)
                              + (1.0 - cw) * ((counts.get((prev, w), 0) + k) / total)
                              if w in successors else 0.0 for w in range(size)])
            with np.errstate(divide="ignore"):
                expected = np.log(np.array(probs))
            prefix = (BOS_ID,) if prev == BOS_ID else (BOS_ID, prev)
            assert model.score_batch(inputs, prefix).tobytes() == expected.tobytes()

    def test_rows_of_equal_specs_bitwise_equal_past_2_to_the_53(self, tmp_path):
        # row a sums to 2**53 + 2: summed in insertion order, one order rounded
        # it to 2**53 and the </s> entries read -7.77e-16 and -9.99e-16
        vocab = Vocab.from_content(["a", "b", "c", "d", "e"])
        items = [((3, EOS_ID), 2**53 - 2)] + [((3, nxt), 1) for nxt in range(4, 8)]
        specs = [ToyModelSpec(0.5, 1.0, dict(order), vocab) for order in (items, items[::-1])]
        assert specs[0] == specs[1]
        for i, spec in enumerate(list(specs)):
            spec.save(tmp_path / f"spec{i}.json")
            specs.append(ToyModelSpec.load(tmp_path / f"spec{i}.json"))
        for prev in range(len(vocab)):
            rows = {CopyBigramModel(spec).score_batch([(3,)], (BOS_ID, prev)).tobytes()
                    for spec in specs}
            assert len(rows) == 1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_independent_of_count_insertion_order(self, data):
        n_content = data.draw(st.integers(2, 5))
        vocab = Vocab.from_content([f"w{i}" for i in range(n_content)])
        targets = (EOS_ID, *vocab.content_ids)
        pair = st.tuples(st.integers(0, len(vocab) - 1), st.sampled_from(targets))
        counts = data.draw(st.dictionaries(pair, st.integers(0, 2**20), max_size=12))
        # one row at or past 2**53, where float sums round: a count of at least
        # 2**53 - 4 and at least two more counts of at least 2
        big_prev, big_next = data.draw(pair)
        counts[big_prev, big_next] = 2**53 - data.draw(st.integers(1, 4))
        others = [t for t in targets if t != big_next]
        for nxt in data.draw(st.lists(st.sampled_from(others), min_size=2, unique=True)):
            counts[big_prev, nxt] = data.draw(st.integers(2, 5))
        cw = data.draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0))
        k = data.draw(st.sampled_from([1e-3, 1.0]) | st.floats(1e-3, 5.0))
        specs = [ToyModelSpec(cw, k, dict(data.draw(st.permutations(list(counts.items())))),
                              vocab) for _ in range(2)]
        assert specs[0] == specs[1]
        specs.append(ToyModelSpec.from_json_text(specs[0].to_json_text()))
        models = [CopyBigramModel(spec) for spec in specs]
        x = tuple(data.draw(st.lists(st.integers(1, len(vocab) - 1), min_size=1, max_size=6)))
        for prev in range(len(vocab)):
            prefix = (BOS_ID,) if prev == BOS_ID else (BOS_ID, prev)
            rows = {model.score_batch([x], prefix).tobytes() for model in models}
            assert len(rows) == 1

    def test_inputs_validated_once_per_decode(self, ab_vocab, monkeypatch):
        checked = []
        real_check = seqmodel.check_token_seq

        def counting_check(ids, vocab, name="sequence", **kwargs):
            checked.append(name)
            return real_check(ids, vocab, name, **kwargs)

        monkeypatch.setattr(seqmodel, "check_token_seq", counting_check)
        model = CopyBigramModel(ToyModelSpec(0.5, 1.0, {(3, 4): 2}, ab_vocab))
        inputs = [(3, 4, 3), (4,), (3, UNK_ID)]
        beam_search(model, inputs, DecodeParams(beam_size=3, max_len=5))
        assert checked.count("input") == len(inputs)
        assert checked.count("prefix") > 1  # the prefix is checked on every call

    def test_bad_input_rejected_after_good_decode(self, ab_vocab):
        model = CopyBigramModel(ToyModelSpec(0.5, 1.0, {(3, 4): 2}, ab_vocab))
        good = [(3, 4, 3), (4,)]
        beam_search(model, good, DecodeParams(beam_size=2, max_len=3))
        for bad in ([(3, 4, 3), (4, 99)], [(3, 4, 3), ()], [(3, 4, 3), (4, -1)]):
            with pytest.raises(ValueError, match="input"):
                model.score_batch(bad, (BOS_ID,))
            with pytest.raises(ValueError, match="input"):
                beam_search(model, bad, DecodeParams(beam_size=2, max_len=3))
        # the failed calls left no entry behind that skips validation
        with pytest.raises(ValueError, match="out of vocabulary"):
            model.score_batch([(3, 4, 3), (4, 99)], (BOS_ID,))

    def test_concurrent_scoring_matches_serial(self, ab_vocab):
        model = CopyBigramModel(ToyModelSpec(0.7, 1.0, {(3, 4): 5}, ab_vocab))
        calls = [((3, 4, 3), (BOS_ID, t)) for t in (3, 4, EOS_ID, UNK_ID) for _ in range(16)]
        serial = [model.score_next(x, p) for x, p in calls]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda c: model.score_next(*c), calls))
        for s, t in zip(serial, threaded):
            assert np.array_equal(s, t)


class TestSpecValidation:
    def test_copy_weight_range(self, ab_vocab):
        with pytest.raises(ValueError, match="copy weight"):
            ToyModelSpec(1.5, 1.0, {}, ab_vocab)

    def test_smooth_k_positive(self, ab_vocab):
        for k in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="smooth_k"):
                ToyModelSpec(0.5, k, {}, ab_vocab)

    def test_counts_must_be_nonnegative_ints(self, ab_vocab):
        # 2**53 and up would lose exactness as floats; 10**400 overflowed in the bigram table
        for count in (-1, 2**53, 10**400):
            with pytest.raises(ValueError, match=r"nonnegative integer below 2\*\*53"):
                ToyModelSpec(0.5, 1.0, {(3, 4): count}, ab_vocab)
        ToyModelSpec(0.5, 1.0, {(3, 4): 2**53 - 1}, ab_vocab)

    @pytest.mark.parametrize("counts", [
        {(3.5, 4): 2},
        {(3, 4.0): 2},
        {("3", 4): 2},
        {(True, 4): 2},
        {(3, True): 2},
        {(3, 4): True},
        {(3, 4): 2.0},
    ], ids=["float-prev", "float-next", "str-prev", "bool-prev", "bool-next",
            "bool-count", "float-count"])
    def test_ids_and_counts_must_be_integers(self, ab_vocab, counts):
        with pytest.raises(ValueError, match="integer"):
            ToyModelSpec(0.5, 1.0, counts, ab_vocab)

    def test_numpy_integer_ids_accepted(self, ab_vocab):
        spec = ToyModelSpec(0.5, 1.0, {(np.int64(3), np.intp(4)): 2}, ab_vocab)
        assert ToyModelSpec.from_json_text(spec.to_json_text()).bigram_counts == {(3, 4): 2}

    def test_counts_cannot_target_bos_or_unk(self, ab_vocab):
        with pytest.raises(ValueError, match="unpredictable"):
            ToyModelSpec(0.5, 1.0, {(3, BOS_ID): 1}, ab_vocab)
        with pytest.raises(ValueError, match="unpredictable"):
            ToyModelSpec(0.5, 1.0, {(3, UNK_ID): 1}, ab_vocab)

    @pytest.mark.parametrize("value, message", [
        (True, "must be a real number, got True"),
        ("0.5", "must be a real number, got '0.5'"),
        (None, "must be a real number, got None"),
        (10**400, "must fit in a float"),
    ], ids=["bool", "str", "none", "int-past-float"])
    @pytest.mark.parametrize("field, name", [("copy_weight", "copy weight (lambda)"),
                                             ("smooth_k", "smooth_k")])
    def test_numbers_built_in_code_follow_the_file_rules(self, ab_vocab, field, name, value,
                                                         message):
        # each of these built, or failed with TypeError or OverflowError, and a
        # spec with a bool number saved a file that its own loader rejected
        values = {"copy_weight": 0.5, "smooth_k": 1.0, field: value}
        with pytest.raises(ValueError) as info:
            ToyModelSpec(bigram_counts={}, vocab=ab_vocab, **values)
        assert str(info.value) == f"{name} {message}"

    def test_numbers_are_stored_as_plain_floats(self, tmp_path, ab_vocab):
        spec = ToyModelSpec(np.float32(0.5), 1, {}, ab_vocab)
        assert type(spec.copy_weight) is float and type(spec.smooth_k) is float
        spec.save(tmp_path / "model.json")  # a float32 was not JSON serializable
        assert ToyModelSpec.load(tmp_path / "model.json") == spec

    def test_smooth_k_times_the_alphabet_must_be_finite(self, ab_vocab):
        # the alphabet is the end marker plus 2 content tokens; with 3 * smooth_k
        # infinite, every row the model returned was all -inf
        with pytest.raises(ValueError, match="smooth_k must be positive and finite times the 3 "
                                             "predictable tokens, got 1e"):
            ToyModelSpec(0.5, 1e308, {}, ab_vocab)
        model = CopyBigramModel(ToyModelSpec(0.5, 5e307, {(3, 4): 2}, ab_vocab))
        for prev in (BOS_ID, 3):
            assert abs(logsumexp(model.score_next((3, 4), (BOS_ID, prev)))) <= 1e-12

    @pytest.mark.parametrize("pair", [(-1, 4), (3, 5), (5, 3), (3, -1)])
    def test_ids_must_lie_in_vocabulary_range(self, ab_vocab, pair):
        with pytest.raises(ValueError, match="not an integer in vocabulary range"):
            ToyModelSpec(0.5, 1.0, {pair: 2}, ab_vocab)

    def test_count_faults_name_the_pair_by_its_tokens(self, ab_vocab):
        with pytest.raises(ValueError) as info:
            ToyModelSpec(0.5, 1.0, {(BOS_ID, 3): 1, (3, 4): -1}, ab_vocab)
        assert str(info.value) == (
            "bigram count 'a'->'b' must be a nonnegative integer below 2**53, got -1")
        with pytest.raises(ValueError) as info:
            ToyModelSpec(0.5, 1.0, {(4, UNK_ID): 1}, ab_vocab)
        assert str(info.value) == (
            "bigram count 'b'->'<unk>' targets unpredictable token '<unk>' as successor")


class TestSpecIsImmutable:
    COUNTS = {(3, 4): 2, (4, EOS_ID): 5, (BOS_ID, 3): 1}

    @staticmethod
    def state(spec, model):
        """The spec's file form and the model's every row, as bytes."""
        rows = [model.score_batch([(3, 4, 3), (UNK_ID, 4)], (BOS_ID, prev)).tobytes()
                for prev in range(len(spec.vocab))]
        return spec.to_json_text(), rows

    @pytest.mark.parametrize("attempt, error", [
        (lambda spec: setattr(spec, "copy_weight", 7), dataclasses.FrozenInstanceError),
        (lambda spec: setattr(spec, "smooth_k", True), dataclasses.FrozenInstanceError),
        (lambda spec: setattr(spec, "vocab", Vocab.from_content(["a"])),
         dataclasses.FrozenInstanceError),
        (lambda spec: setattr(spec, "bigram_counts", {}), dataclasses.FrozenInstanceError),
        (lambda spec: operator.setitem(spec.bigram_counts, (3, 4), 40), TypeError),
        (lambda spec: operator.delitem(spec.bigram_counts, (3, 4)), TypeError),
    ], ids=["copy_weight", "smooth_k", "vocab", "bigram_counts", "set-count", "del-count"])
    def test_assignment_raises_and_changes_nothing(self, ab_vocab, attempt, error):
        # a copy_weight of 7 assigned after a decode once gave a built model
        # rows with probabilities above 1
        spec = ToyModelSpec(0.5, 1.0, dict(self.COUNTS), ab_vocab)
        model = CopyBigramModel(spec)
        before = self.state(spec, model)
        with pytest.raises(error):
            attempt(spec)
        assert self.state(spec, model) == before
        assert self.state(spec, CopyBigramModel(spec)) == before

    def test_the_callers_dict_does_not_reach_the_spec_or_its_models(self, ab_vocab):
        fresh = ToyModelSpec(0.5, 1.0, dict(self.COUNTS), ab_vocab)
        expected = self.state(fresh, CopyBigramModel(fresh))
        counts = dict(self.COUNTS)
        spec = ToyModelSpec(0.5, 1.0, counts, ab_vocab)
        scored, unscored = CopyBigramModel(spec), CopyBigramModel(spec)
        assert self.state(spec, scored) == expected
        counts[3, 4] = 40
        counts[3, UNK_ID] = -1  # a pair the spec would reject
        del counts[4, EOS_ID]
        assert spec.bigram_counts == self.COUNTS
        # the unscored model builds its bigram table only now, after the edits
        assert self.state(spec, unscored) == expected
        assert self.state(spec, scored) == expected


class TestSpecSerialization:
    def test_round_trip_identity(self, ab_vocab):
        spec = ToyModelSpec(0.25, 2.0, {(BOS_ID, 3): 4, (3, 4): 1}, ab_vocab)
        again = ToyModelSpec.from_json_text(spec.to_json_text())
        assert again == spec
        assert again.to_json_text() == spec.to_json_text()

    def test_round_trip_scores_bit_identical(self, tmp_path, ab_vocab):
        spec = ToyModelSpec(0.6, 0.5, {(3, 4): 7, (4, EOS_ID): 2}, ab_vocab)
        path = tmp_path / "model.json"
        spec.save(path)
        loaded = load_model(path)
        original = CopyBigramModel(spec)
        for prefix_tail in ((), (3,), (4, 3)):
            prefix = (BOS_ID,) + prefix_tail
            assert np.array_equal(
                original.score_next((3, 4), prefix), loaded.score_next((3, 4), prefix)
            )

    def test_missing_field_named(self):
        with pytest.raises(FormatError, match="smooth_k"):
            ToyModelSpec.from_json_text('{"lambda": 0.5, "vocab": [], "bigram_counts": []}')

    def test_unknown_field_rejected(self, ab_vocab):
        text = ToyModelSpec(1.0, 1.0, {}, ab_vocab).to_json_text()
        broken = text.replace('"lambda"', '"lambda": 1.0, "extra"', 1)
        with pytest.raises(FormatError, match="unknown field"):
            ToyModelSpec.from_json_text(broken)

    def test_invalid_json_position_reported(self):
        with pytest.raises(FormatError, match="JSON"):
            ToyModelSpec.from_json_text('{"lambda": 0.5,')

    def test_out_of_range_lambda_in_file(self, tmp_path, ab_vocab):
        text = ToyModelSpec(1.0, 1.0, {}, ab_vocab).to_json_text().replace(
            '"lambda": 1.0', '"lambda": 1.5'
        )
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="copy weight"):
            load_model(path)

    def test_infinite_smoothing_in_file(self, ab_vocab):
        # Python's JSON parser accepts the non-standard literal Infinity.
        text = ToyModelSpec(1.0, 1.0, {}, ab_vocab).to_json_text().replace(
            '"smooth_k": 1.0', '"smooth_k": Infinity'
        )
        with pytest.raises(ValueError, match="smooth_k"):
            ToyModelSpec.from_json_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_model(tmp_path / "nope.json")


SPEC_DOC = {
    "lambda": 0.5,
    "smooth_k": 1.0,
    "vocab": ["<s>", "</s>", "<unk>", "a", "b"],
    "bigram_counts": {"prev": ["<s>", "a", "b"], "next": ["a", "b", "</s>"], "count": [2, 1, 3]},
}

SHAPE_FAULT = ("field 'bigram_counts' must be an object of three equal-length lists, "
               '{"prev": [tokens], "next": [tokens], "count": [ints]}')


def counts_doc(**columns) -> dict:
    """SPEC_DOC with the given bigram columns replaced."""
    return dict(SPEC_DOC, bigram_counts=dict(SPEC_DOC["bigram_counts"], **columns))


def entry_doc(i: int, **values) -> dict:
    """SPEC_DOC with entry ``i`` of the given bigram columns replaced."""
    cols = {name: list(col) for name, col in SPEC_DOC["bigram_counts"].items()}
    for name, value in values.items():
        cols[name][i] = value
    return dict(SPEC_DOC, bigram_counts=cols)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["<s>", "</s>", "<unk>", "a", "b"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


class TestSpecLoaderErrors:
    @pytest.mark.parametrize("doc, message", [
        (counts_doc(next={"a": "b"}), SHAPE_FAULT),
        (counts_doc(next=["a", "b"]), SHAPE_FAULT),
        (counts_doc(count=[2, 1, 3, 1]), SHAPE_FAULT),
        (entry_doc(1, prev=3), "bigram_counts.prev[1] = 3 is not of type str"),
        (entry_doc(1, next=None), "bigram_counts.next[1] = None is not of type str"),
        (entry_doc(1, count=1.0), "bigram_counts.count[1] = 1.0 is not of type int"),
        (entry_doc(1, count=True), "bigram_counts.count[1] = True is not of type int"),
        (entry_doc(1, next="zz"), "bigram_counts.next[1] names unknown token 'zz'"),
        (entry_doc(1, prev="yy", next="zz"), "bigram_counts.prev[1] names unknown token 'yy'"),
        (entry_doc(1, prev="<s>", next="a"),
         "bigram_counts.prev[1] and .next[1] repeat pair '<s>'->'a'"),
        (entry_doc(2, prev=["a"]), "bigram_counts.prev[2] = ['a'] is not of type str"),
        (entry_doc(0, prev={"a": 1}), "bigram_counts.prev[0] = {'a': 1} is not of type str"),
        (entry_doc(1, next=["b"]), "bigram_counts.next[1] = ['b'] is not of type str"),
        (entry_doc(2, next={}), "bigram_counts.next[2] = {} is not of type str"),
        (counts_doc(prev=["<s>", 3, ["a"]]), "bigram_counts.prev[1] = 3 is not of type str"),
        (counts_doc(prev=["zz", "a", "b"], next=["a", "b", []]),
         "bigram_counts.next[2] = [] is not of type str"),
        (entry_doc(1, prev="zz", count=1.5), "bigram_counts.count[1] = 1.5 is not of type int"),
        (counts_doc(prev=["zz", "a", "b"], count=[2, 1, 1.5]),
         "bigram_counts.count[2] = 1.5 is not of type int"),
    ], ids=["not-a-list", "short", "long", "int-token", "null-token", "float-count",
            "bool-count", "unknown-next", "unknown-prev-first", "repeated-pair", "list-prev",
            "dict-prev", "list-next", "dict-next", "int-before-list", "unknown-before-list",
            "float-count-before-unknown", "float-count-after-unknown"])
    def test_bad_triple_named_by_index(self, doc, message):
        # entry i of the three columns is the triple; a column that is not a
        # list, or is of another length, breaks the one shape rule. A list or
        # dict, which no vocab lookup takes, is a type fault like any other; a
        # column with an unknown token is typed too, before any name is reported
        with pytest.raises(FormatError) as info:
            ToyModelSpec.from_json_text(json.dumps(doc))
        assert str(info.value) == f"model spec: {message}"

    @pytest.mark.parametrize("counts", [
        [["<s>", "a", 2], ["a", "b", 1]],
        [],
        None,
        {"prev": [], "next": []},
        {"prev": [], "next": [], "count": [], "total": []},
        {"prev": [], "next": [], "count": None},
        {"prev": ["a"], "next": ["b"], "count": 1},
        {"prev": "ab", "next": "ba", "count": [1, 1]},
    ], ids=["triple-list", "empty-list", "null", "missing-column", "extra-column",
            "null-column", "scalar-column", "string-columns"])
    def test_any_other_shape_is_the_one_shape_error(self, counts):
        with pytest.raises(FormatError) as info:
            ToyModelSpec.from_json_text(json.dumps(dict(SPEC_DOC, bigram_counts=counts)))
        assert str(info.value) == f"model spec: {SHAPE_FAULT}"

    def test_first_fault_in_column_order_reported(self):
        # types are checked first, column by column (prev, next, count), then
        # token names (prev, next), then repeats; each names its lowest index
        for doc, message in [
            (entry_doc(2, prev=3, next="zz"), "bigram_counts.prev[2] = 3 is not of type str"),
            (counts_doc(next=["zz", "b", None], count=[1.5, 1, 3]),
             "bigram_counts.next[2] = None is not of type str"),
            (counts_doc(prev=["<s>", "a", "yy"], next=["zz", "b", "</s>"]),
             "bigram_counts.prev[2] names unknown token 'yy'"),
            (counts_doc(prev=["a", "a", "a"], next=["b", "b", "zz"]),
             "bigram_counts.next[2] names unknown token 'zz'"),
            (counts_doc(prev=["a", "a", "a"], next=["b", "b", "b"], count=[1, 2, -1]),
             "bigram_counts.prev[1] and .next[1] repeat pair 'a'->'b'"),
        ]:
            with pytest.raises(FormatError) as info:
                ToyModelSpec.from_json_text(json.dumps(doc))
            assert str(info.value) == f"model spec: {message}"

    @pytest.mark.parametrize("count", [2**63, -(2**63) - 1, 10**400, -(10**400),
                                       2**63 - 1, -(2**63), 2**53])
    def test_count_past_int64_named_by_the_range_rule(self, count):
        with pytest.raises(FormatError) as info:
            ToyModelSpec.from_json_text(json.dumps(entry_doc(1, count=count)))
        assert str(info.value) == ("model spec: bigram count 'a'->'b' must be a nonnegative "
                                   f"integer below 2**53, got {count!r}")

    @pytest.mark.parametrize("field", ["lambda", "smooth_k"])
    def test_number_too_large_for_a_float(self, field):
        text = json.dumps(dict(SPEC_DOC, **{field: 10**400}))
        with pytest.raises(FormatError, match=field):
            ToyModelSpec.from_json_text(text)

    def test_negative_count_in_file_named_by_its_tokens(self):
        doc = entry_doc(1, count=-1)
        with pytest.raises(FormatError) as info:
            ToyModelSpec.from_json_text(json.dumps(doc))
        assert str(info.value) == (
            "model spec: bigram count 'a'->'b' must be a nonnegative integer below 2**53, got -1")

    @pytest.mark.parametrize("changes, message", [
        ({"lambda": 1.5}, "copy weight must lie in [0, 1], got 1.5"),
        ({"lambda": True}, "copy weight (lambda) must be a real number, got True"),
        ({"smooth_k": "1"}, "smooth_k must be a real number, got '1'"),
        ({"smooth_k": 1e308}, "smooth_k must be positive and finite times the 3 predictable"),
        ({"vocab": ["<s>", "</s>", "<unk>", "a", 5]}, "vocab tokens[4] must be a str, got 5"),
        ({"vocab": ["<s>", "</s>", "<unk>", "a", "a"]}, "duplicate vocab token 'a'"),
        ({"bigram_counts": {"prev": ["a"], "next": ["<s>"], "count": [1]}},
         "bigram count 'a'->'<s>' targets unpredictable"),
    ], ids=["lambda-range", "lambda-bool", "smooth_k-str", "smooth_k-bound", "vocab-token-type",
            "vocab-duplicate", "bos-successor"])
    def test_every_value_fault_is_a_format_error(self, changes, message):
        with pytest.raises(FormatError) as info:
            ToyModelSpec.from_json_text(json.dumps(dict(SPEC_DOC, **changes)))
        assert str(info.value).startswith(f"model spec: {message}")

    def test_bigram_faults_reported_before_number_faults(self):
        # the numbers are checked when the spec is built, after the file's structure
        doc = dict(entry_doc(0, next="zz"), smooth_k=True)
        with pytest.raises(FormatError, match=r"bigram_counts\.next\[0\] names unknown token 'zz'"):
            ToyModelSpec.from_json_text(json.dumps(doc))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_spec_text_fails_cleanly(self, data):
        text = mutate_json(data, SPEC_DOC, JSON_VALUES)
        try:
            spec = ToyModelSpec.from_json_text(text)
        except ValueError:  # FormatError is a ValueError
            return
        assert ToyModelSpec.from_json_text(spec.to_json_text()) == spec


def scalar_value_fault(copy_weight, smooth_k, counts, vocab) -> str | None:
    """The spec's value rules as the per-pair loop the array tests replaced:
    the text of the first fault, or None when every value holds."""
    try:
        for value, what in ((copy_weight, "copy weight (lambda)"), (smooth_k, "smooth_k")):
            seqmodel.real_number(value, what)
        copy_weight, smooth_k = float(copy_weight), float(smooth_k)
        if not 0.0 <= copy_weight <= 1.0:
            raise ValueError(f"copy weight must lie in [0, 1], got {copy_weight}")
        alphabet = len(vocab) - 2
        if not (smooth_k > 0 and math.isfinite(smooth_k * alphabet)):
            raise ValueError(f"smooth_k must be positive and finite times the {alphabet} "
                             f"predictable tokens, got {smooth_k}")
        tokens, size = vocab.tokens, len(vocab)
        for pair, count in dict(counts).items():
            for t in pair:
                if not ((type(t) is int or isinstance(t, np.integer)) and 0 <= t < size):
                    raise ValueError(f"bigram count id {t!r} not an integer in vocabulary range")
            prev, nxt = pair
            if nxt == BOS_ID or nxt == UNK_ID:
                raise ValueError(f"bigram count {tokens[prev]!r}->{tokens[nxt]!r} targets "
                                 f"unpredictable token {tokens[nxt]!r} as successor")
            if not (type(count) is int and 0 <= count < 2**53):
                raise ValueError(f"bigram count {tokens[prev]!r}->{tokens[nxt]!r} must be a "
                                 f"nonnegative integer below 2**53, got {count!r}")
    except ValueError as exc:
        return str(exc)
    return None


def scalar_load(doc: dict) -> tuple[str | None, dict | None]:
    """The loader as one loop per column, then the value loop: the FormatError
    text it gives for ``doc``, or the counts of the spec it builds."""
    try:
        if not isinstance(doc["vocab"], list):
            raise FormatError(f"vocab tokens must be a list or tuple of str, got {doc['vocab']!r}")
        vocab = Vocab(doc["vocab"])
        cols = doc["bigram_counts"]
        if not (type(cols) is dict and sorted(cols) == ["count", "next", "prev"]
                and all(type(col) is list for col in cols.values())
                and len(cols["prev"]) == len(cols["next"]) == len(cols["count"])):
            raise FormatError(SHAPE_FAULT)
        for name, typ in (("prev", str), ("next", str), ("count", int)):
            for i, value in enumerate(cols[name]):
                if type(value) is not typ:  # a bool is not an int here
                    raise FormatError(f"bigram_counts.{name}[{i}] = {value!r} is not of type "
                                      f"{typ.__name__}")
        ids = {}
        for name in ("prev", "next"):
            for i, tok in enumerate(cols[name]):
                if tok not in vocab.tokens:
                    raise FormatError(f"bigram_counts.{name}[{i}] names unknown token {tok!r}")
            ids[name] = [vocab.id_of(tok) for tok in cols[name]]
        counts = {}
        for i, pair in enumerate(zip(ids["prev"], ids["next"])):
            if pair in counts:
                raise FormatError(f"bigram_counts.prev[{i}] and .next[{i}] repeat pair "
                                  f"{cols['prev'][i]!r}->{cols['next'][i]!r}")
            counts[pair] = cols["count"][i]
    except ValueError as exc:
        return f"model spec: {exc}", None
    fault = scalar_value_fault(doc["lambda"], doc["smooth_k"], counts, vocab)
    return (f"model spec: {fault}", None) if fault else (None, counts)


#: Faults one entry can carry: each maps a well-formed ``(prev, next, count)``
#: entry, and another entry of the same doc, to the column values that replace it.
ENTRY_FAULTS = {
    "int-token": lambda t, other: {"prev": 3},
    "null-token": lambda t, other: {"next": None},
    "bool-token": lambda t, other: {"next": True},
    "list-token": lambda t, other: {"prev": [t[0]]},
    "float-count": lambda t, other: {"count": 1.0},
    "bool-count": lambda t, other: {"count": True},
    "str-count": lambda t, other: {"count": "1"},
    "null-count": lambda t, other: {"count": None},
    "unknown-prev": lambda t, other: {"prev": "zz"},
    "unknown-next": lambda t, other: {"next": "yy"},
    "unknown-both": lambda t, other: {"prev": "zz", "next": "yy"},
    "bos-next": lambda t, other: {"next": "<s>"},
    "unk-next": lambda t, other: {"next": "<unk>"},
    "negative": lambda t, other: {"count": -1},
    "2**53": lambda t, other: {"count": 2**53},
    "2**53-1": lambda t, other: {"count": 2**53 - 1},
    "past-int64": lambda t, other: {"count": 2**63},
    "past-float": lambda t, other: {"count": 10**400},
    "far-negative": lambda t, other: {"count": -(10**400)},
    "repeat": lambda t, other: {"prev": other[0], "next": other[1]},
}

#: Faults of the whole ``bigram_counts`` value: each maps its columns to a replacement.
SHAPE_FAULTS = {
    "triple-list": lambda cols: [list(t) for t in zip(*cols.values())],
    "null": lambda cols: None,
    "missing-column": lambda cols: {"prev": cols["prev"], "next": cols["next"]},
    "extra-column": lambda cols: dict(cols, total=cols["count"]),
    "tuple-like-str": lambda cols: dict(cols, next="abc"),
    "null-column": lambda cols: dict(cols, count=None),
    "short-column": lambda cols: dict(cols, next=cols["next"][:-1]),
    "long-column": lambda cols: dict(cols, prev=cols["prev"] + ["<s>"]),
}


class TestArrayLoaderMatchesScalarLoops:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_same_error_text_or_same_spec(self, data):
        content = [f"w{i}" for i in range(data.draw(st.integers(1, 5)))]
        tokens = ["<s>", "</s>", "<unk>", *content]
        triple = st.tuples(st.sampled_from(tokens), st.sampled_from(["</s>", *content]),
                           st.integers(0, 50)).map(list)
        well_formed = data.draw(st.lists(triple, max_size=10))  # may repeat pairs on its own
        cols = {name: [t[j] for t in well_formed]
                for j, name in enumerate(("prev", "next", "count"))}
        for _ in range(data.draw(st.integers(0, 4)) if well_formed else 0):
            i, j = (data.draw(st.integers(0, len(well_formed) - 1)) for _ in range(2))
            fault = data.draw(st.sampled_from(sorted(ENTRY_FAULTS)))
            for name, value in ENTRY_FAULTS[fault](well_formed[i], well_formed[j]).items():
                cols[name][i] = value
        if data.draw(st.integers(0, 5)) == 0:
            cols = SHAPE_FAULTS[data.draw(st.sampled_from(sorted(SHAPE_FAULTS)))](cols)
        doc = {
            "lambda": data.draw(st.sampled_from([0.5, 0.5, 0.0, 1.5, True, "0.5", 10**400])),
            "smooth_k": data.draw(st.sampled_from([1.0, 1.0, 2, 0.0, 1e308, None])),
            "vocab": data.draw(st.sampled_from([tokens] * 6 + [tokens + ["w0"], "<s></s><unk>w"])),
            "bigram_counts": cols,
        }
        message, counts = scalar_load(json.loads(json.dumps(doc)))
        try:
            spec = ToyModelSpec.from_json_text(json.dumps(doc))
        except FormatError as exc:
            assert str(exc) == message
            return
        assert message is None
        assert spec.bigram_counts == counts and len(spec.bigram_counts) == len(counts)
        assert (spec.copy_weight, spec.smooth_k) == (doc["lambda"], doc["smooth_k"])
        assert spec.vocab.tokens == tuple(doc["vocab"])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_counts_built_in_code_give_the_same_error_text(self, data):
        vocab = Vocab.from_content(["a", "b", "c"])
        ids = (st.integers(-1, len(vocab)) | st.sampled_from([np.int64(3), np.uint8(4), True,
                                                              3.0, "3", None, 10**30]))
        counts = st.integers(0, 9) | st.sampled_from([-1, 2**53, 2**53 - 1, 10**400, 2.0,
                                                       True, np.int64(2), None])
        pairs = data.draw(st.dictionaries(st.tuples(ids, ids), counts, max_size=8))
        cw = data.draw(st.sampled_from([0.5, 0.5, 0.5, 2.0, True]))
        try:
            spec = ToyModelSpec(cw, 1.0, pairs, vocab)
        except ValueError as exc:
            assert str(exc) == scalar_value_fault(cw, 1.0, pairs, vocab)
            return
        assert scalar_value_fault(cw, 1.0, pairs, vocab) is None
        assert spec.bigram_counts == pairs


def table_built_from_the_mapping(spec: ToyModelSpec) -> tuple[np.ndarray, ...]:
    """The bigram table as it was built from the count mapping, before the spec
    held its counts as arrays."""
    counts, size = spec.bigram_counts, len(spec.vocab)
    pairs = np.fromiter((t for pair in counts for t in pair), np.intp, 2 * len(counts))
    order = np.argsort(pairs[0::2] * size + pairs[1::2])
    prevs, nexts = pairs[0::2][order], pairs[1::2][order]
    raw = np.fromiter(counts.values(), float, len(counts))[order]
    k, w = spec.smooth_k, 1.0 - spec.copy_weight
    totals = np.bincount(prevs, weights=raw, minlength=size) + k * (size - 2)
    starts = np.searchsorted(prevs, np.arange(size + 1))
    return w * (k / totals), starts, nexts, w * ((raw + k) / totals[prevs])


class TestBigramTableArrays:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_table_byte_equal_however_the_spec_was_built(self, data):
        vocab = Vocab.from_content([f"w{i}" for i in range(data.draw(st.integers(1, 8)))])
        pair = st.tuples(st.integers(0, len(vocab) - 1),
                         st.sampled_from((EOS_ID, *vocab.content_ids)))
        counts = data.draw(st.dictionaries(
            pair, st.integers(0, 2**20) | st.integers(2**52, 2**53 - 1), max_size=30))
        cw = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        k = data.draw(st.sampled_from([1e-3, 1.0]) | st.floats(1e-3, 5.0))
        in_code = ToyModelSpec(cw, k, counts, vocab)
        specs = [ToyModelSpec.from_json_text(in_code.to_json_text()), in_code,
                 ToyModelSpec(cw, k, dict(reversed(list(counts.items()))), vocab)]
        assert specs[0] == in_code and specs[0].to_json_text() == in_code.to_json_text()
        tables = [CopyBigramModel(spec)._bigram_table for spec in specs]
        tables.append(table_built_from_the_mapping(in_code))
        for arrays in zip(*tables):
            assert len({(a.dtype, a.shape, a.tobytes()) for a in arrays}) == 1

    def test_wide_spec_file_loads_the_arrays_and_rows_built_in_code(self, tmp_path):
        # the size of the wide benchmark's spec: V = 2,000 tokens, 20,000 counts
        rng = np.random.default_rng(0)
        vocab = Vocab.from_content([f"w{i:04d}" for i in range(1997)])
        prevs, nexts = [BOS_ID, *vocab.content_ids], [EOS_ID, *vocab.content_ids]
        flat = rng.choice(len(prevs) * len(nexts), 20_000, replace=False).tolist()
        counts = {(prevs[f // len(nexts)], nexts[f % len(nexts)]): int(c)
                  for f, c in zip(flat, rng.integers(1, 10, 20_000))}
        in_code = ToyModelSpec(0.5, 1.0, counts, vocab)
        in_code.save(tmp_path / "spec.json")
        loaded = ToyModelSpec.load(tmp_path / "spec.json")
        for name in ("prev", "next", "count"):
            arrays = (getattr(spec.bigram_counts, name) for spec in (loaded, in_code))
            assert len({(a.dtype, a.shape, a.tobytes()) for a in arrays}) == 1
        assert loaded.bigram_counts.count.dtype == np.int64
        inputs = rng.integers(3, len(vocab), (8, 400)).tolist()
        models = CopyBigramModel(loaded), CopyBigramModel(in_code)
        for prev in (BOS_ID, *in_code.bigram_counts.prev[::4000].tolist(), 5, len(vocab) - 1):
            prefix = (BOS_ID,) if prev == BOS_ID else (BOS_ID, prev)
            rows = {model.score_batch(inputs, prefix).tobytes() for model in models}
            assert len(rows) == 1

    def test_counts_held_as_read_only_key_sorted_arrays(self, ab_vocab):
        spec = ToyModelSpec(0.5, 1.0, {(4, EOS_ID): 5, (3, 4): 2, (BOS_ID, 3): 1}, ab_vocab)
        counts = spec.bigram_counts
        assert counts.prev.tolist() == [BOS_ID, 3, 4] and counts.next.tolist() == [3, 4, EOS_ID]
        assert counts.count.tolist() == [1, 2, 5] and counts.count.dtype == np.int64
        for array in (counts.prev, counts.next, counts.count):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        assert counts == {(3, 4): 2, (4, EOS_ID): 5, (BOS_ID, 3): 1} and counts[3, 4] == 2
        assert (3, 4) in counts and (4, 3) not in counts and "x" not in counts
        assert list(counts) == [(BOS_ID, 3), (3, 4), (4, EOS_ID)]
        assert dataclasses.replace(spec, copy_weight=0.25).bigram_counts == counts
        with pytest.raises(ValueError, match="bigram count id 4 not an integer"):
            dataclasses.replace(spec, vocab=Vocab.from_content(["a"]))
