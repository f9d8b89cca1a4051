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

from conftest import UniformModel, mutate_json, random_inputs, random_toy_model


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
        assert str(info.value) == f"vocab token {token!r} must be a string"

    @pytest.mark.parametrize("tokens", [
        5, None, "<s></s><unk>a", {"<s>": 0, "</s>": 1, "<unk>": 2, "a": 3},
    ], ids=["int", "none", "str", "dict"])
    def test_tokens_must_be_a_list(self, tokens):
        # an int or None raised TypeError, and a dict built from its keys
        with pytest.raises(ValueError) as info:
            Vocab(tokens)
        assert str(info.value) == f"vocab tokens must be a list of strings, got {tokens!r}"
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
    "bigram_counts": [["<s>", "a", 2], ["a", "b", 1], ["b", "</s>", 3]],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["<s>", "</s>", "<unk>", "a", "b"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


class TestSpecLoaderErrors:
    @pytest.mark.parametrize("bad, message", [
        ({"a": "b"}, r"bigram_counts\[1\] must be a \[prev_token, next_token, count\] triple"),
        (["a", "b"], r"bigram_counts\[1\] must be a \[prev_token, next_token, count\] triple"),
        (["a", "b", 1, 1], r"bigram_counts\[1\] must be a \[prev_token, next_token, count\]"),
        ([3, "b", 1], r"bigram_counts\[1\] must be a \[prev_token, next_token, count\] triple"),
        (["a", None, 1], r"bigram_counts\[1\] must be a \[prev_token, next_token, count\]"),
        (["a", "b", 1.0], r"bigram_counts\[1\] must be a \[prev_token, next_token, count\]"),
        (["a", "b", True], r"bigram_counts\[1\] must be a \[prev_token, next_token, count\]"),
        (["a", "zz", 1], r"bigram_counts\[1\] names unknown token 'zz'"),
        (["yy", "zz", 1], r"bigram_counts\[1\] names unknown token 'yy'"),
        (["<s>", "a", 5], r"bigram_counts\[1\] repeats pair '<s>'->'a'"),
    ], ids=["not-a-list", "short", "long", "int-token", "null-token", "float-count",
            "bool-count", "unknown-next", "unknown-prev-first", "repeated-pair"])
    def test_bad_triple_named_by_index(self, bad, message):
        doc = dict(SPEC_DOC, bigram_counts=[SPEC_DOC["bigram_counts"][0], bad])
        with pytest.raises(FormatError, match=message):
            ToyModelSpec.from_json_text(json.dumps(doc))

    def test_first_bad_triple_in_file_order_reported(self):
        doc = dict(SPEC_DOC, bigram_counts=[["a", "zz", 1], ["a"], ["a", "b", 1.5]])
        with pytest.raises(FormatError, match=r"bigram_counts\[0\] names unknown token 'zz'"):
            ToyModelSpec.from_json_text(json.dumps(doc))

    @pytest.mark.parametrize("field", ["lambda", "smooth_k"])
    def test_number_too_large_for_a_float(self, field):
        text = json.dumps(dict(SPEC_DOC, **{field: 10**400}))
        with pytest.raises(FormatError, match=field):
            ToyModelSpec.from_json_text(text)

    def test_negative_count_in_file_named_by_its_tokens(self):
        doc = dict(SPEC_DOC, bigram_counts=[["<s>", "a", 2], ["a", "b", -1]])
        with pytest.raises(FormatError) as info:
            ToyModelSpec.from_json_text(json.dumps(doc))
        assert str(info.value) == (
            "model spec: bigram count 'a'->'b' must be a nonnegative integer below 2**53, got -1")

    @pytest.mark.parametrize("changes, message", [
        ({"lambda": 1.5}, "copy weight must lie in [0, 1], got 1.5"),
        ({"lambda": True}, "copy weight (lambda) must be a real number, got True"),
        ({"smooth_k": "1"}, "smooth_k must be a real number, got '1'"),
        ({"smooth_k": 1e308}, "smooth_k must be positive and finite times the 3 predictable"),
        ({"vocab": ["<s>", "</s>", "<unk>", "a", 5]}, "vocab token 5 must be a string"),
        ({"vocab": ["<s>", "</s>", "<unk>", "a", "a"]}, "duplicate vocab token 'a'"),
        ({"bigram_counts": [["a", "<s>", 1]]}, "bigram count 'a'->'<s>' targets unpredictable"),
    ], ids=["lambda-range", "lambda-bool", "smooth_k-str", "smooth_k-bound", "vocab-token-type",
            "vocab-duplicate", "bos-successor"])
    def test_every_value_fault_is_a_format_error(self, changes, message):
        with pytest.raises(FormatError) as info:
            ToyModelSpec.from_json_text(json.dumps(dict(SPEC_DOC, **changes)))
        assert str(info.value).startswith(f"model spec: {message}")

    def test_bigram_faults_reported_before_number_faults(self):
        # the numbers are checked when the spec is built, after the file's structure
        doc = dict(SPEC_DOC, smooth_k=True, bigram_counts=[["a", "zz", 1]])
        with pytest.raises(FormatError, match=r"bigram_counts\[0\] names unknown token 'zz'"):
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
    """The loader as one loop per triple, then the value loop: the FormatError
    text it gives for ``doc``, or the counts of the spec it builds."""
    try:
        if not isinstance(doc["vocab"], list):
            raise FormatError("field 'vocab' must be a list of strings")
        vocab = Vocab(doc["vocab"])
        if not isinstance(doc["bigram_counts"], list):
            raise FormatError("field 'bigram_counts' must be a list of [prev, next, count] triples")
        counts = {}
        for i, triple in enumerate(doc["bigram_counts"]):
            if not (type(triple) is list and len(triple) == 3 and type(triple[0]) is str
                    and type(triple[1]) is str and type(triple[2]) is int):
                raise FormatError(
                    f"bigram_counts[{i}] must be a [prev_token, next_token, count] triple")
            prev_tok, next_tok, count = triple
            prev, nxt = vocab._index.get(prev_tok), vocab._index.get(next_tok)
            if prev is None or nxt is None:
                tok = prev_tok if prev is None else next_tok
                raise FormatError(f"bigram_counts[{i}] names unknown token {tok!r}")
            if (prev, nxt) in counts:
                raise FormatError(f"bigram_counts[{i}] repeats pair {prev_tok!r}->{next_tok!r}")
            counts[prev, nxt] = count
    except ValueError as exc:
        return f"model spec: {exc}", None
    fault = scalar_value_fault(doc["lambda"], doc["smooth_k"], counts, vocab)
    return (f"model spec: {fault}", None) if fault else (None, counts)


#: Faults one triple can carry: each maps a well-formed triple, and another
#: triple of the same doc, to a replacement.
TRIPLE_FAULTS = {
    "not-a-list": lambda t, other: {"a": t[0]},
    "tuple-like-str": lambda t, other: "abc",
    "null": lambda t, other: None,
    "short": lambda t, other: t[:2],
    "long": lambda t, other: t + [1],
    "int-token": lambda t, other: [3, t[1], t[2]],
    "null-token": lambda t, other: [t[0], None, t[2]],
    "float-count": lambda t, other: [t[0], t[1], 1.0],
    "bool-count": lambda t, other: [t[0], t[1], True],
    "str-count": lambda t, other: [t[0], t[1], "1"],
    "unknown-prev": lambda t, other: ["zz", t[1], t[2]],
    "unknown-next": lambda t, other: [t[0], "yy", t[2]],
    "unknown-both": lambda t, other: ["zz", "yy", t[2]],
    "bos-next": lambda t, other: [t[0], "<s>", t[2]],
    "unk-next": lambda t, other: [t[0], "<unk>", t[2]],
    "negative": lambda t, other: [t[0], t[1], -1],
    "2**53": lambda t, other: [t[0], t[1], 2**53],
    "2**53-1": lambda t, other: [t[0], t[1], 2**53 - 1],
    "past-int64": lambda t, other: [t[0], t[1], 2**63],
    "past-float": lambda t, other: [t[0], t[1], 10**400],
    "far-negative": lambda t, other: [t[0], t[1], -(10**400)],
    "repeat": lambda t, other: other[:2] + [t[2]],
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
        triples = list(well_formed)
        for _ in range(data.draw(st.integers(0, 4)) if triples else 0):
            i, j = (data.draw(st.integers(0, len(triples) - 1)) for _ in range(2))
            fault = data.draw(st.sampled_from(sorted(TRIPLE_FAULTS)))
            triples[i] = TRIPLE_FAULTS[fault](list(well_formed[i]), well_formed[j])
        doc = {
            "lambda": data.draw(st.sampled_from([0.5, 0.5, 0.0, 1.5, True, "0.5", 10**400])),
            "smooth_k": data.draw(st.sampled_from([1.0, 1.0, 2, 0.0, 1e308, None])),
            "vocab": data.draw(st.sampled_from([tokens] * 6 + [tokens + ["w0"], "<s></s><unk>w"])),
            "bigram_counts": triples,
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
        tables = [CopyBigramModel(spec)._bigram_table for spec in specs]
        tables.append(table_built_from_the_mapping(in_code))
        for arrays in zip(*tables):
            assert len({(a.dtype, a.shape, a.tobytes()) for a in arrays}) == 1

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
