"""Model-layer tests: vocab, toy spec round-trips, scoring arithmetic."""

from __future__ import annotations

import json
import math
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
    UniformModel,
    Vocab,
    beam_search,
    load_model,
)
from dyne import seqmodel
from dyne.seqmodel import BOS_ID, EOS_ID, UNK_ID

from conftest import mutate_json, random_inputs, random_toy_model


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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_spec_text_fails_cleanly(self, data):
        text = mutate_json(data, SPEC_DOC, JSON_VALUES)
        try:
            spec = ToyModelSpec.from_json_text(text)
        except ValueError:  # FormatError is a ValueError
            return
        assert ToyModelSpec.from_json_text(spec.to_json_text()) == spec
