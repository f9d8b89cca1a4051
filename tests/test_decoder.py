"""Decoder tests: reduce functions, beam search, the brute-force oracle."""

from __future__ import annotations

import collections
import dataclasses
import enum
import gc
import hashlib
import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyne import (
    CopyBigramModel,
    DecodeError,
    DecodeParams,
    Reduce,
    ToyModelSpec,
    TraceMatrix,
    TraceRow,
    Vocab,
    beam_search,
    brute_force_search,
    reduce_mean_logprob,
    reduce_mean_prob,
    sequence_score,
    tokenize_and_truncate,
)
import dyne.decoder
from dyne.decoder import STEP_BYTES_LIMIT, _Search, check_beam_memory
from dyne.seqmodel import BOS_ID, EOS_ID, UNK_ID
from dyne.synthetic import build_consensus_corpus

from conftest import (Level, UniformModel, banned_next_tokens, exhaustive_beam_size,
                      mean_prob_by_columns, plain_beam_search, plain_ensemble_beam_search,
                      random_inputs, random_toy_model)

AB = Vocab.from_content(["a", "b"])
A, B = 3, 4


def copy_model(vocab=AB, k=1.0):
    return CopyBigramModel(ToyModelSpec(1.0, k, {}, vocab))


def skewed_model():
    """Context-free model with p(a)=0.7, p(b)=0.2, p(EOS)=0.1 on the fixed input."""
    return copy_model(), (A,) * 6 + (B,)


class NaNModel:
    """Uniform scores except ``value`` (NaN by default) for token ``a`` on
    input 0: breaks the model contract."""

    def __init__(self, vocab=AB, value=math.nan):
        self.vocab = vocab
        self.value = value

    def score_batch(self, inputs, prefix):
        v = np.full((len(inputs), len(self.vocab)), -math.log(len(self.vocab)))
        v[0, A] = self.value
        return v


class MisshapenModel:
    """Uniform scores, reshaped so that they break the ``[N, V]`` model contract."""

    def __init__(self, reshape, vocab=AB):
        self.vocab = vocab
        self._uniform = UniformModel(vocab)
        self._reshape = reshape

    def score_batch(self, inputs, prefix):
        return self._reshape(self._uniform.score_batch(inputs, prefix))


class UnscoredModel:
    """Fails the test if anything asks it for a score."""

    vocab = AB

    def score_batch(self, inputs, prefix):
        raise AssertionError("scored before the inputs were checked")


class LastTokenModel:
    """Scores every input with ``rows[prefix[-1]]``."""

    vocab = AB

    def __init__(self, rows):
        self.rows = rows

    def score_batch(self, inputs, prefix):
        return np.tile(np.array(self.rows[prefix[-1]]), (len(inputs), 1))


# model-output shape faults on two inputs over AB (V = 5): (reshape, what it returns)
MISSHAPEN = {
    "extra-column": (lambda v: np.hstack([v, v[:, :1]]), "(2, 6)"),
    "missing-column": (lambda v: v[:, :-1], "(2, 4)"),
    "extra-row": (lambda v: np.vstack([v, v[:1]]), "(3, 5)"),
    "missing-row": (lambda v: v[:1], "(1, 5)"),
    "1-d": (lambda v: v[0], "(5,)"),
    "list": (lambda v: v.tolist(), "list"),
}

ENTRY_POINTS = {
    "beam_search": lambda model, inputs, labels=None: beam_search(
        model, inputs, DecodeParams(beam_size=2, max_len=3), input_labels=labels),
    "brute_force_search": lambda model, inputs, labels=None: brute_force_search(
        model, inputs, DecodeParams(beam_size=2, max_len=3), input_labels=labels),
    "sequence_score": lambda model, inputs, labels=None: sequence_score(
        model, inputs, (A, EOS_ID), input_labels=labels),
}


def bits(rows):
    """Trace rows with every float spelled exactly, so -0.0 differs from 0.0."""
    return [
        (r.token_id, r.token, r.combined.hex(), tuple(x.hex() for x in r.per_input))
        for r in rows
    ]


def random_probs(rng: np.random.Generator, width: int, mask_rate: float = 0.0):
    probs = rng.dirichlet(np.ones(width))
    if mask_rate:
        drop = rng.random(width) < mask_rate
        if drop.all():
            drop[int(rng.integers(width))] = False
        probs = np.where(drop, 0.0, probs)
        probs = probs / probs.sum()
    with np.errstate(divide="ignore"):
        return np.log(probs)


class TestReduceMeanLogprob:
    def test_identical_vectors_exact(self):
        v = np.log(np.array([0.3, 0.2, 0.5]))
        assert np.array_equal(reduce_mean_logprob([v, v.copy(), v.copy()]), v)

    def test_hand_example_exact(self):
        out = reduce_mean_logprob([np.array([-1.0, -2.0]), np.array([-3.0, -2.0])])
        assert np.array_equal(out, np.array([-2.0, -2.0]))

    def test_singleton_exact(self):
        v = np.array([-0.5, -1.5, -np.inf])
        assert np.array_equal(reduce_mean_logprob([v]), v)

    def test_masked_entries_propagate(self):
        out = reduce_mean_logprob([np.array([-1.0, -np.inf]), np.array([-1.0, -2.0])])
        assert out[1] == -np.inf

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            reduce_mean_logprob([])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vocabulary size"):
            reduce_mean_logprob([np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError, match=r"vocabulary size: \[2, 4\]"):
            reduce_mean_logprob([np.zeros(4), np.zeros((2, 2))])

    def test_nan_rejected_by_both_reducers(self):
        for reduce_fn in (reduce_mean_logprob, reduce_mean_prob):
            with pytest.raises(ValueError, match="NaN"):
                reduce_fn([np.array([-1.0, -2.0]), np.array([-1.0, np.nan])])

    @pytest.mark.parametrize("reduce_fn", [reduce_mean_logprob, reduce_mean_prob])
    @pytest.mark.parametrize("stack, shape", [
        (np.zeros(5), (5,)),
        ([-1.0, -2.0], (2,)),
        (np.zeros((2, 3, 4)), (2, 3, 4)),
        ([np.zeros((1, 3))] * 2, (2, 1, 3)),
        (np.float64(3), ()),
        (np.array(3.0), ()),
        (None, ()),
    ], ids=["1-d-array", "list-of-floats", "3-d-array", "list-of-2-d", "numpy-scalar",
            "0-d-array", "none"])
    def test_stack_that_is_not_n_by_v_rejected(self, reduce_fn, stack, shape):
        # a 1-D stack raised TypeError (a float has no len), a 3-D one a numpy
        # broadcast error; a scalar, a 0-d array and None raised TypeError from len()
        with pytest.raises(ValueError) as info:
            reduce_fn(stack)
        assert str(info.value) == (
            f"reduce needs an [N, V] stack of distributions, got shape {shape}")

    def test_plus_inf_rejected_by_both_reducers(self):
        for reduce_fn in (reduce_mean_logprob, reduce_mean_prob):
            with pytest.raises(ValueError, match=r"NaN or \+inf"):
                reduce_fn([np.array([-1.0, -2.0]), np.array([-1.0, np.inf])])

    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant_bitwise(self, seed, n):
        rng = np.random.default_rng(seed)
        vs = [random_probs(rng, 6, mask_rate=0.2) for _ in range(n)]
        base = reduce_mean_logprob(vs)
        perm = [vs[i] for i in rng.permutation(n)]
        assert np.array_equal(base, reduce_mean_logprob(perm))


class TestReduceMeanProb:
    def test_hand_example(self):
        out = reduce_mean_prob([np.log(np.array([0.2, 0.8])), np.log(np.array([0.6, 0.4]))])
        assert out == pytest.approx(np.log([0.4, 0.6]), abs=1e-12)

    def test_identical_vectors_exact(self):
        v = np.log(np.array([0.25, 0.75]))
        assert np.array_equal(reduce_mean_prob([v, v.copy()]), v)

    def test_uniform_stays_uniform(self):
        u = np.full(4, math.log(0.25))
        assert reduce_mean_prob([u, u.copy()]) == pytest.approx(u, abs=1e-12)

    def test_all_masked_column(self):
        out = reduce_mean_prob([np.array([-np.inf, 0.0]), np.array([-np.inf, 0.0])])
        assert out[0] == -np.inf and out[1] == 0.0

    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_preserves_normalization(self, seed, n):
        rng = np.random.default_rng(seed)
        vs = [random_probs(rng, 5, mask_rate=0.2) for _ in range(n)]
        out = reduce_mean_prob(vs)
        total = np.sum(np.exp(out))
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant_bitwise(self, seed, n):
        rng = np.random.default_rng(seed)
        vs = [random_probs(rng, 6, mask_rate=0.2) for _ in range(n)]
        base = reduce_mean_prob(vs)
        perm = [vs[i] for i in rng.permutation(n)]
        assert np.array_equal(base, reduce_mean_prob(perm))


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_array_reducers_invariant_to_row_permutation_and_duplication(seed):
    # Rows of an [N, V] array, with masked entries and exact ties across rows;
    # a run of copies of one row reduces to that row exactly.
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(1, 10)), int(rng.integers(1, 12))
    arr = np.stack([random_probs(rng, width, mask_rate=0.3) for _ in range(n)])
    if rng.random() < 0.5:
        arr[:, : width // 2] = np.round(arr[:, : width // 2], 1)
    with_dups = np.concatenate([arr, arr[rng.integers(0, n, size=int(rng.integers(1, 4)))]])
    copies = np.repeat(arr[:1], int(rng.integers(1, 6)), axis=0)
    for reduce_fn in (reduce_mean_logprob, reduce_mean_prob):
        base = reduce_fn(arr)
        assert base.tobytes() == reduce_fn(list(arr)).tobytes()
        assert base.tobytes() == reduce_fn(arr[rng.permutation(n)]).tobytes()
        dup_base = reduce_fn(with_dups)
        assert dup_base.tobytes() == reduce_fn(with_dups[::-1]).tobytes()
        assert dup_base.tobytes() == reduce_fn(with_dups[rng.permutation(len(with_dups))]).tobytes()
        assert reduce_fn(copies).tobytes() == arr[0].tobytes()


def one_step(model, inputs, prefix, reduce=Reduce.MEAN_LOGPROB):
    """The combined ``[V]`` row and the ``[N, V]`` per-input scores of a search
    step over the one live prefix ``prefix``."""
    ((scores, combined, _),) = _Search(model, inputs, None, reduce).step([prefix])
    return combined, scores


class TestEnsembleStep:
    def test_duplicate_inputs_idempotent(self):
        model = copy_model()
        x = (A, A, B)
        for reduce in Reduce:
            alone = model.score_next(x, (BOS_ID,))
            combined, per = one_step(model, [x, x], (BOS_ID,), reduce)
            assert np.array_equal(combined, alone)
            assert len(per) == 2

    def test_single_input_passthrough(self):
        model = copy_model()
        combined, per = one_step(model, [(A,)], (BOS_ID,), Reduce.MEAN_PROB)
        assert np.array_equal(combined, per[0])

    def test_two_input_hand_arithmetic(self):
        # copy-only: p(a | "a a b") = 1/2 and p(a | "b") = 1/4
        model = copy_model()
        combined, _ = one_step(model, [(A, A, B), (B,)], (BOS_ID,), Reduce.MEAN_LOGPROB)
        assert combined[A] == pytest.approx(-1.0397207708399179, abs=1e-12)

    # the public one-step path: sequence_score of a one-token target
    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one input"):
            sequence_score(copy_model(), [], (EOS_ID,))

    def test_a_tuple_of_tuples_is_searched_as_given(self):
        # a model may key its per-input work on the inputs object (CopyBigramModel's copy
        # table), so a run of decodes of one tuple of tuples builds that work once
        model, inputs = copy_model(), ((A, B), (B,))
        assert _Search(model, inputs, None, Reduce.MEAN_LOGPROB).inputs is inputs
        made = _Search(model, [list(x) for x in inputs], None, Reduce.MEAN_LOGPROB).inputs
        assert made == inputs and isinstance(made, tuple)

    @pytest.mark.parametrize("make", [dict.fromkeys, set, iter, np.array],
                             ids=["dict", "set", "iterator", "ndarray"])
    def test_inputs_must_be_a_list_or_tuple(self, make):
        # a dict scored its keys and a set its items in iteration order; an
        # iterator raised a bare TypeError and an ndarray numpy's "truth value" error
        message = "inputs must be a list or tuple of list or tuple, got "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            sequence_score(UnscoredModel(), make([(A, B), (B, A)]), (EOS_ID,))

    def test_mean_logprob_consistency(self):
        combined, per = one_step(copy_model(), [(A, A, B), (B,)], (BOS_ID,), Reduce.MEAN_LOGPROB)
        assert abs(combined[A] - np.mean(per[:, A])) <= 1e-9


class TestBeamSearch:
    def test_skewed_model_min_len_one(self):
        model, x = skewed_model()
        params = DecodeParams(beam_size=3, max_len=2, min_len=1)
        best = beam_search(model, [x], params)[0]
        assert best.tokens == (A, EOS_ID)
        assert best.raw_score == pytest.approx(math.log(0.7) + math.log(0.1), abs=1e-12)
        assert best.ranked_score == best.raw_score

    def test_skewed_model_min_len_zero(self):
        model, x = skewed_model()
        params = DecodeParams(beam_size=3, max_len=2, min_len=0)
        best = beam_search(model, [x], params)[0]
        assert best.tokens == (EOS_ID,)
        assert best.raw_score == pytest.approx(math.log(0.1), abs=1e-12)

    def test_results_sorted_and_finished(self):
        model, x = skewed_model()
        params = DecodeParams(beam_size=4, max_len=3, min_len=0)
        hyps = beam_search(model, [x], params)
        assert 1 <= len(hyps) <= 4
        scores = [h.ranked_score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        for h in hyps:
            assert h.tokens[-1] == EOS_ID

    def test_lexicographic_tie_break(self):
        # Uniform model: every length-1 completion ties; UNK has the
        # smallest id among content candidates.
        model = UniformModel(AB)
        params = DecodeParams(beam_size=2, max_len=2, min_len=1)
        best = beam_search(model, [(A,)], params)[0]
        assert best.tokens == (UNK_ID, EOS_ID)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_continuations_summing_to_minus_inf_still_rank(self):
        # finite scores near -1e308 sum to -inf; the selectable mask, not the
        # score, decides what ranks, so (4, 4) survives the second step
        row = [-np.inf, -1e308, -np.inf, 0.0, -1e308]
        model = LastTokenModel(dict.fromkeys((BOS_ID, A, B), row))
        params = DecodeParams(beam_size=4, max_len=3, min_len=2)
        hyps = beam_search(model, [(A,)], params)
        assert [h.tokens for h in hyps] == [(A, A, EOS_ID), (A, B, EOS_ID),
                                           (B, A, EOS_ID), (B, B, EOS_ID)]
        assert [h.raw_score for h in hyps] == [-1e308, -np.inf, -np.inf, -np.inf]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_masked_scores_are_not_added_to_a_running_plus_inf(self):
        # ``a`` at the largest float overflows the running score to +inf; the
        # masked ``b`` (-inf) must not be summed with it, which warns of NaN
        row = [-1.0, -1.0, -np.inf, float(np.finfo(float).max), -np.inf]
        model = LastTokenModel(dict.fromkeys((BOS_ID, A, B), row))
        best = beam_search(model, [(A,)], DecodeParams(beam_size=1, max_len=4, min_len=3))[0]
        assert best.tokens == (A, A, A, EOS_ID)
        assert best.raw_score == np.inf

    def test_integer_model_scores_are_traced_as_the_floats_reduced(self):
        low = -(2**62 + 1)  # no float holds it; the reduce sees -2**62
        model = LastTokenModel(dict.fromkeys((BOS_ID, UNK_ID, A, B), [low, -1, low, -2, low]))
        best = beam_search(model, [(A,)], DecodeParams(beam_size=1, max_len=2))[0]
        assert best.tokens == (A, EOS_ID)
        assert [r.per_input for r in best.trace.rows] == [(-2.0,), (-1.0,)]
        assert all(type(x) is float for r in best.trace.rows for x in r.per_input)
        raw, trace = sequence_score(model, [(A,)], (UNK_ID, EOS_ID))
        assert trace.rows[0].per_input == (float(low),) == (-(2.0**62),)

    def test_score_ties_go_to_the_smaller_sequence_after_the_first_step(self):
        # b outscores a at step 1, then a-a and b-a tie for the last slot:
        # a-a wins only if the live prefixes stay in sequence order
        model = LastTokenModel({BOS_ID: [-np.inf, 0.0, -np.inf, -2.0, -1.0],
                                A: [-np.inf, 0.0, -np.inf, -1.0, -10.0],
                                B: [-np.inf, 0.0, -np.inf, -2.0, -1.0]})
        hyps = beam_search(model, [(A,)], DecodeParams(beam_size=2, max_len=3, min_len=2))
        assert [(h.tokens, h.raw_score) for h in hyps] == [((B, B, EOS_ID), -2.0),
                                                          ((A, A, EOS_ID), -3.0)]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_fewer_selectable_than_beam_size_all_rank_with_a_minus_inf_sum(self):
        # two continuations per step against a beam of 4, so every selectable
        # one survives; (a, a) sums two finite scores to -inf and still ranks
        model = LastTokenModel({BOS_ID: [-np.inf, -np.inf, -np.inf, -1e308, 0.0],
                                A: [-np.inf, 0.0, -np.inf, -1e308, -np.inf],
                                B: [-np.inf, 0.0, -np.inf, -np.inf, -1.0]})
        params = DecodeParams(beam_size=4, max_len=3, min_len=2)
        hyps = beam_search(model, [(A,)], params)
        assert [(h.tokens, h.raw_score) for h in hyps] == [((B, B, EOS_ID), -1.0),
                                                          ((A, A, EOS_ID), -np.inf)]
        assert brute_force_search(model, [(A,)], params).tokens == (B, B, EOS_ID)

    def test_ties_at_the_cut_across_prefixes_go_to_the_smaller_sequence(self):
        # (a, b) and (b, a) tie at the cut for the second slot; (b, a) ends in
        # the smaller token, (a, b) is the smaller sequence and survives
        model = LastTokenModel({BOS_ID: [-np.inf, -np.inf, -np.inf, -1.0, -1.0],
                                A: [-np.inf, 0.0, -np.inf, -5.0, -3.0],
                                B: [-np.inf, 0.0, -np.inf, -3.0, -2.0]})
        hyps = beam_search(model, [(A,)], DecodeParams(beam_size=2, max_len=3, min_len=2))
        assert [(h.tokens, h.raw_score) for h in hyps] == [((B, B, EOS_ID), -3.0),
                                                          ((A, B, EOS_ID), -4.0)]

    def test_signed_zero_sums_keep_their_bits(self):
        # 0.0 + -0.0 is 0.0; ranking on negated scores must not store -0.0
        model = LastTokenModel({BOS_ID: [-np.inf, -0.0, -np.inf, -0.0, 0.0],
                                A: [-np.inf, -0.0, -np.inf, -np.inf, -np.inf],
                                B: [-np.inf, -0.0, -np.inf, -1.0, -np.inf]})
        params = DecodeParams(beam_size=2, max_len=3, min_len=1)
        hyps = beam_search(model, [(A,)], params)
        assert [(h.tokens, h.raw_score.hex()) for h in hyps] == [
            ((A, EOS_ID), "0x0.0p+0"), ((B, EOS_ID), "0x0.0p+0")]
        for h in hyps:
            assert [r.combined.hex() for r in h.trace.rows][-1] == "-0x0.0p+0"
            raw, trace = sequence_score(model, [(A,)], h.tokens)
            assert raw.hex() == h.raw_score.hex() and bits(trace.rows) == bits(h.trace.rows)
        assert brute_force_search(model, [(A,)], params).raw_score.hex() == "0x0.0p+0"

    def test_bos_never_generated(self):
        model = UniformModel(AB)  # assigns BOS nonzero probability
        params = DecodeParams(beam_size=8, max_len=4, min_len=0)
        for hyp in beam_search(model, [(A,)], params):
            assert BOS_ID not in hyp.tokens

    def test_repeat_ngram_blocking(self):
        model, x = skewed_model()
        params = DecodeParams(beam_size=4, max_len=6, min_len=4, block_repeat_ngram=2)
        for hyp in beam_search(model, [x], params):
            bigrams = list(zip(hyp.tokens, hyp.tokens[1:]))
            assert len(bigrams) == len(set(bigrams))

    def test_overconstrained_masks_raise(self):
        vocab = Vocab.from_content(["a"])
        model = copy_model(vocab)
        params = DecodeParams(beam_size=2, max_len=4, min_len=2, block_repeat_ngram=1)
        # the only content token is blocked after one use and EOS is still masked
        with pytest.raises(DecodeError, match="min_len"):
            beam_search(model, [(3,)], params)

    def test_eos_scored_at_minus_inf_leaves_nothing_at_max_len(self):
        # only EOS is selectable at content length max_len - 1, and the model
        # rules it out; a search past max_len fails here instead of running on
        row = [-math.inf, -math.inf, -math.inf, -0.5, -1.0]
        model = LastTokenModel({BOS_ID: row, A: row, B: row})

        def capped(inputs, prefix):
            assert len(prefix) <= 3, "scored a prefix past max_len"
            return LastTokenModel.score_batch(model, inputs, prefix)

        model.score_batch = capped
        with pytest.raises(DecodeError, match=r"^no viable continuation for any hypothesis "
                           r"\(content length 2, max_len=3 forces EOS\)$"):
            beam_search(model, [(A,)], DecodeParams(beam_size=2, max_len=3, min_len=0))

    def test_nothing_left_at_min_len_names_no_eos_mask(self):
        # at content length 2 == min_len the mask allows EOS, but the model scores
        # it -inf and block_repeat_ngram=1 has blocked both content tokens
        row = [-math.inf, -math.inf, -math.inf, -0.5, -1.0]
        model = LastTokenModel({BOS_ID: row, A: row, B: row})
        params = DecodeParams(beam_size=2, max_len=6, min_len=2, block_repeat_ngram=1)
        with pytest.raises(DecodeError, match=r"^no viable continuation for any hypothesis "
                           r"\(content length 2, block_repeat_ngram=1\)$"):
            beam_search(model, [(A,)], params)

    def test_nan_from_model_is_an_error(self):
        with pytest.raises(ValueError, match="NaN"):
            beam_search(NaNModel(), [(A,)], DecodeParams(beam_size=2, max_len=3))

    @pytest.mark.parametrize("reduce", list(Reduce))
    def test_plus_inf_from_model_is_an_error(self, reduce):
        # Scored +inf by one of two inputs, ``a`` would rank at +inf under
        # mean_logprob and be masked silently (inf - inf) under mean_prob.
        with pytest.raises(ValueError, match=r"NaN or \+inf"):
            beam_search(NaNModel(value=math.inf), [(A,), (B,)],
                        DecodeParams(beam_size=2, max_len=3, reduce=reduce))

    def test_determinism(self):
        rng = np.random.default_rng(99)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        params = DecodeParams(beam_size=3, max_len=4, min_len=1)
        first = beam_search(model, inputs, params)
        second = beam_search(model, inputs, params)
        assert [h.tokens for h in first] == [h.tokens for h in second]
        assert [h.raw_score for h in first] == [h.raw_score for h in second]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_length_masking(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        max_len = int(rng.integers(2, 6))
        params = DecodeParams(
            beam_size=int(rng.integers(1, 5)),
            max_len=max_len,
            min_len=int(rng.integers(0, max_len)),
            reduce=Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB,
        )
        for hyp in beam_search(model, inputs, params):
            assert params.min_len <= len(hyp.tokens) - 1 <= params.max_len - 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_single_input_degenerates_to_plain_beam(self, seed):
        # Up to 6 content tokens let beam_size fall below the number of
        # allowed tokens; under the uniform model every candidate ties.
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng, max_content=6)
        if rng.random() < 0.3:
            model = UniformModel(vocab)
        x = random_inputs(rng, vocab, max_inputs=1)[0]
        max_len = int(rng.integers(2, 6))
        params = DecodeParams(
            beam_size=int(rng.integers(1, 5)),
            max_len=max_len,
            min_len=int(rng.integers(0, max_len)),
            reduce=Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB,
        )
        ours = beam_search(model, [x], params)
        reference = plain_beam_search(model, x, params)
        assert [(h.tokens, h.raw_score, h.ranked_score) for h in ours] == reference

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_beam_monotone_in_width(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        max_len = int(rng.integers(2, 5))
        min_len = int(rng.integers(0, max_len))
        best_so_far = -np.inf
        widths = [1, 2, 3, exhaustive_beam_size(vocab, DecodeParams(
            beam_size=1, max_len=max_len, min_len=min_len))]
        for width in widths:
            params = DecodeParams(beam_size=width, max_len=max_len, min_len=min_len)
            top = beam_search(model, inputs, params)[0].raw_score
            assert top >= best_so_far - 1e-12
            best_so_far = max(best_so_far, top)


    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_trace_rows_equal_rescoring_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng, max_content=4)
        inputs = random_inputs(rng, vocab)
        max_len = int(rng.integers(2, 6))
        params = DecodeParams(
            beam_size=int(rng.integers(1, 5)),
            max_len=max_len,
            min_len=int(rng.integers(0, max_len)),
            reduce=Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB,
            length_penalty_alpha=float(rng.choice([0.0, 0.5, 1.0])),
            block_repeat_ngram=int(rng.integers(0, 3)) or None,
        )
        try:
            hyps = beam_search(model, inputs, params)
        except DecodeError:
            return  # blocking with min_len can leave no admissible sequence
        for hyp in hyps:
            raw, trace = sequence_score(model, inputs, hyp.tokens, params.reduce)
            assert bits(hyp.trace.rows) == bits(trace.rows)
            assert hyp.raw_score.hex() == raw.hex()

    def test_traces_built_only_for_returned_results(self, monkeypatch):
        # min_len 0 puts the bare EOS in the pool at step 0, and at step 1 both
        # live prefixes take EOS: 3 EOS candidates for a beam of 2
        built = collections.Counter()

        def counted(cls):
            def build(*args, **kwargs):
                built[cls.__name__] += 1
                return cls(*args, **kwargs)
            return build

        for cls in (TraceMatrix, TraceRow):
            monkeypatch.setattr(dyne.decoder, cls.__name__, counted(cls))
        params = DecodeParams(beam_size=2, max_len=4, min_len=0)
        results = beam_search(UniformModel(AB), [(A, B), (B,)], params)
        assert [h.tokens for h in results] == [(EOS_ID,), (UNK_ID, EOS_ID)]
        assert built == {"TraceMatrix": 1}  # the one that checks the labels
        for h in results[::-1]:  # each read builds its own result's trace, and no other
            built.clear()
            trace = h.trace
            assert built == {"TraceMatrix": 1, "TraceRow": len(h.tokens)}
            assert [r.token_id for r in trace.rows] == list(h.tokens)
            built.clear()
            assert h.trace is trace
            assert not built


class TestBruteForce:
    def test_guards(self):
        big_vocab = Vocab.from_content([f"w{i}" for i in range(10)])
        with pytest.raises(ValueError, match="brute-force"):
            brute_force_search(UniformModel(big_vocab), [(3,)], DecodeParams(max_len=2))
        with pytest.raises(ValueError, match="brute-force"):
            brute_force_search(UniformModel(AB), [(3,)], DecodeParams(max_len=9, min_len=0))

    def test_guards_accept_their_limits(self):
        # the copy model gives UNK no mass, so the walks stay small
        longest = DecodeParams(max_len=dyne.decoder.MAX_BRUTE_FORCE_LEN, min_len=0)
        assert brute_force_search(copy_model(Vocab.from_content(["a"])), [(3,)], longest).tokens
        width = dyne.decoder.MAX_BRUTE_FORCE_VOCAB
        widest = Vocab.from_content([f"w{i}" for i in range(width - 3)])  # and BOS, EOS, UNK
        assert brute_force_search(copy_model(widest), [(3,)], DecodeParams(max_len=2)).tokens

    def test_single_content_token_copy_model(self):
        # {BOS, EOS, UNK, a} under the copy model: UNK carries zero
        # probability, so [a, EOS] is the only scoreable candidate.
        vocab = Vocab.from_content(["a"])
        model = copy_model(vocab)
        params = DecodeParams(beam_size=1, max_len=2, min_len=1)
        best = brute_force_search(model, [(3,)], params)
        assert best.tokens == (3, EOS_ID)

    def test_uniform_tie_prefers_smaller_ids(self):
        # Under the uniform model [UNK, EOS] and [a, EOS] tie exactly;
        # UNK has the smaller id.
        vocab = Vocab.from_content(["a"])
        model = UniformModel(vocab)
        params = DecodeParams(beam_size=1, max_len=2, min_len=1)
        best = brute_force_search(model, [(3,)], params)
        assert best.tokens == (UNK_ID, EOS_ID)

    def test_matches_hand_beam_example(self):
        model, x = skewed_model()
        params = DecodeParams(beam_size=3, max_len=2, min_len=1)
        beam = beam_search(model, [x], params)[0]
        oracle = brute_force_search(model, [x], params)
        assert beam.tokens == oracle.tokens
        assert beam.raw_score == oracle.raw_score

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_exhaustive_beam_equals_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        max_len = int(rng.integers(2, 6))
        params = DecodeParams(
            beam_size=1,
            max_len=max_len,
            min_len=int(rng.integers(0, max_len)),
            reduce=Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB,
            length_penalty_alpha=float(rng.choice([0.0, 0.0, 0.5, 1.0])),
        )
        from dataclasses import replace

        params = replace(params, beam_size=exhaustive_beam_size(vocab, params))
        beam = beam_search(model, inputs, params)[0]
        oracle = brute_force_search(model, inputs, params)
        assert beam.tokens == oracle.tokens
        assert abs(beam.raw_score - oracle.raw_score) <= 1e-9

    @given(st.integers(0, 10_000), st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_beam_equals_oracle_under_blocking(self, seed, block, uniform):
        # Under UniformModel every sequence of one length ties exactly, so
        # both searches must break ties to the smaller token sequence.
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        if uniform:
            model = UniformModel(vocab)
        inputs = random_inputs(rng, vocab)
        max_len = int(rng.integers(2, 6))
        params = DecodeParams(
            beam_size=1,
            max_len=max_len,
            min_len=int(rng.integers(0, max_len)),
            reduce=Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB,
            length_penalty_alpha=float(rng.choice([0.0, 0.0, 0.5, 1.0])),
            block_repeat_ngram=block,
        )
        params = dataclasses.replace(params, beam_size=exhaustive_beam_size(vocab, params))
        try:
            oracle = brute_force_search(model, inputs, params)
        except DecodeError:
            with pytest.raises(DecodeError):
                beam_search(model, inputs, params)
            return
        beam = beam_search(model, inputs, params)[0]
        assert beam.tokens == oracle.tokens
        assert beam.raw_score.hex() == oracle.raw_score.hex()


class TestEntryChecks:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("fault", MISSHAPEN)
    def test_misshapen_model_output_is_an_error(self, fault, entry):
        reshape, got = MISSHAPEN[fault]
        expected = f"score_batch returned {got}; expected an ndarray of shape (2, 5)"
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[entry](MisshapenModel(reshape), [(A,), (B,)])
        assert str(info.value) == expected

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_label_count_checked_before_scoring(self, entry):
        with pytest.raises(ValueError, match="got 2 input labels for 3 inputs"):
            ENTRY_POINTS[entry](UnscoredModel(), [(A,), (B,), (A,)], ("x", "y"))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("labels, message", [
        (("x", "x"), "input labels must be distinct, got ('x', 'x')"),
        (("x", 1), "input labels[1] must be a str, got 1"),
        ((None, "y"), "input labels[0] must be a str, got None"),
        ("xy", "input labels must be a list or tuple of str, got 'xy'"),
    ], ids=["repeated", "int", "none", "str"])
    def test_labels_must_be_distinct_strings(self, entry, labels, message):
        # a repeated label would name two trace columns alike; a str would
        # name one column per character
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ENTRY_POINTS[entry](UnscoredModel(), [(A,), (B,)], labels)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("outer", [True, False], ids=["inputs", "one-input"])
    @pytest.mark.parametrize("make", [dict.fromkeys, set, iter, np.array],
                             ids=["dict", "set", "iterator", "ndarray"])
    def test_inputs_must_be_lists_or_tuples(self, make, outer, entry):
        # a dict decoded from its keys, a set in iteration order, an iterator was
        # consumed whole, and an ndarray raised numpy's bare "truth value" error
        if outer:
            inputs = make([(A, B), (B, A)])
            message = "inputs must be a list or tuple of list or tuple, got "
        else:
            inputs, message = [(A,), make((A, B))], "inputs[1] must be a list or tuple, got "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ENTRY_POINTS[entry](UnscoredModel(), inputs)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_empty_inputs_rejected_before_scoring(self, entry):
        with pytest.raises(ValueError, match="at least one input"):
            ENTRY_POINTS[entry](UnscoredModel(), [])

    @pytest.mark.parametrize("bad", [3.5, 3.0, True, np.bool_(True), "a", None],
                             ids=["float", "integral-float", "bool", "numpy-bool", "str", "none"])
    @pytest.mark.parametrize("entry", ["beam_search", "sequence_score", "score_batch"])
    def test_token_ids_must_be_integers(self, entry, bad):
        # 3.5 decoded as token 3 and True as EOS; a str or None raised a bare TypeError
        model = copy_model()
        name, call = {
            "beam_search": ("input[1]", lambda: beam_search(
                model, [(B,), (A, bad)], DecodeParams(beam_size=2, max_len=3))),
            "sequence_score": ("tokens[1]", lambda: sequence_score(
                model, [(A,)], (A, bad, EOS_ID))),
            "score_batch": ("prefix[1]", lambda: model.score_batch([(A,)], (BOS_ID, bad))),
        }[entry]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == (
            f"{name} = {bad!r} is not an integer token id, or out of vocabulary range [0, 5)")

    def test_numpy_integer_ids_decode_as_ints(self):
        model, params = copy_model(), DecodeParams(beam_size=2, max_len=3)
        as_numpy = beam_search(model, [(np.int64(A), np.uint8(B))], params)
        assert as_numpy == beam_search(model, [(A, B)], params)


class TestSequenceScore:
    def test_summation(self):
        model, x = skewed_model()
        raw, trace = sequence_score(model, [x], (A, A, EOS_ID))
        expected = 2 * math.log(0.7) + math.log(0.1)
        assert raw == pytest.approx(expected, abs=1e-12)
        assert len(trace) == 3

    def test_bare_eos(self):
        model, x = skewed_model()
        raw, _ = sequence_score(model, [x], (EOS_ID,))
        assert raw == pytest.approx(math.log(0.1), abs=1e-12)

    def test_rescoring_reproduces_beam_scores(self):
        rng = np.random.default_rng(4)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        params = DecodeParams(beam_size=4, max_len=4, min_len=0)
        for hyp in beam_search(model, inputs, params):
            raw, _ = sequence_score(model, inputs, hyp.tokens, params.reduce)
            assert abs(raw - hyp.raw_score) <= 1e-9

    def test_mean_logprob_raw_equals_mean_of_input_totals(self):
        model = copy_model()
        inputs = [(A, A, B), (B, B)]
        raw, trace = sequence_score(model, inputs, (A, B, EOS_ID), Reduce.MEAN_LOGPROB)
        totals = trace.input_totals()
        assert raw == pytest.approx(sum(totals) / len(totals), abs=1e-9)

    def test_malformed_sequences_rejected(self):
        model, x = skewed_model()
        with pytest.raises(ValueError, match="end with the EOS"):
            sequence_score(model, [x], (A, B))
        with pytest.raises(ValueError, match="mid-sequence"):
            sequence_score(model, [x], (EOS_ID, A, EOS_ID))
        with pytest.raises(ValueError, match="BOS"):
            sequence_score(model, [x], (BOS_ID, A, EOS_ID))
        with pytest.raises(ValueError, match="empty"):
            sequence_score(model, [x], ())


class TestInvariances:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_input_permutation_leaves_decode_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab, max_inputs=4)
        params = DecodeParams(
            beam_size=3,
            max_len=4,
            min_len=1,
            reduce=Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB,
        )
        base = beam_search(model, inputs, params)
        shuffled = [inputs[i] for i in rng.permutation(len(inputs))]
        permuted = beam_search(model, shuffled, params)
        assert [(h.tokens, h.raw_score) for h in base] == [
            (h.tokens, h.raw_score) for h in permuted
        ]

    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_duplicating_the_input_leaves_decode_unchanged(self, seed, k):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        x = random_inputs(rng, vocab, max_inputs=1)[0]
        params = DecodeParams(
            beam_size=3,
            max_len=4,
            min_len=1,
            reduce=Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB,
        )
        single = beam_search(model, [x], params)
        copies = beam_search(model, [x] * k, params)
        assert [(h.tokens, h.raw_score) for h in single] == [
            (h.tokens, h.raw_score) for h in copies
        ]


class TestHypothesisType:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="beam_size"):
            DecodeParams(beam_size=0)
        with pytest.raises(ValueError, match="min_len"):
            DecodeParams(max_len=3, min_len=3)
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="length_penalty"):
                DecodeParams(length_penalty_alpha=alpha)
        with pytest.raises(ValueError, match="block_repeat_ngram"):
            DecodeParams(block_repeat_ngram=0)

    @pytest.mark.parametrize("alpha, message", [
        ("x", "length_penalty_alpha must be a real number, got 'x'"),
        (None, "length_penalty_alpha must be a real number, got None"),
        (True, "length_penalty_alpha must be a real number, got True"),
        (10**400, "length_penalty_alpha must fit in a float"),
        (2000.0, "length_penalty_alpha 2000.0 makes the length penalty (max_len - 1) ** alpha "
                 "overflow at max_len=4"),
    ], ids=["str", "none", "bool", "int-past-float", "penalty-overflows"])
    def test_length_penalty_fails_at_the_boundary(self, alpha, message):
        # "x" raised TypeError and 10**400 OverflowError; alpha 2000 built, and
        # both searches then failed with OverflowError when ranking a result
        with pytest.raises(ValueError) as info:
            DecodeParams(max_len=4, length_penalty_alpha=alpha)
        assert str(info.value) == message

    def test_length_penalty_bound_follows_max_len(self):
        # 3 ** 600 is about 1e286, a float; 3 ** 700 is not. The beam holds all
        # 15 finished sequences, so it must agree with the oracle
        params = DecodeParams(beam_size=15, max_len=4, length_penalty_alpha=600)
        assert type(params.length_penalty_alpha) is float
        model, x = skewed_model()
        beam, oracle = beam_search(model, [x], params), brute_force_search(model, [x], params)
        assert (beam[0].tokens, beam[0].ranked_score) == (oracle.tokens, oracle.ranked_score)
        with pytest.raises(ValueError, match="max_len=4"):
            DecodeParams(max_len=4, length_penalty_alpha=700.0)
        # one content token at most: every divisor is 1 ** alpha = 1.0
        assert DecodeParams(max_len=2, min_len=0, length_penalty_alpha=1e308)
        assert DecodeParams(max_len=10**400).length_penalty_alpha == 0.0
        with pytest.raises(ValueError, match="length_penalty_alpha 5e-324 makes"):
            DecodeParams(max_len=10**400, length_penalty_alpha=5e-324)

    def test_reduce_must_be_a_member(self):
        with pytest.raises(ValueError, match="reduce must be a Reduce member, got 'mean_prob'"):
            DecodeParams(reduce="mean_prob")

    def test_integer_params_must_be_integers(self):
        for name in ("beam_size", "max_len", "min_len", "block_repeat_ngram"):
            for value in (2.5, 3.0, True, "3"):
                with pytest.raises(ValueError, match=f"{name} must be .*integer"):
                    DecodeParams(**{"max_len": 8, name: value})
        for name in ("beam_size", "max_len", "min_len"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                DecodeParams(**{name: None})

        class E(enum.IntEnum):  # an int subclass: a member built and was kept
            A = 3

        for name in ("beam_size", "max_len", "min_len", "block_repeat_ngram", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be .*integer"):
                DecodeParams(**{"max_len": 8, name: E.A})
        assert DecodeParams(block_repeat_ngram=None).block_repeat_ngram is None
        assert DecodeParams(beam_size=np.int64(3), max_len=np.int64(6)).beam_size == 3


def test_reducers_return_equal_rows_bit_exact_and_unaliased():
    # np.sum and exp/log would both turn -0.0 into 0.0
    v = np.array([-0.0, -1.0, -np.inf])
    for reduce_fn in (reduce_mean_logprob, reduce_mean_prob):
        for per_input in ([v], [v, v.copy()], v[None, :]):
            out = reduce_fn(per_input)
            assert out.tobytes() == v.tobytes()
            out[:] = 5.0
            assert v.tobytes() == np.array([-0.0, -1.0, -np.inf]).tobytes()


def test_reducers_invariant_to_order_of_signed_zeros():
    arr = np.array([[0.0, -1.0], [-0.0, -1.0], [0.0, -1.0]])
    for reduce_fn in (reduce_mean_logprob, reduce_mean_prob):
        outs = {reduce_fn(arr[list(order)]).tobytes() for order in itertools.permutations(range(3))}
        assert len(outs) == 1


def pinned_stacks():
    """Seeded ``[N, V]`` stacks of log-probabilities with exact ties across
    rows, -inf entries, a column -inf for every input, -0.0 and 0.0, each
    followed by a stack of N equal rows."""
    rng = np.random.default_rng(20)
    for n in (1, 2, 5, 7, 8, 9, 16, 17):
        for width in (3, 64):
            arr = np.log(rng.random((n, width)))
            arr[:, :2] = np.round(arr[:, :2], 1)
            arr[:, 2] = -np.inf
            arr[rng.random((n, width)) < 0.1] = -np.inf
            zeros = rng.random((n, width)) < 0.1
            arr[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
            yield arr
            yield np.tile(arr[-1], (n, 1))


# numpy sums a contiguous run of 8 or more floats pairwise, eight partial sums
# at a time, and a shorter run left to right, as it does across rows.
# mean_logprob adds the sorted rows one after another; mean_prob sums each
# column as one contiguous run, so from N = 8 on its bits differ from a
# row-by-row sum. A batched reduce must keep both orders, and only stacks with
# N >= 8 tell them apart.


def test_mean_logprob_keeps_its_summation_order():
    # additions and one division only, so the digest, taken before beam steps
    # were batched, holds on any CPU
    sha = hashlib.sha256()
    for arr in pinned_stacks():
        sha.update(reduce_mean_logprob(arr).tobytes())
    assert sha.hexdigest() == "eb09cd4f64cb0fed48c4f4a5aff0efc54a95ba3549eb59674b2166f986a3b453"


def test_mean_prob_keeps_its_summation_order():
    # numpy's exp and log may differ in the last bit between CPUs, so the
    # reference is computed here, with the same numpy on the same CPU
    for arr in pinned_stacks():
        assert reduce_mean_prob(arr).tobytes() == mean_prob_by_columns(arr).tobytes()


# cells an [N, V] stack is drawn from: exact ties, signed zeros and -inf
STACK_CELLS = st.sampled_from([-0.0, 0.0, -1.0, -1.0, -2.5, -1e-300, -1e308, -math.inf])


@st.composite
def stack_runs(draw):
    """A run of ``[N, V]`` stacks as one decode's steps might give them: fresh
    stacks, row permutations and small edits of the last one, all-equal stacks
    and (rarely) a change of shape, where a new search would begin."""
    n, width = draw(st.integers(2, 6)), draw(st.integers(1, 7))
    stacks = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "permute", "edit", "equal", "reshape"]))
        if kind == "reshape":
            n, width = draw(st.integers(2, 6)), draw(st.integers(1, 7))
        if kind in ("permute", "edit") and stacks and stacks[-1].shape == (n, width):
            arr = stacks[-1].copy()
            if kind == "permute":
                arr = arr[draw(st.permutations(range(n)))]
            else:
                cell = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
                arr[cell] = draw(STACK_CELLS)
        elif kind == "equal":
            arr = np.tile(np.array(draw(st.lists(STACK_CELLS, min_size=width, max_size=width))),
                          (n, 1))
        else:
            arr = np.array(draw(st.lists(STACK_CELLS, min_size=n * width, max_size=n * width)),
                           dtype=float).reshape(n, width)
        stacks.append(arr)
    return stacks


class StackModel:
    """Scores a prefix of t + 1 tokens with ``stacks[t]``, whatever the inputs, so
    that a search's steps over ever longer prefixes take one new key each, in turn."""

    def __init__(self, stacks):
        self.stacks, self.vocab = stacks, range(stacks[0].shape[1])  # a step reads len(vocab)

    def score_batch(self, inputs, prefix):
        return self.stacks[len(prefix) - 1]


def stack_search(stacks, reduce=Reduce.MEAN_LOGPROB):
    """A search whose step ``t`` (see `step_to`) scores its one new key with ``stacks[t]``."""
    return _Search(StackModel(stacks), [(A,)] * len(stacks[0]), None, reduce)


def step_to(search, t):
    """The combined ``[V]`` row of ``search``'s step over the one prefix of t + 1 tokens."""
    return search.step([(BOS_ID,) * (t + 1)])[0][1]


def rises(arr, search):
    """Whether every column of ``arr`` gathered through ``search``'s column order is
    non-decreasing."""
    gathered = arr.ravel().take(search.flat)
    return bool((gathered[:-1] <= gathered[1:]).all())


@pytest.mark.filterwarnings("ignore:overflow encountered")  # sums near -1e308 reach -inf
@given(stack_runs())
@settings(max_examples=300, deadline=None)
def test_reduce_with_a_shared_column_order_equals_a_fresh_sort_bitwise(stacks):
    # a search's order serves one [N, V] shape, so each run of one shape is one search
    runs = [list(run) for _, run in itertools.groupby(stacks, key=np.shape)]
    for reduce, reduce_fn in zip(Reduce, (reduce_mean_logprob, reduce_mean_prob)):
        for run in runs:
            search = stack_search(run, reduce)
            for t, arr in enumerate(run):
                assert step_to(search, t).tobytes() == reduce_fn(arr).tobytes()
                if t == 0:
                    flat = search.flat
                assert search.flat is flat and rises(run[0], search)  # the first key's, kept


def test_column_order_is_set_once_and_a_stale_row_sorts_in_place():
    arr = np.array([[-1.0, -3.0, -0.0], [-2.0, -1.0, 0.0]])
    flipped = arr[::-1].copy()
    flipped[:, 0] = arr[:, 0]  # column 0 keeps its order, column 1 flips
    search = stack_search([arr, arr - 0.5, flipped])
    step_to(search, 0)
    first = search.flat
    step_to(search, 1)  # every column keeps its order
    assert search.flat is first
    assert not rises(flipped, search)
    assert step_to(search, 2).tobytes() == reduce_mean_logprob(flipped).tobytes()
    assert search.flat is first and rises(arr, search)


PARITY_VOCAB = Vocab.from_content(["a", "b", "c"])


class ParityModel:
    """Scores input ``x`` with a weight fixed by ``x`` that raises some columns
    and lowers others, with the sign flipped on prefixes of odd length: the
    order of the inputs within a column flips at every step."""

    vocab = PARITY_VOCAB

    def score_batch(self, inputs, prefix):
        width = len(self.vocab)
        # irrational-looking weights, so that a sum's bits depend on its order
        weights = np.sqrt([len(x) + 0.37 * x[0] + 0.11 * x[-1] for x in inputs])[:, None]
        sign = self.sign(prefix)
        slope = np.arange(width) % 3 - 1.0  # -1, 0 or +1 per column
        base = -1.0 - ((np.arange(width) * (prefix[-1] + 2)) % 5) / 3.0
        scores = base + sign * (math.pi / 7) * weights * slope
        scores[:, BOS_ID] = -math.inf
        return scores

    def sign(self, prefix):
        return 1.0 if len(prefix) % 2 == 0 else -1.0


def exact(results):
    """Ranked results with every score spelled exactly, combined trace column
    included; per-input columns are left out, since they follow the inputs."""
    return [(h.tokens, h.raw_score.hex(), h.ranked_score.hex(),
             [r.combined.hex() for r in h.trace.rows]) for h in results]


class TestColumnOrderInDecodes:
    INPUTS = [(3, 4), (5, 3, 3), (4,), (5, 5, 4, 3), (3, 3, 5), (4, 5)]

    def test_parity_model_makes_the_cache_sort_again(self):
        search = _Search(ParityModel(), self.INPUTS, None, Reduce.MEAN_LOGPROB)
        for prefix in [(BOS_ID,), (BOS_ID, 3), (BOS_ID, 3, 4), (BOS_ID, 3, 4, 5)]:
            search.step([prefix])
            scores, row, _ = search.memo[prefix]
            flat = search.flat if len(prefix) == 1 else flat
            assert search.flat is flat  # set from the first key, never replaced
            # the order fits only the odd-length prefixes' scores, as it fits the
            # first's; every row reduces as a fresh sort would
            assert rises(scores, search) == (len(prefix) % 2 == 1)
            assert row.tobytes() == reduce_mean_logprob(scores).tobytes()

    @pytest.mark.parametrize("reduce", list(Reduce))
    @pytest.mark.parametrize("min_len", [0, 2])
    def test_parity_model_beam_equals_oracle_and_fresh_sorts(self, reduce, min_len):
        params = DecodeParams(beam_size=1, max_len=5, min_len=min_len, reduce=reduce)
        params = dataclasses.replace(params, beam_size=exhaustive_beam_size(PARITY_VOCAB, params))
        results = beam_search(ParityModel(), self.INPUTS, params)
        oracle = brute_force_search(ParityModel(), self.INPUTS, params)
        assert results[0].tokens == oracle.tokens
        assert results[0].raw_score.hex() == oracle.raw_score.hex()
        assert bits(results[0].trace.rows) == bits(oracle.trace.rows)
        # every step of every result scored as a fresh sort of that step would
        reduce_fn = {Reduce.MEAN_LOGPROB: reduce_mean_logprob, Reduce.MEAN_PROB: reduce_mean_prob}
        for h in results:
            prefix = (BOS_ID,)
            for row in h.trace.rows:
                fresh = reduce_fn[reduce](ParityModel().score_batch(self.INPUTS, prefix))
                assert row.combined.hex() == float(fresh[row.token_id]).hex()
                prefix += (row.token_id,)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8), st.randoms(),
           st.sampled_from(list(Reduce)))
    @settings(max_examples=40, deadline=None)
    def test_parity_model_decode_invariant_to_permuting_inputs(self, picks, rnd, reduce):
        # picks may repeat an input; any order of the same inputs decodes alike
        params = DecodeParams(beam_size=3, max_len=5, min_len=1, reduce=reduce)
        inputs = [self.INPUTS[i] for i in picks]
        shuffled = rnd.sample(inputs, len(inputs))
        base, other = (beam_search(ParityModel(), x, params) for x in (inputs, shuffled))
        assert exact(base) == exact(other)

    @pytest.mark.parametrize("reduce", list(Reduce))
    @pytest.mark.parametrize("k", [2, 3])
    def test_parity_model_decode_invariant_to_duplicating_the_input(self, reduce, k):
        params = DecodeParams(beam_size=3, max_len=5, min_len=1, reduce=reduce)
        for x in self.INPUTS:
            single, copies = (beam_search(ParityModel(), xs, params) for xs in ([x], [x] * k))
            assert exact(single) == exact(copies)


class LastTokenParityModel(ParityModel):
    """`ParityModel` with the sign flipped by the parity of the prefix's last
    token, not its length: in one step the shared column order fits the live
    prefixes that end like the one it was sorted for, and is stale for the rest."""

    def sign(self, prefix):
        return 1.0 if prefix[-1] % 2 == 0 else -1.0


@pytest.mark.parametrize("reduce", list(Reduce))
def test_steps_with_stale_and_fresh_rows_equal_the_oracle_and_fresh_sorts(reduce, monkeypatch):
    model, inputs = LastTokenParityModel(), TestColumnOrderInDecodes.INPUTS
    params = DecodeParams(beam_size=1, max_len=5, min_len=2, reduce=reduce)
    params = dataclasses.replace(params, beam_size=exhaustive_beam_size(PARITY_VOCAB, params))
    mixed = []
    combine = dyne.decoder._combine

    def spy(stack, reduce):
        fits = (stack[:, :-1] <= stack[:, 1:]).reshape(len(stack), -1).all(axis=1)
        mixed.append(fits.any() and not fits.all())
        return combine(stack, reduce)

    monkeypatch.setattr(dyne.decoder, "_combine", spy)
    results = beam_search(model, inputs, params)
    assert any(mixed)  # some step re-sorted some rows and kept the others
    oracle = brute_force_search(model, inputs, params)
    assert (results[0].tokens, results[0].raw_score.hex()) == (oracle.tokens,
                                                               oracle.raw_score.hex())
    assert bits(results[0].trace.rows) == bits(oracle.trace.rows)
    reduce_fn = {Reduce.MEAN_LOGPROB: reduce_mean_logprob, Reduce.MEAN_PROB: reduce_mean_prob}
    for h in results:
        prefix = (BOS_ID,)
        for row in h.trace.rows:
            fresh = reduce_fn[reduce](model.score_batch(inputs, prefix))
            assert row.combined.hex() == float(fresh[row.token_id]).hex()
            prefix += (row.token_id,)


class TestBeamMemoryBound:
    def test_huge_beam_refused_before_scoring(self):
        vocab = Vocab.from_content(f"w{i}" for i in range(1997))
        model = UniformModel(vocab)
        calls = []
        model.score_batch = lambda inputs, prefix: calls.append(prefix)
        for beam in (10**6, 2**63, 10**400):
            with pytest.raises(ValueError, match=r"^beam_size \d+ lets \d+ prefixes live"):
                beam_search(model, [(3, 4)] * 8, DecodeParams(beam_size=beam, max_len=30))
        assert calls == []

    def test_huge_beam_over_a_small_tree_still_decodes(self):
        # 2 content tokens and max_len 4 leave at most 2**3 prefixes live
        params = DecodeParams(beam_size=2**63, max_len=4, min_len=1)
        got = beam_search(copy_model(), [(A, B)], params)
        full = beam_search(copy_model(), [(A, B)], dataclasses.replace(
            params, beam_size=exhaustive_beam_size(AB, params)))
        assert exact(got) == exact(full)

    def test_benchmark_settings_stay_far_inside_the_limit(self):
        wide = DecodeParams(beam_size=8, max_len=30, min_len=10)
        check_beam_memory(dataclasses.replace(wide, beam_size=8 * 100), 2000, 8)
        sweep = DecodeParams(beam_size=4, max_len=5, min_len=4)
        check_beam_memory(dataclasses.replace(sweep, beam_size=4 * 100), 243, 5)

    def test_limit_is_the_boundary(self):
        # 8 inputs: (3 * 8 + 9) floats of 8 bytes and 8 bools per token and live prefix,
        # and the search's column order, 8 int64s per token
        params = DecodeParams(beam_size=(STEP_BYTES_LIMIT // 1000 - 8 * 8) // (33 * 8 + 8),
                              max_len=30)
        check_beam_memory(params, 1000, 8)  # the widest beam inside the limit
        with pytest.raises(ValueError, match="beam_size"):
            check_beam_memory(dataclasses.replace(params, beam_size=params.beam_size + 1), 1000, 8)

    def test_a_beam_needing_exactly_the_limit_is_accepted(self):
        # 65,536 * (8 * ((3 * 76 + 9) * 8 + 76) + 8 * 76) = 2**16 * 2**14 bytes
        assert STEP_BYTES_LIMIT == 2**30
        params = DecodeParams(beam_size=8, max_len=30)
        check_beam_memory(params, 65536, 76)
        with pytest.raises(ValueError, match="^beam_size 9 lets 9 prefixes live"):
            check_beam_memory(dataclasses.replace(params, beam_size=9), 65536, 76)

    # width 4 leaves 1 content token, so 1 prefix lives at any length; width 5
    # leaves 2, and max_len 2 allows 1 content token before EOS, so 2 live
    @pytest.mark.parametrize("width, max_len, live", [(4, 30, 1), (5, 2, 2)])
    def test_only_prefixes_that_can_exist_are_counted(self, width, max_len, live):
        params = DecodeParams(beam_size=8, max_len=max_len, min_len=0)
        # 2,000,000 inputs: `live` prefixes fit in the limit, and all 8 of the beam would not
        check_beam_memory(params, width, 2_000_000)
        with pytest.raises(ValueError, match=f"^beam_size 8 lets {live} prefixes live"):
            check_beam_memory(params, width, 20_000_000)

    @pytest.mark.parametrize("reduce", list(Reduce))
    def test_a_wide_decode_holds_no_more_than_the_estimate(self, reduce):
        # the wide benchmark's shape: 8 inputs of 400 tokens, V = 2,000, beam 8
        model, inputs, params = wide_case(CopyBigramModel, 8, reduce)
        peak = decode_peak(model, inputs, params)
        # (3 * N + 8) * V floats for each of the 8 live prefixes, a bound tighter
        # than check_beam_memory's count, which the memo raised by N bools and a row
        assert peak < 8 * len(model.vocab) * (3 * len(inputs) + 8) * 8

    @pytest.mark.parametrize("n_inputs", [1, 8, 32])
    @pytest.mark.parametrize("reduce", list(Reduce))
    def test_check_beam_memory_counts_at_least_the_peak(self, reduce, n_inputs, monkeypatch):
        # a whole-prefix model shares no call, so every step stacks all its prefixes;
        # the count before the memo, (3 * N + 8) * V floats, fell short at 32 inputs
        model, inputs, params = wide_case(WholePrefixModel, n_inputs, reduce)
        peak = decode_peak(model, inputs, params)
        monkeypatch.setattr(dyne.decoder, "STEP_BYTES_LIMIT", peak - 1)
        with pytest.raises(ValueError, match="^beam_size 8 lets 8 prefixes live"):
            check_beam_memory(params, len(model.vocab), n_inputs)

    @pytest.mark.parametrize("n_inputs", [8, 32])
    @pytest.mark.parametrize("reduce", list(Reduce))
    def test_check_beam_memory_counts_the_column_order(self, reduce, n_inputs, monkeypatch):
        # at beam 1 the search's [N, V] column order, held once, is much of the peak:
        # equal inputs pass through the reduce, and a uniform model's tokens all tie
        vocab = Vocab.from_content(f"w{i}" for i in range(1997))
        params = DecodeParams(beam_size=1, max_len=6, reduce=reduce)
        peak = decode_peak(UniformModel(vocab), [(3, 4)] * n_inputs, params)
        monkeypatch.setattr(dyne.decoder, "STEP_BYTES_LIMIT", peak - 1)
        with pytest.raises(ValueError, match="^beam_size 1 lets 1 prefixes live"):
            check_beam_memory(params, len(vocab), n_inputs)

    def test_check_beam_memory_counts_the_ban_test_of_full_heads(self, monkeypatch):
        # every token ties, so the heads widen to the whole vocabulary at the first step,
        # and each later step tests every head token against up to max_len - 1 bans
        vocab = Vocab.from_content(f"w{i}" for i in range(1997))
        params = DecodeParams(beam_size=8, max_len=40, min_len=38, block_repeat_ngram=1)
        peak = decode_peak(UniformModel(vocab), [(3, 4)], params)
        monkeypatch.setattr(dyne.decoder, "STEP_BYTES_LIMIT", peak - 1)
        with pytest.raises(ValueError, match="^beam_size 8 lets 8 prefixes live"):
            check_beam_memory(params, len(vocab), 1)

    def test_the_ban_count_is_the_boundary(self):
        # with blocking, max_len - n bans add a byte per token and prefix: 8 inputs,
        # max_len 30 and n = 2 make 33 * 8 + 8 + 28 = 300 bytes, past the column order's 64
        params = DecodeParams(beam_size=(STEP_BYTES_LIMIT // 1000 - 8 * 8) // 300, max_len=30,
                              block_repeat_ngram=2)
        check_beam_memory(params, 1000, 8)
        with pytest.raises(ValueError, match="beam_size"):
            check_beam_memory(dataclasses.replace(params, beam_size=params.beam_size + 1), 1000, 8)


def wide_case(cls, n_inputs: int, reduce: Reduce):
    """A model of class ``cls`` with the wide benchmark's V = 2,000 and beam 8,
    ``n_inputs`` inputs of 400 seeded tokens, and settings for 11 steps."""
    rng = np.random.default_rng(0)
    vocab = Vocab.from_content(f"w{i}" for i in range(1997))
    inputs = [tuple(rng.integers(3, 2000, 400).tolist()) for _ in range(n_inputs)]
    params = DecodeParams(beam_size=8, max_len=12, min_len=10, reduce=reduce)
    return cls(ToyModelSpec(0.5, 1.0, {}, vocab)), inputs, params


def decode_peak(model, inputs, params) -> int:
    """The ``tracemalloc`` peak of a decode, past what was held before it."""
    inputs = tuple(inputs)  # one tuple of tuples, so both decodes share one copy table
    beam_search(model, inputs, params)  # the model's copy table is not a step array
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        beam_search(model, inputs, params)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class WholePrefixModel(CopyBigramModel):
    """`CopyBigramModel` declaring that its scores read the whole prefix, so a
    search keys each prefix on itself and shares no model call: the search
    without the memo's sharing, over the same scores."""

    context = None


class LastTokenContextModel(CopyBigramModel):
    """`CopyBigramModel` declaring ``context = 1`` whatever its spec, so a search
    scores each last token apart even where the spec makes the rows one row."""

    context = 1


class ContextModel(UniformModel):
    """`UniformModel`, whose scores read no prefix token, declaring ``context``."""

    def __init__(self, context, vocab=AB):
        super().__init__(vocab)
        self.context = context


class CountedContextModel(CopyBigramModel):
    """`CopyBigramModel`, counting the reads of its ``context``."""

    reads = 0

    @property
    def context(self):
        self.reads += 1
        return 1


class CoarseModel:
    """Scores input ``x`` with row ``x[0]`` of ``table``, reading no prefix token
    (``context = 0``): with few distinct cells, candidates tie within a prefix
    and across prefixes that hold the same tokens."""

    context = 0

    def __init__(self, vocab, table):
        self.vocab, self.table = vocab, table

    def score_batch(self, inputs, prefix):
        return self.table[[x[0] for x in inputs]]


class ShiftModel(CopyBigramModel):
    """`CopyBigramModel` reading the whole prefix (``context = None``), each input's
    scores lowered by an offset in [0, 1) drawn from the prefix and that input: the
    inputs' order within a column changes from prefix to prefix, so a search's
    column order goes stale at most steps."""

    context = None

    def score_batch(self, inputs, prefix):
        offsets = [np.random.default_rng([*prefix, *x]).random() for x in inputs]
        return super().score_batch(inputs, prefix) - np.array(offsets)[:, None]


REFERENCE_KINDS = 9


def reference_case(kind: int, rng: np.random.Generator):
    """A model drawn with ``rng``, 1-8 inputs (all alike one time in four), a beam
    size of 1-8 and lengths (min_len 0 half the time) for the reference
    comparison. The model is, by ``kind``, 0 to 8: the parity model; a
    `CoarseModel` of log-probabilities from weights 1 and 2 over 8-20 content
    tokens, where many candidates tie; one whose cells, -inf, +-0.0, +-0.5 and
    +-1.0, add exactly, so that a running sum can come back to zero; a
    scaled-down ``wide`` benchmark shape (V = 43, inputs of 30 tokens drawn half
    from a 6-token topic); a ``context = None`` toy model; a toy model (kinds 5
    and 6); a `ShiftModel` toy model; or the ``sweep`` benchmark's pool decode
    scaled down: V = 43 with no bigram counts, 5 inputs that each hold 4 shared
    words twice and 5 words of their own three times, shuffled, beam 4, max_len
    5 and min_len 4."""
    n_inputs = int(rng.integers(1, 9))
    if kind == 0:
        model = ParityModel()
        inputs = [TestColumnOrderInDecodes.INPUTS[i] for i in rng.integers(0, 6, n_inputs)]
    elif kind in (1, 2):
        content = int(rng.integers(8, 21) if kind == 1 else rng.integers(2, 11))
        vocab = Vocab.from_content([f"w{i}" for i in range(content)])
        if kind == 1:
            weights = rng.integers(1, 3, (len(vocab), len(vocab)))
            table = np.log(weights / weights.sum(axis=1, keepdims=True))
        else:
            table = rng.choice([-math.inf, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0], (len(vocab),) * 2)
        table[:, BOS_ID] = -math.inf
        model, inputs = CoarseModel(vocab, table), random_inputs(rng, vocab, max_inputs=8)
    elif kind == 3:
        vocab = Vocab.from_content([f"w{i}" for i in range(40)])
        pairs = rng.choice(41 * 41, 300, replace=False).tolist()
        ids = [EOS_ID, *vocab.content_ids]
        counts = {(0 if p // 41 == 0 else ids[p // 41], ids[p % 41]): int(rng.integers(1, 9))
                  for p in pairs}
        model = CopyBigramModel(ToyModelSpec(0.5, 1.0, counts, vocab))
        topic = rng.choice(vocab.content_ids, 6, replace=False)
        inputs = [tuple(np.where(rng.random(30) < 0.5, rng.choice(topic, 30),
                                 rng.choice(vocab.content_ids, 30)).tolist())
                  for _ in range(n_inputs)]
    elif kind == 8:
        vocab = Vocab.from_content([f"w{i}" for i in range(40)])
        model = CopyBigramModel(ToyModelSpec(1.0, 1.0, {}, vocab))
        words = rng.choice(vocab.content_ids, 4 + 5 * 5, replace=False)
        inputs = [tuple(rng.permutation(np.concatenate([np.repeat(words[:4], 2),
                                                        np.repeat(own, 3)])).tolist())
                  for own in words[4:].reshape(5, 5)]
    else:
        cls = {4: WholePrefixModel, 7: ShiftModel}.get(kind, CopyBigramModel)
        model, vocab = random_toy_model(rng, 6, cls)
        inputs = random_inputs(rng, vocab, max_inputs=8)
    if rng.random() < 0.25:
        inputs = [inputs[0]] * len(inputs)
    if kind == 8:
        return model, inputs, 4, 5, 4
    max_len = int(rng.integers(2, 7))
    min_len = 0 if rng.random() < 0.5 else int(rng.integers(0, max_len))
    return model, inputs, int(rng.integers(1, 9)), max_len, min_len


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
@pytest.mark.parametrize("block", [None, 1, 2])
@pytest.mark.parametrize("reduce", list(Reduce))
def test_beam_search_equals_the_plain_reference_bitwise(reduce, block, alpha):
    # every result's tokens, both scores and every trace cell, read through .trace;
    # each setting draws its own cases, so that a rare case shows in some setting
    setting = [list(Reduce).index(reduce), block or 0, int(alpha * 10)]
    for seed in range(6 * REFERENCE_KINDS):
        model, inputs, beam_size, max_len, min_len = reference_case(
            seed % REFERENCE_KINDS, np.random.default_rng([seed, *setting]))
        params = DecodeParams(beam_size=beam_size, max_len=max_len, min_len=min_len,
                              reduce=reduce, length_penalty_alpha=alpha,
                              block_repeat_ngram=block)
        expected = [(tokens, raw.hex(), ranked.hex(), bits([TraceRow(*row) for row in rows]))
                    for tokens, raw, ranked, rows
                    in plain_ensemble_beam_search(model, inputs, params)]
        try:
            results = beam_search(model, inputs, params)
        except DecodeError:
            results = []  # the reference finds nothing either
        assert [(h.tokens, h.raw_score.hex(), h.ranked_score.hex(), bits(h.trace.rows))
                for h in results] == expected, f"seed {seed}"


class FirstStepModel:
    """Scores the first step (prefix ``(BOS,)``) with ``first`` and any later step
    with row ``prefix[-1]`` of ``table``, each input's row lowered by its first token
    over 8 (``context = 1``)."""

    context = 1

    def __init__(self, vocab, first, table):
        self.vocab, self.first, self.table = vocab, first, table

    def score_batch(self, inputs, prefix):
        row = self.first if len(prefix) == 1 else self.table[prefix[-1]]
        return row - np.array([[x[0] / 8] for x in inputs])


@st.composite
def growth_cases(draw, kind):
    """A model, inputs and params whose search must widen the heads (see `_rank`):
    ``ties``, a copy model with no counts over 60-200 tokens whose inputs hold fewer
    distinct tokens than the beam, so the beam_size-th candidate ties with every
    token no input holds; ``rounding``, a first step scored near -1e300, after which
    adding any later score leaves a running sum as it was; ``bans``, n-gram blocking
    with n = 1 over a model whose one row prefers the same few tokens at every step,
    until the bans take every token of the heads; ``few``, the same with only
    2 * beam_size + 1 to 2 * beam_size + 3 finite tokens, so fewer than beam_size
    stay selectable."""
    beam = draw(st.integers(2 if kind == "ties" else 1, 6 if kind == "ties" else 4))
    reduce = draw(st.sampled_from(list(Reduce)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    content = draw(st.integers(60, 200) if kind == "ties" else st.integers(2 * beam + 3, 24))
    vocab = Vocab.from_content([f"w{i}" for i in range(content)])
    ids = vocab.content_ids
    n_inputs = draw(st.integers(1, 4))
    if kind == "ties":
        words = rng.choice(ids, beam - 1, replace=False).tolist()
        model = copy_model(vocab, k=draw(st.sampled_from([0.5, 1.0])))
        inputs = [tuple(rng.choice(words + [UNK_ID], int(rng.integers(1, 5))).tolist())
                  for _ in range(n_inputs)]
        params = DecodeParams(beam_size=beam, max_len=draw(st.integers(2, 4)), min_len=1,
                              reduce=reduce)
    else:
        table = np.log(rng.dirichlet(np.ones(len(vocab)), len(vocab)))
        first = -1e300 * (1 + rng.random(len(vocab)) / 64) if kind == "rounding" else table[0]
        if kind != "rounding":  # one row for every step, as a context-0 model gives
            table[:] = first
        if kind == "few":
            finite = rng.choice(ids, draw(st.integers(2 * beam + 1, 2 * beam + 3)), replace=False)
            table[:, np.setdiff1d(np.arange(len(vocab)), finite)] = -np.inf
        model = FirstStepModel(vocab, first, table)
        inputs = [(int(rng.choice(ids)),) for _ in range(n_inputs)]
        max_len = draw(st.integers(3, 5)) if kind == "rounding" else content + 1
        params = DecodeParams(beam_size=beam, max_len=max_len, min_len=max_len - 1,
                              reduce=reduce, block_repeat_ngram=None if kind == "rounding" else 1)
    return model, inputs, params


@pytest.mark.parametrize("kind", ["ties", "rounding", "bans", "few"])
def test_widened_heads_equal_the_plain_reference_bitwise(kind):
    # each case makes `_rank` ask for wider heads at least once, and the search still
    # returns what the plain reference does, bit for bit
    rank = dyne.decoder._rank

    @given(growth_cases(kind))
    @settings(max_examples=25, deadline=None)
    def check(case):
        model, inputs, params = case
        grew = []

        def spy(entries, m, *args):
            out = rank(entries, m, *args)
            grew.append(bool(out[3]))
            return out

        dyne.decoder._rank = spy
        try:
            results = beam_search(model, inputs, params)
        except DecodeError:
            results = []  # the reference finds nothing either
        finally:
            dyne.decoder._rank = rank
        expected = [(tokens, raw.hex(), ranked.hex(), bits([TraceRow(*row) for row in rows]))
                    for tokens, raw, ranked, rows
                    in plain_ensemble_beam_search(model, inputs, params)]
        assert [(h.tokens, h.raw_score.hex(), h.ranked_score.hex(), bits(h.trace.rows))
                for h in results] == expected
        assert any(grew)

    check()


def test_a_rounding_tie_past_a_positive_edge_widens_the_heads():
    # step 1 leaves a running score of 2**54, whose float spacing is 2 below it and 4
    # above, so a + 1.25 (id 3), b + 1.5 (id 4) and c + 1.55 (id 5) all sum to it: a,
    # left out of the width-2 head, ties the best in it, b, and is the smaller sequence
    vocab = Vocab.from_content([f"w{i}" for i in range(6)])
    first, table = np.full(len(vocab), -np.inf), np.full((len(vocab), len(vocab)), -np.inf)
    first[8] = 2.0**54
    table[8, [3, 4, 5, 6, 7, 8]] = [1.5, 1.75, 1.8, -1.0, -1.0, 0.0]
    table[[3, 4, 5], EOS_ID] = 0.0
    model, inputs = FirstStepModel(vocab, first, table), [(UNK_ID,)]  # each row lowered by 1/4
    params = DecodeParams(beam_size=1, max_len=3, min_len=2)
    (result,) = beam_search(model, inputs, params)
    assert result.tokens == (8, 3, EOS_ID)
    assert result.tokens == plain_ensemble_beam_search(model, inputs, params)[0][0]


@pytest.mark.parametrize("beam_size", [1, 2])
def test_heads_are_never_wider_than_the_content_tokens(beam_size, monkeypatch):
    # AB has 3 content tokens (UNK, a, b), all tied under a uniform model: a beam of 1
    # starts at width 2 and widens, and a beam of 2 would start at 4
    widths, head = [], dyne.decoder._head
    monkeypatch.setattr(dyne.decoder, "_head", lambda e, m: widths.append(m) or head(e, m))
    beam_search(UniformModel(AB), [(A, B)], DecodeParams(beam_size=beam_size, max_len=3))
    assert max(widths) == len(AB) - EOS_ID - 1


@pytest.mark.parametrize("reduce, reduce_fn, sign", [
    (Reduce.MEAN_LOGPROB, reduce_mean_logprob, -1.0), (Reduce.MEAN_PROB, reduce_mean_prob, 1.0)])
def test_a_column_of_negative_zeros_in_unequal_rows(reduce, reduce_fn, sign):
    # both inputs score b at -0.0 but EOS apart: mean_logprob sums b's column from
    # -0.0, so it stays -0.0; mean_prob adds log(1.0) = 0.0 to the column's top
    table = np.full((len(AB), len(AB)), -math.inf)
    table[[A, B], EOS_ID], table[[A, B], B] = (-1.0, -2.0), -0.0
    params = DecodeParams(beam_size=1, max_len=2, min_len=1, reduce=reduce)
    (hyp,) = beam_search(CoarseModel(AB, table), [(A,), (B,)], params)
    assert hyp.tokens == (B, EOS_ID)
    assert math.copysign(1.0, hyp.trace.rows[0].combined) == sign
    assert math.copysign(1.0, reduce_fn(table[[A, B]])[B]) == sign


@st.composite
def mask_cases(draw):
    """1-8 live prefixes of one length L over a few tokens, so that n-grams repeat, and
    params whose min_len falls past, at or below the content length, which is
    max_len - 1 one time in three, and whose n-gram blocking is off or n in
    {1, 2, 3, L, L + 1}."""
    width, content_len = draw(st.integers(4, 9)), draw(st.integers(0, 6))
    batch = draw(st.integers(1, 8))
    tokens = st.integers(UNK_ID, min(width - 1, UNK_ID + draw(st.integers(1, 3))))
    prefixes = [(BOS_ID, *draw(st.lists(tokens, min_size=content_len, max_size=content_len)))
                for _ in range(batch)]
    max_len = content_len + 1 + draw(st.integers(0, 2))
    min_len = draw(st.integers(0, min(content_len + 1, max_len - 1)))
    n = draw(st.sampled_from([None, 1, 2, 3, content_len + 1, content_len + 2]))
    return prefixes, DecodeParams(beam_size=batch, max_len=max_len, min_len=min_len,
                                  block_repeat_ngram=n)


@given(mask_cases())
@settings(max_examples=300, deadline=None)
def test_the_step_rules_equal_a_per_prefix_reference(case):
    prefixes, params = case
    eos, forced, banned, _ = dyne.decoder._rules(prefixes, params)
    for b, prefix in enumerate(prefixes):  # each prefix's rules, one at a time
        content_len = len(prefix) - 1
        assert eos == (content_len >= params.min_len)
        assert forced == (content_len >= params.max_len - 1)
        bans = set() if banned is None else set(banned[b].tolist()) - {BOS_ID}  # the filler
        assert bans == banned_next_tokens(prefix, params.block_repeat_ngram) - {BOS_ID}


@pytest.mark.parametrize("reduce", list(Reduce))
def test_results_hold_no_score_arrays(reduce):
    # a result keeps copies of the scores its trace needs, never a model's
    # [N, V] array, so the step arrays go when the search returns
    for seed in range(2 * REFERENCE_KINDS):
        model, inputs, beam_size, max_len, min_len = reference_case(
            seed % REFERENCE_KINDS, np.random.default_rng(seed))
        params = DecodeParams(beam_size=beam_size, max_len=max_len, min_len=min_len,
                              reduce=reduce)
        refs, score = [], model.score_batch

        def kept(xs, prefix):
            scores = score(xs, prefix)
            refs.append(weakref.ref(scores))
            return scores

        model.score_batch = kept
        try:
            results = beam_search(model, inputs, params)
        except DecodeError:
            continue
        gc.collect()
        assert refs and all(ref() is None for ref in refs), f"seed {seed}"
        for h in results:  # each trace, read only now, is the one rescoring gives
            raw, trace = sequence_score(model, inputs, h.tokens, reduce)
            assert bits(h.trace.rows) == bits(trace.rows), f"seed {seed}"
            assert h.raw_score.hex() == raw.hex()


@pytest.mark.parametrize("reduce", list(Reduce))
def test_results_keep_no_model_or_search(reduce, monkeypatch):
    # a result's trace needs only its own score copies, the labels and the token
    # names, so the model and the search go while the results live
    searches, step = [], _Search.step

    def spy(search, prefixes):
        searches.append(weakref.ref(search))
        return step(search, prefixes)

    monkeypatch.setattr(_Search, "step", spy)
    for seed in range(2 * REFERENCE_KINDS):
        model, inputs, beam_size, max_len, min_len = reference_case(
            seed % REFERENCE_KINDS, np.random.default_rng(seed))
        params = DecodeParams(beam_size=beam_size, max_len=max_len, min_len=min_len,
                              reduce=reduce)
        try:
            results = beam_search(model, inputs, params)
        except DecodeError:
            continue
        expected = [bits(sequence_score(model, inputs, h.tokens, reduce)[1].rows)
                    for h in results]
        model_ref = weakref.ref(model)
        del model
        gc.collect()
        assert model_ref() is None and all(ref() is None for ref in searches), f"seed {seed}"
        assert [bits(h.trace.rows) for h in results] == expected, f"seed {seed}"


@pytest.mark.parametrize("reduce", list(Reduce))
def test_oracle_trace_is_the_one_sequence_score_gives(reduce):
    # the oracle builds its trace from the scores its walk chose, rescoring nothing
    checked = 0
    for seed in range(4 * REFERENCE_KINDS):
        model, inputs, _, max_len, min_len = reference_case(
            seed % REFERENCE_KINDS, np.random.default_rng(seed))
        if len(model.vocab) > dyne.decoder.MAX_BRUTE_FORCE_VOCAB:
            continue
        params = DecodeParams(max_len=max_len, min_len=min_len, reduce=reduce)
        try:
            oracle = brute_force_search(model, inputs, params)
        except DecodeError:
            continue
        raw, trace = sequence_score(model, inputs, oracle.tokens, reduce)
        assert oracle.raw_score.hex() == raw.hex(), f"seed {seed}"
        assert bits(oracle.trace.rows) == bits(trace.rows), f"seed {seed}"
        checked += 1
    assert checked >= REFERENCE_KINDS  # most kinds fit the oracle's guard


class TestStepMemo:
    @pytest.mark.parametrize("block", [None, 1, 2])
    @pytest.mark.parametrize("reduce", list(Reduce))
    def test_memo_changes_no_bit(self, reduce, block):
        shared = whole = 0
        for seed in range(80):
            results, calls = [], []
            for cls in (CopyBigramModel, WholePrefixModel):
                rng = np.random.default_rng(seed)
                model, vocab = random_toy_model(rng, 4, cls)
                inputs = random_inputs(rng, vocab)
                max_len = int(rng.integers(2, 7))
                params = DecodeParams(beam_size=int(rng.integers(1, 7)), max_len=max_len,
                                      min_len=int(rng.integers(0, max_len)), reduce=reduce,
                                      block_repeat_ngram=block)
                score = model.score_batch
                model.score_batch = lambda xs, prefix: calls.append(cls) or score(xs, prefix)
                try:
                    results.append([(h.tokens, h.raw_score.hex(), h.ranked_score.hex(),
                                     bits(h.trace.rows)) for h in beam_search(model, inputs, params)])
                except DecodeError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            shared += calls.count(CopyBigramModel)
            whole += calls.count(WholePrefixModel)
        assert shared < whole  # the memo shared calls, so the cases test it

    def test_one_model_call_per_key_the_memo_lacks(self, monkeypatch):
        vocab = Vocab.from_content(["a", "b", "c"])
        counts = {(3, 4): 5, (4, 3): 4, (4, 5): 4, (5, 3): 6, (3, 1): 1, (5, 5): 2}
        model = CopyBigramModel(ToyModelSpec(0.4, 0.5, counts, vocab))
        asked, steps = [], []
        score, step = model.score_batch, _Search.step
        model.score_batch = lambda inputs, prefix: asked.append(prefix) or score(inputs, prefix)

        def spy(search, prefixes):  # each step's prefixes, and its memo's keys after it
            out = step(search, prefixes)
            steps.append((prefixes, set(search.memo)))
            return out

        monkeypatch.setattr(_Search, "step", spy)
        beam_search(model, [(3, 4, 5, 3), (5, 5, 4)], DecodeParams(beam_size=4, max_len=6,
                                                                    min_len=4))
        # each step's new last tokens, in order of first occurrence among its prefixes
        expected, before = [], set()
        for prefixes, memo_keys in steps:
            keys = list(dict.fromkeys(p[-1:] for p in prefixes))
            expected += [k for k in keys if k not in before]
            before = set(keys)
            assert memo_keys == before  # what no live prefix uses is dropped
        assert [p[-1:] for p in asked] == expected
        assert (len(asked), sum(len(prefixes) for prefixes, _ in steps)) == (4, 16)

    PREFIXES = [(BOS_ID,), (BOS_ID, A), (BOS_ID, A, B), (BOS_ID, B, A, B), (BOS_ID, A, B, B)]

    @pytest.mark.parametrize("context, keys", [
        (0, {()}),
        (1, {(BOS_ID,), (A,), (B,)}),
        (2, {(BOS_ID,), (BOS_ID, A), (A, B), (B, B)}),
        (5, set(PREFIXES)),  # longer than every prefix: the whole prefix
        (None, set(PREFIXES)),
    ])
    def test_keys_are_the_last_context_tokens(self, context, keys):
        search = _Search(ContextModel(context), [(A,)], None, Reduce.MEAN_LOGPROB)
        entries = search.step(self.PREFIXES)
        combined, per_inputs = np.array([e[1] for e in entries]), [e[0] for e in entries]
        assert set(search.memo) == keys
        uniform = UniformModel(AB).score_batch([(A,)], (BOS_ID,))
        assert all(x.tobytes() == uniform.tobytes() for x in per_inputs)
        assert combined.tobytes() == np.tile(uniform, (len(self.PREFIXES), 1)).tobytes()

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_context_is_read_once_per_search(self, entry):
        model = CountedContextModel(ToyModelSpec(1.0, 1.0, {}, AB))
        ENTRY_POINTS[entry](model, [(A, A, B), (B,)])
        assert model.reads == 1

    def test_oracle_asks_the_model_once_per_prefix_it_visits(self):
        # every prefix is one key under context 0, so a memo would ask the model once
        model, asked = ContextModel(0), []
        score = model.score_batch
        model.score_batch = lambda inputs, prefix: asked.append(prefix) or score(inputs, prefix)
        params = DecodeParams(beam_size=1, max_len=4, min_len=1)
        best = brute_force_search(model, [(A,), (B,)], params)
        assert len(best.trace) == len(best.tokens)  # built from the walk's own scores
        # every content token scores alike, so the walk visits every prefix
        # shorter than max_len content tokens, once each
        content = [t for t in range(len(AB)) if t not in (BOS_ID, EOS_ID)]
        assert sorted(asked) == sorted((BOS_ID, *seq) for n in range(params.max_len)
                                       for seq in itertools.product(content, repeat=n))

    def test_context_zero_scores_once_per_search(self):
        model, asked = ContextModel(0), []
        score = model.score_batch
        model.score_batch = lambda inputs, prefix: asked.append(prefix) or score(inputs, prefix)
        beam_search(model, [(A,), (B,)], DecodeParams(beam_size=3, max_len=4, min_len=3))
        assert asked == [(BOS_ID,)]

    # a copy-only spec with counts, and a mixture with none: context 0 by the spec
    ONE_ROW_SPECS = {"copy-only": ToyModelSpec(1.0, 0.5, {(0, 3): 3, (3, 4): 2, (4, 1): 4}, AB),
                     "no-counts": ToyModelSpec(0.6, 0.5, {}, AB)}

    @pytest.mark.parametrize("spec", ONE_ROW_SPECS.values(), ids=ONE_ROW_SPECS)
    @pytest.mark.parametrize("reduce", list(Reduce))
    def test_context_zero_spec_decodes_as_context_one(self, spec, reduce):
        inputs = [(A, A, B), (B, UNK_ID), (A, B, B, A), (B, UNK_ID)]
        model, keyed = CopyBigramModel(spec), LastTokenContextModel(spec)
        assert (model.context, keyed.context) == (0, 1)
        for block, alpha in itertools.product([None, 1, 2], [0.0, 0.5]):
            params = DecodeParams(beam_size=3, max_len=5, min_len=1, reduce=reduce,
                                  length_penalty_alpha=alpha, block_repeat_ngram=block)
            results = []
            for m in (model, keyed):
                found = [*beam_search(m, inputs, params), brute_force_search(m, inputs, params)]
                rescored = [sequence_score(m, inputs, h.tokens, reduce) for h in found]
                results.append([(h.tokens, h.raw_score.hex(), h.ranked_score.hex(),
                                 bits(h.trace.rows)) for h in found]
                               + [(raw.hex(), bits(trace.rows)) for raw, trace in rescored])
            assert results[0] == results[1], (block, alpha)

    def test_consensus_decode_scores_once(self):
        corpus = build_consensus_corpus(n_clusters=2, seed=0)
        model, asked = CopyBigramModel(corpus.model_spec), []
        score = model.score_batch
        model.score_batch = lambda inputs, prefix: asked.append(prefix) or score(inputs, prefix)
        documents = corpus.clusters.clusters[0].documents
        inputs = [tokenize_and_truncate(d, model.vocab, 400) for d in documents]
        assert len(beam_search(model, inputs, corpus.decode_params)[0].tokens) > 2
        assert asked == [(BOS_ID,)]

    @pytest.mark.parametrize("context", [-1, 1.5, True, "1", Level.HIGH, np.float64(1), [1]],
                             ids=["negative", "float", "bool", "str", "int-enum", "np-float",
                                  "list"])
    def test_context_must_be_none_or_an_integer_at_least_0(self, context):
        model = ContextModel(context)
        model.score_batch = UnscoredModel().score_batch
        message = f"model context must be an integer >= 0 or None, got {context!r}"
        for name, call in ENTRY_POINTS.items():
            with pytest.raises(ValueError) as info:
                call(model, [(A,)])
            assert str(info.value) == message, name


class TableModel:
    """Scores every input set with one of fixed ``[K, N, V]`` tables, chosen by
    the prefix, so that repeated calls on one prefix agree."""

    vocab = AB

    def __init__(self, tables):
        self.tables = tables

    def score_batch(self, inputs, prefix):
        return self.tables[(len(prefix) + prefix[-1]) % len(self.tables)]


def extreme_values(dtype) -> list:
    """Model scores at the edges of ``dtype``: the model contract allows each
    finite value and -inf, and forbids NaN and +inf."""
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return [0, -1, -3, 2, int(info.min), int(info.max)]
    big = float(np.finfo(dtype).max)  # 1e308 as float64
    return [-0.0, 0.0, -0.5, -2.0, -big, big, -math.inf, math.inf, math.nan]


class TestModelOutputFuzz:
    @pytest.mark.filterwarnings("ignore:overflow encountered")  # sums near -1e308 reach -inf
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_extreme_model_scores_fail_cleanly_or_decode_exactly(self, data):
        dtype = data.draw(st.sampled_from([np.float64, np.float32, np.int64, np.int32]))
        n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        common = [-1.0, -2.0] if np.issubdtype(dtype, np.floating) else [-1, -2]
        values = st.sampled_from(common + extreme_values(dtype))
        cells = data.draw(st.lists(st.one_of(st.sampled_from(common), values),
                                   min_size=k * n * len(AB), max_size=k * n * len(AB)))
        model = TableModel(np.array(cells, dtype=dtype).reshape(k, n, len(AB)))
        inputs = [(A,)] * n
        max_len = data.draw(st.integers(2, 4))
        params = DecodeParams(
            beam_size=1, max_len=max_len, min_len=data.draw(st.integers(0, max_len - 1)),
            reduce=data.draw(st.sampled_from(list(Reduce))),
            length_penalty_alpha=data.draw(st.sampled_from([0.0, 1.0])),
        )
        params = dataclasses.replace(params, beam_size=exhaustive_beam_size(AB, params))

        for table in model.tables:
            for reduce_fn in (reduce_mean_logprob, reduce_mean_prob):
                try:
                    out = reduce_fn(table)
                except ValueError as exc:
                    assert "NaN or +inf" in str(exc)
                    continue
                assert not np.isnan(out).any()
                assert out.tobytes() == reduce_fn(table[::-1]).tobytes()

        def run(search):
            try:
                return search(model, inputs, params)
            except (ValueError, DecodeError) as exc:
                assert str(exc)
                return type(exc)

        beam, oracle = run(beam_search), run(brute_force_search)
        if isinstance(beam, type) or isinstance(oracle, type):
            assert beam == oracle
            return
        best = beam[0]
        assert best.tokens == oracle.tokens
        assert best.raw_score.hex() == oracle.raw_score.hex()
        assert best.trace.combined_total().hex() == best.raw_score.hex()
        raw, trace = sequence_score(model, inputs, best.tokens, params.reduce)
        assert raw.hex() == best.raw_score.hex()
        assert bits(trace.rows) == bits(best.trace.rows)


def test_long_runs_hold_no_memory():
    # 300 consensus-cluster decodes, each exporting its trace, on one model: what
    # a run keeps past a decode (cached orders, results, traces) would add up
    corpus = build_consensus_corpus(n_clusters=301, seed=0)
    model = CopyBigramModel(corpus.model_spec)

    def decode(cluster):
        inputs = [tokenize_and_truncate(d, model.vocab, 400) for d in cluster.documents[:5]]
        beam_search(model, inputs, corpus.decode_params)[0].trace.export("json")

    first, *rest = corpus.clusters
    decode(first)  # the model's lazily built tables are not a run's growth
    gc.collect()
    tracemalloc.start()
    try:
        for cluster in rest:
            decode(cluster)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024
