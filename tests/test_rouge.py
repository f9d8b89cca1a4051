"""ROUGE metric tests: hand-counted scores, conventions, properties."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyne import MultiRefStrategy, RougeConfig, RougeScore, rouge_l, rouge_n
from dyne.rouge import DEFAULT_METRICS, compute_metric, mean_score, tokenize
from dyne.stemmer import porter_stem

CFG = RougeConfig()

words = st.lists(st.sampled_from("a b c d the cat sat".split()), min_size=1, max_size=12)
texts = words.map(" ".join)


class TestRougeN:
    def test_identity(self):
        s = rouge_n("the cat sat", ["the cat sat"], 1, CFG)
        assert (s.precision, s.recall, s.f) == (1.0, 1.0, 1.0)

    def test_hand_counted_unigrams(self):
        s = rouge_n("the cat", ["the cat sat"], 1, CFG)
        assert s.precision == 1.0
        assert s.recall == pytest.approx(2 / 3, abs=1e-12)
        assert s.f == pytest.approx(0.8, abs=1e-12)

    def test_clipping(self):
        s = rouge_n("a a a", ["a b"], 1, CFG)
        assert s.precision == pytest.approx(1 / 3, abs=1e-12)
        assert s.recall == pytest.approx(1 / 2, abs=1e-12)
        assert s.f == pytest.approx(0.4, abs=1e-12)

    def test_hypothesis_shorter_than_n(self):
        s = rouge_n("cat", ["the cat sat"], 2, CFG)
        assert (s.precision, s.recall, s.f) == (0.0, 0.0, 0.0)

    def test_empty_hypothesis_scores_zero(self):
        s = rouge_n("", ["the cat"], 1, CFG)
        assert (s.precision, s.recall, s.f) == (0.0, 0.0, 0.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            rouge_n("the cat", [""], 1, CFG)
        with pytest.raises(ValueError, match="reference"):
            rouge_n("the cat", [], 1, CFG)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            rouge_n("the cat", ["the cat"], 0, CFG)

    @given(texts)
    @settings(max_examples=50, deadline=None)
    def test_self_identity(self, text):
        s = rouge_n(text, [text], 1, CFG)
        assert s.f == 1.0

    @given(texts, texts)
    @settings(max_examples=50, deadline=None)
    def test_scores_bounded_and_f_between_p_and_r(self, hyp, ref):
        s = rouge_n(hyp, [ref], 1, CFG)
        for value in (s.precision, s.recall, s.f):
            assert 0.0 <= value <= 1.0
        assert min(s.precision, s.recall) - 1e-12 <= s.f <= max(s.precision, s.recall) + 1e-12


class TestRougeL:
    def test_identity(self):
        s = rouge_l("a b c", ["a b c"], CFG)
        assert (s.precision, s.recall, s.f) == (1.0, 1.0, 1.0)

    def test_hand_counted_lcs(self):
        s = rouge_l("a c b", ["a b c"], CFG)
        assert s.precision == pytest.approx(2 / 3, abs=1e-12)
        assert s.recall == pytest.approx(2 / 3, abs=1e-12)

    def test_disjoint_vocab_scores_zero(self):
        s = rouge_l("a b", ["c d"], CFG)
        assert (s.precision, s.recall, s.f) == (0.0, 0.0, 0.0)

    @given(texts)
    @settings(max_examples=50, deadline=None)
    def test_subsequence_has_full_precision(self, ref_text):
        tokens = ref_text.split()
        hyp = " ".join(tokens[::2])
        if not hyp:
            return
        s = rouge_l(hyp, [ref_text], CFG)
        assert s.precision == 1.0


class TestMultiReference:
    def test_max_picks_best_reference(self):
        s = rouge_n("the cat", ["dog", "the cat"], 1, CFG)
        assert s.f == 1.0

    @given(texts, st.lists(texts, min_size=1, max_size=3), texts)
    @settings(max_examples=50, deadline=None)
    def test_appending_reference_never_lowers_max(self, hyp, refs, extra):
        before = rouge_n(hyp, refs, 1, CFG).f
        after = rouge_n(hyp, refs + [extra], 1, CFG).f
        assert after >= before - 1e-12

    def test_average_is_componentwise_mean(self):
        cfg = RougeConfig(multi_ref_strategy=MultiRefStrategy.AVERAGE_OVER_REFS)
        s = rouge_n("the cat", ["the cat", "dog"], 1, cfg)
        exact = rouge_n("the cat", ["the cat"], 1, cfg)
        zero = rouge_n("the cat", ["dog"], 1, cfg)
        assert s.precision == pytest.approx((exact.precision + zero.precision) / 2)
        assert s.f == pytest.approx((exact.f + zero.f) / 2)


class TestConventions:
    def test_lowercase_toggle(self):
        on = rouge_n("The CAT", ["the cat"], 1, RougeConfig(lowercase=True))
        off = rouge_n("The CAT", ["the cat"], 1, RougeConfig(lowercase=False))
        assert on.f == 1.0
        assert off.f == 0.0

    def test_strip_punctuation_toggle(self):
        on = rouge_n("the cat.", ["the cat"], 1, RougeConfig(strip_punctuation=True))
        off = rouge_n("the cat.", ["the cat"], 1, RougeConfig(strip_punctuation=False))
        assert on.f == 1.0
        assert off.f < 1.0

    def test_stemming_toggle(self):
        cfg = RougeConfig(use_porter_stemming=True)
        s = rouge_n("running cats", ["run cat"], 1, cfg)
        assert s.f == 1.0

    def test_beta_weighting(self):
        # recall-heavy beta: with P=1, R=2/3, large beta pulls F toward R
        heavy = rouge_n("the cat", ["the cat sat"], 1, RougeConfig(beta=8.0))
        assert heavy.f == pytest.approx(2 / 3, abs=1e-2)

    def test_beta_validation(self):
        # beta = 1e200 is finite, but its square is not: every F would be NaN
        for beta in (0.0, math.inf, math.nan, 1e200):
            with pytest.raises(ValueError, match="beta"):
                RougeConfig(beta=beta)

    @pytest.mark.parametrize("beta, message", [
        ("x", "beta must be a real number, got 'x'"),
        (None, "beta must be a real number, got None"),
        (10**400, "beta must fit in a float"),
    ], ids=["str", "none", "int-past-float"])
    def test_beta_must_be_a_real_number(self, beta, message):
        # "x" and None raised TypeError, 10**400 OverflowError
        with pytest.raises(ValueError) as info:
            RougeConfig(beta=beta)
        assert str(info.value) == message
        assert type(RougeConfig(beta=2).beta) is float

    def test_tokenize_pipeline(self):
        cfg = RougeConfig(lowercase=True, strip_punctuation=True, use_porter_stemming=True)
        assert tokenize("The Cats, running!", cfg) == ["the", "cat", "run"]


class TestInputTypes:
    SCORERS = {
        "rouge_n": lambda refs: rouge_n("a b", refs, 1),
        "rouge_l": lambda refs: rouge_l("storm", refs),
        "compute_metric": lambda refs: compute_metric("rouge-2", "a b", refs),
    }

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("references", ["ab", None, {"ab": 1}],
                             ids=["str", "none", "dict"])
    def test_references_must_be_a_list_or_tuple(self, scorer, references):
        # a str scored one reference per character (f 0.0 for "ab" against "ab");
        # None raised TypeError
        with pytest.raises(ValueError) as info:
            self.SCORERS[scorer](references)
        assert str(info.value) == (
            f"references must be a list or tuple of str, got {references!r}")
        assert self.SCORERS[scorer](("a b", "storm")).f == 1.0

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_reference_that_is_not_a_str_rejected(self, scorer):
        with pytest.raises(ValueError, match=r"^references\[1\] must be a str, got 5$"):
            self.SCORERS[scorer](["ab", 5])

    @pytest.mark.parametrize("text", [None, 5, b"ab", ["ab"]])
    def test_tokenize_rejects_text_that_is_not_a_str(self, text):
        # None raised AttributeError from .lower()
        with pytest.raises(ValueError) as info:
            tokenize(text)
        assert str(info.value) == f"text to tokenize must be a str, got {text!r}"
        with pytest.raises(ValueError, match="must be a str"):
            rouge_n(text, ["ab"], 1)


class TestPorterStemmer:
    # canonical worked examples from the published algorithm description
    CASES = [
        ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"), ("cats", "cat"),
        ("feed", "feed"), ("plastered", "plaster"), ("motoring", "motor"),
        ("sing", "sing"), ("hopping", "hop"), ("falling", "fall"), ("filing", "file"),
        ("happy", "happi"), ("sky", "sky"), ("relational", "relat"),
        ("conditional", "condit"), ("rational", "ration"), ("agreed", "agre"),
        ("generalizations", "gener"), ("oscillators", "oscil"),
        ("at", "at"), ("on", "on"),
        # the remaining step-by-step examples of Porter (1980), through all steps
        ("caress", "caress"), ("bled", "bled"), ("conflated", "conflat"),
        ("troubled", "troubl"), ("sized", "size"), ("tanned", "tan"), ("hissing", "hiss"),
        ("fizzed", "fizz"), ("failing", "fail"), ("valenci", "valenc"),
        ("hesitanci", "hesit"), ("digitizer", "digit"), ("conformabli", "conform"),
        ("radicalli", "radic"), ("differentli", "differ"), ("vileli", "vile"),
        ("analogousli", "analog"), ("vietnamization", "vietnam"), ("predication", "predic"),
        ("operator", "oper"), ("feudalism", "feudal"), ("decisiveness", "decis"),
        ("hopefulness", "hope"), ("callousness", "callous"), ("formaliti", "formal"),
        ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"), ("triplicate", "triplic"),
        ("formative", "form"), ("formalize", "formal"), ("electriciti", "electr"),
        ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"),
        ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
        ("airliner", "airlin"), ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
        ("defensible", "defens"), ("irritant", "irrit"), ("replacement", "replac"),
        ("adjustment", "adjust"), ("dependent", "depend"), ("adoption", "adopt"),
        ("homologou", "homolog"), ("communism", "commun"), ("activate", "activ"),
        ("angulariti", "angular"), ("homologous", "homolog"), ("effective", "effect"),
        ("bowdlerize", "bowdler"), ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
        ("controll", "control"), ("roll", "roll"),
        # -ion stays unless after s or t; step 5a drops the e of a short cvc-less stem
        ("opinion", "opinion"), ("ate", "at"),
    ]

    @pytest.mark.parametrize("word,expected", CASES)
    def test_canonical_pairs(self, word, expected):
        assert porter_stem(word) == expected

    # sha256 of the stems of bench_paired's corpus (30,000 words: every suffix of
    # every table, y after a vowel and after a consonant, double consonants and
    # cvc endings), taken with the letter-by-letter stemmer the tables replaced
    STEMS_SHA256 = "ec9763a97e5fa82a5d709906bc21a0efa400213c2ffd1efcbcbd8c1a88cabaeb"

    def test_stems_of_generated_corpus_pinned(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "bench_paired.py"
        spec = importlib.util.spec_from_file_location("bench_paired", script)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        corpus = bench.stem_corpus()
        assert len(corpus) >= 30_000
        assert bench.stems_sha256([porter_stem(w) for w in corpus]) == self.STEMS_SHA256

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_total_over_lowercase_words(self, word):
        stem = porter_stem(word)
        assert isinstance(stem, str) and stem
        assert len(stem) <= len(word) + 1  # a trailing e may be restored


class TestCorpus:
    @staticmethod
    def corpus_mean(pairs, metric):
        return mean_score([compute_metric(metric, hyp, refs, CFG) for hyp, refs in pairs])

    def test_single_pair_equals_pair_score(self):
        corpus = self.corpus_mean([("the cat", ["the cat sat"])], "rouge-1")
        single = rouge_n("the cat", ["the cat sat"], 1, CFG)
        assert corpus == single

    def test_mean_of_extremes(self):
        pairs = [("the cat", ["the cat"]), ("dog", ["the cat"])]
        assert self.corpus_mean(pairs, "rouge-1").f == pytest.approx(0.5, abs=1e-12)

    @given(st.lists(st.tuples(texts, st.lists(texts, min_size=1, max_size=2)),
                    min_size=2, max_size=6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_order_invariance_exact(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        for metric in DEFAULT_METRICS:
            assert self.corpus_mean(shuffled, metric) == self.corpus_mean(pairs, metric)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="at least one score"):
            mean_score([])

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            compute_metric("rouge-x", "a", ["a"], CFG)

    def test_metric_dispatch(self):
        assert compute_metric("rouge-2", "a b c", ["a b c"], CFG).f == 1.0
        assert compute_metric("rouge-l", "a b c", ["a b c"], CFG).f == 1.0


def test_score_is_plain_record():
    s = RougeScore(0.5, 0.25, 1 / 3)
    assert s.precision == 0.5 and s.recall == 0.25
