"""Settings boundary fuzz: JSON-typed values for the fields of the value types
that settings and input files are built into (`DecodeParams`, `RougeConfig`,
`ToyModelSpec` with its `Vocab`, and `Cluster`).

Four rules hold. Construction either builds or raises ValueError. A spec or
cluster that builds round-trips through its file form to an equal value.
What builds works: a decode ends in a result or a DecodeError, a model row is
a distribution, a ROUGE score is finite. What builds holds its declared field
types: an int field an int or numpy integer (never a bool), a float field a
float, a bool field a bool, an enum field a member.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
import types
import typing
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyne import (
    Cluster,
    ClusterSet,
    CopyBigramModel,
    DecodeError,
    DecodeParams,
    Reduce,
    RougeConfig,
    ToyModelSpec,
    Vocab,
    beam_search,
    brute_force_search,
    load_clusters,
    rouge_n,
    save_clusters,
)
from dyne.decoder import MAX_BRUTE_FORCE_LEN
from dyne.rouge import MultiRefStrategy
from dyne.seqmodel import BOS_ID, EOS_ID, UNK_ID

#: What a JSON file can hold in a scalar field: ints up to 10**400 either way,
#: floats at the edges of the float range, bools, short strings and null.
JSON_VALUES = st.one_of(
    st.integers(-(10**400), 10**400),
    st.sampled_from([10**400, -(10**400), 2**53, 2**53 - 1, -1, 0]),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e308, 5e-324]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)


def fields(data, plausible: dict) -> dict:
    """One value per field: a JSON-typed value for up to two fields drawn at
    random, and a value the field could hold (``plausible``) for the rest."""
    fuzzed = data.draw(st.sets(st.sampled_from(sorted(plausible)), max_size=2))
    return {name: data.draw(JSON_VALUES if name in fuzzed else strategy)
            for name, strategy in plausible.items()}


def container(data, items: list):
    """``items`` as a list or a tuple, or now and then a JSON-typed value in
    their place: a string, a number or null where a list of strings belongs."""
    if data.draw(st.integers(0, 3)) == 0:
        return data.draw(JSON_VALUES)
    return data.draw(st.sampled_from([list(items), tuple(items)]))


def has_type(value, hint) -> bool:
    """Whether ``value`` is of the type ``hint`` that a dataclass field declares."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(has_type(value, arg) for arg in args)
    if origin is tuple:  # tuple[X, ...] or tuple[X, Y]
        if not isinstance(value, tuple):
            return False
        elements = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(elements) == len(value) and all(map(has_type, value, elements))
    if origin is Mapping:
        return isinstance(value, Mapping) and all(
            has_type(k, args[0]) and has_type(v, args[1]) for k, v in value.items())
    if hint is int:
        return type(value) is int or isinstance(value, np.integer)
    if hint in (float, bool, str, type(None)):
        return type(value) is hint
    return isinstance(value, hint)


def mistyped_fields(value) -> list[str]:
    """The init fields of dataclass ``value`` that do not hold their declared type."""
    hints = typing.get_type_hints(type(value))
    return [f.name for f in dataclasses.fields(value)
            if f.init and not has_type(getattr(value, f.name), hints[f.name])]


def built(make, *args, **kwargs):
    """``make(...)``, or None when it raises ValueError (rule 1: nothing else);
    what builds holds its declared field types (rule 4)."""
    try:
        value = make(*args, **kwargs)
    except ValueError:
        return None
    assert mistyped_fields(value) == []
    return value


def logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    return -math.inf if m == -math.inf else float(m + np.log(np.sum(np.exp(v - m))))


def draw_spec(data) -> ToyModelSpec | None:
    """A spec over ``<s> </s> <unk> a <token>`` built from fuzzed fields: the
    vocab's container and last token, one bigram pair and count, and both
    numbers."""
    targets = st.sampled_from([EOS_ID, 3, 4])
    values = fields(data, {"token": st.just("b"), "prev": st.integers(0, 4), "next": targets,
                           "count": st.integers(0, 50), "copy_weight": st.floats(0.0, 1.0),
                           "smooth_k": st.floats(0.0, 1e308, exclude_min=True)})
    vocab = built(Vocab, container(data, ["<s>", "</s>", "<unk>", "a", values["token"]]))
    if vocab is None:
        return None
    counts = data.draw(st.dictionaries(st.tuples(st.integers(0, 4), targets),
                                       st.integers(0, 50), max_size=3))
    counts[values["prev"], values["next"]] = values["count"]
    return built(ToyModelSpec, values["copy_weight"], values["smooth_k"], counts, vocab)


class TestSettingsFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_model_spec_builds_round_trips_and_scores(self, data):
        spec = draw_spec(data)
        if spec is None:
            return
        assert ToyModelSpec.from_json_text(spec.to_json_text()) == spec
        model = CopyBigramModel(spec)
        for prev in range(len(spec.vocab)):
            for row in model.score_batch([(3,), (UNK_ID, 3)], (BOS_ID, prev)):
                assert abs(logsumexp(row)) <= 1e-6

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_decode_params_build_and_decode(self, data):
        params = built(DecodeParams, **fields(data, {
            "beam_size": st.integers(1, 6),
            "max_len": st.integers(1, 6),
            "min_len": st.integers(0, 5),
            "reduce": st.sampled_from(list(Reduce)),
            "length_penalty_alpha": st.sampled_from([0.0, 0.5, 2.0, 1e308]),
            "block_repeat_ngram": st.none() | st.integers(1, 3),
            "seed": st.integers(0, 3),
        }))
        spec = draw_spec(data)
        if params is None or spec is None:
            return
        model, inputs = CopyBigramModel(spec), [(3, 3), (UNK_ID, 3)]
        if params.max_len > MAX_BRUTE_FORCE_LEN:
            # past desk scale a beam may take min_len steps; the oracle refuses
            with pytest.raises(ValueError, match="brute-force search is limited"):
                brute_force_search(model, inputs, params)
            return
        for search in (beam_search, brute_force_search):
            try:
                search(model, inputs, params)
            except DecodeError:
                pass

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rouge_config_builds_and_scores(self, data):
        cfg = built(RougeConfig, **fields(data, {
            "lowercase": st.booleans(),
            "strip_punctuation": st.booleans(),
            "use_porter_stemming": st.booleans(),
            "multi_ref_strategy": st.sampled_from(list(MultiRefStrategy)),
            "beta": st.floats(0.0, 1e150, exclude_min=True),
        }))
        if cfg is None:
            return
        score = rouge_n("The cats sat", ["the cat sat down", "a dog"], 1, cfg)
        assert all(math.isfinite(v) for v in (score.precision, score.recall, score.f))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_cluster_builds_and_round_trips(self, data):
        texts = st.lists(st.text(max_size=4), min_size=1, max_size=2)
        values = fields(data, {"id": st.text(min_size=1, max_size=3), "document": st.text(),
                               "reference": st.text()})
        documents = container(data, data.draw(texts) + [values["document"]])
        references = container(data, data.draw(st.lists(st.text(max_size=4), max_size=1))
                               + [values["reference"]])
        cluster = built(Cluster, values["id"], documents, references)
        if cluster is None:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clusters.jsonl"
            save_clusters(ClusterSet((cluster,)), path)
            assert load_clusters(path) == ClusterSet((cluster,))


@pytest.mark.parametrize("make, field", [
    (lambda: RougeConfig(multi_ref_strategy="max"), "multi_ref_strategy"),
    (lambda: RougeConfig(lowercase="false"), "lowercase"),
    (lambda: RougeConfig(strip_punctuation=0), "strip_punctuation"),
    (lambda: RougeConfig(use_porter_stemming=None), "use_porter_stemming"),
    (lambda: DecodeParams(seed=True), "seed"),
    (lambda: DecodeParams(seed=1.0), "seed"),
    (lambda: DecodeParams(seed="x"), "seed"),
    (lambda: ToyModelSpec(0.5, 1.0, {}, ("<s>", "</s>", "<unk>", "a")), "vocab"),
], ids=["strategy-str", "lowercase-str", "strip-int", "stemming-none", "seed-bool",
        "seed-float", "seed-str", "vocab-tuple"])
def test_mistyped_setting_named(make, field):
    # built, these misread: a text "max" averaged, a bool seed drew other documents
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize("seed", [np.int64(3), -1, 10**30])
def test_any_integer_seed_builds(seed):
    assert mistyped_fields(DecodeParams(seed=seed)) == []


def test_mistyped_field_rule_bites():
    params = DecodeParams()
    object.__setattr__(params, "seed", True)
    object.__setattr__(params, "length_penalty_alpha", 0)
    object.__setattr__(params, "block_repeat_ngram", 2.0)
    assert mistyped_fields(params) == ["length_penalty_alpha", "block_repeat_ngram", "seed"]
    cfg = RougeConfig()
    object.__setattr__(cfg, "multi_ref_strategy", "max")
    assert mistyped_fields(cfg) == ["multi_ref_strategy"]
    spec = ToyModelSpec(0.5, 1.0, {(3, 3): 1}, Vocab.from_content(["a"]))
    object.__setattr__(spec, "bigram_counts", {(3, 3): 1.0})
    object.__setattr__(spec, "smooth_k", 1)
    assert mistyped_fields(spec) == ["smooth_k", "bigram_counts"]
    cluster = Cluster("c", ("d",))
    object.__setattr__(cluster, "documents", ["d"])
    assert mistyped_fields(cluster) == ["documents"]
