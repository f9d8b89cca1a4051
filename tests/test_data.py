"""Cluster file parsing, seeded selection, and input tokenization tests."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyne import (
    Cluster,
    ClusterSet,
    FormatError,
    ToyModelSpec,
    Vocab,
    load_clusters,
    save_clusters,
    select_document_indices,
    tokenize_and_truncate,
)
from dyne.cli import main
from dyne.data import clusters_to_jsonl
from dyne.errors import parse_object
from dyne.seqmodel import UNK_ID
from dyne.synthetic import build_consensus_corpus

from conftest import Level, mutate_json

TWO_LINES = (
    '{"id": "c1", "documents": ["a b", "b c"], "references": ["a"]}\n'
    '{"id": "c2", "documents": ["x"], "references": []}\n'
)


class TestLoading:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text(TWO_LINES)
        cs = load_clusters(path)
        assert len(cs) == 2
        assert cs.clusters[0].id == "c1"
        assert cs.clusters[0].documents == ("a b", "b c")
        assert cs.clusters[1].references == ()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text("\n" + TWO_LINES + "\n\n")
        assert len(load_clusters(path)) == 2

    def test_references_field_optional(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "c", "documents": ["a"]}\n')
        assert load_clusters(path).clusters[0].references == ()

    def test_missing_documents_cites_line(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "ok", "documents": ["a"]}\n{"id": "bad"}\n')
        with pytest.raises(FormatError) as info:
            load_clusters(path)
        assert str(info.value) == f"{path}: line 2: missing field 'documents'"

    def test_empty_documents_rejected(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "c", "documents": []}\n')
        with pytest.raises(FormatError, match="no documents"):
            load_clusters(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "c", "documents": ["a"], "summary": "x"}\n')
        with pytest.raises(FormatError, match="unknown field.*summary"):
            load_clusters(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "c", "documents": ["a"]}\n{"id": "c", "documents": ["b"]}\n')
        with pytest.raises(ValueError) as info:
            load_clusters(path)
        assert str(info.value).startswith(f"{path}: line 2: duplicate cluster id 'c'")

    def test_unpaired_surrogate_id_rejected(self, tmp_path):
        assert Cluster("café", ("a",)).id == "café"
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "ok", "documents": ["a"]}\n{"id": "k\\ud800", "documents": ["a"]}\n')
        with pytest.raises(FormatError, match=r"line 2: cluster id 'k\\ud800' holds an unpaired"):
            load_clusters(path)

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "c", "documents": ["a"]}\n{oops\n')
        with pytest.raises(FormatError, match="line 2"):
            load_clusters(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_clusters(tmp_path / "nope.jsonl")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text(TWO_LINES)
        cs = load_clusters(path)
        out = tmp_path / "copy.jsonl"
        save_clusters(cs, out)
        assert load_clusters(out) == cs
        assert clusters_to_jsonl(load_clusters(out)) == clusters_to_jsonl(cs)

    def test_cluster_set_lookup(self):
        cs = ClusterSet((Cluster("c1", ("a",)), Cluster("c2", ("b",))))
        assert cs.get("c2").documents == ("b",)
        assert cs.get("missing") is None

    def test_cluster_values_checked(self):
        with pytest.raises(ValueError, match="cluster id must be a non-empty string"):
            Cluster("", ("a",))
        with pytest.raises(ValueError, match="duplicate cluster id 'c1'"):
            ClusterSet((Cluster("c1", ("a",)), Cluster("c1", ("b",))))

    @pytest.mark.parametrize("clusters, message", [
        ("ab", "clusters must be a list or tuple of Cluster, got 'ab'"),
        (None, "clusters must be a list or tuple of Cluster, got None"),
        ({"c": 1}, "clusters must be a list or tuple of Cluster, got {'c': 1}"),
        ([Cluster("c", ("a",)), "x"], "clusters[1] must be a Cluster, got 'x'"),
        ((None,), "clusters[0] must be a Cluster, got None"),
    ], ids=["str", "none", "dict", "str-entry", "none-entry"])
    def test_cluster_set_holds_only_clusters(self, clusters, message):
        # a str raised AttributeError from reading c.id, None a TypeError
        with pytest.raises(ValueError) as info:
            ClusterSet(clusters)
        assert str(info.value) == message
        assert ClusterSet([Cluster("c", ("a",))]).clusters == (Cluster("c", ("a",)),)

    @pytest.mark.parametrize("args, message", [
        ((5, ("a",)), "cluster id must be a non-empty string, got 5"),
        (("c", (1, 2)), "cluster 'c' documents[0] must be a str, got 1"),
        (("c", ("a", None)), "cluster 'c' documents[1] must be a str, got None"),
        (("c", ("a",), (None,)), "cluster 'c' references[0] must be a str, got None"),
    ], ids=["int-id", "int-document", "none-document", "none-reference"])
    def test_cluster_built_in_code_follows_the_file_rules(self, args, message):
        # an int id raised TypeError; the others built, and save_clusters then
        # wrote a file that load_clusters rejected
        with pytest.raises(ValueError) as info:
            Cluster(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("field", ["documents", "references"])
    @pytest.mark.parametrize("value", ["ab c", 5, None, {"a": 1}],
                             ids=["str", "int", "none", "dict"])
    def test_cluster_containers_must_be_lists(self, field, value):
        # a str built one document per character, a dict one per key, and an
        # int or None raised TypeError
        with pytest.raises(ValueError) as info:
            Cluster("c", **{"documents": ("a",), field: value})
        assert str(info.value) == (
            f"cluster 'c' {field} must be a list or tuple of str, got {value!r}")

    def test_string_documents_in_file_named(self, tmp_path, capsys):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "ok", "documents": ["a"]}\n{"id": "c", "documents": "ab"}\n')
        message = f"{path}: line 2: cluster 'c' documents must be a list or tuple of str, got 'ab'"
        with pytest.raises(FormatError) as info:
            load_clusters(path)
        assert str(info.value) == message
        model = tmp_path / "model.json"
        ToyModelSpec(1.0, 1.0, {}, Vocab.from_content(["a"])).save(model)
        code = main(["decode", "--model", str(model), "--clusters", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2 and capsys.readouterr().err.startswith(f"error: {message}")

    def test_non_string_document_in_file_named(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        path.write_text('{"id": "c", "documents": ["a", 1]}\n')
        with pytest.raises(FormatError) as info:
            load_clusters(path)
        assert str(info.value) == f"{path}: line 1: cluster 'c' documents[1] must be a str, got 1"

    def test_empty_cluster_set_writes_an_empty_file(self, tmp_path):
        assert clusters_to_jsonl(ClusterSet(())) == ""
        save_clusters(ClusterSet(()), tmp_path / "empty.jsonl")
        assert load_clusters(tmp_path / "empty.jsonl") == ClusterSet(())


CLUSTER_DOCS = [
    {"id": "c1", "documents": ["a b", "b c"], "references": ["a"]},
    {"id": "c2", "documents": ["x"], "references": []},
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["id", "documents", "references", "c1", "c2", "a b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "documents", "references"]) | st.text(max_size=3), inner,
        max_size=3),
    max_leaves=6,
)


class TestParseObject:
    @pytest.mark.parametrize("text, message", [
        ('{"a": ', "w: invalid JSON: "),
        ("[1]", "w: must hold a JSON object"),
        ('{"a": 1, "z": 2, "y": 3}', "w: unknown field(s): y, z"),
        ('{"z": 1}', "w: unknown field(s): z"),  # checked before missing fields
        ('{"b": 1}', "w: missing field 'a'"),
        ("{}", "w: missing field 'a'"),  # the first missing, in required order
    ])
    def test_each_fault_reads_one_way(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_object(text, "w", required=("a", "b"), allowed=("a", "b"))
        assert str(info.value).startswith(message)

    def test_fields_unchecked_without_allowed(self):
        assert parse_object('{"a": 1, "z": 2}', "w", required=("a",)) == {"a": 1, "z": 2}


class TestLoaderFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_cluster_file_fails_cleanly(self, data):
        text = mutate_json(data, CLUSTER_DOCS, JSON_VALUES, serialize=lambda doc: "".join(
            json.dumps(line) + "\n" for line in (doc if isinstance(doc, list) else [doc])))
        raw = bytearray(text.encode("utf-8"))
        for _ in range(data.draw(st.integers(0, 2)) if raw else 0):  # byte edits, UTF-8 or not
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clusters.jsonl"
            path.write_bytes(raw)
            try:
                clusters = load_clusters(path)
            except ValueError:  # FormatError is a ValueError
                model = Path(tmp) / "model.json"
                ToyModelSpec(1.0, 1.0, {}, Vocab.from_content(["a"])).save(model)
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(["decode", "--model", str(model), "--clusters", str(path),
                                 "--out", str(Path(tmp) / "out")])
                assert code == 2 and err.getvalue().startswith("error:")
                assert not (Path(tmp) / "out").exists()
                return
            save_clusters(clusters, path)
            assert load_clusters(path) == clusters


def make_cluster(n_docs: int, cluster_id: str = "c") -> Cluster:
    return Cluster(cluster_id, tuple(f"doc {i}" for i in range(n_docs)))


class TestSelection:
    def test_small_cluster_returned_whole(self):
        cluster = make_cluster(3)
        assert select_document_indices(cluster, 5, seed=1) == [0, 1, 2]

    def test_deterministic_in_seed_and_id(self):
        cluster = make_cluster(10)
        first = select_document_indices(cluster, 5, seed=42)
        assert select_document_indices(cluster, 5, seed=42) == first
        # both the seed and the cluster id feed the generator
        by_seed = {tuple(select_document_indices(cluster, 5, s)) for s in range(20)}
        assert len(by_seed) > 1
        by_id = {
            tuple(select_document_indices(Cluster(cid, cluster.documents), 5, 42))
            for cid in ("a", "b", "c", "d", "e")
        }
        assert len(by_id) > 1

    def test_independent_of_other_clusters(self):
        # per-cluster seeding: the same cluster id picks the same subset no
        # matter what else a dataset holds
        a = make_cluster(10, "a")
        assert select_document_indices(a, 5, 7) == select_document_indices(
            Cluster("a", a.documents), 5, 7
        )

    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_order_preserving_and_distinct(self, seed, n_docs, max_docs):
        cluster = make_cluster(n_docs)
        indices = select_document_indices(cluster, max_docs, seed)
        assert indices == sorted(set(indices))
        assert len(indices) == min(n_docs, max_docs)

    def test_invalid_max_docs(self):
        with pytest.raises(ValueError, match="max_docs"):
            select_document_indices(make_cluster(3), 0, seed=0)

    @pytest.mark.parametrize("max_docs", [2.5, True, 2.0, None, "2", Level.HIGH])
    def test_max_docs_must_be_an_integer(self, max_docs):
        # 2.5 and True raised numpy's TypeError
        with pytest.raises(ValueError) as info:
            select_document_indices(make_cluster(5), max_docs, 0)
        assert str(info.value) == f"max_docs must be an integer >= 1, got {max_docs!r}"

    @pytest.mark.parametrize("seed", [1.5, True, None, "1", Level.HIGH])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 seeded the draw with "1.5|c", True with "True|c"
        with pytest.raises(ValueError) as info:
            select_document_indices(make_cluster(5), 2, seed)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"
        cluster = make_cluster(5)
        assert (select_document_indices(cluster, np.int64(2), np.int64(7))
                == select_document_indices(cluster, 2, 7))

    @pytest.mark.parametrize("cluster", [None, "ab", ("doc 0", "doc 1")],
                             ids=["none", "str", "tuple"])
    def test_cluster_must_be_a_cluster(self, cluster):
        # None raised AttributeError from reading cluster.documents
        with pytest.raises(ValueError) as info:
            select_document_indices(cluster, 2, 0)
        assert str(info.value) == f"cluster must be a Cluster, got {cluster!r}"

    def test_monte_carlo_uniformity(self):
        # 10 documents, 5 kept: every document should be selected with
        # frequency 0.5 +- 0.02 across 10k seeds
        cluster = make_cluster(10)
        counts = Counter()
        trials = 10_000
        for seed in range(trials):
            counts.update(select_document_indices(cluster, 5, seed))
        for doc in range(10):
            assert abs(counts[doc] / trials - 0.5) <= 0.02


class TestTokenize:
    VOCAB = Vocab.from_content(["a", "b"])

    def test_basic(self):
        a, b = self.VOCAB.id_of("a"), self.VOCAB.id_of("b")
        assert tokenize_and_truncate("a b a", self.VOCAB, 10) == (a, b, a)

    def test_truncation(self):
        text = " ".join(["a"] * 600)
        assert len(tokenize_and_truncate(text, self.VOCAB, 512)) == 512

    def test_oov_maps_to_unk(self):
        assert tokenize_and_truncate("q r s", self.VOCAB, 10) == (UNK_ID,) * 3

    def test_empty_text(self):
        assert tokenize_and_truncate("", self.VOCAB, 10) == ()

    def test_invalid_max_tokens(self):
        with pytest.raises(ValueError, match="max_tokens"):
            tokenize_and_truncate("a", self.VOCAB, 0)

    @pytest.mark.parametrize("max_tokens", [True, 2.5, 2.0, None, Level.HIGH])
    def test_max_tokens_must_be_an_integer(self, max_tokens):
        # True kept one token; 2.5 raised TypeError from the slice
        with pytest.raises(ValueError) as info:
            tokenize_and_truncate("a b a", self.VOCAB, max_tokens)
        assert str(info.value) == f"max_tokens must be an integer >= 1, got {max_tokens!r}"
        assert len(tokenize_and_truncate("a b a", self.VOCAB, np.int64(2))) == 2

    @pytest.mark.parametrize("text", [b"a b", None, ["a", "b"], 5],
                             ids=["bytes", "none", "list", "int"])
    def test_text_must_be_a_str(self, text):
        # b"a b" gave two unknown-word ids, None raised AttributeError from .split()
        with pytest.raises(ValueError) as info:
            tokenize_and_truncate(text, self.VOCAB, 5)
        assert str(info.value) == f"text must be a str, got {text!r}"


def test_consensus_corpus_is_pinned():
    # the corpus the scripts, tests and benchmark generate; any change to its
    # constants or its draw order changes this digest
    c = build_consensus_corpus(n_clusters=5, seed=7)
    text = clusters_to_jsonl(c.clusters) + c.model_spec.to_json_text() + repr(c.decode_params)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c203c06b8b842e5eb167573829e5df1c7e8eb87bcffc1115aa64a484d9b45b0b")


@pytest.mark.parametrize("kwargs, message", [
    ({"docs_per_cluster": 41}, "need 205 distinct noise words per cluster but the pool has only 200"),
    ({"signal_len": 41}, "signal_len 41 exceeds the signal pool 40"),
], ids=["noise-pool", "signal-pool"])
def test_consensus_corpus_rejects_what_its_pools_cannot_hold(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_consensus_corpus(n_clusters=1, **kwargs)


def test_consensus_corpus_fills_its_pools_exactly():
    c = build_consensus_corpus(n_clusters=1, docs_per_cluster=40, signal_len=40)
    (cluster,) = c.clusters
    assert len(cluster.documents) == 40
    assert len(set(cluster.references[0].split())) == 40
    noise = {w for doc in cluster.documents for w in doc.split() if w.startswith("nz")}
    assert len(noise) == 200  # every noise word of the pool, none shared
