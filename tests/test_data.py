"""Cluster file parsing, seeded selection, and input tokenization tests."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

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

from conftest import mutate_json

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


def test_consensus_corpus_is_pinned():
    # the corpus the scripts, tests and benchmark generate; any change to its
    # constants or its draw order changes this digest
    c = build_consensus_corpus(n_clusters=5, seed=7)
    text = clusters_to_jsonl(c.clusters) + c.model_spec.to_json_text() + repr(c.decode_params)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "499cf0cbca4d118398a30372637d7b0c4480a8715dba5379fff5ccc4d7cf1920")
