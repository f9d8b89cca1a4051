"""End-to-end CLI tests: decode, evaluate, sweep, trace, config files."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import stat
import sys
from pathlib import Path

import pytest

import dyne.cli
import dyne.decoder
from dyne import (Cluster, ClusterSet, DecodeParams, Reduce, ToyModelSpec, Vocab, rouge,
                  save_clusters)
from dyne.cli import main
from dyne.synthetic import build_consensus_corpus

from conftest import UNWRITABLE_JSON

NO_COUNTS = {"prev": [], "next": [], "count": []}


@pytest.fixture
def workspace(tmp_path):
    """A tiny consensus corpus plus model spec written to disk."""
    corpus = build_consensus_corpus(n_clusters=6, seed=3)
    clusters = tmp_path / "clusters.jsonl"
    model = tmp_path / "model.json"
    save_clusters(corpus.clusters, clusters)
    corpus.model_spec.save(model)
    p = corpus.decode_params
    flags = [
        "--model", str(model),
        "--clusters", str(clusters),
        "--beam-size", str(p.beam_size),
        "--max-len", str(p.max_len),
        "--min-len", str(p.min_len),
        "--block-repeat-ngram", str(p.block_repeat_ngram),
        "--seed", str(p.seed),
    ]
    return tmp_path, flags, corpus


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestDecode:
    def test_writes_record_and_trace_per_cluster(self, workspace, capsys):
        tmp, flags, corpus = workspace
        out = tmp / "run"
        assert main(["decode", *flags, "--out", str(out)]) == 0
        lines = (out / "summaries.jsonl").read_text().splitlines()
        assert len(lines) == len(corpus.clusters)
        record = json.loads(lines[0])
        assert set(record) >= {"id", "tokens", "text", "raw_score", "ranked_score"}
        traces = sorted((out / "traces").iterdir())
        assert len(traces) == len(corpus.clusters)
        header, *rows = csv.reader(io.StringIO(traces[0].read_text()))
        assert header[:3] == ["timestep", "token", "combined"]
        assert len(rows) == len(record["tokens"]) + 1  # content + EOS rows
        assert [row[1] for row in rows] == [*record["tokens"], "</s>"]
        assert (out / "run_config.json").exists()

    def test_rerun_is_byte_identical(self, workspace):
        tmp, flags, _ = workspace
        a, b = tmp / "run_a", tmp / "run_b"
        assert main(["decode", *flags, "--out", str(a)]) == 0
        assert main(["decode", *flags, "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_missing_model_is_startup_error(self, workspace):
        tmp, flags, _ = workspace
        flags = list(flags)
        flags[flags.index("--model") + 1] = str(tmp / "missing.json")
        out = tmp / "run"
        assert main(["decode", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_count_too_large_for_a_float_is_startup_error(self, workspace, capsys):
        tmp, flags, _ = workspace
        spec = {"lambda": 0.5, "smooth_k": 1.0, "vocab": ["<s>", "</s>", "<unk>", "a", "b"],
                "bigram_counts": {"prev": ["a"], "next": ["b"], "count": [10**400]}}
        (tmp / "huge.json").write_text(json.dumps(spec))
        flags = list(flags)
        flags[flags.index("--model") + 1] = str(tmp / "huge.json")
        out = tmp / "run"
        assert main(["decode", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "below 2**53" in err
        assert not out.exists()

    def test_triple_list_spec_is_one_startup_error(self, workspace, capsys):
        # the spec file form before the counts were stored as three columns
        tmp, flags, corpus = workspace
        spec = json.loads(corpus.model_spec.to_json_text())
        a, b = spec["vocab"][3:5]
        spec["bigram_counts"] = [["<s>", a, 2], [a, b, 1], [b, "</s>", 3]]
        path = tmp / "triples.json"
        path.write_text(json.dumps(spec))
        flags = list(flags)
        flags[flags.index("--model") + 1] = str(path)
        out = tmp / "run"
        assert main(["decode", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.endswith("\n") and err.count("\n") == 1
        assert err.startswith(f"error: {path}: model spec: field 'bigram_counts' must be an "
                              'object of three equal-length lists, {"prev": [tokens]')
        assert not out.exists()

    def test_length_penalty_that_overflows_is_startup_error(self, workspace, capsys):
        # it decoded every cluster, then failed each with OverflowError when ranking
        tmp, flags, _ = workspace
        out = tmp / "run"
        assert main(["decode", *flags, "--length-penalty", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: length_penalty_alpha 1e+308 makes the length penalty (max_len - 1) ** alpha "
            "overflow at max_len=5\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["model", "clusters"])
    def test_unpaired_surrogate_is_startup_error(self, workspace, capsys, bad):
        tmp, flags, _ = workspace
        flags = list(flags)
        path = tmp / f"bad_{bad}"
        if bad == "model":
            spec = {"lambda": 1.0, "smooth_k": 1.0, "bigram_counts": NO_COUNTS,
                    "vocab": ["<s>", "</s>", "<unk>", "a", "c\ud800"]}
            path.write_text(json.dumps(spec))
        else:  # more documents than --max-docs, so the id seeds a selection
            path.write_text(json.dumps({"id": "k\ud800", "documents": ["a"] * 6}) + "\n")
        flags[flags.index(f"--{bad}") + 1] = str(path)
        out = tmp / "run"
        assert main(["decode", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "unpaired surrogate" in err
        assert not out.exists()

    def test_cluster_failures_are_isolated(self, tmp_path, capsys):
        vocab = Vocab.from_content(["a", "b"])
        ToyModelSpec(1.0, 1.0, {}, vocab).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "good", "documents": ["a b a"]}\n'
            '{"id": "bad", "documents": ["   "]}\n'
            '{"id": "also_good", "documents": ["b b"]}\n'
        )
        out = tmp_path / "run"
        code = main([
            "decode", "--model", str(tmp_path / "model.json"),
            "--clusters", str(tmp_path / "clusters.jsonl"),
            "--max-len", "3", "--min-len", "1", "--out", str(out),
        ])
        assert code == 1
        ids = [json.loads(l)["id"] for l in (out / "summaries.jsonl").read_text().splitlines()]
        assert ids == ["good", "also_good"]
        assert "bad" in capsys.readouterr().err

    def test_a_defect_stops_the_run(self, tmp_path, monkeypatch):
        # only a ValueError or DecodeError is a fault of the cluster; anything else
        # is a fault of dyne and must not read as "cluster good: AttributeError"
        ToyModelSpec(1.0, 1.0, {}, Vocab.from_content(["a", "b"])).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text('{"id": "good", "documents": ["a b a"]}\n')

        def broken(*args, **kwargs):
            raise AttributeError("a defect")

        monkeypatch.setattr(dyne.cli, "beam_search", broken)
        with pytest.raises(AttributeError, match="a defect"):
            main(["decode", "--model", str(tmp_path / "model.json"),
                  "--clusters", str(tmp_path / "clusters.jsonl"), "--out", str(tmp_path / "run")])


class TestEvaluate:
    def test_perfect_hypotheses_score_one(self, workspace, capsys):
        tmp, flags, corpus = workspace
        hyp = tmp / "hyp.jsonl"
        hyp.write_text(
            "".join(
                json.dumps({"id": c.id, "text": c.references[0]}) + "\n"
                for c in corpus.clusters
            )
        )
        report_path = tmp / "report.json"
        code = main([
            "evaluate", "--hypotheses", str(hyp),
            "--clusters", flags[flags.index("--clusters") + 1],
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        for metric in ("rouge-1", "rouge-2", "rouge-l"):
            assert report["mean"][metric]["f"] == 1.0
        assert len(report["per_cluster"]) == len(corpus.clusters)

    def test_empty_hypotheses_score_zero(self, workspace, tmp_path):
        tmp, flags, corpus = workspace
        hyp = tmp / "hyp.jsonl"
        hyp.write_text(
            "".join(
                json.dumps({"id": c.id, "text": ""}) + "\n" for c in corpus.clusters
            )
        )
        report_path = tmp / "report.json"
        assert main([
            "evaluate", "--hypotheses", str(hyp),
            "--clusters", flags[flags.index("--clusters") + 1],
            "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["mean"]["rouge-1"]["f"] == 0.0

    def test_two_cluster_mean(self, tmp_path):
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "c1", "documents": ["x"], "references": ["the cat"]}\n'
            '{"id": "c2", "documents": ["x"], "references": ["the cat"]}\n'
        )
        (tmp_path / "hyp.jsonl").write_text(
            '{"id": "c1", "text": "the cat"}\n{"id": "c2", "text": "dog"}\n'
        )
        report_path = tmp_path / "report.json"
        assert main([
            "evaluate", "--hypotheses", str(tmp_path / "hyp.jsonl"),
            "--clusters", str(tmp_path / "clusters.jsonl"),
            "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["mean"]["rouge-1"]["f"] == pytest.approx(0.5)

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("flag, value", [
        ("--beta", "inf"), ("--metrics", "bleu"), ("--metrics", "rouge-0"),
        pytest.param("--metrics", "rouge-1 rouge-1", id="--metrics-repeated"),
    ])
    def test_bad_rouge_flag_rejected_before_loading(self, tmp_path, capsys, command, flag, value):
        missing, target = str(tmp_path / "missing.json"), tmp_path / "out"
        files = (["--hypotheses", missing, "--report", str(target)] if command == "evaluate"
                 else ["--model", missing, "--sizes", "1", "--out", str(target)])
        assert main([command, *files, "--clusters", missing, flag, *value.split()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:] in err  # not the missing file
        assert not target.exists()

    @pytest.mark.parametrize("record", ['{"id": "c", "text": 5}', '{"id": 5, "text": "x"}'],
                             ids=["number-text", "number-id"])
    def test_non_string_hypothesis_fields_rejected(self, tmp_path, capsys, record):
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "c", "documents": ["x"], "references": ["x"]}\n'
        )
        (tmp_path / "hyp.jsonl").write_text(record + "\n")
        code = main([
            "evaluate", "--hypotheses", str(tmp_path / "hyp.jsonl"),
            "--clusters", str(tmp_path / "clusters.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 1" in err

    def test_repeated_hypothesis_id_rejected(self, tmp_path, capsys):
        # scoring the repeat would weight its cluster twice in the mean
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "c1", "documents": ["x"], "references": ["the cat"]}\n'
            '{"id": "c2", "documents": ["x"], "references": ["the cat"]}\n'
        )
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"id": "c1", "text": "the cat"}\n{"id": "c2", "text": "dog"}\n\n'
                       '{"id": "c1", "text": "the cat"}\n')
        report = tmp_path / "report.json"
        assert main(["evaluate", "--hypotheses", str(hyp), "--clusters",
                     str(tmp_path / "clusters.jsonl"), "--report", str(report)]) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            f"error: {hyp}: line 4: duplicate hypothesis id 'c1' (first seen on line 1)")
        assert not report.exists()

    def test_unnamed_cluster_references_never_tokenized(self, tmp_path, capsys):
        # c2's only reference is empty after punctuation stripping; scoring
        # c1 alone must not touch it, while naming c2 is an error.
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "c1", "documents": ["x"], "references": ["the cat"]}\n'
            '{"id": "c2", "documents": ["x"], "references": ["!!!"]}\n'
        )
        args = ["evaluate", "--clusters", str(tmp_path / "clusters.jsonl"),
                "--hypotheses", str(tmp_path / "hyp.jsonl")]
        (tmp_path / "hyp.jsonl").write_text('{"id": "c1", "text": "the cat"}\n')
        assert main(args) == 0
        (tmp_path / "hyp.jsonl").write_text('{"id": "c2", "text": "the cat"}\n')
        assert main(args) == 2
        assert "reference 0 is empty after tokenization" in capsys.readouterr().err

    def test_unknown_id_lists_missing(self, workspace, capsys):
        tmp, flags, _ = workspace
        hyp = tmp / "hyp.jsonl"
        hyp.write_text('{"id": "ghost", "text": "hello"}\n')
        code = main([
            "evaluate", "--hypotheses", str(hyp),
            "--clusters", flags[flags.index("--clusters") + 1],
        ])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_cluster_without_references_rejected(self, tmp_path, capsys):
        (tmp_path / "clusters.jsonl").write_text('{"id": "c", "documents": ["x"]}\n')
        (tmp_path / "hyp.jsonl").write_text('{"id": "c", "text": "x"}\n')
        code = main([
            "evaluate", "--hypotheses", str(tmp_path / "hyp.jsonl"),
            "--clusters", str(tmp_path / "clusters.jsonl"),
        ])
        assert code == 2
        assert "without references" in capsys.readouterr().err


class TestSweep:
    def test_single_size_matches_decode_plus_evaluate(self, workspace):
        tmp, flags, _ = workspace
        sweep_out = tmp / "sweep"
        assert main(["sweep", *flags, "--sizes", "1", "--out", str(sweep_out)]) == 0
        decode_out = tmp / "plain"
        assert main(["decode", *flags, "--max-docs", "1", "--out", str(decode_out)]) == 0
        assert (sweep_out / "size_1" / "summaries.jsonl").read_bytes() == (
            decode_out / "summaries.jsonl"
        ).read_bytes()
        header, row = (sweep_out / "sweep.csv").read_text().splitlines()
        assert header.startswith("size,rouge-1_precision")
        assert row.startswith("1,")

    def test_quality_improves_with_ensemble_size(self, workspace):
        tmp, flags, _ = workspace
        out = tmp / "sweep"
        assert main(["sweep", *flags, "--sizes", "1", "2", "5", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        f_column = [float(r.split(",")[3]) for r in rows]
        assert f_column == sorted(f_column)

    def test_run_config_records_sizes_not_max_docs(self, workspace):
        tmp, flags, _ = workspace
        out = tmp / "sweep"
        assert main(["sweep", *flags, "--sizes", "1", "2", "--out", str(out)]) == 0
        record = json.loads((out / "run_config.json").read_text())
        assert record["sizes"] == [1, 2]
        assert "max_docs" not in record

    def test_size_reports_equal_evaluate_reports(self, workspace):
        tmp, flags, _ = workspace
        out = tmp / "sweep"
        rouge_flags = ["--rouge-stemming", "--metrics", "rouge-2", "rouge-l", "rouge-1"]
        assert main(["sweep", *flags, *rouge_flags, "--sizes", "1", "2", "5",
                     "--out", str(out)]) == 0
        for size in (1, 2, 5):
            report = tmp / f"evaluate_{size}.json"
            assert main([
                "evaluate", "--hypotheses", str(out / f"size_{size}" / "summaries.jsonl"),
                "--clusters", flags[flags.index("--clusters") + 1], *rouge_flags,
                "--report", str(report),
            ]) == 0
            assert (out / f"size_{size}" / "report.json").read_bytes() == report.read_bytes()

    def test_references_checked_before_the_first_decode(self, workspace, capsys):
        tmp, flags, _ = workspace
        path = Path(flags[flags.index("--clusters") + 1])
        lines = path.read_text().splitlines()
        third = json.loads(lines[2])
        third["references"] = ["!!! ..."]
        lines[2] = json.dumps(third)
        path.write_text("\n".join(lines) + "\n")
        out = tmp / "sweep"
        assert main(["sweep", *flags, "--sizes", "1", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cluster {third['id']}: reference 0 is empty after tokenization\n")
        assert not out.exists()

    def test_each_text_tokenized_once_per_command(self, tmp_path, monkeypatch):
        corpus = build_consensus_corpus(n_clusters=1, seed=3)
        (cluster,) = corpus.clusters
        assert len(cluster.references) == 1
        save_clusters(corpus.clusters, tmp_path / "clusters.jsonl")
        corpus.model_spec.save(tmp_path / "model.json")
        texts = []
        original = rouge.tokenize

        def counting(text, cfg=rouge.DEFAULT_CONFIG):
            texts.append(text)
            return original(text, cfg)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dyne" and getattr(module, "tokenize", None) is original:
                monkeypatch.setattr(module, "tokenize", counting)
        assert main([
            "sweep", "--model", str(tmp_path / "model.json"),
            "--clusters", str(tmp_path / "clusters.jsonl"), "--rouge-stemming",
            "--sizes", "1", "2", "5", "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert len(texts) == 4  # three summaries, one reference set
        assert texts.count(cluster.references[0]) == 1

    def test_duplicate_document_clusters_are_size_invariant(self, tmp_path):
        vocab = Vocab.from_content(["a", "b", "c"])
        ToyModelSpec(1.0, 1.0, {}, vocab).save(tmp_path / "model.json")
        doc = "a b c a"
        (tmp_path / "clusters.jsonl").write_text(
            json.dumps({"id": "c", "documents": [doc] * 6, "references": ["a b"]}) + "\n"
        )
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--model", str(tmp_path / "model.json"),
            "--clusters", str(tmp_path / "clusters.jsonl"),
            "--sizes", "1", "3", "5", "--max-len", "3", "--min-len", "1",
            "--out", str(out),
        ]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len({r.split(",", 1)[1] for r in rows}) == 1


    def test_cluster_errors_printed_before_evaluation_fails(self, tmp_path, capsys):
        vocab = Vocab.from_content(["a", "b"])
        ToyModelSpec(1.0, 1.0, {}, vocab).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "blank", "documents": ["   "], "references": ["a b"]}\n'
        )
        code = main([
            "sweep", "--model", str(tmp_path / "model.json"),
            "--clusters", str(tmp_path / "clusters.jsonl"),
            "--sizes", "1", "2", "--max-len", "3", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "cluster blank: ValueError: document 0 tokenizes to nothing" in err
        assert err.index("cluster blank") < err.index("error:")

    def test_size_where_no_cluster_decodes_is_named(self, tmp_path, capsys):
        vocab = Vocab.from_content(["a", "b"])
        ToyModelSpec(1.0, 1.0, {}, vocab).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "blank", "documents": ["   ", " "], "references": ["a b"]}\n'
            '{"id": "empty", "documents": [""], "references": ["a"]}\n'
        )
        code = main([
            "sweep", "--model", str(tmp_path / "model.json"),
            "--clusters", str(tmp_path / "clusters.jsonl"),
            "--sizes", "1", "--max-len", "3", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error:")]
        assert errors == ["error: no cluster decoded at size 1 (2 failed)"]

    # seed 2 picks the blank document at size 1; seed 0 picks "a b" at size 1,
    # so size 1 writes its artifacts before size 2 fails
    @pytest.mark.parametrize("seed, size", [(2, 1), (0, 2)])
    @pytest.mark.parametrize("made", [False, True])
    def test_size_where_no_cluster_decodes_leaves_out_as_it_was(self, tmp_path, capsys,
                                                                 seed, size, made):
        vocab = Vocab.from_content(["a", "b"])
        ToyModelSpec(1.0, 1.0, {}, vocab).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "c", "documents": ["a b", "  "], "references": ["a b"]}\n'
        )
        out = tmp_path / "sweep"
        if made:
            out.mkdir()
        code = main([
            "sweep", "--model", str(tmp_path / "model.json"),
            "--clusters", str(tmp_path / "clusters.jsonl"), "--seed", str(seed),
            "--sizes", "1", "2", "--max-len", "3", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: no cluster decoded at size {size} (1 failed)"
        assert "document 1 tokenizes to nothing" in err
        assert (list(out.iterdir()) == [] if made else not out.exists())


    @pytest.mark.parametrize("sizes", ["1 1", "2 1 2"])
    def test_repeated_size_rejected_before_decoding(self, workspace, capsys, sizes):
        tmp, flags, _ = workspace
        out = tmp / "x"
        assert main(["sweep", *flags, "--sizes", *sizes.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"error: sizes must not repeat a value, got {sizes[0]} twice"
        assert not out.exists()


class TestTrace:
    def test_stdout_trace_parses(self, workspace, capsys):
        tmp, flags, corpus = workspace
        cid = corpus.clusters.clusters[0].id
        assert main(["trace", *flags, "--cluster-id", cid]) == 0
        out = capsys.readouterr().out
        csv_part = out[: out.index("decoded:")]
        header, *rows = csv.reader(io.StringIO(csv_part))
        assert header[:3] == ["timestep", "token", "combined"] and len(header) > 3
        assert rows and all(len(row) == len(header) for row in rows)
        assert rows[-1][1] == "</s>"
        assert "raw score:" in out

    def test_trace_to_file(self, workspace):
        tmp, flags, corpus = workspace
        cid = corpus.clusters.clusters[0].id
        target = tmp / "trace.json"
        assert main(["trace", *flags, "--cluster-id", cid,
                     "--trace-format", "json", "--output", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["rows"] and doc["rows"][-1]["token"] == "</s>"
        assert all(len(row["scores"]) == len(doc["input_labels"]) for row in doc["rows"])

    def test_unknown_cluster_id(self, workspace, capsys):
        tmp, flags, _ = workspace
        assert main(["trace", *flags, "--cluster-id", "ghost"]) == 2
        assert capsys.readouterr().err == "error: no cluster with id 'ghost'\n"

    def test_impossible_constraints_are_an_error_line(self, tmp_path, capsys):
        # "a" is blocked after one use and EOS stays masked until two tokens.
        vocab = Vocab.from_content(["a"])
        ToyModelSpec(1.0, 1.0, {}, vocab).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text('{"id": "c", "documents": ["a a"]}\n')
        code = main([
            "trace", "--model", str(tmp_path / "model.json"),
            "--clusters", str(tmp_path / "clusters.jsonl"), "--cluster-id", "c",
            "--min-len", "2", "--max-len", "4", "--block-repeat-ngram", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "min_len" in err


class TestBeamMemoryBound:
    @pytest.mark.parametrize("command", ["decode", "sweep", "trace"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_beam_too_wide_rejected_before_decoding(self, workspace, capsys, monkeypatch,
                                                    command, given):
        tmp, flags, corpus = workspace
        i = flags.index("--beam-size")
        flags = flags[:i] + flags[i + 2:]
        if given == "flag":
            flags += ["--beam-size", "1000000"]
        else:
            (tmp / "config.json").write_text(json.dumps({"beam_size": 2**63}))
            flags += ["--config", str(tmp / "config.json")]
        extra = {"decode": [], "sweep": ["--sizes", "1", "5"],
                 "trace": ["--cluster-id", corpus.clusters.clusters[0].id]}[command]
        monkeypatch.setattr("dyne.cli.beam_search", lambda *a, **k: pytest.fail("decoded"))
        out = tmp / "x"
        assert main([command, *flags, *extra, *(["--out", str(out)] * (command != "trace"))]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: beam_size ")
        assert not out.exists()

    def test_trace_bounds_the_beam_by_the_cluster_it_traces(self, tmp_path, capsys,
                                                             monkeypatch):
        vocab = Vocab.from_content(["a"])
        ToyModelSpec(1.0, 1.0, {}, vocab).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text('{"id": "one", "documents": ["a"]}\n'
                                                  '{"id": "two", "documents": ["a", "a a"]}\n')
        # the limit is what the step arrays of one input need, as the check counts them
        monkeypatch.setattr(dyne.decoder, "STEP_BYTES_LIMIT", 0)
        with pytest.raises(ValueError) as info:
            dyne.decoder.check_beam_memory(DecodeParams(beam_size=2, max_len=4), len(vocab), 1)
        need = int(re.search(r"about ([\d,]+) bytes", str(info.value))[1].replace(",", ""))
        monkeypatch.setattr(dyne.decoder, "STEP_BYTES_LIMIT", need)
        flags = ["--model", str(tmp_path / "model.json"), "--clusters",
                 str(tmp_path / "clusters.jsonl"), "--beam-size", "2", "--max-len", "4",
                 "--max-docs", "2"]
        # "two" holds the file's largest ensemble, but "one" is the cluster traced
        assert main(["trace", *flags, "--cluster-id", "one"]) == 0
        assert main(["trace", *flags, "--cluster-id", "two"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: beam_size 2 ") and "for 2 input(s)" in err

    def test_benchmark_sized_beam_decodes(self, workspace):
        tmp, flags, _ = workspace
        assert main(["decode", *flags, "--beam-size", "64", "--out", str(tmp / "x")]) == 0


class TestOutputFiles:
    """Every output file goes through one writer: a new file replaces the old
    one in one step, and a file gets the mode the umask gives new files."""

    SAVES = {
        "model_spec": lambda path: ToyModelSpec(1.0, 1.0, {}, Vocab.from_content(["a"])).save(path),
        "clusters": lambda path: save_clusters(ClusterSet((Cluster("c", ("a",)),)), path),
    }

    @pytest.mark.parametrize("save", SAVES)
    def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path, monkeypatch,
                                                                      save):
        path = tmp_path / "saved"
        path.write_bytes(b"old bytes")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            self.SAVES[save](path)
        monkeypatch.undo()
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["saved"]
        self.SAVES[save](path)  # and with a working replace, the save lands
        assert path.read_bytes() != b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["saved"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_every_artifact_takes_the_umask_mode(self, workspace, umask, mode, capsys):
        tmp, flags, corpus = workspace
        cid = corpus.clusters.clusters[0].id
        old = os.umask(umask)
        try:
            assert main(["decode", *flags, "--out", str(tmp / "decode")]) == 0
            assert main(["sweep", *flags, "--sizes", "1", "2", "--out", str(tmp / "sweep")]) == 0
            assert main(["evaluate", "--hypotheses", str(tmp / "decode" / "summaries.jsonl"),
                         "--clusters", flags[flags.index("--clusters") + 1],
                         "--report", str(tmp / "report.json")]) == 0
            assert main(["trace", *flags, "--cluster-id", cid,
                         "--output", str(tmp / "trace.csv")]) == 0
        finally:
            os.umask(old)
        written = [p for d in ("decode", "sweep") for p in (tmp / d).rglob("*") if p.is_file()]
        written += [tmp / "report.json", tmp / "trace.csv"]
        n = len(corpus.clusters)  # per size: a trace per cluster, summaries, a report
        assert len(written) == (n + 2) + (2 * (n + 2) + 2) + 2
        modes = {str(p.relative_to(tmp)): oct(stat.S_IMODE(p.stat().st_mode)) for p in written}
        assert modes == dict.fromkeys(modes, oct(mode))


class FailingWrites:
    """``dyne.cli.write_output`` that records each path written and raises
    ``fault`` on call number ``fail_at`` (never, when it is None)."""

    def __init__(self, monkeypatch, fault=OSError):
        self.paths, self.fail_at, self.fault = [], None, fault
        self.write = dyne.cli.write_output
        monkeypatch.setattr(dyne.cli, "write_output", self)

    def __call__(self, path, text):
        self.paths.append(Path(path))
        if len(self.paths) == self.fail_at:
            raise self.fault(f"write {self.fail_at} refused")
        self.write(path, text)


class TestFailedRun:
    """Exit 2, an interrupt or a defect after the first write leaves ``--out``
    as it was: absent, or an empty directory. Exit 1 keeps every artifact."""

    SIZES = {"decode": [], "sweep": ["--sizes", "1", "2"]}

    def three_cluster_argv(self, workspace, command) -> list[str]:
        tmp, flags, corpus = workspace
        save_clusters(ClusterSet(corpus.clusters.clusters[:3]), tmp / "three.jsonl")
        flags = list(flags)
        flags[flags.index("--clusters") + 1] = str(tmp / "three.jsonl")
        return [command, *flags, *self.SIZES[command]]

    @staticmethod
    def fresh_out(tmp: Path, name: str, made: bool) -> Path:
        out = tmp / name
        if made:
            out.mkdir()
        return out

    @staticmethod
    def as_it_was(out: Path, made: bool) -> bool:
        return list(out.iterdir()) == [] if made else not out.exists()

    @pytest.mark.parametrize("made", [False, True], ids=["absent", "empty"])
    @pytest.mark.parametrize("command", ["decode", "sweep"])
    def test_every_failed_write_leaves_out_as_it_was(self, workspace, monkeypatch, capsys,
                                                     command, made):
        tmp = workspace[0]
        argv = self.three_cluster_argv(workspace, command)
        writes = FailingWrites(monkeypatch)
        assert main([*argv, "--out", str(tmp / "whole")]) == 0
        # decode: 3 traces, summaries; sweep, per size: 3 traces, summaries, a report,
        # then sweep.csv; and last, run_config.json
        assert len(writes.paths) == {"decode": 5, "sweep": 12}[command]
        assert writes.paths[-1] == tmp / "whole" / "run_config.json"
        for k in range(1, len(writes.paths) + 1):
            out = self.fresh_out(tmp, f"out_{k}", made)
            writes.paths, writes.fail_at = [], k
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: write {k} refused\n"
            assert self.as_it_was(out, made), k
            assert list(tmp.glob(".*.tmp")) == []

    @pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
    @pytest.mark.parametrize("command", ["decode", "sweep"])
    def test_a_failed_run_removes_the_empty_parents_it_made(self, workspace, monkeypatch,
                                                            capsys, command, shared):
        parent = workspace[0] / "pd"
        parent.mkdir()
        writes = FailingWrites(monkeypatch)
        writes.fail_at = 2

        def share_then_fail(path, text):
            # another run, or the user, writes in a parent this run made
            if shared and len(writes.paths) == 1:
                (parent / "a" / "keep").write_text("not this run's")
            writes(path, text)

        monkeypatch.setattr(dyne.cli, "write_output", share_then_fail)
        argv = [*self.three_cluster_argv(workspace, command), "--out", str(parent / "a/b/run")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: write 2 refused\n"
        assert sorted(parent.rglob("*")) == ([parent / "a", parent / "a" / "keep"]
                                             if shared else [])

    @pytest.mark.parametrize("made", [False, True], ids=["absent", "empty"])
    @pytest.mark.parametrize("command", ["decode", "sweep"])
    def test_an_interrupt_leaves_out_as_it_was(self, workspace, monkeypatch, command, made):
        tmp = workspace[0]
        out = self.fresh_out(tmp, "out", made)
        search, calls = dyne.cli.beam_search, []

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                assert read_tree(out)  # the first cluster's trace is written
                raise KeyboardInterrupt
            return search(*args, **kwargs)

        monkeypatch.setattr(dyne.cli, "beam_search", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main([*self.three_cluster_argv(workspace, command), "--out", str(out)])
        assert self.as_it_was(out, made)

    @pytest.mark.parametrize("fault", [OSError, KeyboardInterrupt])
    def test_a_clean_up_fault_never_hides_the_run_s_exception(self, workspace, monkeypatch,
                                                              capsys, fault):
        refused = []

        def refuse(path, *args, **kwargs):
            refused.append(path)
            raise OSError("rmtree refused")

        FailingWrites(monkeypatch, fault).fail_at = 2
        monkeypatch.setattr(shutil, "rmtree", refuse)
        out = workspace[0] / "out"
        argv = [*self.three_cluster_argv(workspace, "decode"), "--out", str(out)]
        if fault is OSError:
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: write 2 refused\n"
        else:
            with pytest.raises(KeyboardInterrupt, match="write 2 refused"):
                main(argv)
        assert refused == [out]

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    def test_some_failed_clusters_keep_every_artifact(self, tmp_path, capsys, command):
        ToyModelSpec(1.0, 1.0, {}, Vocab.from_content(["a", "b"])).save(tmp_path / "model.json")
        (tmp_path / "clusters.jsonl").write_text(
            '{"id": "good", "documents": ["a b a"], "references": ["a b"]}\n'
            '{"id": "bad", "documents": ["   "], "references": ["a"]}\n'
            '{"id": "also_good", "documents": ["b b"], "references": ["b"]}\n'
        )
        out = tmp_path / "run"
        assert main([command, "--model", str(tmp_path / "model.json"),
                     "--clusters", str(tmp_path / "clusters.jsonl"), "--max-len", "3",
                     *self.SIZES[command], "--out", str(out)]) == 1
        run = ["summaries.jsonl", "traces/0000_good.csv", "traces/0002_also_good.csv"]
        if command == "sweep":
            run = ["sweep.csv", *(f"size_{k}/{name}" for k in (1, 2)
                                  for name in ["report.json", *run])]
        assert sorted(read_tree(out)) == sorted(["run_config.json", *run])


class TestRunConfig:
    """``run_config.json`` records every setting of the command under its
    config key, so ``--config run_config.json`` replays the run."""

    def test_decode_record_keeps_its_keys_values_and_bytes(self, workspace):
        tmp, flags, _ = workspace
        out = tmp / "run"
        assert main(["decode", *flags, "--out", str(out)]) == 0
        expected = {
            "beam_size": 4, "block_repeat_ngram": 1, "clusters": str(tmp / "clusters.jsonl"),
            "length_penalty": 0.0, "max_docs": 5, "max_input_tokens": 512, "max_len": 5,
            "min_len": 4, "model": str(tmp / "model.json"), "reduce": "mean_logprob",
            "seed": 3, "trace_format": "csv",
        }
        text = (out / "run_config.json").read_text()
        assert json.loads(text) == expected
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("command, extra", [
        ("decode", ["--max-docs", "2", "--reduce", "mean_prob", "--length-penalty", "0.5"]),
        ("sweep", ["--sizes", "1", "2", "5", "--rouge-stemming", "--metrics", "rouge-2",
                   "rouge-l", "--beta", "2", "--multi-ref", "average", "--reduce", "mean_prob",
                   "--trace-format", "json"]),
    ])
    def test_run_config_replays_the_run(self, workspace, command, extra):
        tmp, flags, _ = workspace
        out, replay = tmp / "run", tmp / "replay"
        assert main([command, *flags, *extra, "--out", str(out)]) == 0
        assert main([command, "--config", str(out / "run_config.json"),
                     "--out", str(replay)]) == 0
        assert read_tree(replay) == read_tree(out)

    def test_sweep_writes_one_record_with_its_rouge_settings(self, workspace):
        tmp, flags, _ = workspace
        out = tmp / "sweep"
        assert main(["sweep", *flags, "--sizes", "1", "2", "--out", str(out)]) == 0
        assert [p.relative_to(out) for p in out.rglob("run_config.json")] == [
            Path("run_config.json")]
        record = json.loads((out / "run_config.json").read_text())
        assert record["sizes"] == [1, 2] and "max_docs" not in record
        assert {k: record[k] for k in ("metrics", "rouge_lowercase", "rouge_strip_punctuation",
                                       "rouge_stemming", "multi_ref", "beta")} == {
            "metrics": ["rouge-1", "rouge-2", "rouge-l"], "rouge_lowercase": True,
            "rouge_strip_punctuation": True, "rouge_stemming": False, "multi_ref": "max",
            "beta": 1.0,
        }

    def test_sweep_has_no_max_docs(self, workspace, capsys):
        tmp, flags, _ = workspace
        out = tmp / "sweep"
        with pytest.raises(SystemExit) as info:
            main(["sweep", *flags, "--sizes", "1", "--max-docs", "1", "--out", str(out)])
        assert info.value.code == 2
        config = tmp / "config.json"
        config.write_text('{"max_docs": 1}')
        capsys.readouterr()
        assert main(["sweep", "--config", str(config), *flags, "--sizes", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_docs" in err
        assert not out.exists()


@dataclasses.dataclass(frozen=True)
class OtherDecodeDefaults(DecodeParams):
    """`DecodeParams` with every default changed, so a flag whose default is a literal
    shows."""

    beam_size: int = 3
    max_len: int = 9
    min_len: int = 2
    reduce: Reduce = Reduce.MEAN_PROB
    length_penalty_alpha: float = 0.5
    block_repeat_ngram: int | None = 2
    seed: int = 7


@pytest.mark.parametrize("command", ["decode", "sweep", "trace"])
@pytest.mark.parametrize("params", [DecodeParams, OtherDecodeDefaults])
def test_each_decode_flag_defaults_to_the_field_it_sets(monkeypatch, command, params):
    monkeypatch.setattr(dyne.cli, "DecodeParams", params)
    defaults = {a.dest: a.default for a in dyne.cli.build_parser()[1][command]._actions}
    expected = dataclasses.asdict(params())
    expected["length_penalty"] = expected.pop("length_penalty_alpha")
    expected["reduce"] = expected["reduce"].value
    assert {key: defaults[key] for key in expected} == expected


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, workspace):
        tmp, flags, corpus = workspace
        p = corpus.decode_params
        config = {
            "model": flags[flags.index("--model") + 1],
            "clusters": flags[flags.index("--clusters") + 1],
            "beam_size": p.beam_size,
            "max_len": p.max_len,
            "min_len": p.min_len,
            "block_repeat_ngram": p.block_repeat_ngram,
            "seed": 999,
        }
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config))
        out_a = tmp / "via_config"
        assert main(["decode", "--config", str(config_path), "--seed", str(p.seed),
                     "--out", str(out_a)]) == 0
        out_b = tmp / "via_flags"
        assert main(["decode", *flags, "--out", str(out_b)]) == 0
        assert read_tree(out_a) == read_tree(out_b)

    def test_unknown_config_key_rejected(self, workspace, capsys):
        tmp, flags, _ = workspace
        config_path = tmp / "config.json"
        config_path.write_text('{"beam_width": 3}')
        code = main(["decode", "--config", str(config_path), *flags,
                     "--out", str(tmp / "x")])
        assert code == 2
        assert "beam_width" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("trace_format", "xml"),
        ("reduce", "median"),
        ("beam_size", 2.5),
        ("beam_size", True),
        ("max_docs", "5"),
        ("length_penalty", "0.5"),
        ("sizes", 3),
        ("rouge_stemming", "yes"),
        ("model", 7),
        ("max_docs", 0),
        ("max_input_tokens", 0),
        pytest.param("metrics", ["bleu"], id="metrics-bleu"),
        pytest.param("metrics", ["rouge-0"], id="metrics-rouge-0"),
        pytest.param("metrics", ["rouge-1", "rouge-1"], id="metrics-repeated"),
        ("beta", math.inf),
        pytest.param("sizes", [1, 1], id="sizes-repeated"),
        pytest.param("beta", 10**400, id="beta-int-past-float"),
        pytest.param("length_penalty", 10**400, id="length_penalty-int-past-float"),
        pytest.param("length_penalty", 1e308, id="length_penalty-overflows"),
    ])
    def test_invalid_config_value_rejected_before_decoding(self, workspace, capsys, key, value):
        tmp, flags, _ = workspace
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps({key: value}))
        out = tmp / "x"
        command = "sweep" if key in ("sizes", "rouge_stemming", "metrics", "beta") else "decode"
        extra = ["--sizes", "1"] if command == "sweep" and key != "sizes" else []
        code = main([command, "--config", str(config_path), *flags, *extra, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("decode", "--max-docs"), ("decode", "--max-input-tokens"), ("sweep", "--max-input-tokens"),
    ])
    def test_run_size_below_one_rejected_before_decoding(self, workspace, capsys, command, flag):
        tmp, flags, _ = workspace
        out = tmp / "x"
        extra = ["--sizes", "1"] if command == "sweep" else []
        assert main([command, *flags, *extra, flag, "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:].replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["model", "clusters", "config", "hypotheses"])
    def test_file_that_is_not_utf8_is_named(self, workspace, capsys, bad):
        tmp, flags, corpus = workspace
        paths = {
            "model": flags[flags.index("--model") + 1],
            "clusters": flags[flags.index("--clusters") + 1],
            "config": str(tmp / "config.json"),
            "hypotheses": str(tmp / "hyp.jsonl"),
        }
        Path(paths["config"]).write_text("{}")
        cid = corpus.clusters.clusters[0].id
        Path(paths["hypotheses"]).write_text(json.dumps({"id": cid, "text": "x"}) + "\n")
        Path(paths[bad]).write_bytes(b'{"id": "\xff"}\n')
        if bad == "hypotheses":
            command = ["evaluate", "--hypotheses", paths["hypotheses"]]
        else:
            command = ["decode", "--model", paths["model"], "--out", str(tmp / "x")]
        assert main([*command, "--clusters", paths["clusters"], "--config", paths["config"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and paths[bad] in err and "utf-8" in err
        assert not (tmp / "x").exists()

    @pytest.mark.parametrize("command, given, missing", [
        ("decode", ["--out"], "--model, --clusters"),
        ("evaluate", ["--report"], "--hypotheses, --clusters"),
        ("sweep", ["--sizes", "1", "--out"], "--model, --clusters"),
        ("trace", ["--output"], "--model, --clusters, --cluster-id"),
    ])
    def test_missing_required_flag_rejected(self, tmp_path, capsys, command, given, missing):
        assert main([command, *given, str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: missing required argument(s) for {command}: {missing} ")
        assert list(tmp_path.iterdir()) == []

    def test_max_input_tokens_past_the_int64_range_decodes(self, workspace):
        # 2**63, as a flag or in --config, raised OverflowError from str.split
        tmp, flags, _ = workspace
        runs = {}
        for n in (2**63 - 1, 2**63):
            config = tmp / f"config_{n}.json"
            config.write_text(json.dumps({"max_input_tokens": n}))
            for via, extra in (("flag", ["--max-input-tokens", str(n)]),
                               ("config", ["--config", str(config)])):
                out = tmp / f"{via}_{n}"
                assert main(["decode", *flags, *extra, "--out", str(out)]) == 0
                runs[via, n] = read_tree(out)
                recorded = json.loads(runs[via, n].pop("run_config.json"))
                assert recorded["max_input_tokens"] == n
        assert all(tree == runs["flag", 2**63 - 1] for tree in runs.values())

    def test_config_accepts_what_flags_accept(self, workspace):
        tmp, flags, _ = workspace
        config = {"length_penalty": 1, "block_repeat_ngram": None, "reduce": "mean_prob",
                  "sizes": [1, 2], "metrics": ["rouge-1"], "rouge_stemming": False}
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(config_path), *flags,
                     "--out", str(tmp / "sweep")]) == 0


# One malformed file per case, keyed by (kind, fault). Every input file
# fails at startup with an error line that begins with that file's path.
_FAULTY_INPUTS = {
    ("clusters", "invalid-json"): '{"id": "c", \n',
    ("clusters", "not-an-object"): '["c", ["a"]]\n',
    ("clusters", "unknown-field"): '{"id": "c", "documents": ["a"], "extra": 1}\n',
    ("clusters", "missing-field"): '{"id": "c"}\n',
    ("model", "invalid-json"): '{"lambda": 1.0,',
    ("model", "not-an-object"): "[1.0, 1.0]",
    ("model", "unknown-field"): json.dumps({"lambda": 1.0, "smooth_k": 1.0, "extra": 1,
                                            "vocab": ["<s>", "</s>", "<unk>", "a"],
                                            "bigram_counts": NO_COUNTS}),
    ("model", "missing-field"): '{"lambda": 1.0}',
    ("config", "invalid-json"): '{"beam_size": ',
    ("config", "not-an-object"): "[4]",
    ("config", "unknown-field"): '{"beam_width": 4}',
    ("hypotheses", "invalid-json"): '{"id": \n',
    ("hypotheses", "not-an-object"): '"summary"\n',
    ("hypotheses", "missing-field"): '{"id": "c"}\n',
    ("hypotheses", "no-records"): "\n",
}


def _reading(kind: str, path: Path, flags: list[str], out: Path) -> list[str]:
    """The command that reads ``path`` as its ``kind`` of input file, writing ``out``."""
    if kind == "hypotheses":
        clusters = flags[flags.index("--clusters") + 1]
        return ["evaluate", "--hypotheses", str(path), "--clusters", clusters,
                "--report", str(out)]
    if kind == "config":
        return ["decode", "--config", str(path), *flags, "--out", str(out)]
    flags = list(flags)
    flags[flags.index(f"--{kind}") + 1] = str(path)
    return ["decode", *flags, "--out", str(out)]


# where each reader's file puts a value: a record's field, or a document's
_VALUE_SLOTS = {"clusters": '{"id": "c", "documents": %s}\n', "model": '{"lambda": %s}',
                "config": '{"beam_size": %s}', "hypotheses": '{"id": "c", "text": %s}\n'}


class TestInputFaults:
    @pytest.mark.parametrize("kind, fault", list(_FAULTY_INPUTS),
                             ids=[f"{k}-{f}" for k, f in _FAULTY_INPUTS])
    def test_fault_names_the_file(self, workspace, capsys, kind, fault):
        tmp, flags, corpus = workspace
        path = tmp / f"bad_{kind}"
        path.write_text(_FAULTY_INPUTS[kind, fault])
        out = tmp / "out"
        assert main(_reading(kind, path, flags, out)) == 2
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line.startswith(f"error: {path}:")
        assert not out.exists()

    @pytest.mark.parametrize("kind", list(_VALUE_SLOTS))
    @pytest.mark.parametrize("value", list(UNWRITABLE_JSON.values()),
                             ids=["nested-100000-deep", "5000-digits"])
    def test_json_past_the_parser_s_limits_is_invalid_json(self, workspace, capsys, kind,
                                                           value):
        # json.loads raises RecursionError and a plain ValueError for these,
        # not JSONDecodeError: still one line naming the file, and no traceback
        tmp, flags, _ = workspace
        path, out = tmp / f"bad_{kind}", tmp / "out"
        path.write_text(_VALUE_SLOTS[kind] % value)
        assert main(_reading(kind, path, flags, out)) == 2
        err = capsys.readouterr().err
        where = {"model": f"{path}: model spec", "config": str(path)}.get(kind, f"{path}: line 1")
        assert err.startswith(f"error: {where}: invalid JSON: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    def test_out_that_holds_files_rejected(self, workspace, capsys, command):
        # a rerun into a used --out would keep the old run's traces beside the new
        tmp, flags, _ = workspace
        flags = list(flags)
        flags[flags.index("--model") + 1] = str(tmp / "missing.json")  # never read
        argv = [command, *flags, *(["--sizes", "1"] if command == "sweep" else [])]
        used, file = tmp / "used", tmp / "file"
        (used / "traces").mkdir(parents=True)
        (used / "traces" / "0002_c.csv").write_text("old")
        file.write_text("old")
        for out in (used, file):
            assert main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: --out {out} already exists and is not an empty directory\n")
        assert read_tree(used) == {"traces/0002_c.csv": b"old"}
        assert file.read_text() == "old"

    def test_empty_out_directory_accepted(self, workspace):
        tmp, flags, _ = workspace
        out = tmp / "run"
        out.mkdir()
        assert main(["decode", *flags, "--out", str(out)]) == 0
        assert (out / "summaries.jsonl").exists()

    @pytest.mark.parametrize("field, value, fault", [
        ("vocab", "abc", "vocab tokens must be a list or tuple of str, got 'abc'"),
        ("lambda", 2.0, "copy weight must lie in [0, 1]"),
        ("bigram_counts", {"prev": ["zz"], "next": ["a"], "count": [1]},
         "bigram_counts.prev[0] names unknown token 'zz'"),
    ], ids=["vocab", "lambda", "bigram-token"])
    def test_model_spec_fault_reads_model_spec(self, workspace, capsys, field, value, fault):
        tmp, flags, _ = workspace
        spec = {"lambda": 1.0, "smooth_k": 1.0, "vocab": ["<s>", "</s>", "<unk>", "a"],
                "bigram_counts": NO_COUNTS, field: value}
        path = tmp / "bad_model"
        path.write_text(json.dumps(spec))
        flags = list(flags)
        flags[flags.index("--model") + 1] = str(path)
        out = tmp / "out"
        assert main(["decode", *flags, "--out", str(out)]) == 2
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line.startswith(f"error: {path}: model spec: {fault}")
        assert not out.exists()
