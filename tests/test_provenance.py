"""Trace matrix tests: construction, totals, exports and exact float round-trips."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyne import (
    CopyBigramModel,
    DecodeParams,
    Reduce,
    ToyModelSpec,
    TraceMatrix,
    TraceRow,
    Vocab,
    beam_search,
    sequence_score,
)
from dyne.seqmodel import BOS_ID, EOS_ID

from conftest import random_inputs, random_toy_model

AB = Vocab.from_content(["a", "b"])
A, B = 3, 4

finite_or_neginf = st.one_of(
    st.floats(min_value=-50.0, max_value=0.0, allow_nan=False),
    st.just(-math.inf),
)


def small_trace() -> TraceMatrix:
    return TraceMatrix(
        ("doc0", "doc1"),
        (TraceRow(A, "a", -1.5, (-1.0, -2.0)), TraceRow(B, "b", -3.5, (-3.0, -4.0))),
    )


def parse_csv(text: str, vocab: Vocab) -> TraceMatrix:
    """A trace rebuilt from a CSV export with the stdlib; ids through ``vocab``."""
    header, *lines = csv.reader(io.StringIO(text))
    assert header[:3] == ["timestep", "token", "combined"]
    assert [int(line[0]) for line in lines] == list(range(len(lines)))
    return TraceMatrix(tuple(header[3:]), tuple(
        TraceRow(vocab.id_of(token), token, float(combined), tuple(map(float, scores)))
        for _, token, combined, *scores in lines
    ))


def parse_json(text: str) -> TraceMatrix:
    """A trace rebuilt from a JSON export with the stdlib."""
    doc = json.loads(text)
    assert [row["timestep"] for row in doc["rows"]] == list(range(len(doc["rows"])))
    return TraceMatrix(tuple(doc["input_labels"]), tuple(
        TraceRow(row["token_id"], row["token"], row["combined"], tuple(row["scores"]))
        for row in doc["rows"]
    ))


def exact(trace: TraceMatrix) -> tuple:
    """Every cell of ``trace``, floats as ``float.hex`` so -0.0 differs from 0.0."""
    return trace.input_labels, [
        (row.token_id, row.token, row.combined.hex(), [x.hex() for x in row.per_input])
        for row in trace.rows
    ]


class TestConstruction:
    @pytest.mark.parametrize("widths", [(1,), (3,), (2, 1), (2, 2, 3)])
    def test_wrong_width_row_rejected(self, widths):
        rows = tuple(TraceRow(A, "a", -1.0, (-1.0,) * w) for w in widths)
        with pytest.raises(ValueError, match=f"row {len(widths) - 1} has {widths[-1]} per-input"):
            TraceMatrix(("doc0", "doc1"), rows)

    def test_trace_is_immutable(self):
        trace = small_trace()
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.rows = ()
        assert TraceMatrix(["doc0"], [TraceRow(A, "a", -1.0, (-1.0,))]).rows[0].token == "a"
        assert isinstance(TraceMatrix(["doc0"]).input_labels, tuple)

    @pytest.mark.parametrize("labels, message", [
        ("xy", "input labels must be a list or tuple of str, got 'xy'"),
        (None, "input labels must be a list or tuple of str, got None"),
        (5, "input labels must be a list or tuple of str, got 5"),
        ({"x": 0}, "input labels must be a list or tuple of str, got {'x': 0}"),
        (("x", 1), "input labels[1] must be a str, got 1"),
        ([None], "input labels[0] must be a str, got None"),
        (("x", "x"), "input labels must be distinct, got ('x', 'x')"),
    ], ids=["str", "none", "int", "dict", "int-label", "none-label", "repeated"])
    def test_labels_must_be_distinct_strings(self, labels, message):
        # "xy" built a trace with the labels ('x', 'y'), ("x", "x") one with two
        # columns named alike; None and 5 raised TypeError
        with pytest.raises(ValueError) as info:
            TraceMatrix(labels, ())
        assert str(info.value) == message
        assert TraceMatrix(["x", "y"]).input_labels == ("x", "y")

    @pytest.mark.parametrize("rows", [None, 5, "ab", TraceRow(A, "a", -1.0, (-1.0,))],
                             ids=["none", "int", "str", "bare-row"])
    def test_rows_must_be_a_list_or_tuple(self, rows):
        # None and 5 raised TypeError from tuple()
        with pytest.raises(ValueError) as info:
            TraceMatrix(["doc0"], rows)
        assert str(info.value) == f"trace rows must be a list or tuple of TraceRow, got {rows!r}"

    @pytest.mark.parametrize("row", [5, None, (A, "a", -1.0, (-1.0,))],
                             ids=["int", "none", "tuple"])
    def test_row_that_is_not_a_trace_row_rejected(self, row):
        # [5] raised AttributeError from row.per_input
        good = TraceRow(A, "a", -1.0, (-1.0,))
        with pytest.raises(ValueError) as info:
            TraceMatrix(["doc0"], [good, row])
        assert str(info.value) == f"trace rows[1] must be a TraceRow, got {row!r}"

    def test_numpy_integer_tokens_export_to_json(self):
        model = CopyBigramModel(ToyModelSpec(1.0, 1.0, {}, AB))
        _, trace = sequence_score(model, [(A, B)], np.array([A, EOS_ID]))
        assert [type(row.token_id) for row in trace.rows] == [int, int]
        assert trace.to_json() == sequence_score(model, [(A, B)], (A, EOS_ID))[1].to_json()


class TestRecording:
    def test_append_grows_by_one(self):
        trace = TraceMatrix(input_labels=("x",))
        assert len(trace) == 0
        longer = TraceMatrix(trace.input_labels, trace.rows + (TraceRow(A, "a", -1.0, (-1.0,)),))
        assert (len(trace), len(longer)) == (0, 1)

    def test_consistency_of_recorded_row(self):
        per = (math.log(0.5), math.log(0.25))
        combined = sum(per) / 2
        row = TraceMatrix(("doc0", "doc1"), (TraceRow(A, "a", combined, per),)).rows[0]
        assert row.combined == pytest.approx(-1.0397207708399179, abs=1e-12)
        assert abs(row.combined - np.mean(row.per_input)) <= 1e-9

    def test_width_mismatch_leaves_trace_unchanged(self):
        trace = small_trace()
        with pytest.raises(ValueError, match="per-input scores"):
            TraceMatrix(trace.input_labels, trace.rows + (TraceRow(A, "a", -1.0, (-1.0,)),))
        assert trace == small_trace()


class TestTotals:
    def test_column_sums(self):
        assert small_trace().input_totals() == [-4.0, -6.0]

    def test_combined_total(self):
        assert small_trace().combined_total() == -5.0

    def test_empty_trace_rejected(self):
        empty = TraceMatrix(("x",))
        with pytest.raises(ValueError, match="empty"):
            empty.input_totals()
        with pytest.raises(ValueError, match="empty"):
            empty.combined_total()

    def test_single_input_totals_equal_raw_score(self):
        model = CopyBigramModel(ToyModelSpec(1.0, 1.0, {}, AB))
        raw, trace = sequence_score(model, [(A, A, B)], (A, EOS_ID))
        assert trace.input_totals() == pytest.approx([raw], abs=1e-12)

    def test_duplicated_inputs_have_equal_totals(self):
        model = CopyBigramModel(ToyModelSpec(1.0, 1.0, {}, AB))
        _, trace = sequence_score(model, [(A, B)] * 3, (A, EOS_ID))
        totals = trace.input_totals()
        assert totals[0] == totals[1] == totals[2]


class TestExports:
    def test_csv_layout(self):
        trace = TraceMatrix(("doc0", "doc1"), (TraceRow(A, "a", -1.0, (-1.0, -1.0)),))
        lines = trace.to_csv().splitlines()
        assert len(lines) == 2
        assert lines[0] == "timestep,token,combined,doc0,doc1"
        assert lines[1].split(",")[:2] == ["0", "a"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            small_trace().export("xml")

    def test_json_schema_fields(self):
        doc = json.loads(small_trace().to_json())
        assert set(doc) == {"input_labels", "rows"}
        assert doc["input_labels"] == ["doc0", "doc1"]
        row = doc["rows"][0]
        assert set(row) == {"timestep", "token_id", "token", "combined", "scores"}
        assert row["timestep"] == 0

    def test_csv_round_trip_with_vocab(self):
        trace = small_trace()
        assert parse_csv(trace.to_csv(), AB) == trace

    def test_json_round_trip(self):
        trace = small_trace()
        assert parse_json(trace.to_json()) == trace

    @given(
        st.lists(
            st.tuples(finite_or_neginf, st.lists(finite_or_neginf, min_size=2, max_size=2)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trips_are_exact(self, rows):
        tokens = [(B, "b"), (A, "a")]
        trace = TraceMatrix(("doc0", "doc1"), tuple(
            TraceRow(*tokens[i % 2], combined, tuple(per)) for i, (combined, per) in enumerate(rows)
        ))
        assert exact(parse_csv(trace.to_csv(), AB)) == exact(trace)
        assert exact(parse_json(trace.to_json())) == exact(trace)


class TestDecodeTraces:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reduce_consistency_per_row(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        reduce = Reduce.MEAN_LOGPROB if rng.random() < 0.5 else Reduce.MEAN_PROB
        params = DecodeParams(beam_size=3, max_len=4, min_len=1, reduce=reduce)
        for hyp in beam_search(model, inputs, params):
            for row in hyp.trace.rows:
                per = np.array(row.per_input)
                if reduce is Reduce.MEAN_LOGPROB:
                    expected = np.mean(per)
                else:
                    top = np.max(per)
                    expected = (
                        -math.inf
                        if top == -math.inf
                        else top + math.log(np.mean(np.exp(per - top)))
                    )
                if math.isinf(expected):
                    assert row.combined == expected
                else:
                    assert abs(row.combined - expected) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_combined_column_sums_to_raw_score(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        params = DecodeParams(beam_size=3, max_len=4, min_len=0)
        for hyp in beam_search(model, inputs, params):
            assert abs(hyp.trace.combined_total() - hyp.raw_score) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cells_reproducible_by_independent_scoring(self, seed):
        rng = np.random.default_rng(seed)
        model, vocab = random_toy_model(rng)
        inputs = random_inputs(rng, vocab)
        params = DecodeParams(beam_size=2, max_len=4, min_len=1)
        hyp = beam_search(model, inputs, params)[0]
        prefix = (BOS_ID,)
        for row in hyp.trace.rows:
            for i, x in enumerate(inputs):
                assert row.per_input[i] == float(model.score_next(x, prefix)[row.token_id])
            prefix = prefix + (row.token_id,)
