"""Property tests: a stored row can be re-laid-out without decoding it.

``split_row`` must cut a v2 row exactly where the encoder joined its field
texts, whatever the fields hold, and the canonical line spliced from those
texts must be the line the decode → re-encode path produces.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import ValueCodec
from repro.graft.capture import (
    ExceptionRecord,
    MasterContextRecord,
    RecordEncoder,
    VertexContextRecord,
    Violation,
    join_line,
    master_field_names,
    record_from_row,
    record_to_line,
    split_row,
    vertex_field_names,
)
from tests.property.test_serialization_props import (
    Empty,
    Pair,
    Payload,
    awkward_values,
)

codec = ValueCodec()
for value_type in (Pair, Empty, Payload, Violation, ExceptionRecord):
    codec.register(value_type)

# Text that looks like the row's own punctuation, inside ids and values.
tricky_text = st.one_of(
    st.sampled_from([
        "a,b", "c]d", 'e"f', "[0,1]", "\\", '\\"', "],[", "{}", "tab\there",
        "line\nbreak", "caf\u00e9", "\u2603,\U0001f600]", "",
    ]),
    st.text(alphabet='[]{},:"\\ab\n', max_size=8),
)
vertex_ids = st.one_of(
    st.integers(min_value=-5, max_value=50),
    tricky_text,
    st.tuples(st.integers(0, 3), tricky_text),
)
payloads = st.one_of(awkward_values, tricky_text)
edge_maps = st.dictionaries(vertex_ids, payloads, max_size=4)
message_lists = st.lists(st.tuples(vertex_ids, payloads), max_size=4)
aggregator_maps = st.dictionaries(tricky_text, payloads, max_size=3)
violations = st.lists(
    st.builds(
        Violation,
        kind=st.sampled_from(["message", "vertex_value"]),
        vertex_id=vertex_ids,
        superstep=st.integers(0, 9),
        details=st.dictionaries(st.sampled_from(["value", "source"]), payloads),
    ),
    max_size=2,
)

vertex_records = st.builds(
    VertexContextRecord,
    vertex_id=vertex_ids,
    superstep=st.integers(0, 9),
    worker_id=st.integers(0, 7),
    value_before=payloads,
    edges_before=edge_maps,
    incoming=message_lists,
    aggregators=aggregator_maps,
    num_vertices=st.integers(0, 100),
    num_edges=st.integers(0, 100),
    run_seed=st.none() | st.integers(),
    value_after=payloads,
    edges_after=edge_maps,
    sent=message_lists,
    halted=st.booleans(),
    reasons=st.lists(st.sampled_from(["specified", "random"]), max_size=2),
    violations=violations,
    exception=st.none() | st.builds(
        ExceptionRecord, tricky_text, tricky_text, tricky_text
    ),
)
master_records = st.builds(
    MasterContextRecord,
    superstep=st.integers(0, 9),
    aggregators=aggregator_maps,
    aggregators_before=aggregator_maps,
    halted=st.booleans(),
)


class TestRowSplice:
    @given(vertex_records | master_records)
    @settings(max_examples=200, deadline=None)
    def test_split_row_cuts_at_the_field_boundaries(self, record):
        row = RecordEncoder(codec).row(record)
        kind, texts = split_row(row)
        names = vertex_field_names() if kind == 0 else master_field_names()
        assert len(texts) == len(names)
        assert f"[{kind}," + ",".join(texts) + "]" == row
        assert [json.loads(text) for text in texts] == json.loads(row)[1:]

    @given(vertex_records | master_records)
    @settings(max_examples=200, deadline=None)
    def test_spliced_line_is_the_decoded_records_line(self, record):
        row = RecordEncoder(codec).row(record)
        kind, texts = split_row(row)
        decoded = record_from_row(json.loads(row), codec)
        if kind == 0:
            texts[vertex_field_names().index("worker_id")] = "0"
            decoded.worker_id = 0
        assert join_line(kind, texts) == record_to_line(decoded, codec)

    @given(vertex_records, st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_a_torn_row_raises(self, record, cut):
        row = RecordEncoder(codec).row(record)
        torn = row[:-cut] if cut < len(row) else ""
        with pytest.raises(ValueError):
            split_row(torn)
