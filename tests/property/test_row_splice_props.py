"""Property tests: a stored row can be re-laid-out without decoding it.

``split_row`` must cut a v2 row exactly where the encoder joined its field
texts, whatever the fields hold, and the canonical line spliced from those
texts must be the line the decode → re-encode path produces. Then two
whole traces: the join of their row walks must list the divergences the
decode-everything comparison (``tests/reference_diff.py``) lists.
"""

import collections
import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import ValueCodec
from repro.graft.capture import (
    _COLUMN_MIN,
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
from repro.graft.diffing import _difference, _merge, first_divergence
from repro.graft.sanitizer import _normalized_rows, order_insensitive_lines
from repro.graft.trace import TraceStore, iter_canonical_rows
from repro.simfs import SimFileSystem
from tests.integration.test_trace_bytes import record_to_row
from tests.property.test_serialization_props import (
    Color,
    Empty,
    Number,
    Pair,
    Payload,
    Text,
    awkward_values,
)
from tests.reference_diff import canonical_records, reference_divergences

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
pair_hazard_scalars = st.sampled_from([
    0.0, -0.0, True, False, 1, 1.0, 0, float("nan"), float("inf"),
    Color.RED, Text("sub"), Number(2.5), 2**70, None,
])
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


# -- pair lists written by column ------------------------------------------------
#
# ``incoming`` / ``sent`` lists of at least ``_COLUMN_MIN`` exact 2-tuples are
# written column by column, a message object once per batch. Whatever the
# lists hold, the row is the reference's: ``json.dumps`` of the codec tree.


def reference_rows(records):
    return [
        json.dumps(record_to_row(record, codec), separators=(",", ":"), sort_keys=True)
        for record in records
    ]


def rows_in_one_batch(records):
    row = RecordEncoder(codec).row
    return [row(record) for record in records]


def record_with(incoming, sent):
    return VertexContextRecord(
        vertex_id=0, superstep=0, worker_id=0, value_before=None, edges_before={},
        incoming=incoming, aggregators={}, num_vertices=1, num_edges=0, run_seed=0,
        sent=sent,
    )


def assert_rows_are_the_reference(records):
    expected = reference_rows(records)
    assert rows_in_one_batch(records) == expected
    assert [RecordEncoder(codec).row(record) for record in records] == expected


NamedPair = collections.namedtuple("NamedPair", "id message")
NAN = float("nan")
LONG = _COLUMN_MIN + 2
HAZARDS = {
    # Equal and hash-equal, different text: nothing may be keyed by value.
    "signed zeros": [(i, 0.0 if i % 2 else -0.0) for i in range(LONG)],
    "zero then its negative": [(i, 0.0) for i in range(LONG)]
    + [(i, -0.0) for i in range(LONG)],
    "true, one and one point oh as messages": [
        (i, (True, 1, 1.0)[i % 3]) for i in range(LONG)
    ],
    "true and one": [((True, 1)[i % 2], (1, True)[i % 2]) for i in range(LONG)],
    "true, one and one point oh as ids": [
        ((True, 1, 1.0, 0, False, 0.0, -0.0)[i % 7], "m") for i in range(LONG)
    ],
    "int and float subclasses": [
        ((Color.RED, Color.BLUE)[i % 2], Number(2.5)) for i in range(LONG)
    ],
    "str subclass ids": [(Text("sub"), Text("__t__")) for i in range(LONG)],
    "non-finite floats": [(i, (NAN, float("inf"), float("-inf"), 1.5)[i % 4])
                          for i in range(LONG)],
    "only non-finite floats": [(i, NAN) for i in range(LONG)],
    "str ids": [(f"v{i}", i) for i in range(LONG)],
    "tuple ids": [((i, "a"), [i]) for i in range(LONG)],
    "unhashable ids": [([i], {"k": i}) for i in range(LONG)],
    "mixed id classes": [((i, str(i), None, 2.5)[i % 4], i) for i in range(LONG)],
    "a 1-tuple among pairs": [(i, i) for i in range(LONG)] + [(1,)],
    "a 3-tuple among pairs": [(i, i) for i in range(LONG)] + [(1, 2, 3)],
    "a 2-list among pairs": [(i, i) for i in range(LONG)] + [[1, 2]],
    "a non-tuple among pairs": [(i, i) for i in range(LONG)] + [7],
    "a tuple subclass among pairs": [(i, i) for i in range(LONG)]
    + [NamedPair(1, 2)],
    "empty": [],
    "one below the column path": [(i, i / 7) for i in range(_COLUMN_MIN - 1)],
    "first list on the column path": [(i, i / 7) for i in range(_COLUMN_MIN)],
    "registered values": [(i, Pair(i, Empty())) for i in range(LONG)],
}


class TestPairColumns:
    def test_the_hazard_lists_reach_the_column_path(self, monkeypatch):
        seen = []
        columns = RecordEncoder._pair_columns
        monkeypatch.setattr(
            RecordEncoder, "_pair_columns",
            lambda self, ids, messages: seen.append(len(ids))
            or columns(self, ids, messages),
        )
        rows_in_one_batch([record_with(HAZARDS["signed zeros"], [])])
        rows_in_one_batch([record_with(HAZARDS["one below the column path"], [])])
        rows_in_one_batch([record_with(HAZARDS["a 2-list among pairs"], [])])
        rows_in_one_batch([record_with(HAZARDS["first list on the column path"], [])])
        assert seen == [LONG, _COLUMN_MIN]

    @pytest.mark.parametrize("name", sorted(HAZARDS))
    def test_hazard(self, name):
        pairs = HAZARDS[name]
        assert_rows_are_the_reference([
            record_with(pairs, []),
            record_with(list(reversed(pairs)), pairs),
            record_with([], pairs),
        ])

    def test_equal_values_of_different_text_in_one_batch(self):
        """Vertex 9 sends 0.0 to one captured receiver and -0.0 to the next;
        1 reaches the third as an int, the fourth as a bool."""
        filler = [(i, float(i)) for i in range(_COLUMN_MIN)]
        assert_rows_are_the_reference([
            record_with(filler + [(9, message)], [(9, message)] * _COLUMN_MIN)
            for message in (0.0, -0.0, 1, True, 1.0)
        ])

    def test_one_message_object_under_two_senders_and_two_objects_under_one(self):
        shared = tuple(["PRIORITY", 0.1])
        twin = tuple(["PRIORITY", 0.1])
        assert shared == twin and shared is not twin
        records = [
            record_with([(1, shared), (2, shared)] * _COLUMN_MIN, []),
            record_with([(1, shared), (1, twin)] * _COLUMN_MIN, []),
            record_with([(2, twin)] * _COLUMN_MIN, [(3, shared)] * _COLUMN_MIN),
        ]
        assert_rows_are_the_reference(records)
        in_one_batch = rows_in_one_batch(records)
        assert in_one_batch == rows_in_one_batch(copy.deepcopy(records))

    def test_a_message_mutated_between_batches_is_written_anew(self):
        message = {"seen": [1]}
        record = record_with([(i, message) for i in range(LONG)], [])
        assert_rows_are_the_reference([record])
        message["seen"].append(2)       # same object, same id(), new state
        assert_rows_are_the_reference([record])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_lists(self, data):
        """Lists over a pool of message objects — the same object under
        several senders and in several records, and equal copies of it —
        with now and then an entry that is not an exact 2-tuple."""
        messages = payloads | pair_hazard_scalars
        pool = data.draw(st.lists(messages, min_size=1, max_size=6))
        pool += [copy.deepcopy(value) for value in pool[:2]]
        ids = data.draw(st.sampled_from([
            st.integers(-3, 40), tricky_text, vertex_ids | pair_hazard_scalars,
            st.lists(st.integers(0, 3), max_size=2),
        ]))
        entries = st.tuples(ids, st.sampled_from(pool))
        if data.draw(st.booleans()):
            entries |= st.sampled_from([(1,), (1, 2, 3), [1, 2], 7, None])
        lists = st.lists(entries, max_size=2 * _COLUMN_MIN)
        assert_rows_are_the_reference(
            data.draw(st.lists(st.builds(record_with, lists, lists), max_size=3))
        )


# -- two walks, joined ----------------------------------------------------------

_CHANGES = {
    "value_after": payloads,
    "value_before": payloads,
    "sent": message_lists,
    "halted": st.booleans(),
    "num_edges": st.integers(0, 100),
    "aggregators": aggregator_maps,
}


@st.composite
def run_pairs(draw):
    """Two record lists as two runs of one job might leave them: shared
    keys (some changed in one field, some with the inbox in another order),
    keys only one run captured, rollback re-captures, and re-captures that
    differ."""
    left, right = [], []
    for record in draw(st.lists(vertex_records | master_records, max_size=6)):
        left.append(record)
        fate = draw(st.sampled_from(
            ["same", "shuffled", "changed", "dropped", "recaptured", "forked"]
        ))
        if fate == "dropped":
            continue
        is_vertex = isinstance(record, VertexContextRecord)
        twin = copy.copy(record)
        if fate == "shuffled" and is_vertex:
            twin.incoming = draw(st.permutations(record.incoming))
        if fate == "changed" and is_vertex:
            name = draw(st.sampled_from(sorted(_CHANGES)))
            setattr(twin, name, draw(_CHANGES[name]))
        right.append(twin)
        if fate == "recaptured" and is_vertex:
            right.append(dataclasses.replace(twin, worker_id=twin.worker_id + 1))
        if fate == "forked":
            left.append(dataclasses.replace(record, halted=not record.halted))
    extra = st.lists(vertex_records | master_records, max_size=2)
    return left + draw(extra), right + draw(extra)


def write_job(records, workers):
    fs = SimFileSystem()
    store = TraceStore(fs, "job", workers, codec)
    for record in records:
        if isinstance(record, VertexContextRecord):
            record.worker_id %= workers
            store.write_vertex_record(record)
        else:
            store.write_master_record(record)
    store.close()
    return fs


def joined(walks, fields=None):
    """Every divergence of the join, as the reference lists them."""
    found = []
    for key, left_rows, right_rows in _merge(*walks):
        difference = _difference(key[0], left_rows, right_rows, fields)
        if difference is not None:
            name, left, right = difference
            found.append((*key, name, codec.loads(left), codec.loads(right)))
    return found


def shown(divergences):
    """Comparable form: a generated value may lack ``__eq__`` (or be nan)."""
    return [
        (*where, codec.dumps(left), codec.dumps(right))
        for *where, left, right in divergences
    ]


class TestRowJoin:
    @given(run_pairs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_the_join_is_the_decoded_comparison(self, pair, left_workers, right_workers):
        jobs = [
            write_job(records, workers)
            for records, workers in zip(pair, (left_workers, right_workers))
        ]
        for fields in (None, ("value_after", "sent", "halted")):
            expected = reference_divergences(
                *(canonical_records(fs, "job", codec) for fs in jobs), fields
            )
            got = joined([iter_canonical_rows(fs, "job", codec) for fs in jobs], fields)
            assert shown(got) == shown(expected)

        # graft-san's comparison: the same join over inbox-sorted walks.
        sorted_inboxes = [
            canonical_records(fs, "job", codec, sort_incoming=True) for fs in jobs
        ]
        got = joined([_normalized_rows(fs, "job", codec) for fs in jobs])
        assert shown(got) == shown(reference_divergences(*sorted_inboxes))
        first = first_divergence(
            *(_normalized_rows(fs, "job", codec) for fs in jobs), codec
        )
        assert (first is None) == (not got)
        if got:
            key, *rest = first
            assert shown([(*key, *rest)]) == shown(got[:1])
        for fs, records in zip(jobs, sorted_inboxes):
            assert order_insensitive_lines(fs, "job", codec) == sorted(
                line for lines in records.values() for line, _record in lines
            )
