"""Property tests: a record's field texts survive the v3 block unchanged.

A block stores its records by column and the reader rebuilds every
record's field texts from the columns; whatever the fields hold, the
rebuilt texts must be the record's own (:func:`field_texts`), laid out as
the v2 row they must be the oracle's (``json.dumps`` of the codec tree),
and the canonical line spliced from them must be the line the decode →
re-encode path produces. A block's bytes depend on the texts alone: not on
how its records were cut into write calls, nor on which objects they
share. Then two whole traces: the join of their row walks must list the
divergences the decode-everything comparison (``tests/reference_diff.py``)
lists.
"""

import collections
import copy
import dataclasses
import json
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import ValueCodec
from repro.graft import traceformat
from repro.graft.capture import (
    KIND_MASTER,
    KIND_VERTEX,
    ExceptionRecord,
    MasterContextRecord,
    VertexContextRecord,
    Violation,
    field_names_of,
    field_texts,
    join_line,
    record_from_row,
    record_to_line,
    vertex_field_names,
)
from repro.graft.diffing import _difference, _merge, first_divergence
from repro.graft.sanitizer import _normalized_rows, order_insensitive_lines
from repro.graft.trace import (
    TraceStore,
    iter_canonical_rows,
    iter_file_records,
    worker_trace_path,
)
from repro.graft.traceformat import BlockBuilder, decode_block, field_tables
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


def kind_of(records):
    return KIND_VERTEX if isinstance(records[0], VertexContextRecord) else KIND_MASTER


def encode_block(records, calls=1):
    """The payload of one block holding ``records`` (all of one kind),
    written in ``calls`` write calls."""
    kind = kind_of(records)
    builder = BlockBuilder(codec, kind, field_names_of(kind))
    size = -(-len(records) // calls)
    for start in range(0, len(records), size):
        builder.add(records[start:start + size])
    return builder.encode()[0]


def rebuilt_rows(payload):
    block = decode_block(payload, field_tables({}))
    return [
        f"[{block.kind}," + ",".join(block.texts(position)) + "]"
        for position in range(block.size)
    ]


def assert_records_are_the_rows(payload):
    """A block's records, read with packed columns taken as numbers, are
    what their rows decode to — and hold no object twice."""
    block = decode_block(payload, field_tables({}))
    for position in range(block.size):
        direct = block.record(position, codec)
        row = "[" + ",".join(block.texts(position)) + "]"
        parsed = record_from_row(block.kind, row, codec, block.names)
        assert field_texts(direct, codec) == field_texts(parsed, codec)
        if block.kind == KIND_VERTEX and isinstance(direct.edges_after, dict):
            assert direct.edges_after is not direct.edges_before


def rebuilt_texts(record):
    block = decode_block(encode_block([record]), field_tables({}))
    return block.kind, block.texts(0)


class TestRowSplice:
    @given(vertex_records | master_records)
    @settings(max_examples=200, deadline=None)
    def test_split_row_cuts_at_the_field_boundaries(self, record):
        kind, texts = rebuilt_texts(record)
        assert (kind, texts) == field_texts(record, codec)
        row = f"[{kind}," + ",".join(texts) + "]"
        assert row == reference_rows([record])[0]
        assert [json.loads(text) for text in texts] == json.loads(row)[1:]

    @given(vertex_records | master_records)
    @settings(max_examples=200, deadline=None)
    def test_spliced_line_is_the_decoded_records_line(self, record):
        kind, texts = rebuilt_texts(record)
        decoded = record_from_row(kind, "[" + ",".join(texts) + "]", codec)
        if kind == KIND_VERTEX:
            texts[vertex_field_names().index("worker_id")] = "0"
            decoded.worker_id = 0
        assert join_line(kind, texts) == record_to_line(decoded, codec)

    @given(vertex_records, st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_a_torn_row_raises(self, record, cut):
        """A block torn by a crash mid-append is never served: the frame is
        dropped whole, so no record comes back garbled."""
        fs = SimFileSystem()
        record.worker_id = 0
        store = TraceStore(fs, "torn", 1, codec)
        store.write_vertex_record(record)
        store.close()
        path = worker_trace_path("torn", 0)
        data = fs.read_bytes(path)
        frame = len(data) - traceformat.read_header(fs, path)[1]
        fs.create(path, overwrite=True)
        fs.append_bytes(path, data[: len(data) - 1 - (cut - 1) % (frame - 1)])
        assert list(iter_file_records(fs, path, codec)) == []


# -- pair lists written by column ------------------------------------------------
#
# ``incoming`` / ``sent`` lists of exact 2-tuples are written column by
# column, a message text once per column and block. Whatever the lists
# hold, the rebuilt row is the reference's: ``json.dumps`` of the codec tree.


def reference_rows(records):
    return [
        json.dumps(record_to_row(record, codec), separators=(",", ":"), sort_keys=True)
        for record in records
    ]


def rows_in_one_batch(records):
    return rebuilt_rows(encode_block(records)) if records else []


def record_with(incoming, sent):
    return VertexContextRecord(
        vertex_id=0, superstep=0, worker_id=0, value_before=None, edges_before={},
        incoming=incoming, aggregators={}, num_vertices=1, num_edges=0, run_seed=0,
        sent=sent,
    )


def assert_rows_are_the_reference(records):
    expected = reference_rows(records)
    assert rows_in_one_batch(records) == expected
    if records:
        one_by_one = encode_block(records, calls=len(records))
        assert one_by_one == encode_block(records)
        assert rebuilt_rows(one_by_one) == expected


#: Pair lists this long were the shortest the v2 writer wrote by column;
#: the hazard lists keep their lengths (and names) around it.
_COLUMN_MIN = 8
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
        """Any list of exact 2-tuples is written by column; a list holding
        anything else is written as its text."""
        seen = []
        add = traceformat._PairLists.add

        def spy(self, block, lists):
            seen.extend(len(pairs) for pairs in lists if pairs)
            return add(self, block, lists)

        monkeypatch.setattr(traceformat._PairLists, "add", spy)
        rows_in_one_batch([record_with(HAZARDS["signed zeros"], [])])
        rows_in_one_batch([record_with(HAZARDS["one below the column path"], [])])
        rows_in_one_batch([record_with(HAZARDS["a 2-list among pairs"], [])])
        rows_in_one_batch([record_with(HAZARDS["first list on the column path"], [])])
        assert seen == [LONG, _COLUMN_MIN - 1, _COLUMN_MIN]

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


# -- record batches, by column ---------------------------------------------------

#: Objects whose texts differ where their values compare equal (or not at
#: all), of subclasses the codec writes from the tree, and of two
#: registered classes — shared across records, ids and messages alike.
BATCH_HAZARDS = [
    0.0, -0.0, True, False, 1, 1.0, 0, NAN, float("inf"), float("-inf"),
    Color.RED, Color.BLUE, Number(2.5), Text("sub"), Text("__t__"), 2**70,
    None, "", "a,b", [1], [1.0], {"k": 1}, Pair(1, Empty()), Empty(),
    Pair(True), (1,), (1, 2, 3),
]
batch_ids = st.one_of(
    st.sampled_from([0, 1, True, 1.0, -0.0, Color.RED, Text("sub"), "v,1", [1], (0,)]),
    st.integers(-3, 40),
)


@st.composite
def record_batches(draw):
    """Vertex records over one pool of objects — the same object in many
    records and fields, equal copies of it, now and then a pair list entry
    that is not an exact 2-tuple."""
    pool = BATCH_HAZARDS + draw(st.lists(payloads, max_size=4))
    pool += [copy.deepcopy(value) for value in draw(st.lists(st.sampled_from(pool), max_size=3))]
    objects = st.sampled_from(pool)
    entries = st.tuples(batch_ids, objects)
    if draw(st.booleans()):
        entries |= st.sampled_from([(1,), (1, 2, 3), [1, 2], 7, None])
    pair_lists = st.lists(entries, max_size=6) | st.sampled_from(pool)
    edge_maps = st.dictionaries(st.integers(0, 5), objects, max_size=3) | objects
    record = st.builds(
        VertexContextRecord,
        vertex_id=batch_ids,
        superstep=st.integers(0, 2),
        worker_id=st.just(0),
        value_before=objects,
        edges_before=edge_maps,
        incoming=pair_lists,
        aggregators=objects,
        num_vertices=st.sampled_from([5, 5, 6, 2**70]),
        num_edges=objects,
        run_seed=objects,
        value_after=objects,
        edges_after=edge_maps,
        sent=pair_lists,
        halted=objects,
        reasons=st.sampled_from([["all_active"], ["random"], [Text("x")], []]),
        violations=st.sampled_from([[], [Violation("message", 1, 0, {})], ()]),
        exception=st.sampled_from([None, ExceptionRecord("E", "m", "tb")]),
    )
    records = draw(st.lists(record, min_size=1, max_size=8))
    for index in draw(st.lists(st.integers(0, len(records) - 1), max_size=3)):
        twin = copy.copy(records[index])           # the very objects again
        twin.edges_after = twin.edges_before
        records.append(twin)
    return records


def oracle_and_block(records, calls, mutate=None):
    """Write ``records`` in ``calls`` write calls, calling ``mutate`` after
    each; the oracle rows are taken as each call writes its records."""
    builder = BlockBuilder(codec, KIND_VERTEX, vertex_field_names())
    expected = []
    size = -(-len(records) // calls)
    for start in range(0, len(records), size):
        chunk = records[start:start + size]
        expected += reference_rows(chunk)
        builder.add(chunk)
        if mutate is not None:
            mutate()
    return expected, builder.encode()[0]


class TestBlockColumns:
    @given(record_batches(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_rebuilt_texts_are_the_oracle_rows(self, records, calls):
        expected, payload = oracle_and_block(records, calls)
        assert rebuilt_rows(payload) == expected
        assert_records_are_the_rows(payload)
        # The layout is a function of the texts: neither the write calls
        # nor which objects the records share (a pickle round trip makes
        # new ints and floats, as the processes executor does) show in it.
        assert oracle_and_block(records, 1)[1] == payload
        copies = pickle.loads(pickle.dumps(records))
        assert oracle_and_block(copies, calls)[1] == payload

    @given(record_batches(), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_an_object_mutated_between_two_write_calls(self, records, calls):
        shared = {"seen": [1]}
        for record in records[::2]:
            record.value_before = record.aggregators = shared
            record.sent = [(1, shared), (2, shared)]

        def mutate():
            shared["seen"].append(len(shared["seen"]) + 1)

        expected, payload = oracle_and_block(records, calls, mutate)
        assert rebuilt_rows(payload) == expected

    def test_every_block_constant_overridden_per_record(self):
        base = VertexContextRecord(
            vertex_id=0, superstep=3, worker_id=1, value_before=Pair(1),
            edges_before={1: None, 2: None}, incoming=[(1, 0.5)],
            aggregators={"phase": "A"}, num_vertices=9, num_edges=12, run_seed=7,
            value_after=Pair(1), edges_after={1: None, 2: None}, sent=[],
            halted=False, reasons=["all_active"], violations=[],
        )
        other = {
            "vertex_id": (1, "a"), "superstep": 4, "worker_id": 2,
            "value_before": Empty(), "edges_before": {"b": 1},
            "incoming": [(1, -0.0)], "aggregators": {"phase": "B"},
            "num_vertices": 10, "num_edges": 1.0, "run_seed": None,
            "value_after": 2.5, "edges_after": {}, "sent": [(1, (1,))],
            "halted": True, "reasons": ["random"],
            "violations": [Violation("message", 0, 3, {"x": 1})],
            "exception": ExceptionRecord("E", "m", "tb"),
        }
        assert sorted(other) == sorted(vertex_field_names())
        for name, value in other.items():
            records = [dataclasses.replace(base, vertex_id=i) for i in range(6)]
            records[3] = dataclasses.replace(records[3], **{name: value})
            assert_rows_are_the_reference(records)

    def test_two_registered_classes_in_one_value_column(self):
        values = [Pair(1), Empty(), Pair(2, Empty()), 3, Empty(), Payload(4)]
        records = [
            dataclasses.replace(record_with([], []), vertex_id=i, value_before=value)
            for i, value in enumerate(values)
        ]
        assert_rows_are_the_reference(records)
        head = encode_block(records).split(b"\n")[0].split()
        assert b"x" in head and head.count(b"o") == 2


# -- packed numeric columns -----------------------------------------------------
#
# A column of exact ints (of 64 bits) or of exact finite floats is stored as
# a little-endian array and its texts rebuilt as reprs; anything else in the
# column, in any write call of the block, keeps it text.

INT64 = 2**63
#: name -> (values cycled through a block's numeric fields, how ``num_edges``
#: is laid out: packed, a dictionary of packed values, or texts).
NUMBER_HAZARDS = {
    "ints at the signed 64-bit edges": ([-INT64, INT64 - 1, 0, 1, 255, -1], "packed"),
    "an int past 2**63 - 1": ([INT64 - 1, INT64, 1, 2, 3], "text"),
    "an int below -2**63": ([-INT64, -INT64 - 1, 1, 2, 3], "text"),
    "narrow ints": ([0, 255, 17, 3, 250], "packed"),
    "signed zeros": ([0.0, -0.0, 1.5, -0.0, 2.5], "packed"),
    # Equal floats of two texts: a column holding a zero is packed whole.
    "only negative zeros": ([-0.0, -0.0, -0.0, -0.0, -0.0], "packed"),
    "non-finite floats": ([1.5, NAN, float("inf"), float("-inf"), 2.5], "text"),
    "true, one and one point oh": ([True, 1, 1.0, 2, 3], "text"),
    "an IntEnum among ints": ([Color.RED, 1, 2, 3, Color.BLUE], "text"),
    "a float subclass among floats": ([Number(2.5), 2.5, 0.5, 1.5, 3.5], "text"),
    "ints then a str": ([1, 2, 3, 4, 5, "6"], "text"),
    "repeated ints": ([7, 8, 7, 8, 7, 8], "dictionary"),
    "repeated floats": ([0.25, 0.5, 0.25, 0.5, 0.25, 0.5], "dictionary"),
}


def numeric_records(values):
    """Vertex records whose numeric fields — the value, a count, an edge
    map, pair ids, messages and a registered message's fields — all cycle
    through ``values``."""
    records = []
    for position in range(max(len(values), _ROWS + 1)):
        value = values[position % len(values)]
        other = values[(position + 1) % len(values)]
        records.append(VertexContextRecord(
            vertex_id=position, superstep=0, worker_id=0, value_before=value,
            edges_before={position: value}, incoming=[(value, other), (other, value)],
            aggregators={}, num_vertices=9, num_edges=value, run_seed=0,
            value_after=other, edges_after={}, sent=[(position, Pair(value, other))],
        ))
    return records


_ROWS = traceformat._ROWS_UP_TO


def decoded_column(payload, name):
    block = decode_block(payload, field_tables({}))
    return block.columns[vertex_field_names().index(name)]


def assert_packs_the_same_however_written(records):
    """The oracle's texts come back, and the bytes are those of one write
    call — whatever the calls, and for pickled copies of the records."""
    expected, payload = oracle_and_block(records, 1)
    assert rebuilt_rows(payload) == expected
    assert_records_are_the_rows(payload)
    for calls in range(2, len(records) + 1):
        assert oracle_and_block(records, calls) == (expected, payload)
    copies = pickle.loads(pickle.dumps(records))
    assert oracle_and_block(copies, 3)[1] == payload
    return payload


class TestPackedColumns:
    @pytest.mark.parametrize("name", sorted(NUMBER_HAZARDS))
    def test_hazard(self, name):
        values, layout = NUMBER_HAZARDS[name]
        payload = assert_packs_the_same_however_written(numeric_records(values))
        column = decoded_column(payload, "num_edges")
        if layout == "dictionary":
            assert column.__class__ is traceformat._Lookup
            assert b" d 2 nB n" in payload.split(b"\n")[0]    # packed refs and table
        else:
            assert (column.__class__ is traceformat._Numbers) == (layout == "packed")
        messages = decoded_column(payload, "incoming").messages
        if layout != "text" and all(value.__class__ is float and value for value in values):
            assert messages.__class__ is traceformat._Numbers

    def test_the_message_tables_hold_floats_and_int_fields_packed(self):
        values = [0.5, 1.25, 3.0, 1e300, -2.5e-300, 7.0]
        payload = assert_packs_the_same_however_written(numeric_records(values))
        assert decoded_column(payload, "incoming").messages.__class__ is traceformat._Numbers
        ints = numeric_records([1, 2, 3, 300, 5, 6])
        payload = assert_packs_the_same_however_written(ints)
        sent = decoded_column(payload, "sent").messages      # Pair(int, int)
        assert sent.__class__ is traceformat._ObjectColumn
        assert {column.__class__ for column in sent.columns} == {traceformat._Numbers}

    def test_a_column_that_turns_text_in_a_later_write_call(self):
        """The first call's ints are held as ints; a str in the second
        call makes the column text, and the bytes are the one call's."""
        records = numeric_records([1, 2, 3, 4, 5])
        records += [dataclasses.replace(records[0], vertex_id=9, num_edges="5")]
        builder = BlockBuilder(codec, KIND_VERTEX, vertex_field_names())
        builder.add(records[:5])
        builder.add(records[5:])
        payload = builder.encode()[0]
        assert payload == oracle_and_block(records, 1)[1]
        assert decoded_column(payload, "num_edges").__class__ is traceformat._Fixed
        assert decoded_column(payload, "value_before").__class__ is traceformat._Numbers

    def test_a_codec_with_its_own_float_writer_keeps_texts(self):
        class OwnFloats(ValueCodec):
            def _float_text(self, value):
                return f"{value:.2f}"

        own = OwnFloats()
        own.register(Pair)
        records = numeric_records([0.5, 1.5, 2.5, 3.5, 4.5])
        builder = BlockBuilder(own, KIND_VERTEX, vertex_field_names())
        builder.add(records)
        payload = builder.encode()[0]
        assert rebuilt_rows(payload) == reference_rows(records)

    def test_sections_are_little_endian_and_a_big_endian_read_swaps_them(
        self, monkeypatch
    ):
        """The writer's sections are little-endian on every host; a host
        whose native order is big-endian reads them through a byte swap,
        which gives back the same texts and records."""
        wide = [-INT64, 2**40, 70000, -5, 300, 1]
        blocks = [
            numeric_records(wide),
            numeric_records([0.5, -0.0, 1e-9, 3.25, 1e300, -7.0]),
            numeric_records([1, 300, 70000, 5, 6]),
        ]
        little = [oracle_and_block(records, 1) for records in blocks]
        # num_edges cycles through the values once: one `nq` section.
        assert struct.pack("<6q", *wide) in little[0][1]
        assert struct.pack(">6q", *wide) not in little[0][1]
        monkeypatch.setattr(traceformat, "_LITTLE", False)
        for records, (expected, payload) in zip(blocks, little):
            assert rebuilt_rows(payload) == expected
            assert_records_are_the_rows(payload)
            assert oracle_and_block(copy.deepcopy(records), 2)[1] == payload

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_numeric_columns(self, data):
        """Columns of one numeric class — narrow or 64-bit ints, floats with
        signed zeros — with now and then a value that must keep them text."""
        pool = data.draw(st.sampled_from([
            st.integers(0, 300), st.integers(-INT64, INT64 - 1),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 0.5, -0.5]),
        ]))
        stray = st.sampled_from([
            INT64, -INT64 - 1, NAN, float("-inf"), True, 1, 1.0, -0.0,
            Color.RED, Number(0.5), "1", None,
        ])
        values = data.draw(st.lists(
            pool | stray if data.draw(st.booleans()) else pool,
            min_size=1, max_size=12,
        ))
        assert_packs_the_same_however_written(numeric_records(values))


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
