"""Unit tests for the columnar message plane (repro.pregel.columnar).

Covers typed value columns and the interner, plus the property the whole
plane exists to preserve: any sequence of built-in payloads survives
outbox -> store with the reference's canonical inbox order intact
(``tests/reference_delivery.py``), and anything unpackable degrades to the
pickled fallback without changing delivery order.
"""

import random
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.chaos.orchestrator import _shm_segments
from repro.common.errors import PregelError
from repro.pregel.columnar import (
    COL_F64,
    COL_FIXED,
    COL_I64,
    COL_OBJ,
    COL_STR,
    ColumnarMessageStore,
    ColumnarOutbox,
    ColumnarRunState,
    ColumnBuilder,
    VertexInterner,
    decode_column,
)
from repro.pregel.value_types import Int32, Short16
from repro.pregel.worker import _estimate_bytes
from tests.reference_delivery import ReferenceDelivery


class Opaque:
    """A payload the column codec has no fast path for."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Opaque) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"Opaque({self.tag})"


def roundtrip(values):
    column = ColumnBuilder()
    for value in values:
        column.append(value)
    decoded, fallback = decode_column(column.encode())
    assert decoded == list(values)
    # The no-byte-round-trip decode must agree with the codec.
    assert column.values() == list(values)
    return column, fallback


class TestColumns:
    def test_float_column_packs(self):
        column, fallback = roundtrip([0.5, -1.25, 3e9, float("inf")])
        assert column.kind == COL_F64
        assert not fallback

    def test_int_column_packs(self):
        column, fallback = roundtrip([0, -7, 2**62, -(2**62)])
        assert column.kind == COL_I64
        assert not fallback

    def test_str_column(self):
        column, fallback = roundtrip(["a", "", "vertex-42", "é"])
        assert column.kind == COL_STR
        assert not fallback

    def test_fixed_width_column_preserves_class(self):
        column, fallback = roundtrip([Short16(1), Short16(-32768), Short16(999)])
        assert column.kind == COL_FIXED
        assert not fallback
        decoded, _ = decode_column(column.encode())
        assert all(isinstance(v, Short16) for v in decoded)

    def test_mixed_fixed_width_classes_degrade(self):
        column, fallback = roundtrip([Short16(1), Int32(2)])
        assert column.kind == COL_OBJ
        assert fallback

    def test_type_mismatch_degrades_preserving_prefix(self):
        column, fallback = roundtrip([1.0, 2.0, "three", 4.0])
        assert column.kind == COL_OBJ
        assert fallback

    def test_overflowing_int_degrades(self):
        column, fallback = roundtrip([1, 2**80])
        assert column.kind == COL_OBJ
        assert fallback

    def test_arbitrary_object_degrades(self):
        column, fallback = roundtrip([Opaque("x"), Opaque("y")])
        assert column.kind == COL_OBJ
        assert fallback

    def test_bool_is_not_treated_as_int(self):
        # bool is an int subclass; exact-class dispatch must not let True
        # silently become 1 on the int column.
        column, _ = roundtrip([True, False])
        decoded, _ = decode_column(column.encode())
        assert decoded[0] is True and decoded[1] is False

    def test_unknown_tag_rejected(self):
        with pytest.raises(PregelError):
            decode_column(b"\x7f")


class TestInterner:
    def test_intern_is_stable_and_reversible(self):
        interner = VertexInterner()
        ids = ["v1", 42, ("t", 1)]
        idxs = [interner.intern(v) for v in ids]
        assert idxs == [0, 1, 2]
        assert [interner.intern(v) for v in ids] == idxs
        assert interner.ids == ids
        assert interner.reprs == [repr(v) for v in ids]


class TestPickleFallbacks:
    def test_outbox_counts_degraded_columns(self):
        outbox = ColumnarOutbox()
        outbox.add_point("a", "b", (1, 2))
        outbox.add_broadcast("a", 1.5, fan_out=2)
        assert outbox.pickle_fallbacks == 1
        outbox.add_broadcast("a", Opaque(1), fan_out=2)
        assert outbox.pickle_fallbacks == 2

    def test_memory_plane_metrics_count_them(self):
        from repro.graph import GraphBuilder
        from repro.pregel import Computation, run_computation

        class SendsTuples(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.send_message_to_all_neighbors((ctx.vertex_id, 1))
                ctx.vote_to_halt()

        graph = GraphBuilder().edge(1, 2).edge(2, 1).build()
        metrics = run_computation(SendsTuples, graph, num_workers=2).metrics
        assert metrics.supersteps[0].pickle_fallbacks == 2
        assert metrics.total_pickle_fallbacks == 2


class TestLazyReverseIndex:
    """The reverse index is built on the first compact-broadcast read."""

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_sssp_run_never_builds_it(self, executor):
        from repro.algorithms import ShortestPaths
        from repro.datasets import load_dataset
        from repro.pregel import MinCombiner, PregelEngine

        engine = PregelEngine(
            lambda: ShortestPaths(0),
            load_dataset("web-BS", num_vertices=80, seed=3),
            num_workers=2, executor=executor, combiner=MinCombiner(),
        )
        assert engine.run().num_supersteps > 2
        assert not engine._run_state.index.built

    def test_a_broadcast_builds_it_when_its_inbox_is_read(self):
        from repro.algorithms import PageRank
        from repro.datasets import load_dataset
        from repro.pregel import PregelEngine

        built = []
        engine = PregelEngine(
            lambda: PageRank(iterations=2),
            load_dataset("web-BS", num_vertices=40, seed=3), num_workers=2,
            listeners=[SimpleNamespace(on_superstep_end=lambda step, _: (
                built.append(engine._run_state.index.built)
            ))],
        )
        engine.run()
        # Superstep 0 reads no inbox; superstep 1 reads superstep 0's
        # broadcasts.
        assert built == [False, True, True]


# ---------------------------------------------------------------------------
# Property test: canonical order through the whole plane
# ---------------------------------------------------------------------------


PAYLOAD_MAKERS = {
    "float": lambda rng: rng.random() * 100 - 50,
    "int": lambda rng: rng.randrange(-(2**40), 2**40),
    "str": lambda rng: f"msg-{rng.randrange(1000)}",
    "short16": lambda rng: Short16(rng.randrange(-32768, 32767)),
    "mixed": lambda rng: rng.choice(
        [lambda: rng.random(), lambda: Opaque(rng.randrange(10))]
    )(),
}


def _random_plane(seed, payload_kind):
    """Emit one random superstep through both planes; return both stores.

    Two simulated workers each emit a random interleaving of point sends
    and broadcasts over a fixed adjacency. The reference is delivery the
    slow, obvious way: each worker's sends merged in worker order, then
    every inbox canonicalized.
    """
    rng = random.Random(seed)
    make = PAYLOAD_MAKERS[payload_kind]
    vertices = [f"v{i:02d}" for i in range(10)]
    edges = {
        v: {t: None for t in rng.sample(vertices, rng.randrange(1, 5))}
        for v in vertices
    }
    owner = {v: i % 2 for i, v in enumerate(vertices)}
    workers = [
        SimpleNamespace(edges={v: e for v, e in edges.items() if owner[v] == w})
        for w in (0, 1)
    ]
    locations = dict(owner)

    run_state = ColumnarRunState()
    run_state.ensure_index(workers, locations)

    reference = ReferenceDelivery()
    columnar = ColumnarMessageStore(run_state)

    for worker_id in (0, 1):
        sends = []
        outbox = ColumnarOutbox()
        my_vertices = [v for v in vertices if owner[v] == worker_id]
        for _ in range(rng.randrange(5, 25)):
            source = rng.choice(my_vertices)
            value = make(rng)
            if rng.random() < 0.4:
                targets = tuple(edges[source])
                sends += [(source, target, value) for target in targets]
                outbox.add_broadcast(source, value, len(targets))
            else:
                target = rng.choice(vertices)
                sends.append((source, target, value))
                outbox.add_point(source, target, value)
        reference.merge_grouped(sends)
        columnar.absorb_outbox(worker_id, outbox)
    reference.canonicalize()
    return vertices, reference, columnar


@dataclass(frozen=True)
class Printed:
    """Distinct ids that print alike."""

    name: str
    tag: int

    def __repr__(self):
        return self.name


class TestFlatPointSort:
    @pytest.mark.parametrize("settled", [False, True])
    def test_equal_reprs_tie_by_worker_not_by_load_order(self, settled):
        """A vertex created at a barrier has no load order; a source key
        that fell back on it would put worker 1's message first. Settling
        the store into columns keeps the order."""
        loaded, created = Printed("x", 0), Printed("x", 1)
        run_state = ColumnarRunState()
        workers = [
            SimpleNamespace(edges={loaded: {}, "t": {}}),
            SimpleNamespace(edges={}),
        ]
        run_state.ensure_index(workers, {loaded: 0, "t": 0})
        run_state.note_vertex_added(created)
        store = ColumnarMessageStore(run_state)
        for worker_id, source, value in ((0, loaded, 0.0), (1, created, -0.0)):
            outbox = ColumnarOutbox()
            outbox.add_point(source, "t", value)
            store.absorb_outbox(worker_id, outbox)
        if settled:
            store = store.settled(1, None, None)
        assert store.inbox("t") == [(loaded, 0.0), (created, -0.0)]
        assert repr(store.inbox_values("t")) == "[0.0, -0.0]"


class TestCanonicalOrderProperty:
    @pytest.mark.parametrize("payload_kind", sorted(PAYLOAD_MAKERS))
    @pytest.mark.parametrize("seed", range(5))
    def test_pack_unpack_preserves_canonical_order(
        self, seed, payload_kind
    ):
        vertices, reference, columnar = _random_plane(seed, payload_kind)
        assert columnar.total_messages == len(reference.messages())
        for vertex in vertices:
            expected = reference.inbox_values(vertex)
            assert columnar.inbox_values(vertex) == expected, vertex
            assert columnar.has_inbox(vertex) == bool(expected)
            # The debugger-facing pairs agree on sources and values.
            assert columnar.inbox(vertex) == reference.inbox(vertex)
            assert list(columnar.incoming_view(vertex)) == reference.inbox(vertex)

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_unpackable_payloads_counted_as_fallback(self, seed):
        _, reference, columnar = _random_plane(seed, "mixed")
        assert columnar.total_messages == len(reference.messages())

    def test_to_message_store_matches_reference(self):
        vertices, reference, columnar = _random_plane(99, "float")
        settled = columnar.settled(1, None, None)
        assert settled.total_messages == columnar.total_messages
        assert (settled.permuted, settled.eliminated) == (0, 0)
        for vertex in vertices:
            assert settled.inbox(vertex) == reference.inbox(vertex)
            assert settled.has_inbox(vertex) == columnar.has_inbox(vertex)
        assert list(settled.iter_checkpoint_messages()) == list(
            columnar.iter_checkpoint_messages()
        )

    def test_shm_left_clean_after_property_runs(self):
        before = _shm_segments()
        _random_plane(123, "float")
        assert _shm_segments() - before == set()


class TestEstimateBytes:
    """Regression: columnar payload types must not use the repr cache."""

    def test_array_counts_buffer_not_repr(self):
        values = array("d", [0.0] * 1000)
        assert _estimate_bytes(values) == 16 + 8000

    def test_memoryview_counts_nbytes(self):
        view = memoryview(b"z" * 512)
        assert _estimate_bytes(view) == 16 + 512
        # A second, larger view must not reuse a learned per-type size.
        assert _estimate_bytes(memoryview(b"z" * 2048)) == 16 + 2048

    def test_bytearray_counts_length(self):
        assert _estimate_bytes(bytearray(64)) == 16 + 64
