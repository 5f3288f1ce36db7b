"""Unit tests for the columnar message plane (repro.pregel.columnar).

Covers the two layers separately — typed value columns and
length-prefixed frames — plus the property the whole plane exists to
preserve: any sequence of built-in payloads survives pack -> unpack with
the reference's canonical inbox order intact
(``tests/reference_delivery.py``), and anything unpackable degrades to the
pickled fallback without changing delivery order. Under ``processes`` a
frame is plain bytes in the step outcome (``TestTransport``), and
``test_processes_jobs_run_without_shared_memory`` runs jobs with
``multiprocessing.shared_memory`` made unimportable.
"""

import os
import pickle
import random
import subprocess
import sys
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
    UNINTERNED,
    ColumnarMessageStore,
    ColumnarOutbox,
    ColumnarRunState,
    ColumnBuilder,
    VertexInterner,
    build_frame,
    decode_column,
    parse_frame,
)
from repro.pregel.runtime import StepOutcome
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


def _outbox_worker(outbox, worker_id=0, edges_dirty=False):
    return SimpleNamespace(
        worker_id=worker_id,
        edges_dirty=edges_dirty,
        outbox=outbox,
        values={},
        halted={},
        edges={},
    )


class TestFrames:
    def test_point_and_broadcast_roundtrip(self):
        interner = VertexInterner()
        for vid in ("a", "b", "c"):
            interner.intern(vid)
        outbox = ColumnarOutbox()
        outbox.add_point("a", "b", 1.5)
        outbox.add_broadcast("b", 2.5, fan_out=2)
        outbox.add_point("a", "c", 3.5)
        blob = build_frame(_outbox_worker(outbox, worker_id=3), interner, 7)
        frame = parse_frame(blob, interner)
        assert frame.worker_id == 3
        assert frame.superstep == 7
        assert frame.messages == 4  # 2 points + fan_out 2
        assert not frame.edges_dirty
        assert frame.bcast == [(interner.get("b"), 1, 2.5)]
        # One flat point section: (sources, targets, seqs, values) over
        # every target, in emission order.
        a_idx, b_idx, c_idx = (interner.get(v) for v in ("a", "b", "c"))
        assert frame.point == (
            [a_idx, a_idx], [b_idx, c_idx], [0, 2], [1.5, 3.5]
        )
        assert frame.pickle_fallbacks == 0
        assert frame.batches == 2  # the point columns + the bcast column
        assert (frame.values, frame.halted, frame.edges) == ({}, {}, None)

    def test_uninterned_target_ships_via_fallback_section(self):
        interner = VertexInterner()
        interner.intern("a")
        outbox = ColumnarOutbox()
        outbox.add_point("a", "ghost", 9.0)
        blob = build_frame(_outbox_worker(outbox), interner, 0)
        frame = parse_frame(blob, interner)
        assert frame.point == ([interner.get("a")], [UNINTERNED], [0], [9.0])
        assert frame.fallback == ["ghost"]
        assert frame.pickle_fallbacks == 1

    def test_state_sections_ship_values_and_halts(self):
        interner = VertexInterner()
        for vid in ("a", "b"):
            interner.intern(vid)
        worker = _outbox_worker(ColumnarOutbox(), worker_id=1)
        worker.values = {"a": 0.25, "b": 0.75}
        worker.halted = {"a": False, "b": True}
        worker.edges = {"a": {"b": None}}
        blob = build_frame(worker, interner, 2)
        frame = parse_frame(blob, interner)
        assert frame.values == worker.values
        assert frame.halted == worker.halted
        assert frame.edges is None  # clean adjacency never ships

    def test_dirty_adjacency_ships_edges(self):
        interner = VertexInterner()
        interner.intern("a")
        worker = _outbox_worker(
            ColumnarOutbox(), worker_id=1, edges_dirty=True
        )
        worker.values = {"a": 1.0}
        worker.halted = {"a": False}
        worker.edges = {"a": {"z": 4}}
        blob = build_frame(worker, interner, 2)
        frame = parse_frame(blob, interner)
        assert frame.edges_dirty
        assert frame.edges == {"a": {"z": 4}}

    def test_bad_magic_rejected(self):
        with pytest.raises(PregelError):
            parse_frame(b"NOPE" + b"\x00" * 8, VertexInterner())


class TestTransport:
    """Under ``processes`` a frame crosses the pipe as plain bytes inside
    the pickled :class:`~repro.pregel.runtime.StepOutcome`."""

    def test_inline_roundtrip(self):
        interner = VertexInterner()
        for vid in ("a", "b"):
            interner.intern(vid)
        outbox = ColumnarOutbox()
        outbox.add_point("a", "b", 1.5)
        outbox.add_broadcast("b", 2.5, fan_out=1)
        blob = build_frame(_outbox_worker(outbox, worker_id=2), interner, 4)
        assert type(blob) is bytes
        shipped = pickle.loads(
            pickle.dumps(StepOutcome(worker_id=2, frame=blob))
        )
        assert shipped.frame == blob
        frame = parse_frame(shipped.frame, interner)
        assert (frame.worker_id, frame.superstep, frame.messages) == (2, 4, 2)
        assert frame.point == (
            [interner.get("a")], [interner.get("b")], [0], [1.5]
        )

    def test_failed_barrier_releases_unretrieved_frames(self, monkeypatch):
        """Worker 1's frame fails to parse: the barrier raises, the frames
        of workers 2 and 3 leave no shared-memory segment behind, and the
        next job runs as usual."""
        from repro.algorithms import PageRank
        from repro.datasets import load_dataset
        from repro.pregel import engine, run_computation

        graph = load_dataset("web-BS", num_vertices=40, seed=3)

        def job():
            return run_computation(
                lambda: PageRank(iterations=2), graph, num_workers=4,
                executor="processes",
            )

        def parse(blob, interner):
            frame = parse_frame(blob, interner)
            if frame.worker_id == 1:
                raise PregelError("frame 1 is unreadable")
            return frame

        before = _shm_segments()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "parse_frame", parse)
            with pytest.raises(PregelError, match="unreadable"):
                job()
        assert _shm_segments() - before == set()
        assert dict(job().vertex_values) == dict(
            run_computation(
                lambda: PageRank(iterations=2), graph, num_workers=4,
                executor="serial",
            ).vertex_values
        )


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
        worker = _outbox_worker(outbox, worker_id=worker_id)
        blob = build_frame(worker, run_state.interner, 0)
        columnar.absorb_frame(parse_frame(blob, run_state.interner))
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
    @pytest.mark.parametrize("framed", [False, True])
    def test_equal_reprs_tie_by_worker_not_by_load_order(self, framed):
        """A vertex created at a barrier has no load order; a source key
        that fell back on it would put worker 1's message first."""
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
            if framed:
                blob = build_frame(
                    _outbox_worker(outbox, worker_id), run_state.interner, 0
                )
                store.absorb_frame(parse_frame(blob, run_state.interner))
            else:
                store.absorb_outbox(worker_id, outbox)
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


# ---------------------------------------------------------------------------
# Frames ride the step outcome: no shared memory, no resource tracker
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", "src")

#: Run in a fresh interpreter. With ``blocked``, ``multiprocessing.shared_memory``
#: cannot be imported there, and forked workers inherit that: each job must
#: behave as it does with the module available. Either way no job imports
#: the module or starts multiprocessing's resource tracker.
_NO_SHARED_MEMORY_JOBS = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["multiprocessing.shared_memory"] = None
from multiprocessing import resource_tracker

from repro.algorithms import PageRank
from repro.chaos import FaultPlan, FaultSpec, run_chaos
from repro.common.errors import ComputeError, PregelError
from repro.datasets import load_dataset, premade_graph
from repro.pregel import Computation, engine, run_computation

graph = load_dataset("web-BS", num_vertices=40, seed=3)


def values(**kwargs):
    result = run_computation(
        lambda: PageRank(iterations=3), graph, num_workers=3, **kwargs
    )
    return dict(result.vertex_values)


serial = values(executor="serial")
assert values(executor="processes") == serial, "memory plane"
assert values(executor="processes", store="spill") == serial, "spill plane"


class FailAtOne(Computation):
    def compute(self, ctx, messages):
        if ctx.superstep == 1 and ctx.vertex_id == 1:
            raise ValueError("vertex 1 fails")
        ctx.send_message_to_all_neighbors(1.0)


def failure(executor):
    try:
        run_computation(FailAtOne, graph, num_workers=3, executor=executor)
    except ComputeError as exc:
        return exc.vertex_id, exc.superstep, str(exc.original)
    raise AssertionError("compute() error did not propagate")


assert failure("processes") == failure("serial") == (1, 1, "vertex 1 fails")

report = run_chaos(
    lambda: PageRank(iterations=5), premade_graph("petersen"),
    FaultPlan(name="one-crash", faults=(
        FaultSpec(kind="worker_crash", superstep=3, worker_id=1),
    )),
    seed=3, num_workers=2, executor="processes",
)
assert report.ok, report.failures
assert report.rollbacks == 1
assert report.injected_digest == report.baseline_digest

parse_frame = engine.parse_frame


def parse(blob, interner):
    frame = parse_frame(blob, interner)
    if frame.worker_id == 1:
        raise PregelError("frame 1 is unreadable")
    return frame


engine.parse_frame = parse
try:
    run_computation(
        lambda: PageRank(iterations=2), graph, num_workers=4,
        executor="processes",
    )
except PregelError as exc:
    assert "unreadable" in str(exc), exc
else:
    raise AssertionError("an unparsable frame did not fail the barrier")
engine.parse_frame = parse_frame

assert sys.modules.get("multiprocessing.shared_memory") is None
assert resource_tracker._resource_tracker._pid is None, "tracker started"
print("ok")
"""


@pytest.mark.parametrize("mode", ["blocked", "available"])
def test_processes_jobs_run_without_shared_memory(mode):
    """Memory and spill planes, a compute() error, a worker-crash
    rollback and an unparsable frame at the barrier all behave as usual
    with ``multiprocessing.shared_memory`` unimportable, and no job
    imports it or starts a resource tracker when it is available."""
    done = subprocess.run(
        [sys.executable, "-c", _NO_SHARED_MEMORY_JOBS, mode],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(SRC)),
    )
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout.split() == ["ok"]


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
