"""Unit tests for the simulated worker."""

import pytest

from repro.common.errors import ComputeError
from repro.pregel import Computation
from repro.pregel.aggregators import AggregatorRegistry, SumAggregator
from repro.pregel.messages import MessageStore
from repro.pregel.worker import _LEARNED_SIZES, Worker, _estimate_bytes


class Echo(Computation):
    """Forwards each incoming message value to every neighbor."""

    def compute(self, ctx, messages):
        for value in messages:
            ctx.send_message_to_all_neighbors(value)
        ctx.vote_to_halt()


class Crash(Computation):
    def compute(self, ctx, messages):
        raise ValueError("boom")


def loaded_worker():
    worker = Worker(worker_id=0, run_seed=1)
    worker.load_vertex("a", 0, {"b": None})
    worker.load_vertex("b", 0, {"a": None})
    return worker


class TestEstimateBytes:
    """Regression tests: byte accounting must be O(1), never O(payload)."""

    def test_scalar_sizes_are_fixed(self):
        assert _estimate_bytes(0) == _estimate_bytes(10**100)
        assert _estimate_bytes(0.5) == _estimate_bytes(1e300)
        assert _estimate_bytes(None) == 17
        assert _estimate_bytes(True) == _estimate_bytes(False)

    def test_strings_scale_with_length(self):
        assert _estimate_bytes("abcd") == _estimate_bytes("") + 4
        assert _estimate_bytes(b"abcd") == _estimate_bytes(b"") + 4

    def test_containers_use_shallow_estimate(self):
        # A list of huge strings must cost the same as a list of ints of
        # equal length: the estimate never walks the elements (the old
        # len(str(value)) implementation did, and dominated send time for
        # large payloads).
        big = ["x" * 100_000] * 8
        small = [1] * 8
        assert _estimate_bytes(big) == _estimate_bytes(small)
        assert _estimate_bytes({i: big for i in range(4)}) == _estimate_bytes(
            {i: 0 for i in range(4)}
        )

    def test_container_subclasses_take_container_path(self):
        class MyList(list):
            def __repr__(self):  # pragma: no cover - must never be called
                raise AssertionError("estimator stringified a container")

        assert _estimate_bytes(MyList([1, 2, 3])) == 32 + 8 * 3

    def test_unknown_type_repr_cached_per_type(self):
        calls = []

        class Payload:
            def __repr__(self):
                calls.append(1)
                return "Payload()"

        _LEARNED_SIZES.pop(Payload, None)
        first = _estimate_bytes(Payload())
        second = _estimate_bytes(Payload())
        assert first == second == 16 + len("Payload()")
        assert len(calls) == 1  # repr ran once; later instances hit the cache
        _LEARNED_SIZES.pop(Payload, None)

    def test_unreprable_value_falls_back(self):
        class Broken:
            def __repr__(self):
                raise RuntimeError("no repr")

        _LEARNED_SIZES.pop(Broken, None)
        assert _estimate_bytes(Broken()) == 16 + 64
        _LEARNED_SIZES.pop(Broken, None)


class TestVertexState:
    def test_load_and_counts(self):
        worker = loaded_worker()
        assert worker.num_vertices == 2
        assert worker.num_edges == 2
        assert worker.has_vertex("a")

    def test_remove_vertex(self):
        worker = loaded_worker()
        worker.remove_vertex("a")
        assert not worker.has_vertex("a")
        assert worker.num_vertices == 1

    def test_remove_missing_vertex_is_noop(self):
        loaded_worker().remove_vertex("ghost")

    def test_edge_map_copied_on_load(self):
        worker = Worker(0, run_seed=0)
        edges = {"x": 1}
        worker.load_vertex("v", None, edges)
        edges["y"] = 2
        assert "y" not in worker.edges["v"]


class TestActivation:
    def test_all_active_in_superstep_zero(self):
        worker = loaded_worker()
        assert worker.active_vertices(0, MessageStore()) == ["a", "b"]

    def test_halted_vertices_skip_later_supersteps(self):
        worker = loaded_worker()
        worker.halted["a"] = True
        assert worker.active_vertices(1, MessageStore()) == ["b"]

    def test_messages_wake_halted_vertices(self):
        worker = loaded_worker()
        worker.halted["a"] = True
        store = MessageStore()
        store.deliver("b", "a", 1)
        assert worker.active_vertices(1, store) == ["a", "b"]


class TestRunSuperstep:
    def test_messages_forwarded(self):
        worker = loaded_worker()
        worker.prepare_superstep(AggregatorRegistry())
        store = MessageStore()
        store.deliver("b", "a", "payload")
        worker.run_superstep(Echo(), 1, store, 2, 2)
        # One broadcast = one compact record in the packed outbox.
        outbox = worker.outbox
        assert outbox.bcast_sources == ["a"]
        assert outbox.bcast_column.values() == ["payload"]
        assert outbox.point_targets == []
        assert outbox.messages == 1
        assert worker.messages_sent == 1
        assert worker.bytes_sent > 0

    def test_halt_state_recorded(self):
        worker = loaded_worker()
        worker.prepare_superstep(AggregatorRegistry())
        worker.run_superstep(Echo(), 0, MessageStore(), 2, 2)
        assert worker.all_halted()

    def test_value_updates_persisted(self):
        class SetTo9(Computation):
            def compute(self, ctx, messages):
                ctx.set_value(9)

        worker = loaded_worker()
        worker.prepare_superstep(AggregatorRegistry())
        worker.run_superstep(SetTo9(), 0, MessageStore(), 2, 2)
        assert dict(worker.vertex_values()) == {"a": 9, "b": 9}

    def test_compute_calls_counted(self):
        worker = loaded_worker()
        worker.prepare_superstep(AggregatorRegistry())
        worker.run_superstep(Echo(), 0, MessageStore(), 2, 2)
        assert worker.compute_calls == 2

    def test_aggregation_reaches_registry(self):
        class Contribute(Computation):
            def compute(self, ctx, messages):
                ctx.aggregate("n", 1)
                ctx.vote_to_halt()

        registry = AggregatorRegistry()
        registry.register("n", SumAggregator())
        worker = loaded_worker()
        worker.prepare_superstep(registry)
        worker.run_superstep(Contribute(), 0, MessageStore(), 2, 2)
        registry.barrier()
        assert registry.visible_value("n") == 2

    def test_raise_policy_wraps_with_location(self):
        worker = loaded_worker()
        worker.prepare_superstep(AggregatorRegistry())
        with pytest.raises(ComputeError) as info:
            worker.run_superstep(Crash(), 0, MessageStore(), 2, 2)
        assert info.value.vertex_id == "a"
        assert info.value.superstep == 0
        assert isinstance(info.value.original, ValueError)

    def test_halt_vertex_policy_continues(self):
        worker = loaded_worker()
        worker.prepare_superstep(AggregatorRegistry())
        worker.run_superstep(Crash(), 0, MessageStore(), 2, 2, on_error="halt_vertex")
        assert len(worker.compute_errors) == 2
        assert worker.all_halted()

    def test_prepare_superstep_resets_outputs(self):
        worker = loaded_worker()
        worker.prepare_superstep(AggregatorRegistry())
        store = MessageStore()
        store.deliver("b", "a", 1)
        worker.run_superstep(Echo(), 1, store, 2, 2)
        worker.prepare_superstep(AggregatorRegistry())
        assert worker.outbox.messages == 0
        assert worker.outbox.batch_count() == 0
        assert worker.outbox.bcast_sources == []
        assert worker.messages_sent == 0
        assert worker.compute_calls == 0
