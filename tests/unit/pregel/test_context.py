"""Unit tests for the ComputeContext."""

import pytest

from repro.common.errors import PregelError
from repro.pregel.context import ComputeContext, ComputeServices


class RecordingServices(ComputeServices):
    def __init__(self, aggregators=None):
        self.aggregators = aggregators or {}
        self.contributions = []
        self.emitted = []
        self.added = []
        self.removed = []

    def aggregated_value(self, name):
        return self.aggregators[name]

    def aggregate(self, name, contribution):
        self.contributions.append((name, contribution))

    def emit(self, source, target, value):
        self.emitted.append((source, target, value))

    def request_add_vertex(self, vertex_id, value):
        self.added.append((vertex_id, value))

    def request_remove_vertex(self, vertex_id):
        self.removed.append(vertex_id)


def make_ctx(**overrides):
    services = overrides.pop("services", RecordingServices())
    defaults = dict(
        vertex_id="v",
        value=10,
        edges={"a": 1.0, "b": None},
        incoming=[("s", "msg")],
        superstep=3,
        num_vertices=100,
        num_edges=300,
        services=services,
        run_seed=7,
    )
    defaults.update(overrides)
    return ComputeContext(**defaults), services


class TestValueAndGlobals:
    def test_exposes_the_five_context_pieces(self):
        ctx, _services = make_ctx()
        assert ctx.vertex_id == "v"
        assert dict(ctx.out_edges()) == {"a": 1.0, "b": None}
        assert ctx.incoming_messages() == [("s", "msg")]
        assert ctx.superstep == 3
        assert (ctx.num_vertices, ctx.num_edges) == (100, 300)

    def test_set_value(self):
        ctx, _services = make_ctx()
        ctx.set_value(42)
        assert ctx.value == 42


class TestEdges:
    def test_neighbor_queries(self):
        ctx, _services = make_ctx()
        assert sorted(ctx.neighbor_ids()) == ["a", "b"]
        assert ctx.out_degree == 2
        assert ctx.has_edge("a")
        assert ctx.edge_value("a") == 1.0

    def test_edge_mutations_effective_immediately(self):
        ctx, _services = make_ctx()
        ctx.add_edge("c", 9)
        assert ctx.edge_value("c") == 9
        ctx.set_edge_value("c", 8)
        assert ctx.edge_value("c") == 8
        ctx.remove_edge("c")
        assert not ctx.has_edge("c")

    def test_remove_missing_edge_is_noop(self):
        ctx, _services = make_ctx()
        ctx.remove_edge("ghost")

    def test_missing_edge_value_raises(self):
        ctx, _services = make_ctx()
        with pytest.raises(PregelError, match="no edge"):
            ctx.edge_value("ghost")
        with pytest.raises(PregelError, match="no edge"):
            ctx.set_edge_value("ghost", 1)

    def test_edges_snapshot_is_a_copy(self):
        ctx, _services = make_ctx()
        snapshot = ctx.edges_snapshot()
        snapshot["zzz"] = 1
        assert not ctx.has_edge("zzz")


class TestMessaging:
    def test_send_message_emits_and_records(self):
        ctx, services = make_ctx()
        ctx.send_message("a", 5)
        assert services.emitted == [("v", "a", 5)]
        assert ctx.sent_messages() == [("a", 5)]

    def test_send_to_all_neighbors(self):
        ctx, services = make_ctx()
        ctx.send_message_to_all_neighbors("hello")
        assert sorted(services.emitted) == [
            ("v", "a", "hello"), ("v", "b", "hello"),
        ]

    def test_send_log_keeps_send_order_across_point_and_broadcast(self):
        ctx, _services = make_ctx()
        ctx.send_message("b", 1)
        ctx.send_message_to_all_neighbors("all")
        ctx.send_message("elsewhere", 2)
        assert ctx.sent_messages() == [
            ("b", 1), ("a", "all"), ("b", "all"), ("elsewhere", 2),
        ]

    def test_send_log_broadcast_targets_are_those_at_send_time(self):
        ctx, _services = make_ctx()
        ctx.send_message_to_all_neighbors("before")
        ctx.remove_edge("a")
        ctx.add_edge("c")
        ctx.send_message_to_all_neighbors("after")
        assert ctx.sent_messages() == [
            ("a", "before"), ("b", "before"), ("b", "after"), ("c", "after"),
        ]


class TestAggregatorsAndHalting:
    def test_aggregate_and_read(self):
        services = RecordingServices(aggregators={"phase": "X"})
        ctx, _unused = make_ctx(services=services)
        assert ctx.aggregated_value("phase") == "X"
        ctx.aggregate("count", 1)
        assert services.contributions == [("count", 1)]

    def test_vote_to_halt(self):
        ctx, _services = make_ctx()
        assert not ctx.halted
        ctx.vote_to_halt()
        assert ctx.halted

    def test_mutation_requests_forwarded(self):
        ctx, services = make_ctx()
        ctx.add_vertex_request("new", value=5)
        ctx.remove_vertex_request("old")
        assert services.added == [("new", 5)]
        assert services.removed == ["old"]


class TestRandomness:
    def test_rng_is_deterministic_per_vertex_superstep(self):
        a, _s1 = make_ctx()
        b, _s2 = make_ctx()
        assert a.random() == b.random()

    def test_rng_differs_across_supersteps(self):
        a, _s1 = make_ctx(superstep=1)
        b, _s2 = make_ctx(superstep=2)
        assert a.random() != b.random()

    def test_rng_differs_across_vertices(self):
        a, _s1 = make_ctx(vertex_id="v1")
        b, _s2 = make_ctx(vertex_id="v2")
        assert a.random() != b.random()

    def test_rng_differs_across_run_seeds(self):
        a, _s1 = make_ctx(run_seed=1)
        b, _s2 = make_ctx(run_seed=2)
        assert a.random() != b.random()

    def test_rng_cached_within_call(self):
        ctx, _services = make_ctx()
        assert ctx.rng is ctx.rng
