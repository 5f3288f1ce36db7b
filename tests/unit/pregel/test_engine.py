"""Unit tests for the BSP engine loop."""

import pytest

from repro.common.errors import ComputeError, EngineStateError, PregelError
from repro.graph import GraphBuilder
from repro.pregel import (
    Computation,
    ExplicitPartitioner,
    MasterComputation,
    MinCombiner,
    PregelEngine,
    SumAggregator,
    run_computation,
)
from repro.pregel.halting import CONVERGED, MASTER_HALT, MAX_SUPERSTEPS


class HaltImmediately(Computation):
    def compute(self, ctx, messages):
        ctx.vote_to_halt()


class CountSupersteps(Computation):
    """Value = how many supersteps this vertex computed in."""

    def initial_value(self, vertex_id, input_value):
        return 0

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + 1)
        if ctx.superstep >= 2:
            ctx.vote_to_halt()
        else:
            ctx.send_message_to_all_neighbors("tick")


class PingForever(Computation):
    def compute(self, ctx, messages):
        ctx.send_message_to_all_neighbors("ping")


def chain(n=3):
    return GraphBuilder(directed=False).path(*range(n)).build()


class TestTermination:
    def test_converges_when_all_halt_silently(self):
        result = run_computation(HaltImmediately, chain())
        assert result.halt_reason == CONVERGED
        assert result.num_supersteps == 1

    def test_messages_keep_computation_alive(self):
        result = run_computation(CountSupersteps, chain())
        assert result.num_supersteps == 3
        assert all(v == 3 for v in result.vertex_values.values())

    def test_max_supersteps_cap(self):
        result = run_computation(PingForever, chain(), max_supersteps=5)
        assert result.halt_reason == MAX_SUPERSTEPS
        assert result.num_supersteps == 5

    def test_master_halt(self):
        class StopAt3(MasterComputation):
            def master_compute(self, master_ctx):
                if master_ctx.superstep == 3:
                    master_ctx.halt_computation()

        result = run_computation(PingForever, chain(), master=StopAt3())
        assert result.halt_reason == MASTER_HALT
        assert result.num_supersteps == 3

    def test_converged_flag(self):
        assert run_computation(HaltImmediately, chain()).converged


class TestMessagingSemantics:
    def test_messages_arrive_next_superstep(self):
        deliveries = {}

        class TrackArrival(Computation):
            def compute(self, ctx, messages):
                if messages:
                    deliveries.setdefault(ctx.superstep, 0)
                    deliveries[ctx.superstep] += len(messages)
                if ctx.superstep == 0:
                    ctx.send_message_to_all_neighbors("x")
                ctx.vote_to_halt()

        run_computation(TrackArrival, chain())
        assert set(deliveries) == {1}

    def test_combiner_reduces_message_count(self):
        class Blast(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.send_message_to_all_neighbors(1)
                ctx.vote_to_halt()

        star = GraphBuilder(directed=False)
        for leaf in range(1, 6):
            star.edge(0, leaf)
        result = run_computation(Blast, star.build(), combiner=MinCombiner())
        assert result.metrics.total_messages_combined > 0

    def test_message_to_missing_vertex_creates_it(self):
        class Spawn(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.send_message("brand-new", 1)
                ctx.vote_to_halt()

            def default_vertex_value(self, vertex_id):
                return "default"

        result = run_computation(Spawn, chain())
        assert result.vertex_values["brand-new"] == "default"

    def test_deterministic_across_runs(self):
        first = run_computation(CountSupersteps, chain(6), num_workers=3, seed=9)
        second = run_computation(CountSupersteps, chain(6), num_workers=3, seed=9)
        assert first.vertex_values == second.vertex_values
        assert first.num_supersteps == second.num_supersteps

    def test_worker_count_does_not_change_results(self):
        byone = run_computation(CountSupersteps, chain(8), num_workers=1)
        byfive = run_computation(CountSupersteps, chain(8), num_workers=5)
        assert byone.vertex_values == byfive.vertex_values


class TestMutations:
    def test_add_vertex_request(self):
        class AddOne(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.add_vertex_request("added", value=5)
                ctx.vote_to_halt()

        result = run_computation(AddOne, chain())
        assert result.vertex_values["added"] == 5

    def test_remove_vertex_request(self):
        class RemoveTwo(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.remove_vertex_request(2)
                ctx.vote_to_halt()

        result = run_computation(RemoveTwo, chain())
        assert 2 not in result.vertex_values

    def test_edge_mutations_persist_across_supersteps(self):
        class DropEdgesThenCount(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    for target in list(ctx.neighbor_ids()):
                        ctx.remove_edge(target)
                    return
                ctx.set_value(ctx.out_degree)
                ctx.vote_to_halt()

        result = run_computation(DropEdgesThenCount, chain())
        assert all(v == 0 for v in result.vertex_values.values())


class EditsEdges(Computation):
    """Edits its edges for three supersteps; remembers the edge count
    every superstep saw. On a 6-cycle (6 edges): +2 each at superstep 0
    (re-adding an existing edge changes nothing), -1 each at 1 (removing
    a missing edge changes nothing), values only at 2, and vertex 5 is
    removed at that barrier, taking its 2 edges with it."""

    def initial_value(self, vertex_id, input_value):
        return ()

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + (ctx.num_edges,))
        vertex, step = ctx.vertex_id, ctx.superstep
        if step == 0:
            ctx.add_edge((vertex + 1) % 6)
            ctx.add_edge((vertex + 2) % 6)
            ctx.add_edge((vertex + 3) % 6)
        elif step == 1:
            ctx.remove_edge((vertex + 2) % 6)
            ctx.remove_edge("nope")
        elif step == 2:
            ctx.set_edge_value((vertex + 1) % 6, 5)
            if vertex == 0:
                ctx.remove_vertex_request(5)
        else:
            ctx.vote_to_halt()


class TestEdgeCount:
    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_maintained_count_matches_a_recount(self, executor):
        graph = GraphBuilder().cycle(*range(6)).build()
        engine = PregelEngine(
            EditsEdges, graph, num_workers=2, executor=executor
        )
        result = engine.run()
        for worker in engine.workers:
            assert worker.num_edges == sum(map(len, worker.edges.values()))
        assert engine.num_edges == 10
        assert result.vertex_values == {
            vertex: (6, 18, 12, 10) for vertex in range(5)
        }


class TestAggregatorsAndGlobals:
    def test_engine_level_aggregators(self):
        class Count(Computation):
            def compute(self, ctx, messages):
                ctx.aggregate("n", 1)
                ctx.vote_to_halt()

        result = run_computation(Count, chain(), aggregators={"n": SumAggregator()})
        assert result.aggregator_values["n"] == 3

    def test_global_counts_exposed(self):
        seen = {}

        class Observe(Computation):
            def compute(self, ctx, messages):
                seen[ctx.vertex_id] = (ctx.num_vertices, ctx.num_edges)
                ctx.vote_to_halt()

        run_computation(Observe, chain())
        assert all(counts == (3, 4) for counts in seen.values())

    def test_initial_value_hook(self):
        class FromInput(Computation):
            def initial_value(self, vertex_id, input_value):
                return (vertex_id, input_value)

            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        g = GraphBuilder().vertex(1, value="in").build()
        result = run_computation(FromInput, g)
        assert result.vertex_values[1] == (1, "in")


class TestErrorsAndValidation:
    def test_compute_error_propagates_with_location(self):
        class Fail(Computation):
            def compute(self, ctx, messages):
                raise KeyError("missing")

        with pytest.raises(ComputeError) as info:
            run_computation(Fail, chain())
        assert info.value.superstep == 0

    def test_halt_vertex_policy_collects_errors(self):
        class FailOnZero(Computation):
            def compute(self, ctx, messages):
                if ctx.vertex_id == 0:
                    raise ValueError("just me")
                ctx.vote_to_halt()

        result = run_computation(FailOnZero, chain(), on_error="halt_vertex")
        assert len(result.compute_errors) == 1
        assert result.compute_errors[0].vertex_id == 0

    def test_engine_single_use(self):
        engine = PregelEngine(HaltImmediately, chain())
        engine.run()
        with pytest.raises(EngineStateError):
            engine.run()

    def test_bad_policy_rejected(self):
        with pytest.raises(PregelError, match="on_error"):
            PregelEngine(HaltImmediately, chain(), on_error="wat")

    def test_bad_max_supersteps_rejected(self):
        with pytest.raises(PregelError):
            PregelEngine(HaltImmediately, chain(), max_supersteps=0)

    def test_input_graph_not_mutated(self):
        class Vandal(Computation):
            def compute(self, ctx, messages):
                ctx.set_value("changed")
                ctx.remove_edge(next(iter(ctx.neighbor_ids()), None))
                ctx.vote_to_halt()

        g = chain()
        edges_before = set(g.edges())
        run_computation(Vandal, g)
        assert set(g.edges()) == edges_before
        assert all(g.vertex_value(v) is None for v in g.vertex_ids())


class TestListeners:
    def test_listener_hooks_fire_in_order(self):
        events = []

        class Listener:
            def on_start(self, engine):
                events.append("start")

            def on_master_computed(self, superstep, master_ctx):
                events.append(f"master{superstep}")

            def on_superstep_end(self, superstep, metrics):
                events.append(f"end{superstep}")

            def on_finish(self, result):
                events.append("finish")

        run_computation(HaltImmediately, chain(), listeners=[Listener()])
        assert events == ["start", "master0", "end0", "finish"]

    def test_partial_listeners_allowed(self):
        class OnlyFinish:
            def on_finish(self, result):
                self.result = result

        listener = OnlyFinish()
        run_computation(HaltImmediately, chain(), listeners=[listener])
        assert listener.result.converged


class TestEngineQueries:
    def test_vertex_value_and_edges_lookup(self):
        engine = PregelEngine(HaltImmediately, chain())
        engine.run()
        assert engine.vertex_value(0) is None
        assert engine.has_vertex(1)
        assert engine.vertex_edges(1) == {0: None, 2: None}

    def test_missing_vertex_lookup_raises(self):
        engine = PregelEngine(HaltImmediately, chain())
        engine.run()
        with pytest.raises(PregelError):
            engine.vertex_value("ghost")

    def test_explicit_partitioner_controls_placement(self):
        engine = PregelEngine(
            HaltImmediately,
            chain(),
            partitioner=ExplicitPartitioner(2, {0: 0, 1: 1, 2: 1}),
        )
        engine.run()
        assert engine.workers[0].has_vertex(0)
        assert engine.workers[1].has_vertex(1)
        assert engine.workers[1].has_vertex(2)
