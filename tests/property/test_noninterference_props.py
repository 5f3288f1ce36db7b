"""Property tests: Graft observes, never perturbs.

Whatever the DebugConfig, a debugged run must produce exactly the same
vertex values, superstep count, and halt reason as the uninstrumented
engine on the same seed — the debugger's Heisenberg-freedom, which the
paper's overhead experiment silently assumes. That covers the data plane
too: message constraints are checked over the send log, so a debugged run
ships the same outbox (compact broadcasts included) as the plain one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ConnectedComponents, GCMaster, GraphColoring, RandomWalk
from repro.datasets import erdos_renyi
from repro.graft import CaptureAllActiveConfig, DebugConfig, debug_run
from repro.pregel import run_computation


class EverythingConfig(DebugConfig):
    """All five categories at once, with aggressive constraints."""

    def vertices_to_capture(self):
        return (0, 1, 2)

    def num_random_vertices_to_capture(self):
        return 3

    def capture_neighbors_of_vertices(self):
        return True

    def vertex_value_constraint(self, value, vertex_id, superstep):
        return not (isinstance(value, int) and value % 3 == 0)

    def message_value_constraint(self, message, source_id, target_id, superstep):
        return not (isinstance(message, int) and message % 2 == 0)


CONFIG_FACTORIES = [DebugConfig, CaptureAllActiveConfig, EverythingConfig]


class TestNonInterference:
    @given(
        st.integers(0, 40),
        st.integers(0, 40),
        st.sampled_from(CONFIG_FACTORIES),
    )
    @settings(max_examples=15, deadline=None)
    def test_components_unperturbed(self, graph_seed, run_seed, config_factory):
        graph = erdos_renyi(10, 0.3, seed=graph_seed, directed=False)
        plain = run_computation(ConnectedComponents, graph, seed=run_seed)
        debugged = debug_run(ConnectedComponents, graph, config_factory(),
                             seed=run_seed)
        assert debugged.ok
        assert debugged.result.vertex_values == plain.vertex_values
        assert debugged.result.num_supersteps == plain.num_supersteps
        assert debugged.result.halt_reason == plain.halt_reason

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_data_plane_unperturbed(self, graph_seed, run_seed):
        graph = erdos_renyi(10, 0.3, seed=graph_seed, directed=False)
        plain = run_computation(ConnectedComponents, graph, seed=run_seed)
        debugged = debug_run(ConnectedComponents, graph, EverythingConfig(),
                             seed=run_seed)

        def data_plane(result):
            return [
                (s.messages_sent, s.bytes_sent, s.transport_batches)
                for s in result.metrics.supersteps
            ]

        assert data_plane(debugged.result) == data_plane(plain)

    @given(st.integers(0, 40), st.sampled_from(CONFIG_FACTORIES))
    @settings(max_examples=10, deadline=None)
    def test_randomized_run_unperturbed(self, run_seed, config_factory):
        # The RNG is derived from (seed, vertex, superstep) — never from
        # whether anyone is watching.
        graph = erdos_renyi(8, 0.35, seed=3)
        plain = run_computation(lambda: RandomWalk(4, 11), graph, seed=run_seed)
        debugged = debug_run(lambda: RandomWalk(4, 11), graph, config_factory(),
                             seed=run_seed)
        assert debugged.result.vertex_values == plain.vertex_values

    @given(st.integers(0, 20))
    @settings(max_examples=6, deadline=None)
    def test_multiphase_run_unperturbed(self, run_seed):
        graph = erdos_renyi(8, 0.3, seed=5, directed=False)
        plain = run_computation(
            GraphColoring, graph, master=GCMaster(), seed=run_seed,
            max_supersteps=200,
        )
        debugged = debug_run(
            GraphColoring, graph, CaptureAllActiveConfig(),
            master=GCMaster(), seed=run_seed, max_supersteps=200,
        )
        assert debugged.result.vertex_values == plain.vertex_values
        assert debugged.result.aggregator_values == plain.aggregator_values
