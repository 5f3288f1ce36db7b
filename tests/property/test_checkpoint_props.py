"""Property tests: failure recovery is invisible in the final result.

For any checkpoint interval and any injected failure point, a recovered
run must produce exactly the result of an undisturbed run — Pregel's
fault-tolerance contract, which holds here because all randomness derives
from (seed, vertex, superstep).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, RandomWalk
from repro.datasets import erdos_renyi
from repro.pregel import CheckpointConfig, run_computation
from repro.simfs import SimFileSystem
from tests.conftest import worker_crashes


class TestRecoveryTransparency:
    @given(
        st.integers(min_value=1, max_value=6),   # checkpoint interval
        st.integers(min_value=0, max_value=8),   # failure superstep
        st.integers(min_value=0, max_value=3),   # failed worker
    )
    @settings(max_examples=12, deadline=None)
    def test_pagerank_recovery_identical(self, interval, fail_at, worker):
        graph = erdos_renyi(10, 0.3, seed=4)
        baseline = run_computation(lambda: PageRank(iterations=8), graph, seed=2)
        recovered = run_computation(
            lambda: PageRank(iterations=8),
            graph,
            seed=2,
            checkpoint_config=CheckpointConfig(
                SimFileSystem(), every_n_supersteps=interval
            ),
            fault_injector=worker_crashes((fail_at, worker)),
        )
        assert recovered.recoveries == 1
        assert recovered.vertex_values == baseline.vertex_values
        assert recovered.num_supersteps == baseline.num_supersteps

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=8, deadline=None)
    def test_randomized_algorithm_recovery_identical(self, interval, fail_at):
        graph = erdos_renyi(8, 0.35, seed=1)
        baseline = run_computation(lambda: RandomWalk(5, 9), graph, seed=7)
        recovered = run_computation(
            lambda: RandomWalk(5, 9),
            graph,
            seed=7,
            checkpoint_config=CheckpointConfig(
                SimFileSystem(), every_n_supersteps=interval
            ),
            fault_injector=worker_crashes((fail_at, 0)),
        )
        assert recovered.vertex_values == baseline.vertex_values
