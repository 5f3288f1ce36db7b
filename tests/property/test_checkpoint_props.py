"""Property tests: failure recovery is invisible in the final result.

For any checkpoint interval and any injected failure point, a recovered
run must produce exactly the result of an undisturbed run — Pregel's
fault-tolerance contract, which holds here because all randomness derives
from (seed, vertex, superstep).
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, RandomWalk
from repro.common.serialization import register_value_type
from repro.datasets import erdos_renyi
from repro.pregel import CheckpointConfig, HashPartitioner, run_computation
from repro.pregel.aggregators import AggregatorRegistry
from repro.pregel.checkpoint import (
    read_checkpoint,
    restore_workers,
    write_checkpoint,
)
from repro.pregel.messages import MessageStore
from repro.pregel.store import SpillStore
from repro.pregel.worker import SpilledWorker, Worker
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


@register_value_type
@dataclass(frozen=True)
class Score:
    """A registered dataclass vertex/message value."""

    rank: float
    label: str


IDS = st.one_of(
    st.integers(-5, 40),
    st.text(alphabet="ab1", max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from(["l", "r"])),
)
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10, 10),
    st.none(),
    st.builds(Score, st.floats(0, 1), st.sampled_from(["x", "y"])),
)
EDGE_VALUES = st.one_of(st.none(), st.floats(0, 4), st.integers(0, 3))
#: vertex id -> (value, {target: edge value} (often empty), halted)
VERTICES = st.dictionaries(
    IDS,
    st.tuples(
        VALUES, st.dictionaries(IDS, EDGE_VALUES, max_size=3), st.booleans()
    ),
    max_size=12,
)
MESSAGES = st.lists(st.tuples(st.one_of(IDS, st.none()), IDS, VALUES), max_size=10)


def _cluster(spill, partitioner):
    """Fresh workers and their (empty) location map on one plane."""
    locations = {}
    if not spill:
        return [Worker(w, 0) for w in range(partitioner.num_workers)], locations
    store = SpillStore(SimFileSystem(), partitioner.num_partitions, cache_bytes=1)
    store.builder().finish()
    return [
        SpilledWorker(w, 0, store, partitioner, locations)
        for w in range(partitioner.num_workers)
    ], locations


def _state(workers):
    return [list(worker.iter_state()) for worker in workers]


class TestCheckpointRoundTrip:
    @given(
        vertices=VERTICES,
        messages=MESSAGES,
        num_workers=st.integers(1, 3),    # few vertices: some workers are empty
        spilled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_state_and_messages_round_trip_on_both_planes(
        self, vertices, messages, num_workers, spilled
    ):
        partitioner = HashPartitioner(num_workers, num_partitions=num_workers + 2)
        workers, locations = _cluster(spilled, partitioner)
        for vertex_id, (value, edges, halted) in vertices.items():
            locations[vertex_id] = partitioner.partition_for(vertex_id)
            owner = workers[partitioner.worker_for(vertex_id)]
            owner.load_vertex(vertex_id, value, edges)
            if halted:
                # restore_state is the one setter both planes share.
                kept = list(owner.iter_state())
                owner.restore_state(
                    {v: value for v, value, _, _ in kept},
                    {v: edge_map for v, _, edge_map, _ in kept},
                    {v: flag or v == vertex_id for v, _, _, flag in kept},
                )
        incoming = MessageStore()
        for message in messages:
            incoming.deliver(*message)

        config = CheckpointConfig(SimFileSystem())
        path = write_checkpoint(config, 3, workers, AggregatorRegistry(), incoming)
        checkpoint = read_checkpoint(config, path)

        restored, restored_locations = _cluster(spilled, partitioner)
        restored_locations["stale"] = 0
        restore_workers(restored, checkpoint, partitioner, restored_locations)
        assert checkpoint["superstep"] == 3
        assert restored_locations == locations
        for before, after in zip(_state(workers), _state(restored)):
            # Same vertices, same order, same types (``1 == 1.0 == True``).
            assert after == before and repr(after) == repr(before)
        assert list(checkpoint["incoming"].iter_checkpoint_messages()) == list(
            incoming.iter_checkpoint_messages()
        )
