"""Unit tests for the out-of-core partitioned store (pages, runs, LRU).

The spill plane's contract is byte-exact state fidelity: everything that
goes through a page or run file must come back identical, in the same
canonical order, regardless of eviction timing.
"""

import pytest

from repro.pregel.partition import HashPartitioner
from repro.pregel.store import (
    RunOutbox,
    SpillStore,
    SpilledMessageStore,
    decode_segment,
    encode_segment,
    iter_frames,
)
from repro.pregel.store.runs import (
    decode_run_section,
    read_directory,
    run_path,
)
from repro.simfs.filesystem import SimFileSystem


# -- page segments --------------------------------------------------------


def _entries(blob):
    """Re-zip decode_segment's columns into the encoder's entry tuples."""
    ids, values, edges, halted, fallback = decode_segment(blob)
    return list(zip(ids, values, edges, halted)), fallback


class TestPageSegments:
    def test_float_values_round_trip(self):
        entries = [
            (i, float(i) / 3.0, {i + 1: None, i + 2: 0.5}, i % 2 == 0)
            for i in range(50)
        ]
        decoded, fallback = _entries(encode_segment(entries))
        assert decoded == entries
        assert not fallback  # floats ride the typed column

    def test_object_values_use_pickled_fallback(self):
        entries = [
            (f"v{i}", (i, [i, i + 1], {"k": i}), {}, False) for i in range(5)
        ]
        decoded, fallback = _entries(encode_segment(entries))
        assert decoded == entries
        assert fallback

    def test_mixed_and_none_values(self):
        entries = [
            (0, None, {1: None}, False),
            (1, 2.5, {}, True),
            ((2, "tuple-id"), "text", {0: "w"}, False),
        ]
        decoded, _fallback = _entries(encode_segment(entries))
        assert decoded == entries

    def test_iter_frames_parses_concatenated_blocks(self):
        from repro.simfs import BlockWriter

        fs = SimFileSystem()
        writer = BlockWriter(fs, "/p.page")
        first = [(0, 1.0, {}, False)]
        second = [(1, 2.0, {0: None}, True)]
        writer.write_block(encode_segment(first))
        writer.write_block(encode_segment(second))
        writer.close()
        frames = list(iter_frames(fs.read_bytes("/p.page")))
        assert [_entries(frame)[0] for frame in frames] == [first, second]


# -- run files ------------------------------------------------------------


def _outbox(fs, worker_id, locations, partitions=1, **kwargs):
    return RunOutbox(
        fs, run_path("/spill", 1, worker_id),
        HashPartitioner(1, num_partitions=partitions), locations, **kwargs,
    )


class TestRunFiles:
    def test_sections_round_trip_in_emission_order(self):
        fs = SimFileSystem()
        outbox = _outbox(fs, 0, {"a": 0, "b": 1}, partitions=2)
        for source, target, value in [(3, "b", 1.5), (1, "a", 0.5), (2, "a", -1.0)]:
            outbox.add_point(source, target, value)
        outbox.seal()
        path = run_path("/spill", 1, 0)
        sections = {
            partition_id: decode_run_section(fs.read_range(path, offset, length))
            for partition_id, offset, length in read_directory(fs, path)
        }
        # Cut by destination partition, unsorted: emission order survives.
        assert sections == {
            1: (["b"], [3], [1.5]),
            0: (["a", "a"], [1, 2], [0.5, -1.0]),
        }

    def test_chunks_and_workers_deliver_in_canonical_order(self):
        fs = SimFileSystem()
        locations = {i: 0 for i in range(10)}
        # Two workers emit interleaved messages for the same partition,
        # one message per chunk, so every section holds a single entry.
        for worker_id, pairs in ((0, [(5, 2), (1, 7)]), (1, [(3, 2), (0, 7)])):
            outbox = _outbox(fs, worker_id, locations, chunk_entries=1)
            for source, target in pairs:
                outbox.add_point(source, target, float(source))
            outbox.seal()
            assert len(read_directory(fs, outbox.path)) == 2
        view = SpilledMessageStore(fs, "/spill", 1, 1).load_partition(0)
        assert view.inbox_values(2) == [3.0, 5.0]
        assert view.inbox_values(7) == [0.0, 1.0]
        assert view.inbox(7) == [(0, 0.0), (1, 1.0)]
        assert len(view.incoming_view(2)) == 2

    def test_a_silent_worker_writes_no_file(self):
        fs = SimFileSystem()
        outbox = _outbox(fs, 0, {})
        outbox.seal()
        assert not fs.exists(outbox.path)

    def test_router_records_suspects_for_unknown_targets(self):
        fs = SimFileSystem()
        outbox = _outbox(fs, 0, {1: 0})
        outbox.add_point(1, "ghost", 1.0)
        outbox.add_broadcast_explicit(1, ("ghost", 1), 2.0)
        outbox.seal()
        assert outbox.suspect_counts == {"ghost": 2}

    def test_tuple_values_count_a_pickle_fallback(self):
        outbox = _outbox(SimFileSystem(), 0, {1: 0})
        outbox.add_point(1, 1, ("ping", 3))
        outbox.seal()
        assert outbox.pickle_fallbacks == 1


# -- the LRU store --------------------------------------------------------


def _loaded_store(num_partitions=4, cache_bytes=1 << 20, entries_per=6):
    store = SpillStore(
        filesystem=SimFileSystem(), num_partitions=num_partitions,
        cache_bytes=cache_bytes,
    )
    builder = store.builder()
    for partition_id in range(num_partitions):
        for i in range(entries_per):
            vertex_id = partition_id * 100 + i
            builder.add(
                partition_id, vertex_id, float(vertex_id),
                {vertex_id + 1: None},
            )
    builder.finish()
    return store


class TestSpillStore:
    def test_build_then_read_back(self):
        store = _loaded_store()
        page = store.acquire(2)
        try:
            assert page.values[200] == 200.0
            assert page.edges[201] == {202: None}
            assert page.halted[203] is False
        finally:
            store.release(2)

    def test_summaries_survive_eviction(self):
        store = _loaded_store(num_partitions=3, entries_per=4)
        assert store.num_vertices(range(3)) == 12
        assert store.num_edges(range(3)) == 12
        assert not store.all_halted(range(3))

    def test_eviction_under_tiny_budget_spills_dirty_pages(self):
        store = _loaded_store(num_partitions=4, cache_bytes=1)
        for partition_id in range(4):
            page = store.acquire(partition_id)
            try:
                page.values[partition_id * 100] = -1.0
            finally:
                store.release(partition_id, dirty=True)
        # Budget of one byte: nothing stays resident after release.
        assert store.resident_partitions() == 0
        assert store.pages_spilled >= 4
        # Dirty state must come back from disk intact.
        page = store.acquire(0)
        try:
            assert page.values[0] == -1.0
        finally:
            store.release(0)

    def test_pinned_pages_are_never_evicted(self):
        store = _loaded_store(num_partitions=2, cache_bytes=1)
        first = store.acquire(0)
        second = store.acquire(1)  # over budget, but both pinned
        assert first.values and second.values
        store.release(1)
        store.release(0)

    def test_cache_hit_and_miss_accounting(self):
        store = _loaded_store(num_partitions=2, cache_bytes=1 << 20)
        store.acquire(0)
        store.release(0)
        store.acquire(0)  # resident now: a hit
        store.release(0)
        counters = store.counters()
        assert counters["page_hits"] >= 1
        assert counters["page_misses"] >= 1

    def test_vertex_accessors(self):
        store = _loaded_store(num_partitions=2, entries_per=2)
        assert store.get_vertex_value(1, 100) == 100.0
        assert store.get_vertex_edges(1, 100) == {101: None}
        store.add_vertex(1, 999, 9.0, {})
        assert store.get_vertex_value(1, 999) == 9.0
        store.remove_vertex(1, 100)
        with pytest.raises(KeyError):
            store.get_vertex_value(1, 100)
        assert store.num_vertices([1]) == 2  # -100, +999

    def test_iter_partition_preserves_arrival_order(self):
        store = _loaded_store(num_partitions=1, entries_per=5)
        ids = [entry[0] for entry in store.iter_partition(0)]
        assert ids == [0, 1, 2, 3, 4]

    def test_replace_partition(self):
        store = _loaded_store(num_partitions=2, entries_per=2)
        store.replace_partition(0, {7: 7.0}, {7: {}}, {7: True})
        assert store.num_vertices([0]) == 1
        assert store.get_vertex_value(0, 7) == 7.0
        assert store.all_halted([0])

    def test_replace_pinned_partition_refused(self):
        store = _loaded_store(num_partitions=1, entries_per=1)
        store.acquire(0)
        with pytest.raises(Exception):
            store.replace_partition(0, {}, {}, {})
        store.release(0)

    def test_clear_runs_removes_only_that_superstep(self):
        store = _loaded_store(num_partitions=1)
        for path, data in (
            ("/spill/runs/s00001/p00000.w000.run", b"one"),
            ("/spill/runs/s00002/p00000.w000.run", b"two"),
        ):
            store.filesystem.create(path, overwrite=True)
            store.filesystem.append_bytes(path, data)
        store.clear_runs(1)
        assert not store.filesystem.exists(
            "/spill/runs/s00001/p00000.w000.run"
        )
        assert store.filesystem.exists("/spill/runs/s00002/p00000.w000.run")

    def test_builder_pickled_value_fallback_round_trips(self):
        store = SpillStore(filesystem=SimFileSystem(), num_partitions=1)
        builder = store.builder()
        builder.add(0, "a", {"nested": [1, 2]}, {"b": None})
        builder.add(0, "b", (3, 4), {})
        builder.finish()
        assert store.get_vertex_value(0, "a") == {"nested": [1, 2]}
        assert store.get_vertex_value(0, "b") == (3, 4)

    def test_builder_finish_installs_summary_for_empty_partitions(self):
        store = SpillStore(filesystem=SimFileSystem(), num_partitions=3)
        builder = store.builder()
        builder.add(1, 0, 1.0, {})
        builder.finish()
        assert store.num_vertices([0]) == 0
        assert store.num_vertices([1]) == 1
        assert store.num_vertices([2]) == 0


class TestSpilledMessageStore:
    def _store_with_messages(self, combiner=None):
        store = SpillStore(filesystem=SimFileSystem(), num_partitions=2)
        builder = store.builder()
        builder.finish()
        partitioner = HashPartitioner(1, num_partitions=2)
        locations = {i: partitioner.partition_for(i) for i in range(6)}
        outbox = store.run_outbox(0, 1, partitioner, locations)
        for source, target, value in [
            (0, 1, 1.0), (2, 1, 2.0), (4, 3, 3.0), (0, 3, 4.0)
        ]:
            outbox.add_point(source, target, value)
        outbox.seal()
        return store, store.message_store(
            1, total_messages=4, suspect_counts={1: 2}, combiner=combiner
        ), partitioner

    def test_load_partition_groups_by_target(self):
        store, messages, partitioner = self._store_with_messages()
        assert messages.has_messages()
        for target in (1, 3):
            view = messages.load_partition(partitioner.partition_for(target))
            assert sorted(view.inbox_values(target)) in (
                [1.0, 2.0], [3.0, 4.0]
            )

    def test_combiner_folds_at_load(self):
        from repro.pregel import SumCombiner

        store, messages, partitioner = self._store_with_messages(
            combiner=SumCombiner()
        )
        view = messages.load_partition(partitioner.partition_for(1))
        assert view.inbox_values(1) == [3.0]
        assert view.eliminated == 1

    def test_drop_target_suppresses_delivery(self):
        store, messages, partitioner = self._store_with_messages()
        assert messages.missing_targets({3: 0}) == [1]
        messages.drop_inbox(1)
        assert messages.total_messages == 2
        view = messages.load_partition(partitioner.partition_for(1))
        assert view.inbox_values(1) == []

    def test_iter_checkpoint_messages_covers_everything(self):
        store, messages, partitioner = self._store_with_messages()
        triples = sorted(messages.iter_checkpoint_messages())
        assert triples == [
            (0, 1, 1.0), (0, 3, 4.0), (2, 1, 2.0), (4, 3, 3.0)
        ]
