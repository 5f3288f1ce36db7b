"""Thread-safety regression for the lazy trace reader.

The debug server shares one lazy :class:`TraceReader` (and one pair of
LRU caches) across every request thread, so the reader's lazy memoization
— index parse, superstep maps, vertex postings, the at-superstep cache —
and the LRU's OrderedDict mutations must all be safe under concurrent
use. These tests hammer them from many threads and require answers
identical to a single-threaded eager baseline; before the locks went in,
this reliably corrupted the record cache's recency order and dropped
postings mid-parse.
"""

import random
import threading

import pytest

from repro.graft.capture import (
    MasterContextRecord,
    VertexContextRecord,
    Violation,
)
from repro.graft.trace import TraceReader, TraceStore, _LRUCache
from repro.simfs import SimFileSystem

NUM_VERTICES = 120
NUM_SUPERSTEPS = 6
NUM_WORKERS = 3
NUM_THREADS = 8
QUERIES_PER_THREAD = 60


def _build_trace(fs, job_id="job-hammer"):
    store = TraceStore(fs, job_id, NUM_WORKERS)
    for superstep in range(NUM_SUPERSTEPS):
        records = []
        for vertex_id in range(NUM_VERTICES):
            violations = []
            if vertex_id % 37 == 0:
                violations = [
                    Violation("message", vertex_id, superstep, {"value": -1})
                ]
            records.append(
                VertexContextRecord(
                    vertex_id=vertex_id,
                    superstep=superstep,
                    worker_id=vertex_id % NUM_WORKERS,
                    value_before=float(vertex_id),
                    edges_before={(vertex_id + 1) % NUM_VERTICES: None},
                    incoming=[((vertex_id - 1) % NUM_VERTICES, 0.5)],
                    aggregators={},
                    num_vertices=NUM_VERTICES,
                    num_edges=NUM_VERTICES,
                    run_seed=0,
                    value_after=float(vertex_id + superstep),
                    edges_after={(vertex_id + 1) % NUM_VERTICES: None},
                    sent=[((vertex_id + 1) % NUM_VERTICES, 1.0)],
                    reasons=["all_active"],
                    violations=violations,
                )
            )
        store.write_vertex_records(records)
        store.write_master_record(
            MasterContextRecord(superstep=superstep, aggregators={})
        )
        store.flush()
    store.close()


@pytest.fixture(scope="module")
def trace_fs():
    fs = SimFileSystem()
    _build_trace(fs)
    return fs


def _hammer(fn, threads=NUM_THREADS):
    """Run ``fn(thread_index)`` on N threads at once; re-raise any failure."""
    barrier = threading.Barrier(threads)
    errors = []

    def body(index):
        try:
            barrier.wait(timeout=30)
            fn(index)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    workers = [
        threading.Thread(target=body, args=(i,)) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not errors, errors


def test_shared_lazy_reader_answers_match_eager_under_threads(trace_fs):
    # Tiny caches on purpose: constant eviction maximizes contention on
    # the LRU's multi-step mutations.
    reader = TraceReader(
        trace_fs, "job-hammer", mode="lazy",
        cache_records=16, cache_blocks=2,
    )
    eager = TraceReader(trace_fs, "job-hammer", mode="eager")
    expected = {
        (vid, step): eager.get(vid, step).value_after
        for vid in range(NUM_VERTICES)
        for step in range(NUM_SUPERSTEPS)
    }
    expected_supersteps = eager.supersteps()
    expected_violations = [
        (v.vertex_id, v.superstep) for v in eager.violations()
    ]

    def worker(index):
        rng = random.Random(index)
        for _ in range(QUERIES_PER_THREAD):
            vid = rng.randrange(NUM_VERTICES)
            step = rng.randrange(NUM_SUPERSTEPS)
            record = reader.get(vid, step)
            assert record.value_after == expected[(vid, step)]
            assert record.vertex_id == vid and record.superstep == step
        assert reader.supersteps() == expected_supersteps
        history = reader.history(index)
        assert [r.superstep for r in history] == list(range(NUM_SUPERSTEPS))
        step = index % NUM_SUPERSTEPS
        ids = [r.vertex_id for r in reader.at_superstep(step)]
        assert ids == sorted(range(NUM_VERTICES), key=repr)
        assert [
            (v.vertex_id, v.superstep) for v in reader.violations()
        ] == expected_violations

    _hammer(worker)


def test_injected_caches_are_shared_across_readers(trace_fs):
    record_cache = _LRUCache(64)
    block_cache = _LRUCache(4)
    readers = [
        TraceReader(
            trace_fs, "job-hammer", mode="lazy",
            record_cache=record_cache, block_cache=block_cache,
        )
        for _ in range(3)
    ]

    def worker(index):
        reader = readers[index % len(readers)]
        rng = random.Random(1000 + index)
        for _ in range(QUERIES_PER_THREAD):
            vid = rng.randrange(NUM_VERTICES)
            step = rng.randrange(NUM_SUPERSTEPS)
            assert reader.get(vid, step).vertex_id == vid

    _hammer(worker)
    # The budgets hold process-wide, however many readers drew on them.
    assert len(record_cache) <= 64
    assert len(block_cache) <= 4
    assert record_cache.hits + record_cache.misses >= NUM_THREADS


def test_lru_cache_hammer_keeps_invariants():
    cache = _LRUCache(32)

    def worker(index):
        rng = random.Random(index)
        for round_ in range(500):
            key = (rng.randrange(64),)
            value = cache.get(key)
            if value is not None:
                assert value == key  # never another thread's entry
            cache.put(key, key)
            assert len(cache) <= 32

    _hammer(worker)
    assert len(cache) <= 32


def test_lru_cache_zero_size_never_stores():
    cache = _LRUCache(0)

    def worker(index):
        for i in range(200):
            cache.put((index, i), i)
            assert cache.get((index, i)) is None

    _hammer(worker)
    assert len(cache) == 0
