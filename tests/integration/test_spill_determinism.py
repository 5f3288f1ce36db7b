"""Out-of-core determinism: the spill plane changes nothing observable.

The contract of the partitioned vertex/message store (ISSUE 8): for the
same job, runs with ``store="spill"`` (paged vertex state, sorted
per-partition message runs, merge-join delivery) and ``store="memory"``
(plain dicts) must produce the same :class:`~repro.pregel.PregelResult`
and byte-identical canonical trace digests — across backends, worker
counts, and partition counts, with checkpoint/rollback recovery on the
spilled layout included. If paging, run sorting, combiner-at-load, or
barrier mutation resolution ever reorders or rewrites anything
observable, a digest here splits.
"""

import pytest

from repro.algorithms import PageRank, ShortestPaths
from repro.common.errors import PregelError
from repro.datasets import load_dataset, make
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.trace import canonical_trace_digest
from repro.pregel import MinCombiner, PregelEngine
from repro.pregel.permutation import PermutationSchedule

from tests.integration.test_columnar_determinism import (
    TopologyChurn,
    TuplePing,
)

WORKER_COUNTS = (1, 2, 4)
EXECUTORS = ("serial", "processes")

JOBS = {
    "pagerank": (lambda: PageRank(iterations=4), {}),
    "sssp_combined": (lambda: ShortestPaths(0), {"combiner": MinCombiner()}),
    "mutation": (TopologyChurn, {}),
    "mutation_drop": (TopologyChurn, {"on_message_to_missing": "drop"}),
    "tuple_fallback": (TuplePing, {}),
}


def _graph():
    return load_dataset("web-BS", num_vertices=90, seed=11)


_CACHE = {}


def _run(job, executor, workers, store, partitions=None):
    """Run one debugged job; memoized so each config executes once."""
    key = (job, executor, workers, store, partitions)
    if key not in _CACHE:
        factory, extra_kwargs = JOBS[job]
        kwargs = dict(extra_kwargs)
        if partitions is not None:
            kwargs["num_partitions"] = partitions
        run = debug_run(
            factory,
            _graph(),
            CaptureAllActiveConfig(),
            job_id="spill",
            lint=False,
            seed=7,
            num_workers=workers,
            executor=executor,
            max_supersteps=8,
            store=store,
            **kwargs,
        )
        assert run.ok, f"{key}: {run.failure}"
        _CACHE[key] = {
            "values": dict(run.result.vertex_values),
            "supersteps": run.result.num_supersteps,
            "halt_reason": run.result.halt_reason,
            "captures": run.capture_count,
            "canonical_digest": canonical_trace_digest(
                run.session.filesystem, "spill"
            ),
        }
    return _CACHE[key]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("job", sorted(JOBS))
def test_spill_matches_memory(job, executor, workers):
    """spill/memory parity at every (backend, worker count) cell."""
    memory = _run(job, "serial", 1, "memory")
    spill = _run(job, executor, workers, "spill")
    assert spill["values"] == memory["values"]
    assert spill["supersteps"] == memory["supersteps"]
    assert spill["halt_reason"] == memory["halt_reason"]
    assert spill["captures"] == memory["captures"]
    assert spill["canonical_digest"] == memory["canonical_digest"]


def test_partition_count_does_not_change_digests():
    """8 vs 32 partitions: same bytes, only different page boundaries."""
    reference = _run("pagerank", "serial", 1, "memory")
    for partitions in (8, 32):
        spill = _run("pagerank", "serial", 2, "spill", partitions=partitions)
        assert spill["canonical_digest"] == reference["canonical_digest"]


def test_streaming_dataset_matches_materialized():
    """A VertexStream fed straight into the spill store equals the
    demo-scale dict graph it replays."""
    stream = make("bipartite-1M-3M", scale="full", num_vertices=400)
    graph = stream.materialize()
    digests = {}
    for label, source, kwargs in (
        ("memory", graph, {"store": "memory"}),
        ("spill", stream, {"store": "spill", "num_partitions": 8}),
        ("auto", stream, {"store": "auto", "memory_limit": 10_000}),
    ):
        run = debug_run(
            lambda: PageRank(iterations=3), source, CaptureAllActiveConfig(),
            job_id="stream", lint=False, seed=5, num_workers=2,
            max_supersteps=6, **kwargs,
        )
        assert run.ok, f"{label}: {run.failure}"
        digests[label] = canonical_trace_digest(
            run.session.filesystem, "stream"
        )
    assert digests["spill"] == digests["memory"]
    assert digests["auto"] == digests["memory"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_chaos_recovery_on_spilled_layout(executor):
    """Checkpoint + rollback over spilled pages reproduces the clean run."""
    from repro.chaos import PRESET_PLANS, run_chaos

    report = run_chaos(
        lambda: PageRank(iterations=8),
        load_dataset("web-BS", num_vertices=40, seed=11),
        PRESET_PLANS["worker-crash"],
        seed=7,
        num_workers=4,
        executor=executor,
        checkpoint_every=2,
        store="spill",
        num_partitions=8,
    )
    assert report.ok, report.summary()
    assert report.rollbacks > 0
    assert report.injected_digest == report.baseline_digest


def test_auto_spills_only_above_the_ceiling():
    graph = load_dataset("web-BS", num_vertices=60, seed=11)
    over = PregelEngine(
        lambda: PageRank(iterations=2), graph,
        store="auto", memory_limit=1_000,
    )
    under = PregelEngine(
        lambda: PageRank(iterations=2), graph,
        store="auto", memory_limit=1_000_000_000,
    )
    assert over._store is not None
    assert under._store is None


def test_spill_rejects_delivery_schedule():
    graph = load_dataset("web-BS", num_vertices=30, seed=11)
    with pytest.raises(PregelError, match="delivery_schedule"):
        PregelEngine(
            lambda: PageRank(iterations=2), graph,
            store="spill",
            delivery_schedule=PermutationSchedule(seed=1),
        )


def test_spill_telemetry_is_reported():
    run = debug_run(
        lambda: PageRank(iterations=3),
        _graph(),
        CaptureAllActiveConfig(),
        job_id="telemetry",
        lint=False,
        seed=7,
        num_workers=2,
        store="spill",
        num_partitions=8,
    )
    assert run.ok
    stats = run.superstep_stats()
    assert stats and all(s.transport == "spill" for s in stats)
    assert any(s.store_bytes_loaded for s in stats)
    assert all(s.peak_memory_bytes > 0 for s in stats)
    assert stats[0].partitions_resident > 0
    metrics = run.result.metrics
    assert metrics.total_store_bytes_loaded > 0
    assert "spilled" in metrics.summary()
