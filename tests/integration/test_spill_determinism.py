"""Out-of-core determinism: the spill plane changes nothing observable.

The contract of the partitioned vertex/message store (ISSUE 8): for the
same job, runs with ``store="spill"`` (paged vertex state, per-worker
message runs cut by partition, grouped and canonically ordered at
partition load) and ``store="memory"`` (plain dicts) must produce the
same :class:`~repro.pregel.PregelResult` and byte-identical canonical
trace digests — across backends, worker counts, partition counts and
graft-san delivery schedules, with checkpoint/rollback recovery on the
spilled layout included. If paging, inbox ordering, permute- or
combine-at-load, or barrier mutation resolution ever reorders or
rewrites anything observable, a digest here splits.
"""

import pytest

from repro.algorithms import (
    BuggyLabelPropagation,
    LabelPropagation,
    PageRank,
    ShortestPaths,
)
from repro.datasets import load_dataset, make
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.trace import canonical_trace_digest
from repro.graph import to_undirected
from repro.pregel import MessageCombiner, MinCombiner, PregelEngine
from repro.pregel.permutation import PermutationSchedule

from tests.integration.test_columnar_determinism import (
    BroadcastThenRewire,
    TopologyChurn,
    TuplePing,
)

WORKER_COUNTS = (1, 2, 4)
EXECUTORS = ("serial", "processes")

JOBS = {
    "broadcast_then_rewire": (BroadcastThenRewire, {}),
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


class KeepFirst(MessageCombiner):
    """Deliberately order-sensitive: the fold keeps whichever message the
    (permuted) inbox order put first."""

    def combine(self, first, second):
        return first


#: name -> (factory, engine kwargs): an order-insensitive program, an
#: order-sensitive one, and an order-sensitive combiner fold.
SCHEDULE_JOBS = {
    "label_prop": (lambda: LabelPropagation(iterations=4), {}),
    "label_prop_buggy": (lambda: BuggyLabelPropagation(iterations=4), {}),
    "sssp_keep_first": (lambda: ShortestPaths(0), {"combiner": KeepFirst()}),
}


@pytest.mark.parametrize("schedule", (0, 1, 2))
@pytest.mark.parametrize("job", sorted(SCHEDULE_JOBS))
def test_spill_matches_memory_under_delivery_schedule(job, schedule):
    """graft-san's permutation reaches the spill plane: same shuffle of the
    same canonical inbox, before the combiner fold, as the memory barrier."""
    factory, kwargs = SCHEDULE_JOBS[job]
    graph = to_undirected(load_dataset("web-BS", num_vertices=40, seed=3))
    outcome = {}
    for store, partitions in (("memory", None), ("spill", 8)):
        run = debug_run(
            factory, graph, CaptureAllActiveConfig(), job_id="san",
            lint=False, seed=7, num_workers=2, max_supersteps=8, store=store,
            num_partitions=partitions,
            delivery_schedule=PermutationSchedule(schedule), **kwargs,
        )
        assert run.ok, f"{store}: {run.failure}"
        metrics = run.result.metrics
        outcome[store] = (
            canonical_trace_digest(run.session.filesystem, "san"),
            dict(run.result.vertex_values),
            metrics.total_inboxes_permuted,
            metrics.total_messages_combined,
        )
    assert outcome["spill"] == outcome["memory"]
    assert (outcome["spill"][2] > 0) == (schedule != 0)


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


class _RunFileProbe:
    """Listener: the run files on disk after each barrier."""

    def __init__(self):
        self.files = []

    def on_start(self, engine):
        self._store = engine._store

    def on_superstep_end(self, superstep, metrics):
        self.files.append(
            self._store.filesystem.glob_files("/spill/runs", suffix=".run")
        )


def test_plain_spill_run_builds_no_envelopes(monkeypatch):
    """Values-first delivery: compute() reads value lists, combiners fold
    them, checkpoints read columns; a ``(source, value)`` pair exists only
    once a debugger iterates an inbox — on either plane. And the spill
    plane's runs of a superstep are one file per sending worker."""
    from repro.pregel import CheckpointConfig
    from repro.pregel.messages import IncomingView
    from repro.simfs import SimFileSystem

    iterated = []
    original = IncomingView.__iter__

    def counting_iter(view):
        iterated.append(view)
        return original(view)

    monkeypatch.setattr(IncomingView, "__iter__", counting_iter)
    probe = _RunFileProbe()
    kwargs = dict(seed=7, num_workers=2, combiner=MinCombiner())
    for plane in (
        dict(store="spill", num_partitions=8, listeners=[probe]),
        dict(store="memory"),
    ):
        result = PregelEngine(
            lambda: PageRank(iterations=3), _graph(),
            checkpoint_config=CheckpointConfig(
                SimFileSystem(), every_n_supersteps=2
            ),
            **kwargs, **plane,
        ).run()
        assert result.metrics.total_messages > 0
        assert result.metrics.total_messages_combined > 0
        assert iterated == []
    assert probe.files[:3] == [
        [f"/spill/runs/s{s:05d}/w000.run", f"/spill/runs/s{s:05d}/w001.run"]
        for s in (1, 2, 3)
    ]
    assert probe.files[3] == []     # the last superstep sent nothing

    for store in ("spill", "memory"):
        del iterated[:]
        run = debug_run(
            lambda: PageRank(iterations=3), _graph(), CaptureAllActiveConfig(),
            job_id="pairs", lint=False, store=store, **kwargs,
        )
        assert run.ok and iterated


def test_clean_pages_stay_clean_under_a_one_page_cache():
    """A converged tail: SSSP down a chain wakes one vertex per superstep,
    so one partition computes and the others must not be rewritten when
    the one-page cache evicts them."""
    from repro.graph import GraphBuilder

    chain = GraphBuilder().path(*range(12)).build()
    kwargs = dict(job_id="tail", lint=False, seed=7, num_workers=1)
    memory = debug_run(
        lambda: ShortestPaths(0), chain, CaptureAllActiveConfig(),
        store="memory", **kwargs,
    )
    spill = debug_run(
        lambda: ShortestPaths(0), chain, CaptureAllActiveConfig(),
        store="spill", num_partitions=4, page_cache_bytes=1, **kwargs,
    )
    assert canonical_trace_digest(
        spill.session.filesystem, "tail"
    ) == canonical_trace_digest(memory.session.filesystem, "tail")
    stats = spill.superstep_stats()
    assert len(stats) == 12 and stats[0].compute_calls == 12
    all_four_pages = stats[0].store_bytes_spilled   # superstep 0 computes everywhere
    for step in stats[1:]:
        assert step.compute_calls == 1
        # Every page is still loaded to look for active vertices...
        assert step.page_cache_misses == 4
        # ...but only the one that computed is written back.
        assert 0 < step.store_bytes_spilled < all_four_pages / 2
