"""Backend determinism: one job, same answer, byte-identical traces.

The contract of the pluggable execution backends: for the same job —
algorithm, graph, seed, worker count — the ``serial`` and ``processes``
backends, and the test-only ``reversed`` one (steps run in reverse worker
order, which shows steps share no mutable state), must produce

- the same :class:`~repro.pregel.PregelResult` (values, supersteps,
  halt reason, aggregators),
- byte-identical per-worker Graft trace files (same SHA-256 per file),

and across *worker counts* the canonical merged trace (which normalizes
the partition-dependent worker placement) must hash identically too.
"""

import hashlib

import pytest

from repro.algorithms import PageRank, ShortestPaths
from repro.datasets import load_dataset
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.trace import canonical_trace_digest, worker_trace_path
from repro.pregel import Computation, MasterComputation, SumAggregator
from repro.pregel.runtime import EXECUTOR_NAMES, ProcessBackend
from tests.reversed_backend import ReversedBackend

WORKER_COUNTS = (1, 2, 4, 8)

ALGORITHMS = {
    "pagerank": lambda: PageRank(iterations=4),
    "sssp": lambda: ShortestPaths(0),
}


def _graph():
    return load_dataset("web-BS", num_vertices=90, seed=11)


_CACHE = {}


def _run(algorithm, executor, workers):
    """Run one debugged job; memoized so each config executes once."""
    key = (algorithm, executor, workers)
    if key not in _CACHE:
        run = debug_run(
            ALGORITHMS[algorithm],
            _graph(),
            CaptureAllActiveConfig(),
            job_id="det",
            lint=False,
            seed=7,
            num_workers=workers,
            executor=ReversedBackend() if executor == "reversed" else executor,
            max_supersteps=12,
        )
        assert run.ok, f"{key}: {run.failure}"
        fs = run.session.filesystem
        file_hashes = {
            worker_id: hashlib.sha256(
                fs.read_bytes(worker_trace_path("det", worker_id))
            ).hexdigest()
            for worker_id in range(workers)
        }
        _CACHE[key] = {
            "values": dict(run.result.vertex_values),
            "aggregators": dict(run.result.aggregator_values),
            "supersteps": run.result.num_supersteps,
            "halt_reason": run.result.halt_reason,
            "captures": run.capture_count,
            "file_hashes": file_hashes,
            "canonical_digest": canonical_trace_digest(fs, "det"),
        }
    return _CACHE[key]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("executor", EXECUTOR_NAMES[1:] + ("reversed",))
def test_backends_agree_with_serial(algorithm, executor, workers):
    """processes/reversed match serial exactly at every worker count."""
    reference = _run(algorithm, "serial", workers)
    candidate = _run(algorithm, executor, workers)
    assert candidate["values"] == reference["values"]
    assert candidate["aggregators"] == reference["aggregators"]
    assert candidate["supersteps"] == reference["supersteps"]
    assert candidate["halt_reason"] == reference["halt_reason"]
    assert candidate["captures"] == reference["captures"]
    # Byte-identical traces: every per-worker file hashes the same.
    assert candidate["file_hashes"] == reference["file_hashes"]
    assert candidate["canonical_digest"] == reference["canonical_digest"]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_canonical_digest_stable_across_worker_counts(algorithm):
    """The merged canonical trace is one hash whatever the partitioning."""
    digests = {
        workers: _run(algorithm, "serial", workers)["canonical_digest"]
        for workers in WORKER_COUNTS
    }
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_results_stable_across_worker_counts(algorithm):
    """Vertex values and aggregators don't depend on the partitioning."""
    reference = _run(algorithm, "serial", 1)
    for workers in WORKER_COUNTS[1:]:
        candidate = _run(algorithm, "serial", workers)
        assert candidate["values"] == reference["values"]
        assert candidate["aggregators"] == reference["aggregators"]
        assert candidate["supersteps"] == reference["supersteps"]


# ---------------------------------------------------------------------------
# The persistent process pool
# ---------------------------------------------------------------------------
# Under ``processes`` the children that ran superstep k run superstep k+1
# from the inboxes the parent sends them, and are forked anew only when
# the parent's state stops matching what they inherited. Whichever of the
# two paths a superstep takes, the debugged run must be serial's.


class ChurnAtIntervals(Computation):
    """Quiet supersteps (the pool persists) between topology changes
    (the pool re-forks): an edge edit, a resolver-created vertex, an
    explicit removal and an explicit addition, with broadcasts and point
    sends throughout."""

    def initial_value(self, vertex_id, input_value):
        return 0.0

    def default_vertex_value(self, vertex_id):
        return 100.0

    def compute(self, ctx, messages):
        step = ctx.superstep
        ctx.set_value(ctx.value + sum(messages) + step)
        if step >= 9:
            ctx.vote_to_halt()
            return
        # Loaded vertices have int ids; the ones created here have strings.
        vertex = ctx.vertex_id if isinstance(ctx.vertex_id, int) else 1
        if step == 2 and vertex % 4 == 0:
            ctx.add_edge(f"edge:{vertex}")
        if step == 3 and vertex % 5 == 0:
            ctx.send_message(f"ghost:{vertex}", 2.0)
        if step == 5 and vertex % 7 == 3:
            ctx.remove_vertex_request(vertex)
        if step == 6 and vertex == 0:
            ctx.add_vertex_request("late", 9.0)
        ctx.send_message_to_all_neighbors(0.5)
        if ctx.out_degree:
            ctx.send_message(vertex // 2, 0.25)


class PhaseMaster(MasterComputation):
    """Sets a fresh ``phase`` every superstep and a jump at superstep 3."""

    def initialize(self, registry):
        registry.register("phase", SumAggregator())
        registry.register("seen", SumAggregator())

    def master_compute(self, master_ctx):
        step = master_ctx.superstep
        master_ctx.set_aggregated_value(
            "phase", 1000 if step == 3 else step * 10
        )


class ReadsPhase(Computation):
    """Records the ``phase`` its worker saw, and what the previous
    superstep's vertices contributed to ``seen``."""

    def initial_value(self, vertex_id, input_value):
        return ()

    def compute(self, ctx, messages):
        phase = ctx.aggregated_value("phase")
        ctx.set_value(ctx.value + ((phase, ctx.aggregated_value("seen")),))
        ctx.aggregate("seen", 1)
        if ctx.superstep >= 5:
            ctx.vote_to_halt()


def _debug(factory, executor, **kwargs):
    run = debug_run(
        factory, _graph(), CaptureAllActiveConfig(), job_id="pool",
        lint=False, seed=7, num_workers=3, executor=executor,
        max_supersteps=12, **kwargs,
    )
    assert run.ok, run.failure
    fs = run.session.filesystem
    return {
        "values": dict(run.result.vertex_values),
        "aggregators": dict(run.result.aggregator_values),
        "supersteps": run.result.num_supersteps,
        "captured": [
            sorted((repr(r.vertex_id) for r in run.captures_at(superstep)))
            for superstep in range(run.result.num_supersteps)
        ],
        "file_hashes": [
            hashlib.sha256(
                fs.read_bytes(worker_trace_path("pool", worker_id))
            ).hexdigest()
            for worker_id in range(3)
        ],
        "canonical_digest": canonical_trace_digest(fs, "pool"),
    }


def test_pool_reforks_at_topology_changes_and_matches_serial():
    pool = ProcessBackend()
    candidate = _debug(ChurnAtIntervals, pool)
    assert candidate == _debug(ChurnAtIntervals, "serial")
    # Forked at superstep 0 and again after each of the barriers of
    # supersteps 2 (edges), 3 (resolver), 5 (removal) and 6 (addition).
    assert pool.forks == 3 * 5
    assert "late" in candidate["values"]
    assert "ghost:0" in candidate["values"]


def test_pool_writes_each_capture_once():
    pool = ProcessBackend()
    candidate = _debug(lambda: PageRank(iterations=4), pool)
    assert pool.forks == 3
    captured = candidate["captured"]
    assert sum(1 for ids in captured if ids) >= 3
    for ids in captured:
        assert len(ids) == len(set(ids))
    assert candidate == _debug(lambda: PageRank(iterations=4), "serial")


def test_pool_children_see_what_the_master_set():
    pool = ProcessBackend()
    candidate = _debug(ReadsPhase, pool, master=PhaseMaster())
    assert pool.forks == 3
    assert candidate == _debug(ReadsPhase, "serial", master=PhaseMaster())
    num_vertices = len(candidate["values"])
    for history in candidate["values"].values():
        assert history == (
            (0, 0), (10, num_vertices), (20, num_vertices),
            (1000, num_vertices), (40, num_vertices), (50, num_vertices),
        )
