"""Backend determinism: one job, same answer, byte-identical traces.

The contract of the pluggable execution backends: for the same job —
algorithm, graph, seed, worker count — the ``serial`` backend, under
either accepted name, and the test-only ``reversed`` one (steps run in
reverse worker order, which shows steps share no mutable state), must
produce

- the same :class:`~repro.pregel.PregelResult` (values, supersteps,
  halt reason, aggregators),
- byte-identical per-worker Graft trace files (same SHA-256 per file),

and across *worker counts* the canonical merged trace (which normalizes
the partition-dependent worker placement) must hash identically too.
"""

import hashlib
import multiprocessing

import pytest

from repro.algorithms import PageRank, ShortestPaths
from repro.datasets import load_dataset
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.trace import canonical_trace_digest, worker_trace_path
from repro.pregel import PregelEngine
from repro.pregel.runtime import EXECUTOR_NAMES
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
    """The "processes" name and the reversed order match serial exactly
    at every worker count."""
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
# "processes" is an accepted name for the serial schedule
# ---------------------------------------------------------------------------


class _ChildCounter:
    """Engine listener: the live child processes at every barrier."""

    def __init__(self):
        self.seen = []

    def on_superstep_end(self, superstep, metrics):
        self.seen.append(len(multiprocessing.active_children()))


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_processes_name_runs_the_serial_schedule(algorithm):
    """``executor="processes"`` starts no child process, reports the
    serial backend, and is serial's run: the same values, per-worker
    trace files and canonical digest."""
    counter = _ChildCounter()
    engine = PregelEngine(
        ALGORITHMS[algorithm], _graph(), num_workers=4, seed=7,
        executor="processes", max_supersteps=12, listeners=[counter],
    )
    assert engine.executor_name == "serial"
    result = engine.run()
    assert counter.seen == [0] * result.num_supersteps
    assert multiprocessing.active_children() == []
    reference = _run(algorithm, "serial", 4)
    assert dict(result.vertex_values) == reference["values"]
    candidate = _run(algorithm, "processes", 4)
    for key in ("values", "file_hashes", "canonical_digest"):
        assert candidate[key] == reference[key], key
