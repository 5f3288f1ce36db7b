"""In-memory data plane determinism: packed batches change nothing observable.

The packed outbox -> ``ColumnarMessageStore`` path replaced a plane that
moved per-envelope object lists. The contract it was admitted under still
holds and is gated here: for the same job, every accepted executor name
and worker count must reproduce the :class:`~repro.pregel.PregelResult`
and canonical trace digest **the envelope plane produced** — pinned below
from the last commit that had it — with per-worker trace files
byte-identical between them. If a packed column or a compact broadcast
record ever reorders or rewrites a message, a digest here splits.
``test_spill_determinism`` cross-checks the same jobs against the
independently implemented spill plane.
"""

import hashlib
import multiprocessing

import pytest

from repro.algorithms import PageRank, ShortestPaths
from repro.chaos import PRESET_PLANS, run_chaos
from repro.datasets import load_dataset
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.trace import canonical_trace_digest, worker_trace_path
from repro.pregel import Computation, MinCombiner, PregelEngine

WORKER_COUNTS = (1, 2, 4)
EXECUTORS = ("serial", "processes")


class TopologyChurn(Computation):
    """Mutates topology every superstep while messages keep flowing.

    Exercises every materialization edge at once: dirty-adjacency
    workers file explicit broadcasts, messages to missing targets force
    vertex creation at the barrier, and explicit add/remove requests make
    the barrier settle the packed store before mutating.
    """

    def initial_value(self, vertex_id, input_value):
        return 0.0

    def default_vertex_value(self, vertex_id):
        return -1.0

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + float(sum(messages)))
        step = ctx.superstep
        if step == 0:
            ctx.send_message_to_all_neighbors(1.0)
        elif step == 1:
            for target in sorted(ctx.neighbor_ids(), key=repr)[:1]:
                ctx.remove_edge(target)
            spawn = f"spawn:{ctx.vertex_id}"
            ctx.add_edge(spawn)
            ctx.send_message(spawn, ctx.value + 1.0)
        elif step == 2:
            ctx.add_vertex_request(f"req:{ctx.vertex_id}", 7.0)
            ctx.send_message_to_all_neighbors(0.5)
        else:
            ctx.vote_to_halt()


class TuplePing(Computation):
    """Sends tuple payloads — no packed column exists for them.

    Every column degrades to the pickled-object fallback mid-superstep;
    delivery order and traces must still match the envelope plane's.
    """

    def initial_value(self, vertex_id, input_value):
        return (0, 0.0)

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send_message_to_all_neighbors((1, 0.5))
        elif ctx.superstep < 3:
            hops = max((m[0] for m in messages), default=0)
            weight = sum(m[1] for m in messages)
            ctx.set_value((hops, weight))
            ctx.send_message_to_all_neighbors((hops + 1, weight / 2.0))
        else:
            ctx.vote_to_halt()


class BroadcastThenRewire(Computation):
    """Broadcasts, then rewires its out-edges in the same ``compute()``.

    The first sender on each worker is still clean, so its fan-out is one
    compact record — which must expand against the adjacency it was
    emitted under, not the one the sender left behind.
    """

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            neighbors = sorted(ctx.neighbor_ids(), key=repr)
            if neighbors:
                ctx.send_message_to_all_neighbors(ctx.vertex_id)
                ctx.remove_edge(neighbors[0])
                ctx.add_edge(1 if ctx.vertex_id == 0 else 0)
        else:
            ctx.set_value(sorted(messages))
            ctx.vote_to_halt()


JOBS = {
    "broadcast_then_rewire": (BroadcastThenRewire, {}),
    "pagerank": (lambda: PageRank(iterations=4), {}),
    "sssp_combined": (lambda: ShortestPaths(0), {"combiner": MinCombiner()}),
    "mutation": (TopologyChurn, {}),
    "tuple_fallback": (TuplePing, {}),
}


#: What the retired envelope plane (``columnar=False`` at commit b2123e5)
#: produced for each job — identical on serial/processes and 1/2/4 workers
#: there: (supersteps, captures, sha256 of the repr-sorted values, canonical
#: trace digest). The mutation job's digest was re-pinned when edge maps
#: became order-preserving for every key type: its 36 records whose only
#: edge is a ``"spawn:<id>"`` string were plain JSON objects and are now
#: item lists; every record still decodes to the same object.
#: ``broadcast_then_rewire`` is younger than that plane: its row was taken
#: from the spill plane (all backends and worker counts agreeing) at the
#: commit where the memory plane still expanded a compact broadcast against
#: the sender's *post*-mutation adjacency and so disagreed with it.
ENVELOPE_PLANE = {
    "broadcast_then_rewire": (
        2, 180,
        "05917abf2d03c4de37e165e986c7008c3e2a250d7f0438773ce5b7d1d12b5856",
        "21fd74fbc8c99ecd1104d34b830fdbe0ed6bfe39f13388e41a6e91735d12a2b6",
    ),
    "mutation": (
        4, 720,
        "474b7100beecd03e83b11343e6c5eb85b958798acd86fd181781a8e051a35314",
        "a4d128a544f739d2007a3983ac64cee8bc1ad2b790e42fc5a8a3a4f27c6dee7a",
    ),
    "pagerank": (
        5, 450,
        "42b7c2c395dae17fb66b34cd6778ce98cff8472cc555aabd0a8c753b7c28e216",
        "4a9bc689be5439f3134c6e23407038be01fe8031f0df5ba6fd479019fd425091",
    ),
    "sssp_combined": (
        6, 318,
        "421a14ab386cfd9ad83a0be8f151a203895b038f7e284251fcf76c97fe39bae1",
        "9128f632dfd3216b1b1644c2f7caf1f15083dbb36aa9bfa4b4744fde149710ec",
    ),
    "tuple_fallback": (
        4, 360,
        "42c4536518b0a8bcd9b9b7adc7458a7ba9fb521f4799225b6d1f77efe821b733",
        "38936f1c119d79fbf69ac0cbf691e8097301acc4a4851b94259d8c058339d99a",
    ),
}


def _graph():
    return load_dataset("web-BS", num_vertices=90, seed=11)


_CACHE = {}


def _run(job, executor, workers, plane=None):
    """Run one debugged job; memoized so each config executes once.

    ``plane`` names a :data:`SPILL_PLANES` entry; the default is the
    in-memory plane."""
    key = (job, executor, workers, plane)
    if key not in _CACHE:
        factory, extra_kwargs = JOBS[job]
        run = debug_run(
            factory,
            _graph(),
            CaptureAllActiveConfig(),
            job_id="col",
            lint=False,
            seed=7,
            num_workers=workers,
            executor=executor,
            max_supersteps=8,
            **extra_kwargs,
            **SPILL_PLANES.get(plane, {}),
        )
        assert run.ok, f"{key}: {run.failure}"
        fs = run.session.filesystem
        file_hashes = {
            worker_id: hashlib.sha256(
                fs.read_bytes(worker_trace_path("col", worker_id))
            ).hexdigest()
            for worker_id in range(workers)
        }
        _CACHE[key] = {
            "values": dict(run.result.vertex_values),
            "supersteps": run.result.num_supersteps,
            "halt_reason": run.result.halt_reason,
            "captures": run.capture_count,
            "file_hashes": file_hashes,
            "canonical_digest": canonical_trace_digest(fs, "col"),
        }
    return _CACHE[key]


def _values_sha(values):
    pairs = sorted((repr(k), repr(v)) for k, v in values.items())
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("job", sorted(JOBS))
def test_columnar_matches_envelope(job, executor, workers):
    """Parity with the envelope plane at every (backend, worker count) cell."""
    supersteps, captures, values_sha, digest = ENVELOPE_PLANE[job]
    columnar = _run(job, executor, workers)
    assert columnar["supersteps"] == supersteps
    assert columnar["halt_reason"] == "converged"
    assert columnar["captures"] == captures
    assert _values_sha(columnar["values"]) == values_sha
    assert columnar["canonical_digest"] == digest
    assert columnar["file_hashes"] == _run(job, "serial", workers)["file_hashes"]


@pytest.mark.parametrize("job", sorted(JOBS))
def test_columnar_processes_matches_serial(job):
    """The "processes" name reproduces the serial run byte-for-byte."""
    reference = _run(job, "serial", 4)
    candidate = _run(job, "processes", 4)
    assert candidate["values"] == reference["values"]
    assert candidate["file_hashes"] == reference["file_hashes"]
    assert candidate["canonical_digest"] == reference["canonical_digest"]


#: The spill plane, chosen explicitly and by ``store="auto"`` under a
#: memory ceiling the 90-vertex graph exceeds.
SPILL_PLANES = {
    "spill": {"store": "spill"},
    "auto": {"store": "auto", "memory_limit": 1_000},
}


def _assert_stayed_in_the_parent():
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("plane", sorted(SPILL_PLANES))
@pytest.mark.parametrize("job", sorted(JOBS))
def test_processes_on_the_spill_plane_runs_in_the_parent(job, plane, workers):
    """On the spill plane every step runs in the parent whatever the
    executor is called: no child is forked, and the run is serial's,
    value for value and trace file for trace file."""
    engine = PregelEngine(
        JOBS[job][0], _graph(), num_workers=workers, executor="processes",
        **SPILL_PLANES[plane],
    )
    assert engine._store is not None
    assert engine.executor_name == "serial"
    reference = _run(job, "serial", workers, plane)
    candidate = _run(job, "processes", workers, plane)
    _assert_stayed_in_the_parent()
    assert candidate["values"] == reference["values"]
    assert candidate["canonical_digest"] == reference["canonical_digest"]
    assert candidate["file_hashes"] == reference["file_hashes"]


@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("plane", sorted(SPILL_PLANES))
def test_processes_chaos_recovery_on_the_spill_plane_is_serials(plane, workers):
    """A worker crash rolled back over spilled pages recovers in the
    parent under ``processes`` exactly as under serial."""
    reports = {}
    for executor in ("serial", "processes"):
        reports[executor] = run_chaos(
            lambda: PageRank(iterations=8), _graph(),
            PRESET_PLANS["worker-crash"], seed=7, num_workers=workers,
            executor=executor, checkpoint_every=2, num_partitions=8,
            **SPILL_PLANES[plane],
        )
        assert reports[executor].ok, reports[executor].summary()
        assert reports[executor].rollbacks > 0
    _assert_stayed_in_the_parent()
    assert reports["processes"].injected_digest == reports["serial"].injected_digest
    assert reports["processes"].baseline_digest == reports["serial"].baseline_digest


@pytest.mark.parametrize("job", sorted(JOBS))
def test_columnar_digest_stable_across_worker_counts(job):
    """The canonical merged trace is one hash whatever the partitioning."""
    digests = {
        workers: _run(job, "serial", workers)["canonical_digest"]
        for workers in WORKER_COUNTS
    }
    assert len(set(digests.values())) == 1, digests
