"""Out-of-core scale benchmark: debug PageRank on >=1M vertices, one JSON.

The claim of the partitioned vertex/message store (ISSUE 8): Graft can
*debug* — capture per-vertex contexts, with traces byte-identical to the
in-memory plane — a PageRank run on a graph at the paper's Table 1 scale
(bipartite-1M-3M: one million vertices, three million directed adjacency
slots) on one machine, while Python-heap usage stays under a fixed memory
ceiling far below the graph's in-memory footprint. This script runs that
workload end-to-end (streaming dataset -> partitioned spill store ->
partition-at-a-time supersteps -> column-run message delivery) and writes
``BENCH_scale.json`` with the numbers CI gates on.

Time and memory are measured in **separate passes** of the same run,
because ``tracemalloc`` slows this workload ~6x: an untraced *timing
pass* gives ``wall_seconds`` and ``calls_per_second``; a *memory pass*
under ``tracemalloc`` gives ``peak_memory_bytes`` (and its own
``traced_wall_seconds``, which says nothing about speed). A third,
small *ratio pass* runs the ``--quick`` input untraced on both planes in
this process: spill / memory throughput is a ratio of two runs on the
same machine minutes apart, so it can be gated where seconds cannot.

Gates (exit status 1 when violated):

- the debugged run must come back ok, execute every one of the >=1M
  vertices each superstep, route messages over the spill plane
  (``transport == "spill"``, run bytes > 0), and capture the requested
  vertex contexts;
- the per-superstep tracemalloc peak — Python-heap allocations, sampled
  at every barrier and covering the streaming load — must stay under
  ``MEMORY_CEILING_BYTES`` (512 MiB at full scale), a small fraction of
  the ~``estimated_graph_bytes`` (~840 MB) the dict plane would need
  before counting message inboxes;
- a demo-scale fidelity check must produce byte-identical canonical
  trace digests for ``store="spill"`` and ``store="memory"`` — scale
  must not buy any observable difference;
- untraced ``calls_per_second`` on the spill plane at least
  ``THROUGHPUT_RATIO_FLOOR`` of the memory plane's on the same
  ``--quick`` input: out-of-core must stay a residency policy, not a
  different speed class.

Usage::

    PYTHONPATH=src python scripts/bench_scale.py [--output BENCH_scale.json]
    PYTHONPATH=src python scripts/bench_scale.py --quick   # ~100K vertices

Also runnable as an opt-in pytest (see tests/integration/test_bench_scale.py).
"""

import argparse
import gc
import json
import sys
import time
import tracemalloc

from repro.algorithms import PageRank
from repro.datasets import make
from repro.graft import DebugConfig, debug_run
from repro.graft.trace import canonical_trace_digest
from repro.pregel.engine import estimated_graph_bytes

DATASET = "bipartite-1M-3M"
FULL_VERTICES = 1_000_000
QUICK_VERTICES = 100_000
ITERATIONS = 2
NUM_WORKERS = 4
NUM_PARTITIONS = 64
SEED = 11

#: Engine-side knobs: spill when the estimate exceeds this, and bound the
#: page cache to a quarter of it. Quick runs shrink the limit with the
#: graph so ``store="auto"`` still crosses into the spill plane.
MEMORY_LIMIT_BYTES = 256 * 1024 * 1024
QUICK_MEMORY_LIMIT_BYTES = 32 * 1024 * 1024

#: Gate: max per-superstep tracemalloc peak (Python-heap bytes, including
#: the streaming load) at full scale. The same graph fully in memory is
#: estimated at ~840 MB before any message inbox exists.
MEMORY_CEILING_BYTES = 512 * 1024 * 1024

#: Quick runs keep the same fixed costs (interpreter, page cache budget)
#: over a tenth of the vertices, so the ceiling shrinks less than 10x.
QUICK_MEMORY_CEILING_BYTES = 256 * 1024 * 1024

#: Gate: untraced spill / memory ``calls_per_second`` on the quick input
#: (0.52 before the spill plane moved onto packed column runs, >= 1 after).
THROUGHPUT_RATIO_FLOOR = 0.65

#: Vertices whose contexts the debugger must capture (left side, right
#: side, and a mid-range id — all present at every scale).
CAPTURE_IDS = (0, 1, 17)


class _CaptureSome(DebugConfig):
    """Capture a fixed handful of vertices (no neighbor expansion: that
    costs a stream scan per capture id, which is not what this measures)."""

    def vertices_to_capture(self):
        return CAPTURE_IDS


def _fidelity_check():
    """Demo-scale digest parity: spill must equal memory byte-for-byte."""
    stream = make(DATASET, scale="full", num_vertices=2_000, seed=SEED)
    digests = {}
    for store, source in (("memory", stream.materialize()), ("spill", stream)):
        run = debug_run(
            lambda: PageRank(iterations=ITERATIONS),
            source,
            _CaptureSome(),
            job_id="fidelity",
            lint=False,
            seed=SEED,
            num_workers=NUM_WORKERS,
            store=store,
            num_partitions=NUM_PARTITIONS if store == "spill" else None,
        )
        if not run.ok:
            return None, f"fidelity {store} run failed: {run.failure}"
        digests[store] = canonical_trace_digest(
            run.session.filesystem, "fidelity"
        )
    if digests["spill"] != digests["memory"]:
        return digests, (
            "fidelity check: spill digest "
            f"{digests['spill'][:16]} != memory digest "
            f"{digests['memory'][:16]}"
        )
    return digests, None


def _debugged_run(stream, memory_limit, store="auto"):
    """One debugged run of the workload; returns ``(run, wall seconds)``."""
    gc.collect()
    started = time.perf_counter()
    run = debug_run(
        lambda: PageRank(iterations=ITERATIONS),
        stream,
        _CaptureSome(),
        job_id="scale",
        lint=False,
        seed=SEED,
        num_workers=NUM_WORKERS,
        store=store,
        memory_limit=memory_limit,
        num_partitions=NUM_PARTITIONS if store != "memory" else None,
    )
    return run, time.perf_counter() - started


def _calls_per_second(run, wall_seconds):
    if not run.ok:
        return 0.0
    return run.result.metrics.total_compute_calls / wall_seconds


def _memory_pass(stream, memory_limit):
    """The same run under tracemalloc: its heap peak, not its speed."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return _debugged_run(stream, memory_limit)
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _throughput_ratio(timed=None):
    """Untraced spill vs memory throughput on the quick input.

    ``timed`` is the timing pass's ``(run, wall)`` when that pass already
    ran the quick input on the spill plane.
    """
    stream = make(DATASET, scale="full", num_vertices=QUICK_VERTICES, seed=SEED)
    spill = _calls_per_second(
        *(timed or _debugged_run(stream, QUICK_MEMORY_LIMIT_BYTES))
    )
    memory = _calls_per_second(*_debugged_run(stream, None, store="memory"))
    return {
        "num_vertices": stream.num_vertices,
        "spill_calls_per_second": round(spill),
        "memory_calls_per_second": round(memory),
        "spill_over_memory": round(spill / memory, 3) if memory else 0.0,
    }


def run_bench(num_vertices=FULL_VERTICES,
              memory_ceiling=MEMORY_CEILING_BYTES,
              memory_limit=MEMORY_LIMIT_BYTES):
    """Run the scale workload; return (report dict, list of gate failures)."""
    failures = []

    fidelity_digests, fidelity_failure = _fidelity_check()
    if fidelity_failure:
        failures.append(fidelity_failure)

    stream = make(DATASET, scale="full", num_vertices=num_vertices, seed=SEED)
    estimated = estimated_graph_bytes(stream)

    run, wall_seconds = _debugged_run(stream, memory_limit)
    ratio = _throughput_ratio(
        (run, wall_seconds) if num_vertices == QUICK_VERTICES else None
    )
    traced_run, traced_wall_seconds = _memory_pass(stream, memory_limit)

    if not (run.ok and traced_run.ok):
        failures.append(
            f"scale run failed: {run.failure or traced_run.failure}"
        )
        report = {"benchmark": "out_of_core_scale", "gates": {
            "passed": False, "failures": failures}}
        return report, failures

    metrics = run.result.metrics
    stats = run.superstep_stats()
    traced_stats = traced_run.superstep_stats()
    peak_memory = traced_run.result.metrics.peak_memory_bytes

    if stream.num_vertices < num_vertices:
        failures.append(
            f"dataset produced {stream.num_vertices} vertices; "
            f"expected >= {num_vertices}"
        )
    low = min((s.compute_calls for s in stats[:-1]), default=0)
    if low < stream.num_vertices:
        failures.append(
            f"a superstep computed only {low} of {stream.num_vertices} "
            "vertices"
        )
    if any(s.transport != "spill" for s in stats):
        failures.append("a superstep did not run on the spill plane")
    if metrics.total_store_bytes_loaded <= 0:
        failures.append("no bytes moved through the partitioned store")
    if run.capture_count < len(CAPTURE_IDS) * (ITERATIONS + 1):
        failures.append(
            f"only {run.capture_count} contexts captured for "
            f"{len(CAPTURE_IDS)} vertices x {ITERATIONS + 1} supersteps"
        )
    if peak_memory > memory_ceiling:
        failures.append(
            f"peak Python-heap memory {peak_memory} bytes exceeds the "
            f"{memory_ceiling}-byte ceiling"
        )
    if ratio["spill_over_memory"] < THROUGHPUT_RATIO_FLOOR:
        failures.append(
            f"spill plane runs at {ratio['spill_over_memory']}x the memory "
            f"plane's calls/s on {ratio['num_vertices']} vertices; the "
            f"floor is {THROUGHPUT_RATIO_FLOOR}x"
        )

    report = {
        "benchmark": "out_of_core_scale",
        "workload": {
            "algorithm": f"PageRank(iterations={ITERATIONS})",
            "dataset": DATASET,
            "num_vertices": stream.num_vertices,
            "num_directed_edges": stream.num_edges,
            "num_workers": NUM_WORKERS,
            "num_partitions": NUM_PARTITIONS,
            "memory_limit_bytes": memory_limit,
            "seed": SEED,
            "captured_vertices": list(CAPTURE_IDS),
        },
        "measured": {
            "wall_seconds": round(wall_seconds, 2),
            "calls_per_second": round(_calls_per_second(run, wall_seconds)),
            "traced_wall_seconds": round(traced_wall_seconds, 2),
            "supersteps": run.result.num_supersteps,
            "compute_calls": metrics.total_compute_calls,
            "messages": metrics.total_messages,
            "captures": run.capture_count,
            "trace_bytes": run.trace_bytes,
            "peak_memory_bytes": peak_memory,
            "estimated_in_memory_bytes": estimated,
            "memory_vs_estimate": round(peak_memory / estimated, 3)
            if estimated else None,
            "store_bytes_spilled": metrics.total_store_bytes_spilled,
            "store_bytes_loaded": metrics.total_store_bytes_loaded,
            "page_cache_hit_rate": metrics.page_cache_hit_rate,
            "per_superstep": [
                {
                    "superstep": s.superstep,
                    "compute_calls": s.compute_calls,
                    "messages": s.messages_sent,
                    "peak_memory_bytes": traced.peak_memory_bytes,
                    "store_bytes_spilled": s.store_bytes_spilled,
                    "store_bytes_loaded": s.store_bytes_loaded,
                    "partitions_resident": s.partitions_resident,
                }
                for s, traced in zip(stats, traced_stats)
            ],
        },
        "throughput_ratio": ratio,
        "fidelity": {
            "digests": fidelity_digests,
            "matched": fidelity_failure is None,
        },
        "gates": {
            "memory_ceiling_bytes": memory_ceiling,
            "throughput_ratio_floor": THROUGHPUT_RATIO_FLOOR,
            "passed": not failures,
            "failures": failures,
        },
        "notes": (
            "wall_seconds and calls_per_second (compute() calls over the "
            "whole debugged run, load included) come from an untraced "
            "timing pass; peak_memory_bytes and traced_wall_seconds from a "
            "second pass of the same run under tracemalloc. "
            "peak_memory_bytes is the largest per-superstep tracemalloc "
            "peak (Python-heap allocations; the streaming load is included "
            "in superstep 0's sample). throughput_ratio is measured "
            "untraced on the --quick input, both planes in this process. "
            "estimated_in_memory_bytes is what "
            "the dict plane would need for vertex state alone. The "
            "fidelity digests prove the spilled run's traces are "
            "byte-identical to the in-memory plane at demo scale. "
            "See docs/scale.md."
        ),
    }
    return report, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="~100K vertices instead of 1M (CI smoke; same code path)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, failures = run_bench(
            num_vertices=QUICK_VERTICES,
            memory_ceiling=QUICK_MEMORY_CEILING_BYTES,
            memory_limit=QUICK_MEMORY_LIMIT_BYTES,
        )
    else:
        report, failures = run_bench()

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(json.dumps(report, indent=2, sort_keys=True))
    if failures:
        print("\nGATE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
