"""Performance smoke test: engine throughput + Graft overhead, one JSON.

Runs the engine-throughput benchmark (PageRank on the web-BS stand-in,
>=100k directed edges) under every execution backend, plus a small
Figure-7-style overhead measurement (plain run vs. capture-all debug run),
and writes ``BENCH_engine.json`` with the numbers CI gates on.

Gates (exit status 1 when violated):

- the best backend must clear 2x the recorded seed-revision baseline
  (29,412 compute calls/s on this workload), demonstrating the batched
  message-routing and capture fast paths;
- ``processes`` gets its own hardware-aware floor (it no longer hides
  behind ``best_backend``): with >= 4 usable cores it must beat serial
  2x outright; on smaller machines — where multi-process parallelism is
  physically unavailable — fork, frame packing and the frames' trip back
  through the pipe may cost at most half of serial's throughput on the
  same workload (see docs/columnar.md).

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--output BENCH_engine.json]
    PYTHONPATH=src python scripts/bench_smoke.py --quick   # smaller graph

Also runnable as an opt-in pytest (see tests/integration/test_bench_smoke.py).
"""

import argparse
import json
import os
import sys
import time

from repro.algorithms import PageRank
from repro.datasets import load_dataset
from repro.graft import debug_run
from repro.graft.config import standard_configs
from repro.pregel import EXECUTOR_NAMES, PregelEngine

#: Engine throughput measured at the seed revision (single-backend serial
#: engine, PageRank x5 on web-BS @ 20k vertices / 218,027 directed edges).
SEED_BASELINE_CALLS_PER_SECOND = 29_412

#: Required speedup of the best backend over the seed baseline.
SPEEDUP_FLOOR = 2.0

#: processes must beat serial by this factor when real cores are available.
PROCESSES_SPEEDUP_FLOOR = 2.0

#: Minimum usable cores for the outright processes-vs-serial gate; below
#: this the machine cannot parallelize and the gate falls back to bounding
#: the transport's cost against serial.
PROCESSES_GATE_MIN_CORES = 4

#: On core-starved machines processes must keep this fraction of serial's
#: throughput. It is the floor the retired per-envelope pickling transport
#: set: that transport ran at 0.40x serial (30,774 / 76,594 calls/s) and
#: the packed one had to beat it by 1.25x.
PROCESSES_STARVED_FLOOR = 0.50

SEED = 3
ITERATIONS = 5
NUM_WORKERS = 4
ROUNDS = 3


def _usable_cores():
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _throughput(graph, executor, rounds=ROUNDS):
    """Best-of-N compute-calls-per-second for one backend.

    Returns ``(calls_per_second, run_metrics)``; the metrics come from the
    last round (counters are deterministic, only timings vary).
    """
    best = 0.0
    metrics = None
    for _ in range(rounds):
        engine = PregelEngine(
            lambda: PageRank(iterations=ITERATIONS),
            graph,
            seed=SEED,
            num_workers=NUM_WORKERS,
            executor=executor,
        )
        started = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - started
        best = max(best, result.metrics.total_compute_calls / elapsed)
        metrics = result.metrics
    return best, metrics


def _overhead_percent(graph, rounds=ROUNDS):
    """Figure-7-style overhead: DC-full debug run vs. plain run.

    DC-full (specified vertices + message/value constraints) is the most
    expensive Table 3 configuration the Figure 7 grid gates on; mid-rank
    vertex ids avoid the Zipf hubs, as in benchmarks/bench_fig7_overhead.
    """
    all_ids = list(graph.vertex_ids())
    start = len(all_ids) // 4
    ids = all_ids[start:start + 10]

    def plain():
        return PregelEngine(
            lambda: PageRank(iterations=ITERATIONS),
            graph,
            seed=SEED,
            num_workers=NUM_WORKERS,
        ).run()

    def debugged():
        return debug_run(
            lambda: PageRank(iterations=ITERATIONS),
            graph,
            standard_configs(ids)["DC-full"],
            seed=SEED,
            num_workers=NUM_WORKERS,
            lint=False,
        )

    def best_seconds(runner):
        best = None
        for _ in range(rounds):
            started = time.perf_counter()
            outcome = runner()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best, outcome

    plain_seconds, _ = best_seconds(plain)
    debug_seconds, run = best_seconds(debugged)
    assert run.ok, run.failure
    return {
        "config": "DC-full",
        "plain_seconds": round(plain_seconds, 4),
        "debug_seconds": round(debug_seconds, 4),
        "overhead_percent": round(
            (debug_seconds / plain_seconds - 1.0) * 100.0, 1
        ),
        "captures": run.capture_count,
    }


def run_smoke(num_vertices=20_000, overhead_vertices=2_000, rounds=ROUNDS):
    """Run all measurements; return (report dict, list of gate failures)."""
    graph = load_dataset("web-BS", num_vertices=num_vertices, seed=SEED)
    backends = {}
    backend_metrics = {}
    for executor in EXECUTOR_NAMES:
        cps, metrics = _throughput(graph, executor, rounds)
        backends[executor] = round(cps, 0)
        backend_metrics[executor] = metrics
    small_graph = load_dataset(
        "web-BS", num_vertices=overhead_vertices, seed=SEED
    )
    overhead = _overhead_percent(small_graph, rounds)

    serial = backends["serial"]
    processes = backends["processes"]
    best_backend = max(backends, key=backends.get)
    speedup = backends[best_backend] / SEED_BASELINE_CALLS_PER_SECOND
    usable_cores = _usable_cores()

    failures = []
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"best backend {best_backend} is only {speedup:.2f}x the seed "
            f"baseline ({SEED_BASELINE_CALLS_PER_SECOND:,} calls/s); "
            f"floor is {SPEEDUP_FLOOR}x"
        )
    if usable_cores >= PROCESSES_GATE_MIN_CORES:
        if processes < serial * PROCESSES_SPEEDUP_FLOOR:
            failures.append(
                f"processes@{NUM_WORKERS} ({processes:,.0f} calls/s) is only "
                f"{processes / serial:.2f}x serial ({serial:,.0f}) on "
                f"{usable_cores} cores; floor is {PROCESSES_SPEEDUP_FLOOR}x"
            )
    elif processes < serial * PROCESSES_STARVED_FLOOR:
        failures.append(
            f"processes@{NUM_WORKERS} ({processes:,.0f} calls/s) is only "
            f"{processes / serial:.2f}x serial ({serial:,.0f}) on a "
            f"{usable_cores}-core machine; floor is "
            f"{PROCESSES_STARVED_FLOOR}x"
        )

    proc_metrics = backend_metrics["processes"]
    transport = {
        "mode": proc_metrics.supersteps[0].transport
        if proc_metrics.supersteps else "columnar",
        "frame_bytes": proc_metrics.total_transport_bytes,
        "packed_batches": proc_metrics.total_transport_batches,
        "pickle_fallbacks": proc_metrics.total_pickle_fallbacks,
        "messages": proc_metrics.total_messages,
    }

    report = {
        "benchmark": "engine_smoke",
        "workload": {
            "algorithm": f"PageRank(iterations={ITERATIONS})",
            "dataset": "web-BS",
            "num_vertices": graph.num_vertices,
            "num_directed_edges": graph.num_edges,
            "num_workers": NUM_WORKERS,
            "seed": SEED,
            "rounds": rounds,
        },
        "throughput_calls_per_second": backends,
        "seed_baseline_calls_per_second": SEED_BASELINE_CALLS_PER_SECOND,
        "best_backend": best_backend,
        "speedup_vs_seed_baseline": round(speedup, 2),
        "processes_vs_serial": round(processes / serial, 3) if serial else None,
        "usable_cores": usable_cores,
        "transport": transport,
        "overhead": overhead,
        "gates": {
            "speedup_floor_vs_seed": SPEEDUP_FLOOR,
            "processes_vs_serial_floor": PROCESSES_SPEEDUP_FLOOR,
            "processes_gate_min_cores": PROCESSES_GATE_MIN_CORES,
            "processes_starved_floor": PROCESSES_STARVED_FLOOR,
            "passed": not failures,
            "failures": failures,
        },
        "notes": (
            "processes cannot out-run serial on pure-Python compute on a "
            "core-starved machine; the speedup over the seed "
            "baseline comes from packed message routing, compact broadcast "
            "records, and the capture/serialization fast paths. The "
            "processes gate is hardware-aware: on >= 4 usable cores it "
            "demands an outright 2x win over serial; on core-starved "
            "machines it bounds what fork + the packed frames' trip back "
            "through the pipe may cost against serial in the same run "
            "instead. "
            "See docs/performance.md and docs/columnar.md."
        ),
    }
    return report, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller graph and fewer rounds (CI smoke, noisier numbers)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, failures = run_smoke(
            num_vertices=5_000, overhead_vertices=1_000, rounds=2
        )
    else:
        report, failures = run_smoke()

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.output}")
    for executor, cps in report["throughput_calls_per_second"].items():
        print(f"  {executor:>10}: {cps:>12,.0f} calls/s")
    print(
        f"  processes/serial: {report['processes_vs_serial']}x "
        f"({report['usable_cores']} usable core(s))"
    )
    print(
        f"  best={report['best_backend']} "
        f"({report['speedup_vs_seed_baseline']}x seed baseline), "
        f"overhead {report['overhead']['overhead_percent']}% "
        f"({report['overhead']['captures']} captures)"
    )
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("  all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
