"""Trace-store benchmark: lazy indexed reads vs. eager decoding, one JSON.

Builds a synthetic capture trace (PageRank-shaped records, >=50k vertex
records across several worker files, flushed at superstep barriers exactly
like a real run), then measures what the indexed trace format buys:

- **write** — the barrier-drain path: ``write_vertex_records`` +
  ``write_master_record`` + ``flush`` per superstep, ``close`` at the end
  (row encoding, block packing, zlib, index lines), records per second.
- **cold open** — constructing a reader. Eager decodes every record;
  lazy parses only the sidecar block directory.
- **cold point query** — fresh reader + one ``get(vertex, superstep)``.
  The "jump straight to the suspicious vertex" move from the paper's GUI:
  lazy does one index lookup, one ranged read, one record decode.
- **warm queries** — repeated gets/history/at_superstep on a live reader.
- **storage** — stored bytes (``stored_bytes``, ``stored_index_bytes``:
  the trace files and their sidecars, in whatever format the writer
  writes) vs. the size of the same records' canonical JSON-line stream
  (``v1_bytes``, ``stored_vs_v1``: the stream exists whether or not any
  file ever held it), sidecar overhead, zlib ratio.

Gates (exit status 1 when violated):

- lazy cold open must be >= 5x faster than eager on the same trace;
- lazy cold point query must be >= 20x faster than eager cold (open+get);
- lazy and eager readers must return equivalent answers over a query
  sample (get / history / at_superstep / violations / exceptions);
- the write path must sustain >= 11,000 records/s (half the reference
  box's rate).

Usage::

    PYTHONPATH=src python scripts/bench_trace.py [--output BENCH_trace.json]
    PYTHONPATH=src python scripts/bench_trace.py --quick   # smaller trace

Also runnable as an opt-in pytest (see tests/integration/test_bench_trace.py).
"""

import argparse
import json
import random
import time

from repro.graft.capture import (
    ExceptionRecord,
    MasterContextRecord,
    VertexContextRecord,
    Violation,
)
from repro.graft.trace import (
    TraceReader,
    TraceStore,
    canonical_trace_digest,
    iter_canonical_trace_lines,
    trace_stats,
)
from repro.simfs import SimFileSystem

#: Required speedup of lazy over eager reader construction (cold open).
OPEN_SPEEDUP_FLOOR = 5.0

#: Required speedup of a lazy cold point query over an eager one.
POINT_QUERY_SPEEDUP_FLOOR = 20.0

#: Required write-path throughput: half of what the reference box measures
#: on the full workload (BENCH_trace.json ``write.records_per_second``).
WRITE_RATE_FLOOR = 11_000

SEED = 11
NUM_WORKERS = 4
ROUNDS = 3
JOB = "bench"


def _make_batches(num_vertices, num_supersteps, rng):
    """A synthetic all-active capture: one ``(vertex records, master
    record)`` batch per superstep."""
    batches = []
    for superstep in range(num_supersteps):
        records = []
        for vertex_id in range(num_vertices):
            incoming = [
                (rng.randrange(num_vertices), rng.random())
                for _ in range(rng.randrange(4))
            ]
            violations = []
            if vertex_id % 997 == 0 and superstep % 5 == 0:
                violations = [Violation(
                    "message", vertex_id, superstep, {"value": -1.0}
                )]
            exception = None
            if vertex_id % 4999 == 0 and superstep == num_supersteps - 1:
                exception = ExceptionRecord("ValueError", "overflow", "trace")
            records.append(VertexContextRecord(
                vertex_id=vertex_id,
                superstep=superstep,
                worker_id=vertex_id % NUM_WORKERS,
                value_before=rng.random(),
                edges_before={(vertex_id + k) % num_vertices: 1.0
                              for k in (1, 2, 3)},
                incoming=incoming,
                aggregators={"dangling": rng.random()},
                num_vertices=num_vertices,
                num_edges=num_vertices * 3,
                run_seed=SEED,
                value_after=rng.random(),
                edges_after={(vertex_id + k) % num_vertices: 1.0
                             for k in (1, 2, 3)},
                sent=[((vertex_id + 1) % num_vertices, rng.random())],
                halted=superstep == num_supersteps - 1,
                reasons=["all_active"],
                violations=violations,
                exception=exception,
            ))
        batches.append((records, MasterContextRecord(
            superstep=superstep, aggregators={"dangling": 0.15},
            aggregators_before={"dangling": 0.0},
        )))
    return batches


def _write_trace(batches):
    """Write the batches as a run does, flushed at superstep barriers."""
    fs = SimFileSystem()
    store = TraceStore(fs, JOB, NUM_WORKERS)
    for records, master_record in batches:
        store.write_vertex_records(records)
        store.write_master_record(master_record)
        store.flush()
    store.close()
    return fs, store.records_written


def _best_seconds(fn, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _check_equivalence(fs, num_vertices, num_supersteps, rng):
    """Lazy and eager readers must answer a query sample identically."""
    lazy = TraceReader(fs, JOB, mode="lazy")
    eager = TraceReader(fs, JOB, mode="eager")
    problems = []
    if len(lazy) != len(eager):
        problems.append(f"len: lazy={len(lazy)} eager={len(eager)}")
    if lazy.supersteps() != eager.supersteps():
        problems.append("supersteps() differ")
    for _ in range(50):
        vid = rng.randrange(num_vertices)
        step = rng.randrange(num_supersteps)
        a, b = lazy.get(vid, step), eager.get(vid, step)
        if (a.value_before, a.value_after, a.sent, a.incoming) != (
                b.value_before, b.value_after, b.sent, b.incoming):
            problems.append(f"get({vid}, {step}) differs")
    vid = rng.randrange(num_vertices)
    if [r.superstep for r in lazy.history(vid)] != [
            r.superstep for r in eager.history(vid)]:
        problems.append(f"history({vid}) differs")
    step = rng.randrange(num_supersteps)
    if [r.vertex_id for r in lazy.at_superstep(step)] != [
            r.vertex_id for r in eager.at_superstep(step)]:
        problems.append(f"at_superstep({step}) differs")
    if [(v.vertex_id, v.superstep) for v in lazy.violations()] != [
            (v.vertex_id, v.superstep) for v in eager.violations()]:
        problems.append("violations() differ")
    if [(r.key, e.type_name) for r, e in lazy.exceptions()] != [
            (r.key, e.type_name) for r, e in eager.exceptions()]:
        problems.append("exceptions() differ")
    return problems


def run_bench(num_vertices=2_500, num_supersteps=20, rounds=ROUNDS):
    """Run all measurements; return (report dict, list of gate failures)."""
    rng = random.Random(SEED)
    batches = _make_batches(num_vertices, num_supersteps, random.Random(SEED))
    write_s, (fs, records) = _best_seconds(lambda: _write_trace(batches), rounds)
    write_rate = records / write_s

    eager_open, eager_reader = _best_seconds(
        lambda: TraceReader(fs, JOB, mode="eager"), rounds
    )
    lazy_open, _ = _best_seconds(
        lambda: TraceReader(fs, JOB, mode="lazy"), rounds
    )

    probe_vid = num_vertices // 2
    probe_step = num_supersteps // 2

    def eager_point():
        return TraceReader(fs, JOB, mode="eager").get(probe_vid, probe_step)

    def lazy_point():
        return TraceReader(fs, JOB, mode="lazy").get(probe_vid, probe_step)

    eager_point_s, _ = _best_seconds(eager_point, rounds)
    lazy_point_s, _ = _best_seconds(lazy_point, rounds)

    warm = TraceReader(fs, JOB, mode="lazy")
    query_rng = random.Random(SEED + 1)
    probes = [
        (query_rng.randrange(num_vertices), query_rng.randrange(num_supersteps))
        for _ in range(200)
    ]

    def warm_gets():
        for vid, step in probes:
            warm.get(vid, step)

    warm_get_s, _ = _best_seconds(warm_gets, rounds)
    history_s, _ = _best_seconds(lambda: warm.history(probe_vid), rounds)
    at_step_s, _ = _best_seconds(lambda: warm.at_superstep(probe_step), rounds)

    digest = canonical_trace_digest(fs, JOB)
    equivalence_problems = _check_equivalence(
        fs, num_vertices, num_supersteps, rng
    )

    stats = trace_stats(fs, JOB)
    v1_bytes = sum(
        len(line.encode("utf-8")) + 1
        for line in iter_canonical_trace_lines(fs, JOB)
    )

    open_speedup = eager_open / lazy_open if lazy_open else float("inf")
    point_speedup = (
        eager_point_s / lazy_point_s if lazy_point_s else float("inf")
    )

    failures = []
    if open_speedup < OPEN_SPEEDUP_FLOOR:
        failures.append(
            f"lazy cold open only {open_speedup:.1f}x faster than eager; "
            f"floor is {OPEN_SPEEDUP_FLOOR}x"
        )
    if point_speedup < POINT_QUERY_SPEEDUP_FLOOR:
        failures.append(
            f"lazy cold point query only {point_speedup:.1f}x faster than "
            f"eager; floor is {POINT_QUERY_SPEEDUP_FLOOR}x"
        )
    failures.extend(equivalence_problems)
    if write_rate < WRITE_RATE_FLOOR:
        failures.append(
            f"trace write path sustained only {write_rate:,.0f} records/s; "
            f"floor is {WRITE_RATE_FLOOR:,}"
        )

    report = {
        "benchmark": "trace_store",
        "workload": {
            "vertex_records": records - num_supersteps,
            "total_records": records,
            "num_vertices": num_vertices,
            "num_supersteps": num_supersteps,
            "num_workers": NUM_WORKERS,
            "seed": SEED,
            "rounds": rounds,
        },
        "write": {
            "seconds": round(write_s, 6),
            "records_per_second": round(write_rate),
        },
        "cold_open_seconds": {
            "eager": round(eager_open, 6),
            "lazy": round(lazy_open, 6),
            "speedup": round(open_speedup, 1),
        },
        "cold_point_query_seconds": {
            "eager": round(eager_point_s, 6),
            "lazy": round(lazy_point_s, 6),
            "speedup": round(point_speedup, 1),
        },
        "warm_query_seconds": {
            "get_x200": round(warm_get_s, 6),
            "history": round(history_s, 6),
            "at_superstep": round(at_step_s, 6),
        },
        "storage": {
            "stored_bytes": stats["totals"]["bytes"],
            "stored_index_bytes": stats["totals"]["index_bytes"],
            "v1_bytes": v1_bytes,
            "stored_vs_v1": round(stats["totals"]["bytes"] / v1_bytes, 3),
            "compression_ratio": stats["totals"]["compression_ratio"],
            "index_coverage": stats["totals"]["index_coverage"],
        },
        "canonical_digest": digest,
        "gates": {
            "open_speedup_floor": OPEN_SPEEDUP_FLOOR,
            "point_query_speedup_floor": POINT_QUERY_SPEEDUP_FLOOR,
            "write_records_per_second_floor": WRITE_RATE_FLOOR,
            "passed": not failures,
            "failures": failures,
        },
        "notes": (
            "Eager cold numbers decode the full trace; lazy opens parse "
            "only the index sidecars and each point query does one index "
            "lookup, one ranged read, and one record decode. "
            "See docs/trace-format.md."
        ),
    }
    return report, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_trace.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller trace and fewer rounds (CI smoke, noisier numbers)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, failures = run_bench(
            num_vertices=500, num_supersteps=10, rounds=2
        )
    else:
        report, failures = run_bench()

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.output}")
    print(f"  records: {report['workload']['total_records']:,} "
          f"({report['storage']['stored_bytes']:,} bytes stored, "
          f"{report['storage']['v1_bytes']:,} bytes v1)")
    print(f"  write: {report['write']['seconds']}s "
          f"({report['write']['records_per_second']:,} records/s)")
    print(f"  cold open: lazy {report['cold_open_seconds']['lazy']}s vs "
          f"eager {report['cold_open_seconds']['eager']}s "
          f"({report['cold_open_seconds']['speedup']}x)")
    print(f"  cold point query: lazy "
          f"{report['cold_point_query_seconds']['lazy']}s vs eager "
          f"{report['cold_point_query_seconds']['eager']}s "
          f"({report['cold_point_query_seconds']['speedup']}x)")
    if failures:
        for failure in failures:
            print(f"  GATE FAILED: {failure}")
        return 1
    print("  all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
