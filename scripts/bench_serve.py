"""Debug-server benchmark: concurrent clients over a multi-job trace dir.

Builds several jobs of synthetic capture traces (PageRank-shaped records
with fat edge lists and message payloads, plus persisted per-worker
metrics), starts a real :class:`~repro.serve.app.DebugServer` on
loopback, and hammers it with 8+ concurrent HTTP clients running a mixed
debugging workload — point queries, history walks, paginated views,
one-shot renders, profiler endpoints, reproduce downloads. Reports
requests/s and latency percentiles, then measures the ETag revalidation
path separately.

Gates (exit status 1 when violated):

- aggregate throughput must clear ``THROUGHPUT_FLOOR`` requests/s;
- **point queries** (vertex lookups, history walks — the interactive
  path) must keep p99 under ``POINT_P99_CEILING_SECONDS`` even while
  other clients run full-superstep scans; this ceiling is dominated by
  GIL queuing (clients, server threads, and scan decoding share one
  interpreter here), so a separate **solo phase** re-measures point
  queries without concurrent load against the much tighter
  ``SOLO_POINT_P99_CEILING_SECONDS`` — that one gates the storage path;
- **scan requests** (views, profiles, summaries) must keep p99 under
  ``SCAN_P99_CEILING_SECONDS`` — their tail is the first-touch
  materialization of a superstep, proportional to superstep size;
- every ``If-None-Match`` revalidation must answer 304 with **zero**
  filesystem reads (simfs read accounting, not trust);
- every served view body must be byte-identical to its one-shot renderer.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py [--output BENCH_serve.json]
    PYTHONPATH=src python scripts/bench_serve.py --quick   # CI smoke

Also runnable as an opt-in pytest (see tests/integration/test_bench_serve.py).
"""

import argparse
import json
import os
import random
import threading
import time
import urllib.error
import urllib.request

from repro.graft.capture import (
    ExceptionRecord,
    MasterContextRecord,
    VertexContextRecord,
    Violation,
)
from repro.graft.trace import TraceStore, trace_stats, write_job_metrics
from repro.graft.views import NodeLinkView, TabularView, ViolationsView
from repro.pregel.metrics import RunMetrics, SuperstepMetrics
from repro.serve import create_server
from repro.simfs import SimFileSystem

#: Aggregate requests/s the concurrent phase must clear. Conservative on
#: purpose: client threads, server threads, and the trace decoding all
#: share one interpreter (and its GIL) on the CI box. The full-size run is
#: bound by cold-superstep materialisation and, with more than one core
#: available, by GIL hand-offs between cores: the same box does 27–33
#: requests/s pinned to one core (``taskset -c 0``, how BENCH_serve.json
#: is recorded — see its ``cpus_available``) and 14–15 unpinned on two.
THROUGHPUT_FLOOR = 25.0

#: p99 ceiling for the interactive point-query class (vertex lookups and
#: history walks) *under full concurrent load*. The storage work is one
#: index lookup + one ranged read + one row split, but in this benchmark
#: the 8 clients, the server threads, and the scan decoding all share
#: one interpreter — so this bound is dominated by GIL queuing behind
#: CPU-bound scans, not by the trace store.
POINT_P99_CEILING_SECONDS = 2.5

#: p99 ceiling for point queries measured *without* concurrent load
#: (the solo phase). No GIL contention: this is the actual lazy-read
#: path — index lookup, ranged read, block decompress, row split — and
#: must stay firmly interactive. Records are served from their stored row
#: text: 1.2–4.6 ms at the median and 23–59 ms at p99 (a block-cache miss
#: re-reads and decompresses a 1.3 MB block) over five full-size runs on a
#: VM whose speed drifts; the ceiling is 2.5× the slowest p99 measured.
SOLO_POINT_P99_CEILING_SECONDS = 0.15

#: p99 ceiling for the scan class (views, profiles, job summaries). Its
#: tail is the first request to touch a cold superstep, which pays the
#: full materialization of that superstep's records — proportional to
#: superstep size, amortized across every later request.
SCAN_P99_CEILING_SECONDS = 15.0

SEED = 23
NUM_WORKERS = 4
NUM_CLIENTS = 8


def _build_job(fs, job_id, num_vertices, num_supersteps, rng):
    """One job's trace files + metrics.json; returns records written."""
    store = TraceStore(fs, job_id, NUM_WORKERS)
    metrics = RunMetrics()
    fanout = 8
    for superstep in range(num_supersteps):
        records = []
        row = SuperstepMetrics(
            superstep=superstep,
            active_vertices=num_vertices,
            compute_calls=num_vertices,
            wall_seconds=0.05,
            compute_seconds=0.12,
        )
        for vertex_id in range(num_vertices):
            incoming = [
                (rng.randrange(num_vertices), rng.random())
                for _ in range(6)
            ]
            violations = []
            if vertex_id % 1009 == 0 and superstep % 4 == 0:
                violations = [Violation(
                    "message", vertex_id, superstep, {"value": -1.0}
                )]
            exception = None
            if vertex_id % 4999 == 0 and superstep == num_supersteps - 1:
                exception = ExceptionRecord("ValueError", "overflow", "trace")
            edges = {
                (vertex_id + k * 7) % num_vertices: rng.random()
                for k in range(1, fanout + 1)
            }
            sent = [
                (target, rng.random() * 0.85) for target in edges
            ]
            records.append(VertexContextRecord(
                vertex_id=vertex_id,
                superstep=superstep,
                worker_id=vertex_id % NUM_WORKERS,
                value_before=rng.random(),
                edges_before=edges,
                incoming=incoming,
                aggregators={"dangling": rng.random(), "delta": rng.random()},
                num_vertices=num_vertices,
                num_edges=num_vertices * fanout,
                run_seed=SEED,
                value_after=rng.random(),
                edges_after=edges,
                sent=sent,
                halted=superstep == num_supersteps - 1,
                reasons=["all_active"],
                violations=violations,
                exception=exception,
            ))
            row.messages_sent += len(sent)
            row.bytes_sent += len(sent) * 24
        for worker_id in range(NUM_WORKERS):
            # Deterministic imbalance so the skew endpoint has signal.
            row.add_worker_row(
                worker_id,
                0.01 * (1.0 + 0.5 * worker_id),
                num_vertices // NUM_WORKERS,
                row.messages_sent // NUM_WORKERS,
                row.bytes_sent // NUM_WORKERS,
            )
        metrics.add_superstep(row)
        store.write_vertex_records(records)
        store.write_master_record(MasterContextRecord(
            superstep=superstep,
            aggregators={"dangling": 0.15},
            aggregators_before={"dangling": 0.0},
        ))
        store.flush()
    store.close()
    metrics.total_seconds = metrics.total_wall_seconds
    write_job_metrics(fs, job_id, metrics)
    return store.records_written


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _workload(job_ids, num_vertices, num_supersteps, requests_per_client):
    """Per-client ``(class, path)`` lists: a mixed debugging session.

    ``"point"`` requests are lazy index lookups (vertex, history);
    ``"scan"`` requests walk or materialize whole supersteps (views,
    profiles, summaries). The two classes are gated separately.
    """
    plans = []
    for client in range(NUM_CLIENTS):
        rng = random.Random(SEED + client)
        plan = []
        for _ in range(requests_per_client):
            job = job_ids[rng.randrange(len(job_ids))]
            roll = rng.random()
            if roll < 0.45:  # point queries dominate real debugging
                plan.append((
                    "point",
                    f"/jobs/{job}/vertex/{rng.randrange(num_vertices)}"
                    f"?superstep={rng.randrange(num_supersteps)}",
                ))
            elif roll < 0.60:
                plan.append((
                    "point",
                    f"/jobs/{job}/vertex/{rng.randrange(num_vertices)}"
                    "/history",
                ))
            elif roll < 0.72:
                plan.append((
                    "scan",
                    f"/jobs/{job}/views/tabular?limit=50"
                    f"&superstep={rng.randrange(num_supersteps)}",
                ))
            elif roll < 0.80:
                plan.append(("scan", f"/jobs/{job}/views/violations"))
            elif roll < 0.88:
                plan.append((
                    "scan",
                    f"/jobs/{job}/profile/"
                    f"{'heatmap' if rng.random() < 0.5 else 'skew'}",
                ))
            elif roll < 0.94:
                plan.append(("scan", f"/jobs/{job}"))
            else:
                plan.append((
                    "scan",
                    f"/jobs/{job}/views/nodelink?limit=25"
                    f"&superstep={rng.randrange(num_supersteps)}",
                ))
        plans.append(plan)
    return plans


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


def _run_clients(base_url, plans):
    """Fire all plans concurrently; returns (wall seconds, latencies, errors)."""
    barrier = threading.Barrier(len(plans) + 1)
    latencies = [[] for _ in plans]
    errors = []

    def client(index):
        try:
            barrier.wait(timeout=60)
            for request_class, path in plans[index]:
                started = time.perf_counter()
                status, _headers, body = _get(base_url + path)
                latencies[index].append(
                    (request_class, time.perf_counter() - started)
                )
                if status != 200:
                    errors.append(f"{path} -> {status}: {body[:120]!r}")
        except Exception as exc:  # noqa: BLE001 - reported via gate failure
            errors.append(f"client {index}: {exc!r}")

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(len(plans))
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - started
    flat = [sample for per_client in latencies for sample in per_client]
    return wall, flat, errors


def run_bench(num_jobs=3, num_vertices=4000, num_supersteps=16,
              requests_per_client=150):
    """Run all phases; return (report dict, list of gate failures)."""
    fs = SimFileSystem()
    job_ids = [f"job-{i}" for i in range(num_jobs)]
    total_records = 0
    for i, job_id in enumerate(job_ids):
        total_records += _build_job(
            fs, job_id, num_vertices, num_supersteps,
            random.Random(SEED + 100 * i),
        )
    storage = {
        job_id: trace_stats(fs, job_id)["totals"] for job_id in job_ids
    }
    stored_bytes = sum(t["bytes"] for t in storage.values())
    raw_bytes = sum(
        round(t["bytes"] * t["compression_ratio"]) for t in storage.values()
    )

    failures = []
    server = create_server(fs).start()
    try:
        # Warmup: list the jobs (computes and pins every digest and the
        # stats documents) and touch one point query per job.
        _get(server.url + "/jobs")
        etags = {}
        for job_id in job_ids:
            status, headers, _body = _get(f"{server.url}/jobs/{job_id}")
            assert status == 200
            etags[job_id] = headers["ETag"]

        # Phase 1: correctness — served views == one-shot renderers, byte
        # for byte.
        render_checks = 0
        for job_id in job_ids:
            reader = server.pool.reader(job_id)
            for name, expected in (
                ("nodelink", NodeLinkView(reader, None).render()),
                ("tabular", TabularView(reader).render()),
                ("violations", ViolationsView(reader).render()),
            ):
                _status, _headers, body = _get(
                    f"{server.url}/jobs/{job_id}/views/{name}/render"
                )
                render_checks += 1
                if body != expected.encode("utf-8"):
                    failures.append(
                        f"{job_id}/views/{name}/render is not byte-identical "
                        "to the one-shot renderer"
                    )

        # Phase 2: throughput + latency under NUM_CLIENTS concurrent
        # mixed-workload clients.
        plans = _workload(
            job_ids, num_vertices, num_supersteps, requests_per_client
        )
        wall, latencies, errors = _run_clients(server.url, plans)
        failures.extend(errors[:5])
        num_requests = len(latencies)
        throughput = num_requests / wall if wall else float("inf")
        all_samples = [sample for _cls, sample in latencies]
        point_samples = [s for cls, s in latencies if cls == "point"]
        scan_samples = [s for cls, s in latencies if cls == "scan"]
        p50 = _percentile(all_samples, 0.50)
        p99 = _percentile(all_samples, 0.99)
        point_p99 = _percentile(point_samples, 0.99)
        scan_p99 = _percentile(scan_samples, 0.99)

        # Phase 3: point queries with no concurrent load — the storage
        # path itself, GIL contention excluded.
        solo_rng = random.Random(SEED + 1000)
        solo_samples = []
        for _ in range(200):
            job = job_ids[solo_rng.randrange(len(job_ids))]
            vertex = solo_rng.randrange(num_vertices)
            superstep = solo_rng.randrange(num_supersteps)
            started = time.perf_counter()
            status, _headers, body = _get(
                f"{server.url}/jobs/{job}/vertex/{vertex}"
                f"?superstep={superstep}"
            )
            solo_samples.append(time.perf_counter() - started)
            if status != 200:
                failures.append(
                    f"solo point query -> {status}: {body[:120]!r}"
                )
        solo_point_p99 = _percentile(solo_samples, 0.99)

        # Phase 4: the revalidation path. Every conditional GET must 304
        # without touching the filesystem at all.
        revalidations = 0
        reads_before = (fs.bytes_read, fs.read_calls)
        started = time.perf_counter()
        for round_ in range(20):
            for job_id in job_ids:
                status, _headers, _body = _get(
                    f"{server.url}/jobs/{job_id}/views/tabular",
                    headers={"If-None-Match": etags[job_id]},
                )
                revalidations += 1
                if status != 304:
                    failures.append(
                        f"revalidation of {job_id} answered {status}, not 304"
                    )
        revalidation_wall = time.perf_counter() - started
        reads_after = (fs.bytes_read, fs.read_calls)
        zero_read_304 = reads_before == reads_after
        if not zero_read_304:
            failures.append(
                f"304 path read the filesystem: bytes_read "
                f"{reads_before[0]} -> {reads_after[0]}, read_calls "
                f"{reads_before[1]} -> {reads_after[1]}"
            )

        if throughput < THROUGHPUT_FLOOR:
            failures.append(
                f"throughput {throughput:.1f} req/s under the "
                f"{THROUGHPUT_FLOOR} floor"
            )
        if point_p99 > POINT_P99_CEILING_SECONDS:
            failures.append(
                f"point-query p99 {point_p99:.3f}s over the "
                f"{POINT_P99_CEILING_SECONDS}s ceiling"
            )
        if solo_point_p99 > SOLO_POINT_P99_CEILING_SECONDS:
            failures.append(
                f"solo point-query p99 {solo_point_p99:.3f}s over the "
                f"{SOLO_POINT_P99_CEILING_SECONDS}s ceiling"
            )
        if scan_p99 > SCAN_P99_CEILING_SECONDS:
            failures.append(
                f"scan p99 {scan_p99:.3f}s over the "
                f"{SCAN_P99_CEILING_SECONDS}s ceiling"
            )

        cache_stats = server.pool.cache_stats()
    finally:
        server.shutdown()

    report = {
        "benchmark": "debug_server",
        "workload": {
            "num_jobs": num_jobs,
            "num_vertices": num_vertices,
            "num_supersteps": num_supersteps,
            "num_workers": NUM_WORKERS,
            "total_records": total_records,
            "stored_bytes": stored_bytes,
            "raw_payload_bytes": raw_bytes,
            "num_clients": NUM_CLIENTS,
            "requests_per_client": requests_per_client,
            "seed": SEED,
            "cpus_available": (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count()
            ),
        },
        "concurrent": {
            "requests": num_requests,
            "wall_seconds": round(wall, 3),
            "requests_per_second": round(throughput, 1),
            "latency_seconds": {
                "p50": round(p50, 6),
                "p99": round(p99, 6),
                "max": round(max(all_samples), 6),
                "point": {
                    "requests": len(point_samples),
                    "p50": round(_percentile(point_samples, 0.50), 6),
                    "p99": round(point_p99, 6),
                },
                "scan": {
                    "requests": len(scan_samples),
                    "p50": round(_percentile(scan_samples, 0.50), 6),
                    "p99": round(scan_p99, 6),
                },
            },
        },
        "solo_point_queries": {
            "requests": len(solo_samples),
            "latency_seconds": {
                "p50": round(_percentile(solo_samples, 0.50), 6),
                "p99": round(solo_point_p99, 6),
                "max": round(max(solo_samples), 6),
            },
        },
        "revalidation": {
            "requests": revalidations,
            "wall_seconds": round(revalidation_wall, 3),
            "requests_per_second": round(
                revalidations / revalidation_wall, 1
            ) if revalidation_wall else None,
            "zero_filesystem_reads": zero_read_304,
        },
        "correctness": {
            "render_endpoints_checked": render_checks,
            "byte_identical": not any(
                "byte-identical" in failure for failure in failures
            ),
        },
        "shared_caches": cache_stats,
        "gates": {
            "throughput_floor_rps": THROUGHPUT_FLOOR,
            "point_p99_ceiling_seconds": POINT_P99_CEILING_SECONDS,
            "solo_point_p99_ceiling_seconds": SOLO_POINT_P99_CEILING_SECONDS,
            "scan_p99_ceiling_seconds": SCAN_P99_CEILING_SECONDS,
            "passed": not failures,
            "failures": failures,
        },
        "notes": (
            "Clients and server share one interpreter; throughput is a "
            "conservative lower bound. Point queries (vertex/history) and "
            "scans (views/profiles/summaries) are gated separately: a "
            "scan's tail is the first-touch materialization of a cold "
            "superstep, and the contended point ceiling is dominated by "
            "GIL queuing behind those scans — the solo phase re-measures "
            "the same queries without load to gate the storage path "
            "itself. The revalidation phase asserts the 304 path "
            "performs zero simfs reads once digests are warm. "
            "See docs/serve.md."
        ),
    }
    return report, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="small jobs and fewer requests (CI smoke, noisier numbers)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, failures = run_bench(
            num_jobs=2, num_vertices=300, num_supersteps=6,
            requests_per_client=25,
        )
    else:
        report, failures = run_bench()

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.output}")
    workload = report["workload"]
    print(f"  jobs: {workload['num_jobs']} "
          f"({workload['total_records']:,} records, "
          f"{workload['stored_bytes']:,} bytes stored, "
          f"{workload['raw_payload_bytes']:,} bytes raw)")
    concurrent = report["concurrent"]
    latency = concurrent["latency_seconds"]
    print(f"  concurrent: {concurrent['requests']} requests from "
          f"{workload['num_clients']} clients -> "
          f"{concurrent['requests_per_second']} req/s, "
          f"point p99 {latency['point']['p99']}s, "
          f"scan p99 {latency['scan']['p99']}s")
    solo = report["solo_point_queries"]
    print(f"  solo point queries: {solo['requests']} requests -> "
          f"p50 {solo['latency_seconds']['p50']}s, "
          f"p99 {solo['latency_seconds']['p99']}s")
    revalidation = report["revalidation"]
    print(f"  revalidation: {revalidation['requests']} conditional GETs -> "
          f"{revalidation['requests_per_second']} req/s, zero reads: "
          f"{revalidation['zero_filesystem_reads']}")
    if failures:
        for failure in failures:
            print(f"  GATE FAILED: {failure}")
        return 1
    print("  all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
