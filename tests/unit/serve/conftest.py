"""Shared fixtures: a filesystem with two small served jobs.

``job-a`` is the full-featured one — violations, an exception, per-worker
metrics rows. ``job-b`` is minimal: no violations, no metrics.json (so
profiler endpoints must 404 on it).
"""

import pytest

from repro.graft.capture import (
    ExceptionRecord,
    MasterContextRecord,
    VertexContextRecord,
    Violation,
)
from repro.graft.trace import TraceStore, write_job_metrics
from repro.pregel.metrics import RunMetrics, SuperstepMetrics
from repro.simfs import SimFileSystem

NUM_VERTICES = 30
NUM_SUPERSTEPS = 4
NUM_WORKERS = 2


def build_job(fs, job_id, with_flags=True):
    store = TraceStore(fs, job_id, NUM_WORKERS)
    for superstep in range(NUM_SUPERSTEPS):
        records = []
        for vertex_id in range(NUM_VERTICES):
            violations = []
            exception = None
            if with_flags and vertex_id == 7 and superstep == 2:
                violations = [
                    Violation(
                        "message", vertex_id, superstep, {"value": -1.5}
                    )
                ]
            if with_flags and vertex_id == 11 and superstep == 3:
                exception = ExceptionRecord(
                    "ValueError", "overflow", "Traceback: boom"
                )
            records.append(
                VertexContextRecord(
                    vertex_id=vertex_id,
                    superstep=superstep,
                    worker_id=vertex_id % NUM_WORKERS,
                    value_before=float(vertex_id),
                    edges_before={(vertex_id + 1) % NUM_VERTICES: None},
                    incoming=[((vertex_id - 1) % NUM_VERTICES, 0.25)],
                    aggregators={"total": superstep * 1.0},
                    num_vertices=NUM_VERTICES,
                    num_edges=NUM_VERTICES,
                    run_seed=0,
                    value_after=float(vertex_id + superstep),
                    edges_after={(vertex_id + 1) % NUM_VERTICES: None},
                    sent=[((vertex_id + 1) % NUM_VERTICES, 1.0)],
                    reasons=["all_active"],
                    violations=violations,
                    exception=exception,
                )
            )
        store.write_vertex_records(records)
        store.write_master_record(
            MasterContextRecord(
                superstep=superstep, aggregators={"total": superstep * 1.0}
            )
        )
        store.flush()
    store.close()


def build_metrics(fs, job_id):
    metrics = RunMetrics()
    for superstep in range(NUM_SUPERSTEPS):
        row = SuperstepMetrics(
            superstep=superstep,
            active_vertices=NUM_VERTICES,
            compute_calls=NUM_VERTICES,
            messages_sent=NUM_VERTICES * (superstep + 1),
            bytes_sent=NUM_VERTICES * 24,
            compute_seconds=0.004,
            wall_seconds=0.002,
        )
        # Worker 1 is the deliberate straggler: 3x the compute time.
        row.add_worker_row(0, 0.001, NUM_VERTICES // 2,
                           NUM_VERTICES * (superstep + 1) - 5,
                           NUM_VERTICES * 12)
        row.add_worker_row(1, 0.003, NUM_VERTICES // 2, 5, NUM_VERTICES * 12)
        metrics.add_superstep(row)
    metrics.total_seconds = 0.016
    write_job_metrics(fs, job_id, metrics)


@pytest.fixture(scope="module")
def served_fs():
    fs = SimFileSystem()
    build_job(fs, "job-a", with_flags=True)
    build_metrics(fs, "job-a")
    build_job(fs, "job-b", with_flags=False)
    return fs
