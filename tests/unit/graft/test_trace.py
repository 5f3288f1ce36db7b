"""Unit tests for the trace store and reader."""

import pytest

from repro.common.errors import TraceError
from repro.graft.capture import MasterContextRecord, Violation
from repro.graft.trace import (
    TraceReader,
    TraceStore,
    iter_file_records,
    master_trace_path,
    worker_trace_path,
)
from tests.unit.graft.test_capture import sample_record


def store_with_records(fs, records, masters=(), job_id="jobX", num_workers=3):
    store = TraceStore(fs, job_id, num_workers)
    for record in records:
        store.write_vertex_record(record)
    for master in masters:
        store.write_master_record(master)
    store.close()
    return store


class TestTraceStore:
    def test_per_worker_files_created(self, fs):
        TraceStore(fs, "job1", num_workers=2)
        assert fs.is_file(worker_trace_path("job1", 0))
        assert fs.is_file(worker_trace_path("job1", 1))
        assert fs.is_file(master_trace_path("job1"))

    def test_records_land_in_worker_file(self, fs):
        store_with_records(fs, [sample_record(worker_id=1)])
        records = list(iter_file_records(fs, worker_trace_path("jobX", 1)))
        assert len(records) == 1
        assert not list(iter_file_records(fs, worker_trace_path("jobX", 0)))

    def test_total_bytes_counts_job_directory(self, fs):
        """Trace files and sidecars only — not metrics.json beside them."""
        store = store_with_records(fs, [sample_record()])
        assert store.total_bytes() > 0
        assert store.total_bytes() == fs.total_bytes("/graft/jobX")
        fs.write_text("/graft/jobX/metrics.json", '{"seconds": 0.125}')
        assert store.total_bytes() < fs.total_bytes("/graft/jobX")
        assert store.total_bytes() == sum(
            fs.stat(path).size
            for path in fs.glob_files("/graft/jobX")
            if path.endswith((".trace", ".trace.idx"))
        )

    def test_records_written_counter(self, fs):
        store = store_with_records(
            fs,
            [sample_record(), sample_record(vertex_id=1)],
            masters=[MasterContextRecord(0, {})],
        )
        assert store.records_written == 3


class TestTraceReader:
    def test_reads_across_worker_files(self, fs):
        records = [
            sample_record(vertex_id=1, worker_id=0),
            sample_record(vertex_id=2, worker_id=1),
            sample_record(vertex_id=3, worker_id=2),
        ]
        store_with_records(fs, records)
        reader = TraceReader(fs, "jobX")
        assert len(reader) == 3
        assert reader.captured_vertex_ids() == [1, 2, 3]

    def test_get_by_key(self, fs):
        store_with_records(fs, [sample_record(vertex_id=5, superstep=2)])
        reader = TraceReader(fs, "jobX")
        assert reader.get(5, 2).vertex_id == 5
        assert reader.has(5, 2)
        assert not reader.has(5, 3)

    def test_get_missing_raises(self, fs):
        store_with_records(fs, [])
        with pytest.raises(TraceError, match="not captured"):
            TraceReader(fs, "jobX").get(1, 1)

    def test_at_superstep_sorted_by_id(self, fs):
        records = [
            sample_record(vertex_id=9, superstep=1),
            sample_record(vertex_id=1, superstep=1),
            sample_record(vertex_id=5, superstep=2),
        ]
        store_with_records(fs, records)
        reader = TraceReader(fs, "jobX")
        assert [r.vertex_id for r in reader.at_superstep(1)] == [1, 9]

    def test_history_in_superstep_order(self, fs):
        records = [
            sample_record(vertex_id=1, superstep=3),
            sample_record(vertex_id=1, superstep=1),
            sample_record(vertex_id=2, superstep=2),
        ]
        store_with_records(fs, records)
        history = TraceReader(fs, "jobX").history(1)
        assert [r.superstep for r in history] == [1, 3]

    def test_supersteps_listing(self, fs):
        store_with_records(
            fs, [sample_record(superstep=4), sample_record(vertex_id=1, superstep=0)]
        )
        assert TraceReader(fs, "jobX").supersteps() == [0, 4]

    def test_violations_filtered_by_superstep(self, fs):
        violation = Violation("message", 1, 2, {"message": -1})
        records = [
            sample_record(vertex_id=1, superstep=2, violations=[violation]),
            sample_record(vertex_id=2, superstep=3),
        ]
        store_with_records(fs, records)
        reader = TraceReader(fs, "jobX")
        assert reader.violations() == [violation]
        assert reader.violations(superstep=2) == [violation]
        assert reader.violations(superstep=3) == []

    def test_exceptions_listing(self, fs):
        from repro.graft.capture import ExceptionRecord

        exception = ExceptionRecord("KeyError", "'x'", "trace")
        store_with_records(fs, [sample_record(exception=exception)])
        reader = TraceReader(fs, "jobX")
        pairs = reader.exceptions()
        assert len(pairs) == 1
        assert pairs[0][1] == exception

    def test_master_records(self, fs):
        masters = [
            MasterContextRecord(0, {"phase": "A"}),
            MasterContextRecord(1, {"phase": "B"}),
        ]
        store_with_records(fs, [], masters=masters)
        reader = TraceReader(fs, "jobX")
        assert reader.master_at(1).aggregators == {"phase": "B"}
        assert reader.master_at(99) is None
        assert len(reader.master_records) == 2

    def test_missing_job_rejected(self, fs):
        with pytest.raises(TraceError, match="no trace directory"):
            TraceReader(fs, "ghost-job")
