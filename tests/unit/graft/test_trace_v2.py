"""Unit tests for the trace format (v3): framing, index, lazy reader, recovery.

The module keeps its name from the v2 format it used to cover."""

import hashlib
import json

import pytest

from repro.common.errors import TraceError
from repro.common.serialization import default_codec
from repro.graft import trace as trace_module
from repro.graft import traceformat
from repro.graft.capture import (
    ExceptionRecord,
    MasterContextRecord,
    Violation,
    field_texts,
    record_to_line,
    vertex_field_names,
)
from repro.graft.trace import (
    TraceReader,
    TraceStore,
    canonical_trace_digest,
    canonical_trace_lines,
    iter_canonical_rows,
    iter_canonical_trace_lines,
    iter_file_records,
    master_trace_path,
    trace_stats,
    worker_trace_path,
)
from repro.graft.traceformat import (
    IDX_MAGIC,
    TRACE_MAGIC,
    decode_block,
    field_tables,
    iter_frames,
    read_header,
)
from tests.unit.graft.test_capture import sample_record

JOB = "jobV2"


def build_store(fs, vertices=12, supersteps=4, workers=3, compression=True):
    """A small trace with violations, an exception, and per-step flushes."""
    store = TraceStore(fs, JOB, workers, compression=compression)
    for step in range(supersteps):
        for vid in range(vertices):
            violations = (
                [Violation("message", vid, step, {"bad": True})]
                if vid == 2 and step == 1 else []
            )
            exception = (
                ExceptionRecord("ValueError", "boom", "tb")
                if vid == 5 and step == 2 else None
            )
            store.write_vertex_record(sample_record(
                vertex_id=vid, superstep=step, worker_id=vid % workers,
                violations=violations, exception=exception,
            ))
        store.write_master_record(
            MasterContextRecord(step, {"agg": step * 1.5})
        )
        store.flush()
    store.close()
    return store


def readers(fs):
    return (
        TraceReader(fs, JOB, mode="lazy"),
        TraceReader(fs, JOB, mode="eager"),
    )


class TestV2FileLayout:
    def test_magic_and_sidecar(self, fs):
        build_store(fs)
        path = worker_trace_path(JOB, 0)
        assert fs.read_range(path, 0, len(TRACE_MAGIC)) == TRACE_MAGIC
        idx_lines = list(fs.iter_lines(path + ".idx"))
        assert idx_lines[0].startswith(IDX_MAGIC)
        # One index line per flush that had records for this worker.
        assert all(line.startswith("B ") for line in idx_lines[1:])
        assert len(idx_lines) == 5  # header + 4 superstep flushes

    def test_index_prefix_is_json_free(self, fs):
        build_store(fs)
        line = list(fs.iter_lines(worker_trace_path(JOB, 2) + ".idx"))[2]
        prefix = line.partition("|")[0].split()
        assert prefix[0] == "B"
        assert all(token.lstrip("-").isdigit() for token in prefix[1:])
        # Superstep 1's block: one superstep (no step list), vertex 2's
        # violation flagged, int ids written as their reprs.
        steps, flags, ids = line.partition("|")[2].split("|")
        assert steps == ""
        assert flags == "1,0,0,0"
        assert ids == "2,5,8,11"
        assert int(prefix[6]) == 4 and int(prefix[7]) == 1

    def test_iter_file_records_both_formats(self, fs):
        """Both block formats — zlib-compressed and stored — decode alike."""
        build_store(fs)
        packed = list(iter_file_records(fs, worker_trace_path(JOB, 1)))
        plain_fs = type(fs)()
        build_store(plain_fs, compression=False)
        plain = list(iter_file_records(plain_fs, worker_trace_path(JOB, 1)))
        assert [r.key for r in packed] == [(vid, step) for step in range(4)
                                           for vid in (1, 4, 7, 10)]
        assert packed == plain

    def test_unknown_reader_mode_rejected(self, fs):
        build_store(fs)
        with pytest.raises(TraceError, match="unknown TraceReader mode"):
            TraceReader(fs, JOB, mode="sometimes")


def assert_all_queries_agree(lazy, eager):
    """Every TraceReader query answers identically on both readers."""
    assert len(lazy) == len(eager) == 48
    assert lazy.supersteps() == eager.supersteps() == [0, 1, 2, 3]
    for vid in range(12):
        for step in range(4):
            assert lazy.has(vid, step) and eager.has(vid, step)
            a, b = lazy.get(vid, step), eager.get(vid, step)
            assert a.key == b.key
            assert a.value_before == b.value_before
            assert a.violations == b.violations
            assert lazy.get_fields(vid, step) == eager.get_fields(vid, step)
    assert not lazy.has(99, 0) and not eager.has(99, 0)
    for step in range(4):
        assert [r.key for r in lazy.at_superstep(step)] == \
            [r.key for r in eager.at_superstep(step)]
    for vid in (0, 5, 11):
        assert [r.superstep for r in lazy.history(vid)] == \
            [r.superstep for r in eager.history(vid)]
        assert lazy.history_fields(vid) == eager.history_fields(vid)
    assert lazy.captured_vertex_ids() == eager.captured_vertex_ids()
    assert [(v.vertex_id, v.superstep) for v in lazy.violations()] == \
        [(v.vertex_id, v.superstep) for v in eager.violations()]
    assert [(r.key, e.type_name) for r, e in lazy.exceptions()] == \
        [(r.key, e.type_name) for r, e in eager.exceptions()]
    assert [r.key for r in lazy.vertex_records] == \
        [r.key for r in eager.vertex_records]
    assert [m.superstep for m in lazy.master_records] == \
        [m.superstep for m in eager.master_records]
    assert lazy.master_at(2).aggregators == eager.master_at(2).aggregators


class TestLazyEagerEquivalence:
    def test_all_queries_agree(self, fs):
        build_store(fs)
        assert_all_queries_agree(*readers(fs))

    def test_get_missing_raises_not_captured(self, fs):
        build_store(fs)
        for reader in readers(fs):
            with pytest.raises(TraceError, match="not captured"):
                reader.get(99, 0)
            with pytest.raises(TraceError, match="not captured"):
                reader.get(0, 99)

    def test_duplicate_records_last_wins_in_both_modes(self, fs):
        """Failure recovery appends a second record for the same key."""
        store = TraceStore(fs, JOB, 1)
        store.write_vertex_record(sample_record(
            vertex_id=1, superstep=0, worker_id=0, value_after="first"))
        store.flush()
        store.write_vertex_record(sample_record(
            vertex_id=1, superstep=0, worker_id=0, value_after="retry"))
        store.close()
        lazy, eager = readers(fs)
        assert lazy.get(1, 0).value_after == "retry"
        assert eager.get(1, 0).value_after == "retry"
        assert len(lazy) == len(eager) == 1

    def test_superseded_violation_not_reported(self, fs):
        """A re-executed vertex whose retry is clean hides the old violation."""
        store = TraceStore(fs, JOB, 1)
        store.write_vertex_record(sample_record(
            vertex_id=1, superstep=0, worker_id=0,
            violations=[Violation("message", 1, 0, {})]))
        store.flush()
        store.write_vertex_record(sample_record(
            vertex_id=1, superstep=0, worker_id=0))
        store.close()
        lazy, eager = readers(fs)
        assert lazy.violations() == [] == eager.violations()

    def test_at_superstep_returns_cached_tuple(self, fs):
        build_store(fs)
        lazy, eager = readers(fs)
        assert lazy.at_superstep(1) is lazy.at_superstep(1)
        assert eager.at_superstep(1) is eager.at_superstep(1)
        assert eager.at_superstep(99) == ()

    def test_repeated_get_uses_record_cache(self, fs):
        build_store(fs)
        lazy = TraceReader(fs, JOB, mode="lazy")
        lazy.get(3, 2)
        calls_after_first = fs.read_calls
        lazy.get(3, 2)
        assert fs.read_calls == calls_after_first

    def test_point_query_reads_one_block_not_the_trace(self, fs):
        build_store(fs, vertices=300, supersteps=6)
        trace_total = sum(
            fs.stat(worker_trace_path(JOB, w)).size for w in range(3)
        ) + fs.stat(master_trace_path(JOB)).size
        idx_total = sum(
            fs.stat(worker_trace_path(JOB, w) + ".idx").size for w in range(3)
        ) + fs.stat(master_trace_path(JOB) + ".idx").size
        before = fs.bytes_read
        reader = TraceReader(fs, JOB, mode="lazy")
        reader.get(7, 3)
        lazy_cost = fs.bytes_read - before
        # Beyond the sidecars, open + one point query touches only the
        # file headers, the (tiny) master file, and ONE data block — never
        # whole worker trace files.
        assert lazy_cost - idx_total < trace_total / 2
        before = fs.bytes_read
        TraceReader(fs, JOB, mode="eager").get(7, 3)
        eager_cost = fs.bytes_read - before
        assert lazy_cost - idx_total < eager_cost / 2


class TestRecovery:
    def test_truncated_idx_recovers_all_records(self, fs):
        build_store(fs)
        idx = worker_trace_path(JOB, 0) + ".idx"
        data = fs.read_bytes(idx)
        fs.create(idx, overwrite=True)
        fs.append_bytes(idx, data[: len(data) // 2])
        lazy, eager = readers(fs)
        assert len(lazy) == len(eager) == 48
        assert lazy.get(0, 3).key == (0, 3)
        stats = trace_stats(fs, JOB)
        assert 0 < stats["totals"]["index_coverage"] < 1.0
        worker0 = next(
            f for f in stats["files"] if f["path"].endswith("worker-0.trace")
        )
        assert worker0["recovered_records"] > 0

    def test_missing_idx_recovers_all_records(self, fs):
        build_store(fs)
        fs.delete(worker_trace_path(JOB, 1) + ".idx")
        lazy, eager = readers(fs)
        assert len(lazy) == len(eager) == 48
        assert [r.key for r in lazy.at_superstep(2)] == \
            [r.key for r in eager.at_superstep(2)]

    def test_garbage_idx_recovers_all_records(self, fs):
        build_store(fs)
        idx = worker_trace_path(JOB, 2) + ".idx"
        fs.create(idx, overwrite=True)
        fs.append_bytes(idx, b"\x00\xff not an index\n")
        lazy = TraceReader(fs, JOB, mode="lazy")
        assert len(lazy) == 48

    def test_torn_final_trace_frame_is_dropped(self, fs):
        """A crash mid-append leaves a partial frame; reads ignore it."""
        build_store(fs)
        path = worker_trace_path(JOB, 0)
        fs.delete(path + ".idx")
        data = fs.read_bytes(path)
        fs.create(path, overwrite=True)
        fs.append_bytes(path, data + b"\x00\x00\x01\x00\x01trunc")
        records = list(iter_file_records(fs, path))
        assert [r.key for r in records] == \
            [r.key for r in iter_file_records(fs, path)]
        lazy = TraceReader(fs, JOB, mode="lazy")
        assert len(lazy) == 48  # the torn frame contributed nothing

    @pytest.mark.parametrize("damage", ["missing", "torn", "stale"])
    def test_recovery_reads_blocks_not_records(self, fs, monkeypatch, damage):
        """Each block's own superstep, flag and id columns give its index
        line back: the lost lines come back equal, with one ranged read for
        the unindexed tail (at most one per block), and no record rebuilt."""
        build_store(fs, supersteps=6)
        path = worker_trace_path(JOB, 2)
        blocks, _header, _stats = traceformat.load_index(fs, path)
        want = [meta.entries() for meta in blocks]
        idx = fs.read_bytes(path + ".idx")
        lines = idx.split(b"\n")
        fs.delete(path + ".idx")
        if damage == "torn":        # the last line lost its tail
            fs.create(path + ".idx")
            fs.append_bytes(path + ".idx", idx[:-7])
        elif damage == "stale":     # a line pointing past the end of the file
            stale = lines[3].split(b" ")
            stale[1] = str(fs.stat(path).size).encode()
            fs.create(path + ".idx")
            fs.append_bytes(path + ".idx", b"\n".join(
                [*lines[:3], b" ".join(stale), *lines[4:]]
            ))
        monkeypatch.setattr(
            traceformat.Block, "texts",
            lambda self, position: pytest.fail("recovery rebuilt a record"),
        )
        before = fs.read_calls
        blocks, _header, stats = traceformat.load_index(fs, path)
        calls = fs.read_calls - before
        assert [meta.entries() for meta in blocks] == want
        assert stats["recovered_blocks"] >= 1
        # magic, header length, header; the sidecar; the unindexed tail
        assert calls == 3 + (damage != "missing") + 1
        assert calls - 3 <= 1 + stats["recovered_blocks"]

    def test_digest_unchanged_by_idx_loss(self, fs):
        build_store(fs)
        want = canonical_trace_digest(fs, JOB)
        fs.delete(worker_trace_path(JOB, 0) + ".idx")
        assert canonical_trace_digest(fs, JOB) == want


#: What someone may park under a job directory as ``*.trace``: a JSON line
#: (what a v1 record looked like), plain text, undecodable bytes.
FOREIGN_PAYLOADS = [b'{"a": 1}\n', b"hello\n", b"\x00\xff\xfe"]


class TestAFileIsATraceOrItIsNot:
    @pytest.mark.parametrize("payload", FOREIGN_PAYLOADS)
    def test_bytes_without_the_magic_raise_naming_the_path(self, fs, payload):
        build_store(fs)
        path = f"/graft/{JOB}/notes.trace"
        fs.create(path)
        fs.append_bytes(path, payload)
        for opened in (
            lambda: TraceReader(fs, JOB, mode="lazy"),
            lambda: TraceReader(fs, JOB, mode="eager"),
            lambda: canonical_trace_digest(fs, JOB),
            lambda: list(iter_canonical_rows(fs, JOB)),
        ):
            with pytest.raises(TraceError, match="notes.trace.*not a trace file"):
                opened()
        stats = trace_stats(fs, JOB)
        assert stats["totals"]["records"] == 52
        [skipped] = stats["skipped"]
        assert skipped["path"] == path
        assert "not a trace file" in skipped["error"]

    def test_an_empty_file_is_an_empty_trace(self, fs):
        """What a crash between the writer's create and its first append
        leaves behind."""
        build_store(fs)
        want = canonical_trace_digest(fs, JOB)
        fs.create(f"/graft/{JOB}/worker-9.trace")
        assert not list(iter_file_records(fs, f"/graft/{JOB}/worker-9.trace"))
        assert_all_queries_agree(*readers(fs))
        assert canonical_trace_digest(fs, JOB) == want
        stats = trace_stats(fs, JOB)
        assert stats["skipped"] == []
        assert stats["totals"]["records"] == 52
        assert stats["files"][-1]["records"] == 0

    def test_a_torn_header_still_raises(self, fs):
        build_store(fs)
        path = f"/graft/{JOB}/worker-9.trace"
        fs.create(path)
        fs.append_bytes(path, TRACE_MAGIC + b"\x00\x00")
        for mode in ("lazy", "eager"):
            with pytest.raises(TraceError, match="no header frame"):
                TraceReader(fs, JOB, mode=mode)
        assert [s["path"] for s in trace_stats(fs, JOB)["skipped"]] == [path]


class TestCanonicalStreaming:
    def test_digest_identical_across_formats(self, fs):
        """The stored row form digests as the line form: the digest is the
        SHA-256 of ``record_to_line`` over every record the eager reader
        decodes."""
        build_store(fs)
        eager = TraceReader(fs, JOB, mode="eager")
        digest = hashlib.sha256()
        for record in eager.vertex_records + eager.master_records:
            record.worker_id = 0
            digest.update(record_to_line(record, default_codec).encode() + b"\n")
        assert canonical_trace_digest(fs, JOB) == digest.hexdigest()

    def test_iterator_matches_list_form(self, fs):
        build_store(fs)
        assert list(iter_canonical_trace_lines(fs, JOB)) == \
            canonical_trace_lines(fs, JOB)

    def test_duplicates_are_preserved(self, fs):
        store = TraceStore(fs, JOB, 1)
        store.write_vertex_record(sample_record(
            vertex_id=1, superstep=0, worker_id=0, value_after="first"))
        store.write_vertex_record(sample_record(
            vertex_id=1, superstep=0, worker_id=0, value_after="retry"))
        store.close()
        lines = canonical_trace_lines(fs, JOB)
        assert len(lines) == 2  # the merge never dedups

    def test_worker_id_normalized(self, fs):
        build_store(fs)
        for line in canonical_trace_lines(fs, JOB):
            payload = json.loads(line)
            if payload.get("kind") == "vertex":
                assert payload["worker_id"] == 0

    def test_missing_job_raises(self, fs):
        with pytest.raises(TraceError, match="no trace directory"):
            canonical_trace_lines(fs, "ghost")


def decoded_canonical_lines(fs):
    """The canonical stream computed the slow way: decode every record,
    normalize ``worker_id``, re-encode, order, collapse equal lines."""
    keyed = set()
    for path in fs.glob_files(f"/graft/{JOB}", suffix=".trace"):
        for record in iter_file_records(fs, path):
            if isinstance(record, MasterContextRecord):
                key = (1, record.superstep, "")
            else:
                record.worker_id = 0
                key = (0, record.superstep, repr(record.vertex_id))
            keyed.add(key + (record_to_line(record, default_codec),))
    return [item[3] for item in sorted(keyed)]


class _LooksLikeOne:
    def __repr__(self):
        return "1"


class TestRowLevelReads:
    """Stored rows served and digested as text, never as records."""

    #: ``canonical_trace_digest`` of ``build_store``'s trace at the commit
    #: that still decoded and re-encoded every record.
    DECODED_DIGEST = (
        "0e5c81570fa9133ceb020d6e882b143352253fe5cc360a87e739cb52ec60bbad"
    )

    def test_get_fields_cuts_the_stored_row_and_builds_no_record(self, fs):
        build_store(fs)
        lazy = TraceReader(fs, JOB, mode="lazy")
        cached = len(lazy._record_cache)    # the pinned master records
        keys = ((0, 0), (2, 1), (5, 2))
        found = [lazy.get_fields(*key) for key in keys]
        assert len(lazy.history_fields(7)) == 4
        assert lazy.history_fields(99) == []
        assert len(lazy._record_cache) == cached
        for key, texts in zip(keys, found):
            assert texts == field_texts(lazy.get(*key), default_codec)[1]

    def test_get_fields_confirms_the_repr_keyed_id(self, fs):
        build_store(fs)
        lazy = TraceReader(fs, JOB, mode="lazy")
        with pytest.raises(TraceError, match="vertex 99 was not captured"):
            lazy.get_fields(99, 0)
        with pytest.raises(TraceError, match="vertex 1 was not captured"):
            lazy.get_fields(_LooksLikeOne(), 0)
        assert lazy.history_fields(_LooksLikeOne()) == []

    @pytest.mark.parametrize("fmt", ["v2"])      # one format left; keeps the id
    def test_spliced_stream_is_the_decoded_stream(self, fs, fmt):
        build_store(fs)
        assert canonical_trace_lines(fs, JOB) == decoded_canonical_lines(fs)
        assert canonical_trace_digest(fs, JOB) == self.DECODED_DIGEST

    def test_rollback_recaptures_still_collapse(self, fs):
        store = TraceStore(fs, JOB, 2)
        for worker_id in (0, 1, 0):     # same record, re-captured, moved
            store.write_vertex_record(sample_record(
                vertex_id=1, superstep=0, worker_id=worker_id))
        store.write_vertex_record(sample_record(
            vertex_id=1, superstep=0, worker_id=0, value_after="other"))
        store.close()
        lines = canonical_trace_lines(fs, JOB)
        assert len(lines) == 2
        assert lines == decoded_canonical_lines(fs)

    def test_recovered_tail_blocks_digest_the_same(self, fs):
        build_store(fs)
        fs.delete(worker_trace_path(JOB, 1) + ".idx")
        assert canonical_trace_digest(fs, JOB) == self.DECODED_DIGEST

    def test_files_with_other_field_tables_take_the_decode_path(
        self, fs, monkeypatch
    ):
        """A file whose header lays the vertex fields out in another order:
        its blocks follow that order and the reader maps the texts back by
        field name."""
        names = list(vertex_field_names())
        header = trace_module.build_header()
        header["fields"]["vertex"] = names[::-1]
        with monkeypatch.context() as patch:
            patch.setattr(trace_module, "build_header", lambda: header)
            build_store(fs)
        twin = type(fs)()
        build_store(twin)
        assert fs.read_bytes(worker_trace_path(JOB, 2)) != twin.read_bytes(
            worker_trace_path(JOB, 2)
        )
        lazy, expected = TraceReader(fs, JOB), TraceReader(twin, JOB)
        assert lazy.get(2, 1) == expected.get(2, 1)
        assert lazy.get_fields(2, 1) == expected.get_fields(2, 1)
        assert canonical_trace_digest(fs, JOB) == self.DECODED_DIGEST

    @pytest.mark.parametrize("vertices", [12, 60])    # rows, and by column
    def test_a_block_read_again_and_again_gives_the_same_records(self, fs, vertices):
        """Past a handful of reads a block turns its columns into lists;
        every read before and after gives the same record."""
        build_store(fs, vertices=vertices)
        eager = TraceReader(fs, JOB, mode="eager")
        lazy = TraceReader(fs, JOB, cache_records=0)
        for _ in range(3):
            for vid in range(vertices):
                assert lazy.get(vid, 1) == eager.get(vid, 1)
                assert lazy.get_fields(vid, 1) == eager.get_fields(vid, 1)

    def test_a_block_listed_for_records_then_read_for_texts(self, fs):
        """Records read past a handful of reads list only the columns they
        take as texts; texts read after them list the rest, and both reads
        give what the eager reader gives."""
        build_store(fs, vertices=60)
        eager = TraceReader(fs, JOB, mode="eager")
        lazy = TraceReader(fs, JOB, cache_records=0)
        for vid in range(60):
            assert lazy.get(vid, 1) == eager.get(vid, 1)
        for vid in range(60):
            assert lazy.get_fields(vid, 1) == eager.get_fields(vid, 1)
            assert lazy.get(vid, 1) == eager.get(vid, 1)

    def test_a_torn_row_is_refused(self, fs):
        """A block cut short, or with a column spec it does not hold, is a
        :class:`TraceError`, never a garbled record — laid out by column or,
        for a few records, as rows."""
        build_store(fs, vertices=30)
        path = worker_trace_path(JOB, 2)
        header, start = read_header(fs, path)
        tables = field_tables(header)
        _offset, _length, _flags, payload = next(iter_frames(fs, path, start))
        assert decode_block(payload, tables).size == 10
        lines = payload.split(b"\n")
        for torn in (
            payload[: len(payload) // 2],
            b"\n".join(lines[:-1]),                       # a section short
            b"\n".join([lines[0] + b" f", *lines[1:]]),   # a spec too many
            b"\n".join([lines[0], b"1 2", *lines[2:]]),   # constants cut
        ):
            with pytest.raises(TraceError, match="malformed trace block"):
                decode_block(torn, tables)
        rows = b"0 2\n" + b"\n".join(lines[-2:])
        with pytest.raises(TraceError, match="malformed trace block"):
            decode_block(rows, tables).texts(0)


class TestTraceStats:
    def test_totals_and_per_file_fields(self, fs):
        build_store(fs)
        stats = trace_stats(fs, JOB)
        assert stats["totals"]["records"] == 52  # 48 vertex + 4 master
        assert stats["totals"]["files"] == 4
        assert stats["totals"]["index_coverage"] == 1.0
        for info in stats["files"]:
            assert info["format"] == "v3"
            assert info["bytes"] > 0
            assert info["index_bytes"] > 0
        worker0 = next(
            f for f in stats["files"] if f["path"].endswith("worker-2.trace")
        )
        assert worker0["violations"] == 1

    def test_missing_job_raises(self, fs):
        with pytest.raises(TraceError, match="no trace directory"):
            trace_stats(fs, "ghost")
