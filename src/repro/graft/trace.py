"""Trace files: how captures reach, and are read back from, the file system.

Layout under one job directory (mirroring Graft's per-worker HDFS files)::

    /graft/<job_id>/worker-<i>.trace       vertex captures for worker i
    /graft/<job_id>/worker-<i>.trace.idx   index sidecar
    /graft/<job_id>/master.trace           master captures
    /graft/<job_id>/master.trace.idx       index sidecar

:class:`TraceStore` is the write side, owned by the Graft session while the
job runs; :class:`TraceReader` is the read side, used by the GUI views and
the Context Reproducer after (or during) the run. Reading only needs the
file system and codec — a different process (the paper's "copy into your
IDE" step) can do it, provided the modules defining the value types are
imported.

One storage format exists, v3 (see docs/trace-format.md): one framed block
per flush holding its records by column, optional zlib block compression,
and an index sidecar built incrementally at flush boundaries. The sidecar
maps ``(superstep, repr(vertex_id))`` to a block and a position in it plus
violation/exception posting data, which is what makes the default
``mode="lazy"`` reader's open and point queries O(result) instead of
O(trace). A ``*.trace`` file is that format
or it is not a trace: an empty file is an empty trace, bytes without the
magic raise :class:`~repro.common.errors.TraceError`.

:class:`TraceReader` accepts ``mode="lazy"`` (index-backed, decode on
demand, LRU-bounded memory) or ``mode="eager"`` (decode everything up
front — kept as the oracle for the equivalence tests). Both modes answer
every query identically; index-less or corrupted sidecars are recovered by
rescanning the unindexed tail of the trace file.

:func:`iter_canonical_rows` is the *deterministic trace merge*: a single
canonical walk of a job's captures that is identical regardless of
execution backend, worker count and recovery history. Raw per-worker files
are already byte-identical across backends at the same worker count; the
canonical merge additionally normalizes the two partition-dependent
artifacts (which file a record landed in, and the ``worker_id`` field
inside it), collapses rollback re-captures and imposes a content-based
total order. :func:`canonical_trace_lines` / :func:`canonical_trace_digest`
lay that walk out as lines and hash them, so two runs of the same job can
be compared with a single hash even when one used 1 worker and the other
8; :mod:`repro.graft.diffing` joins two walks to say where they first part.
"""

import hashlib
import json
import posixpath
import threading
import zlib
from itertools import groupby
from operator import itemgetter

from repro.common.errors import SerializationError, SimFsError, TraceError
from repro.common.serialization import default_codec
from repro.graft.capture import (
    KIND_MASTER,
    KIND_VERTEX,
    MasterContextRecord,
    VertexContextRecord,
    field_names_of,
    field_texts,
    join_line,
    vertex_field_names,
)
from repro.graft.traceformat import (
    TRACE_MAGIC,
    VFLAG_EXCEPTION,
    VFLAG_VIOLATIONS,
    BlockBuilder,
    BlockMeta,
    build_header,
    encode_header,
    field_tables,
    format_idx_header,
    format_idx_line,
    iter_blocks,
    load_index,
    read_block,
)
from repro.simfs.writers import (
    DEFAULT_BUFFER_LINES,
    BlockWriter,
    append_retrying,
)

DEFAULT_ROOT = "/graft"

TRACE_FORMAT_V3 = "v3"

#: Default LRU sizes for the lazy reader: decoded records and decoded
#: blocks kept hot. Both bound memory; misses just re-read. A history walk
#: visits one block per superstep of a worker, so the block LRU holds a
#: few workers' worth of a typical run.
DEFAULT_RECORD_CACHE = 1024
DEFAULT_BLOCK_CACHE = 64


def job_directory(job_id, root=DEFAULT_ROOT):
    return f"{root}/{job_id}"


def worker_trace_path(job_id, worker_id, root=DEFAULT_ROOT):
    return f"{job_directory(job_id, root)}/worker-{worker_id}.trace"


def master_trace_path(job_id, root=DEFAULT_ROOT):
    return f"{job_directory(job_id, root)}/master.trace"


def metrics_path(job_id, root=DEFAULT_ROOT):
    """The per-job ``metrics.json`` sidecar (persisted RunMetrics)."""
    return f"{job_directory(job_id, root)}/metrics.json"


def write_job_metrics(filesystem, job_id, run_metrics, root=DEFAULT_ROOT):
    """Persist one run's :class:`~repro.pregel.metrics.RunMetrics`.

    Written at ``debug_run`` completion next to the trace files, so the
    debug server's profiler endpoints and ``repro trace stats`` can report
    per-superstep counters without re-executing the job. Returns the path.
    """
    from repro.pregel.metrics import run_metrics_to_dict

    path = metrics_path(job_id, root)
    payload = run_metrics_to_dict(run_metrics)
    filesystem.write_text(
        path, json.dumps(payload, separators=(",", ":"), sort_keys=True)
    )
    return path


def load_job_metrics(filesystem, job_id, root=DEFAULT_ROOT):
    """Load a job's persisted metrics document, or None when absent/corrupt."""
    path = metrics_path(job_id, root)
    if not filesystem.is_file(path):
        return None
    try:
        return json.loads(filesystem.read_text(path))
    except (ValueError, UnicodeDecodeError):
        return None


def iter_file_records(filesystem, path, codec=None):
    """Decode every record of one trace file, in file order."""
    codec = codec or default_codec
    for block in iter_blocks(filesystem, path):
        for position in range(block.size):
            yield block.record(position, codec)


# -- write side ---------------------------------------------------------------


class _FileWriter:
    """One v3 trace file plus its index sidecar, for records of one kind.

    Records are written into a :class:`BlockBuilder` — their texts made
    there and then, by column; a flush lays the block out, appends it, and
    appends its index line, so index granularity == flush granularity ==
    superstep barriers (plus threshold flushes inside huge supersteps).
    """

    def __init__(
        self,
        filesystem,
        path,
        codec,
        kind,
        buffer_records=DEFAULT_BUFFER_LINES,
        compression=True,
    ):
        self._fs = filesystem
        self._codec = codec
        self._kind = kind
        self.path = path
        self._block_writer = BlockWriter(filesystem, path, compression=compression)
        header = build_header()
        self._names = field_tables(header)[kind]
        self._block_writer.write_prelude(TRACE_MAGIC + encode_header(header))
        self._idx_path = path + ".idx"
        filesystem.create(self._idx_path, overwrite=True)
        idx_header = format_idx_header(posixpath.basename(path)) + "\n"
        filesystem.append_text(self._idx_path, idx_header)
        # Every line successfully represented in the sidecar, header
        # included. repair() rewrites the sidecar from this list, so a
        # crash that tears an index append (or lands between the block
        # append and its index line) never leaves a stale sidecar behind.
        self._idx_lines = [idx_header]
        self._buffer_records = buffer_records
        self._block = None
        self.records_written = 0

    def write_records(self, records):
        """Write the texts of ``records`` into the open block, then check
        the threshold once."""
        if self._block is None:
            self._block = BlockBuilder(self._codec, self._kind, self._names)
        self._block.add(records)
        self.records_written += len(records)
        if self._block.size >= self._buffer_records:
            self.flush()

    def flush(self):
        """Write one block + one index line for the buffered records."""
        block, self._block = self._block, None
        if block is None:
            return
        payload, entries_text, counters = block.encode()
        offset, length, flags = self._block_writer.write_block(payload)
        meta = BlockMeta(offset, length, flags, *counters)
        line = format_idx_line(meta, entries_text) + "\n"
        # Remember the line before attempting the append: the block is
        # already durable, so if the index append crashes the line can be
        # restored by repair()'s sidecar rewrite.
        self._idx_lines.append(line)
        append_retrying(self._fs, self._idx_path, line)

    def repair(self):
        """Restore file/sidecar consistency after a crash-induced rollback.

        Buffered records are discarded (they belong to the superstep being
        rolled back and will be re-captured on re-execution), a torn block
        frame is truncated away, and the index sidecar is rewritten from
        the known-good line list whenever the on-disk bytes disagree —
        covering both a torn index append and an index line that was never
        written because the crash hit between block and sidecar.
        """
        if self._block is not None:
            self.records_written -= self._block.size
            self._block = None
        self._block_writer.repair()
        expected = "".join(self._idx_lines)
        try:
            current = self._fs.read_bytes(self._idx_path).decode("utf-8")
        except (SimFsError, UnicodeDecodeError):
            current = None
        if current != expected:
            self._fs.write_text(self._idx_path, expected)

    def close(self):
        self.flush()
        self._block_writer.close()


class TraceStore:
    """Write side: per-worker appenders plus the master appender."""

    def __init__(
        self,
        filesystem,
        job_id,
        num_workers,
        codec=None,
        compression=True,
    ):
        self._fs = filesystem
        self.job_id = job_id
        self._codec = codec or default_codec

        def make_writer(path, kind):
            return _FileWriter(
                filesystem, path, self._codec, kind, compression=compression
            )

        self._worker_writers = [
            make_writer(worker_trace_path(job_id, worker_id), KIND_VERTEX)
            for worker_id in range(num_workers)
        ]
        self._master_writer = make_writer(master_trace_path(job_id), KIND_MASTER)
        self.records_written = 0

    def write_vertex_record(self, record):
        """Append one vertex capture to its worker's trace file."""
        self._worker_writers[record.worker_id].write_records((record,))
        self.records_written += 1

    def write_vertex_records(self, records):
        """Bulk-append vertex captures (the session's barrier drain path).

        Records are grouped per worker file and handed to each file's
        writer as a batch, so a drain of N records costs one buffered
        append per touched file instead of N per-record threshold checks.
        Order within each worker's file follows the order of ``records``.
        """
        by_worker = {}
        count = 0
        for record in records:
            group = by_worker.get(record.worker_id)
            if group is None:
                group = by_worker[record.worker_id] = []
            group.append(record)
            count += 1
        for worker_id, group in by_worker.items():
            self._worker_writers[worker_id].write_records(group)
        self.records_written += count

    def write_master_record(self, record):
        """Append one master capture to the master trace file."""
        self._master_writer.write_records((record,))
        self.records_written += 1

    def flush(self):
        """Flush all writers (the session does this at superstep barriers).

        Each flush is also an index boundary: the buffered records become
        one block and one sidecar line.
        """
        for writer in self._worker_writers:
            writer.flush()
        self._master_writer.flush()

    def repair(self):
        """Restore every trace file after a crash-induced rollback.

        Called by the Graft session when the engine rolls back to a
        checkpoint: torn frames are truncated, stale sidecars rewritten,
        and buffered records of the torn superstep discarded so
        re-execution appends to structurally sound files.
        """
        for writer in self._worker_writers:
            writer.repair()
        self._master_writer.repair()

    def close(self):
        for writer in self._worker_writers:
            writer.close()
        self._master_writer.close()

    def total_bytes(self):
        """Bytes stored in this job's trace files and their index sidecars.

        Only ``*.trace`` and ``*.trace.idx`` count: the job directory also
        holds ``metrics.json``, whose float timings change length from one
        identical run to the next.
        """
        return sum(
            self._fs.stat(path).size
            for path in self._fs.glob_files(job_directory(self.job_id))
            if path.endswith((".trace", ".trace.idx"))
        )


# -- read side: sources -------------------------------------------------------
#
# A *source* wraps one trace file behind its sidecar (ranged reads) and
# yields index entries ``(kind, superstep, vid_repr, ref, vflags)``;
# ``fetch(ref)`` decodes one record and ``field_texts(ref)`` returns its
# field texts in the current classes' field order without building it.


class _LRUCache:
    """A tiny LRU map; ``maxsize=0`` disables caching entirely.

    Thread-safe: the debug server shares one record cache and one block
    cache across every concurrent read session (a process-wide memory
    budget), so ``get``'s recency bump and ``put``'s eviction walk — both
    multi-step mutations of the underlying OrderedDict — run under a lock.
    Uncontended acquisition is a few hundred nanoseconds; the disk read a
    miss triggers is microseconds, so the lock never shows up in profiles.
    """

    def __init__(self, maxsize):
        from collections import OrderedDict

        self._maxsize = maxsize
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
                self.hits += 1
                return data[key]
            self.misses += 1
            return None

    def put(self, key, value):
        if self._maxsize <= 0:
            return
        with self._lock:
            data = self._data
            data[key] = value
            data.move_to_end(key)
            while len(data) > self._maxsize:
                data.popitem(last=False)

    def __len__(self):
        with self._lock:
            return len(self._data)


class _IndexedSource:
    """A trace file behind its sidecar: block directory now, records on demand.

    Safe for concurrent readers: the sidecar's per-record entry lists parse
    lazily on first touch, and that parse-and-memoize is a multi-step
    mutation of the shared :class:`BlockMeta`, so it runs under a
    per-source lock (``_entries_of``). The record/block LRUs are locked
    internally (see :class:`_LRUCache`).
    """

    def __init__(self, filesystem, path, codec, record_cache, block_cache):
        self.path = path
        self._fs = filesystem
        self._codec = codec
        self._record_cache = record_cache
        self._block_cache = block_cache
        self._entries_lock = threading.Lock()
        self._blocks, header, self.index_stats = load_index(filesystem, path)
        self._tables = field_tables(header)
        # Where each current field's text sits in a row laid out by the
        # file's field tables; None while they are the current classes'.
        self._slots = {}
        for kind, names in self._tables.items():
            current = field_names_of(kind)
            if names != current:
                try:
                    self._slots[kind] = [names.index(name) for name in current]
                except ValueError:
                    raise TraceError(
                        f"{path!r} lacks fields of the current {kind} records"
                    ) from None

    # Entries are ``(kind, ss, vid_repr, position, vflags)``; refs address
    # ``(block_index, position)``.

    def _entry_tuple(self, block_index, raw):
        return (raw[0], raw[1], raw[2], (block_index, raw[3]), raw[4])

    def _entries_of(self, meta):
        """``meta.entries()`` with the lazy parse done under a lock."""
        entries = meta._entries
        if entries is not None:
            return entries
        with self._entries_lock:
            return meta.entries()

    def iter_entries(self):
        for block_index, meta in enumerate(self._blocks):
            for raw in self._entries_of(meta):
                yield self._entry_tuple(block_index, raw)

    def entries_for_superstep(self, superstep):
        for block_index, meta in enumerate(self._blocks):
            if not meta.covers_superstep(superstep):
                continue
            if meta.num_masters == meta.num_records:
                continue
            for raw in self._entries_of(meta):
                if raw[0] == KIND_VERTEX and raw[1] == superstep:
                    yield self._entry_tuple(block_index, raw)

    def supersteps(self):
        found = set()
        for meta in self._blocks:
            if meta.num_masters == meta.num_records:
                continue  # pure master block contributes no vertex steps
            if meta.min_superstep == meta.max_superstep:
                found.add(meta.min_superstep)
            else:
                for raw in self._entries_of(meta):
                    if raw[0] == KIND_VERTEX:
                        found.add(raw[1])
        return found

    def flagged_supersteps(self, vflag):
        counter = (
            "num_violations" if vflag == VFLAG_VIOLATIONS else "num_exceptions"
        )
        found = set()
        for meta in self._blocks:
            if not getattr(meta, counter):
                continue
            for raw in self._entries_of(meta):
                if raw[0] == KIND_VERTEX and raw[4] & vflag:
                    found.add(raw[1])
        return found

    def master_entries(self):
        entries = []
        for block_index, meta in enumerate(self._blocks):
            if not meta.num_masters:
                continue
            for raw in self._entries_of(meta):
                if raw[0] == KIND_MASTER:
                    entries.append(self._entry_tuple(block_index, raw))
        return entries

    def _block(self, block_index):
        key = (self.path, block_index)
        block = self._block_cache.get(key)
        if block is None:
            block = read_block(
                self._fs, self.path, self._blocks[block_index], self._tables
            )
            self._block_cache.put(key, block)
        return block

    def field_texts(self, ref):
        """``(kind, field texts)`` of the record at ``ref``, in the current
        classes' field order: rebuilt from the block's columns, nothing
        decoded, nothing cached but the block."""
        block = self._block(ref[0])
        texts = block.texts(ref[1])
        slots = self._slots.get(block.kind)
        if slots is not None:
            texts = [texts[slot] for slot in slots]
        return block.kind, texts

    def fetch(self, ref):
        key = (self.path, ref)
        record = self._record_cache.get(key)
        if record is None:
            record = self._block(ref[0]).record(ref[1], self._codec)
            self._record_cache.put(key, record)
        return record


def _trace_sources(filesystem, job_id, codec, root, record_cache, block_cache):
    """One source per trace file of a job, in sorted path order.

    Raises :class:`TraceError` naming the file when a ``*.trace`` file
    under the job directory is not a trace.
    """
    directory = job_directory(job_id, root)
    if not filesystem.is_dir(directory):
        raise TraceError(f"no trace directory for job {job_id!r}")
    return [
        _IndexedSource(filesystem, path, codec, record_cache, block_cache)
        for path in filesystem.glob_files(directory, suffix=".trace")
    ]


# -- read side: the reader ----------------------------------------------------


class TraceReader:
    """Read side: answers the queries the GUI views and reproducer make.

    Queries: by ``(vertex_id, superstep)``, by superstep, per-vertex
    history, violations, exceptions, and master contexts.

    ``mode="lazy"`` (default) keeps only the block directory in memory and
    decodes records on demand — one index lookup + one ranged read + one
    decode per point query, with an LRU bounding what stays decoded.
    ``mode="eager"`` decodes every file up front (the historical
    behaviour); it remains the oracle for equivalence testing and the
    right choice when a caller will touch every record anyway.

    Failure recovery re-executes supersteps, appending a second record for
    the same (vertex, superstep); both modes keep the latest.
    """

    def __init__(
        self,
        filesystem,
        job_id,
        codec=None,
        root=DEFAULT_ROOT,
        mode="lazy",
        cache_records=DEFAULT_RECORD_CACHE,
        cache_blocks=DEFAULT_BLOCK_CACHE,
        record_cache=None,
        block_cache=None,
    ):
        if mode not in ("lazy", "eager"):
            raise TraceError(f"unknown TraceReader mode {mode!r}")
        self._codec = codec or default_codec
        self.job_id = job_id
        self.mode = mode
        # Guards *installation* of the lazy mode's build-once structures
        # (superstep maps, postings, sorted tuples). Builds themselves run
        # outside the lock — they are pure reads over the sources (which
        # carry their own locks), so a cheap point query is never stuck
        # behind another thread materializing a whole superstep; a lost
        # race just wastes one duplicate build.
        self._lock = threading.RLock()
        directory = job_directory(job_id, root)
        if not filesystem.is_dir(directory):
            raise TraceError(f"no trace directory for job {job_id!r}")
        if mode == "eager":
            self._load_eager(filesystem, directory)
        else:
            # record_cache/block_cache inject *shared* caches (the debug
            # server's process-wide budgets); cache_records/cache_blocks
            # size private per-reader ones otherwise.
            self._open_lazy(
                filesystem, root, cache_records, cache_blocks,
                record_cache=record_cache, block_cache=block_cache,
            )

    # -- eager construction --------------------------------------------------

    def _load_eager(self, filesystem, directory):
        by_key = {}
        master_by_superstep = {}
        for path in filesystem.glob_files(directory, suffix=".trace"):
            for record in iter_file_records(filesystem, path, self._codec):
                if isinstance(record, VertexContextRecord):
                    by_key[record.key] = record
                elif isinstance(record, MasterContextRecord):
                    master_by_superstep[record.superstep] = record
                else:
                    raise TraceError(
                        f"unexpected record type {type(record).__name__}"
                    )
        self._by_key = by_key
        self._master_by_superstep = master_by_superstep
        self._vertex_records = sorted(
            by_key.values(), key=lambda r: (r.superstep, repr(r.vertex_id))
        )
        self.master_records = sorted(
            master_by_superstep.values(), key=lambda r: r.superstep
        )
        # Derived views, each built exactly once: per-superstep tuples
        # (already id-ordered — no re-sort per call) and per-vertex
        # posting lists (history is O(captures of that vertex)).
        by_superstep = {}
        history = {}
        for record in self._vertex_records:
            by_superstep.setdefault(record.superstep, []).append(record)
            history.setdefault(record.vertex_id, []).append(record)
        self._by_superstep = {
            step: tuple(records) for step, records in by_superstep.items()
        }
        self._history = history
        self._supersteps = sorted(self._by_superstep)

    # -- lazy construction ---------------------------------------------------

    def _open_lazy(self, filesystem, root, cache_records, cache_blocks,
                   record_cache=None, block_cache=None):
        if record_cache is None:
            record_cache = _LRUCache(cache_records)
        if block_cache is None:
            block_cache = _LRUCache(cache_blocks)
        self._record_cache = record_cache
        self._block_cache = block_cache
        self._sources = _trace_sources(
            filesystem, self.job_id, self._codec, root, record_cache, block_cache
        )
        # Master contexts are one record per superstep — always cheap
        # enough to pin eagerly, and every view's aggregator panel wants
        # them.
        master_by_superstep = {}
        for source in self._sources:
            for entry in source.master_entries():
                master_by_superstep[entry[1]] = source.fetch(entry[3])
        self._master_by_superstep = master_by_superstep
        self.master_records = sorted(
            master_by_superstep.values(), key=lambda r: r.superstep
        )
        self._superstep_maps = {}
        self._at_cache = {}
        self._supersteps = None
        self._postings = None
        self._vertex_records = None

    # -- lazy internals ------------------------------------------------------

    def _superstep_map(self, superstep):
        """``{vid_repr: (source, entry)}`` for one superstep, last write wins."""
        found = self._superstep_maps.get(superstep)
        if found is None:
            built = {}
            for source in self._sources:
                for entry in source.entries_for_superstep(superstep):
                    built[entry[2]] = (source, entry)
            with self._lock:
                found = self._superstep_maps.setdefault(superstep, built)
        return found

    def _vertex_postings(self):
        """``{vid_repr: {superstep: (source, entry)}}`` over the whole job."""
        if self._postings is None:
            postings = {}
            for source in self._sources:
                for entry in source.iter_entries():
                    if entry[0] != KIND_VERTEX:
                        continue
                    postings.setdefault(entry[2], {})[entry[1]] = (
                        source, entry
                    )
            with self._lock:
                if self._postings is None:
                    self._postings = postings
        return self._postings

    def _lazy_lookup(self, vertex_id, superstep):
        hit = self._superstep_map(superstep).get(repr(vertex_id))
        if hit is None:
            return None
        source, entry = hit
        record = source.fetch(entry[3])
        # The index keys on repr(); confirm the decoded id really matches.
        return record if record.vertex_id == vertex_id else None

    def _confirmed_fields(self, hit, vertex_id):
        """Field texts of the record behind a ``(source, entry)`` index hit."""
        source, entry = hit
        _kind, texts = source.field_texts(entry[3])
        # The index keys on repr(); confirm the stored id really matches.
        if self._codec.loads(texts[_VERTEX_ID_SLOT]) != vertex_id:
            return None
        return texts

    def _encoded_fields(self, record):
        return field_texts(record, self._codec)[1]

    def _flagged(self, vflag, superstep=None):
        """Decoded records carrying ``vflag``, in (superstep, id) order."""
        if self.mode == "eager":
            for record in self._vertex_records:
                if superstep is not None and record.superstep != superstep:
                    continue
                wanted = (
                    record.violations
                    if vflag == VFLAG_VIOLATIONS
                    else record.exception is not None
                )
                if wanted:
                    yield record
            return
        steps = set()
        for source in self._sources:
            steps |= source.flagged_supersteps(vflag)
        if superstep is not None:
            steps &= {superstep}
        for step in sorted(steps):
            step_map = self._superstep_map(step)
            for vid_repr in sorted(step_map):
                source, entry = step_map[vid_repr]
                if entry[4] & vflag:
                    yield source.fetch(entry[3])

    # -- queries ------------------------------------------------------------

    def get(self, vertex_id, superstep):
        """The capture record for one (vertex, superstep), or raise."""
        if self.mode == "eager":
            key = (vertex_id, superstep)
            record = self._by_key.get(key)
        else:
            record = self._lazy_lookup(vertex_id, superstep)
        if record is None:
            raise _not_captured(vertex_id, superstep)
        return record

    def get_fields(self, vertex_id, superstep):
        """:meth:`get`, as the record's field texts instead of the record.

        The JSON texts of the record's fields in
        :func:`~repro.graft.capture.vertex_field_names` order, rebuilt from
        the block's columns: no record is built and nothing enters the record
        cache, which is what a caller that only re-serializes the record
        (the debug server) wants.
        """
        if self.mode == "eager":
            return self._encoded_fields(self.get(vertex_id, superstep))
        hit = self._superstep_map(superstep).get(repr(vertex_id))
        texts = None if hit is None else self._confirmed_fields(hit, vertex_id)
        if texts is None:
            raise _not_captured(vertex_id, superstep)
        return texts

    def has(self, vertex_id, superstep):
        if self.mode == "eager":
            return (vertex_id, superstep) in self._by_key
        return self._lazy_lookup(vertex_id, superstep) is not None

    def at_superstep(self, superstep):
        """All vertex captures for one superstep, id-ordered.

        Returns a cached tuple: built (and sorted) once per superstep, not
        re-sorted per call.
        """
        if self.mode == "eager":
            return self._by_superstep.get(superstep, ())
        cached = self._at_cache.get(superstep)
        if cached is None:
            step_map = self._superstep_map(superstep)
            built = tuple(
                source.fetch(entry[3])
                for _vid_repr, (source, entry)
                in sorted(step_map.items())
            )
            with self._lock:
                cached = self._at_cache.setdefault(superstep, built)
        return cached

    def history(self, vertex_id):
        """One vertex's captures across supersteps, in superstep order.

        Backed by a per-vertex posting list: O(captures of that vertex),
        not O(all records).
        """
        if self.mode == "eager":
            return list(self._history.get(vertex_id, ()))
        chain = self._vertex_postings().get(repr(vertex_id))
        if not chain:
            return []
        records = []
        for superstep in sorted(chain):
            source, entry = chain[superstep]
            record = source.fetch(entry[3])
            if record.vertex_id == vertex_id:
                records.append(record)
        return records

    def history_fields(self, vertex_id):
        """:meth:`history`, as field texts (see :meth:`get_fields`)."""
        if self.mode == "eager":
            return [self._encoded_fields(r) for r in self.history(vertex_id)]
        chain = self._vertex_postings().get(repr(vertex_id), {})
        found = []
        for superstep in sorted(chain):
            texts = self._confirmed_fields(chain[superstep], vertex_id)
            if texts is not None:
                found.append(texts)
        return found

    def supersteps(self):
        """Sorted superstep numbers that have at least one vertex capture."""
        if self._supersteps is None:
            found = set()
            for source in self._sources:
                found |= source.supersteps()
            ordered = sorted(found)
            with self._lock:
                if self._supersteps is None:
                    self._supersteps = ordered
        return self._supersteps

    def captured_vertex_ids(self):
        """All distinct captured vertex ids."""
        if self.mode == "eager":
            return sorted({r.vertex_id for r in self._vertex_records}, key=repr)
        ids = []
        postings = self._vertex_postings()
        for vid_repr in sorted(postings):
            chain = postings[vid_repr]
            source, entry = chain[min(chain)]
            ids.append(source.fetch(entry[3]).vertex_id)
        return ids

    def violations(self, superstep=None):
        """All violations, optionally limited to one superstep.

        Lazy mode touches only blocks whose index line advertises
        violations — a posting-list walk, not a table scan.
        """
        found = []
        for record in self._flagged(VFLAG_VIOLATIONS, superstep):
            found.extend(record.violations)
        return found

    def exceptions(self, superstep=None):
        """All (record, exception) pairs, optionally for one superstep."""
        return [
            (record, record.exception)
            for record in self._flagged(VFLAG_EXCEPTION, superstep)
        ]

    def master_at(self, superstep):
        """The master capture for one superstep, or None."""
        return self._master_by_superstep.get(superstep)

    @property
    def vertex_records(self):
        """Every vertex capture, (superstep, id)-ordered.

        In lazy mode this materializes the whole trace on first use — the
        escape hatch for callers (fidelity sweeps, diffing) that genuinely
        visit everything.
        """
        if self._vertex_records is None:
            records = []
            for superstep in self.supersteps():
                records.extend(self.at_superstep(superstep))
            with self._lock:
                if self._vertex_records is None:
                    self._vertex_records = records
        return self._vertex_records

    def __len__(self):
        if self.mode == "eager":
            return len(self._by_key)
        return sum(len(c) for c in self._vertex_postings().values())


def _not_captured(vertex_id, superstep):
    return TraceError(
        f"vertex {vertex_id!r} was not captured in superstep {superstep}"
    )


_VERTEX_ID_SLOT = vertex_field_names().index("vertex_id")
_WORKER_ID_SLOT = vertex_field_names().index("worker_id")


# -- deterministic trace merge ------------------------------------------------

_NORMALIZED_WORKER_ID = "0"


def step_order(key):
    """Sort key of a walk key: by superstep, the master's row — computed
    first — ahead of the vertices', then by ``repr(vertex_id)``."""
    kind, superstep, vertex_repr = key
    return superstep, kind != KIND_MASTER, vertex_repr


def distinct_rows(kind, rows):
    """One key's rows with equal ones collapsed, in canonical-line order."""
    by_line = {join_line(kind, texts): texts for texts in rows}
    return [by_line[line] for line in sorted(by_line)]


def iter_canonical_rows(filesystem, job_id, codec=None, root=DEFAULT_ROOT):
    """Walk one job's captures as canonical, partition-independent rows.

    Yields ``(key, rows)`` in *step order* (:func:`step_order`): ``key`` is
    ``(kind, superstep, repr(vertex_id))`` (``""`` for a master record) and
    ``rows`` the key's records — nearly always one — each as the field
    texts the block's columns give back, ``worker_id`` normalized (vertex
    placement is an artifact of partitioning, not of the computation).
    Nothing is decoded or re-encoded. Equal rows within one key collapse: a
    superstep re-executed after a checkpoint rollback re-captures exactly
    the records the first attempt already persisted. Genuinely different
    records sharing a key are all kept, ordered by their canonical lines.
    Two runs of the same job produce equal walks whatever backend, worker
    count, or fault/recovery history produced them; the digest, graft-san
    and ``diff_runs`` all fold this one stream.

    Only the sort keys are held in memory; rows stream out a key at a time.
    """
    sources = _trace_sources(
        filesystem, job_id, codec or default_codec, root,
        # Rows are read once, a superstep at a time: one block per file.
        _LRUCache(0), _LRUCache(16),
    )
    keyed = []
    for source_index, source in enumerate(sources):
        for entry in source.iter_entries():
            key = (entry[0], entry[1], entry[2] or "")
            keyed.append((key, source_index, entry[3]))
    keyed.sort(key=lambda item: step_order(item[0]))
    for key, group in groupby(keyed, key=itemgetter(0)):
        rows = []
        for _key, source_index, ref in group:
            kind, texts = sources[source_index].field_texts(ref)
            if kind == KIND_VERTEX:
                texts[_WORKER_ID_SLOT] = _NORMALIZED_WORKER_ID
            rows.append(texts)
        yield key, distinct_rows(key[0], rows) if len(rows) > 1 else rows


def iter_canonical_trace_lines(filesystem, job_id, codec=None, root=DEFAULT_ROOT):
    """Stream :func:`iter_canonical_rows` as canonical JSON lines.

    A line is the record's JSON object form (sorted keys, compact
    separators), spliced from the stored texts. The stream's pinned order
    is kind-major — every vertex line by ``(superstep, repr(vertex_id),
    line)``, then the master lines by superstep — so the walk's few master
    lines are held back to the end.
    """
    master_lines = []
    for key, rows in iter_canonical_rows(filesystem, job_id, codec, root):
        if key[0] == KIND_VERTEX:
            for texts in rows:
                yield join_line(KIND_VERTEX, texts)
        else:
            master_lines += [join_line(KIND_MASTER, texts) for texts in rows]
    yield from master_lines


def canonical_trace_lines(filesystem, job_id, codec=None, root=DEFAULT_ROOT):
    """One job's captures as a canonical line list (see the iterator form)."""
    return list(iter_canonical_trace_lines(filesystem, job_id, codec, root))


def lines_digest(lines):
    """SHA-256 (hex) over newline-terminated lines, consumed as a stream."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def canonical_trace_digest(filesystem, job_id, codec=None, root=DEFAULT_ROOT):
    """SHA-256 over the canonical merged trace (hex string).

    The one-number answer to "did these two runs capture the same thing?"
    — byte-identical across execution backends and worker counts.
    """
    return lines_digest(iter_canonical_trace_lines(filesystem, job_id, codec, root))


# -- stats --------------------------------------------------------------------


def trace_stats(filesystem, job_id, codec=None, root=DEFAULT_ROOT):
    """Per-file storage statistics for one job's traces.

    Returns a dict with one row per trace file (format, bytes, index
    bytes, record counts, index coverage, compression ratio) plus totals —
    what the ``repro trace stats`` subcommand renders. A ``*.trace`` file
    that is not a readable trace (foreign bytes someone parked under the
    job directory, a torn header) is skipped rather than failing the whole
    report: it lands in the returned ``skipped`` list as ``{"path",
    "error"}`` so callers can warn about it. Nothing is decoded, so
    ``codec`` is not needed; it stays for the callers that pass it.
    """
    directory = job_directory(job_id, root)
    if not filesystem.is_dir(directory):
        raise TraceError(f"no trace directory for job {job_id!r}")
    files = []
    skipped = []
    for path in filesystem.glob_files(directory, suffix=".trace"):
        try:
            files.append(_file_stats(filesystem, path))
        except (
            TraceError,
            SerializationError,
            SimFsError,
            UnicodeDecodeError,
            ValueError,
            KeyError,
            zlib.error,
        ) as exc:
            skipped.append({"path": path, "error": str(exc)})
    total_records = sum(f["records"] for f in files)
    total_bytes = sum(f["bytes"] for f in files)
    total_idx = sum(f["index_bytes"] for f in files)
    total_raw = sum(f["raw_payload_bytes"] for f in files)
    total_stored = sum(f["stored_payload_bytes"] for f in files)
    indexed = sum(f["indexed_records"] for f in files)
    return {
        "job_id": job_id,
        "files": files,
        "skipped": skipped,
        "totals": {
            "files": len(files),
            "records": total_records,
            "bytes": total_bytes,
            "index_bytes": total_idx,
            "index_coverage": (
                round(indexed / total_records, 4) if total_records else 1.0
            ),
            "compression_ratio": (
                round(total_raw / total_stored, 3) if total_stored else 1.0
            ),
        },
    }


def _file_stats(filesystem, path):
    """Stats row for one trace file; raises when the file is unreadable."""
    size = filesystem.stat(path).size
    idx_path = path + ".idx"
    idx_bytes = (
        filesystem.stat(idx_path).size if filesystem.is_file(idx_path) else 0
    )
    blocks, header, index_stats = load_index(filesystem, path)
    tables = field_tables(header)
    indexed_blocks = index_stats["indexed_blocks"]
    records = sum(meta.num_records for meta in blocks)
    indexed_records = sum(
        meta.num_records for meta in blocks[:indexed_blocks]
    )
    raw = stored = 0
    for meta in blocks:
        raw += read_block(filesystem, path, meta, tables).payload_size
        stored += meta.length
    return {
        "path": path,
        "format": TRACE_FORMAT_V3,
        "bytes": size,
        "index_bytes": idx_bytes,
        "records": records,
        "indexed_records": indexed_records,
        "recovered_records": records - indexed_records,
        "index_coverage": (
            round(indexed_records / records, 4) if records else 1.0
        ),
        "violations": sum(meta.num_violations for meta in blocks),
        "exceptions": sum(meta.num_exceptions for meta in blocks),
        "raw_payload_bytes": raw,
        "stored_payload_bytes": stored,
        "compression_ratio": round(raw / stored, 3) if stored else 1.0,
    }
