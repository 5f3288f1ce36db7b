"""Shared read sessions over a trace directory: the server's hot core.

One :class:`ReaderPool` serves every request thread. It discovers the jobs
under a trace root, hands out one shared lazy
:class:`~repro.graft.trace.TraceReader` per job, and — the point — makes
all of them draw on a *single* record LRU and a *single* block LRU, so the
server's decoded-record memory is a process-wide budget instead of
per-client, per-job caches that multiply with traffic.

Everything a job can answer is immutable once its files are on the file
system (trace files are append-only and the server mounts completed runs),
so the pool caches aggressively: storage stats, the canonical trace
digest (the ETag), the persisted metrics document, and the reader itself
are each computed once under a per-job lock and shared forever after.

:func:`job_summary` is the one serializer for "describe this job" — the
``/jobs`` endpoints and ``repro trace stats --json`` both emit exactly
this shape.
"""

import threading

from repro.common.errors import TraceError
from repro.graft.trace import (
    DEFAULT_BLOCK_CACHE,
    DEFAULT_RECORD_CACHE,
    _LRUCache,
    TraceReader,
    canonical_trace_digest,
    job_directory,
    load_job_metrics,
    trace_stats,
)

DEFAULT_ROOT = "/graft"

#: Process-wide LRU budgets: how many decoded records / decoded blocks the
#: whole server keeps hot, across all jobs and clients.
DEFAULT_POOL_RECORD_CACHE = 16 * DEFAULT_RECORD_CACHE
DEFAULT_POOL_BLOCK_CACHE = 2 * DEFAULT_BLOCK_CACHE


class JobSession:
    """One job's shared read-side state; all fields build lazily, once."""

    def __init__(self, pool, job_id):
        self.job_id = job_id
        self._pool = pool
        self._lock = threading.Lock()
        self._reader = None
        self._etag = None
        self._stats = None
        self._metrics = ()          # sentinel: () = not loaded, None = absent

    @property
    def reader(self):
        """The job's shared lazy TraceReader (built on first touch)."""
        reader = self._reader
        if reader is None:
            with self._lock:
                if self._reader is None:
                    self._reader = TraceReader(
                        self._pool.filesystem,
                        self.job_id,
                        root=self._pool.root,
                        mode="lazy",
                        record_cache=self._pool.record_cache,
                        block_cache=self._pool.block_cache,
                    )
                reader = self._reader
        return reader

    @property
    def etag(self):
        """The job's canonical trace digest, computed once and pinned.

        This is the strong validator every ``/jobs/...`` response carries:
        byte-identical traces — whatever backend or worker count produced
        them — share it, and a cached client revalidates with one in-memory
        string comparison.
        """
        etag = self._etag
        if etag is None:
            with self._lock:
                if self._etag is None:
                    self._etag = canonical_trace_digest(
                        self._pool.filesystem, self.job_id,
                        root=self._pool.root,
                    )
                etag = self._etag
        return etag

    @property
    def cached_etag(self):
        """The digest if already computed, else None — never touches disk."""
        return self._etag

    @property
    def stats(self):
        """The job's ``trace_stats`` document (per-file storage stats)."""
        stats = self._stats
        if stats is None:
            with self._lock:
                if self._stats is None:
                    self._stats = trace_stats(
                        self._pool.filesystem, self.job_id,
                        root=self._pool.root,
                    )
                stats = self._stats
        return stats

    @property
    def metrics(self):
        """The persisted metrics.json document, or None when absent."""
        metrics = self._metrics
        if metrics == ():
            with self._lock:
                if self._metrics == ():
                    self._metrics = load_job_metrics(
                        self._pool.filesystem, self.job_id,
                        root=self._pool.root,
                    )
                metrics = self._metrics
        return metrics

    def summary(self, digest=True):
        """This job's :func:`job_summary`, served from the cached pieces."""
        return job_summary(
            self._pool.filesystem,
            self.job_id,
            root=self._pool.root,
            stats=self.stats,
            digest=self.etag if digest else None,
            metrics=self.metrics,
            supersteps=self.reader.supersteps(),
        )


class ReaderPool:
    """Job discovery plus shared, budgeted read sessions.

    ``record_cache_size`` / ``block_cache_size`` are *process-wide*
    budgets: every reader the pool creates shares the same two LRUs (keys
    embed the file path, so jobs never collide). A pool over a 100-job
    directory therefore holds at most one budget's worth of decoded
    records, no matter how many jobs are being inspected concurrently.
    """

    def __init__(
        self,
        filesystem,
        root=DEFAULT_ROOT,
        record_cache_size=DEFAULT_POOL_RECORD_CACHE,
        block_cache_size=DEFAULT_POOL_BLOCK_CACHE,
    ):
        self.filesystem = filesystem
        self.root = root
        self.record_cache = _LRUCache(record_cache_size)
        self.block_cache = _LRUCache(block_cache_size)
        self._sessions = {}
        self._lock = threading.Lock()

    def job_ids(self):
        """Sorted ids of the jobs under the root (dirs with a .trace file)."""
        if not self.filesystem.is_dir(self.root):
            return []
        found = []
        for child in self.filesystem.list_dir(self.root):
            if not self.filesystem.is_dir(child):
                continue
            if self.filesystem.glob_files(child, suffix=".trace"):
                found.append(child.rsplit("/", 1)[-1])
        return sorted(found)

    def session(self, job_id):
        """The shared :class:`JobSession` for one job; raises on unknown ids."""
        session = self._sessions.get(job_id)
        if session is None:
            with self._lock:
                session = self._sessions.get(job_id)
                if session is None:
                    directory = job_directory(job_id, self.root)
                    if not self.filesystem.is_dir(directory):
                        raise TraceError(
                            f"no trace directory for job {job_id!r}"
                        )
                    session = JobSession(self, job_id)
                    self._sessions[job_id] = session
        return session

    def reader(self, job_id):
        return self.session(job_id).reader

    def etag(self, job_id):
        return self.session(job_id).etag

    def cached_etag(self, job_id):
        """The job's ETag if already computed — the 304 path's zero-IO probe."""
        session = self._sessions.get(job_id)
        return session.cached_etag if session is not None else None

    def cache_stats(self):
        """Hit/miss counters of the two shared LRUs (the /stats endpoint)."""
        return {
            "record_cache": {
                "hits": self.record_cache.hits,
                "misses": self.record_cache.misses,
                "entries": len(self.record_cache),
            },
            "block_cache": {
                "hits": self.block_cache.hits,
                "misses": self.block_cache.misses,
                "entries": len(self.block_cache),
            },
        }


def job_summary(filesystem, job_id, root=DEFAULT_ROOT, stats=None,
                digest=True, metrics=None, supersteps=None):
    """Describe one job as a JSON-safe dict.

    The single serializer behind the server's ``/jobs`` endpoints *and*
    ``repro trace stats --json`` — the two must never drift apart, so they
    are the same function. Callers with cached pieces (the pool) pass them
    in; bare callers (the CLI) let everything be computed here.

    ``digest`` may be True (compute), a precomputed digest string, or
    None/False (omit — it is the one expensive field).
    """
    if stats is None:
        stats = trace_stats(filesystem, job_id, root=root)
    if digest is True:
        digest = canonical_trace_digest(filesystem, job_id, root=root)
    if metrics is None:
        metrics = load_job_metrics(filesystem, job_id, root=root)
    totals = stats["totals"]
    summary = {
        "job_id": job_id,
        "digest": digest or None,
        "files": stats["files"],
        "skipped": stats["skipped"],
        "totals": totals,
        "violations": sum(info["violations"] for info in stats["files"]),
        "exceptions": sum(info["exceptions"] for info in stats["files"]),
        "metrics": None if metrics is None else metrics.get("summary"),
        "metrics_summary_line": (
            None if metrics is None else metrics.get("summary_line")
        ),
    }
    if supersteps is not None:
        summary["supersteps"] = list(supersteps)
    return summary
