"""The spillable partitioned vertex store and its page cache.

:class:`SpillStore` owns the spill filesystem layout::

    <base>/pages/p<pid>.page       vertex page (BlockWriter segments)
    <base>/pages/p<pid>.page.idx   segment sidecar (offset length flags count)
    <base>/runs/s<ss>/w<wid>.run   one worker's message runs (packed columns)

and a byte-budgeted LRU of decoded :class:`PartitionPage` objects.
Workers ``acquire`` a partition's page (pinning it for the duration of
the partition's compute slice) and ``release`` it, dirty when the slice
changed it; unpinned pages stay hot in the LRU until the budget forces
a spill — so small graphs effectively keep today's all-in-memory
behaviour while big ones cycle pages through disk, and a page nobody
touched since it was last written is evicted without being rewritten.

Under the process backend the store is *frozen* inside worker children:
dirty pages are never written back (the children's spill directory is a
fork-shared view of the parent's); instead :meth:`collect_dirty` ships
the mutated partitions to the parent, which installs them at the
barrier via :meth:`replace_partition`.
"""

from collections import OrderedDict

from repro.common.errors import PregelError
from repro.pregel.store.pages import (
    PAGE_SEGMENT_ENTRIES,
    decode_segment,
    encode_segment,
    iter_frames,
)
from repro.pregel.store.runs import (
    RunOutbox,
    SpilledMessageStore,
    run_directory,
    run_path,
)
from repro.simfs.writers import BlockWriter

#: Default page-cache budget: roomy for tier-1 graphs, a small slice of
#: any realistic memory ceiling for the scale bench.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


def _estimate_page_bytes(values, edges):
    """Rough resident-size estimate used only for LRU budget accounting."""
    edge_slots = sum(len(edge_map) for edge_map in edges.values())
    return 160 * len(values) + 80 * edge_slots


class PartitionPage:
    """One partition's decoded vertex state, resident in memory."""

    __slots__ = ("partition_id", "values", "edges", "halted", "dirty",
                 "nbytes")

    def __init__(self, partition_id, values=None, edges=None, halted=None,
                 dirty=False):
        self.partition_id = partition_id
        self.values = values if values is not None else {}
        self.edges = edges if edges is not None else {}
        self.halted = halted if halted is not None else {}
        self.dirty = dirty
        self.nbytes = _estimate_page_bytes(self.values, self.edges)


class _Summary:
    """Per-partition aggregate facts that outlive the page's residency."""

    __slots__ = ("vertices", "edges", "halted")

    def __init__(self, vertices=0, edges=0, halted=0):
        self.vertices = vertices
        self.edges = edges
        self.halted = halted

    @property
    def all_halted(self):
        return self.halted >= self.vertices


class SpillStore:
    """Spillable partitioned vertex store over a simfs-like filesystem."""

    def __init__(self, filesystem=None, num_partitions=1,
                 cache_bytes=DEFAULT_CACHE_BYTES, base="/spill"):
        if filesystem is None:
            from repro.simfs.spool import SpoolFileSystem

            filesystem = SpoolFileSystem()
        self.filesystem = filesystem
        self.num_partitions = num_partitions
        self.cache_bytes = cache_bytes
        self.base = base.rstrip("/")
        self.frozen = False
        self._cache = OrderedDict()
        # Running total of the cached (unpinned) pages' ``nbytes``.
        self._cached_bytes = 0
        # partition id -> [page, pin count, dirtied by one of its pins]
        self._pins = {}
        self._summaries = {}
        self.pages_spilled = 0
        self.pages_loaded = 0
        self.bytes_spilled = 0
        self.bytes_loaded = 0
        self.page_hits = 0
        self.page_misses = 0
        self.value_fallbacks = 0

    # -- paths -------------------------------------------------------------

    def page_path(self, partition_id):
        return f"{self.base}/pages/p{partition_id:05d}.page"

    def index_path(self, partition_id):
        return self.page_path(partition_id) + ".idx"

    # -- telemetry ---------------------------------------------------------

    def counters(self):
        return {
            "pages_spilled": self.pages_spilled,
            "pages_loaded": self.pages_loaded,
            "bytes_spilled": self.bytes_spilled,
            "bytes_loaded": self.bytes_loaded,
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "value_fallbacks": self.value_fallbacks,
        }

    def resident_partitions(self):
        return len(self._cache) + len(self._pins)

    # -- page lifecycle ----------------------------------------------------

    def acquire(self, partition_id):
        """Pin a partition's page in memory and return it."""
        pinned = self._pins.get(partition_id)
        if pinned is not None:
            pinned[1] += 1
            return pinned[0]
        page = self._uncache(partition_id)
        if page is not None:
            self.page_hits += 1
        else:
            self.page_misses += 1
            page = self._load_page(partition_id)
        self._pins[partition_id] = [page, 1, False]
        return page

    def release(self, partition_id, dirty=False):
        """Unpin; a page released dirty refreshes its summary and will be
        written when evicted, a page only read stays as clean as it was."""
        pinned = self._pins.get(partition_id)
        if pinned is None:
            raise PregelError(
                f"release of unpinned partition {partition_id}"
            )
        if dirty:
            pinned[2] = True
        pinned[1] -= 1
        if pinned[1] > 0:
            return
        del self._pins[partition_id]
        page = pinned[0]
        if pinned[2]:
            page.dirty = True
            self._refresh_summary(page)
        self._encache(page)

    def _encache(self, page):
        self._cache[page.partition_id] = page
        self._cached_bytes += page.nbytes
        self._evict()

    def _uncache(self, partition_id):
        page = self._cache.pop(partition_id, None)
        if page is not None:
            self._cached_bytes -= page.nbytes
        return page

    def _refresh_summary(self, page):
        summary = self._summaries.setdefault(
            page.partition_id, _Summary()
        )
        summary.vertices = len(page.values)
        summary.edges = sum(len(edge_map) for edge_map in page.edges.values())
        summary.halted = sum(1 for flag in page.halted.values() if flag)
        page.nbytes = _estimate_page_bytes(page.values, page.edges)

    def _evict(self):
        if self.cache_bytes is None or self._cached_bytes <= self.cache_bytes:
            return
        for partition_id in list(self._cache):
            if self._cached_bytes <= self.cache_bytes:
                break
            page = self._cache[partition_id]
            if page.dirty and self.frozen:
                # Children must not write the fork-shared spill area;
                # dirty pages stay resident until collect_dirty().
                continue
            self._uncache(partition_id)
            if page.dirty:
                self._write_page(page)

    def _load_page(self, partition_id):
        path = self.page_path(partition_id)
        if not self.filesystem.exists(path):
            return PartitionPage(partition_id)
        data = self.filesystem.read_bytes(path)
        values = {}
        edges = {}
        halted = {}
        for payload in iter_frames(data):
            ids, vals, edge_maps, flags, fallback = decode_segment(payload)
            if fallback:
                self.value_fallbacks += 1
            for vid, value, edge_map, flag in zip(ids, vals, edge_maps, flags):
                values[vid] = value
                edges[vid] = edge_map
                halted[vid] = flag
        self.pages_loaded += 1
        self.bytes_loaded += len(data)
        return PartitionPage(partition_id, values, edges, halted)

    def _write_page(self, page):
        writer = BlockWriter(self.filesystem, self.page_path(page.partition_id))
        index_lines = []
        entries = []
        values = page.values
        edges = page.edges
        halted = page.halted
        for vertex_id in values:
            entries.append(
                (vertex_id, values[vertex_id], edges[vertex_id],
                 halted[vertex_id])
            )
            if len(entries) >= PAGE_SEGMENT_ENTRIES:
                offset, length, flags = writer.write_block(
                    encode_segment(entries)
                )
                index_lines.append(f"{offset} {length} {flags} {len(entries)}")
                entries = []
        if entries or not index_lines:
            offset, length, flags = writer.write_block(encode_segment(entries))
            index_lines.append(f"{offset} {length} {flags} {len(entries)}")
        writer.close()
        self.filesystem.create(self.index_path(page.partition_id),
                               overwrite=True)
        self.filesystem.append_text(
            self.index_path(page.partition_id),
            "".join(line + "\n" for line in index_lines),
        )
        self.pages_spilled += 1
        self.bytes_spilled += writer.offset
        page.dirty = False

    def flush(self):
        """Spill every dirty unpinned page (tests and shutdown hygiene)."""
        for page in self._cache.values():
            if page.dirty:
                self._write_page(page)

    # -- frozen-mode state transfer (process backend) ----------------------

    def collect_dirty(self, partition_ids):
        """Detach dirty pages for shipping to the parent at the barrier."""
        shipped = {}
        for partition_id in partition_ids:
            page = self._cache.get(partition_id)
            if page is not None and page.dirty:
                shipped[partition_id] = (
                    page.values, page.edges, page.halted
                )
                self._uncache(partition_id)
        return shipped

    def replace_partition(self, partition_id, values, edges, halted):
        """Install a partition's full state (barrier absorb / restore)."""
        page = PartitionPage(
            partition_id, dict(values),
            {vid: dict(edge_map) for vid, edge_map in edges.items()},
            dict(halted), dirty=True,
        )
        if partition_id in self._pins:
            raise PregelError(
                f"replace_partition({partition_id}) while pinned"
            )
        self._uncache(partition_id)
        self._refresh_summary(page)
        self._encache(page)

    def install_run_file(self, path, data):
        """Install a child-shipped run file verbatim (parent, barrier)."""
        self.filesystem.create(path, overwrite=True)
        self.filesystem.append_bytes(path, data)

    # -- point access (barrier mutations, debugger reads) ------------------

    def add_vertex(self, partition_id, vertex_id, value, edge_map):
        page = self.acquire(partition_id)
        try:
            page.values[vertex_id] = value
            page.edges[vertex_id] = dict(edge_map)
            page.halted[vertex_id] = False
        finally:
            self.release(partition_id, dirty=True)

    def remove_vertex(self, partition_id, vertex_id):
        page = self.acquire(partition_id)
        try:
            page.values.pop(vertex_id, None)
            page.edges.pop(vertex_id, None)
            page.halted.pop(vertex_id, None)
        finally:
            self.release(partition_id, dirty=True)

    def get_vertex_value(self, partition_id, vertex_id):
        page = self.acquire(partition_id)
        try:
            return page.values[vertex_id]
        finally:
            self.release(partition_id)

    def get_vertex_edges(self, partition_id, vertex_id):
        page = self.acquire(partition_id)
        try:
            return dict(page.edges[vertex_id])
        finally:
            self.release(partition_id)

    def iter_partition(self, partition_id):
        """``(vertex_id, value, edge_map, halted)`` for one partition.

        Materializes the partition's entry list while pinned, then
        releases — callers may consume lazily without holding a pin.
        """
        page = self.acquire(partition_id)
        try:
            entries = [
                (vid, page.values[vid], page.edges[vid], page.halted[vid])
                for vid in page.values
            ]
        finally:
            self.release(partition_id)
        return iter(entries)

    # -- summaries ---------------------------------------------------------

    def summary(self, partition_id):
        return self._summaries.get(partition_id) or _Summary()

    def num_vertices(self, partition_ids):
        return sum(self.summary(pid).vertices for pid in partition_ids)

    def num_edges(self, partition_ids):
        return sum(self.summary(pid).edges for pid in partition_ids)

    def all_halted(self, partition_ids):
        return all(self.summary(pid).all_halted for pid in partition_ids)

    # -- runs --------------------------------------------------------------

    def run_outbox(self, worker_id, superstep, partitioner, locations,
                   deferred=False):
        """The outbox whose run file ``superstep`` will deliver."""
        return RunOutbox(
            self.filesystem, run_path(self.base, superstep, worker_id),
            partitioner, locations, deferred=deferred,
        )

    def message_store(self, superstep, **delivery):
        """The store delivering ``superstep``'s sealed run files."""
        return SpilledMessageStore(
            self.filesystem, self.base, superstep, self.num_partitions,
            **delivery,
        )

    def clear_runs(self, superstep):
        """Delete the run files for one delivery superstep.

        Called before every superstep execution (so a crashed attempt's
        torn runs can never leak into a re-execution) and after a
        superstep's inbox has been fully consumed.
        """
        directory = run_directory(self.base, superstep)
        for path in self.filesystem.glob_files(directory, suffix=".run"):
            self.filesystem.delete(path)

    # -- bulk build --------------------------------------------------------

    def builder(self):
        return PageBuilder(self)


class PageBuilder:
    """Chunked bulk loader: streams vertices into page segments.

    Vertices arrive in graph order and are buffered per partition; when
    the global buffer reaches the segment budget every non-empty
    partition buffer is appended to its page file as one segment. Peak
    build memory is one segment budget regardless of graph size — this
    is what lets a ≥1M-vertex registry dataset materialize directly into
    the store.
    """

    def __init__(self, store, segment_entries=PAGE_SEGMENT_ENTRIES):
        self._store = store
        self._segment_entries = segment_entries
        self._buffers = {}
        self._buffered = 0
        self._writers = {}
        self._index_lines = {}
        self._counts = {}

    def add(self, partition_id, vertex_id, value, edge_map, halted=False):
        edge_map = dict(edge_map)
        entry = (vertex_id, value, edge_map, halted)
        batch = self._buffers.get(partition_id)
        if batch is None:
            self._buffers[partition_id] = [entry]
        else:
            batch.append(entry)
        counts = self._counts.get(partition_id)
        if counts is None:
            counts = self._counts[partition_id] = [0, 0, 0]
        counts[0] += 1
        counts[1] += len(edge_map)
        if halted:
            counts[2] += 1
        self._buffered += 1
        if self._buffered >= self._segment_entries:
            self._flush()

    def _flush(self):
        store = self._store
        for partition_id in sorted(self._buffers):
            batch = self._buffers[partition_id]
            if not batch:
                continue
            writer = self._writers.get(partition_id)
            if writer is None:
                writer = BlockWriter(
                    store.filesystem, store.page_path(partition_id)
                )
                self._writers[partition_id] = writer
                self._index_lines[partition_id] = []
            offset, length, flags = writer.write_block(encode_segment(batch))
            self._index_lines[partition_id].append(
                f"{offset} {length} {flags} {len(batch)}"
            )
            self._buffers[partition_id] = []
        self._buffered = 0

    def finish(self):
        """Seal page files, write sidecars, and install summaries."""
        self._flush()
        store = self._store
        for partition_id, writer in sorted(self._writers.items()):
            writer.close()
            store.filesystem.create(
                store.index_path(partition_id), overwrite=True
            )
            store.filesystem.append_text(
                store.index_path(partition_id),
                "".join(
                    line + "\n"
                    for line in self._index_lines[partition_id]
                ),
            )
            store.pages_spilled += 1
            store.bytes_spilled += writer.offset
        for partition_id in range(store.num_partitions):
            vertices, edges, halted = self._counts.get(
                partition_id, (0, 0, 0)
            )
            store._summaries[partition_id] = _Summary(vertices, edges, halted)
