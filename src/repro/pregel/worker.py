"""A simulated Giraph worker.

Each worker owns the values, adjacency, and halt flags of the vertices its
partition assigned to it, and executes ``compute()`` for its active
vertices each superstep. Workers are plain objects scheduled by the
engine's execution backend (in order, or in forked children); everything a
distributed worker would do at the API level — message emission,
aggregator partials, mutation requests, metrics — happens here, so Graft's
per-worker trace files come out exactly as they would on a cluster.

A worker's per-superstep outputs are written only by its own step, so
steps share no mutable state: the engine hands each worker a private
aggregator buffer and reads all outputs back at the barrier.
"""

from array import array

from repro.common.errors import ComputeError, InjectedWorkerCrash
from repro.pregel.columnar import ColumnarOutbox
from repro.pregel.context import ComputeContext, ComputeServices


class _WorkerServices(ComputeServices):
    """Bridges contexts to the worker's per-superstep state."""

    def __init__(self, worker):
        self._worker = worker

    def aggregated_value(self, name):
        return self._worker._aggregators.visible_value(name)

    def aggregate(self, name, contribution):
        self._worker._aggregators.aggregate(name, contribution)

    def note_edges_mutated(self, delta=0):
        # One worker-wide flag: any in-place adjacency edit this superstep
        # taints broadcast-compaction and forces the engine to rebuild the
        # reverse index (and, under the process backend, to ship this
        # worker's edges back). Called before the edit: the first one
        # builds the reverse index this superstep's compact broadcasts
        # expand against, while the adjacency is still what they saw.
        worker = self._worker
        if not worker.edges_dirty:
            worker.edges_dirty = True
            if worker.reverse_index is not None:
                worker.reverse_index.build()
        worker.edge_count += delta

    # Emission goes into the worker's packed outbox (one flat set of point
    # columns in memory, per-partition run columns on the spill plane). A
    # broadcast appends one compact ``(source, seq, value)`` record for the
    # whole fan-out — unless the outbox has no reverse index to expand it
    # against (the spill plane), or this worker already mutated adjacency
    # this superstep (``edges_dirty``) so the engine-side index no longer
    # matches the emit-time neighbor set; then the fan-out is filed as
    # explicit per-target entries instead.

    def emit(self, source, target, value):
        worker = self._worker
        worker.outbox.add_point(source, target, value)
        worker.messages_sent += 1
        worker.bytes_sent += _estimate_bytes(value)

    def emit_broadcast(self, source, targets, value):
        fan_out = len(targets)
        if not fan_out:
            return
        worker = self._worker
        outbox = worker.outbox
        if worker.edges_dirty or not outbox.compact_broadcasts:
            outbox.add_broadcast_explicit(source, targets, value)
        else:
            outbox.add_broadcast(source, value, fan_out)
        worker.messages_sent += fan_out
        worker.bytes_sent += fan_out * _estimate_bytes(value)

    def request_add_vertex(self, vertex_id, value):
        self._worker.add_vertex_requests.append((vertex_id, value))

    def request_remove_vertex(self, vertex_id):
        self._worker.remove_vertex_requests.append(vertex_id)


# Fixed estimates for types whose size doesn't depend on content enough to
# matter for accounting. Exact-class keys so bool doesn't fall into int via
# isinstance checks.
_FIXED_SIZES = {type(None): 1, bool: 1, int: 8, float: 8}
_CONTAINER_TYPES = (list, tuple, set, frozenset, dict)
# First-instance size estimate per unknown type, so repeated messages of a
# user value class cost one dict lookup instead of a repr each.
_LEARNED_SIZES = {}


def _estimate_bytes(value):
    """Cheap serialized-size estimate for network accounting.

    O(1) in the size of the value: scalars use fixed sizes, strings/bytes
    their length, containers a shallow per-slot estimate, and unknown types
    the repr length of the first instance seen (cached per type). Byte
    counts are an accounting signal, not a codec — they must never cost
    more than the send itself, which the old ``len(str(value))`` did for
    large nested payloads.
    """
    cls = value.__class__
    fixed = _FIXED_SIZES.get(cls)
    if fixed is not None:
        return 16 + fixed
    if cls is str or cls is bytes or cls is bytearray:
        return 16 + len(value)
    if cls is memoryview:
        # A learned repr would report the ~50-char repr string, not the
        # buffer; nbytes is exact and O(1).
        return 16 + value.nbytes
    if cls is array:
        return 16 + len(value) * value.itemsize
    if cls in _CONTAINER_TYPES or isinstance(value, _CONTAINER_TYPES):
        return 32 + 8 * len(value)
    learned = _LEARNED_SIZES.get(cls)
    if learned is None:
        try:
            learned = len(repr(value))
        except Exception:  # noqa: BLE001 - estimation must never raise
            learned = 64
        _LEARNED_SIZES[cls] = learned
    return 16 + learned


class Worker:
    """One simulated worker: vertex state plus superstep execution."""

    def __init__(self, worker_id, run_seed):
        self.worker_id = worker_id
        self.run_seed = run_seed
        self.values = {}
        self.edges = {}
        self.halted = {}
        #: Out-edges over all of ``edges``, kept up to date by every
        #: change rather than recounted each superstep.
        self.edge_count = 0
        self._services = _WorkerServices(self)
        self._aggregators = None
        self.reverse_index = None
        # Per-superstep outputs, reset by prepare_superstep():
        self.outbox = ColumnarOutbox()
        #: The vertices of the last compute loop, in compute order: the
        #: only ones whose value or halt flag the superstep can change.
        self.active = []
        self.edges_dirty = False
        self.add_vertex_requests = []
        self.remove_vertex_requests = []
        self.messages_sent = 0
        self.bytes_sent = 0
        self.compute_calls = 0
        self.compute_errors = []

    # -- loading & mutation ------------------------------------------------

    def load_vertex(self, vertex_id, value, edge_map):
        """Place a vertex this worker does not hold yet (initial load or
        barrier creation)."""
        edges = self.edges[vertex_id] = dict(edge_map)
        self.edge_count += len(edges)
        self.values[vertex_id] = value
        self.halted[vertex_id] = False

    def remove_vertex(self, vertex_id):
        self.values.pop(vertex_id, None)
        self.edge_count -= len(self.edges.pop(vertex_id, ()))
        self.halted.pop(vertex_id, None)

    def has_vertex(self, vertex_id):
        return vertex_id in self.values

    def get_vertex_value(self, vertex_id):
        return self.values[vertex_id]

    def get_vertex_edges(self, vertex_id):
        return dict(self.edges[vertex_id])

    def iter_state(self):
        """Iterate ``(vertex_id, value, edge_map, halted)`` — checkpoint view."""
        for vertex_id, value in self.values.items():
            yield vertex_id, value, self.edges[vertex_id], self.halted[vertex_id]

    def restore_state(self, values, edges, halted):
        """Overwrite this worker's full vertex state (checkpoint restore)."""
        self.values = values
        self.halted = halted
        self.replace_edges(edges)

    def replace_edges(self, edges):
        """Adopt a whole new adjacency (checkpoint restore, or the edges
        a step in another address space edited) and recount it."""
        self.edges = edges
        self.edge_count = sum(map(len, edges.values()))

    @property
    def num_vertices(self):
        return len(self.values)

    @property
    def num_edges(self):
        return self.edge_count

    # -- superstep execution -------------------------------------------------

    def prepare_superstep(self, aggregators, reverse_index=None):
        """Reset per-superstep outputs and bind the aggregator sink.

        ``aggregators`` is anything with ``visible_value``/``aggregate`` —
        the shared :class:`~repro.pregel.aggregators.AggregatorRegistry`
        (serial semantics) or a worker-local
        :class:`~repro.pregel.aggregators.AggregatorBuffer` (what the
        engine's backends hand out so steps never share mutable state).
        ``reverse_index`` is the in-memory plane's
        :class:`~repro.pregel.columnar.ReverseIndex` for this superstep,
        built before the worker's first edge edit.
        """
        self._aggregators = aggregators
        self.reverse_index = reverse_index
        self.outbox = ColumnarOutbox()
        self.active = []
        self.edges_dirty = False
        self.add_vertex_requests = []
        self.remove_vertex_requests = []
        self.messages_sent = 0
        self.bytes_sent = 0
        self.compute_calls = 0
        self.compute_errors = []

    def active_vertices(self, superstep, message_store):
        """Ids this worker must run compute() on this superstep, in order."""
        if superstep == 0:
            return list(self.values)
        return [
            vertex_id
            for vertex_id in self.values
            if not self.halted[vertex_id] or message_store.has_inbox(vertex_id)
        ]

    def run_superstep(
        self,
        computation,
        superstep,
        message_store,
        num_vertices,
        num_edges,
        on_error="raise",
        crash_after_calls=None,
    ):
        """Execute one superstep over this worker's active vertices.

        ``on_error`` controls what a raising ``compute()`` does: ``raise``
        propagates a :class:`ComputeError` (a failed Giraph job); with
        ``halt_vertex`` the vertex is marked halted, the error recorded, and
        the superstep continues — the mode Graft's exception capture uses to
        keep collecting context after a failure.

        ``crash_after_calls`` is the chaos subsystem's mid-superstep fault
        hook: after that many ``compute()`` calls this superstep, the
        worker dies with :class:`InjectedWorkerCrash` — which is *not* a
        ComputeError, so it escapes the step as a machine failure rather
        than a user-code bug, and the engine rolls back to a checkpoint.
        """
        from repro.pregel.computation import WorkerInfo

        worker_info = WorkerInfo(
            self.worker_id, superstep, num_vertices, num_edges
        )
        computation.pre_superstep(worker_info)
        self._run_vertices(
            computation, superstep, message_store, num_vertices, num_edges,
            on_error, crash_after_calls,
        )
        computation.post_superstep(worker_info)

    def _run_vertices(self, computation, superstep, message_store,
                      num_vertices, num_edges, on_error, crash_after_calls):
        """The inner compute loop over ``self.values``'s active vertices.

        Factored out so the spill plane can point ``values``/``edges``/
        ``halted`` at one partition page at a time and re-run this loop per
        partition — the loop itself is store-agnostic.
        """
        self.active = self.active_vertices(superstep, message_store)
        for vertex_id in self.active:
            if (
                crash_after_calls is not None
                and self.compute_calls >= crash_after_calls
            ):
                raise InjectedWorkerCrash(
                    self.worker_id, superstep, crash_after_calls
                )
            # Store-agnostic inbox access: compute() gets raw values; the
            # context's incoming view builds (source, value) pairs only if
            # a debugger reads them.
            inbox_values = message_store.inbox_values(vertex_id)
            ctx = ComputeContext(
                vertex_id=vertex_id,
                value=self.values[vertex_id],
                edges=self.edges[vertex_id],
                incoming=message_store.incoming_view(vertex_id),
                superstep=superstep,
                num_vertices=num_vertices,
                num_edges=num_edges,
                services=self._services,
                run_seed=self.run_seed,
            )
            self.compute_calls += 1
            try:
                computation.compute(ctx, inbox_values)
            except Exception as exc:  # noqa: BLE001 - policy decides below
                error = ComputeError(vertex_id, superstep, exc)
                if on_error == "raise":
                    raise error from exc
                self.compute_errors.append(error)
                self.halted[vertex_id] = True
                continue
            self.values[vertex_id] = ctx.value
            self.halted[vertex_id] = ctx.halted

    def all_halted(self):
        return all(self.halted.values())

    def vertex_values(self):
        """Iterate ``(vertex_id, value)`` pairs owned by this worker."""
        return iter(self.values.items())


class SpilledWorker(Worker):
    """A worker whose vertex state lives in a partitioned spill store.

    Owns ``partitions_of_worker(worker_id)`` partitions and runs each
    superstep partition-at-a-time: pin the partition's page, load its
    grouped message inbox, point ``values``/``edges``/``halted`` at the
    page's dicts, run the shared inner compute loop, release — dirty
    only if the slice ran a ``compute()``. With one partition per worker
    and a page cache large enough to hold it, this degenerates to
    exactly the in-memory worker's behaviour — identical compute order,
    identical aggregator fold order. Every per-vertex accessor takes the
    vertex's partition from the engine's location map.
    """

    def __init__(self, worker_id, run_seed, store, partitioner, locations,
                 deferred=False):
        # The base dicts are never the source of truth here: they point
        # at whichever page the worker is computing over.
        super().__init__(worker_id, run_seed)
        self.store = store
        self.spill_partitioner = partitioner
        self.locations = locations
        self.deferred_runs = deferred
        self.messages_combined = 0
        self.inboxes_permuted = 0
        self._partitions = list(partitioner.partitions_of_worker(worker_id))

    # -- superstep execution ----------------------------------------------

    def run_superstep(
        self,
        computation,
        superstep,
        message_store,
        num_vertices,
        num_edges,
        on_error="raise",
        crash_after_calls=None,
    ):
        from repro.pregel.computation import WorkerInfo

        store = self.store
        # The outbox is a run file named after the delivery superstep, so
        # it is opened here rather than in prepare_superstep().
        self.outbox = store.run_outbox(
            self.worker_id,
            superstep + 1,
            self.spill_partitioner,
            self.locations,
            deferred=self.deferred_runs,
        )
        self.messages_combined = 0
        self.inboxes_permuted = 0
        worker_info = WorkerInfo(
            self.worker_id, superstep, num_vertices, num_edges
        )
        computation.pre_superstep(worker_info)
        for partition_id in self._partitions:
            page = store.acquire(partition_id)
            view = message_store.load_partition(partition_id)
            self.values = page.values
            self.edges = page.edges
            self.halted = page.halted
            calls_before = self.compute_calls
            try:
                self._run_vertices(
                    computation, superstep, view, num_vertices, num_edges,
                    on_error, crash_after_calls,
                )
            finally:
                self.messages_combined += view.eliminated
                self.inboxes_permuted += view.permuted
                # Vertex state changes only inside compute(): a slice
                # with no active vertex leaves its page clean.
                store.release(
                    partition_id, dirty=self.compute_calls > calls_before
                )
        computation.post_superstep(worker_info)
        self.outbox.seal()

    def collect_spill_state(self):
        """What the barrier needs from this step beyond the counters of
        :class:`~repro.pregel.runtime.StepOutcome`; under the process
        backend that includes the dirty pages and the sealed run file."""
        return {
            "pages": (
                self.store.collect_dirty(self._partitions)
                if self.deferred_runs else {}
            ),
            "run": self.outbox.shipped_file(),
            "suspect_counts": self.outbox.suspect_counts,
            "pickle_fallbacks": self.outbox.pickle_fallbacks,
            "messages_combined": self.messages_combined,
            "inboxes_permuted": self.inboxes_permuted,
        }

    # -- state access through the store ------------------------------------

    def load_vertex(self, vertex_id, value, edge_map):
        self.store.add_vertex(
            self.locations[vertex_id], vertex_id, value, edge_map
        )

    def remove_vertex(self, vertex_id):
        self.store.remove_vertex(self.locations[vertex_id], vertex_id)

    def has_vertex(self, vertex_id):
        return self.locations.get(vertex_id) in self._partitions

    def get_vertex_value(self, vertex_id):
        return self.store.get_vertex_value(
            self.locations[vertex_id], vertex_id
        )

    def get_vertex_edges(self, vertex_id):
        return self.store.get_vertex_edges(
            self.locations[vertex_id], vertex_id
        )

    @property
    def num_vertices(self):
        return self.store.num_vertices(self._partitions)

    @property
    def num_edges(self):
        return self.store.num_edges(self._partitions)

    def all_halted(self):
        return self.store.all_halted(self._partitions)

    def iter_state(self):
        for partition_id in self._partitions:
            yield from self.store.iter_partition(partition_id)

    def vertex_values(self):
        for vertex_id, value, _edges, _halted in self.iter_state():
            yield vertex_id, value

    def restore_state(self, values, edges, halted):
        """Rewrite every owned partition from checkpoint dicts."""
        by_partition = {}
        for vertex_id in values:
            by_partition.setdefault(
                self.locations[vertex_id], []
            ).append(vertex_id)
        for partition_id in self._partitions:
            ids = by_partition.get(partition_id, ())
            self.store.replace_partition(
                partition_id,
                {vid: values[vid] for vid in ids},
                {vid: edges[vid] for vid in ids},
                {vid: halted[vid] for vid in ids},
            )
