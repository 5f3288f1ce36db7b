"""The BSP engine: superstep loop, barriers, routing, mutations, halting.

:class:`PregelEngine` wires the pieces together exactly in Giraph's order:

1. at the beginning of each superstep, ``master_compute()`` runs against
   the aggregator values merged at the previous barrier and may rewrite
   them or halt;
2. every worker runs ``compute()`` for its active vertices (active = not
   halted, or woken by an incoming message; everyone is active in
   superstep 0);
3. the barrier routes emitted messages (optionally through a combiner),
   applies graph mutations (explicit requests plus Giraph's
   create-vertex-on-message default resolver), merges aggregator partials,
   and checks termination.

Superstep execution is split into two layers. Each worker's share of a
superstep is one call of the engine's step function (:meth:`PregelEngine._step`):
it prepares the worker, runs ``compute()`` over its active vertices
against a private packed outbox and aggregator buffer, and returns a
:class:`~repro.pregel.runtime.StepOutcome`. An
:class:`~repro.pregel.runtime.ExecutionBackend` (``executor="serial" |
"processes"``) schedules the steps. Under ``processes`` they run in a
pool of forked children that persists while the parent's state matches
what the children inherited: each superstep the parent sends a child
its inboxes and the superstep's scalars, and the pickled outcome — a
packed frame of the outbox and the computed vertices' new state, as
plain bytes — is all that crosses back. The engine then reduces all
outcomes at the barrier **in worker-id order** — message merge,
mutation application, aggregator partial fold, error selection — so
results, aggregator values, and Graft trace files are identical whichever
backend ran the steps.

Listeners observe superstep boundaries — this is where Graft hooks in its
master-context capture and per-superstep trace flushing without the engine
knowing anything about the debugger. Listeners that buffer per-worker data
during steps may implement extra hooks used by state-transferring
backends (``processes``): ``collect_step_payload(worker_id)`` runs inside
the step's address space and returns (and forgets) picklable data;
``absorb_step_payload(worker_id, payload)`` replays it in the parent at
the barrier; ``step_state()`` returns the picklable state a step reads
that the parent sets between steps, which ``load_step_state(state)``
installs in a pool child before each superstep it is sent.
``on_superstep_aborted(superstep, worker_id)`` fires when a step's fatal
error is about to propagate.
"""

import functools
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.common.errors import (
    CheckpointError,
    ComputeError,
    EngineStateError,
    InjectedFault,
    PregelError,
    SimFsError,
)
from repro.common.timing import Timer
from repro.pregel import halting
from repro.pregel.aggregators import AggregatorRegistry
from repro.pregel.columnar import (
    ColumnarMessageStore,
    ColumnarRunState,
    build_frame,
    pack_inboxes,
    parse_frame,
    unpack_inboxes,
)
from repro.pregel.checkpoint import (
    WorkerFailure,
    checkpoint_candidates,
    read_checkpoint,
    restore_workers,
    write_checkpoint,
)
from repro.pregel.master import MasterContext, ensure_master, run_master
from repro.pregel.messages import MessageStore
from repro.pregel.metrics import RunMetrics, SuperstepMetrics, sample_peak_memory
from repro.pregel.partition import HashPartitioner
from repro.pregel.runtime import StepBatch, StepOutcome, resolve_backend
from repro.pregel.worker import SpilledWorker, Worker

DEFAULT_MAX_SUPERSTEPS = 10_000

#: Default partition count when spilling: enough partitions that one
#: partition's page is a small fraction of any realistic memory ceiling,
#: while still a multiple of common worker counts (1/2/4/8).
DEFAULT_SPILL_PARTITIONS = 32

# Rough in-memory footprint per vertex / per edge of the dict-based
# plane (value + adjacency + halt flag + outbox slack), used only to
# decide whether ``store="auto"`` should spill under a memory ceiling.
_VERTEX_FOOTPRINT = 300
_EDGE_FOOTPRINT = 180


def estimated_graph_bytes(graph):
    """Estimated resident bytes of running ``graph`` fully in memory."""
    num_vertices = getattr(graph, "num_vertices", None)
    num_edges = getattr(graph, "num_edges", 0) or 0
    if num_vertices is None:
        num_vertices = len(list(graph.vertex_ids()))
    return _VERTEX_FOOTPRINT * num_vertices + _EDGE_FOOTPRINT * num_edges


@dataclass
class PregelResult:
    """Outcome of one engine run."""

    vertex_values: dict
    num_supersteps: int
    halt_reason: str
    metrics: RunMetrics
    aggregator_values: dict
    compute_errors: list = field(default_factory=list)
    recoveries: int = 0

    @property
    def converged(self):
        return self.halt_reason == halting.CONVERGED

    def summary(self):
        return (
            f"halt={self.halt_reason} after {self.num_supersteps} supersteps; "
            f"{self.metrics.summary()}"
        )


class SpilledResultValues(Mapping):
    """Lazy ``{vertex_id: value}`` view over the spill store.

    Materializing a million-vertex result dict would defeat the memory
    ceiling the spill plane exists for; point lookups go through the page
    cache instead. Iteration order follows the location map (insertion
    order of the load). ``dict(result.vertex_values)`` still works — and
    pays the page churn — when a test wants the whole mapping.
    """

    def __init__(self, store, locations):
        self._store = store
        self._locations = locations

    def __getitem__(self, vertex_id):
        return self._store.get_vertex_value(
            self._locations[vertex_id], vertex_id
        )

    def __iter__(self):
        return iter(self._locations)

    def __len__(self):
        return len(self._locations)

    def __eq__(self, other):
        if isinstance(other, (dict, Mapping)):
            return dict(self) == dict(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"<SpilledResultValues of {len(self._locations)} vertices>"


class PregelEngine:
    """Runs one vertex program over one input graph.

    Parameters
    ----------
    computation_factory:
        The user's :class:`~repro.pregel.Computation` subclass (or any
        zero-argument factory). One instance is created per worker, as
        Giraph creates one per worker thread.
    graph:
        The input :class:`~repro.graph.Graph`. The engine copies adjacency
        into workers; the input graph is never mutated.
    num_workers, partitioner:
        Cluster shape. Default: 4 workers, hash partitioning.
    executor:
        Execution backend for worker steps: ``"serial"`` (default),
        ``"processes"``, or an
        :class:`~repro.pregel.runtime.ExecutionBackend` instance. Results
        and Graft traces are identical across backends; see
        ``docs/performance.md``.
    master:
        Optional :class:`~repro.pregel.MasterComputation` instance.
    combiner:
        Optional :class:`~repro.pregel.MessageCombiner`.
    aggregators:
        Optional dict ``name -> Aggregator`` registered before superstep 0
        (in addition to whatever ``master.initialize`` registers).
    seed:
        Root seed for all per-vertex randomness.
    max_supersteps:
        Superstep budget; hitting it sets halt reason ``max_supersteps``
        (how a user notices the paper's MWM infinite loop).
    on_error:
        ``"raise"`` (default) propagates a failing ``compute()`` as
        :class:`~repro.common.errors.ComputeError`; ``"halt_vertex"``
        records it and keeps going (used with Graft exception capture).
        Under ``"processes"`` with ``"raise"``, every forked step runs to
        completion and the error from the lowest-numbered worker wins.
    listeners:
        Objects whose optional hooks ``on_start(engine)``,
        ``on_master_computed(superstep, master_ctx)``,
        ``on_superstep_end(superstep, metrics)``, ``on_finish(result)``,
        ``on_superstep_aborted(superstep, worker_id)`` are called at the
        matching points.
    checkpoint_config:
        Optional :class:`~repro.pregel.CheckpointConfig`; enables periodic
        checkpoints to the simulated DFS and failure recovery.
    fault_injector:
        Optional :class:`~repro.chaos.FaultInjector` (or anything with its
        hook methods). Consulted at deterministic points — superstep start,
        step packaging, after each checkpoint write — so injected faults
        (crashes, slow workers, checkpoint corruption) fire identically
        whatever execution backend runs the steps. Any
        :class:`~repro.common.errors.InjectedFault` that escapes a
        superstep is handled like a machine failure: rollback and
        re-execute when checkpointing is on, propagate otherwise.
    """

    def __init__(
        self,
        computation_factory,
        graph,
        num_workers=4,
        seed=0,
        master=None,
        combiner=None,
        aggregators=None,
        partitioner=None,
        max_supersteps=DEFAULT_MAX_SUPERSTEPS,
        on_error="raise",
        listeners=None,
        checkpoint_config=None,
        fault_injector=None,
        on_message_to_missing="create",
        executor="serial",
        delivery_schedule=None,
        store=None,
        memory_limit=None,
        num_partitions=None,
        spill_filesystem=None,
        page_cache_bytes=None,
    ):
        if max_supersteps <= 0:
            raise PregelError(f"max_supersteps must be positive, got {max_supersteps}")
        if on_error not in ("raise", "halt_vertex"):
            raise PregelError(f"unknown on_error policy {on_error!r}")
        if on_message_to_missing not in ("create", "drop"):
            raise PregelError(
                f"unknown on_message_to_missing policy {on_message_to_missing!r}"
            )
        if store is None:
            store = "auto"
        if store not in ("auto", "memory", "spill"):
            raise PregelError(
                f"store must be 'auto', 'memory', or 'spill', got {store!r}"
            )
        spill = store == "spill" or (
            store == "auto"
            and memory_limit is not None
            and estimated_graph_bytes(graph) > memory_limit
        )
        self._computation_factory = computation_factory
        self._graph = graph
        if partitioner is not None:
            self._partitioner = partitioner
        else:
            if num_partitions is None and spill:
                num_partitions = max(num_workers, DEFAULT_SPILL_PARTITIONS)
            self._partitioner = HashPartitioner(
                num_workers, num_partitions=num_partitions
            )
        self._num_workers = self._partitioner.num_workers
        #: partition id -> the worker that runs it.
        self._partition_owners = [
            self._partitioner.worker_of_partition(partition_id)
            for partition_id in range(self._partitioner.num_partitions)
        ]
        self._backend = resolve_backend(executor, self._num_workers)
        self._transfers_state = self._backend.transfers_state_for(
            self._num_workers
        )
        self._memory_limit = memory_limit
        if spill:
            from repro.pregel.store import SpillStore
            from repro.pregel.store.spill import DEFAULT_CACHE_BYTES

            if page_cache_bytes is None:
                page_cache_bytes = DEFAULT_CACHE_BYTES
                if memory_limit is not None:
                    page_cache_bytes = min(
                        page_cache_bytes, max(memory_limit // 4, 1 << 20)
                    )
            self._store = SpillStore(
                spill_filesystem,
                num_partitions=self._partitioner.num_partitions,
                cache_bytes=page_cache_bytes,
            )
        else:
            self._store = None
        self._store_counters = None
        self._seed = seed
        self._master = ensure_master(master)
        self._combiner = combiner
        self._extra_aggregators = dict(aggregators or {})
        self._max_supersteps = max_supersteps
        self._on_error = on_error
        self._listeners = list(listeners or [])
        self._on_message_to_missing = on_message_to_missing
        self._checkpoint_config = checkpoint_config
        self._fault_injector = fault_injector
        # graft-san: a PermutationSchedule (or compatible object) that
        # reorders canonical inboxes when they are settled — at the barrier
        # in memory, at partition load on the spill plane. Seeded from the
        # run seed unless it carries its own.
        self._delivery_schedule = (
            delivery_schedule.bind(seed)
            if delivery_schedule is not None
            else None
        )
        # The in-memory plane's topology index; the spill plane routes
        # through run files and needs none.
        self._run_state = None if spill else ColumnarRunState()
        self._ran = False
        # Populated by run():
        self.workers = []
        self.aggregators = AggregatorRegistry()
        # vertex id -> partition id, on both planes: one lookup answers
        # "does it exist?", "which worker?" and "which page / run section?",
        # so ids are hashed once at load or creation, never per message.
        self._locations = {}

    @property
    def executor_name(self):
        """Name of the execution backend scheduling worker steps."""
        return self._backend.name

    # -- listener plumbing -----------------------------------------------

    def add_listener(self, listener):
        """Attach a listener before run() (Graft uses this)."""
        self._listeners.append(listener)

    def _notify(self, hook_name, *args):
        for listener in self._listeners:
            hook = getattr(listener, hook_name, None)
            if hook is not None:
                hook(*args)

    # -- setup ------------------------------------------------------------

    def _iter_graph_vertices(self):
        """Unified vertex source: ``(vertex_id, raw_value, edge_map)``.

        A :class:`~repro.datasets.VertexStream` (or anything exposing
        ``iter_vertices``) is consumed streaming — vertices flow straight
        into worker/store state without the whole graph ever being a dict;
        a materialized :class:`~repro.graph.Graph` goes through the
        classic per-id accessors.
        """
        iterator = getattr(self._graph, "iter_vertices", None)
        if iterator is not None:
            return iterator()
        graph = self._graph
        return (
            (vertex_id, graph.vertex_value(vertex_id), graph.out_edges(vertex_id))
            for vertex_id in graph.vertex_ids()
        )

    def _load(self):
        partitioner = self._partitioner
        self._computations = [
            self._computation_factory() for _ in range(self._num_workers)
        ]
        if self._store is not None:
            # Bulk-build pages partition-at-a-time: bounded buffers, no
            # full-graph dict — what lets ≥1M-vertex datasets load under
            # a memory ceiling.
            computations = self._computations
            builder = self._store.builder()
            for vertex_id, raw_value, edge_map in self._iter_graph_vertices():
                partition_id = partitioner.partition_for(vertex_id)
                worker_index = partitioner.worker_of_partition(partition_id)
                initial = computations[worker_index].initial_value(
                    vertex_id, raw_value
                )
                builder.add(partition_id, vertex_id, initial, edge_map)
                self._locations[vertex_id] = partition_id
            builder.finish()
            self._store_counters = self._store.counters()
            self.workers = [
                SpilledWorker(
                    worker_id, self._seed, self._store, partitioner,
                    self._locations, deferred=self._transfers_state,
                )
                for worker_id in range(self._num_workers)
            ]
        else:
            self.workers = [
                Worker(worker_id, self._seed)
                for worker_id in range(self._num_workers)
            ]
            for vertex_id, raw_value, edge_map in self._iter_graph_vertices():
                partition_id = partitioner.partition_for(vertex_id)
                worker_index = partitioner.worker_of_partition(partition_id)
                computation = self._computations[worker_index]
                initial = computation.initial_value(vertex_id, raw_value)
                self.workers[worker_index].load_vertex(
                    vertex_id, initial, edge_map
                )
                self._locations[vertex_id] = partition_id
        for name, aggregator in self._extra_aggregators.items():
            self.aggregators.register(name, aggregator)
        if self._master is not None:
            self._master.initialize(self.aggregators)

    def _owner(self, vertex_id):
        """The worker running the partition the location map names."""
        partition_id = self._locations.get(vertex_id)
        if partition_id is None:
            raise PregelError(f"vertex {vertex_id!r} not in the computation")
        return self.workers[self._partitioner.worker_of_partition(partition_id)]

    def vertex_value(self, vertex_id):
        """Current value of a vertex (live engine state; used by debuggers)."""
        return self._owner(vertex_id).get_vertex_value(vertex_id)

    def has_vertex(self, vertex_id):
        return vertex_id in self._locations

    def vertex_edges(self, vertex_id):
        """Current outgoing-edge map of a vertex (live engine state)."""
        return self._owner(vertex_id).get_vertex_edges(vertex_id)

    @property
    def num_vertices(self):
        return sum(worker.num_vertices for worker in self.workers)

    @property
    def num_edges(self):
        return sum(worker.num_edges for worker in self.workers)

    # -- worker steps -------------------------------------------------------

    def _step(self, worker_id, superstep, incoming, num_vertices, num_edges,
              fault=None):
        """Run one worker's share of a superstep; return its outcome.

        The one step function: serial runs it in place, and a pool child
        of the process backend runs it on its own copy of the engine —
        inherited through the fork, or resumed with the inbox the parent
        sent (:meth:`_resume_step`). It touches only the worker's own
        state, a fresh aggregator buffer, and the immutable ``incoming``
        store, so steps share no mutable state and their order cannot
        change the barrier's input. Fatal compute errors are returned in
        the outcome (not raised) so sibling steps aren't torn down
        mid-superstep; the engine re-raises deterministically afterwards.

        ``fault`` is a chaos decision made in the parent *before* the step
        is scheduled (so it is backend-independent): an optional
        ``{"delay": seconds, "crash_after": calls}`` dict. A crash raises
        :class:`~repro.common.errors.InjectedWorkerCrash` out of the step —
        deliberately not caught here, because it models the machine dying,
        not user code failing.
        """
        worker = self.workers[worker_id]
        transfers_state = self._transfers_state
        spill = self._store is not None
        buffer = self.aggregators.buffer()
        worker.prepare_superstep(
            buffer, None if spill else self._run_state.index
        )
        error = None
        if fault and fault.get("delay"):
            time.sleep(fault["delay"])
        with Timer() as timer:
            try:
                worker.run_superstep(
                    self._computations[worker_id],
                    superstep,
                    incoming,
                    num_vertices,
                    num_edges,
                    on_error=self._on_error,
                    crash_after_calls=fault.get("crash_after") if fault else None,
                )
            except ComputeError as exc:
                error = exc
        payloads = None
        state = None
        frame = None
        # Same-address-space backends hand the live packed outbox to
        # the barrier; the spill plane's messages are already in the
        # worker's run file and the barrier wants only its summary.
        outbox = None if spill or transfers_state else worker.outbox
        if spill:
            state = worker.collect_spill_state()
        if transfers_state:
            payloads = [
                listener.collect_step_payload(worker_id)
                for listener in self._payload_listeners
            ]
            if not spill:
                # Pack outbox + the computed vertices' values and halt
                # flags (+ adjacency only when mutated) into one flat
                # frame of bytes that rides the outcome; nothing
                # per-message is pickled.
                frame = build_frame(
                    worker, self._run_state.interner, superstep
                )
        return StepOutcome(
            worker_id=worker_id,
            elapsed=timer.elapsed,
            outbox=outbox,
            agg_partials=buffer.partials,
            add_vertex_requests=worker.add_vertex_requests,
            remove_vertex_requests=worker.remove_vertex_requests,
            messages_sent=worker.messages_sent,
            bytes_sent=worker.bytes_sent,
            compute_calls=worker.compute_calls,
            compute_errors=worker.compute_errors,
            error=error,
            state=state,
            payloads=payloads,
            frame=frame,
        )

    def _step_batch(self, superstep, incoming, num_vertices, num_edges,
                    faults):
        """This superstep's steps, one per worker, for the backend.

        On the in-memory plane the batch is resumable: a pool child that
        ran the previous superstep runs this one from a request
        (:meth:`_step_requests`) instead of being forked again. The spill
        plane's children write the fork-shared spill area, so its batch
        is not, and the backend forks it afresh.
        """
        steps = [
            functools.partial(
                self._step, worker_id, superstep, incoming, num_vertices,
                num_edges, faults[worker_id],
            )
            for worker_id in range(self._num_workers)
        ]
        if self._store is not None:
            return steps
        return StepBatch(
            steps,
            requests=lambda: self._step_requests(
                superstep, incoming, num_vertices, num_edges, faults
            ),
            resume=self._resume_step,
        )

    def _step_requests(self, superstep, incoming, num_vertices, num_edges,
                       faults):
        """One picklable request per worker: what a pool child needs to
        run this superstep on top of the previous one. Counts the packed
        inbox bytes in ``_shipped_bytes``."""
        point, bcast = pack_inboxes(
            incoming, self._run_state.interner, self._owner_ids,
            self._num_workers,
        )
        self._shipped_bytes += sum(map(len, point)) + len(bcast) * len(point)
        aggregators = self.aggregators.visible_snapshot()
        states = [listener.step_state() for listener in self._state_listeners]
        return [
            (worker_id, superstep, num_vertices, num_edges, aggregators,
             faults[worker_id], states, point[worker_id], bcast)
            for worker_id in range(self._num_workers)
        ]

    def _resume_step(self, request):
        """Run a superstep in a pool child from the parent's request."""
        (worker_id, superstep, num_vertices, num_edges, aggregators, fault,
         states, point, bcast) = request
        self.aggregators.restore_snapshot(aggregators)
        for listener, state in zip(self._state_listeners, states):
            listener.load_step_state(state)
        incoming = unpack_inboxes(self._run_state, point, bcast)
        return self._step(
            worker_id, superstep, incoming, num_vertices, num_edges, fault
        )

    def _owner_ids(self, vertex_ids):
        """The ids of the workers that compute ``vertex_ids``."""
        return map(
            self._partition_owners.__getitem__,
            map(self._locations.__getitem__, vertex_ids),
        )

    # -- the BSP loop -------------------------------------------------------

    def run(self):
        """Execute the computation to completion and return a result."""
        if self._ran:
            raise EngineStateError("engine instances are single-use; build a new one")
        self._ran = True
        try:
            return self._run()
        finally:
            self._backend.close()

    def _run(self):
        self._load()
        self._notify("on_start", self)
        # Listeners that buffer per-worker data in a step's address space
        # (``collect_step_payload``), and those whose per-superstep state
        # a pool child must be sent (``step_state``).
        self._payload_listeners = [
            listener
            for listener in self._listeners
            if hasattr(listener, "collect_step_payload")
        ]
        self._state_listeners = [
            listener
            for listener in self._listeners
            if hasattr(listener, "step_state")
        ]

        metrics = RunMetrics()
        compute_errors = []
        incoming = MessageStore()
        halt_reason = halting.MAX_SUPERSTEPS
        supersteps_run = 0
        injector = self._fault_injector
        if injector is not None:
            injector.bind(self._seed, self._num_workers)
        # Highest superstep that has completed its barrier; any execution
        # at or below it is a post-rollback re-run (marked in metrics).
        max_completed = -1

        if self._checkpoint_config is not None:
            write_checkpoint(
                self._checkpoint_config, 0, self.workers, self.aggregators, incoming
            )

        with Timer() as total_timer:
            superstep = 0
            while superstep < self._max_supersteps:
                if injector is not None:
                    injector.begin_superstep(superstep)
                failed_worker = (
                    injector.barrier_crash(superstep)
                    if injector is not None
                    else None
                )
                if failed_worker is not None:
                    if self._checkpoint_config is None:
                        raise WorkerFailure(failed_worker, superstep)
                    superstep, incoming = self._rollback(superstep, metrics)
                    continue
                num_vertices = self.num_vertices
                num_edges = self.num_edges
                master_ctx = MasterContext(
                    superstep, num_vertices, num_edges, self.aggregators
                )
                if self._master is not None:
                    run_master(self._master, master_ctx)
                self._notify("on_master_computed", superstep, master_ctx)
                if master_ctx.halted:
                    halt_reason = halting.MASTER_HALT
                    break
                if self._run_state is not None:
                    # Re-intern and re-rank if a prior barrier changed the
                    # topology — before steps are packaged, so forked
                    # children inherit it.
                    self._run_state.ensure_index(self.workers, self._locations)

                steps = self._step_batch(
                    superstep, incoming, num_vertices, num_edges,
                    [
                        injector.step_fault(superstep, worker_id)
                        if injector is not None
                        else None
                        for worker_id in range(self._num_workers)
                    ],
                )
                self._shipped_bytes = 0
                try:
                    if self._store is not None:
                        # A crashed earlier attempt may have left torn run
                        # chunks for this delivery superstep; re-execution
                        # must start from a clean directory. Freeze the
                        # store while steps run in other address spaces so
                        # forked children can never write the fork-shared
                        # spill area.
                        self._store.clear_runs(superstep + 1)
                        self._store.frozen = self._transfers_state
                    try:
                        with Timer() as wall_timer:
                            outcomes = self._backend.run_superstep(steps)
                    finally:
                        if self._store is not None:
                            self._store.frozen = False
                    self._raise_if_step_failed(superstep, outcomes)

                    superstep_metrics = SuperstepMetrics(
                        superstep, recovered=superstep <= max_completed
                    )
                    superstep_metrics.wall_seconds = wall_timer.elapsed
                    superstep_metrics.transport_bytes += self._shipped_bytes
                    for outcome in outcomes:
                        superstep_metrics.compute_seconds += outcome.elapsed
                        superstep_metrics.compute_calls += outcome.compute_calls
                        superstep_metrics.active_vertices += outcome.compute_calls
                        superstep_metrics.messages_sent += outcome.messages_sent
                        superstep_metrics.bytes_sent += outcome.bytes_sent
                        superstep_metrics.add_worker_row(
                            outcome.worker_id,
                            outcome.elapsed,
                            outcome.compute_calls,
                            outcome.messages_sent,
                            outcome.bytes_sent,
                        )
                        compute_errors.extend(outcome.compute_errors)

                    outgoing = self._barrier(outcomes, superstep_metrics)
                    superstep_metrics.peak_memory_bytes = sample_peak_memory()
                    metrics.add_superstep(superstep_metrics)
                    self._notify("on_superstep_end", superstep, superstep_metrics)
                    supersteps_run = max(supersteps_run, superstep + 1)
                    max_completed = max(max_completed, superstep)

                    config = self._checkpoint_config
                    if config is not None and (superstep + 1) % config.every_n_supersteps == 0:
                        path = write_checkpoint(
                            config, superstep + 1, self.workers,
                            self.aggregators, outgoing,
                        )
                        if injector is not None:
                            injector.after_checkpoint(
                                config.filesystem, path, superstep + 1
                            )
                except InjectedFault:
                    # A planted machine failure escaped the superstep (a
                    # mid-step worker crash or a crash during a write).
                    # With checkpointing on, this is exactly the failure
                    # Pregel recovery exists for; without it, the job
                    # fails the way a real cluster loss would.
                    if self._checkpoint_config is None:
                        raise
                    superstep, incoming = self._rollback(superstep, metrics)
                    continue

                if halting.should_stop_after_barrier(self.workers, outgoing):
                    halt_reason = halting.CONVERGED
                    break
                incoming = outgoing
                superstep += 1
        metrics.total_seconds = total_timer.elapsed

        result = PregelResult(
            vertex_values=self._collect_values(),
            num_supersteps=supersteps_run,
            halt_reason=halt_reason,
            metrics=metrics,
            aggregator_values=self.aggregators.visible_snapshot(),
            compute_errors=compute_errors,
            recoveries=metrics.rollback_count,
        )
        self._notify("on_finish", result)
        return result

    def _raise_if_step_failed(self, superstep, outcomes):
        """Propagate a fatal step error deterministically.

        The process backend forks every step before any reports, so several
        outcomes may carry errors; the lowest worker id wins regardless of
        completion order. Listeners get ``on_superstep_aborted`` first so
        Graft can persist exactly the captures a serial run would have
        produced (workers after the failing one never ran serially).
        """
        failed = None
        for outcome in outcomes:
            if outcome.error is not None:
                failed = outcome
                break
        if failed is None:
            return
        self._notify("on_superstep_aborted", superstep, failed.worker_id)
        raise failed.error

    def _rollback(self, failed_superstep, metrics):
        """Recover from a failure at ``failed_superstep``; record the event.

        Restores state via :meth:`_recover`, accounts the rollback in the
        run metrics, and tells listeners (``on_rollback(failed, restored)``)
        so Graft can discard capture state belonging to the torn superstep
        and repair its trace files before re-execution appends to them.
        """
        restored_superstep, incoming, skipped = self._recover(failed_superstep)
        metrics.rollback_count += 1
        metrics.checkpoints_skipped += len(skipped)
        metrics.recovery_events.append({
            "failed_superstep": failed_superstep,
            "restored_superstep": restored_superstep,
            "skipped_checkpoints": skipped,
        })
        self._notify("on_rollback", failed_superstep, restored_superstep)
        return restored_superstep, incoming

    def _recover(self, failed_superstep):
        """Roll every worker back to the newest usable checkpoint.

        Candidates are tried newest-first; one that fails verification
        (torn write, injected corruption) is skipped and the next-older
        one is tried, so a single bad checkpoint file costs extra re-run
        supersteps rather than the whole job.
        """
        config = self._checkpoint_config
        skipped = []
        for path in checkpoint_candidates(
            config, before_superstep=failed_superstep
        ):
            try:
                checkpoint = read_checkpoint(config, path)
            except (CheckpointError, SimFsError) as exc:
                skipped.append({"path": path, "error": str(exc)})
                continue
            restore_workers(
                self.workers, checkpoint, self._partitioner, self._locations
            )
            self.aggregators.restore_snapshot(checkpoint["aggregators"])
            self._backend.discard()
            if self._run_state is not None:
                # Restored adjacency may predate the current reverse
                # index; rebuild before the next columnar superstep.
                self._run_state.invalidate()
            return checkpoint["superstep"], checkpoint["incoming"], skipped
        raise PregelError(
            "no usable checkpoint to recover from"
            + (f" (skipped {len(skipped)} corrupt candidate(s))" if skipped else "")
        )

    def _barrier(self, outcomes, superstep_metrics):
        """Reduce step outcomes in worker-id order.

        Every reduction here is a deterministic fold over ``outcomes``
        (already ordered by worker id): absorb listener payloads and
        transferred state, route messages, combine, apply mutations, fold
        aggregator partials. No step result is consumed in completion
        order, which is what makes the barrier backend-independent.
        """
        if self._transfers_state:
            for outcome in outcomes:
                for listener, payload in zip(
                    self._payload_listeners, outcome.payloads
                ):
                    listener.absorb_step_payload(outcome.worker_id, payload)
        if self._store is not None:
            outgoing = self._spill_barrier(outcomes, superstep_metrics)
        else:
            outgoing = self._memory_barrier(outcomes, superstep_metrics)
        for outcome in outcomes:
            self.aggregators.merge_partials(outcome.agg_partials)
        self.aggregators.barrier()
        return outgoing

    def _memory_barrier(self, outcomes, superstep_metrics):
        """The in-memory plane: absorb frames, keep messages packed.

        Messages stay as packed columns in a :class:`ColumnarMessageStore`
        unless this barrier must permute, combine or drop inboxes or mutate
        the graph, in which case the store is settled into ``(sources,
        values)`` columns first (see "Settling" in ``docs/columnar.md``).
        """
        run_state = self._run_state
        interned = len(run_state.interner)
        store = ColumnarMessageStore(run_state)
        if self._transfers_state:
            frames = [
                parse_frame(outcome.frame, run_state.interner)
                for outcome in outcomes
            ]
            any_dirty = any(frame.edges_dirty for frame in frames)
            if any_dirty and any(frame.bcast for frame in frames):
                # The store's compact broadcasts expand against the
                # adjacency they were emitted under: build the index from
                # it before the edited edges replace it.
                run_state.index.build()
            for outcome, frame in zip(outcomes, frames):
                superstep_metrics.transport_bytes += len(outcome.frame)
                superstep_metrics.transport_batches += frame.batches
                superstep_metrics.pickle_fallbacks += frame.pickle_fallbacks
                # The frame carries the computed vertices only; the
                # parent's dicts stay the authority for everything else.
                worker = self.workers[outcome.worker_id]
                worker.values.update(frame.values)
                worker.halted.update(frame.halted)
                if frame.edges is not None:
                    worker.replace_edges(frame.edges)
                store.absorb_frame(frame)
        else:
            any_dirty = False
            for outcome in outcomes:
                outbox = outcome.outbox
                superstep_metrics.transport_batches += outbox.batch_count()
                any_dirty |= self.workers[outcome.worker_id].edges_dirty
                store.absorb_outbox(outcome.worker_id, outbox)
        mutating = any(
            outcome.add_vertex_requests or outcome.remove_vertex_requests
            for outcome in outcomes
        )
        if any_dirty or mutating:
            # The reverse index is stale for the *next* superstep; this
            # superstep's store pinned the one its compact broadcasts
            # (from clean workers only) were emitted under. Pool children
            # hold the old topology: the next superstep forks anew.
            run_state.invalidate()
            self._backend.discard()
        schedule = self._delivery_schedule
        combiner = self._combiner
        # Settle in the parent, so a permutation is a pure function of
        # (seed, schedule, superstep, target) whatever backend ran the
        # workers; the messages are consumed one superstep later. With
        # nothing left but Giraph's default resolver creating targets —
        # new vertices have no edges — messages stay packed.
        outgoing = (
            store.settled(superstep_metrics.superstep + 1, schedule, combiner)
            if schedule is not None or combiner is not None or mutating or (
                self._on_message_to_missing == "drop"
                and store.missing_targets(self._locations)
            )
            else store
        )
        superstep_metrics.inboxes_permuted = outgoing.permuted
        superstep_metrics.messages_combined = outgoing.eliminated
        self._apply_mutations(outcomes, outgoing)
        if len(run_state.interner) != interned:
            # Children address ids by interner index: they must inherit
            # the grown table.
            self._backend.discard()
        return outgoing

    def _spill_barrier(self, outcomes, superstep_metrics):
        """The out-of-core plane: absorb pages, hand off runs.

        Same reductions in the same worker-id order as the in-memory
        barrier. Messages were already cut into per-partition run
        sections during the steps (canonical order is restored when a
        partition is loaded, see :mod:`repro.pregel.store.runs`);
        permuting and combining happen there too, lazily, so the
        permutations and eliminations reported here were accounted by
        *this* superstep's loads.
        """
        store = self._store
        superstep = superstep_metrics.superstep
        superstep_metrics.transport = "spill"
        routed = 0
        suspect_counts = {}
        for outcome in outcomes:
            shipped = outcome.state
            # Process backend only: the child's dirty pages and run file.
            for partition_id in sorted(shipped["pages"]):
                store.replace_partition(
                    partition_id, *shipped["pages"][partition_id]
                )
            if shipped["run"] is not None:
                store.install_run_file(*shipped["run"])
            routed += outcome.messages_sent
            for target, count in shipped["suspect_counts"].items():
                suspect_counts[target] = suspect_counts.get(target, 0) + count
            superstep_metrics.pickle_fallbacks += shipped["pickle_fallbacks"]
            superstep_metrics.messages_combined += shipped["messages_combined"]
            superstep_metrics.inboxes_permuted += shipped["inboxes_permuted"]
        outgoing = store.message_store(
            superstep + 1, total_messages=routed, suspect_counts=suspect_counts,
            combiner=self._combiner, schedule=self._delivery_schedule,
        )
        self._apply_mutations(outcomes, outgoing)
        # This superstep's inbox runs are fully consumed; the next
        # rollback restores messages from a checkpoint, never from here.
        store.clear_runs(superstep)
        counters = store.counters()
        before = self._store_counters or counters
        delta = {name: counters[name] - before[name] for name in counters}
        superstep_metrics.store_bytes_spilled = delta["bytes_spilled"]
        superstep_metrics.store_bytes_loaded = delta["bytes_loaded"]
        superstep_metrics.page_cache_hits = delta["page_hits"]
        superstep_metrics.page_cache_misses = delta["page_misses"]
        self._store_counters = counters
        superstep_metrics.partitions_resident = store.resident_partitions()
        return outgoing

    def _apply_mutations(self, outcomes, outgoing):
        """Removals, then additions, then message-driven vertex creation."""
        removed = self._apply_vertex_requests(outcomes)
        if self._store is not None:
            # The run outboxes counted emit-time suspects; a vertex removed
            # at this barrier passed that check, so the run store counts
            # the messages still in flight to it.
            outgoing.suspect_removed(
                located for located in removed
                if located[0] not in self._locations
            )
        # ``missing_targets`` sees the post-mutation graph on either plane.
        # A store still packed never has inboxes to drop (the barrier
        # settles first): only settled and run stores ``drop_inbox``.
        self._resolve_missing(
            outgoing.missing_targets(self._locations),
            lambda target: outgoing.drop_inbox(target),
        )

    def _apply_vertex_requests(self, outcomes):
        """Explicit removals, then additions; returns the removed
        ``(vertex id, partition id)`` pairs."""
        removed = []
        for outcome in outcomes:
            for vertex_id in outcome.remove_vertex_requests:
                if vertex_id in self._locations:
                    # The owner looks the partition up, so it goes first.
                    self._owner(vertex_id).remove_vertex(vertex_id)
                    removed.append((vertex_id, self._locations.pop(vertex_id)))
        for outcome in outcomes:
            for vertex_id, value in outcome.add_vertex_requests:
                if vertex_id not in self._locations:
                    self._create_vertex(vertex_id, value)
        return removed

    def _resolve_missing(self, missing, drop):
        """Settle messages addressed to vertices that do not exist.

        Giraph's default vertex resolver creates the vertex (``"create"``);
        the other standard behaviour discards the messages via ``drop``.
        Repr-sorted so creation order — and therefore compute order on the
        owning worker — is independent of partitioning and of the plane.
        """
        missing = sorted(missing, key=repr)
        if self._on_message_to_missing == "create":
            for target in missing:
                self._create_vertex(target, resolver_default=True)
        else:
            for target in missing:
                drop(target)

    def _create_vertex(self, vertex_id, value=None, resolver_default=False):
        """Place a new vertex; ``resolver_default`` asks its worker's
        computation for the value (Giraph's default vertex resolver)."""
        partition_id = self._partitioner.partition_for(vertex_id)
        worker_index = self._partitioner.worker_of_partition(partition_id)
        if resolver_default:
            value = self._computations[worker_index].default_vertex_value(
                vertex_id
            )
        self._locations[vertex_id] = partition_id
        self.workers[worker_index].load_vertex(vertex_id, value, {})
        self._backend.discard()
        if self._run_state is not None:
            self._run_state.note_vertex_added(vertex_id)

    def _collect_values(self):
        if self._store is not None:
            return SpilledResultValues(self._store, dict(self._locations))
        values = {}
        for worker in self.workers:
            values.update(worker.vertex_values())
        return values


def run_computation(computation_factory, graph, **engine_kwargs):
    """One-shot convenience: build an engine, run it, return the result.

    >>> from repro.pregel import Computation
    >>> from repro.graph import GraphBuilder
    >>> class Noop(Computation):
    ...     def compute(self, ctx, messages):
    ...         ctx.vote_to_halt()
    >>> g = GraphBuilder().vertices(1, 2).build()
    >>> run_computation(Noop, g).num_supersteps
    1
    """
    return PregelEngine(computation_factory, graph, **engine_kwargs).run()
