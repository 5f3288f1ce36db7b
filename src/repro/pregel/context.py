"""The per-vertex compute context: everything Giraph exposes to a vertex.

One :class:`ComputeContext` is created for each ``compute()`` call. It
exposes exactly the five pieces of data the paper lists (Section 2) —

1. the vertex id,
2. its outgoing edges,
3. its incoming messages,
4. the aggregators, and
5. the default global data (superstep number, total vertex and edge counts)

— plus ``vote_to_halt()``, Pregel graph-mutation requests, and a seeded
per-vertex RNG (randomness is derived from ``(run_seed, vertex_id,
superstep)``, so it is part of the reproducible context rather than hidden
state; this is what lets Graft replay the paper's random-walk scenario
exactly).

The context is deliberately constructible from plain data plus a small
``services`` object, so the Graft Context Reproducer can rebuild one from a
trace record without any engine or cluster — the Python analogue of the
paper's Mockito mocks.
"""

from typing import NamedTuple

from repro.common.errors import PregelError
from repro.common.rng import derive_rng


class _BroadcastSend(NamedTuple):
    """Compact sent-message record for one broadcast fan-out.

    The fast broadcast path must not allocate one pair per neighbor just
    for bookkeeping; it notes the value and a snapshot of the targets
    instead, and :meth:`ComputeContext.sent_messages` expands it only when
    somebody (Graft's capture, the reproducer) actually reads the pairs.
    """

    value: object
    targets: tuple


class ComputeServices:
    """What a context needs from its host (worker, or replay harness)."""

    def aggregated_value(self, name):
        """Merged aggregator value visible this superstep."""
        raise NotImplementedError

    def aggregate(self, name, contribution):
        """Fold a contribution into an aggregator."""
        raise NotImplementedError

    def emit(self, source, target, value):
        """Accept one outgoing message."""
        raise NotImplementedError

    def emit_broadcast(self, source, targets, value):
        """Accept one value sent from ``source`` to every id in ``targets``.

        Hosts may override this to route the whole fan-out as a single
        compact record (the worker's broadcast fast path); the default
        keeps simple hosts — like the Context Reproducer's replay services
        — working with only ``emit`` implemented.
        """
        for target in targets:
            self.emit(source, target, value)

    def request_add_vertex(self, vertex_id, value):
        """Request vertex creation at the coming barrier."""
        raise NotImplementedError

    def request_remove_vertex(self, vertex_id):
        """Request vertex removal at the coming barrier."""
        raise NotImplementedError

    def note_edges_mutated(self, delta=0):
        """Record an in-place adjacency edit (columnar-index taint),
        called just before the edit; ``delta`` is what it will change
        the vertex's out-degree by.

        Default is a no-op so replay hosts stay trivial; workers override
        it to taint broadcast compaction for the rest of the superstep
        and to keep their edge count.
        """


class ComputeContext:
    """The object handed to ``Computation.compute()``.

    Attributes populated by the call are inspected afterwards by the worker
    (and by Graft's instrumentation): ``sent_messages()``, ``halted``, and
    the possibly-updated ``value``. ``incoming`` is any iterable of
    ``(source, value)`` pairs — a trace record's own ``incoming`` list, or
    a store's lazy :class:`~repro.pregel.messages.IncomingView`.
    """

    def __init__(
        self,
        vertex_id,
        value,
        edges,
        incoming,
        superstep,
        num_vertices,
        num_edges,
        services,
        run_seed=0,
    ):
        self.vertex_id = vertex_id
        self._value = value
        self._edges = edges
        self._incoming = incoming
        self.superstep = superstep
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self._services = services
        self._run_seed = run_seed
        self._rng = None
        self.halted = False
        self._sends = []

    # -- vertex value ---------------------------------------------------

    @property
    def value(self):
        """Current vertex value."""
        return self._value

    def set_value(self, new_value):
        """Update the vertex value (Giraph's ``vertex.setValue``)."""
        self._value = new_value

    # -- edges ------------------------------------------------------------

    def out_edges(self):
        """Iterate ``(target_id, edge_value)`` pairs."""
        return iter(self._edges.items())

    def neighbor_ids(self):
        """Iterate target ids of outgoing edges."""
        return iter(self._edges)

    @property
    def out_degree(self):
        return len(self._edges)

    def has_edge(self, target):
        return target in self._edges

    def edge_value(self, target):
        if target not in self._edges:
            raise PregelError(
                f"vertex {self.vertex_id!r} has no edge to {target!r}"
            )
        return self._edges[target]

    def set_edge_value(self, target, value):
        """Mutate a local edge value, effective immediately (Pregel rules)."""
        if target not in self._edges:
            raise PregelError(
                f"vertex {self.vertex_id!r} has no edge to {target!r}"
            )
        self._services.note_edges_mutated()
        self._edges[target] = value

    def add_edge(self, target, value=None):
        """Add a local outgoing edge, effective immediately."""
        self._services.note_edges_mutated(0 if target in self._edges else 1)
        self._edges[target] = value

    def remove_edge(self, target):
        """Remove a local outgoing edge, effective immediately."""
        self._services.note_edges_mutated(-1 if target in self._edges else 0)
        self._edges.pop(target, None)

    # -- messages -----------------------------------------------------------

    def incoming_messages(self):
        """Incoming messages as ``(source, value)`` pairs, in delivery
        order (debugger-facing view; ``compute()`` gets the values)."""
        return list(self._incoming)

    def send_log(self):
        """The sends so far, one entry per send call, in send order: a plain
        ``(target, value)`` tuple for a point send, a ``(value, targets)``
        named tuple for a broadcast (``targets`` in edge order). Read-only."""
        return self._sends

    def sent_messages(self):
        """``(target, value)`` for every message sent so far, in send order.

        The expansion of :meth:`send_log` — one pair per broadcast target,
        a new list on every call — so only the readers that need pairs pay
        for them: Graft's capture, once per *captured* vertex, and the
        reproducer's fidelity check.
        """
        sent = []
        for entry in self._sends:
            if entry.__class__ is _BroadcastSend:
                value = entry.value
                sent.extend([(target, value) for target in entry.targets])
            else:
                sent.append(entry)
        return sent

    def send_message(self, target, value):
        """Send a message for delivery in the next superstep."""
        self._sends.append((target, value))
        self._services.emit(self.vertex_id, target, value)

    def send_message_to_all_neighbors(self, value):
        """Send the same message along every outgoing edge.

        The fan-out is handed to the services as ``(source, targets,
        value)`` so the host can route one compact record instead of
        one message per neighbor.
        """
        targets = tuple(self._edges)
        self._sends.append(_BroadcastSend(value, targets))
        self._services.emit_broadcast(self.vertex_id, targets, value)

    # -- aggregators ----------------------------------------------------------

    def aggregated_value(self, name):
        """Read an aggregator's merged value from the previous superstep."""
        return self._services.aggregated_value(name)

    def aggregate(self, name, contribution):
        """Contribute to an aggregator, visible next superstep."""
        self._services.aggregate(name, contribution)

    # -- halting & mutations --------------------------------------------------

    def vote_to_halt(self):
        """Declare this vertex inactive (re-activated by incoming messages)."""
        self.halted = True

    def add_vertex_request(self, vertex_id, value=None):
        """Request creation of a vertex at the coming barrier."""
        self._services.request_add_vertex(vertex_id, value)

    def remove_vertex_request(self, vertex_id):
        """Request removal of a vertex at the coming barrier."""
        self._services.request_remove_vertex(vertex_id)

    # -- randomness -------------------------------------------------------

    @property
    def rng(self):
        """Per-(vertex, superstep) seeded RNG; identical on replay."""
        if self._rng is None:
            self._rng = derive_rng(
                self._run_seed, "vertex", self.vertex_id, self.superstep
            )
        return self._rng

    def random(self):
        """Convenience for ``ctx.rng.random()``."""
        return self.rng.random()

    # -- snapshots (used by Graft capture) ---------------------------------

    def edges_snapshot(self):
        """Copy of the current outgoing-edge map."""
        return dict(self._edges)
