"""Message envelopes and per-superstep message stores.

Messages internally carry their source vertex id: Graft's message-value
constraints are defined over ``(message, source_id, destination_id,
superstep)`` and the GUI displays the incoming/outgoing messages of a
captured vertex with their endpoints. The plain Giraph ``compute()`` API
still sees only message *values*; envelopes surface through
``ctx.message_envelopes()`` and the debugger.

Where envelopes still exist
---------------------------
Workers emit into packed outboxes and the barrier keeps messages packed
(:mod:`repro.pregel.columnar`); a :class:`MessageStore` is the
*materialized* form — what a combine produces, what a checkpoint
restores, and what a barrier that permutes, mutates or drops inboxes
works on. Its inboxes are in canonical order: stably sorted by the repr of
the source id, which makes inbox order — and therefore combiner folds,
``sum(messages)`` float reductions, and Graft's captured ``incoming``
lists — independent of how vertices were partitioned across workers.
:meth:`~MessageStore.merge_grouped` + :meth:`~MessageStore.canonicalize`
build that order from per-worker ``{target: [envelopes]}`` batches the
slow, obvious way; the packed store's tests use them as the reference.
"""

from typing import NamedTuple


class _BroadcastTargetType:
    """Placeholder target of a broadcast-derived envelope.

    A broadcast (``send_message_to_all_neighbors``) is one compact record
    expanded on the receiving side; the envelopes materialized from it
    carry this placeholder, and the real target is the inbox key. A
    dedicated singleton (rather than None) keeps the placeholder
    distinguishable from a user vertex id, and ``__reduce__`` preserves
    identity across pickling.
    """

    __slots__ = ()

    def __repr__(self):
        return "<broadcast>"

    def __reduce__(self):
        return (_broadcast_target, ())


BROADCAST_TARGET = _BroadcastTargetType()


def _broadcast_target():
    return BROADCAST_TARGET


class Envelope(NamedTuple):
    """One message in flight: value plus endpoints.

    ``source`` is None for combined messages (per-source identity is folded
    away) and for engine-synthesized messages. ``target`` is
    :data:`BROADCAST_TARGET` for envelopes materialized from a broadcast
    fan-out — there the authoritative target is the inbox key the envelope
    is filed under, never the field.

    A ``NamedTuple`` rather than a dataclass: envelope construction is the
    single hottest allocation in the engine, and tuple ``__new__`` avoids
    the per-field ``object.__setattr__`` cost of a frozen dataclass.
    """

    source: object
    target: object
    value: object


def _canonical_source_key(envelope):
    """Partition-independent sort key for inbox ordering."""
    return repr(envelope.source)


class MessageStore:
    """Messages grouped by destination vertex for one superstep."""

    def __init__(self):
        self._by_target = {}
        self.total_messages = 0

    def deliver(self, envelope):
        """Add one envelope to its destination's inbox."""
        self._by_target.setdefault(envelope.target, []).append(envelope)
        self.total_messages += 1

    def deliver_all(self, envelopes):
        for envelope in envelopes:
            self.deliver(envelope)

    def merge_grouped(self, grouped):
        """Merge one worker's ``{target: [envelopes]}`` batches in one pass.

        The batch list is adopted directly when the target has no inbox
        yet; callers hand over ownership of the batch lists. Returns the
        number of envelopes merged.
        """
        by_target = self._by_target
        merged = 0
        for target, batch in grouped.items():
            existing = by_target.get(target)
            if existing is None:
                by_target[target] = batch
            else:
                existing.extend(batch)
            merged += len(batch)
        self.total_messages += merged
        return merged

    def canonicalize(self):
        """Stably sort each inbox into partition-independent order.

        After the per-worker merge, inbox order reflects which worker sent
        first — an artifact of the partitioning. Sorting by the source id's
        repr (stable, so one source's messages keep their emission order)
        makes delivery order a pure function of the computation, identical
        across execution backends and worker counts.
        """
        for envelopes in self._by_target.values():
            if len(envelopes) > 1:
                envelopes.sort(key=_canonical_source_key)

    def inbox(self, vertex_id):
        """The envelopes destined for ``vertex_id`` (possibly empty)."""
        return self._by_target.get(vertex_id, [])

    def inbox_values(self, vertex_id):
        """Message values for ``vertex_id`` in delivery order.

        Part of the store protocol shared with
        :class:`~repro.pregel.columnar.ColumnarMessageStore`, where the
        values come straight off the packed column.
        """
        batch = self._by_target.get(vertex_id)
        if batch is None:
            return []
        return [envelope.value for envelope in batch]

    def incoming_view(self, vertex_id):
        """What ``ComputeContext`` receives as ``incoming`` (here: the list)."""
        return self._by_target.get(vertex_id, [])

    def has_inbox(self, vertex_id):
        """True when at least one message is destined for ``vertex_id``."""
        return vertex_id in self._by_target

    def load_partition(self, partition_id):
        """Partition-at-a-time read protocol: the in-memory store holds
        every partition's inbox at once, so the "loaded view" is the store
        itself. The spill plane's store returns a per-partition view here.
        """
        return self

    #: Combiner eliminations and inbox permutations attributable to a
    #: loaded view (spill plane); the in-memory store combines and permutes
    #: at the producing barrier and reports them there, so views report zero.
    eliminated = 0
    permuted = 0

    def iter_checkpoint_messages(self):
        """``(source, target, value)`` for every in-flight message, in
        per-target delivery order — the order a checkpoint must preserve."""
        for target, envelopes in self._by_target.items():
            for envelope in envelopes:
                yield envelope.source, target, envelope.value

    def targets(self):
        """Vertex ids that have at least one incoming message."""
        return self._by_target.keys()

    def missing_targets(self, locations):
        """Targets with messages but no vertex (the resolver's work list)."""
        return [
            target for target in self._by_target if target not in locations
        ]

    def has_messages(self):
        return bool(self._by_target)

    def drop_inbox(self, vertex_id):
        """Discard all messages destined for one vertex (resolver 'drop')."""
        dropped = self._by_target.pop(vertex_id, [])
        self.total_messages -= len(dropped)
        return len(dropped)

    def combine(self, combiner):
        """Fold each inbox with ``combiner``, in delivery order.

        Returns the number of messages eliminated. Combined envelopes lose
        their source id (set to None), as on a real cluster where combining
        happens before the network.
        """
        eliminated = 0
        for target, envelopes in self._by_target.items():
            if len(envelopes) <= 1:
                continue
            folded = envelopes[0].value
            for envelope in envelopes[1:]:
                folded = combiner.combine(folded, envelope.value)
            eliminated += len(envelopes) - 1
            self._by_target[target] = [
                Envelope(source=None, target=target, value=folded)
            ]
        self.total_messages -= eliminated
        return eliminated
