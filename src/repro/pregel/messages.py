"""The settled per-superstep message store, values first.

A message is a ``(source, value)`` pair filed under its target — the
shape Graft's message-value constraints are defined over (``(message,
source_id, destination_id, superstep)``), the shape a captured context's
``incoming`` list has on disk, and the shape the Context Reproducer
rebuilds a context from. The plain Giraph ``compute()`` API sees only
the values; the pairs surface through ``ctx.incoming_messages()`` and
the debugger.

Workers emit into packed outboxes and the in-memory barrier keeps
messages packed (:mod:`repro.pregel.columnar`); the spill plane keeps
them in run files (:mod:`repro.pregel.store.runs`). A
:class:`MessageStore` is the *settled* form both planes share: what a
barrier that permutes, combines, mutates or drops inboxes works on, what
one loaded spill partition is served from, and what a checkpoint
restores. Its inboxes are ``{target: (sources, values)}`` column pairs
in delivery order, and :meth:`MessageStore.settle` is the one place that
says what a delivery schedule and a combiner do to them.
"""


class IncomingView:
    """Lazy per-vertex inbox view handed to :class:`ComputeContext`.

    Compute itself receives raw values (``inbox_values``); the
    ``(source, value)`` pairs are built only if a debugger actually
    iterates this view (``ctx.incoming_messages()``), so a plain run
    never pays for them.
    """

    __slots__ = ("_store", "_target")

    def __init__(self, store, target):
        self._store = store
        self._target = target

    def __iter__(self):
        return iter(self._store.inbox(self._target))

    def __len__(self):
        return len(self._store.inbox_values(self._target))

    def __bool__(self):
        return bool(self._store.inbox_values(self._target))


class MessageStore:
    """Messages grouped by destination vertex for one superstep.

    Implements the message-store read protocol (``inbox_values`` /
    ``incoming_view`` / ``has_inbox`` / ``inbox`` / ``load_partition``)
    the worker's compute loop runs against on either plane.
    """

    def __init__(self):
        # target -> (sources, values): parallel lists in delivery order.
        self._by_target = {}
        self.total_messages = 0
        #: What :meth:`settle` did: messages folded away by the combiner
        #: and inboxes whose order the delivery schedule changed.
        self.eliminated = 0
        self.permuted = 0

    def deliver(self, source, target, value):
        """Append one message to its destination's inbox."""
        self.deliver_columns((source,), (target,), (value,))

    def deliver_columns(self, sources, targets, values, order=None):
        """Append parallel message columns, grouping them by target.

        Each inbox receives its messages in ``order`` (positions into the
        columns; column order when omitted), so an order that is canonical
        leaves every inbox canonical.
        """
        by_target = self._by_target
        if order is None:
            order = range(len(values))
        for i in order:
            target = targets[i]
            inbox = by_target.get(target)
            if inbox is None:
                by_target[target] = ([sources[i]], [values[i]])
            else:
                inbox[0].append(sources[i])
                inbox[1].append(values[i])
        self.total_messages += len(order)

    def deliver_inboxes(self, inboxes):
        """File whole ``{target: (sources, values)}`` inboxes, each already
        in delivery order, for targets that have none yet. The lists are
        kept, not copied: :meth:`settle` replaces an inbox rather than
        reordering it in place."""
        self._by_target.update(inboxes)
        self.total_messages += sum(len(values) for _, values in inboxes.values())

    def settle(self, superstep, schedule, combiner):
        """Apply the delivery schedule, then the combiner, to every inbox.

        The one statement of what both planes do to a canonical inbox
        before ``compute()`` reads it at ``superstep``: a bound
        ``schedule`` (graft-san) permutes each multi-message inbox —
        over an index vector, so sources and values move together — and
        then ``combiner`` folds it to a single message whose source is
        None, as on a real cluster where combining happens before the
        network. Single-message inboxes keep their source. Counts what it
        did in ``permuted`` / ``eliminated`` and returns the store.
        """
        if schedule is None and combiner is None:
            return self
        by_target = self._by_target
        for target, (sources, values) in by_target.items():
            count = len(values)
            if count < 2:
                continue
            if schedule is not None:
                order = list(range(count))
                if schedule.permute_inbox(target, superstep, order):
                    sources = [sources[i] for i in order]
                    values = [values[i] for i in order]
                    by_target[target] = (sources, values)
                    self.permuted += 1
            if combiner is not None:
                by_target[target] = ([None], [combiner.fold_column(values)])
                self.eliminated += count - 1
                self.total_messages -= count - 1
        return self

    # -- read protocol ---------------------------------------------------

    def inbox_values(self, vertex_id):
        """Message values for ``vertex_id`` in delivery order."""
        inbox = self._by_target.get(vertex_id)
        return inbox[1] if inbox is not None else []

    def inbox(self, vertex_id):
        """``(source, value)`` pairs for ``vertex_id``, built on demand:
        only debugger-facing readers ask."""
        inbox = self._by_target.get(vertex_id)
        return list(zip(*inbox)) if inbox is not None else []

    def incoming_view(self, vertex_id):
        """What ``ComputeContext`` receives as ``incoming``."""
        return IncomingView(self, vertex_id)

    def has_inbox(self, vertex_id):
        """True when at least one message is destined for ``vertex_id``."""
        return vertex_id in self._by_target

    def load_partition(self, partition_id):
        """Partition-at-a-time read protocol: a settled store holds every
        partition's inboxes at once, so the "loaded view" is the store
        itself. The spill plane's run store returns one store per
        partition here."""
        return self

    def items(self):
        """``(target, (sources, values))`` for every non-empty inbox."""
        return self._by_target.items()

    def iter_checkpoint_messages(self):
        """``(source, target, value)`` for every in-flight message, in
        per-target delivery order — the order a checkpoint must preserve."""
        for target, inbox in self.items():
            for source, value in zip(*inbox):
                yield source, target, value

    def missing_targets(self, locations):
        """Targets with messages but no vertex (the resolver's work list)."""
        return [
            target for target in self._by_target if target not in locations
        ]

    def has_messages(self):
        return bool(self._by_target)

    def drop_inbox(self, vertex_id):
        """Discard all messages destined for one vertex (resolver 'drop')."""
        dropped = self._by_target.pop(vertex_id, None)
        if dropped is not None:
            self.total_messages -= len(dropped[1])
