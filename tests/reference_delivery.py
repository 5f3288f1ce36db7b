"""The reference for message delivery: the slow, obvious order.

Both planes must hand ``compute()`` — and the debugger — exactly the
inboxes this gives for the same sends: the memory plane's packed store
(:meth:`ColumnarMessageStore.inbox` / ``settled``) and the spill plane's
run files (:meth:`SpilledMessageStore.load_partition`) are each checked
against it. It works on plain ``(source, target, value)`` triples and
shares no code with either:

1. :meth:`~ReferenceDelivery.merge_grouped` every worker's sends, in
   worker-id order, each worker's in emission order;
2. :meth:`~ReferenceDelivery.canonicalize`: stably sort each inbox by
   ``repr(source)``, so ties keep ``(worker id, emission order)``;
3. :meth:`~ReferenceDelivery.permute` each inbox under the delivery
   schedule (graft-san), shuffling the messages themselves;
4. :meth:`~ReferenceDelivery.drop_inbox` what the resolver discards
   (whole inboxes, so it commutes with 3 and 5: the spill plane drops
   before it loads a partition, the memory barrier after it settled —
   only the counts of step 3 and 5 see the difference);
5. :meth:`~ReferenceDelivery.combine`: left-fold each multi-message
   inbox pairwise; the folded message has no source.
"""


class ReferenceDelivery:
    """One superstep's messages, ``{target: [(source, value), ...]}``."""

    def __init__(self):
        self.inboxes = {}

    def merge_grouped(self, sends):
        """Append one worker's ``(source, target, value)`` sends."""
        for source, target, value in sends:
            self.inboxes.setdefault(target, []).append((source, value))
        return len(sends)

    def canonicalize(self):
        for inbox in self.inboxes.values():
            inbox.sort(key=lambda message: repr(message[0]))

    def permute(self, schedule, superstep):
        """Returns the number of inboxes whose order changed."""
        return sum(
            schedule.permute_inbox(target, superstep, inbox)
            for target, inbox in self.inboxes.items()
        )

    def drop_inbox(self, target):
        return len(self.inboxes.pop(target, ()))

    def combine(self, combiner):
        """Returns the number of messages eliminated."""
        eliminated = 0
        for target, inbox in self.inboxes.items():
            if len(inbox) > 1:
                folded = inbox[0][1]
                for _source, value in inbox[1:]:
                    folded = combiner.combine(folded, value)
                eliminated += len(inbox) - 1
                self.inboxes[target] = [(None, folded)]
        return eliminated

    def settle(self, superstep, schedule, combiner):
        """Steps 3 and 5, either optional; returns ``(inboxes permuted,
        messages eliminated)``."""
        return (
            self.permute(schedule, superstep) if schedule is not None else 0,
            self.combine(combiner) if combiner is not None else 0,
        )

    def inbox(self, target):
        return self.inboxes.get(target, [])

    def inbox_values(self, target):
        return [value for _source, value in self.inbox(target)]

    def messages(self):
        """Every ``(source, target, value)`` still in flight."""
        return [
            (source, target, value)
            for target, inbox in self.inboxes.items()
            for source, value in inbox
        ]


def canonical(worker_sends):
    """Steps 1 and 2 over per-worker send lists given in worker-id order."""
    reference = ReferenceDelivery()
    for sends in worker_sends:
        reference.merge_grouped(sends)
    reference.canonicalize()
    return reference
