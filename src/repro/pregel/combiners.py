"""Message combiners.

A combiner folds the messages headed to one destination vertex into a
single message before they cross the (simulated) network, exactly as in
Pregel/Giraph. Combining is an optimization the algorithm must opt into
and must be correct under: the combine function has to be commutative and
associative, and the algorithm must not depend on message multiplicity.

Note for Graft users: combined messages lose their per-source identity, so
message-value constraints are checked by the instrumenter at *send* time,
before combining — matching the paper's ``messageValueConstraint(msg,
srcID, dstID, superstep)`` signature, which still sees the source id.
"""


class MessageCombiner:
    """Base combiner; subclasses define the binary fold."""

    def combine(self, first, second):
        """Fold two message values headed to the same vertex into one."""
        raise NotImplementedError

    def fold_column(self, values):
        """Fold a whole inbox's value column (non-empty, delivery order).

        :meth:`MessageStore.settle
        <repro.pregel.messages.MessageStore.settle>` hands the value list
        straight here on both planes. The default is the left fold of
        pairwise :meth:`combine`; subclasses may override with a C-speed
        reduction as long as the result is exactly equal.
        """
        folded = values[0]
        for value in values[1:]:
            folded = self.combine(folded, value)
        return folded


class SumCombiner(MessageCombiner):
    """Adds message values (PageRank-style contributions)."""

    def combine(self, first, second):
        return first + second


class MinCombiner(MessageCombiner):
    """Keeps the smaller message value (shortest-paths, components)."""

    def combine(self, first, second):
        return second if second < first else first

    def fold_column(self, values):
        # Same first-smallest-wins semantics as the pairwise fold (min()
        # returns the earliest of equal elements), at C speed.
        return min(values)


class MaxCombiner(MessageCombiner):
    """Keeps the larger message value."""

    def combine(self, first, second):
        return second if second > first else first

    def fold_column(self, values):
        return max(values)
