"""Unit tests for message combiners."""

from repro.pregel import MaxCombiner, MinCombiner, SumCombiner
from repro.pregel.messages import MessageStore


class TestCombinerFolds:
    def test_sum(self):
        assert SumCombiner().combine(2, 3) == 5

    def test_min(self):
        assert MinCombiner().combine(2, 3) == 2
        assert MinCombiner().combine(3, 2) == 2

    def test_max(self):
        assert MaxCombiner().combine(2, 3) == 3


class TestStoreCombining:
    """The combiner half of :meth:`MessageStore.settle`."""

    def _store_with(self, values, target="t"):
        store = MessageStore()
        for index, value in enumerate(values):
            store.deliver(index, target, value)
        return store

    def test_combine_folds_inbox_to_one(self):
        store = self._store_with([1, 2, 3]).settle(1, None, SumCombiner())
        assert store.eliminated == 2
        assert store.inbox_values("t") == [6]

    def test_combined_envelope_loses_source(self):
        store = self._store_with([1, 2]).settle(1, None, SumCombiner())
        assert store.inbox("t") == [(None, 3)]

    def test_single_message_untouched(self):
        store = self._store_with([7]).settle(1, None, SumCombiner())
        assert store.eliminated == 0
        assert store.inbox("t") == [(0, 7)]

    def test_total_message_count_updated(self):
        store = self._store_with([1, 2, 3]).settle(1, None, MinCombiner())
        assert store.total_messages == 1

    def test_multiple_targets_combined_independently(self):
        store = MessageStore()
        store.deliver_columns([0, 0, 0], ["a", "a", "b"], [1, 2, 9])
        store.settle(1, None, SumCombiner())
        assert store.inbox_values("a") == [3]
        assert store.inbox_values("b") == [9]

    def test_no_combiner_no_schedule_changes_nothing(self):
        store = self._store_with([1, 2, 3]).settle(1, None, None)
        assert (store.eliminated, store.permuted) == (0, 0)
        assert store.inbox("t") == [(0, 1), (1, 2), (2, 3)]
