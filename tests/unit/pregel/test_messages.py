"""Unit tests for the settled message store and the delivery reference."""

from repro.pregel.messages import MessageStore
from tests.reference_delivery import ReferenceDelivery


class TestMessageStore:
    def test_deliver_and_inbox(self):
        store = MessageStore()
        store.deliver(1, 2, "m")
        assert store.inbox(2) == [(1, "m")]
        assert store.inbox_values(2) == ["m"]
        assert list(store.incoming_view(2)) == [(1, "m")]

    def test_empty_inbox_for_unknown_target(self):
        store = MessageStore()
        assert store.inbox("nobody") == []
        assert store.inbox_values("nobody") == []
        assert not store.incoming_view("nobody")

    def test_delivery_order_preserved(self):
        store = MessageStore()
        for index in range(5):
            store.deliver(0, "t", index)
        assert store.inbox_values("t") == [0, 1, 2, 3, 4]

    def test_targets_and_has_messages(self):
        store = MessageStore()
        assert not store.has_messages()
        store.deliver(1, "a", None)
        assert store.has_messages()
        assert store.has_inbox("a") and not store.has_inbox("b")
        assert dict(store.items()) == {"a": ([1], [None])}
        assert store.missing_targets({"b": 0}) == ["a"]

    def test_total_messages_counts_all(self):
        store = MessageStore()
        store.deliver_columns([0, 0, 0], ["a", "a", "b"], [0, 0, 0])
        assert store.total_messages == 3
        store.drop_inbox("a")
        assert store.total_messages == 1
        assert list(store.iter_checkpoint_messages()) == [(0, "b", 0)]

    def test_columns_group_by_target_in_column_order(self):
        store = MessageStore()
        store.deliver_columns([3, 1, 2], ["t", "u", "t"], ["x", "y", "z"])
        assert store.inbox("t") == [(3, "x"), (2, "z")]
        assert store.inbox("u") == [(1, "y")]
        assert store.load_partition(0) is store

    def test_columns_are_delivered_in_the_order_given(self):
        """The spill plane sorts positions, not columns."""
        store = MessageStore()
        store.deliver_columns([3, 1, 2], ["t", "u", "t"], ["x", "y", "z"], [2, 0, 1])
        assert store.inbox("t") == [(2, "z"), (3, "x")]
        assert [target for target, _ in store.items()] == ["t", "u"]
        assert store.total_messages == 3

    # The reference both planes are checked against: the slow, obvious
    # merge -> canonicalize the MessageStore used to carry itself.

    def test_merge_grouped_adopts_and_extends(self):
        reference = ReferenceDelivery()
        assert reference.merge_grouped([(0, "a", 1), (0, "b", 2)]) == 2
        assert reference.merge_grouped([(1, "a", 3)]) == 1
        assert reference.inbox_values("a") == [1, 3]
        assert reference.inbox_values("b") == [2]
        assert len(reference.messages()) == 3

    def test_canonicalize_orders_inbox_by_source(self):
        """Delivery order becomes partition-independent after canonicalize().

        Whatever worker-merge order produced the inbox, the barrier sort by
        repr(source) leaves every inbox in the same order — the property
        the deterministic trace merge relies on.
        """
        forward = ReferenceDelivery()
        backward = ReferenceDelivery()
        sends = [(source, "t", source * 10) for source in (3, 1, 2)]
        forward.merge_grouped(sends)
        backward.merge_grouped(sends[::-1])
        forward.canonicalize()
        backward.canonicalize()
        assert [source for source, _ in forward.inbox("t")] == [1, 2, 3]
        assert forward.inbox("t") == backward.inbox("t")

    def test_canonicalize_is_stable_for_equal_sources(self):
        reference = ReferenceDelivery()
        reference.merge_grouped([(7, "t", "first"), (7, "t", "second")])
        reference.canonicalize()
        assert reference.inbox_values("t") == ["first", "second"]
