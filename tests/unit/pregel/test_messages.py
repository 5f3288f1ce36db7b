"""Unit tests for message envelopes and the per-superstep store."""

from repro.pregel.messages import Envelope, MessageStore


class TestMessageStore:
    def test_deliver_and_inbox(self):
        store = MessageStore()
        store.deliver(Envelope(source=1, target=2, value="m"))
        assert [e.value for e in store.inbox(2)] == ["m"]

    def test_empty_inbox_for_unknown_target(self):
        assert MessageStore().inbox("nobody") == []

    def test_delivery_order_preserved(self):
        store = MessageStore()
        for index in range(5):
            store.deliver(Envelope(source=0, target="t", value=index))
        assert [e.value for e in store.inbox("t")] == [0, 1, 2, 3, 4]

    def test_targets_and_has_messages(self):
        store = MessageStore()
        assert not store.has_messages()
        store.deliver(Envelope(source=1, target="a", value=None))
        assert store.has_messages()
        assert set(store.targets()) == {"a"}

    def test_total_messages_counts_all(self):
        store = MessageStore()
        store.deliver_all(
            Envelope(source=0, target=t, value=0) for t in ("a", "a", "b")
        )
        assert store.total_messages == 3

    def test_envelope_is_frozen(self):
        envelope = Envelope(source=1, target=2, value=3)
        try:
            envelope.value = 9
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_merge_grouped_adopts_and_extends(self):
        store = MessageStore()
        first = {
            "a": [Envelope(source=0, target="a", value=1)],
            "b": [Envelope(source=0, target="b", value=2)],
        }
        second = {"a": [Envelope(source=1, target="a", value=3)]}
        assert store.merge_grouped(first) == 2
        assert store.merge_grouped(second) == 1
        assert [e.value for e in store.inbox("a")] == [1, 3]
        assert [e.value for e in store.inbox("b")] == [2]
        assert store.total_messages == 3

    def test_canonicalize_orders_inbox_by_source(self):
        """Delivery order becomes partition-independent after canonicalize().

        Whatever worker-merge order produced the inbox, the barrier sort by
        repr(source) leaves every inbox in the same order — the property
        the deterministic trace merge relies on.
        """
        forward = MessageStore()
        backward = MessageStore()
        envelopes = [
            Envelope(source=source, target="t", value=source * 10)
            for source in (3, 1, 2)
        ]
        forward.deliver_all(envelopes)
        backward.deliver_all(reversed(envelopes))
        forward.canonicalize()
        backward.canonicalize()
        assert [e.source for e in forward.inbox("t")] == [1, 2, 3]
        assert forward.inbox("t") == backward.inbox("t")

    def test_canonicalize_is_stable_for_equal_sources(self):
        store = MessageStore()
        store.deliver_all(
            [
                Envelope(source=7, target="t", value="first"),
                Envelope(source=7, target="t", value="second"),
            ]
        )
        store.canonicalize()
        assert [e.value for e in store.inbox("t")] == ["first", "second"]
