"""PermutationSchedule: the seeded delivery-order lever graft-san pulls.

The contract under test: a schedule permutes inbox *order* only — never
the message multiset — deterministically for a given (seed, schedule,
superstep, target), differently across schedules, and identically
however the engine that applies it is backed. It shuffles an index
vector; :meth:`MessageStore.settle` gathers an inbox's source and value
columns through it.
"""

from repro.pregel import SumCombiner
from repro.pregel.messages import MessageStore
from repro.pregel.permutation import PermutationSchedule
from tests.reference_delivery import ReferenceDelivery

TARGETS = 3
FANIN = 6


def make_store(num_targets=TARGETS, fanin=FANIN):
    """Canonical inboxes: sources ascending, ``value = source * 10 + target``."""
    store = MessageStore()
    for target in range(num_targets):
        for source in range(fanin):
            store.deliver(source, target, source * 10 + target)
    return store


def inbox_orders(store):
    return {target: store.inbox(target) for target, _ in store.items()}


class TestPermuteInbox:
    def test_schedule_zero_is_identity(self):
        schedule = PermutationSchedule(0, seed=7)
        order = list(range(5))
        assert schedule.permute_inbox(0, 1, order) is False
        assert order == list(range(5))

    def test_short_inboxes_untouched(self):
        schedule = PermutationSchedule(1, seed=7)
        single = [0]
        assert schedule.permute_inbox(0, 1, single) is False
        assert single == [0]

    def test_permutation_preserves_the_multiset(self):
        schedule = PermutationSchedule(1, seed=7)
        order = list(range(8))
        assert schedule.permute_inbox(0, 1, order) is True
        assert sorted(order) == list(range(8))

    def test_same_coordinates_same_shuffle(self):
        a, b = list(range(8)), list(range(8))
        PermutationSchedule(1, seed=7).permute_inbox(0, 3, a)
        PermutationSchedule(1, seed=7).permute_inbox(0, 3, b)
        assert a == b

    def test_schedules_differ(self):
        a, b = list(range(8)), list(range(8))
        PermutationSchedule(1, seed=7).permute_inbox(0, 1, a)
        PermutationSchedule(2, seed=7).permute_inbox(0, 1, b)
        assert a != b

    def test_supersteps_differ(self):
        a, b = list(range(8)), list(range(8))
        schedule = PermutationSchedule(1, seed=7)
        schedule.permute_inbox(0, 1, a)
        schedule.permute_inbox(0, 2, b)
        assert a != b

    def test_targets_differ(self):
        a, b = list(range(8)), list(range(8))
        schedule = PermutationSchedule(1, seed=7)
        schedule.permute_inbox("u", 1, a)
        schedule.permute_inbox("v", 1, b)
        assert a != b


class TestBind:
    def test_bind_adopts_run_seed_when_unset(self):
        schedule = PermutationSchedule(1)
        assert schedule.bind(42) is schedule
        assert schedule.seed == 42

    def test_bind_keeps_explicit_seed(self):
        schedule = PermutationSchedule(1, seed=7)
        schedule.bind(42)
        assert schedule.seed == 7


class TestPermuteStore:
    """The schedule half of :meth:`MessageStore.settle`."""

    def test_counts_changed_inboxes_and_keeps_multisets(self):
        before = {t: sorted(inbox) for t, inbox in inbox_orders(make_store()).items()}
        store = make_store().settle(1, PermutationSchedule(1, seed=7), None)
        after = inbox_orders(store)
        assert store.permuted == len(before)
        assert {t: sorted(inbox) for t, inbox in after.items()} == before
        assert any(after[t] != sorted(after[t]) for t in after)
        # Sources and values moved together: each message is still whole.
        assert all(
            value == source * 10 + target
            for target, inbox in after.items() for source, value in inbox
        )

    def test_identity_schedule_counts_zero(self):
        store = make_store().settle(1, PermutationSchedule(0, seed=7), None)
        assert store.permuted == 0
        assert inbox_orders(store) == inbox_orders(make_store())

    def test_store_permutation_is_reproducible(self):
        first = make_store().settle(4, PermutationSchedule(2, seed=9), None)
        second = make_store().settle(4, PermutationSchedule(2, seed=9), None)
        assert inbox_orders(first) == inbox_orders(second)

    def test_index_vector_gives_the_shuffle_of_the_messages_themselves(self):
        """The reference shuffles ``(source, value)`` lists directly."""
        schedule = PermutationSchedule(2, seed=9)
        reference = ReferenceDelivery()
        reference.merge_grouped(list(make_store().iter_checkpoint_messages()))
        assert reference.permute(schedule, 4) == TARGETS
        assert inbox_orders(make_store().settle(4, schedule, None)) == reference.inboxes

    def test_combiner_folds_the_permuted_order(self):
        class KeepFirst(SumCombiner):
            def combine(self, first, second):
                return first

        schedule = PermutationSchedule(1, seed=7)
        permuted = make_store().settle(1, schedule, None)
        combined = make_store().settle(1, schedule, KeepFirst())
        assert combined.permuted == TARGETS
        assert combined.eliminated == TARGETS * (FANIN - 1)
        for target in range(TARGETS):
            assert combined.inbox(target) == [
                (None, permuted.inbox_values(target)[0])
            ]
