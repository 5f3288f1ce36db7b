"""Property test: column-run delivery equals the envelope oracle.

Any multiset of sends — several workers, several chunks per worker, id
types whose ``repr`` collides, payloads that ride typed columns and
payloads that fall back to pickle, targets the resolver dropped, with
and without a combiner — delivered through the spill plane's run files
must give, inbox for inbox, what the slow obvious path gives:
:meth:`MessageStore.merge_grouped` in worker-id order, then
:meth:`~MessageStore.canonicalize`, then ``drop_inbox``, then
:meth:`~MessageStore.combine`.
"""

from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pregel import MessageCombiner
from repro.pregel.messages import Envelope, MessageStore
from repro.pregel.store.runs import RunOutbox, SpilledMessageStore, run_path
from repro.simfs.filesystem import SimFileSystem

PARTITIONS = 3


@dataclass(frozen=True)
class Tagged:
    """Distinct ids that print alike: ``repr`` ties must fall back to
    (worker id, emission order), never to a comparison of the ids."""

    name: str
    tag: int

    def __repr__(self):
        return self.name


class _ReprPartitioner:
    """Where a target missing from the location map goes (any pure
    function of the id will do; HashPartitioner cannot hash ``Tagged``)."""

    def partition_for(self, vertex_id):
        return len(repr(vertex_id)) % PARTITIONS


class PairUp(MessageCombiner):
    """Records the fold order in its result, so any reordering shows."""

    def combine(self, first, second):
        return (first, second)


IDS = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.sampled_from(["1", "a", "10"]),
    st.tuples(st.integers(0, 2), st.sampled_from("ab")),
    st.builds(Tagged, st.sampled_from(["x", "1"]), st.integers(0, 2)),
)
VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.integers(),                       # unbounded: overflows the i64 column
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
    st.none(),
)
SENDS = st.lists(
    st.tuples(st.integers(0, 2), IDS, IDS, VALUES), max_size=40
)


def _total_key(message):
    """A sort key no two distinct ``(source, target, value)`` share.

    ``repr`` alone ties on distinct ids that print alike, and a stable
    sort leaves ties in each store's own iteration order.
    """
    return [
        (repr(part), type(part).__name__, getattr(part, "tag", None))
        for part in message
    ]


@given(
    sends=SENDS,
    located=st.dictionaries(IDS, st.integers(0, PARTITIONS - 1), max_size=12),
    dropped=st.sets(IDS, max_size=3),
    chunk_entries=st.integers(1, 6),
    combine=st.booleans(),
    values_only=st.booleans(),
)
# Two targets that print alike, the second located so that the two stores
# walk them in opposite orders: a ``repr``-keyed comparison of the
# checkpoint messages failed here with every inbox delivered right.
@example(
    sends=[(0, 0, Tagged("x", 0), 0.0), (0, 0, Tagged("x", 1), 0.0)],
    located={Tagged("x", 1): 0},
    dropped=set(), chunk_entries=1, combine=False, values_only=False,
)
@example(
    sends=[(0, 0, Tagged("1", 0), 0.0), (0, 0, 1, 0.0)],
    located={1: 0},
    dropped=set(), chunk_entries=1, combine=False, values_only=False,
)
@settings(max_examples=150, deadline=None)
def test_column_runs_deliver_the_oracle_inboxes(
    sends, located, dropped, chunk_entries, combine, values_only
):
    if values_only:
        # One payload type per run keeps the typed (non-fallback) column.
        sends = [(w, s, t, float(len(repr(s)))) for w, s, t, _ in sends]
    partitioner = _ReprPartitioner()
    combiner = PairUp() if combine else None
    fs = SimFileSystem()
    oracle = MessageStore()
    for worker_id in range(3):
        outbox = RunOutbox(
            fs, run_path("/spill", 4, worker_id), partitioner, located,
            chunk_entries=chunk_entries,
        )
        grouped = {}
        for sender, source, target, value in sends:
            if sender != worker_id:
                continue
            outbox.add_point(source, target, value)
            grouped.setdefault(target, []).append(
                Envelope(source, target, value)
            )
        outbox.seal()
        oracle.merge_grouped(grouped)
    oracle.canonicalize()

    counts = {}
    for _, _, target, _ in sends:
        counts[target] = counts.get(target, 0) + 1
    spilled = SpilledMessageStore(
        fs, "/spill", 4, PARTITIONS, total_messages=len(sends),
        suspect_counts={t: counts.get(t, 0) for t in dropped},
        combiner=combiner,
    )
    for target in dropped:
        spilled.drop_inbox(target)
        oracle.drop_inbox(target)
    eliminated = oracle.combine(combiner) if combine else 0

    assert spilled.total_messages == len(sends) - sum(
        1 for _, _, target, _ in sends if target in dropped
    )
    views = [spilled.load_partition(p) for p in range(PARTITIONS)]
    assert sum(view.eliminated for view in views) == eliminated
    delivered = {}
    for partition_id, view in enumerate(views):
        for target, (sources, values) in view.items():
            assert partition_id == located.get(
                target, partitioner.partition_for(target)
            )
            assert view.inbox_values(target) == values
            assert list(view.incoming_view(target)) == view.inbox(target)
            delivered[target] = view.inbox(target)
    expected = {target: oracle.inbox(target) for target in oracle.targets()}
    assert delivered == expected
    # ``1 == 1.0 == True``: the reprs pin the payload types as well.
    assert {t: repr(inbox) for t, inbox in delivered.items()} == {
        t: repr(inbox) for t, inbox in expected.items()
    }
    # Per-target order was compared inbox for inbox above; what is left to
    # check is that the checkpoint holds the same multiset of messages.
    assert sorted(spilled.iter_checkpoint_messages(), key=_total_key) == sorted(
        oracle.iter_checkpoint_messages(), key=_total_key
    )
