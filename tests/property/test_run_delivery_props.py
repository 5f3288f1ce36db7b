"""Property test: both planes deliver the reference inboxes.

Any superstep of sends — several workers, several chunks per worker, id
types whose ``repr`` collides, payloads that ride typed columns and
payloads that fall back to pickle, broadcasts from workers that are still
clean (one compact record) and from workers that already rewired an edge
(explicit fan-out), senders that rewire *after* broadcasting, targets the
resolver dropped, with and without a combiner and a delivery schedule —
is sent once through real :class:`ComputeContext` objects per plane and
must come out of

- the spill plane's run files (:meth:`SpilledMessageStore.load_partition`)
  and
- the memory plane's packed store (:meth:`ColumnarMessageStore.inbox`
  while packed, :meth:`~ColumnarMessageStore.settled` at a barrier that
  permutes, combines or drops; frames or live outboxes)

inbox for inbox as ``tests/reference_delivery.py`` gives it from the
contexts' own send logs: merge in worker-id order, canonicalize, permute,
drop, combine.
"""

from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pregel import MessageCombiner
from repro.pregel.columnar import (
    ColumnarMessageStore,
    ColumnarRunState,
    build_frame,
    parse_frame,
)
from repro.pregel.context import ComputeContext
from repro.pregel.permutation import PermutationSchedule
from repro.pregel.store.runs import RunOutbox, SpilledMessageStore, run_path
from repro.pregel.worker import Worker
from repro.simfs.filesystem import SimFileSystem
from tests.reference_delivery import canonical as canonical_delivery

PARTITIONS = 3
WORKERS = 3
SUPERSTEP = 4


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
ACTIONS = st.one_of(
    st.tuples(st.just("point"), IDS, VALUES),
    st.tuples(st.just("broadcast"), VALUES),
    # Drop the repr-smallest out-edge and add one: the worker is dirty
    # from here on and files its fan-outs per target.
    st.tuples(st.just("rewire"), IDS),
)
#: vertex id -> (owning worker, partition, out-edge targets, what its
#: ``compute()`` does). Every vertex exists, so it is in the location map;
#: any other id a message names is a missing target.
PROGRAMS = st.dictionaries(
    IDS,
    st.tuples(
        st.integers(0, WORKERS - 1),
        st.integers(0, PARTITIONS - 1),
        st.lists(IDS, max_size=4, unique=True),
        st.lists(ACTIONS, max_size=5),
    ),
    max_size=8,
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


def _workers(program):
    """Fresh workers holding ``program``'s vertices in program order."""
    workers = [Worker(worker_id, 0) for worker_id in range(WORKERS)]
    for vertex_id, (owner, _partition, edges, _actions) in program.items():
        workers[owner].load_vertex(vertex_id, None, dict.fromkeys(edges))
    return workers


def _run_step(program, worker, values_only):
    """One worker's superstep through real contexts, into ``worker.outbox``.

    Returns its sends as ``(source, target, value)`` in emission order,
    read back from each context's own send log.
    """
    sends = []
    for vertex_id, (owner, _partition, _edges, actions) in program.items():
        if owner != worker.worker_id:
            continue
        ctx = ComputeContext(
            vertex_id, None, worker.edges[vertex_id], (), SUPERSTEP - 1, 0, 0,
            worker._services,
        )
        for kind, *args in actions:
            if values_only and kind != "rewire":
                # One payload type per run keeps the typed (non-fallback)
                # column.
                args[-1] = float(len(repr(vertex_id)))
            if kind == "point":
                ctx.send_message(*args)
            elif kind == "broadcast":
                ctx.send_message_to_all_neighbors(*args)
            else:
                for target in sorted(ctx.neighbor_ids(), key=repr)[:1]:
                    ctx.remove_edge(target)
                ctx.add_edge(*args)
        sends += [(vertex_id, target, value) for target, value in ctx.sent_messages()]
    return sends


def _assert_same_inboxes(delivered, expected):
    assert delivered == expected
    # ``1 == 1.0 == True``: the reprs pin the payload types as well.
    assert {t: repr(inbox) for t, inbox in delivered.items()} == {
        t: repr(inbox) for t, inbox in expected.items()
    }


@given(
    program=PROGRAMS,
    dropped=st.sets(IDS, max_size=3),
    chunk_entries=st.integers(1, 6),
    combine=st.booleans(),
    schedule=st.sampled_from([None, 0, 1, 2]),
    values_only=st.booleans(),
    framed=st.booleans(),
)
# Two targets that print alike, the second located so that the two stores
# walk them in opposite orders: a ``repr``-keyed comparison of the
# checkpoint messages failed here with every inbox delivered right.
@example(
    program={
        0: (0, 1, [], [
            ("point", Tagged("x", 0), 0.0), ("point", Tagged("x", 1), 0.0),
        ]),
        Tagged("x", 1): (0, 0, [], []),
    },
    dropped=set(), chunk_entries=1, combine=False, schedule=None,
    values_only=False, framed=False,
)
@example(
    program={
        0: (0, 1, [], [("point", Tagged("1", 0), 0.0), ("point", 1, 0.0)]),
        1: (0, 0, [], []),
    },
    dropped=set(), chunk_entries=1, combine=False, schedule=None,
    values_only=False, framed=False,
)
# ISSUE 20's bug: a clean worker's compact broadcast, then the sender
# rewires — the fan-out belongs to the edges it was sent along.
@example(
    program={
        "a": (0, 0, ["1"], [("broadcast", "hello"), ("rewire", "10")]),
        "1": (1, 1, [], []),
        "10": (1, 2, [], []),
    },
    dropped=set(), chunk_entries=6, combine=False, schedule=None,
    values_only=False, framed=True,
)
# Two senders that print alike on one worker, the later-loaded one interned
# first (as another vertex's edge target): canonical order is emission
# order, not interning order.
@example(
    program={
        0: (0, 0, [Tagged("x", 1)], []),
        Tagged("x", 0): (0, 0, ["a"], [("broadcast", 1.0)]),
        Tagged("x", 1): (0, 0, ["a"], [("broadcast", 2.0)]),
    },
    dropped=set(), chunk_entries=6, combine=False, schedule=None,
    values_only=False, framed=False,
)
@settings(max_examples=150, deadline=None)
def test_column_runs_deliver_the_oracle_inboxes(
    program, dropped, chunk_entries, combine, schedule, values_only, framed
):
    partitioner = _ReprPartitioner()
    combiner = PairUp() if combine else None
    if schedule is not None:
        schedule = PermutationSchedule(schedule, seed=7)
    located = {v: partition for v, (_, partition, _, _) in program.items()}

    # -- send: once per plane, through the one _WorkerServices ------------
    fs = SimFileSystem()
    spill_sends = []
    for worker in _workers(program):
        worker.prepare_superstep(None)
        worker.outbox = RunOutbox(
            fs, run_path("/spill", SUPERSTEP, worker.worker_id), partitioner,
            located, chunk_entries=chunk_entries,
        )
        spill_sends.append(_run_step(program, worker, values_only))
        worker.outbox.seal()

    run_state = ColumnarRunState()
    memory_workers = _workers(program)
    run_state.ensure_index(memory_workers, located)
    packed = ColumnarMessageStore(run_state)
    worker_sends = []
    for worker in memory_workers:
        worker.prepare_superstep(None)
        worker_sends.append(_run_step(program, worker, values_only))
        if framed:
            frame = build_frame(worker, run_state.interner, SUPERSTEP - 1)
            packed.absorb_frame(parse_frame(frame, run_state.interner))
        else:
            packed.absorb_outbox(worker.worker_id, worker.outbox)
    # The index the next superstep would run under: must not be the one
    # this superstep's compact broadcasts expand against.
    run_state.invalidate()
    run_state.ensure_index(memory_workers, located)
    assert spill_sends == worker_sends

    # -- the reference ----------------------------------------------------
    canonical = canonical_delivery(worker_sends)
    total = sum(map(len, worker_sends))
    missing = {t for t in canonical.inboxes if t not in located}

    # -- the spill plane --------------------------------------------------
    spilled = SpilledMessageStore(
        fs, "/spill", SUPERSTEP, PARTITIONS, total_messages=total,
        suspect_counts={
            t: len(canonical.inbox(t)) for t in missing | dropped
        },
        combiner=combiner, schedule=schedule,
    )
    # (The run store learns its suspects from whoever counted them, so the
    # ids this test drops without their being missing show up here too.)
    assert set(spilled.missing_targets(located)) - dropped == missing - dropped
    for target in dropped:
        spilled.drop_inbox(target)
    assert spilled.total_messages == total - sum(
        len(canonical.inbox(target)) for target in dropped
    )
    views = [spilled.load_partition(p) for p in range(PARTITIONS)]
    # Dropped at the barrier, settled at load: dropped inboxes count nowhere.
    reference = canonical_delivery(worker_sends)
    for target in dropped:
        reference.drop_inbox(target)
    permuted, eliminated = reference.settle(SUPERSTEP, schedule, combiner)
    assert sum(view.eliminated for view in views) == eliminated
    assert sum(view.permuted for view in views) == permuted
    delivered = {}
    for partition_id, view in enumerate(views):
        for target, (sources, values) in view.items():
            assert partition_id == located.get(
                target, partitioner.partition_for(target)
            )
            assert view.inbox_values(target) == values
            assert list(view.incoming_view(target)) == view.inbox(target)
            delivered[target] = view.inbox(target)
    _assert_same_inboxes(delivered, reference.inboxes)
    # Per-target order was compared inbox for inbox above; what is left to
    # check is that the checkpoint holds the same multiset of messages.
    assert sorted(spilled.iter_checkpoint_messages(), key=_total_key) == sorted(
        reference.messages(), key=_total_key
    )

    # -- the memory plane, still packed -----------------------------------
    assert packed.total_messages == total
    assert set(packed.targets()) == set(canonical.inboxes)
    assert set(packed.missing_targets(located)) == missing
    for target in set(canonical.inboxes) | set(program) | dropped:
        assert packed.has_inbox(target) == (target in canonical.inboxes)
        assert packed.inbox_values(target) == canonical.inbox_values(target)
        assert list(packed.incoming_view(target)) == packed.inbox(target)
    _assert_same_inboxes(
        {target: packed.inbox(target) for target in packed.targets()},
        canonical.inboxes,
    )

    # -- the memory plane, settled ----------------------------------------
    settled = packed.settled(SUPERSTEP, schedule, combiner)
    # Settled at the barrier, then dropped: the same inboxes, but the
    # barrier's counters saw the dropped ones too.
    settled_reference = canonical_delivery(worker_sends)
    assert (settled.permuted, settled.eliminated) == settled_reference.settle(
        SUPERSTEP, schedule, combiner
    )
    assert set(settled.missing_targets(located)) == missing
    for target in dropped:
        settled.drop_inbox(target)
    assert settled.total_messages == len(reference.messages())
    assert settled.has_messages() == bool(reference.inboxes)
    _assert_same_inboxes(
        {target: settled.inbox(target) for target, _ in settled.items()},
        reference.inboxes,
    )
    assert sorted(settled.iter_checkpoint_messages(), key=_total_key) == sorted(
        reference.messages(), key=_total_key
    )
