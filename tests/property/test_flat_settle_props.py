"""Property test: the flat point plane delivers the reference inboxes.

A generated one-superstep program is run by the engine. At superstep 0
every vertex makes its point sends, broadcasts and rewires; at superstep 1
every vertex that got messages stores ``ctx.incoming_messages()`` as its
value. The values must equal, inbox for inbox and ``repr`` for ``repr``,
what ``tests/reference_delivery.py`` gives for the same sends: merge the
workers' sends in worker-id order, stable-sort each inbox by
``repr(source)``, permute, combine.

The hazards the flat sort must get right are all generated here:

- distinct sources whose ``repr`` is equal (ties keep worker-merge order);
- point sends mixed, in one inbox, with compact broadcasts and with the
  explicit per-target broadcasts of a worker whose adjacency is dirty;
- targets outside the interner: ids that are no vertex, created by the
  resolver at the barrier;
- value columns that degrade to pickle;
- ``0.0`` / ``-0.0`` ties under :class:`MinCombiner`, whose winner only
  canonical order decides;
- a combiner together with a delivery schedule.

Each program runs on ``serial``, ``processes`` (frames) and the
reversed-step test backend, on one to three workers.
"""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.pregel import Computation, MessageCombiner, MinCombiner, run_computation
from repro.pregel.partition import Partitioner
from repro.pregel.permutation import PermutationSchedule
from tests.reference_delivery import canonical
from tests.reversed_backend import ReversedBackend

SUPERSTEP = 1  # the delivery superstep of superstep 0's sends


@dataclass(frozen=True)
class Tagged:
    """Distinct ids that print alike."""

    name: str
    tag: int

    def __repr__(self):
        return self.name


class PairUp(MessageCombiner):
    """Records the fold order in its result, so any reordering shows."""

    def combine(self, first, second):
        return (first, second)


class Placed(Partitioner):
    """Program vertices on their drawn worker; any other id (a vertex the
    resolver creates) by the length of its ``repr``."""

    def __init__(self, num_workers, owners):
        super().__init__(num_workers)
        self._owners = owners

    def partition_for(self, vertex_id):
        owner = self._owners.get(vertex_id)
        if owner is None:
            owner = len(repr(vertex_id))
        return owner % self.num_workers


#: Payload tables, indexed by the programs. ``floats`` keeps every value
#: column packed (and is the one MinCombiner can order); ``mixed`` makes
#: columns degrade to pickle and pins payload types through ``repr``.
PAYLOADS = {
    "floats": (0.0, -0.0, 1.5, -2.0, 0.0, -0.0),
    "mixed": (0.0, -0.0, 1, True, (1, "a"), None, "s", 2**70),
}

IDS = st.one_of(
    st.integers(0, 6),
    st.sampled_from(["1", "a"]),
    st.builds(Tagged, st.sampled_from(["x", "1"]), st.integers(0, 2)),
)
#: Ids that are never program vertices: sends to them leave the interner.
GHOSTS = st.sampled_from(["ghost", ("g", 1), 99])
ACTIONS = st.one_of(
    st.tuples(st.just("point"), st.one_of(IDS, GHOSTS), st.integers(0, 7)),
    st.tuples(st.just("broadcast"), st.just(None), st.integers(0, 7)),
    # Drop the repr-smallest out-edge and add one: the worker is dirty
    # from here on and files its broadcasts per target.
    st.tuples(st.just("rewire"), st.one_of(IDS, GHOSTS), st.just(0)),
)
#: vertex id -> (owning worker, out-edge targets, superstep-0 actions).
PROGRAMS = st.dictionaries(
    IDS,
    st.tuples(
        st.integers(0, 2),
        st.lists(IDS, max_size=4, unique=True),
        st.lists(ACTIONS, max_size=5),
    ),
    min_size=1,
    max_size=7,
)

UNSET = "unset"


class RunProgram(Computation):
    def __init__(self, program, payloads):
        self.program = program
        self.payloads = payloads

    def initial_value(self, vertex_id, input_value):
        return UNSET

    def default_vertex_value(self, vertex_id):
        return UNSET

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            for kind, target, value in self.program[ctx.vertex_id][2]:
                _act(ctx, kind, target, self.payloads[value % len(self.payloads)])
        else:
            ctx.set_value(ctx.incoming_messages())
        ctx.vote_to_halt()


def _act(ctx, kind, target, value):
    if kind == "point":
        ctx.send_message(target, value)
    elif kind == "broadcast":
        ctx.send_message_to_all_neighbors(value)
    else:
        for edge in sorted(ctx.neighbor_ids(), key=repr)[:1]:
            ctx.remove_edge(edge)
        ctx.add_edge(target)


def _graph(program):
    graph = Graph()
    for vertex_id in program:
        graph.add_vertex(vertex_id)
    for vertex_id, (_owner, edges, _actions) in program.items():
        for target in edges:
            if target in program:
                graph.add_edge(vertex_id, target)
    return graph


def _reference_sends(program, graph, num_workers, payloads):
    """Every worker's sends in compute order, worker by worker."""
    partitioner = Placed(num_workers, {v: o for v, (o, _, _) in program.items()})
    sends = [[] for _ in range(num_workers)]
    for vertex_id, (_owner, _edges, actions) in program.items():
        edges = list(graph.neighbors(vertex_id))
        out = sends[partitioner.worker_for(vertex_id)]
        for kind, target, value in actions:
            value = payloads[value % len(payloads)]
            if kind == "point":
                out.append((vertex_id, target, value))
            elif kind == "broadcast":
                out += [(vertex_id, edge, value) for edge in edges]
            else:
                for edge in sorted(edges, key=repr)[:1]:
                    edges.remove(edge)
                if target not in edges:
                    edges.append(target)
    return sends


BACKENDS = {
    "serial": "serial",
    "processes": "processes",
    "reversed": ReversedBackend(),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(
    program=PROGRAMS,
    num_workers=st.integers(1, 3),
    payload_kind=st.sampled_from(sorted(PAYLOADS)),
    combine=st.sampled_from([None, "min", "pair"]),
    schedule=st.sampled_from([None, 1, 2]),
)
# Equal-repr sources on two workers, point sends and a compact broadcast
# into one target, and 0.0 / -0.0 under MinCombiner: the winner is the
# message canonical order puts first.
@example(
    program={
        Tagged("x", 0): (1, ["a"], [("point", "a", 1), ("broadcast", None, 0)]),
        Tagged("x", 1): (0, ["a"], [("point", "a", 0), ("broadcast", None, 1)]),
        "a": (0, [], []),
    },
    num_workers=2, payload_kind="floats", combine="min", schedule=None,
)
# A dirty worker's explicit broadcast to a ghost, mixed with a point send
# to that ghost from another worker and a pickled payload.
@example(
    program={
        0: (0, [1], [("rewire", "ghost", 0), ("broadcast", None, 4)]),
        1: (1, [], [("point", "ghost", 7), ("point", 0, 2)]),
    },
    num_workers=2, payload_kind="mixed", combine=None, schedule=2,
)
@settings(max_examples=40, deadline=None)
def test_flat_settle_delivers_the_reference_inboxes(
    backend, program, num_workers, payload_kind, combine, schedule
):
    if combine == "min" and payload_kind != "floats":
        combine = "pair"
    combiner = {None: None, "min": MinCombiner(), "pair": PairUp()}[combine]
    if schedule is not None:
        schedule = PermutationSchedule(schedule, seed=5)
    payloads = PAYLOADS[payload_kind]
    graph = _graph(program)
    partitioner = Placed(num_workers, {v: o for v, (o, _, _) in program.items()})

    result = run_computation(
        lambda: RunProgram(program, payloads), graph,
        partitioner=partitioner, executor=BACKENDS[backend],
        combiner=combiner, delivery_schedule=schedule, max_supersteps=3,
    )

    reference = canonical(_reference_sends(program, graph, num_workers, payloads))
    reference.settle(SUPERSTEP, schedule, combiner)
    delivered = {
        vertex_id: value
        for vertex_id, value in result.vertex_values.items()
        if value != UNSET
    }
    assert delivered == reference.inboxes
    # ``0.0 == -0.0`` and ``1 == True``: the reprs pin the payloads, and
    # the equal-repr Tagged sources are told apart by ``==`` above.
    assert {t: repr(inbox) for t, inbox in delivered.items()} == {
        t: repr(inbox) for t, inbox in reference.inboxes.items()
    }
