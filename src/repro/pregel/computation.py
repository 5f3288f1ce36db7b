"""The user-facing vertex computation class.

Users subclass :class:`Computation` and implement ``compute(ctx,
messages)`` — the direct analogue of Giraph's ``Computation.compute(vertex,
messages)``. One instance is created per worker (as Giraph creates one per
worker thread), so instance attributes are worker-local scratch space; the
paper's Section 7 warning applies: state smuggled through such attributes
is invisible to Graft's capture and breaks exact replay.
"""


class Computation:
    """Base class for vertex programs."""

    def compute(self, ctx, messages):
        """Process one vertex for one superstep.

        ``ctx`` is a :class:`~repro.pregel.ComputeContext`; ``messages`` is
        the list of message *values* received from the previous superstep
        (Giraph's view). ``ctx.incoming_messages()`` returns them as
        ``(source, value)`` pairs — the debugger-facing view.
        """
        raise NotImplementedError

    def initial_value(self, vertex_id, input_value):
        """Initial vertex value for superstep 0.

        ``input_value`` is the value carried by the input graph (possibly
        None). The default keeps it unchanged.
        """
        return input_value

    def default_vertex_value(self, vertex_id):
        """Value for a vertex auto-created by a message to a missing id.

        Giraph creates destination vertices on demand; this supplies their
        initial value (default None).
        """
        return None

    def pre_superstep(self, worker_info):
        """Giraph's WorkerContext.preSuperstep(): runs once per worker
        before its vertices compute. ``worker_info`` has ``worker_id``,
        ``superstep``, ``num_vertices``, ``num_edges``.

        Caution (the paper's Section 7 limitation, and detectable with
        :func:`repro.graft.verify_run_fidelity`): state computed here and
        consumed inside ``compute()`` lives *outside* the captured vertex
        context, so it breaks exact replay unless it is derivable from the
        context alone.
        """

    def post_superstep(self, worker_info):
        """Giraph's WorkerContext.postSuperstep(): runs once per worker
        after its vertices computed."""


class WorkerInfo:
    """What the per-worker superstep hooks see."""

    __slots__ = ("worker_id", "superstep", "num_vertices", "num_edges")

    def __init__(self, worker_id, superstep, num_vertices, num_edges):
        self.worker_id = worker_id
        self.superstep = superstep
        self.num_vertices = num_vertices
        self.num_edges = num_edges

    def __repr__(self):
        return (
            f"WorkerInfo(worker_id={self.worker_id}, "
            f"superstep={self.superstep})"
        )
