"""Capture records: what Graft writes to trace files.

A :class:`VertexContextRecord` is the full context of one ``compute()``
call — the five pieces of Giraph data the paper lists (id, outgoing edges,
incoming messages, aggregators, global data) as they stood *before* the
call, plus the observed outcome (post-value, post-edges, sent messages,
halt decision), any constraint violations or exception, and the reasons the
vertex was captured. The pre-state is what replay rebuilds; the outcome is
what replay is verified against.

A :class:`MasterContextRecord` is the master's context for one superstep —
"just the aggregator values" (Section 3.4) plus the halt decision.

Records serialize to single JSON lines through the value codec, keeping
trace files small, textual, and diffable.
"""

import json
from dataclasses import dataclass, field, fields

# Decoding a record needs every value type the library registers with the
# codec: ``Violation`` and ``ExceptionRecord`` below, and the fixed-width
# integers a trace written by another process may hold.
import repro.pregel.value_types  # noqa: F401
from repro.common.serialization import register_value_type

# Capture reasons (the paper's five DebugConfig categories + all-active).
REASON_SPECIFIED = "specified"
REASON_RANDOM = "random"
REASON_NEIGHBOR = "neighbor"
REASON_VERTEX_VALUE = "vertex_value_violation"
REASON_MESSAGE = "message_violation"
REASON_EXCEPTION = "exception"
REASON_ALL_ACTIVE = "all_active"
REASON_NEIGHBORHOOD = "neighborhood_violation"


@register_value_type
@dataclass(frozen=True)
class Violation:
    """One constraint violation.

    ``kind`` is ``"message"``, ``"vertex_value"``, or ``"neighborhood"``;
    ``details`` carries the offending data (message value and endpoints, or
    the bad vertex value, or the clashing neighbor).
    """

    kind: str
    vertex_id: object
    superstep: int
    details: dict


@register_value_type
@dataclass(frozen=True)
class ExceptionRecord:
    """A captured exception from a user ``compute()`` call."""

    type_name: str
    message: str
    traceback_text: str

    def summary(self):
        return f"{self.type_name}: {self.message}"


@dataclass
class VertexContextRecord:
    """Full captured context of one ``compute()`` call."""

    vertex_id: object
    superstep: int
    worker_id: int
    # The five pieces of pre-call context:
    value_before: object
    edges_before: dict
    incoming: list           # [(source_id, message_value), ...]
    aggregators: dict        # visible aggregator values this superstep
    num_vertices: int
    num_edges: int
    run_seed: object
    # Observed outcome:
    value_after: object = None
    edges_after: dict = field(default_factory=dict)
    sent: list = field(default_factory=list)   # [(target_id, value), ...]
    halted: bool = False
    # Why it was captured, and what went wrong:
    reasons: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    exception: object = None

    @property
    def key(self):
        """Index key ``(vertex_id, superstep)``."""
        return (self.vertex_id, self.superstep)

    @property
    def active(self):
        """Whether the vertex stayed active after this superstep."""
        return not self.halted

    def summary(self):
        flags = ",".join(self.reasons)
        return (
            f"vertex {self.vertex_id!r} @ superstep {self.superstep} "
            f"[{flags}] value {self.value_before!r} -> {self.value_after!r}, "
            f"{len(self.incoming)} in / {len(self.sent)} out"
        )


@dataclass
class MasterContextRecord:
    """Captured master context for one superstep.

    ``aggregators_before`` is the merged state master_compute() saw when it
    started (what replay rebuilds); ``aggregators`` is the state after it
    ran — what the vertices of this superstep observed (what the GUI's
    aggregator panel shows).
    """

    superstep: int
    aggregators: dict
    aggregators_before: dict = field(default_factory=dict)
    halted: bool = False

    def summary(self):
        halt = " HALT" if self.halted else ""
        return f"master @ superstep {self.superstep}: {self.aggregators!r}{halt}"


# -- serialization -----------------------------------------------------------
#
# A record's *field texts* are the codec text of each field, in field order
# (:func:`field_texts`). Everything textual about a record is laid out from
# them: the canonical JSON line (field names as keys; what digests hold,
# :func:`join_line`), the debug server's record bodies, and the v3 trace
# block, which stores them by column and gives them back per record
# (:mod:`repro.graft.traceformat`).
#
# Edge maps are written in the codec's order-preserving item form whatever
# their key type (``send_message_to_all_neighbors`` follows edge order, so
# replay needs it); an empty map stays ``{}``.

_VERTEX_KIND = "vertex"
_MASTER_KIND = "master"

KIND_VERTEX = 0
KIND_MASTER = 1

_SCALAR_CLASSES = frozenset((int, float, str, bool, type(None)))
_EDGE_FIELDS = ("edges_before", "edges_after")

# fields() walks the dataclass machinery on every call; records are encoded
# in bulk on the capture hot path, so cache the names per record class.
_FIELD_NAME_CACHE = {}


def _field_names(cls):
    names = _FIELD_NAME_CACHE.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls))
        _FIELD_NAME_CACHE[cls] = names
    return names


def vertex_field_names():
    """The VertexContextRecord field order of field texts."""
    return _field_names(VertexContextRecord)


def master_field_names():
    """The MasterContextRecord field order of field texts."""
    return _field_names(MasterContextRecord)


_RECORD_CLASSES = {KIND_VERTEX: VertexContextRecord, KIND_MASTER: MasterContextRecord}


def _kind_of(record):
    if isinstance(record, VertexContextRecord):
        return KIND_VERTEX
    if isinstance(record, MasterContextRecord):
        return KIND_MASTER
    raise TypeError(f"not a capture record: {record!r}")


def field_names_of(kind):
    return _field_names(_RECORD_CLASSES[kind])


def field_text(codec, name, value):
    """The text of one field: the codec's, edge maps in their item form."""
    if name in _EDGE_FIELDS and value.__class__ is dict and value:
        return codec.dumps_items(value)
    return codec.dumps(value)


def field_texts(record, codec):
    """``(kind, [text of each field, in field order])``."""
    kind = _kind_of(record)
    return kind, [
        field_text(codec, name, getattr(record, name))
        for name in field_names_of(kind)
    ]


def _line_plan(field_names, kind_name):
    """``(text of the kind, (('"name":', index of its text), ...))`` with
    the keys — the field names and ``kind``, whose text goes last — sorted."""
    names = field_names + ("kind",)
    keys = tuple((f'"{name}":', names.index(name)) for name in sorted(names))
    return f'"{kind_name}"', keys


_LINE_PLANS = {
    KIND_VERTEX: _line_plan(vertex_field_names(), _VERTEX_KIND),
    KIND_MASTER: _line_plan(master_field_names(), _MASTER_KIND),
}


def join_line(kind, field_texts):
    """The canonical line of a record whose field texts are ``field_texts``.

    ``field_texts`` is in field order; a caller may overwrite slots first
    (the canonical trace merge normalizes ``worker_id``).
    """
    kind_text, keys = _LINE_PLANS[kind]
    texts = (*field_texts, kind_text)
    return "{" + ",".join([key + texts[index] for key, index in keys]) + "}"


def record_to_line(record, codec):
    """Serialize a capture record to one JSON line."""
    return join_line(*field_texts(record, codec))


def record_from_line(line, codec):
    """Deserialize one trace line back into a record."""
    payload = codec.loads(line)
    kind = payload.pop("kind")
    if kind == _VERTEX_KIND:
        return VertexContextRecord(**payload)
    if kind == _MASTER_KIND:
        return MasterContextRecord(**payload)
    raise ValueError(f"unknown trace record kind {kind!r}")


def record_from_row(kind, row, codec, names=None):
    """The record whose field texts ``row`` lists as ``[text,text,...]``,
    in the order of ``names`` (by default the current classes' fields)."""
    values = json.loads(row)
    decode = codec.decode
    return _RECORD_CLASSES[kind](**{
        name: value if value.__class__ in _SCALAR_CLASSES else decode(value)
        for name, value in zip(names or field_names_of(kind), values)
    })


def record_of(kind, names, values):
    """The record of decoded field ``values``, in the order of ``names``."""
    return _RECORD_CLASSES[kind](**dict(zip(names, values)))
