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
from operator import attrgetter, is_, itemgetter

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
# A record has two encodings with identical field values: the canonical
# JSON line (field names as keys; what digests hold) and the compact v2
# row. Both are written as text in one pass by
# :class:`RecordEncoder`, from the same field texts — so a stored row can
# be re-laid-out as the line, or served under its field names, without
# decoding it: :func:`split_row` cuts a row back into those texts and
# :func:`join_line` lays them out as the line.
#
# Edge maps are written in the codec's order-preserving item form whatever
# their key type (``send_message_to_all_neighbors`` follows edge order, so
# replay needs it); an empty map stays ``{}``.

_VERTEX_KIND = "vertex"
_MASTER_KIND = "master"

KIND_VERTEX = 0
KIND_MASTER = 1

_SCALAR_CLASSES = frozenset((int, float, str, bool, type(None)))
_EXACT_TUPLE = {tuple}
_PAIR_LEN = {2}
_COLUMN_MIN = 8

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
    """The VertexContextRecord field order the v2 row form relies on."""
    return _field_names(VertexContextRecord)


def master_field_names():
    """The MasterContextRecord field order the v2 row form relies on."""
    return _field_names(MasterContextRecord)


def _kind_of(record):
    if isinstance(record, VertexContextRecord):
        return KIND_VERTEX
    if isinstance(record, MasterContextRecord):
        return KIND_MASTER
    raise TypeError(f"not a capture record: {record!r}")


class RecordEncoder:
    """Writes capture records as JSON text for one batch of records.

    Within one batch — one barrier drain into one trace file — many records
    hold the *same object*: the superstep's aggregator snapshot, a
    broadcast's message, an unchanged vertex value. Such an object is
    written once and its text reused, keyed on ``id()``. That is sound only
    while every object of the batch stays alive and unmodified, so an
    encoder must not outlive the batch: the caller keeps the records
    referenced, runs no user code, and drops the encoder afterwards.
    """

    def __init__(self, codec):
        self._codec = codec
        self._dumps = codec.dumps
        self._pair_text = codec.dumps_tuple(("%s", "%s")).__mod__
        self._texts = {}            # id(object) -> its text
        self._edges = {}            # the edges_before written last ...
        self._edges_text = "{}"     # ... and its text

    def row(self, record):
        """The v2 row: ``[kind_code, field_0, field_1, ...]``."""
        kind = _kind_of(record)
        return f"[{kind}," + ",".join(self._field_texts(record, kind)) + "]"

    def line(self, record):
        """The canonical line: an object keyed by field name, plus ``kind``."""
        kind = _kind_of(record)
        return join_line(kind, self._field_texts(record, kind))

    def _field_texts(self, record, kind):
        """The record's field texts, in field order."""
        plain, special, in_field_order = _FIELD_PLANS[kind]
        texts = self._codec.dumps_each(plain(record))
        for name, write in special:
            texts.append(write(self, getattr(record, name)))
        return in_field_order(texts)

    def _shared(self, value):
        if value.__class__ in _SCALAR_CLASSES:
            return self._dumps(value)
        key = id(value)
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = self._dumps(value)
        return text

    def _edges_before(self, value):
        if value.__class__ is not dict or not value:
            return self._dumps(value)
        self._edges = value
        self._edges_text = self._codec.dumps_items(value)
        return self._edges_text

    def _edges_after(self, value):
        # Nearly always a second snapshot of the map edges_before just
        # wrote: the very same key and value objects, in the same order,
        # are the same text.
        before = self._edges
        if (
            value.__class__ is dict
            and len(before) == len(value)
            and all(map(is_, before, value))
            and all(map(is_, before.values(), value.values()))
        ):
            return self._edges_text
        return self._edges_before(value)

    def _pairs(self, pairs):
        """``[(vertex_id, message), ...]``, a broadcast's message written once."""
        if pairs.__class__ is not list:
            return self._dumps(pairs)
        if not pairs:           # most lists of a capture-all run
            return "[]"
        if (
            len(pairs) >= _COLUMN_MIN
            and set(map(type, pairs)) == _EXACT_TUPLE
            and set(map(len, pairs)) == _PAIR_LEN
        ):
            return self._pair_columns(*zip(*pairs))
        dumps = self._dumps
        pair_text = self._pair_text
        texts = []
        last = texts                # no message is this list
        for pair in pairs:
            if pair.__class__ is not tuple or len(pair) != 2:
                texts.append(dumps(pair))
                continue
            if pair[1] is not last:
                last = pair[1]
                message = self._shared(last)
            texts.append(pair_text((dumps(pair[0]), message)))
        return "[" + ",".join(texts) + "]"

    def _pair_columns(self, ids, messages):
        """:meth:`_pairs` of ``zip(ids, messages)``, written by column. A
        message object is written once per batch whatever its class (a hub's
        broadcast reaches many captured receivers) — keyed on ``id()``, never
        on its value: ``0.0`` / ``-0.0`` and ``1`` / ``True`` are equal."""
        texts = self._texts
        keys = list(map(id, messages))
        if not all(map(texts.__contains__, keys)):
            fresh = {k: m for k, m in zip(keys, messages) if k not in texts}
            texts.update(zip(fresh, self._codec.dumps_column(fresh.values())))
        columns = zip(self._codec.dumps_column(ids), map(texts.__getitem__, keys))
        return self._codec.dumps_tuples(columns)


# The vertex-record fields RecordEncoder writes itself; the codec writes
# every other field as it stands.
_VERTEX_WRITERS = {
    "value_before": RecordEncoder._shared,
    "value_after": RecordEncoder._shared,
    "aggregators": RecordEncoder._shared,
    "edges_before": RecordEncoder._edges_before,
    "edges_after": RecordEncoder._edges_after,
    "incoming": RecordEncoder._pairs,
    "sent": RecordEncoder._pairs,
}


def _field_plan(field_names, writers):
    """How :meth:`RecordEncoder._field_texts` writes one record kind.

    The fields the codec writes as they stand go through one
    ``dumps_each``; the others follow, each through its own writer; the
    last element puts the texts back into field order.
    """
    plain = [name for name in field_names if name not in writers]
    special = [name for name in field_names if name in writers]
    written = plain + special
    return (
        attrgetter(*plain),     # a tuple of values: both kinds have several
        tuple((name, writers[name]) for name in special),
        itemgetter(*[written.index(name) for name in field_names]),
    )


_FIELD_PLANS = {
    KIND_VERTEX: _field_plan(vertex_field_names(), _VERTEX_WRITERS),
    KIND_MASTER: _field_plan(master_field_names(), {}),
}


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

    ``field_texts`` is what :func:`split_row` cuts out of a row, in field
    order; a caller may overwrite slots first (the canonical trace merge
    normalizes ``worker_id``).
    """
    kind_text, keys = _LINE_PLANS[kind]
    texts = (*field_texts, kind_text)
    return "{" + ",".join([key + texts[index] for key, index in keys]) + "}"


def record_to_line(record, codec):
    """Serialize a capture record to one JSON line."""
    return RecordEncoder(codec).line(record)


def record_from_line(line, codec):
    """Deserialize one trace line back into a record."""
    payload = codec.loads(line)
    kind = payload.pop("kind")
    if kind == _VERTEX_KIND:
        return VertexContextRecord(**payload)
    if kind == _MASTER_KIND:
        return MasterContextRecord(**payload)
    raise ValueError(f"unknown trace record kind {kind!r}")


# -- compact row form (the v2 trace format) -----------------------------------
#
# The line repeats every field name in every record. The v2 trace format
# instead interns the field names once, in the file header, and stores each
# record as a positional JSON array ``[kind_code, field_0, field_1, ...]``
# — same codec-encoded values, no keys. Both forms decode to identical
# record objects, which is what keeps ``canonical_trace_digest``
# byte-stable across the two encodings.


_scan_json = json.JSONDecoder().scan_once
_ROW_WIDTHS = {
    KIND_VERTEX: len(vertex_field_names()),
    KIND_MASTER: len(master_field_names()),
}


def split_row(text):
    """Cut a v2 row into ``(kind_code, [field text, ...])`` without decoding.

    The row is the record's field texts joined in field order, so slicing
    it at the field boundaries gives back exactly what
    :class:`RecordEncoder` wrote. The boundaries are the offsets the JSON
    scanner stops at: every field is still parsed, and a torn or malformed
    row — or one of an unknown kind or field count — raises ``ValueError``
    instead of yielding a garbled field.
    """
    texts = []
    kind = None
    end = 0
    try:
        if text.startswith("["):
            kind, end = _scan_json(text, 1)
            while text.startswith(",", end):
                start = end + 1
                _value, end = _scan_json(text, start)
                texts.append(text[start:end])
    except StopIteration:       # the text ended inside a value
        kind = None
    width = _ROW_WIDTHS.get(kind) if kind.__class__ is int else None
    if width != len(texts) or text[end:] != "]":
        raise ValueError(f"malformed trace row {text[:60]!r}")
    return kind, texts


def record_from_row(row, codec, vertex_fields=None, master_fields=None):
    """Deserialize a compact positional row back into a record.

    ``vertex_fields`` / ``master_fields`` are the field-name tables from
    the trace file header; they default to the current classes' fields, so
    files written by the same library version decode without a header.
    """
    kind = row[0]
    if kind == KIND_VERTEX:
        names = vertex_fields or _field_names(VertexContextRecord)
        cls = VertexContextRecord
    elif kind == KIND_MASTER:
        names = master_fields or _field_names(MasterContextRecord)
        cls = MasterContextRecord
    else:
        raise ValueError(f"unknown trace record kind code {kind!r}")
    decode = codec.decode
    return cls(**{
        name: value if value.__class__ in _SCALAR_CLASSES else decode(value)
        for name, value in zip(names, row[1:])
    })
