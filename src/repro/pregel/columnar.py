"""Columnar message columns (the in-memory data plane).

Following Pregelix's columnar discipline (Ammar & Özsu's cross-system
analysis), messages live off the object heap as typed columns backed by
:mod:`array`: each worker's step fills a :class:`ColumnarOutbox`, and the
barrier absorbs the live outboxes, in worker-id order, into one
:class:`ColumnarMessageStore` that stays packed until a vertex reads its
inbox.

**Value columns** (:class:`ColumnBuilder` / :func:`encode_values` /
:func:`decode_column`): a value column holds a homogeneous run of
built-in payloads — ``float`` as a packed ``array('d')``, ``int`` as
``array('q')``, fixed-width integers
(:class:`~repro.pregel.value_types.Short16` and friends) as their wrapped
``int`` payloads plus a class tag, ``str`` as a compact list. A column
that sees a second type, an overflowing int, or an arbitrary object
degrades to a pickled fallback list — counted, never fatal. The byte
codec is what the spill plane's pages and run files store.

Vertex ids are referenced as indices into the run-global
:class:`VertexInterner`, so the canonical ``repr`` of every id is
computed once per run and the store's sorts compare ints.

Determinism
-----------
Canonical inbox order (worker outboxes merged in worker-id order, then
each inbox sorted) is a stable sort on ``repr(source)``; ties (equal
reprs) fall back to merge position, i.e. ``(worker id, emission order)``.
``tests/reference_delivery.py`` states it the slow, obvious way. The
columnar store reproduces exactly that order: point sends are grouped by
one stable sort of the concatenated worker columns on integer ``(target
rank, source repr rank)`` keys, broadcast expansion walks in-neighbor
lists pre-sorted by ``(repr, worker, load order)``, and a target that
receives both merges them on ``(repr rank, worker id, emission seq)`` —
so canonical trace digests are byte-identical across backends and worker
counts. The determinism suite and graft-san pin this.
"""

import pickle
from array import array
from collections import Counter

from repro.common.errors import PregelError
from repro.pregel.messages import IncomingView, MessageStore
from repro.pregel.value_types import Int32, Long64, Short16

# Column tags (first byte of an encoded value column).
COL_EMPTY = 0
COL_F64 = 1
COL_I64 = 2
COL_FIXED = 3
COL_STR = 4
COL_OBJ = 5  # pickled fallback list — counted in transport metrics

# -- fixed-width payload codecs -------------------------------------------

#: Exact class <-> bits tag. Populated via :func:`register_fixed_width`;
#: Short16/Int32/Long64 are registered below, by the module that decodes
#: the tag, so a page, run or checkpoint column written by another
#: process always finds them.
_FIXED_BY_CLASS = {}
_FIXED_BY_BITS = {}


def register_fixed_width(cls, bits):
    """Register a fixed-width int class for the columnar fast path.

    The class must expose ``to_payload() -> {"value": int}`` and a
    ``from_payload`` constructor (the trace-codec hooks); the column stores
    only the wrapped integer plus this tag, so batches of Short16 counters
    never touch :class:`~repro.common.serialization.ValueCodec`.
    """
    _FIXED_BY_CLASS[cls] = bits
    _FIXED_BY_BITS[bits] = cls
    return cls


# Batches of these ride an int64 column (the wrapped payload plus a width
# tag) instead of per-object codec dispatch — the random-walk scenario's
# Short16 counters ship packed like plain ints.
for _cls in (Short16, Int32, Long64):
    register_fixed_width(_cls, _cls.BITS)


# =====================================================================
# Vertex id interning
# =====================================================================


class VertexInterner:
    """Run-global dictionary column: vertex id <-> dense u32 index.

    Built once by the engine at load (vertices *and* edge targets), then
    grown append-only as vertices are created at barriers, so the store
    references ids as dense ints and the canonical ``repr`` of every id
    is computed exactly once per run.
    """

    __slots__ = ("ids", "index", "reprs")

    def __init__(self):
        self.ids = []
        self.index = {}
        self.reprs = []

    def intern(self, vertex_id):
        idx = self.index.get(vertex_id)
        if idx is None:
            idx = len(self.ids)
            self.index[vertex_id] = idx
            self.ids.append(vertex_id)
            self.reprs.append(repr(vertex_id))
        return idx

    def get(self, vertex_id):
        return self.index.get(vertex_id)

    def __len__(self):
        return len(self.ids)


# =====================================================================
# Value columns
# =====================================================================


class ColumnBuilder:
    """Append-only typed value column with transparent fallback.

    Starts empty; adopts the type of the first value appended. A type
    mismatch, an int wider than 64 bits, or an unregistered object class
    degrades the whole column to a plain Python list that will be pickled
    (``COL_OBJ``) — correctness is never at stake, only compactness.
    """

    __slots__ = ("kind", "data", "fixed_bits")

    def __init__(self):
        self.kind = COL_EMPTY
        self.data = None
        self.fixed_bits = 0

    def append(self, value):
        kind = self.kind
        cls = value.__class__
        if kind == COL_F64:
            if cls is float:
                self.data.append(value)
                return
        elif kind == COL_I64:
            if cls is int:
                try:
                    self.data.append(value)
                    return
                except OverflowError:
                    pass
        elif kind == COL_FIXED:
            if _FIXED_BY_CLASS.get(cls) == self.fixed_bits:
                self.data.append(value.value)
                return
        elif kind == COL_STR:
            if cls is str:
                self.data.append(value)
                return
        elif kind == COL_OBJ:
            self.data.append(value)
            return
        elif kind == COL_EMPTY:
            self._start(cls, value)
            return
        self._degrade(value)

    def _start(self, cls, value):
        if cls is float:
            self.kind = COL_F64
            self.data = array("d", (value,))
        elif cls is int:
            self.kind = COL_I64
            try:
                self.data = array("q", (value,))
            except OverflowError:
                self.kind = COL_OBJ
                self.data = [value]
        elif cls is str:
            self.kind = COL_STR
            self.data = [value]
        elif cls in _FIXED_BY_CLASS:
            self.kind = COL_FIXED
            self.fixed_bits = _FIXED_BY_CLASS[cls]
            self.data = array("q", (value.value,))
        else:
            self.kind = COL_OBJ
            self.data = [value]

    def _degrade(self, value):
        """Convert to the pickled-list representation and append."""
        if self.kind == COL_FIXED:
            cls = _FIXED_BY_BITS[self.fixed_bits]
            self.data = [cls(v) for v in self.data]
        elif self.kind in (COL_F64, COL_I64):
            self.data = self.data.tolist()
        self.kind = COL_OBJ
        self.data.append(value)

    def __len__(self):
        return 0 if self.data is None else len(self.data)

    def encode(self):
        """Serialize to ``tag byte + payload`` bytes."""
        kind = self.kind
        if kind == COL_EMPTY:
            return b"\x00"
        if kind == COL_F64 or kind == COL_I64:
            return bytes((kind,)) + self.data.tobytes()
        if kind == COL_FIXED:
            return bytes((kind, self.fixed_bits)) + self.data.tobytes()
        # str / obj: a flat pickled list of scalars — C-speed both ways,
        # no per-object codec dispatch, decoding yields exact values.
        return bytes((kind,)) + pickle.dumps(self.data, protocol=4)

    def values(self):
        """Decode the live column to a plain value list (no byte round-trip).

        Used by the barrier, where encoding to bytes would be pure
        waste.
        """
        kind = self.kind
        if kind == COL_EMPTY:
            return []
        if kind == COL_F64 or kind == COL_I64:
            return self.data.tolist()
        if kind == COL_FIXED:
            cls = _FIXED_BY_BITS[self.fixed_bits]
            return [cls(v) for v in self.data]
        return list(self.data)


def encode_values(values):
    """Encode a value list as one :class:`ColumnBuilder` column, returning
    ``(bytes, fell_back)``; an all-``float`` or all-``int`` list — the
    common payloads — is packed in one C-level pass."""
    classes = set(map(type, values))
    try:
        if classes == {float}:
            return bytes((COL_F64,)) + array("d", values).tobytes(), False
        if classes == {int}:
            return bytes((COL_I64,)) + array("q", values).tobytes(), False
    except OverflowError:
        pass
    column = ColumnBuilder()
    for value in values:
        column.append(value)
    return column.encode(), column.kind == COL_OBJ


def decode_column(blob):
    """Decode an encoded column to ``(list of values, was_fallback)``."""
    kind = blob[0]
    if kind == COL_EMPTY:
        return [], False
    if kind == COL_F64:
        return _decode_numeric("d", blob, 1), False
    if kind == COL_I64:
        return _decode_numeric("q", blob, 1), False
    if kind == COL_FIXED:
        cls = _FIXED_BY_BITS.get(blob[1])
        if cls is None:
            raise PregelError(
                f"column references unregistered fixed-width tag {blob[1]}"
            )
        raw = _decode_numeric("q", blob, 2)
        make = cls.__new__
        out = []
        for v in raw:
            obj = make(cls)
            object.__setattr__(obj, "value", v)
            out.append(obj)
        return out, False
    if kind == COL_STR:
        return pickle.loads(blob[1:]), False
    if kind == COL_OBJ:
        return pickle.loads(blob[1:]), True
    raise PregelError(f"unknown column tag {kind}")


def _decode_numeric(typecode, blob, offset):
    col = array(typecode)
    col.frombytes(blob[offset:])
    return col.tolist()


# =====================================================================
# Emit-time columnar outbox
# =====================================================================


class ColumnarOutbox:
    """Per-worker outbox that accumulates packed columns at emit time.

    The two hot shapes map to two column sets:

    - point sends append to one flat set of parallel ``point_sources`` /
      ``point_targets`` / ``point_seqs`` lists plus one value column,
      whatever their target — the barrier groups them by destination
      with one sort;
    - broadcasts append **one compact record** ``(source, seq, value)``;
      the receiver expands them against the reverse adjacency, so a
      fan-out of ten thousand neighbors is stored once. When the
      worker's adjacency has been mutated this superstep
      (``edges_dirty``), broadcasts degrade to explicit point entries
      (one per target, sharing one seq), because the engine's reverse
      index no longer matches the emit-time neighbor snapshot.

    ``seq`` is the worker's emission counter; one broadcast consumes one
    seq for its whole fan-out. Per ``(worker, target)`` pair the seqs are
    strictly increasing in emission order, which is exactly the tie-break
    the canonical inbox sort needs.
    """

    __slots__ = ("point_sources", "point_targets", "point_seqs",
                 "point_column", "bcast_sources", "bcast_seqs",
                 "bcast_column", "seq", "messages")

    #: The engine-side reverse index expands ``add_broadcast`` records.
    compact_broadcasts = True

    def __init__(self):
        self.point_sources = []
        self.point_targets = []
        self.point_seqs = []
        self.point_column = ColumnBuilder()
        self.bcast_sources = []
        self.bcast_seqs = []
        self.bcast_column = ColumnBuilder()
        self.seq = 0
        self.messages = 0

    def add_point(self, source, target, value):
        seq = self.seq
        self.seq = seq + 1
        self.point_sources.append(source)
        self.point_targets.append(target)
        self.point_seqs.append(seq)
        self.point_column.append(value)
        self.messages += 1

    def add_broadcast(self, source, value, fan_out):
        seq = self.seq
        self.seq = seq + 1
        self.bcast_sources.append(source)
        self.bcast_seqs.append(seq)
        self.bcast_column.append(value)
        self.messages += fan_out

    def add_broadcast_explicit(self, source, targets, value):
        """Dirty-adjacency fallback: file the fan-out as point entries."""
        seq = self.seq
        self.seq = seq + 1
        count = len(targets)
        self.point_sources += [source] * count
        self.point_targets += targets
        self.point_seqs += [seq] * count
        append = self.point_column.append
        for _ in range(count):
            append(value)
        self.messages += count

    def batch_count(self):
        """Packed column sets held: the point columns + the bcast column."""
        return (1 if self.point_targets else 0) + (1 if self.bcast_sources else 0)

    @property
    def pickle_fallbacks(self):
        """Value columns that degraded to the pickled-object fallback."""
        return (
            (self.point_column.kind == COL_OBJ)
            + (self.bcast_column.kind == COL_OBJ)
        )


# =====================================================================
# Engine-side run state: interner + reverse adjacency
# =====================================================================


class ReverseIndex:
    """The reverse adjacency one superstep's compact broadcasts expand
    against, built on its first read.

    ``in_lists`` maps a target idx to its in-neighbors' idxs, sorted by
    ``(repr, owning worker, load order)``; ``missing_out`` maps a source
    idx to its out-edge targets that did not exist when the index was
    made (resolver candidates). Both are a pure function of the
    adjacency the index was made under, so whichever reader comes first —
    the barrier's resolver pass or a step reading its inbox — builds the
    same index. The engine builds it before that adjacency changes under
    it (:meth:`build`): at a worker's first edge edit of a superstep.
    A job that never broadcasts never builds one.
    """

    __slots__ = ("_run_state", "_workers", "_locations", "_dangling",
                 "_in_lists", "_missing_out")

    def __init__(self, run_state, workers, locations, dangling):
        self._run_state = run_state
        self._workers = workers
        self._locations = locations
        #: Whether any edge target was missing when the index was made;
        #: without one, ``missing_out`` is empty and needs no edge walk.
        self._dangling = dangling
        self._in_lists = None
        self._missing_out = None if dangling else {}

    @property
    def built(self):
        return self._in_lists is not None

    @property
    def in_lists(self):
        if self._in_lists is None:
            self.build()
        return self._in_lists

    @property
    def missing_out(self):
        if self._missing_out is None:
            self.build()
        return self._missing_out

    def build(self):
        """Build from the workers' adjacency now (no-op once built)."""
        if self._in_lists is not None:
            return
        index = self._run_state.interner.index
        in_lists = {}
        for worker in self._workers:
            for source_id, edge_map in worker.edges.items():
                s_idx = index[source_id]
                for target in edge_map:
                    t_idx = index[target]
                    lst = in_lists.get(t_idx)
                    if lst is None:
                        in_lists[t_idx] = [s_idx]
                    else:
                        lst.append(s_idx)
        rank = self._run_state.ranks()[0]
        for lst in in_lists.values():
            lst.sort(key=rank.__getitem__)
        self._in_lists = in_lists
        if self._missing_out is None:
            locations = self._locations
            missing_out = {}
            for worker in self._workers:
                for source_id, edge_map in worker.edges.items():
                    missing = tuple(t for t in edge_map if t not in locations)
                    if missing:
                        missing_out[index[source_id]] = missing
            self._missing_out = missing_out


class ColumnarRunState:
    """Everything the columnar plane derives from the graph topology.

    Owned by the engine. The interner and the canonical ranks are brought
    up to date at the top of every superstep after a topology change
    (:meth:`ensure_index`); the reverse-adjacency index a compact
    broadcast record expands against (:class:`ReverseIndex`, ``index``)
    is made there too, but built only when something reads it.
    """

    def __init__(self):
        self.interner = VertexInterner()
        self.index = ReverseIndex(self, (), {}, False)
        self._stale = True
        self._load_order = {}
        self._rank = []
        self._repr_rank = []

    # -- build --------------------------------------------------------

    def ensure_index(self, workers, locations):
        if self._stale:
            self._build(workers, locations)

    def _build(self, workers, locations):
        interner = self.interner
        intern = interner.intern
        known = interner.index
        load_order = {}
        for worker in workers:
            for source_id, edge_map in worker.edges.items():
                load_order[intern(source_id)] = len(load_order)
                for target in edge_map:
                    if target not in known:
                        intern(target)
        # Canonical source order per inbox: (repr, owning worker, load
        # order) — compute order, so equal reprs tie by emission.
        self._load_order = load_order
        self._rank_ids()
        dangling = len(interner) > len(locations) and any(
            vertex_id not in locations for vertex_id in interner.ids
        )
        self.index = ReverseIndex(self, workers, locations, dangling)
        self._stale = False

    def _rank_ids(self):
        reprs = self.interner.reprs
        load_order = self._load_order
        order = sorted(
            range(len(reprs)),
            key=lambda i: (reprs[i], load_order.get(i, -1)),
        )
        rank = [0] * len(reprs)
        repr_rank = [0] * len(reprs)
        first, previous = 0, None
        for position, idx in enumerate(order):
            text = reprs[idx]
            if text != previous:
                first, previous = position, text
            rank[idx] = position
            repr_rank[idx] = first
        self._rank = rank
        self._repr_rank = repr_rank
        return rank

    def ranks(self):
        """``(rank, repr_rank)``: two int keys per interned id, so sorts
        by ``repr`` compare ints. ``rank`` is unique, ordered by ``(repr,
        load order)``; ``repr_rank`` is equal exactly for equal reprs.
        Recomputed when the interner has grown since they were made."""
        if len(self._rank) != len(self.interner):
            self._rank_ids()
        return self._rank, self._repr_rank

    # -- engine hooks -------------------------------------------------

    def invalidate(self):
        """Adjacency changed: rebuild the reverse index before next use.

        The engine calls this whenever a barrier applied explicit vertex
        mutations or a worker reported ``edges_dirty``. A rebuild makes a
        fresh :class:`ReverseIndex`, and a :class:`ColumnarMessageStore`
        pins the one it was built under, so no compact broadcast record
        ever expands against an index newer than its emit-time adjacency.
        """
        self._stale = True

    def note_vertex_added(self, vertex_id):
        """Intern a vertex created at a barrier (index itself is unaffected:
        a brand-new vertex has no in- or out-edges until it mutates)."""
        self.interner.intern(vertex_id)


# =====================================================================
# The columnar message store (receiver side)
# =====================================================================


class ColumnarMessageStore:
    """One superstep's messages, kept packed until a vertex reads them.

    Built at the barrier by absorbing the live :class:`ColumnarOutbox`
    of every worker **in worker-id order**. Messages live as:

    - ``_bcast``: source idx -> ``[(worker_id, seq, value)]`` compact
      broadcast records, expanded per receiver against the reverse-
      adjacency index they were emitted under;
    - point columns: every worker's point sends concatenated in worker-id
      order as parallel source idx / target idx / worker / seq / value
      lists, grouped by destination with one stable sort on first read
      (:meth:`_point_inboxes`).

    A broadcast-only inbox's values materialize lazily and memoize, in
    the next superstep's step that reads them.

    Canonical order: an inbox's reference order is the stable sort by
    ``repr(source)`` over worker-id-merge order, i.e. exactly
    ``(repr(source), worker_id, emission seq)``. The point sort keys on
    ``(target rank, source repr rank)`` — ints from
    :meth:`ColumnarRunState.ranks` — and stability supplies the rest; the
    pure-broadcast path walks in-neighbor lists pre-sorted by source rank;
    a target that receives both merges the two on the explicit triple.
    """

    #: A packed store is unpermuted and uncombined (see :meth:`settled`).
    eliminated = 0
    permuted = 0

    def __init__(self, run_state):
        self._run_state = run_state
        self._interner = run_state.interner
        # Pinned, not read through ``run_state``: inboxes are read one
        # superstep after emission, by which time a sender that rewired
        # its edges has had the index rebuilt from post-mutation adjacency.
        self._index = run_state.index
        self._bcast = {}
        self._sources = []
        self._targets = []
        self._workers = []
        self._seqs = []
        self._values = []
        self._point = None
        self._values_cache = {}
        self.total_messages = 0

    # -- absorption (barrier, worker-id order) -------------------------

    def absorb_outbox(self, worker_id, outbox):
        """Merge one worker's live outbox."""
        index = self._interner.index
        self._absorb_bcast(worker_id, zip(
            [index[source] for source in outbox.bcast_sources],
            outbox.bcast_seqs, outbox.bcast_column.values(),
        ))
        if outbox.point_targets:
            self._absorb_points(
                worker_id,
                [index[s] for s in outbox.point_sources],
                self._intern_all(outbox.point_targets),
                outbox.point_seqs,
                outbox.point_column.values(),
            )
        self.total_messages += outbox.messages

    def _absorb_bcast(self, worker_id, records):
        """File ``(source idx, seq, value)`` compact broadcast records."""
        bcast = self._bcast
        for s_idx, seq, value in records:
            lst = bcast.get(s_idx)
            if lst is None:
                bcast[s_idx] = [(worker_id, seq, value)]
            else:
                lst.append((worker_id, seq, value))

    def _intern_all(self, targets):
        """Target ids as interner indices. A target that does not exist
        yet is interned here, so it sorts like any other."""
        index = self._interner.index
        try:
            return [index[t] for t in targets]
        except KeyError:
            return list(map(self._interner.intern, targets))

    def _absorb_points(self, worker_id, sources, targets, seqs, values):
        self._sources += sources
        self._targets += targets
        self._workers += [worker_id] * len(targets)
        self._seqs += seqs
        self._values += values
        self._point = None

    # -- grouping -----------------------------------------------------

    def _point_inboxes(self):
        """``{target id: (sources, values)}`` for every target of a point
        send, each inbox complete and canonical, in target rank order.

        One stable sort of the concatenated columns on ``(target rank,
        source repr rank)`` groups them by destination and orders each
        group by ``repr(source)``; equal reprs keep worker-merge order,
        which is ``(worker, seq)``. A target that also receives compact
        broadcasts merges them in on the explicit triple (:meth:`_merged`).
        Memoized in ``_point`` until the next absorption; the barrier's
        resolver pass usually builds it.
        """
        point = self._point
        if point is not None:
            return point
        point = self._point = {}
        targets = self._targets
        if not targets:
            return point
        rank, repr_rank = self._run_state.ranks()
        sources = self._sources
        scale = len(rank)
        keys = [
            rank[t] * scale + repr_rank[s] for t, s in zip(targets, sources)
        ]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        del keys
        ids = self._interner.ids
        values = self._values
        ordered_sources = [ids[sources[i]] for i in order]
        ordered_values = [values[i] for i in order]
        counts = Counter(targets)
        bcast = self._bcast
        # Only a target that also receives compact broadcasts needs the
        # reverse index; a job that never broadcasts never builds it.
        in_lists = self._index.in_lists if bcast else {}
        start = 0
        for t_idx in sorted(counts, key=rank.__getitem__):
            end = start + counts[t_idx]
            if bcast and any(s in bcast for s in in_lists.get(t_idx, ())):
                inbox = self._merged(t_idx, order[start:end])
            else:
                inbox = (ordered_sources[start:end], ordered_values[start:end])
            point[ids[t_idx]] = inbox
            start = end
        return point

    def _merged(self, t_idx, positions):
        """One target's point entries and compact broadcasts, merged.

        Each entry is decorated ``(repr rank, worker_id, seq, source,
        value)``; sorting by the first three fields reproduces the
        reference stable repr-sort over worker-merge order exactly (no
        two entries of one inbox share ``(worker, seq)``).
        """
        _rank, repr_rank = self._run_state.ranks()
        ids = self._interner.ids
        sources, workers = self._sources, self._workers
        seqs, values = self._seqs, self._values
        entries = [
            (repr_rank[sources[i]], workers[i], seqs[i], ids[sources[i]],
             values[i])
            for i in positions
        ]
        bcast = self._bcast
        for s_idx in self._index.in_lists.get(t_idx, ()):
            records = bcast.get(s_idx)
            if records:
                key, source = repr_rank[s_idx], ids[s_idx]
                entries += [
                    (key, wid, seq, source, value)
                    for wid, seq, value in records
                ]
        entries.sort(key=lambda entry: entry[:3])
        return [entry[3] for entry in entries], [entry[4] for entry in entries]

    # -- inbox materialization ----------------------------------------

    def _in_list(self, target):
        t_idx = self._interner.index.get(target)
        if t_idx is None or not self._bcast:
            return ()
        return self._index.in_lists.get(t_idx, ())

    def inbox_values(self, target):
        """Message values for ``target`` in canonical order (memoized)."""
        point = self._point
        if point is None:
            point = self._point_inboxes()
        inbox = point.get(target)
        if inbox is not None:
            return inbox[1]
        cached = self._values_cache.get(target)
        if cached is not None:
            return cached
        # Pure broadcast fan-in: in-neighbors are pre-sorted by (repr,
        # worker, load order) and each source's records are already in
        # (worker, seq) order, so concatenation IS canonical order — no
        # sort, no sources.
        values = []
        if self._bcast:
            append = values.append
            get = self._bcast.get
            for s_idx in self._in_list(target):
                lst = get(s_idx)
                if lst is not None:
                    for record in lst:
                        append(record[2])
        self._values_cache[target] = values
        return values

    def _columns(self, target):
        """``(sources, values)`` for ``target`` in canonical order."""
        inbox = self._point_inboxes().get(target)
        if inbox is not None:
            return inbox
        ids = self._interner.ids
        sources, values = [], []
        get = self._bcast.get
        for s_idx in self._in_list(target):
            lst = get(s_idx)
            if lst is not None:
                sources += [ids[s_idx]] * len(lst)
                values += [record[2] for record in lst]
        return sources, values

    def inbox(self, target):
        """``(source, value)`` pairs for ``target`` in canonical order.

        Only debugger-facing readers (Graft capture, through the
        :class:`~repro.pregel.messages.IncomingView`) ask for them.
        """
        return list(zip(*self._columns(target)))

    # -- store protocol (what the engine/worker/checkpoint consume) ---

    def incoming_view(self, target):
        return IncomingView(self, target)

    def has_inbox(self, target):
        point = self._point
        if point is None:
            point = self._point_inboxes()
        if target in point:
            return True
        if not self._bcast:
            return False
        cached = self._values_cache.get(target)
        if cached is not None:
            return bool(cached)
        get = self._bcast.get
        for s_idx in self._in_list(target):
            if get(s_idx):
                return True
        return False

    def has_messages(self):
        return self.total_messages > 0

    def targets(self):
        """All vertex ids with at least one message, in repr (rank) order.

        Full-materialization consumers only (:meth:`settled`, checkpoint
        writes). The broadcast side is recovered by scanning the reverse
        index for in-neighbors that broadcast this superstep.
        """
        index = self._interner.index
        found = {index[target] for target in self._point_inboxes()}
        bcast = self._bcast
        if bcast:
            for t_idx, sources in self._index.in_lists.items():
                if t_idx not in found and any(s in bcast for s in sources):
                    found.add(t_idx)
        rank, _repr_rank = self._run_state.ranks()
        ids = self._interner.ids
        return [ids[t_idx] for t_idx in sorted(found, key=rank.__getitem__)]

    def missing_targets(self, locations):
        """Message targets that do not currently exist (resolver input).

        Point targets are checked directly; compact broadcasts can only
        reach a missing id along an edge that already dangled at index
        build time, which ``missing_out`` precomputed — so this never
        expands a fan-out.
        """
        missing = {
            target for target in self._point_inboxes()
            if target not in locations
        }
        if self._bcast:
            missing_out = self._index.missing_out
            for s_idx in self._bcast:
                for target in missing_out.get(s_idx, ()):
                    if target not in locations:
                        missing.add(target)
        return missing

    def iter_checkpoint_messages(self):
        """``(source, target, value)`` for every in-flight message, targets
        repr-sorted, each inbox in canonical order."""
        for target in self.targets():
            for source, value in zip(*self._columns(target)):
                yield source, target, value

    def settled(self, superstep, schedule, combiner):
        """Every inbox as columns in a :class:`MessageStore`, settled.

        What a barrier that permutes, combines, mutates the graph or
        drops inboxes works on: the result holds each inbox in canonical
        order, targets repr-sorted, then permuted by ``schedule`` and
        folded by ``combiner`` for delivery at ``superstep`` — the same
        :meth:`MessageStore.settle` the spill plane runs on each
        partition it loads.
        """
        if self._bcast:
            columns = self._columns
            inboxes = {target: columns(target) for target in self.targets()}
        else:
            inboxes = self._point_inboxes()  # already in target rank order
        store = MessageStore()
        store.deliver_inboxes(inboxes)
        return store.settle(superstep, schedule, combiner)

