"""Message spill runs as packed columns, delivered values-first.

Under ``store="spill"`` a worker's sends go into a :class:`RunOutbox`
that cuts them by *destination partition* as they are emitted — the
partition comes from the engine's location map, the same lookup that
answers "does the target exist?", so nothing is hashed per message.
Whenever the outbox holds :data:`RUN_CHUNK_ENTRIES` messages it appends
one **section** per touched partition to the worker's run file and
forgets them, so emission memory stays bounded however many messages a
superstep produces. There is one run file per worker per delivery
superstep, ``<base>/runs/s<s>/w<w>.run``::

    run file   := b"MRN2" section* directory u64be(offset of directory)
    section    := u32be payload_len | u8 kind | payload      (GCF1 framing)
    run        := u32be partition | u32be ids_len
                  | pickle((targets, sources)) | value column
    directory  := (u32be partition | u64be offset | u32be length)*

A run section holds the messages one chunk addressed to one partition,
in emission order, as three parallel columns; the value column is a
:func:`~repro.pregel.columnar.encode_values` column (typed arrays for
float/int payloads, the counted pickle fallback for everything else).
Nothing is sorted on the write side.

Delivery (:meth:`SpilledMessageStore.load_partition`) reads a
partition's sections in (worker id, chunk) order — ranged reads located
by the in-file directories — and stably sorts the concatenated columns
by ``repr(source)`` while grouping them by target. That is exactly the
in-memory plane's canonical inbox order: worker outboxes concatenated in
worker-id order, each inbox stably sorted by ``repr(source)``, ties
falling back to ``(worker id, emission order)``. The grouped partition
is a :class:`~repro.pregel.messages.MessageStore`, settled by the same
routine as the in-memory barrier's; ``compute()`` is served its value
lists directly, and ``(source, value)`` pairs exist only if a debugger
iterates an inbox.
"""

import pickle
import struct

from repro.common.errors import PregelError
from repro.pregel.columnar import decode_column, encode_values
from repro.pregel.messages import MessageStore

RUN_MAGIC = b"MRN2"
SECTION_RUN = 1
SECTION_DIRECTORY = 2

#: Buffered messages per outbox before a chunk is cut into sections.
RUN_CHUNK_ENTRIES = 16384

_SECTION_HEAD = struct.Struct(">IB")   # payload length, kind
_RUN_HEAD = struct.Struct(">II")       # partition id, length of the ids pickle
_DIRECTORY_ENTRY = struct.Struct(">IQI")  # partition id, section offset, length
_TRAILER = struct.Struct(">Q")         # offset of the directory section


def run_directory(base, superstep):
    return f"{base}/runs/s{superstep:05d}"


def run_path(base, superstep, worker_id):
    return f"{run_directory(base, superstep)}/w{worker_id:03d}.run"


class RunOutbox:
    """One worker's partition-cut outbox for one delivery superstep.

    The spill plane's counterpart of
    :class:`~repro.pregel.columnar.ColumnarOutbox` behind the same
    ``_WorkerServices``; there is no reverse index to expand a compact
    broadcast against, so every fan-out is filed per target.

    ``deferred=True`` (the process backend) buffers the run file in a
    private in-memory filesystem; :meth:`shipped_file` hands the bytes
    to the parent, which installs them verbatim (offsets are
    file-relative).

    A target absent from ``locations`` *at emit time* is counted in
    ``suspect_counts`` — the resolver's work list. The barrier re-checks
    suspects after graph mutations, so a vertex created at the same
    barrier still receives its messages, exactly as the in-memory
    plane's ``missing_targets`` scan behaves.
    """

    compact_broadcasts = False

    def __init__(self, filesystem, path, partitioner, locations,
                 chunk_entries=RUN_CHUNK_ENTRIES, deferred=False):
        if deferred:
            from repro.simfs.filesystem import SimFileSystem

            filesystem = SimFileSystem()
        self._fs = filesystem
        self.path = path
        self._partitioner = partitioner
        self._locations = locations
        self._chunk_entries = chunk_entries
        self._deferred = deferred
        # partition id -> flat [target, source, value, target, ...]
        self._buffers = {}
        self._buffered = 0
        self._directory = []
        self._offset = 0
        self.pickle_fallbacks = 0
        self.suspect_counts = {}

    def _missing_partition(self, target):
        counts = self.suspect_counts
        counts[target] = counts.get(target, 0) + 1
        return self._partitioner.partition_for(target)

    def add_point(self, source, target, value):
        self.add_broadcast_explicit(source, (target,), value)

    def add_broadcast_explicit(self, source, targets, value):
        buffers = self._buffers
        partition_of = self._locations.get
        for target in targets:
            partition_id = partition_of(target)
            if partition_id is None:
                partition_id = self._missing_partition(target)
            buffer = buffers.get(partition_id)
            if buffer is None:
                buffer = buffers[partition_id] = []
            buffer += (target, source, value)
        self._buffered += len(targets)
        if self._buffered >= self._chunk_entries:
            self._flush()

    def _flush(self):
        """Cut the buffered chunk into one section per touched partition."""
        parts = [RUN_MAGIC] if not self._offset else []
        offset = self._offset or len(RUN_MAGIC)
        for partition_id, flat in self._buffers.items():
            values, fell_back = encode_values(flat[2::3])
            self.pickle_fallbacks += fell_back
            ids = pickle.dumps((flat[0::3], flat[1::3]), protocol=4)
            length = _RUN_HEAD.size + len(ids) + len(values)
            parts += (
                _SECTION_HEAD.pack(length, SECTION_RUN),
                _RUN_HEAD.pack(partition_id, len(ids)), ids, values,
            )
            length += _SECTION_HEAD.size
            self._directory.append((partition_id, offset, length))
            offset += length
        self._buffers = {}
        self._buffered = 0
        self._append(b"".join(parts))

    def _append(self, data):
        if not self._offset:
            self._fs.create(self.path, overwrite=True)
        self._fs.append_bytes(self.path, data)
        self._offset += len(data)

    def seal(self):
        """Flush the last chunk and close the file with its directory.

        A worker that sent nothing writes no file at all.
        """
        if self._buffered:
            self._flush()
        if not self._directory:
            return
        directory = b"".join(
            _DIRECTORY_ENTRY.pack(*entry) for entry in self._directory
        )
        self._append(b"".join((
            _SECTION_HEAD.pack(len(directory), SECTION_DIRECTORY),
            directory, _TRAILER.pack(self._offset),
        )))
        self._directory = []

    def shipped_file(self):
        """Deferred mode: the sealed run file as ``(path, bytes)``."""
        if not self._deferred or not self._fs.exists(self.path):
            return None
        return self.path, self._fs.read_bytes(self.path)


def read_directory(filesystem, path):
    """``[(partition id, offset, length)]`` of one sealed run file."""
    size = filesystem.stat(path).size
    tail = filesystem.read_range(path, size - _TRAILER.size, _TRAILER.size)
    (offset,) = _TRAILER.unpack(tail)
    blob = filesystem.read_range(path, offset, size - _TRAILER.size - offset)
    length, kind = _SECTION_HEAD.unpack_from(blob)
    if kind != SECTION_DIRECTORY or length != len(blob) - _SECTION_HEAD.size:
        raise PregelError(f"message run {path!r} has no sealed directory")
    return list(_DIRECTORY_ENTRY.iter_unpack(blob[_SECTION_HEAD.size:]))


def decode_run_section(blob):
    """One run section to ``(targets, sources, values)`` column lists."""
    length, kind = _SECTION_HEAD.unpack_from(blob)
    if kind != SECTION_RUN or length != len(blob) - _SECTION_HEAD.size:
        raise PregelError("torn or mislabelled message run section")
    start = _SECTION_HEAD.size + _RUN_HEAD.size
    _partition_id, ids_len = _RUN_HEAD.unpack_from(blob, _SECTION_HEAD.size)
    targets, sources = pickle.loads(blob[start:start + ids_len])
    values, _fell_back = decode_column(blob[start + ids_len:])
    return targets, sources, values


class SpilledMessageStore:
    """The spill plane's superstep message store.

    Holds no message bytes itself — only where each partition's run
    sections lie (read once from the run files' directories), the
    routed-message total, and the resolver's dropped set.
    :meth:`load_partition` groups one partition's messages into a
    :class:`~repro.pregel.messages.MessageStore` — each worker gets its
    own, so there is no shared mutable cursor between steps — and
    settles it with the routine the in-memory barrier uses
    (:meth:`MessageStore.settle
    <repro.pregel.messages.MessageStore.settle>`).
    """

    def __init__(self, filesystem, base, superstep, num_partitions,
                 total_messages=0, suspect_counts=None, combiner=None,
                 schedule=None):
        self.filesystem = filesystem
        self.superstep = superstep
        self.num_partitions = num_partitions
        self.total_messages = total_messages
        # target -> in-flight messages, for every target some outbox did
        # not find in the location map (the resolver's candidates).
        self._suspect_counts = suspect_counts if suspect_counts is not None else {}
        self._combiner = combiner
        self._schedule = schedule
        self._dropped = set()
        # partition id -> [(path, offset, length)] in (worker, chunk) order
        self._sections = {}
        for path in filesystem.glob_files(
            run_directory(base, superstep), suffix=".run"
        ):
            for partition_id, offset, length in read_directory(
                filesystem, path
            ):
                self._sections.setdefault(partition_id, []).append(
                    (path, offset, length)
                )

    def _columns(self, partition_id):
        """A partition's undropped messages as three concatenated columns."""
        targets, sources, values = [], [], []
        for path, offset, length in self._sections.get(partition_id, ()):
            section = decode_run_section(
                self.filesystem.read_range(path, offset, length)
            )
            targets += section[0]
            sources += section[1]
            values += section[2]
        dropped = self._dropped
        if dropped and not dropped.isdisjoint(targets):
            keep = [i for i, t in enumerate(targets) if t not in dropped]
            targets = [targets[i] for i in keep]
            sources = [sources[i] for i in keep]
            values = [values[i] for i in keep]
        return targets, sources, values

    def load_partition(self, partition_id):
        targets, sources, values = self._columns(partition_id)
        # One stable sort by repr(source) over the whole partition, then
        # grouping in that order, leaves every inbox canonically ordered.
        keys = list(map(repr, sources))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        view = MessageStore()
        view.deliver_columns(sources, targets, values, order)
        return view.settle(self.superstep, self._schedule, self._combiner)

    def has_messages(self):
        return self.total_messages > 0

    def missing_targets(self, locations):
        """Suspects that (still) do not exist: the resolver's work list."""
        return [t for t in self._suspect_counts if t not in locations]

    def drop_inbox(self, target):
        """Resolver policy ``drop``: discard a missing target's messages."""
        self._dropped.add(target)
        self.total_messages -= self._suspect_counts[target]

    def suspect_removed(self, located_ids):
        """Count the in-flight messages to vertices a barrier just removed.

        ``located_ids`` are ``(vertex id, partition id)`` pairs. No outbox
        suspected them — they existed when the messages were sent — yet
        a message still addressed to one must now recreate it or be
        dropped. Reads only the partitions the ids lived in.
        """
        wanted = {}
        for vertex_id, partition_id in located_ids:
            wanted.setdefault(partition_id, set()).add(vertex_id)
        counts = self._suspect_counts
        for partition_id, ids in sorted(wanted.items()):
            for target in self._columns(partition_id)[0]:
                if target in ids:
                    counts[target] = counts.get(target, 0) + 1

    def iter_checkpoint_messages(self):
        """``(source, target, value)`` for every undropped in-flight message.

        Per-target order is the delivered order (canonical, permuted and
        combined as configured), which is what a checkpoint must
        preserve: restore re-delivers in file order and the re-executed
        superstep consumes inboxes as delivered.
        """
        for partition_id in range(self.num_partitions):
            view = self.load_partition(partition_id)
            yield from view.iter_checkpoint_messages()
