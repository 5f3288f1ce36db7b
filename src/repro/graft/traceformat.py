"""The v2 trace file format: framed records plus an index sidecar.

Records stay textual and diffable once unframed, while random access stays
cheap:

Trace file (``worker-<i>.trace`` / ``master.trace``)::

    #GRAFT2\\n                  8-byte magic line
    u32be len | u8 0 | header   one JSON header frame (uncompressed)
    u32be len | u8 flags | ...  data blocks, one per flush boundary

The header interns the field-name tables (``{"fields": {"vertex": [...],
"master": [...]}}``) so records can be positional rows (see
:meth:`repro.graft.capture.RecordEncoder.row`). Each data block's payload is a
concatenation of ``u32be rec_len | rec_bytes`` entries; with flag bit
:data:`BLOCK_FLAG_ZLIB` set the stored payload is zlib-compressed.

Index sidecar (``<trace path>.idx``), one text line per block, appended at
the same flush boundary that wrote the block::

    #GRAFT2-IDX {"version": 2, ...}
    B <off> <len> <flags> <min_ss> <max_ss> <nrec> <nviol> <nexc> <nmaster> |<entries JSON>

The integer prefix is parseable with a string split — no JSON — so a lazy
reader can open a trace and answer "which blocks could matter for
superstep 12 / which blocks hold violations?" without decoding a single
record. The ``entries`` array holds one ``[kind, superstep, vid_repr,
inner_offset, inner_length, vflags]`` entry per record (``vid_repr`` is
``repr(vertex_id)``; ``inner_*`` address the *decompressed* payload;
``vflags`` marks violations/exceptions) and is parsed lazily, per block,
only when a query actually needs that block.

Recovery rules (see docs/trace-format.md):

- a trace file is v2 or it is not a trace: an empty file is an empty
  trace, bytes without the magic raise (:func:`read_header`);
- a missing, truncated, or stale index is never fatal — the unindexed
  tail of the trace file is re-scanned frame by frame and reindexed in
  memory (:func:`scan_blocks`);
- trailing bytes that don't form a complete frame (a crashed writer's
  torn block) are ignored.
"""

import json
import zlib

from repro.common.errors import TraceError
from repro.graft.capture import (
    KIND_MASTER,
    KIND_VERTEX,
    master_field_names,
    record_from_row,
    vertex_field_names,
)
from repro.simfs.writers import BLOCK_FLAG_ZLIB

TRACE_MAGIC = b"#GRAFT2\n"
IDX_MAGIC = "#GRAFT2-IDX"
TRACE_VERSION = 2

#: Per-record index flags (``vflags``).
VFLAG_VIOLATIONS = 0x01
VFLAG_EXCEPTION = 0x02

_U32 = 4
_FRAME_HEADER = _U32 + 1  # length prefix + flags byte


def build_header():
    """The JSON header frame contents for a freshly created v2 file."""
    return {
        "version": TRACE_VERSION,
        "fields": {
            "vertex": list(vertex_field_names()),
            "master": list(master_field_names()),
        },
    }


def encode_header(header):
    data = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return len(data).to_bytes(4, "big") + bytes([0]) + data


def pack_records(record_bytes_list):
    """Concatenate framed records into one block payload.

    Returns ``(payload, extents)`` where ``extents[i]`` is the
    ``(inner_offset, inner_length)`` of record ``i`` inside the payload —
    the coordinates the index entries carry.
    """
    parts = []
    extents = []
    offset = 0
    for rec in record_bytes_list:
        parts.append(len(rec).to_bytes(4, "big"))
        parts.append(rec)
        extents.append((offset + _U32, len(rec)))
        offset += _U32 + len(rec)
    return b"".join(parts), extents


def unpack_payload(raw_frame):
    """Decode one stored frame (``u32 | flags | stored``) to its payload."""
    if len(raw_frame) < _FRAME_HEADER:
        raise TraceError("trace block shorter than its frame header")
    stored_len = int.from_bytes(raw_frame[:_U32], "big")
    flags = raw_frame[_U32]
    stored = raw_frame[_FRAME_HEADER:_FRAME_HEADER + stored_len]
    if len(stored) != stored_len:
        raise TraceError("trace block truncated mid-frame")
    if flags & BLOCK_FLAG_ZLIB:
        return zlib.decompress(stored), flags
    return bytes(stored), flags


def split_payload(payload):
    """Yield ``(inner_offset, record_bytes)`` for every record in a payload."""
    offset = 0
    size = len(payload)
    while offset < size:
        if offset + _U32 > size:
            raise TraceError("trace block payload truncated mid-record")
        rec_len = int.from_bytes(payload[offset:offset + _U32], "big")
        start = offset + _U32
        if start + rec_len > size:
            raise TraceError("trace block payload truncated mid-record")
        yield start, payload[start:start + rec_len]
        offset = start + rec_len


class BlockMeta:
    """One data block as the index sidecar (or a recovery scan) sees it."""

    __slots__ = (
        "offset", "length", "flags", "min_superstep", "max_superstep",
        "num_records", "num_violations", "num_exceptions", "num_masters",
        "_entries", "_entries_text",
    )

    def __init__(self, offset, length, flags, min_superstep, max_superstep,
                 num_records, num_violations, num_exceptions, num_masters,
                 entries=None, entries_text=None):
        self.offset = offset
        self.length = length
        self.flags = flags
        self.min_superstep = min_superstep
        self.max_superstep = max_superstep
        self.num_records = num_records
        self.num_violations = num_violations
        self.num_exceptions = num_exceptions
        self.num_masters = num_masters
        self._entries = entries
        self._entries_text = entries_text

    @property
    def end(self):
        return self.offset + self.length

    def covers_superstep(self, superstep):
        return self.min_superstep <= superstep <= self.max_superstep

    def entries(self):
        """The block's ``[kind, ss, vid_repr, off, len, vflags]`` entries.

        Parsed from the sidecar line on first use and memoized — the lazy
        reader's whole point is that most blocks never reach this call.
        """
        if self._entries is None:
            if self._entries_text is None:
                raise TraceError("index block has neither entries nor text")
            self._entries = json.loads(self._entries_text)
            self._entries_text = None
        return self._entries


def format_idx_header(trace_filename):
    payload = json.dumps(
        {"version": TRACE_VERSION, "trace": trace_filename},
        separators=(",", ":"), sort_keys=True,
    )
    return f"{IDX_MAGIC} {payload}"


def format_idx_line(meta, entries):
    """Render one sidecar line for a block and its entries."""
    prefix = (
        f"B {meta.offset} {meta.length} {meta.flags} "
        f"{meta.min_superstep} {meta.max_superstep} {meta.num_records} "
        f"{meta.num_violations} {meta.num_exceptions} {meta.num_masters} "
    )
    return prefix + "|" + json.dumps(entries, separators=(",", ":"))


def parse_idx_line(line):
    """Parse one sidecar block line into a :class:`BlockMeta` (entries lazy).

    Raises ``ValueError`` on any malformed line — the reader treats that
    as the index ending there and rescans the rest of the trace file.
    """
    prefix, sep, entries_text = line.partition("|")
    if not sep:
        raise ValueError("index line has no entries separator")
    fields = prefix.split()
    if len(fields) != 10 or fields[0] != "B":
        raise ValueError(f"malformed index prefix: {prefix!r}")
    # Entries parse lazily, so at least shape-check them now: a truncated
    # or corrupted JSON array almost never still starts AND ends with
    # brackets.
    if not (entries_text.startswith("[") and entries_text.endswith("]")):
        raise ValueError("malformed index entries")
    numbers = [int(token) for token in fields[1:]]
    return BlockMeta(*numbers, entries_text=entries_text)


def record_entry(kind, superstep, vid_repr, inner_offset, inner_length, vflags):
    """Build one index entry (the write side and the recovery scan share it)."""
    return [kind, superstep, vid_repr, inner_offset, inner_length, vflags]


def summarize_entries(offset, length, flags, entries):
    """Fold per-record entries into the prefix counters of a BlockMeta."""
    supersteps = [entry[1] for entry in entries]
    return BlockMeta(
        offset=offset,
        length=length,
        flags=flags,
        min_superstep=min(supersteps),
        max_superstep=max(supersteps),
        num_records=len(entries),
        num_violations=sum(1 for e in entries if e[5] & VFLAG_VIOLATIONS),
        num_exceptions=sum(1 for e in entries if e[5] & VFLAG_EXCEPTION),
        num_masters=sum(1 for e in entries if e[0] == KIND_MASTER),
        entries=entries,
    )


# -- reading the trace file itself --------------------------------------------


def read_header(filesystem, path):
    """Read the magic line and the header frame.

    Returns ``(header_dict, data_start_offset)``. An empty file — what a
    crash between the writer's ``create`` and its first append leaves — is
    an empty trace, ``({}, 0)``; a file that holds bytes but does not start
    with the magic is not a trace at all and raises :class:`TraceError`.
    """
    base = len(TRACE_MAGIC)
    magic = filesystem.read_range(path, 0, base)
    if not magic:
        return {}, 0
    if magic != TRACE_MAGIC:
        raise TraceError(
            f"{path!r} is not a trace file: it does not start with "
            f"{TRACE_MAGIC.decode().rstrip()}"
        )
    length_bytes = filesystem.read_range(path, base, _U32)
    if len(length_bytes) != _U32:
        raise TraceError(f"v2 trace {path!r} has no header frame")
    header_len = int.from_bytes(length_bytes, "big")
    raw = filesystem.read_range(path, base + _FRAME_HEADER, header_len)
    if len(raw) != header_len:
        raise TraceError(f"v2 trace {path!r} header frame truncated")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"v2 trace {path!r} header unreadable: {exc}") from exc
    return header, base + _FRAME_HEADER + header_len


def read_block_payload(filesystem, path, meta):
    """Fetch one indexed block with a single ranged read and decompress it."""
    raw = filesystem.read_range(path, meta.offset, meta.length)
    payload, _flags = unpack_payload(raw)
    return payload


def _entry_from_record(record, inner_offset, inner_length):
    from repro.graft.capture import MasterContextRecord

    if isinstance(record, MasterContextRecord):
        return record_entry(
            KIND_MASTER, record.superstep, None, inner_offset, inner_length, 0
        )
    vflags = 0
    if record.violations:
        vflags |= VFLAG_VIOLATIONS
    if record.exception is not None:
        vflags |= VFLAG_EXCEPTION
    return record_entry(
        KIND_VERTEX, record.superstep, repr(record.vertex_id),
        inner_offset, inner_length, vflags,
    )


def scan_blocks(filesystem, path, start_offset, codec, header=None):
    """Re-frame (and reindex) blocks by scanning the trace file directly.

    The recovery path for a missing or truncated index sidecar: walk the
    frames from ``start_offset``, decode each record just enough to
    rebuild its index entry, and yield complete :class:`BlockMeta` objects
    with entries attached. A torn final frame ends the scan silently.
    """
    if header is None:
        header, data_start = read_header(filesystem, path)
        start_offset = max(start_offset, data_start)
    fields = header.get("fields", {})
    vertex_fields = fields.get("vertex")
    master_fields = fields.get("master")
    size = filesystem.stat(path).size
    offset = start_offset
    while offset + _FRAME_HEADER <= size:
        length_bytes = filesystem.read_range(path, offset, _U32)
        stored_len = int.from_bytes(length_bytes, "big")
        frame_len = _FRAME_HEADER + stored_len
        if offset + frame_len > size:
            break  # torn final block: a crash between appends
        raw = filesystem.read_range(path, offset, frame_len)
        try:
            payload, flags = unpack_payload(raw)
        except (TraceError, zlib.error):
            break
        entries = []
        try:
            for inner_offset, rec_bytes in split_payload(payload):
                row = json.loads(rec_bytes.decode("utf-8"))
                record = record_from_row(row, codec, vertex_fields, master_fields)
                entries.append(
                    _entry_from_record(record, inner_offset, len(rec_bytes))
                )
        except (TraceError, ValueError, UnicodeDecodeError):
            break
        if entries:
            yield summarize_entries(offset, frame_len, flags, entries)
        offset += frame_len


def iter_v2_records(filesystem, path, codec):
    """Decode every record of a v2 trace file, in file order (eager path)."""
    header, data_start = read_header(filesystem, path)
    fields = header.get("fields", {})
    vertex_fields = fields.get("vertex")
    master_fields = fields.get("master")
    size = filesystem.stat(path).size
    offset = data_start
    while offset + _FRAME_HEADER <= size:
        length_bytes = filesystem.read_range(path, offset, _U32)
        stored_len = int.from_bytes(length_bytes, "big")
        frame_len = _FRAME_HEADER + stored_len
        if offset + frame_len > size:
            break
        raw = filesystem.read_range(path, offset, frame_len)
        payload, _flags = unpack_payload(raw)
        for _inner_offset, rec_bytes in split_payload(payload):
            row = json.loads(rec_bytes.decode("utf-8"))
            yield record_from_row(row, codec, vertex_fields, master_fields)
        offset += frame_len


def load_index(filesystem, trace_path, codec):
    """Load the sidecar for ``trace_path``; recover whatever it misses.

    Returns ``(blocks, header, stats)`` where ``blocks`` is the complete
    in-order list of :class:`BlockMeta` (sidecar lines first, then any
    blocks recovered by scanning the unindexed tail) and ``stats`` counts
    ``{"indexed_blocks": ..., "recovered_blocks": ...}`` for the
    ``trace stats`` report.
    """
    header, data_start = read_header(filesystem, trace_path)
    size = filesystem.stat(trace_path).size
    idx_path = trace_path + ".idx"
    blocks = []
    covered_end = data_start
    if filesystem.is_file(idx_path):
        try:
            text = filesystem.read_bytes(idx_path).decode("utf-8")
        except UnicodeDecodeError:
            text = ""
        # Sidecar lines are newline-terminated as they are appended; a
        # final segment with no trailing newline is a torn write and is
        # discarded (its block gets recovered from the trace file).
        complete, newline, _torn = text.rpartition("\n")
        lines = iter(complete.split("\n")) if newline else iter(())
        first = next(lines, None)
        if first is not None and first.startswith(IDX_MAGIC):
            for line in lines:
                try:
                    meta = parse_idx_line(line)
                except (ValueError, UnicodeDecodeError):
                    break  # truncated/corrupt tail: rescan from here
                if (
                    meta.offset != covered_end
                    or meta.end > size
                    or meta.length <= _FRAME_HEADER
                ):
                    break  # stale entry pointing outside the file
                blocks.append(meta)
                covered_end = meta.end
    indexed = len(blocks)
    if covered_end < size:
        blocks.extend(
            scan_blocks(filesystem, trace_path, covered_end, codec, header=header)
        )
    stats = {
        "indexed_blocks": indexed,
        "recovered_blocks": len(blocks) - indexed,
    }
    return blocks, header, stats
