"""Vertex page segments: the on-disk layout of partitioned vertex state.

A partition's *page file* is a sequence of
:class:`~repro.simfs.BlockWriter` frames (``u32be stored_length | u8
flags | bytes``, zlib-compressed when that shrinks). Each frame's
payload is one **segment** — a batch of vertices in arrival order:

    ``b"VPG1" | u32 count | u32 ids_len | u32 values_len | u32 edges_len
    | ids | values | edges | halted bitmap``

- ``ids``: the vertex ids, one flat pickled list (ids are arbitrary
  hashable objects);
- ``values``: a :class:`~repro.pregel.columnar.ColumnBuilder` column —
  float/int/registered-fixed-width values pack as typed arrays exactly
  like message value columns; anything else degrades to the pickled
  fallback (``COL_OBJ``) with no loss;
- ``edges``: one pickled list of ``{target: edge_value}`` maps;
- ``halted``: one bit per vertex.

Pages keep vertices in *arrival order* (the order the graph loader or
the last spill wrote them), because compute order within a worker must
match the in-memory plane for per-worker aggregator folds to be
bit-identical. The canonical trace digest is insensitive to this order
either way.

A ``.idx`` sidecar accompanies every page file: one ``offset length
flags count`` line per segment frame, so a reader can fetch any segment
with a single ranged read — the same sidecar convention as the trace
format (see ``docs/trace-format.md``).
"""

import pickle
import struct
import zlib

from repro.common.errors import PregelError
from repro.pregel.columnar import decode_column, encode_values
from repro.simfs.writers import BLOCK_FLAG_ZLIB

SEGMENT_MAGIC = b"VPG1"

#: Vertices per page segment: small enough that a segment encodes in one
#: bounded buffer during chunked builds, large enough that framing and
#: pickling amortize.
PAGE_SEGMENT_ENTRIES = 8192


def encode_segment(entries):
    """Encode ``[(vertex_id, value, edge_map, halted), ...]`` to bytes."""
    ids = []
    values = []
    edges = []
    bits = bytearray((len(entries) + 7) // 8)
    for position, (vertex_id, value, edge_map, halted) in enumerate(entries):
        ids.append(vertex_id)
        values.append(value)
        edges.append(edge_map)
        if halted:
            bits[position >> 3] |= 1 << (position & 7)
    ids_blob = pickle.dumps(ids, protocol=4)
    values_blob, _fell_back = encode_values(values)
    edges_blob = pickle.dumps(edges, protocol=4)
    header = SEGMENT_MAGIC + struct.pack(
        ">IIII", len(entries), len(ids_blob), len(values_blob), len(edges_blob)
    )
    return b"".join((header, ids_blob, values_blob, edges_blob, bytes(bits)))


def decode_segment(blob):
    """Decode one segment payload.

    Returns ``(ids, values, edge_maps, halted_flags, value_fallback)``
    where ``value_fallback`` is True when the value section used the
    pickled-object column rather than a typed one.
    """
    if blob[:4] != SEGMENT_MAGIC:
        raise PregelError(
            f"bad vertex page segment magic {blob[:4]!r} (expected VPG1)"
        )
    count, ids_len, values_len, edges_len = struct.unpack(">IIII", blob[4:20])
    offset = 20
    ids = pickle.loads(blob[offset:offset + ids_len])
    offset += ids_len
    values, value_fallback = decode_column(blob[offset:offset + values_len])
    offset += values_len
    edges = pickle.loads(blob[offset:offset + edges_len])
    offset += edges_len
    bits = blob[offset:offset + (count + 7) // 8]
    halted = [bool(bits[i >> 3] & (1 << (i & 7))) for i in range(count)]
    if not (len(ids) == len(values) == len(edges) == count):
        raise PregelError(
            f"vertex page segment section lengths disagree: "
            f"{len(ids)}/{len(values)}/{len(edges)} vs count {count}"
        )
    return ids, values, edges, halted, value_fallback


def iter_frames(data):
    """Yield the payloads of consecutive BlockWriter frames in ``data``.

    The inverse of :meth:`~repro.simfs.BlockWriter.write_block` applied
    to a whole file: parses ``u32be stored_length | u8 flags | stored``
    frames back to payload bytes, inflating zlib-flagged blocks. A torn
    trailing frame (truncated mid-append) raises — spill files are only
    read after their writer sealed, so a short frame is corruption.
    """
    offset = 0
    total = len(data)
    while offset < total:
        if offset + 5 > total:
            raise PregelError("torn frame header in spill file")
        stored_length = int.from_bytes(data[offset:offset + 4], "big")
        flags = data[offset + 4]
        start = offset + 5
        end = start + stored_length
        if end > total:
            raise PregelError("torn frame payload in spill file")
        payload = data[start:end]
        if flags & BLOCK_FLAG_ZLIB:
            payload = zlib.decompress(payload)
        yield bytes(payload)
        offset = end
