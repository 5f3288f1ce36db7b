"""Buffered writers over the simulated file system.

Each Graft-instrumented worker holds one writer for its trace file and
appends one record at a time. Buffering batches small appends into larger
file-system writes, mirroring how real trace producers buffer before
hitting HDFS.

Two writers live here:

- :class:`LineWriter` — plain text lines (job output files). Flushing is
  adaptive: a flush happens when *either* the line-count threshold or the
  byte threshold is reached, so many tiny records batch up into large
  appends while a few huge records don't pin megabytes in memory.
- :class:`BlockWriter` — length-prefixed, optionally zlib-compressed
  binary frames (the trace format's block layer). The caller hands it
  whole payloads; it reports back exactly where each block landed so an
  index sidecar can point at it.
"""

import zlib

from repro.common.errors import SimFsError, SimFsTransientError

DEFAULT_BUFFER_LINES = 1024
DEFAULT_BUFFER_BYTES = 256 * 1024

#: How many times an append is attempted when the file system reports a
#: transient error (which leaves the file unchanged). Real trace producers
#: retry transient HDFS write failures the same bounded way.
TRANSIENT_RETRY_ATTEMPTS = 3


def append_retrying(filesystem, path, data, attempts=TRANSIENT_RETRY_ATTEMPTS):
    """Append bytes or text, retrying bounded :class:`SimFsTransientError`.

    A transient error means nothing landed, so retrying is safe; any other
    failure (including an injected mid-append crash) propagates untouched.
    """
    append = (
        filesystem.append_text if isinstance(data, str)
        else filesystem.append_bytes
    )
    for attempt in range(attempts):
        try:
            append(path, data)
            return
        except SimFsTransientError:
            if attempt == attempts - 1:
                raise


class LineWriter:
    """Appends text lines to one file with adaptive buffering.

    Flushes when ``buffer_lines`` lines or ``buffer_bytes`` buffered
    characters accumulate, whichever comes first. Usable as a context
    manager; leaving the ``with`` block closes the writer, flushing
    buffered lines even when the block is exiting with an exception (so a
    failing job never loses already-captured trace records). ``close()``
    and ``flush()`` are idempotent.

    >>> from repro.simfs import SimFileSystem
    >>> fs = SimFileSystem()
    >>> with LineWriter(fs, "/t/w0.trace") as w:
    ...     w.write_line("record-1")
    ...     w.write_line("record-2")
    >>> list(fs.read_lines("/t/w0.trace"))
    ['record-1', 'record-2']
    """

    def __init__(
        self,
        filesystem,
        path,
        buffer_lines=DEFAULT_BUFFER_LINES,
        buffer_bytes=DEFAULT_BUFFER_BYTES,
    ):
        if buffer_lines <= 0:
            raise SimFsError(f"buffer_lines must be positive, got {buffer_lines}")
        if buffer_bytes <= 0:
            raise SimFsError(f"buffer_bytes must be positive, got {buffer_bytes}")
        self._fs = filesystem
        self.path = path
        self._buffer = []
        self._buffered_chars = 0
        self._buffer_lines = buffer_lines
        self._buffer_bytes = buffer_bytes
        self._closed = False
        self.lines_written = 0
        #: Bytes known to be durably flushed; repair() truncates back here.
        self.offset = 0
        filesystem.create(path, overwrite=True)

    def write_line(self, line):
        """Append one line (a newline is added; the line must not contain one)."""
        if self._closed:
            raise SimFsError(f"writer for {self.path!r} is closed")
        if "\n" in line:
            raise SimFsError("write_line() takes a single line without newlines")
        self._buffer.append(line)
        self._buffered_chars += len(line) + 1
        self.lines_written += 1
        if (
            len(self._buffer) >= self._buffer_lines
            or self._buffered_chars >= self._buffer_bytes
        ):
            self.flush()

    def write_lines(self, lines):
        """Append many lines with one threshold check at the end.

        The bulk path for trace drains: per-line flush checks are skipped
        while the batch is buffered, then the usual thresholds apply once.
        """
        if self._closed:
            raise SimFsError(f"writer for {self.path!r} is closed")
        count = 0
        chars = 0
        for line in lines:
            if "\n" in line:
                raise SimFsError(
                    "write_lines() takes single lines without newlines"
                )
            self._buffer.append(line)
            chars += len(line) + 1
            count += 1
        self._buffered_chars += chars
        self.lines_written += count
        if (
            len(self._buffer) >= self._buffer_lines
            or self._buffered_chars >= self._buffer_bytes
        ):
            self.flush()

    @property
    def pending_lines(self):
        """Lines buffered but not yet pushed to the file system."""
        return len(self._buffer)

    def flush(self):
        """Push buffered lines to the file system. Idempotent.

        Transient file-system errors are retried (nothing landed); a
        mid-append crash propagates with the buffer intact so
        :meth:`repair` can discard the torn tail.
        """
        if self._buffer:
            payload = "".join(l + "\n" for l in self._buffer)
            append_retrying(self._fs, self.path, payload)
            self.offset += len(payload.encode("utf-8"))
            self._buffer = []
            self._buffered_chars = 0

    def repair(self):
        """Restore file/writer consistency after a crash-induced rollback.

        Truncates the file back to the last fully flushed byte (dropping a
        torn partial append) and discards buffered lines — they belong to
        the superstep being rolled back and will be re-captured when it
        re-executes.
        """
        dropped = len(self._buffer)
        self._buffer = []
        self._buffered_chars = 0
        self.lines_written -= dropped
        if self._fs.stat(self.path).size > self.offset:
            self._fs.truncate(self.path, self.offset)

    def close(self):
        """Flush and prevent further writes. Idempotent."""
        if not self._closed:
            self.flush()
            self._closed = True

    @property
    def closed(self):
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # Flush-before-propagate: buffered records survive an exception in
        # the with block; the original exception continues unwinding.
        self.close()
        return False


#: Block flag bit: the payload is zlib-compressed.
BLOCK_FLAG_ZLIB = 0x01

#: Payloads below this size are never worth compressing.
DEFAULT_MIN_COMPRESS_BYTES = 256


class BlockWriter:
    """Appends framed binary blocks to one file.

    Each block is stored as ``u32be stored_length | u8 flags | stored
    bytes``; with compression enabled, payloads at least
    ``min_compress_bytes`` long are zlib-compressed when that actually
    shrinks them (flag bit :data:`BLOCK_FLAG_ZLIB`). :meth:`write_block`
    returns ``(offset, length, flags)`` — the absolute extent of the whole
    frame — which is exactly what an index sidecar records so a reader can
    fetch the block back with one ranged read.

    Unlike :class:`LineWriter` this class does not buffer: the trace layer
    above it owns record buffering and decides the flush boundaries (block
    boundaries double as index granularity).
    """

    def __init__(
        self,
        filesystem,
        path,
        compression=True,
        compress_level=6,
        min_compress_bytes=DEFAULT_MIN_COMPRESS_BYTES,
    ):
        self._fs = filesystem
        self.path = path
        self._compression = compression
        self._compress_level = compress_level
        self._min_compress_bytes = min_compress_bytes
        self._closed = False
        self.offset = 0
        self.blocks_written = 0
        self.raw_payload_bytes = 0
        self.stored_payload_bytes = 0
        filesystem.create(path, overwrite=True)

    def write_prelude(self, data):
        """Append raw unframed bytes (file magic + header), before any block."""
        if self._closed:
            raise SimFsError(f"writer for {self.path!r} is closed")
        if self.blocks_written:
            raise SimFsError("prelude must be written before any block")
        append_retrying(self._fs, self.path, data)
        self.offset += len(data)
        return self.offset

    def write_block(self, payload):
        """Append one framed block; returns ``(offset, length, flags)``."""
        if self._closed:
            raise SimFsError(f"writer for {self.path!r} is closed")
        flags = 0
        stored = payload
        if self._compression and len(payload) >= self._min_compress_bytes:
            compressed = zlib.compress(payload, self._compress_level)
            if len(compressed) < len(payload):
                stored = compressed
                flags |= BLOCK_FLAG_ZLIB
        frame = len(stored).to_bytes(4, "big") + bytes([flags]) + stored
        offset = self.offset
        append_retrying(self._fs, self.path, frame)
        self.offset += len(frame)
        self.blocks_written += 1
        self.raw_payload_bytes += len(payload)
        self.stored_payload_bytes += len(stored)
        return offset, len(frame), flags

    def repair(self):
        """Truncate the file back to the last complete frame.

        After a mid-append crash (``offset`` was not advanced) the file may
        carry a torn partial frame; cutting back to ``offset`` restores the
        invariant that every byte on disk belongs to a complete frame.
        """
        if self._fs.stat(self.path).size > self.offset:
            self._fs.truncate(self.path, self.offset)

    def close(self):
        self._closed = True

    @property
    def closed(self):
        return self._closed
