"""A disk-backed spill area with the simfs file API.

:class:`SimFileSystem` keeps every byte in process memory — exactly right
for traces and checkpoints whose accounting the tests assert, and exactly
wrong for an out-of-core store whose whole point is that spilled pages
*leave* memory. :class:`SpoolFileSystem` implements the subset of the
simfs surface the partitioned store and :class:`~repro.simfs.BlockWriter`
write against (create / append / positioned read / truncate / glob /
stat), backed by real files under a private temporary directory, so
spilled partition pages and message runs cost disk instead of RSS.

Design notes:

- Every operation opens the backing file, acts, and closes it. No file
  descriptors are cached, so nothing is left open between operations
  (the engine only ever touches a spool from the one process every
  step runs in).
- Paths keep simfs semantics (absolute, ``/``-separated) and are mapped
  to flat percent-encoded file names, so no simfs path can escape the
  spool root.
- The same read/write accounting counters as :class:`SimFileSystem` are
  maintained; the store's spill telemetry reads them.

The spool directory is deleted when :meth:`close` is called (or the
object is garbage collected). Set the ``REPRO_SPOOL_DIR`` environment
variable to place spools somewhere other than the system temp dir.
"""

import os
import shutil
import tempfile
import urllib.parse
import weakref

from repro.common.errors import SimFsError
from repro.simfs.filesystem import FileStat, normalize_path


class SpoolFileSystem:
    """Disk-backed file namespace for spilled store pages and runs."""

    def __init__(self, root=None):
        base = root or os.environ.get("REPRO_SPOOL_DIR") or None
        self.root = tempfile.mkdtemp(prefix="repro-spool-", dir=base)
        # Authoritative size map: one entry per live file. Sizes are
        # tracked here (not stat()ed) so accounting stays exact even if
        # an external process touches the directory.
        self._sizes = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.append_calls = 0
        self.read_calls = 0
        self.files_created = 0
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self.root, True
        )

    # -- path mapping ------------------------------------------------------

    def _local(self, path):
        return os.path.join(
            self.root, urllib.parse.quote(path.lstrip("/"), safe="")
        )

    # -- namespace ---------------------------------------------------------

    def exists(self, path):
        return normalize_path(path) in self._sizes

    def glob_files(self, directory, suffix=""):
        """Files under ``directory`` (recursively) ending with ``suffix``."""
        prefix = normalize_path(directory).rstrip("/") + "/"
        return sorted(
            path
            for path in self._sizes
            if path.startswith(prefix) and path.endswith(suffix)
        )

    def create(self, path, overwrite=False):
        path = normalize_path(path)
        if path in self._sizes and not overwrite:
            raise SimFsError(f"file exists: {path}")
        with open(self._local(path), "wb"):
            pass
        self._sizes[path] = 0
        self.files_created += 1

    def delete(self, path, recursive=False):
        path = normalize_path(path)
        if recursive:
            prefix = path.rstrip("/") + "/"
            doomed = [p for p in self._sizes if p.startswith(prefix)]
            if path in self._sizes:
                doomed.append(path)
            for victim in doomed:
                self._remove(victim)
            return
        if path not in self._sizes:
            raise SimFsError(f"no such file: {path}")
        self._remove(path)

    def _remove(self, path):
        try:
            os.remove(self._local(path))
        except FileNotFoundError:
            pass
        self._sizes.pop(path, None)

    # -- bytes -------------------------------------------------------------

    def append_bytes(self, path, data):
        path = normalize_path(path)
        if path not in self._sizes:
            self.create(path)
        with open(self._local(path), "ab") as handle:
            handle.write(data)
        self._sizes[path] += len(data)
        self.bytes_written += len(data)
        self.append_calls += 1

    def append_text(self, path, text):
        self.append_bytes(path, text.encode("utf-8"))

    def read_bytes(self, path):
        path = normalize_path(path)
        if path not in self._sizes:
            raise SimFsError(f"no such file: {path}")
        with open(self._local(path), "rb") as handle:
            data = handle.read()
        self.bytes_read += len(data)
        self.read_calls += 1
        return data

    def read_range(self, path, offset, length):
        """Positioned read; reads past end-of-file truncate like ``pread``."""
        path = normalize_path(path)
        if path not in self._sizes:
            raise SimFsError(f"no such file: {path}")
        if offset < 0 or length < 0:
            raise SimFsError(
                f"read_range needs offset >= 0 and length >= 0, "
                f"got ({offset}, {length})"
            )
        with open(self._local(path), "rb") as handle:
            handle.seek(offset)
            data = handle.read(length)
        self.bytes_read += len(data)
        self.read_calls += 1
        return data

    def truncate(self, path, size):
        path = normalize_path(path)
        if path not in self._sizes:
            raise SimFsError(f"no such file: {path}")
        current = self._sizes[path]
        if size < 0 or size > current:
            raise SimFsError(
                f"cannot truncate {path!r} to {size} bytes (file has {current})"
            )
        with open(self._local(path), "r+b") as handle:
            handle.truncate(size)
        self._sizes[path] = size

    def stat(self, path):
        path = normalize_path(path)
        if path not in self._sizes:
            raise SimFsError(f"no such file: {path}")
        return FileStat(path=path, size=self._sizes[path], blocks=1)

    def total_bytes(self, directory="/"):
        prefix = normalize_path(directory).rstrip("/") + "/"
        return sum(
            size for path, size in self._sizes.items()
            if path.startswith(prefix) or path == normalize_path(directory)
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Delete the spool directory. Idempotent."""
        self._sizes = {}
        self._finalizer()
