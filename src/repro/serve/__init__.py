"""Graft-as-a-service: the long-running ``repro serve`` debug server.

The paper's GUI is a browser talking to a server that answers queries
over the per-job trace files on HDFS. This package is that server for the
reproduction: a stdlib-only, multi-threaded HTTP service over a trace
directory (a :class:`~repro.simfs.SimFileSystem`, usually imported from a
``DebugRun.export_traces`` directory) exposing

- job discovery with storage stats and canonical digests,
- the three Graft views (node-link, tabular, violations) with cursor
  pagination, each byte-identical to its one-shot renderer,
- lazy point queries and per-vertex history over the indexed trace store,
- reproduce-context downloads through the Context Reproducer, and
- GiViP-style profiler endpoints (message-traffic heatmap, worker-skew
  timeline) computed from the persisted per-job ``metrics.json``.

Concurrency model: a shared :class:`~repro.serve.sessions.ReaderPool`
hands every request thread the same lazy
:class:`~repro.graft.trace.TraceReader` per job, all of them drawing on
one process-wide record LRU and one block LRU (a global memory budget,
not per-client). Responses carry an ``ETag`` equal to the job's canonical
trace digest; ``If-None-Match`` hits answer 304 without touching the
trace files at all.

See docs/serve.md for the API table and caching semantics.
"""

from repro.common.lazy import lazy_exports

TYPE_CHECKING = False

if TYPE_CHECKING:
    from repro.serve.app import DebugServer, create_server
    from repro.serve.pagination import decode_cursor, encode_cursor, paginate
    from repro.serve.sessions import ReaderPool, job_summary

__all__ = [
    "DebugServer",
    "ReaderPool",
    "create_server",
    "decode_cursor",
    "encode_cursor",
    "job_summary",
    "paginate",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.serve.app": ("DebugServer", "create_server"),
    "repro.serve.pagination": ("decode_cursor", "encode_cursor", "paginate"),
    "repro.serve.sessions": ("ReaderPool", "job_summary"),
})
