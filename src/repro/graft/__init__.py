"""Graft: the capture / visualize / reproduce debugger.

This package is the paper's contribution. The debugging cycle it supports:

1. **Capture** — the user writes a :class:`DebugConfig` naming the vertices
   of interest (by id, randomly, by value/message constraint violation, by
   exception, or all active ones). :func:`debug_run` instruments the user's
   computation and runs it; the instrumented workers log the full compute
   context of each selected vertex to per-worker trace files on the
   (simulated) distributed file system.

2. **Visualize** — the returned :class:`DebugRun` exposes the paper's three
   GUI views (node-link, tabular with search, violations & exceptions) plus
   superstep stepping, so the user narrows in on suspicious vertices and
   supersteps.

3. **Reproduce** — for any captured (vertex, superstep),
   ``DebugRun.reproduce()`` replays the exact ``compute()`` call in-process,
   reporting precisely which source lines executed, and
   ``DebugRun.generate_test_code()`` emits a standalone pytest file (the
   paper's generated JUnit test) that rebuilds the context and re-runs the
   call under any debugger.

Master contexts are captured automatically every superstep, and the offline
small-graph builder plus end-to-end test generation round out Section 3.4.
"""

from repro.common.lazy import lazy_exports

TYPE_CHECKING = False

# Eager on purpose: ``debug_run`` names both this function and its own
# submodule, and importing the submodule would bind the *module* to the
# attribute without ever asking ``__getattr__`` (see repro.common.lazy).
from repro.graft.debug_run import debug_run

if TYPE_CHECKING:
    from repro.common.errors import StaticAnalysisError
    from repro.graft.combiner_check import CombinerCheckReport, check_combiner_safety
    from repro.graft.capture import (
        ExceptionRecord,
        MasterContextRecord,
        VertexContextRecord,
        Violation,
    )
    from repro.graft.config import (
        CaptureAllActiveConfig,
        DebugConfig,
        standard_configs,
    )
    from repro.graft.constraint_library import (
        BoundedValues,
        DistinctNeighborValues,
        MonotoneValues,
        NonNegativeMessages,
        NonNegativeValues,
        NoSelfMessages,
    )
    from repro.graft.debug_run import DebugRun, GraftSession, debug_job
    from repro.graft.diffing import DiffReport, Divergence, diff_runs
    from repro.graft.fidelity import FidelityReport, verify_run_fidelity
    from repro.graft.instrumenter import instrument
    from repro.graft.offline import OfflineGraphBuilder
    from repro.graft.sanitizer import (
        FirstDivergence,
        SanitizerReport,
        order_insensitive_digest,
        order_insensitive_lines,
        run_sanitizer,
    )
    from repro.graft.reproducer import (
        ReplayHarness,
        ReplayOutcome,
        ReplayReport,
        generate_end_to_end_test,
        generate_master_test_code,
        generate_test_code,
        replay_from_trace,
        replay_record,
    )
    from repro.graft.trace import (
        TRACE_FORMAT_V3,
        TraceReader,
        TraceStore,
        canonical_trace_digest,
        canonical_trace_lines,
        iter_canonical_trace_lines,
        iter_file_records,
        trace_stats,
    )

__all__ = [
    "StaticAnalysisError",
    "Violation",
    "ExceptionRecord",
    "VertexContextRecord",
    "MasterContextRecord",
    "DebugConfig",
    "CaptureAllActiveConfig",
    "standard_configs",
    "BoundedValues",
    "DistinctNeighborValues",
    "MonotoneValues",
    "NonNegativeMessages",
    "NonNegativeValues",
    "NoSelfMessages",
    "DebugRun",
    "GraftSession",
    "debug_job",
    "debug_run",
    "DiffReport",
    "Divergence",
    "diff_runs",
    "CombinerCheckReport",
    "check_combiner_safety",
    "FidelityReport",
    "verify_run_fidelity",
    "FirstDivergence",
    "SanitizerReport",
    "order_insensitive_digest",
    "order_insensitive_lines",
    "run_sanitizer",
    "instrument",
    "OfflineGraphBuilder",
    "ReplayHarness",
    "ReplayOutcome",
    "ReplayReport",
    "replay_record",
    "replay_from_trace",
    "generate_test_code",
    "generate_master_test_code",
    "generate_end_to_end_test",
    "TraceReader",
    "TraceStore",
    "TRACE_FORMAT_V3",
    "canonical_trace_digest",
    "canonical_trace_lines",
    "iter_canonical_trace_lines",
    "iter_file_records",
    "trace_stats",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.common.errors": ("StaticAnalysisError",),
    "repro.graft.capture": (
        "ExceptionRecord", "MasterContextRecord", "VertexContextRecord",
        "Violation",
    ),
    "repro.graft.combiner_check": (
        "CombinerCheckReport", "check_combiner_safety",
    ),
    "repro.graft.config": (
        "CaptureAllActiveConfig", "DebugConfig", "standard_configs",
    ),
    "repro.graft.constraint_library": (
        "BoundedValues", "DistinctNeighborValues", "MonotoneValues",
        "NonNegativeMessages", "NonNegativeValues", "NoSelfMessages",
    ),
    "repro.graft.debug_run": ("DebugRun", "GraftSession", "debug_job"),
    "repro.graft.diffing": ("DiffReport", "Divergence", "diff_runs"),
    "repro.graft.fidelity": ("FidelityReport", "verify_run_fidelity"),
    "repro.graft.instrumenter": ("instrument",),
    "repro.graft.offline": ("OfflineGraphBuilder",),
    "repro.graft.reproducer": (
        "ReplayHarness", "ReplayOutcome", "ReplayReport",
        "generate_end_to_end_test", "generate_master_test_code",
        "generate_test_code", "replay_from_trace", "replay_record",
    ),
    "repro.graft.sanitizer": (
        "FirstDivergence", "SanitizerReport", "order_insensitive_digest",
        "order_insensitive_lines", "run_sanitizer",
    ),
    "repro.graft.trace": (
        "TRACE_FORMAT_V3", "TraceReader", "TraceStore",
        "canonical_trace_digest", "canonical_trace_lines",
        "iter_canonical_trace_lines", "iter_file_records", "trace_stats",
    ),
})
