"""Run metrics: what the benchmark harness measures.

The paper's performance section reports total run time with and without
Graft, plus capture counts. :class:`RunMetrics` records wall-clock time and
per-superstep counters so overhead and its sources (extra compute work,
trace bytes) are all observable.

With the pluggable execution backends, each superstep distinguishes
*wall-clock* time (barrier to barrier, as a user experiences it) from
*aggregate compute* time (the sum of every worker's step time, as the
cluster pays for it). Their ratio is the superstep's parallelism
efficiency: 1.0 means perfectly serial execution, ``num_workers`` means
ideal speedup.
"""

import sys
import tracemalloc
from dataclasses import dataclass, field, fields

from repro.common.timing import format_duration

try:
    import resource
except ImportError:  # non-POSIX platform
    resource = None


def sample_peak_memory():
    """Best-available peak-resident-bytes reading for this process.

    When :mod:`tracemalloc` is tracing (the scale bench turns it on), the
    peak since the last sample is returned and the peak counter reset, so
    successive calls yield genuine per-superstep peaks of Python-heap
    allocations. Otherwise falls back to ``ru_maxrss`` — the OS-reported
    lifetime high-water mark of the whole process, which is monotonic
    across supersteps and includes the interpreter itself.
    """
    if tracemalloc.is_tracing():
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return peak
    if resource is None:
        return 0
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


@dataclass
class SuperstepMetrics:
    """Counters for one superstep across all workers."""

    superstep: int
    active_vertices: int = 0
    compute_calls: int = 0
    messages_sent: int = 0
    messages_combined: int = 0
    bytes_sent: int = 0
    compute_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: True when this row re-executes a superstep after a rollback (the
    #: superstep had already completed once before a failure).
    recovered: bool = False
    #: Inboxes whose delivery order a PermutationSchedule changed at this
    #: superstep's barrier (0 unless a graft-san run is active).
    inboxes_permuted: int = 0
    #: Data plane that carried this superstep's messages:
    #: ``"columnar"`` (packed columns) or ``"spill"`` (partition-cut run files).
    transport: str = "columnar"
    #: Bytes shipped across process boundaries at the barrier: 0, since
    #: every step runs in the engine's process. Kept in the row schema
    #: (``metrics.json``) that graftbench's harness reads.
    transport_bytes: int = 0
    #: Packed column sets carried by the columnar plane: per worker at
    #: most one of point sends and one of broadcasts.
    transport_batches: int = 0
    #: Columns that degraded to the pickled-object fallback.
    pickle_fallbacks: int = 0
    #: Peak resident bytes observed at this superstep's barrier: the
    #: per-superstep tracemalloc peak when tracing is on, otherwise the
    #: process-lifetime ``ru_maxrss`` high-water mark (monotonic).
    peak_memory_bytes: int = 0
    #: Vertex-page bytes written to / read from the spill filesystem this
    #: superstep (0 unless ``store="spill"``).
    store_bytes_spilled: int = 0
    store_bytes_loaded: int = 0
    #: Page-cache accounting for this superstep's partition acquisitions.
    page_cache_hits: int = 0
    page_cache_misses: int = 0
    #: Partition pages resident in memory when the barrier completed.
    partitions_resident: int = 0
    #: Per-worker breakdown of this superstep: one
    #: ``[worker_id, compute_seconds, compute_calls, messages_sent,
    #: bytes_sent]`` row per worker, in worker-id order. This is what the
    #: debug server's worker-skew timeline is computed from.
    worker_rows: list = field(default_factory=list)

    def add_worker_row(self, worker_id, compute_seconds, compute_calls,
                       messages_sent, bytes_sent):
        self.worker_rows.append(
            [worker_id, compute_seconds, compute_calls, messages_sent,
             bytes_sent]
        )

    @property
    def compute_skew(self):
        """Max worker compute time over the mean (1.0 = perfectly balanced).

        None when per-worker rows are missing or nothing was timed.
        """
        times = [row[1] for row in self.worker_rows]
        if not times:
            return None
        mean = sum(times) / len(times)
        if mean <= 0.0:
            return None
        return max(times) / mean

    @property
    def page_cache_hit_rate(self):
        """Hit fraction of this superstep's page acquisitions (None if none)."""
        total = self.page_cache_hits + self.page_cache_misses
        if total == 0:
            return None
        return self.page_cache_hits / total

    @property
    def parallel_efficiency(self):
        """Aggregate compute seconds per wall-clock second.

        1.0 = serial; approaches the worker count under ideal parallel
        speedup. None when the superstep was too fast to time.
        """
        if self.wall_seconds <= 0.0:
            return None
        return self.compute_seconds / self.wall_seconds

    def row(self):
        efficiency = self.parallel_efficiency
        parallel = (
            f" parallel={efficiency:.2f}x" if efficiency is not None else ""
        )
        recovered = " [recovered]" if self.recovered else ""
        memory = ""
        if self.peak_memory_bytes:
            memory = f" mem={self.peak_memory_bytes}"
        spill = ""
        if self.store_bytes_spilled or self.store_bytes_loaded:
            hit_rate = self.page_cache_hit_rate
            cache = f" cache={hit_rate:.0%}" if hit_rate is not None else ""
            spill = (
                f" spilled={self.store_bytes_spilled}"
                f" loaded={self.store_bytes_loaded}{cache}"
                f" resident={self.partitions_resident}"
            )
        return (
            f"superstep {self.superstep:>4}: active={self.active_vertices:>8} "
            f"msgs={self.messages_sent:>9} combined={self.messages_combined:>8} "
            f"bytes={self.bytes_sent:>11} "
            f"transport={self.transport} "
            f"time={format_duration(self.compute_seconds)}{parallel}"
            f"{memory}{spill}{recovered}"
        )


@dataclass
class RunMetrics:
    """Aggregated counters for one whole run."""

    supersteps: list = field(default_factory=list)
    total_seconds: float = 0.0
    #: How many times the engine rolled back to a checkpoint.
    rollback_count: int = 0
    #: How many superstep executions were re-runs after a rollback.
    recovered_supersteps: int = 0
    #: Checkpoint files skipped during recovery because they failed
    #: verification (corrupt/torn).
    checkpoints_skipped: int = 0
    #: One dict per rollback: failed/restored supersteps plus any corrupt
    #: checkpoints that had to be skipped on the way down.
    recovery_events: list = field(default_factory=list)

    def add_superstep(self, metrics):
        self.supersteps.append(metrics)
        if metrics.recovered:
            self.recovered_supersteps += 1

    @property
    def num_supersteps(self):
        return len(self.supersteps)

    @property
    def total_messages(self):
        return sum(s.messages_sent for s in self.supersteps)

    @property
    def total_compute_calls(self):
        return sum(s.compute_calls for s in self.supersteps)

    @property
    def total_bytes_sent(self):
        return sum(s.bytes_sent for s in self.supersteps)

    @property
    def total_messages_combined(self):
        return sum(s.messages_combined for s in self.supersteps)

    @property
    def total_inboxes_permuted(self):
        return sum(s.inboxes_permuted for s in self.supersteps)

    @property
    def total_transport_bytes(self):
        return sum(s.transport_bytes for s in self.supersteps)

    @property
    def total_transport_batches(self):
        return sum(s.transport_batches for s in self.supersteps)

    @property
    def total_pickle_fallbacks(self):
        return sum(s.pickle_fallbacks for s in self.supersteps)

    @property
    def peak_memory_bytes(self):
        """Highest per-superstep peak observed across the run."""
        return max(
            (s.peak_memory_bytes for s in self.supersteps), default=0
        )

    @property
    def total_store_bytes_spilled(self):
        return sum(s.store_bytes_spilled for s in self.supersteps)

    @property
    def total_store_bytes_loaded(self):
        return sum(s.store_bytes_loaded for s in self.supersteps)

    @property
    def page_cache_hit_rate(self):
        """Run-wide page-cache hit fraction (None when nothing was paged)."""
        hits = sum(s.page_cache_hits for s in self.supersteps)
        misses = sum(s.page_cache_misses for s in self.supersteps)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    @property
    def total_compute_seconds(self):
        return sum(s.compute_seconds for s in self.supersteps)

    @property
    def total_wall_seconds(self):
        return sum(s.wall_seconds for s in self.supersteps)

    @property
    def parallel_efficiency(self):
        """Run-wide compute-seconds / wall-seconds ratio (None if untimed)."""
        wall = self.total_wall_seconds
        if wall <= 0.0:
            return None
        return self.total_compute_seconds / wall

    def summary(self):
        efficiency = self.parallel_efficiency
        parallel = (
            f", parallelism {efficiency:.2f}x" if efficiency is not None else ""
        )
        recovery = ""
        if self.rollback_count:
            recovery = (
                f", {self.rollback_count} rollback(s) "
                f"({self.recovered_supersteps} supersteps re-executed)"
            )
        spill = ""
        if self.total_store_bytes_spilled or self.total_store_bytes_loaded:
            hit_rate = self.page_cache_hit_rate
            cache = (
                f", page-cache {hit_rate:.0%}" if hit_rate is not None else ""
            )
            spill = (
                f", spilled {self.total_store_bytes_spilled} bytes / "
                f"loaded {self.total_store_bytes_loaded} bytes{cache}, "
                f"peak memory {self.peak_memory_bytes} bytes"
            )
        return (
            f"{self.num_supersteps} supersteps, "
            f"{self.total_compute_calls} compute calls, "
            f"{self.total_messages} messages "
            f"({self.total_bytes_sent} bytes), "
            f"{format_duration(self.total_seconds)} total{parallel}{recovery}"
            f"{spill}"
        )

    def to_dict(self):
        return run_metrics_to_dict(self)


# -- serialization ------------------------------------------------------------
#
# The per-job ``metrics.json`` file (written next to the trace files at
# debug_run completion) is plain JSON: one dict per superstep row plus a
# totals summary. The debug server's profiler endpoints and ``repro trace
# stats --json`` both read this file, so runs can be profiled long after
# the process that executed them is gone.

_SUPERSTEP_FIELDS = tuple(f.name for f in fields(SuperstepMetrics))

#: RunMetrics totals surfaced in the summary block, recomputed on load so
#: a hand-edited rows list stays consistent with its summary.
_SUMMARY_PROPERTIES = (
    "num_supersteps",
    "total_compute_calls",
    "total_messages",
    "total_messages_combined",
    "total_bytes_sent",
    "total_compute_seconds",
    "total_wall_seconds",
    "parallel_efficiency",
    "total_inboxes_permuted",
    "total_transport_bytes",
    "total_transport_batches",
    "total_pickle_fallbacks",
    "peak_memory_bytes",
    "total_store_bytes_spilled",
    "total_store_bytes_loaded",
    "page_cache_hit_rate",
)


def superstep_metrics_to_dict(metrics):
    """One superstep row as a JSON-safe dict (field name -> value)."""
    row = {name: getattr(metrics, name) for name in _SUPERSTEP_FIELDS}
    row["parallel_efficiency"] = metrics.parallel_efficiency
    return row


def superstep_metrics_from_dict(row):
    """Rebuild a :class:`SuperstepMetrics` from its dict form.

    Unknown keys (derived values like ``parallel_efficiency``, or fields
    added by a newer writer) are ignored, so older readers stay compatible.
    """
    kwargs = {
        name: row[name] for name in _SUPERSTEP_FIELDS if name in row
    }
    return SuperstepMetrics(**kwargs)


def run_metrics_to_dict(metrics):
    """A whole run's metrics as the ``metrics.json`` document."""
    summary = {
        name: getattr(metrics, name) for name in _SUMMARY_PROPERTIES
    }
    summary["total_seconds"] = metrics.total_seconds
    summary["rollback_count"] = metrics.rollback_count
    summary["recovered_supersteps"] = metrics.recovered_supersteps
    summary["checkpoints_skipped"] = metrics.checkpoints_skipped
    return {
        "rows": [superstep_metrics_to_dict(s) for s in metrics.supersteps],
        "summary": summary,
        "summary_line": metrics.summary(),
        "recovery_events": list(metrics.recovery_events),
    }


def run_metrics_from_dict(payload):
    """Rebuild a :class:`RunMetrics` from a ``metrics.json`` document."""
    metrics = RunMetrics()
    for row in payload.get("rows", ()):
        metrics.add_superstep(superstep_metrics_from_dict(row))
    summary = payload.get("summary", {})
    metrics.total_seconds = summary.get("total_seconds", 0.0)
    metrics.rollback_count = summary.get("rollback_count", 0)
    metrics.checkpoints_skipped = summary.get("checkpoints_skipped", 0)
    metrics.recovery_events = list(payload.get("recovery_events", ()))
    # recovered_supersteps was re-derived from the rows' recovered flags.
    return metrics
