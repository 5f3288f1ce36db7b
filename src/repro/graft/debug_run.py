"""The Graft session and the user-facing :func:`debug_run` entry point.

:class:`GraftSession` is the run-time half of the debugger: it owns the
capture policy derived from the user's :class:`~repro.graft.DebugConfig`,
the per-worker trace writers, the random-capture selection, the master
capture, the extended-constraint barrier checks, and the max-captures
safety net. It attaches to the engine as a listener — the engine has no
knowledge of Graft, mirroring how the paper's instrumented jar is "the
final program that is submitted to Giraph".

:func:`debug_run` is the one call a user makes::

    run = debug_run(MyComputation, graph, MyDebugConfig(), master=...)
    run.tabular_view(superstep=41).render()
    report = run.reproduce(vertex_id=672, superstep=41)
    print(run.generate_test_code(672, 41))
"""

import itertools
import warnings

from repro.common.errors import (
    GraftError,
    PregelError,
    ReproError,
    StaticAnalysisError,
)
from repro.common.rng import derive_rng
from repro.graft.capture import (
    REASON_MESSAGE,
    REASON_NEIGHBOR,
    REASON_NEIGHBORHOOD,
    REASON_RANDOM,
    REASON_SPECIFIED,
    MasterContextRecord,
    Violation,
)
from repro.graft.config import nonnegative_message
from repro.graft.trace import TraceReader, TraceStore

_JOB_COUNTER = itertools.count()


class GraftSession:
    """Run-time capture machinery; also an engine listener."""

    def __init__(self, config, graph, filesystem, job_id, num_workers, codec=None):
        self.config = config.validate()
        self._graph = graph
        self.filesystem = filesystem
        self.job_id = job_id
        self.num_workers = num_workers
        self.store = TraceStore(filesystem, job_id, num_workers, codec)
        self._worker_ids = itertools.count()
        self._static_reasons = {}
        self._current_aggregators = {}
        # Per-worker pending records: ``_buffers`` are ready to write,
        # ``_deferred`` still await the barrier-time extended checks.
        # During a superstep each worker's step appends only to its own
        # list (no locks needed under concurrent backends); the barrier
        # drains them to the trace files in worker-id order — the order a
        # serial run would have written.
        self._buffers = {wid: [] for wid in range(num_workers)}
        self._deferred = {wid: [] for wid in range(num_workers)}
        self._engine = None
        self.run_seed = None
        self.superstep_metrics = []
        self.capture_count = 0
        self.capture_limit_hit = False
        self._finalized = False
        # Cache the config-shape booleans once; they are consulted per vertex.
        self.captures_all_active = config.capture_all_active()
        self.checks_messages = config.checks_messages()
        # The library's predicate never reads its target: one call per send.
        self.checks_messages_per_send = (
            type(config).message_value_constraint is nonnegative_message
        )
        self.checks_vertex_values = config.checks_vertex_values()
        self.checks_messages_with_target = config.checks_messages_with_target()
        self.checks_neighborhoods = config.checks_neighborhoods()
        self.has_deferred_checks = (
            self.checks_messages_with_target or self.checks_neighborhoods
        )

    # -- instrumenter-facing API ----------------------------------------------

    def allocate_worker_id(self):
        return next(self._worker_ids)

    def tracking(self, superstep):
        """Whether anything should be captured this superstep."""
        if self.capture_limit_hit:
            return False
        return self.config.should_capture_superstep(superstep)

    def static_reasons(self, vertex_id):
        """Reasons known before the run (specified/random/neighbor)."""
        return self._static_reasons.get(vertex_id, ())

    def aggregator_snapshot(self):
        return self._current_aggregators

    def emit_record(self, record):
        """Queue a capture in its worker's buffer for the barrier drain.

        Called from inside worker steps (possibly concurrently — each
        worker touches only its own buffer). The max-captures safety net
        is enforced at drain time, where the global write order is known.
        """
        self._buffers[record.worker_id].append(record)

    def buffer_record(self, record):
        """Hold a record until barrier-time extended checks run."""
        self._deferred[record.worker_id].append(record)

    def _drain(self, pending, keep=None):
        """Write pending records to the store in worker-id order.

        Reproduces a serial run's write order exactly: worker 0's records
        (in compute order), then worker 1's, and so on — which also makes
        the max-captures cutoff land on the same record regardless of the
        execution backend. ``keep`` filters each worker's records first
        (the deferred checks, which decide whether a record is captured).
        """
        max_captures = self.config.max_captures()
        for worker_id in sorted(pending):
            records = pending[worker_id]
            if not records:
                continue
            pending[worker_id] = []
            if keep is not None:
                records = [record for record in records if keep(record)]
            if self.capture_limit_hit:
                continue
            allowed = max_captures - self.capture_count
            if len(records) > allowed:
                self.capture_limit_hit = True
                records = records[:allowed]
            if records:
                self.store.write_vertex_records(records)
                self.capture_count += len(records)

    # -- process-backend payload transfer ---------------------------------
    # Under executor="processes" each step runs in a forked child, so the
    # records it buffered live in the child's memory. The engine calls
    # collect_step_payload inside the child and absorb_step_payload in the
    # parent at the barrier, after which draining proceeds as usual.

    def collect_step_payload(self, worker_id):
        return (
            self._buffers.get(worker_id, []),
            self._deferred.get(worker_id, []),
        )

    def absorb_step_payload(self, worker_id, payload):
        records, deferred = payload
        self._buffers[worker_id] = list(records)
        self._deferred[worker_id] = list(deferred)

    # -- engine listener hooks -------------------------------------------------

    def on_start(self, engine):
        self._engine = engine
        self.run_seed = engine._seed
        self._select_static_captures()

    def on_master_computed(self, superstep, master_ctx):
        self._current_aggregators = master_ctx.aggregator_snapshot()
        self.store.write_master_record(
            MasterContextRecord(
                superstep=superstep,
                aggregators=dict(self._current_aggregators),
                aggregators_before=master_ctx.initial_aggregator_snapshot(),
                halted=master_ctx.halted,
            )
        )

    def on_superstep_end(self, superstep, metrics):
        self._drain(self._buffers)
        self._drain(
            self._deferred,
            keep=lambda record: self._passes_deferred_checks(record, superstep),
        )
        self.superstep_metrics.append(metrics)
        self.store.flush()

    def on_superstep_aborted(self, superstep, worker_id):
        """A step's fatal error is about to propagate; persist like serial.

        A serial engine never runs workers after the failing one, so their
        buffered captures (which concurrent backends *did* produce) are
        discarded; everything up to and including the failing worker is
        drained. Deferred records are dropped — their barrier-time checks
        never ran in a failing serial superstep either.
        """
        for wid in self._buffers:
            if wid > worker_id:
                self._buffers[wid] = []
        for wid in self._deferred:
            self._deferred[wid] = []
        self._drain(self._buffers)
        self.store.flush()

    def on_rollback(self, failed_superstep, restored_superstep):
        """The engine is rolling back to a checkpoint; discard torn state.

        Buffered and deferred captures belong to the superstep that
        failed — it will re-execute, re-capturing them — and the trace
        files may carry a torn frame or stale sidecar from a crash during
        a write. Repairing here means re-execution appends to structurally
        sound files; re-captured records duplicate already-persisted ones,
        which the canonical trace merge deduplicates.
        """
        for wid in self._buffers:
            self._buffers[wid] = []
        for wid in self._deferred:
            self._deferred[wid] = []
        self.store.repair()

    def on_finish(self, result):
        self.finalize()

    def finalize(self):
        """Flush and close trace writers; idempotent."""
        if not self._finalized:
            self._drain(self._buffers)
            self.store.close()
            self._finalized = True

    # -- internals -----------------------------------------------------------

    def _select_static_captures(self):
        reasons = {}
        for vertex_id in self.config.vertices_to_capture():
            reasons.setdefault(vertex_id, []).append(REASON_SPECIFIED)
        wanted = self.config.num_random_vertices_to_capture()
        if wanted:
            population = list(self._graph.vertex_ids())
            rng = derive_rng(self.run_seed, "graft", "random-capture")
            for vertex_id in rng.sample(population, min(wanted, len(population))):
                reasons.setdefault(vertex_id, []).append(REASON_RANDOM)
        if self.config.capture_neighbors_of_vertices():
            for vertex_id in list(reasons):
                if not self._graph.has_vertex(vertex_id):
                    continue
                for neighbor in self._graph.neighbors(vertex_id):
                    entry = reasons.setdefault(neighbor, [])
                    if REASON_NEIGHBOR not in entry:
                        entry.append(REASON_NEIGHBOR)
        self._static_reasons = {v: tuple(r) for v, r in reasons.items()}

    def _passes_deferred_checks(self, record, superstep):
        """Barrier-time extended constraints (Section 7 future work).

        ``_drain`` calls this in worker-id then compute order — the order a
        serial run evaluated them in. True when the record is captured.
        """
        if self.checks_messages_with_target:
            self._check_target_constraints(record, superstep)
        if self.checks_neighborhoods:
            self._check_neighborhood(record, superstep)
        return bool(record.reasons)

    def _check_target_constraints(self, record, superstep):
        for target, value in record.sent:
            try:
                target_value = self._engine.vertex_value(target)
            except PregelError:
                continue
            ok = self.config.message_value_constraint_with_target(
                value, record.vertex_id, target, target_value, superstep
            )
            if not ok:
                record.violations.append(
                    Violation(
                        kind="message_target",
                        vertex_id=record.vertex_id,
                        superstep=superstep,
                        details={
                            "message": value,
                            "source": record.vertex_id,
                            "target": target,
                            "target_value": target_value,
                        },
                    )
                )
                if REASON_MESSAGE not in record.reasons:
                    record.reasons.append(REASON_MESSAGE)

    def _check_neighborhood(self, record, superstep):
        neighbor_values = {}
        for neighbor in record.edges_after:
            if self._engine.has_vertex(neighbor):
                neighbor_values[neighbor] = self._engine.vertex_value(neighbor)
        ok = self.config.neighborhood_constraint(
            record.value_after, neighbor_values, record.vertex_id, superstep
        )
        if not ok:
            record.violations.append(
                Violation(
                    kind="neighborhood",
                    vertex_id=record.vertex_id,
                    superstep=superstep,
                    details={
                        "value": record.value_after,
                        "neighbor_values": neighbor_values,
                    },
                )
            )
            if REASON_NEIGHBORHOOD not in record.reasons:
                record.reasons.append(REASON_NEIGHBORHOOD)


class DebugRun:
    """Everything a user does after (or about) one debugged run."""

    def __init__(self, session, computation_factory, graph, result, failure,
                 lint_report=None):
        self.session = session
        self.computation_factory = computation_factory
        self.graph = graph
        self.result = result
        self.failure = failure
        #: The pre-flight graft-lint report (None when linting was skipped
        #: or the class source was unavailable).
        self.lint_report = lint_report
        #: Index-backed by default: opening the reader parses only the
        #: sidecars; records decode as the views ask for them.
        self.reader = TraceReader(session.filesystem, session.job_id)

    # -- outcome ------------------------------------------------------------

    @property
    def ok(self):
        """True when the computation itself finished without failing."""
        return self.failure is None

    @property
    def capture_count(self):
        return self.session.capture_count

    @property
    def capture_limit_hit(self):
        return self.session.capture_limit_hit

    @property
    def trace_bytes(self):
        return self.session.store.total_bytes()

    def summary(self):
        outcome = self.result.summary() if self.ok else f"FAILED: {self.failure}"
        return (
            f"job {self.session.job_id}: {outcome}; "
            f"{self.capture_count} captures, {self.trace_bytes} trace bytes"
        )

    # -- capture queries (delegating to the trace reader) ------------------

    def captured(self, vertex_id, superstep):
        return self.reader.get(vertex_id, superstep)

    def captures_at(self, superstep):
        return self.reader.at_superstep(superstep)

    def history(self, vertex_id):
        return self.reader.history(vertex_id)

    def violations(self, superstep=None):
        return self.reader.violations(superstep)

    def exceptions(self, superstep=None):
        return self.reader.exceptions(superstep)

    def master_contexts(self):
        return list(self.reader.master_records)

    def superstep_stats(self):
        """Per-superstep engine counters collected during the debugged run."""
        return list(self.session.superstep_metrics)

    def superstep_table(self, limit=None):
        """Activity trend, one row per superstep.

        The quick way to see the shape of a run — e.g. the paper's MWM
        scenario, where the active set shrinks to a small stuck core that
        never reaches zero.
        """
        rows = self.superstep_stats()
        if limit is not None:
            rows = rows[-limit:]
        return "\n".join(metrics.row() for metrics in rows)

    # -- the three GUI views -------------------------------------------------

    def node_link_view(self, superstep=None):
        from repro.graft.views.nodelink import NodeLinkView

        return NodeLinkView(self.reader, self.graph, superstep)

    def tabular_view(self, superstep=None):
        from repro.graft.views.tabular import TabularView

        return TabularView(self.reader, superstep)

    def violations_view(self, sanitizer=None):
        from repro.graft.views.violations import ViolationsView

        return ViolationsView(
            self.reader, lint_report=self.lint_report, sanitizer=sanitizer
        )

    def observed_evidence_kinds(self):
        """The runtime evidence kinds this run actually produced.

        Constraint-violation kinds from the trace, plus ``"exception"``
        when any compute() raised, plus ``"nontermination"`` when the run
        only ended by exhausting ``max_supersteps`` — the vocabulary the
        static analyzer's ``predicts`` forecasts are graded against.
        """
        from repro.pregel import halting

        kinds = {violation.kind for violation in self.violations()}
        if self.exceptions():
            kinds.add("exception")
        if (
            self.result is not None
            and self.result.halt_reason == halting.MAX_SUPERSTEPS
        ):
            kinds.add("nontermination")
        return sorted(kinds)

    def prediction_score(self):
        """Grade the pre-flight lint's proven forecasts against this run.

        See :func:`repro.analysis.score_predictions` — precision is over
        the proven findings' ``predicts`` kinds, recall over the observed
        evidence the analyzer had a chance to predict.
        """
        from repro.analysis import score_predictions

        return score_predictions(
            self.lint_report, self.observed_evidence_kinds()
        )

    def explain_violation(self, violation):
        """Static findings that predicted ``violation``'s kind, if any.

        The cross-link from runtime evidence back to the pre-flight lint
        pass: a negative-message violation from a wrapped Short16 comes
        back annotated with the GL007 finding that warned about it.
        """
        from repro.analysis import predicted_findings

        return predicted_findings(self.lint_report, violation.kind)

    def html_report(self):
        """The whole run as one self-contained HTML page (the GUI artifact)."""
        from repro.graft.report import render_html_report

        return render_html_report(self)

    def export_html_report(self, path):
        """Write the HTML report to a local file; returns the path."""
        from repro.graft.report import export_html_report

        return export_html_report(self, path)

    def export_traces(self, directory):
        """Copy the run's trace files to a real directory for inspection."""
        self.session.filesystem.export_to_directory(directory)
        return directory

    # -- reproduce ------------------------------------------------------------

    def reproduce(self, vertex_id, superstep, verify=True, trace_lines=True):
        """Replay one captured compute() call; see :mod:`repro.graft.reproducer`."""
        from repro.graft.reproducer import replay_record

        record = self.reader.get(vertex_id, superstep)
        return replay_record(
            record,
            self.computation_factory,
            verify=verify,
            trace_lines=trace_lines,
        )

    def generate_test_code(self, vertex_id, superstep, test_name=None):
        """Generate the standalone pytest file for one captured context."""
        from repro.graft.reproducer import generate_test_code

        record = self.reader.get(vertex_id, superstep)
        return generate_test_code(
            record, self.computation_factory, test_name=test_name
        )

    def generate_master_test_code(self, superstep, master_factory):
        """Generate a pytest file reproducing the master's context."""
        from repro.graft.reproducer import generate_master_test_code

        record = self.reader.master_at(superstep)
        if record is None:
            raise GraftError(f"no master capture for superstep {superstep}")
        return generate_master_test_code(record, master_factory)


def debug_job(
    filesystem,
    input_path,
    computation_factory,
    config,
    directed=True,
    job_id=None,
    **engine_kwargs,
):
    """Debug a DFS-resident job: the paper's submission flow end to end.

    Reads the input graph from ``input_path`` on ``filesystem`` (the
    adjacency file a plain :func:`~repro.pregel.run_job` would read),
    runs it under Graft, and writes the traces to the same file system —
    exactly how the original Graft wraps a job whose input and traces both
    live on HDFS.
    """
    from repro.graph.io import read_adjacency_simfs

    graph = read_adjacency_simfs(filesystem, input_path, directed=directed)
    return debug_run(
        computation_factory,
        graph,
        config,
        filesystem=filesystem,
        job_id=job_id,
        **engine_kwargs,
    )


def _persist_metrics(session, result):
    """Write the run's metrics.json next to its trace files.

    A completed run persists the engine's full :class:`RunMetrics`; a
    failed run still persists the supersteps that did complete (built from
    the session's listener-observed rows) — profiling a failed run is
    exactly when the numbers matter. Persistence must never mask the run's
    own outcome, so filesystem errors are swallowed.
    """
    from repro.graft.trace import write_job_metrics
    from repro.pregel.metrics import RunMetrics

    if result is not None:
        metrics = result.metrics
    else:
        metrics = RunMetrics()
        for row in session.superstep_metrics:
            metrics.add_superstep(row)
        metrics.total_seconds = metrics.total_wall_seconds
    try:
        write_job_metrics(session.filesystem, session.job_id, metrics)
    except Exception:  # noqa: BLE001 - telemetry only, never break the run
        pass


def _preflight_lint(computation_factory, lint, strict, combiner=None):
    """Run graft-lint on the computation class before instrumenting.

    Returns the :class:`~repro.analysis.AnalysisReport` (or None when
    linting is off or the class cannot be analyzed). A message combiner,
    when the run uses one, is analyzed too (GL015 non-commutativity) and
    its findings are merged into the same report. ``strict=True`` turns
    error-severity findings into a :class:`StaticAnalysisError` — the
    program is refused before any superstep executes; otherwise errors are
    surfaced as a :class:`~repro.analysis.GraftLintWarning`.
    """
    if lint is False:
        return None
    try:
        from repro.analysis import (
            GraftLintWarning,
            analyze_combiner,
            analyze_computation,
        )

        cls = computation_factory
        if not isinstance(cls, type):
            cls = type(computation_factory())
        report = analyze_computation(cls)
        if combiner is not None:
            combiner_cls = combiner if isinstance(combiner, type) else (
                type(combiner)
            )
            combiner_report = analyze_combiner(combiner_cls)
            if combiner_report.analyzed and combiner_report.findings:
                # analyze_computation may have returned a cached report;
                # merge into a fresh one rather than mutating the cache.
                from repro.analysis import AnalysisReport

                report = AnalysisReport(
                    class_name=report.class_name,
                    filename=report.filename,
                    findings=list(report.findings)
                    + list(combiner_report.findings),
                    analyzed=report.analyzed,
                ).sort()
    except StaticAnalysisError:
        raise
    except Exception:  # noqa: BLE001 - lint must never break a debug run
        return None
    if report.has_errors:
        if strict:
            raise StaticAnalysisError(report.class_name, report.errors)
        warnings.warn(
            f"graft-lint: {report.summary()} — the captured run may not "
            "replay faithfully (pass strict=True to refuse such programs, "
            "or lint=False to silence this)",
            GraftLintWarning,
            stacklevel=3,
        )
    return report


def debug_run(
    computation_factory,
    graph,
    config,
    filesystem=None,
    job_id=None,
    lint=True,
    strict=False,
    **engine_kwargs,
):
    """Run a computation under Graft and return a :class:`DebugRun`.

    ``engine_kwargs`` are passed to :class:`~repro.pregel.PregelEngine`
    (``master=``, ``combiner=``, ``num_workers=``, ``seed=``,
    ``max_supersteps=`` ...). If the computation itself fails (a
    ``compute()`` raised and the config does not continue past exceptions),
    the failure is returned on ``DebugRun.failure`` rather than raised — the
    traces collected up to the failure are exactly what the user wants to
    inspect.

    Before instrumenting, the computation class goes through graft-lint
    (:mod:`repro.analysis`). Error-severity findings — hazards that break
    capture fidelity or exact replay — warn by default
    (:class:`~repro.analysis.GraftLintWarning`); with ``strict=True`` the
    program is refused with :class:`StaticAnalysisError` before any
    superstep executes. ``lint=False`` skips the analysis entirely. The
    report is kept on ``DebugRun.lint_report`` and cross-linked to runtime
    violations and fidelity checks.
    """
    from repro.graft.instrumenter import instrument
    from repro.pregel.engine import PregelEngine
    from repro.simfs.filesystem import SimFileSystem

    lint_report = _preflight_lint(
        computation_factory, lint, strict,
        combiner=engine_kwargs.get("combiner"),
    )
    if filesystem is None:
        filesystem = SimFileSystem()
    if job_id is None:
        job_id = f"job-{next(_JOB_COUNTER)}"
    num_workers = engine_kwargs.get("num_workers", 4)
    partitioner = engine_kwargs.get("partitioner")
    if partitioner is not None:
        num_workers = partitioner.num_workers

    session = GraftSession(config, graph, filesystem, job_id, num_workers)
    engine = PregelEngine(
        instrument(computation_factory, session),
        graph,
        listeners=[session],
        **engine_kwargs,
    )
    result = None
    failure = None
    try:
        result = engine.run()
    except ReproError as exc:
        failure = exc
    finally:
        session.finalize()
    _persist_metrics(session, result)
    return DebugRun(
        session, computation_factory, graph, result, failure,
        lint_report=lint_report,
    )
