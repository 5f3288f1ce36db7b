"""The Graft Instrumenter.

The paper's instrumenter uses Javassist to wrap the user's
``vertex.compute()`` inside an instrumented one "which is the final program
that is submitted to Giraph". Here :func:`instrument` wraps the user's
:class:`~repro.pregel.Computation` factory in one producing
:class:`InstrumentedComputation` objects — the engine runs those, none the
wiser, and the user's class is untouched.

Per ``compute()`` call the wrapper:

1. notes the pre-call context (value, incoming messages, and — when the
   vertex is already known to be captured — an eager copy of its edges);
2. invokes the user's ``compute()`` on the untouched context;
3. when it returns *or raises*, walks ``ctx.send_log()`` once — one entry
   per send call, a broadcast unexpanded — and checks the message-value
   constraint in send order, with the sender's id and before any
   combining, per the paper's signature: the library's non-negativity
   predicate, which reads only the value, once per entry (a failing
   broadcast is one violation per target), any other predicate once per
   ``(target, value)``. The pairs (``ctx.sent_messages()``) are expanded
   only for a vertex step 4 captures, and a debugged run emits exactly
   the outbox a plain run does;
4. afterwards checks the vertex-value constraint on the final value and
   decides whether to capture (any of the five categories, or
   all-active), honoring the superstep filter and the max-captures
   safety net;
5. on an exception, captures the context with the error and traceback,
   then either re-raises (failing the job, Giraph-style) or — with
   ``continue_on_exception()`` — halts just that vertex and keeps going.

A caveat the library shares with Giraph's object-reuse conventions: vertex
values and messages are treated as immutable; a ``compute()`` that mutates
a value object *in place* (rather than ``ctx.set_value(new)``) can make the
recorded pre-value wrong. Edge maps are only eagerly copied for vertices
known in advance to be captured; constraint-triggered captures of a
``compute()`` that also mutated its edges record the *post* edges (noted in
DESIGN.md; no scenario algorithm does this).
"""

import traceback

from repro.graft.capture import (
    REASON_ALL_ACTIVE,
    REASON_EXCEPTION,
    REASON_MESSAGE,
    REASON_VERTEX_VALUE,
    ExceptionRecord,
    VertexContextRecord,
    Violation,
)
from repro.pregel.computation import Computation


def instrument(computation_factory, session):
    """Wrap ``computation_factory`` for a Graft session.

    Returns a factory the engine can use directly; each call produces an
    instrumented computation bound to the next worker id (the engine
    instantiates one per worker, in worker order).
    """

    def instrumented_factory():
        worker_id = session.allocate_worker_id()
        return InstrumentedComputation(computation_factory(), session, worker_id)

    return instrumented_factory


class InstrumentedComputation(Computation):
    """The wrapped computation the engine actually runs."""

    def __init__(self, inner, session, worker_id):
        self._inner = inner
        self._session = session
        self._worker_id = worker_id

    # Delegate the non-compute hooks untouched.

    def initial_value(self, vertex_id, input_value):
        return self._inner.initial_value(vertex_id, input_value)

    def default_vertex_value(self, vertex_id):
        return self._inner.default_vertex_value(vertex_id)

    def pre_superstep(self, worker_info):
        self._inner.pre_superstep(worker_info)

    def post_superstep(self, worker_info):
        self._inner.post_superstep(worker_info)

    def compute(self, ctx, messages):
        session = self._session
        if not session.tracking(ctx.superstep):
            self._inner.compute(ctx, messages)
            return

        config = session.config
        static_reasons = session.static_reasons(ctx.vertex_id)
        all_active = session.captures_all_active
        eager = bool(static_reasons) or all_active

        value_before = ctx.value
        edges_before = ctx.edges_snapshot() if eager else None

        violations = []
        try:
            try:
                self._inner.compute(ctx, messages)
            finally:
                # Inside the same try: a predicate that raises is captured
                # as this vertex's exception, like a raise in compute().
                if session.checks_messages:
                    self._check_messages(ctx, violations)
        except Exception as exc:  # noqa: BLE001 - captured, then policy decides
            if config.capture_exceptions():
                self._capture_exception(
                    ctx, exc, value_before, edges_before, violations
                )
                if config.continue_on_exception():
                    ctx.vote_to_halt()
                    return
            raise

        reasons = list(static_reasons)
        if all_active:
            reasons.append(REASON_ALL_ACTIVE)
        if violations:
            reasons.append(REASON_MESSAGE)
        if session.checks_vertex_values and not config.vertex_value_constraint(
            ctx.value, ctx.vertex_id, ctx.superstep
        ):
            violations.append(
                Violation(
                    kind="vertex_value",
                    vertex_id=ctx.vertex_id,
                    superstep=ctx.superstep,
                    details={"value": ctx.value},
                )
            )
            reasons.append(REASON_VERTEX_VALUE)

        needs_deferral = session.has_deferred_checks
        if not reasons and not needs_deferral:
            return
        record = self._build_record(
            ctx, value_before, edges_before, reasons, violations
        )
        if needs_deferral:
            session.buffer_record(record)
        else:
            session.emit_record(record)

    def _check_messages(self, ctx, violations):
        """Append a violation per sent message failing the constraint."""
        session = self._session
        constraint = session.config.message_value_constraint
        per_send = session.checks_messages_per_send
        source = ctx.vertex_id
        superstep = ctx.superstep
        for entry in ctx.send_log():
            if entry.__class__ is tuple:        # a point send
                target, value = entry
                if constraint(value, source, target, superstep):
                    continue
                failed = (target,)
            elif per_send:
                # Value-only: what it says of the first target holds for all.
                value, targets = entry
                if not targets or constraint(value, source, targets[0], superstep):
                    continue
                failed = targets
            else:
                value, targets = entry
                failed = (
                    target for target in targets
                    if not constraint(value, source, target, superstep)
                )
            for target in failed:
                violations.append(
                    Violation(
                        kind="message",
                        vertex_id=source,
                        superstep=superstep,
                        details={
                            "message": value,
                            "source": source,
                            "target": target,
                        },
                    )
                )

    def _build_record(self, ctx, value_before, edges_before, reasons, violations):
        return VertexContextRecord(
            vertex_id=ctx.vertex_id,
            superstep=ctx.superstep,
            worker_id=self._worker_id,
            value_before=value_before,
            edges_before=(
                edges_before if edges_before is not None else ctx.edges_snapshot()
            ),
            # The inbox is immutable during compute(), so its pairs are
            # read lazily here — only captured vertices pay for them.
            incoming=ctx.incoming_messages(),
            aggregators=self._session.aggregator_snapshot(),
            num_vertices=ctx.num_vertices,
            num_edges=ctx.num_edges,
            run_seed=self._session.run_seed,
            value_after=ctx.value,
            edges_after=ctx.edges_snapshot(),
            sent=ctx.sent_messages(),
            halted=ctx.halted,
            reasons=reasons,
            violations=violations,
        )

    def _capture_exception(self, ctx, exc, value_before, edges_before, violations):
        record = self._build_record(
            ctx,
            value_before,
            edges_before,
            reasons=[REASON_EXCEPTION],
            violations=violations,
        )
        record.exception = ExceptionRecord(
            type_name=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
        )
        self._session.emit_record(record)
