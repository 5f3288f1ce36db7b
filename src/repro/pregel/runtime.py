"""Superstep scheduling: one step per worker, in the calling process.

The engine splits each superstep into one *step* per worker — a zero-arg
callable returning a :class:`StepOutcome` — and hands the batch to an
:class:`ExecutionBackend`, which decides only the order the steps run in.
Every reduction that follows — message routing, aggregator merges,
mutations, metrics, Graft trace drains — happens in the engine at the
barrier in worker-id order, which is why results and trace files do not
depend on the backend chosen.

Steps share no mutable state: each one touches only its own worker's
vertex state, a private packed outbox, and a private
:class:`~repro.pregel.aggregators.AggregatorBuffer`, so their order within
a superstep cannot change what the barrier sees. Tests substitute their
own backend through this seam (``tests/reversed_backend.py`` runs the
steps in reverse worker order).

Every run's steps execute in the calling process under
:class:`SerialBackend`, whichever accepted name selects it: no other
backend was ≥ 1.3× serial on two cores (see ``docs/performance.md``,
"Executors: one process").
"""

from dataclasses import dataclass, field

from repro.common.errors import PregelError

#: The names ``executor=`` accepts. Both run the serial schedule;
#: ``"processes"`` stays only because existing callers pass it.
EXECUTOR_NAMES = ("serial", "processes")


@dataclass
class StepOutcome:
    """Everything one worker's superstep produced, ready for the barrier.

    ``outbox`` is the worker's live outbox (packed columns, or the spill
    plane's run outbox). ``error`` holds the
    :class:`~repro.common.errors.ComputeError` that aborted the step under
    the ``raise`` policy, if any.
    """

    worker_id: int
    elapsed: float = 0.0
    outbox: object = None
    agg_partials: dict = field(default_factory=dict)
    add_vertex_requests: list = field(default_factory=list)
    remove_vertex_requests: list = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    compute_calls: int = 0
    compute_errors: list = field(default_factory=list)
    error: object = None


class ExecutionBackend:
    """Runs one superstep's worker steps; subclasses pick the order."""

    #: Backend name reported by ``PregelEngine.executor_name``.
    name = "base"

    def run_superstep(self, steps):
        """Run every step; return their outcomes ordered by step index."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Steps run in worker-id order on the calling thread.

    Short-circuits as soon as a step reports a fatal ``error``, matching
    the classic single-threaded engine exactly: later workers never run,
    so their Graft traces show nothing for the aborted superstep.
    """

    name = "serial"

    def run_superstep(self, steps):
        outcomes = []
        for step in steps:
            outcome = step()
            outcomes.append(outcome)
            if outcome.error is not None:
                break
        return outcomes


def resolve_backend(executor, num_workers):
    """Turn an ``executor=`` argument into an :class:`ExecutionBackend`.

    Accepts a name from :data:`EXECUTOR_NAMES` — each selects
    :class:`SerialBackend` — or an already-constructed backend instance
    (for tests and extensions).
    """
    if isinstance(executor, ExecutionBackend):
        return executor
    if executor in EXECUTOR_NAMES:
        return SerialBackend()
    raise PregelError(
        f"executor must be one of {EXECUTOR_NAMES} or an ExecutionBackend, "
        f"got {executor!r}"
    )
