"""Pluggable execution backends for superstep scheduling.

The engine splits each superstep into one *step* per worker — a zero-arg
callable returning a :class:`StepOutcome` — and hands the whole batch to an
:class:`ExecutionBackend`. The backend decides only *where* the steps run
(in order on the calling thread, or in forked child processes); every
reduction that follows — message routing, aggregator merges, mutations,
metrics, Graft trace drains — happens in the engine at the barrier in
worker-id order, which is why results and trace files do not depend on
the backend chosen.

Steps share no mutable state: each one touches only its own worker's
vertex state, a private packed outbox, and a private
:class:`~repro.pregel.aggregators.AggregatorBuffer`, so their order within
a superstep cannot change what the barrier sees. The process backend
additionally ships each worker's mutated state back to the parent
(``StepOutcome.frame``, or ``StepOutcome.state`` on the spill plane),
since fork gives children copy-on-write memory the parent never sees;
the pickled outcome through the fork's pipe is the only way back, so a
failed superstep leaves nothing behind to free.
There is no thread backend: under the GIL it never beat serial (see
``docs/performance.md``).
"""

import pickle
from dataclasses import dataclass, field

from repro.common.errors import PregelError

EXECUTOR_NAMES = ("serial", "processes")


@dataclass
class StepOutcome:
    """Everything one worker's superstep produced, ready for the barrier.

    Plain data (no live worker references) so the process backend can
    pickle it across a pipe. ``outbox`` is the worker's live packed
    outbox under same-address-space backends. Under backends with
    ``transfers_state`` it is ``None`` and the worker's products travel
    instead as ``frame`` (in-memory plane). The spill plane always
    reports through ``state`` — its run summary, plus the dirty pages
    and the sealed run file when they must cross a process boundary.
    ``error`` holds the
    :class:`~repro.common.errors.ComputeError` that aborted the step under
    the ``raise`` policy, if any. ``payloads`` carries opaque per-listener
    data collected in the child (e.g. Graft's buffered capture records).
    ``frame`` is this worker's packed columnar frame as plain ``bytes``
    (see :mod:`repro.pregel.columnar`), which the barrier parses; it
    crosses the pipe with the rest of the outcome.
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
    state: object = None
    payloads: object = None
    frame: object = None


class ExecutionBackend:
    """Runs one superstep's worker steps; subclasses pick the strategy."""

    #: Backend name as accepted by ``executor=``.
    name = "base"
    #: True when steps run in another address space, so worker state and
    #: listener payloads must be shipped back via :class:`StepOutcome`.
    transfers_state = False

    def transfers_state_for(self, num_steps):
        """Whether a superstep of ``num_steps`` steps runs any of them in
        another address space (what the engine asks, once per run)."""
        return self.transfers_state

    def run_superstep(self, steps):
        """Run every step; return their outcomes ordered by step index."""
        raise NotImplementedError

    def close(self):
        """Release any pooled resources (called once after the run)."""


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


class ProcessBackend(ExecutionBackend):
    """Steps run in forked child processes, one per worker per superstep.

    Children inherit the full engine state via fork and send a pickled
    :class:`StepOutcome` back over a pipe; the parent absorbs the mutated
    worker state at the barrier. Requires a platform with ``fork`` (POSIX)
    and picklable vertex/message values. Computation instances themselves
    stay in the parent's address space — state a ``compute()`` stores on
    ``self`` does not persist across supersteps under this backend.
    """

    name = "processes"
    transfers_state = True

    def __init__(self):
        # What the superstep loop and its children use is imported when
        # the backend is built: not on the first superstep's clock, and
        # never first inside a forked worker, where every worker of every
        # superstep would import it again.
        import multiprocessing
        import multiprocessing.connection  # noqa: F401 - Pipe, Connection.send
        import multiprocessing.popen_fork  # noqa: F401 - Process.start

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise PregelError(
                "executor='processes' requires the fork start method, "
                "which this platform does not support"
            ) from exc

    def transfers_state_for(self, num_steps):
        # A lone step runs in the parent, so a one-worker run packs no
        # frame and ships no state: it is a serial run.
        return num_steps > 1

    def run_superstep(self, steps):
        if len(steps) == 1:
            return [steps[0]()]
        channels = []
        for step in steps:
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_child_main, args=(step, child_conn), daemon=True
            )
            process.start()
            child_conn.close()
            channels.append((process, parent_conn))
        outcomes = []
        failure = None
        for process, conn in channels:
            try:
                status, data = conn.recv()
            except EOFError:
                status, data = "crashed", None
            finally:
                conn.close()
            process.join()
            if status == "ok":
                outcomes.append(data)
            elif failure is None:
                if status == "error" and isinstance(data, BaseException):
                    failure = data
                else:
                    failure = PregelError(
                        "worker process died before reporting an outcome"
                        + (f": {data}" if data else "")
                    )
        if failure is not None:
            raise failure
        return outcomes


def _child_main(step, conn):
    """Run one step in the forked child and ship the outcome back."""
    try:
        outcome = step()
        payload = ("ok", outcome)
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        try:
            pickle.dumps(exc)
            payload = ("error", exc)
        except Exception:  # noqa: BLE001 - unpicklable exception
            payload = ("crashed", repr(exc))
    try:
        conn.send(payload)
    except Exception:  # noqa: BLE001 - e.g. unpicklable user values
        conn.send(("crashed", "step outcome could not be pickled"))
    finally:
        conn.close()


def resolve_backend(executor, num_workers):
    """Turn an ``executor=`` argument into an :class:`ExecutionBackend`.

    Accepts a backend name (``"serial"``, ``"processes"``)
    or an already-constructed backend instance (for tests and extensions).
    """
    if isinstance(executor, ExecutionBackend):
        return executor
    if executor == "serial":
        return SerialBackend()
    if executor == "processes":
        return ProcessBackend()
    raise PregelError(
        f"executor must be one of {EXECUTOR_NAMES} or an ExecutionBackend, "
        f"got {executor!r}"
    )
