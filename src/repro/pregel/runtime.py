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
a superstep cannot change what the barrier sees.

The process backend keeps one forked child per worker for as long as the
parent's state matches what the children inherited (a *pool*). Each
superstep the parent sends every child a request — the superstep's
scalars, aggregator values, listener state and that worker's inboxes as
packed columns — and the child ships back what changed
(``StepOutcome.frame``: the outbox and the values and halt flags of the
vertices it computed). The pickled messages over each child's pipe are
the only traffic, so a failed superstep leaves nothing behind to free;
the pool is then re-forked from the parent. Whether a run forks at all is
the engine's decision, made once per run: a one-worker run and every run
on the spill plane keep their steps in the parent. There is no thread
backend: under the GIL it never beat serial (see
``docs/performance.md``).
"""

import pickle
import time
from dataclasses import dataclass, field

from repro.common.errors import PregelError

EXECUTOR_NAMES = ("serial", "processes")


@dataclass
class StepOutcome:
    """Everything one worker's superstep produced, ready for the barrier.

    Plain data (no live worker references) so the process backend can
    pickle it across a pipe. ``outbox`` is the worker's live outbox
    (packed columns, or the spill plane's run outbox) when the step ran
    in the parent. When it ran in a pool child it is ``None`` and the
    worker's products travel instead as ``frame``: the outbox, and the
    values and halt flags of the vertices the step computed. ``error``
    holds the
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
    payloads: object = None
    frame: object = None


class StepBatch(list):
    """One superstep's steps in worker-id order, resumable in a pool.

    A backend that keeps the address space a step ran in (the process
    pool) runs the *next* superstep there without re-forking:
    ``requests()`` gives one picklable request per step, and
    ``resume(request)``, called in the child that ran the previous step
    of the same worker, runs it and returns its :class:`StepOutcome`.
    """

    def __init__(self, steps, requests, resume):
        super().__init__(steps)
        self.requests = requests
        self.resume = resume


class ExecutionBackend:
    """Runs one superstep's worker steps; subclasses pick the strategy."""

    #: Backend name as accepted by ``executor=``.
    name = "base"
    #: True when steps run in another address space, so worker state and
    #: listener payloads must be shipped back via :class:`StepOutcome`.
    #: The engine hands such a backend only runs of more than one worker
    #: on the in-memory plane; it runs every other run's steps serially.
    transfers_state = False

    def run_superstep(self, steps):
        """Run every step; return their outcomes ordered by step index."""
        raise NotImplementedError

    def discard(self):
        """Forget any state the steps' address spaces inherited from the
        engine; the next superstep starts from the engine's state."""

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
    """Steps run in forked child processes: one per worker, for the run.

    At the first superstep the backend forks one child per step; the
    child runs that step on its fork-inherited copy of the engine and
    sends the pickled :class:`StepOutcome` back over its pipe. The child
    then stays: it keeps its worker, its ``Computation`` and its listener
    copies, and each later superstep the parent sends it one picklable
    request (``steps.requests()`` of the :class:`StepBatch`), which it
    runs with ``steps.resume``. The parent absorbs every outcome at the
    barrier and stays the authority for all state.

    :meth:`discard` stops the pool, and the next superstep forks a new
    one from the parent's current state. The engine calls it whenever the
    parent's state stops matching what the children inherited; the
    backend calls it itself after a failed or crashed step (its siblings
    have already advanced).
    :meth:`close` discards the pool: no child outlives the run. Requires
    the ``fork`` start method (POSIX) and picklable vertex/message values.
    """

    name = "processes"
    transfers_state = True
    #: Seconds :meth:`discard` waits for a child to exit before SIGKILL.
    join_timeout = 2.0

    def __init__(self):
        # What the superstep loop and its children use is imported when
        # the backend is built: not on the first superstep's clock, and
        # never first inside a forked worker, where every worker of every
        # pool would import it again.
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
        #: ``[(process, connection)]`` of the live pool, in step order.
        self._pool = None
        #: Children started so far (one per worker per pool).
        self.forks = 0

    def run_superstep(self, steps):
        try:
            if self._pool is None:
                self._fork(steps)
            else:
                for (_process, conn), request in zip(
                    self._pool, steps.requests()
                ):
                    conn.send(request)
            outcomes, failure = self._collect()
        except BaseException:
            self.discard()
            raise
        if failure is not None:
            self.discard()
            raise failure
        return outcomes

    def _fork(self, steps):
        pool = self._pool = []
        for step in steps:
            box = [step]
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_child_main,
                args=(box, steps.resume, child_conn,
                      [conn for _process, conn in pool] + [parent_conn]),
                daemon=True,
            )
            process.start()
            # The child has its own copy; neither side keeps the first
            # step (and the inbox it holds) past running it.
            box.clear()
            child_conn.close()
            pool.append((process, parent_conn))
            self.forks += 1

    def _collect(self):
        """Every child's reply, in step order; the first failure found."""
        outcomes = []
        failure = None
        for _process, conn in self._pool:
            try:
                status, data = conn.recv()
            except (EOFError, OSError):
                status, data = "crashed", None
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
        return outcomes, failure

    def discard(self):
        """Stop and reap every child of the pool (no-op without one).

        Closing its pipe ends a waiting child; one that has not exited
        within :attr:`join_timeout` seconds is killed."""
        pool, self._pool = self._pool, None
        if not pool:
            return
        for _process, conn in pool:
            conn.close()
        deadline = time.monotonic() + self.join_timeout
        for process, _conn in pool:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.exitcode is None:
                process.kill()
                process.join()

    def close(self):
        self.discard()


def _child_main(box, resume, conn, siblings):
    """A pool child's whole life: one worker's steps, superstep after
    superstep, until the parent closes the pipe.

    The first step is the one in ``box``, run on the engine state the
    fork inherited; each later one is ``resume(request)`` on the next
    request the parent sends, run on this child's own copy of the engine
    as the previous step left it. Every outcome (or the exception that
    ended the step) is sent back pickled; a failed step or end-of-file
    ends the child. Nothing of a step is kept past sending its outcome:
    not the request with its inbox, and not the outcome with its frame.

    ``siblings`` are the parent's ends of this child's and the earlier
    children's pipes, inherited through the fork; closing them here
    means a child sees end-of-file as soon as the parent closes (or
    loses) its own end.
    """
    for sibling in siblings:
        sibling.close()
    run, args = box.pop(), ()
    while True:
        try:
            payload = ("ok", run(*args))
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            try:
                pickle.dumps(exc)
                payload = ("error", exc)
            except Exception:  # noqa: BLE001 - unpicklable exception
                payload = ("crashed", repr(exc))
        run = args = None
        try:
            conn.send(payload)
        except Exception:  # noqa: BLE001 - e.g. unpicklable user values
            conn.send(("crashed", "step outcome could not be pickled"))
            break
        status, payload = payload[0], None
        if status != "ok":
            break
        try:
            args = (conn.recv(),)
        except (EOFError, OSError):
            break
        run = resume
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
