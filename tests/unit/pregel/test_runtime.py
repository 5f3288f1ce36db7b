"""Unit tests for the pluggable superstep execution backends."""

import multiprocessing
import os
import signal

import pytest

from repro.algorithms import PageRank, ShortestPaths
from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.common.errors import ComputeError, PregelError
from repro.datasets import load_dataset
from repro.pregel import (
    EXECUTOR_NAMES,
    CheckpointConfig,
    MinCombiner,
    PregelEngine,
    ProcessBackend,
    SerialBackend,
    StepOutcome,
    resolve_backend,
)
from repro.pregel.computation import Computation
from repro.pregel.runtime import StepBatch
from repro.simfs import SimFileSystem
from tests.reversed_backend import ReversedBackend


def _step(worker_id, log=None, error=None):
    def run():
        if log is not None:
            log.append(worker_id)
        return StepOutcome(worker_id=worker_id, error=error)

    return run


class TestResolveBackend:
    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial", 4), SerialBackend)
        assert isinstance(resolve_backend("processes", 4), ProcessBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend, 4) is backend

    def test_unknown_name_rejected(self):
        # "threads" named a backend that was removed: it fails like any
        # other unknown name, listing the two that remain.
        for name in ("gpu", "threads"):
            with pytest.raises(
                PregelError,
                match=r"executor must be one of \('serial', 'processes'\)",
            ):
                resolve_backend(name, 4)

    def test_names_constant_matches(self):
        assert EXECUTOR_NAMES == ("serial", "processes")


class TestSerialBackend:
    def test_runs_in_worker_order(self):
        log = []
        outcomes = SerialBackend().run_superstep(
            [_step(worker_id, log) for worker_id in range(4)]
        )
        assert log == [0, 1, 2, 3]
        assert [o.worker_id for o in outcomes] == [0, 1, 2, 3]

    def test_short_circuits_on_error(self):
        # Matches the classic single-threaded engine: workers after the
        # failing one never run in the aborted superstep.
        log = []
        boom = ComputeError(vertex_id=7, superstep=0, original=ValueError("x"))
        outcomes = SerialBackend().run_superstep(
            [_step(0, log), _step(1, log, error=boom), _step(2, log)]
        )
        assert log == [0, 1]
        assert len(outcomes) == 2
        assert outcomes[1].error is boom


class TestReversedBackend:
    def test_runs_backwards_and_returns_in_step_order(self):
        # The determinism matrix relies on both halves of this.
        log = []
        outcomes = ReversedBackend().run_superstep(
            [_step(worker_id, log) for worker_id in range(4)]
        )
        assert log == [3, 2, 1, 0]
        assert [o.worker_id for o in outcomes] == [0, 1, 2, 3]


class TestProcessBackend:
    def test_outcomes_cross_the_pipe(self):
        backend = ProcessBackend()
        outcomes = backend.run_superstep([_step(0), _step(1), _step(2)])
        assert [o.worker_id for o in outcomes] == [0, 1, 2]

    def test_child_exception_reraised_in_parent(self):
        def bad_step():
            raise ValueError("child blew up")

        backend = ProcessBackend()
        with pytest.raises(ValueError, match="child blew up"):
            backend.run_superstep([_step(0), bad_step])

    def test_compute_error_survives_pickling(self):
        original = ComputeError(
            vertex_id="v", superstep=3, original=ZeroDivisionError("div")
        )

        def failing_step():
            raise original

        backend = ProcessBackend()
        with pytest.raises(ComputeError) as excinfo:
            backend.run_superstep([_step(0), failing_step])
        assert excinfo.value.vertex_id == "v"
        assert excinfo.value.superstep == 3

    def test_transfers_state_flag(self):
        assert ProcessBackend.transfers_state is True
        assert SerialBackend.transfers_state is False


class _SelfStateful(Computation):
    """Counts supersteps on ``self``: hidden per-worker state."""

    def __init__(self):
        self.calls = 0

    def compute(self, ctx, messages):
        self.calls += 1
        ctx.set_value(self.calls)
        if ctx.superstep >= 1:
            ctx.vote_to_halt()


class TestEngineIntegration:
    def test_engine_closes_custom_backend(self, triangle):
        closed = []

        class Recording(SerialBackend):
            def close(self):
                closed.append(True)

        engine = PregelEngine(_SelfStateful, triangle, executor=Recording())
        engine.run()
        assert closed == [True]

    def test_executor_name_property(self, triangle):
        engine = PregelEngine(_SelfStateful, triangle, executor="processes")
        assert engine.executor_name == "processes"


# ---------------------------------------------------------------------------
# The persistent pool: fork once per run, no child outlives it
# ---------------------------------------------------------------------------


def _web(num_vertices=60):
    return load_dataset("web-BS", num_vertices=num_vertices, seed=5)


def _run(factory, graph, executor, **kwargs):
    kwargs.setdefault("num_workers", 3)
    return PregelEngine(factory, graph, executor=executor, **kwargs).run()


def _assert_no_child_left(backend):
    assert backend._pool is None
    assert multiprocessing.active_children() == []


class _FailsAtSuperstepTwo(Computation):
    def compute(self, ctx, messages):
        if ctx.superstep == 2 and ctx.vertex_id == 7:
            raise ValueError("vertex 7 gives up")
        ctx.send_message_to_all_neighbors(1.0)


class _KillsItsWorkerAtSuperstepTwo(Computation):
    """The worker computing vertex 7 dies as a machine would: SIGKILL."""

    def compute(self, ctx, messages):
        if ctx.superstep == 2 and ctx.vertex_id == 7:
            os.kill(os.getpid(), signal.SIGKILL)
        ctx.send_message_to_all_neighbors(1.0)


class _CountsOnSelf(Computation):
    """State on ``self``: per worker, kept while the pool lives."""

    def __init__(self):
        self.calls = 0

    def compute(self, ctx, messages):
        self.calls += 1
        ctx.set_value(self.calls)
        if ctx.superstep >= 3:
            ctx.vote_to_halt()
        else:
            ctx.send_message_to_all_neighbors(1)


class _Resurrects(Computation):
    """Vertex 3 removes itself at superstep 0; a message brings it back
    at superstep 2's barrier: an id the interner already holds, created
    by the resolver with no other change to the topology."""

    def initial_value(self, vertex_id, input_value):
        return 0

    def default_vertex_value(self, vertex_id):
        return 100

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + 1 + sum(messages))
        if ctx.superstep == 0 and ctx.vertex_id == 3:
            ctx.remove_vertex_request(3)
        if ctx.superstep == 2 and ctx.vertex_id == 0:
            ctx.send_message(3, 10)
        if ctx.superstep >= 4:
            ctx.vote_to_halt()


class _SendsToNowhere(Computation):
    """A message to an id no vertex has, dropped at the barrier: the
    interner grows, the graph does not."""

    def compute(self, ctx, messages):
        if ctx.superstep == 1 and ctx.vertex_id == 0:
            ctx.send_message("nowhere", 1.0)
        if ctx.superstep >= 3:
            ctx.vote_to_halt()
        else:
            ctx.send_message_to_all_neighbors(1.0)


class TestProcessPool:
    def test_mutation_free_run_forks_once_per_worker(self):
        graph = _web()
        backend = ProcessBackend()
        result = _run(lambda: PageRank(iterations=4), graph, backend)
        assert result.num_supersteps == 5
        assert backend.forks == 3
        _assert_no_child_left(backend)
        assert result.vertex_values == _run(
            lambda: PageRank(iterations=4), graph, "serial"
        ).vertex_values

    def test_sparse_run_forks_once_per_worker_and_matches_serial(self):
        graph = _web(120)
        backend = ProcessBackend()
        kwargs = dict(combiner=MinCombiner(), num_workers=2)
        result = _run(lambda: ShortestPaths(0), graph, backend, **kwargs)
        assert backend.forks == 2
        assert result.metrics.total_transport_bytes > 0
        assert result.vertex_values == _run(
            lambda: ShortestPaths(0), graph, "serial", **kwargs
        ).vertex_values

    def test_state_on_self_persists_per_worker_as_under_serial(self):
        graph = _web()
        backend = ProcessBackend()
        result = _run(_CountsOnSelf, graph, backend)
        assert backend.forks == 3
        assert result.vertex_values == _run(
            _CountsOnSelf, graph, "serial"
        ).vertex_values

    def test_resolver_created_vertex_reforks_the_pool(self):
        graph = _web()
        backend = ProcessBackend()
        result = _run(_Resurrects, graph, backend)
        # Superstep 0's pool; again after the removal at its barrier, and
        # after the resolver brought vertex 3 back at superstep 2's.
        assert backend.forks == 3 * 3
        assert result.vertex_values[3] == 100 + 11 + 1
        assert result.vertex_values[0] == 5
        assert result.vertex_values == _run(
            _Resurrects, graph, "serial"
        ).vertex_values

    def test_interner_growth_reforks_the_pool(self):
        graph = _web()
        backend = ProcessBackend()
        kwargs = dict(on_message_to_missing="drop")
        result = _run(_SendsToNowhere, graph, backend, **kwargs)
        assert result.num_supersteps == 4
        assert backend.forks == 3 * 2
        assert "nowhere" not in result.vertex_values
        assert result.vertex_values == _run(
            _SendsToNowhere, graph, "serial", **kwargs
        ).vertex_values

    def test_no_child_left_after_a_compute_error(self):
        backend = ProcessBackend()
        with pytest.raises(ComputeError) as excinfo:
            _run(_FailsAtSuperstepTwo, _web(), backend)
        assert excinfo.value.vertex_id == 7
        _assert_no_child_left(backend)

    def test_no_child_left_after_a_child_is_killed(self):
        backend = ProcessBackend()
        with pytest.raises(PregelError, match="worker process died"):
            _run(_KillsItsWorkerAtSuperstepTwo, _web(), backend)
        _assert_no_child_left(backend)

    def test_crash_recovered_from_checkpoint_reforks_and_leaves_no_child(self):
        graph = _web()
        plan = FaultPlan(
            name="pool-crash",
            faults=(FaultSpec(
                kind="step_crash", superstep=3, worker_id=1, after_calls=2
            ),),
        )
        backend = ProcessBackend()
        result = _run(
            lambda: PageRank(iterations=5), graph, backend,
            checkpoint_config=CheckpointConfig(
                SimFileSystem(), every_n_supersteps=2
            ),
            fault_injector=FaultInjector(plan),
        )
        assert result.recoveries == 1
        # The crashed superstep discards the pool; the re-run forks anew.
        assert backend.forks == 6
        _assert_no_child_left(backend)
        assert result.vertex_values == _run(
            lambda: PageRank(iterations=5), graph, "serial"
        ).vertex_values

    def test_close_reaps_an_idle_pool(self):
        backend = ProcessBackend()
        outcomes = backend.run_superstep(StepBatch(
            [_step(worker_id) for worker_id in range(3)],
            requests=lambda: [None] * 3,
            resume=lambda request: None,
        ))
        assert [o.worker_id for o in outcomes] == [0, 1, 2]
        assert len(multiprocessing.active_children()) == 3
        backend.close()
        _assert_no_child_left(backend)
