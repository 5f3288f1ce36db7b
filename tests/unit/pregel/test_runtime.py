"""Unit tests for the pluggable superstep execution backends."""

import pytest

from repro.common.errors import ComputeError, PregelError
from repro.pregel import (
    EXECUTOR_NAMES,
    PregelEngine,
    SerialBackend,
    StepOutcome,
    resolve_backend,
)
from repro.pregel.computation import Computation
from tests.reversed_backend import ReversedBackend


def _step(worker_id, log=None, error=None):
    def run():
        if log is not None:
            log.append(worker_id)
        return StepOutcome(worker_id=worker_id, error=error)

    return run


class TestResolveBackend:
    def test_names_resolve(self):
        # Both accepted names select the one serial schedule.
        for name in EXECUTOR_NAMES:
            assert type(resolve_backend(name, 4)) is SerialBackend

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend, 4) is backend

    def test_unknown_name_rejected(self):
        # "threads" named a backend that was removed: it fails like any
        # other unknown name, listing the two accepted ones.
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
    def test_executor_name_property(self, triangle):
        # "processes" is an accepted name for the serial schedule.
        for name in EXECUTOR_NAMES:
            engine = PregelEngine(_SelfStateful, triangle, executor=name)
            assert engine.executor_name == "serial"
        engine = PregelEngine(
            _SelfStateful, triangle, executor=ReversedBackend()
        )
        assert engine.executor_name == "reversed"
