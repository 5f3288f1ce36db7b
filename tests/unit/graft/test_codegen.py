"""Unit tests for generated test files (the paper's Figure 6 analogue).

The strongest check here is executing the generated code: every generated
test file is compiled and run in-process, which is exactly what a user's
IDE would do after pasting it.
"""

import pytest

from repro.graft import (
    CaptureAllActiveConfig,
    DebugConfig,
    debug_run,
    generate_end_to_end_test,
    generate_master_test_code,
    generate_test_code,
)
from repro.graph import GraphBuilder
from repro.pregel import Computation


class Accumulate(Computation):
    def initial_value(self, vertex_id, input_value):
        return 10

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + sum(messages))
        if ctx.superstep == 0:
            ctx.send_message_to_all_neighbors(ctx.value)
        else:
            ctx.vote_to_halt()


def pair_graph():
    return GraphBuilder(directed=False).edge(0, 1).build()


def execute_generated(code, **extra_names):
    """Compile and run a generated test file the way pytest would."""
    namespace = {"__name__": "generated_test", **extra_names}
    exec(compile(code, "<generated>", "exec"), namespace)
    tests = [v for k, v in namespace.items() if k.startswith("test_")]
    assert tests, "generated file defines no test function"
    for test in tests:
        test()
    return namespace


@pytest.fixture
def run():
    return debug_run(
        Accumulate, pair_graph(), CaptureAllActiveConfig(), seed=2, num_workers=2
    )


class TestVertexCodegen:
    def test_generated_code_executes_and_passes(self, run):
        code = run.generate_test_code(0, 1)
        execute_generated(code)

    def test_generated_code_for_superstep_zero(self, run):
        execute_generated(run.generate_test_code(1, 0))

    def test_code_contains_context_literals(self, run):
        code = run.generate_test_code(0, 1)
        assert "vertex_id=0" in code
        assert "superstep=1" in code
        assert "run_seed=2" in code
        assert "ReplayHarness" in code
        assert "Accumulate()" in code

    def test_assertions_reflect_recorded_outcome(self, run):
        record = run.captured(0, 1)
        code = run.generate_test_code(0, 1)
        assert f"assert outcome.value == {record.value_after}" in code
        assert "assert outcome.halted is True" in code

    def test_replay_and_codegen_round_trip_on_pairs(self):
        """Capture, replay and the generated file all speak the record's own
        ``(source, value)`` pairs — no message object in between."""
        from repro.graft.reproducer import ReplayHarness

        fan_in = GraphBuilder().edge(0, 2).edge(1, 2).build()
        fan_in_run = debug_run(
            Accumulate, fan_in, CaptureAllActiveConfig(), seed=2, num_workers=2
        )
        record = fan_in_run.captured(2, 1)
        assert record.incoming == [(0, 10), (1, 10)]
        ctx, _services = ReplayHarness.from_record(record).build_context()
        assert ctx.incoming_messages() == record.incoming
        code = fan_in_run.generate_test_code(2, 1)
        assert "incoming=[(0, 10), (1, 10)]" in code
        assert "repro.pregel.messages" not in code
        execute_generated(code)

    def test_custom_test_name(self, run):
        code = run.generate_test_code(0, 1, test_name="test_my_bug")
        assert "def test_my_bug():" in code

    def test_default_name_mentions_vertex_and_superstep(self, run):
        assert "def test_reproduce_vertex_0_superstep_1():" in run.generate_test_code(0, 1)

    def test_generated_code_with_dataclass_values_executes(self):
        from repro.algorithms import GCMaster, GraphColoring

        gc_run = debug_run(
            GraphColoring,
            GraphBuilder(directed=False).cycle(0, 1, 2).build(),
            CaptureAllActiveConfig(),
            master=GCMaster(),
            seed=1,
            max_supersteps=100,
        )
        record = gc_run.reader.vertex_records[-1]
        code = gc_run.generate_test_code(record.vertex_id, record.superstep)
        assert "GCValue(" in code
        execute_generated(code)

    def test_exception_record_generates_raising_test(self):
        class Boom(Computation):
            def compute(self, ctx, messages):
                raise ArithmeticError("bad math")

        boom_run = debug_run(Boom, pair_graph(), DebugConfig(), seed=1)
        record, _exc = boom_run.exceptions()[0]
        code = generate_test_code(record, Boom)
        assert "'ArithmeticError'" in code
        # Boom is defined inside this test, so the generated file carries a
        # TODO import comment and we inject the class when executing.
        assert "TODO: make Boom importable" in code
        execute_generated(code, Boom=Boom)

    def test_mutated_detection_when_code_changed(self, run):
        # A user who edits the algorithm will see the generated assertions
        # fail — that's the point of keeping them as regression tests.
        code = run.generate_test_code(0, 1)
        broken = code.replace("Accumulate()", "BrokenAccumulate()")
        namespace = {
            "__name__": "generated_test",
            "BrokenAccumulate": _BrokenAccumulate,
        }
        exec(compile(broken, "<generated>", "exec"), namespace)
        test = next(v for k, v in namespace.items() if k.startswith("test_"))
        with pytest.raises(AssertionError):
            test()


class _BrokenAccumulate(Computation):
    def compute(self, ctx, messages):
        ctx.set_value(-1)


class TestMasterCodegen:
    def test_generated_master_test_executes(self):
        from repro.algorithms import GCMaster, GraphColoring

        gc_run = debug_run(
            GraphColoring,
            GraphBuilder(directed=False).cycle(0, 1, 2).build(),
            DebugConfig(),
            master=GCMaster(),
            seed=1,
            max_supersteps=100,
        )
        code = gc_run.generate_master_test_code(1, GCMaster)
        assert "MasterReplayHarness" in code
        execute_generated(code)

    def test_missing_superstep_rejected(self, run):
        from repro.common.errors import GraftError

        with pytest.raises(GraftError, match="no master capture"):
            run.generate_master_test_code(999, Accumulate)


class TestEndToEndCodegen:
    def test_generated_e2e_test_executes(self):
        graph = GraphBuilder(directed=False).edge(0, 1).edge(1, 2).build()
        code = generate_end_to_end_test(graph, Accumulate)
        assert "run_computation" in code
        assert "TODO" in code
        execute_generated(code)

    def test_expected_values_asserted(self):
        from repro.pregel import run_computation

        graph = GraphBuilder(directed=False).edge(0, 1).build()
        expected = run_computation(Accumulate, graph).vertex_values
        code = generate_end_to_end_test(graph, Accumulate, expected_values=expected)
        assert "assert result.vertex_values ==" in code
        execute_generated(code)

    def test_wrong_expected_values_fail(self):
        graph = GraphBuilder(directed=False).edge(0, 1).build()
        code = generate_end_to_end_test(
            graph, Accumulate, expected_values={0: -99, 1: -99}
        )
        with pytest.raises(AssertionError):
            execute_generated(code)

    def test_engine_kwargs_rendered(self):
        graph = GraphBuilder(directed=False).edge(0, 1).build()
        code = generate_end_to_end_test(
            graph, Accumulate, engine_kwargs={"num_workers": 2, "seed": 7}
        )
        assert "num_workers=2" in code
        assert "seed=7" in code
        execute_generated(code)
