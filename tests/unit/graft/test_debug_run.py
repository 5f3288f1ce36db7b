"""Unit tests for the Graft session and debug_run (capture categories)."""

import pytest

from repro.common.errors import ComputeError
from repro.graft import CaptureAllActiveConfig, DebugConfig, debug_run
from repro.graft.capture import (
    REASON_ALL_ACTIVE,
    REASON_EXCEPTION,
    REASON_MESSAGE,
    REASON_NEIGHBOR,
    REASON_RANDOM,
    REASON_SPECIFIED,
    REASON_VERTEX_VALUE,
)
from repro.graph import GraphBuilder
from repro.pregel import Computation
from repro.simfs import SimFileSystem


class Gossip(Computation):
    """Each vertex sends its (possibly negative) value to neighbors."""

    def initial_value(self, vertex_id, input_value):
        return input_value if input_value is not None else 0

    def compute(self, ctx, messages):
        if ctx.superstep >= 2:
            ctx.vote_to_halt()
            return
        ctx.send_message_to_all_neighbors(ctx.value)


class FailOn(Computation):
    def __init__(self, bad_vertex):
        self.bad_vertex = bad_vertex

    def compute(self, ctx, messages):
        if ctx.vertex_id == self.bad_vertex and ctx.superstep == 1:
            raise RuntimeError("planted failure")
        if ctx.superstep >= 2:
            ctx.vote_to_halt()
            return
        ctx.send_message_to_all_neighbors(1)


def ring_graph(n=6, values=None):
    builder = GraphBuilder(directed=False)
    builder.cycle(*range(n))
    graph = builder.build()
    for vertex_id, value in (values or {}).items():
        graph.set_vertex_value(vertex_id, value)
    return graph


class TestCategorySpecified:
    def test_only_listed_vertices_captured(self):
        class SpecTwo(DebugConfig):
            def vertices_to_capture(self):
                return (0, 3)

        run = debug_run(Gossip, ring_graph(), SpecTwo(), seed=1)
        assert run.reader.captured_vertex_ids() == [0, 3]
        record = run.captured(0, 0)
        assert record.reasons == [REASON_SPECIFIED]

    def test_captured_every_superstep_by_default(self):
        class SpecOne(DebugConfig):
            def vertices_to_capture(self):
                return (0,)

        run = debug_run(Gossip, ring_graph(), SpecOne(), seed=1)
        assert [r.superstep for r in run.history(0)] == [0, 1, 2]

    def test_neighbors_included_when_requested(self):
        class SpecPlusNbr(DebugConfig):
            def vertices_to_capture(self):
                return (0,)

            def capture_neighbors_of_vertices(self):
                return True

        run = debug_run(Gossip, ring_graph(), SpecPlusNbr(), seed=1)
        assert run.reader.captured_vertex_ids() == [0, 1, 5]
        assert run.captured(1, 0).reasons == [REASON_NEIGHBOR]


class TestCategoryRandom:
    def test_requested_number_chosen(self):
        class RandomThree(DebugConfig):
            def num_random_vertices_to_capture(self):
                return 3

        run = debug_run(Gossip, ring_graph(12), RandomThree(), seed=2)
        assert len(run.reader.captured_vertex_ids()) == 3
        for record in run.captures_at(0):
            assert record.reasons == [REASON_RANDOM]

    def test_selection_deterministic_per_seed(self):
        class RandomThree(DebugConfig):
            def num_random_vertices_to_capture(self):
                return 3

        first = debug_run(Gossip, ring_graph(12), RandomThree(), seed=2)
        second = debug_run(Gossip, ring_graph(12), RandomThree(), seed=2)
        assert first.reader.captured_vertex_ids() == second.reader.captured_vertex_ids()

    def test_selection_varies_with_seed(self):
        class RandomThree(DebugConfig):
            def num_random_vertices_to_capture(self):
                return 3

        picks = {
            tuple(
                debug_run(Gossip, ring_graph(30), RandomThree(), seed=s)
                .reader.captured_vertex_ids()
            )
            for s in range(5)
        }
        assert len(picks) > 1

    def test_request_larger_than_graph_capped(self):
        class RandomMany(DebugConfig):
            def num_random_vertices_to_capture(self):
                return 100

        run = debug_run(Gossip, ring_graph(6), RandomMany(), seed=1)
        assert len(run.reader.captured_vertex_ids()) == 6


class TestCategoryConstraints:
    def test_vertex_value_violation_captured(self):
        class NonNegValues(DebugConfig):
            def vertex_value_constraint(self, value, vertex_id, superstep):
                return value >= 0

        graph = ring_graph(6, values={2: -7, 0: 1, 1: 1, 3: 1, 4: 1, 5: 1})
        run = debug_run(Gossip, graph, NonNegValues(), seed=1)
        ids = run.reader.captured_vertex_ids()
        assert ids == [2]
        record = run.captured(2, 0)
        assert REASON_VERTEX_VALUE in record.reasons
        assert record.violations[0].kind == "vertex_value"
        assert record.violations[0].details["value"] == -7

    def test_message_violation_captured_with_endpoints(self):
        class NonNegMessages(DebugConfig):
            def message_value_constraint(self, message, source_id, target_id, superstep):
                return message >= 0

        graph = ring_graph(6, values={4: -1, 0: 0, 1: 0, 2: 0, 3: 0, 5: 0})
        run = debug_run(Gossip, graph, NonNegMessages(), seed=1)
        assert run.reader.captured_vertex_ids() == [4]
        violations = run.violations()
        assert {v.details["target"] for v in violations} == {3, 5}
        assert all(v.details["source"] == 4 for v in violations)
        assert all(v.details["message"] == -1 for v in violations)

    def test_clean_run_captures_nothing(self):
        class NonNegMessages(DebugConfig):
            def message_value_constraint(self, message, source_id, target_id, superstep):
                return message >= 0

        run = debug_run(Gossip, ring_graph(6), NonNegMessages(), seed=1)
        assert run.capture_count == 0
        assert run.violations() == []


class TestCategoryExceptions:
    def test_exception_captured_and_job_fails(self):
        run = debug_run(lambda: FailOn(3), ring_graph(), DebugConfig(), seed=1)
        assert not run.ok
        assert isinstance(run.failure, ComputeError)
        pairs = run.exceptions()
        assert len(pairs) == 1
        record, exception = pairs[0]
        assert record.vertex_id == 3
        assert record.reasons == [REASON_EXCEPTION]
        assert exception.type_name == "RuntimeError"
        assert "planted failure" in exception.traceback_text

    def test_continue_on_exception_keeps_running(self):
        class Tolerant(DebugConfig):
            def continue_on_exception(self):
                return True

        run = debug_run(lambda: FailOn(3), ring_graph(), Tolerant(), seed=1)
        assert run.ok
        assert run.result.converged
        assert len(run.exceptions()) == 1

    def test_exception_capture_disabled(self):
        class NoCapture(DebugConfig):
            def capture_exceptions(self):
                return False

        run = debug_run(lambda: FailOn(3), ring_graph(), NoCapture(), seed=1)
        assert not run.ok
        assert run.exceptions() == []


class TestCategoryAllActive:
    def test_every_computed_vertex_captured(self):
        run = debug_run(Gossip, ring_graph(4), CaptureAllActiveConfig(), seed=1)
        # 4 vertices x 3 supersteps
        assert run.capture_count == 12
        assert all(
            REASON_ALL_ACTIVE in record.reasons
            for record in run.reader.vertex_records
        )

    def test_superstep_window_respected(self):
        run = debug_run(
            Gossip, ring_graph(4), CaptureAllActiveConfig(from_superstep=2), seed=1
        )
        assert run.reader.supersteps() == [2]


class TestSafetyNet:
    def test_max_captures_stops_capturing(self):
        run = debug_run(
            Gossip,
            ring_graph(10),
            CaptureAllActiveConfig(max_captures=7),
            seed=1,
        )
        assert run.capture_count == 7
        assert run.capture_limit_hit

    def test_limit_not_hit_when_under(self):
        run = debug_run(Gossip, ring_graph(4), CaptureAllActiveConfig(), seed=1)
        assert not run.capture_limit_hit


class TestMasterCapture:
    def test_master_context_captured_every_superstep(self):
        run = debug_run(Gossip, ring_graph(), DebugConfig(), seed=1)
        masters = run.master_contexts()
        assert [m.superstep for m in masters] == [0, 1, 2]

    def test_master_aggregators_recorded(self):
        from repro.algorithms import GCMaster, GraphColoring

        run = debug_run(
            GraphColoring,
            ring_graph(4),
            DebugConfig(),
            master=GCMaster(),
            seed=1,
            max_supersteps=300,
        )
        snapshots = [m.aggregators.get("phase") for m in run.master_contexts()]
        assert snapshots[0] == "SELECT"
        assert "ASSIGN" in snapshots


class TestRunPlumbing:
    def test_trace_bytes_positive_when_captured(self):
        run = debug_run(Gossip, ring_graph(4), CaptureAllActiveConfig(), seed=1)
        assert run.trace_bytes > 0

    def test_trace_bytes_counts_trace_files_only(self):
        """metrics.json sits in the job directory but is not trace bytes."""
        sizes = []
        for _attempt in range(2):
            run = debug_run(Gossip, ring_graph(4), CaptureAllActiveConfig(), seed=1)
            fs = run.session.filesystem
            directory = f"/graft/{run.session.job_id}"
            assert fs.is_file(f"{directory}/metrics.json")
            assert run.trace_bytes == sum(
                fs.stat(path).size
                for path in fs.glob_files(directory)
                if path.endswith((".trace", ".trace.idx"))
            )
            sizes.append(run.trace_bytes)
        assert sizes[0] == sizes[1]

    def test_summary_mentions_captures(self):
        run = debug_run(Gossip, ring_graph(4), CaptureAllActiveConfig(), seed=1)
        assert "captures" in run.summary()

    def test_caller_supplied_filesystem_used(self):
        fs = SimFileSystem()
        run = debug_run(
            Gossip, ring_graph(4), CaptureAllActiveConfig(), filesystem=fs,
            job_id="my-job", seed=1,
        )
        assert fs.is_dir("/graft/my-job")
        assert run.session.job_id == "my-job"

    def test_job_ids_unique_by_default(self):
        fs = SimFileSystem()
        first = debug_run(Gossip, ring_graph(4), DebugConfig(), filesystem=fs)
        second = debug_run(Gossip, ring_graph(4), DebugConfig(), filesystem=fs)
        assert first.session.job_id != second.session.job_id

    def test_results_identical_to_uninstrumented_run(self):
        from repro.pregel import run_computation

        plain = run_computation(Gossip, ring_graph(8), seed=5, num_workers=3)
        debugged = debug_run(
            Gossip, ring_graph(8), CaptureAllActiveConfig(), seed=5, num_workers=3
        )
        assert debugged.result.vertex_values == plain.vertex_values
        assert debugged.result.num_supersteps == plain.num_supersteps


class TestExtendedConstraints:
    def test_message_constraint_with_target_value(self):
        class NoSendToNegativeTargets(DebugConfig):
            def message_value_constraint_with_target(
                self, message, source_id, target_id, target_value, superstep
            ):
                return target_value >= 0

        graph = ring_graph(6, values={2: -7, 0: 0, 1: 0, 3: 0, 4: 0, 5: 0})
        run = debug_run(Gossip, graph, NoSendToNegativeTargets(), seed=1)
        violations = run.violations()
        assert violations
        assert all(v.kind == "message_target" for v in violations)
        assert {v.details["target"] for v in violations} == {2}
        senders = {v.details["source"] for v in violations}
        assert senders == {1, 3}

    def test_neighborhood_constraint(self):
        class NoEqualNeighborValues(DebugConfig):
            def neighborhood_constraint(self, value, neighbor_values, vertex_id, superstep):
                return all(value != nv for nv in neighbor_values.values())

        graph = ring_graph(4, values={0: "x", 1: "x", 2: "y", 3: "z"})
        run = debug_run(Gossip, graph, NoEqualNeighborValues(), seed=1)
        violations = run.violations(superstep=0)
        violating = {v.vertex_id for v in violations}
        assert violating == {0, 1}
        assert all(v.kind == "neighborhood" for v in violations)
