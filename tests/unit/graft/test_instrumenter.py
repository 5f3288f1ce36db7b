"""Unit tests for instrumentation mechanics (the Javassist-wrap analogue)."""

import functools

from repro.algorithms.pagerank import PageRank
from repro.datasets import load_dataset
from repro.graft import (
    CaptureAllActiveConfig,
    DebugConfig,
    NonNegativeMessages,
    NonNegativeValues,
    debug_run,
    standard_configs,
)
from repro.graft import config as graft_config
from repro.graft.debug_run import GraftSession
from repro.graft.instrumenter import instrument
from repro.graft.trace import iter_file_records, worker_trace_path
from repro.graph import GraphBuilder
from repro.pregel import Computation, PregelEngine
from repro.pregel.context import ComputeContext
from repro.pregel.runtime import EXECUTOR_NAMES
from repro.pregel.value_types import Int32, Long64, Short16
from repro.simfs import SimFileSystem
from tests.reversed_backend import ReversedBackend


class Probe(Computation):
    """Records which of its hooks were called, to prove delegation."""

    calls = []

    def initial_value(self, vertex_id, input_value):
        Probe.calls.append(("initial", vertex_id))
        return 100

    def default_vertex_value(self, vertex_id):
        Probe.calls.append(("default", vertex_id))
        return -1

    def compute(self, ctx, messages):
        Probe.calls.append(("compute", ctx.vertex_id, ctx.superstep))
        if ctx.superstep == 0 and ctx.vertex_id == 0:
            ctx.send_message("spawned", 1)
        ctx.vote_to_halt()


def small_graph():
    return GraphBuilder(directed=False).edge(0, 1).build()


def make_session(config, graph, num_workers=2):
    return GraftSession(
        config, graph, SimFileSystem(), "job-t", num_workers=num_workers
    )


class TestWrapping:
    def test_user_class_is_untouched(self):
        original_compute = Probe.compute
        session = make_session(DebugConfig(), small_graph())
        factory = instrument(Probe, session)
        wrapped = factory()
        assert type(wrapped).__name__ == "InstrumentedComputation"
        assert Probe.compute is original_compute

    def test_worker_ids_allocated_in_order(self):
        session = make_session(DebugConfig(), small_graph())
        factory = instrument(Probe, session)
        first, second = factory(), factory()
        assert first._worker_id == 0
        assert second._worker_id == 1

    def test_lifecycle_hooks_delegate(self):
        Probe.calls = []
        session = make_session(DebugConfig(), small_graph())
        engine = PregelEngine(
            instrument(Probe, session), small_graph(), listeners=[session],
            num_workers=2,
        )
        result = engine.run()
        session.finalize()
        kinds = {call[0] for call in Probe.calls}
        assert "initial" in kinds
        assert "compute" in kinds
        assert "default" in kinds  # the 'spawned' vertex was auto-created
        assert result.vertex_values["spawned"] == -1

    def test_initial_values_flow_through_wrapper(self):
        Probe.calls = []
        run = debug_run(Probe, small_graph(), DebugConfig(), num_workers=2)
        assert run.result.vertex_values[0] == 100


class TestCapturedContextContents:
    def test_record_has_the_five_pieces_plus_outcome(self):
        class Talk(Computation):
            def initial_value(self, vertex_id, input_value):
                return f"init-{vertex_id}"

            def compute(self, ctx, messages):
                ctx.set_value(f"new-{ctx.vertex_id}")
                ctx.send_message_to_all_neighbors("hi")
                if ctx.superstep >= 1:
                    ctx.vote_to_halt()

        # Talk broadcasts every superstep, so it never halts on its own;
        # superstep 1 is all the assertions read.
        run = debug_run(
            Talk, small_graph(), CaptureAllActiveConfig(), seed=4, num_workers=2,
            max_supersteps=3,
        )
        record = run.captured(0, 1)
        # Pre-call context (the paper's five pieces):
        assert record.vertex_id == 0
        assert record.value_before == "new-0"  # from superstep 0
        assert record.edges_before == {1: None}
        assert record.incoming == [(1, "hi")]
        assert record.aggregators == {}
        assert record.num_vertices == 2 and record.num_edges == 2
        # Outcome:
        assert record.value_after == "new-0"
        assert record.sent == [(1, "hi")]
        assert record.halted is True
        assert record.worker_id in (0, 1)
        assert record.run_seed == 4

    def test_edge_mutations_reflected_in_before_after(self):
        class DropEdge(Computation):
            def compute(self, ctx, messages):
                ctx.remove_edge(1)
                ctx.vote_to_halt()

        run = debug_run(DropEdge, small_graph(), CaptureAllActiveConfig())
        record = run.captured(0, 0)
        assert record.edges_before == {1: None}
        assert record.edges_after == {}

    def test_incoming_messages_carry_sources(self):
        class SendThenLook(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.send_message_to_all_neighbors(f"from-{ctx.vertex_id}")
                else:
                    ctx.vote_to_halt()

        run = debug_run(SendThenLook, small_graph(), CaptureAllActiveConfig())
        record = run.captured(0, 1)
        assert record.incoming == [(1, "from-1")]


class TestConstraintInterceptionPoints:
    def test_message_constraint_sees_send_time_values(self):
        seen = []

        class SpyConfig(DebugConfig):
            def message_value_constraint(self, message, source_id, target_id, superstep):
                seen.append((message, source_id, target_id, superstep))
                return True

        class SendOnce(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.send_message(1 - ctx.vertex_id, f"m{ctx.vertex_id}")
                ctx.vote_to_halt()

        debug_run(SendOnce, small_graph(), SpyConfig())
        assert ("m0", 0, 1, 0) in seen
        assert ("m1", 1, 0, 0) in seen

    def test_message_constraint_checked_before_combining(self):
        from repro.pregel import MinCombiner, SumCombiner

        violations_seen = []

        class NegativeCheck(DebugConfig):
            def message_value_constraint(self, message, source_id, target_id, superstep):
                if message < 0:
                    violations_seen.append((source_id, message))
                    return False
                return True

        class MixedSends(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    # -5 and +3 combine to -2 at the barrier, but the
                    # constraint must see each send individually.
                    ctx.send_message(1 - ctx.vertex_id, -5 if ctx.vertex_id == 0 else 3)
                    ctx.send_message(1 - ctx.vertex_id, 2)
                ctx.vote_to_halt()

        debug_run(MixedSends, small_graph(), NegativeCheck(), combiner=SumCombiner())
        assert (0, -5) in violations_seen
        # The per-send path on the same shape: the library's predicate,
        # point sends, a combiner that would hide the -5, forked workers.
        run = debug_run(
            MixedSends, small_graph(), NonNegativeMessages(), lint=False,
            combiner=MinCombiner(), executor="processes", num_workers=2,
        )
        assert [v.details for v in run.violations()] == [
            {"message": -5, "source": 0, "target": 1}
        ]

    def test_vertex_constraint_checked_after_compute(self):
        checked = []

        class SpyConfig(DebugConfig):
            def vertex_value_constraint(self, value, vertex_id, superstep):
                checked.append(value)
                return True

        class TwoUpdates(Computation):
            def compute(self, ctx, messages):
                ctx.set_value("intermediate")
                ctx.set_value("final")
                ctx.vote_to_halt()

        debug_run(TwoUpdates, small_graph(), SpyConfig())
        # Only the post-compute value is checked (the paper's semantics).
        assert checked == ["final", "final"]


class TestTrackingScope:
    def test_no_capture_outside_superstep_window(self):
        class WindowedConfig(DebugConfig):
            def capture_all_active(self):
                return True

            def should_capture_superstep(self, superstep):
                return superstep == 1

        class ThreeSteps(Computation):
            def compute(self, ctx, messages):
                if ctx.superstep >= 2:
                    ctx.vote_to_halt()
                    return
                ctx.send_message_to_all_neighbors(0)

        run = debug_run(ThreeSteps, small_graph(), WindowedConfig())
        assert run.reader.supersteps() == [1]

    def test_capture_stops_at_limit_mid_superstep(self):
        run = debug_run(
            Probe,
            GraphBuilder(directed=False).cycle(*range(9)).build(),
            CaptureAllActiveConfig(max_captures=4),
        )
        assert run.capture_count == 4


class OddMessagesOnly(DebugConfig):
    """Message constraint: even integers violate; ``"boom"`` breaks the check."""

    def message_value_constraint(self, message, source_id, target_id, superstep):
        if message == "boom":
            raise RuntimeError("predicate blew up")
        return message % 2 == 1

    def continue_on_exception(self):
        return True


class BroadcastThenPoint(Computation):
    """Superstep 0: one broadcast (4) then one point send (6 or 7) to vertex 0."""

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send_message_to_all_neighbors(4)
            ctx.send_message(0, 6 if ctx.vertex_id == 2 else 7)
        ctx.vote_to_halt()


class SendThenRaise(Computation):
    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send_message_to_all_neighbors(2)
            raise ValueError("after the send")
        ctx.vote_to_halt()


class SendPoison(Computation):
    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send_message_to_all_neighbors(8)
            if ctx.vertex_id == 1:
                ctx.send_message(0, "boom")
        ctx.vote_to_halt()


class HaltNow(Computation):
    def compute(self, ctx, messages):
        ctx.vote_to_halt()


class TestSendLogConstraints:
    def test_violations_in_send_order_on_every_backend(self):
        graph = GraphBuilder(directed=False).cycle(*range(5)).build()
        expected_of_2 = [
            {"message": 4, "source": 2, "target": 1},
            {"message": 4, "source": 2, "target": 3},
            {"message": 6, "source": 2, "target": 0},
        ]
        per_backend = {}
        for name, executor in (("serial", "serial"),
                               ("reversed", ReversedBackend()),
                               ("processes", "processes")):
            run = debug_run(
                BroadcastThenPoint, graph, OddMessagesOnly(), seed=3,
                lint=False, num_workers=3, executor=executor,
            )
            assert run.ok
            assert [v.details for v in run.captured(2, 0).violations] == expected_of_2
            per_backend[name] = [
                (v.kind, v.vertex_id, v.superstep, v.details)
                for v in run.violations()
            ]
        # Two broadcast violations per vertex plus vertex 2's point send.
        assert len(per_backend["serial"]) == 11
        assert per_backend["reversed"] == per_backend["serial"]
        assert per_backend["processes"] == per_backend["serial"]

    def test_violation_kept_when_compute_raises_after_the_send(self):
        run = debug_run(SendThenRaise, small_graph(), OddMessagesOnly(), lint=False)
        record = run.captured(0, 0)
        assert record.exception.type_name == "ValueError"
        assert record.sent == [(1, 2)]
        assert [v.details for v in record.violations] == [
            {"message": 2, "source": 0, "target": 1}
        ]

    def test_raising_predicate_is_captured_as_the_vertex_exception(self):
        run = debug_run(SendPoison, small_graph(), OddMessagesOnly(), lint=False)
        assert run.ok  # continue_on_exception: only vertex 1 is halted
        record = run.captured(1, 0)
        assert record.exception.type_name == "RuntimeError"
        assert "predicate blew up" in record.exception.message
        # The violation found before the predicate raised stays on the record.
        assert [v.details["message"] for v in record.violations] == [8]
        assert run.captured(0, 0).exception is None

    def test_target_constraint_reads_record_sent_on_processes(self):
        class NoSixToZero(DebugConfig):
            def message_value_constraint_with_target(
                self, message, source_id, target_id, target_value, superstep
            ):
                return not (message == 6 and target_value == "zero")

        class Named(BroadcastThenPoint):
            def initial_value(self, vertex_id, input_value):
                return "zero" if vertex_id == 0 else "other"

        graph = GraphBuilder(directed=False).cycle(*range(5)).build()
        found = {}
        for executor in ("serial", "processes"):
            run = debug_run(
                Named, graph, NoSixToZero(), lint=False, num_workers=3,
                executor=executor,
            )
            found[executor] = [(v.kind, v.details) for v in run.violations()]
            assert run.capture_count == 1
        assert found["serial"] == [(
            "message_target",
            {"message": 6, "source": 2, "target": 0, "target_value": "zero"},
        )]
        assert found["processes"] == found["serial"]

    def test_max_captures_cut_under_deferred_checks(self):
        """The safety net keeps the first N in (worker, compute) order."""

        class AlwaysViolates(DebugConfig):
            def __init__(self, limit):
                self._limit = limit

            def neighborhood_constraint(self, value, neighbor_values, vertex_id,
                                        superstep):
                return False

            def max_captures(self):
                return self._limit

        graph = GraphBuilder(directed=False).cycle(*range(9)).build()

        def file_order(run):
            fs, job = run.session.filesystem, run.session.job_id
            return [
                record.key
                for worker_id in range(3)
                for record in iter_file_records(
                    fs, worker_trace_path(job, worker_id)
                )
            ]

        uncapped = debug_run(HaltNow, graph, AlwaysViolates(1000), lint=False,
                             num_workers=3)
        assert uncapped.capture_count == 9 and not uncapped.capture_limit_hit
        for executor in ("serial", "processes"):
            capped = debug_run(HaltNow, graph, AlwaysViolates(4), lint=False,
                               num_workers=3, executor=executor)
            assert capped.capture_limit_hit
            assert file_order(capped) == file_order(uncapped)[:4]


class NegativeBroadcast(Computation):
    """Superstep 0: vertex 0 broadcasts -1.5, everyone else 2.0; vertex 4
    (no out-edges) broadcasts -9 to nobody."""

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            if ctx.vertex_id == 4:
                ctx.send_message_to_all_neighbors(-9)
            else:
                ctx.send_message_to_all_neighbors(-1.5 if ctx.vertex_id == 0 else 2.0)
        ctx.vote_to_halt()


class UserCopyOfNonNegative(DebugConfig):
    """The library predicate's body in a user's class: checked per message."""

    def message_value_constraint(self, message, source_id, target_id, superstep):
        return not graft_config._is_negative(message)


def star_with_sink():
    """0 -> 1, 2, 3 (in that edge order); 1 -> 0; 4 has no out-edges."""
    return (
        GraphBuilder(directed=True)
        .edge(0, 1).edge(0, 2).edge(0, 3).edge(1, 0).vertex(4)
        .build()
    )


class TestPerSendMessageCheck:
    """The library's value-only predicate runs once per send call."""

    def run_pagerank(self, config_of, monkeypatch):
        """PageRank on web-BS with three calls logged: ``_is_negative`` (its
        argument), ``send_message_to_all_neighbors`` — the only send PageRank
        makes — and ``sent_messages()`` (the ``(vertex, superstep)`` expanded)."""
        graph = load_dataset("web-BS", seed=1, num_vertices=120)
        checked, sends, expansions = [], [], []
        is_negative = graft_config._is_negative
        broadcast = ComputeContext.send_message_to_all_neighbors
        expand = ComputeContext.sent_messages
        monkeypatch.setattr(
            graft_config, "_is_negative",
            lambda value: checked.append(value) or is_negative(value),
        )
        monkeypatch.setattr(
            ComputeContext, "send_message_to_all_neighbors",
            lambda ctx, value: sends.append(value) or broadcast(ctx, value),
        )
        monkeypatch.setattr(
            ComputeContext, "sent_messages",
            lambda ctx: expansions.append((ctx.vertex_id, ctx.superstep))
            or expand(ctx),
        )
        run = debug_run(
            functools.partial(PageRank, iterations=3), graph, config_of(graph),
            num_workers=2,
        )
        assert run.ok and not run.violations()
        assert 0 < len(sends) < run.result.metrics.total_messages
        return run, checked, sends, expansions

    def test_library_predicate_is_evaluated_once_per_send(self, monkeypatch):
        run, checked, sends, expansions = self.run_pagerank(
            lambda graph: standard_configs(list(graph.vertex_ids()))["DC-full"],
            monkeypatch,
        )
        calls = run.result.metrics.total_compute_calls
        # DC-full also checks each call's final vertex value with the same test.
        assert len(checked) == len(sends) + calls
        # The pairs are expanded for captured vertices only, once each.
        captured = [record.key for record in run.reader.vertex_records]
        assert 0 < len(captured) < calls
        assert sorted(expansions) == sorted(captured)

    def test_user_copy_of_the_predicate_is_evaluated_once_per_message(
        self, monkeypatch
    ):
        run, checked, sends, expansions = self.run_pagerank(
            lambda graph: UserCopyOfNonNegative(), monkeypatch
        )
        assert len(checked) == run.result.metrics.total_messages
        assert expansions == []     # nothing captured, nothing expanded

    def test_negative_broadcast_is_one_violation_per_target_in_target_order(self):
        expected = [
            ("message", 0, 0, {"message": -1.5, "source": 0, "target": target})
            for target in (1, 2, 3)
        ]
        for executor in EXECUTOR_NAMES:
            found = {}
            for name, config in (
                ("library", standard_configs(range(10))["DC-msg"]),
                ("user", UserCopyOfNonNegative()),
            ):
                run = debug_run(
                    NegativeBroadcast, star_with_sink(), config, lint=False,
                    num_workers=2, executor=executor,
                )
                found[name] = [
                    (v.kind, v.vertex_id, v.superstep, v.details)
                    for v in run.violations()
                ]
                # Vertex 4's -9 went to zero targets: no violation, no capture.
                assert run.capture_count == 1
            assert found["library"] == expected
            assert found["user"] == found["library"]

    def test_subclass_overriding_the_library_predicate_is_called_per_target(self):
        seen = []

        class NotToThree(NonNegativeMessages):
            def message_value_constraint(self, message, source_id, target_id, superstep):
                seen.append((source_id, target_id))
                return target_id != 3

        run = debug_run(NegativeBroadcast, star_with_sink(), NotToThree(), lint=False)
        # Once per target, in target order (vertex order is the partitioner's).
        assert sorted(seen) == [(0, 1), (0, 2), (0, 3), (1, 0)]
        assert [pair for pair in seen if pair[0] == 0] == [(0, 1), (0, 2), (0, 3)]
        assert [v.details for v in run.violations()] == [
            {"message": -1.5, "source": 0, "target": 3}
        ]

    def test_library_predicate_raising_is_the_vertex_exception(self, monkeypatch):
        def explode(value):
            raise RuntimeError("predicate blew up")

        monkeypatch.setattr(graft_config, "_is_negative", explode)
        run = debug_run(
            NegativeBroadcast, star_with_sink(), NonNegativeMessages(),
            lint=False, num_workers=1,
        )
        assert not run.ok
        record = run.captured(0, 0)
        assert record.exception.type_name == "RuntimeError"
        assert record.sent == [(1, -1.5), (2, -1.5), (3, -1.5)]

    # (value, satisfies the constraint) — what ``config._is_negative`` said
    # at the parent commit; ``constraint_library``'s own copy (``>= 0`` on
    # ``_numeric``) said the same everywhere but on nan, which it flagged.
    NON_NEGATIVE = [
        (True, True), (False, True), (0, True), (7, True), (-1, False),
        (0.0, True), (-0.0, True), (2.5, True), (-2.5, False),
        (float("nan"), True), (float("inf"), True), (float("-inf"), False),
        (Short16(-3), False), (Short16(3), True), (Int32(-1), False),
        (Int32(0), True), (Long64(-9), False), (Long64(9), True),
        ("x", True), ("", True), (None, True), ((1, -2), True), ((-1,), True),
    ]

    def test_one_predicate_pair_serves_table_3_the_library_and_the_cli(self):
        from repro.cli import _config_for, build_parser

        cli = _config_for(build_parser().parse_args([
            "debug", "--algorithm", "pagerank", "--dataset", "web-BS",
            "--nonneg-messages", "--nonneg-values",
        ]))
        configs = standard_configs(range(10))
        full, on_messages, on_values = (
            configs[name] for name in ("DC-full", "DC-msg", "DC-vv")
        )
        for config in (full, on_messages, NonNegativeMessages(), cli):
            assert type(config).message_value_constraint is (
                graft_config.nonnegative_message
            )
        for config in (full, on_values, NonNegativeValues(), cli):
            assert type(config).vertex_value_constraint is (
                graft_config.nonnegative_value
            )
        for value, satisfied in self.NON_NEGATIVE:
            assert cli.message_value_constraint(value, 0, 1, 0) is satisfied, value
            assert cli.vertex_value_constraint(value, 0, 0) is satisfied, value
