"""Unit tests for the Context Reproducer (replay, fidelity, line tracing)."""

import pytest

from repro.common.errors import AggregatorError
from repro.graft import CaptureAllActiveConfig, DebugConfig, debug_run
from repro.graft.reproducer import (
    MasterReplayHarness,
    ReplayHarness,
    render_literal,
    replay_master_record,
    replay_record,
)
from repro.graph import GraphBuilder
from repro.pregel import Computation, Short16


class Doubler(Computation):
    """Doubles its value and reports it; conditional on incoming messages."""

    def initial_value(self, vertex_id, input_value):
        return 1

    def compute(self, ctx, messages):
        if messages:
            ctx.set_value(ctx.value + sum(messages))
        else:
            ctx.set_value(ctx.value * 2)
        ctx.send_message_to_all_neighbors(ctx.value)
        if ctx.superstep >= 1:
            ctx.vote_to_halt()


class UsesEverything(Computation):
    """Touches aggregators, rng, and globals — the full context surface."""

    def compute(self, ctx, messages):
        phase = ctx.aggregated_value("phase")
        draw = ctx.rng.randrange(1000)
        ctx.set_value((phase, draw, ctx.num_vertices, ctx.num_edges))
        ctx.aggregate("count", 1)
        ctx.vote_to_halt()


def pair_graph():
    return GraphBuilder(directed=False).edge(0, 1).build()


class TestReplayHarness:
    def test_replays_sends_and_value(self):
        harness = ReplayHarness(
            vertex_id=0,
            superstep=0,
            value=5,
            edges={1: None},
            incoming=[],
            aggregators={},
            num_vertices=2,
            num_edges=2,
        )
        outcome = harness.run(Doubler())
        assert outcome.value == 10
        assert outcome.sent == [(1, 10)]
        assert outcome.halted is False

    def test_incoming_messages_replayed(self):
        harness = ReplayHarness(
            vertex_id=0,
            superstep=1,
            value=5,
            edges={1: None},
            incoming=[(1, 7)],
            aggregators={},
            num_vertices=2,
            num_edges=2,
        )
        outcome = harness.run(Doubler())
        assert outcome.value == 12
        assert outcome.halted is True

    def test_aggregator_snapshot_visible(self):
        harness = ReplayHarness(
            vertex_id="v",
            superstep=3,
            value=None,
            edges={},
            incoming=[],
            aggregators={"phase": "X", "count": 0},
            num_vertices=9,
            num_edges=9,
        )
        outcome = harness.run(UsesEverything())
        assert outcome.value[0] == "X"
        assert outcome.aggregated == [("count", 1)]

    def test_unknown_aggregator_raises(self):
        harness = ReplayHarness(
            vertex_id="v", superstep=0, value=None, edges={}, incoming=[],
            aggregators={}, num_vertices=1, num_edges=0,
        )
        outcome = harness.run(UsesEverything())
        assert isinstance(outcome.exception, AggregatorError)

    def test_rng_replay_exact(self):
        kwargs = dict(
            vertex_id="v", superstep=2, value=None, edges={}, incoming=[],
            aggregators={"phase": "p", "count": 0},
            num_vertices=1, num_edges=0, run_seed=42,
        )
        first = ReplayHarness(**kwargs).run(UsesEverything())
        second = ReplayHarness(**kwargs).run(UsesEverything())
        assert first.value == second.value

    def test_exception_captured_in_outcome(self):
        class Boom(Computation):
            def compute(self, ctx, messages):
                raise LookupError("nope")

        harness = ReplayHarness(
            vertex_id=0, superstep=0, value=None, edges={}, incoming=[],
            aggregators={}, num_vertices=1, num_edges=0,
        )
        outcome = harness.run(Boom())
        assert isinstance(outcome.exception, LookupError)
        assert "nope" in outcome.summary()

    def test_harness_inputs_not_mutated_by_run(self):
        class EdgeEditor(Computation):
            def compute(self, ctx, messages):
                ctx.remove_edge(1)
                ctx.vote_to_halt()

        edges = {1: None}
        harness = ReplayHarness(
            vertex_id=0, superstep=0, value=None, edges=edges, incoming=[],
            aggregators={}, num_vertices=2, num_edges=2,
        )
        outcome = harness.run(EdgeEditor())
        assert outcome.edges == {}
        assert harness.edges == {1: None}


class TestReplayRecord:
    def _run(self):
        # Doubler never ends (see test_doubler_runs_until_its_budget): the
        # assertions read supersteps 0-1, so three supersteps are enough.
        return debug_run(
            Doubler, pair_graph(), CaptureAllActiveConfig(), seed=3, num_workers=2,
            max_supersteps=3,
        )

    def test_doubler_runs_until_its_budget(self):
        """Doubler votes to halt but broadcasts every superstep, so each
        vertex wakes the other: only the superstep budget ends the run."""
        from repro.pregel import halting

        run = debug_run(
            Doubler, pair_graph(), CaptureAllActiveConfig(), seed=3, num_workers=2,
            max_supersteps=6,
        )
        assert run.result.halt_reason == halting.MAX_SUPERSTEPS
        assert run.result.num_supersteps == 6
        assert "nontermination" in run.observed_evidence_kinds()
        assert [r.superstep for r in run.reader.history(0)] == list(range(6))

    def test_faithful_replay(self):
        run = self._run()
        record = run.captured(0, 1)
        report = replay_record(record, Doubler)
        assert report.faithful
        assert report.mismatches == []

    def test_replay_detects_changed_code(self):
        run = self._run()
        record = run.captured(0, 0)

        class DoublerV2(Computation):
            """A 'fixed' version that behaves differently."""

            def compute(self, ctx, messages):
                ctx.set_value(999)
                ctx.vote_to_halt()

        report = replay_record(record, DoublerV2)
        assert not report.faithful
        fields = {m.field_name for m in report.mismatches}
        assert "value_after" in fields

    def test_line_tracing_records_executed_branch(self):
        run = self._run()
        no_messages = replay_record(run.captured(0, 0), Doubler)
        with_messages = replay_record(run.captured(0, 1), Doubler)
        assert no_messages.executed_lines != with_messages.executed_lines

    def test_annotated_source_marks_lines(self):
        run = self._run()
        report = replay_record(run.captured(0, 0), Doubler)
        annotated = report.annotated_source(Doubler())
        lines = annotated.splitlines()
        executed = [l for l in lines if l.startswith(">")]
        skipped = [l for l in lines if not l.startswith(">")]
        assert any("ctx.value * 2" in l for l in executed)
        assert any("sum(messages)" in l for l in skipped)

    def test_trace_lines_off(self):
        run = self._run()
        report = replay_record(run.captured(0, 0), Doubler, trace_lines=False)
        assert report.executed_lines == {}
        assert report.faithful

    def test_summary(self):
        run = self._run()
        report = replay_record(run.captured(0, 0), Doubler)
        assert "faithful" in report.summary()

    def test_exception_record_replays_exception(self):
        class Fragile(Computation):
            def compute(self, ctx, messages):
                raise ValueError("always")

        run = debug_run(Fragile, pair_graph(), DebugConfig(), seed=1)
        record, _exception = run.exceptions()[0]
        report = replay_record(record, Fragile)
        assert report.faithful  # same exception type is reproduced


class TestMasterReplay:
    def test_master_replay_applies_writes(self):
        from repro.algorithms import GCMaster, GraphColoring

        run = debug_run(
            GraphColoring, pair_graph(), DebugConfig(),
            master=GCMaster(), max_supersteps=100,
        )
        record = run.reader.master_at(0)
        outcome = replay_master_record(record, GCMaster)
        assert outcome.aggregators["phase"] == "SELECT"
        assert outcome.halted is False

    def test_master_harness_direct(self):
        from repro.algorithms import GCMaster
        from repro.algorithms.coloring import (
            PHASE_AGG,
            ROUND_AGG,
            UNCOLORED_COUNT_AGG,
            UNKNOWN_COUNT_AGG,
        )

        harness = MasterReplayHarness(
            superstep=5,
            aggregators={
                PHASE_AGG: "ASSIGN",
                ROUND_AGG: 1,
                UNKNOWN_COUNT_AGG: 0,
                UNCOLORED_COUNT_AGG: 0,
            },
        )
        outcome = harness.run(GCMaster())
        assert outcome.halted is True  # nothing uncolored -> master halts

    def test_wrong_record_type_rejected(self):
        from repro.common.errors import GraftError

        with pytest.raises(GraftError, match="not a master record"):
            replay_master_record("nope", GCMasterPlaceholder)


def GCMasterPlaceholder():  # pragma: no cover - never called
    raise AssertionError


class TestRenderLiteral:
    @pytest.mark.parametrize(
        "value",
        [None, True, 0, -3, 2.5, "text", b"\x00", [1, 2], (1,), (1, 2),
         {"a": 1}, {1: "a"}, {1, 2}, frozenset({3})],
    )
    def test_roundtrips_through_eval(self, value):
        assert eval(render_literal(value)) == value

    def test_nonfinite_floats(self):
        assert eval(render_literal(float("inf"))) == float("inf")
        rendered_nan = eval(render_literal(float("nan")))
        assert rendered_nan != rendered_nan

    def test_dataclass_rendered_as_constructor(self):
        from repro.algorithms.coloring import GCValue

        rendered = render_literal(GCValue(color=2, state="COLORED", priority=-1))
        assert rendered == "GCValue(color=2, state='COLORED', priority=-1)"
        assert eval(rendered, {"GCValue": GCValue}) == GCValue(
            color=2, state="COLORED", priority=-1
        )

    def test_fixed_width_int_rendered(self):
        assert eval(render_literal(Short16(-5)), {"Short16": Short16}) == Short16(-5)

    def test_nested_structures(self):
        from repro.algorithms.coloring import GCMessage

        value = [(671, GCMessage(kind="NBR_IN_SET", sender=671))]
        rendered = render_literal(value)
        assert eval(rendered, {"GCMessage": GCMessage}) == value
