"""Unit tests for differential debugging (diff_runs)."""

import pytest

from repro.algorithms import (
    BuggyGraphColoring,
    BuggyLabelPropagation,
    GCMaster,
    GraphColoring,
    LabelPropagation,
)
from repro.common.serialization import default_codec
from repro.datasets import load_dataset
from repro.graft import CaptureAllActiveConfig, debug_run, diff_runs
from repro.graft.capture import VertexContextRecord
from repro.graft.diffing import first_divergence
from repro.graft.sanitizer import _normalized_rows, order_insensitive_digest
from repro.graft.trace import canonical_trace_digest
from repro.graph import GraphBuilder, to_undirected
from repro.pregel import Computation
from repro.pregel.permutation import PermutationSchedule


class CountUp(Computation):
    def initial_value(self, vertex_id, input_value):
        return 0

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + 1)
        if ctx.superstep >= 2:
            ctx.vote_to_halt()
        else:
            ctx.send_message_to_all_neighbors("tick")


class CountUpWrongAfterOne(CountUp):
    """Behaves identically in superstep 0, diverges from superstep 1 on."""

    def compute(self, ctx, messages):
        if ctx.superstep >= 1:
            ctx.set_value(ctx.value + 100)
            if ctx.superstep >= 2:
                ctx.vote_to_halt()
            else:
                ctx.send_message_to_all_neighbors("tick")
            return
        super().compute(ctx, messages)


def ring():
    return GraphBuilder(directed=False).cycle(*range(5)).build()


def capture_everything(computation):
    return debug_run(computation, ring(), CaptureAllActiveConfig(), seed=3)


class TestDiffRuns:
    def test_identical_runs_have_no_divergence(self):
        report = diff_runs(capture_everything(CountUp), capture_everything(CountUp))
        assert report.identical
        assert report.compared_keys == 15  # 5 vertices x 3 supersteps
        assert "identical" in report.summary()

    def test_first_divergence_located(self):
        report = diff_runs(
            capture_everything(CountUp), capture_everything(CountUpWrongAfterOne)
        )
        assert not report.identical
        earliest = report.earliest()
        assert earliest.superstep == 1
        assert earliest.field_name == "value_after"
        # Every vertex diverges exactly once, at its first bad superstep.
        assert len(report.divergences) == 5
        assert all(d.superstep == 1 for d in report.divergences)

    def test_by_superstep_histogram(self):
        report = diff_runs(
            capture_everything(CountUp), capture_everything(CountUpWrongAfterOne)
        )
        assert report.by_superstep() == {1: 5}

    def test_message_divergence_detected(self):
        class LoudCountUp(CountUp):
            def compute(self, ctx, messages):
                ctx.set_value(ctx.value + 1)
                if ctx.superstep >= 2:
                    ctx.vote_to_halt()
                else:
                    ctx.send_message_to_all_neighbors("BOOM")

        report = diff_runs(
            capture_everything(CountUp), capture_everything(LoudCountUp)
        )
        earliest = report.earliest()
        assert earliest.superstep == 0
        assert earliest.field_name == "sent"

    def test_presence_divergence_for_missing_keys(self):
        # Same computation, but the right run is cut short: its shared
        # records match, so the only differences are missing keys.
        full = capture_everything(CountUp)
        truncated = debug_run(
            CountUp, ring(), CaptureAllActiveConfig(), seed=3, max_supersteps=2
        )
        report = diff_runs(full, truncated)
        assert not report.identical
        assert {d.field_name for d in report.divergences} == {"presence"}
        assert all(d.superstep == 2 for d in report.divergences)

    def test_early_halt_diverges_on_first_superstep_outcome(self):
        class HaltEarly(CountUp):
            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        report = diff_runs(
            capture_everything(CountUp), capture_everything(HaltEarly)
        )
        earliest = report.earliest()
        assert earliest.superstep == 0
        assert earliest.field_name in ("value_after", "sent", "halted")

    def test_buggy_vs_fixed_coloring_diverges_at_a_decide_step(self):
        from repro.algorithms import BuggyGraphColoring, GCMaster, GraphColoring
        from repro.datasets import load_dataset

        graph = load_dataset("bipartite-1M-3M", num_vertices=60, seed=5)

        def run(computation):
            return debug_run(
                computation,
                graph,
                CaptureAllActiveConfig(),
                master=GCMaster(),
                seed=5,
                max_supersteps=300,
            )

        report = diff_runs(run(GraphColoring), run(BuggyGraphColoring))
        assert not report.identical
        earliest = report.earliest()
        # The two variants first part ways when priorities differ (SELECT,
        # superstep 0 onward) — always at a well-defined first superstep.
        assert earliest.superstep >= 0
        assert "diverge" in report.summary()


# -- one definition of equal: the digest's -------------------------------------


class SetsConstant(Computation):
    def __init__(self, value):
        self.value = value

    def compute(self, ctx, messages):
        ctx.set_value(self.value)
        ctx.vote_to_halt()


def run_constant(value):
    return debug_run(
        lambda: SetsConstant(value), ring(), CaptureAllActiveConfig(),
        seed=3, lint=False,
    )


def digest_of(run):
    return canonical_trace_digest(run.session.filesystem, run.session.job_id)


class TestEqualIsTheDigestsEqual:
    def test_nan_equals_nan(self):
        left, right = run_constant(float("nan")), run_constant(float("nan"))
        assert digest_of(left) == digest_of(right)
        assert diff_runs(left, right).identical

    def test_int_one_differs_from_float_one(self):
        left, right = run_constant(1), run_constant(1.0)
        assert digest_of(left) != digest_of(right)
        earliest = diff_runs(left, right).earliest()
        assert (earliest.superstep, earliest.field_name) == (0, "value_after")
        assert earliest.left == 1 and earliest.right == 1.0
        assert type(earliest.left) is int and type(earliest.right) is float


def _coloring(computation):
    return debug_run(
        computation, load_dataset("bipartite-1M-3M", num_vertices=60, seed=5),
        CaptureAllActiveConfig(), master=GCMaster(), seed=5,
        max_supersteps=300, lint=False,
    )


def _labels(computation, **kwargs):
    graph = to_undirected(load_dataset("web-BS", num_vertices=40, seed=3))
    return debug_run(
        lambda: computation(iterations=4), graph, CaptureAllActiveConfig(),
        seed=7, num_workers=2, lint=False, **kwargs,
    )


SCENARIO_PAIRS = {
    "coloring-vs-buggy": lambda: (
        _coloring(GraphColoring), _coloring(BuggyGraphColoring)
    ),
    "labels-vs-buggy": lambda: (
        _labels(LabelPropagation), _labels(BuggyLabelPropagation)
    ),
    "a-run-vs-itself": lambda: (
        _labels(BuggyLabelPropagation), _labels(BuggyLabelPropagation)
    ),
    "a-run-vs-a-permuted-schedule": lambda: (
        _labels(LabelPropagation),
        _labels(LabelPropagation, delivery_schedule=PermutationSchedule(1)),
    ),
    "a-run-vs-its-truncated-twin": lambda: (
        _labels(LabelPropagation), _labels(LabelPropagation, max_supersteps=3)
    ),
}


@pytest.mark.parametrize("pair", sorted(SCENARIO_PAIRS))
def test_the_join_and_the_digests_agree(pair):
    left, right = SCENARIO_PAIRS[pair]()
    places = [(run.session.filesystem, run.session.job_id) for run in (left, right)]
    if digest_of(left) == digest_of(right):
        assert diff_runs(left, right).identical
    found = first_divergence(
        *(_normalized_rows(fs, job_id, default_codec) for fs, job_id in places)
    )
    same = len({order_insensitive_digest(fs, job_id) for fs, job_id in places}) == 1
    assert (found is None) == same
    assert same == (pair in ("a-run-vs-itself", "a-run-vs-a-permuted-schedule"))


def test_whole_trace_walks_build_no_records(monkeypatch):
    """The digest, graft-san's digest and ``diff_runs`` fold field texts:
    no record is constructed, and the codec decodes only non-empty
    ``incoming`` slots and what a reported divergence shows."""
    graph = to_undirected(load_dataset("web-BS", num_vertices=250, seed=3))

    def run(computation):
        return debug_run(
            lambda: computation(iterations=4), graph, CaptureAllActiveConfig(),
            seed=7, num_workers=2, lint=False,
        )

    clean, buggy = run(LabelPropagation), run(BuggyLabelPropagation)
    assert clean.capture_count >= 1000
    inboxes = sum(1 for record in clean.reader.vertex_records if record.incoming)
    built, decoded = [], []
    init, loads = VertexContextRecord.__init__, default_codec.loads
    monkeypatch.setattr(
        VertexContextRecord, "__init__",
        lambda self, *args, **kwargs: (built.append(1), init(self, *args, **kwargs))[1],
    )
    monkeypatch.setattr(
        default_codec, "loads", lambda text: (decoded.append(text), loads(text))[1]
    )

    digest_of(clean)
    assert diff_runs(clean, clean).identical
    assert not decoded
    order_insensitive_digest(clean.session.filesystem, clean.session.job_id)
    assert len(decoded) == inboxes > 0
    del decoded[:]
    report = diff_runs(clean, buggy)
    assert len(report.divergences) > 100
    assert len(decoded) <= 2 * len(report.divergences)
    assert not built
