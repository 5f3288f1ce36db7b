"""Integration: the lazy indexed reader is indistinguishable from eager.

Runs real debugged jobs under every execution backend and several worker
counts, then asks the same questions of a lazy and an eager reader over
the same trace files. The answers must match exactly — the index is an
access path, never a different source of truth.
"""

import pytest

from repro.algorithms import PageRank
from repro.datasets import premade_graph
from repro.graft import CaptureAllActiveConfig, debug_run, replay_from_trace
from repro.graft.trace import TraceReader, canonical_trace_digest
from repro.pregel import EXECUTOR_NAMES
from tests.reversed_backend import ReversedBackend

WORKER_COUNTS = (1, 3)


def _run(executor, workers):
    graph = premade_graph("petersen")
    return debug_run(
        lambda: PageRank(iterations=4),
        graph,
        CaptureAllActiveConfig(),
        job_id="lazyjob",
        seed=5,
        lint=False,
        num_workers=workers,
        executor=executor,
    )


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_lazy_equals_eager(executor, workers):
    run = _run(executor, workers)
    assert run.ok
    fs = run.session.filesystem
    lazy = TraceReader(fs, "lazyjob", mode="lazy")
    eager = TraceReader(fs, "lazyjob", mode="eager")

    assert len(lazy) == len(eager)
    assert lazy.supersteps() == eager.supersteps()
    assert lazy.captured_vertex_ids() == eager.captured_vertex_ids()
    for step in lazy.supersteps():
        lazy_step = lazy.at_superstep(step)
        eager_step = eager.at_superstep(step)
        assert [r.key for r in lazy_step] == [r.key for r in eager_step]
        for a, b in zip(lazy_step, eager_step):
            assert a.value_before == b.value_before
            assert a.value_after == b.value_after
            assert a.incoming == b.incoming
            assert a.sent == b.sent
            assert a.worker_id == b.worker_id
    for vid in lazy.captured_vertex_ids():
        assert [r.superstep for r in lazy.history(vid)] == \
            [r.superstep for r in eager.history(vid)]
    assert [m.superstep for m in lazy.master_records] == \
        [m.superstep for m in eager.master_records]


@pytest.mark.parametrize("trace_format", ("v2",))    # one format left; keeps the id
def test_views_work_over_both_formats(trace_format):
    run = _run("serial", 2)
    assert run.ok
    tabular = run.tabular_view().last().render()
    assert "superstep" in tabular
    nodelink = run.node_link_view().last()
    captured, small = nodelink.nodes()
    assert captured and small == []
    assert nodelink.render()


def test_digest_stable_across_formats_and_backends():
    digests = {
        executor: canonical_trace_digest(
            _run(executor, 2).session.filesystem, "lazyjob"
        )
        for executor in ("serial", ReversedBackend())
    }
    assert len(set(digests.values())) == 1, digests


def test_replay_from_trace_point_lookup():
    run = _run("serial", 2)
    fs = run.session.filesystem
    report = replay_from_trace(
        fs, "lazyjob", lambda: PageRank(iterations=4), vertex_id=3, superstep=2
    )
    assert report.faithful, report.mismatches
    assert report.record.key == (3, 2)
    assert report.executed_lines  # line tracing went through the lazy path


def test_debug_run_reader_mode_eager_option():
    """The eager oracle over a debug_run's files, built by the caller."""
    run = debug_run(
        lambda: PageRank(iterations=3),
        premade_graph("triangle"),
        CaptureAllActiveConfig(),
        seed=1,
        lint=False,
    )
    assert run.ok
    assert run.reader.mode == "lazy"
    run.reader = TraceReader(
        run.session.filesystem, run.session.job_id, mode="eager"
    )
    assert run.captured(0, 1).vertex_id == 0
