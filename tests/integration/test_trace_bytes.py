"""The trace writer's bytes: one-pass text == the codec tree, on disk and pinned.

The v2 writer assembles each row as text, reusing the text of objects that
several records of one barrier drain share. Three things hold that to the
format: every row equals ``json.dumps`` of :func:`record_to_row`'s tree,
the row as the tree-building writer laid it out, kept here as the oracle
(on serial *and* processes — records that crossed a pickle share different
objects, and the bytes must not notice); the files of three fixed jobs hash
to what the commit before the one-pass writer produced; and the sharing
never outlives a drain.
"""

import hashlib
import json
from functools import partial

import pytest

from repro.algorithms import (
    ConnectedComponents,
    GCMaster,
    GraphColoring,
    KCore,
    LabelPropagation,
    MaximumWeightMatching,
    PageRank,
    RandomWalk,
    ShortestPaths,
    TriangleCount,
)
from repro.common.serialization import default_codec
from repro.datasets import load_dataset, random_symmetric_weights
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.capture import (
    VertexContextRecord,
    master_field_names,
    record_from_row,
    vertex_field_names,
)
from repro.graft.config import standard_configs
from repro.graft.reproducer import replay_record
from repro.graft.trace import TraceReader, TraceStore, _V2FileWriter, job_directory
from repro.graph import GraphBuilder, to_undirected
from repro.pregel import Computation, MinCombiner


def record_to_row(record, codec):
    """A capture record's compact positional row, as a codec tree."""
    if isinstance(record, VertexContextRecord):
        kind, names = 0, vertex_field_names()
    else:
        kind, names = 1, master_field_names()
    row = [kind]
    for name in names:
        value = getattr(record, name)
        is_edge_field = kind == 0 and name in ("edges_before", "edges_after")
        if is_edge_field and value.__class__ is dict and value:
            row.append(codec.encode_items(value))
        else:
            row.append(codec.encode(value))
    return row


def reference_row(record):
    """What the tree-building writer wrote for ``record``."""
    return json.dumps(
        record_to_row(record, default_codec), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


@pytest.fixture
def written_rows(monkeypatch):
    """Every ``(record, row bytes)`` the v2 writer encodes during the test."""
    rows = []
    encode = _V2FileWriter._encode

    def spy(self, record, row_text):
        rec_bytes, meta = encode(self, record, row_text)
        rows.append((record, rec_bytes))
        return rec_bytes, meta

    monkeypatch.setattr(_V2FileWriter, "_encode", spy)
    return rows


# -- every shipped algorithm, both sides of the pickle ------------------------


def _directed():
    return load_dataset("web-BS", num_vertices=40, seed=11)


def _undirected():
    return to_undirected(_directed())


ALGORITHMS = {
    "pagerank": (lambda: PageRank(iterations=3), _directed, {}),
    "sssp": (lambda: ShortestPaths(0), _directed, {}),
    "rw": (
        lambda: RandomWalk(steps=4, initial_walkers=20),
        _directed,
        {"max_supersteps": 12},
    ),
    "components": (ConnectedComponents, _undirected, {}),
    "label-prop": (lambda: LabelPropagation(iterations=5), _undirected, {}),
    "triangles": (TriangleCount, _undirected, {}),
    "kcore": (lambda: KCore(2), _undirected, {}),
    "gc": (GraphColoring, _undirected, {"master": GCMaster(), "max_supersteps": 30}),
    "mwm": (
        MaximumWeightMatching,
        lambda: to_undirected(random_symmetric_weights(_directed(), seed=3)),
        {"max_supersteps": 30},
    ),
}


@pytest.mark.parametrize("executor", ["serial", "processes"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_written_rows_equal_the_codec_tree(written_rows, algorithm, executor):
    factory, build_graph, kwargs = ALGORITHMS[algorithm]
    run = debug_run(
        factory, build_graph(), CaptureAllActiveConfig(), lint=False,
        seed=7, num_workers=2, executor=executor, **kwargs,
    )
    assert run.ok, run.failure
    assert len(written_rows) > run.capture_count > 0   # + the master records
    for record, rec_bytes in written_rows:
        assert rec_bytes == reference_row(record)


# -- files pinned from the commit before the one-pass writer ------------------


def _mid_rank_ids(graph):
    ids = list(graph.vertex_ids())
    return ids[len(ids) // 4:][:10]


def _pagerank_dcfull():
    graph = load_dataset("web-BS", num_vertices=300, seed=3)
    return (partial(PageRank, iterations=5), graph,
            standard_configs(_mid_rank_ids(graph))["DC-full"], {})


def _coloring_capture_all():
    graph = load_dataset("bipartite-1M-3M", num_vertices=200, seed=3)
    return GraphColoring, graph, CaptureAllActiveConfig(), {"master": GCMaster()}


def _sssp_dcmsg():
    graph = load_dataset("soc-Epinions", num_vertices=400, seed=3)
    return (partial(ShortestPaths, 0), graph,
            standard_configs(range(10))["DC-msg"], {"combiner": MinCombiner()})


#: job -> (builder, captures, {file name: sha256 of its bytes}), recorded at
#: commit 0211e4d with ``seed=11, num_workers=2`` on the serial backend.
PINNED_FILES = {
    "pagerank-dcfull": (_pagerank_dcfull, 372, {
        "master.trace":
            "d6b8edc325a7e6603fb10c3d0d7224c1d0ab9d115c38eb57e075492783a3e1a3",
        "master.trace.idx":
            "e8d5cf1de6056e5f033d6f1900cf0f803b7a23c538a264df70cf19b3606675cd",
        "worker-0.trace":
            "5d03f8ffaa52979db02c06ddded843941329535ad8a417cdca8cbeb4c36b326a",
        "worker-0.trace.idx":
            "2139727fd722ea05f79e41aa160bf7e0d888efdec3bb8c596829d03165762316",
        "worker-1.trace":
            "f8c0c7a3bf6d09feabfcf8eacf4fad5d42184c5a0822fe85078e641a6d462d9b",
        "worker-1.trace.idx":
            "641d02dc34c2af0c7ac50226fde74835977e81d9a574e92afe2fbff585068e4c",
    }),
    "coloring-capture-all": (_coloring_capture_all, 3210, {
        "master.trace":
            "ab30b58799d168262b654393b802acf3d6a7367b09f2e11df1cfcca9b2cabaed",
        "master.trace.idx":
            "8afd7820c5ff6d29768576680f620df467b780515dcfcb20c6f45ea7c2aa5173",
        "worker-0.trace":
            "59017c089159124cf26e24b84c61dcb46b09720b128bdf14c862d442953b335f",
        "worker-0.trace.idx":
            "8102195255351460b3561e28511c9b8a835e144ccc5cd65b8ca038d2ddcc6455",
        "worker-1.trace":
            "ce59ba0d9f2deb0ead3b64ab22effee47a3f321c4a2d9f0c642abdb6d2e995d2",
        "worker-1.trace.idx":
            "d2eb99ba7639530c5431bd04fa9c380ef8e7dd76313a8927df7a68f551e0759d",
    }),
    "sssp-dcmsg": (_sssp_dcmsg, 0, {
        "master.trace":
            "d6b8edc325a7e6603fb10c3d0d7224c1d0ab9d115c38eb57e075492783a3e1a3",
        "master.trace.idx":
            "e8d5cf1de6056e5f033d6f1900cf0f803b7a23c538a264df70cf19b3606675cd",
        "worker-0.trace":
            "1d93899c5cf85f72e6ff8dd4f63e93ef3e7f4afa4d3ddb9374cd51256de37bef",
        "worker-0.trace.idx":
            "91adb2119431fdebe0c2265a278b6e5c20c15b8a787f2d00e8028a73ffa37cbb",
        "worker-1.trace":
            "1d93899c5cf85f72e6ff8dd4f63e93ef3e7f4afa4d3ddb9374cd51256de37bef",
        "worker-1.trace.idx":
            "8f05d129ec7af3897a3778c5d6018d483740f9327c3c2c7bbb4fe1148ff7b433",
    }),
}


def trace_file_hashes(run):
    fs = run.session.filesystem
    return {
        path.rsplit("/", 1)[-1]: hashlib.sha256(fs.read_bytes(path)).hexdigest()
        for path in fs.glob_files(job_directory(run.session.job_id))
        if path.endswith((".trace", ".trace.idx"))
    }


@pytest.mark.parametrize("job", sorted(PINNED_FILES))
def test_trace_and_index_files_byte_identical_to_pinned(job):
    build, captures, pinned = PINNED_FILES[job]
    factory, graph, config, kwargs = build()
    run = debug_run(
        factory, graph, config, job_id="pin", lint=False,
        seed=11, num_workers=2, **kwargs,
    )
    assert run.ok, run.failure
    assert run.capture_count == captures
    assert trace_file_hashes(run) == pinned


# -- the sharing lives for one drain ------------------------------------------


def _record(vertex_id, superstep, value, **overrides):
    fields = dict(
        vertex_id=vertex_id, superstep=superstep, worker_id=0,
        value_before=value, edges_before={1: None, 2: 0.5}, incoming=[],
        aggregators={"phase": "A"}, num_vertices=3, num_edges=4, run_seed=1,
        value_after=value, edges_after={1: None, 2: 0.5}, sent=[], halted=False,
        reasons=["specified"],
    )
    fields.update(overrides)
    return VertexContextRecord(**fields)


class TestSharingScope:
    def test_object_mutated_between_drains_is_written_anew(self, fs, written_rows):
        store = TraceStore(fs, "scope", num_workers=1)
        value = {"seen": [1]}
        first = [_record(5, 0, value), _record(6, 0, value)]
        store.write_vertex_records(first)
        assert [b for _, b in written_rows] == [reference_row(r) for r in first]
        value["seen"].append(2)     # same object, same id(), new state
        second = _record(5, 1, value)
        store.write_vertex_records([second])
        assert written_rows[2][1] == reference_row(second)
        store.close()
        reader = TraceReader(fs, "scope")
        assert reader.get(6, 0).value_after == {"seen": [1]}
        assert reader.get(5, 1).value_before == {"seen": [1, 2]}

    def test_shared_and_equal_objects_give_identical_bytes(self, fs, written_rows):
        def message():
            return tuple(["PRIORITY", 7])

        one_message, aggregators = message(), {"phase": "SELECT", "round": 2}
        shared = [
            _record(v, 0, [0], aggregators=aggregators,
                    incoming=[(9, one_message)],
                    sent=[(1, one_message), (2, one_message)])
            for v in (5, 6)
        ]
        distinct = [
            _record(v, 0, [0], aggregators=dict(aggregators),
                    incoming=[(9, message())],
                    sent=[(1, message()), (2, message())])
            for v in (5, 6)
        ]
        TraceStore(fs, "shared", num_workers=1).write_vertex_records(shared)
        TraceStore(fs, "distinct", num_workers=1).write_vertex_records(distinct)
        shared_rows, distinct_rows = written_rows[:2], written_rows[2:]
        assert [b for _, b in shared_rows] == [b for _, b in distinct_rows]
        assert [b for _, b in shared_rows] == [reference_row(r) for r in shared]

    def test_single_record_write_matches_bulk_write(self, fs, written_rows):
        records = [_record(v, 0, (v, "x")) for v in range(4)]
        bulk = TraceStore(fs, "bulk", num_workers=1)
        bulk.write_vertex_records(records)
        bulk.close()
        single = TraceStore(fs, "single", num_workers=1)
        for record in records:
            single.write_vertex_record(record)
        single.close()
        for name in ("worker-0.trace", "worker-0.trace.idx"):
            assert fs.read_bytes(f"/graft/bulk/{name}") == fs.read_bytes(
                f"/graft/single/{name}"
            )

    def test_edges_after_differing_only_in_order_is_not_reused(self, written_rows, fs):
        record = _record(5, 0, 1, edges_before={1: None, 2: None},
                         edges_after={2: None, 1: None})
        TraceStore(fs, "order", num_workers=1).write_vertex_records([record])
        assert written_rows[0][1] == reference_row(record)
        assert b"[[1,null],[2,null]]" in written_rows[0][1]
        assert b"[[2,null],[1,null]]" in written_rows[0][1]


class _Chatty(Computation):
    """Active, and so captured, in every superstep."""

    def compute(self, ctx, messages):
        if ctx.superstep < 3:
            ctx.send_message_to_all_neighbors(ctx.superstep)
        else:
            ctx.vote_to_halt()


class _CappedConfig(CaptureAllActiveConfig):
    def max_captures(self):
        return 25


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_max_captures_cut_lands_on_the_same_record(executor):
    graph = load_dataset("web-BS", num_vertices=40, seed=11)
    run = debug_run(
        _Chatty, graph, _CappedConfig(), lint=False,
        seed=7, num_workers=2, executor=executor,
    )
    assert run.capture_limit_hit
    assert run.capture_count == 25
    kept = sorted((r.superstep, r.vertex_id) for r in run.reader.vertex_records)
    # Recorded at commit 0211e4d: superstep 0 fills the budget, worker 0's
    # vertices in compute order and then as many of worker 1's as fit.
    assert kept == [(0, vertex_id) for vertex_id in (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 19, 20, 23, 24, 27,
        29, 34, 35, 36, 37,
    )]


# -- edge maps keep their order whatever the id type --------------------------


def _string_id_run():
    builder = GraphBuilder(directed=True)
    for target in ("z", "b", "m"):
        builder.edge("a", target)
        builder.edge(target, "a")
    return debug_run(
        partial(PageRank, iterations=3), builder.build(),
        CaptureAllActiveConfig(), lint=False,
    )


@pytest.mark.parametrize("file_format", ["v2"])      # one format left; keeps the id
def test_string_keyed_edge_maps_replay_faithfully(file_format):
    run = _string_id_run()
    record = run.reader.get("a", 1)
    assert list(record.edges_before) == ["z", "b", "m"]
    assert [target for target, _ in record.sent] == ["z", "b", "m"]
    result = replay_record(record, partial(PageRank, iterations=3))
    assert result.faithful, result.mismatches


def test_string_keyed_edge_maps_written_by_older_versions_still_decode():
    row = record_to_row(_record("a", 0, 1), default_codec)
    row[5] = row[12] = {"b": None, "z": 0.5}     # the plain-object form
    record = record_from_row(row, default_codec)
    assert record.edges_before == record.edges_after == {"b": None, "z": 0.5}
