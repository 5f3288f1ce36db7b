"""The trace writer's bytes: rebuilt rows == the codec tree, on disk and pinned.

The v3 writer stores a block's records by column, reusing the text of
objects that several records of one write call share. Three things hold
that to the format: every row the reader rebuilds equals ``json.dumps`` of
:func:`record_to_row`'s tree taken when the record was written — the v2
row, kept here as the oracle (on serial *and* processes: records that
crossed a pickle share different objects, and the bytes must not notice);
the files of three fixed jobs hash to pinned values and their canonical
digests to what the v2 writer's files gave; and the sharing never outlives
a write call.
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
    KIND_VERTEX,
    VertexContextRecord,
    field_texts,
    master_field_names,
    record_from_row,
    vertex_field_names,
)
from repro.graft.config import standard_configs
from repro.graft.reproducer import replay_record
from repro.graft.trace import (
    TraceReader,
    TraceStore,
    _FileWriter,
    canonical_trace_digest,
    job_directory,
)
from repro.graft.traceformat import iter_blocks
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


class WrittenRows:
    """The oracle row of every record, taken inside the write call, per file."""

    def __init__(self):
        self.files = {}         # id(writer) -> (filesystem, path, [oracle rows])

    def note(self, writer, records):
        _fs, _path, rows = self.files.setdefault(
            id(writer), (writer._fs, writer.path, [])
        )
        rows += map(reference_row, records)

    def pairs(self):
        """``(oracle row, rebuilt row)`` of every record, in file order."""
        found = []
        for filesystem, path, rows in self.files.values():
            rebuilt = [
                rebuilt_row(block, position)
                for block in iter_blocks(filesystem, path)
                for position in range(block.size)
            ]
            assert len(rebuilt) == len(rows), path
            found += zip(rows, rebuilt)
        return found


def rebuilt_row(block, position):
    """The v2 row of the record the reader rebuilds from a block."""
    return f"[{block.kind},{','.join(block.texts(position))}]".encode("utf-8")


@pytest.fixture
def written_rows(monkeypatch):
    """Every record's oracle row, noted as the writer takes the record."""
    noted = WrittenRows()
    write = _FileWriter.write_records

    def spy(self, records):
        noted.note(self, records)
        return write(self, records)

    monkeypatch.setattr(_FileWriter, "write_records", spy)
    return noted


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
    pairs = written_rows.pairs()
    assert len(pairs) > run.capture_count > 0   # + the master records
    for oracle, rebuilt in pairs:
        assert rebuilt == oracle


# -- files pinned ---------------------------------------------------------------


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


#: job -> (builder, captures, {file name: sha256 of its bytes}), recorded
#: with ``seed=11, num_workers=2`` on the serial backend when v3 blocks
#: took packed numeric columns (``sssp-dcmsg`` captures nothing, and the
#: master files hold rows, so those kept their hashes). The v2 writer's files
#: of these jobs had been pinned since the one-pass row writer; what they
#: held is pinned as ``PINNED_DIGESTS``.
PINNED_FILES = {
    "pagerank-dcfull": (_pagerank_dcfull, 372, {
        "master.trace":
            "510c4303262cde1c91c79ec098dda721785dfcd24bc9acdb49fd1b297a261644",
        "master.trace.idx":
            "cabb117a45ec74aaab9c1815e602d769cca6f84d0cfd72df43f3150a8962533e",
        "worker-0.trace":
            "ba45e63d74114b72de0b5da1ac347919103a1b9e3bc505b04c729eccac769f58",
        "worker-0.trace.idx":
            "da1a1f92ac9adb03a219dc9aa231efb8492ca155b4682093885e8f09933cb7f7",
        "worker-1.trace":
            "aba6bfbad6a1d48a4359b962114ce10d68c6a64504c6c06ee5cb0eef2b224b90",
        "worker-1.trace.idx":
            "761784403c183997c4e0153468850b8142c054c3e314ec1eb1d5da3415bb79b8",
    }),
    "coloring-capture-all": (_coloring_capture_all, 3210, {
        "master.trace":
            "d3cd3793e5ab081f722dedabccbeedc94789dfbcbc604b4245007c294e5a515a",
        "master.trace.idx":
            "b0690d83ed63a91a0cab788758cc487e0d34e7aaa9b0b653b77c3b3dcfc4e0ae",
        "worker-0.trace":
            "47e89eed91ad6fab6ea9146262f5406f01de5febe901978c070e2bc66d9c4437",
        "worker-0.trace.idx":
            "ebc4afc488915ac6056c01e5747c2bbba6135636c3f3f19a2f1ec93fecd59f3d",
        "worker-1.trace":
            "0d86bbf1cd7a5c5b4433509356e3dcd02400e5ee136211872fb16584ce76d65c",
        "worker-1.trace.idx":
            "c76b56d64125d6190b2c07beb01baa31a4d1809c79e8f1666a7f8709d6f08ce1",
    }),
    "sssp-dcmsg": (_sssp_dcmsg, 0, {
        "master.trace":
            "510c4303262cde1c91c79ec098dda721785dfcd24bc9acdb49fd1b297a261644",
        "master.trace.idx":
            "cabb117a45ec74aaab9c1815e602d769cca6f84d0cfd72df43f3150a8962533e",
        "worker-0.trace":
            "b5d1ec90f994bbe7cd5eafbf980a2faa75e6223a5b2a8aec2a3b16e827d8b8d9",
        "worker-0.trace.idx":
            "1d3162d0ba6ba5657b26998a3bb9629582bfc41f7142f6a9c4116b0d9a3a28e9",
        "worker-1.trace":
            "b5d1ec90f994bbe7cd5eafbf980a2faa75e6223a5b2a8aec2a3b16e827d8b8d9",
        "worker-1.trace.idx":
            "89b45ed0ae41554ea4cac09ae6702541bfabc71d6364ef596a81d75e94ff2a8b",
    }),
}


#: ``canonical_trace_digest`` of each job as the v2 writer's files gave it.
PINNED_DIGESTS = {
    "coloring-capture-all":
        "0b33ce109bb5cd70078e2b72470c4a2092c568e10f39e57cbd9c3ef30e4ab32d",
    "pagerank-dcfull":
        "7c2f433dde08d64fcb8c368b98188504c1265a093aab0d0103621f2e6e8bd3f6",
    "sssp-dcmsg":
        "c45b5e30e8d7bcb9ce6bca7b5939ab1e09a6a05bb3be7458e12873ab946d372b",
}


def trace_file_hashes(run):
    fs = run.session.filesystem
    return {
        path.rsplit("/", 1)[-1]: hashlib.sha256(fs.read_bytes(path)).hexdigest()
        for path in fs.glob_files(job_directory(run.session.job_id))
        if path.endswith((".trace", ".trace.idx"))
    }


@pytest.mark.parametrize("job", sorted(PINNED_FILES))
def test_trace_and_index_files_byte_identical_to_pinned(job, written_rows):
    build, captures, pinned = PINNED_FILES[job]
    factory, graph, config, kwargs = build()
    run = debug_run(
        factory, graph, config, job_id="pin", lint=False,
        seed=11, num_workers=2, **kwargs,
    )
    assert run.ok, run.failure
    assert run.capture_count == captures
    assert trace_file_hashes(run) == pinned
    for oracle, rebuilt in written_rows.pairs():
        assert rebuilt == oracle
    digest = canonical_trace_digest(run.session.filesystem, "pin")
    assert digest == PINNED_DIGESTS[job]


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
        """Two write calls into one block, the shared object mutated in
        between: each record keeps the text it had when it was written."""
        store = TraceStore(fs, "scope", num_workers=1)
        value = {"seen": [1]}
        first = [_record(5, 0, value), _record(6, 0, value)]
        store.write_vertex_records(first)
        value["seen"].append(2)     # same object, same id(), new state
        second = _record(5, 1, value)
        store.write_vertex_records([second])
        store.close()
        pairs = written_rows.pairs()
        assert len(pairs) == 3
        assert [rebuilt for _, rebuilt in pairs] == [oracle for oracle, _ in pairs]
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
        for job, records in (("shared", shared), ("distinct", distinct)):
            store = TraceStore(fs, job, num_workers=1)
            store.write_vertex_records(records)
            store.close()
        pairs = written_rows.pairs()
        assert [rebuilt for _, rebuilt in pairs[:2]] == [
            rebuilt for _, rebuilt in pairs[2:]
        ]
        assert [oracle for oracle, _ in pairs[:2]] == [reference_row(r) for r in shared]
        assert [rebuilt for _, rebuilt in pairs] == [oracle for oracle, _ in pairs]
        for name in ("worker-0.trace", "worker-0.trace.idx"):
            assert fs.read_bytes(f"/graft/shared/{name}") == fs.read_bytes(
                f"/graft/distinct/{name}"
            )

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
        store = TraceStore(fs, "order", num_workers=1)
        store.write_vertex_records([record])
        store.close()
        [(oracle, rebuilt)] = written_rows.pairs()
        assert rebuilt == oracle == reference_row(record)
        assert b"[[1,null],[2,null]]" in rebuilt
        assert b"[[2,null],[1,null]]" in rebuilt


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
    kind, texts = field_texts(_record("a", 0, 1), default_codec)
    names = vertex_field_names()
    for name in ("edges_before", "edges_after"):
        texts[names.index(name)] = '{"b":null,"z":0.5}'    # the plain-object form
    record = record_from_row(kind, "[" + ",".join(texts) + "]", default_codec)
    assert kind == KIND_VERTEX
    assert record.edges_before == record.edges_after == {"b": None, "z": 0.5}
