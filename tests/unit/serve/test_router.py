"""Router endpoints by direct call — no sockets anywhere."""

import json
import os
from urllib.parse import quote

import pytest

from repro.algorithms import PageRank
from repro.common.serialization import ValueCodec
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.capture import VertexContextRecord
from repro.graft.trace import TraceStore
from repro.graft.views import NodeLinkView, TabularView, ViolationsView
from repro.graph import GraphBuilder
from repro.serve.pagination import encode_cursor
from repro.serve.router import Router
from repro.serve.sessions import ReaderPool
from repro.simfs import SimFileSystem

from tests.unit.serve.conftest import NUM_SUPERSTEPS, NUM_VERTICES, build_job

# Responses of the commit before records were served from their row text
# (indented JSON rendered from decoded records), as parsed documents.
with open(
    os.path.join(os.path.dirname(__file__), "parent_bodies.json"),
    encoding="utf-8",
) as handle:
    PARENT_RESPONSES = json.load(handle)


@pytest.fixture(scope="module")
def router(served_fs):
    return Router(ReaderPool(served_fs))


def _json(response):
    assert response.content_type.startswith("application/json")
    return json.loads(response.body.decode("utf-8"))


def test_healthz_and_api(router):
    assert _json(router.handle("GET", "/healthz")) == {"ok": True}
    endpoints = _json(router.handle("GET", "/api"))["endpoints"]
    assert "/jobs/<job>/profile/heatmap" in endpoints


def test_unknown_paths_404(router):
    assert router.handle("GET", "/nope").status == 404
    assert router.handle("GET", "/jobs/job-a/bogus").status == 404
    assert router.handle("GET", "/jobs/job-a/views/spiral").status == 404
    assert router.handle("GET", "/jobs/no-such-job").status == 404


def test_post_is_rejected(router):
    assert router.handle("POST", "/jobs").status == 405


def test_jobs_listing(router):
    jobs = _json(router.handle("GET", "/jobs"))["jobs"]
    assert [j["job_id"] for j in jobs] == ["job-a", "job-b"]
    assert all(j["digest"] for j in jobs)


@pytest.mark.parametrize(
    "payload", [b'{"a": 1}\n', b"hello\n", b"\x00\xff\xfe"]
)
def test_a_foreign_trace_file_hides_no_other_job(payload):
    fs = SimFileSystem()
    build_job(fs, "good", with_flags=False)
    fs.create("/graft/j/worker-0.trace")
    fs.append_bytes("/graft/j/worker-0.trace", payload)
    router = Router(ReaderPool(fs))
    good, bad = _json(router.handle("GET", "/jobs"))["jobs"]
    assert good["job_id"] == "good" and good["digest"]
    assert set(bad) == {"job_id", "error"} and bad["job_id"] == "j"
    assert "worker-0.trace' is not a trace file" in bad["error"]
    response = router.handle("GET", "/jobs/j")
    assert response.status == 404
    assert _json(response) == {"error": bad["error"]}
    assert router.handle("GET", "/jobs/good").status == 200


def test_job_summary_carries_etag(router):
    response = router.handle("GET", "/jobs/job-a")
    assert response.status == 200
    assert response.etag == router.pool.etag("job-a")
    assert _json(response)["supersteps"] == list(range(NUM_SUPERSTEPS))


@pytest.mark.parametrize("name,view_factory", [
    ("nodelink", lambda reader: NodeLinkView(reader, None)),
    ("tabular", lambda reader: TabularView(reader)),
    ("violations", lambda reader: ViolationsView(reader)),
])
def test_render_endpoints_are_byte_identical_to_views(router, name,
                                                      view_factory):
    response = router.handle("GET", f"/jobs/job-a/views/{name}/render")
    assert response.status == 200
    expected = view_factory(router.pool.reader("job-a")).render()
    assert response.body == expected.encode("utf-8")


def test_render_respects_superstep_param(router):
    response = router.handle(
        "GET", "/jobs/job-a/views/tabular/render?superstep=2"
    )
    expected = TabularView(router.pool.reader("job-a"), superstep=2).render()
    assert response.body == expected.encode("utf-8")


def test_nodelink_json_pagination_walks_all_nodes(router):
    seen = []
    cursor = ""
    while True:
        suffix = f"&cursor={cursor}" if cursor else ""
        payload = _json(router.handle(
            "GET", f"/jobs/job-a/views/nodelink?limit=12{suffix}"
        ))
        seen.extend(node["vertex_id"] for node in payload["nodes"])
        assert payload["total_nodes"] == NUM_VERTICES
        cursor = payload["next_cursor"]
        if cursor is None:
            break
    assert seen == sorted(range(NUM_VERTICES), key=repr)


def test_nodelink_json_superstep_and_boxes(router):
    payload = _json(router.handle(
        "GET", "/jobs/job-a/views/nodelink?superstep=2&limit=5"
    ))
    assert payload["superstep"] == 2
    assert payload["status_boxes"]["M"] == "red"  # the planted violation
    assert payload["status_boxes"]["E"] == "green"
    assert payload["aggregators"] == {"total": 2.0}
    assert len(payload["edges"]) == 5  # one out-edge per served node


def test_tabular_search(router):
    payload = _json(router.handle("GET", "/jobs/job-a/views/tabular?q=7"))
    matched = {row["vertex_id"] for row in payload["rows"]}
    assert 7 in matched
    assert payload["total_rows"] < NUM_VERTICES
    assert payload["query"] == "7"
    assert len(payload["summaries"]) == len(payload["rows"])


def test_violations_json(router):
    payload = _json(router.handle("GET", "/jobs/job-a/views/violations"))
    assert payload["total_violations"] == 1
    violation = payload["violations"][0]
    assert violation["vertex_id"] == 7
    assert violation["superstep"] == 2
    assert violation["kind"] == "message"
    assert payload["supersteps_with_violations"] == [2]
    assert payload["exceptions"][0]["vertex_id"] == 11
    assert "ValueError" in payload["exceptions"][0]["summary"]


def test_vertex_point_query(router):
    payload = _json(router.handle("GET", "/jobs/job-a/vertex/3?superstep=1"))
    assert payload["vertex_id"] == 3
    assert payload["superstep"] == 1
    assert payload["value_after"] == 4.0
    assert payload["exception"] is None


def test_vertex_query_requires_superstep(router):
    assert router.handle("GET", "/jobs/job-a/vertex/3").status == 400


def test_vertex_query_missing_vertex_404(router):
    response = router.handle("GET", "/jobs/job-a/vertex/999?superstep=0")
    assert response.status == 404


def test_vertex_history(router):
    payload = _json(router.handle("GET", "/jobs/job-a/vertex/5/history"))
    assert payload["total_records"] == NUM_SUPERSTEPS
    assert [r["superstep"] for r in payload["records"]] == (
        list(range(NUM_SUPERSTEPS))
    )


def test_vertex_history_of_unknown_vertex_404(router):
    assert router.handle("GET", "/jobs/job-a/vertex/999/history").status == 404


def test_reproduce_without_computation_returns_context(router):
    payload = _json(router.handle("GET", "/jobs/job-a/reproduce/7/2"))
    assert payload["record"]["vertex_id"] == 7
    assert payload["record"]["violations"][0]["kind"] == "message"
    assert "computation" in payload["note"]


def test_reproduce_with_computation_generates_pytest(router):
    response = router.handle(
        "GET", "/jobs/job-a/reproduce/3/1?computation=ConnectedComponents"
    )
    assert response.status == 200
    assert response.content_type.startswith("text/x-python")
    code = response.body.decode("utf-8")
    assert "def test_reproduce_vertex_3_superstep_1" in code
    assert "ReplayHarness" in code


def test_reproduce_with_unknown_computation_400(router):
    response = router.handle(
        "GET", "/jobs/job-a/reproduce/3/1?computation=EvilClass"
    )
    assert response.status == 400
    assert "available" in _json(response)["error"]


def test_profile_heatmap(router):
    payload = _json(router.handle("GET", "/jobs/job-a/profile/heatmap"))
    assert payload["job_id"] == "job-a"
    assert payload["workers"] == [0, 1]
    assert len(payload["cells"]) == NUM_SUPERSTEPS


def test_profile_skew(router):
    payload = _json(router.handle("GET", "/jobs/job-a/profile/skew"))
    assert payload["timeline"][0]["slowest_worker"] == 1
    assert payload["max_skew"] > 1.0


def test_profile_without_metrics_404(router):
    response = router.handle("GET", "/jobs/job-b/profile/heatmap")
    assert response.status == 404
    assert "metrics.json" in _json(response)["error"]


def test_metrics_endpoint(router):
    payload = _json(router.handle("GET", "/jobs/job-a/metrics"))
    assert len(payload["rows"]) == NUM_SUPERSTEPS
    assert payload["summary"]["num_supersteps"] == NUM_SUPERSTEPS
    assert router.handle("GET", "/jobs/job-b/metrics").status == 404


def test_malformed_cursor_400(router):
    response = router.handle(
        "GET", "/jobs/job-a/views/tabular?cursor=garbage!!"
    )
    assert response.status == 400


def test_malformed_limit_400(router):
    response = router.handle("GET", "/jobs/job-a/views/tabular?limit=lots")
    assert response.status == 400


def test_malformed_superstep_400(router):
    response = router.handle(
        "GET", "/jobs/job-a/views/tabular?superstep=second"
    )
    assert response.status == 400


def test_string_cursor_keys_are_honored(router):
    cursor = encode_cursor({"after": repr(12)})
    payload = _json(router.handle(
        "GET", f"/jobs/job-a/views/tabular?limit=5&cursor={cursor}"
    ))
    first = payload["rows"][0]["vertex_id"]
    assert repr(first) > repr(12)


def test_index_page_lists_jobs(router):
    response = router.handle("GET", "/")
    assert response.status == 200
    assert response.content_type.startswith("text/html")
    html = response.body.decode("utf-8")
    assert "job-a" in html and "job-b" in html


def test_stats_endpoint(router):
    payload = _json(router.handle("GET", "/stats"))
    assert set(payload) == {"record_cache", "block_cache"}


# -- records served from their stored row text ---------------------------------


@pytest.mark.parametrize("target", sorted(PARENT_RESPONSES))
def test_json_bodies_equal_the_decoded_record_renderings(router, target):
    expected = PARENT_RESPONSES[target]
    response = router.handle("GET", target)
    assert response.status == expected["status"]
    assert response.etag == expected["etag"]
    assert _json(response) == expected["body"]


def test_json_bodies_are_compact_with_sorted_keys(router):
    for target in ("/jobs/job-a", "/jobs/job-a/vertex/7?superstep=2",
                   "/jobs/job-a/views/tabular?limit=2", "/nope"):
        body = router.handle("GET", target).body.decode("utf-8")
        assert body == json.dumps(
            json.loads(body), separators=(",", ":"), sort_keys=True
        )


@pytest.fixture
def codec_calls(monkeypatch):
    """Arguments of every ``decode`` / ``encode`` call on any codec."""
    calls = {"decode": [], "encode": []}
    for name in calls:
        original = getattr(ValueCodec, name)

        def counted(self, value, _original=original, _seen=calls[name]):
            _seen.append(value)
            return _original(self, value)

        monkeypatch.setattr(ValueCodec, name, counted)
    return calls


def test_unflagged_records_are_served_without_decoding(served_fs, codec_calls):
    router = Router(ReaderPool(served_fs), codec=ValueCodec())
    # Summaries and search read decoded records: scan the superstep once.
    router.handle("GET", "/jobs/job-b/views/tabular?superstep=1")
    for calls in codec_calls.values():
        calls.clear()
    targets = (
        "/jobs/job-b/vertex/3?superstep=1",
        "/jobs/job-b/vertex/3/history?limit=2",
        "/jobs/job-b/views/tabular?superstep=1&limit=5",
    )
    for target in targets:
        assert router.handle("GET", target).status == 200
    # Nothing but a vertex id (the index is repr-keyed, so the stored id is
    # confirmed) ever went through a codec: no record body did.
    touched = codec_calls["decode"] + codec_calls["encode"]
    assert touched and all(type(value) is int for value in touched)


# -- vertex ids in the path ----------------------------------------------------

AWKWARD_IDS = ["a b", "c/d", "caf\u00e9"]


@pytest.fixture(scope="module")
def awkward_router():
    builder = GraphBuilder()
    for source, target in zip(AWKWARD_IDS, AWKWARD_IDS[1:] + AWKWARD_IDS[:1]):
        builder.edge(source, target)
    run = debug_run(
        lambda: PageRank(iterations=2), builder.build(),
        CaptureAllActiveConfig(), lint=False, job_id="ids", num_workers=2,
    )
    return Router(ReaderPool(run.session.filesystem))


@pytest.mark.parametrize("vertex_id", ["a b", "c/d", "caf\u00e9"])
def test_percent_encoded_ids_reach_their_vertex(awkward_router, vertex_id):
    segment = quote(vertex_id, safe="")
    point = awkward_router.handle("GET", f"/jobs/ids/vertex/{segment}?superstep=1")
    assert _json(point)["vertex_id"] == vertex_id
    history = awkward_router.handle("GET", f"/jobs/ids/vertex/{segment}/history")
    assert [r["vertex_id"] for r in _json(history)["records"]] == [vertex_id] * 3
    context = awkward_router.handle("GET", f"/jobs/ids/reproduce/{segment}/1")
    assert _json(context)["record"]["vertex_id"] == vertex_id
    code = awkward_router.handle(
        "GET", f"/jobs/ids/reproduce/{segment}/1?computation=PageRank"
    )
    assert code.status == 200 and repr(vertex_id) in code.body.decode("utf-8")


def test_numeric_looking_segment_is_the_int_id_then_the_string_id():
    # One job holding both 12 (supersteps 0-1) and "12" (supersteps 1-2).
    fs = SimFileSystem()
    store = TraceStore(fs, "both", 1)
    for vertex_id, supersteps in ((12, (0, 1)), ("12", (1, 2)), ("34", (0,))):
        for superstep in supersteps:
            store.write_vertex_record(VertexContextRecord(
                vertex_id=vertex_id, superstep=superstep, worker_id=0,
                value_before=0.5, edges_before={}, incoming=[], aggregators={},
                num_vertices=3, num_edges=0, run_seed=0, value_after=0.5,
            ))
    store.close()
    router = Router(ReaderPool(fs))

    def point(segment, superstep):
        return _json(router.handle(
            "GET", f"/jobs/both/vertex/{segment}?superstep={superstep}"
        ))

    assert point("12", 0)["vertex_id"] == 12
    assert point("12", 1)["vertex_id"] == 12          # both captured: the int
    assert point("12", 2)["vertex_id"] == "12"        # only the string is
    assert point("34", 0)["vertex_id"] == "34"
    # Neither form captured: the int form's message, as before.
    assert point("12", 3) == {"error": "vertex 12 was not captured in superstep 3"}

    history = _json(router.handle("GET", "/jobs/both/vertex/12/history"))
    assert history["vertex_id"] == 12
    assert [r["superstep"] for r in history["records"]] == [0, 1]
    history = _json(router.handle("GET", "/jobs/both/vertex/34/history"))
    assert history["vertex_id"] == "34" and history["total_records"] == 1
    missing = router.handle("GET", "/jobs/both/vertex/56/history")
    assert _json(missing) == {"error": "vertex 56 was never captured"}

    context = _json(router.handle("GET", "/jobs/both/reproduce/12/2"))
    assert context["record"]["vertex_id"] == "12"
    for segment, vertex_id in (("12/1", 12), ("12/2", "12"), ("34/0", "34")):
        code = router.handle(
            "GET", f"/jobs/both/reproduce/{segment}?computation=PageRank"
        )
        assert code.status == 200
        assert f"vertex_id={vertex_id!r}" in code.body.decode("utf-8")
