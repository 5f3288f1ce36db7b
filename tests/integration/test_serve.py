"""The debug server end to end: real runs, real HTTP, many threads.

Covers the serve acceptance criteria:

- every served view is byte-identical to its one-shot renderer;
- N concurrent clients hammering shared readers all get byte-identical
  payloads (per target) and correct data;
- after the digest is warm, ``If-None-Match`` revalidation answers 304
  with **zero** filesystem reads (asserted via simfs read accounting);
- ``repro trace stats --json`` emits the same document as the server's
  ``/jobs/<id>`` endpoint.
"""

import hashlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.algorithms import ConnectedComponents
from repro.datasets import load_dataset
from repro.graft import DebugConfig, debug_run
from repro.graft.views import NodeLinkView, TabularView, ViolationsView
from repro.serve import DebugServer, create_server
from repro.simfs import SimFileSystem

NUM_CLIENTS = 8
REQUESTS_PER_CLIENT = 6


class _CaptureAll(DebugConfig):
    def capture_all_active(self):
        return True


class _FlagEvens(_CaptureAll):
    """Violate the vertex-value constraint on even component ids."""

    def vertex_value_constraint(self, value, vertex_id, superstep):
        return not (superstep >= 2 and value % 2 == 0)


@pytest.fixture(scope="module")
def served():
    fs = SimFileSystem()
    graph = load_dataset("web-BS", seed=0, num_vertices=40)
    debug_run(ConnectedComponents, graph, _CaptureAll(), filesystem=fs,
              job_id="job-clean", num_workers=4)
    debug_run(ConnectedComponents, graph, _FlagEvens(), filesystem=fs,
              job_id="job-flagged", num_workers=2)
    server = create_server(fs).start()
    yield fs, server
    server.shutdown()


def _get(server, path, headers=None):
    request = urllib.request.Request(server.url + path,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def test_served_views_are_byte_identical_to_renderers(served):
    fs, server = served
    reader = server.pool.reader("job-flagged")
    expectations = {
        "/jobs/job-flagged/views/nodelink/render":
            NodeLinkView(reader, None).render(),
        "/jobs/job-flagged/views/tabular/render":
            TabularView(reader).render(),
        "/jobs/job-flagged/views/violations/render":
            ViolationsView(reader).render(),
    }
    for path, expected in expectations.items():
        status, _headers, body = _get(server, path)
        assert status == 200
        assert body == expected.encode("utf-8"), path


def test_concurrent_clients_get_identical_correct_payloads(served):
    fs, server = served
    targets = [
        "/jobs",
        "/jobs/job-clean",
        "/jobs/job-flagged/views/nodelink/render",
        "/jobs/job-flagged/views/tabular?limit=10",
        "/jobs/job-flagged/views/violations",
        "/jobs/job-clean/vertex/3?superstep=1",
        "/jobs/job-clean/vertex/3/history",
        "/jobs/job-clean/profile/heatmap",
        "/jobs/job-clean/profile/skew",
        "/jobs/job-flagged/reproduce/3/1?computation=ConnectedComponents",
    ]
    barrier = threading.Barrier(NUM_CLIENTS)
    results = [[] for _ in range(NUM_CLIENTS)]
    errors = []

    def client(index):
        try:
            barrier.wait(timeout=30)
            for round_ in range(REQUESTS_PER_CLIENT):
                target = targets[(index + round_) % len(targets)]
                status, _headers, body = _get(server, target)
                results[index].append((target, status, body))
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(NUM_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors

    # Same target -> byte-identical body, whichever thread asked and in
    # whatever interleaving.
    by_target = {}
    for client_results in results:
        assert client_results, "a client made no requests"
        for target, status, body in client_results:
            assert status == 200, (target, status, body[:200])
            by_target.setdefault(target, set()).add(body)
    assert set(by_target) == set(targets)
    for target, bodies in by_target.items():
        assert len(bodies) == 1, f"{target} served {len(bodies)} variants"

    # And the concurrent bodies match single-threaded recomputation.
    for target in targets:
        _status, _headers, body = _get(server, target)
        assert body in by_target[target]


# (ETag, SHA-256 of the parsed body re-serialized compact with sorted keys),
# recorded at the commit that still rendered records by decoding them: the
# served documents and validators must not notice the spliced path.
PARENT_DOCUMENTS = {
    "/jobs/job-flagged/views/tabular?limit=10": (
        "4886a4f143315d2665eeaf950f90ca51ab98e4eead7f62382c1f136275c52b6b",
        "1aff340985505bd08b706a39da7133d13e71ab20ac72f2e6d1747078139fa0eb",
    ),
    "/jobs/job-flagged/views/violations": (
        "4886a4f143315d2665eeaf950f90ca51ab98e4eead7f62382c1f136275c52b6b",
        "e9dd01c463ec369bac0f442441c0a535474c852aae6673cbeab9783000171328",
    ),
    "/jobs/job-flagged/views/nodelink?limit=4&superstep=2": (
        "4886a4f143315d2665eeaf950f90ca51ab98e4eead7f62382c1f136275c52b6b",
        "c6ad23dff55ef9bd4ae99e119b23fffc2535771c42a4034c4af7565663426a7f",
    ),
    "/jobs/job-flagged/reproduce/3/1": (
        "4886a4f143315d2665eeaf950f90ca51ab98e4eead7f62382c1f136275c52b6b",
        "be7664f3665085032f74d084ea22918fd8625d799fbdcda515ca0dc8f5dbe801",
    ),
    "/jobs/job-clean/vertex/3?superstep=1": (
        "ad220f84a98ebc87c2929caebe484e76ef4571cfa7b856d5282dd233a54ad421",
        "002350a1f836b14e5080b8ef48d3cedc3849b2d323b834e8649029b99220bbf6",
    ),
    "/jobs/job-clean/vertex/3/history": (
        "ad220f84a98ebc87c2929caebe484e76ef4571cfa7b856d5282dd233a54ad421",
        "f3497fabbc8886f6cfe3590304315277d3a56f0678b9d2540550e62ff91e3a28",
    ),
}


@pytest.mark.parametrize("target", sorted(PARENT_DOCUMENTS))
def test_served_documents_and_etags_are_unchanged(served, target):
    _fs, server = served
    status, headers, body = _get(server, target)
    assert status == 200
    canonical = json.dumps(
        json.loads(body), separators=(",", ":"), sort_keys=True
    )
    found = (
        headers["ETag"].strip('"'),
        hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    )
    assert found == PARENT_DOCUMENTS[target]


def test_etag_revalidation_serves_304_with_zero_reads(served):
    fs, server = served
    status, headers, _body = _get(server, "/jobs/job-clean")
    assert status == 200
    etag = headers["ETag"]
    assert etag.strip('"') == server.pool.etag("job-clean")

    before = (fs.bytes_read, fs.read_calls)
    for path in (
        "/jobs/job-clean",
        "/jobs/job-clean/views/tabular?limit=5",
        "/jobs/job-clean/profile/skew",
    ):
        status, headers, body = _get(
            server, path, headers={"If-None-Match": etag}
        )
        assert status == 304, path
        assert headers["ETag"] == etag
        assert body == b""
    assert (fs.bytes_read, fs.read_calls) == before, (
        "revalidation touched the filesystem"
    )

    # A stale validator misses and the full response comes back.
    status, _headers, body = _get(
        server, "/jobs/job-clean", headers={"If-None-Match": '"stale"'}
    )
    assert status == 200 and body


def test_cold_job_never_304s(served):
    fs, server = served
    with DebugServer(fs, pool=None) as cold_server:
        status, _headers, _body = _get(
            cold_server,
            "/jobs/job-clean",
            headers={"If-None-Match": '"' + server.pool.etag("job-clean") + '"'},
        )
        # The fresh pool has no cached digest: proving the match would cost
        # the reads the 304 exists to avoid, so the full answer is correct.
        assert status == 200


def test_trace_stats_json_matches_server_document(served, tmp_path, capsys):
    fs, server = served
    export = tmp_path / "traces"
    fs.export_to_directory(str(export))

    from repro.cli import main

    lines = []
    status = main(
        ["trace", "stats", "job-clean", "--dir", str(export), "--json"],
        out=lines.append,
    )
    assert status == 0
    cli_doc = json.loads("\n".join(lines))

    http_status, _headers, body = _get(server, "/jobs/job-clean")
    assert http_status == 200
    server_doc = json.loads(body.decode("utf-8"))
    server_doc.pop("supersteps")  # the reader view only the server adds
    assert cli_doc == server_doc


def test_head_requests_have_no_body(served):
    fs, server = served
    request = urllib.request.Request(
        server.url + "/jobs/job-clean", method="HEAD"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        assert response.read() == b""
        assert response.headers["ETag"]
