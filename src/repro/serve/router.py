"""URL routing and JSON rendering for the debug server.

The router is transport-free: it maps ``(method, path, query)`` to a
:class:`Response` and knows nothing about sockets, so every endpoint is
testable by direct call and the HTTP layer in :mod:`repro.serve.app`
stays a thin adapter. Handlers read through a shared
:class:`~repro.serve.sessions.ReaderPool`; nothing here mutates anything,
which is what makes the whole surface safe to serve from many threads.

Endpoint map (see docs/serve.md for the full API table)::

    /                                   HTML index
    /api                                this route table, as JSON
    /healthz                            liveness probe
    /stats                              shared-cache hit/miss counters
    /jobs                               job summaries (digest = ETag)
    /jobs/<job>                         one job's summary
    /jobs/<job>/views/nodelink          node-link view data (paginated)
    /jobs/<job>/views/tabular           tabular rows (paginated, ?q= search)
    /jobs/<job>/views/violations        violations + exceptions (paginated)
    /jobs/<job>/views/<name>/render     the one-shot renderer's exact text
    /jobs/<job>/vertex/<vid>            point query (?superstep=K)
    /jobs/<job>/vertex/<vid>/history    that vertex across supersteps
    /jobs/<job>/reproduce/<vid>/<ss>    context JSON or generated pytest
    /jobs/<job>/profile/heatmap         GiViP-style message heatmap
    /jobs/<job>/profile/skew            worker-skew timeline
    /jobs/<job>/metrics                 the persisted metrics.json

Violation values and vertex ids travel through the trace codec's
``encode`` — the same JSON-safe value domain the trace files use — so
anything capturable is servable. A capture record is served as the field
texts of its stored trace row, spliced under their field names: the row
already is that JSON, so nothing is decoded or re-encoded on the way out.
Bodies are compact, sorted-key JSON.
"""

import json
from urllib.parse import parse_qs, unquote, urlsplit

from repro.common.errors import GraftError, ReproError, TraceError
from repro.common.serialization import default_codec
from repro.graft.capture import vertex_field_names
from repro.graft.views.nodelink import NodeLinkView
from repro.graft.views.tabular import TabularView
from repro.graft.views.violations import ViolationsView
from repro.serve.pagination import PaginationError, paginate
from repro.serve.profile import message_heatmap, worker_skew

JSON_TYPE = "application/json"
TEXT_TYPE = "text/plain; charset=utf-8"
HTML_TYPE = "text/html; charset=utf-8"
PYTHON_TYPE = "text/x-python; charset=utf-8"


_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True, default=repr)


def _object_text(payload, spliced):
    """A JSON object of ``payload``'s members plus the ``spliced`` texts."""
    members = {name: _JSON.encode(value) for name, value in payload.items()}
    members.update(spliced)
    return "{" + ",".join(
        [f"{_JSON.encode(name)}:{members[name]}" for name in sorted(members)]
    ) + "}"


class HttpError(ReproError):
    """An error with a definite HTTP status (rendered as a JSON body)."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class Response:
    """One rendered response: status, content type, body bytes, ETag."""

    def __init__(self, status, content_type, body, etag=None):
        self.status = status
        self.content_type = content_type
        self.body = body
        self.etag = etag

    @classmethod
    def json(cls, payload, status=200, etag=None, spliced=None):
        """``payload`` as compact sorted-key JSON.

        ``spliced`` maps further top-level member names to text that is
        already JSON (stored trace-row fields), inserted as it stands.
        """
        if spliced is None:
            text = _JSON.encode(payload)
        else:
            text = _object_text(payload, spliced)
        return cls(status, JSON_TYPE, text.encode("utf-8"), etag=etag)

    @classmethod
    def text(cls, text, content_type=TEXT_TYPE, status=200, etag=None):
        return cls(status, content_type, text.encode("utf-8"), etag=etag)


class Router:
    """Maps request paths onto the reader pool. One instance, all threads."""

    def __init__(self, pool, codec=None):
        self.pool = pool
        self.codec = codec or default_codec

    # -- entry point ------------------------------------------------------

    def handle(self, method, target):
        """Dispatch one request target (path + query string) to a Response."""
        if method not in ("GET", "HEAD"):
            return Response.json(
                {"error": f"method {method} not allowed"}, status=405
            )
        split = urlsplit(target)
        parts = _segments(split.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        try:
            return self._dispatch(parts, query)
        except HttpError as exc:
            return Response.json({"error": str(exc)}, status=exc.status)
        except (PaginationError,) as exc:
            return Response.json({"error": str(exc)}, status=400)
        except (TraceError, GraftError) as exc:
            return Response.json({"error": str(exc)}, status=404)

    def job_id_of(self, target):
        """The job id a request target addresses, or None (the ETag scope)."""
        parts = _segments(urlsplit(target).path)
        if len(parts) >= 2 and parts[0] == "jobs":
            return parts[1]
        return None

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, parts, query):
        if not parts:
            from repro.serve.html import index_page

            return Response.text(index_page(self.pool), content_type=HTML_TYPE)
        head = parts[0]
        if head == "healthz" and len(parts) == 1:
            return Response.json({"ok": True})
        if head == "api" and len(parts) == 1:
            return Response.json({"endpoints": _ENDPOINTS})
        if head == "stats" and len(parts) == 1:
            return Response.json(self.pool.cache_stats())
        if head == "jobs":
            return self._dispatch_jobs(parts[1:], query)
        raise HttpError(404, f"no such endpoint: /{'/'.join(parts)}")

    def _dispatch_jobs(self, parts, query):
        if not parts:
            jobs = []
            for job_id in self.pool.job_ids():
                # One directory holding a foreign *.trace file must not
                # hide every other job.
                try:
                    jobs.append(self.pool.session(job_id).summary())
                except TraceError as exc:
                    jobs.append({"job_id": job_id, "error": str(exc)})
            return Response.json({"jobs": jobs})
        session = self.pool.session(parts[0])
        etag = session.etag
        rest = parts[1:]
        if not rest:
            return Response.json(session.summary(), etag=etag)
        head = rest[0]
        if head == "views":
            return self._views(session, rest[1:], query, etag)
        if head == "vertex":
            return self._vertex(session, rest[1:], query, etag)
        if head == "reproduce":
            return self._reproduce(session, rest[1:], query, etag)
        if head == "profile":
            return self._profile(session, rest[1:], etag)
        if head == "metrics" and len(rest) == 1:
            metrics = session.metrics
            if metrics is None:
                raise HttpError(
                    404, f"job {session.job_id!r} has no metrics.json"
                )
            return Response.json(metrics, etag=etag)
        raise HttpError(404, f"no such job endpoint: {head!r}")

    # -- the three Graft views --------------------------------------------

    def _views(self, session, parts, query, etag):
        if not parts or len(parts) > 2:
            raise HttpError(404, "expected /views/<name>[/render]")
        name = parts[0]
        render = len(parts) == 2
        if render and parts[1] != "render":
            raise HttpError(404, f"no such view endpoint: {parts[1]!r}")
        if name == "nodelink":
            view = NodeLinkView(
                session.reader, None, superstep=_superstep(query)
            )
            if render:
                return Response.text(view.render(), etag=etag)
            return self._nodelink_json(session.reader, view, query, etag)
        if name == "tabular":
            view = TabularView(session.reader, superstep=_superstep(query))
            if render:
                return Response.text(view.render(), etag=etag)
            return self._tabular_json(session.reader, view, query, etag)
        if name == "violations":
            view = ViolationsView(session.reader)
            if render:
                return Response.text(
                    view.render(superstep=_superstep(query)), etag=etag
                )
            return self._violations_json(view, query, etag)
        raise HttpError(404, f"no such view: {name!r}")

    def _nodelink_json(self, reader, view, query, etag):
        captured, small = view.nodes()
        page, next_cursor = paginate(
            captured,
            cursor=query.get("cursor"),
            limit=query.get("limit"),
            key=lambda record: repr(record.vertex_id),
        )
        aggregators, globals_data = view.aggregator_panel()
        encode = self.codec.encode
        edges = [
            [encode(record.vertex_id), encode(target), encode(value)]
            for record in page
            for target, value in sorted(
                record.edges_after.items(), key=lambda e: repr(e[0])
            )
        ]
        return Response.json(
            {
                "superstep": view.superstep,
                "supersteps": view._steps,
                "status_boxes": view.status_boxes(),
                "aggregators": {
                    name: encode(value)
                    for name, value in sorted(aggregators.items())
                },
                "globals": globals_data,
                "edges": edges,
                "small_nodes": [encode(v) for v in small],
                "total_nodes": len(captured),
                "next_cursor": next_cursor,
            },
            etag=etag,
            spliced={"nodes": self._page_text(reader, page)},
        )

    def _tabular_json(self, reader, view, query, etag):
        rows = view.search(query["q"]) if "q" in query else list(view.rows())
        page, next_cursor = paginate(
            rows,
            cursor=query.get("cursor"),
            limit=query.get("limit"),
            key=lambda record: repr(record.vertex_id),
        )
        return Response.json(
            {
                "superstep": view.superstep,
                "supersteps": view._steps,
                "query": query.get("q"),
                "summaries": [view.row_summary(record) for record in page],
                "total_rows": len(rows),
                "next_cursor": next_cursor,
            },
            etag=etag,
            spliced={"rows": self._page_text(reader, page)},
        )

    def _violations_json(self, view, query, etag):
        superstep = _superstep(query)
        encode = self.codec.encode
        violations = [
            {
                "vertex_id": encode(vertex_id),
                "superstep": step,
                "kind": kind,
                "details": encode(details),
            }
            for vertex_id, step, kind, details in view.violation_rows(superstep)
        ]
        exceptions = [
            {
                "vertex_id": encode(vertex_id),
                "superstep": step,
                "summary": summary,
                "traceback": traceback_text,
            }
            for vertex_id, step, summary, traceback_text
            in view.exception_rows(superstep)
        ]
        page, next_cursor = paginate(
            violations, cursor=query.get("cursor"), limit=query.get("limit")
        )
        return Response.json(
            {
                "superstep": superstep,
                "violations": page,
                "exceptions": exceptions,
                "total_violations": len(violations),
                "supersteps_with_violations": view.supersteps_with_violations(),
                "next_cursor": next_cursor,
            },
            etag=etag,
        )

    # -- point queries ----------------------------------------------------

    def _vertex(self, session, parts, query, etag):
        if not parts or len(parts) > 2:
            raise HttpError(404, "expected /vertex/<vid>[/history]")
        reader = session.reader
        if len(parts) == 2:
            if parts[1] != "history":
                raise HttpError(
                    404, f"no such vertex endpoint: {parts[1]!r}"
                )

            def captured_history(vertex_id):
                rows = reader.history_fields(vertex_id)
                if not rows:
                    raise TraceError(f"vertex {vertex_id!r} was never captured")
                return rows

            vertex_id, rows = _captured(parts[0], captured_history)
            page, next_cursor = paginate(
                rows, cursor=query.get("cursor"), limit=query.get("limit")
            )
            return Response.json(
                {
                    "vertex_id": self.codec.encode(vertex_id),
                    "total_records": len(rows),
                    "next_cursor": next_cursor,
                },
                etag=etag,
                spliced={"records": _array_text(map(self._record_text, page))},
            )
        superstep = _superstep(query)
        if superstep is None:
            raise HttpError(400, "point queries need ?superstep=K")
        _vertex_id, texts = _captured(
            parts[0], lambda vertex_id: reader.get_fields(vertex_id, superstep)
        )
        return Response.text(
            self._record_text(texts), content_type=JSON_TYPE, etag=etag
        )

    # -- reproduce-context downloads --------------------------------------

    def _reproduce(self, session, parts, query, etag):
        if len(parts) != 2:
            raise HttpError(404, "expected /reproduce/<vid>/<superstep>")
        try:
            superstep = int(parts[1])
        except ValueError:
            raise HttpError(
                400, f"superstep must be an integer, got {parts[1]!r}"
            ) from None
        reader = session.reader
        name = query.get("computation")
        if not name:
            _vertex_id, texts = _captured(
                parts[0],
                lambda vertex_id: reader.get_fields(vertex_id, superstep),
            )
            return Response.json(
                {
                    "job_id": session.job_id,
                    "note": (
                        "pass ?computation=<repro.algorithms class> for a "
                        "generated pytest file"
                    ),
                },
                etag=etag,
                spliced={"record": self._record_text(texts)},
            )
        factory = _resolve_computation(name)
        from repro.graft.reproducer import generate_test_code

        _vertex_id, record = _captured(
            parts[0], lambda vertex_id: reader.get(vertex_id, superstep)
        )
        code = generate_test_code(record, factory, job_id=session.job_id)
        return Response.text(code, content_type=PYTHON_TYPE, etag=etag)

    # -- profiler ---------------------------------------------------------

    def _profile(self, session, parts, etag):
        if len(parts) != 1 or parts[0] not in ("heatmap", "skew"):
            raise HttpError(404, "expected /profile/heatmap or /profile/skew")
        metrics = session.metrics
        if metrics is None:
            raise HttpError(
                404,
                f"job {session.job_id!r} has no metrics.json "
                "(persisted by debug_run at completion)",
            )
        if parts[0] == "heatmap":
            payload = message_heatmap(metrics)
        else:
            payload = worker_skew(metrics)
        payload["job_id"] = session.job_id
        return Response.json(payload, etag=etag)

    # -- record serialization ---------------------------------------------

    def _record_text(self, texts):
        """One capture record as a JSON object, from its row's field texts.

        The stored texts are served as they stand. Only what the API shows
        differently is rendered anew (in place, in ``texts``) — violations
        as flat rows, the exception as its summary — and only for a record
        that has any.
        """
        if texts[_VIOLATIONS_SLOT] != "[]":
            encode = self.codec.encode
            texts[_VIOLATIONS_SLOT] = _JSON.encode([
                {
                    "vertex_id": encode(v.vertex_id),
                    "superstep": v.superstep,
                    "kind": v.kind,
                    "details": encode(v.details),
                }
                for v in self.codec.loads(texts[_VIOLATIONS_SLOT])
            ])
        if texts[_EXCEPTION_SLOT] != "null":
            texts[_EXCEPTION_SLOT] = _JSON.encode(
                self.codec.loads(texts[_EXCEPTION_SLOT]).summary()
            )
        return "{" + ",".join(
            [key + texts[slot] for key, slot in _RECORD_MEMBERS]
        ) + "}"

    def _page_text(self, reader, records):
        """The JSON array of a page of decoded records, from their rows."""
        return _array_text(
            self._record_text(reader.get_fields(r.vertex_id, r.superstep))
            for r in records
        )


# A record object's members in key order: ('"name":', slot of its text).
_RECORD_MEMBERS = tuple(
    (f'"{name}":', vertex_field_names().index(name))
    for name in sorted(vertex_field_names())
)
_VIOLATIONS_SLOT = vertex_field_names().index("violations")
_EXCEPTION_SLOT = vertex_field_names().index("exception")


def _array_text(texts):
    return "[" + ",".join(texts) + "]"


def _segments(path):
    """A URL path's non-empty segments, percent-decoded after splitting."""
    return [unquote(part) for part in path.split("/") if part]


def _superstep(query):
    """The ?superstep= value as an int, or None when absent."""
    raw = query.get("superstep")
    if raw is None or raw == "" or raw == "last":
        return None
    try:
        return int(raw)
    except ValueError:
        raise HttpError(
            400, f"superstep must be an integer, got {raw!r}"
        ) from None


def _captured(raw, find):
    """``(vertex id, find(vertex id))`` for the id a path segment names.

    The segment's int form is looked up first; a *string* id that merely
    looks numeric is found on the second try. When neither was captured
    the first form's error stands.
    """
    try:
        candidates = (int(raw), raw)
    except ValueError:
        candidates = (raw,)
    errors = []
    for vertex_id in candidates:
        try:
            return vertex_id, find(vertex_id)
        except TraceError as exc:
            errors.append(exc)
    raise errors[0]


def _resolve_computation(name):
    """A zero-arg computation factory from the repro.algorithms namespace.

    The server cannot import arbitrary user code by request (that would be
    remote code execution); only the algorithm registry that ``repro
    debug`` itself exposes is reachable.
    """
    import inspect

    import repro.algorithms as algorithms

    candidate = getattr(algorithms, name, None)
    if candidate is None or not inspect.isclass(candidate):
        available = sorted(
            attr for attr in dir(algorithms)
            if inspect.isclass(getattr(algorithms, attr))
            and not attr.startswith("_")
        )
        raise HttpError(
            400,
            f"unknown computation {name!r}; available: {', '.join(available)}",
        )
    try:
        candidate()
    except TypeError as exc:
        raise HttpError(
            400,
            f"computation {name!r} is not zero-arg constructible: {exc}",
        ) from None
    return candidate


_ENDPOINTS = {
    "/": "HTML index of the served jobs",
    "/api": "this endpoint table",
    "/healthz": "liveness probe",
    "/stats": "shared record/block cache hit counters",
    "/jobs": "job summaries with canonical digests (the ETag values)",
    "/jobs/<job>": "one job's summary",
    "/jobs/<job>/views/nodelink": "node-link view data (?superstep, ?cursor, ?limit)",
    "/jobs/<job>/views/tabular": "tabular rows (?superstep, ?q search, ?cursor, ?limit)",
    "/jobs/<job>/views/violations": "violations + exceptions (?superstep, ?cursor)",
    "/jobs/<job>/views/<name>/render": "the one-shot renderer's exact text output",
    "/jobs/<job>/vertex/<vid>": "point query (?superstep=K required)",
    "/jobs/<job>/vertex/<vid>/history": "one vertex across supersteps",
    "/jobs/<job>/reproduce/<vid>/<ss>": "context JSON, or pytest file with ?computation=",
    "/jobs/<job>/profile/heatmap": "GiViP-style superstep x worker message heatmap",
    "/jobs/<job>/profile/skew": "per-superstep worker compute-skew timeline",
    "/jobs/<job>/metrics": "the persisted metrics.json document",
}
