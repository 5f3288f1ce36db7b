"""The timed phases of one graftbench cycle and the oracle that checks them.

Each phase is a plain function over public ``repro`` entry points. The
timed part returns its raw outputs; the ``check_*`` functions compare them
against a reference *after* the clock stopped and return
``(attempted, failed)`` counts of checked operations.
"""

import hashlib
import os
import random
import subprocess
import sys
import time

from repro.graft import debug_run, reproducer
from repro.graft.trace import TraceReader, canonical_trace_digest, job_directory
from repro.graft.views import NodeLinkView, TabularView, ViolationsView
from repro.pregel import PregelEngine
from repro.serve.router import Router
from repro.serve.sessions import ReaderPool

from workloads import build_graph, spill_kwargs

JOB_ID = "bench"
SRC_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
)

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro, repro.algorithms, repro.datasets, repro.graft, repro.pregel, "
    "repro.serve.router; print(time.perf_counter() - t)"
)


def import_seconds():
    """Seconds a fresh interpreter spends importing the ``repro`` packages."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC_DIR],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip())


def graph_digest(graph):
    """Digest of the generated input: what the seed changed."""
    edges = graph.iter_edges() if hasattr(graph, "iter_edges") else graph.edges()
    digest = hashlib.sha256()
    for source, target, _value in edges:
        digest.update(b"%d>%d," % (source, target))
    return digest.hexdigest()[:16]


# -- plain and debugged runs ---------------------------------------------------


class Probe:
    """Engine listener: the run's own boundaries, stamped from outside."""

    def __init__(self):
        self.called = time.perf_counter()
        self.started = None
        self.stamps = []

    def on_start(self, engine):
        self.started = time.perf_counter()

    def on_superstep_end(self, superstep, metrics):
        self.stamps.append(time.perf_counter())


def plain_run(job, graph):
    """One run without Graft; returns ``(result, probe, engine kwargs)``."""
    kwargs = job.engine_kwargs()
    probe = Probe()
    result = PregelEngine(job.factory, graph, listeners=[probe], **kwargs).run()
    return result, probe, kwargs


def debugged_run(job, graph):
    return debug_run(
        job.factory, graph, job.config, lint=False, job_id=JOB_ID,
        **job.engine_kwargs(),
    )


def engine_layers(metrics, executor):
    """Step and barrier seconds of one run, from its own ``RunMetrics``.

    ``barrier_s`` is the BSP loop's wall time minus the steps' critical
    path (all workers' seconds when serial, the slowest worker's when
    parallel): master, fork, frame pack/unpack, transport, routing,
    combining, listeners and checkpoint writes.
    """
    fold = sum if executor == "serial" else max
    critical = sum(
        fold(row[1] for row in step.worker_rows) for step in metrics.supersteps
    )
    slowest = sum(max(row[1] for row in s.worker_rows) for s in metrics.supersteps)
    mean = metrics.total_compute_seconds / len(metrics.supersteps[0].worker_rows)
    return {
        "step_s": metrics.total_compute_seconds,
        "barrier_s": metrics.total_seconds - critical,
        "step_skew": slowest / mean if mean else 1.0,
    }


def trace_files(run):
    """``{path: size}`` of the run's trace and index files.

    ``DebugRun.trace_bytes`` also counts ``metrics.json``, whose float
    timings change length from run to run; the exact count leaves it out.
    """
    fs = run.session.filesystem
    return {
        path: fs.stat(path).size
        for path in fs.glob_files(job_directory(JOB_ID))
        if not path.endswith("metrics.json")
    }


def fingerprint(run):
    """What must be identical across every debug sample of a run."""
    fs = run.session.filesystem
    digest = hashlib.sha256()
    files = trace_files(run)
    for path in sorted(files):
        digest.update(path.encode())
        digest.update(fs.read_bytes(path))
    return {
        "capture_count": run.capture_count,
        "trace_bytes": sum(files.values()),
        "trace_sha256": digest.hexdigest(),
    }


def check_plain(result, reference_values):
    return 1, int(dict(result.vertex_values) != reference_values)


DEBUG_CHECKS = 3 + 2


def check_debug(run, reference_values, reference_fingerprint):
    found = fingerprint(run)
    failed = sum(
        found[key] != reference_fingerprint[key] for key in reference_fingerprint
    )
    failed += int(not run.ok)
    failed += int(not run.ok or dict(run.result.vertex_values) != reference_values)
    return DEBUG_CHECKS, failed


def check_spill_twin(workload, job, seed, vertices):
    """The spill plane's canonical digest equals the memory plane's."""
    stream = build_graph(workload, seed, vertices)
    digests = []
    for store, graph in (("spill", stream), ("memory", stream.materialize())):
        run = debug_run(
            job.factory, graph, job.config, lint=False, job_id=JOB_ID,
            **spill_kwargs(store),
        )
        digests.append(canonical_trace_digest(run.session.filesystem, JOB_ID))
    return 1, int(digests[0] != digests[1])


def leaked_shm_segments():
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))
    except OSError:
        return []


# -- inspect: the seeded GUI script --------------------------------------------


class Inspector:
    """The GUI session a user runs against one finished job's traces.

    Built once from the reference run: an eager reader (the oracle) picks a
    seeded sample of captured ``(vertex, superstep)`` pairs and precomputes
    every expected answer. A *pass* then asks a cold lazy reader the same
    questions, and a long-lived :class:`Router` (warm pool, as under
    ``repro serve``; its ETag digest was computed here, untimed) again.
    """

    def __init__(self, filesystem, seed, points):
        self.fs = filesystem
        started = time.perf_counter()
        eager = TraceReader(filesystem, JOB_ID, mode="eager")
        self.eager_open_s = time.perf_counter() - started
        steps = eager.supersteps()
        scans = sorted({steps[0], steps[len(steps) // 2], steps[-1]}) if steps else []
        self.pairs = self._sample_pairs(eager, random.Random(seed), points)
        vertices = sorted({vertex for vertex, _ in self.pairs})[:5]
        self.ops = [("get", pair) for pair in self.pairs]
        self.ops += [("scan", step) for step in scans]
        self.ops += [("history", vertex) for vertex in vertices]
        self.ops += [("violations", None), ("violations_view", None)]
        self.ops += [(view, step) for step in scans[:1] for view in ("tabular", "nodelink")]
        self.expected = [self._ask(eager, op, arg) for op, arg in self.ops]
        self.master_records = list(eager.master_records)

        self.pool = ReaderPool(filesystem)
        self.router = Router(self.pool)
        started = time.perf_counter()
        self.pool.etag(JOB_ID)
        self.digest_s = time.perf_counter() - started
        base = f"/jobs/{JOB_ID}"
        route = {
            "get": lambda a: f"{base}/vertex/{a[0]}?superstep={a[1]}",
            "scan": lambda a: f"{base}/views/tabular?superstep={a}",
            "history": lambda a: f"{base}/vertex/{a}/history",
            "violations": lambda a: f"{base}/views/violations",
            "violations_view": lambda a: f"{base}/views/violations/render",
            "tabular": lambda a: f"{base}/views/tabular/render?superstep={a}",
            "nodelink": lambda a: f"{base}/views/nodelink/render?superstep={a}",
        }
        self.urls = [route[op](arg) for op, arg in self.ops]
        self.urls += [base, f"{base}/profile/skew", f"{base}/profile/heatmap",
                      f"{base}/metrics"]
        self.checks = len(self.ops) + len(self.urls)

    @staticmethod
    def _sample_pairs(eager, rng, points):
        """``points`` captured ``(vertex, superstep)`` pairs, evenly spaced by size.

        Record sizes are heavy-tailed (a web-BS hub receives hundreds of
        messages), so a uniform sample's work would swing with how many
        hubs a seed happens to draw. The picks are spaced evenly over the
        size-ordered captures from a seeded offset: every seed gets other
        records but the same mix.
        """
        records = sorted(
            eager.vertex_records,
            key=lambda r: (len(r.incoming), r.superstep, repr(r.vertex_id)),
        )
        if len(records) <= points:
            return [record.key for record in records]
        stride = len(records) / points
        offset = rng.random() * stride
        return [records[int(offset + i * stride)].key for i in range(points)]

    @staticmethod
    def _ask(reader, op, arg):
        if op == "get":
            return reader.get(*arg)
        if op == "scan":
            return list(reader.at_superstep(arg))
        if op == "history":
            return list(reader.history(arg))
        if op == "violations":
            return list(reader.violations())
        if op == "violations_view":
            return ViolationsView(reader).render()
        if op == "tabular":
            return TabularView(reader, superstep=arg).render()
        return NodeLinkView(reader, None, superstep=arg).render()

    def run_pass(self):
        """One pass of the script; returns ``(reader answers, responses)``."""
        reader = TraceReader(self.fs, JOB_ID, mode="lazy")
        answers = [self._ask(reader, op, arg) for op, arg in self.ops]
        responses = [self.router.handle("GET", url) for url in self.urls]
        return answers, responses

    def check(self, answers, responses):
        failed = sum(a != e for a, e in zip(answers, self.expected))
        failed += sum(response.status != 200 for response in responses)
        for (op, _), expected, response in zip(self.ops, self.expected, responses):
            if op in ("violations_view", "tabular", "nodelink"):
                failed += int(response.status == 200
                              and response.body != expected.encode("utf-8"))
        return self.checks, failed

    def read_accounting(self):
        """Exact simfs bytes and calls one cold reader pass costs."""
        bytes_before, calls_before = self.fs.bytes_read, self.fs.read_calls
        reader = TraceReader(self.fs, JOB_ID, mode="lazy")
        for op, arg in self.ops:
            self._ask(reader, op, arg)
        return self.fs.bytes_read - bytes_before, self.fs.read_calls - calls_before

    def record_cache_hit_rate(self):
        stats = self.pool.cache_stats()["record_cache"]
        total = stats["hits"] + stats["misses"]
        return stats["hits"] / total if total else 0.0


# -- reproduce: replay captured contexts ---------------------------------------


class Reproducer:
    """Context reproduction over the inspector's sampled captures.

    One pass replays every sampled vertex context and every master context
    with verification, generates the standalone test file for each, and
    replays the first three straight from the trace files.
    """

    def __init__(self, inspector, job):
        self.fs = inspector.fs
        self.pairs = inspector.pairs
        self.master_records = inspector.master_records
        self.job = job
        self.reference_sources = None
        self.replays = len(self.pairs) + min(3, len(self.pairs)) + len(self.master_records)
        self.checks = self.replays + len(self.pairs) + len(self.master_records)

    def run_pass(self):
        job = self.job
        reader = TraceReader(self.fs, JOB_ID, mode="lazy")
        reports, masters, sources = [], [], []
        for vertex, superstep in self.pairs:
            record = reader.get(vertex, superstep)
            reports.append(reproducer.replay_record(record, job.factory, verify=True))
            sources.append(reproducer.generate_test_code(record, job.factory))
        for vertex, superstep in self.pairs[:3]:
            reports.append(reproducer.replay_from_trace(
                self.fs, JOB_ID, job.factory, vertex, superstep
            ))
        for record in self.master_records:
            outcome = reproducer.replay_master_record(record, job.master_factory)
            masters.append((record, outcome))
            sources.append(
                reproducer.generate_master_test_code(record, job.master_factory)
            )
        return reports, masters, sources

    def check(self, reports, masters, sources):
        """Returns ``(attempted, failed, unfaithful replays)``.

        The first pass's generated files must compile; they become the
        reference later passes must reproduce character for character.
        """
        unfaithful = sum(not report.faithful for report in reports)
        unfaithful += sum(
            outcome.aggregators != record.aggregators
            or outcome.halted != record.halted
            for record, outcome in masters
        )
        failed = unfaithful
        if self.reference_sources is None:
            for source in sources:
                try:
                    compile(source, "<generated test>", "exec")
                except SyntaxError:
                    failed += 1
            self.reference_sources = sources
        failed += sum(a != b for a, b in zip(sources, self.reference_sources))
        return self.checks, failed, unfaithful
