"""One graftbench run: warm-up, interleaved timed cycles, metrics.

A run is untimed set-up and one warm-up pass of every phase (which also
builds the reference answers), then *cycles* until ``--seconds`` are used up; a
cycle is ``import -> build -> plain -> debug -> plain -> inspect ->
reproduce``, so
slow machine drift hits every metric alike and each metric's samples span
the whole run. Every sample is scaled by the machine's speed around it
(see ``calibrate.py``); a timing metric is the **median** of its scaled
samples, and ``(median - min) / min`` is kept as ``noise.*``. With
``--trace 1`` the last 40% of the window runs cycles under the span shims
instead; only per-layer numbers are taken from those.
"""

import gc
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

import phases
from calibrate import NOMINAL_S, reference_seconds
from spans import NullTracer, Tracer
from workloads import WORKLOADS, build_graph

NOISY = 0.15
TRACED_SHARE = 0.4


def read_cpu_times():
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as handle:
        return float(handle.read().split()[0])


def child_pids():
    """Pids of the live and zombie processes whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children():
    """Stop every process this run started and wait until each has ended.

    ``executor="processes"`` starts multiprocessing's resource tracker, a
    helper process that by design outlives its parent by a moment; the
    workers and the import probe are already joined by the program. The
    tracker ends when its pipe closes, anything else is killed, and every
    child is reaped, so nothing of the run is alive once this returns.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, tracker_pid = tracker._fd, tracker._pid
    tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    for pid in child_pids():
        if pid != tracker_pid:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


#: A timing's value for the run: the median of its speed-normalised samples.
typical = statistics.median


def noise(samples):
    """How far the run's typical sample sits above its best one."""
    low = min(samples)
    return (typical(samples) - low) / low


class Run:
    def __init__(self, workload_name, seed, seconds, trace, quick, out_dir):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.out_dir = out_dir
        #: Passes per inspect / reproduce sample.
        self.loops = (1, 1) if quick else (
            self.workload.inspect_loops, self.workload.reproduce_loops
        )
        self.attempted = 0
        self.failed = 0
        #: Untraced and traced samples are kept apart: end-to-end metrics
        #: come from the untraced ones only.
        self.samples = {}
        self.traced = {}
        self.tracer = Tracer(workload_name) if trace else None
        #: The last reference_seconds() reading: the sample after it reuses
        #: it as its "before", so the reference runs once per sample.
        self._reference = None

    # -- sampling ---------------------------------------------------------

    def _count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def _record(self, sink, name, seconds, before):
        """Keep one sample: raw, and scaled by the machine speed around it."""
        self._reference = after = reference_seconds()
        speed = (before + after) / 2 / NOMINAL_S
        sink.setdefault(name, []).append(seconds / speed)
        sink.setdefault(name + ".raw", []).append(seconds)
        sink.setdefault(name + ".speed", []).append(speed)
        return speed

    def _sample(self, tracer, sink, name, fn, check, expected_checks):
        """Time ``fn`` once, then check its output off the clock.

        A crash counts every operation the phase would have checked as
        failed and drops the sample; the run goes on. Returns the raw
        seconds, the machine speed factor around them, and the output.
        """
        gc.collect()
        before = self._reference or reference_seconds()
        try:
            with tracer.span("phase." + name):
                started = time.perf_counter()
                output = fn()
                seconds = time.perf_counter() - started
            speed = self._record(sink, name, seconds, before)
            self._count(*check(output))
        except Exception:  # noqa: BLE001 - a failed phase is a result, not an abort
            traceback.print_exc(file=sys.stderr)
            self._count(expected_checks, expected_checks)
            self._reference = None
            return None, None, None
        return seconds, speed, output

    def _vertices(self):
        return self.workload.quick_vertices if self.quick else self.workload.vertices

    def _build(self, tracer, sink):
        def check(graph):
            same = (graph.num_vertices, graph.num_edges) == self.shape
            return 1, int(not same)

        def build():
            with tracer.span("datasets.build"):
                return build_graph(self.workload, self.seed, self._vertices())

        self._sample(tracer, sink, "build", build, check, 1)

    def _plain(self, tracer, sink):
        seconds, speed, output = self._sample(
            tracer, sink, "plain",
            lambda: phases.plain_run(self.job, self.graph),
            lambda out: phases.check_plain(out[0], self.reference_values), 1,
        )
        if seconds is not None:
            result, probe, _ = output
            layers = phases.engine_layers(result.metrics, self.executor)
            stamps = [probe.started] + probe.stamps
            layers["load_s"] = probe.started - probe.called
            layers["superstep_max_s"] = max(b - a for a, b in zip(stamps, stamps[1:]))
            for key in ("step_s", "barrier_s", "load_s", "superstep_max_s"):
                layers[key] /= speed
            layers["parallel_efficiency"] = result.metrics.parallel_efficiency
            for key, value in layers.items():
                sink.setdefault("plain." + key, []).append(value)

    def _debug(self, tracer, sink):
        seconds, speed, run = self._sample(
            tracer, sink, "debug",
            lambda: phases.debugged_run(self.job, self.graph),
            lambda run: phases.check_debug(
                run, self.reference_values, self.reference_fingerprint
            ),
            phases.DEBUG_CHECKS,
        )
        if seconds is not None and run.ok:
            layers = phases.engine_layers(run.result.metrics, self.executor)
            sink.setdefault("debug.step_s", []).append(layers["step_s"] / speed)

    def _looped(self, actor, loops):
        def run():
            for _ in range(loops):
                output = actor.run_pass()
            return output
        return run

    def cycle(self, tracer, sink):
        before = self._reference or reference_seconds()
        self._record(sink, "import", phases.import_seconds(), before)
        self._build(tracer, sink)
        self._plain(tracer, sink)
        self._debug(tracer, sink)
        self._plain(tracer, sink)
        self._sample(
            tracer, sink, "inspect", self._looped(self.inspector, self.loops[0]),
            lambda out: self.inspector.check(*out), self.inspector.checks,
        )

        def check_reproduce(out):
            attempted, failed, unfaithful = self.reproducer.check(*out)
            self.unfaithful += unfaithful
            self.replays += self.reproducer.replays
            return attempted, failed

        self._sample(
            tracer, sink, "reproduce", self._looped(self.reproducer, self.loops[1]),
            check_reproduce, self.reproducer.checks,
        )

    def _cycles(self, tracer, sink, until):
        """Run cycles up to the time ``until``; returns how many ran.

        After the first, a cycle starts only while the last one's length
        still fits, so the window is never overrun by more than drift.
        """
        count, cycle_s = 0, 0.0
        while count == 0 or (
            not self.quick and time.perf_counter() + cycle_s <= until
        ):
            tracer.cycle = count
            lap = time.perf_counter()
            self.cycle(tracer, sink)
            cycle_s = time.perf_counter() - lap
            count += 1
        return count

    # -- the run ----------------------------------------------------------

    def warm_up(self):
        """Build the inputs and the reference answers; one pass of each phase."""
        workload = self.workload
        self.graph = build_graph(workload, self.seed, self._vertices())
        self.shape = (self.graph.num_vertices, self.graph.num_edges)
        self.input_digest = phases.graph_digest(self.graph)
        self.job = workload.make_job(self.graph)

        result, _, kwargs = phases.plain_run(self.job, self.graph)
        self.reference_values = dict(result.vertex_values)
        self.reference_metrics = result.metrics
        self.executor = kwargs["executor"]
        checkpoints = kwargs.get("checkpoint_config")
        self.checkpoint_bytes = (
            checkpoints.filesystem.total_bytes(checkpoints.directory)
            if checkpoints else 0
        )

        self.reference_run = run = phases.debugged_run(self.job, self.graph)
        if not run.ok:
            raise SystemExit(f"graftbench: reference debug run failed: {run.failure}")
        self.reference_fingerprint = phases.fingerprint(run)
        self._count(1, int(dict(run.result.vertex_values) != self.reference_values))

        self.inspector = phases.Inspector(
            run.session.filesystem, self.seed, workload.points
        )
        self.reproducer = phases.Reproducer(self.inspector, self.job)
        self.reader_bytes, self.reader_calls = self.inspector.read_accounting()
        self._count(*self.inspector.check(*self.inspector.run_pass()))
        attempted, failed, self.unfaithful = self.reproducer.check(
            *self.reproducer.run_pass()
        )
        self._count(attempted, failed)
        self.replays = self.reproducer.replays

        if workload.twin_vertices:
            twin = min(workload.twin_vertices, self._vertices())
            self._count(*phases.check_spill_twin(workload, self.job, self.seed, twin))

        from repro.analysis import analyze_computation

        started = time.perf_counter()
        analyze_computation(type(self.job.factory()))
        self.preflight_s = time.perf_counter() - started

    def execute(self):
        cpu_start, steal_start = read_cpu_times()
        self.context = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "hashseed": os.environ.get("PYTHONHASHSEED"),
            "loadavg_start": loadavg(),
        }
        shm_before = set(phases.leaked_shm_segments())
        self.warm_up()
        # The references (eager reader, expected answers) stay alive all run;
        # freezing them keeps the program's collections from scanning them.
        gc.collect()
        gc.freeze()

        started = time.perf_counter()
        share = 1 - TRACED_SHARE if self.trace else 1
        cycles = self._cycles(NullTracer(), self.samples, started + self.seconds * share)
        traced_cycles = 0
        if self.trace:
            self.tracer.install()
            try:
                traced_cycles = self._cycles(
                    self.tracer, self.traced, started + self.seconds
                )
            finally:
                self.tracer.uninstall()
        self.cycles = cycles
        leaked = set(phases.leaked_shm_segments()) - shm_before
        self._count(1, int(bool(leaked)))
        cpu_end, steal_end = read_cpu_times()
        self.steal_pct = 100.0 * (steal_end - steal_start) / max(1, cpu_end - cpu_start)
        self.context["loadavg_end"] = loadavg()
        self.context["input_digest"] = self.input_digest
        self.context["input_shape"] = list(self.shape)
        self.context["cycles"] = cycles
        self.context["traced_cycles"] = traced_cycles

        missing = [
            name for name in ("import", "build", "plain", "debug", "inspect",
                              "reproduce", "plain.load_s", "debug.step_s")
            if not self.samples.get(name)
        ]
        if missing:
            raise SystemExit(f"graftbench: no valid sample of {missing}")
        end_to_end = self.end_to_end()
        per_layer = self.per_layer()
        self.context["noisy"] = any(
            value > NOISY for name, (value, _) in per_layer.items()
            if name.startswith("noise.")
        )
        if self.trace:
            self.tracer.dump(os.path.join(
                self.out_dir, f"{self.workload.name}.spans.json"
            ))
        return end_to_end, per_layer

    # -- metrics ----------------------------------------------------------

    def end_to_end(self):
        s = self.samples
        usage = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        setup = typical(s["import"]) + typical(s["build"]) + typical(s["plain.load_s"])
        plain, debug = typical(s["plain"]), typical(s["debug"])
        return {
            "setup_s": (setup, "s"),
            "plain_run_s": (plain, "s"),
            "debug_run_s": (debug, "s"),
            # Figure 7's normalised runtime. Both terms are already scaled
            # by the machine speed around each sample, which held the ratio
            # steadier (6-10% between runs) than pairing raw neighbours (5-14%).
            "debug_overhead_x": (debug / plain, "x"),
            "inspect_s": (typical(s["inspect"]), "s"),
            "reproduce_s": (typical(s["reproduce"]), "s"),
            "trace_bytes": (self.reference_fingerprint["trace_bytes"], "B"),
            "peak_rss_mb": (usage / 1024.0, "MB"),
        }

    def per_layer(self):
        s = self.samples
        m = self.reference_metrics
        run = self.reference_run
        files = phases.trace_files(run)
        records = run.session.store.records_written
        captures = run.capture_count
        calls = m.total_compute_calls
        plain, debug = typical(s["plain"]), typical(s["debug"])
        layers = {
            "datasets.build_s": (typical(s["build"]), "s"),
            "datasets.vertices": (self.shape[0], "count"),
            "datasets.edges": (self.shape[1], "count"),
            "import.repro_s": (typical(s["import"]), "s"),
            "analysis.preflight_s": (self.preflight_s, "s"),
            "engine.load_s": (typical(s["plain.load_s"]), "s"),
            "engine.step_s": (typical(s["plain.step_s"]), "s"),
            "engine.barrier_s": (typical(s["plain.barrier_s"]), "s"),
            "engine.superstep_max_s": (typical(s["plain.superstep_max_s"]), "s"),
            "engine.supersteps": (m.num_supersteps, "count"),
            "engine.compute_calls": (calls, "count"),
            "engine.messages": (m.total_messages, "count"),
            "engine.calls_per_s": (calls / plain, "1/s"),
            "runtime.parallel_efficiency": (
                statistics.median(s["plain.parallel_efficiency"]), "ratio"),
            "runtime.step_skew": (statistics.median(s["plain.step_skew"]), "ratio"),
            "columnar.transport_bytes": (m.total_transport_bytes, "B"),
            "columnar.batches": (m.total_transport_batches, "count"),
            "columnar.pickle_fallbacks": (m.total_pickle_fallbacks, "count"),
            "store.bytes_spilled": (m.total_store_bytes_spilled, "B"),
            "store.bytes_loaded": (m.total_store_bytes_loaded, "B"),
            "store.page_cache_hit_rate": (m.page_cache_hit_rate or 0.0, "ratio"),
            "checkpoint.bytes": (self.checkpoint_bytes, "B"),
            "capture.records": (captures, "count"),
            "capture.step_extra_s": (
                typical(s["debug.step_s"]) - typical(s["plain.step_s"]), "s"),
            "capture.us_per_call": (1e6 * (debug - plain) / calls, "us"),
            "capture.us_per_record": (
                1e6 * (debug - plain) / captures if captures else 0.0, "us"),
            "trace.records": (records, "count"),
            "trace.bytes_per_record": (
                self.reference_fingerprint["trace_bytes"] / max(1, records), "B"),
            "trace.idx_bytes": (
                sum(n for path, n in files.items() if path.endswith(".idx")), "B"),
            "reader.eager_open_s": (self.inspector.eager_open_s, "s"),
            "reader.digest_s": (self.inspector.digest_s, "s"),
            "reader.bytes_read": (self.reader_bytes, "B"),
            "reader.read_calls": (self.reader_calls, "count"),
            "serve.requests": (len(self.inspector.urls), "count"),
            "serve.record_cache_hit_rate": (
                self.inspector.record_cache_hit_rate(), "ratio"),
            "reproducer.faithful_share": (
                1.0 - self.unfaithful / self.replays if self.replays else 1.0, "ratio"),
            "noise.plain_run": (noise(s["plain"]), "ratio"),
            "noise.debug_run": (noise(s["debug"]), "ratio"),
            "noise.inspect": (noise(s["inspect"]), "ratio"),
            "noise.reproduce": (noise(s["reproduce"]), "ratio"),
            "env.steal_pct": (self.steal_pct, "%"),
            "env.loadavg": (self.context["loadavg_end"], "count"),
            "oracle.failed_share": (self.failed / max(1, self.attempted), "ratio"),
            "harness.cycles": (self.cycles, "count"),
        }
        if self.trace:
            layers.update(self.span_layers(debug))
        return layers

    def span_layers(self, untraced_debug):
        """Per-layer self times from the traced cycles' span tree.

        Each phase is read from the traced cycle whose sample of that phase
        is the median one, so its parts are parts of one real, typical
        execution; like every other timing they are scaled by the machine
        speed around that sample. The traced debug run's parts sum to its
        wall time: load + engine + store + checkpoint + capture + trace +
        unattributed.
        """
        tracer = self.tracer
        for run_span in [x for x in tracer.spans if x["name"] == "engine.run"]:
            first_hook = next(
                (x for x in tracer.spans
                 if x["parent"] == run_span["id"] and x["name"] == "capture.start"),
                None,
            )
            if first_hook is not None:
                tracer.add_span(
                    "engine.load", run_span["start"], first_hook["start"], run_span
                )

        def median_cycle(sample_name, per=1):
            """``(own, count, wall)`` readers of the phase's median traced cycle."""
            walls = self.traced.get(sample_name, [])
            totals = tracer.layer_totals("phase." + sample_name)
            if not walls or len(walls) != len(totals):
                return (lambda *names: 0.0), (lambda name: 0), 0.0
            index = walls.index(sorted(walls)[(len(walls) - 1) // 2])
            layers, speed = totals[index], self.traced[sample_name + ".speed"][index]

            def own(*names):
                return sum(layers.get(n, (0.0, 0))[0] for n in names) / speed / per

            return own, (lambda name: layers.get(name, (0.0, 0))[1]), walls[index]

        k_inspect = self.loops[0]
        debug, _, debug_wall = median_cycle("debug")
        inspect, inspect_count, _ = median_cycle("inspect", k_inspect)
        reproduce, reproduce_count, _ = median_cycle("reproduce")
        parts = {
            "debug_run.load_s": debug("engine.load"),
            "debug_run.engine_s": debug("engine.run"),
            "store.acquire_s": debug("store.acquire"),
            "store.flush_s": debug("store.flush"),
            "checkpoint.write_s": debug("checkpoint.write"),
            "capture.barrier_s": debug("capture.start", "capture.master", "capture.barrier"),
            "capture.finalize_s": debug("capture.finalize"),
            "trace.write_s": debug("trace.write"),
        }
        gets = inspect_count("reader.get")
        replays = reproduce_count("reproducer.replay")
        codegens = reproduce_count("reproducer.codegen")
        layers = {name: (value, "s") for name, value in parts.items()}
        layers.update({
            "debug_run.unattributed_s": (debug_wall - sum(parts.values()), "s"),
            "tracing.overhead_x": (
                typical(self.traced["debug"]) / untraced_debug
                if self.traced.get("debug") else 0.0, "x"),
            "reader.open_s": (inspect("reader.open"), "s"),
            "reader.point_query_us": (
                1e6 * k_inspect * inspect("reader.get") / gets if gets else 0.0, "us"),
            "reader.scan_s": (inspect("reader.scan"), "s"),
            "reader.history_s": (inspect("reader.history"), "s"),
            "reader.violations_s": (inspect("reader.violations"), "s"),
            "views.tabular_s": (inspect("views.tabular"), "s"),
            "views.nodelink_s": (inspect("views.nodelink"), "s"),
            "views.violations_s": (inspect("views.violations"), "s"),
            "serve.route_s": (inspect("serve.route"), "s"),
            "reproducer.replay_us": (
                1e6 * reproduce("reproducer.replay") / replays if replays else 0.0, "us"),
            "reproducer.codegen_us": (
                1e6 * reproduce("reproducer.codegen") / codegens
                if codegens else 0.0, "us"),
        })
        return layers
