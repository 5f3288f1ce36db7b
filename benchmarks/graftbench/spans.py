"""Outside-in span tracing for graftbench.

The benchmark measures Graft's layers without touching ``src/``: a
:class:`Tracer` wraps the public entry points of each layer (``SHIMS``)
with timing shims for the traced cycles only, and removes them again.
A span is ``{id, name, start, end, parent, phase, cycle}``; spans stay in
memory and are written out once, when the run ends. A layer's *self*
time is its span's duration minus the time its direct children cover, so
self times of nested layers add up instead of double counting.

Spans opened inside ``executor="processes"`` children die with the child;
those steps are only visible through ``RunMetrics`` (see README).
"""

import functools
import importlib
import json
import time
from contextlib import contextmanager

#: ``(module, class or None, attribute, span name)`` — the calls *into*
#: each layer. Module-level functions are patched on the module that looks
#: them up at call time.
SHIMS = (
    ("repro.pregel.engine", "PregelEngine", "run", "engine.run"),
    ("repro.pregel.engine", None, "write_checkpoint", "checkpoint.write"),
    ("repro.pregel.store.spill", "SpillStore", "acquire", "store.acquire"),
    ("repro.pregel.store.spill", "SpillStore", "flush", "store.flush"),
    ("repro.graft.debug_run", "GraftSession", "on_start", "capture.start"),
    ("repro.graft.debug_run", "GraftSession", "on_master_computed", "capture.master"),
    ("repro.graft.debug_run", "GraftSession", "on_superstep_end", "capture.barrier"),
    ("repro.graft.debug_run", "GraftSession", "finalize", "capture.finalize"),
    ("repro.graft.trace", "TraceStore", "write_vertex_record", "trace.write"),
    ("repro.graft.trace", "TraceStore", "write_vertex_records", "trace.write"),
    ("repro.graft.trace", "TraceStore", "write_master_record", "trace.write"),
    ("repro.graft.trace", "TraceStore", "flush", "trace.write"),
    ("repro.graft.trace", "TraceStore", "close", "trace.write"),
    ("repro.graft.trace", "TraceReader", "__init__", "reader.open"),
    ("repro.graft.trace", "TraceReader", "get", "reader.get"),
    ("repro.graft.trace", "TraceReader", "at_superstep", "reader.scan"),
    ("repro.graft.trace", "TraceReader", "history", "reader.history"),
    ("repro.graft.trace", "TraceReader", "violations", "reader.violations"),
    ("repro.graft.views.tabular", "TabularView", "render", "views.tabular"),
    ("repro.graft.views.nodelink", "NodeLinkView", "render", "views.nodelink"),
    ("repro.graft.views.violations", "ViolationsView", "render", "views.violations"),
    ("repro.serve.router", "Router", "handle", "serve.route"),
    ("repro.graft.reproducer", None, "replay_record", "reproducer.replay"),
    ("repro.graft.reproducer", None, "generate_test_code", "reproducer.codegen"),
)


class NullTracer:
    """The untraced cycles' tracer: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name):
        yield None


class Tracer:
    """Records a span tree; installs and removes the layer shims."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.cycle = None
        self._stack = []
        self._phase = None
        self._installed = []
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        if not self._stack:
            self._phase = name
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "phase": self._phase,
            "cycle": self.cycle,
            "workload": self.workload,
            "start": time.perf_counter() - self._epoch,
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter() - self._epoch
        self._stack.pop()

    def add_span(self, name, start, end, parent):
        """A span derived from two recorded boundaries (e.g. engine.load)."""
        self.spans.append({
            "id": len(self.spans), "name": name, "parent": parent["id"],
            "phase": parent["phase"], "cycle": parent["cycle"],
            "workload": self.workload, "start": start, "end": end,
        })

    # -- shims ----------------------------------------------------------

    def install(self):
        for module_name, class_name, attr, span_name in SHIMS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._shim(original, span_name))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _shim(self, original, span_name):
        tracer = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            span = tracer._open(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)

        return shim

    # -- reading the tree -----------------------------------------------

    def self_times(self):
        """``{span id: duration minus direct children's durations}``."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def layer_totals(self, phase):
        """Per traced cycle, for spans under the root span ``phase``:
        ``{span name: (self seconds, span count)}``.

        Restricting to one phase keeps the store spans of a cycle's plain
        runs out of its debug run's totals.
        """
        own = self.self_times()
        cycles = {}
        for span in self.spans:
            if span["phase"] != phase:
                continue
            totals = cycles.setdefault(span["cycle"], {})
            seconds, count = totals.get(span["name"], (0.0, 0))
            totals[span["name"]] = (seconds + own[span["id"]], count + 1)
        return list(cycles.values())

    def dump(self, path):
        own = self.self_times()
        spans = [dict(span, self_s=own[span["id"]]) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": self.workload, "spans": spans}, handle)
            handle.write("\n")
