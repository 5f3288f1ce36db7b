"""repro: a Python reproduction of Graft, the Apache Giraph debugger.

Graft (Salihoglu, Shin, Khanna, Truong, Widom — SIGMOD 2015) supports the
capture / visualize / reproduce debugging cycle for Pregel-style
vertex-centric programs. This library rebuilds the whole stack from
scratch:

- :mod:`repro.pregel` — a Giraph-compatible BSP engine (simulated workers);
- :mod:`repro.graft` — the debugger itself (DebugConfig, instrumenter,
  trace store, the three GUI views, the context reproducer and test
  generation);
- :mod:`repro.graph`, :mod:`repro.datasets`, :mod:`repro.simfs` — graph
  substrate, dataset stand-ins, and the simulated distributed file system;
- :mod:`repro.algorithms` — the paper's scenario algorithms (with their
  deliberate bugs) and the standard Pregel repertoire;
- :mod:`repro.bench` — the harness regenerating the paper's tables and
  figures.

Quickstart::

    from repro import debug_run, DebugConfig
    from repro.algorithms import BuggyGraphColoring, GCMaster
    from repro.datasets import load_dataset

    class TenRandom(DebugConfig):
        def num_random_vertices_to_capture(self):
            return 10
        def capture_neighbors_of_vertices(self):
            return True

    graph = load_dataset("bipartite-1M-3M", num_vertices=300)
    run = debug_run(BuggyGraphColoring, graph, TenRandom(),
                    master=GCMaster(), seed=3)
    print(run.node_link_view().last().render())
    print(run.generate_test_code(*run.reader.vertex_records[0].key))
"""

from repro.common.lazy import lazy_exports

TYPE_CHECKING = False

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport, analyze_computation
    from repro.graft.config import DebugConfig
    from repro.graft.debug_run import DebugRun, debug_run
    from repro.graph.builder import GraphBuilder
    from repro.graph.graph import Graph
    from repro.pregel.computation import Computation
    from repro.pregel.engine import PregelEngine, run_computation
    from repro.pregel.master import MasterComputation

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "analyze_computation",
    "DebugConfig",
    "DebugRun",
    "debug_run",
    "Graph",
    "GraphBuilder",
    "Computation",
    "MasterComputation",
    "PregelEngine",
    "run_computation",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.analysis": ("AnalysisReport", "analyze_computation"),
    "repro.graft.config": ("DebugConfig",),
    "repro.graft.debug_run": ("DebugRun", "debug_run"),
    "repro.graph.builder": ("GraphBuilder",),
    "repro.graph.graph": ("Graph",),
    "repro.pregel.computation": ("Computation",),
    "repro.pregel.engine": ("PregelEngine", "run_computation"),
    "repro.pregel.master": ("MasterComputation",),
})
