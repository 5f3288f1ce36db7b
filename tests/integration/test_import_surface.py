"""Import surface: what a fresh interpreter loads, and that it still works.

Importing a ``repro`` package costs what the caller goes on to use: the
package surfaces resolve names on first access
(:mod:`repro.common.lazy`), registering modules are imported by the
modules that decode, and fork-side modules are imported when a backend is
built. Every case here starts a fresh interpreter and checks *sets and
counts* of ``sys.modules`` — nothing is timed, so nothing flakes.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

LAZY_PACKAGES = (
    "repro", "repro.bench", "repro.graft", "repro.graft.views",
    "repro.pregel", "repro.serve",
)

#: graftbench's probe line (``benchmarks/graftbench/phases.py``).
PROBE = (
    "import repro, repro.algorithms, repro.datasets, repro.graft, "
    "repro.pregel, repro.serve.router"
)
#: Everything a debugged run and its inspection need.
RUN_CLOSURE = (
    "from repro import debug_run, DebugConfig, PregelEngine; "
    "from repro.graft.trace import TraceReader; "
    "import repro.algorithms, repro.datasets, repro.serve.router"
)
#: The import lines of a generated test file (Figure 6's analogue).
GENERATED_TEST_IMPORTS = (
    "from repro.graft.reproducer import ReplayHarness; "
    "from repro.algorithms.pagerank import PageRank"
)
#: What neither the probe line nor a serial debugged run may load.
NOT_FOR_A_RUN = {
    "numpy", "repro.analysis", "repro.bench", "repro.serve.app",
    "http.server", "ssl", "multiprocessing", "concurrent.futures", "ctypes",
    "repro.graft.sanitizer", "repro.graft.diffing", "repro.graft.fidelity",
    "repro.graft.report",
}

PRINT_MODULES = "\nimport sys; print('\\n'.join(sorted(sys.modules)))"


def fresh(code, *argv, check=True):
    """Run ``code`` in a fresh interpreter that finds ``src/``."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    if check:
        assert done.returncode == 0, done.stderr[-3000:]
    return done


def modules_after(code):
    return set(fresh(code + PRINT_MODULES).stdout.split())


# -- (a) the probe line and the run closure -------------------------------------


def test_probe_line_loads_no_optional_machinery():
    loaded = modules_after(PROBE)
    assert not loaded & NOT_FOR_A_RUN
    assert "repro.pregel.engine" not in loaded
    assert len(loaded) <= 230


def test_a_serial_debugged_run_loads_no_optional_machinery():
    loaded = modules_after(RUN_CLOSURE + """
from repro.algorithms import PageRank
from repro.datasets import load_dataset
from repro.graft import CaptureAllActiveConfig
run = debug_run(
    lambda: PageRank(iterations=3), load_dataset("web-BS", num_vertices=40),
    CaptureAllActiveConfig(), lint=False, num_workers=2,
)
assert run.ok and run.capture_count and run.tabular_view().render()
""")
    assert "repro.pregel.engine" in loaded
    assert not loaded & NOT_FOR_A_RUN


# -- (b) the generated test -----------------------------------------------------


def test_generated_test_imports_load_neither_engine_nor_analyser():
    loaded = modules_after(GENERATED_TEST_IMPORTS)
    # Replay rebuilds a context from the record's own (source, value)
    # pairs, so not even the message store module is needed.
    assert not loaded & {
        "repro.pregel.engine", "repro.pregel.messages", "repro.analysis", "numpy",
    }
    assert len(loaded) <= 145


def test_generated_test_passes_under_pytest_without_the_engine(tmp_path):
    from repro.algorithms import PageRank
    from repro.datasets import load_dataset
    from repro.graft import CaptureAllActiveConfig, debug_run

    run = debug_run(
        lambda: PageRank(iterations=3), load_dataset("web-BS", num_vertices=40),
        CaptureAllActiveConfig(), lint=False,
    )
    # A context with messages from several sources to rebuild.
    vertex_id, superstep = next(
        record.key for record in run.reader.vertex_records
        if len({source for source, _value in record.incoming}) >= 2
    )
    test_file = tmp_path / "test_generated.py"
    test_file.write_text(
        run.generate_test_code(vertex_id, superstep)
        + "\n\ndef test_no_engine_was_needed():\n"
        "    import sys\n"
        "    assert 'repro.pregel.engine' not in sys.modules\n"
        "    assert 'repro.pregel.messages' not in sys.modules\n"
        "    assert 'repro.analysis' not in sys.modules\n"
    )
    done = fresh(
        "import sys, pytest; sys.exit(pytest.main("
        "['-q', '-p', 'no:cacheprovider', '-o', 'addopts=', sys.argv[1]]))",
        str(test_file), check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "2 passed" in done.stdout


# -- (c) registrations travel with the decoders ---------------------------------

_EXPORT_EVERY_REGISTERED_TYPE = """
import sys
from repro.graft.config import DebugConfig
from repro.graft.debug_run import debug_run
from repro.graph.builder import GraphBuilder
from repro.pregel.computation import Computation
from repro.pregel.value_types import Int32

class Overflow(Computation):
    def compute(self, ctx, messages):
        if ctx.superstep == 1 and ctx.vertex_id == 0:
            raise ValueError("boom")
        ctx.set_value(Int32(2**31 - 1) + 1)      # wraps negative: a violation
        ctx.send_message_to_all_neighbors(Int32(7))

class Config(DebugConfig):
    def capture_all_active(self):
        return True
    def vertex_value_constraint(self, value, vertex_id, superstep):
        return not (value < 0)

graph = GraphBuilder(directed=False).path(0, 1, 2).build()
run = debug_run(Overflow, graph, Config(), lint=False, job_id="typed",
                max_supersteps=3)
assert not run.ok and run.violations() and run.exceptions()
run.export_traces(sys.argv[1])
"""

_READ_WITH_THE_READER_ALONE = """
import sys
from repro.graft.trace import TraceReader
from repro.simfs.filesystem import SimFileSystem

fs = SimFileSystem()
fs.import_from_directory(sys.argv[1])
seen = set()
for record in TraceReader(fs, "typed", mode=sys.argv[2]).vertex_records:
    seen.add(type(record.value_after).__name__)
    seen.update(type(message).__name__ for _source, message in record.incoming)
    seen.update(type(v).__name__ for v in record.violations)
    if record.exception is not None:
        seen.add(type(record.exception).__name__)
print(" ".join(sorted(seen)))
print("engine" if "repro.pregel.engine" in sys.modules else "no-engine")
"""


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """A directory holding job ``typed``, exported by another process."""
    directory = tmp_path_factory.mktemp("exported")
    fresh(_EXPORT_EVERY_REGISTERED_TYPE, str(directory))
    return str(directory)


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_reader_alone_decodes_every_library_registered_type(exported, mode):
    seen, engine = fresh(
        _READ_WITH_THE_READER_ALONE, exported, mode
    ).stdout.splitlines()
    assert {"ExceptionRecord", "Int32", "Violation"} <= set(seen.split())
    assert engine == "no-engine"


def test_fixed_width_column_tags_are_registered_by_the_column_decoder():
    out = fresh(
        "from repro.pregel.columnar import decode_column, encode_values\n"
        "import sys; Short16 = sys.modules['repro.pregel.value_types'].Short16\n"
        "blob, fell_back = encode_values([Short16(5), Short16(-3)])\n"
        "print(fell_back, decode_column(blob))"
    ).stdout
    assert out.strip() == "False ([Short16(5), Short16(-3)], False)"


# -- (d) the name that shadows its own submodule --------------------------------


@pytest.mark.parametrize("imports", [
    "import repro.graft.debug_run; from repro.graft import debug_run",
    "from repro.graft import debug_run; import repro.graft.debug_run",
    "from repro.graft.trace import TraceReader; from repro.graft import debug_run",
    "from repro import debug_run",
    "import repro.graft.debug_run; from repro import debug_run",
])
def test_debug_run_is_the_function_in_either_import_order(imports):
    out = fresh(
        imports + "\n"
        "import importlib, repro.graft\n"
        "module = importlib.import_module('repro.graft.debug_run')\n"
        "print(type(debug_run).__name__, debug_run is module.debug_run,\n"
        "      repro.graft.debug_run is module.debug_run,\n"
        "      hasattr(module, 'GraftSession'))"
    ).stdout
    assert out.split() == ["function", "True", "True", "True"]


def test_only_debug_run_shadows_a_submodule():
    """A lazy name that is also a submodule would silently become the module."""
    import importlib
    import pkgutil

    shadows = set()
    for package in LAZY_PACKAGES:
        module = importlib.import_module(package)
        submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
        shadows |= {f"{package}.{name}" for name in submodules & set(module.__all__)}
    assert shadows == {"repro.graft.debug_run"}


# -- (e) the lazy surfaces keep their contract ----------------------------------

_SURFACE_CONTRACT = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
frozen = json.load(open(sys.argv[2]))[sys.argv[1]]
assert list(package.__all__) == list(frozen), "public names changed"
assert set(package.__all__) <= set(dir(package))
star = {}
exec(f"from {package.__name__} import *", star)
assert set(package.__all__) <= set(star)
for name, origin in frozen.items():
    found = getattr(package, name)
    assert found is star[name] is vars(package)[name], name   # cached
    if ":" in origin:
        module, qualname = origin.split(":")
        assert found is getattr(importlib.import_module(module), qualname), name
    else:
        assert repr(found) == origin, name
assert not hasattr(package, "no_such_name")
try:
    package.no_such_name
except AttributeError as exc:
    assert package.__name__ in str(exc) and "no_such_name" in str(exc)
from repro.graft import reproducer          # a submodule, not a table name
assert reproducer.__name__ == "repro.graft.reproducer"
print("ok")
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_surface_resolves_every_name_it_did_at_the_parent(package):
    """Against ``public_api.json``, frozen from the commit before the
    surfaces went lazy: same names in the same order, each the same object
    as in its defining module."""
    frozen = pathlib.Path(__file__).with_name("public_api.json")
    assert fresh(_SURFACE_CONTRACT, package, str(frozen)).stdout == "ok\n"


def test_importing_a_lazy_package_imports_none_of_its_submodules():
    loaded = modules_after("import repro.pregel, repro.serve, repro.bench")
    ours = {name for name in loaded if name.startswith("repro.")}
    assert ours - {"repro.pregel", "repro.serve", "repro.bench"} <= {
        "repro.common", "repro.common.errors", "repro.common.hashing",
        "repro.common.lazy", "repro.common.rng", "repro.common.serialization",
        "repro.common.timing",
    }


# -- (f) the command line --------------------------------------------------------

_RUN_CLI = """
import runpy, sys
sys.argv = ["repro"] + sys.argv[1:]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exit:
    status = exit.code or 0
print("\\nstatus", status)
"""


def cli_modules(*argv):
    out = fresh(_RUN_CLI + PRINT_MODULES, *argv).stdout
    body, _, tail = out.rpartition("\nstatus ")
    status, *modules = tail.split()
    return int(status), body, set(modules)


def test_help_needs_neither_engine_nor_analyser():
    status, body, loaded = cli_modules("--help")
    assert status == 0 and "usage: repro" in body
    assert not loaded & {
        "repro.pregel.engine", "repro.analysis", "repro.algorithms",
        "repro.bench", "repro.graft", "repro.datasets",
    }


def test_lint_needs_neither_engine_nor_graft():
    status, body, loaded = cli_modules("lint", "examples/quickstart.py")
    assert status in (0, 2) and "linted" in body
    assert "repro.analysis" in loaded
    assert not loaded & {"repro.pregel.engine", "repro.graft", "repro.bench.overhead"}


def test_trace_stats_needs_neither_engine_nor_the_table_harness(exported):
    status, body, loaded = cli_modules("trace", "stats", "typed", "--dir", exported)
    assert status == 0 and "TOTAL" in body
    assert not loaded & {
        "repro.pregel.engine", "repro.analysis", "repro.bench.overhead",
        "repro.algorithms",
    }


def test_create_server_is_what_loads_the_http_stack():
    assert "http.server" not in modules_after("import repro.serve")
    assert "http.server" in modules_after("from repro.serve import create_server")


# -- nothing is first-imported inside a forked worker ----------------------------

_FORKED_WORKERS = """
import json, sys
from repro.algorithms.pagerank import PageRank
from repro.datasets.registry import load_dataset
from repro.pregel.checkpoint import CheckpointConfig
from repro.pregel.engine import PregelEngine
from repro.pregel.runtime import ProcessBackend
from repro.simfs.filesystem import SimFileSystem

class Recording(ProcessBackend):
    '''Every child reports the modules it ended its step with.'''
    parent_before_first_superstep = None
    first_imported_in_a_child = []

    def run_superstep(self, steps):
        if self.parent_before_first_superstep is None:
            self.parent_before_first_superstep = set(sys.modules)

        def reporting(step):
            def run():
                outcome = step()
                outcome.child_modules = set(sys.modules)
                return outcome
            return run

        outcomes = super().run_superstep([reporting(step) for step in steps])
        self.first_imported_in_a_child.append(sorted(set().union(*(
            outcome.child_modules - self.parent_before_first_superstep
            for outcome in outcomes
        ))))
        return outcomes

kwargs = {}
if sys.argv[1] == "chaos":
    from repro.chaos import FaultInjector, load_fault_plan
    fs = SimFileSystem()
    kwargs = {
        "fault_injector": FaultInjector(load_fault_plan("worker-crash")),
        "checkpoint_config": CheckpointConfig(filesystem=fs, every_n_supersteps=2),
    }
backend = Recording()
result = PregelEngine(
    lambda: PageRank(iterations=5), load_dataset("web-BS", num_vertices=60),
    num_workers=2, executor=backend, **kwargs,
).run()
print(json.dumps({
    "supersteps": result.num_supersteps,
    "recovered": sum(m.recovered for m in result.metrics.supersteps),
    "per_superstep": backend.first_imported_in_a_child,
}))
"""


@pytest.mark.parametrize("path", ["clean", "chaos"])
def test_nothing_is_first_imported_inside_a_forked_worker(path):
    """A module first imported in a child is imported again by every
    worker of every superstep and never reaches the parent. The parent's
    modules are taken once, before the first fork: a module the parent
    itself first imports mid-run would count too."""
    report = json.loads(fresh(_FORKED_WORKERS, path).stdout)
    assert len(report["per_superstep"]) >= report["supersteps"] >= 5
    if path == "chaos":
        assert report["recovered"] > 0          # the re-fork path ran
    assert report["per_superstep"] == [[]] * len(report["per_superstep"])


# -- first use under threads ------------------------------------------------------

_CONCURRENT_FIRST_REQUESTS = """
import sys, threading
from repro.serve.router import Router
from repro.serve.sessions import ReaderPool
from repro.simfs.filesystem import SimFileSystem

fs = SimFileSystem()
fs.import_from_directory(sys.argv[1])
router = Router(ReaderPool(fs))
router.pool.etag("typed")       # the index page shows a digest once it is known
base = "/jobs/typed"
urls = [
    "/",                                                # repro.serve.html
    "/",
    base + "/reproduce/0/0?computation=PageRank",       # reproducer, algorithms,
    base + "/reproduce/1/0?computation=PageRank",       # pregel.context, ... —
    base + "/reproduce/2/0?computation=PageRank",       # all racing into the
    base + "/reproduce/0/0?computation=ConnectedComponents",  # same first imports
    base + "/reproduce/1/0?computation=ConnectedComponents",
    base + "/reproduce/2/0?computation=ConnectedComponents",
]
needed = ["repro.serve.html", "repro.graft.reproducer", "repro.algorithms",
          "repro.pregel.context", "repro.pregel.master"]
assert not [name for name in needed if name in sys.modules]

sys.setswitchinterval(1e-5)
gate = threading.Barrier(len(urls))
first = [None] * len(urls)

def request(index):
    gate.wait(timeout=30)
    first[index] = router.handle("GET", urls[index])

threads = [threading.Thread(target=request, args=(i,)) for i in range(len(urls))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
assert not any(thread.is_alive() for thread in threads)
assert not [name for name in needed if name not in sys.modules]
for url, response in zip(urls, first):
    warm = router.handle("GET", url)
    assert response is not None and response.status == 200, (url, response)
    assert response.body == warm.body and warm.status == 200, url
print("ok")
"""


def test_concurrent_first_requests_race_into_first_imports_safely(exported):
    assert fresh(_CONCURRENT_FIRST_REQUESTS, exported).stdout == "ok\n"


# -- structure --------------------------------------------------------------------


def test_src_imports_from_defining_submodules_not_from_lazy_surfaces():
    """``from repro.graft import TraceReader`` inside ``src/`` would load
    nothing extra today and everything tomorrow; ``from repro.pregel
    import halting`` names a submodule and is fine."""
    import importlib

    public = {
        package: set(importlib.import_module(package).__all__)
        for package in LAZY_PACKAGES
    }
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in public:
                offenders += [
                    f"{path.relative_to(SRC)}:{node.lineno}: "
                    f"from {node.module} import {alias.name}"
                    for alias in node.names if alias.name in public[node.module]
                ]
    assert offenders == []


def test_numpy_is_named_nowhere_in_the_product():
    named = [
        str(path.relative_to(ROOT))
        for path in [*SRC.rglob("*.py"), ROOT / "pyproject.toml", ROOT / "setup.py"]
        if "numpy" in path.read_text(encoding="utf-8").lower()
    ]
    assert named == []
