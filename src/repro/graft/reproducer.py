"""Reproduce: replay a captured compute() call, exactly.

This is the paper's Context Reproducer (Section 3.3) — "the most
challenging component of Graft to implement" — in two complementary forms:

- :func:`replay_record` / :class:`ReplayHarness` rebuild the captured
  context (value, edges, incoming messages, aggregators, global data, and
  the RNG derivation inputs) and re-invoke the user's ``compute()``
  in-process. With ``trace_lines=True`` a ``sys.settrace`` tracer records
  exactly which source lines of the user's code executed — the line-by-line
  IDE replay of the paper. With ``verify=True`` the replayed outcome (sent
  messages, post-value, halt decision, post-edges) is compared against what
  the original run recorded.

- :func:`generate_test_code` emits a standalone pytest file (the paper's
  generated JUnit test, Figure 6) that rebuilds the same context from
  literals and asserts the recorded outcome, so the user can paste it into
  an IDE, breakpoint ``compute()``, and step.

Because the per-vertex RNG is derived from ``(run_seed, vertex_id,
superstep)`` — all part of the record — even randomized algorithms (the
random-walk scenario) replay with the exact random choices of the original
run.
"""

import dataclasses
import inspect
import sys
from dataclasses import dataclass, field

from repro.common.errors import AggregatorError, GraftError
from repro.graft import codegen_templates
from repro.graft.capture import MasterContextRecord, VertexContextRecord
from repro.pregel.context import ComputeContext, ComputeServices


# -- replay services & harness ------------------------------------------------


class _ReplayServices(ComputeServices):
    """Stands in for a worker: aggregators from a snapshot, sends collected."""

    def __init__(self, aggregators):
        self._aggregators = dict(aggregators)
        self.aggregated = []
        self.sent = []
        self.added_vertices = []
        self.removed_vertices = []

    def aggregated_value(self, name):
        if name not in self._aggregators:
            raise AggregatorError(
                f"aggregator {name!r} not in the captured snapshot: "
                f"{sorted(self._aggregators)}"
            )
        return self._aggregators[name]

    def aggregate(self, name, contribution):
        self.aggregated.append((name, contribution))

    def emit(self, source, target, value):
        self.sent.append((target, value))

    def request_add_vertex(self, vertex_id, value):
        self.added_vertices.append((vertex_id, value))

    def request_remove_vertex(self, vertex_id):
        self.removed_vertices.append(vertex_id)


@dataclass
class ReplayOutcome:
    """What one replayed compute() call did."""

    value: object
    edges: dict
    sent: list                    # [(target, value), ...]
    halted: bool
    aggregated: list = field(default_factory=list)
    exception: object = None      # the raised exception object, if any

    def summary(self):
        if self.exception is not None:
            return f"raised {type(self.exception).__name__}: {self.exception}"
        return (
            f"value={self.value!r}, {len(self.sent)} messages, "
            f"halted={self.halted}"
        )


class LineTrace:
    """Executed source lines per file, collected by ``sys.settrace``."""

    def __init__(self, watched_files):
        self._watched = set(watched_files)
        self.lines = {}

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._watched:
            return None
        if event == "line":
            self.lines.setdefault(filename, set()).add(frame.f_lineno)
        return self

    def executed_in(self, filename):
        return sorted(self.lines.get(filename, ()))


class ReplayHarness:
    """Rebuilds one captured vertex context and re-runs compute() in it.

    This is the object Graft-generated test files use; its constructor
    arguments are exactly the five pieces of Giraph context data plus the
    RNG derivation seed. All arguments are plain Python data.
    """

    def __init__(
        self,
        vertex_id,
        superstep,
        value,
        edges,
        incoming,
        aggregators,
        num_vertices,
        num_edges,
        run_seed=0,
    ):
        self.vertex_id = vertex_id
        self.superstep = superstep
        self.value = value
        self.edges = dict(edges)
        self.incoming = list(incoming)
        self.aggregators = dict(aggregators)
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.run_seed = run_seed

    @classmethod
    def from_record(cls, record):
        """Build a harness straight from a trace record."""
        return cls(
            vertex_id=record.vertex_id,
            superstep=record.superstep,
            value=record.value_before,
            edges=record.edges_before,
            incoming=record.incoming,
            aggregators=record.aggregators,
            num_vertices=record.num_vertices,
            num_edges=record.num_edges,
            run_seed=record.run_seed,
        )

    def build_context(self):
        """The reconstructed :class:`~repro.pregel.ComputeContext`."""
        services = _ReplayServices(self.aggregators)
        ctx = ComputeContext(
            vertex_id=self.vertex_id,
            value=self.value,
            edges=dict(self.edges),
            incoming=self.incoming,
            superstep=self.superstep,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            services=services,
            run_seed=self.run_seed,
        )
        return ctx, services

    def run(self, computation, trace_lines=False):
        """Re-invoke ``computation.compute()`` under the captured context.

        Returns a :class:`ReplayOutcome`; with ``trace_lines`` also returns
        ``(outcome, line_trace)``.
        """
        ctx, _services = self.build_context()
        messages = [value for _source, value in self.incoming]
        tracer = None
        exception = None
        if trace_lines:
            tracer = LineTrace(_source_files_of(computation))
            sys.settrace(tracer)
        try:
            computation.compute(ctx, messages)
        except Exception as exc:  # noqa: BLE001 - replays record the raise
            exception = exc
        finally:
            if trace_lines:
                sys.settrace(None)
        outcome = ReplayOutcome(
            value=ctx.value,
            edges=ctx.edges_snapshot(),
            sent=ctx.sent_messages(),
            halted=ctx.halted,
            aggregated=list(_services.aggregated),
            exception=exception,
        )
        if trace_lines:
            return outcome, tracer
        return outcome


def _source_files_of(computation):
    """Source files whose lines the replay tracer should record."""
    files = set()
    for klass in type(computation).__mro__:
        if klass.__module__ in ("builtins",):
            continue
        try:
            files.add(inspect.getsourcefile(klass))
        except TypeError:
            continue
    files.discard(None)
    return files


# -- verified replay of trace records ---------------------------------------


@dataclass
class Mismatch:
    """One divergence between the recorded and the replayed outcome."""

    field_name: str
    recorded: object
    replayed: object


@dataclass
class ReplayReport:
    """Everything :func:`replay_record` learned."""

    record: VertexContextRecord
    outcome: ReplayOutcome
    mismatches: list = field(default_factory=list)
    executed_lines: dict = field(default_factory=dict)

    @property
    def faithful(self):
        """True when replay reproduced the recorded outcome exactly."""
        return not self.mismatches

    def annotated_source(self, computation):
        """The compute() source with executed lines marked ``>``.

        The Python rendition of stepping through the generated test in an
        IDE: shows exactly which lines ran for this vertex and superstep.
        """
        function = type(computation).compute
        source_file = inspect.getsourcefile(function)
        lines, start = inspect.getsourcelines(function)
        executed = set(self.executed_lines.get(source_file, ()))
        rendered = []
        for offset, text in enumerate(lines):
            line_number = start + offset
            marker = ">" if line_number in executed else " "
            rendered.append(f"{marker} {line_number:>4} {text.rstrip()}")
        return "\n".join(rendered)

    def summary(self):
        status = "faithful" if self.faithful else (
            f"{len(self.mismatches)} mismatches: "
            + ", ".join(m.field_name for m in self.mismatches)
        )
        return (
            f"replay of vertex {self.record.vertex_id!r} "
            f"@ superstep {self.record.superstep}: {status}"
        )


def replay_record(record, computation_factory, verify=True, trace_lines=True):
    """Replay one trace record and (optionally) verify fidelity.

    ``computation_factory`` must build the same computation the original
    run used (same class, same constructor arguments) — the analogue of
    having the same jar on the classpath in the paper's IDE step.
    """
    computation = computation_factory()
    harness = ReplayHarness.from_record(record)
    if trace_lines:
        outcome, tracer = harness.run(computation, trace_lines=True)
        executed = dict(tracer.lines)
    else:
        outcome = harness.run(computation)
        executed = {}
    report = ReplayReport(record=record, outcome=outcome, executed_lines=executed)
    if verify:
        report.mismatches = _compare(record, outcome)
    return report


def _compare(record, outcome):
    mismatches = []
    if record.exception is not None:
        if outcome.exception is None:
            mismatches.append(Mismatch("exception", record.exception, None))
        elif type(outcome.exception).__name__ != record.exception.type_name:
            mismatches.append(
                Mismatch(
                    "exception",
                    record.exception.type_name,
                    type(outcome.exception).__name__,
                )
            )
        return mismatches
    if outcome.exception is not None:
        mismatches.append(Mismatch("exception", None, outcome.exception))
        return mismatches
    checks = (
        ("value_after", record.value_after, outcome.value),
        ("sent", list(record.sent), list(outcome.sent)),
        ("halted", record.halted, outcome.halted),
        ("edges_after", dict(record.edges_after), dict(outcome.edges)),
    )
    for field_name, recorded, replayed in checks:
        if recorded != replayed:
            mismatches.append(Mismatch(field_name, recorded, replayed))
    return mismatches


def replay_from_trace(
    filesystem,
    job_id,
    computation_factory,
    vertex_id,
    superstep,
    codec=None,
    root=None,
    verify=True,
    trace_lines=True,
):
    """Replay one ``(vertex, superstep)`` straight from a job's trace files.

    The "copy the trace into your IDE" path: no :class:`DebugRun` object is
    needed, only the file system holding the traces (possibly imported from
    an exported directory) and the computation class. The record is pulled
    with a lazy :class:`~repro.graft.trace.TraceReader` — one index lookup
    and one ranged read, however large the trace — then handed to
    :func:`replay_record`.
    """
    from repro.graft.trace import DEFAULT_ROOT, TraceReader

    reader = TraceReader(
        filesystem, job_id, codec=codec, root=root or DEFAULT_ROOT, mode="lazy"
    )
    record = reader.get(vertex_id, superstep)
    return replay_record(
        record, computation_factory, verify=verify, trace_lines=trace_lines
    )


# -- master replay -------------------------------------------------------------


class _SnapshotRegistry:
    """Aggregator registry stand-in built from a captured snapshot."""

    def __init__(self, snapshot):
        self._values = dict(snapshot)

    def visible_value(self, name):
        if name not in self._values:
            raise AggregatorError(
                f"aggregator {name!r} not in the captured snapshot: "
                f"{sorted(self._values)}"
            )
        return self._values[name]

    def set_visible(self, name, value):
        self._values[name] = value

    def visible_snapshot(self):
        return dict(self._values)


@dataclass
class MasterReplayOutcome:
    """What a replayed master_compute() did."""

    aggregators: dict
    halted: bool


class MasterReplayHarness:
    """Rebuilds a captured master context and re-runs master_compute()."""

    def __init__(self, superstep, aggregators, num_vertices=0, num_edges=0):
        self.superstep = superstep
        self.aggregators = dict(aggregators)
        self.num_vertices = num_vertices
        self.num_edges = num_edges

    @classmethod
    def from_record(cls, record):
        # Replay starts from the *pre* state; master_compute() re-applies
        # its own writes.
        return cls(superstep=record.superstep, aggregators=record.aggregators_before)

    def run(self, master):
        from repro.pregel.master import MasterContext

        registry = _SnapshotRegistry(self.aggregators)
        master_ctx = MasterContext(
            self.superstep, self.num_vertices, self.num_edges, registry
        )
        master.master_compute(master_ctx)
        return MasterReplayOutcome(
            aggregators=registry.visible_snapshot(), halted=master_ctx.halted
        )


def replay_master_record(record, master_factory):
    """Replay a captured master context; returns a MasterReplayOutcome."""
    if not isinstance(record, MasterContextRecord):
        raise GraftError(f"not a master record: {record!r}")
    return MasterReplayHarness.from_record(record).run(master_factory())


# -- literal rendering for generated code ---------------------------------------


def render_literal(value):
    """Render ``value`` as Python source that evaluates back to it.

    Handles the trace codec's value domain: scalars (including non-finite
    floats), containers, and registered dataclass value types (rendered as
    constructor calls, like the paper's mock setup lines).
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value in (float("inf"), float("-inf")):
            return f"float('{value}')"
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(render_literal(item) for item in value) + "]"
    if isinstance(value, tuple):
        inner = ", ".join(render_literal(item) for item in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, (set, frozenset)):
        if not value:
            return "set()" if isinstance(value, set) else "frozenset()"
        inner = ", ".join(sorted(render_literal(item) for item in value))
        body = "{" + inner + "}"
        return body if isinstance(value, set) else f"frozenset({body})"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{render_literal(k)}: {render_literal(v)}" for k, v in value.items()
        )
        return "{" + inner + "}"
    if dataclasses.is_dataclass(value):
        args = ", ".join(
            f"{f.name}={render_literal(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({args})"
    # Registered non-dataclass value types (e.g. Short16) have eval-able reprs.
    return repr(value)


_BUILTIN_CLASSES = frozenset(
    (type(None), bool, int, float, str, bytes, list, tuple, set, frozenset, dict)
)


def _collect_value_types(value, found):
    """Collect the user-defined classes appearing inside ``value``."""
    # Nearly every id, message and edge key is of an exact builtin class.
    plain = type(value) in _BUILTIN_CLASSES
    if not plain and dataclasses.is_dataclass(value) and not isinstance(value, type):
        found.add(type(value))
        for f in dataclasses.fields(value):
            _collect_value_types(getattr(value, f.name), found)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _collect_value_types(item, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            _collect_value_types(key, found)
            _collect_value_types(item, found)
    elif type(value).__module__ not in ("builtins",):
        found.add(type(value))
    return found


def _import_lines(classes, extra=()):
    """Deterministic import block for the generated file.

    Classes defined inside functions or other classes cannot be imported;
    those get a TODO comment instead — the generated file is a starting
    point the user edits, exactly as the paper intends.
    """
    by_module = {}
    todos = []
    for klass in classes:
        if "." in klass.__qualname__:
            todos.append(
                f"# TODO: make {klass.__name__} importable "
                f"(it is defined locally as {klass.__module__}.{klass.__qualname__})"
            )
        else:
            by_module.setdefault(klass.__module__, set()).add(klass.__qualname__)
    for module, name in extra:
        by_module.setdefault(module, set()).add(name)
    lines = []
    for module in sorted(by_module):
        names = ", ".join(sorted(by_module[module]))
        lines.append(f"from {module} import {names}")
    return "\n".join(lines + sorted(todos))


def _computation_reference(computation_factory):
    """(class, source expression) for the generated file's compute call."""
    instance = computation_factory()
    klass = type(instance)
    return klass, f"{klass.__name__}()"


# -- code generation ------------------------------------------------------------


def generate_test_code(record, computation_factory, test_name=None, job_id=None):
    """Generate a standalone pytest file reproducing one vertex context.

    The Python analogue of the paper's Figure 6 JUnit file. If the
    computation's constructor needs arguments, edit the single
    ``harness.run(...)`` line — the file is a starting point the user owns,
    exactly as the paper intends ("users can edit the JUnit test code ...
    and turn it into a real unit test").
    """
    klass, computation_expr = _computation_reference(computation_factory)
    test_name = test_name or (
        f"test_reproduce_vertex_{_identifier(record.vertex_id)}"
        f"_superstep_{record.superstep}"
    )
    value_types = set()
    for candidate in (
        record.value_before,
        record.value_after,
        record.edges_before,
        record.incoming,
        record.sent,
        record.aggregators,
    ):
        _collect_value_types(candidate, value_types)
    imports = _import_lines(
        value_types | {klass},
        extra=[("repro.graft.reproducer", "ReplayHarness")],
    )
    if record.exception is not None:
        assertions = codegen_templates.VERTEX_EXCEPTION_ASSERTS_TEMPLATE.format(
            exception_type=repr(record.exception.type_name)
        )
    else:
        assertions = "\n".join(
            [
                f"    assert outcome.value == {render_literal(record.value_after)}",
                f"    assert outcome.sent == {render_literal(list(record.sent))}",
                f"    assert outcome.halted is {record.halted}",
            ]
        )
    return codegen_templates.VERTEX_TEST_TEMPLATE.format(
        vertex_id=render_literal(record.vertex_id),
        superstep=record.superstep,
        computation_name=klass.__qualname__,
        computation_expr=computation_expr,
        job_note=f" (job {job_id})" if job_id else "",
        imports=imports,
        test_name=test_name,
        value=render_literal(record.value_before),
        edges=render_literal(record.edges_before),
        incoming=render_literal(list(record.incoming)),
        aggregators=render_literal(record.aggregators),
        num_vertices=record.num_vertices,
        num_edges=record.num_edges,
        run_seed=render_literal(record.run_seed),
        assertions=assertions,
    )


def generate_master_test_code(record, master_factory, test_name=None, job_id=None):
    """Generate a pytest file reproducing one master context (Section 3.4)."""
    klass, master_expr = _computation_reference(master_factory)
    test_name = test_name or f"test_reproduce_master_superstep_{record.superstep}"
    value_types = _collect_value_types(record.aggregators_before, set())
    imports = _import_lines(
        value_types | {klass},
        extra=[("repro.graft.reproducer", "MasterReplayHarness")],
    )
    outcome = MasterReplayHarness.from_record(record).run(master_factory())
    assertions = "\n".join(
        f"    assert outcome.aggregators[{render_literal(name)}] == "
        f"{render_literal(value)}"
        for name, value in sorted(outcome.aggregators.items(), key=lambda kv: kv[0])
    )
    return codegen_templates.MASTER_TEST_TEMPLATE.format(
        superstep=record.superstep,
        job_note=f" (job {job_id})" if job_id else "",
        imports=imports,
        test_name=test_name,
        aggregators=render_literal(record.aggregators_before),
        num_vertices=0,
        num_edges=0,
        master_expr=master_expr,
        halted=outcome.halted,
        assertions=assertions,
    )


def generate_end_to_end_test(
    graph,
    computation_factory,
    test_name="test_end_to_end",
    expected_values=None,
    engine_kwargs=None,
):
    """Generate an end-to-end pytest file from a small graph.

    Used by the offline small-graph builder (Section 3.4): the generated
    test constructs the graph programmatically, runs the computation from
    the first superstep to termination, and asserts the final vertex values
    (when ``expected_values`` is given) or leaves a TODO for the user.
    """
    klass, computation_expr = _computation_reference(computation_factory)
    value_types = set()
    graph_lines = []
    for vertex_id in graph.vertex_ids():
        value = graph.vertex_value(vertex_id)
        _collect_value_types(value, value_types)
        graph_lines.append(
            f"    graph.add_vertex({render_literal(vertex_id)}, "
            f"value={render_literal(value)})"
        )
    for source, target, value in graph.edges():
        _collect_value_types(value, value_types)
        graph_lines.append(
            f"    graph.add_edge({render_literal(source)}, "
            f"{render_literal(target)}, value={render_literal(value)})"
        )
    engine_kwargs = engine_kwargs or {}
    engine_args = "".join(
        f", {name}={render_literal(value)}" for name, value in engine_kwargs.items()
    )
    if expected_values is None:
        assertions = "    # TODO: assert the expected final vertex values:\n" \
            "    # assert result.vertex_values == {...}"
    else:
        _collect_value_types(expected_values, value_types)
        assertions = (
            f"    assert result.vertex_values == "
            f"{render_literal(dict(expected_values))}"
        )
    imports = _import_lines(
        value_types | {klass},
        extra=[
            ("repro.graph.graph", "Graph"),
            ("repro.pregel.engine", "run_computation"),
        ],
    )
    return codegen_templates.END_TO_END_TEST_TEMPLATE.format(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        computation_name=klass.__qualname__,
        computation_expr=computation_expr,
        imports=imports,
        test_name=test_name,
        directed=graph.directed,
        graph_lines="\n".join(graph_lines),
        engine_args=engine_args,
        assertions=assertions,
    )


def _identifier(vertex_id):
    """Sanitize a vertex id into a test-name fragment."""
    text = str(vertex_id)
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in text)
    return cleaned or "v"
