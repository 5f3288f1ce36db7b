"""The graft-lint rule engine.

Given a ``Computation`` subclass (or raw module source), the engine locates
the class's AST — following the MRO so inherited ``compute`` methods are
analyzed with the subclass's overrides in effect — builds one
:class:`~repro.analysis.scopes.MethodScope` per effective method, resolves
module- and class-level string constants (aggregator names are usually
module constants), and runs every registered rule over the resulting
:class:`ClassContext`. Rules emit :class:`~repro.analysis.findings.Finding`
objects; the engine returns them as a sorted
:class:`~repro.analysis.findings.AnalysisReport`.

Entry points:

- :func:`analyze_computation` — a live class; used by the ``repro lint``
  CLI on ``module:Class`` targets and by ``debug_run``'s pre-flight check.
- :func:`analyze_combiner` — a live ``MessageCombiner`` subclass (GL015).
- :func:`analyze_module_source` — raw source text, no import executed;
  used to lint example scripts (importing them would *run* them).

``dataflow=True`` (the default) additionally builds per-method CFGs and
runs the dataflow rule pack (GL009–GL015); ``dataflow=False`` restores
the cheap pattern-matching rules only.
"""

import ast
import hashlib
import inspect
import os
import sys
import textwrap
import threading
from collections import OrderedDict

from repro.analysis.findings import AnalysisReport

#: Analysis reports keyed on (kind, qualified name, source hash, dataflow).
#: Hashing the actual MRO sources means a class redefined with new code
#: (notebooks, exec'd test fixtures) never sees a stale report; the LRU
#: bound keeps long-lived sessions from accumulating every class ever
#: linted. The cache is process-global shared mutable state (the very
#: hazard GL019 flags in user code) and callers may lint from several
#: threads, so every access holds ``_REPORT_CACHE_LOCK`` —
#: ``move_to_end`` on an ``OrderedDict`` is not atomic.
_REPORT_CACHE = OrderedDict()
_REPORT_CACHE_MAX = 128
_REPORT_CACHE_LOCK = threading.Lock()


#: Sentinel for lazily-built, possibly-None context attributes.
_UNSET = object()


class ClassContext:
    """Everything the rules see about one analyzed class."""

    def __init__(self, class_name, filename, scopes, constants,
                 kind="computation", dataflow_enabled=True,
                 module_functions=None):
        self.class_name = class_name
        self.filename = filename
        #: Effective methods after MRO resolution: name -> MethodScope.
        self.scopes = scopes
        #: Resolved string/number constants visible to the class: a merge
        #: of module-level and class-level simple assignments, name -> value.
        self.constants = constants
        #: Module-level helper functions visible to the class:
        #: name -> (ast.FunctionDef, filename). The interprocedural layer
        #: resolves bare-name calls against these.
        self.module_functions = module_functions or {}
        #: "computation" or "combiner" — rules declare which kind they
        #: apply to via a module-level ``APPLIES_TO``.
        self.kind = kind
        self.dataflow_enabled = dataflow_enabled
        self._dataflow = {}
        self._interproc = _UNSET
        self._protocol = _UNSET
        #: scope name -> exception, for dataflow passes that failed. The
        #: analyzer degrades to pattern rules rather than blocking a run.
        self.dataflow_errors = {}

    def scope(self, name):
        return self.scopes.get(name)

    def iter_scopes(self, include_init=False):
        for name, scope in self.scopes.items():
            if name == "__init__" and not include_init:
                continue
            yield scope

    def dataflow(self, scope):
        """The :class:`MethodDataflow` for one scope, or None.

        None means dataflow is disabled for this analysis or the pass
        failed on this method (recorded in :attr:`dataflow_errors`).
        Rules treat None as "no information" and stay silent.
        """
        if not self.dataflow_enabled or scope is None:
            return None
        key = id(scope)
        if key not in self._dataflow:
            from repro.analysis.dataflow import MethodDataflow

            try:
                self._dataflow[key] = MethodDataflow(
                    scope, interproc=self.interproc
                )
            except Exception as exc:  # degrade, never block
                self._dataflow[key] = None
                self.dataflow_errors[scope.name] = exc
        return self._dataflow[key]

    @property
    def interproc(self):
        """The class's :class:`~repro.analysis.interproc.Interprocedural`
        bundle (call graph + callee summaries), or None on failure."""
        if self._interproc is _UNSET:
            from repro.analysis.interproc import Interprocedural

            try:
                self._interproc = Interprocedural(self)
            except Exception as exc:  # degrade, never block
                self._interproc = None
                self.dataflow_errors["<interproc>"] = exc
        return self._interproc

    @property
    def protocol(self):
        """The class's message-protocol table
        (:class:`~repro.analysis.protocol.ProtocolTable`), or None."""
        if self._protocol is _UNSET:
            from repro.analysis.protocol import ProtocolTable

            try:
                self._protocol = ProtocolTable(self)
            except Exception as exc:  # degrade, never block
                self._protocol = None
                self.dataflow_errors["<protocol>"] = exc
        return self._protocol

    def helper_source_text(self):
        """Source of module helpers the class can call (cache-key input)."""
        interproc = self.interproc
        if interproc is None:
            return ""
        try:
            return interproc.helper_source_text()
        except Exception:
            return ""

    def resolve_constant(self, node):
        """The literal value behind an expression, or None if dynamic.

        Handles ``"phase"`` (a constant) and ``PHASE_AGG`` (a name bound to
        a constant at module or class level) — the two ways aggregator
        names are written in practice.
        """
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self.constants.get(node.id)
        return None


def _collect_constants(tree, into):
    """Record simple ``NAME = <literal>`` assignments from a body."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    into[target.id] = node.value.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.value, ast.Constant
        ):
            if isinstance(node.target, ast.Name):
                into[node.target.id] = node.value.value
    return into


def _class_defs_from_module(tree):
    """Every ClassDef in ``tree``, including ones nested in classes,
    functions, and conditional blocks.

    Breadth-first, so on a name collision the shallower (top-level)
    definition wins — matching what an importer of the module would see.
    """
    defs = {}
    queue = list(tree.body)
    while queue:
        node = queue.pop(0)
        if isinstance(node, ast.ClassDef):
            defs.setdefault(node.name, node)
        for attr in ("body", "orelse", "finalbody"):
            queue.extend(getattr(node, attr, None) or [])
        for handler in getattr(node, "handlers", None) or []:
            queue.extend(handler.body)
    return defs


def _build_context(class_name, mro_class_defs, constants, filename,
                   kind="computation", dataflow=True, module_functions=None):
    """Assemble a :class:`ClassContext` from base-to-derived class defs.

    ``mro_class_defs`` is ``[(class_def, defining_name), ...]`` ordered
    base first, so later (more derived) definitions override earlier ones —
    exactly Python's attribute resolution.
    """
    from repro.analysis.scopes import build_method_scope

    method_names = set()
    for class_def, _name in mro_class_defs:
        for node in class_def.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_names.add(node.name)
        _collect_constants(class_def, constants)

    scopes = {}
    for class_def, defining_name in mro_class_defs:
        for node in class_def.body:
            if isinstance(node, ast.FunctionDef):
                scopes[node.name] = build_method_scope(
                    node, defining_name, filename, method_names
                )
    return ClassContext(class_name, filename, scopes, constants,
                        kind=kind, dataflow_enabled=dataflow,
                        module_functions=module_functions)


def _module_function_defs(tree, filename, into=None):
    """Record top-level ``def``s from a module tree: name -> (def, file)."""
    funcs = into if into is not None else {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs[node.name] = (node, filename)
    return funcs


#: Dataflow rules that *upgrade* a pattern rule: when the upgrading rule
#: fires, the pattern rule's finding on the same evidence is dropped —
#: GL013 proves the overflow GL007 only suspects (same line), GL014 proves
#: the no-halt-path GL005 only suspects (same class).
_LINE_SUPERSEDES = {"GL013": "GL007", "GL024": "GL006"}
_CLASS_SUPERSEDES = {"GL014": "GL005"}


def _apply_supersedes(findings):
    upgraded_lines = {
        (_LINE_SUPERSEDES[f.rule_id], f.line)
        for f in findings
        if f.rule_id in _LINE_SUPERSEDES
    }
    upgraded_rules = {
        _CLASS_SUPERSEDES[f.rule_id]
        for f in findings
        if f.rule_id in _CLASS_SUPERSEDES
    }
    return [
        f
        for f in findings
        if f.rule_id not in upgraded_rules
        and (f.rule_id, f.line) not in upgraded_lines
    ]


def _run_rules(context, rules=None):
    from repro.analysis.rules import all_rules

    report = AnalysisReport(class_name=context.class_name,
                           filename=context.filename)
    if rules is None:
        rules = all_rules(dataflow=context.dataflow_enabled)
    for rule in rules:
        if getattr(rule, "APPLIES_TO", "computation") != context.kind:
            continue
        for finding in rule.check(context):
            report.add(finding)
    report.findings[:] = _apply_supersedes(report.findings)
    return report.sort()


# -- live-class analysis -------------------------------------------------------


def _live_context(cls, base_class, kind, dataflow):
    """Build the ClassContext for a live class, or None when the source
    cannot be located (exec/REPL-built classes are skipped, not failed).

    Returns ``(context, source_text)`` — the concatenated MRO sources feed
    the report cache key.
    """
    mro_class_defs = []
    constants = {}
    module_functions = {}
    filename = "<unknown>"
    sources = []
    try:
        chain = [
            klass
            for klass in cls.__mro__
            if klass not in (base_class, object)
            and issubclass(klass, base_class)
        ]
        for klass in reversed(chain):  # base first, derived overrides last
            source, start_line = inspect.getsourcelines(klass)
            text = textwrap.dedent("".join(source))
            sources.append(text)
            tree = ast.parse(text)
            class_def = tree.body[0]
            if not isinstance(class_def, ast.ClassDef):
                continue
            ast.increment_lineno(class_def, start_line - 1)
            klass_file = inspect.getsourcefile(klass) or "<unknown>"
            filename = klass_file if klass is cls else filename
            module = sys.modules.get(klass.__module__)
            if module is not None:
                module_tree = _module_tree(module)
                _collect_constants(module_tree, constants)
                # Derived modules override base modules' helper names,
                # matching what a bare-name call in the derived class sees.
                _module_function_defs(module_tree, klass_file,
                                      into=module_functions)
            mro_class_defs.append((class_def, klass.__name__))
        if filename == "<unknown>" and mro_class_defs:
            filename = inspect.getsourcefile(cls) or "<unknown>"
    except (OSError, TypeError, SyntaxError):
        return None, ""
    if not mro_class_defs:
        return None, ""

    context = _build_context(cls.__name__, mro_class_defs, constants,
                             filename, kind=kind, dataflow=dataflow,
                             module_functions=module_functions)
    return context, "".join(sources)


def _analyze_live(cls, base_class, kind, rules, dataflow):
    context, source_text = _live_context(cls, base_class, kind, dataflow)
    if context is None:
        return AnalysisReport(class_name=getattr(cls, "__name__", repr(cls)),
                              analyzed=False)

    cache_key = None
    if rules is None:
        # The digest covers the MRO class sources *and* every module-level
        # helper the class can call: an edit to a called helper changes
        # the analysis result, so it must miss the cache.
        keyed_source = source_text + "\x00" + context.helper_source_text()
        digest = hashlib.sha1(keyed_source.encode("utf-8")).hexdigest()
        cache_key = (kind, cls.__module__, cls.__qualname__, digest, dataflow)
        with _REPORT_CACHE_LOCK:
            cached = _REPORT_CACHE.get(cache_key)
            if cached is not None:
                _REPORT_CACHE.move_to_end(cache_key)
                return cached

    report = _run_rules(context, rules)
    if cache_key is not None:
        with _REPORT_CACHE_LOCK:
            _REPORT_CACHE[cache_key] = report
            while len(_REPORT_CACHE) > _REPORT_CACHE_MAX:
                _REPORT_CACHE.popitem(last=False)
    return report


def analyze_computation(cls, rules=None, dataflow=True):
    """Statically analyze a ``Computation`` subclass; returns a report.

    Inherited methods are included (``BuggyRandomWalk`` is judged with the
    ``RandomWalk.compute`` it actually runs). Classes whose source cannot
    be located (built in ``exec``/REPL contexts) come back with
    ``analyzed=False`` and no findings — the analyzer never blocks a run it
    cannot see.
    """
    from repro.pregel.computation import Computation

    return _analyze_live(cls, Computation, "computation", rules, dataflow)


def analyze_combiner(cls, rules=None, dataflow=True):
    """Statically analyze a ``MessageCombiner`` subclass (GL015)."""
    from repro.pregel.combiners import MessageCombiner

    return _analyze_live(cls, MessageCombiner, "combiner", rules, dataflow)


def computation_context(cls, dataflow=True):
    """The :class:`ClassContext` for a live class, or None if sourceless.

    Exposed for ``repro lint --explain-cfg``, which renders CFGs and phase
    facts straight off the context's dataflow bundles.
    """
    from repro.pregel.computation import Computation

    context, _source = _live_context(cls, Computation, "computation", dataflow)
    return context


#: module name -> (file stamp, parsed tree). Stamped by (mtime_ns, size)
#: so an edited-and-reloaded module file is re-read instead of served
#: stale — the helper-hash half of the report-cache key depends on it.
_MODULE_TREE_CACHE = {}


def _module_tree(module):
    name = module.__name__
    path = getattr(module, "__file__", None)
    stamp = None
    if path:
        try:
            status = os.stat(path)
            stamp = (status.st_mtime_ns, status.st_size)
        except OSError:
            path = None
    cached = _MODULE_TREE_CACHE.get(name)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    try:
        if path and path.endswith(".py"):
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
        else:
            tree = ast.parse(inspect.getsource(module))
    except (OSError, TypeError, SyntaxError, ValueError):
        tree = ast.parse("")
    _MODULE_TREE_CACHE[name] = (stamp, tree)
    return tree


# -- source-level analysis -----------------------------------------------------

#: Base names that mark a class as a vertex program when analyzing raw
#: source: the framework base itself plus the shipped algorithm classes
#: users commonly extend.
_KNOWN_COMPUTATION_BASES = {"Computation"}

#: Base names that mark a class as a message combiner.
_KNOWN_COMBINER_BASES = {
    "MessageCombiner",
    "SumCombiner",
    "MinCombiner",
    "MaxCombiner",
}


def _transitive_subclass_names(class_defs, known):
    """Names in ``class_defs`` whose base chain reaches a ``known`` name."""
    found = set()
    changed = True
    while changed:
        changed = False
        for name, class_def in class_defs.items():
            if name in found:
                continue
            for base in class_def.bases:
                base_name = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else None
                )
                if base_name in known or base_name in found:
                    found.add(name)
                    changed = True
                    break
    return [name for name in class_defs if name in found]


def _computation_class_names(tree):
    """Names of classes in ``tree`` that (transitively) look like vertex
    programs — they extend ``Computation`` or another such class."""
    class_defs = _class_defs_from_module(tree)
    known = set(_KNOWN_COMPUTATION_BASES)
    try:
        import repro.algorithms as _algorithms
        from repro.pregel.computation import Computation

        for name in dir(_algorithms):
            obj = getattr(_algorithms, name)
            if isinstance(obj, type) and issubclass(obj, Computation):
                known.add(name)
    except ImportError:  # pragma: no cover - algorithms always importable here
        pass

    return _transitive_subclass_names(class_defs, known), class_defs


def _source_context(name, class_defs, constants_base, filename, kind,
                    dataflow, module_functions=None):
    chain = []
    cursor = class_defs[name]
    while cursor is not None:
        chain.append(cursor)
        parent = None
        for base in cursor.bases:
            if isinstance(base, ast.Name) and base.id in class_defs:
                candidate = class_defs[base.id]
                if candidate not in chain:  # guard vs. base-name cycles
                    parent = candidate
                break
        cursor = parent
    mro_class_defs = [(cd, cd.name) for cd in reversed(chain)]
    return _build_context(
        name, mro_class_defs, dict(constants_base), filename,
        kind=kind, dataflow=dataflow,
        module_functions=dict(module_functions or {}),
    )


def contexts_from_module_source(source, filename="<string>", dataflow=True):
    """Build a :class:`ClassContext` per vertex-program / combiner class
    found in raw source, without importing it."""
    tree = ast.parse(source, filename=filename)
    constants_base = _collect_constants(tree, {})
    module_functions = _module_function_defs(tree, filename)
    comp_names, class_defs = _computation_class_names(tree)
    combiner_names = [
        name
        for name in _transitive_subclass_names(
            class_defs, set(_KNOWN_COMBINER_BASES)
        )
        if name not in comp_names
    ]

    contexts = []
    for name in comp_names:
        contexts.append(_source_context(
            name, class_defs, constants_base, filename, "computation",
            dataflow, module_functions=module_functions,
        ))
    for name in combiner_names:
        contexts.append(_source_context(
            name, class_defs, constants_base, filename, "combiner", dataflow,
            module_functions=module_functions,
        ))
    return contexts


def analyze_module_source(source, filename="<string>", rules=None,
                          dataflow=True):
    """Analyze every vertex-program class in ``source`` without importing.

    Returns ``[AnalysisReport, ...]``, one per detected class (combiner
    classes included, analyzed under the combiner rule pack). Inheritance
    is followed *within the module*; bases defined elsewhere contribute
    nothing (their methods are not visible in this source).
    """
    return [
        _run_rules(context, rules)
        for context in contexts_from_module_source(
            source, filename=filename, dataflow=dataflow
        )
    ]


def analyze_path(path, rules=None, dataflow=True):
    """Analyze a ``.py`` file on disk (see :func:`analyze_module_source`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return analyze_module_source(handle.read(), filename=str(path),
                                     rules=rules, dataflow=dataflow)
