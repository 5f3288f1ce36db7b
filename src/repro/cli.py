"""Command-line interface.

The workflows a Giraph user would drive from a terminal::

    python -m repro datasets                      # Table 1/2 stand-ins
    python -m repro premade                       # offline-mode graph menu
    python -m repro run --algorithm pagerank --dataset web-BS --vertices 500
    python -m repro debug --algorithm gc-buggy --dataset bipartite-1M-3M \\
        --capture-random 10 --neighbors --view tabular --superstep last
    python -m repro debug --algorithm rw-buggy --dataset web-BS \\
        --nonneg-messages --view violations
    python -m repro lint repro.algorithms:BuggyRandomWalk --format json
    python -m repro lint repro.algorithms examples/quickstart.py
    python -m repro trace stats job-0 --dir ./exported-traces
    python -m repro trace stats job-0 --dir ./exported-traces --json
    python -m repro serve --dir ./exported-traces --port 8707
    python -m repro chaos presets
    python -m repro chaos run --plan worker-crash --algorithm pagerank
    python -m repro san --algorithm label-prop-buggy --dataset web-BS \\
        --schedules 3
    python -m repro debug --algorithm pagerank --chaos torn-trace-tail \\
        --capture-all-active
    python -m repro validate --dataset soc-Epinions --vertices 500

Exit status (documented for CI gating):

- 0 — success, and (for ``debug``) no constraint violations captured;
- 1 — failed computation, invalid input, a ``chaos run`` whose recovery
  verification failed, a ``san`` sweep whose harness failed, or (for
  ``lint``) error-severity findings / unresolvable target;
- 2 — the run or analysis itself succeeded but found problems: ``debug``
  captured constraint violations, ``lint`` produced warning-severity
  findings only, or ``san`` observed a delivery-order divergence.
"""

import argparse
import sys

#: name -> (description, computation factory builder[, engine kwargs builder]).
#: The builders take the ``repro.algorithms`` module, which only
#: :func:`_algorithm` imports: building the parser needs the names alone.
_ALGORITHMS = {
    "pagerank": (
        "fixed-iteration PageRank",
        lambda alg, args: (lambda: alg.PageRank(iterations=args.iterations)),
    ),
    "components": (
        "connected components (HashMin)",
        lambda alg, args: alg.ConnectedComponents,
    ),
    "sssp": (
        "single-source shortest paths (source = first vertex)",
        lambda alg, args: (lambda: alg.ShortestPaths(args.source)),
    ),
    "gc": (
        "graph coloring by iterated MIS (paper GC, correct)",
        lambda alg, args: alg.GraphColoring,
        lambda alg: {"master": alg.GCMaster()},
    ),
    "gc-buggy": (
        "graph coloring with the Scenario 4.1 MIS tie bug",
        lambda alg, args: alg.BuggyGraphColoring,
        lambda alg: {"master": alg.GCMaster()},
    ),
    "rw": (
        "random walk simulation (paper RW, correct)",
        lambda alg, args: (
            lambda: alg.RandomWalk(steps=args.steps, initial_walkers=args.walkers)
        ),
    ),
    "rw-buggy": (
        "random walk with the Scenario 4.2 short-overflow bug",
        lambda alg, args: (
            lambda: alg.BuggyRandomWalk(
                steps=args.steps, initial_walkers=args.walkers
            )
        ),
    ),
    "mwm": (
        "approximate maximum-weight matching (paper MWM)",
        lambda alg, args: alg.MaximumWeightMatching,
    ),
    "triangles": (
        "triangle counting",
        lambda alg, args: alg.TriangleCount,
    ),
    "kcore": (
        "k-core decomposition (--k)",
        lambda alg, args: (lambda: alg.KCore(args.k)),
    ),
    "label-prop": (
        "label propagation communities (--iterations)",
        lambda alg, args: (
            lambda: alg.LabelPropagation(iterations=args.iterations)
        ),
    ),
    "label-prop-buggy": (
        "label propagation with a last-wins tie-break (order-sensitive)",
        lambda alg, args: (
            lambda: alg.BuggyLabelPropagation(iterations=args.iterations)
        ),
    ),
}


def _algorithm(args):
    """``(description, computation factory, engine kwargs)`` of ``--algorithm``."""
    import repro.algorithms as alg

    description, factory_builder, *kwargs_builder = _ALGORITHMS[args.algorithm]
    kwargs = kwargs_builder[0](alg) if kwargs_builder else {}
    return description, factory_builder(alg, args), _engine_kwargs(args, kwargs)


def _build_graph(args):
    from repro.graph.transforms import to_undirected

    if getattr(args, "input", None):
        from repro.graph.io import read_adjacency_file

        graph = read_adjacency_file(args.input, directed=not args.undirected)
    else:
        from repro.datasets.registry import make

        graph = make(
            args.dataset, scale=getattr(args, "scale", "demo"),
            seed=args.seed, num_vertices=args.vertices,
        )
    if args.algorithm == "mwm":
        from repro.datasets.generators import random_symmetric_weights

        graph = to_undirected(
            random_symmetric_weights(_materialized(graph), seed=args.seed)
        )
    elif args.algorithm in (
        "triangles", "kcore", "label-prop", "label-prop-buggy", "components"
    ):
        # These expect the undirected (symmetric) encoding.
        graph = to_undirected(_materialized(graph))
    return graph


def _materialized(graph):
    """Collapse a full-scale VertexStream when a transform needs a Graph.

    Weight decoration and undirected symmetrization rewrite edges in
    place, so algorithms that need them cannot stream; at full scale this
    costs the materialization the streaming path normally avoids.
    """
    materialize = getattr(graph, "materialize", None)
    return materialize() if materialize is not None else graph


def _engine_kwargs(args, registry_kwargs):
    kwargs = dict(registry_kwargs)
    kwargs["seed"] = args.seed
    kwargs["num_workers"] = args.workers
    kwargs["executor"] = args.executor
    if args.max_supersteps is not None:
        kwargs["max_supersteps"] = args.max_supersteps
    if getattr(args, "store", None) is not None:
        kwargs["store"] = args.store
    if getattr(args, "memory_limit", None) is not None:
        kwargs["memory_limit"] = args.memory_limit * 1024 * 1024
    if getattr(args, "partitions", None) is not None:
        kwargs["num_partitions"] = args.partitions
    return kwargs


# -- subcommands ---------------------------------------------------------------


def cmd_datasets(args, out):
    from repro.bench.render import render_table
    from repro.datasets.registry import DEMO_DATASETS, PERF_DATASETS
    from repro.graph.stats import compute_stats

    rows = []
    for spec in DEMO_DATASETS + PERF_DATASETS:
        graph = spec.generate(seed=args.seed)
        stats = compute_stats(graph)
        rows.append(
            [
                spec.name,
                spec.table,
                spec.paper_vertices,
                stats.num_vertices,
                stats.num_directed_edges,
                spec.description,
            ]
        )
    out(
        render_table(
            ["name", "paper table", "paper |V|", "stand-in |V|",
             "stand-in |E|(d)", "description"],
            rows,
            title="Registered datasets (paper originals and generated stand-ins)",
        )
    )
    return 0


def cmd_premade(args, out):
    from repro.bench.render import render_table
    from repro.datasets.premade import premade_graph, premade_menu

    rows = []
    for name in premade_menu():
        graph = premade_graph(name)
        rows.append([name, graph.num_vertices, graph.num_edges])
    out(render_table(["name", "|V|", "|E|(d)"], rows,
                     title="Premade graphs (offline-mode menu)"))
    return 0


def cmd_run(args, out):
    from repro.pregel.engine import run_computation

    description, factory, engine_kwargs = _algorithm(args)
    graph = _build_graph(args)
    out(f"running {args.algorithm} ({description}) on {args.dataset} "
        f"[{graph.num_vertices} vertices, {graph.num_edges} directed edges] "
        f"executor={args.executor} workers={args.workers}")
    result = run_computation(factory, graph, **engine_kwargs)
    out(result.summary())
    if args.show_values:
        for vertex_id in list(result.vertex_values)[: args.show_values]:
            out(f"  {vertex_id!r}: {result.vertex_values[vertex_id]!r}")
    return 0


def _config_for(args):
    """The DebugConfig the command-line flags describe."""
    from repro.graft.config import DebugConfig, nonnegative_message, nonnegative_value

    class CliDebugConfig(DebugConfig):
        def vertices_to_capture(self):
            return tuple(args.capture_ids or ())

        def num_random_vertices_to_capture(self):
            return args.capture_random

        def capture_neighbors_of_vertices(self):
            return args.neighbors

        def capture_all_active(self):
            return args.capture_all_active

        def should_capture_superstep(self, superstep):
            return superstep >= args.from_superstep

        def max_captures(self):
            return args.max_captures

    # DebugConfig checks exactly the constraints its subclass overrides.
    if args.nonneg_messages:
        CliDebugConfig.message_value_constraint = nonnegative_message
    if args.nonneg_values:
        CliDebugConfig.vertex_value_constraint = nonnegative_value
    return CliDebugConfig()


def _debug_status(run):
    """debug exit code: 0 clean, 1 failed, 2 violations captured (CI gate)."""
    if not run.ok:
        return 1
    return 2 if run.violations() else 0


def _chaos_debug_kwargs(args, out):
    """Extra debug_run kwargs for ``debug --chaos``; (kwargs, injector)."""
    if not getattr(args, "chaos", None):
        return {}, None
    from repro.chaos import ChaosFileSystem, FaultInjector, load_fault_plan
    from repro.pregel.checkpoint import CheckpointConfig

    plan = load_fault_plan(args.chaos)
    injector = FaultInjector(plan)
    filesystem = ChaosFileSystem(injector)
    out(f"chaos: injecting plan {plan.name!r} "
        f"({len(plan.faults)} fault spec(s)), "
        f"checkpoint every {args.checkpoint_every} superstep(s)")
    kwargs = {
        "filesystem": filesystem,
        "fault_injector": injector,
        "checkpoint_config": CheckpointConfig(
            filesystem=filesystem,
            every_n_supersteps=args.checkpoint_every,
        ),
    }
    return kwargs, injector


def cmd_debug(args, out):
    from repro.chaos.faults import FaultPlanError
    from repro.graft.debug_run import debug_run

    _description, factory, engine_kwargs = _algorithm(args)
    graph = _build_graph(args)
    try:
        chaos_kwargs, injector = _chaos_debug_kwargs(args, out)
    except FaultPlanError as exc:
        out(f"debug: {exc}")
        return 1
    run = debug_run(
        factory,
        graph,
        _config_for(args),
        strict=args.strict,
        **chaos_kwargs,
        **engine_kwargs,
    )
    out(run.summary())
    superstep_stats = run.superstep_stats()
    if any(s.store_bytes_spilled or s.store_bytes_loaded
           for s in superstep_stats):
        out("out-of-core telemetry (per superstep):")
        for stats in superstep_stats:
            out(f"  {stats.row()}")
    if injector is not None:
        for event in injector.events:
            out(f"chaos: superstep {event.superstep}: {event.kind} "
                f"on {event.target} ({event.detail})")
        if not injector.events:
            out("chaos: no faults fired (plan coordinates never matched)")
    if not run.ok:
        out(f"computation FAILED: {run.failure}")
    if run.capture_count == 0:
        out("nothing captured (adjust the capture flags)")
        return _debug_status(run)

    superstep = args.superstep
    if args.view in ("nodelink", "tabular"):
        view = (
            run.node_link_view() if args.view == "nodelink" else run.tabular_view()
        )
        if superstep == "last":
            view.last()
        elif superstep is not None:
            view.goto(int(superstep))
        out(view.render())
    elif args.view == "violations":
        out(run.violations_view().render(limit=20))

    if args.html_report:
        out(f"wrote {run.export_html_report(args.html_report)}")

    if args.export_traces:
        run.export_traces(args.export_traces)
        out(f"exported traces to {args.export_traces} "
            f"(inspect with: repro trace stats {run.session.job_id} "
            f"--dir {args.export_traces})")

    if args.reproduce:
        vertex_token, step_token = args.reproduce
        try:
            vertex_id = int(vertex_token)
        except ValueError:
            vertex_id = vertex_token
        report = run.reproduce(vertex_id, int(step_token))
        out(report.summary())
        out(run.generate_test_code(vertex_id, int(step_token)))
    status = _debug_status(run)
    if status == 2:
        out(f"exit 2: {len(run.violations())} constraint violation(s) captured")
    return status


# -- lint -----------------------------------------------------------------


def _lint_module_classes(token):
    """Every Computation subclass a module defines or re-exports."""
    import importlib

    from repro.pregel.computation import Computation

    module = importlib.import_module(token)
    return sorted(
        {
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, Computation)
            and obj is not Computation
            and obj.__module__.startswith(module.__name__)
        },
        key=lambda cls: cls.__name__,
    )


def _lint_targets(tokens, dataflow=True):
    """Resolve lint targets into ``(label, [AnalysisReport, ...])`` pairs.

    A target is ``module:Class`` (one class), ``module`` (every Computation
    subclass the module defines or re-exports), or a ``.py`` path (analyzed
    from source, never imported — example scripts run jobs on import).
    """
    import importlib
    import os

    from repro.analysis import analyze_computation, analyze_path

    for token in tokens:
        if token.endswith(".py") or os.sep in token:
            yield token, analyze_path(token, dataflow=dataflow)
        elif ":" in token:
            module_name, class_name = token.split(":", 1)
            module = importlib.import_module(module_name)
            yield token, [
                analyze_computation(
                    getattr(module, class_name), dataflow=dataflow
                )
            ]
        else:
            yield token, [
                analyze_computation(cls, dataflow=dataflow)
                for cls in _lint_module_classes(token)
            ]


def _explain_contexts(tokens):
    """Resolve lint targets into ``(label, ClassContext)`` pairs for
    ``--explain-cfg``."""
    import importlib
    import os

    from repro.analysis import computation_context, contexts_from_module_source

    for token in tokens:
        if token.endswith(".py") or os.sep in token:
            with open(token, "r", encoding="utf-8") as handle:
                source = handle.read()
            for context in contexts_from_module_source(source, token):
                yield token, context
        elif ":" in token:
            module_name, class_name = token.split(":", 1)
            module = importlib.import_module(module_name)
            yield token, computation_context(getattr(module, class_name))
        else:
            for cls in _lint_module_classes(token):
                yield token, computation_context(cls)


def cmd_lint(args, out):
    import json

    if args.explain_cfg:
        return _cmd_lint_explain(args, out)
    try:
        resolved = list(_lint_targets(args.targets, dataflow=args.dataflow))
    except (ImportError, AttributeError, OSError, SyntaxError) as exc:
        out(f"lint: cannot resolve target: {exc}")
        return 1

    reports = [report for _label, target_reports in resolved
               for report in target_reports]
    if args.format == "sarif":
        import os

        from repro.analysis import sarif_log

        out(json.dumps(
            sarif_log(reports, base_dir=os.getcwd()), indent=2, default=repr
        ))
    elif args.format == "json":
        out(json.dumps([r.to_dict() for r in reports], indent=2, default=repr))
    else:
        for report in reports:
            out(report.render_text())
    errors = sum(len(r.errors) for r in reports)
    findings = sum(len(r.findings) for r in reports)
    if args.format == "text":
        out(
            f"linted {len(reports)} class(es): {errors} error(s), "
            f"{findings - errors} warning(s)"
        )
    if errors:
        return 1
    return 2 if findings else 0


def _cmd_lint_explain(args, out):
    """Render each target's CFG and interval-stamped phase facts."""
    try:
        resolved = list(_explain_contexts(args.targets))
    except (ImportError, AttributeError, OSError, SyntaxError) as exc:
        out(f"lint: cannot resolve target: {exc}")
        return 1
    rendered = 0
    for label, context in resolved:
        if context is None:
            out(f"lint: no source available for {label}")
            continue
        out(f"=== {context.class_name} ({label}) ===")
        for scope in context.iter_scopes():
            flow = context.dataflow(scope)
            if flow is None:
                out(f"method {context.class_name}.{scope.name}: "
                    "dataflow unavailable")
                continue
            out(flow.explain())
            rendered += 1
        interproc = context.interproc
        if interproc is not None:
            out(interproc.explain())
        protocol = context.protocol
        if protocol is not None:
            out(protocol.render())
    return 0 if rendered else 1


def cmd_chaos(args, out):
    import json

    from repro.chaos import PRESET_PLANS, load_fault_plan, run_chaos
    from repro.chaos.faults import FaultPlanError

    if args.chaos_command == "presets":
        from repro.bench.render import render_table

        rows = [
            [plan.name, len(plan.faults), plan.description]
            for _name, plan in sorted(PRESET_PLANS.items())
        ]
        out(render_table(
            ["preset", "faults", "description"], rows,
            title="Shipped fault plans (repro chaos run --plan <preset>)",
        ))
        return 0

    description, factory, kwargs = _algorithm(args)
    graph = _build_graph(args)
    try:
        plan = load_fault_plan(args.plan)
    except FaultPlanError as exc:
        out(f"chaos: {exc}")
        return 1
    out(f"chaos-running {args.algorithm} ({description}) on {args.dataset} "
        f"[{graph.num_vertices} vertices] under plan {plan.name!r} "
        f"executor={args.executor} workers={args.workers}")
    report = run_chaos(
        factory,
        graph,
        plan,
        seed=kwargs.pop("seed"),
        num_workers=kwargs.pop("num_workers"),
        executor=kwargs.pop("executor"),
        checkpoint_every=args.checkpoint_every,
        **kwargs,
    )
    if args.format == "json":
        out(json.dumps(report.to_dict(), indent=2, default=repr))
    else:
        out(report.summary())
    return 0 if report.ok else 1


def cmd_san(args, out):
    import json

    from repro.graft.sanitizer import run_sanitizer

    description, factory, kwargs = _algorithm(args)
    graph = _build_graph(args)
    out(f"graft-san {args.algorithm} ({description}) on {args.dataset} "
        f"[{graph.num_vertices} vertices] schedules={args.schedules} "
        f"executor={args.executor} workers={args.workers}")
    report = run_sanitizer(
        factory,
        graph,
        schedules=args.schedules,
        seed=kwargs.pop("seed"),
        num_workers=kwargs.pop("num_workers"),
        executor=kwargs.pop("executor"),
        **kwargs,
    )
    if args.format == "json":
        out(json.dumps(report.to_dict(), indent=2, default=repr))
    else:
        out(report.summary())
    if not report.ok:
        return 1
    return 0 if report.deterministic else 2


def cmd_trace(args, out):
    import json

    from repro.bench.render import render_table
    from repro.common.errors import TraceError
    from repro.graft.trace import trace_stats
    from repro.simfs.filesystem import SimFileSystem

    fs = SimFileSystem()
    try:
        fs.import_from_directory(args.dir)
    except OSError as exc:
        out(f"trace: cannot load {args.dir}: {exc}")
        return 1
    if args.json:
        # The same serializer the debug server's /jobs/<id> endpoint uses,
        # so scripted consumers see one schema whichever door they enter.
        from repro.serve.sessions import job_summary

        try:
            summary = job_summary(fs, args.job_id, root=args.root)
        except TraceError as exc:
            out(f"trace: {exc}")
            return 1
        out(json.dumps(summary, indent=2, sort_keys=True, default=repr))
        return 0
    try:
        stats = trace_stats(fs, args.job_id, root=args.root)
    except TraceError as exc:
        out(f"trace: {exc}")
        return 1
    for skip in stats.get("skipped", ()):
        out(f"trace: warning: skipping unreadable trace file "
            f"{skip['path']}: {skip['error']}")
    rows = []
    for info in stats["files"]:
        rows.append([
            info["path"].rsplit("/", 1)[-1],
            info["format"],
            info["records"],
            info["bytes"],
            info["index_bytes"],
            f"{info['index_coverage'] * 100:.1f}%",
            f"{info['compression_ratio']:.2f}x",
            info["violations"],
            info["exceptions"],
        ])
    totals = stats["totals"]
    rows.append([
        "TOTAL", "", totals["records"], totals["bytes"],
        totals["index_bytes"], f"{totals['index_coverage'] * 100:.1f}%",
        f"{totals['compression_ratio']:.2f}x", "", "",
    ])
    out(render_table(
        ["file", "fmt", "records", "bytes", "idx bytes", "indexed",
         "compression", "violations", "exceptions"],
        rows,
        title=f"Trace storage for job {args.job_id}",
    ))
    return 0


def cmd_serve(args, out):
    from repro.serve.app import create_server
    from repro.simfs.filesystem import SimFileSystem

    fs = SimFileSystem()
    try:
        fs.import_from_directory(args.dir)
    except OSError as exc:
        out(f"serve: cannot load {args.dir}: {exc}")
        return 1
    pool_options = {}
    if args.record_cache is not None:
        pool_options["record_cache_size"] = args.record_cache
    if args.block_cache is not None:
        pool_options["block_cache_size"] = args.block_cache
    server = create_server(
        fs, root=args.root, host=args.host, port=args.port, **pool_options
    )
    jobs = server.pool.job_ids()
    out(f"serving {len(jobs)} job(s) from {args.dir} at {server.url}")
    for job_id in jobs:
        out(f"  {server.url}/jobs/{job_id}")
    out("press Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        out("stopped")
    finally:
        server.shutdown()
    return 0


def cmd_validate(args, out):
    from repro.datasets.registry import load_dataset
    from repro.graph.validation import validate_graph

    graph = load_dataset(args.dataset, seed=args.seed, num_vertices=args.vertices)
    if args.weighted:
        from repro.datasets.generators import random_symmetric_weights
        from repro.graph.transforms import to_undirected

        graph = to_undirected(random_symmetric_weights(graph, seed=args.seed))
    report = validate_graph(graph, expect_undirected=not graph.directed)
    out(f"{args.dataset}: {report.summary()}")
    return 0 if report.ok else 1


# -- parser ---------------------------------------------------------------


def build_parser():
    from repro.pregel.runtime import EXECUTOR_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graft (SIGMOD 2015) reproduction: Pregel engine + debugger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets_parser = sub.add_parser(
        "datasets", help="list the paper's datasets and stand-ins"
    )
    datasets_parser.add_argument("--seed", type=int, default=0)
    sub.add_parser("premade", help="list the offline-mode premade graphs")

    def add_common(p):
        p.add_argument("--algorithm", required=True,
                       choices=sorted(_ALGORITHMS))
        p.add_argument("--input", default=None,
                       help="adjacency-list file to load instead of --dataset")
        p.add_argument("--undirected", action="store_true",
                       help="treat --input as undirected")
        p.add_argument("--dataset", default="web-BS")
        p.add_argument("--vertices", type=int, default=None,
                       help="stand-in size override")
        p.add_argument("--scale", choices=("demo", "full"), default="demo",
                       help="dataset scale: 'demo' materializes the laptop "
                            "stand-in; 'full' streams the paper-scale graph "
                            "(pair with --store spill / --memory-limit)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=4)
        p.add_argument("--num-workers", type=int, dest="workers",
                       help="alias for --workers")
        p.add_argument("--executor", choices=EXECUTOR_NAMES, default="serial",
                       help="superstep execution backend (both names run "
                            "the serial schedule)")
        p.add_argument("--store", choices=("auto", "memory", "spill"),
                       default=None,
                       help="vertex/message store plane: 'memory' (dicts), "
                            "'spill' (partitioned out-of-core pages + sorted "
                            "run files), or 'auto' (spill when the estimated "
                            "footprint exceeds --memory-limit); results and "
                            "traces are identical either way")
        p.add_argument("--memory-limit", type=int, default=None, metavar="MB",
                       help="memory ceiling in MiB; with --store auto the "
                            "engine spills when the graph estimate exceeds it")
        p.add_argument("--partitions", type=int, default=None,
                       help="partition count for the spill store (decoupled "
                            "from --workers; default max(workers, 32))")
        p.add_argument("--max-supersteps", type=int, default=None)
        p.add_argument("--iterations", type=int, default=10,
                       help="pagerank iterations")
        p.add_argument("--steps", type=int, default=8, help="random-walk steps")
        p.add_argument("--walkers", type=int, default=100,
                       help="random-walk initial walkers per vertex")
        p.add_argument("--source", default=0, help="sssp source vertex id")
        p.add_argument("--k", type=int, default=2, help="k for kcore")

    run_parser = sub.add_parser("run", help="run an algorithm without Graft")
    add_common(run_parser)
    run_parser.add_argument("--show-values", type=int, default=0,
                            help="print the first N final vertex values")

    debug_parser = sub.add_parser("debug", help="run an algorithm under Graft")
    add_common(debug_parser)
    debug_parser.add_argument("--capture-ids", type=int, nargs="*",
                              help="category 1: capture these vertex ids")
    debug_parser.add_argument("--capture-random", type=int, default=0,
                              help="category 2: capture N random vertices")
    debug_parser.add_argument("--neighbors", action="store_true",
                              help="also capture neighbors of selected vertices")
    debug_parser.add_argument("--capture-all-active", action="store_true")
    debug_parser.add_argument("--from-superstep", type=int, default=0)
    debug_parser.add_argument("--max-captures", type=int, default=100_000)
    debug_parser.add_argument("--nonneg-messages", action="store_true",
                              help="category 4: message values must be >= 0")
    debug_parser.add_argument("--nonneg-values", action="store_true",
                              help="category 3: vertex values must be >= 0")
    debug_parser.add_argument("--view",
                              choices=("nodelink", "tabular", "violations"),
                              default="tabular")
    debug_parser.add_argument("--superstep", default=None,
                              help='superstep to display, or "last"')
    debug_parser.add_argument("--reproduce", nargs=2,
                              metavar=("VERTEX", "SUPERSTEP"),
                              help="print the generated test for one context")
    debug_parser.add_argument("--html-report", metavar="PATH",
                              help="write the whole run as an HTML report")
    debug_parser.add_argument("--export-traces", metavar="DIR",
                              help="copy the run's trace files (and index "
                                   "sidecars) into a local directory")
    debug_parser.add_argument("--strict", action="store_true",
                              help="refuse programs with error-severity "
                                   "graft-lint findings before running")
    debug_parser.add_argument("--chaos", metavar="PLAN", default=None,
                              help="inject a fault plan (preset name or JSON "
                                   "file) with checkpointing and recovery "
                                   "enabled; see 'repro chaos presets'")
    debug_parser.add_argument("--checkpoint-every", type=int, default=2,
                              help="checkpoint cadence for --chaos runs "
                                   "(supersteps; default 2)")

    chaos_parser = sub.add_parser(
        "chaos",
        help="deterministic fault injection and recovery verification",
    )
    chaos_sub = chaos_parser.add_subparsers(dest="chaos_command", required=True)
    chaos_sub.add_parser("presets", help="list the shipped fault plans")
    chaos_run_parser = chaos_sub.add_parser(
        "run",
        help="run an algorithm twice (clean + injected) and verify that "
             "recovery reproduces the fault-free results bit-identically",
    )
    add_common(chaos_run_parser)
    chaos_run_parser.add_argument(
        "--plan", required=True,
        help="fault plan: a preset name ('repro chaos presets') or a "
             "JSON plan file",
    )
    chaos_run_parser.add_argument(
        "--checkpoint-every", type=int, default=2,
        help="checkpoint cadence in supersteps (default 2)",
    )
    chaos_run_parser.add_argument("--format", choices=("text", "json"),
                                  default="text")

    san_parser = sub.add_parser(
        "san",
        help="runtime determinism sanitizer (graft-san): run K permuted "
             "message-delivery schedules and report the first divergence",
    )
    add_common(san_parser)
    san_parser.add_argument(
        "--schedules", type=int, default=3,
        help="number of permutation schedules to sweep (default 3)",
    )
    san_parser.add_argument("--format", choices=("text", "json"),
                            default="text")

    lint_parser = sub.add_parser(
        "lint",
        help="statically analyze vertex programs (graft-lint, GL001-GL025)",
    )
    lint_parser.add_argument(
        "targets", nargs="+", metavar="TARGET",
        help="module:Class, a module (all its Computation subclasses), "
             "or a .py file (analyzed without importing)",
    )
    lint_parser.add_argument("--format", choices=("text", "json", "sarif"),
                             default="text")
    lint_parser.add_argument(
        "--sarif", dest="format", action="store_const", const="sarif",
        help="shorthand for --format sarif (SARIF 2.1.0 for code scanning)",
    )
    lint_parser.add_argument(
        "--dataflow", dest="dataflow", action="store_true", default=True,
        help="run the CFG/interval dataflow, determinism, and "
             "interprocedural packs GL009-GL025 (default)",
    )
    lint_parser.add_argument(
        "--no-dataflow", dest="dataflow", action="store_false",
        help="restrict to the cheap pattern rules GL001-GL008",
    )
    lint_parser.add_argument(
        "--explain-cfg", action="store_true",
        help="instead of findings, render each method's control-flow "
             "graph and interval-stamped phase facts, plus the class "
             "call graph, callee summaries, and message-protocol table",
    )

    trace_parser = sub.add_parser(
        "trace", help="inspect exported trace directories"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    stats_parser = trace_sub.add_parser(
        "stats",
        help="per-worker storage stats (records, bytes, index coverage, "
             "compression) for one job's traces",
    )
    stats_parser.add_argument("job_id", help="job id the traces were written under")
    stats_parser.add_argument(
        "--dir", required=True,
        help="local directory holding exported traces "
             "(DebugRun.export_traces output)",
    )
    stats_parser.add_argument(
        "--root", default="/graft",
        help="trace root inside the exported tree (default: /graft)",
    )
    stats_parser.add_argument(
        "--json", action="store_true",
        help="emit the job summary as JSON (the debug server's "
             "/jobs/<id> schema, digest included)",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="serve a trace directory over HTTP (views, point queries, "
             "reproduce downloads, profiler endpoints)",
    )
    serve_parser.add_argument(
        "--dir", required=True,
        help="local directory holding exported traces "
             "(DebugRun.export_traces output)",
    )
    serve_parser.add_argument(
        "--root", default="/graft",
        help="trace root inside the exported tree (default: /graft)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8707,
        help="port to bind (0 picks a free one; default: 8707)",
    )
    serve_parser.add_argument(
        "--record-cache", type=int,
        default=None,
        help="process-wide decoded-record LRU budget shared by every "
             "client (default: 16x a single reader's budget)",
    )
    serve_parser.add_argument(
        "--block-cache", type=int,
        default=None,
        help="process-wide decompressed-block LRU budget (default: 8x a "
             "single reader's budget)",
    )

    validate_parser = sub.add_parser("validate", help="validate an input graph")
    validate_parser.add_argument("--dataset", default="soc-Epinions")
    validate_parser.add_argument("--vertices", type=int, default=None)
    validate_parser.add_argument("--seed", type=int, default=0)
    validate_parser.add_argument("--weighted", action="store_true",
                                 help="validate the weighted-undirected encoding")
    return parser


_COMMANDS = {
    "datasets": cmd_datasets,
    "premade": cmd_premade,
    "run": cmd_run,
    "debug": cmd_debug,
    "chaos": cmd_chaos,
    "san": cmd_san,
    "lint": cmd_lint,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "validate": cmd_validate,
}


def main(argv=None, out=print):
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
