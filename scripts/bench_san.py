"""Sanitizer-overhead benchmark: graft-san sweeps vs. plain runs, one JSON.

Runs the graft-san permutation sanitizer on a clean workload and a seeded
order-sensitive one, and writes ``BENCH_san.json`` with the numbers CI
gates on.

Gates (exit status 1 when violated):

- the clean workload must come back deterministic (byte-identical
  order-insensitive digests across every schedule) on every backend
  measured, and the buggy workload must diverge;
- a K-schedule sweep runs the job K+1 times and normalizes/digests each
  trace, so the honest cost is about ``schedules + 1`` times one run;
  the per-run overhead (sweep time over ``(K+1) x`` one baseline run)
  must stay under ``OVERHEAD_CEILING``.

Usage::

    PYTHONPATH=src python scripts/bench_san.py [--output BENCH_san.json]
    PYTHONPATH=src python scripts/bench_san.py --quick   # smaller graph

Also runnable as an opt-in pytest (see tests/integration/test_bench_san.py).
"""

import argparse
import json
import sys
import time

from repro.algorithms import BuggyLabelPropagation, LabelPropagation
from repro.datasets import load_dataset
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.sanitizer import run_sanitizer
from repro.graph import to_undirected
from repro.pregel import EXECUTOR_NAMES
from repro.simfs.filesystem import SimFileSystem

#: A K-schedule sweep executes the job K+1 times plus a digest
#: normalization pass per run: one canonical row walk (every stored row cut
#: into its field texts, no record built) that decodes each non-empty
#: ``incoming`` slot, re-sorts it and re-writes it when the order moved. On
#: small workloads that walk still rivals the run itself — engine
#: supersteps are cheap, parsing every capture-all row is not — so the
#: honest per-run cost sits above 1x; 4.5x bounds it while leaving room
#: for timer noise.
OVERHEAD_CEILING = 4.5

SEED = 11
ITERATIONS = 8
NUM_WORKERS = 4
SCHEDULES = 3
ROUNDS = 2


def _plain_run_seconds(graph, executor):
    """Wall time of one plain captured debug run (the unit of comparison)."""
    started = time.perf_counter()
    run = debug_run(
        lambda: LabelPropagation(iterations=ITERATIONS),
        graph,
        CaptureAllActiveConfig(),
        filesystem=SimFileSystem(),
        lint=False,
        seed=SEED,
        num_workers=NUM_WORKERS,
        executor=executor,
    )
    elapsed = time.perf_counter() - started
    assert run.ok, run.failure
    return elapsed


def _measure(graph, executor, rounds=ROUNDS):
    """Best-of-N sweep timings for one backend; (report dict, failures)."""
    failures = []
    best_sweep = best_plain = None
    last = None
    for _ in range(rounds):
        plain = _plain_run_seconds(graph, executor)
        best_plain = plain if best_plain is None else min(best_plain, plain)
        started = time.perf_counter()
        report = run_sanitizer(
            lambda: LabelPropagation(iterations=ITERATIONS),
            graph,
            schedules=SCHEDULES,
            seed=SEED,
            num_workers=NUM_WORKERS,
            executor=executor,
        )
        sweep_seconds = time.perf_counter() - started
        if not report.ok:
            failures.append(f"{executor}: sweep failed: {report.failures}")
            return None, failures
        if not report.deterministic:
            failures.append(
                f"{executor}: clean label propagation diverged: "
                + report.summary()
            )
            return None, failures
        best_sweep = (
            sweep_seconds if best_sweep is None
            else min(best_sweep, sweep_seconds)
        )
        last = report
    runs_per_sweep = SCHEDULES + 1
    per_run = best_sweep / runs_per_sweep
    ratio = per_run / best_plain if best_plain else float("inf")
    return {
        "plain_run_seconds": round(best_plain, 4),
        "sweep_seconds": round(best_sweep, 4),
        "runs_per_sweep": runs_per_sweep,
        "per_run_overhead_ratio": round(ratio, 3),
        "inboxes_permuted": last.inboxes_permuted,
        "schedules": list(last.schedules),
    }, failures


def run_bench(num_vertices=1_000, rounds=ROUNDS):
    """Run all measurements; return (report dict, list of gate failures)."""
    graph = to_undirected(
        load_dataset("web-BS", num_vertices=num_vertices, seed=SEED)
    )
    failures = []
    backends = {}
    for executor in EXECUTOR_NAMES:
        measured, measure_failures = _measure(graph, executor, rounds)
        failures.extend(measure_failures)
        if measured is None:
            continue
        backends[executor] = measured
        if measured["per_run_overhead_ratio"] > OVERHEAD_CEILING:
            failures.append(
                f"{executor}: each sanitizer run costs "
                f"{measured['per_run_overhead_ratio']}x a plain run; "
                f"ceiling is {OVERHEAD_CEILING}x"
            )

    # Sensitivity check: the seeded race must be caught (serial is enough;
    # the digest is backend-independent, as the integration suite pins).
    buggy = run_sanitizer(
        lambda: BuggyLabelPropagation(iterations=ITERATIONS),
        graph,
        schedules=SCHEDULES,
        seed=SEED,
        num_workers=NUM_WORKERS,
    )
    detected = buggy.ok and not buggy.deterministic
    if not detected:
        failures.append(
            "sanitizer missed the seeded order-sensitivity bug "
            f"(BuggyLabelPropagation): {buggy.summary()}"
        )

    report = {
        "benchmark": "graft_san",
        "workload": {
            "algorithm": f"LabelPropagation(iterations={ITERATIONS})",
            "buggy_algorithm": f"BuggyLabelPropagation(iterations={ITERATIONS})",
            "dataset": "web-BS (undirected)",
            "num_vertices": graph.num_vertices,
            "num_directed_edges": graph.num_edges,
            "num_workers": NUM_WORKERS,
            "seed": SEED,
            "schedules": SCHEDULES,
            "rounds": rounds,
        },
        "backends": backends,
        "sensitivity": {
            "detected": detected,
            "divergent_schedules": list(buggy.divergent_schedules),
            "first_divergence": (
                buggy.first_divergence.summary()
                if buggy.first_divergence is not None
                else None
            ),
        },
        "gates": {
            "overhead_ceiling": OVERHEAD_CEILING,
            "passed": not failures,
            "failures": failures,
        },
        "notes": (
            "per_run_overhead_ratio divides the whole sweep's wall time by "
            "(schedules + 1) runs and compares against a plain captured "
            "debug run of the same job timed the same way — it measures "
            "what the permutation hook, the lint pre-flight, and digest "
            "normalization add per run, best-of-N. The sensitivity block "
            "shows the sweep catching the seeded last-wins tie-break. "
            "See docs/determinism.md."
        ),
    }
    return report, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_san.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller graph and fewer rounds (CI smoke, noisier numbers)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, failures = run_bench(num_vertices=400, rounds=2)
    else:
        report, failures = run_bench()

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(json.dumps(report, indent=2, sort_keys=True))
    if failures:
        print("\nGATE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
