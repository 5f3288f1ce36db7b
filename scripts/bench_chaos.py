"""Recovery-overhead benchmark: chaos runs vs. clean runs, one JSON.

Runs the chaos recovery-verification harness for a crash-heavy preset and
a clean control on the same workload, and writes ``BENCH_chaos.json`` with
the numbers CI gates on.

Gates (exit status 1 when violated):

- every measured chaos run must come back ``ok`` — recovery reproduced
  the fault-free vertex values, aggregator state, and canonical trace
  digest bit-identically (every run steps in one process, under the
  serial backend);
- the injected run (two rollbacks, several supersteps re-executed, a
  checkpoint written every other superstep) may cost at most
  ``OVERHEAD_CEILING``x the fault-free run of the same job. Rollback
  re-execution roughly doubles the superstep work on this plan, so the
  ceiling is about "recovery does not cost more than the work it redoes".

Usage::

    PYTHONPATH=src python scripts/bench_chaos.py [--output BENCH_chaos.json]
    PYTHONPATH=src python scripts/bench_chaos.py --quick   # smaller graph

Also runnable as an opt-in pytest (see tests/integration/test_bench_chaos.py).
"""

import argparse
import json
import sys

from repro.algorithms import PageRank
from repro.chaos import run_chaos
from repro.datasets import load_dataset

#: The preset the overhead gate measures: two crashes -> two rollbacks.
PLAN = "worker-crash"

#: Injected run may cost at most this many times the fault-free run.
#: The worker-crash plan re-executes roughly half the supersteps twice and
#: adds a checkpoint write every other barrier, so ~2x is the honest cost
#: of the redone work; 3.5x leaves headroom for timer noise on small runs.
OVERHEAD_CEILING = 3.5

SEED = 11
ITERATIONS = 8
NUM_WORKERS = 4
ROUNDS = 2


def _measure(graph, rounds=ROUNDS):
    """Best-of-N timings; returns (report dict, last run)."""
    best_base = best_injected = None
    last = None
    for _ in range(rounds):
        report = run_chaos(
            lambda: PageRank(iterations=ITERATIONS),
            graph,
            PLAN,
            seed=SEED,
            num_workers=NUM_WORKERS,
        )
        if not report.ok:
            return None, report
        base, injected = report.baseline_seconds, report.injected_seconds
        best_base = base if best_base is None else min(best_base, base)
        best_injected = (
            injected if best_injected is None else min(best_injected, injected)
        )
        last = report
    ratio = best_injected / best_base if best_base else float("inf")
    return {
        "baseline_seconds": round(best_base, 4),
        "injected_seconds": round(best_injected, 4),
        "overhead_ratio": round(ratio, 3),
        "rollbacks": last.rollbacks,
        "recovered_supersteps": last.recovered_supersteps,
        "faults_fired": last.faults_fired,
    }, last


def run_bench(num_vertices=1_000, rounds=ROUNDS):
    """Run all measurements; return (report dict, list of gate failures)."""
    graph = load_dataset("web-BS", num_vertices=num_vertices, seed=SEED)
    failures = []
    backends = {}
    measured, last = _measure(graph, rounds)
    if measured is None:
        failures.append(
            "chaos run failed recovery verification: "
            + "; ".join(last.failures)
        )
    else:
        backends["serial"] = measured
        if measured["overhead_ratio"] > OVERHEAD_CEILING:
            failures.append(
                f"injected run costs {measured['overhead_ratio']}x the "
                f"fault-free run; ceiling is {OVERHEAD_CEILING}x"
            )

    report = {
        "benchmark": "chaos_recovery",
        "workload": {
            "algorithm": f"PageRank(iterations={ITERATIONS})",
            "dataset": "web-BS",
            "num_vertices": graph.num_vertices,
            "num_directed_edges": graph.num_edges,
            "num_workers": NUM_WORKERS,
            "seed": SEED,
            "plan": PLAN,
            "rounds": rounds,
        },
        "backends": backends,
        "gates": {
            "overhead_ceiling": OVERHEAD_CEILING,
            "passed": not failures,
            "failures": failures,
        },
        "notes": (
            "overhead_ratio compares the injected run (checkpointing on, "
            "two crashes, rollback + re-execution) against the fault-free "
            "run of the same debugged job; both timings come from the "
            "engine's own metrics, best-of-N. Every measured run also "
            "passed the bit-identical recovery checks. "
            "See docs/fault-tolerance.md."
        ),
    }
    return report, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_chaos.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller graph and fewer rounds (CI smoke, noisier numbers)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        report, failures = run_bench(num_vertices=500, rounds=2)
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
