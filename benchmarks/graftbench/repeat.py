"""Repeatability check: do two sets of runs of the same code agree?

    python3 benchmarks/graftbench/repeat.py --sets 2 --runs 10

Runs every workload ``--runs`` times per set, each run with another seed
and the workloads interleaved so drift spreads over all of them. For each
workload x end-to-end metric it prints each set's median and spread (the
distance between the first and third quartile as a share of the median),
how much worse the last set's median is than the first's, and the bound
from ``BENCHMARK.json``. Exits 1 when a median worsened by more than its
bound, a spread exceeds its bound (``setup_s`` excepted: only its median
is held), or any run reported a failed operation. Writes
``out/repeatability.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


def spread(values):
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least 2 sets of at least 2 runs")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    values = {}          # (workload, metric) -> one list of values per set
    failed_runs = []
    for set_index in range(args.sets):
        for run_index in range(args.runs):
            seed = set_index * args.runs + run_index + 1
            for workload in workloads:
                out = subprocess.run(
                    spec["command"] + [
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", "0",
                    ],
                    cwd=ROOT, check=True, capture_output=True, text=True,
                )
                result = json.loads(out.stdout.splitlines()[-1])
                if result["failed"] or not result["correct"]:
                    failed_runs.append((workload, seed, result["failed"]))
                for name, metric in result["metrics"].items():
                    sets = values.setdefault((workload, name), [[] for _ in range(args.sets)])
                    sets[set_index].append(metric["value"])
                print(f"set {set_index + 1} run {run_index + 1} {workload} seed {seed}: "
                      f"{result['attempted']} checked, {result['failed']} failed",
                      file=sys.stderr)

    rows = []
    breaches = [f"{w} seed {s}: {n} failed operations" for w, s, n in failed_runs]
    print(f"{'workload':<18} {'metric':<17} {'median 1':>12} {'median 2':>12} "
          f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = values[(workload, name)]
            medians = [statistics.median(s) for s in sets]
            spreads = [spread(s) for s in sets]
            change = (medians[-1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            row = {
                "workload": workload, "metric": name, "bound": bound,
                "medians": medians, "spreads": spreads, "worse_by": worse,
                "values": sets,
            }
            rows.append(row)
            if worse > bound:
                breaches.append(f"{workload} {name}: median worse by {worse:.3f} > {bound}")
            if name != "setup_s" and max(spreads) > bound:
                breaches.append(f"{workload} {name}: spread {max(spreads):.3f} > {bound}")
            print(f"{workload:<18} {name:<17} {medians[0]:>12.5g} {medians[-1]:>12.5g} "
                  f"{worse:>+9.3f} {spreads[0]:>9.3f} {spreads[-1]:>9.3f} {bound:>6.2f}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "repeatability.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"sets": args.sets, "runs": args.runs, "rows": rows,
                   "breaches": breaches}, handle, indent=1)
        handle.write("\n")
    for breach in breaches:
        print(f"BREACH: {breach}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
