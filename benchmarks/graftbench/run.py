"""graftbench: one repeatable benchmark of Graft, end to end and per layer.

    python3 benchmarks/graftbench/run.py --workload <name> --seed <int> \\
        --seconds <int> --trace <0|1>

Builds the workload's inputs from the seed, runs the interleaved phases
(see ``harness.py``), checks every output, prints every metric by name
with its unit and, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer``
metrics with ``--trace 1``. ``--quick`` runs tiny inputs for one cycle
(for the self-test; its numbers mean nothing).

The process pins its own environment (``PYTHONHASHSEED=0``, bytecode and
temporary files under ``out/``) and finds ``src/`` itself, so the command
needs neither environment variables nor a working directory.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT = os.path.join(HERE, "out")


def pinned_environment():
    """The environment every graftbench process runs under."""
    tmp = os.path.join(OUT, "tmp")
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"),
        TMPDIR=tmp,
        REPRO_SPOOL_DIR=tmp,
    )
    # Bytecode is cached (under out/) so import time is the warm import a
    # user sees, not a recompile of the tree on every sample.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def measure_and_report(args):
    """Run the workload, print every metric and, last, the result line."""
    from harness import Run

    run = Run(args.workload, args.seed, args.seconds, args.trace, args.quick, OUT)
    end_to_end, per_layer = run.execute()

    print(f"graftbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' quick' if args.quick else ''}")
    for key, value in run.context.items():
        print(f"  context {key} = {value}")
    for title, metrics in (("end-to-end", end_to_end), ("per-layer", per_layer)):
        print(f"  {title}:")
        for name, (value, unit) in metrics.items():
            print(f"    {name:<32} {value:>16.6f} {unit}")
    print(f"  checked operations: {run.attempted} attempted, {run.failed} failed")
    if run.context["noisy"]:
        print("  NOISY: a noise.* field exceeds 0.15; the run is kept, not retried")

    chosen = per_layer if args.trace else end_to_end
    with open(os.path.join(OUT, f"{args.workload}.run.json"), "w",
              encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "context": run.context, "samples": run.samples,
            "traced_samples": run.traced,
        }, handle, indent=1)
        handle.write("\n")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"graftbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    env = pinned_environment()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if any(os.environ.get(key) != value for key, value in env.items()) or (
        "PYTHONDONTWRITEBYTECODE" in os.environ or "PYTHONPATH" in os.environ
    ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + (sys.argv[1:] if argv is None else list(argv)), env)

    sys.path.insert(0, SRC)
    from harness import WORKLOADS, stop_children

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    try:
        measure_and_report(args)
    finally:
        # On every path out, a failed reference run or a crash too.
        stop_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
