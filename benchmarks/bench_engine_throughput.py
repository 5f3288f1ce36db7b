"""Substrate benchmark: raw engine throughput.

Not a paper figure — a sanity benchmark for the Pregel substrate itself,
so overhead percentages in the Figure 7 reproduction can be read against a
known baseline (compute calls/second and messages/second of the simulator).
"""

from bench_helpers import GRID_SEED
from repro.algorithms import PageRank
from repro.datasets import load_dataset
from repro.pregel import PregelEngine, SumCombiner


def _run(combiner=None, num_vertices=2000, iterations=5):
    graph = load_dataset("web-BS", num_vertices=num_vertices, seed=GRID_SEED)
    engine = PregelEngine(
        lambda: PageRank(iterations=iterations),
        graph,
        combiner=combiner,
        seed=GRID_SEED,
    )
    return engine.run()


def test_pagerank_throughput(benchmark):
    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    calls_per_second = (
        result.metrics.total_compute_calls / result.metrics.total_seconds
    )
    print()
    print(
        "engine throughput: "
        f"{calls_per_second:,.0f} compute calls/s, "
        f"{result.metrics.total_messages / result.metrics.total_seconds:,.0f} msgs/s"
    )
    assert result.converged
    assert calls_per_second > 10_000  # sanity floor for the simulator


def test_pagerank_with_combiner(benchmark):
    result = benchmark.pedantic(
        lambda: _run(combiner=SumCombiner()), rounds=3, iterations=1
    )
    assert result.metrics.total_messages_combined > 0


def test_superstep_scaling(benchmark):
    """Runtime scales linearly-ish in supersteps (no leak across barriers)."""

    def run_both():
        short = _run(iterations=3)
        long = _run(iterations=12)
        return short.metrics.total_seconds, long.metrics.total_seconds

    short_time, long_time = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert long_time < short_time * 12
