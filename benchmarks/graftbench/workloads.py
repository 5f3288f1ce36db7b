"""The four graftbench workloads: sizes, loop counts and job recipes.

Everything that decides how much work a run does is a constant in
``WORKLOADS`` — input size, the loop counts ``K`` of the cheap phases, the
number of sampled queries — so a run does the same work on every commit.
``--seed`` reaches only :func:`build_graph` (the dataset generator) and
the query/replay sampling in ``phases.py``; the engine's own seed is the
constant :data:`ENGINE_SEED`.
"""

import functools
import os
from dataclasses import dataclass

from repro.algorithms import GCMaster, GraphColoring, PageRank, ShortestPaths
from repro.datasets import load_dataset, make
from repro.graft import CaptureAllActiveConfig, DebugConfig
from repro.graft.config import standard_configs
from repro.pregel import CheckpointConfig, MasterComputation, MinCombiner
from repro.simfs.filesystem import SimFileSystem

ENGINE_SEED = 11

#: All load comes from this one process; never more workers than cores.
NUM_WORKERS = min(2, len(os.sched_getaffinity(0)))


class NoMaster(MasterComputation):
    """What replays the master contexts of a run that had no master."""

    def master_compute(self, master_ctx):
        pass


@dataclass(frozen=True)
class Job:
    """One workload bound to one generated graph."""

    factory: object            # zero-argument Computation factory
    config: object             # the DebugConfig of the debugged run
    engine_kwargs: object      # () -> fresh PregelEngine keyword arguments
    master_factory: object = NoMaster


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    vertices: int
    quick_vertices: int
    make_job: object           # (graph) -> Job
    #: Passes of the seeded GUI script per inspect sample, and of the
    #: replay script per reproduce sample: fixed so a sample lasts long
    #: enough to time, never adapted to the machine.
    inspect_loops: int
    reproduce_loops: int
    #: Captured (vertex, superstep) pairs sampled for point queries/replays.
    points: int
    streamed: bool = False
    #: Size of the memory-plane twin whose digest the spill plane must match.
    twin_vertices: int = 0


def build_graph(workload, seed, vertices):
    """The workload's input, generated from the seed and nothing else."""
    if workload.streamed:
        return make(workload.dataset, scale="full", num_vertices=vertices, seed=seed)
    return load_dataset(workload.dataset, seed=seed, num_vertices=vertices)


def _base_kwargs(executor="serial", **extra):
    return dict(seed=ENGINE_SEED, num_workers=NUM_WORKERS, executor=executor, **extra)


def mid_rank_ids(graph, out_degree=11, count=10):
    """Ten mid-rank vertices of web-BS's mean out-degree.

    Mid-rank ids avoid the Zipf hubs (as bench_fig7_overhead does); fixing
    the out-degree keeps DC-full's capture set (ids + neighbours) the same
    size on every seed, so seeds change the input but not the work.
    """
    ids = list(graph.vertex_ids())
    ids = ids[len(ids) // 4:] + ids[:len(ids) // 4]
    chosen = [v for v in ids if graph.out_degree(v) == out_degree][:count]
    return chosen + [v for v in ids if v not in chosen][:count - len(chosen)]


def _pr_web_dcfull(graph):
    return Job(
        factory=functools.partial(PageRank, iterations=10),
        config=standard_configs(mid_rank_ids(graph))["DC-full"],
        engine_kwargs=_base_kwargs,
    )


def _gc_bip_captureall(graph):
    return Job(
        factory=GraphColoring,
        config=CaptureAllActiveConfig(),
        engine_kwargs=lambda: _base_kwargs(master=GCMaster()),
        master_factory=GCMaster,
    )


class _CaptureFixed(DebugConfig):
    """Three fixed ids, no neighbours: capture does almost nothing."""

    def vertices_to_capture(self):
        return (0, 1, 17)


def spill_kwargs(store="spill"):
    """Engine arguments of ``pr-bip-spill`` (and of its memory-plane twin)."""
    spill = dict(memory_limit=4 << 20, num_partitions=32) if store == "spill" else {}
    return _base_kwargs(
        store=store,
        checkpoint_config=CheckpointConfig(SimFileSystem(), every_n_supersteps=2),
        **spill,
    )


def _pr_bip_spill(graph):
    return Job(
        factory=functools.partial(PageRank, iterations=3),
        config=_CaptureFixed(),
        engine_kwargs=spill_kwargs,
    )


def _sssp_epin_procs(graph):
    # Vertex 0 is the biggest hub, so every seed's run is still active at
    # superstep 5; the cap makes every seed run exactly six supersteps
    # (uncapped runs converge after 6-8, which moved plain_run_s by ±10%).
    return Job(
        factory=functools.partial(ShortestPaths, 0),
        config=standard_configs(range(10))["DC-msg"],
        engine_kwargs=lambda: _base_kwargs(
            "processes", combiner=MinCombiner(), max_supersteps=6
        ),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pr-web-dcfull",
            why="Figure 7's DC-full cell: every message and value is checked and a "
                "record built per computed vertex, so graft.instrumenter dominates",
            dataset="web-BS", vertices=800, quick_vertices=200,
            make_job=_pr_web_dcfull,
            inspect_loops=1, reproduce_loops=6, points=40,
        ),
        Workload(
            name="gc-bip-captureall",
            why="capture-all with no constraints: graft.trace encode/write dominates "
                "and the big trace makes reader, views, router and replay do real work",
            dataset="bipartite-1M-3M", vertices=600, quick_vertices=120,
            make_job=_gc_bip_captureall,
            inspect_loops=1, reproduce_loops=4, points=60,
        ),
        Workload(
            name="pr-bip-spill",
            why="streamed input on the spill plane with checkpoints: pregel.store paging "
                "and run-file delivery dominate, capture is idle (no change predicted)",
            dataset="bipartite-1M-3M", vertices=2000, quick_vertices=400,
            make_job=_pr_bip_spill,
            inspect_loops=20, reproduce_loops=30, points=12,
            streamed=True, twin_vertices=800,
        ),
        Workload(
            name="sssp-epin-procs",
            why="sparse supersteps on forked workers: per-superstep fork, frame "
                "pack/unpack and shm transport dominate; messages checked, none captured",
            dataset="soc-Epinions", vertices=3000, quick_vertices=400,
            make_job=_sssp_epin_procs,
            inspect_loops=100, reproduce_loops=400, points=12,
        ),
    )
}
