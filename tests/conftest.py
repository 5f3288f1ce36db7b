"""Shared fixtures for the test suite."""

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.datasets import load_dataset, premade_graph
from repro.graph import GraphBuilder
from repro.simfs import SimFileSystem


def worker_crashes(*crashes):
    """A ``fault_injector=`` that kills worker ``w`` at the barrier entering
    superstep ``s``, once, for each ``(s, w)`` pair."""
    return FaultInjector(FaultPlan("worker-crashes", [
        FaultSpec("worker_crash", superstep=superstep, worker_id=worker_id)
        for superstep, worker_id in crashes
    ]))


@pytest.fixture
def fs():
    """A fresh simulated distributed file system."""
    return SimFileSystem()


@pytest.fixture
def triangle():
    """Undirected triangle 0-1-2."""
    return premade_graph("triangle")


@pytest.fixture
def petersen():
    return premade_graph("petersen")


@pytest.fixture
def small_bipartite():
    """A 3-regular bipartite graph with 60 vertices."""
    return load_dataset("bipartite-1M-3M", num_vertices=60, seed=5)


@pytest.fixture
def funnel_graph():
    """Many leaves feeding one hub with a single out-edge.

    Walker counts pile up on the hub and flow over one edge — the shape
    that makes the random-walk short-overflow bug fire deterministically.
    """
    builder = GraphBuilder(directed=True)
    for leaf in range(1, 60):
        builder.edge(leaf, 0)
    builder.edge(0, 99)
    builder.edge(99, 0)
    return builder.build()


@pytest.fixture
def asymmetric_triangle():
    """A preference 3-cycle: each vertex prefers the next, never mutual.

    Feeding this to MWM reproduces the paper's Scenario 4.3 infinite loop.
    """
    return (
        GraphBuilder(directed=True)
        .edge("u", "v", 10.0).edge("v", "u", 1.0)
        .edge("v", "w", 10.0).edge("w", "v", 1.0)
        .edge("w", "u", 10.0).edge("u", "w", 1.0)
        .build()
    )
