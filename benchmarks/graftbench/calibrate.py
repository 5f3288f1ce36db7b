"""The machine-speed reference every timed sample is paired with.

This VM's speed moves by tens of percent over minutes (steal, neighbours,
throttling), and it moves every phase alike: PR 11's absolute times
differed by 10-13% between two runs of the same code while its paired
debug/plain ratio held to 1-4%. So a sample is never reported alone.
:func:`reference_work` is a fixed piece of interpreter work of the kinds
the program does (method calls, dict and list traffic, float arithmetic,
JSON and zlib); it runs immediately before and after every timed sample,
and the sample is scaled by ``NOMINAL_S / mean(before, after)``: what the
phase would have taken had the machine run the reference at its nominal
speed throughout. The raw seconds are kept beside it.
"""

import gc
import json
import time
import zlib

#: What :func:`reference_work` takes on the 2-core reference VM when nothing
#: disturbs it (minimum over a few hundred calls).
NOMINAL_S = 0.028


class _Cell:
    __slots__ = ("value", "edges")

    def __init__(self, value, edges):
        self.value = value
        self.edges = edges

    def step(self, inbox):
        self.value = 0.15 + 0.85 * sum(inbox)
        return self.value / len(self.edges)


def reference_work(size=2500, rounds=8):
    cells = {
        i: _Cell(1.0, [(i * 7 + k * k) % size for k in range(1, 6)])
        for i in range(size)
    }
    inbox = {i: [] for i in cells}
    for _ in range(rounds):
        outbox = {i: [] for i in cells}
        for i, cell in cells.items():
            share = cell.step(inbox[i])
            for target in cell.edges:
                outbox[target].append(share)
        inbox = outbox
    rows = [
        {"id": i, "value": cell.value, "edges": cell.edges}
        for i, cell in cells.items()
    ]
    blob = zlib.compress(json.dumps(rows, sort_keys=True).encode("utf-8"))
    return len(json.loads(zlib.decompress(blob)))


def reference_seconds():
    """Seconds one :func:`reference_work` takes now.

    The collector is off meanwhile: the work makes no cycles, and a
    collection triggered by its allocations would charge it for the size
    of the benchmark's own heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
