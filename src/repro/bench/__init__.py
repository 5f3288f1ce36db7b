"""Benchmark harness: regenerates the paper's tables and figures.

The paper automated its performance study with the 3X experiment manager;
this package plays that role: :mod:`repro.bench.sweep` runs repetition
sweeps with mean/stddev, :mod:`repro.bench.overhead` runs the Figure 7/8
experiment grid (algorithm x dataset x DebugConfig, normalized against
no-debug), and :mod:`repro.bench.render` prints the tables and bar charts.
The runnable entry points live in ``benchmarks/``.
"""

from repro.common.lazy import lazy_exports

TYPE_CHECKING = False

if TYPE_CHECKING:
    from repro.bench.overhead import (
        ExperimentSpec,
        OverheadCell,
        max_overhead_by_config,
        run_overhead_grid,
    )
    from repro.bench.render import render_headlines, render_overhead_bars, render_table
    from repro.bench.sweep import SweepStats, repeat_timed

__all__ = [
    "ExperimentSpec",
    "OverheadCell",
    "max_overhead_by_config",
    "run_overhead_grid",
    "render_headlines",
    "render_overhead_bars",
    "render_table",
    "SweepStats",
    "repeat_timed",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.bench.overhead": (
        "ExperimentSpec", "OverheadCell", "max_overhead_by_config",
        "run_overhead_grid",
    ),
    "repro.bench.render": (
        "render_headlines", "render_overhead_bars", "render_table",
    ),
    "repro.bench.sweep": ("SweepStats", "repeat_timed"),
})
