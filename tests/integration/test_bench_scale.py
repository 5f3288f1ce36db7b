"""Opt-in wrapper around scripts/bench_scale.py.

Skipped by default so tier-1 stays fast; run it with::

    RUN_BENCH_SCALE=1 PYTHONPATH=src python -m pytest -m bench_scale \
        tests/integration/test_bench_scale.py -q

(or run the script directly — it is the same code path). The wrapper runs
the --quick variant (~100K vertices); the checked-in BENCH_scale.json is
produced by the full 1M-vertex run of the same script.
"""

import json
import os
import sys

import pytest

pytestmark = [
    pytest.mark.bench_scale,
    pytest.mark.skipif(
        not os.environ.get("RUN_BENCH_SCALE"),
        reason="out-of-core scale benchmark; set RUN_BENCH_SCALE=1 to run",
    ),
]

_SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "..", "scripts")


def test_bench_scale_gates(tmp_path):
    sys.path.insert(0, os.path.abspath(_SCRIPTS))
    try:
        import bench_scale
    finally:
        sys.path.pop(0)

    output = tmp_path / "BENCH_scale.json"
    status = bench_scale.main(["--quick", "--output", str(output)])
    report = json.loads(output.read_text())
    assert report["gates"]["passed"], report["gates"]["failures"]
    assert status == 0
    assert report["fidelity"]["matched"]
    measured = report["measured"]
    assert measured["compute_calls"] >= bench_scale.QUICK_VERTICES * 2
    assert measured["store_bytes_loaded"] > 0
    assert measured["peak_memory_bytes"] < measured["estimated_in_memory_bytes"]
    # Timed untraced, so faster than the pass that measured the heap.
    assert 0 < measured["wall_seconds"] < measured["traced_wall_seconds"]
    ratio = report["throughput_ratio"]
    assert ratio["spill_over_memory"] >= bench_scale.THROUGHPUT_RATIO_FLOOR
    assert ratio["spill_calls_per_second"] == measured["calls_per_second"]
