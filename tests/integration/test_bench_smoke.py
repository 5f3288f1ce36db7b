"""Opt-in wrapper around scripts/bench_smoke.py.

Skipped by default so tier-1 stays fast and timing-free; run it with::

    RUN_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest -m bench_smoke \
        tests/integration/test_bench_smoke.py -q

(or run the script directly — it is the same code path).
"""

import json
import os
import sys

import pytest

pytestmark = [
    pytest.mark.bench_smoke,
    pytest.mark.skipif(
        not os.environ.get("RUN_BENCH_SMOKE"),
        reason="timing-sensitive benchmark; set RUN_BENCH_SMOKE=1 to run",
    ),
]

_SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "..", "scripts")


def test_bench_smoke_gates(tmp_path):
    sys.path.insert(0, os.path.abspath(_SCRIPTS))
    try:
        import bench_smoke
    finally:
        sys.path.pop(0)

    output = tmp_path / "BENCH_engine.json"
    status = bench_smoke.main(["--quick", "--output", str(output)])
    report = json.loads(output.read_text())
    assert report["gates"]["passed"], report["gates"]["failures"]
    assert status == 0
    assert set(report["throughput_calls_per_second"]) == {
        "serial", "processes",
    }
    assert report["transport"]["frame_bytes"] > 0
