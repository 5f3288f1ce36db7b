"""Opt-in wrapper around scripts/bench_trace.py.

Skipped by default so tier-1 stays fast and timing-free; run it with::

    RUN_BENCH_TRACE=1 PYTHONPATH=src python -m pytest -m bench_trace \
        tests/integration/test_bench_trace.py -q

(or run the script directly — it is the same code path).
"""

import json
import os
import sys

import pytest

pytestmark = [
    pytest.mark.bench_trace,
    pytest.mark.skipif(
        not os.environ.get("RUN_BENCH_TRACE"),
        reason="timing-sensitive benchmark; set RUN_BENCH_TRACE=1 to run",
    ),
]

_SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "..", "scripts")


def test_bench_trace_gates(tmp_path):
    sys.path.insert(0, os.path.abspath(_SCRIPTS))
    try:
        import bench_trace
    finally:
        sys.path.pop(0)

    output = tmp_path / "BENCH_trace.json"
    status = bench_trace.main(["--quick", "--output", str(output)])
    report = json.loads(output.read_text())
    assert report["gates"]["passed"], report["gates"]["failures"]
    assert status == 0
    assert report["storage"]["index_coverage"] == 1.0
