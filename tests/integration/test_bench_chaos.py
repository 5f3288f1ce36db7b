"""Opt-in wrapper around scripts/bench_chaos.py.

Skipped by default so tier-1 stays fast and timing-free; run it with::

    RUN_BENCH_CHAOS=1 PYTHONPATH=src python -m pytest -m bench_chaos \
        tests/integration/test_bench_chaos.py -q

(or run the script directly — it is the same code path).
"""

import json
import os
import sys

import pytest

pytestmark = [
    pytest.mark.bench_chaos,
    pytest.mark.skipif(
        not os.environ.get("RUN_BENCH_CHAOS"),
        reason="timing-sensitive benchmark; set RUN_BENCH_CHAOS=1 to run",
    ),
]

_SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "..", "scripts")


def test_bench_chaos_gates(tmp_path):
    sys.path.insert(0, os.path.abspath(_SCRIPTS))
    try:
        import bench_chaos
    finally:
        sys.path.pop(0)

    output = tmp_path / "BENCH_chaos.json"
    status = bench_chaos.main(["--quick", "--output", str(output)])
    report = json.loads(output.read_text())
    assert report["gates"]["passed"], report["gates"]["failures"]
    assert status == 0
    assert set(report["backends"]) == {"serial", "processes"}
    for measured in report["backends"].values():
        assert measured["rollbacks"] == 2
