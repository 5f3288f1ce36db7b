"""Self-test of the graftbench harness (not in tier-1 ``testpaths``).

    python3 -m pytest benchmarks/graftbench/test_graftbench.py

Drives ``run.py --quick`` (tiny inputs, one cycle; the numbers are never
reported) and checks the contract between ``BENCHMARK.json`` and what the
command prints.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def quick(workload, seed, trace):
    """One quick run: ``(result line, run.json document, human-readable text)``."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--quick"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
    )
    lines = out.stdout.splitlines()
    with open(os.path.join(HERE, "out", f"{workload}.run.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    return json.loads(lines[-1]), document, "\n".join(lines[:-1])


@pytest.fixture(scope="module")
def runs():
    return {
        (workload, trace): quick(workload, 1, trace)
        for workload in WORKLOADS for trace in (0, 1)
    }


def test_spec_is_within_the_declared_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/graftbench"]
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])


def test_workload_table_matches_the_spec():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        from workloads import WORKLOADS as table
    finally:
        del sys.path[:2]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in table.values()
    }


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(runs, trace, group):
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    for workload in WORKLOADS:
        result, _, text = runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        for name, unit in declared.items():
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                             text, re.MULTILINE), (workload, name)
    for metric in SPEC["end_to_end"]:
        assert all(runs[(w, 0)][0]["metrics"][metric["name"]]["value"] > 0
                   for w in WORKLOADS)


def test_environment_is_pinned_and_recorded(runs):
    for workload in WORKLOADS:
        context = runs[(workload, 0)][1]["context"]
        assert context["hashseed"] == "0"
        assert {"python", "nproc", "affinity", "loadavg_start", "loadavg_end",
                "noisy"} <= set(context)


def test_seed_changes_the_inputs_and_nothing_else(runs):
    workload = "gc-bip-captureall"
    first, first_doc, _ = runs[(workload, 0)]
    again, again_doc, _ = quick(workload, 1, 0)
    other, other_doc, _ = quick(workload, 2, 0)
    assert again_doc["context"]["input_digest"] == first_doc["context"]["input_digest"]
    assert other_doc["context"]["input_digest"] != first_doc["context"]["input_digest"]
    # Same seed, same program: every exact count repeats.
    assert again["metrics"]["trace_bytes"] == first["metrics"]["trace_bytes"]
    assert again["attempted"] == first["attempted"]
    # Another seed only regenerates the graph: its shape is a workload constant.
    assert other_doc["context"]["input_shape"] == first_doc["context"]["input_shape"]


#: Runs its arguments as a command under a sub-reaper: a process that outlives
#: the command is reparented here instead of to init, so it can be counted.
_ORPHAN_COUNTER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
command = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print(command.returncode, orphans)
"""


def test_no_process_outlives_the_run():
    """``executor="processes"`` starts a resource tracker; the run must end it."""
    out = subprocess.run(
        [sys.executable, "-c", _ORPHAN_COUNTER, sys.executable,
         os.path.join(HERE, "run.py"), "--workload", "sssp-epin-procs",
         "--seed", "1", "--trace", "0", "--quick"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
    )
    assert out.stdout.split() == ["0", "0"], out.stderr[-2000:]


def test_stop_children_ends_the_tracker_and_any_stray_child():
    script = (
        "import subprocess, sys; sys.path.insert(0, sys.argv[1]); import harness\n"
        "from multiprocessing import resource_tracker\n"
        "resource_tracker.ensure_running()\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)'])\n"
        "assert len(harness.child_pids()) == 2\n"
        "harness.stop_children()\n"
        "assert harness.child_pids() == []\n"
        "harness.stop_children()\n"
    )
    subprocess.run(
        [sys.executable, "-c", script, HERE],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        check=True, timeout=60,
    )


def test_span_file_parses_and_every_parent_exists(runs):
    for workload in WORKLOADS:
        with open(os.path.join(HERE, "out", f"{workload}.spans.json"),
                  encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        ids = {span["id"] for span in spans}
        assert spans and len(ids) == len(spans)
        for span in spans:
            assert span["parent"] is None or span["parent"] in ids
            assert span["end"] >= span["start"]
            assert span["workload"] == workload
        assert {"phase.debug", "engine.run", "trace.write"} <= {s["name"] for s in spans}
