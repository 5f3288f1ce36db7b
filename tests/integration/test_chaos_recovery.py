"""The chaos acceptance sweep: every shipped preset × every backend.

This is the subsystem's reason to exist, stated as a test: for each
preset fault plan, the injected run must recover (rollback + re-execute)
and finish with final vertex values, aggregator state, and canonical
trace digest **bit-identical** to the undisturbed run — under the serial
and processes executors alike. Deselect the sweep with
``-m 'not chaos'`` when iterating on unrelated code.
"""

import pytest

from repro.algorithms import PageRank
from repro.chaos import PRESET_PLANS, preset_names, run_chaos
from repro.datasets import load_dataset
from repro.pregel.runtime import EXECUTOR_NAMES

pytestmark = pytest.mark.chaos


def _graph():
    return load_dataset("web-BS", num_vertices=40, seed=11)


def _factory():
    return PageRank(iterations=8)


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
@pytest.mark.parametrize("preset", preset_names())
def test_preset_recovers_bit_identically(preset, executor):
    report = run_chaos(
        _factory, _graph(), PRESET_PLANS[preset],
        seed=11, num_workers=4, executor=executor,
    )
    assert report.ok, f"{preset} on {executor}:\n{report.summary()}"
    assert report.faults_fired > 0
    assert report.injected_digest == report.baseline_digest


def test_presets_exercise_recovery_paths():
    """Sanity on the serial sweep: the presets really do what they claim."""
    reports = {
        preset: run_chaos(
            _factory, _graph(), PRESET_PLANS[preset],
            seed=11, num_workers=4,
        )
        for preset in preset_names()
    }
    assert all(report.ok for report in reports.values())
    # Crashes roll back; the double-crash preset rolls back twice.
    assert reports["worker-crash"].rollbacks == 2
    assert reports["checkpoint-corruption"].checkpoints_skipped >= 1
    # Torn-write presets capture the crash-moment filesystem and the
    # harness proved the readers still open it.
    assert reports["torn-trace-tail"].snapshots_checked >= 1
    assert reports["stale-sidecar"].snapshots_checked >= 1
    # The transient preset fires for several files (writers retried them all).
    assert reports["transient-io"].faults_fired > 2
