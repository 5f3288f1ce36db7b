"""Unit tests for the chaos recovery-verification harness."""

from repro.algorithms import PageRank
from repro.chaos import FaultPlan, FaultSpec, run_chaos
from repro.datasets import premade_graph
from repro.pregel import Computation


def petersen():
    return premade_graph("petersen")


def factory():
    return PageRank(iterations=5)


class TestRunChaos:
    def test_empty_plan_passes_all_checks(self):
        report = run_chaos(
            factory, petersen(),
            FaultPlan(name="quiet", faults=()),
            seed=3, num_workers=2, expect_faults=False,
        )
        assert report.ok, report.failures
        assert report.rollbacks == 0
        assert report.faults_fired == 0
        assert report.baseline_digest == report.injected_digest
        assert report.baseline_digest  # non-empty: traces were compared

    def test_single_crash_recovers_bit_identically(self):
        report = run_chaos(
            factory, petersen(),
            FaultPlan(name="one-crash", faults=(
                FaultSpec(kind="worker_crash", superstep=3, worker_id=1),
            )),
            seed=3, num_workers=2,
        )
        assert report.ok, report.failures
        assert report.rollbacks == 1
        assert report.recovered_supersteps >= 1
        assert report.fault_events[0]["kind"] == "worker_crash"
        assert report.injected_digest == report.baseline_digest

    def test_plan_that_never_matches_fails_the_fired_check(self):
        report = run_chaos(
            factory, petersen(),
            FaultPlan(name="past-halt", faults=(
                FaultSpec(kind="worker_crash", superstep=500, worker_id=0),
            )),
            seed=3, num_workers=2,
        )
        assert not report.ok
        assert any("no faults" in failure for failure in report.failures)
        # ... unless the caller says the plan is aimed past the halt.
        report = run_chaos(
            factory, petersen(),
            FaultPlan(name="past-halt", faults=(
                FaultSpec(kind="worker_crash", superstep=500, worker_id=0),
            )),
            seed=3, num_workers=2, expect_faults=False,
        )
        assert report.ok, report.failures

    def test_report_shapes(self):
        report = run_chaos(
            factory, petersen(),
            FaultPlan(name="one-crash", faults=(
                FaultSpec(kind="worker_crash", superstep=3, worker_id=0),
            )),
            seed=3, num_workers=2,
        )
        data = report.to_dict()
        assert data["ok"] is True
        assert data["plan"] == "one-crash"
        assert data["rollbacks"] == 1
        summary = report.summary()
        assert "OK" in summary
        assert "== baseline" in summary

    def test_a_diverged_trace_names_where_it_first_diverged(self):
        class Forgetful(Computation):
            """Vertex 0's superstep-2 value is how often that call has
            run in this process: 1 in the clean run, then 2 and — the
            crash re-executes it — 3 in the injected one."""

            calls = {}

            def compute(self, ctx, messages):
                key = (ctx.vertex_id, ctx.superstep)
                self.calls[key] = self.calls.get(key, 0) + 1
                ctx.set_value(self.calls[key] if key == (0, 2) else 0)
                if ctx.superstep == 3:
                    ctx.vote_to_halt()

        report = run_chaos(
            Forgetful, petersen(),
            FaultPlan(name="one-crash", faults=(
                FaultSpec(kind="worker_crash", superstep=3, worker_id=1),
            )),
            seed=3, num_workers=2, checkpoint_every=2,
        )
        assert not report.ok
        [failure] = [f for f in report.failures if "digest" in f]
        assert failure.endswith(
            "first divergence at superstep 2, vertex 0, field `value_after`: 1 vs 2"
        ), failure
