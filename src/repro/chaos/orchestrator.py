"""The recovery-verification harness: inject faults, then prove nothing leaked.

:func:`run_chaos` runs the same debugged computation twice:

1. a **baseline** run on a clean simulated DFS — no faults, no
   checkpoints;
2. an **injected** run on a :class:`~repro.chaos.ChaosFileSystem` driven
   by the plan's :class:`~repro.chaos.FaultInjector`, with checkpointing
   enabled so the engine can roll back and re-execute.

Then it asserts the Pregel determinism contract the paper's debugger
relies on: after every crash, torn write, and corrupted checkpoint, the
injected run's final vertex values, aggregator values, halt reason, and
canonical trace digest are **bit-identical** to the undisturbed run. It
also cross-checks the lazy (index-backed) and eager trace readers against
each other on the post-recovery files *and* on the crash-moment
filesystem snapshots — real torn frames and stale sidecars produced by
real injected faults, not handcrafted corruption.

The result is a :class:`ChaosReport`: machine-checkable (``ok``,
``to_dict``) for tests and the bench gate, human-readable (``summary``)
for the CLI.
"""

import os
from dataclasses import dataclass, field

from repro.chaos.faults import load_fault_plan
from repro.chaos.injection import ChaosFileSystem, FaultInjector
from repro.common.errors import TraceError
from repro.common.serialization import default_codec
from repro.graft.capture import record_to_line
from repro.graft.trace import (
    TraceReader,
    canonical_trace_digest,
    iter_canonical_rows,
)
from repro.pregel.checkpoint import CheckpointConfig
from repro.simfs.filesystem import SimFileSystem

#: Checkpoint cadence the harness defaults to: frequent enough that every
#: preset has a checkpoint to fall back to, sparse enough that rollbacks
#: re-execute real work.
DEFAULT_CHECKPOINT_EVERY = 2


@dataclass
class ChaosReport:
    """Everything one chaos run proved (or failed to prove)."""

    plan_name: str
    executor: str
    num_workers: int
    seed: int
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    baseline_digest: str = ""
    injected_digest: str = ""
    rollbacks: int = 0
    recovered_supersteps: int = 0
    checkpoints_skipped: int = 0
    recovery_events: list = field(default_factory=list)
    fault_events: list = field(default_factory=list)
    snapshots_checked: int = 0
    baseline_seconds: float = 0.0
    injected_seconds: float = 0.0

    @property
    def ok(self):
        return not self.failures

    @property
    def faults_fired(self):
        return len(self.fault_events)

    def summary(self):
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos plan {self.plan_name!r} on executor={self.executor} "
            f"workers={self.num_workers} seed={self.seed}: {status}",
            f"  faults fired: {self.faults_fired}; rollbacks: {self.rollbacks} "
            f"({self.recovered_supersteps} supersteps re-executed, "
            f"{self.checkpoints_skipped} corrupt checkpoint(s) skipped)",
            f"  crash snapshots verified: {self.snapshots_checked}",
            f"  digest: {self.injected_digest[:16]}... "
            + ("== baseline" if self.injected_digest == self.baseline_digest
               else "!= baseline"),
        ]
        for name, passed in self.checks.items():
            lines.append(f"  [{'pass' if passed else 'FAIL'}] {name}")
        for failure in self.failures:
            lines.append(f"  failure: {failure}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "plan": self.plan_name,
            "executor": self.executor,
            "num_workers": self.num_workers,
            "seed": self.seed,
            "ok": self.ok,
            "checks": dict(self.checks),
            "failures": list(self.failures),
            "baseline_digest": self.baseline_digest,
            "injected_digest": self.injected_digest,
            "rollbacks": self.rollbacks,
            "recovered_supersteps": self.recovered_supersteps,
            "checkpoints_skipped": self.checkpoints_skipped,
            "recovery_events": list(self.recovery_events),
            "fault_events": list(self.fault_events),
            "snapshots_checked": self.snapshots_checked,
            "baseline_seconds": self.baseline_seconds,
            "injected_seconds": self.injected_seconds,
        }


def _reader_lines(reader):
    """Every record a reader can see, as canonical lines (sorted)."""
    lines = []
    for superstep in reader.supersteps():
        for record in reader.at_superstep(superstep):
            lines.append(record_to_line(record, default_codec))
    for record in reader.master_records:
        lines.append(record_to_line(record, default_codec))
    return sorted(lines)


def _trace_divergence(baseline_fs, chaos_fs, job_id):
    """Where the recovered run's trace first left the fault-free run's.

    Only a failing run pays for (and imports) the join that says where.
    """
    from repro.graft.diffing import first_divergence

    (_kind, superstep, vertex_repr), name, left, right = first_divergence(
        iter_canonical_rows(baseline_fs, job_id),
        iter_canonical_rows(chaos_fs, job_id),
    )
    where = f"vertex {vertex_repr}" if vertex_repr else "master"
    return (
        "canonical trace digest diverged from the fault-free run: first "
        f"divergence at superstep {superstep}, {where}, "
        f"field `{name}`: {left!r} vs {right!r}"
    )


def _shm_segments():
    """Names of multiprocessing shared-memory segments currently alive."""
    try:
        return {
            name for name in os.listdir("/dev/shm") if name.startswith("psm_")
        }
    except OSError:  # no /dev/shm on this platform: check degrades to a no-op
        return set()


def run_chaos(
    computation_factory,
    graph,
    plan,
    config=None,
    seed=0,
    num_workers=4,
    executor="serial",
    checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
    job_id="chaos",
    expect_faults=True,
    **engine_kwargs,
):
    """Run the fault-injection + recovery-verification harness once.

    ``plan`` is a :class:`~repro.chaos.FaultPlan`, a preset name, or a
    JSON file path (see :func:`~repro.chaos.load_fault_plan`). ``config``
    defaults to capture-everything so the trace comparison is as strict as
    possible. Extra ``engine_kwargs`` (``master=``, ``combiner=``,
    ``max_supersteps=`` ...) apply to both runs. ``expect_faults=False``
    drops the "plan actually fired" check for plans aimed past the run's
    natural halt.

    Caveat: the capture-limit safety net counts re-captured records after
    a rollback, so the harness (like any chaos-run caller) should use
    configs whose ``max_captures`` the run does not approach — a run that
    trips the limit at a different record than its baseline legitimately
    diverges. See docs/fault-tolerance.md.
    """
    from repro.graft.config import CaptureAllActiveConfig
    from repro.graft.debug_run import debug_run

    plan = load_fault_plan(plan)
    if config is None:
        config = CaptureAllActiveConfig()
    shm_before = _shm_segments()
    common = dict(
        seed=seed,
        num_workers=num_workers,
        executor=executor,
        **engine_kwargs,
    )

    baseline_fs = SimFileSystem()
    baseline = debug_run(
        computation_factory, graph, config,
        filesystem=baseline_fs, job_id=job_id, lint=False, **common,
    )

    injector = FaultInjector(plan)
    chaos_fs = ChaosFileSystem(injector)
    injected = debug_run(
        computation_factory, graph, config,
        filesystem=chaos_fs, job_id=job_id, lint=False,
        checkpoint_config=CheckpointConfig(
            filesystem=chaos_fs, every_n_supersteps=checkpoint_every
        ),
        fault_injector=injector,
        **common,
    )

    report = ChaosReport(
        plan_name=plan.name,
        executor=executor,
        num_workers=num_workers,
        seed=seed,
        fault_events=injector.event_dicts(),
    )

    def check(name, passed, detail=""):
        report.checks[name] = bool(passed)
        if not passed:
            report.failures.append(detail or name)
        return bool(passed)

    check(
        "baseline run completed", baseline.ok,
        f"baseline run failed: {baseline.failure}",
    )
    check(
        "injected run completed (recovered from every fault)", injected.ok,
        f"injected run failed: {injected.failure}",
    )
    if expect_faults and plan.faults:
        check(
            "plan injected at least one fault", injector.events,
            "plan injected no faults (coordinates never matched the run)",
        )
    if not (baseline.ok and injected.ok):
        return report

    b_result, i_result = baseline.result, injected.result
    report.rollbacks = i_result.metrics.rollback_count
    report.recovered_supersteps = i_result.metrics.recovered_supersteps
    report.checkpoints_skipped = i_result.metrics.checkpoints_skipped
    report.recovery_events = list(i_result.metrics.recovery_events)
    report.baseline_seconds = b_result.metrics.total_seconds
    report.injected_seconds = i_result.metrics.total_seconds

    check(
        "final vertex values bit-identical",
        i_result.vertex_values == b_result.vertex_values,
        "final vertex values diverged from the fault-free run",
    )
    check(
        "aggregator values bit-identical",
        i_result.aggregator_values == b_result.aggregator_values,
        "aggregator values diverged from the fault-free run",
    )
    check(
        "halt reason and superstep count match",
        (i_result.halt_reason, i_result.num_supersteps)
        == (b_result.halt_reason, b_result.num_supersteps),
        f"halt diverged: baseline ({b_result.halt_reason}, "
        f"{b_result.num_supersteps}) vs injected ({i_result.halt_reason}, "
        f"{i_result.num_supersteps})",
    )

    report.baseline_digest = canonical_trace_digest(baseline_fs, job_id)
    report.injected_digest = canonical_trace_digest(chaos_fs, job_id)
    digests_match = report.injected_digest == report.baseline_digest
    check(
        "canonical trace digest bit-identical",
        digests_match,
        "" if digests_match else _trace_divergence(baseline_fs, chaos_fs, job_id),
    )

    lazy = _reader_lines(TraceReader(chaos_fs, job_id, mode="lazy"))
    eager = _reader_lines(TraceReader(chaos_fs, job_id, mode="eager"))
    check(
        "lazy and eager readers agree on recovered traces",
        lazy == eager,
        "lazy/eager readers disagree on the post-recovery trace files",
    )

    # Crash-moment forensics: every snapshot taken at the instant of a
    # torn write must still open — torn final frames are dropped, stale
    # sidecar tails are rescanned — and both readers must agree on what
    # survived.
    snapshot_failures = []
    for path, snapshot_fs in chaos_fs.crash_snapshots:
        try:
            snap_lazy = _reader_lines(TraceReader(snapshot_fs, job_id, mode="lazy"))
            snap_eager = _reader_lines(TraceReader(snapshot_fs, job_id, mode="eager"))
        except TraceError as exc:
            snapshot_failures.append(f"snapshot after torn {path}: {exc}")
            continue
        if snap_lazy != snap_eager:
            snapshot_failures.append(
                f"snapshot after torn {path}: lazy/eager disagree"
            )
        report.snapshots_checked += 1
    if chaos_fs.crash_snapshots:
        check(
            "crash-moment snapshots readable and reader-consistent",
            not snapshot_failures,
            "; ".join(snapshot_failures),
        )

    # The engine makes no shared-memory segment, so no crash or rollback
    # may leave one behind; user code that makes its own must unlink it
    # too.
    leaked = _shm_segments() - shm_before
    check(
        "no shared-memory segments leaked",
        not leaked,
        f"leaked /dev/shm segments: {sorted(leaked)}",
    )

    return report


def run_chaos_matrix(
    computation_factory,
    graph,
    plans,
    executors=("serial",),
    **kwargs,
):
    """Run several plans across several executors; returns all reports.

    The acceptance sweep: every shipped preset against every backend must
    come back ``ok``.
    """
    reports = []
    for executor in executors:
        for plan in plans:
            reports.append(
                run_chaos(
                    computation_factory, graph, plan,
                    executor=executor, **kwargs,
                )
            )
    return reports
