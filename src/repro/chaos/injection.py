"""Fault injection machinery: the engine-side injector and the chaos DFS.

Two cooperating pieces turn a :class:`~repro.chaos.FaultPlan` into actual
failures:

- :class:`FaultInjector` is handed to the engine (``fault_injector=``) and
  consulted at deterministic points of the BSP loop: the barrier entering
  each superstep (machine crashes), step packaging (mid-step crashes and
  straggler delays — decided by the engine *before* the step is
  scheduled, so the decision is identical under every execution
  backend), and right
  after each checkpoint write (corruption).
- :class:`ChaosFileSystem` is a :class:`~repro.simfs.SimFileSystem` whose
  append path asks the injector whether this write should fail. All write
  entry points (``write_text``, ``append_text``, ``append_bytes``) funnel
  through ``append_bytes``, so one override intercepts every byte that
  would reach the simulated DFS.

Determinism: each probabilistic firing is decided by
``derive_rng(run_seed, "chaos", spec_index, superstep, target)`` — never a
global RNG, never wall clock. All file writes (trace drains, checkpoint
writes) happen in the engine's parent process at barriers, so write faults
keyed on the current superstep are backend-independent too.

Every firing is recorded as a :class:`FaultEvent`, giving tests and the
chaos report an auditable log of what was actually injected.
"""

from dataclasses import dataclass

from repro.common.errors import (
    InjectedWriteCrash,
    SimFsTransientError,
)
from repro.common.rng import derive_rng
from repro.simfs.filesystem import SimFileSystem


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired during a run."""

    kind: str
    superstep: int
    target: str
    detail: str = ""

    def to_dict(self):
        return {
            "kind": self.kind,
            "superstep": self.superstep,
            "target": self.target,
            "detail": self.detail,
        }


class FaultInjector:
    """Consults a fault plan at the engine's deterministic decision points.

    Single-run object: ``bind()`` is called by the engine before the first
    superstep with the run's seed and worker count, which is also what
    seeds every probabilistic decision. Reuse across runs requires a new
    instance (mirroring the engine's own single-use contract).
    """

    def __init__(self, plan):
        self.plan = plan
        self.events = []
        self._run_seed = None
        self._num_workers = None
        self._current_superstep = None
        # spec index -> remaining firings (None = unbounded).
        self._remaining = {
            index: spec.times for index, spec in enumerate(plan.faults)
        }
        # (spec index, superstep, path) sites that already failed once.
        # A transient fault is a blip: the retry of the same append must
        # succeed, so each site fires at most once however many attempts
        # the writer makes (and however large the spec's budget is).
        self._transient_fired = set()

    # -- engine-facing hooks ------------------------------------------------

    def bind(self, run_seed, num_workers):
        """Called once by the engine before superstep 0."""
        self._run_seed = run_seed
        self._num_workers = num_workers

    def begin_superstep(self, superstep):
        """Marks the superstep all subsequent decisions belong to."""
        self._current_superstep = superstep

    def barrier_crash(self, superstep):
        """Worker id to kill at the barrier entering ``superstep``, or None."""
        for index, spec in self._iter_armed("worker_crash", superstep):
            if self._fires(index, spec, superstep, spec.worker_id):
                self._record(
                    spec.kind, superstep, f"worker-{spec.worker_id}",
                    "crash at superstep barrier",
                )
                return spec.worker_id
        return None

    def step_fault(self, superstep, worker_id):
        """Fault decision for one worker's step, made before it runs.

        Returns ``{"delay": seconds}`` and/or ``{"crash_after": calls}``
        merged into one dict, or None when this step runs clean.
        """
        fault = {}
        for index, spec in self._iter_armed("slow_worker", superstep):
            if spec.worker_id == worker_id and self._fires(
                index, spec, superstep, worker_id
            ):
                fault["delay"] = spec.delay_ms / 1000.0
                self._record(
                    spec.kind, superstep, f"worker-{worker_id}",
                    f"delayed {spec.delay_ms}ms",
                )
        for index, spec in self._iter_armed("step_crash", superstep):
            if spec.worker_id == worker_id and self._fires(
                index, spec, superstep, worker_id
            ):
                fault["crash_after"] = spec.after_calls
                self._record(
                    spec.kind, superstep, f"worker-{worker_id}",
                    f"crash after {spec.after_calls} compute() calls",
                )
        return fault or None

    def after_checkpoint(self, filesystem, path, superstep):
        """Corrupt a just-written checkpoint when the plan says so.

        ``superstep`` is the checkpoint's resume superstep. Corruption is
        a hard truncation to half the file — exactly the shape a machine
        loss mid-replication leaves behind — which the checksum header
        catches at recovery time.
        """
        for index, spec in self._iter_armed("checkpoint_corrupt", superstep):
            if self._fires(index, spec, superstep, path):
                size = filesystem.stat(path).size
                filesystem.truncate(path, size // 2)
                self._record(
                    spec.kind, superstep, path,
                    f"truncated {size} -> {size // 2} bytes",
                )

    # -- filesystem-facing hook --------------------------------------------

    def write_fault(self, path):
        """Fault verdict for one append: "transient", "torn", or None.

        Only consulted between ``begin_superstep`` calls (all engine and
        trace writes happen at barriers); writes before superstep 0 — the
        initial checkpoint, trace preludes — are never faulted, so every
        run starts from a structurally sound DFS.
        """
        superstep = self._current_superstep
        if superstep is None:
            return None
        for index, spec in self._iter_armed("transient_io", superstep):
            site = (index, superstep, path)
            if site in self._transient_fired:
                continue
            if path.endswith(spec.path_suffix) and self._fires(
                index, spec, superstep, path
            ):
                self._transient_fired.add(site)
                self._record(spec.kind, superstep, path, "transient append")
                return "transient"
        for index, spec in self._iter_armed("torn_write", superstep):
            if path.endswith(spec.path_suffix) and self._fires(
                index, spec, superstep, path
            ):
                self._record(spec.kind, superstep, path, "torn append")
                return "torn"
        return None

    # -- internals ----------------------------------------------------------

    def _iter_armed(self, kind, superstep):
        """Specs of ``kind`` that match ``superstep`` and have firings left."""
        for index, spec in enumerate(self.plan.faults):
            if spec.kind != kind or not spec.matches_superstep(superstep):
                continue
            remaining = self._remaining[index]
            if remaining is not None and remaining <= 0:
                continue
            yield index, spec

    def _fires(self, index, spec, superstep, target):
        """Decide one firing; decrement the spec's budget when it fires."""
        if spec.probability < 1.0:
            rng = derive_rng(
                self._run_seed, "chaos", index, spec.kind, superstep, str(target)
            )
            if rng.random() >= spec.probability:
                return False
        if self._remaining[index] is not None:
            self._remaining[index] -= 1
        return True

    def _record(self, kind, superstep, target, detail):
        self.events.append(FaultEvent(kind, superstep, target, detail))

    def event_dicts(self):
        return [event.to_dict() for event in self.events]


class ChaosFileSystem(SimFileSystem):
    """A simulated DFS whose appends can fail on the injector's command.

    - ``transient``: the append raises
      :class:`~repro.common.errors.SimFsTransientError` and the file is
      untouched; writers retry bounded and succeed.
    - ``torn``: half the data (at least one byte) lands, then
      :class:`~repro.common.errors.InjectedWriteCrash` is raised — a real
      torn tail produced by a real write. A full filesystem snapshot is
      taken at the moment of the crash (``crash_snapshots``), so tests can
      open readers against the exact bytes a machine loss would have left
      behind, before any recovery repaired them.
    """

    def __init__(self, injector=None, block_size=None):
        if block_size is None:
            super().__init__()
        else:
            super().__init__(block_size=block_size)
        self.injector = injector
        #: ``(path, SimFileSystem)`` pairs: the torn file and a snapshot of
        #: the whole filesystem right after the torn append.
        self.crash_snapshots = []

    def append_bytes(self, path, data):
        fault = (
            self.injector.write_fault(path)
            if self.injector is not None
            else None
        )
        if fault == "transient":
            raise SimFsTransientError(path)
        if fault == "torn":
            written = max(1, len(data) // 2)
            super().append_bytes(path, data[:written])
            self.crash_snapshots.append((path, self.snapshot()))
            raise InjectedWriteCrash(path, written, len(data))
        super().append_bytes(path, data)
