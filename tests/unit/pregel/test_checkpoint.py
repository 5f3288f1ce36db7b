"""Unit tests for checkpointing and Pregel-style failure recovery."""

import pytest

from repro.algorithms import GCMaster, GraphColoring, PageRank, RandomWalk
from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.common.errors import CheckpointError, PregelError
from repro.datasets import premade_graph
from repro.graph import GraphBuilder
from repro.pregel import CheckpointConfig, PregelEngine, WorkerFailure, run_computation
from repro.pregel.checkpoint import latest_checkpoint_path, read_checkpoint
from repro.simfs import SimFileSystem
from tests.conftest import worker_crashes


def chain(n=6):
    return GraphBuilder(directed=False).path(*range(n)).build()


class TestCheckpointConfig:
    def test_interval_must_be_positive(self, fs):
        with pytest.raises(PregelError):
            CheckpointConfig(fs, every_n_supersteps=0)

    def test_paths_sort_by_superstep(self, fs):
        config = CheckpointConfig(fs)
        assert config.path_for(2) < config.path_for(10)


class TestCheckpointWriting:
    def test_checkpoints_written_at_interval(self, fs):
        config = CheckpointConfig(fs, every_n_supersteps=2)
        run_computation(
            lambda: PageRank(iterations=6), chain(), checkpoint_config=config
        )
        files = fs.glob_files("/checkpoints", suffix=".ckpt")
        # Initial checkpoint at 0, then after supersteps 1, 3, 5 -> 2, 4, 6.
        supersteps = sorted(int(p[-11:-5]) for p in files)
        assert supersteps[0] == 0
        assert all(s % 2 == 0 for s in supersteps)
        assert len(supersteps) >= 3

    def test_latest_checkpoint_lookup(self, fs):
        config = CheckpointConfig(fs, every_n_supersteps=2)
        run_computation(
            lambda: PageRank(iterations=6), chain(), checkpoint_config=config
        )
        latest = latest_checkpoint_path(config)
        capped = latest_checkpoint_path(config, before_superstep=3)
        assert latest >= capped
        assert capped.endswith("superstep-000002.ckpt")

    def test_no_checkpoint_to_recover_raises(self, fs):
        config = CheckpointConfig(fs)
        with pytest.raises(PregelError, match="no checkpoint"):
            latest_checkpoint_path(config)


class TestFailureRecovery:
    def test_failure_without_checkpointing_fails_job(self):
        with pytest.raises(WorkerFailure) as info:
            run_computation(
                lambda: PageRank(iterations=6),
                chain(),
                fault_injector=worker_crashes((3, 1)),
            )
        assert info.value.superstep == 3

    def test_recovery_reproduces_failure_free_result(self, fs):
        baseline = run_computation(lambda: PageRank(iterations=8), chain(), seed=5)
        recovered = run_computation(
            lambda: PageRank(iterations=8),
            chain(),
            seed=5,
            checkpoint_config=CheckpointConfig(fs, every_n_supersteps=3),
            fault_injector=worker_crashes((5, 2)),
        )
        assert recovered.recoveries == 1
        assert recovered.vertex_values == baseline.vertex_values
        assert recovered.halt_reason == baseline.halt_reason

    def test_recovery_of_randomized_algorithm_is_exact(self, fs):
        graph = premade_graph("petersen")
        baseline = run_computation(lambda: RandomWalk(6, 40), graph, seed=9)
        recovered = run_computation(
            lambda: RandomWalk(6, 40),
            graph,
            seed=9,
            checkpoint_config=CheckpointConfig(fs, every_n_supersteps=2),
            fault_injector=worker_crashes((4, 0)),
        )
        assert recovered.vertex_values == baseline.vertex_values

    def test_recovery_of_multi_phase_algorithm(self, fs):
        graph = premade_graph("petersen")
        baseline = run_computation(
            GraphColoring, graph, master=GCMaster(), seed=2, max_supersteps=200
        )
        recovered = run_computation(
            GraphColoring,
            graph,
            master=GCMaster(),
            seed=2,
            max_supersteps=200,
            checkpoint_config=CheckpointConfig(fs, every_n_supersteps=4),
            fault_injector=worker_crashes((7, 1)),
        )
        assert recovered.recoveries == 1
        assert recovered.vertex_values == baseline.vertex_values

    def test_multiple_failures_multiple_recoveries(self, fs):
        baseline = run_computation(lambda: PageRank(iterations=10), chain(), seed=1)
        recovered = run_computation(
            lambda: PageRank(iterations=10),
            chain(),
            seed=1,
            checkpoint_config=CheckpointConfig(fs, every_n_supersteps=2),
            fault_injector=worker_crashes((3, 0), (7, 2)),
        )
        assert recovered.recoveries == 2
        assert recovered.vertex_values == baseline.vertex_values

    def test_failure_at_superstep_zero_recovers_from_initial_checkpoint(self, fs):
        baseline = run_computation(lambda: PageRank(iterations=4), chain(), seed=1)
        recovered = run_computation(
            lambda: PageRank(iterations=4),
            chain(),
            seed=1,
            checkpoint_config=CheckpointConfig(fs, every_n_supersteps=100),
            fault_injector=worker_crashes((0, 1)),
        )
        assert recovered.recoveries == 1
        assert recovered.vertex_values == baseline.vertex_values

    def test_re_executed_supersteps_counted_in_metrics(self, fs):
        plain = run_computation(lambda: PageRank(iterations=8), chain(), seed=5)
        recovered = run_computation(
            lambda: PageRank(iterations=8),
            chain(),
            seed=5,
            checkpoint_config=CheckpointConfig(fs, every_n_supersteps=3),
            fault_injector=worker_crashes((5, 2)),
        )
        # Rollback re-runs supersteps, so more compute happened overall...
        assert (
            recovered.metrics.total_compute_calls > plain.metrics.total_compute_calls
        )
        # ...but the logical superstep count is unchanged.
        assert recovered.num_supersteps == plain.num_supersteps

    def test_checkpoints_live_on_the_simulated_dfs(self, fs):
        config = CheckpointConfig(fs, every_n_supersteps=2, directory="/ckpt-here")
        run_computation(lambda: PageRank(iterations=4), chain(), checkpoint_config=config)
        assert fs.is_dir("/ckpt-here")
        assert fs.total_bytes("/ckpt-here") > 0


def _truncate(fs, path):
    fs.truncate(path, fs.stat(path).size // 2)


def _rewrite(fs, path, edit):
    data = edit(fs.read_bytes(path))
    fs.create(path, overwrite=True)
    fs.append_bytes(path, data)


def _flip_a_bit(fs, path):
    def edit(data):
        middle = len(data) // 2
        return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]

    _rewrite(fs, path, edit)


def _as_ckpt1(fs, path):
    # A digest that verifies, under the retired magic.
    _rewrite(fs, path, lambda data: data.replace(b"#CKPT2", b"#CKPT1", 1))


def _strip_header(fs, path):
    _rewrite(fs, path, lambda data: data.partition(b"\n")[2])


DAMAGE = {
    "truncated": _truncate,
    "bit-flipped": _flip_a_bit,
    "ckpt1-magic": _as_ckpt1,
    "header-less": _strip_header,
}


class _DamageCheckpoint(FaultInjector):
    """Worker 0 dies entering superstep 5, after the checkpoint that
    resumes at superstep 4 was damaged on disk."""

    def __init__(self, damage):
        super().__init__(FaultPlan("damage", [
            FaultSpec("worker_crash", superstep=5, worker_id=0),
        ]))
        self._damage = damage

    def after_checkpoint(self, filesystem, path, superstep):
        if superstep == 4:
            self._damage(filesystem, path)


class TestCheckpointIntegrity:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_file_raises_checkpoint_error(self, fs, damage):
        config = CheckpointConfig(fs, every_n_supersteps=2)
        run_computation(
            lambda: PageRank(iterations=3), chain(), checkpoint_config=config
        )
        path = latest_checkpoint_path(config)
        assert fs.read_bytes(path).startswith(b"#CKPT2 sha256=")
        assert read_checkpoint(config, path)["superstep"] == 4
        DAMAGE[damage](fs, path)
        with pytest.raises(CheckpointError):
            read_checkpoint(config, path)

    @pytest.mark.parametrize("store", ["memory", "spill"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_recovery_falls_back_to_the_older_checkpoint(self, fs, damage, store):
        baseline = run_computation(lambda: PageRank(iterations=8), chain(8), seed=2)
        recovered = run_computation(
            lambda: PageRank(iterations=8), chain(8), seed=2,
            num_workers=2, store=store,
            checkpoint_config=CheckpointConfig(fs, every_n_supersteps=2),
            fault_injector=_DamageCheckpoint(DAMAGE[damage]),
        )
        (event,) = recovered.metrics.recovery_events
        assert event["restored_superstep"] == 2
        assert [s["path"] for s in event["skipped_checkpoints"]] == [
            "/checkpoints/superstep-000004.ckpt"
        ]
        assert recovered.metrics.checkpoints_skipped == 1
        assert dict(recovered.vertex_values) == baseline.vertex_values


class TestGraftUnderRecovery:
    def test_debug_run_traces_survive_recovery(self, fs):
        # Graft and checkpointing compose: a debugged run that recovers
        # still produces a coherent trace (re-executed supersteps re-log
        # their captures; the reader keeps the latest record per key).
        from repro.graft import CaptureAllActiveConfig, debug_run

        recovered = debug_run(
            lambda: PageRank(iterations=6),
            chain(),
            CaptureAllActiveConfig(),
            seed=5,
            checkpoint_config=CheckpointConfig(SimFileSystem(), every_n_supersteps=2),
            fault_injector=worker_crashes((3, 1)),
        )
        assert recovered.ok
        assert recovered.result.recoveries == 1
        # Every (vertex, superstep) key is still resolvable.
        for record in recovered.reader.vertex_records:
            assert recovered.reader.get(record.vertex_id, record.superstep)
        # Re-executed supersteps append duplicate trace lines; the reader
        # must deduplicate to one record per (vertex, superstep).
        keys = [r.key for r in recovered.reader.vertex_records]
        assert len(keys) == len(set(keys))
        # And the deduplicated trace equals a failure-free debugged run's.
        clean = debug_run(
            lambda: PageRank(iterations=6),
            chain(),
            CaptureAllActiveConfig(),
            seed=5,
        )
        assert len(recovered.reader.vertex_records) == len(
            clean.reader.vertex_records
        )
