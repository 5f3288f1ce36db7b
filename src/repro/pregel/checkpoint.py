"""Checkpointing and failure recovery (Pregel's fault-tolerance model).

Pregel checkpoints worker state to the distributed file system at
user-chosen superstep intervals; when a worker fails, the whole computation
rolls back to the last checkpoint and re-executes from there. Because this
engine derives all randomness from ``(run_seed, vertex_id, superstep)``,
re-execution after recovery is bit-identical to an undisturbed run — which
the tests assert.

A checkpoint stores, per worker: vertex values, adjacency, and halt flags;
plus the aggregator visible-state and the messages in flight toward the
next superstep. Everything goes through the trace codec, so checkpoints
are text files on the simulated DFS like Graft's traces. The payload is
laid out in columns (flat parallel lists), which the codec writes and
reads several times faster than thousands of two-element rows.
"""

import hashlib
from dataclasses import dataclass
from itertools import islice

# A checkpoint's vertex values go back through the codec, so the value
# types the library registers with it are imported by this decoder.
import repro.pregel.value_types  # noqa: F401
from repro.common.errors import CheckpointError, PregelError
from repro.common.serialization import default_codec
from repro.pregel.messages import MessageStore
from repro.simfs.writers import append_retrying

#: First line of every checkpoint file: magic + integrity header. Reads
#: verify the digest before trusting the payload, so a corrupted (or torn)
#: checkpoint is detected and recovery falls back to an older one instead
#: of restoring garbage state.
CHECKPOINT_MAGIC = "#CKPT2"



@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint.

    ``every_n_supersteps``: a checkpoint is written after the barrier of
    each superstep ``s`` with ``(s + 1) % every_n_supersteps == 0``, plus
    an initial checkpoint before superstep 0.
    """

    filesystem: object
    every_n_supersteps: int = 5
    directory: str = "/checkpoints"

    def __post_init__(self):
        if self.every_n_supersteps <= 0:
            raise PregelError("every_n_supersteps must be positive")

    def path_for(self, superstep):
        return f"{self.directory}/superstep-{superstep:06d}.ckpt"


class WorkerFailure(PregelError):
    """A simulated machine failure of one worker at a superstep boundary."""

    def __init__(self, worker_id, superstep):
        super().__init__(
            f"worker {worker_id} failed at the start of superstep {superstep}"
        )
        self.worker_id = worker_id
        self.superstep = superstep


def _worker_payload(worker):
    """One worker's state via the store-agnostic :meth:`Worker.iter_state`.

    Spilled workers stream their pages through the same view, so the
    checkpoint format is identical whichever plane holds the vertices.
    Adjacency is flattened CSR-style: vertex ``i`` owns the next
    ``degrees[i]`` entries of ``edge_targets`` / ``edge_values``.
    """
    ids, values, halted, degrees, edge_targets, edge_values = [], [], [], [], [], []
    for vertex_id, value, edge_map, halt_flag in worker.iter_state():
        ids.append(vertex_id)
        values.append(value)
        halted.append(halt_flag)
        degrees.append(len(edge_map))
        edge_targets += edge_map
        edge_values += edge_map.values()
    return {
        "worker_id": worker.worker_id, "ids": ids, "values": values,
        "halted": halted, "degrees": degrees,
        "edge_targets": edge_targets, "edge_values": edge_values,
    }


def write_checkpoint(config, superstep, workers, aggregators, incoming, codec=None):
    """Serialize the full engine state for resuming at ``superstep``."""
    codec = codec or default_codec
    sources, targets, values = [], [], []
    for source, target, value in incoming.iter_checkpoint_messages():
        sources.append(source)
        targets.append(target)
        values.append(value)
    payload = {
        "superstep": superstep,
        "aggregators": aggregators.visible_snapshot(),
        "workers": [_worker_payload(worker) for worker in workers],
        "messages": {"sources": sources, "targets": targets, "values": values},
    }
    body = codec.dumps(payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path = config.path_for(superstep)
    # create + retrying append: a transient fs error mid-write is retried
    # from a fresh empty file, so no half-old half-new content can exist.
    config.filesystem.create(path, overwrite=True)
    append_retrying(
        config.filesystem, path, f"{CHECKPOINT_MAGIC} sha256={digest}\n{body}"
    )
    return path


def read_checkpoint(config, path, codec=None):
    """Load a checkpoint payload back into plain engine-state structures.

    Raises :class:`~repro.common.errors.CheckpointError` when the file is
    corrupt: undecodable bytes, a checksum mismatch against the integrity
    header, or a payload that no longer parses. Recovery treats that as
    "this checkpoint does not exist" and falls back to an older one.
    """
    codec = codec or default_codec
    try:
        text = config.filesystem.read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {path!r} is not text: {exc}") from exc
    header, sep, body = text.partition("\n")
    seal = f"{CHECKPOINT_MAGIC} sha256="
    if not sep or not header.startswith(seal):
        raise CheckpointError(
            f"checkpoint {path!r} has no intact {CHECKPOINT_MAGIC} header"
        )
    expected = header[len(seal):]
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != expected:
        raise CheckpointError(
            f"checkpoint {path!r} fails its checksum "
            f"(expected {expected[:12]}..., got {actual[:12]}...)"
        )
    try:
        payload = codec.loads(body)
    except Exception as exc:  # noqa: BLE001 - any decode failure is corruption
        raise CheckpointError(
            f"checkpoint {path!r} payload unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict) or not (
        {"superstep", "aggregators", "workers", "messages"} <= set(payload)
    ):
        raise CheckpointError(f"checkpoint {path!r} is missing required keys")
    store = MessageStore()
    messages = payload["messages"]
    store.deliver_columns(
        messages["sources"], messages["targets"], messages["values"]
    )
    return {
        "superstep": payload["superstep"],
        "aggregators": payload["aggregators"],
        "workers": payload["workers"],
        "incoming": store,
    }


def checkpoint_candidates(config, before_superstep=None):
    """Checkpoint paths newest-first, optionally only those <= a superstep.

    Recovery walks this list and restores from the first checkpoint that
    passes verification, so one corrupt file costs one fallback step, not
    the whole job.
    """
    files = config.filesystem.glob_files(config.directory, suffix=".ckpt")
    if before_superstep is not None:
        files = [
            path
            for path in files
            if _superstep_of(path) <= before_superstep
        ]
    return sorted(files, key=_superstep_of, reverse=True)


def latest_checkpoint_path(config, before_superstep=None):
    """The newest checkpoint file, optionally only those <= a superstep."""
    files = checkpoint_candidates(config, before_superstep)
    if not files:
        raise PregelError("no checkpoint available to recover from")
    return files[0]


def _superstep_of(path):
    name = path.rsplit("/", 1)[-1]
    return int(name.replace("superstep-", "").replace(".ckpt", ""))


def restore_workers(workers, checkpoint, partitioner, locations):
    """Overwrite live worker state and the engine's location map (vertex
    id -> partition id, refilled in place: spilled workers hold it and
    read their vertices' partitions from it) from a checkpoint payload."""
    by_id = {worker.worker_id: worker for worker in workers}
    locations.clear()
    for state in checkpoint["workers"]:
        ids = state["ids"]
        for vertex_id in ids:
            locations[vertex_id] = partitioner.partition_for(vertex_id)
        targets = iter(state["edge_targets"])
        edge_values = iter(state["edge_values"])
        by_id[state["worker_id"]].restore_state(
            dict(zip(ids, state["values"])),
            {
                # zip stops at the first exhausted slice, so each vertex
                # consumes exactly ``degree`` entries of both columns.
                vertex_id: dict(
                    zip(islice(targets, degree), islice(edge_values, degree))
                )
                for vertex_id, degree in zip(ids, state["degrees"])
            },
            dict(zip(ids, state["halted"])),
        )
