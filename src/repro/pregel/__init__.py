"""A Pregel/Giraph-compatible BSP graph-processing engine.

This is the substrate the Graft debugger instruments. It reproduces the
Giraph execution model the paper depends on:

- vertex-centric ``compute()`` called once per active vertex per superstep,
  with access to exactly the five pieces of Giraph context data (vertex id,
  outgoing edges, incoming messages, aggregators, default global data);
- ``vote_to_halt()`` / message-wakeup halting semantics;
- an optional ``master_compute()`` run at the beginning of each superstep;
- aggregators merged at superstep barriers;
- messages routed between hash-partitioned workers, optionally combined;
- graph mutations (edge edits, vertex add/remove requests, message-to-
  missing-vertex vertex creation) resolved at barriers.

The "cluster" is simulated: workers are in-process objects executed in a
deterministic order, which leaves every API and every superstep boundary
identical to the distributed original while making runs exactly
reproducible from a seed.
"""

from repro.common.lazy import lazy_exports

TYPE_CHECKING = False

if TYPE_CHECKING:
    from repro.pregel.aggregators import (
        Aggregator,
        AggregatorBuffer,
        AggregatorRegistry,
        AndAggregator,
        MaxAggregator,
        MinAggregator,
        OrAggregator,
        OverwriteAggregator,
        SumAggregator,
    )
    from repro.pregel.combiners import (
        MaxCombiner,
        MessageCombiner,
        MinCombiner,
        SumCombiner,
    )
    from repro.pregel.checkpoint import (
        CheckpointConfig,
        WorkerFailure,
        checkpoint_candidates,
    )
    from repro.common.errors import CheckpointError
    from repro.pregel.computation import Computation, WorkerInfo
    from repro.pregel.context import ComputeContext
    from repro.pregel.engine import PregelEngine, PregelResult, run_computation
    from repro.pregel.job import JobResult, read_output, run_job, write_output
    from repro.pregel.master import MasterComputation, MasterContext
    from repro.pregel.metrics import RunMetrics, SuperstepMetrics
    from repro.pregel.permutation import PermutationSchedule
    from repro.pregel.partition import (
        ExplicitPartitioner,
        HashPartitioner,
        Partitioner,
        RangePartitioner,
    )
    from repro.pregel.store import SpillStore
    from repro.pregel.runtime import (
        EXECUTOR_NAMES,
        ExecutionBackend,
        SerialBackend,
        StepOutcome,
        resolve_backend,
    )
    from repro.pregel.value_types import Int32, Long64, Short16

__all__ = [
    "Aggregator",
    "AggregatorBuffer",
    "AggregatorRegistry",
    "AndAggregator",
    "MaxAggregator",
    "MinAggregator",
    "OrAggregator",
    "OverwriteAggregator",
    "SumAggregator",
    "MessageCombiner",
    "MinCombiner",
    "MaxCombiner",
    "SumCombiner",
    "CheckpointConfig",
    "CheckpointError",
    "WorkerFailure",
    "checkpoint_candidates",
    "Computation",
    "WorkerInfo",
    "ComputeContext",
    "PregelEngine",
    "PregelResult",
    "run_computation",
    "JobResult",
    "read_output",
    "run_job",
    "write_output",
    "MasterComputation",
    "MasterContext",
    "RunMetrics",
    "SuperstepMetrics",
    "PermutationSchedule",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "ExplicitPartitioner",
    "SpillStore",
    "EXECUTOR_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "StepOutcome",
    "resolve_backend",
    "Short16",
    "Int32",
    "Long64",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.common.errors": ("CheckpointError",),
    "repro.pregel.aggregators": (
        "Aggregator", "AggregatorBuffer", "AggregatorRegistry",
        "AndAggregator", "MaxAggregator", "MinAggregator", "OrAggregator",
        "OverwriteAggregator", "SumAggregator",
    ),
    "repro.pregel.checkpoint": (
        "CheckpointConfig", "WorkerFailure", "checkpoint_candidates",
    ),
    "repro.pregel.combiners": (
        "MaxCombiner", "MessageCombiner", "MinCombiner", "SumCombiner",
    ),
    "repro.pregel.computation": ("Computation", "WorkerInfo"),
    "repro.pregel.context": ("ComputeContext",),
    "repro.pregel.engine": ("PregelEngine", "PregelResult", "run_computation"),
    "repro.pregel.job": ("JobResult", "read_output", "run_job", "write_output"),
    "repro.pregel.master": ("MasterComputation", "MasterContext"),
    "repro.pregel.metrics": ("RunMetrics", "SuperstepMetrics"),
    "repro.pregel.partition": (
        "ExplicitPartitioner", "HashPartitioner", "Partitioner",
        "RangePartitioner",
    ),
    "repro.pregel.permutation": ("PermutationSchedule",),
    "repro.pregel.runtime": (
        "EXECUTOR_NAMES", "ExecutionBackend", "SerialBackend",
        "StepOutcome", "resolve_backend",
    ),
    "repro.pregel.store.spill": ("SpillStore",),
    "repro.pregel.value_types": ("Int32", "Long64", "Short16"),
})
