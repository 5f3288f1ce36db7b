"""Out-of-core partitioned vertex/message store.

The engine's spill plane (``store="spill"``): vertex state lives in
per-partition *pages* and in-flight messages in per-worker *run files*
of packed column sections cut by destination partition, both on a spill
filesystem (a disk-backed :class:`~repro.simfs.SpoolFileSystem` by
default). The BSP loop then schedules partition-at-a-time: load a page,
group its inbox from the runs, compute, spill, advance — under a
byte-budgeted LRU of hot pages.

See ``docs/scale.md`` for the formats and the memory-ceiling policy.
"""

from repro.pregel.store.pages import (
    PAGE_SEGMENT_ENTRIES,
    decode_segment,
    encode_segment,
    iter_frames,
)
from repro.pregel.store.runs import RunOutbox, SpilledMessageStore
from repro.pregel.store.spill import PartitionPage, SpillStore

__all__ = [
    "PAGE_SEGMENT_ENTRIES",
    "PartitionPage",
    "RunOutbox",
    "SpillStore",
    "SpilledMessageStore",
    "decode_segment",
    "encode_segment",
    "iter_frames",
]
